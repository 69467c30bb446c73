"""Census-tract regression protocol: does geography or socio-economics
drive reported travel time?

Five models compete under paired 5-fold cross-validation: a train-mean
baseline, three OLS variants on the grid-time features, and a LASSO over
the grid-time features plus the 19 social-vulnerability variables. Features
are standardized per fold with train statistics; the dependent variable
(mean reported travel time, minutes) stays on its raw scale.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from operator import mul
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError, SolverError
from .geogrid import Grid, assign_cells
from .ingest import CallTable
from .rng import derive_seed, substream

SVI_COLUMNS = (
    "E_TOTPOP",
    "E_HU",
    "E_HH",
    "E_POV",
    "E_UNEMP",
    "E_NOHSDP",
    "E_AGE65",
    "E_AGE17",
    "E_DISABL",
    "E_SNGPNT",
    "E_MINRTY",
    "E_LIMENG",
    "E_MUNIT",
    "E_MOBILE",
    "E_CROWD",
    "E_NOVEH",
    "E_GROUPQ",
    "E_UNINSUR",
    "E_DAYPOP",
)
GRID_FEATURES = ("min.station.time", "avg.station.time")
FEATURE_NAMES = GRID_FEATURES + SVI_COLUMNS


@dataclass
class TractDataset:
    """One row per census tract: dependent travel time plus 21 features."""

    tract_ids: list[str]
    y: np.ndarray  # mean reported travel time, minutes
    X: np.ndarray  # columns ordered as FEATURE_NAMES
    n_dropped_no_svi: int = 0
    n_tracts_no_calls: int = 0

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.float64)
        self.X = np.asarray(self.X, dtype=np.float64)
        if self.X.shape != (len(self.tract_ids), len(FEATURE_NAMES)):
            raise DataError(
                f"feature matrix must be {len(self.tract_ids)} x {len(FEATURE_NAMES)}, got {self.X.shape}"
            )
        if self.y.shape != (len(self.tract_ids),):
            raise DataError("dependent vector length must match tract count")
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.y))):
            raise DataError("tract dataset contains missing values")


def assemble_tracts(
    calls: CallTable,
    grid: Grid,
    tract_map: Mapping[int, str],
    svi_table: Mapping[str, Mapping[str, float]],
    snap_cells: float = 1.0,
) -> TractDataset:
    """Aggregate calls and grid-time features per census tract.

    Per cell, the grid-time features are the minimum and average travel
    time from the stations, in minutes. Tract features are the
    call-frequency weighted average over the tract's cells; the dependent
    is the mean reported travel time of the tract's calls. Tracts without
    calls, or missing from the SVI table, are dropped and counted.
    """
    if not grid.station_cells:
        raise DataError("grid has no stations; grid-time features are undefined")
    station_times = grid.travel_time_s[np.asarray(grid.station_cells), :]  # stations x cells
    cell_min_min = station_times.min(axis=0) / 60.0
    cell_avg_min = station_times.mean(axis=0) / 60.0

    tract_cells: dict[str, list[int]] = {}
    for cell, tract in tract_map.items():
        tract_cells.setdefault(tract, []).append(int(cell))
    # each call with a reported travel time, by the tract of its cell (-1: none)
    tracts = sorted(tract_cells)
    tract_of_cell = np.full(grid.n_cells, -1, dtype=np.int64)
    for t, tract in enumerate(tracts):
        cells_in = [c for c in tract_cells[tract] if 0 <= c < grid.n_cells]
        tract_of_cell[cells_in] = t
    reported_s = calls.reported_travel_s
    has = ~np.isnan(reported_s)
    call_cells, inside = assign_cells(grid, calls.lat[has], calls.lon[has], snap_cells)
    call_tract = np.where(inside, tract_of_cell[np.where(inside, call_cells, 0)], -1)
    cell_calls = np.bincount(call_cells[call_tract >= 0], minlength=grid.n_cells)
    minutes = reported_s[has] / 60.0

    tract_ids: list[str] = []
    ys: list[float] = []
    rows: list[list[float]] = []
    dropped_no_svi = 0
    no_calls = 0
    for t, tract in enumerate(tracts):
        reported = minutes[call_tract == t]
        if not len(reported):
            no_calls += 1
            continue
        svi = svi_table.get(tract)
        if svi is None:
            dropped_no_svi += 1
            continue
        cells = tract_cells[tract]
        weights = np.array([cell_calls[c] if 0 <= c < grid.n_cells else 0 for c in cells], dtype=np.float64)
        if weights.sum() == 0:
            no_calls += 1
            continue
        weights /= weights.sum()
        min_t = float(np.dot(weights, cell_min_min[cells]))
        avg_t = float(np.dot(weights, cell_avg_min[cells]))
        try:
            svi_values = [float(svi[name]) for name in SVI_COLUMNS]
        except KeyError as exc:
            raise DataError(f"SVI table for tract {tract} is missing column {exc}")
        tract_ids.append(tract)
        ys.append(float(np.mean(reported)))
        rows.append([min_t, avg_t] + svi_values)
    return TractDataset(
        tract_ids=tract_ids,
        y=np.array(ys, dtype=np.float64),
        X=np.array(rows, dtype=np.float64).reshape(len(tract_ids), len(FEATURE_NAMES)),
        n_dropped_no_svi=dropped_no_svi,
        n_tracts_no_calls=no_calls,
    )


@dataclass
class FoldStats:
    mean: np.ndarray
    std: np.ndarray
    zero_variance_cols: list[int]


def standardize_fold(train: np.ndarray, test: np.ndarray) -> tuple[np.ndarray, np.ndarray, FoldStats]:
    """Standardize columns with the train mean and sample std (divisor n-1).

    The test side is transformed with the train statistics. Zero-variance
    train columns are zeroed on both sides and flagged.
    """
    train = np.asarray(train, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if train.shape[0] < 2:
        raise DataError("need at least 2 train rows to standardize")
    mean = train.mean(axis=0)
    std = train.std(axis=0, ddof=1)
    zero = [int(c) for c in np.nonzero(std == 0.0)[0]]
    safe = np.where(std == 0.0, 1.0, std)
    train_z = (train - mean) / safe
    test_z = (test - mean) / safe
    if zero:
        train_z[:, zero] = 0.0
        test_z[:, zero] = 0.0
    return train_z, test_z, FoldStats(mean=mean, std=std, zero_variance_cols=zero)


def fit_ols(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Normal-equation least squares; returns [intercept, coefficients...].

    Falls back to a 1e-8 ridge on the normal matrix when it is singular.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    A = np.hstack([np.ones((X.shape[0], 1)), X])
    gram = A.T @ A
    rhs = A.T @ y
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.solve(gram + 1e-8 * np.eye(gram.shape[0]), rhs)


def lasso_objective(X: np.ndarray, y: np.ndarray, beta: np.ndarray, lam: float) -> float:
    """RSS / (2n) + lam * L1, with beta laid out as [intercept, coefs...]."""
    n = X.shape[0]
    resid = y - beta[0] - X @ beta[1:]
    return float((resid**2).sum()) / (2 * n) + lam * float(np.abs(beta[1:]).sum())


def fit_lasso(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    tol: float = 1e-8,
    max_sweeps: int = 100_000,
) -> np.ndarray:
    """Cyclic coordinate descent with covariance updates for the L1-penalized
    least squares (Friedman, Hastie & Tibshirani 2010).

    Objective RSS/(2n) + lam * L1 with an unpenalized intercept; converged
    when no coefficient moves more than tol in a sweep. Returns
    [intercept, coefficients...].

    The design A = [1 X] is read once into its Gram matrix G = A^T A and
    A^T y, and a sweep works on those alone, in plain floats: coordinate j
    moves to soft(A_j^T y - sum over k != j of G_jk b_k, lam * n) / G_jj,
    p + 1 products whatever the row count. The intercept is coordinate 0,
    unpenalized and visited last in each sweep; a column with G_jj = 0
    keeps a zero coefficient.
    """
    if tol <= 0:
        raise ConfigError(f"tol must be positive, got {tol}")
    if lam < 0:
        raise ConfigError(f"lambda must be nonnegative, got {lam}")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = X.shape
    design = np.hstack([np.ones((n, 1)), X])
    xy = (design.T @ y).tolist()
    gram = (design.T @ design).tolist()
    # (j, row j of G with its diagonal zeroed, G_jj, soft threshold)
    coords = []
    for j in [*range(1, p + 1), 0]:
        row = gram[j]
        norm2 = row[j]
        if norm2 != 0.0:
            row[j] = 0.0
            coords.append((j, row, norm2, lam * n if j else 0.0))
    beta = [float(y.mean())] + [0.0] * p
    for _ in range(max_sweeps):
        max_delta = 0.0
        for j, off_diag, norm2, threshold in coords:
            rho = xy[j] - sum(map(mul, off_diag, beta))
            if rho > threshold:
                new = (rho - threshold) / norm2
            elif rho < -threshold:
                new = (rho + threshold) / norm2
            else:
                new = 0.0
            delta = abs(new - beta[j])
            beta[j] = new
            if delta > max_delta:
                max_delta = delta
        if max_delta < tol:
            return np.array(beta)
    err = SolverError(f"LASSO did not converge within {max_sweeps} sweeps (lambda={lam})")
    err.last_iterate = np.array(beta)
    raise err


@dataclass
class ModelReport:
    label: str
    variables: str
    fold_mses: list[float]
    average_mse: float = field(init=False)

    def __post_init__(self):
        self.average_mse = float(np.mean(self.fold_mses))


DEFAULT_LAMBDA_GRID = tuple(10.0**e for e in (-3, -2, -1, 0, 1))


def _fold_indices(n: int, k: int, seed: int) -> list[np.ndarray]:
    perm = substream(seed, "analysis-folds").permutation(n)
    return [np.sort(f) for f in np.array_split(perm, k)]


def _predict(beta: np.ndarray, X: np.ndarray) -> np.ndarray:
    return beta[0] + X @ beta[1:]


def _select_lambda(
    X: np.ndarray, y: np.ndarray, grid: Sequence[float], seed: int, outer_fold: int
) -> float:
    """Inner cross-validation over the lambda ladder; ties take the larger lambda."""
    n = X.shape[0]
    k_inner = min(5, n)
    if k_inner < 2:
        return float(grid[0])
    # each inner fold is standardized once and fitted at every lambda
    splits = []
    for fold in _fold_indices(n, k_inner, derive_seed(seed, "lambda-select", outer_fold)):
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        if mask.sum() < 2 or len(fold) == 0:
            continue
        tr_x, te_x, _ = standardize_fold(X[mask], X[fold])
        splits.append((tr_x, y[mask], te_x, y[fold]))
    best_lam, best_mse = None, None
    for lam in grid:
        mses = []
        try:
            for tr_x, tr_y, te_x, te_y in splits:
                beta = fit_lasso(tr_x, tr_y, lam)
                mses.append(float(((te_y - _predict(beta, te_x)) ** 2).mean()))
        except SolverError:
            continue  # a lambda that cannot converge is disqualified
        if not mses:
            continue
        avg = float(np.mean(mses))
        if best_mse is None or avg < best_mse or (avg == best_mse and lam > best_lam):
            best_lam, best_mse = float(lam), avg
    return float(grid[0]) if best_lam is None else best_lam


def _fit_lasso_with_fallback(X: np.ndarray, y: np.ndarray, lam: float, grid: Sequence[float]) -> np.ndarray:
    """Fit at lam, stepping up the ladder if coordinate descent stalls.

    Larger penalties converge faster, so the first convergent value above
    the requested one is used; only if every candidate fails is the error
    propagated.
    """
    ladder = [lam] + sorted(v for v in grid if v > lam)
    last_err: SolverError | None = None
    for v in ladder:
        try:
            return fit_lasso(X, y, v)
        except SolverError as err:
            last_err = err
    raise last_err


def compare_models(
    dataset: TractDataset,
    k: int = 5,
    seed: int = 0,
    lambda_grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
) -> list[ModelReport]:
    """Paired k-fold comparison of the five competing models.

    All models share identical seeded folds. Reports are sorted by average
    test MSE, best first.
    """
    if k < 2:
        raise ConfigError(f"need at least 2 folds, got {k}")
    n = len(dataset.tract_ids)
    if n < k:
        raise DataError(f"need at least k={k} tracts, got {n}")
    folds = _fold_indices(n, k, seed)
    min_col = FEATURE_NAMES.index("min.station.time")
    avg_col = FEATURE_NAMES.index("avg.station.time")
    specs = [
        ("Mean in the train set", "N/A", None),
        ("Linear Regression", "min.station.time", [min_col]),
        ("Linear Regression", "avg.station.time", [avg_col]),
        ("Linear Regression", "min.station.time + avg.station.time", [min_col, avg_col]),
        ("Lasso", "All 21 variables", list(range(len(FEATURE_NAMES)))),
    ]
    fold_mses: dict[int, list[float]] = {i: [] for i in range(len(specs))}
    for fold_no, fold in enumerate(folds):
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        y_tr, y_te = dataset.y[mask], dataset.y[fold]
        for spec_no, (label, _, cols) in enumerate(specs):
            if cols is None:
                pred = np.full(len(fold), y_tr.mean())
            else:
                tr_x, te_x, _ = standardize_fold(dataset.X[mask][:, cols], dataset.X[fold][:, cols])
                if label == "Lasso":
                    lam = _select_lambda(dataset.X[mask][:, cols], y_tr, lambda_grid, seed, fold_no)
                    beta = _fit_lasso_with_fallback(tr_x, y_tr, lam, lambda_grid)
                else:
                    beta = fit_ols(tr_x, y_tr)
                pred = _predict(beta, te_x)
            fold_mses[spec_no].append(float(((y_te - pred) ** 2).mean()))
    reports = [
        ModelReport(label=label, variables=variables, fold_mses=fold_mses[i])
        for i, (label, variables, _) in enumerate(specs)
    ]
    return sorted(reports, key=lambda r: r.average_mse)


def save_model_reports(reports: Sequence[ModelReport], path: str | Path) -> None:
    """CSV with the comparison-table columns: Model, Variables, Average MSE."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["Model", "Variables", "Average MSE"])
        for r in reports:
            writer.writerow([r.label, r.variables, f"{r.average_mse:.4f}"])


def load_svi_table(path: str | Path) -> dict[str, dict[str, float]]:
    """SVI CSV keyed by tract id with the 19 expected columns."""
    out: dict[str, dict[str, float]] = {}
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        header = reader.fieldnames or []
        if "tract_id" not in header:
            raise DataError(f"{path}: missing tract_id column")
        missing = [c for c in SVI_COLUMNS if c not in header]
        if missing:
            raise DataError(f"{path}: missing SVI columns: {', '.join(missing)}")
        for row in reader:
            out[row["tract_id"]] = {c: float(row[c]) for c in SVI_COLUMNS}
    return out


def load_tract_map(path: str | Path) -> dict[int, str]:
    """Cell-to-tract CSV with columns cell_index, tract_id."""
    out: dict[int, str] = {}
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        header = reader.fieldnames or []
        if "cell_index" not in header or "tract_id" not in header:
            raise DataError(f"{path}: need columns cell_index, tract_id")
        for row in reader:
            out[int(row["cell_index"])] = row["tract_id"]
    return out
