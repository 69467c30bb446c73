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
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError, open_input
from .geogrid import Grid, assign_cells
from .ingest import CallTable, check_table
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
    calls, or missing from the SVI table, are dropped and counted; a tract
    map cell outside the grid is a DataError naming it.
    """
    if not grid.station_cells:
        raise DataError("grid has no stations; grid-time features are undefined")
    station_times = grid.travel_time_s[np.asarray(grid.station_cells), :]  # stations x cells
    cell_min_min = station_times.min(axis=0) / 60.0
    cell_avg_min = station_times.mean(axis=0) / 60.0

    tract_cells: dict[str, list[int]] = {}
    for cell, tract in tract_map.items():
        if not 0 <= cell < grid.n_cells:
            raise DataError(f"tract map cell {cell} (tract {tract}) is outside the {grid.n_cells}-cell grid")
        tract_cells.setdefault(tract, []).append(int(cell))
    # each call with a reported travel time, by the tract of its cell (-1: none)
    tracts = sorted(tract_cells)
    tract_of_cell = np.full(grid.n_cells, -1, dtype=np.int64)
    for t, tract in enumerate(tracts):
        tract_of_cell[tract_cells[tract]] = t
    reported_s = check_table(calls).reported_travel_s
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
        # a reported call's cell is among its tract's cells, so the weights sum above 0
        cells = tract_cells[tract]
        weights = cell_calls[cells].astype(np.float64)
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


def standardize_fold(train: np.ndarray, test: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Standardize columns with the train mean and sample std (divisor n-1).

    The test side is transformed with the train statistics. Zero-variance
    train columns are zeroed on both sides.
    """
    train = np.asarray(train, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if train.shape[0] < 2:
        raise DataError("need at least 2 train rows to standardize")
    mean = train.mean(axis=0)
    std = train.std(axis=0, ddof=1)
    zero = std == 0.0
    safe = np.where(zero, 1.0, std)
    train_z = (train - mean) / safe
    test_z = (test - mean) / safe
    train_z[:, zero] = 0.0
    test_z[:, zero] = 0.0
    return train_z, test_z


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


def lasso_path(X: np.ndarray, y: np.ndarray, lambdas: Sequence[float]) -> np.ndarray:
    """The LASSO at each lambda, one row [intercept, coefficients...] per
    lambda in the order given: RSS/(2n) + lam * L1 with an unpenalized
    intercept, solved exactly by the homotopy path (Osborne, Presnell &
    Turlach 2000; Efron, Hastie, Johnstone & Tibshirani 2004).

    On centred X and y the coefficients are piecewise linear in lambda. The
    walk starts at lambda_max = max|X^T y|/n with the column of that
    correlation active and moves lambda down; the active coefficients move
    along d, the least-squares solution of G_AA d = s_A (G = X^T X/n, s the
    signs of the active correlations), until a breakpoint, where one column
    joins (its correlation reaches lambda) or leaves (its coefficient
    reaches zero). A breakpoint within 1e-12 lambda_max of a grid lambda is
    that lambda. A column of zero norm, or equal to an earlier one up to
    sign, adds nothing to the fit and never joins.
    """
    lambdas = np.asarray(lambdas, dtype=np.float64)
    if np.any(lambdas < 0):
        raise ConfigError(f"lambda must be nonnegative, got {lambdas.min()}")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = X.shape
    x_mean, y_mean = X.mean(axis=0), y.mean()
    Xc = np.where(np.ptp(X, axis=0) > 0, X - x_mean, 0.0)
    yc = y - y_mean
    gram = Xc.T @ Xc / n
    c = Xc.T @ yc / n
    lead = Xc[np.argmax(Xc != 0, axis=0), np.arange(p)]  # each column's first nonzero entry
    usable = np.zeros(p, dtype=bool)
    usable[np.unique(np.where(lead < 0, -Xc, Xc), axis=1, return_index=True)[1]] = True
    usable &= np.diag(gram) > 0
    beta, signs, active = np.zeros(p), np.sign(c), np.zeros(p, dtype=bool)
    lam = lam_max = np.abs(c[usable]).max(initial=0.0)
    active[np.argmax(np.where(usable, np.abs(c), -1.0))] = lam > 0
    path = np.empty((len(lambdas), p + 1))
    for i in np.argsort(-lambdas):
        while lam > lambdas[i]:
            A = np.flatnonzero(active)
            d = np.linalg.lstsq(gram[np.ix_(A, A)], signs[A], rcond=None)[0]
            a = gram[:, A] @ d  # how fast each correlation falls with lambda
            c = Xc.T @ (yc - Xc @ beta) / n
            # the lambda step to each breakpoint: a column joins at +lambda (row 0)
            # or -lambda (row 1), or an active coefficient reaches zero (row 2)
            steps = np.full((3, p), np.inf)
            for row, sign in enumerate((1.0, -1.0)):
                joins = usable & ~active & (sign * a < 1.0)
                steps[row, joins] = np.maximum(lam - sign * c[joins], 0.0) / (1.0 - sign * a[joins])
            shrinks = beta[A] * d < 0
            steps[2, A[shrinks]] = -beta[A[shrinks]] / d[shrinks]
            row, j = np.unravel_index(np.argmin(steps), steps.shape)
            if steps[row, j] >= lam - lambdas[i] - 1e-12 * lam_max:
                beta[A] += (lam - lambdas[i]) * d
                lam = lambdas[i]
            else:
                beta[A] += steps[row, j] * d
                lam -= steps[row, j]
                if row == 2:
                    active[j], beta[j] = False, 0.0
                else:
                    active[j], signs[j] = True, 1.0 - 2.0 * row
        path[i] = [y_mean - x_mean @ beta, *beta]
    return path


def fit_lasso(X: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """The LASSO at one lambda: ``lasso_path`` at [lam]."""
    return lasso_path(X, y, [lam])[0]


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
    """Inner cross-validation over the lambda ladder; ties take the larger lambda.

    ``X`` has at least 2 rows (the caller standardized it), so there are at
    least 2 inner folds, none empty; an inner split with under 2 training rows
    is skipped, and with none left the first lambda is taken.
    """
    n = X.shape[0]
    # each inner split is standardized once and walked along one path through every lambda
    splits = []
    for fold in _fold_indices(n, min(5, n), derive_seed(seed, "lambda-select", outer_fold)):
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        if mask.sum() < 2:
            continue
        tr_x, te_x = standardize_fold(X[mask], X[fold])
        splits.append((lasso_path(tr_x, y[mask], grid), te_x, y[fold]))
    if not splits:
        return float(grid[0])
    best_lam, best_mse = None, None
    for g, lam in enumerate(grid):
        avg = float(np.mean([((te_y - _predict(path[g], te_x)) ** 2).mean() for path, te_x, te_y in splits]))
        if best_mse is None or avg < best_mse or (avg == best_mse and lam > best_lam):
            best_lam, best_mse = float(lam), avg
    return best_lam


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
                tr_x, te_x = standardize_fold(dataset.X[mask][:, cols], dataset.X[fold][:, cols])
                if label == "Lasso":
                    lam = _select_lambda(dataset.X[mask][:, cols], y_tr, lambda_grid, seed, fold_no)
                    beta = fit_lasso(tr_x, y_tr, lam)
                else:
                    beta = fit_ols(tr_x, y_tr)
                pred = _predict(beta, te_x)
            fold_mses[spec_no].append(float(((y_te - pred) ** 2).mean()))
    reports = [
        ModelReport(label=label, variables=variables, fold_mses=fold_mses[i])
        for i, (label, variables, _) in enumerate(specs)
    ]
    return sorted(reports, key=lambda r: r.average_mse)


def load_svi_table(path: str | Path) -> dict[str, dict[str, float]]:
    """SVI CSV keyed by tract id with the 19 expected columns."""
    out: dict[str, dict[str, float]] = {}
    with open_input(path, "SVI table") as f:
        reader = csv.DictReader(f)
        header = reader.fieldnames or []
        if "tract_id" not in header:
            raise DataError(f"{path}: missing tract_id column")
        missing = [c for c in SVI_COLUMNS if c not in header]
        if missing:
            raise DataError(f"{path}: missing SVI columns: {', '.join(missing)}")
        for row in reader:
            try:
                out[row["tract_id"]] = {c: float(row[c]) for c in SVI_COLUMNS}
            except (TypeError, ValueError) as exc:  # a TypeError is a short row's missing field
                raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    return out


def load_tract_map(path: str | Path) -> dict[int, str]:
    """Cell-to-tract CSV with columns cell_index, tract_id."""
    out: dict[int, str] = {}
    with open_input(path, "tract map") as f:
        reader = csv.DictReader(f)
        header = reader.fieldnames or []
        if "cell_index" not in header or "tract_id" not in header:
            raise DataError(f"{path}: need columns cell_index, tract_id")
        for row in reader:
            try:
                out[int(row["cell_index"])] = row["tract_id"]
            except (TypeError, ValueError) as exc:
                raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    return out
