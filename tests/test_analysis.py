from datetime import datetime, timezone
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from emsdeploy.analysis import (
    FEATURE_NAMES,
    SVI_COLUMNS,
    TractDataset,
    assemble_tracts,
    compare_models,
    fit_lasso,
    fit_ols,
    lasso_path,
    standardize_fold,
)
from emsdeploy.errors import SolverError
from emsdeploy.geogrid import MatrixProvider, build_grid
from emsdeploy.ingest import CallRecord

from oracles import lasso_objective, reference_fit_lasso, table_from_records

UTC = timezone.utc
BOUNDS = (30.0, 30.1, -97.3, -97.0)


def svi_row(rng):
    return {c: float(rng.uniform(0, 100)) for c in SVI_COLUMNS}


def call_at(grid, cell, reported_min, minute):
    lat, lon = grid.cell_centers[cell]
    return CallRecord(
        timestamp=datetime(2024, 1, 1, 9, minute, tzinfo=UTC),
        lat=lat,
        lon=lon,
        reported_travel_s=reported_min * 60.0,
    )


def table(records):
    return table_from_records(records, ZoneInfo("UTC"))


def station_grid():
    travel = np.array(
        [
            [0.0, 600.0, 1200.0],
            [600.0, 0.0, 600.0],
            [1200.0, 600.0, 0.0],
        ]
    )
    return build_grid(BOUNDS, 1, 3, MatrixProvider(travel), station_cells=[0])


def test_assemble_single_tract_mean_dependent():
    g = station_grid()
    rng = np.random.default_rng(1)
    tract_map = {1: "T1"}
    svi = {"T1": svi_row(rng)}
    calls = [call_at(g, 1, 4.0, 0), call_at(g, 1, 6.0, 1)]
    ds = assemble_tracts(table(calls), g, tract_map, svi)
    assert ds.tract_ids == ["T1"]
    assert ds.y[0] == pytest.approx(5.0)
    # single cell: features are that cell's min and avg station time in minutes
    assert ds.X[0, 0] == pytest.approx(10.0)
    assert ds.X[0, 1] == pytest.approx(10.0)


def test_assemble_call_weighted_average():
    g = station_grid()
    rng = np.random.default_rng(2)
    tract_map = {1: "T", 2: "T"}
    svi = {"T": svi_row(rng)}
    calls = [call_at(g, 1, 5.0, i) for i in range(3)] + [call_at(g, 2, 5.0, 10)]
    ds = assemble_tracts(table(calls), g, tract_map, svi)
    # cell avg times are 10 and 20 minutes, weighted 3:1
    assert ds.X[0, 1] == pytest.approx(12.5)


def test_assemble_drops_missing_svi_and_empty_tracts():
    g = station_grid()
    rng = np.random.default_rng(3)
    tract_map = {0: "T0", 1: "T1", 2: "T2"}
    svi = {"T1": svi_row(rng)}  # T0 missing from the table, T2 has no calls
    calls = [call_at(g, 0, 3.0, 0), call_at(g, 1, 4.0, 1)]
    ds = assemble_tracts(table(calls), g, tract_map, svi)
    assert ds.tract_ids == ["T1"]
    assert ds.n_dropped_no_svi == 1
    assert ds.n_tracts_no_calls == 1


def test_assemble_matches_two_pass_oracle():
    g = station_grid()
    rng = np.random.default_rng(4)
    tract_map = {0: "A", 1: "A", 2: "B"}
    svi = {"A": svi_row(rng), "B": svi_row(rng)}
    calls = []
    minute = 0
    for cell, count in ((0, 2), (1, 3), (2, 4)):
        for _ in range(count):
            calls.append(call_at(g, cell, float(rng.uniform(2, 12)), minute))
            minute += 1
    ds = assemble_tracts(table(calls), g, tract_map, svi)
    # independent aggregation
    station_times = g.travel_time_s[np.array(g.station_cells), :]
    for row, tract in enumerate(ds.tract_ids):
        cells = [c for c, t in tract_map.items() if t == tract]
        tract_calls = [c for c in calls if tract_map[int(np.argmin([abs(c.lat - la) + abs(c.lon - lo) for la, lo in g.cell_centers]))] == tract]
        weights = []
        for cell in cells:
            lat, lon = g.cell_centers[cell]
            weights.append(sum(1 for c in tract_calls if abs(c.lat - lat) < 1e-9 and abs(c.lon - lon) < 1e-9))
        weights = np.array(weights, dtype=float)
        weights /= weights.sum()
        want_avg = float(np.dot(weights, [station_times[:, c].mean() / 60.0 for c in cells]))
        want_min = float(np.dot(weights, [station_times[:, c].min() / 60.0 for c in cells]))
        assert ds.X[row, 1] == pytest.approx(want_avg)
        assert ds.X[row, 0] == pytest.approx(want_min)
        want_y = float(np.mean([c.reported_travel_s / 60.0 for c in tract_calls]))
        assert ds.y[row] == pytest.approx(want_y)


def test_standardize_two_point_column():
    train = np.array([[1.0], [3.0]])
    test = np.array([[2.0], [5.0]])
    tr, te = standardize_fold(train, test)
    # sample std with divisor n-1: std of {1, 3} is sqrt(2)
    expected = 1.0 / np.sqrt(2.0)
    assert tr.ravel().tolist() == pytest.approx([-expected, expected])
    # the test side by the train mean 2 and std sqrt(2)
    assert te[0, 0] == 0.0
    assert te[1, 0] == pytest.approx(3.0 / np.sqrt(2.0))


def test_standardize_idempotent():
    rng = np.random.default_rng(5)
    train = rng.normal(10, 3, size=(20, 4))
    tr, _ = standardize_fold(train, train)
    tr2, _ = standardize_fold(tr, tr)
    assert np.allclose(tr, tr2, atol=1e-12)


def test_standardize_zero_variance_column_zeroed():
    train = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
    tr, te = standardize_fold(train, np.array([[7.0, 4.0]]))
    # column 0 is zeroed on both sides, off the train value too; column 1 is scaled
    assert tr[:, 0].tolist() == [0.0, 0.0, 0.0] and te[0, 0] == 0.0
    assert tr[:, 1].tolist() == [-1.0, 0.0, 1.0] and te[0, 1] == 2.0


def test_ols_noiseless_recovery():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(50, 3))
    beta = np.array([2.0, -1.0, 0.5])
    y = 4.0 + X @ beta
    coef = fit_ols(X, y)
    assert coef[0] == pytest.approx(4.0, abs=1e-9)
    assert np.allclose(coef[1:], beta, atol=1e-9)


def test_ols_singular_falls_back_to_ridge():
    X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])  # collinear columns
    y = np.array([1.0, 2.0, 3.0])
    coef = fit_ols(X, y)
    assert np.all(np.isfinite(coef))
    pred = coef[0] + X @ coef[1:]
    assert np.allclose(pred, y, atol=1e-3)


def orthonormal_design(rng, n, p):
    """Zero-mean columns with X^T X = n I."""
    raw = rng.normal(size=(n, p))
    raw -= raw.mean(axis=0)
    q, _ = np.linalg.qr(raw)
    return q * np.sqrt(n)


def test_lasso_zero_lambda_equals_ols():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 5))
    y = rng.normal(size=40)
    ols = fit_ols(X, y)
    lasso = fit_lasso(X, y, lam=0.0)
    assert np.allclose(lasso, ols, atol=1e-6)


def test_lasso_orthonormal_soft_threshold():
    rng = np.random.default_rng(8)
    n, p = 64, 4
    X = orthonormal_design(rng, n, p)
    y = 3.0 + X @ np.array([1.5, -0.8, 0.3, 0.0]) + rng.normal(0, 0.1, size=n)
    ols = fit_ols(X, y)
    for lam in (0.05, 0.2, 0.6, 1.0):
        lasso = fit_lasso(X, y, lam=lam)
        want = np.sign(ols[1:]) * np.maximum(np.abs(ols[1:]) - lam, 0.0)
        assert np.allclose(lasso[1:], want, atol=1e-6)
        assert lasso[0] == pytest.approx(float(y.mean()), abs=1e-6)


def test_lasso_l1_norm_monotone_in_lambda():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(40, 5))
    y = X @ np.array([2.0, -1.0, 0.5, 0.0, 0.0]) + rng.normal(0, 0.5, size=40)
    norms = []
    for lam in (0.0, 0.05, 0.1, 0.5, 1.0, 5.0):
        beta = fit_lasso(X, y, lam=lam)
        norms.append(float(np.abs(beta[1:]).sum()))
    assert all(a >= b - 1e-9 for a, b in zip(norms, norms[1:]))


@st.composite
def lasso_designs(draw):
    """Small designs with as many rows as columns or fewer, all-zero,
    constant, duplicated and underflowing columns, constant dependents, and
    the whole lambda ladder."""
    p = draw(st.integers(1, 6))
    n = draw(st.integers(2, p + 1)) if draw(st.booleans()) else draw(st.integers(p + 2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, p)) * rng.uniform(0.1, 10.0, size=p) + rng.normal(0, 3, size=p)
    for j in draw(st.sets(st.integers(0, p - 1), max_size=p)):
        X[:, j] = 0.0
    for j in draw(st.sets(st.integers(0, p - 1), max_size=2)):
        X[:, j] = float(rng.normal(0, 3))
    for j in draw(st.sets(st.integers(0, p - 1), max_size=2)):
        X[:, j] *= 1e-170  # its squares underflow: a zero norm on a column that is not zero
    for dst, src in draw(st.lists(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)), max_size=2)):
        X[:, dst] = X[:, src]
    y = np.full(n, float(rng.normal(0, 5))) if draw(st.booleans()) else rng.normal(2.0, 3.0, size=n)
    lam = draw(st.sampled_from([0.0, 1e-3, 1e-2, 0.1, 1.0, 10.0]))
    return X, y, lam


LAMBDA_LADDER = [0.0, 1e-3, 1e-2, 0.1, 1.0, 10.0]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lasso_designs())
def test_lasso_path_meets_kkt_at_every_lambda(design):
    # the optimality conditions on centred X: each correlation X_c^T r / n is
    # lam * sign(b_j) where b_j is not zero and within [-lam, lam] where it is,
    # and the residuals sum to zero (the intercept's condition). The floor
    # covers a constant y, whose correlations are rounding alone
    X, y, _ = design
    n, p = X.shape
    Xc = X - X.mean(axis=0)
    lam_max = float(np.abs(Xc.T @ (y - y.mean())).max()) / n
    tol = max(1e-10 * lam_max, 1e-12 * (1.0 + float(np.mean(y**2))))
    path = lasso_path(X, y, LAMBDA_LADDER)
    assert path.shape == (len(LAMBDA_LADDER), p + 1)
    # a constant column is the intercept's, so it never takes a coefficient
    assert np.all(path[:, 1:][:, np.ptp(X, axis=0) == 0] == 0.0)
    for lam, beta in zip(LAMBDA_LADDER, path):
        resid = y - beta[0] - X @ beta[1:]
        corr = Xc.T @ resid / n
        on = beta[1:] != 0.0
        assert np.all(np.abs(corr[on] - lam * np.sign(beta[1:][on])) <= tol), lam
        assert np.all(np.abs(corr[~on]) <= lam + tol), lam
        assert abs(float(resid.mean())) <= tol, lam


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lasso_designs())
def test_fit_lasso_matches_reference(design):
    X, y, lam = design
    n, p = X.shape
    got = fit_lasso(X, y, lam)
    # descent stopped at its default tol of 1e-8 can sit 3e-6 from the optimum
    # where a column is nearly the intercept's (X = [[-1.574], [-1.642],
    # [-1.438]] at lambda 0, where the path is OLS to rounding), so the
    # reference runs to 1e-12, and coefficients are compared only where it converged
    try:
        want, converged = reference_fit_lasso(X, y, lam, tol=1e-12, max_sweeps=5000), True
    except SolverError as err:
        want, converged = err.last_iterate, False
    assert got.shape == want.shape == (p + 1,)
    # the path is at the optimum, which descent only approaches; an exact fit
    # has a zero objective, so the comparison gets an absolute floor far below
    # any objective that is not zero
    scale = 1e-12 * (1.0 + float(np.mean(y**2)))
    assert lasso_objective(X, y, got, lam) <= lasso_objective(X, y, want, lam) + scale
    if converged and n > p and np.linalg.matrix_rank(np.hstack([np.ones((n, 1)), X])) == p + 1:
        assert np.allclose(got, want, rtol=0.0, atol=1e-6)


def random_dataset(rng, n_tracts=120, signal="avg"):
    avg = rng.uniform(5, 15, size=n_tracts)
    minimum = 0.5 * avg + rng.normal(0, 2.0, size=n_tracts)
    svi = rng.normal(0, 1, size=(n_tracts, len(SVI_COLUMNS)))
    X = np.column_stack([minimum, avg, svi])
    if signal == "avg":
        y = 2.0 + 1.0 * avg + rng.normal(0, 1.0, size=n_tracts)
    else:
        y = np.full(n_tracts, 7.0)
    return TractDataset(
        tract_ids=[f"T{i}" for i in range(n_tracts)],
        y=y,
        X=X,
    )


def test_compare_models_constant_dependent():
    rng = np.random.default_rng(12)
    ds = random_dataset(rng, signal="const")
    reports = compare_models(ds, k=5, seed=0)
    for r in reports:
        assert r.average_mse == pytest.approx(0.0, abs=1e-12)


def test_compare_models_geography_signal_ranks_avg_first():
    # the full 20-seed dominance claim lives in the acceptance suite
    from oracles import synth_tract_dataset

    wins = 0
    for seed in range(5):
        ds = synth_tract_dataset(seed)
        reports = compare_models(ds, k=5, seed=seed)
        wins += reports[0].variables == "avg.station.time"
    assert wins >= 4


def test_compare_models_baseline_mse_matches_direct():
    rng = np.random.default_rng(13)
    ds = random_dataset(rng)
    reports = compare_models(ds, k=5, seed=3)
    baseline = next(r for r in reports if r.label == "Mean in the train set")
    # recompute fold MSEs directly from the same fold layout
    from emsdeploy.analysis import _fold_indices

    folds = _fold_indices(len(ds.tract_ids), 5, 3)
    for mse, fold in zip(baseline.fold_mses, folds):
        mask = np.ones(len(ds.tract_ids), dtype=bool)
        mask[fold] = False
        want = float(((ds.y[fold] - ds.y[mask].mean()) ** 2).mean())
        assert mse == pytest.approx(want)


def test_compare_models_deterministic():
    rng = np.random.default_rng(14)
    ds = random_dataset(rng)
    a = compare_models(ds, k=5, seed=9)
    b = compare_models(ds, k=5, seed=9)
    assert [(r.label, r.variables, r.average_mse) for r in a] == [
        (r.label, r.variables, r.average_mse) for r in b
    ]


def test_compare_models_reports_all_five():
    rng = np.random.default_rng(15)
    ds = random_dataset(rng)
    reports = compare_models(ds, k=5, seed=1)
    assert len(reports) == 5
    labels = {(r.label, r.variables) for r in reports}
    assert ("Mean in the train set", "N/A") in labels
    assert ("Lasso", "All 21 variables") in labels
    assert len(FEATURE_NAMES) == 21
