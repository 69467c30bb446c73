import math
from datetime import datetime, timedelta, timezone
from zoneinfo import ZoneInfo

import numpy as np
import pytest

from emsdeploy.calibrate import (
    CalibrationModel,
    apply,
    fit_linear,
    fit_loglog,
    identity_model,
    load_model,
    save_model,
    verify,
)
from emsdeploy.errors import DataError, SolverError
from emsdeploy.geogrid import SyntheticSpeedProvider, build_grid
from emsdeploy.ingest import CallRecord, CallTable

UTC = timezone.utc


def exact_pairs(a, b, n=50, lo=30.0, hi=1200.0):
    gs = np.linspace(lo, hi, n)
    return [(float(g), float(math.exp(a + b * math.log(g)))) for g in gs]


def test_noiseless_recovery():
    model = fit_loglog(exact_pairs(0.5, 0.9), trim_p=0.01)
    assert model.intercept == pytest.approx(0.5, abs=1e-9)
    assert model.slope == pytest.approx(0.9, abs=1e-9)
    assert model.r_squared == pytest.approx(1.0, abs=1e-9)


def test_refit_on_own_predictions_is_idempotent():
    model = fit_loglog(exact_pairs(0.8, 0.7), trim_p=0.0)
    pairs = [(g, apply(model, g)) for g, _ in exact_pairs(0.8, 0.7)]
    refit = fit_loglog(pairs, trim_p=0.0)
    assert refit.intercept == pytest.approx(model.intercept, abs=1e-9)
    assert refit.slope == pytest.approx(model.slope, abs=1e-9)
    assert refit.r_squared == pytest.approx(1.0, abs=1e-9)


def test_pure_noise_gives_flat_fit():
    rng = np.random.default_rng(21)
    gs = rng.uniform(30.0, 1200.0, size=1000)
    reported = np.exp(rng.normal(5.0, 0.4, size=1000))  # independent of grid time
    model = fit_loglog(list(zip(gs, reported)), trim_p=0.01)
    assert abs(model.slope) < 0.1
    assert model.r_squared < 0.02


def test_noisy_recovery_within_standard_error_bands():
    # frozen-seed coverage check: ~95% of seeds put the truth inside +-t*SE
    a_true, b_true = 1.1, 0.85
    n = 200
    hits_a = hits_b = 0
    seeds = 100
    t_crit = 1.972  # two-sided 95% for n-2 = 198 dof
    for seed in range(seeds):
        rng = np.random.default_rng(1000 + seed)
        gs = rng.uniform(30.0, 1800.0, size=n)
        noise = rng.normal(0.0, 0.3, size=n)
        reported = np.exp(a_true + b_true * np.log(gs) + noise)
        model = fit_loglog(list(zip(gs, reported)), trim_p=0.0)
        lx = np.log(gs)
        resid = np.log(reported) - (model.intercept + model.slope * lx)
        s2 = float((resid**2).sum()) / (n - 2)
        sxx = float(((lx - lx.mean()) ** 2).sum())
        se_b = math.sqrt(s2 / sxx)
        se_a = math.sqrt(s2 * (1.0 / n + lx.mean() ** 2 / sxx))
        hits_a += abs(model.intercept - a_true) <= t_crit * se_a
        hits_b += abs(model.slope - b_true) <= t_crit * se_b
    assert hits_a >= 93
    assert hits_b >= 93


def test_fit_requires_enough_positive_pairs():
    with pytest.raises(DataError):
        fit_loglog([(1.0, 1.0), (2.0, 2.0)], trim_p=0.0)
    with pytest.raises(DataError):
        fit_loglog([(0.0, 1.0), (0.0, 2.0), (0.0, 3.0)], trim_p=0.0)


def test_fit_rejects_constant_regressor():
    pairs = [(5.0, float(v)) for v in (1.0, 2.0, 3.0, 4.0)]
    with pytest.raises(SolverError):
        fit_loglog(pairs, trim_p=0.0)


def test_apply_identity_and_neutral_loglog():
    ident = identity_model()
    assert apply(ident, 123.0) == 123.0
    neutral = CalibrationModel(kind="loglog", intercept=0.0, slope=1.0)
    for g in (1.0, 60.0, 600.0):
        assert apply(neutral, g) == pytest.approx(g, rel=1e-12)
    assert apply(neutral, 0.0) == 0.0  # zero maps to zero by convention


def test_apply_monotone_when_slope_positive():
    model = fit_loglog(exact_pairs(0.3, 0.8), trim_p=0.0)
    assert apply(model, 100.0) < apply(model, 200.0)


def test_fit_linear_recovers_line():
    pairs = [(float(g), 30.0 + 0.5 * g) for g in np.linspace(10, 500, 40)]
    model = fit_linear(pairs, trim_p=0.0)
    assert model.kind == "linear"
    assert model.intercept == pytest.approx(30.0, abs=1e-9)
    assert model.slope == pytest.approx(0.5, abs=1e-9)
    assert apply(model, 100.0) == pytest.approx(80.0)


def test_model_json_roundtrip(tmp_path):
    model = fit_loglog(exact_pairs(0.5, 0.9), trim_p=0.01)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded == model


def make_verify_calls(grid, model_a, model_b, n, rng, bias_s=0.0, noise=0.0, exact_identity=False):
    """Calls whose reported travel follows the loglog model of grid time."""
    from emsdeploy.geogrid import assign_cells

    min_lat, max_lat, min_lon, max_lon = grid.bounds
    calls = []
    t0 = datetime(2024, 1, 1, 8, 0, tzinfo=UTC)
    station_cell = grid.station_cells[0]
    amb_lat, amb_lon = grid.cell_centers[station_cell]
    # snap twice the points needed in one pass and keep those off the station
    # cell, so grid time is positive and the loglog model applies
    lats = rng.uniform(min_lat, max_lat, size=2 * n)
    lons = rng.uniform(min_lon, max_lon, size=2 * n)
    cells, _ = assign_cells(grid, lats, lons)
    keep = np.arange(2 * n) if exact_identity else np.flatnonzero(cells != station_cell)
    assert len(keep) >= n
    for i, k in enumerate(keep[:n]):
        lat, lon, cell = float(lats[k]), float(lons[k]), int(cells[k])
        grid_s = float(grid.travel_time_s[station_cell, cell])
        if exact_identity:
            reported = grid_s
        else:
            reported = math.exp(model_a + model_b * math.log(grid_s) + float(rng.normal(0, noise)))
        calls.append(
            CallRecord(
                timestamp=t0 + timedelta(seconds=60.0 * i),
                lat=lat,
                lon=lon,
                reported_travel_s=reported + bias_s,
                ambulance_lat=amb_lat,
                ambulance_lon=amb_lon,
            )
        )
    return calls


def table(records):
    return CallTable.from_records(records, ZoneInfo("UTC"))


def verify_grid():
    return build_grid((30.0, 30.3, -97.3, -97.0), 3, 3, SyntheticSpeedProvider(40.0),
                      station_cells=[0])


def test_verify_identity_on_exact_grid_times():
    g = verify_grid()
    rng = np.random.default_rng(31)
    calls = make_verify_calls(g, 0.0, 1.0, 40, rng, exact_identity=True)
    report = verify(table(calls), g, identity_model(), batch_size=10, n_batches=4)
    assert report.batch_errors_s == pytest.approx([0.0] * 4, abs=1e-9)
    assert report.mean_error_s == pytest.approx(0.0, abs=1e-9)


def test_verify_fitted_model_is_unbiased():
    g = verify_grid()
    rng = np.random.default_rng(37)
    calls = make_verify_calls(g, 1.0, 0.8, 400, rng, noise=0.2)
    from emsdeploy.ingest import calibration_pairs

    pairs, _ = calibration_pairs(table(calls), g)
    model = fit_loglog(pairs, trim_p=0.01)
    report = verify(table(calls), g, model, batch_size=40, n_batches=10)
    se = report.std_error_s / math.sqrt(report.n_batches)
    assert abs(report.mean_error_s) <= 3 * se


def test_verify_detects_injected_bias():
    g = verify_grid()
    rng = np.random.default_rng(41)
    calls = make_verify_calls(g, 1.0, 0.8, 400, rng, noise=0.15)
    from emsdeploy.ingest import calibration_pairs

    pairs, _ = calibration_pairs(table(calls), g)
    model = fit_loglog(pairs, trim_p=0.01)
    biased = make_verify_calls(g, 1.0, 0.8, 400, np.random.default_rng(41), bias_s=60.0, noise=0.15)
    report = verify(table(biased), g, model, batch_size=40, n_batches=10)
    se = report.std_error_s / math.sqrt(report.n_batches)
    assert report.mean_error_s == pytest.approx(-60.0, abs=3 * se + 5.0)


def test_verify_overall_mean_is_mean_of_batches():
    g = verify_grid()
    rng = np.random.default_rng(43)
    calls = make_verify_calls(g, 1.0, 0.8, 120, rng, noise=0.3)
    report = verify(table(calls), g, identity_model(), batch_size=30, n_batches=4)
    assert report.mean_error_s == pytest.approx(float(np.mean(report.batch_errors_s)))


def test_verify_excludes_and_counts_incomplete_calls():
    g = verify_grid()
    rng = np.random.default_rng(47)
    calls = make_verify_calls(g, 1.0, 0.8, 50, rng)
    incomplete = CallRecord(
        timestamp=datetime(2024, 1, 1, tzinfo=UTC), lat=30.1, lon=-97.1
    )
    report = verify(table([incomplete] + calls), g, identity_model(), batch_size=10, n_batches=5)
    assert report.n_excluded == 1


def test_verify_counts_exclusions_up_to_the_last_call_used():
    g = verify_grid()
    rng = np.random.default_rng(59)
    calls = make_verify_calls(g, 1.0, 0.8, 50, rng)
    t = datetime(2024, 1, 1, tzinfo=UTC)
    incomplete = CallRecord(timestamp=t, lat=30.1, lon=-97.1)
    off_grid = CallRecord(timestamp=t, lat=31.0, lon=-97.1, reported_travel_s=60.0,
                          ambulance_lat=30.1, ambulance_lon=-97.1)
    no_origin = CallRecord(timestamp=t, lat=30.1, lon=-97.1, reported_travel_s=60.0,
                           ambulance_lat=math.nan, ambulance_lon=-97.1)
    used = calls[:20] + [incomplete, off_grid, no_origin] + calls[20:]
    # the 50 usable calls fill the batches; nothing after the last one counts
    report = verify(table(used + [incomplete, off_grid]), g, identity_model(), batch_size=10, n_batches=5)
    assert report.n_excluded == 3
    assert report.to_dict() == verify(table(used), g, identity_model(), batch_size=10, n_batches=5).to_dict()


def test_verify_needs_enough_calls():
    g = verify_grid()
    rng = np.random.default_rng(53)
    calls = make_verify_calls(g, 1.0, 0.8, 10, rng)
    with pytest.raises(DataError):
        verify(table(calls), g, identity_model(), batch_size=10, n_batches=2)
