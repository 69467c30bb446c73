import dataclasses
import hashlib
import math
from collections import Counter, defaultdict
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from oracles import reference_simulate, table_from_records

from emsdeploy import calibrate, geogrid, simcore
from emsdeploy.calibrate import CalibrationModel
from emsdeploy.errors import ConfigError, DataError
from emsdeploy.geogrid import MatrixProvider, SyntheticSpeedProvider, assign_cell, build_grid
from emsdeploy.ingest import CallTable
from emsdeploy.rng import derive_seed, substream
from emsdeploy.simcore import (
    AMBULANCE_AVAILABLE,
    CALL_ARRIVE_HOSPITAL,
    CALL_ARRIVE_SCENE,
    CALL_DEPART_SCENE,
    CALL_ENROUTE,
    NEW_CALL,
    PolicyComparison,
    SimParams,
    compare_policies,
    draw_service_times,
    save_event_log,
    simulate,
)
from emsdeploy.synth import SynthConfig, synth_calls, synth_grid

BOUNDS = (30.0, 30.2, -97.2, -97.0)


def table(grid, pairs):
    """The CallTable of (epoch_s, cell) pairs: each call at its cell's
    centre, stamped at its time in whole us in UTC."""
    utc_us = np.array([round(t * 1e6) for t, _ in pairs], dtype=np.int64)
    values = np.full((8, len(pairs)), np.nan)
    values[:2] = np.array([grid.cell_centers[c] for _, c in pairs]).reshape(len(pairs), 2).T
    return CallTable(utc_us, np.zeros(len(pairs), dtype=np.int64), utc_us, values, ZoneInfo("UTC"))


def line_grid(stations=(0,), hospitals=()):
    return build_grid(BOUNDS, 1, 2, SyntheticSpeedProvider(40.0),
                      station_cells=list(stations), hospital_cells=list(hospitals))


def record_runs(monkeypatch) -> list[tuple]:
    """Wrap ``simcore.simulate``, which ``compare_policies`` looks up in its
    module, forwarding every keyword: the list it returns gets each run's
    (stationing, calls, seed, outcome), in the order of the runs."""
    runs = []
    inner = simcore.simulate

    def recorded(x, calls, grid, params=None, seed=0, **kwargs):
        outcome = inner(x, calls, grid, params, seed=seed, **kwargs)
        runs.append((np.asarray(x).tolist(), calls, seed, outcome))
        return outcome

    monkeypatch.setattr(simcore, "simulate", recorded)
    return runs


def test_zero_travel_response():
    g = line_grid(stations=(1,))
    out = simulate([1], table(g, [(0.0, 1)]), g, SimParams(), seed=1)
    assert out.calls[0].response_s == 0.0
    assert out.calls[0].dispatch_wait_s == 0.0
    assert out.mean_response_s == 0.0


def test_two_simultaneous_calls_one_ambulance_chain():
    g = line_grid(stations=(0,))
    travel = float(g.travel_time_s[0, 1])
    out = simulate([1], table(g, [(0.0, 1), (0.0, 1)]), g, SimParams(), seed=3)
    first, second = out.calls
    assert first.dispatch_wait_s == 0.0
    assert first.travel_s == travel
    # the on-scene duration is readable from the first call's event chain
    times = {e.kind: e.time_s for e in out.event_log if e.call_id == 0}
    service = times[CALL_DEPART_SCENE] - times[CALL_ARRIVE_SCENE]
    assert service > 0
    # no hospitals: the ambulance frees at the scene, which is the second call's cell
    assert second.dispatch_wait_s == pytest.approx(travel + service)
    assert second.travel_s == 0.0
    assert second.response_s == pytest.approx(second.dispatch_wait_s + second.travel_s)


def test_hospital_leg_present_when_configured():
    g = line_grid(stations=(0,), hospitals=(0,))
    out = simulate([1], table(g, [(0.0, 1)]), g, SimParams(), seed=5)
    kinds = [e.kind for e in out.event_log if e.call_id == 0]
    assert kinds == [NEW_CALL, CALL_ENROUTE, CALL_ARRIVE_SCENE, CALL_DEPART_SCENE,
                     CALL_ARRIVE_HOSPITAL, AMBULANCE_AVAILABLE]
    assert not out.hospital_leg_skipped
    hosp = [e for e in out.event_log if e.kind == CALL_ARRIVE_HOSPITAL][0]
    assert hosp.cell == 0


def test_hospital_leg_skipped_without_hospitals():
    g = line_grid(stations=(0,))
    out = simulate([1], table(g, [(0.0, 1)]), g, SimParams(), seed=5)
    kinds = [e.kind for e in out.event_log]
    assert CALL_ARRIVE_HOSPITAL not in kinds
    assert out.hospital_leg_skipped


def test_event_times_nondecreasing_along_call_chain():
    g = line_grid(stations=(0,), hospitals=(1,))
    out = simulate([2], table(g, [(0.0, 1), (10.0, 0), (20.0, 1)]), g, SimParams(), seed=7)
    order = [NEW_CALL, CALL_ENROUTE, CALL_ARRIVE_SCENE, CALL_DEPART_SCENE,
             CALL_ARRIVE_HOSPITAL, AMBULANCE_AVAILABLE]
    by_call = defaultdict(list)
    for e in out.event_log:
        if e.call_id is not None:
            by_call[e.call_id].append(e)
    for events in by_call.values():
        kinds = [e.kind for e in events]
        assert kinds == [k for k in order if k in kinds]
        times = [e.time_s for e in events]
        assert times == sorted(times)


def test_determinism_identical_event_logs():
    g = line_grid(stations=(0,), hospitals=(1,))
    calls = table(g, [(float(i) * 120.0, i % 2) for i in range(20)])
    a = simulate([2], calls, g, SimParams(), seed=42)
    b = simulate([2], calls, g, SimParams(), seed=42)
    assert a.event_log == b.event_log
    assert [c.response_s for c in a.calls] == [c.response_s for c in b.calls]
    c = simulate([2], calls, g, SimParams(), seed=43)
    assert a.event_log != c.event_log  # service draws differ


def test_requires_sorted_calls_and_fleet():
    g = line_grid(stations=(0,))
    with pytest.raises(DataError):
        simulate([1], table(g, [(10.0, 0), (0.0, 0)]), g, SimParams(), seed=1)
    with pytest.raises(DataError):
        simulate([0], table(g, [(0.0, 0)]), g, SimParams(), seed=1)


def test_negative_stationing_rejected():
    g = build_grid(BOUNDS, 2, 2, SyntheticSpeedProvider(40.0), station_cells=[0, 1, 2, 3])
    # the sum is positive, but no station can hold -2 units
    with pytest.raises(DataError, match="nonnegative"):
        simulate([3, -2, 0, 0], table(g, [(0.0, 0)]), g, SimParams(), seed=1)


def test_nearest_ambulance_tie_breaks_by_station_then_id():
    travel = np.array([
        [0.0, 100.0, 200.0],
        [100.0, 0.0, 100.0],
        [200.0, 100.0, 0.0],
    ])
    g = build_grid(BOUNDS, 1, 3, MatrixProvider(travel), station_cells=[0, 2])
    # both stations exactly equidistant from the middle cell
    out = simulate([1, 1], table(g, [(0.0, 1)]), g, SimParams(), seed=1)
    enroute = [e for e in out.event_log if e.kind == CALL_ENROUTE][0]
    assert enroute.ambulance_id == 0  # station 0's unit
    # two units at one station: the lower ambulance id goes
    g2 = build_grid(BOUNDS, 1, 3, MatrixProvider(travel), station_cells=[0])
    out2 = simulate([2], table(g2, [(0.0, 1)]), g2, SimParams(), seed=1)
    enroute2 = [e for e in out2.event_log if e.kind == CALL_ENROUTE][0]
    assert enroute2.ambulance_id == 0


def test_fifo_queue_discipline():
    g = line_grid(stations=(0,))
    calls = [(0.0, 1)] + [(float(i), 1) for i in range(1, 6)]
    out = simulate([1], table(g, calls), g, SimParams(), seed=9)
    waited = [e for e in out.event_log if e.kind == CALL_ENROUTE]
    dispatch_order = [e.call_id for e in waited]
    assert dispatch_order == sorted(dispatch_order)  # arrival order = call id order


def test_conservation_counts():
    g = line_grid(stations=(0,), hospitals=(1,))
    calls = [(float(i) * 30.0, i % 2) for i in range(50)]
    out = simulate([2], table(g, calls), g, SimParams(), seed=11)
    counts = Counter(e.kind for e in out.event_log)
    assert counts[NEW_CALL] == 50
    assert counts[CALL_ENROUTE] == 50
    assert counts[CALL_ARRIVE_SCENE] == 50
    assert counts[CALL_DEPART_SCENE] == 50
    assert counts[CALL_ARRIVE_HOSPITAL] == 50
    assert counts[AMBULANCE_AVAILABLE] == 50


def test_no_double_booking():
    g = line_grid(stations=(0,), hospitals=(0,))
    calls = [(float(i) * 45.0, i % 2) for i in range(40)]
    out = simulate([3], table(g, calls), g, SimParams(), seed=13)
    busy = {}
    for e in out.event_log:
        if e.kind == CALL_ENROUTE:
            assert not busy.get(e.ambulance_id, False), "dispatched while busy"
            busy[e.ambulance_id] = True
        elif e.kind == AMBULANCE_AVAILABLE:
            busy[e.ambulance_id] = False


def test_response_equals_wait_plus_travel_identically():
    g = line_grid(stations=(0,), hospitals=(1,))
    calls = [(float(i) * 15.0, i % 2) for i in range(60)]
    out = simulate([1], table(g, calls), g, SimParams(), seed=17)
    for c in out.calls:
        assert c.response_s == c.dispatch_wait_s + c.travel_s


def test_infinite_fleet_everywhere_gives_zero_response():
    g = build_grid(BOUNDS, 2, 2, SyntheticSpeedProvider(40.0), station_cells=[0, 1, 2, 3])
    calls = [(float(i), i % 4) for i in range(30)]
    out = simulate([30, 30, 30, 30], table(g, calls), g, SimParams(), seed=19)
    assert out.mean_response_s == 0.0


def test_draw_service_time_distribution():
    rng = substream(0, "svc-test")
    params = SimParams(lognormal_mu=3.65, lognormal_sigma=0.3)
    draws = np.array(draw_service_times(params, rng, 100_000))
    median_min = float(np.median(draws)) / 60.0
    assert abs(median_min - math.exp(3.65)) / math.exp(3.65) < 0.02
    logs = np.log(draws / 60.0)
    se = 0.3 / math.sqrt(len(draws))
    assert abs(float(logs.mean()) - 3.65) < 3 * se
    assert abs(float(logs.std(ddof=1)) - 0.3) < 0.01


def test_service_times_are_the_scalar_draws():
    params = SimParams(lognormal_mu=3.1, lognormal_sigma=0.7)
    rng = substream(2, "svc-test")
    scalar = [math.exp(rng.normal(3.1, 0.7)) * 60.0 for _ in range(500)]
    assert draw_service_times(params, substream(2, "svc-test"), 500) == scalar
    rng = substream(2, "svc-test")
    assert [draw_service_times(params, rng, 1)[0] for _ in range(500)] == scalar


def test_draw_service_time_degenerate_sigma():
    rng = substream(1, "svc-test")
    params = SimParams(lognormal_mu=2.0, lognormal_sigma=1e-12)
    draws = draw_service_times(params, rng, 10)
    for v in draws:
        assert v == pytest.approx(math.exp(2.0) * 60.0, rel=1e-9)


def test_compare_policies_single_batch():
    g = line_grid(stations=(0,))
    calls = [(float(i) * 100.0, i % 2) for i in range(10)]
    comparison = compare_policies([("a", [1])], table(g, calls), g, SimParams(), n_calls=10, n_batches=1, seed=1)
    assert comparison.batch_means_s.shape == (1, 1)
    assert comparison.overall_std_s == [0.0]
    assert comparison.overall_mean_s == [comparison.first_batch[0].mean_response_s]


def test_compare_policies_requires_enough_calls():
    g = line_grid(stations=(0,))
    calls = table(g, [(float(i), 0) for i in range(5)])
    with pytest.raises(DataError):
        compare_policies([("a", [1])], calls, g, SimParams(), n_calls=4, n_batches=2, seed=1)
    # the resampling flag lifts the requirement
    comparison = compare_policies([("a", [1])], calls, g, SimParams(), n_calls=4, n_batches=2,
                                  seed=1, sample_with_replacement=True)
    assert comparison.batch_means_s.shape == (2, 1)


def test_compare_policies_overall_matches_recomputation(monkeypatch):
    g = line_grid(stations=(0,), hospitals=(1,))
    calls = [(float(i) * 200.0, i % 2) for i in range(48)]
    runs = record_runs(monkeypatch)
    comparison = compare_policies([("a", [2])], table(g, calls), g, SimParams(), n_calls=4, n_batches=12, seed=5)
    means = [outcome.mean_response_s for *_, outcome in runs]
    assert comparison.batch_means_s[:, 0].tolist() == means
    assert comparison.overall_mean_s[0] == pytest.approx(float(np.mean(means)))
    assert comparison.overall_std_s[0] == pytest.approx(float(np.std(means, ddof=1)))


def test_batch_determinism_and_independence():
    g = line_grid(stations=(0,))
    calls = table(g, [(float(i) * 150.0, i % 2) for i in range(40)])
    c1 = compare_policies([("a", [1])], calls, g, SimParams(), n_calls=10, n_batches=4, seed=7)
    c2 = compare_policies([("a", [1])], calls, g, SimParams(), n_calls=10, n_batches=4, seed=7)
    assert c1.batch_means_s.tolist() == c2.batch_means_s.tolist()


def test_formatted_minutes():
    comparison = PolicyComparison(["a"], np.array([[360.0], [384.0]]), [372.6], [2.22], [])
    assert comparison.to_dict()["overall"] == {"a": "6.210 +/- 0.037"}


@pytest.mark.parametrize("resample", [False, True])
def test_compare_policies_runs_policy_by_policy_on_common_batches(monkeypatch, resample):
    # run p * n_batches + b is policy p on batch b, and every policy's batch b is
    # the same calls on the same seed: the order a wrapper of simcore.simulate reads
    g = build_grid(BOUNDS, 2, 2, SyntheticSpeedProvider(40.0), station_cells=[0, 3])
    calls = table(g, [(float(i) * 90.0, i % 4) for i in range(80)])
    policies = [("a", [1, 0]), ("b", [1, 1]), ("c", [0, 2])]
    runs = record_runs(monkeypatch)
    comparison = compare_policies(policies, calls, g, SimParams(), n_calls=20, n_batches=4, seed=11,
                                  sample_with_replacement=resample)
    assert [x for x, *_ in runs] == [x for _, x in policies for _ in range(4)]
    for i, (_, batch, seed, outcome) in enumerate(runs):
        p, b = divmod(i, 4)
        assert seed == derive_seed(11, "batch", b)
        first = runs[b][1]
        for column in ("utc_us", "lat", "lon"):
            assert np.array_equal(getattr(batch, column), getattr(first, column))
        assert outcome.mean_response_s == comparison.batch_means_s[b, p]
    assert all(outcome is runs[4 * p][3] for p, outcome in enumerate(comparison.first_batch))


def test_compare_policies_identical_policy_identical_columns():
    g = line_grid(stations=(0,), hospitals=(1,))
    calls = table(g, [(float(i) * 100.0, i % 2) for i in range(40)])
    comparison = compare_policies(
        [("a", np.array([1])), ("b", np.array([1]))], calls, g, SimParams(),
        n_calls=10, n_batches=4, seed=3,
    )
    assert np.array_equal(comparison.batch_means_s[:, 0], comparison.batch_means_s[:, 1])


def test_compare_policies_monotone_under_fleet_growth():
    g = build_grid(BOUNDS, 2, 2, SyntheticSpeedProvider(40.0), station_cells=[0, 3])
    calls = table(g, [(float(i) * 90.0, i % 4) for i in range(80)])
    comparison = compare_policies(
        [("small", np.array([1, 0])), ("big", np.array([1, 1]))], calls, g, SimParams(),
        n_calls=20, n_batches=4, seed=11,
    )
    assert np.all(comparison.batch_means_s[:, 1] <= comparison.batch_means_s[:, 0])


def test_rows_chains_and_events_are_built_only_when_read(monkeypatch):
    # one unit and a call every 100 s: most calls wait, across queue episodes
    g = line_grid(stations=(0,), hospitals=(1,))
    calls = table(g, [(float(i) * 100.0, i % 2) for i in range(40)])
    out = simulate([1], calls, g, SimParams(), seed=3)
    assert sum(row[4] > 0 for row in out.call_rows) > 30
    # each read rebuilds equal lists, and none is kept on the outcome
    assert out.call_rows == out.call_rows and out.call_rows is not out.call_rows
    assert out.chains == out.chains and out.events == out.events
    assert out.events is not out.events
    assert out.mean_response_s == float(np.mean([row[6] for row in out.call_rows]))

    def refuse(self, chains):
        raise AssertionError("a run's rows were built")

    monkeypatch.setattr(simcore.SimOutcome, "_tuples", refuse)
    # what the batch statistics, the policy comparison and alpha-cv read
    single = compare_policies([("a", np.array([1]))], calls, g, SimParams(), n_calls=20, n_batches=2, seed=3)
    comparison = compare_policies([("a", np.array([1])), ("b", np.array([2]))], calls, g, SimParams(),
                                  n_calls=20, n_batches=2, seed=3)
    assert comparison.batch_means_s[:, 0].tolist() == single.batch_means_s[:, 0].tolist()
    assert simulate([1], calls, g, SimParams(), seed=3).mean_response_s == out.mean_response_s
    assert simulate([1], calls, g, SimParams(), seed=3).n_calls == 40
    with pytest.raises(AssertionError, match="rows were built"):
        out.event_log


def test_compare_policies_empty_rejected():
    g = line_grid(stations=(0,))
    with pytest.raises(ConfigError):
        compare_policies([], table(g, [(0.0, 0)]), g, SimParams())


def test_event_log_export(tmp_path):
    g = line_grid(stations=(0,))
    out = simulate([1], table(g, [(0.0, 1)]), g, SimParams(), seed=1)
    path = tmp_path / "events.csv"
    save_event_log(out.events, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "time_s,kind,call_id,ambulance_id,cell"
    assert len(lines) == len(out.event_log) + 1


def golden_city():
    """3x3 city with a hospital, log-log calibration and 30 of 80 calls queued."""
    g = build_grid((30.0, 30.3, -97.3, -97.0), 3, 3, SyntheticSpeedProvider(50.0),
                   station_cells=[0, 8], hospital_cells=[4])
    calls = [(i * 2200.0 + (i * 37 % 11) * 13.0, (i * 5 + i // 3) % 9) for i in range(80)]
    params = SimParams(calibration=CalibrationModel(kind="loglog", intercept=1.2, slope=0.8))
    return g, calls, params


def test_golden_event_log_and_outcomes(tmp_path):
    g, calls, params = golden_city()
    out = simulate([1, 1], table(g, calls), g, params, seed=2024)
    assert sum(c.dispatch_wait_s > 0 for c in out.calls) == 30
    path = tmp_path / "events.csv"
    save_event_log(out.events, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "1482bbc52d6be87beb49c2d9e32b6194c7498af8209eaa4995d6e5ff553dee83"
    )
    per_call = repr([(c.ambulance_id, c.response_s) for c in out.calls]).encode()
    assert hashlib.sha256(per_call).hexdigest() == (
        "53cd0c7300d49eff38bf2865ac4b97d22d990cc093e3079d8e7335fc56d86545"
    )


def test_returning_unit_redispatched_from_home_cell():
    travel = np.array([
        [0.0, 100.0, 300.0],
        [100.0, 0.0, 50.0],
        [300.0, 50.0, 0.0],
    ])
    g = build_grid(BOUNDS, 1, 3, MatrixProvider(travel), station_cells=[0])
    # ~600 s on scene: the unit frees at cell 2 near t=900 and would be home at t=1200
    params = SimParams(lognormal_mu=math.log(10.0), lognormal_sigma=1e-12)
    out = simulate([1], table(g, [(0.0, 2), (1000.0, 1)]), g, params, seed=1)
    freed = [e for e in out.event_log if e.kind == AMBULANCE_AVAILABLE and e.call_id == 0][0]
    assert freed.cell == 2 and freed.time_s + travel[2, 0] > 1000.0
    second = out.calls[1]
    assert second.ambulance_id == 0
    assert second.dispatch_wait_s == 0.0
    assert second.travel_s == travel[0, 1]  # from home, not the 50 s from cell 2
    enroute = [e for e in out.event_log if e.kind == CALL_ENROUTE and e.call_id == 1][0]
    assert enroute.time_s == 1000.0 and enroute.cell == 0


def test_calibration_applied_at_most_once_per_cell_pair(monkeypatch):
    g, calls, params = golden_city()
    seen = []
    inner = calibrate.apply

    def counting_apply(model, grid_s):
        seen.append(grid_s)
        return inner(model, grid_s)

    monkeypatch.setattr(calibrate, "apply", counting_apply)
    simulate([1, 1], table(g, calls), g, params, seed=2024)
    assert 0 < len(seen) <= g.n_cells ** 2


def test_calibration_only_for_rows_a_leg_starts_from(monkeypatch):
    # legs start at a station or a hospital; scene-to-hospital legs add one per cell
    g, calls, params = golden_city()
    seen = []
    inner = calibrate.apply

    def counting_apply(model, grid_s):
        seen.append(grid_s)
        return inner(model, grid_s)

    monkeypatch.setattr(calibrate, "apply", counting_apply)
    simulate([1, 1], table(g, calls), g, params, seed=2024)
    starts = set(g.station_cells) | set(g.hospital_cells)
    assert 0 < len(seen) <= (len(starts) + 1) * g.n_cells


CALIBRATIONS = (
    None,
    CalibrationModel(kind="loglog", intercept=1.2, slope=0.8),
    CalibrationModel(kind="linear", intercept=-30.0, slope=1.1),
    # maps 0 s to 30 s, so a scene leg (0 s, never calibrated) would show if calibrated
    CalibrationModel(kind="linear", intercept=30.0, slope=0.9),
)


@st.composite
def small_cities(draw):
    """A city of at most 3x3 cells with its stationing, calls and parameters.

    Travel times are whole minutes from 0 to 4 and call times whole minutes
    too, often equal, so legs, arrivals and calls tie often. Some cities
    have no hospital, some share one cell among several stations, and some
    hold a single ambulance that every call has to wait for.
    """
    n_rows, n_cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = n_rows * n_cols
    minutes = draw(st.lists(st.integers(0, 4), min_size=n * n, max_size=n * n))
    travel = np.array(minutes, dtype=np.float64).reshape(n, n) * 60.0
    np.fill_diagonal(travel, 0.0)
    cell = st.integers(0, n - 1)
    stations = draw(st.lists(cell, min_size=1, max_size=4))
    hospitals = draw(st.lists(cell, max_size=2))
    g = build_grid(BOUNDS, n_rows, n_cols, MatrixProvider(travel),
                   station_cells=stations, hospital_cells=hospitals)
    if draw(st.booleans()):  # a fleet of one
        x = [0] * len(stations)
        x[draw(st.integers(0, len(stations) - 1))] = 1
    else:
        x = draw(st.lists(st.integers(0, 3), min_size=len(stations), max_size=len(stations))
                 .filter(lambda v: sum(v) >= 1))
    gaps = draw(st.lists(st.sampled_from([0, 0, 1, 5, 20]), max_size=40))
    calls = [(60.0 * t, draw(cell)) for t in np.cumsum(gaps).tolist()]
    params = SimParams(calibration=draw(st.sampled_from(CALIBRATIONS)))
    return x, calls, g, params, draw(st.integers(0, 2**31))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_cities())
def test_simulate_matches_reference(city):
    x, calls, g, params, seed = city
    out = simulate(x, table(g, calls), g, params, seed=seed)
    events, outcomes = reference_simulate(x, calls, g, params, seed)
    assert out.events == events
    assert out.call_rows == outcomes
    if outcomes:
        assert out.mean_response_s == float(np.mean([o[6] for o in outcomes]))


def staggered_city():
    """Two units at cell 0 and three calls at t=0, the third waiting.

    Unit 0 drives 2 min to cell 1, then 1 min to the hospital; unit 1 drives
    1 min to cell 2, then 2 min to the hospital. With equal on-scene times
    both free at once, but unit 1 left its scene first, so it frees first
    and takes the waiting call.
    """
    travel = np.full((4, 4), 240.0)
    np.fill_diagonal(travel, 0.0)
    travel[0, 1], travel[0, 2], travel[1, 3], travel[2, 3] = 120.0, 60.0, 60.0, 120.0
    g = build_grid(BOUNDS, 2, 2, MatrixProvider(travel), station_cells=[0], hospital_cells=[3])
    return [2], [(0.0, 1), (0.0, 2), (0.0, 0)], g, SimParams(), 5


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_cities(), st.sampled_from([1, 2, 3, 4]))
@example(staggered_city(), 2)
def test_simulate_matches_reference_with_tied_service_times(city, minutes):
    # every call gets the same on-scene time, so units dispatched at one
    # time free at one time too, and the order they free in decides the rest
    x, calls, g, params, seed = city
    params = dataclasses.replace(params, lognormal_mu=math.log(minutes), lognormal_sigma=1e-300)
    assert len(set(draw_service_times(params, substream(seed, "service"), 3))) == 1
    out = simulate(x, table(g, calls), g, params, seed=seed)
    events, outcomes = reference_simulate(x, calls, g, params, seed)
    assert out.events == events
    assert out.call_rows == outcomes


@st.composite
def fleet_cities(draw):
    """A 4x4 city shaped like a large-fleet one: 8 to 16 stations, one of
    them with no unit, 1 to 40 units, some hospitals, and bursts of calls.
    A burst larger than the free fleet opens a queue episode, and a long
    gap after it lets every unit free, so one run opens and closes many."""
    n = 16
    minutes = draw(st.lists(st.integers(1, 10), min_size=n * n, max_size=n * n))
    travel = np.array(minutes, dtype=np.float64).reshape(n, n) * 60.0
    np.fill_diagonal(travel, 0.0)
    cell = st.integers(0, n - 1)
    stations = draw(st.lists(cell, min_size=8, max_size=16))
    hospitals = draw(st.lists(cell, min_size=1, max_size=3) | st.just([]))
    g = build_grid(BOUNDS, 4, 4, MatrixProvider(travel), station_cells=stations, hospital_cells=hospitals)
    empty = draw(st.integers(0, len(stations) - 1))
    x = [0] * len(stations)
    for _ in range(draw(st.integers(1, 6) | st.integers(1, 40))):
        x[draw(st.integers(0, len(stations) - 1).filter(lambda i: i != empty))] += 1
    t, calls = 0, []
    for _ in range(draw(st.integers(3, 8))):
        for gap in draw(st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=4, max_size=30)):
            t += gap
            calls.append((60.0 * t, draw(cell)))
        t += draw(st.sampled_from([5, 30, 300]))
    params = SimParams(calibration=draw(st.sampled_from(CALIBRATIONS)))
    return x, calls, g, params, draw(st.integers(0, 2**31))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fleet_cities())
def test_simulate_matches_reference_across_queue_episodes(city):
    x, calls, g, params, seed = city
    out = simulate(x, table(g, calls), g, params, seed=seed)
    events, outcomes = reference_simulate(x, calls, g, params, seed)
    assert out.events == events
    assert out.call_rows == outcomes


@st.composite
def batched_cities(draw):
    """A city of at most 3x3 cells, with or without hospitals, a few
    stationings, some of them repeated, and calls for a few batches."""
    n_rows, n_cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = n_rows * n_cols
    minutes = draw(st.lists(st.integers(0, 4), min_size=n * n, max_size=n * n))
    travel = np.array(minutes, dtype=np.float64).reshape(n, n) * 60.0
    np.fill_diagonal(travel, 0.0)
    cell = st.integers(0, n - 1)
    stations = draw(st.lists(cell, min_size=1, max_size=4))
    hospitals = draw(st.lists(cell, min_size=1, max_size=2) | st.just([]))
    g = build_grid(BOUNDS, n_rows, n_cols, MatrixProvider(travel),
                   station_cells=stations, hospital_cells=hospitals)
    stationing = st.lists(st.integers(0, 3), min_size=len(stations), max_size=len(stations)).filter(
        lambda v: sum(v) >= 1)
    xs = draw(st.lists(stationing, min_size=1, max_size=3))
    xs += draw(st.lists(st.sampled_from(xs), max_size=2))
    n_calls, n_batches = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    gaps = draw(st.lists(st.sampled_from([0, 0, 1, 5, 20]), min_size=n_calls * n_batches,
                         max_size=n_calls * n_batches + 4))
    calls = [(60.0 * t, draw(cell)) for t in np.cumsum(gaps).tolist()]
    return xs, calls, g, n_calls, n_batches, draw(st.integers(0, 2**31))


@pytest.mark.parametrize("resample", [False, True])
@pytest.mark.parametrize("model", CALIBRATIONS)
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(city=batched_cities())
def test_prepared_runs_equal_one_shot_runs(model, resample, city):
    # compare_policies shares each piece of the set-up among its runs; every
    # batch mean and first-batch event log is that of a run that builds its
    # own, and of the reference simulation
    xs, pairs, g, n_calls, n_batches, seed = city
    params = SimParams(calibration=model)
    calls = table(g, pairs)
    comparison = compare_policies([(str(p), x) for p, x in enumerate(xs)], calls, g, params,
                                  n_calls, n_batches, seed, resample)
    for b in range(n_batches):
        if resample:
            drawn = substream(seed, "batchsample", b).integers(0, len(pairs), size=n_calls)
            rows = drawn[np.argsort(calls.utc_s[drawn], kind="stable")]
        else:
            rows = np.arange(b * n_calls, (b + 1) * n_calls)
        batch_seed = derive_seed(seed, "batch", b)
        for p, x in enumerate(xs):
            alone = simulate(x, calls[rows], g, params, seed=batch_seed)
            events, outcomes = reference_simulate(x, [pairs[k] for k in rows], g, params, batch_seed)
            assert comparison.batch_means_s[b, p] == alone.mean_response_s
            assert alone.mean_response_s == float(np.mean([o[6] for o in outcomes]))
            if b == 0:
                assert comparison.first_batch[p].events == alone.events == events


@pytest.mark.parametrize("resample", [False, True])
def test_compare_policies_prepares_each_piece_once(monkeypatch, resample):
    # P policies on B batches: B service draws, each distinct grid time
    # calibrated once, one bulk snap per batch (one of the whole table when
    # resampled), and still P x B runs, policy by policy
    g, pairs, params = golden_city()
    calls = table(g, pairs)
    policies = [("a", [1, 1]), ("b", [2, 0]), ("a again", [1, 1])]
    n_calls, n_batches = 20, 4
    draws, applied, snapped = [], [], []
    inner_draw, inner_apply, inner_assign = simcore.draw_service_times, calibrate.apply, geogrid.assign_cells

    def counting_draw(params, rng, n):
        draws.append(n)
        return inner_draw(params, rng, n)

    def counting_apply(model, grid_s):
        applied.append(grid_s)
        return inner_apply(model, grid_s)

    def counting_assign(grid, lats, lons, *args, **kwargs):
        snapped.append(len(lats))
        return inner_assign(grid, lats, lons, *args, **kwargs)

    monkeypatch.setattr(simcore, "draw_service_times", counting_draw)
    monkeypatch.setattr(calibrate, "apply", counting_apply)
    monkeypatch.setattr(geogrid, "assign_cells", counting_assign)
    runs = record_runs(monkeypatch)
    compare_policies(policies, calls, g, params, n_calls, n_batches, seed=6, sample_with_replacement=resample)
    assert draws == [n_calls] * n_batches
    assert 0 < len(applied) == len(set(applied))
    assert set(applied) <= set(g.travel_time_s.ravel().tolist())
    assert snapped == ([len(calls)] if resample else [n_calls] * n_batches)
    assert [x for x, *_ in runs] == [x for _, x in policies for _ in range(n_batches)]
    assert [seed for _, _, seed, _ in runs] == [derive_seed(6, "batch", b) for b in range(n_batches)] * 3


@pytest.mark.parametrize("x", [[2.9, 1.9], ["2", "1"], [True, 1], [1e30, 0], [10**30, 0], np.array([1.0, 1.0])])
def test_a_stationing_entry_that_is_not_an_integer_is_refused(x):
    g = build_grid(BOUNDS, 2, 2, SyntheticSpeedProvider(40.0), station_cells=[0, 3])
    calls = table(g, [(0.0, 1), (60.0, 2)])
    with pytest.raises(DataError, match="integer"):
        simulate(x, calls, g, SimParams(), seed=1)
    with pytest.raises(DataError, match="integer"):
        compare_policies([("a", [1, 1]), ("b", x)], calls, g, SimParams(), n_calls=2, n_batches=1)


def synth_city(n_calls=400):
    """The synthetic city's grid, calls (a CallTable), and the calls'
    records snapped to (epoch_s, cell) pairs one at a time."""
    g = synth_grid(SynthConfig())
    records = synth_calls(g, n_calls, seed=3)
    pairs = [(r.epoch_s(), assign_cell(g, r.lat, r.lon)) for r in records]
    return g, records, pairs


def test_simulate_records_equals_their_snapped_pairs():
    g, records, pairs = synth_city()
    x = [1] * len(g.station_cells)
    want = simulate(x, table(g, pairs), g, SimParams(), seed=9)
    for calls in (records, table_from_records(list(records), ZoneInfo("UTC"))):
        out = simulate(x, calls, g, SimParams(), seed=9)
        assert out.call_rows == want.call_rows
        assert out.events == want.events


def test_resampled_batches_of_records_equal_those_of_their_pairs():
    g, records, pairs = synth_city()
    x = [1] * len(g.station_cells)
    kwargs = dict(n_calls=150, n_batches=3, seed=4, sample_with_replacement=True)
    from_pairs = compare_policies([("x", x)], table(g, pairs), g, SimParams(), **kwargs)
    from_records = compare_policies([("x", x)], records, g, SimParams(), **kwargs)
    assert from_records.batch_means_s.tolist() == from_pairs.batch_means_s.tolist()


def test_resampled_batch_keeps_tied_calls_in_the_order_drawn(monkeypatch):
    g = build_grid(BOUNDS, 2, 2, SyntheticSpeedProvider(40.0), station_cells=[0, 3])
    calls = [(0.0, 1), (0.0, 2), (60.0, 3), (60.0, 0), (60.0, 1)]
    runs = record_runs(monkeypatch)
    compare_policies([("x", [2, 2])], table(g, calls), g, SimParams(), n_calls=12, n_batches=3, seed=8,
                     sample_with_replacement=True)
    assert len(runs) == 3
    for i, (*_, outcome) in enumerate(runs):
        drawn = substream(8, "batchsample", i).integers(0, len(calls), size=12)
        assert [row[1:3] for row in outcome.call_rows] == sorted((calls[k] for k in drawn), key=lambda c: c[0])


@pytest.mark.parametrize("records_first", [True, False])
def test_a_mix_of_records_and_pairs_is_refused(records_first):
    """A list of records, a list of pairs, or a mix of the two, is refused
    with a DataError that names the CallTable the simulator takes."""
    g, records, pairs = synth_city(8)
    x = [1] * len(g.station_cells)
    records = list(records)
    mixed = records[:4] + pairs[4:] if records_first else pairs[:4] + records[4:]
    for calls in (records, pairs, mixed):
        with pytest.raises(DataError, match="must be a CallTable"):
            simulate(x, calls, g, SimParams())
        for resample in (False, True):
            with pytest.raises(DataError, match="must be a CallTable"):
                compare_policies([("a", x)], calls, g, SimParams(), n_calls=4, n_batches=2,
                                 sample_with_replacement=resample)
