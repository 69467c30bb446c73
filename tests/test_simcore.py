import dataclasses
import hashlib
import math
from collections import Counter, defaultdict
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from oracles import reference_simulate

from emsdeploy import simcore
from emsdeploy.calibrate import CalibrationModel
from emsdeploy.errors import ConfigError, DataError
from emsdeploy.geogrid import MatrixProvider, SyntheticSpeedProvider, assign_cell, build_grid
from emsdeploy.ingest import CallTable
from emsdeploy.rng import substream
from emsdeploy.simcore import (
    AMBULANCE_AVAILABLE,
    CALL_ARRIVE_HOSPITAL,
    CALL_ARRIVE_SCENE,
    CALL_DEPART_SCENE,
    CALL_ENROUTE,
    NEW_CALL,
    BatchSummary,
    SimParams,
    compare_policies,
    draw_service_time,
    draw_service_times,
    run_batches,
    save_event_log,
    simulate,
)
from emsdeploy.synth import SynthConfig, synth_calls, synth_grid

BOUNDS = (30.0, 30.2, -97.2, -97.0)


def line_grid(stations=(0,), hospitals=()):
    return build_grid(BOUNDS, 1, 2, SyntheticSpeedProvider(40.0),
                      station_cells=list(stations), hospital_cells=list(hospitals))


def test_zero_travel_response():
    g = line_grid(stations=(1,))
    out = simulate([1], [(0.0, 1)], g, SimParams(), seed=1)
    assert out.calls[0].response_s == 0.0
    assert out.calls[0].dispatch_wait_s == 0.0
    assert not out.calls[0].shortfall
    assert out.mean_response_s == 0.0


def test_two_simultaneous_calls_one_ambulance_chain():
    g = line_grid(stations=(0,))
    travel = float(g.travel_time_s[0, 1])
    out = simulate([1], [(0.0, 1), (0.0, 1)], g, SimParams(), seed=3)
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
    out = simulate([1], [(0.0, 1)], g, SimParams(), seed=5)
    kinds = [e.kind for e in out.event_log if e.call_id == 0]
    assert kinds == [NEW_CALL, CALL_ENROUTE, CALL_ARRIVE_SCENE, CALL_DEPART_SCENE,
                     CALL_ARRIVE_HOSPITAL, AMBULANCE_AVAILABLE]
    assert not out.hospital_leg_skipped
    hosp = [e for e in out.event_log if e.kind == CALL_ARRIVE_HOSPITAL][0]
    assert hosp.cell == 0


def test_hospital_leg_skipped_without_hospitals():
    g = line_grid(stations=(0,))
    out = simulate([1], [(0.0, 1)], g, SimParams(), seed=5)
    kinds = [e.kind for e in out.event_log]
    assert CALL_ARRIVE_HOSPITAL not in kinds
    assert out.hospital_leg_skipped


def test_event_times_nondecreasing_along_call_chain():
    g = line_grid(stations=(0,), hospitals=(1,))
    out = simulate([2], [(0.0, 1), (10.0, 0), (20.0, 1)], g, SimParams(), seed=7)
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
    calls = [(float(i) * 120.0, i % 2) for i in range(20)]
    a = simulate([2], calls, g, SimParams(), seed=42)
    b = simulate([2], calls, g, SimParams(), seed=42)
    assert a.event_log == b.event_log
    assert [c.response_s for c in a.calls] == [c.response_s for c in b.calls]
    c = simulate([2], calls, g, SimParams(), seed=43)
    assert a.event_log != c.event_log  # service draws differ


def test_requires_sorted_calls_and_fleet():
    g = line_grid(stations=(0,))
    with pytest.raises(DataError):
        simulate([1], [(10.0, 0), (0.0, 0)], g, SimParams(), seed=1)
    with pytest.raises(DataError):
        simulate([0], [(0.0, 0)], g, SimParams(), seed=1)


def test_negative_stationing_rejected():
    g = build_grid(BOUNDS, 2, 2, SyntheticSpeedProvider(40.0), station_cells=[0, 1, 2, 3])
    # the sum is positive, but no station can hold -2 units
    with pytest.raises(DataError, match="nonnegative"):
        simulate([3, -2, 0, 0], [(0.0, 0)], g, SimParams(), seed=1)


def test_nearest_ambulance_tie_breaks_by_station_then_id():
    travel = np.array([
        [0.0, 100.0, 200.0],
        [100.0, 0.0, 100.0],
        [200.0, 100.0, 0.0],
    ])
    g = build_grid(BOUNDS, 1, 3, MatrixProvider(travel), station_cells=[0, 2])
    # both stations exactly equidistant from the middle cell
    out = simulate([1, 1], [(0.0, 1)], g, SimParams(), seed=1)
    enroute = [e for e in out.event_log if e.kind == CALL_ENROUTE][0]
    assert enroute.ambulance_id == 0  # station 0's unit
    # two units at one station: the lower ambulance id goes
    g2 = build_grid(BOUNDS, 1, 3, MatrixProvider(travel), station_cells=[0])
    out2 = simulate([2], [(0.0, 1)], g2, SimParams(), seed=1)
    enroute2 = [e for e in out2.event_log if e.kind == CALL_ENROUTE][0]
    assert enroute2.ambulance_id == 0


def test_fifo_queue_discipline():
    g = line_grid(stations=(0,))
    calls = [(0.0, 1)] + [(float(i), 1) for i in range(1, 6)]
    out = simulate([1], calls, g, SimParams(), seed=9)
    waited = [e for e in out.event_log if e.kind == CALL_ENROUTE]
    dispatch_order = [e.call_id for e in waited]
    assert dispatch_order == sorted(dispatch_order)  # arrival order = call id order


def test_conservation_counts():
    g = line_grid(stations=(0,), hospitals=(1,))
    calls = [(float(i) * 30.0, i % 2) for i in range(50)]
    out = simulate([2], calls, g, SimParams(), seed=11)
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
    out = simulate([3], calls, g, SimParams(), seed=13)
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
    out = simulate([1], calls, g, SimParams(), seed=17)
    for c in out.calls:
        assert c.response_s == c.dispatch_wait_s + c.travel_s


def test_infinite_fleet_everywhere_gives_zero_response():
    g = build_grid(BOUNDS, 2, 2, SyntheticSpeedProvider(40.0), station_cells=[0, 1, 2, 3])
    calls = [(float(i), i % 4) for i in range(30)]
    out = simulate([30, 30, 30, 30], calls, g, SimParams(), seed=19)
    assert out.mean_response_s == 0.0


def test_shortfall_threshold():
    g = line_grid(stations=(0,))
    travel = float(g.travel_time_s[0, 1])
    assert travel > 0
    params = SimParams(shortfall_threshold_s=travel - 1.0)
    out = simulate([1], [(0.0, 1)], g, params, seed=1)
    assert out.calls[0].shortfall
    assert out.shortfall_rate == 1.0


def test_draw_service_time_distribution():
    rng = substream(0, "svc-test")
    params = SimParams(lognormal_mu=3.65, lognormal_sigma=0.3)
    draws = np.array([draw_service_time(params, rng) for _ in range(100_000)])
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
    assert [draw_service_time(params, rng) for _ in range(500)] == scalar


def test_draw_service_time_degenerate_sigma():
    rng = substream(1, "svc-test")
    params = SimParams(lognormal_mu=2.0, lognormal_sigma=1e-12)
    draws = [draw_service_time(params, rng) for _ in range(10)]
    for v in draws:
        assert v == pytest.approx(math.exp(2.0) * 60.0, rel=1e-9)


def test_run_batches_single_batch():
    g = line_grid(stations=(0,))
    calls = [(float(i) * 100.0, i % 2) for i in range(10)]
    outcomes, summary = run_batches([1], calls, g, SimParams(), n_calls=10, n_batches=1, seed=1)
    assert len(outcomes) == 1
    assert summary.single_batch
    assert summary.overall_std_s == 0.0
    assert summary.overall_mean_s == outcomes[0].mean_response_s


def test_run_batches_requires_enough_calls():
    g = line_grid(stations=(0,))
    calls = [(float(i), 0) for i in range(5)]
    with pytest.raises(DataError):
        run_batches([1], calls, g, SimParams(), n_calls=4, n_batches=2, seed=1)
    # the resampling flag lifts the requirement
    _, summary = run_batches([1], calls, g, SimParams(), n_calls=4, n_batches=2,
                             seed=1, sample_with_replacement=True)
    assert len(summary.batch_means_s) == 2


def test_run_batches_summary_matches_recomputation():
    g = line_grid(stations=(0,), hospitals=(1,))
    calls = [(float(i) * 200.0, i % 2) for i in range(48)]
    outcomes, summary = run_batches([2], calls, g, SimParams(), n_calls=4, n_batches=12, seed=5)
    means = [o.mean_response_s for o in outcomes]
    assert summary.batch_means_s == means
    assert summary.overall_mean_s == pytest.approx(float(np.mean(means)))
    assert summary.overall_std_s == pytest.approx(float(np.std(means, ddof=1)))


def test_batch_determinism_and_independence():
    g = line_grid(stations=(0,))
    calls = [(float(i) * 150.0, i % 2) for i in range(40)]
    _, s1 = run_batches([1], calls, g, SimParams(), n_calls=10, n_batches=4, seed=7)
    _, s2 = run_batches([1], calls, g, SimParams(), n_calls=10, n_batches=4, seed=7)
    assert s1.batch_means_s == s2.batch_means_s


def test_formatted_minutes():
    s = BatchSummary([360.0, 384.0], 372.6, 2.22, False)
    assert s.formatted_minutes() == "6.210 +/- 0.037"


def test_compare_policies_identical_policy_identical_columns():
    g = line_grid(stations=(0,), hospitals=(1,))
    calls = [(float(i) * 100.0, i % 2) for i in range(40)]
    table = compare_policies(
        [("a", np.array([1])), ("b", np.array([1]))], calls, g, SimParams(),
        n_calls=10, n_batches=4, seed=3,
    )
    assert np.array_equal(table.batch_means_s[:, 0], table.batch_means_s[:, 1])


def test_compare_policies_monotone_under_fleet_growth():
    g = build_grid(BOUNDS, 2, 2, SyntheticSpeedProvider(40.0), station_cells=[0, 3])
    calls = [(float(i) * 90.0, i % 4) for i in range(80)]
    table = compare_policies(
        [("small", np.array([1, 0])), ("big", np.array([1, 1]))], calls, g, SimParams(),
        n_calls=20, n_batches=4, seed=11,
    )
    assert np.all(table.batch_means_s[:, 1] <= table.batch_means_s[:, 0])


def test_compare_policies_empty_rejected():
    g = line_grid(stations=(0,))
    with pytest.raises(ConfigError):
        compare_policies([], [(0.0, 0)], g, SimParams())


def test_event_log_export(tmp_path):
    g = line_grid(stations=(0,))
    out = simulate([1], [(0.0, 1)], g, SimParams(), seed=1)
    path = tmp_path / "events.csv"
    save_event_log(out.event_log, path)
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
    out = simulate([1, 1], calls, g, params, seed=2024)
    assert sum(c.dispatch_wait_s > 0 for c in out.calls) == 30
    path = tmp_path / "events.csv"
    save_event_log(out.event_log, path)
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
    out = simulate([1], [(0.0, 2), (1000.0, 1)], g, params, seed=1)
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
    inner = simcore.apply

    def counting_apply(model, grid_s):
        seen.append(grid_s)
        return inner(model, grid_s)

    monkeypatch.setattr(simcore, "apply", counting_apply)
    simulate([1, 1], calls, g, params, seed=2024)
    assert 0 < len(seen) <= g.n_cells ** 2


def test_calibration_only_for_rows_a_leg_starts_from(monkeypatch):
    # legs start at a station or a hospital; scene-to-hospital legs add one per cell
    g, calls, params = golden_city()
    seen = []
    inner = simcore.apply

    def counting_apply(model, grid_s):
        seen.append(grid_s)
        return inner(model, grid_s)

    monkeypatch.setattr(simcore, "apply", counting_apply)
    simulate([1, 1], calls, g, params, seed=2024)
    starts = set(g.station_cells) | set(g.hospital_cells)
    assert 0 < len(seen) <= (len(starts) + 1) * g.n_cells


CALIBRATIONS = (
    None,
    CalibrationModel(kind="loglog", intercept=1.2, slope=0.8),
    CalibrationModel(kind="linear", intercept=-30.0, slope=1.1),
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
    out = simulate(x, calls, g, params, seed=seed)
    events, outcomes = reference_simulate(x, calls, g, params, seed)
    assert out.events == events
    assert out.call_rows == outcomes
    if outcomes:
        assert out.mean_response_s == float(np.mean([o[6] for o in outcomes]))
        assert out.shortfall_rate == float(np.mean([o[7] for o in outcomes]))


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
    out = simulate(x, calls, g, params, seed=seed)
    events, outcomes = reference_simulate(x, calls, g, params, seed)
    assert out.events == events
    assert out.call_rows == outcomes


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
    want = simulate(x, pairs, g, SimParams(), seed=9)
    for calls in (records, CallTable.from_records(list(records), ZoneInfo("UTC"))):
        out = simulate(x, calls, g, SimParams(), seed=9)
        assert out.call_rows == want.call_rows
        assert out.events == want.events


def test_resampled_batches_of_records_equal_those_of_their_pairs():
    g, records, pairs = synth_city()
    x = [1] * len(g.station_cells)
    kwargs = dict(n_calls=150, n_batches=3, seed=4, sample_with_replacement=True)
    _, from_pairs = run_batches(x, pairs, g, SimParams(), **kwargs)
    _, from_records = run_batches(x, records, g, SimParams(), **kwargs)
    assert from_records.batch_means_s == from_pairs.batch_means_s


def test_resampled_batch_keeps_tied_calls_in_the_order_drawn():
    g = build_grid(BOUNDS, 2, 2, SyntheticSpeedProvider(40.0), station_cells=[0, 3])
    calls = [(0.0, 1), (0.0, 2), (60.0, 3), (60.0, 0), (60.0, 1)]
    outcomes, _ = run_batches([2, 2], calls, g, SimParams(), n_calls=12, n_batches=3, seed=8,
                              sample_with_replacement=True)
    for i, outcome in enumerate(outcomes):
        drawn = substream(8, "batchsample", i).integers(0, len(calls), size=12)
        assert [row[1:3] for row in outcome.call_rows] == sorted((calls[k] for k in drawn), key=lambda c: c[0])


@pytest.mark.parametrize("records_first", [True, False])
def test_a_mix_of_records_and_pairs_is_refused(records_first):
    """A list of records, or a mix of records and pairs, is refused."""
    g, records, pairs = synth_city(8)
    x = [1] * len(g.station_cells)
    records = list(records)
    mixed = records[:4] + pairs[4:] if records_first else pairs[:4] + records[4:]
    for calls in (records, mixed):
        with pytest.raises(DataError, match="a CallTable or a list of"):
            simulate(x, calls, g, SimParams())
        with pytest.raises(DataError, match="a CallTable or a list of"):
            run_batches(x, calls, g, SimParams(), n_calls=4, n_batches=2, sample_with_replacement=True)
