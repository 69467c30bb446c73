"""The synthetic call log: its bytes pinned per seed, its cell draw checked
against ``Generator.choice``, and its refusals of bad input."""

import hashlib
import math
from bisect import bisect_right
from datetime import datetime, timedelta, timezone
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from oracles import table_from_records

from emsdeploy import geogrid, ingest, synth
from emsdeploy.errors import ConfigError

CITY_SIM = synth.SynthConfig(
    n_rows=12, n_cols=12, bounds=(30.0, 30.6, -98.0, -97.4), speed_kmh=60.0,
    station_cells=tuple(r * 12 + c for r in (1, 4, 7, 10) for c in (1, 4, 7, 10)),
    hospital_cells=(3 * 12 + 3, 3 * 12 + 8, 8 * 12 + 3, 8 * 12 + 8),
    calls_per_hour=40.0,
)
# one station on the hotspot, so that many calls start and end in one cell
ONE_STATION = synth.SynthConfig(n_rows=3, n_cols=3, station_cells=(4,), hotspot_cell=4)

# SHA-256 of serialize_calls(synth_calls(...)) as the per-call rng.choice
# generator wrote it: (config, seed, calls, digest)
GOLDEN = {
    "default": (synth.SynthConfig(), 7, 5000,
                "2e72d6ac0105b7f1a8dd793f37f8ed53d1b171f132282f9ffe4236278bcb3c1e"),
    "city-sim": (CITY_SIM, 1, 5000,
                 "dddf996de83386047baf32ac5f824426ceb9bcf2055ee70fec8353f14df79ea3"),
    "one-station": (ONE_STATION, 3, 2000,
                    "042842eb465b51d631641ed71b56dbe7da655170c29f33a572a7af78ed437d24"),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_call_log_bytes_pinned(name, tmp_path):
    cfg, seed, n_calls, digest = GOLDEN[name]
    grid = synth.synth_grid(cfg)
    calls = synth.synth_calls(grid, n_calls, seed=seed, cfg=cfg)
    path = tmp_path / "calls.csv"
    ingest.serialize_calls(calls, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    if cfg is ONE_STATION:
        # the zero grid time branch ran: a call in the station's own cell
        cells, _ = geogrid.assign_cells(grid, [c.lat for c in calls], [c.lon for c in calls])
        assert any(cell == 4 and 30.0 <= c.reported_travel_s < 90.0 for cell, c in zip(cells, calls))


@pytest.mark.parametrize("weights", [
    np.ones(36),
    np.geomspace(1.0, 1e-6, 36),
    np.array([0.0, 3.0, 0.0, 0.0, 1.0, 0.5, 0.0, 2.0, 0.0]),
])
def test_bisected_cdf_draws_as_generator_choice(weights):
    # synth_calls draws each cell by bisecting the CDF that Generator.choice
    # builds with one rng.random() double: same double, same index
    p = weights / weights.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    cdf = cdf.tolist()
    g1, g2 = np.random.default_rng(2024), np.random.default_rng(2024)
    got = [bisect_right(cdf, g1.random()) for _ in range(5000)]
    want = [int(g2.choice(len(p), p=p)) for _ in range(5000)]
    assert got == want
    assert g1.random() == g2.random()


@pytest.mark.parametrize("start", [
    synth.SynthConfig().start,
    datetime(2024, 1, 1, 8, tzinfo=timezone(timedelta(hours=-6))),
    # the calls run from February into April, across the March DST change
    datetime(2024, 2, 26, 8, tzinfo=ZoneInfo("America/Chicago")),
], ids=["utc", "fixed-offset", "zoneinfo-across-dst"])
def test_columns_are_the_record_bridges_table(start):
    cfg = synth.SynthConfig(start=start)
    table = synth.synth_calls(synth.synth_grid(cfg), 1500, seed=5, cfg=cfg)
    want = table_from_records(table.records(), table.tz)
    for name in ("wall_us", "zone", "utc_us"):
        assert getattr(table, name).tolist() == getattr(want, name).tolist(), name
    np.testing.assert_array_equal(table.values, want.values)  # NaN-aware
    assert table.tz is want.tz
    if isinstance(start.tzinfo, ZoneInfo):
        # both offsets occur: the table spans the change
        assert len(set((table.wall_us - table.utc_us).tolist())) == 2


def test_naive_start_refused():
    cfg = synth.SynthConfig(start=datetime(2024, 1, 1, 8))
    with pytest.raises(ConfigError, match="start must be in a ZoneInfo zone or a fixed UTC offset"):
        synth.synth_calls(synth.synth_grid(cfg), 10, cfg=cfg)


def test_zero_calls_is_an_empty_log():
    assert len(synth.synth_calls(synth.synth_grid(), 0)) == 0


@pytest.mark.parametrize("n_calls, calls_per_hour", [
    (-1, 4.0), (0, 0.0), (10, 0.0), (10, -4.0), (10, math.nan), (10, math.inf),
])
def test_bad_call_counts_and_rates_refused(n_calls, calls_per_hour):
    cfg = synth.SynthConfig(calls_per_hour=calls_per_hour)
    with pytest.raises(ConfigError):
        synth.synth_calls(synth.synth_grid(cfg), n_calls, cfg=cfg)


def test_grid_without_stations_refused():
    grid = geogrid.build_grid((30.0, 30.3, -97.3, -97.0), 3, 3, geogrid.SyntheticSpeedProvider(50.0))
    with pytest.raises(ConfigError, match="no station cells"):
        synth.synth_calls(grid, 10)
