"""Synthetic city generator: a grid, seeded call logs with plausible
reported fields, and census-tract tables, for demos and end-to-end tests
that cannot ship real dispatch data.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from zoneinfo import ZoneInfo

import numpy as np

from .errors import ConfigError, write_csv
from .geogrid import Grid, SyntheticSpeedProvider, build_grid
from .ingest import _MICROSECOND, CallTable, _stamp_columns, _wall_us
from .rng import substream


@dataclass
class SynthConfig:
    n_rows: int = 6
    n_cols: int = 6
    bounds: tuple[float, float, float, float] = (30.10, 30.40, -97.90, -97.60)
    # lights-and-sirens speed; keeps the four default stations covering the
    # whole grid within the 600 s threshold, which the robust model needs
    speed_kmh: float = 60.0
    station_cells: tuple[int, ...] = ()
    hospital_cells: tuple[int, ...] = ()
    hotspot_cell: int | None = None
    hotspot_weight: float = 6.0
    calls_per_hour: float = 4.0
    start: datetime = datetime(2024, 1, 1, 8, 0, tzinfo=timezone.utc)
    # ground truth for reported times: reported = exp(a + b ln grid) * noise
    reported_a: float = 1.2
    reported_b: float = 0.8
    reported_noise_sigma: float = 0.25
    on_scene_mu: float = 3.65
    on_scene_sigma: float = 0.3


def synth_grid(cfg: SynthConfig | None = None) -> Grid:
    """Build the synthetic grid with default stations spread off-center."""
    cfg = cfg or SynthConfig()
    stations = cfg.station_cells
    if not stations:
        n = cfg.n_rows * cfg.n_cols
        # one near each corner quadrant, biased toward the hotspot corner
        stations = tuple(
            sorted(
                {
                    cfg.n_cols + 1,
                    2 * cfg.n_cols - 2,
                    (cfg.n_rows - 2) * cfg.n_cols + 1,
                    (cfg.n_rows - 2) * cfg.n_cols + cfg.n_cols - 2,
                }
            )
        )
        stations = tuple(s for s in stations if 0 <= s < n)
    hospitals = cfg.hospital_cells or (stations[0],)
    return build_grid(
        cfg.bounds,
        cfg.n_rows,
        cfg.n_cols,
        SyntheticSpeedProvider(cfg.speed_kmh),
        station_cells=stations,
        hospital_cells=hospitals,
    )


def _cell_weights(grid: Grid, cfg: SynthConfig) -> np.ndarray:
    hotspot = cfg.hotspot_cell if cfg.hotspot_cell is not None else grid.cell_index(1, 1)
    hot_r, hot_c = grid.cell_rowcol(hotspot)
    weights = np.empty(grid.n_cells)
    for j in range(grid.n_cells):
        r, c = grid.cell_rowcol(j)
        ring = max(abs(r - hot_r), abs(c - hot_c))
        weights[j] = 1.0 + cfg.hotspot_weight / (1.0 + ring)
    return weights / weights.sum()


def synth_calls(grid: Grid, n_calls: int, seed: int = 0, cfg: SynthConfig | None = None) -> CallTable:
    """Seeded call log over the grid, with demand concentrated at a hotspot.

    Calls arrive as a Poisson stream folded into weekday peak hours, carry
    jittered coordinates inside their cell, and include reported travel and
    on-scene fields generated from a known ground-truth model so that the
    calibration and analysis stages have something real to recover. The
    calls come as a CallTable, in time order, its columns filled in the
    draw loop: a ``ZoneInfo`` start's stamps are in the table's zone, and a
    fixed-offset start's carry that offset in a UTC table.

    Each call makes the same scalar ``Generator`` draws in the same order,
    so a seed always gives the same log. Raises ConfigError, before any
    draw, for a negative ``n_calls``, a ``calls_per_hour`` that is not a
    positive finite number, a start in neither a ``ZoneInfo`` zone nor a
    fixed UTC offset, or a grid without station cells.
    """
    cfg = cfg or SynthConfig()
    if n_calls < 0:
        raise ConfigError(f"n_calls must be nonnegative, got {n_calls}")
    if not (math.isfinite(cfg.calls_per_hour) and cfg.calls_per_hour > 0):
        raise ConfigError(f"calls_per_hour must be positive and finite, got {cfg.calls_per_hour}")
    zone = cfg.start.tzinfo
    if not isinstance(zone, (ZoneInfo, timezone)):
        raise ConfigError(f"start must be in a ZoneInfo zone or a fixed UTC offset, got {cfg.start!r}")
    if not grid.station_cells:
        raise ConfigError("the grid has no station cells to dispatch calls from")
    rng = substream(seed, "synth-calls")
    # the CDF that rng.choice(n_cells, p=weights) builds on every call: bisecting
    # it with one rng.random() double picks the same cell from the same draw
    cdf = _cell_weights(grid, cfg).cumsum()
    cdf /= cdf[-1]
    cdf = cdf.tolist()
    h = grid.cell_height_deg
    w = grid.cell_width_deg
    centers = grid.cell_centers
    # every call is dispatched from a station, so only those rows are read
    stations = [(centers[s], grid.travel_time_s[s].tolist()) for s in grid.station_cells]
    n_stations = len(stations)
    random, integers, normal, uniform, exponential = rng.random, rng.integers, rng.normal, rng.uniform, rng.exponential
    mean_gap_h = 1.0 / cfg.calls_per_hour
    a, b, noise_sigma = cfg.reported_a, cfg.reported_b, cfg.reported_noise_sigma
    scene_mu, scene_sigma = cfg.on_scene_mu, cfg.on_scene_sigma
    stamps: list[datetime] = []
    fields: list[tuple[float, ...]] = []  # each call's floats but to_hospital_s, which is None
    # an aware stamp's arithmetic, weekday and hour are its wall time's, so the loop runs on wall times
    t = cfg.start.replace(tzinfo=None)
    peak_len_h = 12.0
    for _ in range(n_calls):
        # exponential interarrival, folded into the 08:00-20:00 weekday window
        t = t + timedelta(hours=exponential(mean_gap_h))
        while True:
            hour = t.hour + t.minute / 60.0
            if t.weekday() >= 5:
                t = (t + timedelta(days=1)).replace(hour=8, minute=t.minute, second=t.second)
                continue
            if hour >= 8.0 + peak_len_h:
                t = (t + timedelta(days=1)).replace(hour=8)
                continue
            if hour < 8.0:
                t = t.replace(hour=8)
                continue
            break
        cell = bisect_right(cdf, random())
        lat_c, lon_c = centers[cell]
        lat = lat_c + (random() - 0.5) * 0.9 * h
        lon = lon_c + (random() - 0.5) * 0.9 * w
        (amb_lat, amb_lon), times = stations[integers(0, n_stations)]
        grid_s = times[cell]
        if grid_s <= 0:
            reported = uniform(30.0, 90.0)
        else:
            reported = math.exp(a + b * math.log(grid_s) + normal(0.0, noise_sigma))
        on_scene = math.exp(normal(scene_mu, scene_sigma)) * 60.0
        stamps.append(t)
        fields.append((lat, lon, reported + uniform(20.0, 60.0), reported, amb_lat, amb_lon, on_scene))
    values = np.full((8, n_calls), math.nan)
    values[:7] = np.array(fields, dtype=np.float64).reshape(n_calls, 7).T
    if isinstance(zone, ZoneInfo):
        # a naive stamp is coded as in the table's zone, as the parser codes it
        return CallTable(*_stamp_columns(stamps, zone), values, zone)
    offset_us = zone.utcoffset(None) // _MICROSECOND
    wall_us = _wall_us(stamps)
    return CallTable(wall_us, np.full(n_calls, offset_us, dtype=np.int64), wall_us - offset_us, values, ZoneInfo("UTC"))


def synth_tracts(grid: Grid, seed: int = 0, tracts_per_side: int = 3) -> tuple[dict[int, str], dict[str, dict[str, float]]]:
    """Quadrant-style tract map plus a random SVI table for those tracts."""
    from .analysis import SVI_COLUMNS

    rng = substream(seed, "synth-svi")
    tract_map: dict[int, str] = {}
    rows_per = max(1, grid.n_rows // tracts_per_side)
    cols_per = max(1, grid.n_cols // tracts_per_side)
    for j in range(grid.n_cells):
        r, c = grid.cell_rowcol(j)
        tract_map[j] = f"T{min(r // rows_per, tracts_per_side - 1)}{min(c // cols_per, tracts_per_side - 1)}"
    svi_table = {
        tract: {col: float(rng.uniform(0.0, 1000.0)) for col in SVI_COLUMNS}
        for tract in sorted(set(tract_map.values()))
    }
    return tract_map, svi_table


def write_svi_csv(svi_table: dict[str, dict[str, float]], path: str | Path) -> None:
    from .analysis import SVI_COLUMNS

    tracts = sorted(svi_table)
    write_csv(path, ["tract_id", *SVI_COLUMNS], [
        tracts, *([svi_table[tract][c] for tract in tracts] for c in SVI_COLUMNS)
    ])


def write_tract_map_csv(tract_map: dict[int, str], path: str | Path) -> None:
    cells = sorted(tract_map)
    write_csv(path, ["cell_index", "tract_id"], [cells, [tract_map[cell] for cell in cells]])
