"""Call-log ingestion: parsing, peak-hour filtering, demand-count matrices,
train/test splitting, and quantile trimming.

All transformations are pure; malformed or out-of-bounds rows are counted
and reported rather than silently discarded.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, time, timedelta
from pathlib import Path
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence
from zoneinfo import ZoneInfo

import numpy as np

from .errors import ConfigError, DataError
from .geogrid import Grid, assign_cells
from .rng import substream

DEFAULT_COLUMNS = {
    "datetime": "datetime",
    "latitude": "latitude",
    "longitude": "longitude",
    "response_time_s": "response_time_s",
    "travel_time_s": "travel_time_s",
    "amb_latitude": "amb_latitude",
    "amb_longitude": "amb_longitude",
    "on_scene_s": "on_scene_s",
    "to_hospital_s": "to_hospital_s",
}
MANDATORY_FIELDS = ("datetime", "latitude", "longitude")


@dataclass(frozen=True)
class CallSchema:
    """Column-name mapping and timestamp interpretation for a call-log CSV."""

    columns: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_COLUMNS))
    timezone: str = "UTC"

    def zone(self) -> ZoneInfo:
        return ZoneInfo(self.timezone)


class CallRecord(NamedTuple):
    timestamp: datetime
    lat: float
    lon: float
    reported_response_s: float | None = None
    reported_travel_s: float | None = None
    ambulance_lat: float | None = None
    ambulance_lon: float | None = None
    on_scene_s: float | None = None
    to_hospital_s: float | None = None

    def epoch_s(self) -> float:
        return self.timestamp.timestamp()


@dataclass
class ParseReport:
    n_rows: int = 0
    n_parsed: int = 0
    n_dropped: int = 0
    reasons: Counter = field(default_factory=Counter)


def parse_calls(path: str | Path, schema: CallSchema | None = None) -> tuple[list[CallRecord], ParseReport]:
    """Parse a call-log CSV into records sorted by timestamp (a stable sort).

    Naive timestamps are interpreted in the schema's timezone (earlier
    offset on DST transitions). Blank lines are skipped and not counted; a
    field past the end of a short row reads as missing; a column name the
    header repeats reads its last column. Malformed rows are dropped and
    counted in the report with a reason: ``bad_timestamp``,
    ``bad_coordinates`` (missing or non-finite), or ``bad_optional_field``
    (a negative or non-finite duration, a non-finite ambulance position,
    or a non-number).
    """
    schema = schema or CallSchema()
    zone = schema.zone()
    cols = schema.columns
    report = ParseReport()
    records: list[CallRecord] = []
    inf = math.inf
    try:
        f = open(path, newline="")
    except FileNotFoundError:
        raise DataError(f"call log not found: {path}")
    with f:
        reader = csv.reader(f)
        header = next(reader, None) or []
        missing = [cols[k] for k in MANDATORY_FIELDS if cols[k] not in header]
        if missing:
            raise DataError(f"{path}: missing mandatory columns: {', '.join(missing)}")
        width = len(header)
        position = {name: i for i, name in enumerate(header)}  # the last of a repeated name
        # every row is brought to the header's width plus one trailing None,
        # the field an optional column absent from the header reads
        pick = itemgetter(*(
            position.get(cols[k], width) for k in (
                "datetime", "latitude", "longitude", "response_time_s", "travel_time_s",
                "amb_latitude", "amb_longitude", "on_scene_s", "to_hospital_s",
            )
        ))
        for row in reader:
            if len(row) != width:
                if not row:
                    continue
                row = row[:width] + [None] * (width - len(row))
            row.append(None)
            report.n_rows += 1
            raw_ts, lat, lon, resp, trav, amb_lat, amb_lon, scene, hosp = pick(row)
            try:
                ts = datetime.fromisoformat(raw_ts.strip())
            except (ValueError, AttributeError):
                report.reasons["bad_timestamp"] += 1
                continue
            if ts.tzinfo is None:
                ts = ts.replace(tzinfo=zone, fold=0)
            try:
                lat = float(lat)
                lon = float(lon)
            except (ValueError, TypeError):
                report.reasons["bad_coordinates"] += 1
                continue
            if not (-inf < lat < inf and -inf < lon < inf):
                report.reasons["bad_coordinates"] += 1
                continue
            # an optional field that is missing or blank reads as None
            try:
                resp = float(resp) if resp and resp.strip() else None
                trav = float(trav) if trav and trav.strip() else None
                amb_lat = float(amb_lat) if amb_lat and amb_lat.strip() else None
                amb_lon = float(amb_lon) if amb_lon and amb_lon.strip() else None
                scene = float(scene) if scene and scene.strip() else None
                hosp = float(hosp) if hosp and hosp.strip() else None
            except ValueError:
                report.reasons["bad_optional_field"] += 1
                continue
            if (
                (resp is not None and not 0.0 <= resp < inf)
                or (trav is not None and not 0.0 <= trav < inf)
                or (amb_lat is not None and not -inf < amb_lat < inf)
                or (amb_lon is not None and not -inf < amb_lon < inf)
                or (scene is not None and not 0.0 <= scene < inf)
                or (hosp is not None and not 0.0 <= hosp < inf)
            ):
                report.reasons["bad_optional_field"] += 1
                continue
            records.append(CallRecord(ts, lat, lon, resp, trav, amb_lat, amb_lon, scene, hosp))
    report.n_parsed = len(records)
    report.n_dropped = report.n_rows - report.n_parsed
    records.sort(key=lambda r: r.timestamp)
    return records, report


def serialize_calls(records: Iterable[CallRecord], path: str | Path) -> None:
    """Write records back out with the default column names (ISO timestamps).

    Each row is joined here and streamed to the file: a float is written as
    its repr and None as an empty field, CRLF-terminated. These are the
    bytes ``csv.writer`` writes, since it quotes only a field holding a
    comma, a quote or a line break, and no ISO timestamp or float repr does.
    """
    with open(path, "w", newline="") as f:
        f.write(",".join(DEFAULT_COLUMNS.values()) + "\r\n")
        f.writelines(
            ",".join([r[0].isoformat(), repr(float(r[1])), repr(float(r[2])),
                      *["" if v is None else repr(float(v)) for v in r[3:]]]) + "\r\n"
            for r in records
        )


def filter_peak(
    calls: Sequence[CallRecord],
    start: time = time(8, 0),
    end: time = time(20, 0),
    weekdays: Sequence[int] = (0, 1, 2, 3, 4),
) -> list[CallRecord]:
    """Keep calls whose local time lies in [start, end) on one of the weekdays.

    Monday is weekday 0. The default window is the high, consistent demand
    period of weekday daytime hours.
    """
    wd = set(weekdays)
    out = []
    for r in calls:
        t = r.timestamp
        if t.weekday() in wd and start <= t.time() < end:
            out.append(r)
    return out


@dataclass
class DemandMatrix:
    """Per-period, per-region call counts. Rows tile the data span contiguously."""

    counts: np.ndarray
    period_length_s: float
    period_start_times: list[datetime]
    n_dropped: int = 0

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.ndim != 2:
            raise DataError(f"counts must be 2-D, got shape {c.shape}")
        if np.any(c < 0):
            raise DataError("counts must be nonnegative")
        if len(self.period_start_times) != c.shape[0]:
            raise DataError("period_start_times length must match row count")
        self.counts = c

    @property
    def n_periods(self) -> int:
        return self.counts.shape[0]

    @property
    def n_regions(self) -> int:
        return self.counts.shape[1]


def build_demand_matrix(
    calls: Sequence[CallRecord],
    grid: Grid,
    period_length_s: float = 3600.0,
    snap_cells: float = 1.0,
) -> DemandMatrix:
    """Count calls per (period, region).

    Periods tile contiguously from the local midnight preceding the first
    call. Calls farther than snap_cells cell-widths outside the grid are
    dropped and counted in n_dropped.
    """
    if period_length_s <= 0:
        raise ConfigError(f"period_length_s must be positive, got {period_length_s}")
    if not calls:
        return DemandMatrix(np.zeros((0, grid.n_cells), dtype=np.int64), period_length_s, [])
    first = calls[0].timestamp
    anchor = first.replace(hour=0, minute=0, second=0, microsecond=0)
    anchor_s = anchor.timestamp()
    cells, inside = assign_cells(grid, [r.lat for r in calls], [r.lon for r in calls], snap_cells)
    epoch = np.array([r.timestamp.timestamp() for r in calls], dtype=np.float64)
    periods = np.floor((epoch[inside] - anchor_s) / period_length_s)
    if np.any(periods < 0):
        raise DataError("calls must not precede the first call's midnight anchor")
    n_periods = int(periods.max()) + 1 if len(periods) else 1
    flat = periods.astype(np.int64) * grid.n_cells + cells[inside]
    counts = np.bincount(flat, minlength=n_periods * grid.n_cells).reshape(n_periods, grid.n_cells)
    starts = [anchor + timedelta(seconds=k * period_length_s) for k in range(n_periods)]
    return DemandMatrix(counts, period_length_s, starts, n_dropped=int(len(calls) - inside.sum()))


def peak_period_mask(
    matrix: DemandMatrix,
    start: time = time(8, 0),
    end: time = time(20, 0),
    weekdays: Sequence[int] = (0, 1, 2, 3, 4),
) -> np.ndarray:
    """Boolean mask of periods whose start lies inside the peak window."""
    wd = set(weekdays)
    mask = np.zeros(matrix.n_periods, dtype=bool)
    for i, ts in enumerate(matrix.period_start_times):
        mask[i] = ts.weekday() in wd and start <= ts.time() < end
    return mask


def select_periods(matrix: DemandMatrix, mask: np.ndarray) -> DemandMatrix:
    keep = np.asarray(mask, dtype=bool)
    starts = [ts for ts, k in zip(matrix.period_start_times, keep) if k]
    return DemandMatrix(matrix.counts[keep], matrix.period_length_s, starts, matrix.n_dropped)


def save_demand_matrix(matrix: DemandMatrix, path: str | Path) -> None:
    """CSV export: one row per period, first column the ISO period start."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["period_start"] + [f"region_{j}" for j in range(matrix.n_regions)])
        writer.writerows(
            [ts.isoformat(), *row] for ts, row in zip(matrix.period_start_times, matrix.counts.tolist())
        )


def load_demand_matrix(path: str | Path, period_length_s: float = 3600.0) -> DemandMatrix:
    """Read ``save_demand_matrix``'s CSV. Raises DataError with the line
    number for a row whose width differs from the header's, a period start
    that is not an ISO timestamp, or a count that is not an integer."""
    starts: list[datetime] = []
    rows: list[list[int]] = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty demand matrix file")
        width = len(header)
        try:
            for line in reader:
                if len(line) != width:
                    raise DataError(f"{path}: line {reader.line_num}: {len(line)} fields, the header has {width}")
                starts.append(datetime.fromisoformat(line[0]))
                rows.append(list(map(int, line[1:])))
        except ValueError as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        return DemandMatrix(np.zeros((0, 0), dtype=np.int64), period_length_s, [])
    return DemandMatrix(np.array(rows, dtype=np.int64), period_length_s, starts)


def split_train_test(
    calls: Sequence[CallRecord],
    fraction: float = 0.8,
    mode: str = "chronological",
    k: int = 5,
    fold_index: int = 0,
    seed: int = 0,
) -> tuple[list[CallRecord], list[CallRecord]]:
    """Disjoint, exhaustive train/test split.

    chronological: the earliest ``fraction`` of calls become the train set.
    kfold: a seeded shuffle partitions calls into k folds; fold_index is the
    test fold. Both modes keep each side in chronological order.
    """
    n = len(calls)
    if n < 2:
        raise DataError(f"need at least 2 calls to split, got {n}")
    if mode == "chronological":
        if not (0 < fraction < 1):
            raise ConfigError(f"fraction must be in (0, 1), got {fraction}")
        n_train = min(max(int(math.floor(n * fraction)), 1), n - 1)
        return list(calls[:n_train]), list(calls[n_train:])
    if mode == "kfold":
        if k < 2 or not (0 <= fold_index < k):
            raise ConfigError(f"need k >= 2 and 0 <= fold_index < k, got k={k}, fold_index={fold_index}")
        perm = substream(seed, "folds").permutation(n)
        folds = np.array_split(perm, k)
        test_idx = set(int(i) for i in folds[fold_index])
        train = [c for i, c in enumerate(calls) if i not in test_idx]
        test = [c for i, c in enumerate(calls) if i in test_idx]
        return train, test
    raise ConfigError(f"unknown split mode: {mode!r}")


def trim_quantiles(pairs: Sequence[tuple[float, float]], p: float) -> list[tuple[float, float]]:
    """Drop pairs whose reported time falls in the bottom or top p tail.

    Cut points are the nearest-rank order statistics: with n pairs the
    lowest ceil(p*n) and highest ceil(p*n) reported values fall outside
    the retained range.
    """
    if not (0 <= p < 0.5):
        raise ConfigError(f"trim fraction must be in [0, 0.5), got {p}")
    pairs = list(pairs)
    n = len(pairs)
    if n == 0 or p == 0:
        return pairs
    k = math.ceil(p * n)
    reported = sorted(v for _, v in pairs)
    if k > n - 1 - k:
        return []
    lo, hi = reported[k], reported[n - 1 - k]
    return [pair for pair in pairs if lo <= pair[1] <= hi]


def calibration_pairs(
    calls: Sequence[CallRecord],
    grid: Grid,
    snap_cells: float = 1.0,
) -> tuple[list[tuple[float, float]], int]:
    """(grid travel s, reported travel s) pairs for calibration fitting.

    Calls missing a reported travel time or ambulance origin, or lying
    outside the snappable grid, are excluded; the count is returned.
    """
    usable, a, b = calibration_cells(calls, grid, snap_cells)
    travel = grid.travel_time_s[a, b].tolist()
    reported = [float(calls[k].reported_travel_s) for k in usable.tolist()]
    return list(zip(travel, reported)), len(calls) - len(usable)


def calibration_cells(
    calls: Sequence[CallRecord],
    grid: Grid,
    snap_cells: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions of the calls usable for calibration, with their ambulance
    and call cells, in call order.

    A call is usable if it has a reported travel time and an ambulance
    origin, and both its points lie on the snappable grid.
    """
    complete = [
        k for k, r in enumerate(calls)
        if r.reported_travel_s is not None and r.ambulance_lat is not None and r.ambulance_lon is not None
    ]
    picked = [calls[k] for k in complete]
    a, a_inside = assign_cells(grid, [r.ambulance_lat for r in picked], [r.ambulance_lon for r in picked], snap_cells)
    b, b_inside = assign_cells(grid, [r.lat for r in picked], [r.lon for r in picked], snap_cells)
    ok = a_inside & b_inside
    return np.asarray(complete, dtype=np.int64)[ok], a[ok], b[ok]
