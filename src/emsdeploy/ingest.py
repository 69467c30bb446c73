"""Call-log ingestion: parsing, peak-hour filtering, demand-count matrices,
train/test splitting, and quantile trimming.

All transformations are pure; malformed or out-of-bounds rows are counted
and reported rather than silently discarded. ``parse_calls_kept`` keeps a
log's parse on disk, so a pipeline whose stages each re-read the same log
parses it once.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import math
import os
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, time, timedelta, timezone
from itertools import chain, repeat
from operator import add, floordiv, itemgetter, sub
from pathlib import Path
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

log = logging.getLogger(__name__)


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


# the layout of a kept parse: change it whenever the layout or what a parse
# returns changes, so that no older kept file matches a key
_KEPT_FORMAT = b"emsdeploy kept parse 1"
_SCHEMA_ZONE = np.iinfo(np.int64).min  # the zone code of a stamp in the schema's zone
_MICROSECOND = timedelta(microseconds=1)


def parse_calls_kept(
    path: str | Path, schema: CallSchema | None, keep_dir: str | Path
) -> tuple[list[CallRecord], ParseReport]:
    """``parse_calls`` of a log whose parse is kept in ``keep_dir``.

    The parse is kept in one hidden file, ``.<log file name>.parse``,
    under a key: the SHA-256 of the format version, the schema (timezone
    and column mapping) and the log's bytes. When the kept file's key
    matches, the records and report are loaded from it. Otherwise (no kept
    file, a changed log or schema, an empty, truncated or foreign file)
    the log is parsed and its parse kept, written to a temporary file and
    renamed into place. Either way the result is what ``parse_calls``
    returns: every record equal by ``repr`` (zone, signed zeros and None
    fields included) and the same report, its reasons in first-seen order.
    Two logs of the same file name share one kept file, so reading them in
    turn re-parses each; the kept file can be deleted at any time.
    """
    schema = schema or CallSchema()
    kept = Path(keep_dir) / f".{Path(path).name}.parse"
    key = _kept_key(path, schema)
    loaded = _load_kept(kept, key, schema)
    if loaded is None:
        records, report = parse_calls(path, schema)
        _keep(kept, key, records, report)
    else:
        records, report = loaded
    log.info("%s: %d rows, %s", Path(path).name, report.n_rows,
             "parsed" if loaded is None else "read from its kept parse")
    return records, report


def _kept_key(path: str | Path, schema: CallSchema) -> bytes:
    """The bytes a kept parse of this log under this schema starts with:
    its key as the file's first array."""
    digest = hashlib.sha256(_KEPT_FORMAT + b"\0")
    # a JSON text holds no NUL, so the schema ends where the log begins
    digest.update(json.dumps([schema.timezone, schema.columns], sort_keys=True).encode() + b"\0")
    try:
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                digest.update(chunk)
    except FileNotFoundError:
        raise DataError(f"call log not found: {path}") from None
    key = io.BytesIO()
    np.lib.format.write_array(key, np.frombuffer(digest.digest(), dtype=np.uint8), allow_pickle=False)
    return key.getvalue()


def _keep(kept: Path, key: bytes, records: list[CallRecord], report: ParseReport) -> None:
    """Write a parse as a run of .npy arrays after its key: the report's
    counts, its reason names and counts, each stamp's wall time (us since
    1970-01-01 in its own zone) and zone code (the UTC offset in us, or
    ``_SCHEMA_ZONE``), and the eight float fields, NaN for None (a parsed
    field is never NaN)."""
    stamps = [r[0] for r in records]
    zones = [t.tzinfo for t in stamps]
    epochs = {z: datetime(1970, 1, 1, tzinfo=z) for z in set(zones)}
    codes = {z: _SCHEMA_ZONE if isinstance(z, ZoneInfo) else z.utcoffset(None) // _MICROSECOND for z in epochs}
    # a stamp minus an epoch in the same zone is wall-clock time, whatever the zone's offsets
    since = map(sub, stamps, map(epochs.__getitem__, zones))
    arrays = (
        np.array([report.n_rows, report.n_parsed, report.n_dropped], dtype=np.int64),
        np.array(list(report.reasons), dtype=str),
        np.array(list(report.reasons.values()), dtype=np.int64),
        np.fromiter(map(floordiv, since, repeat(_MICROSECOND)), dtype=np.int64, count=len(stamps)),
        np.fromiter(map(codes.__getitem__, zones), dtype=np.int64, count=len(stamps)),
        np.array([[r[j] for r in records] for j in range(1, 9)], dtype=np.float64),
    )
    fd, tmp = tempfile.mkstemp(prefix=kept.name, dir=kept.parent)
    try:
        with open(fd, "wb") as f:
            f.write(key)
            for array in arrays:
                np.lib.format.write_array(f, array, allow_pickle=False)
        os.replace(tmp, kept)
    except BaseException:
        os.unlink(tmp)
        raise


def _load_kept(kept: Path, key: bytes, schema: CallSchema) -> tuple[list[CallRecord], ParseReport] | None:
    """The parse ``_keep`` wrote under ``key``, or None for a file that is
    missing, unreadable, truncated or kept under another key."""
    try:
        with open(kept, "rb") as f:
            if f.read(len(key)) != key:
                return None
            counts, names, reason_counts, wall_us, codes, values = (
                np.lib.format.read_array(f, allow_pickle=False) for _ in range(6)
            )
    except (OSError, ValueError):
        return None
    zone = schema.zone()
    epochs = {
        code: datetime(1970, 1, 1, tzinfo=zone if code == _SCHEMA_ZONE else timezone(code * _MICROSECOND))
        for code in set(codes.tolist())
    }
    stamps = map(add, map(epochs.__getitem__, codes.tolist()), wall_us.astype("m8[us]").tolist())
    # CallRecord._make without its per-row length check: each row has nine fields
    records = list(map(tuple.__new__, repeat(CallRecord), zip(stamps, *map(_none_for_nan, values))))
    report = ParseReport(*counts.tolist(), Counter(dict(zip(names.tolist(), reason_counts.tolist()))))
    return records, report


def _none_for_nan(values: np.ndarray) -> list[float | None]:
    column = values.astype(object)
    column[np.isnan(values)] = None
    return column.tolist()


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
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if not header:
            raise DataError(f"{path}: empty demand matrix file")
        width = len(header)

        def count_fields():
            for line in reader:
                if len(line) != width:
                    raise DataError(f"{path}: line {reader.line_num}: {len(line)} fields, the header has {width}")
                starts.append(datetime.fromisoformat(line[0]))
                yield line[1:]

        # the counts are converted as the lines stream by, so a ValueError
        # comes while reader.line_num is still the line that raised it
        try:
            counts = list(map(int, chain.from_iterable(count_fields())))
        except ValueError as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    counts = np.array(counts, dtype=np.int64).reshape(len(starts), width - 1)
    return DemandMatrix(counts, period_length_s, starts)


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
