"""Call-log ingestion: parsing, peak-hour filtering, demand-count matrices,
train/test splitting, and quantile trimming.

All transformations are pure; malformed or out-of-bounds rows are counted
and reported rather than silently discarded. ``parse_calls_kept`` keeps a
log's parse on disk, so a pipeline whose stages each re-read the same log
parses it once, and returns it as a ``CallTable`` of numpy columns;
``serialize_calls_kept`` keeps the parse of a log it writes without
parsing it. Every rule on calls takes a ``CallTable`` and reads its
columns; ``CallTable.from_records`` is the one bridge from hand-built
``CallRecord``s.
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
import warnings
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, time, timedelta, timezone
from itertools import repeat
from operator import add, attrgetter, floordiv, itemgetter, sub
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


def parse_calls(path: str | Path, schema: CallSchema | None = None) -> tuple[CallTable, ParseReport]:
    """Parse a call-log CSV into a CallTable sorted by timestamp (a stable sort).

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
    return CallTable.from_records(records, zone), report


# the layout of a kept parse: change it whenever the layout or what a parse
# returns changes, so that no older kept file matches a key
_KEPT_FORMAT = b"emsdeploy kept parse 2"
_SCHEMA_ZONE = np.iinfo(np.int64).min  # the zone code of a stamp in the schema's zone
_MICROSECOND = timedelta(microseconds=1)
_UTC_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_DAY_US = 86_400_000_000


class CallTable(Sequence[CallRecord]):
    """Parsed calls as numpy columns, one entry per call, in order.

    ``wall_us`` is each stamp's wall-clock time in us since 1970-01-01 in
    its own zone, ``zone`` its zone code (the fixed UTC offset in us, or
    ``_SCHEMA_ZONE`` for a stamp in the zone ``tz``) and ``utc_us`` its
    instant in us since the Unix epoch. ``values`` holds the eight float
    fields as rows, NaN for None; each is also a column named as its
    ``CallRecord`` field (``table.lat``, ``table.reported_travel_s``, ...).

    A read-only ``Sequence[CallRecord]``: an integer index, or iterating,
    builds the records the table was made of, equal by ``repr``; a slice,
    a boolean mask or an array of positions gives a CallTable.
    """

    __slots__ = ("wall_us", "zone", "utc_us", "values", "tz")

    def __init__(self, wall_us: np.ndarray, zone: np.ndarray, utc_us: np.ndarray, values: np.ndarray, tz: ZoneInfo):
        for column in (wall_us, zone, utc_us, values):
            column.flags.writeable = False
        self.wall_us, self.zone, self.utc_us, self.values, self.tz = wall_us, zone, utc_us, values, tz

    @classmethod
    def from_records(cls, records: Sequence[CallRecord], tz: ZoneInfo) -> "CallTable":
        """The table of records whose ZoneInfo stamps are in ``tz``.
        Raises DataError for a naive stamp, naming the first one's position."""
        stamps, *fields = zip(*records) if records else [()] * 9
        zones = [t.tzinfo for t in stamps]
        if None in zones:
            raise DataError(f"call {zones.index(None)} has a naive timestamp; a CallTable needs a zone")
        codes = {z: _SCHEMA_ZONE if isinstance(z, ZoneInfo) else z.utcoffset(None) // _MICROSECOND for z in set(zones)}
        zone = np.fromiter(map(codes.__getitem__, zones), dtype=np.int64, count=len(stamps))
        since_epoch = map(sub, stamps, repeat(_UTC_EPOCH))
        utc_us = np.fromiter(map(floordiv, since_epoch, repeat(_MICROSECOND)), dtype=np.int64, count=len(stamps))
        # a fixed offset's wall time is its instant plus the offset; only a ZoneInfo stamp is read
        in_tz = zone == _SCHEMA_ZONE
        wall_us = utc_us + np.where(in_tz, 0, zone)
        wall_us[in_tz] = _wall_us([stamps[k] for k in np.flatnonzero(in_tz).tolist()])
        return cls(wall_us, zone, utc_us, np.array(fields, dtype=np.float64).reshape(8, len(stamps)), tz)

    def __len__(self) -> int:
        return len(self.wall_us)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            k = range(len(self))[index]
            return self[k:k + 1].records()[0]
        return CallTable(self.wall_us[index], self.zone[index], self.utc_us[index], self.values[:, index], self.tz)

    def __iter__(self):
        return iter(self.records())

    @property
    def utc_s(self) -> np.ndarray:
        """Each call's instant in seconds since the Unix epoch: the float
        ``CallRecord.epoch_s`` returns, since both divide the same integer
        number of us by 10**6 with one rounding."""
        return self.utc_us / 1e6

    def _stamps(self) -> list[datetime]:
        """The calls' timestamps: each is its zone's 1970 epoch plus its wall
        time, so DST-gap and fold wall times, ``timezone.utc`` against
        ``ZoneInfo('UTC')`` and fixed offsets come back as parsed."""
        epochs = {
            code: datetime(1970, 1, 1, tzinfo=self.tz if code == _SCHEMA_ZONE else timezone(code * _MICROSECOND))
            for code in set(self.zone.tolist())
        }
        return list(map(add, map(epochs.__getitem__, self.zone.tolist()), self.wall_us.astype("m8[us]").tolist()))

    def records(self) -> list[CallRecord]:
        """The calls as ``CallRecord``s, as the table was made of them."""
        # CallRecord._make without its per-row length check: each row has nine fields
        return list(map(tuple.__new__, repeat(CallRecord), zip(self._stamps(), *map(_none_for_nan, self.values))))


for _j, _name in enumerate(CallRecord._fields[1:]):
    setattr(CallTable, _name, property(lambda table, j=_j: table.values[j], doc=f"The {_name} column."))
del _j, _name


def _wall_us(stamps: Sequence[datetime]) -> np.ndarray:
    """Each stamp's wall-clock time, in us since 1970-01-01 in its own zone."""
    epochs = {z: datetime(1970, 1, 1, tzinfo=z) for z in set(map(attrgetter("tzinfo"), stamps))}
    # a stamp minus an epoch in the same zone is wall-clock time, whatever the zone's offsets
    since = map(sub, stamps, map(epochs.__getitem__, map(attrgetter("tzinfo"), stamps)))
    return np.fromiter(map(floordiv, since, repeat(_MICROSECOND)), dtype=np.int64, count=len(stamps))


def weekday_and_clock_us(wall_us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weekday (Monday 0) and us since midnight of each wall time:
    1970-01-01 was a Thursday."""
    days, clock_us = np.divmod(wall_us, _DAY_US)
    return (days + 3) % 7, clock_us


def _in_window(wall_us: np.ndarray, start: time, end: time, weekdays: Sequence[int]) -> np.ndarray:
    """Which wall times lie in [start, end) on one of the weekdays."""
    weekday, clock_us = weekday_and_clock_us(wall_us)
    start_us, end_us = (((t.hour * 60 + t.minute) * 60 + t.second) * 1_000_000 + t.microsecond for t in (start, end))
    return np.isin(weekday, list(weekdays)) & (start_us <= clock_us) & (clock_us < end_us)


def parse_calls_kept(
    path: str | Path, schema: CallSchema | None, keep_dir: str | Path
) -> tuple[CallTable, ParseReport]:
    """``parse_calls`` of a log whose parse is kept in ``keep_dir``, as a
    CallTable.

    The parse is kept in one hidden file, ``.<log file name>.parse``,
    under a key: the SHA-256 of the format version, the schema (timezone
    and column mapping) and the log's bytes. When the kept file's key
    matches, the table and report are loaded from it. Otherwise (no kept
    file, a changed log or schema, an empty, truncated or foreign file)
    the log is parsed and its parse kept, written to a temporary file and
    renamed into place. Either way the table's records are those of the
    table ``parse_calls`` returns, equal by ``repr`` (zone, signed zeros and
    None fields included), and the report is its report, its reasons in
    first-seen order. Two logs of the same file name share one kept file,
    so reading them in turn re-parses each; the kept file can be deleted at
    any time.
    """
    schema = schema or CallSchema()
    kept = _kept_path(path, keep_dir)
    key = _kept_key(path, schema)
    loaded = _load_kept(kept, key, schema)
    if loaded is None:
        table, report = parse_calls(path, schema)
        _keep(kept, key, table, report)
    else:
        table, report = loaded
    log.info("%s: %d rows, %s", Path(path).name, report.n_rows,
             "parsed" if loaded is None else "read from its kept parse")
    return table, report


def serialize_calls_kept(calls: CallTable, path: str | Path, keep_dir: str | Path) -> None:
    """``serialize_calls``, then keep the written log's parse in
    ``keep_dir`` without parsing it, for ``parse_calls_kept`` under the
    default schema.

    The kept parse is what ``parse_calls`` returns of the written bytes:
    every written stamp carries its UTC offset, so each comes back with
    that fixed offset, and the records are sorted by instant; the table's
    values pass the parser's checks again, so the report drops nothing.
    """
    serialize_calls(calls, path)
    order = np.argsort(calls.utc_us, kind="stable")
    fixed = calls.wall_us - calls.utc_us  # each stamp's UTC offset in us
    seeded = CallTable(calls.wall_us[order], fixed[order], calls.utc_us[order], calls.values[:, order], calls.tz)
    schema = CallSchema()
    _keep(_kept_path(path, keep_dir), _kept_key(path, schema), seeded, ParseReport(len(calls), len(calls), 0))


def _kept_path(path: str | Path, keep_dir: str | Path) -> Path:
    return Path(keep_dir) / f".{Path(path).name}.parse"


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


def _keep(kept: Path, key: bytes, table: CallTable, report: ParseReport) -> None:
    """Write a parse as a run of .npy arrays after its key: the report's
    counts, its reason names and counts, then the table's columns (a
    parsed field is never NaN, so NaN stands for None)."""
    arrays = (
        np.array([report.n_rows, report.n_parsed, report.n_dropped], dtype=np.int64),
        np.array(list(report.reasons), dtype=str),
        np.array(list(report.reasons.values()), dtype=np.int64),
        table.wall_us, table.zone, table.utc_us, table.values,
    )
    fd, tmp = tempfile.mkstemp(prefix=kept.name, dir=kept.parent)
    try:
        with open(fd, "wb") as f:
            f.write(key)
            for array in arrays:
                np.lib.format.write_array(f, np.ascontiguousarray(array), allow_pickle=False)
        os.replace(tmp, kept)
    except BaseException:
        os.unlink(tmp)
        raise


def _load_kept(kept: Path, key: bytes, schema: CallSchema) -> tuple[CallTable, ParseReport] | None:
    """The parse ``_keep`` wrote under ``key``, or None for a file that is
    missing, unreadable, truncated or kept under another key."""
    try:
        with open(kept, "rb") as f:
            if f.read(len(key)) != key:
                return None
            counts, names, reason_counts, wall_us, zone, utc_us, values = (
                np.lib.format.read_array(f, allow_pickle=False) for _ in range(7)
            )
    except (OSError, ValueError):
        return None
    report = ParseReport(*counts.tolist(), Counter(dict(zip(names.tolist(), reason_counts.tolist()))))
    return CallTable(wall_us, zone, utc_us, values, schema.zone()), report


def _none_for_nan(values: np.ndarray) -> list[float | None]:
    column = values.astype(object)
    column[np.isnan(values)] = None
    return column.tolist()


def serialize_calls(calls: CallTable, path: str | Path) -> None:
    """Write calls out with the default column names (ISO timestamps).

    Each row is joined here from the table's columns and streamed to the
    file: a stamp as ``isoformat`` writes it, a float as its repr and None
    as an empty field, CRLF-terminated. These are the bytes ``csv.writer``
    writes of the calls' records, since it quotes only a field holding a
    comma, a quote or a line break, and no ISO timestamp or float repr does.
    """
    with open(path, "w", newline="") as f:
        f.write(",".join(DEFAULT_COLUMNS.values()) + "\r\n")
        f.writelines(_table_rows(calls))


def _table_rows(table: CallTable) -> Iterable[str]:
    """``serialize_calls``'s rows, in chunks of whole rows."""
    offsets, which = np.unique(table.wall_us - table.utc_us, return_inverse=True)
    # an ISO UTC offset as isoformat writes it: +HH:MM, then :SS and .ffffff if not zero
    suffixes = np.array([datetime(2000, 1, 1, tzinfo=timezone(o * _MICROSECOND)).isoformat()[19:]
                         for o in offsets.tolist()])
    rows = 1 << 14
    for k in range(0, len(table), rows):
        chunk = table[k:k + rows]
        # isoformat writes the microseconds only when they are not zero
        stamps = np.datetime_as_string(chunk.wall_us.astype("M8[us]"), unit="us")
        stamps = np.where(chunk.wall_us % 1_000_000 == 0, stamps.astype("U19"), stamps)
        stamps = np.char.add(stamps, suffixes[which[k:k + rows]])
        text = "\r\n".join(map(",".join, zip(stamps.tolist(), *(map(repr, v) for v in chunk.values.tolist()))))
        # a float's repr holds "nan" only for NaN, which stands for None here
        yield text.replace("nan", "") + "\r\n"


def filter_peak(
    calls: CallTable,
    start: time = time(8, 0),
    end: time = time(20, 0),
    weekdays: Sequence[int] = (0, 1, 2, 3, 4),
) -> CallTable:
    """Keep calls whose local time lies in [start, end) on one of the weekdays.

    Monday is weekday 0. The default window is the high, consistent demand
    period of weekday daytime hours.
    """
    return calls[_in_window(calls.wall_us, start, end, weekdays)]


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
    calls: CallTable,
    grid: Grid,
    period_length_s: float = 3600.0,
    snap_cells: float = 1.0,
) -> DemandMatrix:
    """Count calls per (period, region).

    Periods tile contiguously, in absolute time, from the local midnight
    preceding the first call; each period's start is that instant, to the
    microsecond, in the first call's zone, so a start after a DST change
    carries the new offset. Calls farther than snap_cells cell-widths
    outside the grid are dropped and counted in n_dropped.
    """
    if period_length_s <= 0:
        raise ConfigError(f"period_length_s must be positive, got {period_length_s}")
    if not len(calls):
        return DemandMatrix(np.zeros((0, grid.n_cells), dtype=np.int64), period_length_s, [])
    first = calls[:1]._stamps()[0]
    anchor = first.replace(hour=0, minute=0, second=0, microsecond=0)
    anchor_s = anchor.timestamp()
    cells, inside = assign_cells(grid, calls.lat, calls.lon, snap_cells)
    periods = np.floor((calls.utc_s[inside] - anchor_s) / period_length_s)
    if np.any(periods < 0):
        raise DataError("calls must not precede the first call's midnight anchor")
    n_periods = int(periods.max()) + 1 if len(periods) else 1
    flat = periods.astype(np.int64) * grid.n_cells + cells[inside]
    counts = np.bincount(flat, minlength=n_periods * grid.n_cells).reshape(n_periods, grid.n_cells)
    # the calls are binned by absolute time, so the starts step in absolute time too
    steps_us = np.rint(np.arange(n_periods) * (period_length_s * 1e6)).astype(np.int64)
    start_us = (anchor - _UTC_EPOCH) // _MICROSECOND + steps_us
    instants = map(add, repeat(_UTC_EPOCH), start_us.astype("m8[us]").tolist())
    starts = list(map(datetime.astimezone, instants, repeat(anchor.tzinfo)))
    return DemandMatrix(counts, period_length_s, starts, n_dropped=int(len(calls) - inside.sum()))


def peak_period_mask(
    matrix: DemandMatrix,
    start: time = time(8, 0),
    end: time = time(20, 0),
    weekdays: Sequence[int] = (0, 1, 2, 3, 4),
) -> np.ndarray:
    """Boolean mask of periods whose start lies inside the peak window."""
    return _in_window(_wall_us(matrix.period_start_times), start, end, weekdays)


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
    that is not an ISO timestamp, or a count that is not an integer.

    One pass over the text checks each row's width and start; ``np.loadtxt``
    reads the counts, and only if it refuses them does ``int`` convert them
    line by line, to word the error or to read what ``int`` takes (``1_000``,
    `` 2``). Fields are split at every comma: ``save_demand_matrix`` never
    quotes one, so a quoted field is refused with its line number.
    """
    with open(path) as f:
        header, *lines = f.read().split("\n")
    if not header:
        raise DataError(f"{path}: empty demand matrix file")
    if lines and lines[-1] == "":
        lines.pop()  # the last line's break
    width = header.count(",") + 1
    starts = []
    for n, line in enumerate(lines, start=2):
        fields = line.count(",") + 1 if line else 0
        if fields != width:
            raise DataError(f"{path}: line {n}: {fields} fields, the header has {width}")
        try:
            starts.append(datetime.fromisoformat(line.partition(",")[0]))
        except ValueError as exc:
            raise DataError(f"{path}: line {n}: {exc}") from None
    if not lines:
        return DemandMatrix(np.zeros((0, width - 1), dtype=np.int64), period_length_s, [])
    try:
        with warnings.catch_warnings():
            # numpy 1.23-1.x parses an integer via a float, with a DeprecationWarning
            warnings.simplefilter("error", DeprecationWarning)
            counts = np.loadtxt(lines, dtype=np.int64, delimiter=",", comments=None,
                                usecols=range(1, width), ndmin=2)
    except (ValueError, DeprecationWarning):
        rows = []
        for n, line in enumerate(lines, start=2):
            try:
                rows.append([int(v) for v in line.split(",")[1:]])
            except ValueError as exc:
                raise DataError(f"{path}: line {n}: {exc}") from None
        counts = np.array(rows, dtype=np.int64).reshape(len(lines), width - 1)
    return DemandMatrix(counts, period_length_s, starts)


def split_train_test(
    calls: CallTable,
    fraction: float = 0.8,
    mode: str = "chronological",
    k: int = 5,
    fold_index: int = 0,
    seed: int = 0,
) -> tuple[CallTable, CallTable]:
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
        return calls[:n_train], calls[n_train:]
    if mode == "kfold":
        if k < 2 or not (0 <= fold_index < k):
            raise ConfigError(f"need k >= 2 and 0 <= fold_index < k, got k={k}, fold_index={fold_index}")
        perm = substream(seed, "folds").permutation(n)
        in_test = np.zeros(n, dtype=bool)
        in_test[np.array_split(perm, k)[fold_index]] = True
        return calls[~in_test], calls[in_test]
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
    calls: CallTable,
    grid: Grid,
    snap_cells: float = 1.0,
) -> tuple[list[tuple[float, float]], int]:
    """(grid travel s, reported travel s) pairs for calibration fitting.

    Calls missing a reported travel time or ambulance origin, or lying
    outside the snappable grid, are excluded; the count is returned.
    """
    usable, a, b = calibration_cells(calls, grid, snap_cells)
    travel = grid.travel_time_s[a, b].tolist()
    reported = calls.reported_travel_s[usable].tolist()
    return list(zip(travel, reported)), len(calls) - len(usable)


def calibration_cells(
    calls: CallTable,
    grid: Grid,
    snap_cells: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions of the calls usable for calibration, with their ambulance
    and call cells, in call order.

    A call is usable if it has a reported travel time and an ambulance
    origin (a NaN reads as missing), and both its points lie on the
    snappable grid.
    """
    amb_lat, amb_lon = calls.ambulance_lat, calls.ambulance_lon
    complete = np.flatnonzero(~(np.isnan(calls.reported_travel_s) | np.isnan(amb_lat) | np.isnan(amb_lon)))
    a, a_inside = assign_cells(grid, amb_lat[complete], amb_lon[complete], snap_cells)
    b, b_inside = assign_cells(grid, calls.lat[complete], calls.lon[complete], snap_cells)
    ok = a_inside & b_inside
    return complete[ok], a[ok], b[ok]
