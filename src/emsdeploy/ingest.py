"""Call-log ingestion: parsing, peak-hour filtering, demand-count matrices,
train/test splitting, and quantile trimming.

All transformations are pure; malformed or out-of-bounds rows are counted
and reported rather than silently discarded. A parse is a ``CallTable`` of
numpy columns, which ``save_call_table`` writes and ``load_call_table``
reads back, so a pipeline parses its log once. No stage writes a call log:
the train/test split is derived in memory (``split_train_test``) wherever
it is needed. Every rule on calls takes a ``CallTable`` and reads its
columns, and refuses anything else with a DataError (``check_table``).
"""

from __future__ import annotations

import csv
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, time, timedelta, timezone
from itertools import chain, compress, islice, repeat
from operator import add, attrgetter, floordiv, is_not, sub
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence
from zoneinfo import ZoneInfo

import numpy as np

from .errors import ConfigError, DataError, open_input, write_csv
from .geogrid import Grid, assign_cells
from .rng import substream

# the call-log CSV columns in CallRecord order: the three mandatory ones (a
# stamp and the call's position), then the six optional float fields
COLUMNS = (
    "datetime", "latitude", "longitude", "response_time_s", "travel_time_s",
    "amb_latitude", "amb_longitude", "on_scene_s", "to_hospital_s",
)


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


def parse_calls(path: str | Path, timezone: str = "UTC") -> tuple[CallTable, ParseReport]:
    """Parse a call-log CSV into a CallTable in order of instant (a stable
    sort of the UTC us). The log is read as UTF-8: a file that is missing, or
    not UTF-8, is a DataError naming it.

    The header names its columns from ``COLUMNS``. Naive timestamps are
    interpreted in the zone ``timezone`` names (earlier offset on DST
    transitions). Blank lines are skipped and not counted; a field past the
    end of a short row reads as missing; a column name the header repeats
    reads its last column. Malformed rows are dropped and
    counted in the report with a reason: ``bad_timestamp``,
    ``bad_coordinates`` (missing or non-finite), or ``bad_optional_field``
    (a negative or non-finite duration, a non-finite ambulance position,
    or a non-number); a row takes the first reason in that order, and the
    reasons come in the order first seen.

    The lines are read ``_CHUNK_ROWS`` at a time (``_line_chunks``). A chunk
    with no quote is split at its commas, in one split of the whole chunk
    when every line is a full row; from the first chunk with a quote on, the
    rows are ``csv.reader``'s, and a field ``csv`` refuses is a DataError
    naming the line. Each chunk goes straight into columns: one
    ``datetime.fromisoformat`` and one ``float`` map per column, and a
    validity mask per check. Two stamps compare by instant,
    also in ``timezone``, where ``datetime`` compares wall times: a
    naive stamp in a DST gap (read at its earlier offset) sorts after a
    later wall time that is the earlier instant.
    """
    zone = ZoneInfo(timezone)
    report = ParseReport()
    # each chunk's wall us, zone code, UTC us and floats, after those of no rows
    chunks = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros((8, 0)))]
    with open_input(path, "call log") as f:
        pieces = _line_chunks(f, path)
        lines, rows = next(pieces, ([""], None))  # the header's line, or row
        header = rows[0] if lines is None else _split_line(lines[0])
        missing = [name for name in COLUMNS[:3] if name not in header]
        if missing:
            raise DataError(f"{path}: missing mandatory columns: {', '.join(missing)}")
        width = len(header)
        position = {name: i for i, name in enumerate(header)}  # the last of a repeated name
        picks = [position.get(name) for name in COLUMNS]  # None for a column the header lacks
        for lines, rows in pieces:
            if lines is not None and set(map(str.count, lines, repeat(","))) == {width - 1}:
                # every line is a full row: one split of the chunk, and column k is every width-th field
                flat = ",".join(lines).split(",")
                columns = {k: flat[k::width] for k in set(picks) - {None}}
            else:
                if lines is not None:
                    rows = list(map(_split_line, lines))
                if set(map(len, rows)) != {width}:
                    # blank lines go; every other row is cut or padded with blank fields to the header's width
                    rows = [row[:width] + [""] * (width - len(row)) for row in rows if row]
                    if not rows:
                        continue
                columns = list(zip(*rows))
            chunks.append(_parse_chunk([None if k is None else columns[k] for k in picks], zone, report))
    wall_us, code, utc_us, values = (np.concatenate(c, axis=-1) for c in zip(*chunks))
    report.n_parsed = len(utc_us)
    report.n_dropped = report.n_rows - report.n_parsed
    if np.any(utc_us[1:] < utc_us[:-1]):
        order = np.argsort(utc_us, kind="stable")
        wall_us, code, utc_us, values = wall_us[order], code[order], utc_us[order], values[:, order]
    return CallTable(wall_us, code, utc_us, values, zone), report


_DURATIONS = np.array([True, True, False, False, True, True])  # of the six optional fields
_REASONS = ("bad_timestamp", "bad_coordinates", "bad_optional_field")
_CHUNK_ROWS = 1 << 10  # rows read and turned into columns at a time


def _line_chunks(f, path: str | Path) -> Iterator[tuple[list[str] | None, list[list[str]] | None]]:
    """The log's lines as (lines, None), the header's line alone first and
    then ``_CHUNK_ROWS`` at a time, each without its line end, while a chunk
    is plain: no quote, no NUL and no line longer than the csv field limit,
    so that ``csv.reader`` would split each line at its commas. The first
    chunk that is not plain, and the rest of the file, go to ``csv.reader``
    and come as (None, rows), so a quoted field may span lines. A
    ``csv.Error`` is a DataError naming the file and line."""
    limit = csv.field_size_limit()
    size, read = 1, 0
    while lines := list(islice(f, size)):
        text = "".join(lines)
        if '"' in text or "\0" in text or max(map(len, lines)) > limit:
            break
        read += len(lines)
        yield list(map(str.rstrip, lines, repeat("\r\n"))), None
        size = _CHUNK_ROWS
    else:
        return
    reader = csv.reader(chain(lines, f))
    try:
        while rows := list(islice(reader, size)):
            yield None, rows
            size = _CHUNK_ROWS
    except csv.Error as exc:
        raise DataError(f"{path}: line {read + reader.line_num}: {exc}") from None


def _split_line(line: str) -> list[str]:
    """The fields ``csv.reader`` reads of a plain line without its end: none
    for a blank line."""
    return line.split(",") if line else []


def _parse_chunk(fields: list, zone: ZoneInfo, report: ParseReport) -> tuple[np.ndarray, ...]:
    """One chunk's kept rows as table columns (wall us, zone code, UTC us
    and the eight floats), from its nine fields: each a sequence of texts
    (blank past the end of a short row), or None for a column the header
    lacks.
    Counts the rows, and each dropped row's first reason, in ``report``."""
    raw_ts, *numbers = fields
    n = len(raw_ts)
    report.n_rows += n
    stamps = _iso_stamps_of(raw_ts)
    values = np.full((8, n), math.nan)
    values[0], values[1] = _floats(numbers[0]), _floats(numbers[1])
    present = np.zeros((6, n), dtype=bool)
    for j, texts in enumerate(numbers[2:]):
        if texts is not None:
            values[j + 2], present[j] = _optional_floats(texts)
    optional = values[2:]
    with np.errstate(invalid="ignore"):  # a NaN, which a field that is not a number reads as, fails
        fits = np.where(_DURATIONS[:, None], (0.0 <= optional) & (optional < math.inf), np.isfinite(optional))
    checks = (
        np.fromiter(map(is_not, stamps, repeat(None)), dtype=bool, count=n) if None in stamps else np.ones(n, bool),
        np.isfinite(values[0]) & np.isfinite(values[1]),
        (fits | ~present).all(axis=0),
    )
    keep = np.logical_and.reduce(checks)
    if not keep.all():
        # each dropped row's reason is its first failed check
        reason = np.argmin(np.array(checks)[:, ~keep], axis=0)
        found, first, count = np.unique(reason, return_index=True, return_counts=True)
        for k in np.argsort(first).tolist():
            report.reasons[_REASONS[found[k]]] += int(count[k])
        stamps = list(compress(stamps, keep))
    wall_us, code, utc_us = _stamp_columns(stamps, zone)
    return wall_us, code, utc_us, values[:, keep]


def _iso_stamps_of(texts: Sequence[str]) -> list[datetime | None]:
    """``datetime.fromisoformat`` of each stripped text, None where it
    refuses the text."""
    try:
        return list(map(datetime.fromisoformat, map(str.strip, texts)))
    except ValueError:
        return list(map(_iso_stamp_of, texts))


def _iso_stamp_of(text: str) -> datetime | None:
    try:
        return datetime.fromisoformat(text.strip())
    except ValueError:
        return None


def _floats(texts: Iterable[str]) -> np.ndarray:
    """``float`` of each text, NaN where ``float`` refuses it."""
    texts = list(texts)
    try:
        return np.array(list(map(float, texts)), dtype=np.float64)
    except ValueError:
        return np.array(list(map(_float_or_nan, texts)), dtype=np.float64)


def _optional_floats(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """``_floats`` of the fields that are not blank, and which those are: a
    blank field reads as None, NaN here."""
    n = len(texts)
    try:  # float refuses every blank text, so a column it maps has none
        return np.array(list(map(float, texts)), dtype=np.float64), np.ones(n, dtype=bool)
    except ValueError:
        if texts.count("") == n:
            return np.full(n, math.nan), np.zeros(n, dtype=bool)
    present = np.fromiter(map(bool, map(str.strip, texts)), dtype=bool, count=n)
    values = np.full(n, math.nan)
    values[present] = _floats(compress(texts, present))
    return values, present


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _stamp_columns(stamps: list[datetime], zone: ZoneInfo) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Wall us, zone code and UTC us of parsed stamps: a naive stamp is in
    ``zone`` (the earlier offset in a DST gap or fold), an aware one in its
    fixed offset."""
    wall_us = _wall_us(stamps)
    tzs = list(map(attrgetter("tzinfo"), stamps))
    codes = {tz: _SCHEMA_ZONE if tz is None else tz.utcoffset(None) // _MICROSECOND for tz in set(tzs)}
    code = np.fromiter(map(codes.__getitem__, tzs), dtype=np.int64, count=len(stamps))
    naive = code == _SCHEMA_ZONE
    utc_us = wall_us - np.where(naive, 0, code)
    if naive.any():
        # a naive stamp's fold is 0, so the zone reads its offset as a replace(tzinfo=zone) would
        at = np.flatnonzero(naive).tolist()
        offsets = map(zone.utcoffset, [stamps[k] for k in at])
        utc_us[at] -= np.fromiter(map(floordiv, offsets, repeat(_MICROSECOND)), dtype=np.int64, count=len(at))
    return wall_us, code, utc_us


_SCHEMA_ZONE = np.iinfo(np.int64).min  # the zone code of a stamp in the parse's zone
_NAIVE = np.iinfo(np.int64).min  # the UTC offset code of a naive period start
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
    builds each call's record, its stamp in its own zone and None for NaN;
    a slice, a boolean mask or an array of positions gives a CallTable. No
    rule of the package builds a record: a parse, ``synth.synth_calls`` and
    ``load_call_table`` fill the columns directly.
    """

    __slots__ = ("wall_us", "zone", "utc_us", "values", "tz")

    def __init__(self, wall_us: np.ndarray, zone: np.ndarray, utc_us: np.ndarray, values: np.ndarray, tz: ZoneInfo):
        for column in (wall_us, zone, utc_us, values):
            column.flags.writeable = False
        self.wall_us, self.zone, self.utc_us, self.values, self.tz = wall_us, zone, utc_us, values, tz

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


def check_table(calls) -> CallTable:
    """``calls``, when it is a CallTable; every rule on calls refuses
    anything else with a DataError."""
    if not isinstance(calls, CallTable):
        raise DataError(f"calls must be a CallTable, got {type(calls).__name__}")
    return calls


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


def save_call_table(calls: CallTable, path: str | Path) -> None:
    """Write a table as a run of .npy arrays: its zone name, then its
    columns ``wall_us``, ``zone``, ``utc_us`` and ``values`` (a parsed field
    is never NaN, so NaN stands for None). No array records when it was
    written, so a table writes the same bytes each time."""
    with open(path, "wb") as f:
        for array in (np.array([check_table(calls).tz.key]), calls.wall_us, calls.zone, calls.utc_us, calls.values):
            np.lib.format.write_array(f, np.ascontiguousarray(array), allow_pickle=False)


def load_call_table(path: str | Path) -> CallTable:
    """Read ``save_call_table``'s file. A file that cannot be read, is
    empty or truncated, or holds anything but a call table's arrays is a
    DataError naming it."""
    try:
        with open(path, "rb") as f:
            name, wall_us, zone, utc_us, values = (np.lib.format.read_array(f, allow_pickle=False) for _ in range(5))
            if f.read(1):
                raise ValueError("bytes follow the last array")
        n = wall_us.size
        columns = all(c.dtype == np.int64 and c.shape == (n,) for c in (wall_us, zone, utc_us))
        if not (columns and name.dtype.kind == "U" and name.shape == (1,) and values.dtype == np.float64
                and values.shape == (8, n)):
            raise ValueError("the arrays are not a zone name and a call table's columns")
        return CallTable(wall_us, zone, utc_us, values, ZoneInfo(str(name[0])))
    except (OSError, ValueError, KeyError) as exc:  # an unknown zone name is a KeyError
        raise DataError(f"{path}: not a call table ({type(exc).__name__}: {exc})") from None


def _none_for_nan(values: np.ndarray) -> list[float | None]:
    column = values.astype(object)
    column[np.isnan(values)] = None
    return column.tolist()


def serialize_calls(calls: CallTable, path: str | Path) -> None:
    """Write calls out under the ``COLUMNS`` header (ISO timestamps).

    Each row is joined here from the table's columns and streamed to the
    file: a stamp as ``isoformat`` writes it, a float as its repr and None
    as an empty field, CRLF-terminated. These are the bytes ``csv.writer``
    writes of the calls' records, since it quotes only a field holding a
    comma, a quote or a line break, and no ISO timestamp or float repr does.
    """
    rows = _table_rows(check_table(calls))
    with open(path, "w", newline="") as f:
        f.write(",".join(COLUMNS) + "\r\n")
        f.writelines(rows)


def _table_rows(table: CallTable) -> Iterable[str]:
    """``serialize_calls``'s rows, in chunks of whole rows."""
    suffixes, which = _iso_suffixes(table.wall_us - table.utc_us)
    rows = 1 << 14
    for k in range(0, len(table), rows):
        chunk = table[k:k + rows]
        stamps = _iso_text(chunk.wall_us, suffixes, which[k:k + rows]).tolist()
        text = "\r\n".join(map(",".join, zip(stamps, *(map(repr, v) for v in chunk.values.tolist()))))
        del stamps  # freed before the next chunk's are built, which keeps the peak memory down
        # a float's repr holds "nan" only for NaN, which stands for None here
        yield text.replace("nan", "") + "\r\n"


def _iso_suffixes(offset_us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct UTC offsets (in us, ``_NAIVE`` for a naive stamp) as
    ``isoformat`` ends a stamp, +HH:MM with :SS and .ffffff if not zero or
    nothing for a naive stamp, and which of them each offset is."""
    offsets, which = np.unique(offset_us, return_inverse=True)
    suffixes = np.array([
        "" if o == _NAIVE else datetime(2000, 1, 1, tzinfo=timezone(o * _MICROSECOND)).isoformat()[19:]
        for o in offsets.tolist()
    ], dtype=str)
    return suffixes, which


def _iso_text(wall_us: np.ndarray, suffixes: np.ndarray, which: np.ndarray) -> np.ndarray:
    """Each wall time (us since 1970-01-01) as ``isoformat`` writes it, its
    microseconds only when they are not zero, then the suffix of its offset
    (``_iso_suffixes``)."""
    stamps = np.datetime_as_string(wall_us.astype("M8[us]"), unit="us")
    stamps = np.where(wall_us % 1_000_000 == 0, stamps.astype("U19"), stamps)
    return np.char.add(stamps, suffixes[which])


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
    return calls[_in_window(check_table(calls).wall_us, start, end, weekdays)]


@dataclass
class DemandMatrix:
    """Per-period, per-region call counts. Rows tile the data span contiguously.

    The period starts are int64 columns: ``start_wall_us``, each start's
    wall-clock time in us since 1970-01-01, and ``start_offset_us``, its
    UTC offset in us (``_NAIVE`` for a naive start), so its instant is the
    one less the other.
    """

    counts: np.ndarray
    start_wall_us: np.ndarray
    start_offset_us: np.ndarray
    n_dropped: int = 0

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.ndim != 2:
            raise DataError(f"counts must be 2-D, got shape {c.shape}")
        if np.any(c < 0):
            raise DataError("counts must be nonnegative")
        self.start_wall_us = np.asarray(self.start_wall_us, dtype=np.int64)
        self.start_offset_us = np.asarray(self.start_offset_us, dtype=np.int64)
        if not len(self.start_wall_us) == len(self.start_offset_us) == c.shape[0]:
            raise DataError("period start columns must match the row count")
        self.counts = c

    @property
    def n_periods(self) -> int:
        return self.counts.shape[0]

    @property
    def n_regions(self) -> int:
        return self.counts.shape[1]


# the largest demand matrix: a million periods (114 years of hours), and
# 800 MB of int64 counts (ten years of hours over 1000 regions)
MAX_PERIODS = 10**6
MAX_DEMAND_COUNTS = 10**8


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
    if not len(check_table(calls)):
        return DemandMatrix(np.zeros((0, grid.n_cells), dtype=np.int64), [], [])
    first = calls[:1]._stamps()[0]
    anchor = first.replace(hour=0, minute=0, second=0, microsecond=0)
    anchor_s = anchor.timestamp()
    cells, inside = assign_cells(grid, calls.lat, calls.lon, snap_cells)
    # a period short enough to overflow the float count is refused below
    with np.errstate(over="ignore"):
        periods = np.floor((calls.utc_s[inside] - anchor_s) / period_length_s)
    if np.any(periods < 0):
        raise DataError("calls must not precede the first call's midnight anchor")
    n_periods = periods.max() + 1 if len(periods) else 1
    if n_periods > MAX_PERIODS or n_periods * grid.n_cells > MAX_DEMAND_COUNTS:
        raise ConfigError(
            f"period_length_s={period_length_s} cuts the calls' span into {n_periods:.3g} periods of "
            f"{grid.n_cells} regions, more than the limits of {MAX_PERIODS} periods and "
            f"{MAX_DEMAND_COUNTS} demand counts"
        )
    n_periods = int(n_periods)
    flat = periods.astype(np.int64) * grid.n_cells + cells[inside]
    counts = np.bincount(flat, minlength=n_periods * grid.n_cells).reshape(n_periods, grid.n_cells)
    # the calls are binned by absolute time, so the starts step in absolute time too
    steps_us = np.rint(np.arange(n_periods) * (period_length_s * 1e6)).astype(np.int64)
    start_us = (anchor - _UTC_EPOCH) // _MICROSECOND + steps_us
    zone = anchor.tzinfo
    if isinstance(zone, ZoneInfo):  # each start's offset is the zone's at that instant
        instants = map(add, repeat(_UTC_EPOCH), start_us.astype("m8[us]").tolist())
        wall_us = _wall_us(list(map(datetime.astimezone, instants, repeat(zone))))
    else:
        wall_us = start_us + zone.utcoffset(None) // _MICROSECOND
    return DemandMatrix(counts, wall_us, wall_us - start_us, int(len(calls) - inside.sum()))


def peak_period_mask(
    matrix: DemandMatrix,
    start: time = time(8, 0),
    end: time = time(20, 0),
    weekdays: Sequence[int] = (0, 1, 2, 3, 4),
) -> np.ndarray:
    """Boolean mask of periods whose start lies inside the peak window."""
    return _in_window(matrix.start_wall_us, start, end, weekdays)


def select_periods(matrix: DemandMatrix, mask: np.ndarray) -> DemandMatrix:
    keep = np.asarray(mask, dtype=bool)
    return DemandMatrix(matrix.counts[keep], matrix.start_wall_us[keep], matrix.start_offset_us[keep], matrix.n_dropped)


def save_demand_matrix(matrix: DemandMatrix, path: str | Path) -> None:
    """CSV export through ``write_csv``: one row per period, first column
    the ISO period start, then the period's count in each region. Each
    count is looked up in one table of digit strings: every count up to the
    largest, or the distinct counts when that is shorter.
    """
    counts = matrix.counts
    top = int(counts.max()) if counts.size else 0
    if top <= counts.size:
        table, index = np.arange(top + 1), counts
    else:
        table, index = np.unique(counts, return_inverse=True)
    digits = np.array(list(map(str, table.tolist())), dtype=str)[index.reshape(counts.shape)]
    stamps = _iso_text(matrix.start_wall_us, *_iso_suffixes(matrix.start_offset_us))
    write_csv(path, ["period_start"] + [f"region_{j}" for j in range(matrix.n_regions)], [stamps, *digits.T])


def load_demand_matrix(path: str | Path) -> DemandMatrix:
    """Read ``save_demand_matrix``'s CSV. Raises DataError with the line
    number for a row whose width differs from the header's, a period start
    that is not an ISO timestamp, or a count that is not an integer. The
    pipeline's stages do not call it: they build the matrix again from the
    calls. It reads the file back for users and for perfbench's output check.

    One pass over the text checks each row's width and start, and codes the
    start's wall time and UTC offset as it reads it; ``np.loadtxt``
    reads the counts, and only if it refuses them does ``int`` convert them
    line by line, to word the error or to read what ``int`` takes (``1_000``,
    `` 2``). Fields are split at every comma: ``save_demand_matrix`` never
    quotes one, so a quoted field is refused with its line number. A file
    that is missing or not UTF-8 is a DataError naming it (``open_input``).
    """
    with open_input(path, "demand matrix", newline=None) as f:
        header, *lines = f.read().split("\n")
    if not header:
        raise DataError(f"{path}: empty demand matrix file")
    if lines and lines[-1] == "":
        lines.pop()  # the last line's break
    width = header.count(",") + 1
    wall_us, offset_us = [], []
    zone = epoch = offset = None  # the zone of the last start, its 1970 epoch and its offset code
    for n, line in enumerate(lines, start=2):
        fields = line.count(",") + 1 if line else 0
        if fields != width:
            raise DataError(f"{path}: line {n}: {fields} fields, the header has {width}")
        try:
            start = datetime.fromisoformat(line.partition(",")[0])
        except ValueError as exc:
            raise DataError(f"{path}: line {n}: {exc}") from None
        # a fixed offset (or none), so a start less its zone's epoch is its wall time
        if epoch is None or start.tzinfo != zone:
            zone = start.tzinfo
            epoch = datetime(1970, 1, 1, tzinfo=zone)
            offset = _NAIVE if zone is None else zone.utcoffset(None) // _MICROSECOND
        wall_us.append((start - epoch) // _MICROSECOND)
        offset_us.append(offset)
    if not lines:
        return DemandMatrix(np.zeros((0, width - 1), dtype=np.int64), [], [])
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
    return DemandMatrix(counts, wall_us, offset_us)


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
    n = len(check_table(calls))
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
        # the test fold is np.array_split(perm, k)[fold_index], found without
        # building the k folds: the first n % k folds hold one call more
        size, extra = divmod(n, k)
        start = fold_index * size + min(fold_index, extra)
        in_test = np.zeros(n, dtype=bool)
        in_test[perm[start:start + size + (fold_index < extra)]] = True
        return calls[~in_test], calls[in_test]
    raise ConfigError(f"unknown split mode: {mode!r}")


def trim_quantiles(reported_s: np.ndarray, p: float) -> np.ndarray:
    """Keep mask of the reported times outside the bottom and top p tails.

    Cut points are the nearest-rank order statistics: with n values the
    lowest ceil(p*n) and highest ceil(p*n) fall outside the retained range,
    and every value inside it, ties at a cut point included, is kept.
    """
    if not (0 <= p < 0.5):
        raise ConfigError(f"trim fraction must be in [0, 0.5), got {p}")
    reported_s = np.asarray(reported_s, dtype=np.float64)
    n = len(reported_s)
    if n == 0 or p == 0:
        return np.ones(n, dtype=bool)
    k = math.ceil(p * n)
    if k > n - 1 - k:
        return np.zeros(n, dtype=bool)
    ordered = np.sort(reported_s)
    return (ordered[k] <= reported_s) & (reported_s <= ordered[n - 1 - k])


def calibration_pairs(
    calls: CallTable,
    grid: Grid,
    snap_cells: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The calls usable for calibration, in call order: their positions,
    and two float64 columns, each call's grid travel seconds from its
    ambulance's cell to its own cell and its reported travel seconds.

    A call is usable if it has a reported travel time and an ambulance
    origin (a NaN reads as missing), and both its points lie on the
    snappable grid.
    """
    check_table(calls)
    amb_lat, amb_lon = calls.ambulance_lat, calls.ambulance_lon
    complete = np.flatnonzero(~(np.isnan(calls.reported_travel_s) | np.isnan(amb_lat) | np.isnan(amb_lon)))
    a, a_inside = assign_cells(grid, amb_lat[complete], amb_lon[complete], snap_cells)
    b, b_inside = assign_cells(grid, calls.lat[complete], calls.lon[complete], snap_cells)
    ok = a_inside & b_inside
    usable = complete[ok]
    return usable, grid.travel_time_s[a[ok], b[ok]], calls.reported_travel_s[usable]
