import csv
import io
import math
import re
import tempfile
from datetime import datetime, timedelta, timezone
from datetime import time as datetime_time
from pathlib import Path
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emsdeploy import analysis, calibrate, ingest, simcore
from emsdeploy.errors import ConfigError, DataError
from emsdeploy.geogrid import SyntheticSpeedProvider, build_grid
from emsdeploy.ingest import (
    CallRecord,
    CallTable,
    DemandMatrix,
    build_demand_matrix,
    calibration_pairs,
    filter_peak,
    load_call_table,
    load_demand_matrix,
    parse_calls,
    peak_period_mask,
    save_call_table,
    save_demand_matrix,
    select_periods,
    serialize_calls,
    split_train_test,
    trim_quantiles,
)
from emsdeploy.rng import substream
from oracles import (
    reference_parse_calls,
    reference_serialize_calls,
    reference_trim_quantiles,
    start_columns,
    start_times,
    table_from_records,
)

UTC = timezone.utc


def rec(ts, lat=30.1, lon=-97.6, **kw):
    return CallRecord(timestamp=ts, lat=lat, lon=lon, **kw)


def table(records, tz="UTC"):
    """The CallTable of hand-built records whose ZoneInfo stamps are in ``tz``."""
    return table_from_records(records, ZoneInfo(tz))


def make_grid():
    return build_grid((30.0, 30.2, -97.7, -97.5), 2, 2, SyntheticSpeedProvider(50.0))


# each public rule that takes calls, called on ``calls`` with a one-station grid and a file path
RULES_ON_CALLS = {
    "filter_peak": lambda calls, grid, path: filter_peak(calls),
    "split_train_test": lambda calls, grid, path: split_train_test(calls),
    "build_demand_matrix": lambda calls, grid, path: build_demand_matrix(calls, grid),
    "calibration_pairs": lambda calls, grid, path: calibration_pairs(calls, grid),
    "serialize_calls": lambda calls, grid, path: serialize_calls(calls, path),
    "calibrate.verify": lambda calls, grid, path: calibrate.verify(calls, grid, calibrate.identity_model(), 1, 1),
    "analysis.assemble_tracts": lambda calls, grid, path: analysis.assemble_tracts(calls, grid, {0: "T0"}, {}),
    "simcore.simulate": lambda calls, grid, path: simcore.simulate([1], calls, grid),
    "simcore.compare_policies": lambda calls, grid, path: simcore.compare_policies(
        [("a", [1])], calls, grid, n_calls=1, n_batches=2),
    "resampled batches": lambda calls, grid, path: simcore.compare_policies(
        [("a", [1])], calls, grid, n_calls=1, n_batches=2, sample_with_replacement=True),
}


@pytest.mark.parametrize("rule", RULES_ON_CALLS)
def test_every_rule_on_calls_refuses_anything_but_a_call_table(rule, tmp_path):
    grid = build_grid((30.0, 30.2, -97.7, -97.5), 2, 2, SyntheticSpeedProvider(50.0), station_cells=[0])
    records = [rec(datetime(2024, 1, 1, h, tzinfo=UTC), 30.05, -97.65, reported_travel_s=60.0,
                   ambulance_lat=30.05, ambulance_lon=-97.65) for h in (9, 10)]
    path = tmp_path / "calls.csv"
    with pytest.raises(DataError, match="calls must be a CallTable, got list"):
        RULES_ON_CALLS[rule](records, grid, path)
    assert not path.exists()


def test_parse_empty_file(tmp_path):
    path = tmp_path / "calls.csv"
    path.write_text("datetime,latitude,longitude\n")
    records, report = parse_calls(path)
    assert list(records) == []
    assert report.n_dropped == 0


def test_parse_missing_columns(tmp_path):
    path = tmp_path / "calls.csv"
    path.write_text("when,latitude\n")
    with pytest.raises(DataError, match="datetime") as err:
        parse_calls(path)
    assert "longitude" in str(err.value)


def test_parse_bad_timestamp_counted(tmp_path):
    path = tmp_path / "calls.csv"
    path.write_text(
        "datetime,latitude,longitude\n"
        "2024-01-01T09:00:00,30.1,-97.6\n"
        "not-a-time,30.1,-97.6\n"
    )
    records, report = parse_calls(path)
    assert len(records) == 1
    assert report.n_dropped == 1
    assert report.reasons["bad_timestamp"] == 1


def test_parse_sorts_by_timestamp(tmp_path):
    path = tmp_path / "calls.csv"
    path.write_text(
        "datetime,latitude,longitude\n"
        "2024-01-03T09:00:00,30.1,-97.6\n"
        "2024-01-01T09:00:00,30.1,-97.6\n"
        "2024-01-02T09:00:00,30.1,-97.6\n"
    )
    records, _ = parse_calls(path)
    stamps = [r.timestamp for r in records]
    assert stamps == sorted(stamps)


def test_parse_naive_timestamps_get_schema_zone(tmp_path):
    path = tmp_path / "calls.csv"
    path.write_text("datetime,latitude,longitude\n2024-01-01T09:00:00,30.1,-97.6\n")
    records, _ = parse_calls(path, "America/Chicago")
    assert records[0].timestamp.utcoffset() == timedelta(hours=-6)


def test_parse_drops_non_finite_ambulance_degrees(tmp_path):
    path = tmp_path / "calls.csv"
    path.write_text(
        "datetime,latitude,longitude,travel_time_s,amb_latitude,amb_longitude\n"
        "2024-01-01T09:00:00,30.1,-97.6,120,30.12,-97.61\n"
        "2024-01-01T10:00:00,30.1,-97.6,120,nan,-97.61\n"
        "2024-01-01T11:00:00,30.1,-97.6,120,30.12,-inf\n"
        "2024-01-01T12:00:00,30.1,-97.6,120,,\n"
    )
    records, report = parse_calls(path)
    assert [r.timestamp.hour for r in records] == [9, 12]
    assert records[1].ambulance_lat is None
    assert report.n_dropped == 2 and report.reasons["bad_optional_field"] == 2


def test_parse_short_long_and_duplicated_columns(tmp_path):
    path = tmp_path / "calls.csv"
    path.write_text(
        "latitude,datetime,longitude,travel_time_s,latitude\n"
        "\n"
        "1.0,2024-01-01T09:00:00,-97.6,60,30.1,extra\n"
        "1.0,2024-01-01T10:00:00,-97.6\n"
    )
    records, report = parse_calls(path)
    # the repeated latitude reads its last column, absent in the short row
    assert [(r.lat, r.reported_travel_s) for r in records] == [(30.1, 60.0)]
    assert report.n_rows == 2 and report.reasons["bad_coordinates"] == 1


HEADER_NAMES = list(ingest.COLUMNS)
TIMESTAMPS = [
    "2024-03-10T02:30:00", "2024-03-10T03:10:00", "2024-11-03T01:30:00", "2024-01-01T09:00:00+00:00",
    " 2024-01-01T09:00:00-05:00 ", "2024-01-01 09:00", "not-a-time", "", "2024-13-01T00:00:00",
]
NUMBERS = ["30.1", " -97.6 ", "0", "-0.0", "1e3", "12.5", "-5", "", "  ", "nan", "inf", "-inf", "abc", "1_000"]


@st.composite
def call_logs(draw, max_rows=12, max_blank_run=1):
    """A call-log CSV text with reordered, missing, duplicated and unknown
    columns, runs of blank lines, short and long rows, and field values
    that parse, pad, go blank, go negative or non-finite, or fail."""
    names = draw(st.lists(st.sampled_from(HEADER_NAMES + ["unit_id", " latitude"]), max_size=12))
    if draw(st.integers(0, 3)):  # usually every mandatory column is there
        names += ["datetime", "latitude", "longitude"]
    names = draw(st.permutations(names))
    field = st.one_of(st.sampled_from(TIMESTAMPS), st.sampled_from(NUMBERS))
    # mostly values that parse, so that most rows come through
    degrees = st.one_of(st.sampled_from(["30.1", "-97.6"]), st.sampled_from(NUMBERS))
    seconds = st.one_of(st.sampled_from(["12.5", ""]), st.sampled_from(NUMBERS))
    lines = [",".join(names)]
    for _ in range(draw(st.integers(0, max_rows))):
        if draw(st.integers(0, 9)) == 0:
            lines.extend([""] * draw(st.integers(1, max_blank_run)))
            continue
        width = len(names) + draw(st.sampled_from([0, 0, 0, -1, -2, 1]))
        row = []
        for name in names[:max(width, 0)]:
            if name == "datetime":
                row.append(draw(st.sampled_from(TIMESTAMPS)))
            elif name in ("latitude", "longitude", "amb_latitude", "amb_longitude"):
                row.append(draw(degrees))
            elif name in HEADER_NAMES:
                row.append(draw(seconds))
            else:
                row.append(draw(field))
        row += [draw(field) for _ in range(width - len(names))]
        lines.append(",".join(row))
    tz = draw(st.sampled_from(["UTC", "America/Chicago"]))
    return "\n".join(lines) + "\n", tz


@settings(max_examples=400, deadline=None)
@given(call_logs())
def test_parse_calls_matches_reference(case):
    text, tz = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "calls.csv"
        path.write_text(text)
        try:
            expected = reference_parse_calls(path, tz)
        except DataError as exc:
            with pytest.raises(DataError) as err:
                parse_calls(path, tz)
            assert str(err.value) == str(exc)
            return
        records, report = parse_calls(path, tz)
    want_records, want = expected
    # repr tells apart equal instants in different zones or folds, and 0.0 from -0.0
    assert [repr(r) for r in records] == [repr(r) for r in want_records]
    assert (report.n_rows, report.n_parsed, report.n_dropped) == (want.n_rows, want.n_parsed, want.n_dropped)
    assert list(report.reasons.items()) == list(want.reasons.items())


def _same_parse(got, want):
    # repr tells apart equal instants in different zones or folds, 0.0 from -0.0
    # and None from a number; the reasons must come in first-seen order
    (records, report), (want_records, want_report) = got, want
    assert [repr(r) for r in records] == [repr(r) for r in want_records]
    assert report == want_report
    assert list(report.reasons.items()) == list(want_report.reasons.items())


def _saved_and_loaded(table, tmp):
    """``table`` kept as ``save_call_table`` writes it and read back by
    ``load_call_table``; saving the loaded table writes the same bytes."""
    path = Path(tmp) / "calls_table.bin"
    save_call_table(table, path)
    saved = path.read_bytes()
    loaded = load_call_table(path)
    save_call_table(loaded, path)
    assert path.read_bytes() == saved
    return loaded


@settings(max_examples=300, deadline=None)
@given(call_logs())
def test_kept_parse_is_parse_calls(case):
    # a parse saved and loaded again is the parse
    text, tz = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "calls.csv"
        path.write_text(text)
        try:
            want = parse_calls(path, tz)
        except DataError:
            return
        _same_parse((_saved_and_loaded(want[0], tmp), want[1]), want)


@settings(max_examples=300, deadline=None)
@given(call_logs(max_rows=40, max_blank_run=6), st.integers(1, 5))
def test_chunked_parse_is_the_reference_parse(case, chunk_rows):
    # logs several chunks long, so that blank-only chunks, short and long
    # rows and every drop reason fall on chunk boundaries
    text, tz = case
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_CHUNK_ROWS", chunk_rows)
        path = Path(tmp) / "calls.csv"
        path.write_text(text)
        try:
            want = reference_parse_calls(path, tz)
        except DataError:
            return
        calls, report = parse_calls(path, tz)
        _same_parse((calls, report), want)
        _same_parse((_saved_and_loaded(calls, tmp), report), want)


def test_chunks_of_blank_lines_and_reasons_across_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "_CHUNK_ROWS", 2)
    path = tmp_path / "calls.csv"
    path.write_text(
        "datetime,latitude,longitude,travel_time_s\n"
        "\n\n"  # a chunk of blank lines only
        "2024-01-01T12:00:00,30.1,-97.6,5,extra\n"
        "2024-01-01T11:00:00,30.1,-97.6,-5\n"  # bad_optional_field
        "\n\n\n"
        "2024-01-01T10:00:00,30.1\n"  # short: bad_coordinates
        "2024-01-01T09:00:00,30.1,-97.6\n"
        "not-a-time,30.1,-97.6,5\n"  # bad_timestamp
        "2024-01-01T08:00:00,30.1,-97.6,,\n"
        "\n\n"
    )
    calls, report = parse_calls(path)
    assert [r.timestamp.hour for r in calls] == [8, 9, 12]
    assert (report.n_rows, report.n_parsed, report.n_dropped) == (6, 3, 3)
    assert list(report.reasons) == ["bad_optional_field", "bad_coordinates", "bad_timestamp"]
    _same_parse((calls, report), reference_parse_calls(path))


STAMP, STAMP2 = "2024-01-01T09:00:00", "2024-01-01T10:30:00-05:00"
SPLIT_LOGS = {
    "quoted-comma": (
        "datetime,latitude,longitude,travel_time_s\r\n"
        f"{STAMP},30.1,-97.6,12\r\n"
        f'"{STAMP}","30.1","-97.6","1,5"\r\n'
        f'{STAMP2},30.1,-97.6,""\r\n'
    ),
    "quoted-line-break": (
        "datetime,latitude,longitude,travel_time_s,on_scene_s\n"
        f"{STAMP},30.1,-97.6,12,1\n"
        f"{STAMP2},30.2,-97.6,,2\n"
        f'{STAMP},30.1,-97.6,"12\n",3\n'
        f'{STAMP2},30.1,-97.6,"1\r\n\r\n2",4\n'
        f"{STAMP},30.3,-97.6,5,5\n"
    ),
    "quoted-header": '"datetime","latitude","lon\ngitude",longitude\n' f"{STAMP},30.1,x,-97.6\n{STAMP2},30.1,x,-97.7\n",
    "line-ends": (
        f"datetime,latitude,longitude\r{STAMP},30.1,-97.6\r\n\r{STAMP2},30.2,-97.6\n\n"
        f"{STAMP},30.3,-97.6\r{STAMP2},30.4\r\n{STAMP},30.5,-97.6,extra\r"
    ),
    "no-final-line-end": f"datetime,latitude,longitude\n{STAMP},30.1,-97.6\n{STAMP2},30.1,-97.7",
    "nul": f"datetime,latitude,longitude\n{STAMP},30.1,-97.6\n{STAMP2},30.1,-97.7\0\n{STAMP},30.2,-97.6\n",
    "blank-optional-columns": (
        "datetime,latitude,longitude,travel_time_s,on_scene_s,amb_latitude\n"
        + "".join(f"{STAMP},30.{k},-97.6,,  ,{'' if k < 5 else ' 30.1'}\n" for k in range(8))
    ),
    "header-only": "datetime,latitude,longitude\r\n",
    "empty": "",
}


@pytest.mark.parametrize("chunk_rows", [1, 2, 3])
@pytest.mark.parametrize("name", SPLIT_LOGS)
def test_split_and_csv_reader_chunks_are_the_reference_parse(tmp_path, monkeypatch, name, chunk_rows):
    # quote-free chunks are split at their commas and the first chunk with a
    # quote or a NUL goes, with the rest of the log, to csv.reader
    monkeypatch.setattr(ingest, "_CHUNK_ROWS", chunk_rows)
    path = tmp_path / "calls.csv"
    with open(path, "w", newline="") as f:
        f.write(SPLIT_LOGS[name])
    try:
        want = reference_parse_calls(path)
    except csv.Error:  # a NUL before Python 3.11
        with pytest.raises(DataError, match=r"calls\.csv: line 3: "):
            parse_calls(path)
        return
    except DataError as exc:
        with pytest.raises(DataError) as err:
            parse_calls(path)
        assert str(err.value) == str(exc)
        return
    _same_parse(parse_calls(path), want)


@settings(max_examples=200, deadline=None)
@given(call_logs(max_rows=20, max_blank_run=3), st.integers(1, 3))
def test_quoting_every_field_keeps_the_parse(case, chunk_rows):
    # the csv.writer QUOTE_ALL rewrite of a log reads through csv.reader
    # alone, and parses as the log does
    text, tz = case
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_CHUNK_ROWS", chunk_rows)
        path, quoted = Path(tmp) / "calls.csv", Path(tmp) / "quoted.csv"
        path.write_text(text)
        with open(path, newline="") as f, open(quoted, "w", newline="") as out:
            csv.writer(out, quoting=csv.QUOTE_ALL).writerows(csv.reader(f))
        try:
            want = parse_calls(path, tz)
        except DataError as exc:
            with pytest.raises(DataError) as err:
                parse_calls(quoted, tz)
            assert str(err.value) == str(exc).replace("calls.csv", "quoted.csv")
            return
        _same_parse(parse_calls(quoted, tz), want)


def test_parse_orders_by_instant_across_the_spring_gap(tmp_path):
    # Chicago sprang forward at 2024-03-10 02:00 CST: 02:30 lies in the gap
    # and reads at its earlier offset (fold 0), 08:30Z, after 03:10 CDT, 08:10Z
    path = tmp_path / "calls.csv"
    path.write_text("datetime,latitude,longitude\n2024-03-10T02:30:00,30.05,-97.65\n2024-03-10T03:10:00,30.15,-97.55\n")
    tz = "America/Chicago"
    grid = build_grid((30.0, 30.2, -97.7, -97.5), 2, 2, SyntheticSpeedProvider(50.0), station_cells=[0])
    parsed, _ = parse_calls(path, tz)
    for calls in (parsed, _saved_and_loaded(parsed, tmp_path)):
        assert calls.utc_s.tolist() == [1710058200.0, 1710059400.0]
        assert [r.timestamp.isoformat() for r in calls] == ["2024-03-10T03:10:00-05:00", "2024-03-10T02:30:00-06:00"]
        outcome = simcore.simulate([1], calls, grid)
        assert [row[1] for row in outcome.call_rows] == [1710058200.0, 1710059400.0]


def _other_arrays(saved: bytes) -> bytes:
    """A run of five .npy arrays that are not a zone name and a table's columns."""
    out = io.BytesIO()
    for _ in range(5):
        np.lib.format.write_array(out, np.zeros(3))
    return out.getvalue()


@pytest.mark.parametrize("spoil", [
    lambda saved: b"",
    lambda saved: saved[:40],
    lambda saved: saved[:-8],
    lambda saved: b"datetime,latitude,longitude\n",
    _other_arrays,
], ids=["empty", "truncated-header", "truncated-data", "not-numpy", "other-arrays"])
def test_spoiled_call_table_is_a_data_error_naming_it(tmp_path, spoil):
    path = tmp_path / "calls.csv"
    path.write_text(
        "datetime,latitude,longitude,lat2,travel_time_s\n"
        "2024-03-10T02:30:00,30.1,-97.6,30.2,\n"
        "2024-11-03T01:30:00,30.1,-97.6,-0.0,12.5\n"
    )
    saved = tmp_path / "calls_table.bin"
    save_call_table(parse_calls(path, "America/Chicago")[0], saved)
    saved.write_bytes(spoil(saved.read_bytes()))
    with pytest.raises(DataError, match=f"^{re.escape(str(saved))}: not a call table "):
        load_call_table(saved)


def test_roundtrip_identity(tmp_path):
    records = [
        rec(datetime(2024, 1, 1, 9, tzinfo=UTC), reported_travel_s=123.5, on_scene_s=60.0),
        rec(datetime(2024, 1, 1, 10, tzinfo=UTC), ambulance_lat=30.12, ambulance_lon=-97.61),
    ]
    path = tmp_path / "calls.csv"
    serialize_calls(table(records), path)
    loaded, report = parse_calls(path)
    assert report.n_dropped == 0
    assert list(loaded) == records


def test_serialize_calls_text(tmp_path):
    # floats print as their repr, an int field as a float, a missing field empty
    records = [
        rec(datetime(2024, 1, 1, 9, tzinfo=UTC), lat=30, lon=-97.6, reported_travel_s=30, on_scene_s=0.1 + 0.2),
        rec(datetime(2024, 1, 1, 10, 0, 0, 5, tzinfo=UTC), ambulance_lat=np.float64(-0.0), to_hospital_s=1e16),
    ]
    path = tmp_path / "calls.csv"
    serialize_calls(table(records), path)
    assert path.read_bytes() == (
        b"datetime,latitude,longitude,response_time_s,travel_time_s,amb_latitude,amb_longitude,"
        b"on_scene_s,to_hospital_s\r\n"
        b"2024-01-01T09:00:00+00:00,30.0,-97.6,,30.0,,,0.30000000000000004,\r\n"
        b"2024-01-01T10:00:00.000005+00:00,30.1,-97.6,,,-0.0,,,1e+16\r\n"
    )


# every value a table's record field may hold: ints, numpy floats, signed
# zeros, infinities and subnormals (a table holds NaN only for None)
FIELD_VALUES = st.one_of(
    st.integers(-2**40, 2**40),
    st.floats(allow_nan=False),
    st.floats(allow_nan=False).map(np.float64),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, math.inf, -math.inf]),
)
# a table's stamps carry a zone
ZONES = st.sampled_from([UTC, timezone(timedelta(hours=-5)), timezone(timedelta(hours=5, minutes=30, seconds=7)),
                         ZoneInfo("America/Chicago")])


@st.composite
def call_records(draw):
    ts = draw(st.datetimes(timezones=ZONES))
    optional = [draw(st.one_of(st.none(), FIELD_VALUES)) for _ in range(6)]
    return CallRecord(ts, draw(FIELD_VALUES), draw(FIELD_VALUES), *optional)


@settings(max_examples=300, deadline=None)
@given(st.lists(call_records(), max_size=6))
def test_serialize_calls_matches_csv_writer(records):
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        serialize_calls(table(records, "America/Chicago"), got)
        reference_serialize_calls(records, want)
        assert got.read_bytes() == want.read_bytes()


def test_filter_peak_rules():
    saturday = rec(datetime(2024, 1, 6, 12, 0, tzinfo=UTC))
    monday_open = rec(datetime(2024, 1, 8, 8, 0, tzinfo=UTC))
    monday_close = rec(datetime(2024, 1, 8, 20, 0, tzinfo=UTC))
    kept = filter_peak(table([saturday, monday_open, monday_close]))
    assert list(kept) == [monday_open]


def test_filter_peak_idempotent():
    calls = [rec(datetime(2024, 1, 8, h, 30, tzinfo=UTC)) for h in range(8, 20)]
    once = filter_peak(table(calls))
    assert list(once) == calls
    assert list(filter_peak(once)) == list(once)


def test_demand_matrix_single_call():
    g = make_grid()
    calls = [rec(datetime(2024, 1, 1, 9, 30, tzinfo=UTC), 30.05, -97.65)]
    m = build_demand_matrix(table(calls), g)
    assert m.counts.sum() == 1
    assert m.counts.shape[1] == 4
    assert m.counts[9].sum() == 1  # 9 hours after the midnight anchor


def test_demand_matrix_same_cell_same_hour():
    g = make_grid()
    t = datetime(2024, 1, 1, 9, 0, tzinfo=UTC)
    calls = [rec(t, 30.05, -97.65), rec(t + timedelta(minutes=20), 30.06, -97.64)]
    m = build_demand_matrix(table(calls), g)
    assert m.counts.max() == 2
    assert m.counts.sum() == 2


def test_demand_matrix_conserves_and_matches_recount():
    g = make_grid()
    rng = np.random.default_rng(3)
    t0 = datetime(2024, 1, 1, 0, 0, tzinfo=UTC)
    calls = []
    for _ in range(300):
        calls.append(
            rec(
                t0 + timedelta(seconds=float(rng.uniform(0, 72 * 3600))),
                float(rng.uniform(30.0, 30.2)),
                float(rng.uniform(-97.7, -97.5)),
            )
        )
    calls.sort(key=lambda r: r.timestamp)
    m = build_demand_matrix(table(calls), g, 3600.0)
    assert int(m.counts.sum()) == len(calls)
    # independent recount per period
    by_period = {}
    for r in calls:
        p = int((r.timestamp - t0.replace(hour=0)).total_seconds() // 3600)
        by_period[p] = by_period.get(p, 0) + 1
    for p, n in by_period.items():
        assert int(m.counts[p].sum()) == n


def test_demand_matrix_drops_and_counts_far_calls():
    g = make_grid()
    inside = rec(datetime(2024, 1, 1, 9, 30, tzinfo=UTC), 30.05, -97.65)
    far = rec(datetime(2024, 1, 1, 10, 30, tzinfo=UTC), 32.0, -97.65)
    m = build_demand_matrix(table([inside, far]), g)
    assert int(m.counts.sum()) == 1
    assert m.n_dropped == 1


def test_demand_matrix_export_roundtrip(tmp_path):
    g = make_grid()
    calls = [rec(datetime(2024, 1, 1, 9, 30, tzinfo=UTC))]
    m = build_demand_matrix(table(calls), g)
    path = tmp_path / "demand.csv"
    save_demand_matrix(m, path)
    loaded = load_demand_matrix(path)
    assert np.array_equal(loaded.counts, m.counts)
    assert loaded.start_wall_us.tolist() == m.start_wall_us.tolist()
    assert loaded.start_offset_us.tolist() == m.start_offset_us.tolist()


def test_demand_matrix_header_only_roundtrip(tmp_path):
    m = DemandMatrix(np.zeros((0, 4), dtype=np.int64), [], [])
    path = tmp_path / "demand.csv"
    save_demand_matrix(m, path)
    loaded = load_demand_matrix(path)
    assert loaded.counts.shape == (0, 4)
    assert len(loaded.start_wall_us) == len(loaded.start_offset_us) == 0


@pytest.mark.parametrize("bad_line", [2, 3, 4])
def test_load_demand_matrix_names_the_line_of_a_bad_count(tmp_path, bad_line):
    lines = ["period_start,region_0,region_1"] + [f"2024-01-01T0{h}:00:00+00:00,1,2" for h in range(3)]
    lines[bad_line - 1] = lines[bad_line - 1][:-1] + "x"
    path = tmp_path / "demand.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=f"line {bad_line}: invalid literal for int"):
        load_demand_matrix(path)


def test_save_demand_matrix_text_as_per_row_writer(tmp_path):
    counts = np.array([[0, 0, 0], [1, 2**31, 0], [2**40 + 3, 0, 7]], dtype=np.int64)
    starts = [datetime(2024, 1, 1, h, tzinfo=UTC) for h in range(3)]
    m = DemandMatrix(counts, *start_columns(starts))
    path = tmp_path / "demand.csv"
    save_demand_matrix(m, path)
    want = tmp_path / "want.csv"
    with open(want, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["period_start"] + [f"region_{j}" for j in range(m.n_regions)])
        for ts, row in zip(starts, m.counts):
            writer.writerow([ts.isoformat()] + [int(v) for v in row])
    assert path.read_text() == want.read_text()
    assert np.array_equal(load_demand_matrix(path).counts, counts)


def test_peak_period_mask_and_selection():
    g = make_grid()
    calls = [
        rec(datetime(2024, 1, 1, 3, 0, tzinfo=UTC)),
        rec(datetime(2024, 1, 1, 9, 0, tzinfo=UTC)),
    ]
    m = build_demand_matrix(table(calls), g)
    mask = peak_period_mask(m)
    assert not mask[3] and mask[9]
    peak_only = select_periods(m, mask)
    assert peak_only.n_periods == int(mask.sum())


def test_split_chronological():
    calls = [rec(datetime(2024, 1, 1, 8, i, tzinfo=UTC)) for i in range(10)]
    train, test = split_train_test(table(calls), 0.8)
    assert list(train) == calls[:8]
    assert list(test) == calls[8:]


def test_split_kfold_partitions():
    calls = [rec(datetime(2024, 1, 1, 8, i, tzinfo=UTC)) for i in range(11)]
    seen = []
    for fold in range(3):
        train, test = split_train_test(table(calls), mode="kfold", k=3, fold_index=fold, seed=5)
        assert sorted([*train, *test], key=lambda r: r.timestamp) == calls
        seen.extend(test)
    assert sorted(seen, key=lambda r: r.timestamp) == calls  # folds partition the data


def test_split_kfold_deterministic():
    calls = [rec(datetime(2024, 1, 1, 8, i, tzinfo=UTC)) for i in range(9)]
    a = split_train_test(table(calls), mode="kfold", k=3, fold_index=1, seed=42)
    b = split_train_test(table(calls), mode="kfold", k=3, fold_index=1, seed=42)
    assert [list(side) for side in a] == [list(side) for side in b]


def test_split_kfold_test_fold_is_array_splits():
    calls = table([rec(datetime(2024, 1, 1, 8, i, tzinfo=UTC)) for i in range(7)])
    perm = substream(5, "folds").permutation(7)
    for k in (2, 3, 7, 9):
        for fold in range(k):
            _, test = split_train_test(calls, mode="kfold", k=k, fold_index=fold, seed=5)
            assert list(test) == [calls[i] for i in sorted(np.array_split(perm, k)[fold])]
    # a fold count far above the calls builds no folds: its last fold is empty
    train, test = split_train_test(calls, mode="kfold", k=10**12, fold_index=10**12 - 1, seed=5)
    assert (len(train), len(test)) == (7, 0)


def test_split_too_few_calls():
    with pytest.raises(DataError):
        split_train_test(table([rec(datetime(2024, 1, 1, 8, tzinfo=UTC))]))


def test_trim_p_zero_is_identity():
    reported = np.arange(10) * 2.0
    assert trim_quantiles(reported, 0.0).tolist() == [True] * 10


def test_trim_hundred_distinct_leaves_98():
    reported = np.arange(100, dtype=np.float64)
    kept = reported[trim_quantiles(reported, 0.01)]
    assert len(kept) == 98
    assert kept.min() == 1.0 and kept.max() == 98.0


def test_trim_removes_zero_reported_outliers():
    reported = np.array([0.0] + [float(v) for v in range(60, 360)])
    assert np.all(reported[trim_quantiles(reported, 0.01)] > 0)


def test_trim_rejects_bad_fraction():
    with pytest.raises(ConfigError):
        trim_quantiles(np.array([1.0]), 0.5)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, 30.0, 600.0]), st.floats(allow_nan=False)), max_size=60),
    st.floats(0.0, 0.5, exclude_max=True),
)
def test_trim_keeps_the_pairs_the_list_trim_keeps(reported, p):
    # ties come from the small pool; each pair's grid time is its position
    pairs = [(float(i), r) for i, r in enumerate(reported)]
    keep = trim_quantiles(np.array(reported, dtype=np.float64), p)
    assert keep.dtype == bool and keep.shape == (len(pairs),)
    assert [pair for pair, k in zip(pairs, keep.tolist()) if k] == reference_trim_quantiles(pairs, p)


def test_calibration_pairs_excludes_incomplete():
    g = make_grid()
    full = rec(
        datetime(2024, 1, 1, 9, tzinfo=UTC),
        reported_travel_s=120.0,
        ambulance_lat=30.15,
        ambulance_lon=-97.55,
    )
    missing = rec(datetime(2024, 1, 1, 10, tzinfo=UTC), reported_travel_s=100.0)
    usable, grid_s, reported_s = calibration_pairs(table([full, missing]), g)
    assert usable.tolist() == [0]
    assert grid_s.dtype == reported_s.dtype == np.float64
    assert len(grid_s) == 1 and reported_s.tolist() == [120.0]


def test_calibration_pairs_exclude_non_finite_points():
    g = make_grid()
    t = datetime(2024, 1, 1, 9, tzinfo=UTC)
    full = rec(t, reported_travel_s=120.0, ambulance_lat=30.15, ambulance_lon=-97.55)
    nan_origin = rec(t, reported_travel_s=90.0, ambulance_lat=math.nan, ambulance_lon=-97.55)
    nan_scene = rec(t, lat=math.nan, reported_travel_s=90.0, ambulance_lat=30.15, ambulance_lon=-97.55)
    usable, grid_s, reported_s = calibration_pairs(table([nan_origin, full, nan_scene]), g)
    assert usable.tolist() == [1] and len(grid_s) == 1 and reported_s.tolist() == [120.0]


# --- the CallTable of a saved parse, and the rules written on its columns

def _parsed_table(text, tz, tmp):
    """A call log's parse, as the table ``load_call_table`` reads back and as
    the records of ``parse_calls``'s table."""
    path = Path(tmp) / "calls.csv"
    path.write_text(text)
    try:
        calls, _ = parse_calls(path, tz)
    except DataError:
        return None
    return _saved_and_loaded(calls, tmp), list(calls)


@settings(max_examples=300, deadline=None)
@given(call_logs())
def test_call_table_is_the_parse_calls_records(case):
    with tempfile.TemporaryDirectory() as tmp:
        parsed = _parsed_table(*case, tmp)
    if parsed is None:
        return
    table, records = parsed
    want = [repr(r) for r in records]
    assert [repr(r) for r in table] == want
    assert [repr(table[k]) for k in range(-len(table), len(table))] == want + want
    assert [repr(r) for r in table[::-1]] == want[::-1]
    with pytest.raises(IndexError):
        table[len(table)]
    # the columns are the records' fields, NaN for None
    for name in CallRecord._fields[1:]:
        np.testing.assert_array_equal(getattr(table, name), [math.nan if v is None else v for v in
                                                            (getattr(r, name) for r in records)])
    assert table.utc_s.tolist() == [r.epoch_s() for r in records]


@settings(max_examples=300, deadline=None)
@given(call_logs())
def test_kept_parse_of_a_written_log_is_parse_calls(case):
    with tempfile.TemporaryDirectory() as tmp:
        parsed = _parsed_table(*case, tmp)
        if parsed is None:
            return
        table, records = parsed
        sides = [table] if len(table) < 2 else list(split_train_test(table, mode="kfold", k=2, seed=3))
        for k, calls in enumerate(sides):
            path = Path(tmp) / f"split{k}.csv"
            serialize_calls(calls, path)
            # written from the columns in the bytes the records write
            serialize_calls(table_from_records(list(calls), calls.tz), Path(tmp) / "from_records.csv")
            assert path.read_bytes() == (Path(tmp) / "from_records.csv").read_bytes()
            want = parse_calls(path)
            # naive stamps parsed in a ZoneInfo zone come back with fixed offsets
            assert all(r.timestamp.tzinfo is not None and not isinstance(r.timestamp.tzinfo, ZoneInfo)
                       for r in want[0])
            _same_parse((_saved_and_loaded(want[0], tmp), want[1]), want)


PARSED_ZONES = st.sampled_from([UTC, timezone(timedelta(hours=-5)),
                                timezone(timedelta(hours=5, minutes=30, seconds=7, microseconds=9)),
                                ZoneInfo("America/Chicago")])
PARSED_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def parsed_records(draw):
    """Records as a parse gives them: aware stamps of any year, fold 0, and
    finite fields or None."""
    ts = draw(st.datetimes(timezones=PARSED_ZONES)).replace(fold=0)
    optional = [draw(st.one_of(st.none(), PARSED_FLOATS)) for _ in range(6)]
    return CallRecord(ts, draw(PARSED_FLOATS), draw(PARSED_FLOATS), *optional)


@settings(max_examples=300, deadline=None)
@given(st.lists(parsed_records(), max_size=6))
def test_call_table_of_records_round_trips_and_serializes_as_them(records):
    table = table_from_records(records, ZoneInfo("America/Chicago"))
    assert [repr(r) for r in table] == [repr(r) for r in records]
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        serialize_calls(table, got)
        reference_serialize_calls(records, want)
        assert got.read_bytes() == want.read_bytes()


def test_call_table_of_a_naive_stamp_names_its_position():
    aware = rec(datetime(2024, 1, 1, 9, tzinfo=UTC))
    naive = rec(datetime(2024, 1, 1, 10))
    with pytest.raises(DataError, match="call 2 has a naive timestamp"):
        table([aware, aware, naive, aware, naive])


def test_call_table_of_a_stamp_in_another_zone_names_its_position():
    aware = rec(datetime(2024, 1, 1, 9, tzinfo=UTC))
    tokyo = rec(datetime(2024, 1, 1, 9, tzinfo=ZoneInfo("Asia/Tokyo")))
    with pytest.raises(DataError, match="call 1 is stamped in Asia/Tokyo, not in the table's zone UTC"):
        table([aware, tokyo, aware, tokyo])
    # in the table's own zone it is coded as the instant it is
    calls = table([tokyo, aware], "Asia/Tokyo")
    assert calls.utc_s.tolist() == [r.epoch_s() for r in (tokyo, aware)]
    assert [repr(r) for r in calls] == [repr(tokyo), repr(aware)]


WINDOWS = st.tuples(
    st.integers(0, 23), st.integers(1, 24), st.lists(st.integers(0, 6), max_size=7),
).filter(lambda w: w[0] < w[1])


def _window(w):
    start, end, weekdays = w
    return datetime_time(start), datetime_time(end) if end < 24 else datetime_time.max, weekdays


@settings(max_examples=300, deadline=None)
@given(call_logs(), WINDOWS)
def test_column_rules_are_the_record_rules(case, window):
    grid = make_grid()
    with tempfile.TemporaryDirectory() as tmp:
        parsed = _parsed_table(*case, tmp)
    if parsed is None:
        return
    table, records = parsed
    rebuilt = table_from_records(records, table.tz)
    start, end, weekdays = _window(window)
    peak = filter_peak(table, start, end, weekdays)
    assert isinstance(peak, CallTable)
    assert [repr(r) for r in peak] == [repr(r) for r in filter_peak(rebuilt, start, end, weekdays)]
    # the weekday and clock come from the wall time as datetime reads them
    assert [repr(r) for r in peak] == [
        repr(r) for r in records if r.timestamp.weekday() in weekdays and start <= r.timestamp.time() < end
    ]
    if len(records) >= 2:
        for mode in ("chronological", "kfold"):
            got = split_train_test(table, 0.6, mode, 3, 1, seed=5)
            want = split_train_test(rebuilt, 0.6, mode, 3, 1, seed=5)
            assert [[repr(r) for r in side] for side in got] == [[repr(r) for r in side] for side in want]
    try:
        want_matrix = build_demand_matrix(rebuilt, grid)
    except DataError as exc:
        with pytest.raises(DataError, match=str(exc)):
            build_demand_matrix(table, grid)
    else:
        got_matrix = build_demand_matrix(table, grid)
        assert np.array_equal(got_matrix.counts, want_matrix.counts)
        assert got_matrix.start_wall_us.tolist() == want_matrix.start_wall_us.tolist()
        assert got_matrix.start_offset_us.tolist() == want_matrix.start_offset_us.tolist()
        assert got_matrix.n_dropped == want_matrix.n_dropped
        assert np.array_equal(peak_period_mask(got_matrix, start, end, weekdays), [
            t.weekday() in weekdays and start <= t.time() < end for t in start_times(want_matrix)
        ])
    for got, want in zip(calibration_pairs(table, grid), calibration_pairs(rebuilt, grid)):
        assert got.tolist() == want.tolist()


def test_demand_matrix_starts_step_in_absolute_time_across_dst(tmp_path):
    # US DST began 2024-03-10 at 02:00 CST in Chicago: that day has 23 hours
    path = tmp_path / "calls.csv"
    path.write_text("datetime,latitude,longitude\n" + "".join(
        f"2024-03-{day:02d}T{hour:02d}:30:00,30.05,-97.65\n" for day in (9, 10, 11) for hour in (1, 10, 23)
    ))
    tz = "America/Chicago"
    records, _ = parse_calls(path, tz)
    table = _saved_and_loaded(records, tmp_path)
    assert len(records) == 9
    for calls in (table, records):
        m = build_demand_matrix(calls, make_grid())
        # each call is counted in the period whose labelled start and end hold it
        for r in records:
            (k,) = [k for k, s in enumerate(start_times(m)) if s <= r.timestamp < s + timedelta(hours=1)]
            assert m.counts[k].sum() == 1
        starts = [t.isoformat() for t in start_times(m)]
        assert starts[24 + 10] == "2024-03-10T11:00:00-05:00"  # 34 hours after the midnight anchor
        assert "2024-03-10T10:00:00-05:00" in starts and "2024-03-10T02:00:00-05:00" not in starts
        # so the peak window reads each start's true local hour
        mask = peak_period_mask(m, datetime_time(10), datetime_time(11), [6])
        assert [starts[k] for k in np.flatnonzero(mask)] == ["2024-03-10T10:00:00-05:00"]


@pytest.mark.parametrize("body, error", [
    ("2024-01-01T00:00:00+00:00,1,2,3\n", "line 2: 4 fields, the header has 3"),
    ("2024-01-01T00:00:00+00:00,1,2\n\n2024-01-01T01:00:00+00:00,1,2\n", "line 3: 0 fields"),
    ("2024-01-01T00:00:00+00:00,1,2#3\n", "line 2: invalid literal for int"),
    ("2024-01-01T00:00:00+00:00,1,2.0\n", "line 2: invalid literal for int"),
    ("2024-01-01T00:00:00,1,2\nnot a time,1,2\n", "line 3: Invalid isoformat"),
])
def test_load_demand_matrix_refuses_what_the_line_reader_refuses(tmp_path, body, error):
    path = tmp_path / "demand.csv"
    path.write_text("period_start,region_0,region_1\n" + body)
    with pytest.raises(DataError, match=error):
        load_demand_matrix(path)


def test_load_demand_matrix_reads_what_int_reads(tmp_path):
    path = tmp_path / "demand.csv"
    path.write_text("period_start,region_0,region_1\r\n2024-01-01T00:00:00+00:00,1_000, 2\r\n")
    m = load_demand_matrix(path)
    assert m.counts.tolist() == [[1000, 2]]
    assert (m.start_wall_us.tolist(), m.start_offset_us.tolist()) == start_columns([datetime(2024, 1, 1, tzinfo=UTC)])


def test_load_demand_matrix_codes_each_start_in_its_own_offset(tmp_path):
    # starts across a DST change, in another offset, naive, and back: each
    # start's wall time and offset are those the oracle codes from it
    texts = ["2024-11-03T00:00:00-05:00", "2024-11-03T01:00:00-05:00", "2024-11-03T01:00:00-06:00",
             "2024-11-03T02:00:00-06:00", "2024-11-03T09:00:00+01:30", "2024-11-03T09:30:00",
             "2024-11-03T10:00:00", "2024-11-03T05:00:00-06:00", "2024-11-03T11:00:00.000001+00:00"]
    path = tmp_path / "demand.csv"
    path.write_text("period_start,region_0\n" + "".join(f"{t},{k}\n" for k, t in enumerate(texts)))
    loaded = load_demand_matrix(path)
    want_wall_us, want_offset_us = start_columns([datetime.fromisoformat(t) for t in texts])
    assert loaded.start_wall_us.tolist() == want_wall_us
    assert loaded.start_offset_us.tolist() == want_offset_us
    assert [t.isoformat() for t in start_times(loaded)] == texts


@pytest.mark.parametrize("row", ['2024-01-01T01:00:00+00:00,"1",2', '"2024-01-01T01:00:00+00:00",1,2'],
                         ids=["quoted-count", "quoted-start"])
def test_load_demand_matrix_refuses_a_quoted_field_by_its_line(tmp_path, row):
    # save_demand_matrix never quotes a field, so the reader splits at every comma
    lines = ["period_start,region_0,region_1", "2024-01-01T00:00:00+00:00,1,2", row, "2024-01-01T02:00:00+00:00,1,2"]
    path = tmp_path / "demand.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="line 3: "):
        load_demand_matrix(path)
