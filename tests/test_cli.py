import codecs
import csv
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr
from datetime import datetime, time
from pathlib import Path
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import emsdeploy
from emsdeploy import demand, geogrid, ingest, simcore, stochastic
from emsdeploy.cli import COMMANDS, RunConfig, load_config, main
from emsdeploy.errors import ConfigError
from emsdeploy.ingest import CallRecord, CallTable, serialize_calls
from emsdeploy.synth import SynthConfig, synth_calls, synth_grid, synth_tracts, write_svi_csv, write_tract_map_csv
from oracles import reference_calibration_fit


@pytest.fixture(scope="module")
def city(tmp_path_factory):
    """Synthetic calls plus SVI/tract files shared by the CLI tests."""
    root = tmp_path_factory.mktemp("city")
    cfg = SynthConfig()
    grid = synth_grid(cfg)
    calls = synth_calls(grid, 900, seed=7, cfg=cfg)
    calls_csv = root / "calls.csv"
    serialize_calls(calls, calls_csv)
    tract_map, svi = synth_tracts(grid, seed=7, tracts_per_side=6)
    svi_csv = root / "svi.csv"
    tract_csv = root / "tracts.csv"
    write_svi_csv(svi, svi_csv)
    write_tract_map_csv(tract_map, tract_csv)
    config = {
        "calls_csv": str(calls_csv),
        "svi_csv": str(svi_csv),
        "tract_map_csv": str(tract_csv),
        "speed_kmh": 60.0,
        "n_ambulances": 4,
        "m_scenarios": 20,
        "alpha": 0.05,
        "n_calls": 30,
        "n_batches": 2,
        "verify_batch_size": 20,
        "verify_n_batches": 3,
        "n_min": 3,
        "n_max": 4,
        "cv_folds": 2,
        "alphas": [0.1, 0.05],
        "seed": 11,
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config))
    return {"root": root, "config": config_path, "raw": config}


def run(city, sub, out, extra=()):
    return main([sub, "--config", str(city["config"]), "--out", str(out), *extra])


def test_full_pipeline(city, tmp_path):
    out = tmp_path / "run"
    for sub in ("grid", "preprocess", "fit", "optimize", "simulate", "verify",
                "fleet-sweep", "analyze", "plotdata"):
        assert run(city, sub, out) == 0, f"{sub} failed"
    for name in (
        "grid.json", "grid_travel.csv", "calls_table.bin", "demand_matrix.csv", "preprocess_summary.json",
        "rates.json", "uncertainty.json", "calibration.json", "deployment_stochastic.json",
        "deployment_robust.json", "ccg_history.csv", "sim_comparison.json",
        "event_log_stochastic.csv", "event_log_robust.csv", "verification.json",
        "fleet_sweep.csv", "analysis_report.csv", "analysis_details.json",
        "plot_temporal_heatmap.csv", "plot_spatial_heatmap.csv",
        "plot_regression_scatter.csv", "plot_verification_points.csv",
        "plot_stationing_stochastic.csv", "plot_stationing_robust.csv",
        "manifest.json",
    ):
        assert (out / name).exists(), name
    assert not (out / "config_resolved.json").exists()
    # the manifest holds the SHA-256 of every file the stages wrote, and a record of each file a stage loads
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir() if p.name != "manifest.json"
    }
    assert set(manifest["config"]) == {
        "grid.json", "calls_table.bin", "split", "demand_matrix.csv", "uncertainty.json", "calibration.json",
        "deployment_stochastic.json", "deployment_robust.json", "verification.json",
    }
    assert manifest["config"]["deployment_robust.json"]["alpha"] == city["raw"]["alpha"]
    assert "calls_csv" not in manifest["config"]["calls_table.bin"]

    stoch = json.loads((out / "deployment_stochastic.json").read_text())
    assert sum(stoch["x"]) <= 4
    assert stoch["optimality_flag"] == "exact"
    rob = json.loads((out / "deployment_robust.json").read_text())
    assert sum(rob["x"]) <= 4
    sweep = (out / "fleet_sweep.csv").read_text().strip().split("\n")
    assert sweep[0] == "n,stochastic_mrt_min,robust_mrt_min"
    assert len(sweep) == 1 + (4 - 3 + 1)
    report = (out / "analysis_report.csv").read_text().strip().split("\n")
    assert report[0] == "Model,Variables,Average MSE"
    assert len(report) == 6
    # stationing plot counts conserve the fleet
    rows = (out / "plot_stationing_stochastic.csv").read_text().strip().split("\n")[1:]
    assert sum(int(r.split(",")[-1]) for r in rows) == sum(stoch["x"])


def test_rerun_is_byte_identical(city, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert run(city, "grid", out) == 0
        assert run(city, "preprocess", out) == 0
        assert run(city, "fit", out) == 0
        assert run(city, "optimize", out) == 0
    man_a = json.loads((out_a / "manifest.json").read_text())
    man_b = json.loads((out_b / "manifest.json").read_text())
    assert man_a["files"] == man_b["files"]
    # and rerunning in place reproduces the same manifest bytes
    before = (out_a / "manifest.json").read_bytes()
    assert run(city, "optimize", out_a) == 0
    assert (out_a / "manifest.json").read_bytes() == before


def test_every_output_is_written_in_the_one_format(city, tmp_path):
    # each JSON file is json.dumps's text of its document (keys sorted, indent 1,
    # a final newline), and each CSV file, the city's inputs too, is csv.writer's
    # text of the rows csv.reader reads back from it
    out = tmp_path / "run"
    for sub in COMMANDS:
        assert run(city, sub, out) == 0, sub
    paths = sorted(out.iterdir())
    assert {p.suffix for p in paths} == {".json", ".csv", ".bin"}
    for path in [*paths, *sorted(city["root"].glob("*.csv"))]:
        text = path.read_bytes().decode("utf-8") if path.suffix != ".bin" else None
        if path.suffix == ".json":
            assert text == json.dumps(json.loads(text), sort_keys=True, indent=1) + "\n", path.name
        elif path.suffix == ".csv":
            rewritten = io.StringIO(newline="")
            csv.writer(rewritten).writerows(csv.reader(io.StringIO(text, newline="")))
            assert text == rewritten.getvalue(), path.name


def test_stages_after_preprocess_run_without_the_call_log(city, tmp_path):
    # only preprocess reads calls_csv: once it has run, each later stage runs in
    # a fresh process with the log moved away, and writes what it writes beside it
    log = tmp_path / "calls.csv"
    shutil.copy(city["raw"]["calls_csv"], log)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**city["raw"], "calls_csv": str(log)}))
    with_log, without_log = tmp_path / "with", tmp_path / "without"
    for sub in COMMANDS:
        assert main([sub, "--config", str(config), "--out", str(with_log)]) == 0, sub
    for sub in ("grid", "preprocess"):
        assert main([sub, "--config", str(config), "--out", str(without_log)]) == 0, sub
    log.rename(tmp_path / "moved.csv")
    package_root = str(Path(emsdeploy.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")]),
           "EMSDEPLOY_LOG": "INFO"}
    for sub in list(COMMANDS)[2:]:
        done = subprocess.run(
            [sys.executable, "-m", "emsdeploy", sub, "--config", str(config), "--out", str(without_log)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert " rows, parsed" not in done.stderr
    assert {p.name: p.read_bytes() for p in without_log.iterdir()} == {
        p.name: p.read_bytes() for p in with_log.iterdir()
    }


def test_alpha_cv_table_shape(city, tmp_path):
    out = tmp_path / "cv"
    assert run(city, "grid", out) == 0
    assert run(city, "preprocess", out) == 0
    assert run(city, "alpha-cv", out) == 0
    lines = (out / "alpha_cv.csv").read_text().strip().split("\n")
    assert lines[0] == "fold,alpha_0.1,alpha_0.05"
    assert len(lines) == 3  # 2 folds
    summary = json.loads((out / "alpha_cv_summary.json").read_text())
    assert set(summary["saturated"]) == {"0.1", "0.05"}
    assert "recommended_alpha" in summary


def test_alpha_cv_simulates_and_snaps_each_fold_once(city, tmp_path, monkeypatch):
    runs = []  # (fold seed, stationing, number of calls) per simulation
    snapped = []  # number of points per bulk snap
    inner_simulate, inner_assign = simcore.simulate, geogrid.assign_cells

    def counting_simulate(x, calls, *args, **kwargs):
        runs.append((kwargs["seed"], np.asarray(x, dtype=np.int64).tobytes(), len(calls)))
        return inner_simulate(x, calls, *args, **kwargs)

    def counting_assign(grid, lats, lons, *args, **kwargs):
        snapped.append(len(lats))
        return inner_assign(grid, lats, lons, *args, **kwargs)

    out = tmp_path / "cv"
    assert run(city, "grid", out) == 0
    assert run(city, "preprocess", out) == 0
    monkeypatch.setattr(simcore, "simulate", counting_simulate)
    # the CLI and the simulator both snap through geogrid.assign_cells_or_raise,
    # which looks up the module's assign_cells
    monkeypatch.setattr(geogrid, "assign_cells", counting_assign)
    assert run(city, "alpha-cv", out, ("--alphas", "[0.5, 0.3, 0.1, 0.05, 0.01]")) == 0
    rows = [line.split(",")[1:] for line in (out / "alpha_cv.csv").read_text().strip().split("\n")[1:]]
    filled = sum(cell != "" for row in rows for cell in row)
    # some alphas pick the same stationing in a fold, and that stationing runs once
    assert 0 < len(runs) < filled
    assert len({(seed, x) for seed, x, _ in runs}) == len(runs)
    # each fold snaps its test calls in one bulk snap, which all its stationings'
    # runs share, and no call is snapped alone
    fold_calls = {seed: n for seed, _, n in runs}  # in fold order
    assert len(fold_calls) == city["raw"]["cv_folds"]
    assert snapped == list(fold_calls.values())


def _city_split(city) -> tuple[CallTable, CallTable]:
    """The train and test calls of the city's config: its peak calls, split chronologically 80/20."""
    calls, _ = ingest.parse_calls(city["raw"]["calls_csv"])
    return ingest.split_train_test(ingest.filter_peak(calls), 0.8)


@pytest.mark.parametrize("resample, row, code", [
    ("false", 1, 3), ("true", 1, 3), ("true", -1, 3), ("false", -1, 0),
])
def test_an_off_grid_test_call_the_batches_can_draw_is_exit_3(city, fitted_run, tmp_path, capsys, resample, row, code):
    # the row of calls.csv that becomes the second or the last call of the
    # derived test split (180 calls), moved off the grid. Unresampled batches
    # take the first 60 calls, so only the second call is drawn; a resampled
    # batch can draw any call, so then either one is refused
    out = tmp_path / "run"
    shutil.copytree(fitted_run, out)
    _, test = _city_split(city)
    assert len(test) == 180
    stamp = test[row].timestamp.isoformat()
    lines = Path(city["raw"]["calls_csv"]).read_text().splitlines()
    (at,) = [i for i, line in enumerate(lines) if line.startswith(stamp + ",")]
    fields = lines[at].split(",")
    fields[1] = "45.0"  # the latitude, far north of the grid
    lines[at] = ",".join(fields)
    log = tmp_path / "calls.csv"
    log.write_text("\n".join(lines) + "\n")
    assert run(city, "preprocess", out, ("--calls_csv", str(log))) == 0
    assert run(city, "optimize", out) == 0
    for sub in ("simulate", "fleet-sweep"):
        capsys.readouterr()
        assert run(city, sub, out, ("--sample_with_replacement", resample)) == code, sub
        assert ("outside bounds" in capsys.readouterr().err) == (code == 3)


def _drop_split_record(path: Path) -> None:
    manifest = json.loads(path.read_text())
    del manifest["config"]["split"]
    path.write_text(json.dumps(manifest))


FILTERED, UNFILTERED = (), ("--peak_filter", "false")


@pytest.mark.parametrize("mode, extra, code, named, sub", [
    (FILTERED, ("--train_fraction", "0.7"), 2, "train_fraction is 0.7, but the split record holds 0.8",
     "verify"),
    (FILTERED, ("--seed", "8"), 0, None, "verify"),
    (FILTERED, _drop_split_record, 3, "no record of split in", "verify"),
    (FILTERED, Path.unlink, 3, "no record of grid.json in", "verify"),
    (FILTERED, ("--peak_start", "8:00"), 0, None, "verify"),
    (FILTERED, ("--peak_weekdays", "[4, 3, 2, 1, 0]"), 0, None, "verify"),
    (FILTERED, ("--peak_start", "09:00"), 2, "peak_start is '09:00', but the calls_table.bin record holds '08:00'",
     "verify"),
    (UNFILTERED, ("--peak_start", "09:00"), 2, "peak_start is '09:00', but the calls_table.bin record holds '08:00'",
     "verify"),
    (FILTERED, ("--peak_start", "09:00"), 2, "peak_start is '09:00', but the calls_table.bin record holds '08:00'",
     "alpha-cv"),
    (UNFILTERED, ("--peak_filter", "true"), 2, "peak_filter is True, but the calls_table.bin record holds False",
     "alpha-cv"),
    (FILTERED, ("--train_fraction", "0.7"), 0, None, "alpha-cv"),
    (FILTERED, ("--timezone", "America/Chicago"), 2,
     "timezone is 'America/Chicago', but the calls_table.bin record holds 'UTC'", "analyze"),
    (FILTERED, ("--peak_end", "12:00"), 2, "peak_end is '12:00', but the calls_table.bin record holds '20:00'",
     "analyze"),
], ids=["train-fraction", "seed-chronological", "manifest-without-split", "no-manifest",
        "peak-start-unpadded", "peak-weekdays-reordered", "peak-start", "peak-start-unfiltered",
        "alpha-cv-peak-start", "alpha-cv-peak-filter", "alpha-cv-train-fraction", "analyze-timezone",
        "analyze-peak-end"])
def test_a_stage_splits_the_calls_as_preprocess_did(city, fitted_run, tmp_path, capsys, mode, extra, code, named, sub):
    # a stage derives the split again from the calls preprocess saved, so its config
    # must agree with preprocess's record of the split on every field the split reads,
    # compared as the split reads them (the window's times, its weekdays as a set); the
    # chronological split reads no seed, and reads the window with no peak filter too,
    # as the rates are fitted on its periods. alpha-cv, which makes its own folds, and
    # analyze, which does not split, must agree with the record of the saved calls:
    # their zone and the peak window only
    out = tmp_path / "run"
    shutil.copytree(fitted_run, out)
    assert run(city, "preprocess", out, mode) == 0
    if callable(extra):
        extra(out / "manifest.json")
        extra = ()
    capsys.readouterr()
    assert run(city, sub, out, (*mode, *extra)) == code
    err = capsys.readouterr().err
    if code == 2:
        assert f"config error: {named}; rerun `emsdeploy preprocess` with this config" in err
    elif code == 3:
        assert named in err


@pytest.mark.parametrize("before, sub, flags, named, stage", [
    ((), "verify", ("--n_rows", "8", "--station_cells", "[1, 2]", "--speed_kmh", "30"),
     "n_rows is 8, but the grid.json record holds 6", "grid"),
    ((), "optimize", ("--alpha", "0.1"), "alpha is 0.1, but the uncertainty.json record holds 0.05", "fit"),
    ((), "fit", ("--period_length_s", "1800"),
     "period_length_s is 1800.0, but the demand_matrix.csv record holds 3600.0", "preprocess"),
    (("optimize",), "simulate", ("--n_ambulances", "3"),
     "n_ambulances is 3, but the deployment_stochastic.json record holds 4", "optimize"),
], ids=["verify-on-another-grid", "optimize-at-another-alpha", "fit-on-another-period", "simulate-another-fleet"])
def test_a_file_built_under_another_config_is_exit_2_naming_the_stage_to_rerun(city, fitted_run, tmp_path, capsys,
                                                                             before, sub, flags, named, stage):
    # each stage checks the record of every file it loads: the grid verify would snap
    # to, the uncertainty set optimize certifies, the periods fit takes rates per, and
    # the fleet the stationings were optimized for. The refused stage writes nothing
    out = tmp_path / "run"
    shutil.copytree(fitted_run, out)
    for stage_before in before:
        assert run(city, stage_before, out) == 0
    manifest = (out / "manifest.json").read_bytes()
    files = sorted(p.name for p in out.iterdir())
    capsys.readouterr()
    assert run(city, sub, out, flags) == 2
    assert f"config error: {named}; rerun `emsdeploy {stage}` with this config" in capsys.readouterr().err
    assert (out / "manifest.json").read_bytes() == manifest
    assert sorted(p.name for p in out.iterdir()) == files


def test_a_field_no_loaded_file_depends_on_is_not_checked(city, verified_run, tmp_path):
    # verify loads no file built with alpha: another alpha writes the same report
    out = tmp_path / "run"
    shutil.copytree(verified_run, out)
    report = (out / "verification.json").read_bytes()
    assert run(city, "verify", out, ("--alpha", "0.1")) == 0
    assert (out / "verification.json").read_bytes() == report


# the manifest records each stage loads from a fitted directory; fit and optimize build
# the demand matrix from the split, so they load it whatever the calibration kind
LOADS = {
    "preprocess": ("grid.json",),
    "fit": ("grid.json", "demand_matrix.csv", "calls_table.bin", "split"),
    "optimize": ("grid.json", "demand_matrix.csv", "calls_table.bin", "split", "uncertainty.json"),
    "verify": ("grid.json", "calls_table.bin", "split", "calibration.json"),
}
# the city's value of each field, or another, as a flag gives it
VALUES = {
    "n_rows": [6, 7], "station_cells": [[7, 10, 25, 28], [7, 10, 25]], "speed_kmh": [60.0, 30.0],
    "peak_start": ["08:00", "8:00", "09:00"], "peak_weekdays": [[4, 3, 2, 1, 0], [0, 1, 2, 3]],
    "train_fraction": [0.8, 0.7], "seed": [11, 8], "period_length_s": [3600.0, 1800.0],
    "snap_cells": [1.0, 2.0], "coverage_threshold_s": [600.0, 900.0], "alpha": [0.05, 0.1],
    "calibration_kind": ["loglog", "linear"], "trim_p": [0.01, 0.05], "m_scenarios": [20, 10],
    "n_ambulances": [4, 3], "verify_batch_size": [20, 10], "lognormal_mu": [3.65, 3.0],
}


def _as_read(name: str, value):
    """A field's value as the stages read it: 8:00 is 08:00, and the weekdays are a set."""
    if name == "peak_start":
        return time.fromisoformat(value.zfill(5)).strftime("%H:%M")
    return sorted(set(value)) if name == "peak_weekdays" else value


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sub=st.sampled_from(sorted(LOADS)),
       name_value=st.sampled_from([(name, value) for name, values in VALUES.items() for value in values]))
def test_a_stage_exits_2_iff_a_file_it_loads_was_built_with_another_value(city, fitted_run, tmp_path_factory, sub,
                                                                          name_value):
    name, value = name_value
    out = tmp_path_factory.mktemp("case") / "run"
    shutil.copytree(fitted_run, out)
    records = json.loads((out / "manifest.json").read_text())["config"]
    differs = [key for key in LOADS[sub] if name in records[key] and records[key][name] != _as_read(name, value)]
    err = io.StringIO()
    with redirect_stderr(err):
        code = run(city, sub, out, (f"--{name}", json.dumps(value) if isinstance(value, list) else str(value)))
    if differs:
        assert code == 2, err.getvalue()
        assert err.getvalue().startswith(f"config error: {name} is ")
    else:
        assert code == 0, err.getvalue()


def test_no_rule_builds_a_record_per_call(city, tmp_path, monkeypatch):
    """Every stage and rule works on a CallTable's columns, and a parse
    and the synthetic log fill them without records: building the table's
    records, which indexing or iterating it does, or any CallRecord fails
    the test."""

    def no_records(table):
        raise AssertionError(f"built the records of {len(table)} calls")

    def no_record(cls, *fields, **named):
        raise AssertionError("built a CallRecord")

    monkeypatch.setattr(CallTable, "records", no_records)
    monkeypatch.setattr(CallRecord, "__new__", no_record)
    # the station-ladder benchmark's set-up chain starts from a synthetic table
    grid = synth_grid(SynthConfig())
    synthetic = synth_calls(grid, 2000, seed=3)
    out = tmp_path / "run"
    for sub in COMMANDS:
        assert run(city, sub, out) == 0, f"{sub} failed"
    peak = (time(8), time(20), (0, 1, 2, 3, 4))
    train, _ = ingest.split_train_test(ingest.filter_peak(synthetic, *peak), 0.8)
    matrix = ingest.build_demand_matrix(train, grid, 3600.0, 1.0)
    assert ingest.select_periods(matrix, ingest.peak_period_mask(matrix, *peak)).counts.sum() > 0
    # the simulator on a parsed table, its batches sliced and resampled
    calls, _ = ingest.parse_calls(city["raw"]["calls_csv"])
    x = np.ones(len(grid.station_cells), dtype=np.int64)
    for resample in (False, True):
        comparison = simcore.compare_policies([("a", x), ("b", 2 * x)], calls, grid, simcore.SimParams(),
                                              n_calls=30, n_batches=3, seed=5, sample_with_replacement=resample)
        assert comparison.batch_means_s.shape == (3, 2)


def test_unknown_config_field_is_exit_2(city, tmp_path):
    assert run(city, "grid", tmp_path / "x", ("--no_such_field", "1")) == 2
    # a field that was removed is unknown too
    assert run(city, "grid", tmp_path / "x", ("--restrict_dispatch_to_coverage", "true")) == 2
    for removed in ("epsilon", "ccg_max_iter", "set_size_budget"):
        assert run(city, "grid", tmp_path / "x", (f"--{removed}", "1")) == 2


def test_bad_config_value_is_exit_2(city, tmp_path):
    assert run(city, "grid", tmp_path / "x", ("--alpha", "2.0")) == 2


@pytest.mark.parametrize("spoil, message", [("not-utf8", "config file"), ("directory", "cannot read config file")])
def test_unreadable_config_file_is_exit_2_naming_it(tmp_path, capsys, spoil, message):
    # refused as a config error, not a UnicodeDecodeError or IsADirectoryError traceback
    config = tmp_path / "config.json"
    if spoil == "not-utf8":
        config.write_bytes(b"\xff\xfe{}")
    else:
        config.mkdir()
    assert main(["grid", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
    assert f"config error: {message} {config}" in capsys.readouterr().err


@pytest.mark.parametrize("under", [False, True])
def test_out_that_cannot_be_a_directory_is_exit_2_naming_it(city, tmp_path, capsys, under):
    # --out naming a regular file, or a path under one: refused before any stage runs
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    out = taken / "run" if under else taken
    assert run(city, "grid", out) == 2
    assert f"config error: cannot make output directory {out}" in capsys.readouterr().err
    assert taken.read_text() == "a file\n"


@pytest.mark.parametrize("grid", ["[]", "[-0.1]", "[0.01, NaN]", "[Infinity]", '["a"]', "0.1"])
def test_bad_lambda_grid_is_exit_2(city, tmp_path, monkeypatch, grid):
    # refused while the config loads, before any stage parses the calls
    monkeypatch.setattr("emsdeploy.cli._load_calls", lambda out: pytest.fail("calls were loaded"))
    assert run(city, "analyze", tmp_path / "x", ("--lambda_grid", grid)) == 2


@pytest.mark.parametrize("name, value", [
    ("alphas", "5"), ("alphas", '["a"]'),
    ("station_cells", "5"), ("station_cells", "[0.5]"),
    ("hospital_cells", "5"), ("hospital_cells", '["a"]'),
    ("peak_weekdays", "5"), ("peak_weekdays", "[[0]]"),
])
def test_non_list_config_field_is_exit_2(city, tmp_path, name, value):
    # refused while the config loads, not with a TypeError in the first stage that iterates it
    assert run(city, "grid", tmp_path / "x", (f"--{name}", value)) == 2


@pytest.mark.parametrize("name, value", [
    ("lambda_grid", "[true, 0.1]"), ("station_cells", "[7, true]"),
    ("hospital_cells", "[false]"), ("peak_weekdays", "[true, 2]"),
])
def test_boolean_in_a_list_config_field_is_exit_2_naming_it(city, tmp_path, capsys, name, value):
    # a bool is an int to isinstance, but true is neither a lambda, a cell nor a weekday
    assert run(city, "grid", tmp_path / "x", (f"--{name}", value)) == 2
    assert f"config error: {name} must be a list of" in capsys.readouterr().err


@pytest.mark.parametrize("sub, name, value", [
    ("optimize", "n_ambulances", 2.5), ("grid", "n_rows", 6.0), ("grid", "n_rows", True),
    ("grid", "alpha", None), ("grid", "speed_kmh", True),
    ("grid", "peak_filter", 1), ("grid", "timezone", 5), ("grid", "calls_csv", 3),
])
def test_config_value_of_the_wrong_json_type_is_exit_2(city, tmp_path, sub, name, value):
    # refused while the config loads, not with a TypeError in validate or a stage
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**city["raw"], name: value}))
    assert main([sub, "--config", str(config), "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("name, value", [
    ("speed_kmh", math.nan), ("speed_kmh", math.inf), ("min_lat", -math.inf),
    ("coverage_threshold_s", math.nan), ("coverage_threshold_s", 0), ("lognormal_sigma", math.nan),
    ("lognormal_sigma", 0), ("period_length_s", 0), ("snap_cells", -5), ("snap_cells", math.nan),
    ("max_nodes", 0), ("n_calls", 0), ("n_batches", 0), ("verify_batch_size", 0), ("verify_n_batches", 0),
    ("cv_folds", 0), ("cv_folds", -2), ("cv_folds", 1), ("analysis_folds", 1), ("analysis_folds", 0),
    pytest.param("speed_kmh", 10**400, id="speed_kmh-integer-past-the-float-range"),
])
def test_non_finite_or_out_of_range_config_number_is_exit_2(city, tmp_path, name, value):
    # refused while the config loads, not turned into NaN outputs or a data error in a later stage
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**city["raw"], name: value}))
    assert main(["grid", "--config", str(config), "--out", str(tmp_path / "x")]) == 2


def test_config_values_take_the_types_of_their_fields():
    # an int is a number: in a float field it is read as that float, as a flag's 60 is
    cfg = load_config(None, {"alpha": 0.05, "speed_kmh": 60, "n_rows": 7, "peak_filter": False, "svi_csv": None})
    assert (cfg.alpha, cfg.speed_kmh, cfg.n_rows, cfg.peak_filter, cfg.svi_csv) == (0.05, 60.0, 7, False, None)
    assert isinstance(cfg.speed_kmh, float) and isinstance(cfg.n_rows, int)


def test_a_float_field_spelled_as_an_integer_writes_one_manifest(tmp_path):
    # {"speed_kmh": 60}, {"speed_kmh": 60.0} and --speed_kmh 60 are one config, so
    # they write one grid and one manifest, its record holding 60.0
    manifests = []
    for spelling, flags in ((60, ()), (60.0, ()), (None, ("--speed_kmh", "60"))):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({} if spelling is None else {"speed_kmh": spelling}))
        out = tmp_path / f"run{len(manifests)}"
        assert main(["grid", "--config", str(config), "--out", str(out), *flags]) == 0
        manifests.append((out / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1] == manifests[2]
    assert json.loads(manifests[0])["config"]["grid.json"]["speed_kmh"] == 60.0
    assert b'"speed_kmh": 60.0' in manifests[0]


def test_fleet_sweep_scores_a_stationing_as_simulate_does(city, fitted_run, tmp_path, monkeypatch):
    # at n = n_ambulances the sweep re-solves optimize's stationings, and its
    # one batch runner gives each the overall mean simulate gives it, to the bit
    out = tmp_path / "run"
    shutil.copytree(fitted_run, out)
    assert run(city, "optimize", out) == 0
    overall = []  # per compare_policies call, each stationing's overall mean
    inner = simcore.compare_policies

    def recorded(policies, *args, **kwargs):
        comparison = inner(policies, *args, **kwargs)
        overall.append({str(np.asarray(x).tolist()): m for (_, x), m in zip(policies, comparison.overall_mean_s)})
        return comparison

    monkeypatch.setattr(simcore, "compare_policies", recorded)
    assert run(city, "simulate", out) == 0
    assert run(city, "fleet-sweep", out) == 0
    simulated, swept = overall
    n = city["raw"]["n_ambulances"]
    with open(out / "fleet_sweep.csv", newline="") as f:
        (row,) = [row for row in csv.DictReader(f) if int(row["n"]) == n]
    for label in ("stochastic", "robust"):
        x = str(json.loads((out / f"deployment_{label}.json").read_text())["x"])
        assert swept[x] == simulated[x]
        assert row[f"{label}_mrt_min"] == f"{simulated[x] / 60.0:.4f}"


@pytest.mark.parametrize("window", [
    ("--peak_weekdays", "[7]"), ("--peak_weekdays", "[0, -1]"),
    ("--peak_start", "20:00", "--peak_end", "08:00"), ("--peak_start", "08:00", "--peak_end", "08:00"),
    ("--peak_weekdays", "[]"), ("--peak_filter", "false", "--peak_weekdays", "[]"),
])
def test_peak_window_that_holds_no_call_is_exit_2(city, tmp_path, capsys, window):
    # refused while the config loads, not as "0 calls remain" (exit 3) in preprocess
    assert run(city, "grid", tmp_path / "x") == 0
    capsys.readouterr()
    assert run(city, "preprocess", tmp_path / "x", window) == 2
    assert "config error: peak_" in capsys.readouterr().err


def test_unknown_timezone_is_exit_2(city, tmp_path):
    assert run(city, "preprocess", tmp_path / "x", ("--timezone", "Not/AZone")) == 2


def test_analysis_report_golden(city, tmp_path):
    # model order and every 4-decimal average MSE of the city fixture
    out = tmp_path / "analysis"
    assert run(city, "grid", out) == 0
    assert run(city, "preprocess", out) == 0
    assert run(city, "analyze", out) == 0
    assert (out / "analysis_report.csv").read_text() == (
        "Model,Variables,Average MSE\n"
        "Linear Regression,min.station.time + avg.station.time,1.3524\n"
        "Linear Regression,avg.station.time,1.3806\n"
        "Lasso,All 21 variables,2.3457\n"
        "Linear Regression,min.station.time,3.9968\n"
        "Mean in the train set,N/A,4.6058\n"
    )


def test_missing_calls_file_is_exit_3(tmp_path, capsys):
    # a calls_csv that is absent, or a directory, is refused naming it
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out"
    (tmp_path / "directory.csv").mkdir()
    for calls_csv in (tmp_path / "absent.csv", tmp_path / "directory.csv"):
        cfg.write_text(json.dumps({"calls_csv": str(calls_csv)}))
        assert main(["grid", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["preprocess", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(calls_csv) in err


@pytest.fixture(scope="module")
def fitted_run(city, tmp_path_factory):
    """An output directory through grid, preprocess and fit."""
    out = tmp_path_factory.mktemp("fitted") / "run"
    for sub in ("grid", "preprocess", "fit"):
        assert run(city, sub, out) == 0
    return out


@pytest.fixture(scope="module")
def verified_run(city, fitted_run, tmp_path_factory):
    """``fitted_run`` through optimize and verify too."""
    out = tmp_path_factory.mktemp("verified") / "run"
    shutil.copytree(fitted_run, out)
    for sub in ("optimize", "verify"):
        assert run(city, sub, out) == 0
    return out


def _drop_global_cap(doc):
    del doc["global_cap"]


def _short_single_caps(doc):
    doc["single_cap"] = doc["single_cap"][:-1]


def _negative_local_cap(doc):
    doc["local_cap"][0] = -1


def _fractional_regional_cap(doc):
    doc["regional_cap"][0] = 1.5


@pytest.mark.parametrize("spoil", [None, _drop_global_cap, _short_single_caps, _negative_local_cap,
                                   _fractional_regional_cap],
                         ids=["invalid-json", "missing-key", "cap-length", "negative-cap", "non-integer-cap"])
def test_malformed_uncertainty_set_is_exit_3(city, fitted_run, tmp_path, capsys, spoil):
    out = tmp_path / "run"
    shutil.copytree(fitted_run, out)
    path = out / "uncertainty.json"
    if spoil is None:
        path.write_text(path.read_text()[:-10])
    else:
        doc = json.loads(path.read_text())
        spoil(doc)
        path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(city, "optimize", out) == 3
    assert "uncertainty.json" in capsys.readouterr().err


def _csv_refuses(path: Path) -> bool:
    try:
        with open(path, newline="") as f:
            list(csv.reader(f))
    except csv.Error:
        return True
    return False


@pytest.mark.parametrize("longitude", ["-97." + "9" * 140_000, "-97.6\0"], ids=["over-the-field-limit", "nul"])
def test_a_call_log_csv_refuses_is_exit_3(city, tmp_path, capsys, longitude):
    # csv refuses a field longer than csv.field_size_limit(), and before
    # Python 3.11 a NUL; a log it reads goes through, its bad row dropped
    lines = Path(city["raw"]["calls_csv"]).read_text().splitlines(keepends=True)
    header = lines[0].rstrip("\r\n").split(",")
    row = lines[2].rstrip("\r\n").split(",")
    row[header.index("longitude")] = longitude
    lines[2] = ",".join(row) + "\r\n"
    log = tmp_path / "calls.csv"
    log.write_text("".join(lines), newline="")
    capsys.readouterr()
    code = run(city, "grid", tmp_path / "run")
    assert code == 0
    code = run(city, "preprocess", tmp_path / "run", ("--calls_csv", str(log)))
    if _csv_refuses(log):
        assert code == 3
        err = capsys.readouterr().err
        assert f"{log}: line 3:" in err
    else:
        assert code == 0
        summary = json.loads((tmp_path / "run" / "preprocess_summary.json").read_text())
        assert summary["drop_reasons"] == {"bad_coordinates": 1}


def _spoil_line(line: int, spoil):
    def spoil_line(path: Path) -> None:
        lines = path.read_text().splitlines()
        lines[line - 1] = ",".join(spoil(lines[line - 1].split(",")))
        path.write_text("\n".join(lines) + "\n")
    return spoil_line


def _not_utf8(path: Path) -> None:
    path.write_bytes(b"\xff\xfe0,1\n")  # a UTF-16 byte-order mark: \xff never starts a UTF-8 character


@pytest.mark.parametrize("spoil", [
    _spoil_line(3, lambda row: row[:-1]),
    _spoil_line(2, lambda row: row[:1] + ["1.5"] + row[2:]),
    _not_utf8,
], ids=["row-width", "non-integer-count", "not-utf8"])
def test_no_stage_reads_the_demand_matrix_file(city, tmp_path, monkeypatch, spoil):
    # preprocess writes demand_matrix.csv as its report; the stages that need the
    # matrix build it again from the split, so a spoiled file changes no output
    def no_read(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(ingest, "load_demand_matrix", no_read)
    intact = tmp_path / "intact"
    for sub in COMMANDS:
        assert run(city, sub, intact) == 0, f"{sub} failed"
    out = tmp_path / "spoiled"
    shutil.copytree(intact, out)
    spoil(out / "demand_matrix.csv")
    for sub in ("fit", "optimize", "fleet-sweep"):
        assert run(city, sub, out) == 0, f"{sub} failed"
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in intact.iterdir())
    for p in intact.iterdir():
        if p.name != "demand_matrix.csv":
            assert (out / p.name).read_bytes() == p.read_bytes(), p.name


@pytest.mark.parametrize("name, text, sub", [
    ("calibration.json", "{not json", "verify"),
    ("calibration.json", "{}", "verify"),
    ("calibration.json", lambda doc: {**doc, "kind": "cubic"}, "verify"),
    ("deployment_robust.json", "{}", "simulate"),
    ("grid.json", "{}", "verify"),
    ("grid.json", "[1]", "verify"),
    ("grid.json", b"\xff{}", "verify"),
    ("grid_travel.csv", None, "verify"),
    ("grid.json", lambda doc: {**doc, "bounds": [1, 2]}, "verify"),
    ("verification.json", "{not json", "plotdata"),
    ("verification.json", "{}", "plotdata"),
    ("manifest.json", "{not json", "verify"),
    ("manifest.json", '{"config": {"split": [1]}, "files": {}}', "verify"),
    ("calls_table.bin", None, "verify"),
    ("calls_table.bin", b"", "verify"),
    ("calls_table.bin", slice(40), "verify"),
    ("calls_table.bin", slice(-8), "verify"),
    ("calls_table.bin", "datetime,latitude,longitude\n", "verify"),
], ids=["calibration-invalid-json", "calibration-empty", "calibration-unknown-kind", "deployment-empty", "grid-empty", "grid-list", "grid-not-utf8",
        "grid-travel-missing", "grid-two-bounds", "verification-invalid-json", "verification-empty",
        "manifest-invalid-json", "manifest-split-list", "calls-table-missing", "calls-table-empty",
        "calls-table-truncated-header", "calls-table-truncated-data", "calls-table-not-numpy"])
def test_malformed_run_directory_file_is_exit_3(city, verified_run, tmp_path, capsys, name, text, sub):
    out = tmp_path / "run"
    shutil.copytree(verified_run, out)
    if text is None:
        (out / name).unlink()
    elif isinstance(text, slice):  # a cut of the file's bytes
        (out / name).write_bytes((out / name).read_bytes()[text])
    elif callable(text):  # a change to the file's JSON document
        (out / name).write_text(json.dumps(text(json.loads((out / name).read_text()))))
    elif isinstance(text, bytes):
        (out / name).write_bytes(text)
    else:
        (out / name).write_text(text)
    capsys.readouterr()
    assert run(city, sub, out) == 3
    assert name in capsys.readouterr().err


def _spoil_first_row(path: Path, column: str, value: str) -> None:
    rows = list(csv.reader(path.read_text().splitlines()))
    rows[1][rows[0].index(column)] = value
    path.write_text("".join(",".join(row) + "\n" for row in rows))


def _add_row(row: str):
    return lambda path: path.write_text(path.read_text() + row + "\n")


@pytest.mark.parametrize("field, spoil, sub, named", [
    ("svi_csv", None, "analyze", None),
    ("svi_csv", lambda path: _spoil_first_row(path, "E_POV", "many"), "analyze", None),
    ("svi_csv", _not_utf8, "analyze", None),
    ("tract_map_csv", None, "analyze", None),
    ("tract_map_csv", lambda path: _spoil_first_row(path, "cell_index", "1.5"), "analyze", None),
    ("tract_map_csv", _not_utf8, "analyze", None),
    ("tract_map_csv", _add_row("99,T00"), "analyze", "cell 99 "),
    ("tract_map_csv", _add_row("-1,T00"), "analyze", "cell -1 "),
    ("travel_matrix_csv", None, "grid", None),
    ("travel_matrix_csv", _not_utf8, "grid", None),
    ("calls_csv", _not_utf8, "preprocess", None),
], ids=["svi-missing", "svi-non-number", "svi-not-utf8", "tract-map-missing", "tract-map-non-integer-cell",
        "tract-map-not-utf8", "tract-map-cell-past-grid", "tract-map-negative-cell", "travel-matrix-missing",
        "travel-matrix-not-utf8", "calls-not-utf8"])
def test_malformed_config_named_file_is_exit_3(city, tmp_path, capsys, field, spoil, sub, named):
    # the error names the file, or the tract map's cell outside the grid
    path = tmp_path / f"{field}.csv"
    if spoil is not None:
        if field in city["raw"]:
            shutil.copy(city["raw"][field], path)
        spoil(path)
    out = tmp_path / "run"
    assert run(city, "grid", out) == 0
    if sub == "analyze":
        assert run(city, "preprocess", out) == 0
    capsys.readouterr()
    assert run(city, sub, out, (f"--{field}", str(path))) == 3
    assert (named or str(path)) in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["linear", "identity"])
def test_each_calibration_kind_runs_fit_through_plotdata(city, tmp_path, kind):
    out = tmp_path / "run"
    for sub in ("grid", "preprocess", "fit", "optimize", "simulate", "verify", "plotdata"):
        assert run(city, sub, out, ("--calibration_kind", kind)) == 0, f"{sub} failed"
    model = json.loads((out / "calibration.json").read_text())
    assert model["kind"] == kind
    if kind == "identity":
        assert (model["a"], model["b"], model["n_used"]) == (0.0, 1.0, 0)
    else:
        records = _city_split(city)[0].records()
        a, b, n_used = reference_calibration_fit(records, geogrid.load_grid(out / "grid.json"), kind, model["trim_p"])
        assert model["n_used"] == n_used > 0
        assert model["a"] == pytest.approx(a, rel=1e-9, abs=1e-9)
        assert model["b"] == pytest.approx(b, rel=1e-9, abs=1e-9)
    with open(out / "plot_regression_scatter.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert rows
    if kind == "identity":
        assert all(row["adjusted_s"] == row["grid_s"] for row in rows)
    assert json.loads((out / "verification.json").read_text())["n_batches"] == city["raw"]["verify_n_batches"]


def test_missing_upstream_names_prior_subcommand(city, tmp_path, capsys):
    out = tmp_path / "fresh"
    assert run(city, "grid", out) == 0
    code = run(city, "simulate", out)
    assert code == 3
    err = capsys.readouterr().err
    assert "emsdeploy" in err and ("preprocess" in err or "fit" in err or "optimize" in err)


def test_deployment_over_fleet_bound_is_exit_3(city, fitted_run, tmp_path, capsys):
    # a deployment edited by hand to place one unit more than the fleet it was optimized for
    out = tmp_path / "fleet"
    shutil.copytree(fitted_run, out)
    assert run(city, "optimize", out) == 0
    path = out / "deployment_robust.json"
    optimized = path.read_text()
    doc = json.loads(optimized)
    assert sum(doc["x"]) == city["raw"]["n_ambulances"]
    doc["x"][0] += 1
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(city, "simulate", out) == 3
    err = capsys.readouterr().err
    assert "fleet bound" in err and "deployment_robust.json" in err
    assert not (out / "sim_comparison.json").exists()
    path.write_text(optimized)
    assert run(city, "simulate", out) == 0


@pytest.mark.parametrize("x", [[1.9, 0.9, 0.9, 0.9], ["1", "1", "1", "1"], [True, 1, 1, 1], [1e30, 0, 0, 0]])
def test_a_stationing_entry_that_is_not_an_integer_is_exit_3(city, verified_run, tmp_path, capsys, x):
    # a float, a string or a bool in a hand-edited deployment was truncated,
    # parsed or read as 1 and simulated, and 1e30 overflowed in a traceback
    out = tmp_path / "run"
    shutil.copytree(verified_run, out)
    path = out / "deployment_stochastic.json"
    doc = json.loads(path.read_text())
    doc["x"] = x
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(city, "simulate", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "deployment_stochastic.json" in err and "integer" in err
    assert not (out / "sim_comparison.json").exists()


@pytest.mark.parametrize("mu", ["1000", "700"])
def test_on_scene_times_that_overflow_are_exit_2(city, fitted_run, tmp_path, capsys, mu):
    # at mu 1000 a draw overflows math.exp; at mu 700 each draw is finite,
    # but the times a unit frees at are not
    out = tmp_path / "run"
    shutil.copytree(fitted_run, out)
    assert run(city, "optimize", out) == 0
    capsys.readouterr()
    assert run(city, "simulate", out, ("--lognormal_mu", mu)) == 2
    err = capsys.readouterr().err
    assert f"lognormal_mu={float(mu)}" in err and "lognormal_sigma=" in err
    assert not (out / "sim_comparison.json").exists()


@pytest.mark.parametrize("sub, name, value, named", [
    ("optimize", "m_scenarios", "100000000", "m_scenarios=100000000"),  # 3.6e9 counts: 26.8 GiB of int64
    ("preprocess", "period_length_s", "1e-3", "period_length_s=0.001"),  # 1.3e11 periods
])
def test_a_size_over_its_limit_is_exit_2_naming_the_field(city, fitted_run, tmp_path, capsys, sub, name, value, named):
    out = tmp_path / "run"
    shutil.copytree(fitted_run, out)
    capsys.readouterr()
    assert run(city, sub, out, (f"--{name}", value)) == 2
    assert f"config error: {named} " in capsys.readouterr().err


@pytest.mark.parametrize("before, sub, flags, named", [
    ((), "grid", ("--n_rows", "528"), "n_rows=528"),  # 3168 cells, 1.004e7 travel times: just over the limit
    ((), "alpha-cv", ("--cv_folds", "1000000000000"), "cv_folds=1000000000000"),
    (("optimize",), "simulate", ("--n_calls", "1000000000000", "--sample_with_replacement", "true"),
     "n_calls=1000000000000"),
    ((), "fleet-sweep", ("--n_calls", "1000000000000", "--sample_with_replacement", "true"),
     "n_calls=1000000000000"),
])
def test_a_count_over_its_limit_is_exit_2_before_it_allocates(city, fitted_run, tmp_path, capsys, before, sub,
                                                              flags, named):
    # a grid's travel times, more folds than calls, and resampled batches are
    # refused before anything that grows with them is built
    out = tmp_path / "run"
    shutil.copytree(fitted_run, out)
    for stage in before:
        assert run(city, stage, out) == 0
    capsys.readouterr()
    assert run(city, sub, out, flags) == 2
    assert f"config error: {named} " in capsys.readouterr().err


def test_a_node_cap_keeps_the_fleet(city, fitted_run, tmp_path):
    out = tmp_path / "run"
    shutil.copytree(fitted_run, out)
    assert run(city, "optimize", out, ("--max_nodes", "1")) == 0
    for name in ("deployment_stochastic.json", "deployment_robust.json"):
        assert sum(json.loads((out / name).read_text())["x"]) == city["raw"]["n_ambulances"]
    assert run(city, "fleet-sweep", out, ("--max_nodes", "2")) == 0


def test_seed_flag_overrides_config(city, tmp_path, monkeypatch):
    seeds = []
    cmd_grid = COMMANDS["grid"]
    monkeypatch.setitem(COMMANDS, "grid", lambda cfg, out: seeds.append(cfg.seed) or cmd_grid(cfg, out))
    assert run(city, "grid", tmp_path / "s", ("--seed", "99")) == 0
    assert seeds == [99]


def _grid_and_preprocess(tmp_path, text: bytes, **config) -> int:
    """grid and then preprocess on a call log of ``text``; preprocess's exit code."""
    calls_csv = tmp_path / "calls.csv"
    calls_csv.write_bytes(text)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**config, "calls_csv": str(calls_csv)}))
    out = tmp_path / "out"
    assert main(["grid", "--config", str(cfg), "--out", str(out)]) == 0
    return main(["preprocess", "--config", str(cfg), "--out", str(out)])


def test_a_period_start_past_year_9999_is_exit_3_naming_it(tmp_path, capsys):
    # the 18:00 start in Chicago is 10000-01-01T00:00Z, which no datetime holds
    rows = "".join(f"9999-12-31T{t},30.2,-97.7\n" for t in ("21:00:00", "22:30:00", "23:30:00"))
    code = _grid_and_preprocess(tmp_path, ("datetime,latitude,longitude\n" + rows).encode(),
                                timezone="America/Chicago", peak_filter=False)
    assert code == 3
    assert ("data error: period start 18, 64800.0 s after the first call's midnight 9999-12-31T00:00:00-06:00, "
            "lies outside the years 1 to 9999 a datetime holds") in capsys.readouterr().err


def test_a_period_length_past_the_float_microseconds_is_exit_2(tmp_path, capsys):
    # 1e308 s is a finite float, but not in microseconds
    rows = "".join(f"2024-01-01T0{h}:00:00,30.2,-97.7\n" for h in (1, 2, 3))
    code = _grid_and_preprocess(tmp_path, ("datetime,latitude,longitude\n" + rows).encode(),
                                period_length_s=1e308, peak_filter=False)
    assert code == 2
    assert "config error: period_length_s=1e+308 is not a finite number of microseconds" in capsys.readouterr().err


def test_a_byte_order_mark_before_the_header_keeps_the_parse(city, tmp_path):
    # spreadsheets save "CSV UTF-8" with a byte-order mark: the log parses to
    # the same call table with and without one, plain and with every field quoted
    text = Path(city["raw"]["calls_csv"]).read_bytes()
    quoted = io.StringIO(newline="")
    csv.writer(quoted, quoting=csv.QUOTE_ALL).writerows(csv.reader(io.StringIO(text.decode(), newline="")))
    tables = []
    for log in (text, quoted.getvalue().encode()):
        for bom in (b"", codecs.BOM_UTF8):
            case = tmp_path / f"case{len(tables)}"
            case.mkdir()
            assert _grid_and_preprocess(case, bom + log, **city["raw"]) == 0
            tables.append((case / "out" / "calls_table.bin").read_bytes())
    assert len(set(tables)) == 1


def test_solver_failure_is_exit_4(tmp_path):
    # every call in the same cell makes the calibration regressor constant
    header = "datetime,latitude,longitude,travel_time_s,amb_latitude,amb_longitude\n"
    rows = [
        f"2024-01-0{1 + i // 4}T{9 + i % 4}:00:00,30.125,-97.875,{100 + i},30.325,-97.625\n"
        for i in range(16)
    ]
    calls_csv = tmp_path / "calls.csv"
    calls_csv.write_text(header + "".join(rows))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"calls_csv": str(calls_csv), "trim_p": 0.0}))
    out = tmp_path / "out"
    assert main(["grid", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["preprocess", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 4


def test_a_failed_stage_leaves_no_record_of_a_file_it_rewrote(tmp_path, capsys):
    # on the log of test_solver_failure_is_exit_4, an identity fit succeeds; a loglog
    # fit at another alpha rewrites uncertainty.json, then fails on the calibration.
    # The file is no longer the one the manifest records, so optimize at the old
    # alpha refuses it rather than labelling its worst case with the old alpha
    header = "datetime,latitude,longitude,travel_time_s,amb_latitude,amb_longitude\n"
    rows = [
        f"2024-01-0{1 + i // 4}T{9 + i % 4}:00:00,30.125,-97.875,{100 + i},30.325,-97.625\n"
        for i in range(16)
    ]
    calls_csv = tmp_path / "calls.csv"
    calls_csv.write_text(header + "".join(rows))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"calls_csv": str(calls_csv), "trim_p": 0.0}))
    out = tmp_path / "out"
    for sub, flags, code in (("grid", (), 0), ("preprocess", (), 0), ("fit", ("--calibration_kind", "identity"), 0),
                             ("fit", ("--alpha", "0.05"), 4)):
        assert main([sub, "--config", str(cfg), "--out", str(out), *flags]) == code, sub
    manifest = json.loads((out / "manifest.json").read_text())
    assert "uncertainty.json" not in manifest["files"] and "uncertainty.json" not in manifest["config"]
    assert manifest["config"]["calibration.json"] == {"calibration_kind": "identity"}
    capsys.readouterr()
    assert main(["optimize", "--config", str(cfg), "--out", str(out), "--calibration_kind", "identity"]) == 3
    err = capsys.readouterr().err
    assert "no record of uncertainty.json in" in err and "rerun `emsdeploy fit`" in err
    assert not (out / "deployment_robust.json").exists()


def test_load_config_defaults_and_validation():
    cfg = load_config(None, {})
    assert isinstance(cfg, RunConfig)
    with pytest.raises(ConfigError):
        load_config(None, {"calibration_kind": "teleport"})
    with pytest.raises(ConfigError):
        load_config(None, {"n_rows": "0"})
    cfg2 = load_config(None, {"station_cells": "[1, 2]", "peak_filter": "false"})
    assert cfg2.station_cells == [1, 2]
    assert cfg2.peak_filter is False


@pytest.mark.parametrize("name, value", [
    ("travel_provider", "synthetic"), ("rate_periods", "peak"), ("sweep_robust", True),
    ("shortfall_threshold_s", 600.0), ("split_mode", "kfold"), ("split_k", 5), ("split_fold", 0),
])
def test_removed_config_field_is_exit_2(tmp_path, capsys, name, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({name: value}))
    with pytest.raises(ConfigError, match=f"^unknown config field: {name}$"):
        load_config(str(config), {})
    assert main(["grid", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
    assert f"config error: unknown config field: {name}\n" in capsys.readouterr().err


def test_travel_matrix_file_selects_the_matrix(city, tmp_path):
    # travel_matrix_csv alone builds the grid on that matrix, not on the fixed speed
    synthetic = tmp_path / "synthetic"
    assert run(city, "grid", synthetic) == 0
    matrix = tmp_path / "m.csv"
    with open(synthetic / "grid_travel.csv", newline="") as f, open(matrix, "w", newline="") as doubled:
        csv.writer(doubled).writerows([repr(2 * float(v)) for v in row] for row in csv.reader(f))
    out = tmp_path / "run"
    assert run(city, "grid", out, ("--travel_matrix_csv", str(matrix))) == 0
    assert (out / "grid_travel.csv").read_bytes() == matrix.read_bytes()


@pytest.mark.parametrize("peak_filter", ["true", "false"])
def test_rates_are_fitted_on_peak_window_periods(city, tmp_path, peak_filter):
    # the demand matrix keeps the periods that start in the peak window, whether or not the calls were filtered
    out = tmp_path / "run"
    assert run(city, "grid", out) == 0
    assert run(city, "preprocess", out, ("--peak_filter", peak_filter)) == 0
    with open(out / "demand_matrix.csv", newline="") as f:
        starts = [datetime.fromisoformat(row[0]) for row in list(csv.reader(f))[1:]]
    assert starts
    assert all(s.weekday() < 5 and 8 <= s.hour < 20 for s in starts)


@pytest.mark.parametrize("flags", [(), ("--timezone", "America/Chicago", "--period_length_s", "1800")],
                         ids=["utc", "chicago-across-dst"])
def test_the_stages_build_the_demand_matrix_preprocess_wrote(city, tmp_path, monkeypatch, flags):
    # fit, optimize and fleet-sweep build the matrix again from the split: the one
    # preprocess wrote, to its period starts and their UTC offsets
    if flags:
        # a log over the start of US DST, 2024-03-10 in Chicago, its stamps in local
        # time without their offsets, so the parse reads them in the config's zone
        cfg = SynthConfig(start=datetime(2024, 3, 6, 8, tzinfo=ZoneInfo("America/Chicago")))
        log = tmp_path / "calls.csv"
        serialize_calls(synth_calls(synth_grid(cfg), 300, seed=7, cfg=cfg), log)
        header, *rows = log.read_text().splitlines(keepends=True)
        log.write_text(header + "".join(row[:row.index(",") - 6] + row[row.index(","):] for row in rows), newline="")
        flags = (*flags, "--calls_csv", str(log))
    seen = []

    def recording(fn):
        def record(matrix, *args):
            seen.append(matrix)
            return fn(matrix, *args)
        return record

    monkeypatch.setattr(demand, "fit_rates", recording(demand.fit_rates))
    monkeypatch.setattr(stochastic, "sample_scenarios", recording(stochastic.sample_scenarios))
    out = tmp_path / "run"
    for sub in ("grid", "preprocess", "fit", "optimize", "fleet-sweep"):
        assert run(city, sub, out, flags) == 0, f"{sub} failed"
    saved = ingest.load_demand_matrix(out / "demand_matrix.csv")
    if flags:
        assert set(saved.start_offset_us.tolist()) == {-6 * 3600 * 10**6, -5 * 3600 * 10**6}
    assert len(seen) == 3
    for matrix in seen:
        assert np.array_equal(matrix.counts, saved.counts)
        assert matrix.start_wall_us.tolist() == saved.start_wall_us.tolist()
        assert matrix.start_offset_us.tolist() == saved.start_offset_us.tolist()
