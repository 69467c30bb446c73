import json
import math
import os
import shutil
import subprocess
import sys
from datetime import time
from pathlib import Path

import numpy as np
import pytest

import emsdeploy
from emsdeploy import geogrid, ingest, simcore
from emsdeploy.cli import COMMANDS, RunConfig, load_config, main
from emsdeploy.errors import ConfigError
from emsdeploy.ingest import CallTable, serialize_calls
from emsdeploy.synth import SynthConfig, synth_calls, synth_grid, synth_tracts, write_svi_csv, write_tract_map_csv


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
        "grid.json", "grid_travel.csv", "calls_train.csv", "calls_test.csv",
        "demand_matrix.csv", "preprocess_summary.json", "rates.json",
        "uncertainty.json", "calibration.json", "deployment_stochastic.json",
        "deployment_robust.json", "ccg_history.csv", "sim_comparison.json",
        "event_log_stochastic.csv", "event_log_robust.csv", "verification.json",
        "fleet_sweep.csv", "analysis_report.csv", "analysis_details.json",
        "plot_temporal_heatmap.csv", "plot_spatial_heatmap.csv",
        "plot_regression_scatter.csv", "plot_verification_points.csv",
        "plot_stationing_stochastic.csv", "plot_stationing_robust.csv",
        "manifest.json", "config_resolved.json",
    ):
        assert (out / name).exists(), name

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


def test_rerun_in_a_fresh_process_reads_the_kept_parses(city, tmp_path):
    out = tmp_path / "run"
    for sub in ("grid", "preprocess", "fit", "optimize", "simulate"):
        assert run(city, sub, out) == 0
    assert sorted(p.name for p in out.iterdir() if p.name.startswith(".")) == [
        ".calls.csv.parse", ".calls_test.csv.parse", ".calls_train.csv.parse",
    ]
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    package_root = str(Path(emsdeploy.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")]),
           "EMSDEPLOY_LOG": "INFO"}
    for sub, log_name in (("preprocess", "calls.csv"), ("simulate", "calls_test.csv")):
        done = subprocess.run(
            [sys.executable, "-m", "emsdeploy", sub, "--config", str(city["config"]), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        reads = [line for line in done.stderr.splitlines() if line.startswith("INFO emsdeploy.ingest:")]
        assert len(reads) == 1 and reads[0].startswith(f"INFO emsdeploy.ingest: {log_name}: ")
        assert reads[0].endswith(" rows, read from its kept parse")
    # the kept parses were read, not written, and every output is byte-identical
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_alpha_cv_table_shape(city, tmp_path):
    out = tmp_path / "cv"
    assert run(city, "grid", out) == 0
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
    # each test-fold record is snapped once, however many runs use it
    fold_sizes = {seed: n for seed, _, n in runs}
    assert sum(snapped) == sum(fold_sizes.values())


def test_no_rule_builds_a_record_per_call(city, tmp_path, monkeypatch):
    """Every stage and rule works on a CallTable's columns: building the
    table's records, which indexing or iterating it does, fails the test."""

    def no_records(table):
        raise AssertionError(f"built the records of {len(table)} calls")

    monkeypatch.setattr(CallTable, "records", no_records)
    out = tmp_path / "run"
    for sub in COMMANDS:
        assert run(city, sub, out) == 0, f"{sub} failed"
    # the station-ladder benchmark's set-up chain on a synthetic table
    peak = (time(8), time(20), (0, 1, 2, 3, 4))
    grid = synth_grid(SynthConfig())
    train, _ = ingest.split_train_test(ingest.filter_peak(synth_calls(grid, 2000, seed=3), *peak), 0.8)
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


@pytest.mark.parametrize("grid", ["[]", "[-0.1]", "[0.01, NaN]", "[Infinity]", '["a"]', "0.1"])
def test_bad_lambda_grid_is_exit_2(city, tmp_path, monkeypatch, grid):
    # refused while the config loads, before any stage parses the calls
    monkeypatch.setattr("emsdeploy.cli._parse_calls", lambda cfg: pytest.fail("calls were parsed"))
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
    ("speed_kmh", math.nan), ("speed_kmh", math.inf), ("min_lat", -math.inf), ("shortfall_threshold_s", math.inf),
    ("coverage_threshold_s", math.nan), ("coverage_threshold_s", 0), ("lognormal_sigma", math.nan),
    ("lognormal_sigma", 0), ("period_length_s", 0), ("snap_cells", -5), ("snap_cells", math.nan),
    ("max_nodes", 0), ("n_calls", 0), ("n_batches", 0), ("verify_batch_size", 0), ("verify_n_batches", 0),
    ("cv_folds", 0), ("cv_folds", -2), ("cv_folds", 1), ("analysis_folds", 1), ("analysis_folds", 0),
])
def test_non_finite_or_out_of_range_config_number_is_exit_2(city, tmp_path, name, value):
    # refused while the config loads, not turned into NaN outputs or a data error in a later stage
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**city["raw"], name: value}))
    assert main(["grid", "--config", str(config), "--out", str(tmp_path / "x")]) == 2


def test_config_values_keep_their_json_type():
    # an int is a number: kept as given, so the resolved config reads as written
    cfg = load_config(None, {"alpha": 0.05, "speed_kmh": 60, "n_rows": 7, "sweep_robust": False, "svi_csv": None})
    assert (cfg.alpha, cfg.speed_kmh, cfg.n_rows, cfg.sweep_robust, cfg.svi_csv) == (0.05, 60, 7, False, None)
    assert isinstance(cfg.speed_kmh, int)


@pytest.mark.parametrize("window", [
    ("--peak_weekdays", "[7]"), ("--peak_weekdays", "[0, -1]"),
    ("--peak_start", "20:00", "--peak_end", "08:00"), ("--peak_start", "08:00", "--peak_end", "08:00"),
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
    assert run(city, "analyze", out) == 0
    assert (out / "analysis_report.csv").read_text() == (
        "Model,Variables,Average MSE\n"
        "Linear Regression,min.station.time + avg.station.time,1.3524\n"
        "Linear Regression,avg.station.time,1.3806\n"
        "Lasso,All 21 variables,2.3457\n"
        "Linear Regression,min.station.time,3.9968\n"
        "Mean in the train set,N/A,4.6058\n"
    )


def test_missing_calls_file_is_exit_3(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"calls_csv": str(tmp_path / "absent.csv")}))
    out = tmp_path / "out"
    assert main(["grid", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["preprocess", "--config", str(cfg), "--out", str(out)]) == 3


@pytest.fixture(scope="module")
def fitted_run(city, tmp_path_factory):
    """An output directory through grid, preprocess and fit."""
    out = tmp_path_factory.mktemp("fitted") / "run"
    for sub in ("grid", "preprocess", "fit"):
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


@pytest.mark.parametrize("line, spoil", [(3, lambda row: row[:-1]), (2, lambda row: row[:1] + ["1.5"] + row[2:])],
                         ids=["row-width", "non-integer-count"])
def test_malformed_demand_matrix_is_exit_3(city, fitted_run, tmp_path, capsys, line, spoil):
    out = tmp_path / "run"
    shutil.copytree(fitted_run, out)
    path = out / "demand_matrix.csv"
    lines = path.read_text().splitlines()
    lines[line - 1] = ",".join(spoil(lines[line - 1].split(",")))
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(city, "fit", out) == 3
    err = capsys.readouterr().err
    assert "demand_matrix.csv" in err and f"line {line}:" in err


def test_missing_upstream_names_prior_subcommand(city, tmp_path, capsys):
    out = tmp_path / "fresh"
    assert run(city, "grid", out) == 0
    code = run(city, "simulate", out)
    assert code == 3
    err = capsys.readouterr().err
    assert "emsdeploy" in err and ("preprocess" in err or "fit" in err or "optimize" in err)


def test_deployment_over_fleet_bound_is_exit_3(city, tmp_path, capsys):
    out = tmp_path / "fleet"
    for sub in ("grid", "preprocess", "fit", "optimize"):
        assert run(city, sub, out) == 0
    placed = max(
        sum(json.loads((out / name).read_text())["x"])
        for name in ("deployment_stochastic.json", "deployment_robust.json")
    )
    assert placed >= 1
    capsys.readouterr()
    assert run(city, "simulate", out, ("--n_ambulances", str(placed - 1))) == 3
    assert "fleet bound" in capsys.readouterr().err
    assert not (out / "sim_comparison.json").exists()
    assert run(city, "simulate", out, ("--n_ambulances", str(placed))) == 0


def test_seed_flag_overrides_config(city, tmp_path):
    out = tmp_path / "s"
    assert run(city, "grid", out, ("--seed", "99")) == 0
    resolved = json.loads((out / "config_resolved.json").read_text())
    assert resolved["seed"] == 99


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


def test_plotdata_with_empty_calls_writes_headers(city, tmp_path):
    out = tmp_path / "empty"
    for sub in ("grid", "preprocess", "fit", "optimize", "simulate", "verify"):
        assert run(city, sub, out) == 0
    empty_csv = tmp_path / "none.csv"
    empty_csv.write_text("datetime,latitude,longitude\n")
    assert run(city, "plotdata", out, ("--calls_csv", str(empty_csv))) == 0
    temporal = (out / "plot_temporal_heatmap.csv").read_text().strip().split("\n")
    assert temporal[0] == "weekday,hour,count"
    assert all(line.endswith(",0") for line in temporal[1:])
    spatial = (out / "plot_spatial_heatmap.csv").read_text().strip().split("\n")
    assert spatial[0] == "cell,lat,lon,count"


def test_custom_column_schema(tmp_path):
    from emsdeploy.ingest import CallSchema, parse_calls

    path = tmp_path / "renamed.csv"
    path.write_text("when,lat,lng\n2024-01-01T09:00:00,30.1,-97.6\n")
    schema = CallSchema(columns={**CallSchema().columns,
                                 "datetime": "when", "latitude": "lat", "longitude": "lng"})
    records, report = parse_calls(path, schema)
    assert len(records) == 1 and report.n_dropped == 0


def test_load_config_defaults_and_validation():
    cfg = load_config(None, {})
    assert isinstance(cfg, RunConfig)
    with pytest.raises(ConfigError):
        load_config(None, {"travel_provider": "teleport"})
    with pytest.raises(ConfigError):
        load_config(None, {"n_rows": "0"})
    cfg2 = load_config(None, {"station_cells": "[1, 2]", "peak_filter": "false"})
    assert cfg2.station_cells == [1, 2]
    assert cfg2.peak_filter is False
