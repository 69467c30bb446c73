"""Command-line pipeline: grid, preprocess, fit, optimize, simulate,
verify, alpha-cv, fleet-sweep, analyze, plotdata.

Every subcommand reads a flat JSON config (any field overridable with
``--key value``), writes its outputs under ``--out`` and replaces their
entries in the directory's ``manifest.json``: each file's SHA-256, and for
each run-directory file a later stage loads, the config fields its bytes
depend on and their values (``_depends``). Reruns with the same config are
byte-identical. Exit codes: 0 ok, 2 config error, 3 data error, 4 solver
failure.

Each run-directory file has one loader, which checks the file's record
against the config before it loads the file (``_require``): a field that
differs is a config error naming both values and the stage to rerun, and a
missing record a data error. A field no loaded file depends on is not
checked. Only preprocess reads ``calls_csv``: it parses the log once and
saves the parse as ``calls_table.bin``, which every later stage loads
(``_load_calls``). No stage writes a call log: ``_read_split`` derives the
peak-hour train/test split again wherever a stage needs it, under
preprocess's record of the split. No stage reads ``demand_matrix.csv``,
preprocess's report of the matrix: fit, optimize and fleet-sweep check its
record and build the matrix again from the split's train calls
(``_load_matrix``). The stages work on the ``ingest.CallTable`` of the
parse, column by column, and hand the simulator that table as it is; no
stage builds a record per call.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, field
from datetime import time
from pathlib import Path
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

import numpy as np

from . import analysis, calibrate, demand, geogrid, ingest, robust, simcore, stochastic
from .dispatchflow import Deployment, EdgeSet, ScenarioEvaluator, edges_from_coverage
from .errors import ConfigError, DataError, EmsDeployError, SolverError, read_json, write_csv, write_json
from .rng import derive_seed

log = logging.getLogger("emsdeploy")


@dataclass
class RunConfig:
    """Flat, fully-defaulted run configuration; the reproducibility unit."""

    # input paths
    calls_csv: str | None = None
    svi_csv: str | None = None
    tract_map_csv: str | None = None
    travel_matrix_csv: str | None = None
    # grid geometry
    n_rows: int = 6
    n_cols: int = 6
    min_lat: float = 30.10
    max_lat: float = 30.40
    min_lon: float = -97.90
    max_lon: float = -97.60
    station_cells: list[int] = field(default_factory=lambda: [7, 10, 25, 28])
    hospital_cells: list[int] = field(default_factory=lambda: [14])
    # at 60 km/h the default stations cover the whole default grid within
    # the 600 s threshold, keeping the robust model non-degenerate
    speed_kmh: float = 60.0
    coverage_threshold_s: float = 600.0
    # ingestion
    timezone: str = "UTC"
    peak_filter: bool = True
    peak_start: str = "08:00"
    peak_end: str = "20:00"
    peak_weekdays: list[int] = field(default_factory=lambda: [0, 1, 2, 3, 4])
    period_length_s: float = 3600.0
    snap_cells: float = 1.0
    train_fraction: float = 0.8
    # optimization
    n_ambulances: int = 6
    m_scenarios: int = 100
    alpha: float = 0.01
    max_nodes: int = 1_000_000
    # simulation
    n_calls: int = 1000
    n_batches: int = 12
    lognormal_mu: float = 3.65
    lognormal_sigma: float = 0.3
    sample_with_replacement: bool = False
    # calibration / verification
    calibration_kind: str = "loglog"  # identity | linear | loglog
    trim_p: float = 0.01
    verify_batch_size: int = 1000
    verify_n_batches: int = 20
    # alpha cross-validation
    alphas: list[float] = field(default_factory=lambda: [0.1, 0.05, 0.01, 0.001, 0.0001])
    cv_folds: int = 3
    # fleet sweep
    n_min: int = 4
    n_max: int = 8
    # analysis
    analysis_folds: int = 5
    lambda_grid: list[float] = field(default_factory=lambda: [0.001, 0.01, 0.1, 1.0, 10.0])
    # root seed
    seed: int = 0

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            if isinstance(f.default, float) and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        for name in ("speed_kmh", "coverage_threshold_s", "lognormal_sigma", "period_length_s"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)!r}")
        for name in ("n_rows", "n_cols", "m_scenarios", "max_nodes", "n_calls", "n_batches",
                     "verify_batch_size", "verify_n_batches"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)!r}")
        for name in ("cv_folds", "analysis_folds"):
            if getattr(self, name) < 2:
                raise ConfigError(f"{name} must be at least 2, got {getattr(self, name)!r}")
        if self.snap_cells < 0:
            raise ConfigError(f"snap_cells must be nonnegative, got {self.snap_cells!r}")
        if not (self.min_lat < self.max_lat and self.min_lon < self.max_lon):
            raise ConfigError("grid bounds are degenerate")
        if self.calibration_kind not in calibrate.KINDS:
            raise ConfigError(f"unknown calibration_kind {self.calibration_kind!r}")
        for name in ("alpha", "train_fraction"):
            if not 0 < getattr(self, name) < 1:
                raise ConfigError(f"{name} must lie in (0, 1)")
        try:
            ZoneInfo(self.timezone)
        except (ZoneInfoNotFoundError, ValueError) as exc:
            raise ConfigError(f"unknown timezone {self.timezone!r} ({exc})")
        for name, kinds, what in (
            ("alphas", (int, float), "numbers"),
            ("lambda_grid", (int, float), "numbers"),
            ("station_cells", int, "integers"),
            ("hospital_cells", int, "integers"),
            ("peak_weekdays", int, "integers"),
        ):
            value = getattr(self, name)
            # a bool is an int to isinstance, but true is no number here
            if not (isinstance(value, list) and all(isinstance(v, kinds) and not isinstance(v, bool) for v in value)):
                raise ConfigError(f"{name} must be a list of {what}, got {value!r}")
        if not all(0 < a < 1 for a in self.alphas):
            raise ConfigError("every alpha-cv value must lie in (0, 1)")
        if not (self.lambda_grid and all(0 <= v < math.inf for v in self.lambda_grid)):
            raise ConfigError("lambda_grid must be a nonempty list of finite, nonnegative lambdas")
        if self.n_ambulances < 0:
            raise ConfigError("n_ambulances must be nonnegative")
        if self.n_min < 1 or self.n_min > self.n_max:
            raise ConfigError("need 1 <= n_min <= n_max for the fleet sweep")
        n = self.n_rows * self.n_cols
        for name, cells in (("station_cells", self.station_cells), ("hospital_cells", self.hospital_cells)):
            if any(not (0 <= c < n) for c in cells):
                raise ConfigError(f"{name} contains an index outside 0..{n - 1}")
        try:
            start, end = self.peak_window()
        except ValueError as exc:
            raise ConfigError(f"bad peak window time: {exc}")
        # a window that can hold no call would only fail later, as a data error;
        # the rates are fitted on its periods whatever peak_filter says
        if not start < end:
            raise ConfigError(f"peak_start {self.peak_start} must come before peak_end {self.peak_end}")
        if not (self.peak_weekdays and all(0 <= d <= 6 for d in self.peak_weekdays)):
            raise ConfigError(f"peak_weekdays must be nonempty, in 0..6 (Monday is 0), got {self.peak_weekdays}")

    @staticmethod
    def _parse_time(text: str) -> time:
        hh, mm = text.split(":")
        return time(int(hh), int(mm))

    def peak_window(self) -> tuple[time, time]:
        return self._parse_time(self.peak_start), self._parse_time(self.peak_end)


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


# the JSON types a non-string value may take, by the type of the field's
# default: bool before int, which it subclasses; lists are checked in validate
_JSON_KINDS = (
    (bool, (bool,), "true or false"),
    (int, (int,), "an integer"),
    (float, (int, float), "a number"),
    (str, (str,), "a string"),
    (type(None), (str, type(None)), "a path string or null"),
)


def _coerce(name: str, value, current):
    if isinstance(value, str):
        if isinstance(current, bool):
            low = value.strip().lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ConfigError(f"cannot parse boolean for {name}: {value!r}")
        if isinstance(current, int) and not isinstance(current, bool):
            return int(value)
        if isinstance(current, float):
            return float(value)
        if isinstance(current, list):
            return json.loads(value)
        return value
    for default_type, kinds, what in _JSON_KINDS:
        if isinstance(current, default_type):
            if not isinstance(value, kinds) or (isinstance(value, bool) and default_type is not bool):
                raise ConfigError(f"{name} must be {what}, got {value!r}")
            break
    # a JSON integer in a float field is read as the float it names, as on the command line
    return float(value) if isinstance(current, float) else value


def load_config(path: str | None, overrides: dict[str, object]) -> RunConfig:
    cfg = RunConfig()
    doc: dict = {}
    if path:
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8 text: {exc.reason}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}")
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: config must be a flat JSON object")
    merged = {**doc, **overrides}
    for key, value in merged.items():
        if key not in _FIELDS:
            raise ConfigError(f"unknown config field: {key}")
        try:
            setattr(cfg, key, _coerce(key, value, getattr(cfg, key)))
        except (ValueError, OverflowError, json.JSONDecodeError) as exc:
            raise ConfigError(f"bad value for {key}: {value!r} ({exc})")
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# shared pipeline pieces


def _build_grid(cfg: RunConfig) -> geogrid.Grid:
    bounds = (cfg.min_lat, cfg.max_lat, cfg.min_lon, cfg.max_lon)
    if cfg.travel_matrix_csv:
        provider = geogrid.MatrixProvider(geogrid.load_travel_matrix(cfg.travel_matrix_csv))
    else:
        provider = geogrid.SyntheticSpeedProvider(cfg.speed_kmh)
    return geogrid.build_grid(
        bounds, cfg.n_rows, cfg.n_cols, provider,
        station_cells=cfg.station_cells, hospital_cells=cfg.hospital_cells,
    )


def _edges(cfg: RunConfig, grid: geogrid.Grid) -> EdgeSet:
    return edges_from_coverage(geogrid.derive_coverage(grid, cfg.coverage_threshold_s))


def _regions(cfg: RunConfig, grid: geogrid.Grid) -> tuple[np.ndarray, np.ndarray]:
    """The regions' adjacency and coverage ball, which shape the demand model."""
    return geogrid.derive_adjacency(grid), geogrid.derive_region_ball(grid, cfg.coverage_threshold_s)


def _search(cfg: RunConfig) -> stochastic.SearchConfig:
    return stochastic.SearchConfig(max_nodes=cfg.max_nodes)


def _sim_params(cfg: RunConfig, model: calibrate.CalibrationModel | None) -> simcore.SimParams:
    return simcore.SimParams(
        lognormal_mu=cfg.lognormal_mu,
        lognormal_sigma=cfg.lognormal_sigma,
        calibration=model,
        snap_cells=cfg.snap_cells,
    )


def _peak(cfg: RunConfig, calls):
    if not cfg.peak_filter:
        return calls
    start, end = cfg.peak_window()
    return ingest.filter_peak(calls, start, end, cfg.peak_weekdays)


def _split(cfg: RunConfig, calls: ingest.CallTable) -> tuple[ingest.CallTable, ingest.CallTable]:
    """The train and test calls of a parse: its peak calls, the earliest
    ``train_fraction`` of them the train calls."""
    return ingest.split_train_test(_peak(cfg, calls), cfg.train_fraction)


def _demand_for_rates(cfg: RunConfig, calls, grid) -> ingest.DemandMatrix:
    """The demand matrix of ``calls``, kept to the periods that start in the peak window."""
    matrix = ingest.build_demand_matrix(calls, grid, cfg.period_length_s, cfg.snap_cells)
    start, end = cfg.peak_window()
    return ingest.select_periods(matrix, ingest.peak_period_mask(matrix, start, end, cfg.peak_weekdays))


# ---------------------------------------------------------------------------
# run-directory files: what each depends on, and one loader each, which
# checks that record against the config and names the stage that writes it


def _depends(cfg: RunConfig) -> dict[str, tuple[str, dict]]:
    """Each run-directory file a later stage loads, with the stage that
    writes it and the config fields its bytes depend on under ``cfg``,
    directly and through the files it is built from, valued as the stages
    read them. ``split`` is preprocess's train/test split, which the stages
    derive again from ``calls_table.bin``; the table is recorded with the
    zone the calls were parsed in and the peak window they are taken in.
    ``demand_matrix.csv`` is checked but not read: the stages build the
    matrix again from the split."""
    start, end = cfg.peak_window()
    # 8:00 is 08:00, and the weekdays are a set
    value = {**vars(cfg), "peak_start": f"{start:%H:%M}", "peak_end": f"{end:%H:%M}",
             "peak_weekdays": sorted(set(cfg.peak_weekdays))}
    # a field the config ignores is left out: speed_kmh beside a travel matrix, and
    # what an identity model is not fitted on. Each list names first the field that
    # decides what else it holds
    grid = ["travel_matrix_csv", "n_rows", "n_cols", "min_lat", "max_lat", "min_lon", "max_lon",
            "station_cells", "hospital_cells", *([] if cfg.travel_matrix_csv else ["speed_kmh"])]
    window = ["timezone", "peak_filter", "peak_start", "peak_end", "peak_weekdays"]
    split = [*window, "train_fraction"]
    matrix = [*grid, *split, "period_length_s", "snap_cells"]
    uncertainty = [*matrix, "coverage_threshold_s", "alpha"]
    calibration = ["calibration_kind",
                   *([] if cfg.calibration_kind == "identity" else [*grid, *split, "snap_cells", "trim_p"])]
    placement = ["coverage_threshold_s", "n_ambulances", "max_nodes"]
    table = {
        "grid.json": ("grid", grid),
        "calls_table.bin": ("preprocess", window),
        "split": ("preprocess", split),
        "demand_matrix.csv": ("preprocess", matrix),
        "uncertainty.json": ("fit", uncertainty),
        "calibration.json": ("fit", calibration),
        "deployment_stochastic.json": ("optimize", [*matrix, *placement, "m_scenarios", "seed"]),
        "deployment_robust.json": ("optimize", [*uncertainty, *placement]),
        "verification.json": ("verify", [*grid, *split, *calibration, "snap_cells", "verify_batch_size",
                                         "verify_n_batches"]),
    }
    return {key: (stage, {name: value[name] for name in names}) for key, (stage, names) in table.items()}


def _read_manifest(out: Path) -> dict:
    """``out``'s manifest: under ``files`` the SHA-256 of each file a stage
    wrote, and under ``config`` the record of each ``_depends`` file, or
    both empty where no stage has finished yet."""
    path = out / "manifest.json"
    if not path.exists():
        return {"files": {}, "config": {}}

    def manifest(doc: dict) -> dict:
        if not (isinstance(doc["files"], dict) and isinstance(doc["config"], dict)
                and all(isinstance(record, dict) for record in doc["config"].values())):
            raise TypeError("files, config and each record must be objects")
        return doc

    return read_json(path, "manifest", manifest)


def _check(cfg: RunConfig, out: Path, key: str) -> None:
    """Refuse a config that differs from the record of ``key`` on a field
    it depends on: a config error naming the stage to rerun. A missing
    record is a data error."""
    stage, record = _depends(cfg)[key]
    recorded = _read_manifest(out)["config"].get(key)
    if recorded is None:
        raise DataError(f"no record of {key} in {out / 'manifest.json'}; rerun `emsdeploy {stage}`")
    for name, value in record.items():
        if recorded.get(name) != value:
            raise ConfigError(f"{name} is {value!r}, but the {key} record holds {recorded.get(name)!r}; "
                              f"rerun `emsdeploy {stage}` with this config")


def _require(cfg: RunConfig, out: Path, name: str) -> Path:
    """``out``'s file ``name``, once its record agrees with ``cfg``."""
    if not (out / name).exists():
        raise DataError(f"missing {name}; run `emsdeploy {_depends(cfg)[name][0]}` first")
    _check(cfg, out, name)
    return out / name


def _load_grid(cfg: RunConfig, out: Path) -> geogrid.Grid:
    return geogrid.load_grid(_require(cfg, out, "grid.json"))


def _load_calls(cfg: RunConfig, out: Path) -> ingest.CallTable:
    """The calls preprocess saved."""
    return ingest.load_call_table(_require(cfg, out, "calls_table.bin"))


def _read_split(cfg: RunConfig, out: Path):
    """The (train, test) split preprocess built ``out``'s demand matrix from,
    derived again from the calls it saved."""
    calls = _load_calls(cfg, out)
    _check(cfg, out, "split")
    return _split(cfg, calls)


def _load_matrix(cfg: RunConfig, out: Path,
                 grid: geogrid.Grid) -> tuple[ingest.DemandMatrix, ingest.CallTable, ingest.CallTable]:
    """The demand matrix preprocess wrote to ``out``, with the (train, test)
    split it was built from. Its record is checked, but the file is not
    read: the matrix depends only on the train calls, so it is built again
    from them by the code preprocess ran."""
    _require(cfg, out, "demand_matrix.csv")
    train, test = _read_split(cfg, out)
    return _demand_for_rates(cfg, train, grid), train, test


def _load_model(cfg: RunConfig, out: Path) -> calibrate.CalibrationModel:
    return calibrate.load_model(_require(cfg, out, "calibration.json"))


def _load_uset(cfg: RunConfig, out: Path, grid: geogrid.Grid) -> demand.UncertaintySet:
    return demand.load_uncertainty_set(_require(cfg, out, "uncertainty.json"), *_regions(cfg, grid))


def _load_stationings(cfg: RunConfig, out: Path) -> list[tuple[str, np.ndarray]]:
    """The stochastic and robust stationings, each placing at most n_ambulances."""
    return [
        (label, read_json(_require(cfg, out, f"deployment_{label}.json"), "stationing",
                          lambda doc: Deployment(doc["x"], cfg.n_ambulances).x))
        for label in ("stochastic", "robust")
    ]


def _load_verification(cfg: RunConfig, out: Path) -> list[float]:
    """The batch mean errors of verify's report."""

    def batch_errors(doc: dict) -> list[float]:
        errors = doc["batch_errors_s"]
        if not isinstance(errors, list) or not all(isinstance(e, float) for e in errors):
            raise TypeError("batch_errors_s is not a list of numbers")
        return errors

    return read_json(_require(cfg, out, "verification.json"), "verification report", batch_errors)


# ---------------------------------------------------------------------------
# subcommands: each returns {filename: Path} of what it wrote


def cmd_grid(cfg: RunConfig, out: Path) -> dict[str, Path]:
    geogrid.save_grid(_build_grid(cfg), out / "grid.json")
    return {name: out / name for name in ("grid.json", "grid_travel.csv")}


def cmd_preprocess(cfg: RunConfig, out: Path) -> dict[str, Path]:
    grid = _load_grid(cfg, out)
    if not cfg.calls_csv:
        raise ConfigError("calls_csv is required for preprocess")
    calls, report = ingest.parse_calls(cfg.calls_csv, cfg.timezone)
    log.info("%s: %d rows, parsed", Path(cfg.calls_csv).name, report.n_rows)
    train, test = _split(cfg, calls)
    ingest.save_call_table(calls, out / "calls_table.bin")
    matrix = _demand_for_rates(cfg, train, grid)
    ingest.save_demand_matrix(matrix, out / "demand_matrix.csv")
    summary = {
        "n_rows_read": report.n_rows,
        "n_parsed": report.n_parsed,
        "n_dropped_parse": report.n_dropped,
        "drop_reasons": dict(sorted(report.reasons.items())),
        "n_peak": len(train) + len(test),
        "n_train": len(train),
        "n_test": len(test),
        "n_demand_periods": matrix.n_periods,
        "n_dropped_out_of_grid": matrix.n_dropped,
    }
    write_json(out / "preprocess_summary.json", summary)
    return {name: out / name for name in ("calls_table.bin", "demand_matrix.csv", "preprocess_summary.json")}


def cmd_fit(cfg: RunConfig, out: Path) -> dict[str, Path]:
    grid = _load_grid(cfg, out)
    matrix, train, _ = _load_matrix(cfg, out, grid)
    adjacency, ball = _regions(cfg, grid)
    rates = demand.fit_rates(matrix, adjacency, ball)
    uset = demand.build_uncertainty_set(rates, cfg.alpha, adjacency, ball)
    write_json(out / "rates.json", {
        "single": [float(v) for v in rates.single],
        "local": [float(v) for v in rates.local],
        "regional": [float(v) for v in rates.regional],
        "global": rates.global_rate,
    })
    demand.save_uncertainty_set(uset, out / "uncertainty.json")
    if cfg.calibration_kind == "identity":
        model = calibrate.identity_model()
    else:
        usable, grid_s, reported_s = ingest.calibration_pairs(train, grid, cfg.snap_cells)
        fit = calibrate.fit_loglog if cfg.calibration_kind == "loglog" else calibrate.fit_linear
        model = fit(grid_s, reported_s, cfg.trim_p)
        log.info("calibration fitted on %d pairs (%d excluded)", model.n_used, len(train) - len(usable))
    calibrate.save_model(model, out / "calibration.json")
    return {name: out / name for name in ("rates.json", "uncertainty.json", "calibration.json")}


def cmd_optimize(cfg: RunConfig, out: Path) -> dict[str, Path]:
    grid = _load_grid(cfg, out)
    matrix, _, _ = _load_matrix(cfg, out, grid)
    edges = _edges(cfg, grid)
    uset = _load_uset(cfg, out, grid)
    scenarios = stochastic.sample_scenarios(matrix, cfg.m_scenarios, cfg.seed)
    sol = stochastic.solve_stochastic(scenarios, cfg.n_ambulances, edges, _search(cfg))
    write_json(out / "deployment_stochastic.json", sol.to_dict())
    rob = robust.solve_robust_ccg(uset, cfg.n_ambulances, edges, search_config=_search(cfg))
    write_json(out / "deployment_robust.json", rob.to_dict(uset.alpha))
    history = rob.state.history
    write_csv(out / "ccg_history.csv", ["iteration", "lower_bound", "upper_bound"], [
        range(1, len(history) + 1), [lb for lb, _, _ in history], [ub for _, ub, _ in history]
    ])
    return {name: out / name for name in ("deployment_stochastic.json", "deployment_robust.json", "ccg_history.csv")}


def cmd_simulate(cfg: RunConfig, out: Path) -> dict[str, Path]:
    grid = _load_grid(cfg, out)
    _, test_calls = _read_split(cfg, out)
    model = _load_model(cfg, out)
    policies = _load_stationings(cfg, out)
    comparison = simcore.compare_policies(
        policies, test_calls, grid, _sim_params(cfg, model),
        cfg.n_calls, cfg.n_batches, cfg.seed, cfg.sample_with_replacement,
    )
    write_json(out / "sim_comparison.json", comparison.to_dict())
    # one event log per policy, first batch, for inspection and plotting
    for (label, _), outcome in zip(policies, comparison.first_batch):
        simcore.save_event_log(outcome.events, out / f"event_log_{label}.csv")
    return {name: out / name for name in ("sim_comparison.json", "event_log_stochastic.csv", "event_log_robust.csv")}


def cmd_verify(cfg: RunConfig, out: Path) -> dict[str, Path]:
    grid = _load_grid(cfg, out)
    _, test_calls = _read_split(cfg, out)
    model = _load_model(cfg, out)
    report = calibrate.verify(
        test_calls, grid, model, cfg.verify_batch_size, cfg.verify_n_batches, cfg.snap_cells
    )
    write_json(out / "verification.json", report.to_dict())
    return {"verification.json": out / "verification.json"}


def cmd_alpha_cv(cfg: RunConfig, out: Path) -> dict[str, Path]:
    grid = _load_grid(cfg, out)
    peak_calls = _peak(cfg, _load_calls(cfg, out))
    # refused before the folds are drawn: some would be empty
    if cfg.cv_folds > len(peak_calls):
        raise ConfigError(f"cv_folds={cfg.cv_folds} folds of {len(peak_calls)} calls: a fold would be empty")
    edges = _edges(cfg, grid)
    adjacency, ball = _regions(cfg, grid)
    params = _sim_params(cfg, None)
    travel = simcore.prepare_travel(grid, params.calibration)
    table: list[list[float | None]] = []
    saturated: dict[float, bool] = {a: False for a in cfg.alphas}
    errors: list[str] = []
    for fold in range(cfg.cv_folds):
        train, test = ingest.split_train_test(
            peak_calls, cfg.train_fraction, "kfold", cfg.cv_folds, fold, cfg.seed
        )
        matrix = _demand_for_rates(cfg, train, grid)
        rates = demand.fit_rates(matrix, adjacency, ball)
        seed = derive_seed(cfg.seed, "alphacv", fold)
        batch = None  # the fold's test calls, snapped and drawn on its first run
        mrt_by_x: dict[bytes, float] = {}  # alphas that pick the same stationing share its run
        row: list[float | None] = []
        for alpha in cfg.alphas:
            uset = demand.build_uncertainty_set(rates, alpha, adjacency, ball)
            try:
                rob = robust.solve_robust_ccg(uset, cfg.n_ambulances, edges, search_config=_search(cfg))
            except EmsDeployError as exc:
                errors.append(f"fold {fold} alpha {alpha}: {exc}")
                row.append(None)
                continue
            x = rob.x_star.x
            if np.all(x == 1):
                saturated[alpha] = True
            if x.sum() < 1:
                errors.append(
                    f"fold {fold} alpha {alpha}: degenerate zero stationing (worst case "
                    "not reducible by placement); cell skipped"
                )
                row.append(None)
                continue
            key = x.tobytes()
            if key not in mrt_by_x:
                if batch is None:
                    batch = simcore.prepare_batch(test, grid, params, seed)
                prepared = simcore.Prepared(travel, batch, simcore.prepare_stationing(x, grid, travel))
                outcome = simcore.simulate(x, test, grid, params, seed=seed, prepared=prepared)
                mrt_by_x[key] = outcome.mean_response_s / 60.0
            row.append(mrt_by_x[key])
        table.append(row)
    write_csv(out / "alpha_cv.csv", ["fold"] + [f"alpha_{a}" for a in cfg.alphas], [
        range(1, len(table) + 1),
        *(["" if v is None else f"{v:.4f}" for v in column] for column in zip(*table)),
    ])
    means = {}
    for i, alpha in enumerate(cfg.alphas):
        vals = [row[i] for row in table if row[i] is not None]
        means[str(alpha)] = float(np.mean(vals)) if vals else None
    candidates = [
        a for a in cfg.alphas
        if not saturated[a] and means[str(a)] is not None
    ]
    recommended = min(candidates, key=lambda a: means[str(a)]) if candidates else None
    write_json(out / "alpha_cv_summary.json", {
        "mean_mrt_minutes": means,
        "saturated": {str(a): saturated[a] for a in cfg.alphas},
        "recommended_alpha": recommended,
        "errors": errors,
    })
    return {"alpha_cv.csv": out / "alpha_cv.csv", "alpha_cv_summary.json": out / "alpha_cv_summary.json"}


def cmd_fleet_sweep(cfg: RunConfig, out: Path) -> dict[str, Path]:
    grid = _load_grid(cfg, out)
    matrix, _, test_calls = _load_matrix(cfg, out, grid)
    model = _load_model(cfg, out)
    edges = _edges(cfg, grid)
    uset = _load_uset(cfg, out, grid)
    scenarios = stochastic.sample_scenarios(matrix, cfg.m_scenarios, cfg.seed)
    search = _search(cfg)
    fleet = list(range(cfg.n_min, cfg.n_max + 1))
    # neither evaluator depends on n, so one of each serves the whole sweep: the
    # cut table's refinements stay valid bounds, and an exact search returns the
    # lexicographically smallest optimum however tight its bounds
    evaluators = (ScenarioEvaluator(edges, scenarios.demands), robust.CutTable(uset, edges))
    stationings = [  # per n, the stochastic and the robust x
        tuple(stochastic.minimize_deployment(ev, n, search).x for ev in evaluators) for n in fleet
    ]
    # each distinct stationing runs once, in first-seen order, all on the same batches
    distinct = {str(x.tolist()): x for pair in stationings for x in pair}
    comparison = simcore.compare_policies(
        list(distinct.items()), test_calls, grid, _sim_params(cfg, model),
        cfg.n_calls, cfg.n_batches, cfg.seed, cfg.sample_with_replacement,
    )
    mrt_s = dict(zip(distinct, comparison.overall_mean_s))
    write_csv(out / "fleet_sweep.csv", ["n", "stochastic_mrt_min", "robust_mrt_min"], [
        fleet, *([f"{mrt_s[str(x.tolist())] / 60.0:.4f}" for x in column] for column in zip(*stationings))
    ])
    return {"fleet_sweep.csv": out / "fleet_sweep.csv"}


def cmd_analyze(cfg: RunConfig, out: Path) -> dict[str, Path]:
    grid = _load_grid(cfg, out)
    if not cfg.svi_csv or not cfg.tract_map_csv:
        raise ConfigError("analyze requires svi_csv and tract_map_csv")
    calls = _load_calls(cfg, out)
    svi = analysis.load_svi_table(cfg.svi_csv)
    tract_map = analysis.load_tract_map(cfg.tract_map_csv)
    dataset = analysis.assemble_tracts(_peak(cfg, calls), grid, tract_map, svi, cfg.snap_cells)
    reports = analysis.compare_models(dataset, cfg.analysis_folds, cfg.seed, cfg.lambda_grid)
    write_csv(out / "analysis_report.csv", ["Model", "Variables", "Average MSE"], [
        [r.label for r in reports], [r.variables for r in reports], [f"{r.average_mse:.4f}" for r in reports]
    ])
    write_json(out / "analysis_details.json", {
        "n_tracts": len(dataset.tract_ids),
        "n_dropped_no_svi": dataset.n_dropped_no_svi,
        "n_tracts_no_calls": dataset.n_tracts_no_calls,
        "models": [
            {"model": r.label, "variables": r.variables, "fold_mses": r.fold_mses, "average_mse": r.average_mse}
            for r in reports
        ],
    })
    return {name: out / name for name in ("analysis_report.csv", "analysis_details.json")}


def cmd_plotdata(cfg: RunConfig, out: Path) -> dict[str, Path]:
    grid = _load_grid(cfg, out)
    calls = _load_calls(cfg, out)
    _check(cfg, out, "split")

    weekday, clock_us = ingest.weekday_and_clock_us(calls.wall_us)
    counts = np.bincount(weekday * 24 + clock_us // 3_600_000_000, minlength=7 * 24).reshape(7, 24)
    write_csv(out / "plot_temporal_heatmap.csv", ["weekday", "hour", "count"], [
        np.repeat(np.arange(7), 24), np.tile(np.arange(24), 7), counts.ravel()
    ])

    cells, inside = geogrid.assign_cells(grid, calls.lat, calls.lon, cfg.snap_cells)
    cell_counts = np.bincount(cells[inside], minlength=grid.n_cells)
    write_csv(out / "plot_spatial_heatmap.csv", ["cell", "lat", "lon", "count"], [
        range(grid.n_cells), [lat for lat, _ in grid.cell_centers], [lon for _, lon in grid.cell_centers],
        cell_counts,
    ])

    model = _load_model(cfg, out)
    test_calls = _split(cfg, calls)[1]
    _, grid_s, reported_s = ingest.calibration_pairs(test_calls, grid, cfg.snap_cells)
    adjusted_s = calibrate.apply_many(model, grid_s)
    write_csv(out / "plot_regression_scatter.csv", ["grid_s", "reported_s", "adjusted_s"], [
        grid_s, reported_s, adjusted_s
    ])

    batch_errors = _load_verification(cfg, out)
    write_csv(out / "plot_verification_points.csv", ["batch", "mean_error_s"], [
        range(1, len(batch_errors) + 1), batch_errors
    ])

    stations = grid.station_cells
    centers = [grid.cell_centers[cell] for cell in stations]
    for label, x in _load_stationings(cfg, out):
        write_csv(out / f"plot_stationing_{label}.csv", ["station", "cell", "lat", "lon", "count"], [
            range(len(stations)), stations, [lat for lat, _ in centers], [lon for _, lon in centers], x
        ])
    return {name: out / name for name in (
        "plot_temporal_heatmap.csv", "plot_spatial_heatmap.csv", "plot_regression_scatter.csv",
        "plot_verification_points.csv", "plot_stationing_stochastic.csv", "plot_stationing_robust.csv",
    )}


COMMANDS = {
    "grid": cmd_grid,
    "preprocess": cmd_preprocess,
    "fit": cmd_fit,
    "optimize": cmd_optimize,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "alpha-cv": cmd_alpha_cv,
    "fleet-sweep": cmd_fleet_sweep,
    "analyze": cmd_analyze,
    "plotdata": cmd_plotdata,
}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _forget_rewritten(cfg: RunConfig, out: Path, manifest: dict, stage: str) -> None:
    """After ``stage`` failed, drop from ``out``'s manifest the entry and the
    record of each file the stage writes whose bytes no longer match its
    entry: the stage rewrote it under ``cfg`` before it failed, so no later
    stage may load it as built under the recorded config. Only the stage's
    own files are checked, so a file another stage wrote keeps its record,
    edited or not, and a stage that wrote nothing leaves the manifest as it was."""
    rewritten = [name for name, (writer, _) in _depends(cfg).items()
                 if writer == stage and name in manifest["files"]
                 and (not (out / name).is_file() or _sha256(out / name) != manifest["files"][name])]
    if rewritten:
        for name in rewritten:
            del manifest["files"][name]
            manifest["config"].pop(name, None)
        write_json(out / "manifest.json", manifest)


def _parse_overrides(extra: list[str]) -> dict[str, object]:
    overrides: dict[str, object] = {}
    i = 0
    while i < len(extra):
        tok = extra[i]
        if not tok.startswith("--"):
            raise ConfigError(f"unexpected argument: {tok!r}")
        key = tok[2:].replace("-", "_")
        if i + 1 >= len(extra):
            raise ConfigError(f"override --{key} needs a value")
        overrides[key] = extra[i + 1]
        i += 2
    return overrides


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="emsdeploy",
        description="Ambulance stationing pipeline: optimize and simulate deployments.",
    )
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="flat JSON config file")
    parser.add_argument("--out", default="emsdeploy_out", help="output directory")
    parser.add_argument("--seed", type=int, help="root seed override")
    args, extra = parser.parse_known_args(argv)

    logging.basicConfig(
        level=os.environ.get("EMSDEPLOY_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        overrides = _parse_overrides(extra)
        if args.seed is not None:
            overrides["seed"] = args.seed
        cfg = load_config(args.config, overrides)
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output directory {out}: {exc.strerror or exc}")
        manifest = _read_manifest(out)
        try:
            files = COMMANDS[args.subcommand](cfg, out)
        except EmsDeployError:
            _forget_rewritten(cfg, out, manifest, args.subcommand)
            raise
        # the stage's own entries replace those of an earlier run: the manifest records the directory
        manifest["files"].update((name, _sha256(path)) for name, path in files.items())
        manifest["config"].update(
            (key, record) for key, (stage, record) in _depends(cfg).items() if stage == args.subcommand
        )
        write_json(out / "manifest.json", manifest)
        print(f"emsdeploy {args.subcommand}: wrote {len(files)} files to {out}")
        return 0
    except ConfigError as exc:
        log.error("config error: %s", exc)
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        log.error("data error: %s", exc)
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        log.error("solver error: %s", exc)
        print(f"solver error: {exc}", file=sys.stderr)
        return 4
    except EmsDeployError as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
