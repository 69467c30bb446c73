"""Command-line pipeline: grid, preprocess, fit, optimize, simulate,
verify, alpha-cv, fleet-sweep, analyze, plotdata.

Every subcommand reads a flat JSON config (any field overridable with
``--key value``), writes its outputs plus a resolved-config copy under
``--out``, and finishes with a manifest listing file hashes. Reruns with
the same resolved config are byte-identical. Exit codes: 0 ok, 2 config
error, 3 data error, 4 solver failure.

Every read of a call log goes through ``ingest.parse_calls_kept``, so
``--out`` also holds one hidden kept parse per call log
(``.<log file name>.parse``). It is keyed by the log's content and the
schema, never listed in a manifest, and safe to delete: a missing or
stale one only means the next read parses the log again. Preprocess
writes the kept parses of the two split logs with the logs themselves
(``ingest.serialize_calls_kept``), so a pipeline parses only
``calls_csv``. The stages work on the ``ingest.CallTable`` that a read
returns, column by column; no stage builds a record per call.
"""

from __future__ import annotations

import argparse
import csv
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
from .dispatchflow import Deployment, EdgeSet, edges_from_coverage
from .errors import ConfigError, DataError, EmsDeployError, SolverError
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
    travel_provider: str = "synthetic"  # synthetic | matrix
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
    rate_periods: str = "peak"  # peak | all
    snap_cells: float = 1.0
    train_fraction: float = 0.8
    split_mode: str = "chronological"  # chronological | kfold
    split_k: int = 5
    split_fold: int = 0
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
    shortfall_threshold_s: float = 600.0
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
    sweep_robust: bool = True
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
        for name, choices in (
            ("travel_provider", ("synthetic", "matrix")), ("rate_periods", ("peak", "all")),
            ("calibration_kind", ("identity", "linear", "loglog")), ("split_mode", ("chronological", "kfold")),
        ):
            if getattr(self, name) not in choices:
                raise ConfigError(f"unknown {name} {getattr(self, name)!r}")
        if self.travel_provider == "matrix" and not self.travel_matrix_csv:
            raise ConfigError("travel_provider=matrix requires travel_matrix_csv")
        for name in ("alpha", "train_fraction"):
            if not 0 < getattr(self, name) < 1:
                raise ConfigError(f"{name} must lie in (0, 1)")
        try:
            ZoneInfo(self.timezone)
        except (ZoneInfoNotFoundError, ValueError) as exc:
            raise ConfigError(f"unknown timezone {self.timezone!r} ({exc})")
        for name, kinds, what in (
            ("alphas", (int, float), "numbers"),
            ("station_cells", int, "integers"),
            ("hospital_cells", int, "integers"),
            ("peak_weekdays", int, "integers"),
        ):
            value = getattr(self, name)
            if not (isinstance(value, list) and all(isinstance(v, kinds) for v in value)):
                raise ConfigError(f"{name} must be a list of {what}, got {value!r}")
        if not all(0 < a < 1 for a in self.alphas):
            raise ConfigError("every alpha-cv value must lie in (0, 1)")
        if not (
            isinstance(self.lambda_grid, list) and self.lambda_grid
            and all(isinstance(v, (int, float)) and 0 <= v < math.inf for v in self.lambda_grid)
        ):
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
        # a window that can hold no call would only fail later, as a data error
        if not start < end:
            raise ConfigError(f"peak_start {self.peak_start} must come before peak_end {self.peak_end}")
        if not all(0 <= d <= 6 for d in self.peak_weekdays):
            raise ConfigError(f"peak_weekdays must lie in 0..6 (Monday is 0), got {self.peak_weekdays}")

    @staticmethod
    def _parse_time(text: str) -> time:
        hh, mm = text.split(":")
        return time(int(hh), int(mm))

    def peak_window(self) -> tuple[time, time]:
        return self._parse_time(self.peak_start), self._parse_time(self.peak_end)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


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
    return value


def load_config(path: str | None, overrides: dict[str, object]) -> RunConfig:
    cfg = RunConfig()
    doc: dict = {}
    if path:
        try:
            with open(path) as f:
                doc = json.load(f)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
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
        except (ValueError, json.JSONDecodeError) as exc:
            raise ConfigError(f"bad value for {key}: {value!r} ({exc})")
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# shared pipeline pieces


def _build_grid(cfg: RunConfig) -> geogrid.Grid:
    bounds = (cfg.min_lat, cfg.max_lat, cfg.min_lon, cfg.max_lon)
    if cfg.travel_provider == "matrix":
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
        shortfall_threshold_s=cfg.shortfall_threshold_s,
        calibration=model,
        snap_cells=cfg.snap_cells,
    )


def _snap_calls(
    cfg: RunConfig, grid: geogrid.Grid, calls: ingest.CallTable, batches: bool = False
) -> list[tuple[float, int]]:
    """(epoch_seconds, cell) pairs for a stage that simulates ``calls`` many
    times, so each call is snapped to the grid once, not once per run. For
    ``simcore.run_batches`` (``batches``), only the calls it can draw on:
    without resampling, the first n_calls * n_batches."""
    if batches and not cfg.sample_with_replacement:
        calls = calls[: cfg.n_calls * cfg.n_batches]
    cells = geogrid.assign_cells_or_raise(grid, calls.lat, calls.lon, cfg.snap_cells)
    return list(zip(calls.utc_s.tolist(), cells.tolist()))


def _parse_calls(cfg: RunConfig, out: Path) -> tuple[ingest.CallTable, ingest.ParseReport]:
    if not cfg.calls_csv:
        raise ConfigError("calls_csv is required for this subcommand")
    schema = ingest.CallSchema(timezone=cfg.timezone)
    return ingest.parse_calls_kept(cfg.calls_csv, schema, out)


def _peak(cfg: RunConfig, calls):
    if not cfg.peak_filter:
        return calls
    start, end = cfg.peak_window()
    return ingest.filter_peak(calls, start, end, cfg.peak_weekdays)


def _write_json(path: Path, doc) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True, indent=1)
        f.write("\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _demand_for_rates(cfg: RunConfig, calls, grid) -> ingest.DemandMatrix:
    matrix = ingest.build_demand_matrix(calls, grid, cfg.period_length_s, cfg.snap_cells)
    if cfg.rate_periods == "peak":
        start, end = cfg.peak_window()
        mask = ingest.peak_period_mask(matrix, start, end, cfg.peak_weekdays)
        matrix = ingest.select_periods(matrix, mask)
    return matrix


# ---------------------------------------------------------------------------
# run-directory files: one loader each, which names the stage that writes it


def _require(path: Path, produced_by: str) -> Path:
    if not path.exists():
        raise DataError(f"missing {path.name}; run `emsdeploy {produced_by}` first")
    return path


def _load_grid(out: Path) -> geogrid.Grid:
    return geogrid.load_grid(_require(out / "grid.json", "grid"))


def _read_calls(out: Path, name: str) -> ingest.CallTable:
    """The calls of a log that preprocess wrote to ``out``."""
    calls, _ = ingest.parse_calls_kept(_require(out / name, "preprocess"), None, out)
    return calls


def _load_matrix(cfg: RunConfig, out: Path) -> ingest.DemandMatrix:
    return ingest.load_demand_matrix(_require(out / "demand_matrix.csv", "preprocess"), cfg.period_length_s)


def _load_model(out: Path) -> calibrate.CalibrationModel:
    return calibrate.load_model(_require(out / "calibration.json", "fit"))


def _load_uset(cfg: RunConfig, out: Path, grid: geogrid.Grid) -> demand.UncertaintySet:
    return demand.load_uncertainty_set(_require(out / "uncertainty.json", "fit"), *_regions(cfg, grid))


def _load_stationings(cfg: RunConfig, out: Path) -> list[tuple[str, np.ndarray]]:
    """The stochastic and robust stationings, each placing at most n_ambulances."""
    stationings = []
    for label in ("stochastic", "robust"):
        with open(_require(out / f"deployment_{label}.json", "optimize")) as f:
            stationings.append((label, Deployment(json.load(f)["x"], cfg.n_ambulances).x))
    return stationings


# ---------------------------------------------------------------------------
# subcommands: each returns {filename: Path} of what it wrote


def cmd_grid(cfg: RunConfig, out: Path) -> dict[str, Path]:
    geogrid.save_grid(_build_grid(cfg), out / "grid.json")
    return {name: out / name for name in ("grid.json", "grid_travel.csv")}


def cmd_preprocess(cfg: RunConfig, out: Path) -> dict[str, Path]:
    grid = _load_grid(out)
    calls, report = _parse_calls(cfg, out)
    peak_calls = _peak(cfg, calls)
    if len(peak_calls) < 2:
        raise DataError(f"only {len(peak_calls)} calls remain after peak filtering")
    train, test = ingest.split_train_test(
        peak_calls, cfg.train_fraction, cfg.split_mode, cfg.split_k, cfg.split_fold, cfg.seed
    )
    matrix = _demand_for_rates(cfg, train, grid)
    ingest.serialize_calls_kept(train, out / "calls_train.csv", out)
    ingest.serialize_calls_kept(test, out / "calls_test.csv", out)
    ingest.save_demand_matrix(matrix, out / "demand_matrix.csv")
    summary = {
        "n_rows_read": report.n_rows,
        "n_parsed": report.n_parsed,
        "n_dropped_parse": report.n_dropped,
        "drop_reasons": dict(sorted(report.reasons.items())),
        "n_peak": len(peak_calls),
        "n_train": len(train),
        "n_test": len(test),
        "n_demand_periods": matrix.n_periods,
        "n_dropped_out_of_grid": matrix.n_dropped,
    }
    _write_json(out / "preprocess_summary.json", summary)
    names = ("calls_train.csv", "calls_test.csv", "demand_matrix.csv", "preprocess_summary.json")
    return {name: out / name for name in names}


def cmd_fit(cfg: RunConfig, out: Path) -> dict[str, Path]:
    grid = _load_grid(out)
    matrix = _load_matrix(cfg, out)
    adjacency, ball = _regions(cfg, grid)
    rates = demand.fit_rates(matrix, adjacency, ball)
    uset = demand.build_uncertainty_set(rates, cfg.alpha, adjacency, ball)
    _write_json(out / "rates.json", {
        "single": [float(v) for v in rates.single],
        "local": [float(v) for v in rates.local],
        "regional": [float(v) for v in rates.regional],
        "global": rates.global_rate,
    })
    demand.save_uncertainty_set(uset, out / "uncertainty.json")
    if cfg.calibration_kind == "identity":
        model = calibrate.identity_model()
    else:
        pairs, n_excluded = ingest.calibration_pairs(_read_calls(out, "calls_train.csv"), grid, cfg.snap_cells)
        if cfg.calibration_kind == "loglog":
            model = calibrate.fit_loglog(pairs, cfg.trim_p)
        else:
            model = calibrate.fit_linear(pairs, cfg.trim_p)
        log.info("calibration fitted on %d pairs (%d excluded)", model.n_used, n_excluded)
    calibrate.save_model(model, out / "calibration.json")
    return {name: out / name for name in ("rates.json", "uncertainty.json", "calibration.json")}


def cmd_optimize(cfg: RunConfig, out: Path) -> dict[str, Path]:
    grid = _load_grid(out)
    matrix = _load_matrix(cfg, out)
    edges = _edges(cfg, grid)
    uset = _load_uset(cfg, out, grid)
    scenarios = stochastic.sample_scenarios(matrix, cfg.m_scenarios, cfg.seed)
    sol = stochastic.solve_stochastic(scenarios, cfg.n_ambulances, edges, _search(cfg))
    stochastic.save_solution(sol, out / "deployment_stochastic.json")
    rob = robust.solve_robust_ccg(uset, cfg.n_ambulances, edges, search_config=_search(cfg))
    robust.save_robust_solution(rob, out / "deployment_robust.json", alpha=cfg.alpha)
    robust.save_ccg_history(rob.state, out / "ccg_history.csv")
    return {name: out / name for name in ("deployment_stochastic.json", "deployment_robust.json", "ccg_history.csv")}


def cmd_simulate(cfg: RunConfig, out: Path) -> dict[str, Path]:
    grid = _load_grid(out)
    model = _load_model(out)
    test_calls = _read_calls(out, "calls_test.csv")
    policies = _load_stationings(cfg, out)
    comparison = simcore.compare_policies(
        policies, _snap_calls(cfg, grid, test_calls, batches=True), grid, _sim_params(cfg, model),
        cfg.n_calls, cfg.n_batches, cfg.seed, cfg.sample_with_replacement,
    )
    _write_json(out / "sim_comparison.json", comparison.to_dict())
    # one event log per policy, first batch, for inspection and plotting
    for (label, _), outcome in zip(policies, comparison.first_batch):
        simcore.save_event_log(outcome.event_log, out / f"event_log_{label}.csv")
    return {name: out / name for name in ("sim_comparison.json", "event_log_stochastic.csv", "event_log_robust.csv")}


def cmd_verify(cfg: RunConfig, out: Path) -> dict[str, Path]:
    grid = _load_grid(out)
    model = _load_model(out)
    test_calls = _read_calls(out, "calls_test.csv")
    report = calibrate.verify(
        test_calls, grid, model, cfg.verify_batch_size, cfg.verify_n_batches, cfg.snap_cells
    )
    _write_json(out / "verification.json", report.to_dict())
    return {"verification.json": out / "verification.json"}


def cmd_alpha_cv(cfg: RunConfig, out: Path) -> dict[str, Path]:
    grid = _load_grid(out)
    calls, _ = _parse_calls(cfg, out)
    peak_calls = _peak(cfg, calls)
    edges = _edges(cfg, grid)
    adjacency, ball = _regions(cfg, grid)
    table: list[list[float | None]] = []
    saturated: dict[float, bool] = {a: False for a in cfg.alphas}
    errors: list[str] = []
    for fold in range(cfg.cv_folds):
        train, test = ingest.split_train_test(
            peak_calls, cfg.train_fraction, "kfold", cfg.cv_folds, fold, cfg.seed
        )
        matrix = _demand_for_rates(cfg, train, grid)
        rates = demand.fit_rates(matrix, adjacency, ball)
        test_pairs = _snap_calls(cfg, grid, test)
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
                outcome = simcore.simulate(
                    x, test_pairs, grid, _sim_params(cfg, None), seed=derive_seed(cfg.seed, "alphacv", fold)
                )
                mrt_by_x[key] = outcome.mean_response_s / 60.0
            row.append(mrt_by_x[key])
        table.append(row)
    _write_csv(out / "alpha_cv.csv", ["fold"] + [f"alpha_{a}" for a in cfg.alphas], (
        [fold + 1] + ["" if v is None else f"{v:.4f}" for v in row] for fold, row in enumerate(table)
    ))
    means = {}
    for i, alpha in enumerate(cfg.alphas):
        vals = [row[i] for row in table if row[i] is not None]
        means[str(alpha)] = float(np.mean(vals)) if vals else None
    candidates = [
        a for a in cfg.alphas
        if not saturated[a] and means[str(a)] is not None
    ]
    recommended = min(candidates, key=lambda a: means[str(a)]) if candidates else None
    _write_json(out / "alpha_cv_summary.json", {
        "mean_mrt_minutes": means,
        "saturated": {str(a): saturated[a] for a in cfg.alphas},
        "recommended_alpha": recommended,
        "errors": errors,
    })
    return {"alpha_cv.csv": out / "alpha_cv.csv", "alpha_cv_summary.json": out / "alpha_cv_summary.json"}


def cmd_fleet_sweep(cfg: RunConfig, out: Path) -> dict[str, Path]:
    grid = _load_grid(out)
    matrix = _load_matrix(cfg, out)
    model = _load_model(out)
    test_calls = _read_calls(out, "calls_test.csv")
    edges = _edges(cfg, grid)
    uset = _load_uset(cfg, out, grid)
    scenarios = stochastic.sample_scenarios(matrix, cfg.m_scenarios, cfg.seed)
    search = _search(cfg)
    params = _sim_params(cfg, model)
    test_pairs = _snap_calls(cfg, grid, test_calls, batches=True)
    mrt_by_x: dict[bytes, float] = {}  # every stationing runs on the same batches

    def mrt_min(x: np.ndarray) -> float:
        key = x.tobytes()
        if key not in mrt_by_x:
            _, summary = simcore.run_batches(
                x, test_pairs, grid, params,
                cfg.n_calls, cfg.n_batches, cfg.seed, cfg.sample_with_replacement,
            )
            mrt_by_x[key] = summary.overall_mean_s / 60.0
        return mrt_by_x[key]

    rows = []
    for n in range(cfg.n_min, cfg.n_max + 1):
        sol = stochastic.solve_stochastic(scenarios, n, edges, search)
        row = {"n": n, "stochastic_mrt_min": mrt_min(sol.x_star.x)}
        if cfg.sweep_robust:
            rob = robust.solve_robust_ccg(uset, n, edges, search_config=search)
            row["robust_mrt_min"] = mrt_min(rob.x_star.x)
        rows.append(row)
    header = ["n", "stochastic_mrt_min"] + (["robust_mrt_min"] if cfg.sweep_robust else [])
    _write_csv(out / "fleet_sweep.csv", header, (
        [row[h] if h == "n" else f"{row[h]:.4f}" for h in header] for row in rows
    ))
    return {"fleet_sweep.csv": out / "fleet_sweep.csv"}


def cmd_analyze(cfg: RunConfig, out: Path) -> dict[str, Path]:
    grid = _load_grid(out)
    calls, _ = _parse_calls(cfg, out)
    if not cfg.svi_csv or not cfg.tract_map_csv:
        raise ConfigError("analyze requires svi_csv and tract_map_csv")
    svi = analysis.load_svi_table(cfg.svi_csv)
    tract_map = analysis.load_tract_map(cfg.tract_map_csv)
    dataset = analysis.assemble_tracts(_peak(cfg, calls), grid, tract_map, svi, cfg.snap_cells)
    reports = analysis.compare_models(dataset, cfg.analysis_folds, cfg.seed, cfg.lambda_grid)
    analysis.save_model_reports(reports, out / "analysis_report.csv")
    _write_json(out / "analysis_details.json", {
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
    grid = _load_grid(out)
    calls, _ = _parse_calls(cfg, out)

    weekday, clock_us = ingest.weekday_and_clock_us(calls.wall_us)
    counts = np.bincount(weekday * 24 + clock_us // 3_600_000_000, minlength=7 * 24).reshape(7, 24)
    _write_csv(out / "plot_temporal_heatmap.csv", ["weekday", "hour", "count"], (
        [wd, hour, int(counts[wd, hour])] for wd in range(7) for hour in range(24)
    ))

    cells, inside = geogrid.assign_cells(grid, calls.lat, calls.lon, cfg.snap_cells)
    cell_counts = np.bincount(cells[inside], minlength=grid.n_cells)
    _write_csv(out / "plot_spatial_heatmap.csv", ["cell", "lat", "lon", "count"], (
        [j, repr(lat), repr(lon), int(cell_counts[j])] for j, (lat, lon) in enumerate(grid.cell_centers)
    ))

    model = _load_model(out)
    pairs, _ = ingest.calibration_pairs(_read_calls(out, "calls_test.csv"), grid, cfg.snap_cells)
    _write_csv(out / "plot_regression_scatter.csv", ["grid_s", "reported_s", "adjusted_s"], (
        [repr(g), repr(r), repr(calibrate.apply(model, g))] for g, r in pairs
    ))

    with open(_require(out / "verification.json", "verify")) as f:
        vdoc = json.load(f)
    _write_csv(out / "plot_verification_points.csv", ["batch", "mean_error_s"], (
        [i, repr(err)] for i, err in enumerate(vdoc["batch_errors_s"], start=1)
    ))

    stations = [(i, cell, *grid.cell_centers[cell]) for i, cell in enumerate(grid.station_cells)]
    for label, x in _load_stationings(cfg, out):
        _write_csv(out / f"plot_stationing_{label}.csv", ["station", "cell", "lat", "lon", "count"], (
            [i, cell, repr(lat), repr(lon), int(x[i])] for i, cell, lat, lon in stations
        ))
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
        out.mkdir(parents=True, exist_ok=True)
        files = COMMANDS[args.subcommand](cfg, out)
        config_path = out / "config_resolved.json"
        _write_json(config_path, cfg.to_dict())
        files["config_resolved.json"] = config_path
        manifest = {
            "subcommand": args.subcommand,
            "config": cfg.to_dict(),
            "files": {name: _sha256(path) for name, path in sorted(files.items())},
        }
        _write_json(out / "manifest.json", manifest)
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
