"""The benchmark's workloads: input synthesis, the timed unit of work, and
the output checks that decide whether each operation failed.

Every workload is a closed loop in one process: one operation after
another, no threads or worker pools. A unit is one pass over the
workload's operations; ``run.py`` repeats units for the run's duration.
Inputs depend only on the seed. A workload has ``INSTANCES`` seeded input
sets; set-up ``i`` builds instance ``i`` and unit ``k`` runs instance
``k % INSTANCES``. A unit's ``key`` names its inputs, so two units with the
same key must produce the same digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import sys
from collections import Counter
from dataclasses import dataclass, field
from datetime import time as clock_time
from pathlib import Path

import numpy as np

from emsdeploy import calibrate, cli, demand, dispatchflow, geogrid, ingest, robust, simcore, stochastic, synth
from emsdeploy.rng import derive_seed

FLEET = 6
M_SCENARIOS = 50
ALPHA = 0.01
COVERAGE_S = 600.0
PEAK = (clock_time(8, 0), clock_time(20, 0), (0, 1, 2, 3, 4))


@dataclass
class Unit:
    instance: int
    key: str  # names the unit's inputs
    wall_s: float  # at the reference host speed, see hostspeed.py
    raw_wall_s: float
    attempted: int
    failed: int
    digest: str
    detail: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sha256_file(path: Path) -> str:
    return _sha256_bytes(path.read_bytes())


def _span(tracer, name: str):
    return tracer.span(name) if tracer else contextlib.nullcontext()


def _quiet(tracer):
    return tracer.paused() if tracer else contextlib.nullcontext()


def _stationing_errors(x, n: int) -> list[str]:
    x = np.asarray(x)
    return [] if int(x.sum()) <= n and np.all(x >= 0) else [f"stationing {x.tolist()} exceeds fleet {n}"]


def check_stochastic(x, objective: float, scenarios: np.ndarray, n: int, edges) -> list[str]:
    """The objective is the mean Dinic shortfall over the same scenarios."""
    errors = _stationing_errors(x, n)
    again = float(np.mean([dispatchflow.min_shortfall(x, d, edges).total for d in scenarios]))
    if abs(again - objective) > 1e-9:
        errors.append(f"stochastic objective {objective} != recomputed {again}")
    return errors


def check_robust(x, worst_case: int, certificate, uset, n: int, edges) -> list[str]:
    """The certificate is a member of the set and attains the reported worst case."""
    errors = _stationing_errors(x, n)
    if not uset.contains(certificate):
        errors.append("certifying demand is not a member of the uncertainty set")
    again = dispatchflow.min_shortfall(x, certificate, edges).total
    if again != worst_case:
        errors.append(f"robust worst case {worst_case} != shortfall of its certificate {again}")
    return errors


class Quickstart:
    """The README city through the ten ``emsdeploy`` stages, in process."""

    name = "quickstart"
    INSTANCES = 1
    N_CALLS = 65_000

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.config = {
            "calls_csv": "calls.csv", "svi_csv": "svi.csv", "tract_map_csv": "tracts.csv",
            "speed_kmh": 60.0, "n_ambulances": FLEET, "m_scenarios": M_SCENARIOS, "alpha": ALPHA,
            "n_calls": 1000, "n_batches": 12, "verify_batch_size": 200, "verify_n_batches": 10,
            "seed": seed,
        }

    def setup(self, i: int = 0) -> None:
        cfg = synth.SynthConfig()
        grid = synth.synth_grid(cfg)
        ingest.serialize_calls(synth.synth_calls(grid, self.N_CALLS, seed=self.seed, cfg=cfg), self.dir / "calls.csv")
        tract_map, svi = synth.synth_tracts(grid, seed=self.seed, tracts_per_side=6)
        synth.write_svi_csv(svi, self.dir / "svi.csv")
        synth.write_tract_map_csv(tract_map, self.dir / "tracts.csv")
        (self.dir / "config.json").write_text(json.dumps(self.config))

    def inputs_digest(self, i: int = 0) -> str:
        return _sha256_bytes("".join(_sha256_file(self.dir / f) for f in ("calls.csv", "svi.csv", "tracts.csv")).encode())

    def unit(self, k: int, clock, tracer=None) -> Unit:
        out = f"run{k}"
        shutil.rmtree(self.dir / out, ignore_errors=True)
        stage_s, manifests, errors = {}, {}, []
        failed = set()
        here = os.getcwd()
        os.chdir(self.dir)  # manifests hold the config's relative paths
        try:
            clock.resume()
            for stage in cli.COMMANDS:
                with _span(tracer, f"cli.{stage}"), contextlib.redirect_stdout(sys.stderr):
                    try:
                        rc = cli.main([stage, "--config", "config.json", "--out", out])
                    except Exception as exc:  # an operation that raises counts as failed
                        rc = repr(exc)
                stage_s[stage] = clock.lap(resume=False)
                if rc != 0:
                    failed.add(stage)
                    errors.append(f"{stage}: exit {rc}")
                else:
                    manifests[stage] = _sha256_file(Path(out) / "manifest.json")
                clock.resume()
            clock.lap(resume=False)
            if "optimize" not in failed:
                with _quiet(tracer):
                    problems = self._check_optimize(Path(out))
                if problems:
                    failed.add("optimize")
                    errors.extend(f"optimize: {p}" for p in problems)
        finally:
            os.chdir(here)
        shutil.rmtree(self.dir / out, ignore_errors=True)
        digest = _sha256_bytes(json.dumps(manifests, sort_keys=True).encode())
        return Unit(0, "instance 0", clock.ref_s, clock.raw_s, len(cli.COMMANDS), len(failed), digest,
                    {"stage_raw_ref_s": stage_s, "manifest_sha256": manifests}, errors)

    def _check_optimize(self, out: Path) -> list[str]:
        grid = geogrid.load_grid(out / "grid.json")
        edges = dispatchflow.edges_from_coverage(geogrid.derive_coverage(grid, COVERAGE_S))
        matrix = ingest.load_demand_matrix(out / "demand_matrix.csv")
        scenarios = stochastic.sample_scenarios(matrix, M_SCENARIOS, self.seed).demands
        uset = demand.load_uncertainty_set(
            out / "uncertainty.json", geogrid.derive_adjacency(grid), geogrid.derive_region_ball(grid, COVERAGE_S)
        )
        sto = json.loads((out / "deployment_stochastic.json").read_text())
        rob = json.loads((out / "deployment_robust.json").read_text())
        return check_stochastic(sto["x"], sto["objective"], scenarios, FLEET, edges) + check_robust(
            rob["x"], rob["worst_case"], rob["certifying_demand"], uset, FLEET, edges
        )


class StationLadder:
    """Both exact solvers on the quickstart demand as the station set grows."""

    name = "station-ladder"
    # solver cost swings with the demand data (CCG takes 5 to 9 iterations at
    # I=12), so each run averages three cities
    INSTANCES = 3
    N_CALLS = 65_000
    # the quickstart stations first, then corners, centre and edge cells
    CELLS = (7, 10, 25, 28, 0, 5, 30, 35, 14, 21, 3, 32)
    RUNGS = (8, 10, 12)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.inputs: dict[int, tuple] = {}

    def setup(self, i: int = 0) -> None:
        seed = self.seed if i == 0 else derive_seed(self.seed, self.name, i)
        cfg = synth.SynthConfig()
        grid = synth.synth_grid(cfg)
        calls = synth.synth_calls(grid, self.N_CALLS, seed=seed, cfg=cfg)
        # the quickstart's preprocess and fit: peak hours, chronological 80% train
        train, _ = ingest.split_train_test(ingest.filter_peak(calls, *PEAK), 0.8, "chronological")
        matrix = ingest.build_demand_matrix(train, grid, 3600.0, 1.0)
        matrix = ingest.select_periods(matrix, ingest.peak_period_mask(matrix, *PEAK))
        adjacency, ball = geogrid.derive_adjacency(grid), geogrid.derive_region_ball(grid, COVERAGE_S)
        rates = demand.fit_rates(matrix, adjacency, ball)
        self.bounds = grid.bounds
        uset = demand.build_uncertainty_set(rates, ALPHA, adjacency, ball)
        self.inputs[i] = uset, stochastic.sample_scenarios(matrix, M_SCENARIOS, seed), seed

    def inputs_digest(self, i: int = 0) -> str:
        uset, scenarios, _ = self.inputs[i]
        caps = (uset.single_cap, uset.local_cap, uset.regional_cap, [uset.global_cap])
        return _sha256_bytes(scenarios.demands.tobytes() + json.dumps([list(map(int, c)) for c in caps]).encode())

    def _edges(self, n_stations: int):
        grid = geogrid.build_grid(
            self.bounds, 6, 6, geogrid.SyntheticSpeedProvider(60.0),
            station_cells=sorted(self.CELLS[:n_stations]), hospital_cells=[14],
        )
        return dispatchflow.edges_from_coverage(geogrid.derive_coverage(grid, COVERAGE_S))

    def unit(self, k: int, clock, tracer=None) -> Unit:
        i = k % self.INSTANCES
        uset, scenarios, seed = self.inputs[i]
        search = stochastic.SearchConfig(max_nodes=1_000_000)
        rungs, errors, solved = {}, [], []
        attempted = failed = 0
        clock.resume()
        for n_i in self.RUNGS:
            edges = self._edges(n_i)
            row = rungs[f"I{n_i}"] = {}
            for kind in ("stochastic", "robust"):
                attempted += 1
                with _span(tracer, f"station-ladder.I{n_i}.{kind}"):
                    try:
                        if kind == "stochastic":
                            sol = stochastic.solve_stochastic(scenarios, FLEET, edges, search)
                        else:
                            sol = robust.solve_robust_ccg(
                                uset, FLEET, edges, epsilon=1e-6, max_iter=200,
                                size_budget=200_000, search_config=search,
                            )
                    except Exception as exc:  # an operation that raises counts as failed
                        sol = None
                        failed += 1
                        errors.append(f"I{n_i} {kind}: {exc!r}")
                row[f"{kind}_raw_ref_s"] = clock.lap()
                if sol is not None:
                    solved.append((n_i, kind, edges, sol))
        clock.lap(resume=False)
        with _quiet(tracer):
            for n_i, kind, edges, sol in solved:
                x = sol.x_star.x
                row = rungs[f"I{n_i}"]
                if kind == "stochastic":
                    row.update(stochastic_x=x.tolist(), objective=sol.objective)
                    problems = check_stochastic(x, sol.objective, scenarios.demands, FLEET, edges)
                else:
                    row.update(robust_x=x.tolist(), worst_case=sol.worst_case_shortfall,
                               converged=sol.converged, ccg_iterations=sol.state.iterations)
                    problems = check_robust(x, sol.worst_case_shortfall, sol.certifying_demand, uset, FLEET, edges)
                if problems:
                    failed += 1
                    errors.extend(f"I{n_i} {kind}: {p}" for p in problems)
        outputs = {r: {k: v for k, v in row.items() if not k.endswith("_s")} for r, row in rungs.items()}
        digest = _sha256_bytes(json.dumps(outputs, sort_keys=True).encode())
        return Unit(i, f"instance {i}", clock.ref_s, clock.raw_s, attempted, failed, digest,
                    {"city_seed": seed, "rungs": rungs}, errors)


class CitySim:
    """Two given stationings on a large synthetic city, scored by the simulator."""

    name = "city-sim"
    INSTANCES = 1
    N_CALLS = 40_000
    FLEET = 64
    BATCH = 5_000
    LATTICE = (1, 4, 7, 10)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.cfg = synth.SynthConfig(
            n_rows=12, n_cols=12, bounds=(30.0, 30.6, -98.0, -97.4), speed_kmh=60.0,
            station_cells=tuple(r * 12 + c for r in self.LATTICE for c in self.LATTICE),
            hospital_cells=(3 * 12 + 3, 3 * 12 + 8, 8 * 12 + 3, 8 * 12 + 8),
            calls_per_hour=40.0,
        )
        self.params = simcore.SimParams(
            calibration=calibrate.CalibrationModel(kind="loglog", intercept=1.2, slope=0.8)
        )

    def setup(self, i: int = 0) -> None:
        self.grid = synth.synth_grid(self.cfg)
        ingest.serialize_calls(synth.synth_calls(self.grid, self.N_CALLS, seed=self.seed, cfg=self.cfg),
                               self.dir / "calls.csv")

    def inputs_digest(self, i: int = 0) -> str:
        return _sha256_file(self.dir / "calls.csv")

    def policies(self, k: int) -> list[tuple[str, np.ndarray]]:
        n_stations = len(self.cfg.station_cells)
        uniform = np.full(n_stations, self.FLEET // n_stations, dtype=np.int64)
        rng = np.random.default_rng([self.seed, k])
        return [("uniform", uniform), ("multinomial", rng.multinomial(self.FLEET, [1 / n_stations] * n_stations))]

    def unit(self, k: int, clock, tracer=None) -> Unit:
        policies = self.policies(k)
        n_batches = self.N_CALLS // self.BATCH
        sim_seed = self.seed * 1_000 + k  # fresh service draws per unit: no stationing repeats
        seen: list[tuple[int, float, list[str]]] = []
        inner = simcore.simulate

        def checked(x, calls, *args, **kwargs):
            outcome = inner(x, calls, *args, **kwargs)
            clock.lap(resume=False)
            batch = (hash(tuple((c.timestamp, c.lat, c.lon) for c in calls)), kwargs.get("seed"))
            seen.append((batch, outcome.mean_response_s, _sim_errors(outcome, len(calls))))
            clock.resume()
            return outcome

        errors: list[str] = []
        clock.resume()
        simcore.simulate = checked  # run_batches looks the simulator up in its module
        try:
            calls, _ = ingest.parse_calls(self.dir / "calls.csv")
            comparison = simcore.compare_policies(
                policies, calls, self.grid, self.params, self.BATCH, n_batches, sim_seed
            )
        except Exception as exc:  # an operation that raises counts as failed
            comparison = None
            errors.append(f"compare_policies: {exc!r}")
        finally:
            simcore.simulate = inner
        clock.lap(resume=False)
        attempted = len(policies) * n_batches
        if comparison is None:
            return Unit(0, f"unit {k}", clock.ref_s, clock.raw_s, attempted, attempted, "", {}, errors)
        failed = 0
        for p in range(len(policies)):
            for b in range(n_batches):
                i = p * n_batches + b
                problems = list(seen[i][2]) if i < len(seen) else ["batch was not simulated"]
                if i < len(seen):
                    if seen[i][0] != seen[b][0]:
                        problems.append("policies saw different call batches or service draws")
                    if seen[i][1] != comparison.batch_means_s[b, p]:
                        problems.append("reported batch mean differs from the simulated one")
                if problems:
                    failed += 1
                    errors.extend(f"{policies[p][0]} batch {b}: {msg}" for msg in problems)
        means = comparison.batch_means_s
        digest = _sha256_bytes(json.dumps([[repr(float(v)) for v in row] for row in means]).encode())
        detail = {
            "stationings": {label: x.tolist() for label, x in policies},
            "overall_mean_min": {label: float(means[:, p].mean() / 60.0) for p, (label, _) in enumerate(policies)},
        }
        return Unit(0, f"unit {k}", clock.ref_s, clock.raw_s, attempted, failed, digest, detail, errors)


def _sim_errors(outcome, n_calls: int) -> list[str]:
    """Simulator invariants for one batch."""
    errors = []
    if [c.call_id for c in outcome.calls] != list(range(n_calls)):
        errors.append("not every call was served exactly once")
    kinds = Counter(e.kind for e in outcome.event_log)
    for kind in (simcore.NEW_CALL, simcore.CALL_ENROUTE, simcore.CALL_ARRIVE_SCENE, simcore.CALL_DEPART_SCENE):
        if kinds[kind] != n_calls:
            errors.append(f"{kinds[kind]} {kind} events for {n_calls} calls")
    if not all(c.response_s >= c.travel_s >= 0 for c in outcome.calls):
        errors.append("a call has response < travel or travel < 0")
    return errors


WORKLOADS = {w.name: w for w in (Quickstart, StationLadder, CitySim)}
