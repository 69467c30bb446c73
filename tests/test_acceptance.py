"""Acceptance suite: one test per release criterion, one printed verdict line
per criterion, each at its stated tolerance and time budget.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from emsdeploy import calibrate, geogrid, ingest, simcore, stochastic
from emsdeploy.analysis import compare_models, fit_lasso, fit_ols
from emsdeploy.cli import main as cli_main
from emsdeploy.demand import UncertaintySet, enumerate_set, poisson_var
from emsdeploy.dispatchflow import EdgeSet, min_shortfall
from emsdeploy.robust import solve_robust_ccg
from emsdeploy.rng import substream
from emsdeploy.synth import SynthConfig, synth_calls, synth_grid, synth_tract_dataset
from oracles import (
    brute_min_shortfall_many,
    compositions_at_most,
    exhaustive_best_deployment,
    poisson_var_oracle,
)


@contextmanager
def criterion(number: int, name: str, budget_s: float | None = None):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL ({time.time() - start:.1f}s)")
        raise
    elapsed = time.time() - start
    print(f"ACCEPTANCE {number:2d} {name}: PASS ({elapsed:.1f}s)")
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def edge_families(rng, n_i, n_j):
    """All edge subsets for small bipartite shapes, sampled families for larger."""
    all_pairs = [(i, j) for i in range(n_i) for j in range(n_j)]
    if len(all_pairs) <= 4:
        for mask in range(1 << len(all_pairs)):
            yield [p for k, p in enumerate(all_pairs) if mask >> k & 1]
        return
    yield []
    yield all_pairs
    for _ in range(30):
        yield [p for p in all_pairs if rng.random() < 0.5]


def test_criterion_1_recourse_oracle_equivalence():
    with criterion(1, "recourse oracle equivalence", budget_s=60):
        rng = np.random.default_rng(1001)
        checked = 0
        for n_i in (1, 2, 3):
            for n_j in (1, 2, 3):
                demand_box = np.array(list(itertools.product(range(3), repeat=n_j)), dtype=np.int64)
                for pairs in edge_families(rng, n_i, n_j):
                    edges = EdgeSet(pairs, n_i, n_j)
                    for x in itertools.product(range(3), repeat=n_i):
                        want = brute_min_shortfall_many(x, demand_box, pairs)
                        for d, expect in zip(demand_box, want):
                            got = min_shortfall(np.array(x), d, edges)
                            assert got.total == int(expect)
                            # the attached routing certifies the optimum
                            assert np.all(got.routing.station_usage() <= np.array(x))
                            assert np.array_equal(got.z, d - got.routing.region_served())
                            checked += 1
        assert checked > 40_000, checked


def test_criterion_2_stochastic_solver_exactness():
    with criterion(2, "stochastic solver exactness", budget_s=120):
        rng = np.random.default_rng(1002)
        for _ in range(200):
            n_i = int(rng.integers(1, 5))
            n_j = int(rng.integers(1, 5))
            pairs = [(i, j) for i in range(n_i) for j in range(n_j) if rng.random() < 0.6]
            edges = EdgeSet(pairs, n_i, n_j)
            m = int(rng.integers(1, 6))
            demands = rng.integers(0, 3, size=(m, n_j))
            n = int(rng.integers(0, 5))
            sol = stochastic.solve_stochastic(stochastic.ScenarioSet(demands), n, edges)
            want_x, want_obj = exhaustive_best_deployment(
                demands, n, n_i, pairs, lambda t: float(t.mean())
            )
            assert sol.objective == want_obj
            assert tuple(sol.x_star.x) == want_x
            assert sol.optimality_flag.kind == "exact"


def random_uncertainty_set(rng, n_j):
    caps = rng.integers(0, 3, size=n_j)
    adjacency = np.eye(n_j, dtype=bool)
    for j in range(n_j - 1):
        adjacency[j, j + 1] = adjacency[j + 1, j] = True
    return UncertaintySet(
        alpha=0.05,
        single_cap=caps,
        local_cap=caps + rng.integers(0, 2, size=n_j),
        regional_cap=np.full(n_j, int(caps.sum())),
        global_cap=int(rng.integers(1, caps.sum() + 2)),
        adjacency=adjacency,
        coverage_ball=np.ones((n_j, n_j), dtype=bool),
    )


def test_criterion_3_robust_ccg_exactness():
    with criterion(3, "robust CCG exactness", budget_s=120):
        rng = np.random.default_rng(1003)
        for _ in range(100):
            n_j = int(rng.integers(1, 4))
            n_i = int(rng.integers(1, 4))
            uset = random_uncertainty_set(rng, n_j)
            pairs = [(i, j) for i in range(n_i) for j in range(n_j) if rng.random() < 0.7]
            edges = EdgeSet(pairs, n_i, n_j)
            n = int(rng.integers(0, 4))
            sol = solve_robust_ccg(uset, n, edges)
            members = enumerate_set(uset)
            best = min(
                int(brute_min_shortfall_many(x, members, pairs).max())
                for x in compositions_at_most(n, n_i)
            )
            assert sol.converged
            assert sol.worst_case_shortfall == best
            lbs = [h[0] for h in sol.state.history]
            ubs = [h[1] for h in sol.state.history]
            assert all(a <= b + 1e-9 for a, b in zip(lbs, lbs[1:]))
            assert all(a >= b - 1e-9 for a, b in zip(ubs, ubs[1:]))
            assert all(lb <= ub + 1e-9 for lb, ub in zip(lbs, ubs))
            assert uset.contains(sol.certifying_demand)
            assert min_shortfall(sol.x_star.x, sol.certifying_demand, edges).total == best


def test_criterion_4_poisson_var_oracle_grid():
    with criterion(4, "Poisson VaR oracle grid", budget_s=1):
        for rate in (0.1, 1.0, 2.0, 5.0, 20.0):
            for alpha in (0.1, 0.05, 0.01, 0.001, 0.0001):
                assert poisson_var(rate, alpha) == poisson_var_oracle(rate, alpha)


def _check_sim_invariants(outcome, n_calls, fleet):
    from collections import Counter

    counts = Counter(e.kind for e in outcome.event_log)
    assert counts[simcore.NEW_CALL] == n_calls
    assert counts[simcore.CALL_ENROUTE] == n_calls
    assert counts[simcore.CALL_ARRIVE_SCENE] == n_calls
    # FIFO: dispatch order of queued calls follows arrival order
    dispatch_order = [e.call_id for e in outcome.event_log if e.kind == simcore.CALL_ENROUTE]
    assert dispatch_order == sorted(dispatch_order)
    # accounting: never dispatched while busy, ambulance ids stay within fleet
    busy = {}
    for e in outcome.event_log:
        if e.kind == simcore.CALL_ENROUTE:
            assert 0 <= e.ambulance_id < fleet
            assert not busy.get(e.ambulance_id, False)
            busy[e.ambulance_id] = True
        elif e.kind == simcore.AMBULANCE_AVAILABLE:
            busy[e.ambulance_id] = False
    for c in outcome.calls:
        assert c.response_s == c.dispatch_wait_s + c.travel_s


def test_criterion_5_simulator_invariants():
    with criterion(5, "simulator invariants", budget_s=60):
        cfg = SynthConfig()
        grid = synth_grid(cfg)
        for run in range(50):
            rng = substream(1005, "sim-acceptance", run)
            calls = synth_calls(grid, 500, seed=int(rng.integers(0, 2**31)), cfg=cfg)
            x = rng.multinomial(int(rng.integers(4, 9)), [0.25] * 4)
            while x.sum() < 1:
                x = rng.multinomial(5, [0.25] * 4)
            seed = int(rng.integers(0, 2**31))
            outcome = simcore.simulate(x, calls, grid, simcore.SimParams(), seed=seed)
            _check_sim_invariants(outcome, 500, int(x.sum()))
            again = simcore.simulate(x, calls, grid, simcore.SimParams(), seed=seed)
            assert outcome.event_log == again.event_log


def test_criterion_6_service_time_distribution():
    with criterion(6, "service-time distribution"):
        rng = substream(1006, "service-acceptance")
        params = simcore.SimParams(lognormal_mu=3.65, lognormal_sigma=0.3)
        draws = np.array([simcore.draw_service_time(params, rng) for _ in range(100_000)])
        median_min = float(np.median(draws)) / 60.0
        assert abs(median_min - math.exp(3.65)) / math.exp(3.65) < 0.02
        logs = np.log(draws / 60.0)
        se = 0.3 / math.sqrt(len(draws))
        assert abs(float(logs.mean()) - 3.65) < 3 * se


def test_criterion_7_calibration_recovery():
    with criterion(7, "calibration recovery"):
        # noiseless recovery at 1e-9
        gs = np.linspace(40.0, 1500.0, 60)
        pairs = [(float(g), float(math.exp(0.7 + 0.85 * math.log(g)))) for g in gs]
        model = calibrate.fit_loglog(pairs, trim_p=0.01)
        assert model.intercept == pytest.approx(0.7, abs=1e-9)
        assert model.slope == pytest.approx(0.85, abs=1e-9)
        assert model.r_squared == pytest.approx(1.0, abs=1e-9)

        # noisy recovery: truth inside the +-t*SE band in >= 95% of 100 seeds
        a_true, b_true, n = 1.1, 0.85, 200
        t_crit = 1.972
        hits_a = hits_b = 0
        for seed in range(100):
            rng = substream(1007, "calib-acceptance", seed)
            g = rng.uniform(30.0, 1800.0, size=n)
            reported = np.exp(a_true + b_true * np.log(g) + rng.normal(0, 0.3, size=n))
            fit = calibrate.fit_loglog(list(zip(g, reported)), trim_p=0.0)
            lx = np.log(g)
            resid = np.log(reported) - (fit.intercept + fit.slope * lx)
            s2 = float((resid**2).sum()) / (n - 2)
            sxx = float(((lx - lx.mean()) ** 2).sum())
            se_b = math.sqrt(s2 / sxx)
            se_a = math.sqrt(s2 * (1.0 / n + lx.mean() ** 2 / sxx))
            hits_a += abs(fit.intercept - a_true) <= t_crit * se_a
            hits_b += abs(fit.slope - b_true) <= t_crit * se_b
        # nominal coverage is exactly 95%, so observed counts fluctuate with
        # sd ~2.2; require each count above the one-sided 99.9% binomial
        # floor and the pooled count near nominal, which still fails loudly
        # if the fit or the standard errors are wrong
        assert hits_a >= 89
        assert hits_b >= 89
        assert hits_a + hits_b >= 185

        # verification under the generating model is unbiased within 3 SE
        grid = geogrid.build_grid(
            (30.0, 30.3, -97.3, -97.0), 3, 3,
            geogrid.SyntheticSpeedProvider(40.0), station_cells=[0],
        )
        rng = substream(1007, "verify-acceptance")
        from emsdeploy.ingest import CallRecord, CallTable
        from datetime import datetime, timedelta, timezone
        from zoneinfo import ZoneInfo

        t0 = datetime(2024, 1, 1, 8, tzinfo=timezone.utc)
        amb_lat, amb_lon = grid.cell_centers[0]
        calls = []
        while len(calls) < 600:
            lat = float(rng.uniform(30.0, 30.3))
            lon = float(rng.uniform(-97.3, -97.0))
            cell = geogrid.assign_cell(grid, lat, lon)
            if cell == 0:
                continue
            g_s = float(grid.travel_time_s[0, cell])
            reported = math.exp(1.0 + 0.8 * math.log(g_s) + float(rng.normal(0, 0.2)))
            calls.append(CallRecord(
                timestamp=t0 + timedelta(seconds=60.0 * len(calls)),
                lat=lat, lon=lon, reported_travel_s=reported,
                ambulance_lat=amb_lat, ambulance_lon=amb_lon,
            ))
        calls = CallTable.from_records(calls, ZoneInfo("UTC"))
        cal_pairs, _ = ingest.calibration_pairs(calls, grid)
        fitted = calibrate.fit_loglog(cal_pairs, trim_p=0.01)
        report = calibrate.verify(calls, grid, fitted, batch_size=60, n_batches=10)
        se = report.std_error_s / math.sqrt(report.n_batches)
        assert abs(report.mean_error_s) <= 3 * se


def test_criterion_8_end_to_end_synthetic_dominance():
    with criterion(8, "end-to-end synthetic dominance", budget_s=300):
        cfg = SynthConfig()
        grid = synth_grid(cfg)
        assert grid.n_rows == 6 and grid.n_cols == 6
        assert len(grid.station_cells) == 4
        coverage = geogrid.derive_coverage(grid, 600.0)
        edges = __import__("emsdeploy.dispatchflow", fromlist=["edges_from_coverage"]).edges_from_coverage(coverage)
        calls = synth_calls(grid, 13_000, seed=2024, cfg=cfg)

        matrix = ingest.build_demand_matrix(calls, grid, 3600.0)
        matrix = ingest.select_periods(matrix, ingest.peak_period_mask(matrix))
        scen = stochastic.sample_scenarios(matrix, 50, seed=2024)
        sol = stochastic.solve_stochastic(scen, 6, edges)
        assert sol.optimality_flag.kind == "exact"

        rng = substream(2024, "uniform-random-x")
        random_x = rng.multinomial(6, [0.25] * 4)
        while np.array_equal(random_x, sol.x_star.x):
            random_x = rng.multinomial(6, [0.25] * 4)

        params = simcore.SimParams()
        table = simcore.compare_policies(
            [("optimal", sol.x_star.x), ("random", random_x)],
            calls, grid, params, n_calls=1000, n_batches=12, seed=2024,
        )
        opt, rnd = table.batch_means_s[:, 0], table.batch_means_s[:, 1]
        wins = int((opt < rnd).sum())
        assert wins >= 10, f"optimal stationing won only {wins}/12 batches"

        mrts = []
        for n in range(4, 9):
            s = stochastic.solve_stochastic(scen, n, edges)
            _, summary = simcore.run_batches(
                s.x_star.x, calls, grid, params, n_calls=1000, n_batches=12, seed=2024
            )
            mrts.append(summary.overall_mean_s)
        inversions = sum(1 for a, b in zip(mrts, mrts[1:]) if b > a)
        assert inversions <= 1, f"fleet-sweep MRT inverted {inversions} times: {mrts}"


def test_criterion_9_analysis_protocol():
    with criterion(9, "analysis protocol"):
        rng = substream(1009, "lasso-acceptance")
        X = rng.normal(size=(40, 5))
        y = rng.normal(size=40)
        assert np.allclose(fit_lasso(X, y, lam=0.0, tol=1e-12), fit_ols(X, y), atol=1e-6)

        raw = rng.normal(size=(64, 4))
        raw -= raw.mean(axis=0)
        q, _ = np.linalg.qr(raw)
        Xo = q * math.sqrt(64)
        yo = 3.0 + Xo @ np.array([1.5, -0.8, 0.3, 0.0]) + rng.normal(0, 0.1, size=64)
        ols = fit_ols(Xo, yo)
        for lam in (0.05, 0.2, 0.6):
            lasso = fit_lasso(Xo, yo, lam=lam, tol=1e-12)
            want = np.sign(ols[1:]) * np.maximum(np.abs(ols[1:]) - lam, 0.0)
            assert np.allclose(lasso[1:], want, atol=1e-6)

        wins = 0
        for seed in range(20):
            ds = synth_tract_dataset(seed)
            reports = compare_models(ds, k=5, seed=seed)
            wins += reports[0].variables == "avg.station.time"
        assert wins >= 18, f"avg.station.time model ranked first in only {wins}/20 seeds"


def test_criterion_10_cli_reproducibility(tmp_path):
    with criterion(10, "CLI reproducibility"):
        from emsdeploy.ingest import serialize_calls

        cfg = SynthConfig()
        grid = synth_grid(cfg)
        calls = synth_calls(grid, 600, seed=5, cfg=cfg)
        calls_csv = tmp_path / "calls.csv"
        serialize_calls(calls, calls_csv)
        config = {
            "calls_csv": str(calls_csv),
            "speed_kmh": 60.0,
            "n_ambulances": 4,
            "m_scenarios": 20,
            "alpha": 0.05,
            "n_calls": 25,
            "n_batches": 2,
            "seed": 3,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        manifests = []
        for run_dir in ("a", "b"):
            out = tmp_path / run_dir
            for sub in ("grid", "preprocess", "fit", "optimize", "simulate"):
                code = cli_main([sub, "--config", str(config_path), "--out", str(out)])
                assert code == 0, f"{sub} exited {code}"
            manifests.append(json.loads((out / "manifest.json").read_text()))
        assert manifests[0]["files"] == manifests[1]["files"]
        # in-place rerun reproduces byte-identical outputs
        out = tmp_path / "a"
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        for sub in ("grid", "preprocess", "fit", "optimize", "simulate"):
            assert cli_main([sub, "--config", str(config_path), "--out", str(out)]) == 0
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert before == after
