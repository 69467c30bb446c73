import numpy as np
import pytest

from emsdeploy.dispatchflow import EdgeSet, ScenarioEvaluator, min_shortfall
from emsdeploy.errors import ConfigError, DataError
from emsdeploy.stochastic import (
    SearchConfig,
    ScenarioSet,
    minimize_deployment,
    sample_scenarios,
    solve_stochastic,
)
from oracles import brute_min_shortfall_many, exhaustive_best_deployment


def full_edges(n_i, n_j):
    return EdgeSet([(i, j) for i in range(n_i) for j in range(n_j)], n_i, n_j)


def matrix_of(rows):
    counts = np.array(rows, dtype=np.int64)
    return counts


def test_sample_single_period_always_that_row():
    counts = matrix_of([[2, 0, 1]])
    s = sample_scenarios(counts, 7, seed=1)
    assert np.all(s.demands == counts[0])


def test_sample_deterministic_under_seed():
    counts = matrix_of([[1, 0], [0, 2], [3, 3]])
    a = sample_scenarios(counts, 25, seed=9)
    b = sample_scenarios(counts, 25, seed=9)
    assert np.array_equal(a.demands, b.demands)
    c = sample_scenarios(counts, 25, seed=10)
    assert not np.array_equal(a.demands, c.demands)


def test_sample_law_of_large_numbers():
    counts = matrix_of([[1, 0], [0, 1]])
    s = sample_scenarios(counts, 10_000, seed=3)
    frac_first = float(np.mean(np.all(s.demands == counts[0], axis=1)))
    assert abs(frac_first - 0.5) < 0.05


def test_sample_empty_matrix_rejected():
    with pytest.raises(DataError):
        sample_scenarios(np.zeros((0, 2), dtype=np.int64), 5)


def test_solve_n_zero():
    edges = full_edges(2, 2)
    scen = ScenarioSet(np.array([[1, 2], [0, 3]]))
    sol = solve_stochastic(scen, 0, edges)
    assert np.all(sol.x_star.x == 0)
    assert sol.objective == pytest.approx(3.0)  # mean total demand
    assert sol.optimality_flag.kind == "exact"


def test_solve_trivial_single_station():
    edges = EdgeSet([(0, 0)], 1, 1)
    scen = ScenarioSet(np.array([[1]]))
    sol = solve_stochastic(scen, 1, edges)
    assert sol.x_star.x.tolist() == [1]
    assert sol.objective == 0.0


def test_solution_invariants():
    rng = np.random.default_rng(17)
    edges = full_edges(3, 3)
    scen = ScenarioSet(rng.integers(0, 3, size=(4, 3)))
    sol = solve_stochastic(scen, 3, edges)
    assert sol.objective == pytest.approx(np.mean([min_shortfall(sol.x_star.x, d, edges).total for d in scen.demands]))
    assert sol.x_star.x.sum() <= 3


def test_exactness_on_random_instances():
    rng = np.random.default_rng(29)
    for _ in range(40):
        n_i = int(rng.integers(1, 5))
        n_j = int(rng.integers(1, 5))
        pairs = [(i, j) for i in range(n_i) for j in range(n_j) if rng.random() < 0.6]
        edges = EdgeSet(pairs, n_i, n_j)
        m = int(rng.integers(1, 6))
        demands = rng.integers(0, 3, size=(m, n_j))
        n = int(rng.integers(0, 5))
        sol = solve_stochastic(ScenarioSet(demands), n, edges)
        want_x, want_obj = exhaustive_best_deployment(
            demands, n, n_i, pairs, lambda t: float(t.mean())
        )
        assert sol.objective == pytest.approx(want_obj)
        assert tuple(sol.x_star.x) == want_x  # lexicographically smallest argmin


def test_objective_nonincreasing_in_fleet_size():
    rng = np.random.default_rng(43)
    edges = full_edges(3, 3)
    demands = rng.integers(0, 3, size=(5, 3))
    scen = ScenarioSet(demands)
    objs = [solve_stochastic(scen, n, edges).objective for n in range(6)]
    assert all(a >= b for a, b in zip(objs, objs[1:]))


def test_solution_invariant_under_scenario_permutation():
    rng = np.random.default_rng(47)
    edges = full_edges(3, 2)
    demands = rng.integers(0, 3, size=(6, 2))
    sol = solve_stochastic(ScenarioSet(demands), 2, edges)
    perm = rng.permutation(6)
    sol_p = solve_stochastic(ScenarioSet(demands[perm]), 2, edges)
    assert np.array_equal(sol.x_star.x, sol_p.x_star.x)
    assert sol.objective == pytest.approx(sol_p.objective)


def test_scaling_demand_scales_zero_fleet_objective():
    rng = np.random.default_rng(53)
    edges = full_edges(2, 3)
    demands = rng.integers(0, 3, size=(4, 3))
    base = solve_stochastic(ScenarioSet(demands), 0, edges).objective
    scaled = solve_stochastic(ScenarioSet(3 * demands), 0, edges).objective
    assert scaled == pytest.approx(3 * base)


def test_evaluate_deployment():
    edges = full_edges(2, 2)
    demands = np.array([[1, 1], [2, 0]])
    ev = ScenarioEvaluator(edges, demands)
    assert ev.value([0, 0]) == pytest.approx(2.0)
    # duplicating the scenario list leaves the mean unchanged
    assert ScenarioEvaluator(edges, np.vstack([demands, demands])).value([1, 1]) == ev.value([1, 1])
    # matches per-scenario recomputation
    totals = brute_min_shortfall_many([1, 1], demands, list(edges.edges))
    assert ev.value([1, 1]) == pytest.approx(totals.mean())


def test_node_budget_returns_flagged_incumbent():
    rng = np.random.default_rng(59)
    edges = full_edges(3, 3)
    demands = rng.integers(0, 3, size=(3, 3))
    sol = solve_stochastic(ScenarioSet(demands), 3, edges, SearchConfig(max_nodes=2))
    assert sol.optimality_flag.kind == "bound_gap"
    assert sol.optimality_flag.gap >= 0.0
    exact = solve_stochastic(ScenarioSet(demands), 3, edges)
    assert sol.objective >= exact.objective


def test_node_budget_incumbent_places_the_whole_fleet():
    rng = np.random.default_rng(61)
    for _ in range(12):
        n_i, n_j = int(rng.integers(2, 5)), int(rng.integers(1, 5))
        pairs = [(i, j) for i in range(n_i) for j in range(n_j) if rng.random() < 0.6]
        edges = EdgeSet(pairs, n_i, n_j)
        demands = rng.integers(0, 3, size=(int(rng.integers(1, 5)), n_j))
        n = int(rng.integers(1, 5))
        exact = minimize_deployment(ScenarioEvaluator(edges, demands), n)
        # every node budget that stops the search before its exact leaf
        for max_nodes in range(1, exact.nodes):
            ev = ScenarioEvaluator(edges, demands)
            got = minimize_deployment(ev, n, SearchConfig(max_nodes))
            assert got.flag.kind == "bound_gap"
            assert int(got.x.sum()) == n
            assert got.objective == ev.value(got.x)
            assert got.flag.gap >= 0.0
            assert got.objective - got.flag.gap <= exact.objective <= got.objective


def test_rejects_bad_arguments():
    edges = full_edges(1, 1)
    with pytest.raises(ConfigError):
        minimize_deployment(ScenarioEvaluator(edges, np.array([[1]])), -1)
    with pytest.raises(ConfigError):
        sample_scenarios(np.array([[1]]), 0)
