import numpy as np
import pytest

from emsdeploy.demand import UncertaintySet, enumerate_set
from emsdeploy.dispatchflow import EdgeSet, min_shortfall
from emsdeploy.robust import (
    solve_robust_ccg,
    worst_case_demand,
)
from emsdeploy.stochastic import ScenarioSet, solve_stochastic
from oracles import brute_min_shortfall_many, compositions_at_most


def full_edges(n_i, n_j):
    return EdgeSet([(i, j) for i in range(n_i) for j in range(n_j)], n_i, n_j)


def loose_set(single_caps, global_cap=None):
    n = len(single_caps)
    eye = np.eye(n, dtype=bool)
    caps = np.array(single_caps, dtype=np.int64)
    big = np.full(n, 10_000, dtype=np.int64)
    return UncertaintySet(
        alpha=0.01,
        single_cap=caps,
        local_cap=big,
        regional_cap=big,
        global_cap=int(caps.sum()) if global_cap is None else global_cap,
        adjacency=eye,
        coverage_ball=eye,
    )


def random_set(rng, n_regions):
    caps = rng.integers(0, 3, size=n_regions)
    adjacency = np.eye(n_regions, dtype=bool)
    for j in range(n_regions - 1):
        adjacency[j, j + 1] = adjacency[j + 1, j] = True
    ball = np.ones((n_regions, n_regions), dtype=bool)
    return UncertaintySet(
        alpha=0.05,
        single_cap=caps,
        local_cap=caps + rng.integers(0, 2, size=n_regions),
        regional_cap=np.full(n_regions, int(caps.sum())),
        global_cap=int(rng.integers(1, caps.sum() + 2)),
        adjacency=adjacency,
        coverage_ball=ball,
    )


def brute_minimax(uset, n, n_stations, edges):
    members = enumerate_set(uset)
    best = None
    for x in compositions_at_most(n, n_stations):
        worst = int(brute_min_shortfall_many(x, members, list(edges.edges)).max())
        if best is None or worst < best:
            best = worst
    return best


def test_worst_case_zero_set():
    uset = loose_set([0, 0])
    edges = full_edges(1, 2)
    wc = worst_case_demand(np.array([0]), uset, edges)
    assert wc.shortfall == 0
    assert np.all(wc.demand == 0)
    assert wc.exact


def test_worst_case_single_region():
    uset = loose_set([3])
    edges = EdgeSet([(0, 0)], 1, 1)
    wc = worst_case_demand(np.array([1]), uset, edges)
    assert wc.demand.tolist() == [3]
    assert wc.shortfall == 2


def test_worst_case_matches_enumeration_argmax():
    rng = np.random.default_rng(61)
    for _ in range(30):
        n_j = int(rng.integers(1, 4))
        n_i = int(rng.integers(1, 4))
        uset = random_set(rng, n_j)
        pairs = [(i, j) for i in range(n_i) for j in range(n_j) if rng.random() < 0.7]
        edges = EdgeSet(pairs, n_i, n_j)
        x = rng.integers(0, 3, size=n_i)
        wc = worst_case_demand(x, uset, edges)
        members = enumerate_set(uset)
        totals = brute_min_shortfall_many(x, members, pairs)
        assert wc.exact
        assert wc.shortfall == int(totals.max())
        # lexicographically smallest argmax
        argmaxes = members[totals == totals.max()]
        assert np.array_equal(wc.demand, argmaxes[0])
        assert uset.contains(wc.demand)


def test_greedy_fallback_flags_heuristic():
    uset = loose_set([2, 2, 2, 2], global_cap=5)
    edges = full_edges(2, 4)
    wc = worst_case_demand(np.array([1, 0]), uset, edges, size_budget=10)
    assert not wc.exact
    assert uset.contains(wc.demand)
    # greedy fills to a maximal member: 5 units is the global cap
    assert wc.demand.sum() == 5
    assert wc.shortfall == 4


def test_ccg_zero_set_converges_immediately():
    uset = loose_set([0])
    edges = EdgeSet([(0, 0)], 1, 1)
    sol = solve_robust_ccg(uset, 1, edges)
    assert sol.converged
    assert sol.worst_case_shortfall == 0
    assert sol.state.iterations == 1


def test_ccg_single_station_covers_cap():
    uset = loose_set([2])
    edges = EdgeSet([(0, 0)], 1, 1)
    sol = solve_robust_ccg(uset, 2, edges)
    assert sol.converged
    assert sol.x_star.x.tolist() == [2]
    assert sol.worst_case_shortfall == 0


def test_ccg_exact_on_random_tiny_instances():
    rng = np.random.default_rng(67)
    for _ in range(30):
        n_j = int(rng.integers(1, 4))
        n_i = int(rng.integers(1, 4))
        uset = random_set(rng, n_j)
        pairs = [(i, j) for i in range(n_i) for j in range(n_j) if rng.random() < 0.7]
        edges = EdgeSet(pairs, n_i, n_j)
        n = int(rng.integers(0, 4))
        sol = solve_robust_ccg(uset, n, edges)
        assert sol.converged
        assert sol.worst_case_shortfall == brute_minimax(uset, n, n_i, edges)
        # bounds are monotone and consistent throughout
        lbs = [h[0] for h in sol.state.history]
        ubs = [h[1] for h in sol.state.history]
        assert all(a <= b + 1e-9 for a, b in zip(lbs, lbs[1:]))
        assert all(a >= b - 1e-9 for a, b in zip(ubs, ubs[1:]))
        assert all(lb <= ub + 1e-9 for lb, ub in zip(lbs, ubs))
        # the certificate is a real member achieving the reported worst case
        assert uset.contains(sol.certifying_demand)
        check = min_shortfall(sol.x_star.x, sol.certifying_demand, edges)
        assert check.total == sol.worst_case_shortfall


def test_ccg_terminates_within_set_size():
    rng = np.random.default_rng(71)
    uset = random_set(rng, 3)
    edges = full_edges(2, 3)
    sol = solve_robust_ccg(uset, 2, edges)
    assert sol.state.iterations <= len(enumerate_set(uset)) + 1


def test_robust_worst_case_at_least_stochastic_mean():
    rng = np.random.default_rng(73)
    uset = random_set(rng, 3)
    edges = full_edges(2, 3)
    members = enumerate_set(uset)
    scen = ScenarioSet(members)  # scenarios drawn from the same support
    stoch = solve_stochastic(scen, 2, edges)
    rob = solve_robust_ccg(uset, 2, edges)
    assert rob.worst_case_shortfall >= stoch.objective - 1e-9


def test_cap_monotonicity_of_worst_case():
    edges = full_edges(1, 2)
    small = loose_set([1, 1])
    large = loose_set([2, 2])
    sol_small = solve_robust_ccg(small, 1, edges)
    sol_large = solve_robust_ccg(large, 1, edges)
    assert sol_large.worst_case_shortfall >= sol_small.worst_case_shortfall
