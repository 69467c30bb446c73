import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emsdeploy.demand import UncertaintySet, enumerate_set
from emsdeploy.dispatchflow import EdgeSet, min_shortfall, scenario_totals
from emsdeploy.errors import SolverError
from emsdeploy.robust import (
    solve_robust_ccg,
    worst_case_demand,
)
from emsdeploy.stochastic import ScenarioSet, solve_stochastic
from oracles import box_members, brute_min_shortfall_many, compositions_at_most


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
        # the certificate attains the max, the same one on every call
        assert int(brute_min_shortfall_many(x, wc.demand[None, :], pairs)[0]) == int(totals.max())
        assert np.array_equal(worst_case_demand(x, uset, edges).demand, wc.demand)
        assert uset.contains(wc.demand)


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


def test_robust_exact_beyond_enumeration_budget():
    # 18 regions with cap 1: a box of 2^18 = 262 144 points, past the
    # 200 000 the enumerator allows by default
    n_j = 18
    path = np.abs(np.subtract.outer(np.arange(n_j), np.arange(n_j)))
    uset = UncertaintySet(
        alpha=0.01,
        single_cap=np.ones(n_j, dtype=np.int64),
        local_cap=np.full(n_j, 2),
        regional_cap=np.full(n_j, 3),
        global_cap=6,
        adjacency=path <= 1,
        coverage_ball=path <= 2,
    )
    reach = [range(0, 8), range(6, 14), range(12, 18)]
    edges = EdgeSet([(i, j) for i, regions in enumerate(reach) for j in regions], 3, n_j)
    members = enumerate_set(uset, size_budget=10**6)
    best = min(int(scenario_totals(x, members, edges).max()) for x in compositions_at_most(3, 3))
    sol = solve_robust_ccg(uset, 3, edges)
    assert sol.converged
    assert sol.worst_case_shortfall == best
    assert uset.contains(sol.certifying_demand)
    assert min_shortfall(sol.x_star.x, sol.certifying_demand, edges).total == best


def test_robust_refuses_more_stations_than_cut_tables_hold():
    # the cut table has a row per station subset; 15 stations is past its cap
    with pytest.raises(SolverError):
        solve_robust_ccg(loose_set([1]), 1, full_edges(15, 1))


@st.composite
def binding_sets(draw, max_regions=5, max_cap=2):
    """Small uncertainty sets with arbitrary local and regional groups whose
    caps lie at or below their single-cap sums, so every level can bind."""
    n_j = draw(st.integers(1, max_regions))
    single = np.array(draw(st.lists(st.integers(0, max_cap), min_size=n_j, max_size=n_j)), dtype=np.int64)

    def groups():
        flags = draw(st.lists(st.booleans(), min_size=n_j * n_j, max_size=n_j * n_j))
        rows = np.array(flags, dtype=bool).reshape(n_j, n_j)
        np.fill_diagonal(rows, True)
        return rows

    def caps(rows):
        return np.array([draw(st.integers(0, int(s))) for s in rows.astype(np.int64) @ single], dtype=np.int64)

    adjacency, ball = groups(), groups()
    return UncertaintySet(
        alpha=0.05,
        single_cap=single,
        local_cap=caps(adjacency),
        regional_cap=caps(ball),
        global_cap=draw(st.integers(0, int(single.sum()))),
        adjacency=adjacency,
        coverage_ball=ball,
    )


@settings(max_examples=300, deadline=None)
@given(binding_sets(max_regions=7, max_cap=3))
def test_max_demand_matches_enumeration(uset):
    members = enumerate_set(uset)
    for mask in range(1 << uset.n_regions):
        regions = np.array([(mask >> j) & 1 for j in range(uset.n_regions)], dtype=bool)
        value, d = uset.max_demand(regions)
        assert value == int(members[:, regions].sum(axis=1).max())
        assert uset.contains(d)
        assert not d[~regions].any()
        assert int(d.sum()) == value


@settings(max_examples=200, deadline=None)
@given(binding_sets(), st.data())
def test_robust_solve_matches_brute_minimax(uset, data):
    n_j = uset.n_regions
    n_i = data.draw(st.integers(1, 3))
    flags = data.draw(st.lists(st.booleans(), min_size=n_i * n_j, max_size=n_i * n_j))
    pairs = [(k // n_j, k % n_j) for k, on in enumerate(flags) if on]
    edges = EdgeSet(pairs, n_i, n_j)
    n = data.draw(st.integers(0, 3))
    members = box_members(uset)
    best = min(int(brute_min_shortfall_many(x, members, pairs).max()) for x in compositions_at_most(n, n_i))
    sol = solve_robust_ccg(uset, n, edges)
    assert sol.converged
    assert sol.worst_case_shortfall == best
    assert [h[:2] for h in sol.state.history] == [(best, best)]
    assert uset.contains(sol.certifying_demand)
    assert int(brute_min_shortfall_many(sol.x_star.x, sol.certifying_demand[None, :], pairs)[0]) == best
