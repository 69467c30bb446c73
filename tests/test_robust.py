import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emsdeploy import dispatchflow
from emsdeploy.demand import UncertaintySet, enumerate_set
from emsdeploy.dispatchflow import EdgeSet, ScenarioEvaluator, min_shortfall
from emsdeploy.errors import SolverError
from emsdeploy.robust import (
    CutTable,
    solve_robust_ccg,
    worst_case_demand,
)
from emsdeploy.stochastic import ScenarioSet, SearchConfig, minimize_deployment, solve_stochastic
from oracles import (
    box_members,
    brute_min_shortfall_many,
    compositions_at_most,
    exhaustive_best_deployment,
    reference_demand_bounds,
    reference_root_values,
)


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
    ev = ScenarioEvaluator(edges, members)
    best = min(int(ev.totals(x).max()) for x in compositions_at_most(3, 3))
    sol = solve_robust_ccg(uset, 3, edges)
    assert sol.converged
    assert sol.worst_case_shortfall == best
    assert uset.contains(sol.certifying_demand)
    assert min_shortfall(sol.x_star.x, sol.certifying_demand, edges).total == best


def test_robust_solves_past_fourteen_stations():
    # 2^15 station subsets, but one union of regions besides the empty one
    edges = full_edges(15, 1)
    assert len(edges.closed_cuts()[0]) == 2
    sol = solve_robust_ccg(loose_set([1]), 1, edges)
    assert sol.converged
    assert sol.worst_case_shortfall == 0


def test_robust_refuses_more_closed_cuts_than_the_budget(monkeypatch):
    # stations covering disjoint regions give all 2^8 unions
    monkeypatch.setattr(dispatchflow, "_MAX_CLOSED_CUTS", 1 << 6)
    with pytest.raises(SolverError):
        solve_robust_ccg(loose_set([1] * 8), 1, EdgeSet([(i, i) for i in range(8)], 8, 8))


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
    # ties go to the lexicographically smallest stationing
    assert tuple(sol.x_star.x) == exhaustive_best_deployment(members, n, n_i, pairs, lambda t: int(t.max()))[0]
    assert [h[:2] for h in sol.state.history] == [(best, best)]
    assert uset.contains(sol.certifying_demand)
    assert int(brute_min_shortfall_many(sol.x_star.x, sol.certifying_demand[None, :], pairs)[0]) == best


class CountingSet(UncertaintySet):
    """An uncertainty set that records each region mask it searches exactly."""

    def __post_init__(self):
        super().__post_init__()
        self.searched = []

    def max_demand(self, regions):
        self.searched.append(np.asarray(regions, dtype=bool).tobytes())
        return super().max_demand(regions)


def on_mask(members, regions):
    """The members zero off ``regions``, in lexicographic order."""
    return members[~members[:, ~regions].any(axis=1)]


def draw_edges(data, n_j, max_stations=3):
    n_i = data.draw(st.integers(1, max_stations))
    flags = data.draw(st.lists(st.booleans(), min_size=n_i * n_j, max_size=n_i * n_j))
    pairs = [(k // n_j, k % n_j) for k, on in enumerate(flags) if on]
    return EdgeSet(pairs, n_i, n_j), pairs


def brute_worst_case(x, members, edges):
    """(max_S [W(S) - x(I \\ S)], W's lexicographically largest maximizer on
    the lowest-index subset S attaining it), with W by enumeration."""
    best = None
    for s in range(1 << edges.n_stations):
        uncovered = np.ones(edges.n_regions, dtype=bool)
        for i, j in edges.edges:
            if s >> i & 1:
                uncovered[j] = False
        rows = on_mask(members, uncovered)
        sums = rows.sum(axis=1)
        value = int(sums.max()) - sum(int(x[i]) for i in range(edges.n_stations) if not s >> i & 1)
        if best is None or value > best[0]:
            best = value, rows[np.flatnonzero(sums == sums.max())[-1]]
    return best


@settings(max_examples=300, deadline=None)
@given(binding_sets(max_regions=6, max_cap=3))
def test_demand_bounds_bracket_max_demand(uset):
    members = box_members(uset)
    for mask in range(1 << uset.n_regions):
        regions = np.array([(mask >> j) & 1 for j in range(uset.n_regions)], dtype=bool)
        (lower,), (upper,), (d,) = uset.demand_bounds_stack(regions[None])
        value, best = uset.max_demand(regions)
        rows = on_mask(members, regions)
        assert lower <= value <= upper
        # the first leaf: the lexicographically largest member on the mask
        assert uset.contains(d)
        assert not d[~regions].any()
        assert int(d.sum()) == lower
        assert d.tolist() == rows[-1].tolist()
        # max_demand's maximizer is the lexicographically largest one
        assert best.tolist() == rows[rows.sum(axis=1) == value][-1].tolist()
        if lower == upper:
            assert np.array_equal(d, best)


@settings(max_examples=300, deadline=None)
@given(binding_sets(max_regions=8, max_cap=4), st.data())
def test_partitions_cover_each_mask_and_never_loosen_the_greedy_bound(uset, data):
    n_j = uset.n_regions
    drawn = data.draw(st.lists(st.lists(st.booleans(), min_size=n_j, max_size=n_j), min_size=1, max_size=8))
    stack = np.array(drawn, dtype=bool)
    rows, caps = uset._rows()
    binding, steps, root = uset._partitions(stack)
    assert root.shape == (3, 2, len(stack))
    for s, mask in enumerate(stack):
        # a region's open bound: its single cap, or a binding row's cap if less
        open_bound = np.array([min([int(uset.single_cap[p])] + caps[binding[s] & rows[:, p]].tolist())
                               for p in range(n_j)])
        greedy = reference_root_values(uset, mask)
        for level, (lo, hi) in enumerate(((0, n_j), (n_j, 2 * n_j), (2 * n_j, 2 * n_j + 1))):
            # each rule's steps partition the mask into groups worth its root value
            for rule in range(2):
                seen, value = np.zeros(n_j, dtype=bool), 0
                for row, group in steps[level][rule]:
                    r, g = int(row[s]), group[s]
                    assert not (g & seen).any()
                    seen |= g
                    if r < 0:
                        value += int(open_bound[g].sum())
                    else:
                        assert lo <= r < hi and binding[s, r]
                        assert not (g & ~rows[r]).any()
                        value += min(int(caps[r]), int(open_bound[g].sum()))
                assert seen.tolist() == mask.tolist()
                assert int(root[level, rule, s]) == value == greedy[level][rule]
        # the search bounds by the tighter rule's partition at each level
        _, residual, limits, partitions = uset._prepare(mask)
        ub = [min(residual[k] for k in held) for held in limits]
        values = [sum(min(residual[k], sum(ub[p] for p in g)) for k, g in groups) for groups in partitions]
        assert values == [min(pair) for pair in greedy]


def test_open_bound_is_at_most_the_single_cap():
    # every row, the global one too, holds region 0: only its single cap of 0 bounds it
    full = np.ones((2, 2), dtype=bool)
    uset = UncertaintySet(alpha=0.05, single_cap=np.array([0, 1]), local_cap=np.array([1, 1]),
                          regional_cap=np.array([1, 1]), global_cap=1, adjacency=full, coverage_ball=full)
    lower, upper, leaves = uset.demand_bounds_stack(np.ones((1, 2), dtype=bool))
    assert (int(lower[0]), int(upper[0]), leaves[0].tolist()) == (1, 1, [0, 1])
    assert (int(lower[0]), int(upper[0])) == reference_demand_bounds(uset, np.ones(2, dtype=bool))[:2]


@settings(max_examples=300, deadline=None)
@given(binding_sets(max_regions=8, max_cap=4), st.data())
def test_stacked_demand_bounds_match_the_per_set_reference(uset, data):
    n_j = uset.n_regions
    drawn = data.draw(st.lists(st.lists(st.booleans(), min_size=n_j, max_size=n_j), max_size=10))
    # the empty and the full mask and the drawn ones, each twice, in a drawn order
    masks = data.draw(st.permutations(2 * ([[False] * n_j, [True] * n_j] + drawn)))
    stack = np.array(masks, dtype=bool)
    lower, upper, leaves = uset.demand_bounds_stack(stack)
    assert lower.shape == upper.shape == (len(stack),) and leaves.shape == stack.shape
    for k, regions in enumerate(stack):
        want_lower, want_upper, want_leaf = reference_demand_bounds(uset, regions)
        want = (want_lower, want_upper, want_leaf.tolist())
        assert (int(lower[k]), int(upper[k]), leaves[k].tolist()) == want
        # a stack of the one mask bounds it alike
        (one_lower,), (one_upper,), (one_leaf,) = uset.demand_bounds_stack(regions[None])
        assert (int(one_lower), int(one_upper), one_leaf.tolist()) == want


@settings(max_examples=150, deadline=None)
@given(binding_sets(), st.data())
def test_worst_case_on_a_shared_table_matches_a_fresh_one(uset, data):
    edges, pairs = draw_edges(data, uset.n_regions, max_stations=4)
    n_i = edges.n_stations
    xs = data.draw(st.lists(st.lists(st.integers(0, 3), min_size=n_i, max_size=n_i), min_size=1, max_size=6))
    members = box_members(uset)
    counted = CountingSet(**vars(uset))
    shared = CutTable(counted, edges)
    for x in xs:
        x = np.array(x, dtype=np.int64)
        got = worst_case_demand(x, uset, edges, shared)
        fresh = worst_case_demand(x, uset, edges)
        value, certificate = brute_worst_case(x, members, edges)
        assert (got.shortfall, got.demand.tolist()) == (fresh.shortfall, fresh.demand.tolist())
        assert (got.shortfall, got.demand.tolist()) == (value, certificate.tolist())
        assert value == int(brute_min_shortfall_many(x, members, pairs).max())
    # a set searched exactly keeps its value: it is never searched again
    assert len(counted.searched) == len(set(counted.searched))


@settings(max_examples=150, deadline=None)
@given(binding_sets(), st.data())
def test_a_shared_table_gives_each_fleet_bound_the_x_of_a_fresh_solve(uset, data):
    # one table serves a whole fleet sweep: each search refines it for the next,
    # and the next still returns the lexicographically smallest optimum
    edges, _ = draw_edges(data, uset.n_regions, max_stations=4)
    fleet = range(5)
    fresh = {n: solve_robust_ccg(uset, n, edges).x_star.x.tolist() for n in fleet}
    for order in (fleet, data.draw(st.permutations(fleet))):
        shared = CutTable(uset, edges)
        for n in order:
            result = minimize_deployment(shared, n)
            assert result.flag.kind == "exact"
            assert result.x.tolist() == fresh[n]


@settings(max_examples=150, deadline=None)
@given(binding_sets(), st.data())
def test_robust_node_limit_stop_keeps_valid_bounds(uset, data):
    edges, pairs = draw_edges(data, uset.n_regions)
    n_i = edges.n_stations
    n = data.draw(st.integers(0, 3))
    # a complete stationing is popped no sooner than node n_i + 1
    limit = data.draw(st.integers(1, n_i))
    members = box_members(uset)
    best = min(int(brute_min_shortfall_many(x, members, pairs).max()) for x in compositions_at_most(n, n_i))
    sol = solve_robust_ccg(uset, n, edges, search_config=SearchConfig(max_nodes=limit))
    x = sol.x_star.x
    worst = int(brute_min_shortfall_many(x, members, pairs).max())
    assert not sol.converged
    assert int(x.sum()) <= n
    assert sol.worst_case_shortfall == worst
    assert uset.contains(sol.certifying_demand)
    assert int(brute_min_shortfall_many(x, sol.certifying_demand[None, :], pairs)[0]) == worst
    [(lower, upper, _)] = sol.state.history
    assert lower <= best <= upper == worst


def test_robust_solve_searches_again_when_a_lower_value_misleads():
    # d0 + d1 <= 1 (a ball) and d0 + d2 <= 1 (a neighborhood): the first leaf
    # on all three regions takes d0 = 1 and blocks the rest, so W's lower
    # value there is 1, not 2. Station 0 covers regions 0 and 2, station 1
    # none: on the lower values every stationing of one unit scores 1
    eye = np.eye(3, dtype=bool)
    adjacency, ball = eye.copy(), eye.copy()
    adjacency[0, 2] = ball[0, 1] = True
    uset = UncertaintySet(alpha=0.05, single_cap=[1, 1, 1], local_cap=[1, 1, 1], regional_cap=[1, 1, 1],
                          global_cap=3, adjacency=adjacency, coverage_ball=ball)
    lower, upper, _ = uset.demand_bounds_stack(np.ones((1, 3), dtype=bool))
    assert (lower.tolist(), upper.tolist()) == ([1], [2])
    edges = EdgeSet([(0, 0), (0, 2)], 2, 3)
    sol = solve_robust_ccg(uset, 1, edges)
    assert sol.converged
    assert sol.x_star.x.tolist() == [1, 0]
    assert (sol.worst_case_shortfall, sol.certifying_demand.tolist()) == (1, [0, 1, 1])
    # on a fresh table the empty subset ties on its upper value; its lower
    # member (1, 0, 0) is served, so only the exact search certifies it
    wc = worst_case_demand(np.array([1, 0]), uset, edges)
    assert (wc.shortfall, wc.demand.tolist()) == (1, [0, 1, 1])


def test_worst_case_searches_a_tied_set_once():
    # three regions on an odd cycle of neighborhoods, each pair capped at 1:
    # W = 1 on all three, but every partition holds one pair and one region
    # alone, so the upper bound reads 2. Station 0 covers nothing, so the
    # subsets {} and {0} share a region set and, at x_0 = 0, a station side:
    # both tie on the upper value
    adjacency = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=bool)
    uset = CountingSet(alpha=0.05, single_cap=[1, 1, 1], local_cap=[1, 1, 1], regional_cap=[1, 1, 1],
                       global_cap=3, adjacency=adjacency, coverage_ball=np.eye(3, dtype=bool))
    lower, upper, _ = uset.demand_bounds_stack(np.ones((1, 3), dtype=bool))
    assert (lower.tolist(), upper.tolist()) == ([1], [2])
    wc = worst_case_demand(np.array([0, 1]), uset, EdgeSet([(1, 2)], 2, 3))
    assert (wc.shortfall, wc.demand.tolist()) == (1, [1, 0, 0])
    assert len(uset.searched) == 1
