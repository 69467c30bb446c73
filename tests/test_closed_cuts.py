"""Closed-cut scoring and the depth-aware search bound against brute force.

Stations with identical or nested coverage are where closing a cut matters:
a station whose regions the others already cover joins every closed cut
that holds them.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from emsdeploy.dispatchflow import ScenarioEvaluator, edges_from_coverage, min_shortfall
from emsdeploy.robust import CutTable, solve_robust_ccg
from emsdeploy.stochastic import ScenarioSet, SearchConfig, minimize_deployment, solve_stochastic
from oracles import (
    box_members,
    brute_min_shortfall_many,
    compositions_at_most,
    exhaustive_best_deployment,
    reference_minimize_deployment,
)
from test_robust import binding_sets


@st.composite
def nested_coverages(draw, max_stations, n_regions, min_stations=1):
    """Station coverage rows, each fresh, a copy of an earlier row, or
    inside or around one. A row may be empty: a station that covers no
    region."""
    rows = []
    for _ in range(draw(st.integers(min_stations, max_stations))):
        row = np.array(draw(st.lists(st.booleans(), min_size=n_regions, max_size=n_regions)), dtype=bool)
        kind = draw(st.sampled_from(["fresh", "copy", "inside", "around"])) if rows else "fresh"
        if kind != "fresh":
            base = rows[draw(st.integers(0, len(rows) - 1))]
            row = {"copy": base, "inside": base & row, "around": base | row}[kind]
        rows.append(row)
    return edges_from_coverage(np.array(rows, dtype=bool).reshape(len(rows), n_regions))


def brute_cut_rows(edges):
    """Per subset s (bit i is station i): its station and region 0/1 rows;
    and for the closed subsets, s and the highest station outside S."""
    n_i = edges.n_stations
    covers = [set(r) for r in edges.station_regions]
    stations, regions, closed, reach = [], [], [], []
    for s in range(1 << n_i):
        inside = {i for i in range(n_i) if s >> i & 1}
        covered = set().union(*(covers[i] for i in inside))
        stations.append([float(i in inside) for i in range(n_i)])
        regions.append([float(j in covered) for j in range(edges.n_regions)])
        if all(i in inside for i in range(n_i) if covers[i] <= covered):
            closed.append(s)
            reach.append(max((i for i in range(n_i) if i not in inside), default=-1))
    return stations, regions, closed, reach


def check_bound(ev, x):
    """For every first free station k and pool size, the bound is at most
    the value of every completion that adds at most that many units at
    stations k and later, and never below the pool-anywhere bound
    max(value - free, 0)."""
    n_i = ev.edges.n_stations
    value = ev.value(x)
    for k in range(n_i + 1):
        for free in range(4):
            bound = ev.bound(x, free, k)
            assert bound >= max(value - free, 0) - 1e-9  # a scenario mean rounds
            for extra in compositions_at_most(free, n_i - k):
                assert bound <= ev.value(x + np.array((0,) * k + extra, dtype=np.int64))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_scenario_bound_is_admissible_and_tighter(data):
    n_j = data.draw(st.integers(1, 4))
    edges = data.draw(nested_coverages(5, n_j))
    m = data.draw(st.integers(1, 3))
    demands = np.array(data.draw(st.lists(st.integers(0, 3), min_size=m * n_j, max_size=m * n_j))).reshape(m, n_j)
    x = np.array(data.draw(st.lists(st.integers(0, 2), min_size=edges.n_stations, max_size=edges.n_stations)))
    ev = ScenarioEvaluator(edges, demands)
    check_bound(ev, x)
    # per scenario, too: the pooled totals never fall below totals - free
    for k in range(edges.n_stations + 1):
        for free in range(4):
            assert np.all(ev.relaxed_totals(x, free, k) >= np.maximum(ev.totals(x) - free, 0))


@settings(max_examples=150, deadline=None)
@given(binding_sets(max_regions=4), st.data())
def test_cut_table_bound_is_admissible_and_tighter(uset, data):
    edges = data.draw(nested_coverages(5, uset.n_regions))
    x = np.array(data.draw(st.lists(st.integers(0, 2), min_size=edges.n_stations, max_size=edges.n_stations)))
    check_bound(CutTable(uset, edges), x)


def check_child_bounds(ev, x):
    """At every node x[:k], child v's entry is the bound of x[:k] + (v,)
    with the other free - v units pooled, to the bit."""
    n_i = ev.edges.n_stations
    for k in range(n_i):
        prefix = x.copy()
        prefix[k:] = 0
        for free in range(4):
            got = ev.child_bounds(prefix, free, k)
            want = []
            for v in range(free + 1):
                child = prefix.copy()
                child[k] = v
                want.append(ev.bound(child, free - v, k + 1))
            assert got == want


@settings(max_examples=150, deadline=None)
@given(binding_sets(max_regions=4), st.data())
def test_child_bounds_equal_each_childs_bound(uset, data):
    n_j = uset.n_regions
    edges = data.draw(nested_coverages(5, n_j))
    m = data.draw(st.integers(1, 3))
    demands = np.array(data.draw(st.lists(st.integers(0, 3), min_size=m * n_j, max_size=m * n_j))).reshape(m, n_j)
    x = np.array(data.draw(st.lists(st.integers(0, 2), min_size=edges.n_stations, max_size=edges.n_stations)))
    check_child_bounds(ScenarioEvaluator(edges, demands), x)
    cuts = CutTable(uset, edges)
    check_child_bounds(cuts, x)
    # again once the exact worst cases of some stationings have raised lower values
    for y in (x, np.zeros_like(x), np.ones_like(x)):
        cuts.value(y)
    check_child_bounds(cuts, x)


@settings(max_examples=100, deadline=None)
@given(binding_sets(max_regions=4), st.data())
def test_search_matches_the_per_child_reference(uset, data):
    n_j = uset.n_regions
    edges = data.draw(nested_coverages(6, n_j))
    m = data.draw(st.integers(1, 3))
    demands = np.array(data.draw(st.lists(st.integers(0, 3), min_size=m * n_j, max_size=m * n_j))).reshape(m, n_j)
    n = data.draw(st.integers(0, 4))
    # a node limit also stops both searches at the same incumbent and gap
    max_nodes = data.draw(st.sampled_from([1, 2, 5, 1_000_000]))
    for make in (lambda: ScenarioEvaluator(edges, demands), lambda: CutTable(uset, edges)):
        got = minimize_deployment(make(), n, SearchConfig(max_nodes))
        want = reference_minimize_deployment(make(), n, max_nodes)
        assert (got.x.tolist(), got.objective, got.nodes, got.flag) == (want.x.tolist(), want.objective, want.nodes, want.flag)


@settings(max_examples=120, deadline=None)
@given(binding_sets(max_regions=4), st.data())
def test_solvers_on_closed_cuts_match_brute_force(uset, data):
    n_j = uset.n_regions
    edges = data.draw(nested_coverages(6, n_j))
    n_i, pairs = edges.n_stations, list(edges.edges)
    stations, regions, closed, reach = brute_cut_rows(edges)
    rows = sorted(zip(closed, reach), key=lambda row: [1.0 - v for v in regions[row[0]]])  # uncovered bits, region 0 first
    inside, covered, got_reach = edges.closed_cuts()
    assert [inside.tolist(), covered.tolist(), got_reach.tolist()] == [[stations[s] for s, _ in rows], [regions[s] for s, _ in rows], [r for _, r in rows]]
    m = data.draw(st.integers(1, 3))
    demands = np.array(data.draw(st.lists(st.integers(0, 2), min_size=m * n_j, max_size=m * n_j))).reshape(m, n_j)
    n = data.draw(st.integers(0, 3))

    ev = ScenarioEvaluator(edges, demands)
    for x in compositions_at_most(n, n_i):
        assert np.array_equal(ev.totals(np.array(x)), brute_min_shortfall_many(x, demands, pairs))

    sol = solve_stochastic(ScenarioSet(demands), n, edges)
    want_x, want_obj = exhaustive_best_deployment(demands, n, n_i, pairs, lambda t: float(t.mean()))
    assert tuple(sol.x_star.x) == want_x
    assert sol.objective == want_obj

    members = box_members(uset)
    best = min(int(brute_min_shortfall_many(x, members, pairs).max()) for x in compositions_at_most(n, n_i))
    rob = solve_robust_ccg(uset, n, edges)
    assert rob.converged
    assert rob.worst_case_shortfall == best
    # the certificate: W's maximizer on the lowest-index subset S, over all
    # 2^I, attaining max_S [W(S) - x(I \ S)]
    x = rob.x_star.x
    values = []
    for s in range(1 << n_i):
        uncovered = np.ones(n_j, dtype=bool)
        for i, j in pairs:
            if s >> i & 1:
                uncovered[j] = False
        w, d = uset.max_demand(uncovered)
        values.append((w - sum(int(x[i]) for i in range(n_i) if not s >> i & 1), d))
    top = max(v for v, _ in values)
    assert top == best
    assert np.array_equal(rob.certifying_demand, next(d for v, d in values if v == top))


@settings(max_examples=40, deadline=None)
@given(binding_sets(max_regions=4), st.data())
def test_solvers_past_fourteen_stations_match_brute_force(uset, data):
    n_j = uset.n_regions
    edges = data.draw(nested_coverages(18, n_j, min_stations=15))
    n_i, pairs = edges.n_stations, list(edges.edges)
    m = data.draw(st.integers(1, 3))
    demands = np.array(data.draw(st.lists(st.integers(0, 2), min_size=m * n_j, max_size=m * n_j))).reshape(m, n_j)
    n = data.draw(st.integers(0, 2))

    sol = solve_stochastic(ScenarioSet(demands), n, edges)
    want_x, want_obj = exhaustive_best_deployment(demands, n, n_i, pairs, lambda t: float(t.mean()))
    assert tuple(sol.x_star.x) == want_x
    assert sol.objective == want_obj

    members = box_members(uset)
    best = min(int(brute_min_shortfall_many(x, members, pairs).max()) for x in compositions_at_most(n, n_i))
    rob = solve_robust_ccg(uset, n, edges)
    assert rob.converged
    assert rob.worst_case_shortfall == best
    assert uset.contains(rob.certifying_demand)
    assert min_shortfall(rob.x_star.x, rob.certifying_demand, edges).total == best
