import itertools

import numpy as np
import pytest

from emsdeploy.dispatchflow import (
    Deployment,
    EdgeSet,
    Routing,
    ScenarioEvaluator,
    edges_from_coverage,
    min_shortfall,
)
from emsdeploy.errors import DataError
from oracles import brute_min_shortfall


def full_edges(n_i, n_j):
    return EdgeSet([(i, j) for i in range(n_i) for j in range(n_j)], n_i, n_j)


def test_deployment_fleet_bound():
    Deployment(np.array([1, 2]), 3)
    with pytest.raises(DataError):
        Deployment(np.array([2, 2]), 3)
    with pytest.raises(DataError):
        Deployment(np.array([-1, 0]), 3)


@pytest.mark.parametrize("x", [
    [2.9, 1.9, 2.9, 1.9], ["2", "1", "2", "1"], [True, 1, 2, 1], [1e30, 0, 0, 0], [10**30, 0, 0, 0],
    np.array([2.0, 1.0, 2.0, 1.0]), 6, [[2, 1], [2, 1]],
])
def test_deployment_refuses_entries_that_are_not_integers(x):
    # none is truncated, parsed, read as 1 or overflowed
    with pytest.raises(DataError, match="integer"):
        Deployment(x, 6)


def test_deployment_takes_integers_of_any_integer_type():
    for x in ([2, 1, 2, 1], (2, 1, 2, 1), np.array([2, 1, 2, 1], dtype=np.int32), [np.int64(2), 1, 2, 1]):
        assert Deployment(x, 6).x.tolist() == [2, 1, 2, 1]
        assert Deployment(x, 6).x.dtype == np.int64


def test_incidence_empty_and_single():
    b_i, b_j = EdgeSet([], 2, 2).incidence()
    assert b_i.shape == (2, 0) and b_j.shape == (2, 0)
    b_i, b_j = EdgeSet([(0, 0)], 1, 1).incidence()
    assert b_i.tolist() == [[1]] and b_j.tolist() == [[1]]


def test_incidence_rejects_duplicates():
    with pytest.raises(DataError):
        EdgeSet([(0, 0), (0, 0)], 1, 1).incidence()


def test_incidence_sums_match_direct_summation():
    rng = np.random.default_rng(2)
    edges = EdgeSet([(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)], 3, 3)
    b_i, b_j = edges.incidence()
    for _ in range(20):
        y = rng.integers(0, 4, size=len(edges))
        by_station = np.zeros(3, dtype=np.int64)
        by_region = np.zeros(3, dtype=np.int64)
        for k, (i, j) in enumerate(edges.edges):
            by_station[i] += y[k]
            by_region[j] += y[k]
        assert np.array_equal(b_i @ y, by_station)
        assert np.array_equal(b_j @ y, by_region)


def test_min_shortfall_no_supply():
    edges = full_edges(2, 2)
    d = np.array([3, 1])
    res = min_shortfall([0, 0], d, edges)
    assert res.total == 4
    assert np.array_equal(res.z, d)
    assert np.all(res.routing.y == 0)


def test_min_shortfall_single_pair():
    edges = EdgeSet([(0, 0)], 1, 1)
    res = min_shortfall([1], [3], edges)
    assert res.total == 2
    assert res.z.tolist() == [2]
    assert res.routing.y.tolist() == [1]


def test_min_shortfall_routing_feasible_and_optimal():
    rng = np.random.default_rng(23)
    for _ in range(80):
        n_i = int(rng.integers(1, 4))
        n_j = int(rng.integers(1, 4))
        pairs = [(i, j) for i in range(n_i) for j in range(n_j) if rng.random() < 0.7]
        edges = EdgeSet(pairs, n_i, n_j)
        x = rng.integers(0, 3, size=n_i)
        d = rng.integers(0, 3, size=n_j)
        res = min_shortfall(x, d, edges)
        assert np.all(res.routing.station_usage() <= x)
        served = res.routing.region_served()
        assert np.all(served <= d)
        assert np.array_equal(res.z, d - served)
        assert res.total == brute_min_shortfall(x, d, pairs)


def test_min_shortfall_exhaustive_tiny_instances():
    # every edge set over 2x2, every x and d with entries <= 2
    for n_i, n_j in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        all_pairs = [(i, j) for i in range(n_i) for j in range(n_j)]
        for mask in range(1 << len(all_pairs)):
            pairs = [p for k, p in enumerate(all_pairs) if mask >> k & 1]
            edges = EdgeSet(pairs, n_i, n_j)
            for x in itertools.product(range(3), repeat=n_i):
                for d in itertools.product(range(3), repeat=n_j):
                    got = min_shortfall(np.array(x), np.array(d), edges).total
                    want = brute_min_shortfall(x, d, pairs)
                    assert got == want


def test_value_paths_agree():
    rng = np.random.default_rng(31)
    for _ in range(60):
        n_i = int(rng.integers(1, 5))
        n_j = int(rng.integers(0, 5))
        pairs = [(i, j) for i in range(n_i) for j in range(n_j) if rng.random() < 0.6]
        edges = EdgeSet(pairs, n_i, n_j)
        x = rng.integers(0, 4, size=n_i)
        demands = rng.integers(0, 4, size=(6, n_j))
        fast = ScenarioEvaluator(edges, demands).totals(x)
        slow = np.array([min_shortfall(x, d, edges).total for d in demands])
        assert np.array_equal(fast, slow)


def shortfall_total(x, d, edges) -> int:
    return int(ScenarioEvaluator(edges, np.array([d])).totals(x)[0])


def test_monotonicity_in_x_and_d():
    rng = np.random.default_rng(37)
    edges = full_edges(3, 3)
    for _ in range(40):
        x = rng.integers(0, 3, size=3)
        d = rng.integers(0, 4, size=3)
        base = shortfall_total(x, d, edges)
        more_x = x.copy()
        more_x[rng.integers(0, 3)] += 1
        assert shortfall_total(more_x, d, edges) <= base
        more_d = d.copy()
        more_d[rng.integers(0, 3)] += 1
        assert shortfall_total(x, more_d, edges) >= base


def test_zero_shortfall_when_supply_covers_demand():
    edges = EdgeSet([(0, 0), (0, 1), (1, 1), (1, 2)], 2, 3)
    assert shortfall_total([3, 3], [1, 2, 2], edges) == 0


def test_relaxed_totals_lower_bound():
    rng = np.random.default_rng(41)
    edges = full_edges(3, 4)
    demands = rng.integers(0, 4, size=(8, 4))
    ev = ScenarioEvaluator(edges, demands)
    for _ in range(20):
        x = rng.integers(0, 2, size=3)
        free = int(rng.integers(0, 4))
        relaxed = ev.relaxed_totals(x, free)
        # any way of stationing the free units keeps totals above the bound
        for extra in itertools.product(range(free + 1), repeat=3):
            if sum(extra) > free:
                continue
            full = ev.totals(x + np.array(extra))
            assert np.all(full >= relaxed)


def test_edges_from_coverage():
    cov = np.array([[True, False], [True, True]])
    edges = edges_from_coverage(cov)
    assert edges.edges == ((0, 0), (1, 0), (1, 1))


def test_routing_validation():
    edges = EdgeSet([(0, 0)], 1, 1)
    with pytest.raises(DataError):
        Routing(edges, np.array([1, 2]))
    with pytest.raises(DataError):
        Routing(edges, np.array([-1]))
