"""Golden station ladder: both exact solvers on the README quickstart city
(seed 7, 65 000 calls, fleet 6, 50 scenarios, alpha 0.01) as the station
set grows from 8 to 14, pinned to the values the full 2^I cut enumeration
gave before the search scored closed cuts only; at 16 and 20 stations, with
a fleet of 2, checked against exhaustive search and the certificate's own
shortfall; one robust rung at alpha 0.001, pinned to the values of the full
W table; the I = 12 cut table's bounds, pinned to the values the per-set
bound pass gave; the exact W of every set of that table at alpha 0.001,
pinned to the values the search gave with one greedy partition per level;
and the nodes both searches visit at fleet 6 from 8 to 20 stations, pinned
to the counts of the search that bounded each child on its own."""

import hashlib
from datetime import time as clock_time

import numpy as np
import pytest

from emsdeploy import demand, dispatchflow, geogrid, ingest, robust, stochastic, synth
from oracles import exhaustive_best_deployment
from test_robust import CountingSet

FLEET = 6
PEAK = (clock_time(8, 0), clock_time(20, 0), (0, 1, 2, 3, 4))
# the quickstart stations first, then corners, centre and edge cells
CELLS = (7, 10, 25, 28, 0, 5, 30, 35, 14, 21, 3, 32)
# past 12 stations, the remaining cells in index order
STATION_ORDER = CELLS + tuple(c for c in range(36) if c not in CELLS)

# stations: (stochastic x, objective, robust x, worst case, certificate as
# {region: demand}, closed cuts of the 2^I)
GOLDEN = {
    8: ([0, 0, 2, 1, 2, 1, 0, 0], 0.86, [0, 0, 1, 2, 1, 1, 1, 0], 6,
        {0: 2, 1: 1, 2: 1, 12: 1, 18: 1, 19: 1, 30: 1, 32: 1}),
    10: ([0, 0, 2, 1, 1, 0, 1, 1, 0, 0], 0.74, [0, 0, 0, 2, 1, 0, 2, 1, 0, 0], 6,
         {0: 2, 1: 1, 2: 1, 18: 1, 22: 1, 23: 1, 24: 1, 25: 1}),
    12: ([0, 0, 0, 2, 1, 0, 1, 1, 0, 0, 1, 0], 0.74, [0, 0, 0, 0, 2, 1, 0, 2, 1, 0, 0, 0], 6,
         {0: 2, 1: 1, 2: 1, 18: 1, 22: 1, 23: 1, 24: 1, 25: 1}),
    # the largest rung the 2^I table reached
    14: ([0, 0, 1, 0, 0, 1, 1, 1, 0, 1, 1, 0, 0, 0], 0.68, [0, 0, 0, 0, 0, 0, 2, 1, 0, 2, 1, 0, 0, 0], 6,
         {0: 2, 1: 1, 2: 1, 18: 1, 22: 1, 23: 1, 24: 1, 25: 1}),
}
CLOSED = {10: 188, 12: 544, 14: 875, 16: 1255, 20: 3424}
# robust at alpha 0.001 and 12 stations: (x, worst case, certificate), where
# the full W table once took about 7 s and now under 2 s (LOW_ALPHA_W_TABLE)
LOW_ALPHA = ([0, 0, 0, 1, 1, 1, 0, 1, 1, 0, 0, 0], 8, {3: 2, 4: 2, 17: 1, 18: 2, 22: 2, 23: 1, 24: 1})
# best-first nodes at I = 12 when every bound pooled the free units at any station
FULL_POOL_NODES_I12 = 4132
# best-first nodes at fleet 6, stochastic and robust, as the search visited
# them when each child of a node was bounded by its own pass over the cuts
NODES = {8: (64, 31), 10: (121, 67), 12: (204, 96), 14: (441, 166), 16: (1103, 284)}
# fleet 6 at 20 stations: the stochastic x, objective and nodes, and the
# robust nodes. The stochastic search took 9.8 s with a pass per child and
# takes 3.8 s with one per node, so this rung also guards the node's cost
RUNG_20 = ([0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1, 0], 0.68, 5541, 812)
# the fresh I = 12 cut table's 544 region sets: SHA-256 of the lower values',
# the upper values' and the first leaves' int64 bytes, and the number of sets
# whose bounds meet. The lower values and leaves are the per-set bound pass's;
# the upper values take the better of two greedy partitions per level, which
# meet on 497 sets where the one partition that takes the row holding most
# met on 439
TABLE_I12 = ("f0a86a1747c60620303fabc0be12079344916ca088a853a8b1d905b10bf01e7b",
             "7d99ff332eba67b634288e3e3f0564af4f9431316f954d8e8548b075b566dc89",
             "0eef831d2f72862486f6e1d23ec3b496f1944353b603cd7c213400c4c5835f98", 497)
# every set of that table at alpha 0.001, searched exactly: SHA-256 of the W
# values' and the maximizers' int64 bytes
LOW_ALPHA_W_TABLE = ("94f819bb555b28f89966d4ea318053df2a0919964b8737e1c96c7203f93fbd84",
                     "f6bd2f84df73a4151c254027cd2ac24c2e4d2aaf00a8cf7b454b9688c022b720")


@pytest.fixture(scope="module")
def fitted():
    cfg = synth.SynthConfig()
    grid = synth.synth_grid(cfg)
    calls = synth.synth_calls(grid, 65_000, seed=7, cfg=cfg)
    train, _ = ingest.split_train_test(ingest.filter_peak(calls, *PEAK), 0.8, "chronological")
    matrix = ingest.build_demand_matrix(train, grid, 3600.0, 1.0)
    matrix = ingest.select_periods(matrix, ingest.peak_period_mask(matrix, *PEAK))
    adjacency, ball = geogrid.derive_adjacency(grid), geogrid.derive_region_ball(grid, 600.0)
    return grid.bounds, matrix, adjacency, ball, demand.fit_rates(matrix, adjacency, ball)


@pytest.fixture(scope="module")
def city(fitted):
    bounds, matrix, adjacency, ball, rates = fitted
    uset = demand.build_uncertainty_set(rates, 0.01, adjacency, ball)
    return bounds, uset, stochastic.sample_scenarios(matrix, 50, 7)


def ladder_edges(bounds, n_stations):
    grid = geogrid.build_grid(bounds, 6, 6, geogrid.SyntheticSpeedProvider(60.0),
                              station_cells=sorted(STATION_ORDER[:n_stations]), hospital_cells=[14])
    return dispatchflow.edges_from_coverage(geogrid.derive_coverage(grid, 600.0))


@pytest.mark.parametrize("n_stations", sorted(GOLDEN))
def test_ladder_matches_full_enumeration(city, n_stations):
    bounds, uset, scenarios = city
    sto_x, objective, rob_x, worst_case, certificate = GOLDEN[n_stations]
    edges = ladder_edges(bounds, n_stations)
    if n_stations in CLOSED:
        assert len(edges.closed_cuts()[0]) == CLOSED[n_stations]

    sol = stochastic.solve_stochastic(scenarios, FLEET, edges)
    assert sol.x_star.x.tolist() == sto_x
    assert sol.objective == pytest.approx(objective, abs=1e-12)
    assert sol.optimality_flag.kind == "exact"

    rob = robust.solve_robust_ccg(uset, FLEET, edges)
    want = np.zeros(uset.n_regions, dtype=np.int64)
    want[list(certificate)] = list(certificate.values())
    assert rob.x_star.x.tolist() == rob_x
    assert rob.worst_case_shortfall == worst_case
    assert rob.certifying_demand.tolist() == want.tolist()
    assert rob.converged


@pytest.mark.parametrize("n_stations", [16, 20])
def test_ladder_past_fourteen_stations_is_exact(city, n_stations):
    bounds, uset, scenarios = city
    edges = ladder_edges(bounds, n_stations)
    assert len(edges.closed_cuts()[0]) == CLOSED[n_stations]

    sol = stochastic.solve_stochastic(scenarios, 2, edges)
    want_x, want_obj = exhaustive_best_deployment(scenarios.demands, 2, n_stations, list(edges.edges),
                                                  lambda t: float(t.mean()))
    assert tuple(sol.x_star.x) == want_x
    assert sol.objective == pytest.approx(want_obj, abs=1e-12)

    rob = robust.solve_robust_ccg(uset, 2, edges)
    assert rob.converged
    assert uset.contains(rob.certifying_demand)
    assert dispatchflow.min_shortfall(rob.x_star.x, rob.certifying_demand, edges).total == rob.worst_case_shortfall


def test_depth_aware_bound_visits_a_fifth_of_the_nodes(city):
    bounds, _, scenarios = city
    edges = ladder_edges(bounds, 12)
    result = stochastic.minimize_deployment(dispatchflow.ScenarioEvaluator(edges, scenarios.demands), FLEET)
    assert result.x.tolist() == GOLDEN[12][0]
    assert result.nodes <= FULL_POOL_NODES_I12 // 5


@pytest.mark.parametrize("n_stations", sorted(NODES))
def test_search_visits_the_pinned_nodes(city, n_stations):
    bounds, uset, scenarios = city
    edges = ladder_edges(bounds, n_stations)
    sto = stochastic.minimize_deployment(dispatchflow.ScenarioEvaluator(edges, scenarios.demands), FLEET)
    rob = stochastic.minimize_deployment(robust.CutTable(uset, edges), FLEET)
    assert (sto.nodes, rob.nodes) == NODES[n_stations]
    if n_stations in GOLDEN:
        assert [sto.x.tolist(), rob.x.tolist()] == [GOLDEN[n_stations][0], GOLDEN[n_stations][2]]


def test_twenty_station_rung_at_full_fleet(city):
    bounds, uset, scenarios = city
    edges = ladder_edges(bounds, 20)
    sto_x, objective, sto_nodes, rob_nodes = RUNG_20
    sto = stochastic.minimize_deployment(dispatchflow.ScenarioEvaluator(edges, scenarios.demands), FLEET)
    assert sto.x.tolist() == sto_x
    assert sto.objective == pytest.approx(objective, abs=1e-12)
    assert (sto.flag.kind, sto.nodes) == ("exact", sto_nodes)
    assert stochastic.minimize_deployment(robust.CutTable(uset, edges), FLEET).nodes == rob_nodes


def test_low_alpha_rung_matches_full_enumeration(fitted):
    bounds, _, adjacency, ball, rates = fitted
    uset = demand.build_uncertainty_set(rates, 0.001, adjacency, ball)
    rob_x, worst_case, certificate = LOW_ALPHA
    rob = robust.solve_robust_ccg(uset, FLEET, ladder_edges(bounds, 12))
    want = np.zeros(uset.n_regions, dtype=np.int64)
    want[list(certificate)] = list(certificate.values())
    assert rob.x_star.x.tolist() == rob_x
    assert rob.worst_case_shortfall == worst_case
    assert rob.certifying_demand.tolist() == want.tolist()
    assert rob.converged


def test_robust_searches_a_tenth_of_the_sets_exactly(city):
    bounds, uset, _ = city
    counted = CountingSet(**vars(uset))
    rob = robust.solve_robust_ccg(counted, FLEET, ladder_edges(bounds, 12))
    assert rob.x_star.x.tolist() == GOLDEN[12][2]
    assert len(counted.searched) <= CLOSED[12] // 10


def test_cut_table_bounds_match_the_per_set_pass(city):
    bounds, uset, _ = city
    cuts = robust.CutTable(uset, ladder_edges(bounds, 12))
    assert len(cuts.lower) == CLOSED[12]
    digests = tuple(hashlib.sha256(a.astype(np.int64).tobytes()).hexdigest()
                    for a in (cuts.lower, cuts.upper, cuts._leaves))
    assert digests + (int((cuts.lower == cuts.upper).sum()),) == TABLE_I12


def test_low_alpha_w_table_matches_the_one_partition_search(fitted):
    bounds, _, adjacency, ball, rates = fitted
    uset = demand.build_uncertainty_set(rates, 0.001, adjacency, ball)
    cuts = robust.CutTable(uset, ladder_edges(bounds, 12))
    found = [uset.max_demand(regions) for regions in cuts._regions]
    w = np.array([value for value, _ in found], dtype=np.int64)
    d = np.array([best for _, best in found], dtype=np.int64)
    assert len(w) == CLOSED[12]
    assert (cuts.lower <= w).all() and (w <= cuts.upper).all()
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (w, d))
    assert digests == LOW_ALPHA_W_TABLE
