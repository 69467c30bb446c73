"""Second-stage recourse: route stationed ambulances to realized demand.

Shortfall for a stationing x and demand d is the unmet demand after an
optimal integral routing over the feasible edges, i.e. total demand minus
the max flow of the bipartite network (source -> station i at capacity
x_i, uncapacitated station-region edges, region j -> sink at capacity
d_j). Routings come from an augmenting-path max flow; the solvers take the
least of a list of cuts over station subsets S, which equals the max flow
value because the middle edges are uncapacitated: the cut of S costs
x(I \\ S) + d(N(S)), N(S) being the regions S covers.

Only closed subsets are listed. S is closed when it holds every station
whose regions all lie in N(S); its closure has the same N(S) and, for
x >= 0, a cheaper station side, so the least cut is always closed. The
closed subsets and the distinct unions N(S) are one to one, so the list is
built from the unions, not from the 2^|I| subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DataError, SolverError

# Closed cuts the solvers hold at most. Disjoint coverage gives 2^|I| of
# them; the 36-station quickstart grid has 51 136.
_MAX_CLOSED_CUTS = 1 << 17


class EdgeSet:
    """Canonical feasible station-region edges with cached cut structure."""

    def __init__(self, edges: Iterable[tuple[int, int]], n_stations: int, n_regions: int):
        canon = sorted((int(i), int(j)) for i, j in edges)
        if len(set(canon)) != len(canon):
            raise DataError("duplicate edge in edge set")
        for i, j in canon:
            if not (0 <= i < n_stations and 0 <= j < n_regions):
                raise DataError(f"edge ({i}, {j}) outside {n_stations} stations x {n_regions} regions")
        self.edges: tuple[tuple[int, int], ...] = tuple(canon)
        self.n_stations = int(n_stations)
        self.n_regions = int(n_regions)
        self.station_regions: list[list[int]] = [[] for _ in range(n_stations)]
        for i, j in self.edges:
            self.station_regions[i].append(j)
        self._closed_cuts: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self.edges)

    def incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """(B_I, B_J): per-station and per-region incidence over edge columns."""
        b_i = np.zeros((self.n_stations, len(self.edges)), dtype=np.int64)
        b_j = np.zeros((self.n_regions, len(self.edges)), dtype=np.int64)
        for k, (i, j) in enumerate(self.edges):
            b_i[i, k] = 1
            b_j[j, k] = 1
        return b_i, b_j

    def closed_cuts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached (inside, covered, reach), one row per closed subset S, in
        ascending order of its uncovered regions' bits, region 0 the most
        significant: S, N(S), and the highest station outside S, -1 for every
        station (a unit at station k or later lowers exactly the cuts whose
        reach is >= k). The distinct unions N(S) are folded in one station at
        a time, and S is the stations whose regions lie in its union. More
        than ``_MAX_CLOSED_CUTS`` unions raise SolverError."""
        if self._closed_cuts is None:
            n_j = self.n_regions
            # region j is bit n_j - 1 - j: a larger union leaves a smaller key
            unions = {0}
            for regions in self.station_regions:
                mask = sum(1 << (n_j - 1 - j) for j in regions)
                unions |= {u | mask for u in unions}
                if len(unions) > _MAX_CLOSED_CUTS:
                    raise SolverError(f"the stations' coverage has more than {_MAX_CLOSED_CUTS} closed cuts")
            width = (n_j + 7) // 8
            packed = b"".join(u.to_bytes(width, "big") for u in sorted(unions, reverse=True))
            bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8).reshape(len(unions), width), axis=1)
            covered = bits[:, 8 * width - n_j :].astype(bool)
            b_i, b_j = self.incidence()
            inside = (~covered) @ (b_j @ b_i.T).astype(np.float64) == 0
            reach = np.where(inside, -1, np.arange(self.n_stations)).max(axis=1, initial=-1)
            self._closed_cuts = inside, covered, reach
        return self._closed_cuts


def edges_from_coverage(coverage: np.ndarray) -> EdgeSet:
    """Feasible edges = the true entries of a stations x regions coverage matrix."""
    cov = np.asarray(coverage, dtype=bool)
    pairs = [(int(i), int(j)) for i, j in zip(*np.nonzero(cov))]
    return EdgeSet(pairs, cov.shape[0], cov.shape[1])


def stationing_vector(x) -> np.ndarray:
    """``x``, a list or 1-d array of integers, as an int64 vector. An entry
    that is not an integer (a float, a string or a bool) or does not fit in
    int64 is refused with a DataError, not truncated, parsed or overflowed."""
    entries = x.tolist() if isinstance(x, np.ndarray) else x
    if not isinstance(entries, (list, tuple)):
        raise DataError(f"a stationing must be a list of integers, got {type(x).__name__}")
    for v in entries:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or not -(2**63) <= v < 2**63:
            raise DataError(f"a stationing entry must be an integer of int64 range, got {v!r}")
    return np.array(entries, dtype=np.int64)


@dataclass
class Deployment:
    """Integer stationing vector with its fleet bound."""

    x: np.ndarray
    n: int

    def __post_init__(self):
        self.x = stationing_vector(self.x)
        if np.any(self.x < 0):
            raise DataError("stationing must be nonnegative")
        if int(self.x.sum()) > self.n:
            raise DataError(f"stationing places {int(self.x.sum())} ambulances, fleet bound is {self.n}")


@dataclass
class Routing:
    """Integral flow per feasible edge."""

    edges: EdgeSet
    y: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.y.shape != (len(self.edges),):
            raise DataError("routing vector length must match edge count")
        if np.any(self.y < 0):
            raise DataError("routing must be nonnegative")

    def station_usage(self) -> np.ndarray:
        b_i, _ = self.edges.incidence()
        return b_i @ self.y

    def region_served(self) -> np.ndarray:
        _, b_j = self.edges.incidence()
        return b_j @ self.y


@dataclass
class ShortfallResult:
    """Unmet demand per region for one (stationing, demand) pair."""

    z: np.ndarray
    total: int
    routing: Routing


class _Dinic:
    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.head: list[list[int]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, cap: int) -> int:
        idx = len(self.to)
        self.to.append(v)
        self.cap.append(cap)
        self.head[u].append(idx)
        self.to.append(u)
        self.cap.append(0)
        self.head[v].append(idx + 1)
        return idx

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:
                for e in self.head[u]:
                    v = self.to[e]
                    if self.cap[e] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return flow
            it = [0] * self.n

            def dfs(u: int, pushed: int) -> int:
                if u == t:
                    return pushed
                while it[u] < len(self.head[u]):
                    e = self.head[u][it[u]]
                    v = self.to[e]
                    if self.cap[e] > 0 and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, self.cap[e]))
                        if got > 0:
                            self.cap[e] -= got
                            self.cap[e ^ 1] += got
                            return got
                    it[u] += 1
                return 0

            while True:
                pushed = dfs(s, 1 << 60)
                if pushed == 0:
                    break
                flow += pushed


def _as_edges(edges, n_stations: int, n_regions: int) -> EdgeSet:
    if isinstance(edges, EdgeSet):
        if edges.n_stations != n_stations or edges.n_regions != n_regions:
            raise DataError(
                f"edge set is {edges.n_stations}x{edges.n_regions}, "
                f"instance is {n_stations}x{n_regions}"
            )
        return edges
    return EdgeSet(edges, n_stations, n_regions)


def min_shortfall(x, d, edges) -> ShortfallResult:
    """Minimum total shortfall with an optimal integral routing attached."""
    x = np.asarray(x, dtype=np.int64)
    d = np.asarray(d, dtype=np.int64)
    es = _as_edges(edges, len(x), len(d))
    if np.any(x < 0) or np.any(d < 0):
        raise DataError("stationing and demand must be nonnegative")
    n_i, n_j = es.n_stations, es.n_regions
    source, sink = n_i + n_j, n_i + n_j + 1
    net = _Dinic(n_i + n_j + 2)
    big = int(d.sum()) + 1
    for i in range(n_i):
        if x[i] > 0:
            net.add_edge(source, i, int(x[i]))
    mid = {}
    for k, (i, j) in enumerate(es.edges):
        mid[k] = net.add_edge(i, n_i + j, big)
    for j in range(n_j):
        if d[j] > 0:
            net.add_edge(n_i + j, sink, int(d[j]))
    net.max_flow(source, sink)
    y = np.zeros(len(es.edges), dtype=np.int64)
    for k, e in mid.items():
        y[k] = net.cap[e ^ 1]
    routing = Routing(es, y)
    z = d - routing.region_served()
    return ShortfallResult(z=z, total=int(z.sum()), routing=routing)


class ClosedCutEvaluator:
    """The closed cuts' station side, shared by the solvers' evaluators.

    ``stochastic.minimize_deployment`` asks an evaluator for three things:

    - ``value(x)``, its exact objective;
    - ``bound(x, free, k)``, a lower bound on the value of every completion
      adding at most ``free`` units at stations k and later, used for the
      root and by the admissibility tests;
    - ``child_bounds(x, free, k)``, the bounds of the ``free + 1`` children
      of the node fixing x[:k]: child v fixes x_k = v and pools the other
      ``free - v`` units, and its entry equals
      ``bound(x + v e_k, free - v, k + 1)`` exactly.

    The pooled units add to the station side of each cut leaving a station
    k or later outside S (reach >= k), the only cuts on which a completion's
    added units count, so no completion has a larger side on any cut. Both
    objectives fall as station sides rise, so the bound is admissible; at
    k = |I| the pool raises no cut.

    On cut c, child v's station side is A_c + v D_c, with A_c = x[:k](I \\ S_c)
    + free [reach_c >= k + 1] and D_c = [k not in S_c] - [reach_c >= k + 1],
    which is -1, 0 or +1. So each objective needs, per group of cuts with
    one D, a single extreme over A (``child_sides``), and every child's bound
    follows from those three numbers; all are integers, exact in float64.
    """

    def __init__(self, edges: EdgeSet):
        self.edges = edges
        self._inside, self._covered, self._reach = edges.closed_cuts()
        self._outside = (~self._inside).astype(np.float64)  # row: the stations not in S
        # per station k, the cuts with D = 0, +1 and -1
        d = (~self._inside).astype(np.int8) - (self._reach[:, None] > np.arange(edges.n_stations))
        self._groups = [tuple(np.flatnonzero(d[:, k] == g) for g in (0, 1, -1)) for k in range(edges.n_stations)]

    def station_side(self, x, free_units: int = 0, first_free: int = 0) -> np.ndarray:
        """x(I \\ S) per closed cut S, plus ``free_units`` pooled for stations
        ``first_free`` and later."""
        pool = np.where(self._reach >= first_free, float(free_units), 0.0)
        return self._outside @ np.asarray(x, dtype=np.float64) + pool

    def child_sides(self, x, free_units: int, k: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """A, the station side the children of the node fixing x[:k] share
        (x is zero from k on), and the indices of the cuts with D = 0, +1
        and -1."""
        return self.station_side(x, free_units, k + 1), self._groups[k]


class ScenarioEvaluator(ClosedCutEvaluator):
    """Batched shortfall totals for a fixed edge set and demand matrix; the
    objective is their mean over the scenarios.

    Caches the closed cuts' region sides so solvers can score many
    candidate stationings cheaply.
    """

    def __init__(self, edges: EdgeSet, demands: np.ndarray):
        super().__init__(edges)
        self.demands = np.asarray(demands, dtype=np.int64)
        if self.demands.ndim != 2 or self.demands.shape[1] != edges.n_regions:
            raise DataError("demand matrix must be scenarios x regions")
        # cost of the region side of each closed cut, per cut x scenario
        self._region_cost = self._covered.astype(np.float64) @ self.demands.T.astype(np.float64)
        self._demand_sums = self.demands.sum(axis=1)

    def totals(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.int64)
        if x.shape != (self.edges.n_stations,):
            raise DataError("stationing length must match station count")
        return self._shortfall(self.station_side(x))

    def relaxed_totals(self, x, free_units: int, first_free: int = 0) -> np.ndarray:
        """Totals with ``free_units`` more ambulances pooled for stations
        ``first_free`` and later, never below max(totals - free_units, 0)."""
        return self._shortfall(self.station_side(x, free_units, first_free))

    def bound(self, x, free_units: int, first_free: int) -> float:
        return float(self.relaxed_totals(x, free_units, first_free).mean())

    def value(self, x) -> float:
        return self.bound(x, 0, self.edges.n_stations)

    def child_bounds(self, x, free_units: int, k: int) -> list[float]:
        """Child v's max flow per scenario is min(m0, m+ + v, m- - v), m_D
        the least A + region cost over the cuts with that D."""
        side, groups = self.child_sides(x, free_units, k)
        least = []
        for g in groups:
            cost = self._region_cost[g]
            cost += side[g, None]
            least.append(cost.min(axis=0, initial=np.inf))
        v = np.arange(free_units + 1)[:, None]
        maxflow = np.minimum(least[0], np.minimum(least[1] + v, least[2] - v))
        return np.rint(self._demand_sums - maxflow).astype(np.int64).mean(axis=1).tolist()

    def _shortfall(self, station_side: np.ndarray) -> np.ndarray:
        maxflow = (station_side[:, None] + self._region_cost).min(axis=0)
        return np.rint(self._demand_sums - maxflow).astype(np.int64)
