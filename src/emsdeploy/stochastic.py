"""Two-stage stochastic stationing: minimize mean shortfall over sampled
demand scenarios.

The exact search is a best-first branch and bound over integer stationing
vectors summing to at most the fleet bound, fixing stations in index order.
It is the one search of both solvers: the evaluator owns the objective, its
exact ``value`` and the ``bound`` of a prefix, which pools the prefix's
unplaced ambulances for the stations it has not fixed, and gives all of a
node's children's bounds in one pass (see
``dispatchflow.ClosedCutEvaluator``). Here the evaluator is a
``ScenarioEvaluator`` and the objective the scenario mean; the robust solve
passes its ``robust.CutTable``. The frontier is ordered by (bound, prefix),
so the first complete assignment returned is an exact optimum and, among
ties, the lexicographically smallest.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .dispatchflow import Deployment, EdgeSet, ScenarioEvaluator
from .errors import ConfigError, DataError, SolverError
from .ingest import DemandMatrix
from .rng import substream

@dataclass
class ScenarioSet:
    """Equally weighted demand scenarios resampled from historical periods."""

    demands: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        d = np.asarray(self.demands, dtype=np.int64)
        if d.ndim != 2 or d.shape[0] < 1:
            raise DataError("scenario set needs at least one scenario row")
        if np.any(d < 0):
            raise DataError("scenario demands must be nonnegative")
        self.demands = d

    @property
    def m(self) -> int:
        return self.demands.shape[0]


# the most demand counts a scenario set may hold, 800 MB as int64: 10**5
# scenarios of 1000 regions
MAX_SCENARIO_COUNTS = 10**8


def sample_scenarios(matrix: DemandMatrix | np.ndarray, m: int, seed: int = 0) -> ScenarioSet:
    """Draw m period rows uniformly with replacement (the empirical distribution)."""
    counts = matrix.counts if isinstance(matrix, DemandMatrix) else np.asarray(matrix)
    if m < 1:
        raise ConfigError(f"need at least one scenario, got m={m}")
    if counts.ndim != 2 or counts.shape[0] == 0:
        raise DataError("cannot sample scenarios from an empty demand matrix")
    if m * counts.shape[1] > MAX_SCENARIO_COUNTS:
        raise ConfigError(
            f"m_scenarios={m} scenarios of {counts.shape[1]} regions hold {m * counts.shape[1]} demand "
            f"counts, more than the limit of {MAX_SCENARIO_COUNTS}"
        )
    idx = substream(seed, "scenarios").integers(0, counts.shape[0], size=m)
    return ScenarioSet(counts[idx], seed=seed)


@dataclass
class SearchConfig:
    max_nodes: int = 1_000_000


@dataclass
class OptimalityFlag:
    kind: str  # "exact" or "bound_gap"
    gap: float = 0.0


@dataclass
class SearchResult:
    x: np.ndarray
    objective: float
    flag: OptimalityFlag
    nodes: int


def minimize_deployment(ev, n: int, config: SearchConfig | None = None) -> SearchResult:
    """Exact min over stationings (sum <= n) of ``ev.value(x)``.

    ``ev`` has ``edges`` and the evaluator protocol of
    ``dispatchflow.ClosedCutEvaluator``: ``value(x)``; ``bound(x, free, k)``,
    a lower bound on the value of every completion of the prefix x[:k] that
    adds at most ``free`` units at stations k and later, here only for the
    root; and ``child_bounds(x, free, k)``, the ``free + 1`` children's
    bounds from one pass over the cuts, child v's equal to
    ``bound(x + v e_k, free - v, k + 1)``. Bounds may rise between calls. A
    popped complete stationing whose value exceeds its key is pushed back
    under its value, so every key stays a valid bound and a leaf returns
    only when its key is its value.
    """
    config = config or SearchConfig()
    if n < 0:
        raise ConfigError(f"fleet bound must be nonnegative, got {n}")
    n_i = ev.edges.n_stations
    if n_i < 1:
        raise DataError("need at least one station")

    def padded(prefix: tuple[int, ...]) -> np.ndarray:
        x = np.zeros(n_i, dtype=np.int64)
        x[: len(prefix)] = prefix
        return x

    heap: list[tuple[float, tuple[int, ...]]] = [(ev.bound(padded(()), n, 0), ())]
    nodes = 0
    while heap:
        bound, prefix = heapq.heappop(heap)
        nodes += 1
        if len(prefix) == n_i:
            value = ev.value(padded(prefix))
            if value > bound:
                heapq.heappush(heap, (value, prefix))
                continue
            return SearchResult(x=padded(prefix), objective=value, flag=OptimalityFlag("exact"), nodes=nodes)
        if nodes >= config.max_nodes:
            # keep the most promising node as an incumbent, never fail silently:
            # each unit its prefix leaves unplaced goes where it lowers the value
            # most, ties to the lower station. An added unit never raises the
            # value, so the gap to the lowest open bound can only shrink
            incumbent = padded(prefix)
            steps = np.eye(n_i, dtype=np.int64)
            for _ in range(n - sum(prefix)):
                values = [ev.value(incumbent + step) for step in steps]
                incumbent[values.index(min(values))] += 1
            obj = ev.value(incumbent)
            lowest = min(bound, min((b for b, _ in heap), default=bound))
            return SearchResult(
                x=incumbent,
                objective=obj,
                flag=OptimalityFlag("bound_gap", gap=max(obj - lowest, 0.0)),
                nodes=nodes,
            )
        free = n - sum(prefix)
        for v, child_bound in enumerate(ev.child_bounds(padded(prefix), free, len(prefix))):
            heapq.heappush(heap, (child_bound, prefix + (v,)))
    raise SolverError("search frontier exhausted without a complete stationing")


@dataclass
class StochasticSolution:
    x_star: Deployment
    objective: float
    optimality_flag: OptimalityFlag
    scenarios: ScenarioSet

    def to_dict(self) -> dict:
        return {
            "x": [int(v) for v in self.x_star.x],
            "objective": self.objective,
            "n": self.x_star.n,
            "M": self.scenarios.m,
            "seed": self.scenarios.seed,
            "optimality_flag": (
                "exact"
                if self.optimality_flag.kind == "exact"
                else {"bound_gap": self.optimality_flag.gap}
            ),
        }


def solve_stochastic(
    scenarios: ScenarioSet,
    n: int,
    edges: EdgeSet,
    config: SearchConfig | None = None,
) -> StochasticSolution:
    """Minimize the empirical mean shortfall over the scenario set. The
    objective is the search's own: the mean of the stationing's integer
    shortfall totals, as least closed cuts."""
    result = minimize_deployment(ScenarioEvaluator(edges, scenarios.demands), n, config)
    return StochasticSolution(
        x_star=Deployment(result.x, n),
        objective=result.objective,
        optimality_flag=result.flag,
        scenarios=scenarios,
    )
