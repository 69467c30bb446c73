"""Two-stage robust stationing: minimize the worst-case shortfall over the
Value-at-Risk uncertainty set U, exactly, by min-cut duality.

The max flow of x and d is the least cut over station subsets S, x(I \\ S)
+ d(N(S)), N(S) being the regions S covers. So by the cut condition of
Gale's supply-demand theorem (Gale 1957) the worst case of x is
max_S [W(S) - x(I \\ S)], with W(S) = max_{d in U} d(J \\ N(S)). W does not
depend on x, so it is kept once per cut, in a table that the stationing's
branch and bound runs over.

The table is lazy, after column-and-constraint generation (Zeng & Zhao
2013): each W starts as a cheap lower and upper bound, all of them from one
batched pass over the table's region sets, and is searched exactly only
when a cut on it can set the worst case of the stationing being checked.
The table is the evaluator of the stochastic solve's branch and bound: a
prefix is bounded over the lower values, and a complete stationing's exact
worst case, which raises some of them, is its value.

The table holds only the closed subsets (see ``dispatchflow``): closing S
keeps N(S), so W(S), and shrinks x(I \\ S), so the max is always attained
on a closed cut. Closed cuts and uncovered region sets are one to one, so
each cut has its own W. The certificate still comes from the lowest-index
attaining subset over all 2^I of them, found from the attaining closed cuts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .demand import UncertaintySet
from .dispatchflow import ClosedCutEvaluator, Deployment, EdgeSet
from .errors import SolverError
from .stochastic import SearchConfig, minimize_deployment


@dataclass
class WorstCaseResult:
    demand: np.ndarray
    shortfall: int
    exact: bool  # always True: the worst case is solved exactly


class CutTable(ClosedCutEvaluator):
    """Search evaluator over W(S) - x(I \\ S) for the closed station subsets
    S, built lazily. Set k, the regions cut k leaves uncovered, holds a
    lower and an upper bound on its W, and a member attaining the lower one,
    all from one ``UncertaintySet.demand_bounds_stack`` pass; W is known
    when they are equal, and ``max_demand`` runs on a set only when its cut
    can set the worst case of an x given to ``worst_case``. ``bound`` and
    ``child_bounds`` read the lower values, which only rise, and ``value`` is
    the exact worst case."""

    def __init__(self, uset: UncertaintySet, edges: EdgeSet):
        super().__init__(edges)
        self.uset = uset
        self._regions = ~self._covered
        # leaf k attains set k's lower value: the first leaf, and once set k
        # is searched, W's maximizer
        self.lower, self.upper, self._leaves = uset.demand_bounds_stack(self._regions)
        b_i, b_j = edges.incidence()
        self._cover = b_i @ b_j.T  # stations x regions

    def _refine(self, k: int) -> int:
        """Search set k exactly; its W."""
        w, self._leaves[k] = self.uset.max_demand(self._regions[k])
        self.lower[k] = self.upper[k] = w
        return w

    def bound(self, x, free_units: int, first_free: int) -> float:
        """The max over the lower values: W(I) >= 0 is a row whose station
        side is empty, so it is never below max(value - free_units, 0) once
        ``value(x)`` has refined the cuts attaining it."""
        return float((self.lower - self.station_side(x, free_units, first_free)).max())

    def child_bounds(self, x, free_units: int, k: int) -> list[float]:
        """Child v's bound is max(M0, M+ - v, M- + v), M_D the max of the
        lower values less A over the cuts with that D."""
        side, groups = self.child_sides(x, free_units, k)
        slack = self.lower - side
        top0, top_plus, top_minus = (slack[g].max(initial=-np.inf) for g in groups)
        return [float(max(top0, top_plus - v, top_minus + v)) for v in range(free_units + 1)]

    def value(self, x) -> float:
        return float(self.worst_case(x)[0])

    def worst_case(self, x) -> tuple[int, np.ndarray]:
        """Exact max_S [W(S) - x(I \\ S)], and W's stored maximizer on the
        lowest-index subset S, over all 2^I, attaining it.

        The cuts are walked by upper value, best first, searching exactly
        each one that can still beat the max. An attaining S lies in an
        attaining cut C, with N(S) = N(C) and no unit in C \\ S; so the cuts
        that can attain are visited by their lowest such S, ascending,
        searching a set only while its cut is tied.
        """
        x = np.asarray(x, dtype=np.int64)
        out = self.station_side(x)
        upper = self.upper - out
        value = int((self.lower - out).max())
        for k in np.argsort(-upper, kind="stable"):
            if upper[k] <= value:
                break
            value = max(value, self._refine(k) - int(out[k]))
        # the lowest such S: from the highest station down, drop each empty
        # one whose regions the rest still cover (greedy: N only shrinks with S)
        cuts = np.flatnonzero(self.upper - out >= value)
        lowest = self._inside[cuts]
        times = lowest @ self._cover  # per cut and region: the stations of S covering it
        for i in np.flatnonzero(x == 0)[::-1]:
            drop = lowest[:, i] & np.all(times[:, self._cover[i] == 1] > 1, axis=1)
            lowest[drop, i] = False
            times[drop] -= self._cover[i]
        # ascending subset index: the highest station decides first
        for k in cuts[sorted(range(len(cuts)), key=lambda c: lowest[c, ::-1].tolist())]:
            if self.lower[k] - out[k] < value:
                self._refine(k)
            # a lower value that attains the max is W, and its first leaf,
            # the lexicographically largest member, is then W's maximizer
            if self.lower[k] - out[k] == value:
                return value, self._leaves[k].copy()
        raise SolverError("no cut attains the worst case")


def worst_case_demand(x, uset: UncertaintySet, edges: EdgeSet, cuts: CutTable | None = None) -> WorstCaseResult:
    """Demand in the uncertainty set maximizing the minimum shortfall of x.

    Exact: W's lexicographically largest maximizer on the lowest-index
    subset S, over all 2^I, attaining max_S [W(S) - x(I \\ S)]. ``cuts`` is
    CutTable(uset, edges), if built, in any state of refinement.
    """
    cuts = cuts if cuts is not None else CutTable(uset, edges)
    shortfall, demand = cuts.worst_case(x)
    return WorstCaseResult(demand=demand, shortfall=shortfall, exact=True)


@dataclass
class CcgState:
    """The solve's (lower, upper, certificate) bound trace: one row, with
    lower == upper when the search proved its optimum."""

    history: list[tuple[float, float, np.ndarray]]
    iterations: int = 1


@dataclass
class RobustSolution:
    x_star: Deployment
    worst_case_shortfall: int
    certifying_demand: np.ndarray
    converged: bool
    state: CcgState

    def to_dict(self, alpha: float | None = None) -> dict:
        return {
            "x": [int(v) for v in self.x_star.x],
            "worst_case": self.worst_case_shortfall,
            "certifying_demand": [int(v) for v in self.certifying_demand],
            "alpha": alpha,
            "iterations": self.state.iterations,
            "converged": self.converged,
        }


def solve_robust_ccg(
    uset: UncertaintySet,
    n: int,
    edges: EdgeSet,
    epsilon: float | None = None,
    max_iter: int | None = None,
    size_budget: int | None = None,
    search_config: SearchConfig | None = None,
) -> RobustSolution:
    """Exact min over stationings (sum <= n) of the worst-case shortfall.

    One branch and bound, ``stochastic.minimize_deployment``, with the
    CutTable as its evaluator: prefixes are bounded over the lower values,
    and a complete stationing returns only once its exact worst case meets
    its key, so x is the lexicographically smallest exact optimum. The
    certificate is then read off the refined table. ``converged`` is False
    only when ``max_nodes`` stopped the search, and then x is its
    incumbent, with its own exact worst case, and the history's lower bound
    is the search's lowest open bound. The name, and the ``epsilon``,
    ``max_iter`` and ``size_budget`` keywords, which are accepted and
    ignored, remain from the column-and-constraint generation this replaced.
    """
    cuts = CutTable(uset, edges)
    result = minimize_deployment(cuts, n, search_config)
    wc = worst_case_demand(result.x, uset, edges, cuts)
    return RobustSolution(
        x_star=Deployment(result.x, n),
        worst_case_shortfall=wc.shortfall,
        certifying_demand=wc.demand,
        converged=result.flag.kind == "exact",
        state=CcgState([(result.objective - result.flag.gap, float(wc.shortfall), wc.demand.copy())]),
    )
