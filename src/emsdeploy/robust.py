"""Two-stage robust stationing: minimize the worst-case shortfall over the
Value-at-Risk uncertainty set U, exactly, by min-cut duality.

The max flow of x and d is the least cut over station subsets S, x(I \\ S)
+ d(N(S)), N(S) being the regions S covers. So by the cut condition of
Gale's supply-demand theorem (Gale 1957) the worst case of x is
max_S [W(S) - x(I \\ S)], with W(S) = max_{d in U} d(J \\ N(S)). W does not
depend on x: it is found once per distinct uncovered region set, and the
stationing is one branch and bound over that table of cuts.

The search scores only closed subsets (see ``dispatchflow``): closing S
keeps N(S), so W(S), and shrinks x(I \\ S), so the max is always attained
on a closed cut. The certificate still comes from the lowest-index
attaining subset over all 2^I of them, one full evaluation per solve.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .demand import UncertaintySet
from .dispatchflow import Deployment, EdgeSet
from .stochastic import SearchConfig, max_aggregator, minimize_deployment


@dataclass
class WorstCaseResult:
    demand: np.ndarray
    shortfall: int
    exact: bool  # always True: the worst case is solved exactly


class CutTable:
    """Search evaluator whose ``totals(x)`` holds W(S) - x(I \\ S) for every
    closed station subset S: their max is the worst-case shortfall of x.
    ``w``, ``outside`` and ``maximizers`` hold every subset, with the
    maximizer of W for each cut's uncovered region set."""

    def __init__(self, uset: UncertaintySet, edges: EdgeSet):
        self.edges = edges
        station_mask, region_mask = edges.cut_masks()
        uncovered, set_of_cut = np.unique(region_mask == 0, axis=0, return_inverse=True)
        found = [uset.max_demand(regions) for regions in uncovered]
        self.maximizers = [found[k][1] for k in set_of_cut.reshape(-1)]
        self.w = np.array([found[k][0] for k in set_of_cut.reshape(-1)], dtype=np.int64)
        self.outside = 1 - station_mask.astype(np.int64)  # row s: the stations not in S
        closed, self._reach = edges.closed_cuts()
        self._closed_w, self._closed_outside = self.w[closed], self.outside[closed]

    def totals(self, x) -> np.ndarray:
        return self._closed_w - self._closed_outside @ np.asarray(x, dtype=np.int64)

    def relaxed_totals(self, x, free_units: int, first_free: int = 0) -> np.ndarray:
        """Under the max, a lower bound on every completion stationing at most
        ``free_units`` more at stations ``first_free`` and later, which lower
        only the cuts leaving such a station outside S. W(I) >= 0 is a row,
        so the max is never below max(totals - free_units, 0)."""
        return self.totals(x) - np.where(self._reach >= first_free, int(free_units), 0)


def worst_case_demand(x, uset: UncertaintySet, edges: EdgeSet, cuts: CutTable | None = None) -> WorstCaseResult:
    """Demand in the uncertainty set maximizing the minimum shortfall of x.

    Exact: the stored maximizer of the lowest-index subset S, over all 2^I,
    attaining max_S [W(S) - x(I \\ S)]. ``cuts`` is CutTable(uset, edges), if
    built.
    """
    cuts = cuts if cuts is not None else CutTable(uset, edges)
    totals = cuts.w - cuts.outside @ np.asarray(x, dtype=np.int64)
    cut = int(np.argmax(totals))
    return WorstCaseResult(demand=cuts.maximizers[cut].copy(), shortfall=int(totals[cut]), exact=True)


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

    One branch and bound over the CutTable with the max aggregator.
    ``converged`` is its exact flag: False only when ``max_nodes`` stopped
    it, and then x is the incumbent, with its own exact worst case. The
    name, and the ``epsilon``, ``max_iter`` and ``size_budget`` keywords,
    which are accepted and ignored, remain from the column-and-constraint
    generation this replaced.
    """
    cuts = CutTable(uset, edges)
    result = minimize_deployment(cuts, n, max_aggregator, search_config)
    wc = worst_case_demand(result.x, uset, edges, cuts)
    return RobustSolution(
        x_star=Deployment(result.x, n),
        worst_case_shortfall=wc.shortfall,
        certifying_demand=wc.demand,
        converged=result.flag.kind == "exact",
        state=CcgState([(wc.shortfall - result.flag.gap, float(wc.shortfall), wc.demand.copy())]),
    )


def save_robust_solution(solution: RobustSolution, path: str | Path, alpha: float | None = None) -> None:
    with open(path, "w") as f:
        json.dump(solution.to_dict(alpha), f, sort_keys=True, indent=1)
        f.write("\n")


def save_ccg_history(state: CcgState, path: str | Path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["iteration", "lower_bound", "upper_bound"])
        for k, (lb, ub, _) in enumerate(state.history, start=1):
            writer.writerow([k, repr(lb), repr(ub)])
