"""Two-stage robust stationing: minimize the worst-case shortfall over the
Value-at-Risk uncertainty set, via column-and-constraint generation.

The master problem minimizes the pooled worst case over the demand columns
generated so far (a lower bound); the subproblem finds the worst demand in
the full set for the master's stationing (an upper bound certificate). At
desk scale the subproblem enumerates the set exactly; larger sets fall back
to a greedy ascent that is flagged as heuristic.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .demand import UncertaintySet, enumerate_set
from .dispatchflow import Deployment, EdgeSet, ScenarioEvaluator
from .errors import ConfigError, SetTooLargeError
from .stochastic import SearchConfig, max_aggregator, minimize_deployment


@dataclass
class WorstCaseResult:
    demand: np.ndarray
    shortfall: int
    exact: bool


def worst_case_demand(
    x,
    uset: UncertaintySet,
    edges: EdgeSet,
    size_budget: int = 200_000,
) -> WorstCaseResult:
    """Demand in the uncertainty set maximizing the minimum shortfall of x.

    Exact by enumeration when the set fits the budget; otherwise a greedy
    ascent that repeatedly increments the feasible region with the largest
    marginal shortfall gain (ties to the lowest region index) and flags the
    result as heuristic. Exact ties resolve to the lexicographically
    smallest demand vector.
    """
    x = np.asarray(x, dtype=np.int64)
    try:
        members = enumerate_set(uset, size_budget)
    except SetTooLargeError:
        return _greedy_worst_case(x, uset, edges)
    totals = ScenarioEvaluator(edges, members).totals(x)
    best = int(np.argmax(totals))  # first max = lexicographically smallest
    return WorstCaseResult(demand=members[best].copy(), shortfall=int(totals[best]), exact=True)


def _greedy_worst_case(x: np.ndarray, uset: UncertaintySet, edges: EdgeSet) -> WorstCaseResult:
    d = np.zeros(uset.n_regions, dtype=np.int64)
    current = 0
    while True:
        candidates = []
        for j in range(uset.n_regions):
            d[j] += 1
            if uset.contains(d):
                candidates.append(j)
            d[j] -= 1
        if not candidates:
            break
        trial = np.repeat(d[None, :], len(candidates), axis=0)
        for row, j in enumerate(candidates):
            trial[row, j] += 1
        totals = ScenarioEvaluator(edges, trial).totals(x)
        pick = int(np.argmax(totals))  # ties to the lowest region index
        d[candidates[pick]] += 1
        current = int(totals[pick])
    return WorstCaseResult(demand=d, shortfall=current, exact=False)


@dataclass
class CcgState:
    scenario_pool: list[np.ndarray] = field(default_factory=list)
    lower_bound: float = float("-inf")
    upper_bound: float = float("inf")
    iterations: int = 0
    history: list[tuple[float, float, np.ndarray]] = field(default_factory=list)


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
    epsilon: float = 1e-6,
    max_iter: int = 200,
    size_budget: int = 200_000,
    search_config: SearchConfig | None = None,
) -> RobustSolution:
    """Column-and-constraint generation for the min-max stationing problem.

    The pool starts from the zero demand vector so the first master problem
    is always feasible. Convergence requires the exact subproblem; with the
    heuristic fallback the incumbent is returned unconverged.
    """
    if epsilon <= 0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    state = CcgState(scenario_pool=[np.zeros(edges.n_regions, dtype=np.int64)])
    best_x: np.ndarray | None = None
    best_d: np.ndarray | None = None
    all_exact = True
    converged = False
    while state.iterations < max_iter:
        state.iterations += 1
        pool = np.vstack(state.scenario_pool)
        master = minimize_deployment(pool, n, edges, max_aggregator, search_config)
        if master.flag.kind == "exact":
            state.lower_bound = max(state.lower_bound, master.objective)
        else:
            all_exact = False  # truncated master gives no valid lower bound
        wc = worst_case_demand(master.x, uset, edges, size_budget)
        all_exact = all_exact and wc.exact
        if wc.shortfall < state.upper_bound:
            state.upper_bound = float(wc.shortfall)
            best_x, best_d = master.x, wc.demand
        state.history.append((state.lower_bound, state.upper_bound, wc.demand.copy()))
        if state.upper_bound - state.lower_bound <= epsilon:
            converged = all_exact
            break
        if any(np.array_equal(wc.demand, p) for p in state.scenario_pool):
            break  # repeated column cannot tighten the master further
        state.scenario_pool.append(wc.demand.copy())
    assert best_x is not None and best_d is not None
    return RobustSolution(
        x_star=Deployment(best_x, n),
        worst_case_shortfall=int(round(state.upper_bound)),
        certifying_demand=best_d,
        converged=converged,
        state=state,
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
