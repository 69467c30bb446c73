"""Poisson demand rates and the Value-at-Risk uncertainty set.

Rates are fitted per region at four aggregation levels: the region itself
(single), its queen-adjacent neighborhood (local), the cells within the
coverage-time ball (regional), and the whole city (global). The robust
uncertainty set caps integer demand vectors by the (1 - alpha) Poisson
quantile of each aggregate, and finds exactly the most demand a member can
place on a set of regions. That search is exponential in the number of
regions at worst; its root gives two cheap bounds on the same value, which
meet on most region sets. The bounds of a whole stack of region sets come
from one batched numpy pass: which caps bind each set is one matrix
product, and the upper bound's greedy partitions advance a step at a time
across every set, under two rules of which each set keeps the tighter. The
search reads its partitions from the same routine.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, SetTooLargeError, SolverError, read_json, write_json
from .ingest import DemandMatrix


@dataclass
class PoissonRates:
    """Expected calls per period at each aggregation level."""

    single: np.ndarray
    local: np.ndarray
    regional: np.ndarray
    global_rate: float

    def __post_init__(self):
        self.single = np.asarray(self.single, dtype=np.float64)
        self.local = np.asarray(self.local, dtype=np.float64)
        self.regional = np.asarray(self.regional, dtype=np.float64)
        for name, arr in (("single", self.single), ("local", self.local), ("regional", self.regional)):
            if np.any(arr < 0):
                raise DataError(f"{name} rates must be nonnegative")
        if self.global_rate < 0:
            raise DataError("global rate must be nonnegative")


def fit_rates(
    demand: DemandMatrix | np.ndarray,
    adjacency: np.ndarray,
    coverage_ball: np.ndarray,
) -> PoissonRates:
    """Poisson MLE rates from a period-by-region count matrix.

    adjacency and coverage_ball are boolean region-by-region membership
    matrices; row j gives the cells aggregated into region j's local and
    regional series.
    """
    counts = demand.counts if isinstance(demand, DemandMatrix) else np.asarray(demand)
    if counts.ndim != 2 or counts.shape[0] == 0:
        raise DataError("need at least one period of demand counts")
    adjacency = np.asarray(adjacency, dtype=bool)
    coverage_ball = np.asarray(coverage_ball, dtype=bool)
    n_regions = counts.shape[1]
    if adjacency.shape != (n_regions, n_regions) or coverage_ball.shape != (n_regions, n_regions):
        raise DataError("membership matrices must be regions x regions")
    # a level's mean over periods of the per-period sums is its sum of the
    # period totals over the period count; the integer totals are exact, so
    # each rate is the float the mean of the per-period products is, bit for bit
    n_periods = counts.shape[0]
    totals = counts.sum(axis=0)
    single = totals / n_periods
    local = (totals @ adjacency.T.astype(np.int64)) / n_periods
    regional = (totals @ coverage_ball.T.astype(np.int64)) / n_periods
    global_rate = float(totals.sum() / n_periods)
    return PoissonRates(single, local, regional, global_rate)


def poisson_var(rate: float, alpha: float) -> int:
    """Smallest integer k with P(Poisson(rate) <= k) >= 1 - alpha.

    Uses forward pmf summation via the multiplicative recurrence, which is
    stable for the moderate rates this package deals in.
    """
    if not (0 < alpha < 1):
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    if rate < 0:
        raise ConfigError(f"rate must be nonnegative, got {rate}")
    if rate == 0:
        return 0
    if rate > 700:
        raise ConfigError(f"rate {rate} exceeds the stable summation range")
    target = 1.0 - alpha
    pmf = math.exp(-rate)
    cdf = pmf
    k = 0
    while cdf < target:
        k += 1
        pmf *= rate / k
        cdf += pmf
        if pmf == 0.0 and cdf < target:
            raise SolverError(f"alpha={alpha} is below float64 resolution at rate={rate}")
    return k


@dataclass
class UncertaintySet:
    """Integer demand vectors capped by Poisson Value-at-Risk at four levels.

    Membership: d is in the set iff every d_j is within its single cap,
    every adjacent-neighborhood sum is within its local cap, every
    coverage-ball sum is within its regional cap, and the total is within
    the global cap.
    """

    alpha: float
    single_cap: np.ndarray
    local_cap: np.ndarray
    regional_cap: np.ndarray
    global_cap: int
    adjacency: np.ndarray
    coverage_ball: np.ndarray

    def __post_init__(self):
        self.single_cap = np.asarray(self.single_cap, dtype=np.int64)
        self.local_cap = np.asarray(self.local_cap, dtype=np.int64)
        self.regional_cap = np.asarray(self.regional_cap, dtype=np.int64)
        self.adjacency = np.asarray(self.adjacency, dtype=bool)
        self.coverage_ball = np.asarray(self.coverage_ball, dtype=bool)
        for name, arr in (("single", self.single_cap), ("local", self.local_cap), ("regional", self.regional_cap)):
            if np.any(arr < 0):
                raise DataError(f"{name} caps must be nonnegative")
        if self.global_cap < 0:
            raise DataError("global cap must be nonnegative")

    @property
    def n_regions(self) -> int:
        return len(self.single_cap)

    def contains(self, d) -> bool:
        d = np.asarray(d, dtype=np.int64)
        if d.shape != (self.n_regions,) or np.any(d < 0):
            return False
        if np.any(d > self.single_cap):
            return False
        if np.any(self.adjacency.astype(np.int64) @ d > self.local_cap):
            return False
        if np.any(self.coverage_ball.astype(np.int64) @ d > self.regional_cap):
            return False
        return int(d.sum()) <= self.global_cap

    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Every aggregate as an R x n membership matrix and its caps: the
        local neighborhoods, then the coverage balls, then the global row."""
        n = self.n_regions
        rows = np.vstack([self.adjacency, self.coverage_ball, np.ones((1, n), dtype=bool)])
        return rows, np.concatenate([self.local_cap, self.regional_cap, [self.global_cap]])

    def _partitions(self, masks: np.ndarray) -> tuple[np.ndarray, list[list[tuple[np.ndarray, np.ndarray]]], np.ndarray]:
        """The binding rows and the upper bound's three partitions (local
        neighborhoods, coverage balls, all under the global cap) of every mask
        in an S x n stack, with each partition's root value.

        A row binds a mask when its cap is below its masked regions'
        single-cap sum; a cap at least that sum never binds. A region's open
        bound is its single cap or, if less, the least cap of a row holding
        it: a row that does not bind a mask has a cap at least the single cap
        of every masked region it holds, so it never sets that minimum. A
        partition's root value is its groups' summed min(cap, open-bound sum).
        Each level runs two greedy rules on every set: one takes the binding
        row holding most of what is left, the other the binding row whose
        left regions' open bounds exceed its cap by the most, each the first
        such row on ties; once no row holds (or saves) anything, every region
        left goes alone. Returns (binding, steps, root): binding is S x R
        over ``_rows()``; steps[level] holds both rules' steps, each rule's a
        list of (row, group), row the S taken rows, -1 for regions alone, and
        group the S x n regions the step takes; root[level] is both rules'
        root values, 3 x 2 x S. A set's bound at a level is the lower of its
        two values."""
        rows, caps = self._rows()
        n = self.n_regions
        # float products (exact on these small integers) run in BLAS
        binding = caps < masks @ (rows * self.single_cap).T.astype(np.float64)
        open_bound = np.minimum(self.single_cap, np.where(rows, caps[:, None], self.single_cap).min(axis=0))

        def greedy(lo, hi, gain):
            level, left, value = [], masks.copy(), np.zeros(len(masks), dtype=np.int64)
            while left.any():
                score = np.where(binding[:, lo:hi], gain(left), 0)
                k = score.argmax(axis=1)
                # a row taken holds a region left, so every set's loop ends
                alone = score.max(axis=1) <= 0
                group = np.where(alone[:, None], left, left & rows[lo + k])
                row = np.where(alone, -1, lo + k)
                bounds = group @ open_bound
                value += np.where(alone, bounds, np.minimum(caps[row], bounds))
                level.append((row, group))
                left &= ~group
            return level, value

        steps, root = [], []
        for lo, hi in ((0, n), (n, 2 * n), (2 * n, 2 * n + 1)):
            held = rows[lo:hi].T.astype(np.float64)
            weight = held * open_bound[:, None]
            most, most_value = greedy(lo, hi, lambda left: left @ held)
            saved, saved_value = greedy(lo, hi, lambda left: left @ weight - caps[lo:hi])
            steps.append((most, saved))
            root.append((most_value, saved_value))
        return binding, steps, np.array(root)

    def _prepare(self, regions) -> tuple[np.ndarray, list[int], list[list[int]], list]:
        """The fixed data of a search on ``regions`` (a boolean mask): the
        masked region indices; the residual caps, region p's own cap for
        p < m, then the binding rows' caps; each region's limits, the
        residuals that hold it; and, per level, the partition of
        ``_partitions``' rule of lower root value as (residual, regions)
        groups."""
        mask = np.asarray(regions, dtype=bool)
        picked = np.flatnonzero(mask)
        m = len(picked)
        rows, caps = self._rows()
        binding, steps, root = self._partitions(mask[None])
        bound = np.flatnonzero(binding[0])
        residual = self.single_cap[picked].tolist() + caps[bound].tolist()
        limits = [[p] for p in range(m)]
        for c, p in np.argwhere(rows[bound][:, picked]).tolist():
            limits[p].append(m + c)
        slot = dict(zip(bound.tolist(), range(m, m + len(bound))))
        position = np.cumsum(mask) - 1  # masked region -> its index in picked
        partitions = []
        for (most, saved), (most_value, saved_value) in zip(steps, root):
            groups = []
            # the tighter rule's partition, the first rule's on ties
            for row, group in saved if saved_value[0] < most_value[0] else most:
                held = position[group[0]].tolist()
                if row[0] < 0:
                    groups.extend((p, [p]) for p in held)
                else:
                    groups.append((slot[int(row[0])], held))
            partitions.append(groups)
        return picked, residual, limits, partitions

    def demand_bounds_stack(self, masks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Two cheap bounds on ``max_demand``'s value from the root of its
        search, for every mask in an S x n boolean stack in one batched
        pass: (lower, upper, leaves), S, S and S x n. A leaf is the search's
        first leaf, the lexicographically largest member zero off the mask,
        and lower is its total; when upper, the least of the three
        partitions' root values (``_partitions``), equals it, the leaf is
        the maximizer ``max_demand`` returns.

        The first leaf gives each masked region in index order the most the
        caps left allow; a row that does not bind keeps at least the single
        caps of the regions it still holds, so all rows can take part."""
        masks = np.asarray(masks, dtype=bool).reshape(-1, self.n_regions)
        rows, caps = self._rows()
        _, _, root = self._partitions(masks)
        residual = np.repeat(caps[None], len(masks), axis=0)
        leaves = np.zeros(masks.shape, dtype=np.int64)
        for p in range(self.n_regions):
            holding = np.flatnonzero(rows[:, p])
            v = np.where(masks[:, p], np.minimum(residual[:, holding].min(axis=1), self.single_cap[p]), 0)
            residual[:, holding] -= v[:, None]
            leaves[:, p] = v
        return leaves.sum(axis=1), root.min(axis=(0, 1)), leaves

    def max_demand(self, regions) -> tuple[int, np.ndarray]:
        """Most total demand a member places on ``regions`` (a boolean mask),
        and the lexicographically largest maximizer, zero off the mask.

        Exact depth-first branch and bound: masked regions in index order,
        values high to low, other regions at 0. A branch is cut when no
        completion beats the incumbent, bounded by the least over three fixed
        partitions of the mask (local neighborhoods, coverage balls, all under
        the global cap) of the groups' summed min(residual cap, open bounds).
        The partitions are ``_partitions``' best of two greedy rules per
        level, so the root bound is the one ``demand_bounds_stack`` reports;
        the bound reads residuals and open bounds through getters built once
        per region and per group. Exponential in the mask size at worst;
        ``demand_bounds_stack`` gives the root's bound and first leaf, which
        meet on most masks, and then the search's first leaf is already
        optimal.
        """
        picked, residual, limits, partitions = self._prepare(regions)
        m = len(picked)
        # getters built once: a region's residuals (its own one twice, so a
        # lone cap still reads as a tuple), and, per node depth t, each group's
        # regions t and later as offsets into that node's open bounds, which
        # end in a 0 for the same reason; groups with none of them add 0
        caps_of = [itemgetter(*held, held[0]) for held in limits]
        live = []
        for t in range(m):
            pad = m - t
            live.append([[(k, itemgetter(*(p - t for p in g if p >= t), pad)) for k, g in groups if g[-1] >= t]
                         for groups in partitions])
        values, best = [0] * m, [-1, []]

        def descend(t: int, total: int) -> None:
            if t == m:
                if total > best[0]:
                    best[:] = total, list(values)
                return
            # the completion bound, a later region's open bound being its
            # least residual: cut once one partition's cannot beat the best
            ub = [min(get(residual)) for get in caps_of[t:]]
            ub.append(0)
            gap = best[0] - total
            if any(sum([min(residual[k], sum(get(ub))) for k, get in gs]) <= gap for gs in live[t]):
                return
            held = limits[t]
            for v in range(ub[0], -1, -1):
                for k in held:
                    residual[k] -= v
                values[t] = v
                descend(t + 1, total + v)
                for k in held:
                    residual[k] += v

        descend(0, 0)
        out = np.zeros(self.n_regions, dtype=np.int64)
        out[picked] = best[1]
        return best[0], out


def build_uncertainty_set(
    rates: PoissonRates,
    alpha: float,
    adjacency: np.ndarray,
    coverage_ball: np.ndarray,
) -> UncertaintySet:
    """Cap each fitted rate at its (1 - alpha) Poisson quantile."""
    return UncertaintySet(
        alpha=alpha,
        single_cap=np.array([poisson_var(r, alpha) for r in rates.single], dtype=np.int64),
        local_cap=np.array([poisson_var(r, alpha) for r in rates.local], dtype=np.int64),
        regional_cap=np.array([poisson_var(r, alpha) for r in rates.regional], dtype=np.int64),
        global_cap=poisson_var(rates.global_rate, alpha),
        adjacency=adjacency,
        coverage_ball=coverage_ball,
    )


def enumerate_set(uset: UncertaintySet, size_budget: int = 200_000) -> np.ndarray:
    """All member demand vectors, one per row, in lexicographic order.

    Raises SetTooLargeError when the bounding box alone exceeds the budget.
    """
    caps = uset.single_cap
    box = 1
    for c in caps:
        box *= int(c) + 1
        if box > size_budget:
            raise SetTooLargeError(
                f"uncertainty-set box has more than {size_budget} points; raise size_budget"
            )
    grid = np.array(list(itertools.product(*(range(int(c) + 1) for c in caps))), dtype=np.int64)
    adj = uset.adjacency.astype(np.int64)
    ball = uset.coverage_ball.astype(np.int64)
    keep = (
        np.all(grid @ adj.T <= uset.local_cap, axis=1)
        & np.all(grid @ ball.T <= uset.regional_cap, axis=1)
        & (grid.sum(axis=1) <= uset.global_cap)
    )
    return grid[keep]


def save_uncertainty_set(uset: UncertaintySet, path: str | Path) -> None:
    write_json(path, {
        "alpha": uset.alpha,
        "single_cap": [int(v) for v in uset.single_cap],
        "local_cap": [int(v) for v in uset.local_cap],
        "regional_cap": [int(v) for v in uset.regional_cap],
        "global_cap": int(uset.global_cap),
    })


def load_uncertainty_set(path: str | Path, adjacency: np.ndarray, coverage_ball: np.ndarray) -> UncertaintySet:
    """Rebuild a set from exported caps plus the grid's membership matrices.

    Raises DataError naming the file when it is missing or not JSON, lacks a
    key, or its caps are not nonnegative integers, one per grid region."""
    doc = read_json(path, "uncertainty set")
    keys = ("alpha", "single_cap", "local_cap", "regional_cap", "global_cap")
    if not isinstance(doc, dict):
        raise DataError(f"{path}: expected a JSON object with keys {', '.join(keys)}")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise DataError(f"{path}: missing key(s) {', '.join(missing)}")
    n = len(adjacency)
    vectors = {key: doc[key] for key in keys[1:4]}
    for key, values in vectors.items():
        if not isinstance(values, list) or len(values) != n:
            raise DataError(f"{path}: {key} must list {n} caps, one per grid region")
    for key, values in [*vectors.items(), ("global_cap", [doc["global_cap"]])]:
        if not all(type(v) is int and v >= 0 for v in values):  # bool is not a cap
            raise DataError(f"{path}: {key} must hold nonnegative integers")
    if type(doc["alpha"]) not in (int, float):
        raise DataError(f"{path}: alpha must be a number")
    return UncertaintySet(
        alpha=float(doc["alpha"]),
        single_cap=np.array(vectors["single_cap"], dtype=np.int64),
        local_cap=np.array(vectors["local_cap"], dtype=np.int64),
        regional_cap=np.array(vectors["regional_cap"], dtype=np.int64),
        global_cap=doc["global_cap"],
        adjacency=adjacency,
        coverage_ball=coverage_ball,
    )
