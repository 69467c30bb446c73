"""Independent reference implementations used to check the package.

Everything here is deliberately written from scratch against the math, not
the package code: a second haversine formula, high-precision Poisson CDF
summation, brute-force routing enumeration, exhaustive stationing search,
the demand search's root bounds built set by set with Python sets, a
dispatch simulation that keeps every call in one event heap, one-point
grid snapping, quantile trimming of a list of pairs and a calibration fit
on pairs built record by record, the stationing branch and bound bounding
each child with its own ``bound`` call, a call-log parser built on
``csv.DictReader``, a call-log writer and a table writer built on
``csv.writer``, the bridge that codes hand-built records as a
``CallTable`` one record at a time, a LASSO by coordinate descent on the
full residual vector with the objective it minimizes, and a tract dataset
whose best model is known. Keep these slow and obvious.
"""

from __future__ import annotations

import csv
import heapq
import itertools
import math
from collections import deque
from datetime import datetime, timedelta, timezone
from zoneinfo import ZoneInfo

import mpmath
import numpy as np

from emsdeploy import simcore
from emsdeploy.analysis import SVI_COLUMNS, TractDataset
from emsdeploy.calibrate import apply
from emsdeploy.errors import ConfigError, DataError, SolverError
from emsdeploy.ingest import (
    _NAIVE,
    _SCHEMA_ZONE,
    COLUMNS,
    CallRecord,
    CallTable,
    ParseReport,
)
from emsdeploy.rng import substream
from emsdeploy.stochastic import OptimalityFlag, SearchResult


def haversine_km_alt(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance via the atan2 form, radius 6371 km."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 6371.0 * 2 * math.atan2(math.sqrt(a), math.sqrt(1 - a))


def poisson_var_oracle(rate: float, alpha: float) -> int:
    """Smallest k with CDF(k) >= 1 - alpha, summed at 50-digit precision."""
    if rate == 0:
        return 0
    with mpmath.workdps(50):
        lam = mpmath.mpf(repr(rate))
        target = 1 - mpmath.mpf(repr(alpha))
        term = mpmath.e ** (-lam)
        cdf = term
        k = 0
        while cdf < target:
            k += 1
            term *= lam / k
            cdf += term
    return k


def compositions_at_most(total: int, parts: int):
    """All nonnegative integer vectors of the given length with sum <= total."""
    if parts == 0:
        yield ()
        return
    for head in range(total + 1):
        for tail in compositions_at_most(total - head, parts - 1):
            yield (head,) + tail


def station_option_vectors(x_i: int, targets: list[int], n_regions: int) -> np.ndarray:
    """Served-region vectors a single station can produce with x_i units."""
    options = []
    for alloc in compositions_at_most(x_i, len(targets)):
        served = np.zeros(n_regions, dtype=np.int64)
        for t, amount in zip(targets, alloc):
            served[t] += amount
        options.append(served)
    return np.unique(np.array(options, dtype=np.int64), axis=0)


def all_served_vectors(x, edges: list[tuple[int, int]], n_regions: int) -> np.ndarray:
    """Every region-served vector reachable by some feasible integral routing."""
    targets = {i: [] for i in range(len(x))}
    for i, j in edges:
        targets[i].append(j)
    combined = np.zeros((1, n_regions), dtype=np.int64)
    for i, x_i in enumerate(x):
        opts = station_option_vectors(int(x_i), targets[i], n_regions)
        combined = (combined[:, None, :] + opts[None, :, :]).reshape(-1, n_regions)
        combined = np.unique(combined, axis=0)
    return combined


def brute_min_shortfall(x, d, edges: list[tuple[int, int]]) -> int:
    """Minimum of sum(max(0, d - served)) over every feasible routing."""
    d = np.asarray(d, dtype=np.int64)
    served = all_served_vectors(x, edges, len(d))
    totals = np.maximum(d[None, :] - served, 0).sum(axis=1)
    return int(totals.min())


def brute_min_shortfall_many(x, demands: np.ndarray, edges: list[tuple[int, int]]) -> np.ndarray:
    """brute_min_shortfall for several demand rows at once."""
    demands = np.asarray(demands, dtype=np.int64)
    served = all_served_vectors(x, edges, demands.shape[1])
    totals = np.maximum(demands[None, :, :] - served[:, None, :], 0).sum(axis=2)
    return totals.min(axis=0)


def exhaustive_best_deployment(demands: np.ndarray, n: int, n_stations: int,
                               edges: list[tuple[int, int]], aggregate) -> tuple[tuple[int, ...], float]:
    """Scan every stationing with sum <= n; ties keep the lexicographically
    smallest vector. ``aggregate`` maps the per-scenario shortfalls to the
    objective."""
    best_x = None
    best_obj = None
    for x in compositions_at_most(n, n_stations):
        totals = brute_min_shortfall_many(x, demands, edges)
        obj = aggregate(totals)
        if best_obj is None or obj < best_obj:
            best_x, best_obj = x, obj
    return best_x, best_obj


def reference_minimize_deployment(ev, n: int, max_nodes: int = 1_000_000):
    """``stochastic.minimize_deployment`` as it was before ``child_bounds``:
    the same best-first search over (bound, prefix), with every child
    bounded by its own ``ev.bound`` pass over the cuts, and the same
    completion of the incumbent when ``max_nodes`` stops it."""
    n_i = ev.edges.n_stations

    def padded(prefix):
        x = np.zeros(n_i, dtype=np.int64)
        x[: len(prefix)] = prefix
        return x

    def bound_of(prefix):
        return ev.bound(padded(prefix), n - sum(prefix), len(prefix))

    heap = [(bound_of(()), ())]
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
        if nodes >= max_nodes:
            # the incumbent places the rest of the fleet one unit at a time,
            # each at the first station of least value
            incumbent = padded(prefix)
            for _ in range(n - sum(prefix)):
                best = None
                for i in range(n_i):
                    trial = incumbent.copy()
                    trial[i] += 1
                    value = ev.value(trial)
                    if best is None or value < best[0]:
                        best = (value, trial)
                incumbent = best[1]
            obj = ev.value(incumbent)
            lowest = min(bound, min((b for b, _ in heap), default=bound))
            return SearchResult(x=incumbent, objective=obj,
                                flag=OptimalityFlag("bound_gap", gap=max(obj - lowest, 0.0)), nodes=nodes)
        for v in range(n - sum(prefix) + 1):
            child = prefix + (v,)
            heapq.heappush(heap, (bound_of(child), child))
    raise SolverError("search frontier exhausted without a complete stationing")


def box_members(uset) -> np.ndarray:
    """Filter the full cap box through the membership predicate."""
    ranges = [range(int(c) + 1) for c in uset.single_cap]
    rows = [np.array(v, dtype=np.int64) for v in itertools.product(*ranges) if uset.contains(np.array(v))]
    if not rows:
        return np.zeros((0, len(uset.single_cap)), dtype=np.int64)
    return np.vstack(rows)


def _reference_root(uset, regions):
    """The exact search's fixed data on one mask, built with Python sets:
    the masked region indices, the residual caps (each region's own cap,
    then the binding rows'), each region's limits, and each level's two
    greedy partitions as (residual, regions) groups, the rule that takes the
    row holding most of what is left first."""
    picked = np.flatnonzero(np.asarray(regions, dtype=bool))
    n, m = uset.n_regions, len(picked)
    rows = np.vstack([uset.adjacency[:, picked], uset.coverage_ball[:, picked], np.ones((1, m), dtype=bool)])
    caps = np.concatenate([uset.local_cap, uset.regional_cap, [uset.global_cap]])
    single = uset.single_cap[picked]
    # a cap at least its regions' single-cap sum never binds
    binding = np.flatnonzero(caps < rows.astype(np.int64) @ single)
    residual = single.tolist() + caps[binding].tolist()
    holds = [{p} for p in range(m)] + [set() for _ in binding]
    limits = [[p] for p in range(m)]
    for c, p in np.argwhere(rows[binding]).tolist():
        holds[m + c].add(p)
        limits[p].append(m + c)
    ub = [min(residual[k] for k in limits[p]) for p in range(m)]

    def most(left, k):  # regions held
        return len(left & holds[k])

    def saved(left, k):  # open bounds over the cap
        return sum(ub[p] for p in left & holds[k]) - residual[k]

    partitions = []
    for level in range(3):
        level_rows = [m + k for k, c in enumerate(binding) if c // n == level]
        for gain in (most, saved):
            groups, left = [], set(range(m))
            while left:  # the first row of most gain, else every region left alone
                k = max(level_rows, key=lambda k: gain(left, k), default=None)
                if k is None or gain(left, k) <= 0:
                    groups.extend((p, [p]) for p in sorted(left))
                    break
                groups.append((k, sorted(left & holds[k])))
                left -= holds[k]
            partitions.append(groups)
    return picked, residual, limits, partitions


def reference_root_values(uset, regions) -> list[tuple[int, int]]:
    """Per level, the root values (the groups' summed min(cap, open bounds))
    of the partitions taking the row that holds most of what is left and the
    row that saves most."""
    _, residual, limits, partitions = _reference_root(uset, regions)
    ub = [min(residual[k] for k in held) for held in limits]
    values = [sum(min(residual[k], sum(ub[p] for p in g)) for k, g in gs) for gs in partitions]
    return list(zip(values[::2], values[1::2]))


def reference_demand_bounds(uset, regions) -> tuple[int, int, np.ndarray]:
    """(lower, upper, first leaf) of the exact search's root on one mask, set
    by set: upper is the least root value over both greedy partitions of the
    three levels, and the first leaf takes each masked region's least
    residual in index order."""
    picked, residual, limits, _ = _reference_root(uset, regions)
    upper = min(min(pair) for pair in reference_root_values(uset, regions))
    leaf = []
    for held in limits:
        v = min(residual[k] for k in held)
        for k in held:
            residual[k] -= v
        leaf.append(v)
    out = np.zeros(uset.n_regions, dtype=np.int64)
    out[picked] = leaf
    return sum(leaf), upper, out


def reference_simulate(x, calls, grid, params, seed: int):
    """The dispatch simulation written as plainly as possible.

    Every call enters one event heap up front, ahead of any event pushed
    later, so a call wins a timestamp tie; each unit is a dict scanned in
    full on every dispatch. ``calls`` are sorted (epoch_seconds, cell)
    pairs. Returns the event log as (time_s, kind, call_id, ambulance_id,
    cell) tuples and one (call_id, time_s, cell, ambulance_id,
    dispatch_wait_s, travel_s, response_s) tuple per call.
    """
    def travel(a: int, b: int) -> float:
        t = float(grid.travel_time_s[a, b])
        return t if params.calibration is None else apply(params.calibration, t)

    def nearest_hospital(cell: int):
        if not grid.hospital_cells:
            return None
        return min(grid.hospital_cells, key=lambda h: (float(grid.travel_time_s[cell, h]), h))

    units = []
    for i, cell in enumerate(grid.station_cells):
        for _ in range(int(x[i])):
            units.append({"id": len(units), "home": cell, "cell": cell, "free": True})
    # one scalar lognormal draw per call, in minutes, in call order
    rng = substream(seed, "service")
    service = [math.exp(rng.normal(params.lognormal_mu, params.lognormal_sigma)) * 60.0 for _ in calls]

    heap: list = []
    counter = [0]

    def push(t, kind, call_id, unit_id):
        heapq.heappush(heap, (t, counter[0], kind, call_id, unit_id))
        counter[0] += 1

    for k, (t, _) in enumerate(calls):
        push(t, simcore.NEW_CALL, k, None)

    log: list = []
    outcomes: dict = {}
    waiting: deque = deque()

    def dispatch(unit, k, now):
        t_call, cell = calls[k]
        wait = now - t_call
        leg = travel(unit["cell"], cell)
        outcomes[k] = (k, t_call, cell, unit["id"], wait, leg, wait + leg)
        unit["free"] = False
        log.append((now, simcore.CALL_ENROUTE, k, unit["id"], unit["cell"]))
        push(now + leg, simcore.CALL_ARRIVE_SCENE, k, unit["id"])

    def release(unit, k, now):
        log.append((now, simcore.AMBULANCE_AVAILABLE, k, unit["id"], unit["cell"]))
        if waiting:
            dispatch(unit, waiting.popleft(), now)
        else:
            unit["free"] = True
            unit["cell"] = unit["home"]

    while heap:
        now, _, kind, k, unit_id = heapq.heappop(heap)
        unit = None if unit_id is None else units[unit_id]
        if kind == simcore.NEW_CALL:
            cell = calls[k][1]
            log.append((now, kind, k, None, cell))
            free = [u for u in units if u["free"]]
            if not free:
                waiting.append(k)
                continue
            # the closest free unit; ties go to the lowest id
            best = min(free, key=lambda u: (travel(u["cell"], cell), u["id"]))
            dispatch(best, k, now)
        elif kind == simcore.CALL_ARRIVE_SCENE:
            unit["cell"] = calls[k][1]
            log.append((now, kind, k, unit_id, unit["cell"]))
            push(now + service[k], simcore.CALL_DEPART_SCENE, k, unit_id)
        elif kind == simcore.CALL_DEPART_SCENE:
            log.append((now, kind, k, unit_id, unit["cell"]))
            hospital = nearest_hospital(unit["cell"])
            if hospital is None:
                release(unit, k, now)
            else:
                push(now + travel(unit["cell"], hospital), simcore.CALL_ARRIVE_HOSPITAL, k, unit_id)
                unit["cell"] = hospital
        else:
            log.append((now, kind, k, unit_id, unit["cell"]))
            release(unit, k, now)
    return log, [outcomes[k] for k in range(len(calls))]


def reference_assign_cell(grid, lat: float, lon: float, snap_cells: float = 0.0):
    """Cell of one point with scalar float arithmetic, or None off the grid.

    A point is on the grid if it lies inside the bounds widened by
    ``snap_cells`` cells on every side (a non-finite point never does). Its
    row and column are floor((lat - min_lat) / h) and floor((lon - min_lon) / w),
    clamped to the grid.
    """
    min_lat, max_lat, min_lon, max_lon = grid.bounds
    h = (max_lat - min_lat) / grid.n_rows
    w = (max_lon - min_lon) / grid.n_cols
    if not (math.isfinite(lat) and math.isfinite(lon)):
        return None
    if (
        lat < min_lat - snap_cells * h
        or lat > max_lat + snap_cells * h
        or lon < min_lon - snap_cells * w
        or lon > max_lon + snap_cells * w
    ):
        return None
    row = min(max(math.floor((lat - min_lat) / h), 0), grid.n_rows - 1)
    col = min(max(math.floor((lon - min_lon) / w), 0), grid.n_cols - 1)
    return row * grid.n_cols + col


def reference_trim_quantiles(pairs, p: float) -> list[tuple[float, float]]:
    """Drop (grid, reported) pairs whose reported time falls in the bottom
    or top p tail, sorting the reported times in a Python list.

    Cut points are the nearest-rank order statistics: with n pairs the
    lowest ceil(p*n) and highest ceil(p*n) reported values fall outside
    the retained range.
    """
    if not (0 <= p < 0.5):
        raise ConfigError(f"trim fraction must be in [0, 0.5), got {p}")
    pairs = list(pairs)
    n = len(pairs)
    if n == 0 or p == 0:
        return pairs
    k = math.ceil(p * n)
    reported = sorted(v for _, v in pairs)
    if k > n - 1 - k:
        return []
    lo, hi = reported[k], reported[n - 1 - k]
    return [pair for pair in pairs if lo <= pair[1] <= hi]


def reference_calibration_fit(records, grid, kind: str, trim_p: float, snap_cells: float = 1.0):
    """(a, b, n_used) of a calibration fit on (grid, reported) pairs built
    record by record: each point snapped on its own, the pairs trimmed by
    ``reference_trim_quantiles``, loglog's nonpositive pairs dropped and
    its logs taken, and the line fitted by ``np.polyfit``."""
    pairs = []
    for r in records:
        if r.reported_travel_s is None or r.ambulance_lat is None or r.ambulance_lon is None:
            continue
        a = reference_assign_cell(grid, r.ambulance_lat, r.ambulance_lon, snap_cells)
        b = reference_assign_cell(grid, r.lat, r.lon, snap_cells)
        if a is not None and b is not None:
            pairs.append((float(grid.travel_time_s[a, b]), r.reported_travel_s))
    kept = reference_trim_quantiles(pairs, trim_p)
    if kind == "loglog":
        kept = [(math.log(g), math.log(r)) for g, r in kept if g > 0 and r > 0]
    slope, intercept = np.polyfit([g for g, _ in kept], [r for _, r in kept], 1)
    return float(intercept), float(slope), len(kept)


def reference_parse_calls(path, timezone="UTC"):
    """The call-log parser over ``csv.DictReader``, one dict per row.

    Same rules as ``ingest.parse_calls``: blank lines are skipped and not
    counted, a short row's missing fields read None, a repeated header name
    reads its last column; bad timestamps, bad or non-finite coordinates
    and bad optional fields (negative or non-finite durations, non-finite
    ambulance degrees, non-numbers) drop the row with a reason.
    """
    zone = ZoneInfo(timezone)
    report = ParseReport()
    records = []

    def seconds(raw):
        if raw is None or raw.strip() == "":
            return None
        v = float(raw)
        if not math.isfinite(v) or v < 0:
            raise ValueError("negative or non-finite duration")
        return v

    def degrees(raw):
        if raw is None or raw.strip() == "":
            return None
        v = float(raw)
        if not math.isfinite(v):
            raise ValueError("non-finite degrees")
        return v

    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        header = reader.fieldnames or []
        missing = [name for name in COLUMNS[:3] if name not in header]
        if missing:
            raise DataError(f"{path}: missing mandatory columns: {', '.join(missing)}")
        for row in reader:
            report.n_rows += 1
            try:
                ts = datetime.fromisoformat(row["datetime"].strip())
            except (ValueError, AttributeError):
                report.n_dropped += 1
                report.reasons["bad_timestamp"] += 1
                continue
            if ts.tzinfo is None:
                ts = ts.replace(tzinfo=zone, fold=0)
            try:
                lat = float(row["latitude"])
                lon = float(row["longitude"])
                if not (math.isfinite(lat) and math.isfinite(lon)):
                    raise ValueError("non-finite coordinate")
            except (ValueError, TypeError):
                report.n_dropped += 1
                report.reasons["bad_coordinates"] += 1
                continue
            try:
                rec = CallRecord(
                    timestamp=ts,
                    lat=lat,
                    lon=lon,
                    reported_response_s=seconds(row.get("response_time_s")),
                    reported_travel_s=seconds(row.get("travel_time_s")),
                    ambulance_lat=degrees(row.get("amb_latitude")),
                    ambulance_lon=degrees(row.get("amb_longitude")),
                    on_scene_s=seconds(row.get("on_scene_s")),
                    to_hospital_s=seconds(row.get("to_hospital_s")),
                )
            except ValueError:
                report.n_dropped += 1
                report.reasons["bad_optional_field"] += 1
                continue
            records.append(rec)
            report.n_parsed += 1
    records.sort(key=lambda r: r.timestamp - _UTC_EPOCH)  # by instant
    return records, report


def reference_serialize_calls(records, path) -> None:
    """The call-log writer over ``csv.writer``: the ``COLUMNS`` header, ISO
    timestamps, each value as a float (written as its repr), None empty."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(list(COLUMNS))
        writer.writerows(
            (r.timestamp.isoformat(), float(r.lat), float(r.lon),
             *[None if v is None else float(v) for v in r[3:]])
            for r in records
        )


def reference_write_csv(path, header, rows) -> None:
    """``csv.writer``'s text of ``header``, unless it is None, and ``rows``."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)


_US = timedelta(microseconds=1)
_WALL_EPOCH = datetime(1970, 1, 1)
_UTC_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def _wall_us(stamp: datetime) -> int:
    """A stamp's wall-clock time in us since 1970-01-01, whatever its zone."""
    return (stamp.replace(tzinfo=None) - _WALL_EPOCH) // _US


def table_from_records(records, tz: ZoneInfo) -> CallTable:
    """The CallTable of hand-built records whose ZoneInfo stamps are in
    ``tz``, coded one record at a time: a ZoneInfo stamp as in the table's
    zone, any other by its fixed UTC offset, and None as NaN. Raises
    DataError for a naive stamp, or else for one in another ZoneInfo zone,
    naming the first one's position."""
    zones = [r.timestamp.tzinfo for r in records]
    if None in zones:
        raise DataError(f"call {zones.index(None)} has a naive timestamp; a CallTable needs a zone")
    for k, z in enumerate(zones):
        if isinstance(z, ZoneInfo) and z is not tz:
            raise DataError(f"call {k} is stamped in {z}, not in the table's zone {tz}")
    wall_us = [_wall_us(r.timestamp) for r in records]
    code = [_SCHEMA_ZONE if isinstance(z, ZoneInfo) else z.utcoffset(None) // _US for z in zones]
    utc_us = [(r.timestamp - _UTC_EPOCH) // _US for r in records]
    values = np.array([r[1:] for r in records], dtype=np.float64).reshape(len(records), 8)
    return CallTable(*(np.array(c, dtype=np.int64) for c in (wall_us, code, utc_us)),
                     np.ascontiguousarray(values.T), tz)


def start_columns(starts) -> tuple[list[int], list[int]]:
    """Demand-matrix period starts given as datetimes, as the matrix's
    columns: each start's wall time in us, and its UTC offset in us at that
    instant (``_NAIVE`` for a naive start)."""
    offsets = [t.utcoffset() for t in starts]
    return [_wall_us(t) for t in starts], [_NAIVE if o is None else o // _US for o in offsets]


def start_times(matrix) -> list[datetime]:
    """A demand matrix's period starts as datetimes, each in its own fixed
    UTC offset, or naive."""
    return [
        _WALL_EPOCH + wall * _US if offset == _NAIVE
        else (_WALL_EPOCH + wall * _US).replace(tzinfo=timezone(offset * _US))
        for wall, offset in zip(matrix.start_wall_us.tolist(), matrix.start_offset_us.tolist())
    ]


def lasso_objective(X: np.ndarray, y: np.ndarray, beta: np.ndarray, lam: float) -> float:
    """RSS / (2n) + lam * L1, with beta laid out as [intercept, coefs...]."""
    n = X.shape[0]
    resid = y - beta[0] - X @ beta[1:]
    return float((resid**2).sum()) / (2 * n) + lam * float(np.abs(beta[1:]).sum())


def reference_fit_lasso(X, y, lam: float, tol: float = 1e-8, max_sweeps: int = 100_000) -> np.ndarray:
    """Cyclic coordinate descent on the n-vector residual, one column at a time.

    Same objective (RSS/(2n) + lam * L1, unpenalized intercept) as
    ``analysis.fit_lasso``, which follows the exact homotopy path instead;
    converged when no coefficient moves tol or more in a sweep. Returns
    [intercept, coefficients...].
    """

    def soft_threshold(v: float, t: float) -> float:
        if v > t:
            return v - t
        if v < -t:
            return v + t
        return 0.0

    if tol <= 0:
        raise ConfigError(f"tol must be positive, got {tol}")
    if lam < 0:
        raise ConfigError(f"lambda must be nonnegative, got {lam}")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = X.shape
    beta = np.zeros(p)
    intercept = float(y.mean())
    col_norm2 = (X**2).sum(axis=0)
    resid = y - intercept - X @ beta
    for _ in range(max_sweeps):
        max_delta = 0.0
        for j in range(p):
            if col_norm2[j] == 0.0:
                continue
            old = beta[j]
            rho = float(X[:, j] @ resid) + col_norm2[j] * old
            new = soft_threshold(rho, lam * n) / col_norm2[j]
            if new != old:
                resid += X[:, j] * (old - new)
                beta[j] = new
                max_delta = max(max_delta, abs(new - old))
        new_intercept = intercept + float(resid.mean())
        if new_intercept != intercept:
            resid -= new_intercept - intercept
            max_delta = max(max_delta, abs(new_intercept - intercept))
            intercept = new_intercept
        if max_delta < tol:
            return np.concatenate([[intercept], beta])
    err = SolverError(f"LASSO did not converge within {max_sweeps} sweeps (lambda={lam})")
    err.last_iterate = np.concatenate([[intercept], beta])
    raise err


def synth_tract_dataset(seed: int = 0, n_tracts: int = 150):
    """Tract regression dataset where geography alone drives travel time.

    The dependent is linear in the average station time plus sparse noise;
    the minimum station time is heavy-tailed and carries no signal, and the
    social-vulnerability columns are pure noise. Under the five-model
    comparison the average-time regression should come out on top.
    """
    rng = substream(seed, "synth-tracts")
    avg = rng.uniform(5, 15, size=n_tracts)
    minimum = np.exp(rng.normal(0.5, 2.6, size=n_tracts))
    svi = rng.normal(0, 1, size=(n_tracts, len(SVI_COLUMNS)))
    mask = rng.random(n_tracts) < 0.08
    noise = np.where(mask, rng.normal(0, 2.0, size=n_tracts), 0.0)
    y = 2.0 + avg + noise
    return TractDataset(
        tract_ids=[f"T{i}" for i in range(n_tracts)],
        y=y,
        X=np.column_stack([minimum, avg, svi]),
    )
