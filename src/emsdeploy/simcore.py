"""Seeded discrete-event simulator for ambulance dispatch.

Each call walks the chain NewCall -> CallEnroute -> CallArriveScene ->
CallDepartScene -> (CallArriveHospital) -> AmbulanceAvailable. Arriving at
the scene and leaving it change nothing a dispatch decision reads, so a
dispatched unit enters the heap of in-flight units once, keyed by the time
it frees. The time-sorted call list is merged with that heap; a call wins
a timestamp tie, and tied in-flight events resolve in the order they were
scheduled, so the run is fully determined by (inputs, seed). Dispatch is
closest-available with zero setup delay, waiting calls are served FIFO,
and a freed ambulance heads home but may be re-dispatched (from its home
cell, the destination) while returning. The run keeps each call's chain
of times; the event log is replayed from those chains when it is read.
"""

from __future__ import annotations

import csv
import heapq
import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .calibrate import CalibrationModel, apply
from .errors import ConfigError, DataError
from .geogrid import Grid, assign_cells_or_raise
from .ingest import CallTable
from .rng import derive_seed, substream

NEW_CALL = "NewCall"
CALL_ENROUTE = "CallEnroute"
CALL_ARRIVE_SCENE = "CallArriveScene"
CALL_DEPART_SCENE = "CallDepartScene"
CALL_ARRIVE_HOSPITAL = "CallArriveHospital"
AMBULANCE_AVAILABLE = "AmbulanceAvailable"


@dataclass(frozen=True)
class Event:
    time_s: float
    kind: str
    call_id: int | None = None
    ambulance_id: int | None = None
    cell: int | None = None


@dataclass
class SimParams:
    """Simulation knobs.

    The lognormal on-scene parameters are on the minutes scale; a call whose
    response exceeds ``shortfall_threshold_s`` counts as a shortfall;
    ``calibration`` (when set) maps every grid travel time to an adjusted
    one; ``snap_cells`` is the off-grid snapping tolerance for a CallTable's
    calls.
    """

    lognormal_mu: float = 3.65
    lognormal_sigma: float = 0.3
    shortfall_threshold_s: float = 600.0
    calibration: CalibrationModel | None = None
    snap_cells: float = 1.0


@dataclass
class CallOutcome:
    call_id: int
    time_s: float
    cell: int
    ambulance_id: int
    dispatch_wait_s: float
    travel_s: float
    response_s: float
    shortfall: bool


@dataclass
class SimOutcome:
    """One run. Per-call outcomes are kept as plain tuples in the field
    order of CallOutcome. Each call's chain is the tuple (dispatching call
    or -1, dispatch time, origin cell, scene arrival, scene departure, free
    time, free cell): a call of -1 means the unit left at the call's own
    arrival, otherwise at the step where that call's unit freed. ``events``,
    ``calls`` and ``event_log`` are rebuilt on each read."""

    call_rows: list[tuple]  # one per call, by call id
    mean_response_s: float
    shortfall_rate: float
    chains: list[tuple]  # one per call, by call id
    hospital_leg_skipped: bool

    @property
    def n_calls(self) -> int:
        return len(self.call_rows)

    @property
    def calls(self) -> list[CallOutcome]:
        return [CallOutcome(*r) for r in self.call_rows]

    @property
    def event_log(self) -> list[Event]:
        return [Event(*e) for e in self.events]

    @property
    def events(self) -> list[tuple]:
        """The run's events as Event-ordered tuples, in the order they
        happened: the chains replayed through a (time, seq) heap, with a
        call winning a timestamp tie, exactly as the run stepped."""
        rows, chains = self.call_rows, self.chains
        n = len(rows)
        then = [-1] * n  # the call each freeing step dispatches, if any
        for c, chain in enumerate(chains):
            if chain[0] >= 0:
                then[chain[0]] = c
        hospitals = not self.hospital_leg_skipped
        out: list[tuple] = []
        log = out.append
        heap: list[tuple[float, int, str, int]] = []  # (time, seq, kind, call)
        push, pop = heapq.heappush, heapq.heappop
        seq = 0
        k = 0  # next call to arrive
        while k < n or heap:
            if k < n and (not heap or rows[k][1] <= heap[0][0]):
                call = k
                k += 1
                log((rows[call][1], NEW_CALL, call, None, rows[call][2]))
                if chains[call][0] >= 0:
                    continue  # it waits for a unit to free
            else:
                now, _, kind, call = pop(heap)
                _, _, _, _, t_dep, t_free, free_cell = chains[call]
                a = rows[call][3]
                if kind == CALL_ARRIVE_SCENE:
                    log((now, kind, call, a, rows[call][2]))
                    push(heap, (t_dep, seq, CALL_DEPART_SCENE, call))
                    seq += 1
                    continue
                if kind == CALL_DEPART_SCENE:
                    log((now, kind, call, a, rows[call][2]))
                    if hospitals:
                        push(heap, (t_free, seq, CALL_ARRIVE_HOSPITAL, call))
                        seq += 1
                        continue
                else:  # arrived at the hospital
                    log((now, kind, call, a, free_cell))
                log((now, AMBULANCE_AVAILABLE, call, a, free_cell))
                call = then[call]
                if call < 0:
                    continue
            _, t, origin, t_scene, _, _, _ = chains[call]
            log((t, CALL_ENROUTE, call, rows[call][3], origin))
            push(heap, (t_scene, seq, CALL_ARRIVE_SCENE, call))
            seq += 1
        return out


def draw_service_times(params: SimParams, rng: np.random.Generator, n: int) -> list[float]:
    """``n`` lognormal on-scene durations, drawn in minutes, returned in seconds."""
    if params.lognormal_sigma <= 0:
        raise ConfigError(f"lognormal sigma must be positive, got {params.lognormal_sigma}")
    # one vector of normals is the same stream as n scalar draws; math.exp,
    # not np.exp, keeps every duration bit-identical to a scalar draw
    return [math.exp(z) * 60.0 for z in rng.normal(params.lognormal_mu, params.lognormal_sigma, n).tolist()]


def draw_service_time(params: SimParams, rng: np.random.Generator) -> float:
    """One lognormal on-scene duration, drawn in minutes, returned in seconds."""
    return draw_service_times(params, rng, 1)[0]


def _as_sim_calls(calls: CallTable | Sequence[tuple[float, int]]) -> tuple[list[float], list[int] | None]:
    """Each call's epoch seconds and, for (epoch_s, cell) pairs, its cell,
    in one conversion: a CallTable through its ``utc_s`` column, with None
    for the cells its calls are yet to be snapped to; pairs through one
    ``zip``. Anything else, such as a list of CallRecords or a mix, is a
    DataError."""
    if isinstance(calls, CallTable):
        return calls.utc_s.tolist(), None
    if len(calls) == 0:
        return [], []
    try:
        t, c = zip(*calls)
        return list(map(float, t)), list(map(int, c))
    except (TypeError, ValueError):
        raise DataError("calls must be a CallTable or a list of (epoch_s, cell) pairs") from None


def simulate(
    x, calls: CallTable | Sequence[tuple[float, int]], grid: Grid, params: SimParams | None = None, seed: int = 0
) -> SimOutcome:
    """Run one dispatch simulation of ``calls`` under stationing ``x``.

    ``calls`` are a CallTable or a list of (epoch_seconds, cell) pairs,
    sorted by time; a table's calls are snapped to the grid on each run, so
    a caller that simulates one table many times should snap it to pairs
    once. Travel times are
    grid times passed through the calibration model when one is
    configured. Ambulances are numbered by station, and the closest free
    one goes, ties to the lower number.
    """
    params = params or SimParams()
    x = np.asarray(x, dtype=np.int64)
    if len(x) != len(grid.station_cells):
        raise DataError(f"stationing has {len(x)} entries, grid has {len(grid.station_cells)} stations")
    if np.any(x < 0):
        raise DataError("stationing must be nonnegative")
    if x.sum() < 1:
        raise DataError("need at least one stationed ambulance")
    call_t, call_cell = _as_sim_calls(calls)
    if call_cell is None:  # a CallTable, its calls snapped to the grid together
        call_cell = assign_cells_or_raise(grid, calls.lat, calls.lon, params.snap_cells).tolist()
    if any(b < a for a, b in zip(call_t, call_t[1:])):
        raise DataError("calls must be sorted by time")
    n_calls = len(call_t)

    # A leg starts at a station (a free unit is at home) or where a unit
    # frees: its call's hospital, or the scene when the grid has none. Only
    # those rows of travel[a][b], calibrated seconds from cell a to cell b,
    # are built; scene-to-hospital legs are looked up per cell.
    grid_s = grid.travel_time_s.tolist()
    model = params.calibration

    def calibrated(t: float) -> float:
        return t if model is None else apply(model, t)

    stations = grid.station_cells
    hospitals = grid.hospital_cells
    starts = set(stations) | set(hospitals) if hospitals else range(grid.n_cells)
    travel: list[list[float] | None] = [None] * grid.n_cells
    for a in starts:
        travel[a] = [calibrated(t) for t in grid_s[a]]
    # nearest hospital per cell by raw grid time, ties to the lower cell index,
    # and the calibrated leg there
    hospital_of = [min(hospitals, key=lambda h: (row[h], h)) if hospitals else None for row in grid_s]
    to_hospital = [None if h is None else calibrated(row[h]) for row, h in zip(grid_s, hospital_of)]
    # A free ambulance is always at its home station, so the closest free
    # unit is the lowest-numbered free unit of the first station, in order
    # of (travel to the call's cell, station index), that has one.
    station_order = [
        sorted(range(len(stations)), key=lambda i: (travel[stations[i]][cell], i))
        for cell in range(grid.n_cells)
    ]
    station_of = [i for i, n in enumerate(x.tolist()) for _ in range(n)]  # per ambulance
    idle: list[list[int]] = [[] for _ in stations]  # per station, a min-heap of free ids
    for a, i in enumerate(station_of):  # ascending, so each list is a heap
        idle[i].append(a)

    service_s = draw_service_times(params, substream(seed, "service"), n_calls)

    threshold = params.shortfall_threshold_s
    call_rows: list[tuple] = [()] * n_calls
    chains: list[tuple] = [()] * n_calls
    # One entry per dispatched unit: (free time, scene departure, scene
    # arrival, dispatch count, call, ambulance). Tied steps of a chain run in
    # the order they were scheduled, which is the order of the chain's
    # previous steps, so units with equal free times free in key order; a
    # shorter key such as (free time, dispatch count) would not.
    heap: list[tuple[float, float, float, int, int, int]] = []
    push, pop = heapq.heappush, heapq.heappop
    d = 0
    waiting: deque[int] = deque()  # FIFO queue of call ids
    k = 0  # next call to arrive
    while k < n_calls or heap:
        if k < n_calls and (not heap or call_t[k] <= heap[0][0]):
            call = k
            k += 1
            now = call_t[call]
            for i in station_order[call_cell[call]]:
                if idle[i]:
                    a = pop(idle[i])
                    break
            else:
                waiting.append(call)
                continue
            here = stations[i]
            by = -1
        else:
            now, _, _, _, by, a = pop(heap)
            if not waiting:
                push(idle[station_of[a]], a)  # re-dispatch happens from the home cell
                continue
            here = chains[by][6]  # the unit is free at the scene or the hospital
            call = waiting.popleft()
        # dispatch ambulance a from cell here to the call at time now
        cell = call_cell[call]
        leg = travel[here][cell]
        wait = now - call_t[call]
        response = wait + leg
        call_rows[call] = (call, call_t[call], cell, a, wait, leg, response, response > threshold)
        t_scene = now + leg
        t_dep = t_scene + service_s[call]
        hospital = hospital_of[cell]
        if hospital is None:
            chains[call] = (by, now, here, t_scene, t_dep, t_dep, cell)
            push(heap, (t_dep, t_dep, t_scene, d, call, a))
        else:
            t_free = t_dep + to_hospital[cell]
            chains[call] = (by, now, here, t_scene, t_dep, t_free, hospital)
            push(heap, (t_free, t_dep, t_scene, d, call, a))
        d += 1

    # fields 6 and 7 of a row are response_s and shortfall
    mean_response = float(np.mean([r[6] for r in call_rows])) if call_rows else 0.0
    rate = float(np.mean([r[7] for r in call_rows])) if call_rows else 0.0
    return SimOutcome(
        call_rows=call_rows,
        mean_response_s=mean_response,
        shortfall_rate=rate,
        chains=chains,
        hospital_leg_skipped=not hospitals,
    )


@dataclass
class BatchSummary:
    """Multiple Replication Procedure statistics over fixed-size batches."""

    batch_means_s: list[float]
    overall_mean_s: float
    overall_std_s: float
    single_batch: bool

    def formatted_minutes(self) -> str:
        return f"{self.overall_mean_s / 60.0:.3f} +/- {self.overall_std_s / 60.0:.3f}"


def _batch_slices(
    calls: CallTable | Sequence[tuple[float, int]],
    n_calls: int,
    n_batches: int,
    seed: int,
    sample_with_replacement: bool,
) -> list:
    """The batches ``run_batches`` simulates: tables of a table, lists of
    a list of pairs."""
    if n_calls < 1 or n_batches < 1:
        raise ConfigError("n_calls and n_batches must both be at least 1")
    if sample_with_replacement:
        if len(calls) == 0:
            raise DataError("cannot sample batches from an empty call list")

        times = np.array(_as_sim_calls(calls)[0])
        out = []
        for i in range(n_batches):
            rng = substream(seed, "batchsample", i)
            idx = rng.integers(0, len(calls), size=n_calls)
            # a stable sort by time keeps tied calls in the order drawn
            drawn = idx[np.argsort(times[idx], kind="stable")]
            out.append(calls[drawn] if isinstance(calls, CallTable) else [calls[k] for k in drawn.tolist()])
        return out
    if n_calls * n_batches > len(calls):
        raise DataError(
            f"need {n_calls * n_batches} calls for {n_batches} batches of {n_calls}, "
            f"have {len(calls)}; set sample_with_replacement to resample"
        )
    return [calls[i * n_calls : (i + 1) * n_calls] for i in range(n_batches)]


def run_batches(
    x,
    calls: CallTable | Sequence[tuple[float, int]],
    grid: Grid,
    params: SimParams | None = None,
    n_calls: int = 1000,
    n_batches: int = 12,
    seed: int = 0,
    sample_with_replacement: bool = False,
) -> tuple[list[SimOutcome], BatchSummary]:
    """Simulate contiguous chronological batches and summarize mean response.

    Each batch runs on an independent RNG substream derived from the root
    seed, so batches are reproducible individually and in any order.
    """
    batches = _batch_slices(calls, n_calls, n_batches, seed, sample_with_replacement)
    outcomes = [
        simulate(x, batch, grid, params, seed=derive_seed(seed, "batch", i))
        for i, batch in enumerate(batches)
    ]
    means = [o.mean_response_s for o in outcomes]
    overall = float(np.mean(means))
    std = float(np.std(means, ddof=1)) if n_batches > 1 else 0.0
    return outcomes, BatchSummary(
        batch_means_s=means,
        overall_mean_s=overall,
        overall_std_s=std,
        single_batch=(n_batches == 1),
    )


@dataclass
class PolicyComparison:
    labels: list[str]
    batch_means_s: np.ndarray  # batches x policies
    summaries: list[BatchSummary]
    first_batch: list[SimOutcome]  # per policy, kept for event-log export

    def to_dict(self) -> dict:
        rows = []
        for b in range(self.batch_means_s.shape[0]):
            row = {"batch": b + 1}
            for p, label in enumerate(self.labels):
                row[label] = self.batch_means_s[b, p] / 60.0
            rows.append(row)
        return {
            "batches": rows,
            "overall": {
                label: s.formatted_minutes() for label, s in zip(self.labels, self.summaries)
            },
        }


def compare_policies(
    policies: Sequence[tuple[str, np.ndarray]],
    calls: CallTable | Sequence[tuple[float, int]],
    grid: Grid,
    params: SimParams | None = None,
    n_calls: int = 1000,
    n_batches: int = 12,
    seed: int = 0,
    sample_with_replacement: bool = False,
) -> PolicyComparison:
    """Batch statistics for several stationings on identical call slices.

    All policies see the same batches and the same service-time draws
    (common random numbers), so differences reflect the stationing alone.
    """
    if not policies:
        raise ConfigError("need at least one policy to compare")
    labels = [label for label, _ in policies]
    summaries = []
    first_batch = []
    for _, x in policies:
        outcomes, summary = run_batches(
            x, calls, grid, params, n_calls, n_batches, seed, sample_with_replacement
        )
        summaries.append(summary)
        first_batch.append(outcomes[0])
        del outcomes  # free the other batches before the next policy runs
    return PolicyComparison(
        labels=labels,
        batch_means_s=np.array([s.batch_means_s for s in summaries], dtype=np.float64).T,
        summaries=summaries,
        first_batch=first_batch,
    )


def save_event_log(events: Sequence[Event], path: str | Path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["time_s", "kind", "call_id", "ambulance_id", "cell"])
        for e in events:
            writer.writerow([
                repr(float(e.time_s)),
                e.kind,
                "" if e.call_id is None else e.call_id,
                "" if e.ambulance_id is None else e.ambulance_id,
                "" if e.cell is None else e.cell,
            ])
