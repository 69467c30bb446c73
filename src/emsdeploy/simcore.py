"""Seeded discrete-event simulator for ambulance dispatch.

All calls enter a time-ordered priority queue up front; each call then
walks the chain NewCall -> CallEnroute -> CallArriveScene ->
CallDepartScene -> (CallArriveHospital) -> AmbulanceAvailable. Dispatch is
closest-available with zero setup delay, waiting calls are served FIFO,
and a freed ambulance heads home but may be re-dispatched (from its home
cell, the destination) while returning. Same-timestamp events resolve in
insertion order, so the run is fully determined by (inputs, seed).
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
from .geogrid import Grid, assign_cell
from .ingest import CallRecord
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
    one; ``snap_cells`` is the off-grid snapping tolerance for CallRecords.
    """

    lognormal_mu: float = 3.65
    lognormal_sigma: float = 0.3
    shortfall_threshold_s: float = 600.0
    calibration: CalibrationModel | None = None
    snap_cells: float = 1.0


@dataclass
class _Ambulance:
    id: int
    home_station: int
    home_cell: int
    cell: int
    free: bool = True  # at its station or returning to it


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
    calls: list[CallOutcome]
    mean_response_s: float
    shortfall_rate: float
    event_log: list[Event]
    hospital_leg_skipped: bool

    @property
    def n_calls(self) -> int:
        return len(self.calls)


def draw_service_time(params: SimParams, rng: np.random.Generator) -> float:
    """One lognormal on-scene duration, drawn in minutes, returned in seconds."""
    if params.lognormal_sigma <= 0:
        raise ConfigError(f"lognormal sigma must be positive, got {params.lognormal_sigma}")
    return math.exp(rng.normal(params.lognormal_mu, params.lognormal_sigma)) * 60.0


def _as_sim_calls(calls: Sequence, grid: Grid, snap_cells: float) -> list[tuple[float, int]]:
    out: list[tuple[float, int]] = []
    for c in calls:
        if isinstance(c, CallRecord):
            out.append((c.epoch_s(), assign_cell(grid, c.lat, c.lon, snap_cells=snap_cells)))
        else:
            t, cell = c
            out.append((float(t), int(cell)))
    for a, b in zip(out, out[1:]):
        if b[0] < a[0]:
            raise DataError("calls must be sorted by time")
    return out


def simulate(x, calls: Sequence, grid: Grid, params: SimParams | None = None, seed: int = 0) -> SimOutcome:
    """Run one dispatch simulation of ``calls`` under stationing ``x``.

    ``calls`` may be CallRecords or (epoch_seconds, cell) pairs, sorted by
    time. Travel times are grid times passed through the calibration model
    when one is configured.
    """
    params = params or SimParams()
    x = np.asarray(x, dtype=np.int64)
    if len(x) != len(grid.station_cells):
        raise DataError(f"stationing has {len(x)} entries, grid has {len(grid.station_cells)} stations")
    if x.sum() < 1:
        raise DataError("need at least one stationed ambulance")
    sim_calls = _as_sim_calls(calls, grid, params.snap_cells)

    # travel[a][b]: calibrated seconds from cell a to cell b
    grid_s = grid.travel_time_s.tolist()
    travel = grid_s
    if params.calibration is not None:
        travel = [[apply(params.calibration, t) for t in row] for row in grid_s]
    # nearest hospital per cell by raw grid time, ties to the lower cell index
    hospital_of = [
        min(grid.hospital_cells, key=lambda h: (row[h], h)) if grid.hospital_cells else None
        for row in grid_s
    ]

    ambulances: list[_Ambulance] = []
    for i, cell in enumerate(grid.station_cells):
        for _ in range(int(x[i])):
            ambulances.append(_Ambulance(id=len(ambulances), home_station=i, home_cell=cell, cell=cell))

    rng = substream(seed, "service")
    service_s = [draw_service_time(params, rng) for _ in sim_calls]

    heap: list[tuple[float, int, str, int, int]] = []
    seq = 0

    def push(t: float, kind: str, call_id: int, amb_id: int) -> None:
        nonlocal seq
        heapq.heappush(heap, (t, seq, kind, call_id, amb_id))
        seq += 1

    for k, (t, _) in enumerate(sim_calls):
        push(t, NEW_CALL, k, -1)

    waiting: deque[int] = deque()  # FIFO queue of call ids
    outcomes: dict[int, CallOutcome] = {}
    log: list[Event] = []

    def pick_ambulance(cell: int) -> _Ambulance | None:
        # ambulances are ordered by (home station, id), so the first strict
        # minimum is the closest free unit with both tie-breaks applied
        best = None
        best_t = 0.0
        for amb in ambulances:
            if amb.free:
                t = travel[amb.cell][cell]
                if best is None or t < best_t:
                    best, best_t = amb, t
        return best

    def dispatch(amb: _Ambulance, call_id: int, now: float) -> None:
        t_call, cell = sim_calls[call_id]
        wait = now - t_call
        leg = travel[amb.cell][cell]
        response = wait + leg
        outcomes[call_id] = CallOutcome(
            call_id=call_id,
            time_s=t_call,
            cell=cell,
            ambulance_id=amb.id,
            dispatch_wait_s=wait,
            travel_s=leg,
            response_s=response,
            shortfall=response > params.shortfall_threshold_s,
        )
        amb.free = False
        log.append(Event(now, CALL_ENROUTE, call_id, amb.id, amb.cell))
        push(now + leg, CALL_ARRIVE_SCENE, call_id, amb.id)

    def release(amb: _Ambulance, call_id: int, now: float) -> None:
        log.append(Event(now, AMBULANCE_AVAILABLE, call_id, amb.id, amb.cell))
        if waiting:
            dispatch(amb, waiting.popleft(), now)
        else:
            amb.free = True
            amb.cell = amb.home_cell  # re-dispatch happens from the destination cell

    while heap:
        now, _, kind, call_id, amb_id = heapq.heappop(heap)
        if kind == NEW_CALL:
            _, cell = sim_calls[call_id]
            log.append(Event(now, NEW_CALL, call_id, None, cell))
            amb = pick_ambulance(cell)
            if amb is None:
                waiting.append(call_id)
            else:
                dispatch(amb, call_id, now)
        elif kind == CALL_ARRIVE_SCENE:
            amb = ambulances[amb_id]
            amb.cell = sim_calls[call_id][1]
            log.append(Event(now, CALL_ARRIVE_SCENE, call_id, amb_id, amb.cell))
            push(now + service_s[call_id], CALL_DEPART_SCENE, call_id, amb_id)
        elif kind == CALL_DEPART_SCENE:
            amb = ambulances[amb_id]
            log.append(Event(now, CALL_DEPART_SCENE, call_id, amb_id, amb.cell))
            hosp = hospital_of[amb.cell]
            if hosp is None:
                release(amb, call_id, now)
            else:
                push(now + travel[amb.cell][hosp], CALL_ARRIVE_HOSPITAL, call_id, amb_id)
                amb.cell = hosp
        elif kind == CALL_ARRIVE_HOSPITAL:
            amb = ambulances[amb_id]
            log.append(Event(now, CALL_ARRIVE_HOSPITAL, call_id, amb_id, amb.cell))
            release(amb, call_id, now)
        else:
            raise AssertionError(f"unexpected event kind {kind}")

    records = [outcomes[k] for k in range(len(sim_calls))]
    mean_response = float(np.mean([r.response_s for r in records])) if records else 0.0
    rate = float(np.mean([r.shortfall for r in records])) if records else 0.0
    return SimOutcome(
        calls=records,
        mean_response_s=mean_response,
        shortfall_rate=rate,
        event_log=log,
        hospital_leg_skipped=not grid.hospital_cells,
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
    calls: Sequence,
    n_calls: int,
    n_batches: int,
    seed: int,
    sample_with_replacement: bool,
) -> list[list]:
    calls = list(calls)
    if n_calls < 1 or n_batches < 1:
        raise ConfigError("n_calls and n_batches must both be at least 1")
    if sample_with_replacement:
        if not calls:
            raise DataError("cannot sample batches from an empty call list")

        def key(c):
            return c.epoch_s() if isinstance(c, CallRecord) else float(c[0])

        out = []
        for i in range(n_batches):
            rng = substream(seed, "batchsample", i)
            idx = rng.integers(0, len(calls), size=n_calls)
            out.append(sorted((calls[k] for k in idx), key=key))
        return out
    if n_calls * n_batches > len(calls):
        raise DataError(
            f"need {n_calls * n_batches} calls for {n_batches} batches of {n_calls}, "
            f"have {len(calls)}; set sample_with_replacement to resample"
        )
    return [list(calls[i * n_calls : (i + 1) * n_calls]) for i in range(n_batches)]


def run_batches(
    x,
    calls: Sequence,
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
    calls: Sequence,
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
    all_means = []
    summaries = []
    for _, x in policies:
        _, summary = run_batches(
            x, calls, grid, params, n_calls, n_batches, seed, sample_with_replacement
        )
        all_means.append(summary.batch_means_s)
        summaries.append(summary)
    return PolicyComparison(
        labels=labels,
        batch_means_s=np.array(all_means, dtype=np.float64).T,
        summaries=summaries,
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
