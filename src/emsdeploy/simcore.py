"""Seeded discrete-event simulator for ambulance dispatch.

Each call walks the chain NewCall -> CallEnroute -> CallArriveScene ->
CallDepartScene -> (CallArriveHospital) -> AmbulanceAvailable. Arriving at
the scene and leaving it change nothing a dispatch decision reads, so the
run keeps per unit only the time it frees and the call it served last, and
walks the time-sorted calls in one loop. A unit is free for a call iff it
frees strictly before the call arrives (a call wins a timestamp tie), so
while no call waits a call takes the closest free unit and no heap is
touched. When no unit is free a queue episode starts: the units' keys go
into one heap, and as calls wait in arrival order, the episode walks them
by index. Each unit the heap pops serves the next call from where it
freed, tied units in the order their events were scheduled, and the heap
is dropped once the next call arrives after a dispatch, when no call
waits. So the run is fully determined by (inputs, seed). Dispatch has zero
setup delay, and a freed ambulance heads home but may be re-dispatched
(from its home cell, the destination) while returning. The run writes per
call only its unit and leg, and, when it waited, its dispatch time and
dispatching call; a queue episode keys each unit by its last call's times,
recomputed from those columns. The mean response is one numpy mean over
the columns, and each call's row, its chain of times and the event log are
rebuilt from them only when read.

A run's set-up is three pieces, each built at the level its inputs change
(a ``Prepared``): the grid's travel (``prepare_travel``), per grid and
calibration model; a batch (``prepare_batch``), its times, snapped cells and
on-scene draws, per calls and seed; and a stationing
(``prepare_stationing``), its homes and each cell's unit order, per x and
travel. ``compare_policies`` builds each once and shares it among the runs
that read it, so under common random numbers no run snaps, draws or
calibrates what another already did.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .calibrate import CalibrationModel, apply_many
from .dispatchflow import stationing_vector
from .errors import ConfigError, DataError, write_csv
from .geogrid import Grid, assign_cells_or_raise
from .ingest import CallTable, check_table
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

    The lognormal on-scene parameters are on the minutes scale;
    ``calibration`` (when set) maps every grid travel time to an adjusted
    one; ``snap_cells`` is the off-grid snapping tolerance for the calls.
    """

    lognormal_mu: float = 3.65
    lognormal_sigma: float = 0.3
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


@dataclass(frozen=True)
class _Run:
    """What a run keeps: per call, its arrival, cell, on-scene time, unit,
    leg, dispatch time and dispatching call (-1 when it did not wait, and
    then the dispatch time is its arrival); and the fleet's homes and the
    grid's free cells and legs to them, by which the rest of each call's
    chain of times is recomputed."""

    call_t: list[float]
    call_cell: list[int]
    service_s: list[float]
    unit: list[int]
    leg: list[float]
    t: list[float]
    by: list[int]
    home: list[int]
    free_cell: list[int]
    to_free: list[float]


@dataclass
class SimOutcome:
    """One run. A call's row is its CallOutcome's fields as a plain tuple.
    Its chain is the tuple (dispatching call or -1, dispatch time, origin
    cell, scene arrival, scene departure, free time, free cell): a call of
    -1 means the unit left at the call's own arrival, otherwise at the step
    where that call's unit freed. The run keeps per-call columns only;
    ``call_rows``, ``chains``, ``events``, ``calls`` and ``event_log`` are
    rebuilt from them on each read, repeating the run's float operations in
    its order, so every time has the bits the run stepped on."""

    mean_response_s: float
    hospital_leg_skipped: bool
    _run: _Run = field(repr=False)

    @property
    def n_calls(self) -> int:
        return len(self._run.unit)

    @property
    def call_rows(self) -> list[tuple]:
        """One row per call, by call id."""
        return self._tuples(chains=False)[0]

    @property
    def chains(self) -> list[tuple]:
        """One chain per call, by call id."""
        return self._tuples(chains=True)[1]

    def _tuples(self, chains: bool) -> tuple[list[tuple], list[tuple] | None]:
        """The rows, and the chains when asked for, from the run's columns."""
        r = self._run
        t, leg = np.array(r.t), np.array(r.leg)
        wait = t - np.array(r.call_t)  # 0.0 where the call did not wait
        rows = list(zip(range(len(r.unit)), r.call_t, r.call_cell, r.unit, wait.tolist(), r.leg,
                        (wait + leg).tolist()))
        if not chains:
            return rows, None
        free_cell = np.array(r.free_cell, dtype=np.int64)
        cell = np.array(r.call_cell, dtype=np.int64)
        by = np.array(r.by, dtype=np.int64)
        waited = by >= 0
        # a unit leaves from home, or from where it freed for the call before
        here = np.array(r.home, dtype=np.int64)[np.array(r.unit, dtype=np.int64)]
        here[waited] = free_cell[cell[by[waited]]]
        t_scene = t + leg
        t_dep = t_scene + np.array(r.service_s)
        t_free = t_dep + np.array(r.to_free)[cell]
        return rows, list(zip(r.by, r.t, here.tolist(), t_scene.tolist(), t_dep.tolist(),
                              t_free.tolist(), free_cell[cell].tolist()))

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
        rows, chains = self._tuples(chains=True)
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
    try:
        return [math.exp(z) * 60.0 for z in rng.normal(params.lognormal_mu, params.lognormal_sigma, n).tolist()]
    except OverflowError:
        raise ConfigError(
            f"an on-scene time drawn with lognormal_mu={params.lognormal_mu} and "
            f"lognormal_sigma={params.lognormal_sigma} overflows a float"
        ) from None


def _check_finite(what: str, value: float, params: SimParams | None) -> None:
    """Refuse a statistic that overflowed: only on-scene times can be long
    enough for that, as travel times are grid times."""
    if not math.isfinite(value):
        params = params or SimParams()
        raise ConfigError(
            f"{what} is {value}: the on-scene times drawn with lognormal_mu={params.lognormal_mu} "
            f"and lognormal_sigma={params.lognormal_sigma} are too long"
        )


class Travel(NamedTuple):
    """The grid's travel as a run reads it, built once per grid and
    calibration model by ``prepare_travel``.

    A unit frees where its call's last leg ends: the nearest hospital by raw
    grid time (ties to the lower cell index), or the scene itself, a leg of
    0.0 s that is never calibrated, when the grid has none. A leg starts at
    a station (a free unit is at home) or at a free cell, so only those
    rows of the travel matrix are built: ``rows`` holds them calibrated, in
    ascending order of their start cells, ``row_of`` maps a start cell to
    its row, and ``from_cell[a][b]`` is the calibrated seconds from start
    cell ``a`` to cell ``b`` (None for a cell no leg starts from). Per cell,
    ``free_cell`` is where a unit serving it frees and ``to_free`` the
    calibrated leg there."""

    rows: np.ndarray
    row_of: dict[int, int]
    from_cell: list[list[float] | None]
    free_cell: list[int]
    to_free: list[float]


class Batch(NamedTuple):
    """A batch of calls as a run reads it, built once per (calls, seed) by
    ``prepare_batch``: per call, its instant in seconds, its grid cell and
    its on-scene time from the seed's service stream, as numpy columns."""

    utc_s: np.ndarray
    cells: np.ndarray
    service_s: np.ndarray


class Stationing(NamedTuple):
    """A stationing as a run reads it, built once per (x, travel) by
    ``prepare_stationing``: per ambulance its home station cell, and per
    cell the ambulances in order of travel from their homes."""

    home: list[int]
    unit_order: list[list[int]]


class Prepared(NamedTuple):
    """The three pieces of a run's set-up, each built at the level its
    inputs change: the grid's travel, the batch and the stationing."""

    travel: Travel
    batch: Batch
    stationing: Stationing


def prepare_travel(grid: Grid, calibration: CalibrationModel | None) -> Travel:
    """The travel every run on ``grid`` under ``calibration`` reads: each
    distinct grid time of its rows and legs calibrated once."""
    stations = grid.station_cells
    hospitals = sorted(set(grid.hospital_cells))
    if hospitals:
        nearest = np.array(hospitals)[np.argmin(grid.travel_time_s[:, hospitals], axis=1)]
        legs = grid.travel_time_s[np.arange(grid.n_cells), nearest]
    else:
        nearest, legs = np.arange(grid.n_cells), np.zeros(0)
    free_cell = nearest.tolist()
    starts = sorted(set(stations) | set(free_cell))
    rows = grid.travel_time_s[starts]
    if calibration is not None:
        grid_s = apply_many(calibration, np.concatenate([rows.ravel(), legs]))
        rows, legs = grid_s[:rows.size].reshape(rows.shape), grid_s[rows.size:]
    from_cell: list[list[float] | None] = [None] * grid.n_cells
    for a, row in zip(starts, rows.tolist()):
        from_cell[a] = row
    to_free = legs.tolist() if hospitals else [0.0] * grid.n_cells
    return Travel(rows, {a: k for k, a in enumerate(starts)}, from_cell, free_cell, to_free)


def prepare_batch(
    calls: CallTable, grid: Grid, params: SimParams, seed: int, cells: np.ndarray | None = None
) -> Batch:
    """The batch every stationing's run on ``calls`` with ``seed`` reads.

    ``calls`` is a CallTable sorted by time. Its calls are snapped to the
    grid in one bulk snap, unless ``cells``, their cells from a snap
    already made, is given; their on-scene times are drawn from the seed's
    service stream, one per call in call order.
    """
    utc_s = check_table(calls).utc_s
    if cells is None:
        cells = assign_cells_or_raise(grid, calls.lat, calls.lon, params.snap_cells)
    if np.any(utc_s[1:] < utc_s[:-1]):
        raise DataError("calls must be sorted by time")
    service_s = draw_service_times(params, substream(seed, "service"), len(utc_s))
    return Batch(utc_s, cells, np.array(service_s, dtype=np.float64))


def _stationing(x, grid: Grid) -> np.ndarray:
    """``x`` as an int64 vector, refused unless it places at least one
    ambulance, each at one of ``grid``'s stations."""
    x = stationing_vector(x)
    if len(x) != len(grid.station_cells):
        raise DataError(f"stationing has {len(x)} entries, grid has {len(grid.station_cells)} stations")
    if np.any(x < 0):
        raise DataError("stationing must be nonnegative")
    if x.sum() < 1:
        raise DataError("need at least one stationed ambulance")
    return x


def prepare_stationing(x, grid: Grid, travel: Travel) -> Stationing:
    """The stationing every run of ``x`` over ``travel`` reads.

    A free ambulance is always at its home station, so the closest free
    unit is the first free one in order of (travel from its station to the
    call's cell, id): ambulances are numbered by station, so that is the
    order of (travel, station index, id). One stable sort per cell.
    """
    home = [s for s, n in zip(grid.station_cells, _stationing(x, grid).tolist()) for _ in range(n)]
    rows = travel.rows[[travel.row_of[s] for s in home]]
    return Stationing(home, np.argsort(rows, axis=0, kind="stable").T.tolist())


def simulate(
    x, calls: CallTable, grid: Grid, params: SimParams | None = None, seed: int = 0,
    *, prepared: Prepared | None = None,
) -> SimOutcome:
    """Run one dispatch simulation of ``calls`` under stationing ``x``.

    ``calls`` is a CallTable sorted by time; its on-scene times come from
    ``seed``'s service stream. Travel times are grid times passed through
    the calibration model when one is configured. Ambulances are numbered
    by station, and the closest free one goes, ties to the lower number.

    ``prepared`` is the set-up of this very run, its pieces built by
    ``prepare_travel``, ``prepare_batch`` and ``prepare_stationing`` from
    the same arguments, so that runs sharing a piece build it once; with
    none, the run builds all three itself, snapping its calls in one bulk
    snap. Either way the run is the same, bit for bit.
    """
    params = params or SimParams()
    if prepared is None:
        x = _stationing(x, grid)
        batch = prepare_batch(calls, grid, params, seed)
        travel = prepare_travel(grid, params.calibration)
        prepared = Prepared(travel, batch, prepare_stationing(x, grid, travel))
    travel, batch, (home, unit_order) = prepared
    from_cell, free_cell, to_free = travel.from_cell, travel.free_cell, travel.to_free
    call_t = batch.utc_s.tolist()
    call_cell = batch.cells.tolist()
    service_s = batch.service_s.tolist()
    n_calls = len(call_t)

    # Per call, the unit and leg of its dispatch; the dispatch time and the
    # dispatching call change from the arrival and -1 only if it waits.
    unit = [0] * n_calls
    legs = [0.0] * n_calls
    disp_t = call_t.copy()
    by_call = [-1] * n_calls
    # Per unit, the time it frees and the call it served last. A unit is
    # free for a call iff it frees strictly before the call arrives (a call
    # wins a tie). While calls wait, units free in order of their keys,
    # (free time, scene departure, scene arrival, last call, unit): tied
    # steps of a chain run in the order they were scheduled, which is the
    # order of the chain's previous steps, and calls are dispatched in call
    # order, so the last call is the dispatch count.
    free = [-math.inf] * len(home)
    last = [-1] * len(home)
    arrivals = enumerate(call_t)
    for call, now in arrivals:
        cell = call_cell[call]
        for a in unit_order[cell]:
            if free[a] < now:
                break
        else:
            # No unit is free: a queue episode starts, keyed by each unit's
            # last call. The waiting calls are this one and the ones after
            # it, so each unit that frees serves the next call, from where
            # it freed (its call's free cell), until the next call arrives
            # after the dispatch and finds the queue empty.
            heap = []
            for a, c in enumerate(last):
                t_scene = disp_t[c] + legs[c]
                heap.append((free[a], t_scene + service_s[c], t_scene, c, a))
            heapq.heapify(heap)
            while True:
                now, _, _, by, a = heap[0]
                cell = call_cell[call]
                leg = legs[call] = from_cell[free_cell[call_cell[by]]][cell]
                unit[call] = a
                disp_t[call] = now
                by_call[call] = by
                t_scene = now + leg
                t_dep = t_scene + service_s[call]
                t_free = free[a] = t_dep + to_free[cell]
                last[a] = call
                if call + 1 == n_calls or call_t[call + 1] > now:
                    break
                heapq.heapreplace(heap, (t_free, t_dep, t_scene, call, a))
                call, _ = next(arrivals)
            continue
        # the unit leaves its home station at once; this is the episode's
        # dispatch written out for a wait of 0.0
        leg = legs[call] = from_cell[home[a]][cell]
        unit[call] = a
        free[a] = now + leg + service_s[call] + to_free[cell]
        last[a] = call

    # a call that did not wait responds in 0.0 + leg, as its row says
    with np.errstate(over="ignore"):
        mean_response = float(np.mean((np.array(disp_t) - batch.utc_s) + np.array(legs))) if n_calls else 0.0
    _check_finite("mean response time", mean_response, params)
    return SimOutcome(
        mean_response_s=mean_response,
        hospital_leg_skipped=not grid.hospital_cells,
        _run=_Run(call_t, call_cell, service_s, unit, legs, disp_t, by_call, home, free_cell, to_free),
    )


# the most calls resampled batches may hold together: each is a copy of its
# calls' table rows, with its prepared columns about 1.1 GB at this limit
MAX_RESAMPLED_CALLS = 10**7


def _batch_picks(
    calls: CallTable, n_calls: int, n_batches: int, seed: int, sample_with_replacement: bool
) -> list[slice | np.ndarray]:
    """The rows of ``calls`` each batch ``compare_policies`` simulates."""
    if n_calls < 1 or n_batches < 1:
        raise ConfigError("n_calls and n_batches must both be at least 1")
    if sample_with_replacement:
        if len(calls) == 0:
            raise DataError("cannot sample batches from an empty call list")
        if n_calls * n_batches > MAX_RESAMPLED_CALLS:
            raise ConfigError(
                f"n_calls={n_calls} calls in each of n_batches={n_batches} resampled batches are "
                f"{n_calls * n_batches} calls, more than the limit of {MAX_RESAMPLED_CALLS}"
            )

        times = calls.utc_s
        out = []
        for i in range(n_batches):
            rng = substream(seed, "batchsample", i)
            idx = rng.integers(0, len(calls), size=n_calls)
            # a stable sort by time keeps tied calls in the order drawn
            out.append(idx[np.argsort(times[idx], kind="stable")])
        return out
    if n_calls * n_batches > len(calls):
        raise DataError(
            f"need {n_calls * n_batches} calls for {n_batches} batches of {n_calls}, "
            f"have {len(calls)}; set sample_with_replacement to resample"
        )
    return [slice(i * n_calls, (i + 1) * n_calls) for i in range(n_batches)]


@dataclass
class PolicyComparison:
    """Per policy: its batch means, their mean and standard deviation (0.0
    for one batch), and its first batch's run, kept for event-log export."""

    labels: list[str]
    batch_means_s: np.ndarray  # batches x policies
    overall_mean_s: list[float]
    overall_std_s: list[float]
    first_batch: list[SimOutcome]

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
                label: f"{mean / 60.0:.3f} +/- {std / 60.0:.3f}"
                for label, mean, std in zip(self.labels, self.overall_mean_s, self.overall_std_s)
            },
        }


def compare_policies(
    policies: Sequence[tuple[str, np.ndarray]],
    calls: CallTable,
    grid: Grid,
    params: SimParams | None = None,
    n_calls: int = 1000,
    n_batches: int = 12,
    seed: int = 0,
    sample_with_replacement: bool = False,
) -> PolicyComparison:
    """Batch statistics for several stationings on identical call batches.

    The batches are contiguous chronological slices of ``calls``, or, with
    ``sample_with_replacement``, seeded draws from the whole table, which
    is then snapped once too, so an off-grid call is refused wherever it
    is. Batch ``b`` runs on its own substream of the root seed, so batches
    are reproducible individually and in any order, and every policy sees
    the same batches and service-time draws (common random numbers):
    differences reflect the stationing alone. The policies run one after
    another, each on batches 0..n-1 through the module's ``simulate``.

    The grid's travel is built once, before the first run; each stationing
    once, before its first run; and each batch once, on its first run, the
    first policy's, a resampled batch taking its cells from the whole
    table's snap.
    """
    if not policies:
        raise ConfigError("need at least one policy to compare")
    params = params or SimParams()
    picks = _batch_picks(check_table(calls), n_calls, n_batches, seed, sample_with_replacement)
    batches = [calls[pick] for pick in picks]
    # a resampled batch takes its cells from one snap of the whole table
    cells = assign_cells_or_raise(grid, calls.lat, calls.lon, params.snap_cells) if sample_with_replacement else None
    travel = prepare_travel(grid, params.calibration)
    ready: list[Batch] = []  # batch b is prepared on its first run, the first policy's
    means: list[list[float]] = []
    overall, std, first_batch = [], [], []
    for _, x in policies:
        stationing = prepare_stationing(x, grid, travel)
        column = []
        for b, batch in enumerate(batches):
            batch_seed = derive_seed(seed, "batch", b)
            if b == len(ready):
                ready.append(prepare_batch(batch, grid, params, batch_seed,
                                           None if cells is None else cells[picks[b]]))
            outcome = simulate(x, batch, grid, params, seed=batch_seed,
                               prepared=Prepared(travel, ready[b], stationing))
            column.append(outcome.mean_response_s)
            if b == 0:
                first_batch.append(outcome)
        with np.errstate(over="ignore"):
            overall.append(float(np.mean(column)))
            std.append(float(np.std(column, ddof=1)) if n_batches > 1 else 0.0)
        _check_finite("batch mean response time", overall[-1], params)
        _check_finite("batch standard deviation", std[-1], params)
        means.append(column)
    return PolicyComparison(
        labels=[label for label, _ in policies],
        batch_means_s=np.array(means, dtype=np.float64).T,
        overall_mean_s=overall,
        overall_std_s=std,
        first_batch=first_batch,
    )


def save_event_log(events: Sequence[tuple], path: str | Path) -> None:
    """``events``, a run's event tuples as ``SimOutcome.events`` gives them,
    as CSV, one row per event: the tuples' columns, each time written as a
    float, with no ``Event`` built."""
    header = ["time_s", "kind", "call_id", "ambulance_id", "cell"]
    columns = list(zip(*events)) or [()] * len(header)
    write_csv(path, header, [np.array(columns[0], dtype=np.float64), *columns[1:]])
