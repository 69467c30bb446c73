"""Uniform rectangular grid over a bounding box.

Cells are indexed row-major (index = row * n_cols + col) with row 0 at the
minimum latitude. Every call inside a cell is treated as happening at the
cell center; travel times between cells come from a pluggable provider,
either a synthetic fixed-speed model or a precomputed matrix file.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .errors import ConfigError, DataError, OutOfBoundsError, open_input, read_json, write_csv, write_json

EARTH_RADIUS_KM = 6371.0

Bounds = tuple[float, float, float, float]  # (min_lat, max_lat, min_lon, max_lon)


def haversine_km(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Great-circle distance in kilometres between two (lat, lon) points."""
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    s = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(s)))


def synthetic_travel_time(a: tuple[float, float], b: tuple[float, float], speed_kmh: float) -> float:
    """Travel time in seconds at a fixed speed along the great circle."""
    if speed_kmh <= 0:
        raise ConfigError(f"speed_kmh must be positive, got {speed_kmh}")
    return haversine_km(a, b) / speed_kmh * 3600.0


class TravelTimeProvider(Protocol):
    def matrix(self, centers: Sequence[tuple[float, float]]) -> np.ndarray:
        """Pairwise travel times in seconds between the given cell centers."""
        ...


class SyntheticSpeedProvider:
    """Fixed-speed great-circle travel times; symmetric, zero diagonal."""

    def __init__(self, speed_kmh: float):
        if speed_kmh <= 0:
            raise ConfigError(f"speed_kmh must be positive, got {speed_kmh}")
        self.speed_kmh = speed_kmh

    def matrix(self, centers: Sequence[tuple[float, float]]) -> np.ndarray:
        # synthetic_travel_time per pair, with each centre's radians and
        # cos(lat) taken once; the per-pair expression and its order are
        # haversine_km's, so every entry is bit-identical (libm, not numpy)
        lats = [math.radians(lat) for lat, _ in centers]
        lons = [math.radians(lon) for _, lon in centers]
        cos_lats = [math.cos(lat) for lat in lats]
        two_r = 2.0 * EARTH_RADIUS_KM
        sin, asin, sqrt = math.sin, math.asin, math.sqrt
        speed = self.speed_kmh
        n = len(lats)
        upper = [
            two_r * asin(min(1.0, sqrt(
                sin((lat2 - lat1) / 2.0) ** 2 + cos1 * cos2 * sin((lon2 - lon1) / 2.0) ** 2
            ))) / speed * 3600.0
            for i, (lat1, lon1, cos1) in enumerate(zip(lats, lons, cos_lats))
            for lat2, lon2, cos2 in zip(lats[i + 1:], lons[i + 1:], cos_lats[i + 1:])
        ]
        out = np.zeros((n, n), dtype=np.float64)
        rows, cols = np.triu_indices(n, 1)
        out[rows, cols] = upper
        out[cols, rows] = upper
        return out


class MatrixProvider:
    """Serves a precomputed travel matrix, e.g. from real routing output."""

    def __init__(self, matrix: np.ndarray):
        self._matrix = np.asarray(matrix, dtype=np.float64)

    def matrix(self, centers: Sequence[tuple[float, float]]) -> np.ndarray:
        n = len(centers)
        if self._matrix.shape != (n, n):
            raise DataError(
                f"travel matrix is {self._matrix.shape}, grid has {n} cells"
            )
        return self._matrix


@dataclass
class Grid:
    """Discretized city: cell geometry plus pairwise travel times.

    station_cells are the cell indices where ambulances may be stationed;
    hospital_cells may be empty (the simulator then skips the hospital leg).
    """

    n_rows: int
    n_cols: int
    bounds: Bounds
    cell_centers: list[tuple[float, float]]
    travel_time_s: np.ndarray
    station_cells: list[int] = field(default_factory=list)
    hospital_cells: list[int] = field(default_factory=list)

    def __post_init__(self):
        n = self.n_rows * self.n_cols
        if len(self.cell_centers) != n:
            raise DataError(f"expected {n} cell centers, got {len(self.cell_centers)}")
        m = np.asarray(self.travel_time_s, dtype=np.float64)
        if m.shape != (n, n):
            raise DataError(f"travel matrix must be {n}x{n}, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise DataError("travel matrix contains non-finite entries")
        if np.any(m < 0):
            raise DataError("travel matrix contains negative entries")
        if np.any(np.diagonal(m) != 0.0):
            raise DataError("travel matrix diagonal must be zero")
        m.flags.writeable = False
        self.travel_time_s = m
        for name, cells in (("station", self.station_cells), ("hospital", self.hospital_cells)):
            for c in cells:
                if not (0 <= int(c) < n):
                    raise DataError(f"{name} cell index {c} outside 0..{n - 1}")
        self.station_cells = [int(c) for c in self.station_cells]
        self.hospital_cells = [int(c) for c in self.hospital_cells]

    @property
    def n_cells(self) -> int:
        return self.n_rows * self.n_cols

    @property
    def cell_height_deg(self) -> float:
        return (self.bounds[1] - self.bounds[0]) / self.n_rows

    @property
    def cell_width_deg(self) -> float:
        return (self.bounds[3] - self.bounds[2]) / self.n_cols

    def cell_index(self, row: int, col: int) -> int:
        return row * self.n_cols + col

    def cell_rowcol(self, index: int) -> tuple[int, int]:
        return divmod(index, self.n_cols)


def _is_finite_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _validate_bounds(bounds: Bounds, error: type[Exception] = ConfigError) -> None:
    """Raise ``error`` unless ``bounds`` are four finite numbers with
    min < max on both axes."""
    if len(bounds) != 4 or not all(map(_is_finite_number, bounds)):
        raise error(f"bounds must be four finite numbers, got {bounds!r}")
    min_lat, max_lat, min_lon, max_lon = bounds
    if not (min_lat < max_lat and min_lon < max_lon):
        raise error(f"degenerate bounds {bounds}: need min_lat < max_lat and min_lon < max_lon")


# the largest grid: 10**7 travel times, 80 MB of float64 (3162 cells, such
# as a 56 x 56 grid)
MAX_TRAVEL_TIMES = 10**7


def build_grid(
    bounds: Bounds,
    n_rows: int,
    n_cols: int,
    provider: TravelTimeProvider,
    station_cells: Sequence[int] = (),
    hospital_cells: Sequence[int] = (),
) -> Grid:
    """Partition ``bounds`` into n_rows x n_cols cells and fill travel times."""
    if n_rows < 1 or n_cols < 1:
        raise ConfigError(f"grid must have at least one row and column, got {n_rows}x{n_cols}")
    if (n_rows * n_cols) ** 2 > MAX_TRAVEL_TIMES:
        raise ConfigError(
            f"n_rows={n_rows} x n_cols={n_cols} is {n_rows * n_cols} cells, whose "
            f"{(n_rows * n_cols) ** 2} travel times are more than the limit of {MAX_TRAVEL_TIMES}"
        )
    _validate_bounds(bounds)
    min_lat, max_lat, min_lon, max_lon = bounds
    h = (max_lat - min_lat) / n_rows
    w = (max_lon - min_lon) / n_cols
    centers = [
        (min_lat + (r + 0.5) * h, min_lon + (c + 0.5) * w)
        for r in range(n_rows)
        for c in range(n_cols)
    ]
    travel = provider.matrix(centers)
    return Grid(
        n_rows=n_rows,
        n_cols=n_cols,
        bounds=tuple(bounds),
        cell_centers=centers,
        travel_time_s=travel,
        station_cells=list(station_cells),
        hospital_cells=list(hospital_cells),
    )


def assign_cells(
    grid: Grid, lats: Sequence[float], lons: Sequence[float], snap_cells: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Cell index of every (lat, lon) point, and whether it is on the grid.

    Points on an interior boundary go to the cell with the larger row/col
    index. Points outside the bounds within ``snap_cells`` cell-widths are
    clamped to the nearest edge cell. Points farther out, and non-finite
    points, are off the grid: ``inside`` is False there and their cell is -1.
    """
    min_lat, max_lat, min_lon, max_lon = grid.bounds
    h = grid.cell_height_deg
    w = grid.cell_width_deg
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    # NaN fails every comparison, so it lands outside
    inside = (
        (lats >= min_lat - snap_cells * h)
        & (lats <= max_lat + snap_cells * h)
        & (lons >= min_lon - snap_cells * w)
        & (lons <= max_lon + snap_cells * w)
    )
    rows = np.floor((np.where(inside, lats, min_lat) - min_lat) / h)
    cols = np.floor((np.where(inside, lons, min_lon) - min_lon) / w)
    rows = np.clip(rows, 0, grid.n_rows - 1).astype(np.int64)
    cols = np.clip(cols, 0, grid.n_cols - 1).astype(np.int64)
    return np.where(inside, rows * grid.n_cols + cols, -1), inside


def assign_cells_or_raise(
    grid: Grid, lats: Sequence[float], lons: Sequence[float], snap_cells: float = 0.0
) -> np.ndarray:
    """``assign_cells`` for callers that accept no off-grid point: raises
    OutOfBoundsError for the first one."""
    cells, inside = assign_cells(grid, lats, lons, snap_cells)
    if not inside.all():
        k = int(np.argmin(inside))
        raise OutOfBoundsError(
            f"point ({lats[k]}, {lons[k]}) outside bounds {grid.bounds} beyond snap tolerance"
        )
    return cells


def assign_cell(grid: Grid, lat: float, lon: float, snap_cells: float = 0.0) -> int:
    """Index of the cell containing (lat, lon), by the rules of ``assign_cells``.

    An off-grid or non-finite point raises OutOfBoundsError. Snap many
    points with one ``assign_cells`` call, not one call each.
    """
    return int(assign_cells_or_raise(grid, [lat], [lon], snap_cells)[0])


def load_travel_matrix(path: str | Path) -> np.ndarray:
    """Parse a headerless CSV of decimal seconds and validate it as a travel matrix."""
    rows: list[list[float]] = []
    with open_input(path, "travel matrix") as f:
        for r, line in enumerate(csv.reader(f)):
            if not line:
                continue
            parsed = []
            for c, tok in enumerate(line):
                try:
                    v = float(tok)
                except ValueError:
                    raise DataError(f"{path}: non-numeric entry at row {r}, col {c}: {tok!r}")
                if not math.isfinite(v):
                    raise DataError(f"{path}: non-finite entry at row {r}, col {c}")
                if v < 0:
                    raise DataError(f"{path}: negative travel time at row {r}, col {c}: {v}")
                parsed.append(v)
            rows.append(parsed)
    if not rows:
        raise DataError(f"{path}: empty travel matrix")
    n = len(rows)
    for r, row in enumerate(rows):
        if len(row) != n:
            raise DataError(f"{path}: not square, row {r} has {len(row)} entries, expected {n}")
    m = np.array(rows, dtype=np.float64)
    for i in range(n):
        if m[i, i] != 0.0:
            raise DataError(f"{path}: nonzero diagonal at row {i}: {m[i, i]}")
    return m


def save_travel_matrix(matrix: np.ndarray, path: str | Path) -> None:
    write_csv(path, None, np.asarray(matrix, dtype=np.float64).T)


def save_grid(grid: Grid, json_path: str | Path) -> None:
    """Write the grid as JSON plus a sibling CSV travel matrix."""
    json_path = Path(json_path)
    travel_name = json_path.stem + "_travel.csv"
    save_travel_matrix(grid.travel_time_s, json_path.parent / travel_name)
    write_json(json_path, {
        "n_rows": grid.n_rows,
        "n_cols": grid.n_cols,
        "bounds": list(grid.bounds),
        "cell_centers": [list(c) for c in grid.cell_centers],
        "station_cells": grid.station_cells,
        "hospital_cells": grid.hospital_cells,
        "travel_time_ref": travel_name,
    })


def load_grid(json_path: str | Path) -> Grid:
    """Read ``save_grid``'s files. Raises DataError naming the file when it
    is missing, not UTF-8 or not JSON, or does not describe a grid."""
    json_path = Path(json_path)

    def read(doc: dict) -> Grid:
        bounds = tuple(doc["bounds"])
        _validate_bounds(bounds, DataError)
        return Grid(
            n_rows=int(doc["n_rows"]),
            n_cols=int(doc["n_cols"]),
            bounds=bounds,
            cell_centers=[tuple(c) for c in doc["cell_centers"]],
            travel_time_s=load_travel_matrix(json_path.parent / doc["travel_time_ref"]),
            station_cells=doc.get("station_cells", []),
            hospital_cells=doc.get("hospital_cells", []),
        )

    return read_json(json_path, "grid file", read)


def derive_adjacency(grid: Grid) -> np.ndarray:
    """Queen-adjacency (8-neighborhood) boolean matrix over regions, diagonal True."""
    n = grid.n_cells
    out = np.zeros((n, n), dtype=bool)
    for j in range(n):
        r, c = grid.cell_rowcol(j)
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                rr, cc = r + dr, c + dc
                if 0 <= rr < grid.n_rows and 0 <= cc < grid.n_cols:
                    out[j, grid.cell_index(rr, cc)] = True
    return out


def derive_coverage(grid: Grid, threshold_s: float = 600.0) -> np.ndarray:
    """Boolean stations x regions matrix: station i reaches region j within threshold_s."""
    if not grid.station_cells:
        return np.zeros((0, grid.n_cells), dtype=bool)
    return grid.travel_time_s[np.asarray(grid.station_cells), :] <= threshold_s


def derive_region_ball(grid: Grid, threshold_s: float = 600.0) -> np.ndarray:
    """Boolean regions x regions matrix: cells reachable from each cell within threshold_s."""
    return grid.travel_time_s <= threshold_s
