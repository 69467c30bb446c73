"""Travel-time calibration and verification.

Grid travel times are deterministic; reported times are not (sirens,
traffic). A log-log regression maps grid time to reported time, and the
verification step replays the historical ambulance-to-call legs, comparing
adjusted grid times against reported times batch by batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, SolverError, read_json, write_json
from .geogrid import Grid
from .ingest import CallTable, calibration_pairs, trim_quantiles


KINDS = ("identity", "linear", "loglog")


@dataclass
class CalibrationModel:
    """Maps grid travel seconds to adjusted (expected reported) seconds."""

    kind: str = "identity"  # identity | linear | loglog
    intercept: float = 0.0
    slope: float = 1.0
    r_squared: float = float("nan")
    n_used: int = 0
    trim_p: float = 0.0

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "a": self.intercept,
            "b": self.slope,
            "r_squared": self.r_squared,
            "n_used": self.n_used,
            "trim_p": self.trim_p,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CalibrationModel":
        if doc["kind"] not in KINDS:
            raise ValueError(f"unknown calibration kind: {doc['kind']!r}")
        return cls(
            kind=doc["kind"],
            intercept=float(doc.get("a", 0.0)),
            slope=float(doc.get("b", 1.0)),
            r_squared=float(doc.get("r_squared", float("nan"))),
            n_used=int(doc.get("n_used", 0)),
            trim_p=float(doc.get("trim_p", 0.0)),
        )


def identity_model() -> CalibrationModel:
    return CalibrationModel(kind="identity")


def apply(model: CalibrationModel, grid_s: float) -> float:
    """Adjusted travel time for one grid time.

    loglog maps 0 to 0 by convention (same-cell dispatch); linear output is
    floored at 0 since negative times are unphysical.
    """
    if grid_s < 0:
        raise DataError(f"grid time must be nonnegative, got {grid_s}")
    if model.kind == "identity":
        return float(grid_s)
    if model.kind == "linear":
        return max(0.0, model.intercept + model.slope * float(grid_s))
    if model.kind == "loglog":
        if grid_s == 0:
            return 0.0
        return math.exp(model.intercept + model.slope * math.log(grid_s))
    raise DataError(f"unknown calibration kind: {model.kind!r}")


def apply_many(model: CalibrationModel, grid_s: np.ndarray) -> np.ndarray:
    """``apply`` of each grid time, as float64 of ``grid_s``'s shape.

    Each distinct time (by its bits, so -0.0 apart from 0.0) is calibrated
    once, in ascending order of its bits.
    """
    grid_s = np.asarray(grid_s, dtype=np.float64)
    distinct, which = np.unique(grid_s.ravel().view(np.int64), return_inverse=True)
    calibrated = np.array([apply(model, t) for t in distinct.view(np.float64).tolist()], dtype=np.float64)
    return calibrated[which.ravel()].reshape(grid_s.shape)


def _ols(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    x_mean, y_mean = xs.mean(), ys.mean()
    sxx = float(((xs - x_mean) ** 2).sum())
    if sxx == 0.0:
        raise SolverError("singular fit: regressor has zero variance")
    b = float(((xs - x_mean) * (ys - y_mean)).sum()) / sxx
    a = float(y_mean - b * x_mean)
    residuals = ys - (a + b * xs)
    sst = float(((ys - y_mean) ** 2).sum())
    r2 = 1.0 if sst == 0.0 else 1.0 - float((residuals**2).sum()) / sst
    return a, b, r2


def _trimmed(grid_s: np.ndarray, reported_s: np.ndarray, trim_p: float) -> tuple[np.ndarray, np.ndarray]:
    """The two columns, less the pairs whose reported time ``trim_quantiles`` cuts."""
    grid_s = np.asarray(grid_s, dtype=np.float64)
    reported_s = np.asarray(reported_s, dtype=np.float64)
    if grid_s.ndim != 1 or grid_s.shape != reported_s.shape:
        raise DataError(f"need two equal-length columns, got shapes {grid_s.shape} and {reported_s.shape}")
    keep = trim_quantiles(reported_s, trim_p)
    return grid_s[keep], reported_s[keep]


def fit_loglog(grid_s: np.ndarray, reported_s: np.ndarray, trim_p: float = 0.01) -> CalibrationModel:
    """Least squares of log reported time on log grid time, after trimming.

    Pairs with a nonpositive grid or reported time are dropped (logs are
    undefined there); at least 3 usable pairs must remain.
    """
    gs, rs = _trimmed(grid_s, reported_s, trim_p)
    positive = (gs > 0) & (rs > 0)
    n_used = int(positive.sum())
    if n_used < 3:
        raise DataError(f"need at least 3 positive pairs after trimming, got {n_used}")
    a, b, r2 = _ols(np.log(gs[positive]), np.log(rs[positive]))
    return CalibrationModel(
        kind="loglog", intercept=a, slope=b, r_squared=r2, n_used=n_used, trim_p=trim_p
    )


def fit_linear(grid_s: np.ndarray, reported_s: np.ndarray, trim_p: float = 0.01) -> CalibrationModel:
    """Least squares of reported time on grid time, after trimming."""
    gs, rs = _trimmed(grid_s, reported_s, trim_p)
    if len(gs) < 3:
        raise DataError(f"need at least 3 pairs after trimming, got {len(gs)}")
    a, b, r2 = _ols(gs, rs)
    return CalibrationModel(
        kind="linear", intercept=a, slope=b, r_squared=r2, n_used=len(gs), trim_p=trim_p
    )


@dataclass
class VerificationReport:
    """Batchwise simulated-minus-reported travel time errors, in seconds."""

    batch_errors_s: list[float]
    mean_error_s: float
    std_error_s: float
    n_batches: int
    batch_size: int
    n_excluded: int

    def to_dict(self) -> dict:
        return {
            "batch_errors_s": self.batch_errors_s,
            "mean_error_s": self.mean_error_s,
            "std_error_s": self.std_error_s,
            "n_batches": self.n_batches,
            "batch_size": self.batch_size,
            "n_excluded": self.n_excluded,
        }


def verify(
    test_calls: CallTable,
    grid: Grid,
    model: CalibrationModel,
    batch_size: int = 1000,
    n_batches: int = 20,
    snap_cells: float = 1.0,
) -> VerificationReport:
    """Compare adjusted grid times against reported travel times.

    Each call contributes (adjusted grid time from the ambulance's cell to
    the call's cell) minus (reported travel time). Calls missing reported
    fields or lying off-grid are excluded and counted.
    """
    needed = batch_size * n_batches
    usable, grid_s, reported_s = calibration_pairs(test_calls, grid, snap_cells)
    if len(usable) < needed:
        raise DataError(
            f"need {needed} usable test calls ({batch_size} x {n_batches}), got {len(usable)}"
        )
    # the first ``needed`` usable calls are used; the excluded are the
    # unusable calls ahead of the last one used
    excluded = int(usable[needed - 1]) + 1 - needed if needed else 0
    errors = apply_many(model, grid_s[:needed]) - reported_s[:needed]
    batches = errors.reshape(n_batches, batch_size)
    means = batches.mean(axis=1)
    overall = float(means.mean())
    std = float(means.std(ddof=1)) if n_batches > 1 else 0.0
    return VerificationReport(
        batch_errors_s=[float(v) for v in means],
        mean_error_s=overall,
        std_error_s=std,
        n_batches=n_batches,
        batch_size=batch_size,
        n_excluded=excluded,
    )


def save_model(model: CalibrationModel, path: str | Path) -> None:
    write_json(path, model.to_dict())


def load_model(path: str | Path) -> CalibrationModel:
    """Read ``save_model``'s JSON. Raises DataError naming the file when it
    is missing or not JSON, or does not describe a model of a known kind."""
    return read_json(path, "calibration model", CalibrationModel.from_dict)
