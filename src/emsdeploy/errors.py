"""Exception hierarchy shared across the package, and ``open_input``,
which opens a CSV input and reports what is wrong with it as a DataError.

The CLI maps these onto distinct exit codes: ConfigError -> 2,
DataError -> 3, SolverError -> 4.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO


class EmsDeployError(Exception):
    """Base class for all package errors."""


class ConfigError(EmsDeployError):
    """Invalid or inconsistent run configuration."""


class DataError(EmsDeployError):
    """Malformed, missing, or out-of-contract input data."""


class SolverError(EmsDeployError):
    """An optimization routine failed to produce a usable result."""


class OutOfBoundsError(DataError):
    """A coordinate lies outside the grid beyond the snap tolerance."""


class SetTooLargeError(EmsDeployError):
    """Explicit enumeration of an uncertainty set would exceed the budget."""


@contextmanager
def open_input(path: str | Path, what: str) -> Iterator[TextIO]:
    """``path``, a CSV input, open as UTF-8 text with ``newline=""``, csv's
    rule. A file that cannot be opened, or whose bytes are not UTF-8, is a
    DataError naming it as ``what``."""
    try:
        f = open(path, newline="", encoding="utf-8")
    except FileNotFoundError:
        raise DataError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    with f:
        try:
            yield f
        except UnicodeDecodeError as exc:
            raise DataError(f"{what} {path} is not UTF-8 text: {exc.reason}") from None
