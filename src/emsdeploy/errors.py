"""Exception hierarchy shared across the package, ``open_input``, which
opens an input file, and ``read_json``, which reads a JSON one; both report
what is wrong with the file as a DataError naming it.

The CLI maps these onto distinct exit codes: ConfigError -> 2,
DataError -> 3, SolverError -> 4.
"""

from __future__ import annotations

import json
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
def open_input(path: str | Path, what: str, newline: str | None = "") -> Iterator[TextIO]:
    """``path``, an input file, open as UTF-8 text with ``newline``: ``""``,
    csv's rule, unless told otherwise. A file that cannot be opened, or whose
    bytes are not UTF-8, is a DataError naming it as ``what``."""
    try:
        f = open(path, newline=newline, encoding="utf-8")
    except FileNotFoundError:
        raise DataError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    with f:
        try:
            yield f
        except UnicodeDecodeError as exc:
            raise DataError(f"{what} {path} is not UTF-8 text: {exc.reason}") from None


def read_json(path: str | Path, what: str):
    """The JSON document in ``path``, read through ``open_input``: a file
    that is not JSON is a DataError naming it as ``what`` too."""
    with open_input(path, what) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: not a JSON {what} ({exc})") from None
