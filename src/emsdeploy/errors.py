"""Exception hierarchy shared across the package, which the CLI maps onto
distinct exit codes (ConfigError -> 2, DataError -> 3, SolverError -> 4),
and the one reader and the one writer of each file format.

``open_input`` opens an input file and ``read_json`` reads a JSON one,
passing the document through an optional ``read`` that checks its shape;
both report what is wrong with the file as a DataError naming it.
``write_json`` and ``write_csv`` write every JSON and CSV output, bar the
call log and the demand matrix, whose fast writers in ``ingest`` write the
bytes ``write_csv`` would.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO


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


def read_json(path: str | Path, what: str, read: Callable = lambda doc: doc):
    """The JSON document in ``path``, read through ``open_input``, or what
    ``read`` makes of it. A file that is not JSON, or a document ``read``
    refuses with a KeyError, TypeError, ValueError, AttributeError or
    DataError, is a DataError naming the file as ``what`` too."""
    with open_input(path, what) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: not a JSON {what} ({exc})") from None
    try:
        return read(doc)
    except (KeyError, TypeError, ValueError, AttributeError, DataError) as exc:
        raise DataError(f"{path}: not a {what} ({type(exc).__name__}: {exc})") from None


def write_json(path: str | Path, doc) -> None:
    """``doc`` as JSON: keys sorted, one space of indent, a final newline."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, sort_keys=True, indent=1)
        f.write("\n")


def write_csv(path: str | Path, header: Sequence | None, rows: Iterable[Sequence]) -> None:
    """``header``, unless it is None, and then ``rows``, as ``csv.writer``
    writes them: CRLF line ends, fields quoted only where they must be, None
    an empty field."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)
