"""Exception hierarchy shared across the package, which the CLI maps onto
distinct exit codes (ConfigError -> 2, DataError -> 3, SolverError -> 4),
and the one reader and the one writer of each file format.

``open_input`` opens an input file and ``read_json`` reads a JSON one,
passing the document through an optional ``read`` that checks its shape;
both report what is wrong with the file as a DataError naming it.
``write_json`` and ``write_csv`` write every JSON and CSV output, bar the
call log, whose chunked writer in ``ingest`` writes the bytes ``write_csv``
would. ``write_csv`` takes a table as its columns, formats each column once
and writes the file in one piece.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Sequence, TextIO

import numpy as np


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


def write_csv(path: str | Path, header: Sequence | None, columns: Sequence[Sequence]) -> None:
    """``header``, unless it is None, and then the rows of ``columns``, in
    the bytes ``csv.writer`` writes of them: a float field as its repr,
    None as an empty field, anything else as its str, a field quoted only
    where it holds a comma, a quote, CR or LF, and a row whose only field is
    empty as ``""``; CRLF line ends. A numpy column is read through
    ``tolist``, so its fields are Python numbers."""
    fields = [_fields(c) for c in columns]
    if len({len(f) for f in fields}) > 1:
        raise ValueError(f"columns of unequal lengths {[len(f) for f in fields]}")
    if len(fields) == 1:  # csv.writer quotes a row's only field when it is empty
        fields = [['""' if f == "" else f for f in fields[0]]]
    lines = []
    if header is not None:
        names = _fields(header)
        lines.append('""' if names == [""] else ",".join(names))
    lines.extend(map(",".join, zip(*fields)))
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write("\r\n".join(lines) + "\r\n" if lines else "")


_NUMBERS = {int, float}
_SPECIAL = (",", '"', "\r", "\n")


def _fields(column: Sequence) -> list[str]:
    """One column's fields as ``csv.writer`` writes them."""
    kinds = None
    if isinstance(column, np.ndarray):  # its dtype says what tolist gives
        kind = column.dtype.kind
        kinds = {str} if kind == "U" else _NUMBERS if kind in "biuf" else None
        column = column.tolist()
    if kinds is None:
        kinds = set(map(type, column))
    if kinds <= _NUMBERS:  # an int's repr is its str
        return list(map(repr, column))
    if kinds <= _NUMBERS | {type(None)}:
        return ["" if v is None else repr(v) for v in column]
    if kinds == {str}:
        fields = column if isinstance(column, list) else list(column)
    else:
        fields = [
            v if type(v) is str else "" if v is None else repr(v) if isinstance(v, float) else str(v)
            for v in column
        ]
    text = "".join(fields)
    if any(c in text for c in _SPECIAL):
        fields = ['"' + f.replace('"', '""') + '"' if any(c in f for c in _SPECIAL) else f for f in fields]
    return fields
