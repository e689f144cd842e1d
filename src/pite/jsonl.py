"""Line-oriented input, the typed JSON field readers and the error type for unusable input.

Every text input read line by line (manifests, parse trees, track clips,
evaluation records) goes through ``read_lines``, so blank lines are skipped
and a bad line, undecodable bytes included, is named as ``<path>:<line>:
<Type>: <message>`` by ``naming``, the one translation of bad input to DataError.
``read_jsonl`` pauses the cyclic garbage collector per record: decoded JSON
holds no cycles, so collecting during a track line would only rescan its lists.
It passes an optional ``object_hook`` to ``json.loads``; the track reader's
hook turns each track into arrays as it is decoded, so a line's nested lists
are never all alive at once.  Other readers keep the default decoder.

Named scalar fields of JSON inputs are read by ``integer`` (an int, not a
bool), ``real`` (a finite int or float, as a float) or ``text`` (a nonempty
str); each raises an error naming the field.
"""

from __future__ import annotations

import gc
import json
import sys
from pathlib import Path
from typing import Callable, Iterator, TypeVar

T = TypeVar("T")


class DataError(ValueError):
    """Unusable input data (missing files, mismatched dimensions, bad schema)."""


# raised by bad input; UnicodeDecodeError is a ValueError, and too deep JSON raises RecursionError
BAD_INPUT = (AttributeError, IndexError, KeyError, OverflowError, RecursionError, TypeError, ValueError)


class naming:
    """Context manager: a ``BAD_INPUT`` exception leaves it as DataError ``<location>: <Type>: <message>``."""

    # a class: with a @contextmanager generator per block, annotate's peak RSS read 1-2 MB higher
    def __init__(self, location: object):
        self.location = location

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, traceback) -> None:
        if isinstance(exc, BAD_INPUT):
            raise DataError(f"{self.location}: {type(exc).__name__}: {exc}") from exc


def integer(value: object, name: str) -> int:
    """``value`` if it is an int, else TypeError naming ``name``; a bool is not an int here."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def real(value: object, name: str) -> float:
    """``value`` as a float if it is a finite int or float, else an error naming ``name``.

    A bool or another non-number raises TypeError; a string raises ValueError,
    as ``float()`` would, and so does a non-finite number.
    """
    if isinstance(value, str):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # also false for NaN
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


def text(value: object, name: str) -> str:
    """``value`` if it is a nonempty str; another type raises TypeError and ``""`` ValueError."""
    if not isinstance(value, str):
        raise TypeError(f"{name} must be a nonempty string, got {value!r}")
    if not value:
        raise ValueError(f"{name} must be a nonempty string, got ''")
    return value


def read_lines(path: str | Path) -> Iterator[tuple[str, str]]:
    """Yield ``(location, line)`` for each non-blank line of ``path``, stripped.

    The location is ``<path>:<line>``; blank lines count toward the 1-based
    line number.  A line that is not UTF-8 raises DataError naming it.
    """
    # undecodable bytes read as lone surrogates, so the strict decode below
    # runs only on non-ASCII lines (track lines are ASCII) and names the line
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        # map() strips first, so enumerate() keeps only the stripped copy of a
        # line alive while the caller parses it (track lines run to megabytes)
        for lineno, line in enumerate(map(str.strip, handle), 1):
            if line:
                location = f"{path}:{lineno}"
                if not line.isascii():
                    with naming(location):
                        line.encode("utf-8", "surrogateescape").decode("utf-8")
                yield location, line


def read_jsonl(
    path: str | Path,
    parse: Callable[[object], T],
    object_hook: Callable[[dict], object] | None = None,
) -> Iterator[T]:
    """Yield ``parse(record)`` for each non-blank line of ``path``.

    ``object_hook`` is passed to ``json.loads``; without one the default
    decoder runs.  A line that is not JSON, or whose record ``parse`` (or the
    hook) rejects, raises DataError naming the file and the 1-based line
    number.  The collector is paused for each decode and parse, never across
    the ``yield``.
    """
    for location, line in read_lines(path):
        enabled = gc.isenabled()
        gc.disable()
        try:
            with naming(location):
                item = parse(json.loads(line, object_hook=object_hook))
        finally:
            if enabled:
                gc.enable()
        yield item


def unique(parse: Callable[[object], T], field: str) -> Callable[[object], T]:
    """Wrap a ``read_jsonl`` parse callback so a repeated ``record[field]`` is an error.

    The typed value is compared, so ``1`` and ``"1"`` are two ids.  The repeat
    raises ValueError inside the callback, so ``read_jsonl`` names the line of
    the second occurrence.
    """
    seen: set[object] = set()

    def parse_unique(record: object) -> T:
        item = parse(record)
        value = record[field]
        if value in seen:
            raise ValueError(f"repeated {field} {value!r}")
        seen.add(value)
        return item

    return parse_unique
