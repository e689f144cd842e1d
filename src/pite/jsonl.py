"""JSON-lines input and the error type for unusable input data.

Every JSONL file the toolkit reads (manifests, track clips, evaluation
records) goes through ``read_jsonl``, so a bad record is reported the same
way everywhere: ``<path>:<line>: <Type>: <message>``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterator, TypeVar

T = TypeVar("T")


class DataError(ValueError):
    """Unusable input data (missing files, mismatched dimensions, bad schema)."""


def read_jsonl(path: str | Path, parse: Callable[[object], T]) -> Iterator[T]:
    """Yield ``parse(record)`` for each non-blank line of ``path``.

    A line that is not JSON, or whose record ``parse`` rejects, raises
    DataError naming the file and the 1-based line number.
    """
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                item = parse(json.loads(line))
            except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: {type(exc).__name__}: {exc}") from exc
            yield item


def unique(parse: Callable[[object], T], field: str) -> Callable[[object], T]:
    """Wrap a ``read_jsonl`` parse callback so a repeated ``str(record[field])`` is an error.

    The repeat raises ValueError inside the callback, so ``read_jsonl`` names
    the line of the second occurrence.
    """
    seen: set[str] = set()

    def parse_unique(record: object) -> T:
        item = parse(record)
        value = str(record[field])
        if value in seen:
            raise ValueError(f"repeated {field} {value!r}")
        seen.add(value)
        return item

    return parse_unique
