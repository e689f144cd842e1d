"""Span tracing around the public functions of the pite modules.

The benchmark wraps each function at the name its caller looks up (for
example ``pite.pipeline.condense``, the binding ``annotate_event`` calls),
so nothing inside ``src/`` changes.  A span records name, start, end and
parent; spans stay in memory until the benchmark writes them out.  A
layer's self time is its busy time minus the time of its child spans.

Tiny hot helpers such as ``temporal_iou`` are not wrapped: a wrapper would
cost more than the call.  Generators are timed through consumption, one span
per item.  A target whose name no longer exists is reported as missing.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, -1 for a root


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``module.attr`` records spans named ``span``.

    ``count(args, result)`` returns counter increments; for a generator it
    runs once per yielded item with that item as ``result``.
    """

    module: str
    attr: str
    span: str
    generator: bool = False
    count: Callable[[tuple, object], dict] | None = None


TARGETS = (
    Target("pite.cli", "main", "cli.main"),
    # annotate: pipeline.run_pipeline -> annotate_video -> annotate_event
    Target("pite.pipeline", "run_pipeline", "pipeline.run_pipeline"),
    Target("pite.pipeline", "parse_bracketed", "trees.parse"),
    Target("pite.pipeline", "annotate_event", "pipeline.annotate_event",
           count=lambda a, r: {"pipeline.objects": len(r.objects)}),
    Target("pite.pipeline", "extract_lowest_np", "trees.extract",
           count=lambda a, r: {"trees.phrases": len(r)}),
    Target("pite.pipeline", "iter_clip_tracks", "tracks.load_clips", generator=True,
           count=lambda a, clip: {"tracks.tracks_loaded": len(clip.tracks)}),
    Target("pite.pipeline", "load_mask", "tracks.load_mask",
           count=lambda a, r: {"tracks.masks_loaded": 1}),
    Target("pite.pipeline", "filter_tracks_by_mask", "tracks.filter",
           count=lambda a, r: {"tracks.filter_in": len(a[0]), "tracks.filter_kept": len(r)}),
    Target("pite.pipeline", "condense", "tracks.condense"),
    Target("pite.tracks", "kmeans_pp", "tracks.kmeans",
           count=lambda a, r: {"tracks.kmeans_points": len(a[0])}),
    Target("pite.pipeline", "to_matrix", "tracks.to_matrix"),
    # train: cli -> trainer.run_stage -> train -> stage_loss / gradients
    Target("pite.trainer", "load_samples", "trainer.load_samples",
           count=lambda a, r: {"trainer.sample_bytes": os.path.getsize(a[0])}),
    Target("pite.trainer", "load_params", "trainer.params_io"),
    Target("pite.trainer", "save_params", "trainer.params_io"),
    Target("pite.trainer", "run_stage", "trainer.run_stage"),
    Target("pite.trainer", "stage_loss", "toymodel.loss"),
    Target("pite.trainer", "gradients", "toymodel.gradients"),
    Target("pite.toymodel", "grad_check", "toymodel.grad_check"),
    Target("pite.toymodel", "stage_loss", "toymodel.gradcheck_loss"),
    Target("pite.toymodel", "gradients", "toymodel.gradcheck_gradients"),
    # evaluate: cli -> soda_c / iou_bucketed_caption_scores -> scorers
    Target("pite.metrics", "build_idf", "metrics.build_idf"),
    Target("pite.metrics", "meteor_lite", "metrics.meteor"),
    Target("pite.metrics", "cider", "metrics.cider"),
    Target("pite.metrics", "soda_c", "metrics.soda"),
    Target("pite.metrics", "iou_bucketed_caption_scores", "metrics.bucketed"),
)


class Tracer:
    """Records nested spans and counters in memory (single-threaded use).

    Spans are kept in the order they began, as ``[name, start, end, parent]``
    lists; ``spans()`` returns them as ``Span`` tuples.
    """

    def __init__(self):
        self.records: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.records))
        self.records.append([name, time.perf_counter(), 0.0, parent])

    def end(self) -> None:
        self.records[self._stack.pop()][2] = time.perf_counter()

    def spans(self) -> list[Span]:
        return [Span(*record) for record in self.records]

    def wrap(self, fn: Callable, target: Target) -> Callable:
        name, count = target.span, target.count
        tracer = self

        if target.generator:

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    tracer.begin(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.end()
                    if count:
                        tracer.counts.update(count(args, item))
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
            if count:
                tracer.counts.update(count(args, result))
            return result

        return traced


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy seconds and self seconds (busy minus children)."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for i, span in enumerate(spans):
        entry = out[span.name]
        busy = span.end - span.start
        entry["calls"] += 1
        entry["busy_s"] += busy
        entry["self_s"] += busy - child_time[i]
    return dict(out)


class Installed:
    """Context manager that installs the tracer's wrappers and restores the originals."""

    def __init__(self, tracer: Tracer, targets=TARGETS):
        self.tracer = tracer
        self.targets = targets
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Installed":
        for target in self.targets:
            module = importlib.import_module(target.module)
            original = getattr(module, target.attr, None)
            if original is None:
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            self._saved.append((module, target.attr, original))
            setattr(module, target.attr, self.tracer.wrap(original, target))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
