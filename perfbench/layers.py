"""Per-layer metrics: how each is computed from one traced pass, and which
end-to-end metric it should move, on which workload.

A traced pass is the serial part of a workload (see ``workloads.py``).
``value(summary, counts, facts)`` reads the span summary from
``tracing.summarize``, the tracer's counters and facts the workload knows
about the pass (sample-steps trained, output bytes written).  Each metric
should move the end-to-end metrics in ``moves`` on its own workload and
stay flat on the others; later changes cite these names.
"""

from __future__ import annotations

from typing import Callable, NamedTuple


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    workload: str
    moves: tuple[str, ...]
    value: Callable[[dict, dict, dict], float]


def _stat(span: str, key: str):
    return lambda s, c, f: s.get(span, {}).get(key, 0)


def busy(span: str):
    return _stat(span, "busy_s")


def self_time(span: str):
    return _stat(span, "self_s")


def calls(span: str):
    return _stat(span, "calls")


def count(name: str):
    return lambda s, c, f: c.get(name, 0)


def fact(name: str):
    return lambda s, c, f: f.get(name, 0)


def total(*parts):
    return lambda s, c, f: sum(part(s, c, f) for part in parts)


def ratio(num, den):
    def value(s, c, f):
        d = den(s, c, f)
        return num(s, c, f) / d if d else 0.0

    return value


BUILD = ("build_events_per_s", "build_jobs_events_per_s")
TRAIN = ("train_sample_steps_per_s",)
GRADCHECK = ("gradcheck_fixtures_per_s",)
DENSE = ("dense_meteor_videos_per_s", "dense_cider_videos_per_s")


PER_LAYER = (
    # trees
    LayerMetric("trees.parse_s", "s", "lower", "annotate", BUILD, busy("trees.parse")),
    LayerMetric("trees.extract_s", "s", "lower", "annotate", BUILD, busy("trees.extract")),
    LayerMetric("trees.phrases", "count", "higher", "annotate", BUILD, count("trees.phrases")),
    # tracks
    LayerMetric("tracks.load_clips_s", "s", "lower", "annotate", BUILD, busy("tracks.load_clips")),
    LayerMetric("tracks.tracks_loaded", "count", "higher", "annotate", BUILD, count("tracks.tracks_loaded")),
    LayerMetric("tracks.load_mask_s", "s", "lower", "annotate", BUILD, busy("tracks.load_mask")),
    LayerMetric("tracks.masks_loaded", "count", "higher", "annotate", BUILD, count("tracks.masks_loaded")),
    LayerMetric("tracks.filter_s", "s", "lower", "annotate", BUILD, busy("tracks.filter")),
    LayerMetric("tracks.filter_keep_ratio", "ratio", "higher", "annotate", BUILD,
        ratio(count("tracks.filter_kept"), count("tracks.filter_in"))),
    LayerMetric("tracks.condense_self_s", "s", "lower", "annotate", BUILD, self_time("tracks.condense")),
    LayerMetric("tracks.kmeans_s", "s", "lower", "annotate", BUILD, busy("tracks.kmeans")),
    LayerMetric("tracks.kmeans_calls", "count", "lower", "annotate", BUILD, calls("tracks.kmeans")),
    LayerMetric("tracks.kmeans_points", "count", "lower", "annotate", BUILD, count("tracks.kmeans_points")),
    LayerMetric("tracks.to_matrix_s", "s", "lower", "annotate", BUILD, busy("tracks.to_matrix")),
    # pipeline
    LayerMetric("pipeline.annotate_event_self_s", "s", "lower", "annotate", BUILD,
        self_time("pipeline.annotate_event")),
    LayerMetric("pipeline.run_self_s", "s", "lower", "annotate", BUILD, self_time("pipeline.run_pipeline")),
    LayerMetric("pipeline.phrase_keep_ratio", "ratio", "higher", "annotate", BUILD,
        ratio(count("pipeline.objects"), count("trees.phrases"))),
    LayerMetric("pipeline.output_bytes", "bytes", "lower", "annotate", BUILD, fact("output_bytes")),
    # toymodel
    LayerMetric("toymodel.loss_s", "s", "lower", "train", TRAIN, busy("toymodel.loss")),
    LayerMetric("toymodel.loss_calls", "count", "lower", "train", TRAIN, calls("toymodel.loss")),
    LayerMetric("toymodel.gradients_s", "s", "lower", "train", TRAIN, busy("toymodel.gradients")),
    LayerMetric("toymodel.gradients_calls", "count", "lower", "train", TRAIN, calls("toymodel.gradients")),
    LayerMetric("toymodel.passes_per_sample_step", "ratio", "lower", "train", TRAIN,
        ratio(total(calls("toymodel.loss"), calls("toymodel.gradients")), fact("sample_steps"))),
    LayerMetric("toymodel.grad_check_s", "s", "lower", "train", GRADCHECK, busy("toymodel.grad_check")),
    LayerMetric("toymodel.gradcheck_loss_calls", "count", "lower", "train", GRADCHECK,
        calls("toymodel.gradcheck_loss")),
    # trainer
    LayerMetric("trainer.update_self_s", "s", "lower", "train", TRAIN, self_time("trainer.run_stage")),
    LayerMetric("trainer.load_samples_s", "s", "lower", "train", TRAIN, busy("trainer.load_samples")),
    LayerMetric("trainer.sample_bytes", "bytes", "lower", "train", TRAIN, count("trainer.sample_bytes")),
    LayerMetric("trainer.params_io_s", "s", "lower", "train", TRAIN, busy("trainer.params_io")),
    # metrics
    LayerMetric("metrics.meteor_s", "s", "lower", "evaluate", DENSE, busy("metrics.meteor")),
    LayerMetric("metrics.meteor_calls", "count", "lower", "evaluate", DENSE, calls("metrics.meteor")),
    LayerMetric("metrics.cider_s", "s", "lower", "evaluate", DENSE, busy("metrics.cider")),
    LayerMetric("metrics.cider_calls", "count", "lower", "evaluate", DENSE, calls("metrics.cider")),
    LayerMetric("metrics.build_idf_s", "s", "lower", "evaluate", DENSE, busy("metrics.build_idf")),
    LayerMetric("metrics.soda_self_s", "s", "lower", "evaluate", DENSE, self_time("metrics.soda")),
    LayerMetric("metrics.bucketed_self_s", "s", "lower", "evaluate", DENSE, self_time("metrics.bucketed")),
    # cli: argument parsing, eval JSON loading, fixture set-up and output writing
    LayerMetric("cli.self_s", "s", "lower", "all", BUILD + TRAIN + GRADCHECK + DENSE, self_time("cli.main")),
)
