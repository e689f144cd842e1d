"""The three workloads: which `pite` commands they run and how outputs are checked.

Every command goes through the user-facing entry point ``pite.cli.main(argv)``
in-process.  Each workload has two timed operations, run alternately.  Its
traced pass is the operations that run on one thread: the serial build for
``annotate``, both operations for ``train`` and ``evaluate``.  Every
operation's output is checked after it runs, outside its timed region; a
failed invocation or check is counted.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from pite import cli, pipeline


@dataclass
class BenchRun:
    """One workload's input and output directory plus its error accounting."""

    workdir: Path
    seed: int
    inputs: dict
    attempted: int = 0
    failed: int = 0
    cpu_s: float = 0.0  # process CPU seconds spent in cli.main
    problems: list[str] = field(default_factory=list)
    references: dict[str, object] = field(default_factory=dict)

    @property
    def data(self) -> Path:
        return self.workdir / "inputs"

    def out(self, name: str) -> str:
        return str(self.workdir / name)

    def invoke(self, argv: list[str]) -> tuple[int, float]:
        """Run one CLI command, its stdout captured; returns (exit code, wall seconds)."""
        self.attempted += 1
        buffer = io.StringIO()
        cpu_start = time.process_time()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buffer):
                code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - a crash is a counted failure
            code = -1
            self.problems.append(f"{argv[0]} raised {exc!r}")
        elapsed = time.perf_counter() - start
        self.cpu_s += time.process_time() - cpu_start
        if code != 0:
            self.failed += 1
            self.problems.append(f"{' '.join(argv[:2])} exited {code}")
        return code, elapsed

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def same_as_first(self, key: str, value: object, what: str) -> bool:
        """Check that ``value`` equals the first value recorded under ``key``."""
        first = self.references.setdefault(key, value)
        return self.check(first == value, f"{what} differs from the first run")


@dataclass(frozen=True)
class Op:
    """A timed operation: some CLI calls, the items they process, and a check."""

    metric: str
    items: Callable[[BenchRun], int]
    run: Callable[[BenchRun], float]  # returns wall seconds spent in cli.main


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json."""

    name: str
    primary: Op
    secondary: Op
    traced: tuple[Op, ...]
    prepare: Callable[[BenchRun], None] = lambda bench: None
    facts: Callable[[BenchRun], dict] = lambda bench: {}


def _digest(*paths: str) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


# --- annotate -----------------------------------------------------------------


def _build(bench: BenchRun, jobs: int) -> float:
    out = bench.out(f"dataset_jobs{jobs}.jsonl")
    data = bench.data
    argv = [
        "build-dataset", "--manifest", str(data / "manifest.jsonl"),
        "--trees", str(data / "trees.txt"), "--masks", str(data / "masks"),
        "--tracks", str(data / "tracks"), "--out", out, "--seed", "0",
    ]
    if jobs != 1:
        argv += ["--jobs", str(jobs)]
    code, elapsed = bench.invoke(argv)
    if code == 0:
        digest = _digest(out)
        if "dataset" not in bench.references:
            _check_dataset(bench, out)
        bench.same_as_first("dataset", digest, f"build-dataset --jobs {jobs} output")
    return elapsed


def _check_dataset(bench: BenchRun, path: str) -> None:
    expected = bench.inputs["expected_objects"]
    kept = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        try:
            pipeline.validate_record(record)
        except pipeline.DataError as exc:
            bench.check(False, f"{record.get('video_id')}: invalid record: {exc}")
        kept[record["video_id"]] = [len(event["objects"]) for event in record["events"]]
    bench.check(kept == expected, f"kept objects {kept} differ from planted {expected}")


BUILD_SERIAL = Op("build_events_per_s", lambda s: s.inputs["events"], lambda s: _build(s, 1))
BUILD_JOBS = Op("build_jobs_events_per_s", lambda s: s.inputs["events"], lambda s: _build(s, 2))

ANNOTATE = Workload(
    name="annotate",
    primary=BUILD_SERIAL,
    secondary=BUILD_JOBS,
    traced=(BUILD_SERIAL,),
    facts=lambda s: {"output_bytes": Path(s.out("dataset_jobs1.jsonl")).stat().st_size},
)


# --- train --------------------------------------------------------------------


def _train_chain(bench: BenchRun) -> float:
    data = bench.data
    total = 0.0
    outputs = []
    for stage in (1, 2, 3):
        params = bench.out(f"params{stage}.json")
        curve = bench.out(f"params{stage}.curve.csv")
        argv = [
            "train-toy", "--stage", str(stage), "--data", str(data / f"stage{stage}.jsonl"),
            "--config", str(data / "config.json"), "--out", params, "--curve", curve,
        ]
        if stage > 1:
            argv += ["--params-in", bench.out(f"params{stage - 1}.json")]
        code, elapsed = bench.invoke(argv)
        total += elapsed
        if code != 0:
            return total
        with open(curve, newline="", encoding="utf-8") as handle:
            losses = [float(row["loss"]) for row in csv.DictReader(handle)]
        bench.check(
            len(losses) > 1 and all(math.isfinite(v) for v in losses) and losses[-1] < losses[0],
            f"stage {stage} loss curve is not finite and decreasing",
        )
        outputs += [params, curve]
    bench.same_as_first("train", _digest(*outputs), "train-toy parameters and curves")
    return total


def _grad_checks(bench: BenchRun) -> float:
    seed = str(bench.seed)
    return sum(bench.invoke(["grad-check", "--stage", str(s), "--seed", seed])[1] for s in (1, 2, 3))


GRADCHECK_FIXTURES = 5  # the CLI's default --fixtures, per stage

TRAIN_PRIMARY = Op(
    "train_sample_steps_per_s",
    lambda s: 3 * s.inputs["samples"] * s.inputs["steps"], _train_chain,
)
TRAIN_SECONDARY = Op("gradcheck_fixtures_per_s", lambda s: 3 * GRADCHECK_FIXTURES, _grad_checks)

TRAIN = Workload(
    name="train",
    primary=TRAIN_PRIMARY,
    secondary=TRAIN_SECONDARY,
    traced=(TRAIN_PRIMARY, TRAIN_SECONDARY),
    facts=lambda s: {"sample_steps": 3 * s.inputs["samples"] * s.inputs["steps"]},
)


# --- evaluate -----------------------------------------------------------------


def _scores_ok(scores: dict) -> bool:
    return all(isinstance(v, float) and 0.0 <= v <= 100.0 for v in scores.values())


def _dense(bench: BenchRun, scorer: str) -> float:
    out = bench.out(f"dense_{scorer}.json")
    data = bench.data
    argv = [
        "eval-dense", "--pred", str(data / "pred.jsonl"), "--gt", str(data / "gt.jsonl"),
        "--scorer", scorer, "--out", out,
    ]
    code, elapsed = bench.invoke(argv)
    if code == 0:
        scores = json.loads(Path(out).read_text(encoding="utf-8"))
        bench.check(_scores_ok(scores), f"eval-dense {scorer} scores outside [0, 100]: {scores}")
        bench.same_as_first(f"dense_{scorer}", scores, f"eval-dense {scorer} scores")
    return elapsed


def _grounding_checks(bench: BenchRun) -> None:
    """eval-grounding on aligned predictions, and an identical-prediction control."""
    data = bench.data
    for pred, name in ((data / "pred_grounding.jsonl", "aligned"), (data / "gt.jsonl", "control")):
        out = bench.out(f"grounding_{name}.json")
        code, _ = bench.invoke(
            ["eval-grounding", "--pred", str(pred), "--gt", str(data / "gt.jsonl"), "--out", out]
        )
        if code != 0:
            continue
        scores = json.loads(Path(out).read_text(encoding="utf-8"))
        bench.check(_scores_ok(scores), f"eval-grounding {name} scores outside [0, 100]")
        if name == "control":
            bench.check(
                scores.get("R@0.7") == 100.0 and scores.get("mIoU") == 100.0,
                f"identical predictions do not score 100: {scores}",
            )


DENSE_METEOR = Op("dense_meteor_videos_per_s", lambda s: s.inputs["videos"], lambda s: _dense(s, "meteor"))
DENSE_CIDER = Op("dense_cider_videos_per_s", lambda s: s.inputs["videos"], lambda s: _dense(s, "cider"))

EVALUATE = Workload(
    name="evaluate",
    primary=DENSE_METEOR,
    secondary=DENSE_CIDER,
    traced=(DENSE_METEOR, DENSE_CIDER),
    prepare=_grounding_checks,
)

WORKLOADS = {w.name: w for w in (ANNOTATE, TRAIN, EVALUATE)}
