"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import layers
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY = {
    "annotate": {"videos": 1, "events": 1},
    "train": {"samples": 4, "steps": 3},
    "evaluate": {"videos": 8},
}


def test_self_time_on_nested_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]; b holds a [6, 7]
    spans = [
        tracing.Span("root", 0.0, 10.0, -1),
        tracing.Span("a", 1.0, 4.0, 0),
        tracing.Span("c", 2.0, 3.0, 1),
        tracing.Span("b", 5.0, 9.0, 0),
        tracing.Span("a", 6.0, 7.0, 3),
    ]
    summary = tracing.summarize(spans)
    assert summary["root"] == {"calls": 1, "busy_s": 10.0, "self_s": 3.0}
    assert summary["a"] == {"calls": 2, "busy_s": 4.0, "self_s": 3.0}
    assert summary["b"] == {"calls": 1, "busy_s": 4.0, "self_s": 3.0}
    assert summary["c"] == {"calls": 1, "busy_s": 1.0, "self_s": 1.0}
    assert sum(e["self_s"] for e in summary.values()) == 10.0


def test_installed_wrappers_record_nesting_counts_and_missing_names(monkeypatch):
    module = types.ModuleType("fake_layer")

    def inner(xs):
        return [x for x in xs if x]

    def outer(xs):
        return module.inner(xs)

    def items(n):
        yield from range(n)

    module.inner, module.outer, module.items = inner, outer, items
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    targets = (
        tracing.Target("fake_layer", "outer", "outer"),
        tracing.Target("fake_layer", "inner", "inner", count=lambda a, r: {"kept": len(r)}),
        tracing.Target("fake_layer", "items", "items", generator=True,
                       count=lambda a, item: {"yielded": 1}),
        tracing.Target("fake_layer", "renamed_away", "gone"),
    )
    tracer = tracing.Tracer()
    with tracing.Installed(tracer, targets) as installed:
        assert module.outer([0, 1, 2]) == [1, 2]
        assert list(module.items(3)) == [0, 1, 2]
    assert installed.missing == ["fake_layer.renamed_away"]
    assert (module.inner, module.outer, module.items) == (inner, outer, items)
    spans = tracer.spans()
    assert [(s.name, s.parent) for s in spans[:2]] == [("outer", -1), ("inner", 0)]
    summary = tracing.summarize(spans)
    assert summary["items"]["calls"] == 4  # three items, then the exhausting call
    assert dict(tracer.counts) == {"kept": 2, "yielded": 3}


def _generate(workload: str, seed: int, out: Path) -> dict[str, bytes]:
    subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), "--workload", workload, "--seed", str(seed),
         "--out", str(out), "--sizes", json.dumps(TINY[workload])],
        check=True, timeout=120,
    )
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_generator_is_deterministic(workload, tmp_path):
    first = _generate(workload, 7, tmp_path / "a")
    assert first == _generate(workload, 7, tmp_path / "b")
    other = _generate(workload, 8, tmp_path / "c")
    assert len(other) == len(first)  # mask file names follow the drawn nouns
    assert other != first


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_passes_every_check(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    done = _run(
        ["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", trace,
         "--sizes", json.dumps(TINY[workload])],
        ROOT,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stdout
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        own = [m.name for m in layers.PER_LAYER if m.workload in (workload, "all")]
        assert all(result["metrics"][name]["value"] > 0 for name in own), done.stdout


def test_refuses_to_run_without_sources(tmp_path):
    done = _run(["--workload", "train", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_matches_the_code():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    table = [{"name": m.name, "unit": m.unit, "better": m.better} for m in layers.PER_LAYER]
    assert spec["per_layer"][: len(table)] == table
    assert [m["name"] for m in spec["per_layer"][len(table):]] == [
        "trace.untraced_pass_s", "trace.overhead_s",
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
