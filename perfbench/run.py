"""Benchmark for the pite toolkit: one command, three workloads.

    python3 perfbench/run.py --workload {annotate,train,evaluate} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
Inputs are generated from the seed in a separate process (outside any timed
region) under ``.bench_work/``.  Then, in this process:

* ``--trace 0`` measures ``setup_s`` (median time for fresh interpreters to
  import ``pite.cli``), runs one untimed warm-up of each of the workload's
  two operations, then alternates them for ``--seconds`` and reports the
  throughput of each at its 75th-percentile wall time (``primary_per_s``,
  ``secondary_per_s``) and the peak RSS of this process.
* ``--trace 1`` alternates untraced and traced passes over the workload's
  serial operations for ``--seconds`` and reports the per-layer metrics of
  ``layers.py`` (medians over traced passes) and the tracing overhead.

Every output is checked; failed invocations and checks are counted in
``failed``.  The last line of stdout is the JSON result; earlier lines name
each metric as the workload calls it.  A full record (environment, input
sizes, every sample, the span summary) goes to
``.bench_work/results/<workload>-seed<N>-trace<T>.json``, and the spans of the
first traced pass next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import tracing

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_SAMPLES = 7
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import pite.cli; "
    "print(time.perf_counter() - t)"
)


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": statistics.median(values), "q3": q3, "n": len(values)}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pite").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        # the checkout is not a git repository; the source digest names the code
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu_model(),
        "platform": platform.platform(),
    }


def measure_setup(samples: int = SETUP_SAMPLES) -> list[float]:
    """Import time of pite.cli in fresh interpreters, after one untimed import."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    ))
    times = []
    for i in range(samples + 1):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=60,
        )
        if i:
            times.append(float(done.stdout.strip()))
    return times


def generate(workload: str, seed: int, out: Path, sizes: dict | None = None) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(out), "--sizes", json.dumps(sizes or {})],
        cwd=ROOT, check=True, timeout=120,
    )
    return json.loads((out / "inputs.json").read_text(encoding="utf-8"))


def timed_run(workload, bench, seconds: float) -> tuple[dict, dict]:
    """Alternate the two operations for ``seconds``; returns metrics and samples.

    Throughput is items per second at the 75th-percentile wall time of an
    invocation: the host's speed has short fast bursts, so the upper
    quartile of the wall time is the figure that repeats from run to run.
    """
    ops = {"primary_per_s": workload.primary, "secondary_per_s": workload.secondary}
    for op in ops.values():  # warm-up: the first call in a process pays for lazy set-up
        op.run(bench)
    walls = {key: [] for key in ops}
    cpus = {key: [] for key in ops}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not all(walls.values()):
        for key, op in ops.items():
            cpu = bench.cpu_s
            walls[key].append(op.run(bench))
            cpus[key].append(bench.cpu_s - cpu)
    detail = {}
    for key, op in ops.items():
        q = quartiles(walls[key])
        detail[key] = dict(
            q, metric=op.metric, items=op.items(bench), wall_s=walls[key], cpu_s=cpus[key]
        )
    metrics = {key: d["items"] / d["q3"] for key, d in detail.items()}
    return metrics, detail


def traced_run(workload, bench, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Alternate untraced and traced passes; per-layer metrics are traced medians."""

    def one_pass() -> float:
        return sum(op.run(bench) for op in workload.traced)

    one_pass()  # warm-up
    untraced, traced, per_pass, summaries = [], [], [], []
    missing: list[str] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not traced:
        untraced.append(one_pass())
        tracer = tracing.Tracer()
        with tracing.Installed(tracer) as installed:
            traced.append(one_pass())
        missing = installed.missing
        spans = tracer.spans()
        summary = tracing.summarize(spans)
        if not summaries:
            spans_path.write_text(json.dumps([list(s) for s in spans]), encoding="utf-8")
        summaries.append(summary)
        facts = workload.facts(bench)
        per_pass.append({m.name: m.value(summary, tracer.counts, facts) for m in layers.PER_LAYER})
    metrics = {
        name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]
    }
    metrics["trace.untraced_pass_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    accounted = [sum(e["self_s"] for e in s.values()) for s in summaries]
    detail = {
        "missing": missing,
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "self_time_sum_s": accounted,
        "summary": summaries[len(summaries) // 2],
    }
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", default="{}", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pite" / "cli.py").is_file():
        sys.stderr.write(f"error: no pite sources under {ROOT / 'src'}; run from a checkout root\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}\n")
        return 2
    workload = workloads.WORKLOADS[args.workload]
    results_dir = ROOT / ".bench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = ROOT / ".bench_work" / f"{stem}-{os.getpid()}"
    try:
        inputs = generate(args.workload, args.seed, workdir / "inputs", json.loads(args.sizes))
        bench = workloads.BenchRun(workdir=workdir, seed=args.seed, inputs=inputs)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": environment(), "inputs": inputs}
        if args.trace:
            workload.prepare(bench)
            metrics, record["trace"] = traced_run(
                workload, bench, args.seconds, results_dir / f"{stem}.spans.json"
            )
            units = {m.name: m.unit for m in layers.PER_LAYER}
            units.update({"trace.untraced_pass_s": "s", "trace.overhead_s": "s"})
        else:
            setup = measure_setup()
            workload.prepare(bench)
            metrics, record["timed"] = timed_run(workload, bench, args.seconds)
            metrics["setup_s"] = statistics.median(setup)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            record["setup_s"] = quartiles(setup)
            units = {"primary_per_s": "1/s", "secondary_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    error_rate = bench.failed / max(1, bench.attempted)
    record.update(attempted=bench.attempted, failed=bench.failed, problems=bench.problems)
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    if args.trace:
        print(f"{'span':32} {'calls':>8} {'busy_s':>10} {'self_s':>10}")
        for name, entry in sorted(record["trace"]["summary"].items()):
            print(f"{name:32} {entry['calls']:>8} {entry['busy_s']:>10.4f} {entry['self_s']:>10.4f}")
        for name in record["trace"]["missing"]:
            print(f"missing: {name} (not traced)")
        trace = record["trace"]
        print(f"untraced pass {statistics.median(trace['untraced_pass_s']):.4f} s, traced pass "
              f"{statistics.median(trace['traced_pass_s']):.4f} s, self times sum to "
              f"{statistics.median(trace['self_time_sum_s']):.4f} s; tracing overhead "
              f"{metrics['trace.overhead_s']:.4f} s")
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]}")
    else:
        for key, d in record["timed"].items():
            print(f"{d['metric']} = {metrics[key]:.4f} 1/s at the 75th-percentile wall time "
                  f"{d['q3']:.4f} s ({d['items'] / d['median']:.4f} 1/s at the median "
                  f"{d['median']:.4f} s; {d['n']} invocations; reported as {key})")
        print(f"setup_s = {metrics['setup_s']:.4f} s  (median of {len(setup)} fresh imports of pite.cli)")
        print(f"peak_rss_mb = {metrics['peak_rss_mb']:.1f} MB")
    print(f"error_rate = {error_rate:.4f}  ({bench.failed} failed of {bench.attempted} invocations)")
    for problem in bench.problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
