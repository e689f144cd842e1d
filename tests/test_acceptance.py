"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import json
import time

import numpy as np

from pite.cli import main as cli_main
from pite.metrics import (
    CaptionedEvent,
    TimeSegment,
    cider,
    grounding_scores,
    soda_c,
    temporal_iou,
)
from pite.pipeline import PipelineConfig, run_pipeline, validate_record
from pite.toymodel import (
    TrainerConfig,
    forward,
    grad_check,
    init_params,
    tile_init,
)
from pite.tracks import cell_is_valid, kmeans_pp
from pite.trainer import run_stage, synthetic_dataset
from pite.trees import extract_lowest_np, parse_bracketed


def report(name: str, ok: bool, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"[{'PASS' if ok else 'FAIL'}] {name} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, name
    assert elapsed < budget, f"{name} exceeded {budget}s ({elapsed:.2f}s)"


def test_np_extraction_matches_bundled_trees(fig3_trees):
    started = time.perf_counter()
    first = [p.text for p in extract_lowest_np(parse_bracketed(fig3_trees[0]))]
    second = [p.text for p in extract_lowest_np(parse_bracketed(fig3_trees[1]))]
    ok = first == ["woman", "money", "a pen", "a white table"] and second == [
        "two people",
        "hands",
        "front",
        "a desk",
    ]
    report("noun-phrase extraction matches the two bundled trees exactly", ok, started, 1.0)


def test_tiling_initialization_bit_for_bit():
    started = time.perf_counter()
    ok = True
    for seed in range(5):
        cfg = TrainerConfig(d_v=6, d=10, vocab=14, points=3, frames=4, seed=seed)
        params = init_params(cfg, seed=seed)
        tiled = tile_init(params)
        for m in range(cfg.points * cfg.frames):
            ok &= np.array_equal(tiled.traj_w[2 * m : 2 * m + 2], params.loc_w)
            ok &= np.array_equal(tiled.traj_b[2 * m : 2 * m + 2], params.loc_b)
        rng = np.random.default_rng(seed + 70)
        frames = rng.normal(size=(3, cfg.d_v))
        tokens = rng.integers(0, cfg.vocab, size=5)
        out = forward(tiled, frames, tokens)
        want = np.broadcast_to(
            out.locs[:, None, None, :], (5, cfg.points, cfg.frames, 2)
        )
        ok &= np.array_equal(out.trajs, want)
    report("tiling init copies the location head and forces equal slices", ok, started, 1.0)


def test_gradient_checks_all_stages():
    started = time.perf_counter()
    cfg = TrainerConfig(d_v=4, d=6, vocab=10, points=2, frames=3, seed=0)
    worst = 0.0
    for stage in (1, 2, 3):
        for seed in range(5):
            params = init_params(cfg, seed=seed)
            sample = synthetic_dataset(stage, 1, cfg, seed=seed + 500, length=5)[0]
            err = grad_check(params, [sample], stage, eps=1e-5, lam=1.0, smoothing=0.1)
            worst = max(worst, err)
    ok = worst < 1e-4
    report(
        f"gradient check below 1e-4 for stages 1-3 on 5 fixtures each (worst {worst:.2e})",
        ok,
        started,
        30.0,
    )


def test_stage2_overfit_experiment():
    started = time.perf_counter()
    cfg = TrainerConfig(
        d_v=16, d=32, vocab=64, points=3, frames=20,
        lam=1.0, smoothing=0.0, lr=4.0, steps=1000, seed=7,
    )
    data = synthetic_dataset(2, 50, cfg, seed=123)
    _, curve, _ = run_stage(init_params(cfg), data, 2, cfg)
    ratio = curve[-1] / curve[0]
    _, curve_again, _ = run_stage(init_params(cfg), data, 2, cfg)
    ok = ratio <= 0.10 and curve == curve_again
    report(
        f"stage-2 overfit: 50 samples, 1000 steps, loss {curve[0]:.3f} -> "
        f"{curve[-1]:.3f} (ratio {ratio:.3f}), deterministic",
        ok,
        started,
        120.0,
    )


def optimal_sse(points: np.ndarray, k: int) -> float:
    """Exhaustive oracle, vectorized over all k^n assignments."""
    n = len(points)
    codes = np.array(list(itertools.product(range(k), repeat=n)))  # (k^n, n)
    best = np.inf
    sse = np.zeros(len(codes))
    for j in range(k):
        member = codes == j  # (k^n, n)
        counts = member.sum(axis=1)
        safe = np.maximum(counts, 1)[:, None]
        sums = member.astype(float) @ points  # (k^n, 2)
        means = sums / safe
        sq = member.astype(float) @ (points**2).sum(axis=1)  # sum |x|^2 per cluster
        sse += sq - (means**2).sum(axis=1) * counts
    return float(sse.min())


def test_kmeans_within_one_percent_of_optimum():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    ok = True
    for trial in range(100):
        n = int(rng.integers(3, 9))
        points = rng.random((n, 2)) * 100
        _, _, sse = kmeans_pp(
            [tuple(p) for p in points], k=3, seed=trial, restarts=10
        )
        ok &= sse <= optimal_sse(points, 3) * 1.01 + 1e-9
    report("k-means++ within 1% of exhaustive optimum on 100 instances", ok, started, 60.0)


def brute_force_soda(preds, gts, scorer):
    preds = sorted(preds, key=lambda e: (e.segment.start, e.segment.end))
    gts = sorted(gts, key=lambda e: (e.segment.start, e.segment.end))
    score = [
        [temporal_iou(p.segment, g.segment) * scorer(p.caption, g.caption) for g in gts]
        for p in preds
    ]

    def down(i, j):
        if i >= len(preds) or j >= len(gts):
            return 0.0
        return max(down(i + 1, j), down(i, j + 1), score[i][j] + down(i + 1, j + 1))

    total = down(0, 0)
    p, r = total / len(preds), total / len(gts)
    return 2 * p * r / (p + r) if p + r else 0.0


def test_metric_oracles():
    started = time.perf_counter()
    segments = [TimeSegment(0, 4), TimeSegment(5, 9), TimeSegment(12, 20)]
    scores = grounding_scores(segments, segments)
    ok = abs(scores["miou"] - 1.0) < 1e-9
    ok &= all(abs(scores["r_at"][m] - 1.0) < 1e-9 for m in (0.3, 0.5, 0.7))

    events = [
        CaptionedEvent(TimeSegment(0, 4), "a big dog runs past"),
        CaptionedEvent(TimeSegment(5, 9), "two people shake hands firmly"),
    ]
    ok &= abs(soda_c(events, events, scorer=lambda a, b: 1.0) - 1.0) < 1e-9

    corpus = [["a big dog runs past"], ["two people shake hands firmly"]]
    ok &= abs(cider("a big dog runs past", ["a big dog runs past"], corpus) - 10.0) < 1e-9

    rng = np.random.default_rng(31)
    words = ["red", "dog", "runs", "cat", "sits"]
    scorer = lambda a, b: 1.0 if a == b else 0.4
    for _ in range(200):
        def batch(k):
            out = []
            for _ in range(k):
                a = float(rng.uniform(0, 8))
                out.append(
                    CaptionedEvent(
                        TimeSegment(a, a + float(rng.uniform(0.2, 4))),
                        " ".join(rng.choice(words, size=2)),
                    )
                )
            return out

        preds = batch(int(rng.integers(1, 5)))
        gts = batch(int(rng.integers(1, 5)))
        ok &= abs(soda_c(preds, gts, scorer) - brute_force_soda(preds, gts, scorer)) < 1e-9
    report(
        "metric oracles: perfect-prediction scores and SODA brute-force parity",
        ok,
        started,
        60.0,
    )


def test_pipeline_end_to_end(toy_fixture_dir, tmp_path):
    started = time.perf_counter()
    args = (
        toy_fixture_dir / "manifest.jsonl",
        toy_fixture_dir / "trees.txt",
        toy_fixture_dir / "masks",
        toy_fixture_dir / "tracks",
    )
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    summary = run_pipeline(*args, out1, PipelineConfig(seed=0), strict=True)
    run_pipeline(*args, out2, PipelineConfig(seed=0), strict=True)

    records = [json.loads(line) for line in out1.read_text().splitlines()]
    ok = True
    for record in records:
        validate_record(record)
        for event in record["events"]:
            for obj in event["objects"]:
                for row in obj["trajectory"]["coords"]:
                    for cell in row:
                        ok &= cell_is_valid(tuple(cell))
    manifest = [
        json.loads(line)
        for line in (toy_fixture_dir / "manifest.jsonl").read_text().splitlines()
    ]
    ok &= summary["videos"] == len(manifest)
    ok &= summary["events"] == sum(len(v["events"]) for v in manifest)
    by_id = {r["video_id"]: r for r in records}
    for video in manifest:
        ok &= len(by_id[video["video_id"]]["events"]) == len(video["events"])
    ok &= out1.read_bytes() == out2.read_bytes()
    report(
        f"pipeline end to end: schema, sentinels, counts {summary}, byte-identical",
        ok,
        started,
        10.0,
    )


def test_ablation_harness(toy_fixture_dir, tmp_path, capsys):
    started = time.perf_counter()
    table_path = tmp_path / "table.json"
    code = cli_main(
        [
            "ablate-points",
            "--manifest", str(toy_fixture_dir / "manifest.jsonl"),
            "--trees", str(toy_fixture_dir / "trees.txt"),
            "--masks", str(toy_fixture_dir / "masks"),
            "--tracks", str(toy_fixture_dir / "tracks"),
            "--points", "1,3,5",
            "--frames", "20",
            "--steps", "25",
            "--out", str(table_path),
        ]
    )
    stdout = capsys.readouterr().out
    rows = json.loads(table_path.read_text())
    ok = code == 0
    ok &= [row["P"] for row in rows] == [1, 3, 5]
    cells = [row["matrix_cells"] for row in rows]
    ok &= cells == sorted(cells) and len(set(cells)) == 3
    ok &= len(stdout.splitlines()) == 4
    ok &= all(row["final_loss"] < row["initial_loss"] for row in rows)
    report(
        "ablation harness runs P in {1,3,5} and matrix shapes grow monotonically",
        ok,
        started,
        60.0,
    )
