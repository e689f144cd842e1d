import inspect
import itertools
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pite import tracks as tracks_module
from pite.jsonl import DataError
from pite.tracks import (
    ClipTracks,
    Tracks,
    _assign,
    _lloyd,
    _means,
    _reassign_pass,
    _seed_centers,
    _sse,
    condense,
    filter_tracks_by_mask,
    iter_clip_tracks,
    kmeans_pp,
    load_mask,
    matrix_from_json,
    matrix_to_json,
    save_mask,
    to_matrix,
)


def static_tracks(points, n=4, visible=True):
    """One track per (x, y) point, standing still for n frames.

    ``visible`` is one flag for every track or one flag per track.
    """
    xy = np.repeat(np.asarray(points, dtype=float).reshape(-1, 1, 2), n, axis=1)
    vis = np.repeat(np.broadcast_to(visible, (len(xy),))[:, None], n, axis=1)
    return Tracks(xy=xy, vis=vis)


def rows_of(tracks):
    """Track rows as (positions, visibility) lists, for equality checks."""
    return list(zip(tracks.xy.tolist(), tracks.vis.tolist()))


def starts_of(tracks):
    return [tuple(p) for p in tracks.xy[:, 0].tolist()]


def brute_force_sse(points: np.ndarray, k: int) -> float:
    """Oracle: exhaustive enumeration over all assignments into <= k clusters."""
    n = len(points)
    best = np.inf
    for assign in itertools.product(range(k), repeat=n):
        sse = 0.0
        for j in range(k):
            members = points[[i for i in range(n) if assign[i] == j]]
            if len(members):
                center = members.mean(axis=0)
                sse += float(np.sum((members - center) ** 2))
        best = min(best, sse)
    return best


def serial_reassign_pass(pts: np.ndarray, assign: np.ndarray, k: int):
    """Reference: the point-by-point Hartigan-Wong sweep that ``_reassign_pass`` replays."""
    assign = assign.copy()
    counts = np.bincount(assign, minlength=k).astype(float)
    sums = np.zeros((k, pts.shape[1]))
    np.add.at(sums, assign, pts)
    moved = False
    for i in range(len(pts)):
        a = assign[i]
        if counts[a] <= 1:
            continue
        mean_a = sums[a] / counts[a]
        gain = counts[a] / (counts[a] - 1) * float(np.sum((pts[i] - mean_a) ** 2))
        best_delta, best_b = -1e-12, -1
        for b in range(k):
            if b == a:
                continue
            if counts[b] == 0:
                cost = 0.0
            else:
                mean_b = sums[b] / counts[b]
                cost = counts[b] / (counts[b] + 1) * float(np.sum((pts[i] - mean_b) ** 2))
            delta = cost - gain
            if delta < best_delta:
                best_delta, best_b = delta, b
        if best_b >= 0:
            sums[a] -= pts[i]
            counts[a] -= 1
            sums[best_b] += pts[i]
            counts[best_b] += 1
            assign[i] = best_b
            moved = True
    return assign, moved


def loop_means(pts: np.ndarray, assign: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Reference for ``_means``: one masked ``mean`` per cluster."""
    centers = fallback.copy()
    for j in range(fallback.shape[0]):
        members = pts[assign == j]
        if len(members):
            centers[j] = members.mean(axis=0)
    return centers


def serial_kmeans_pp(points, k: int, seed: int = 0):
    """Reference for ``kmeans_pp``: its restarts run one after another, on the loop oracles.

    Each restart seeds with ``_seed_centers`` from the one generator, runs
    Lloyd to its fixed point, then alternates ``serial_reassign_pass`` with
    Lloyd while a point moves and the SSE falls (at most 50 rounds); the
    lowest SSE wins, the earliest restart on ties.
    """
    pts = np.asarray(points, dtype=float)

    def assign_of(centers):
        return np.argmin(np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=2), axis=1)

    def sse_of(centers, assign):
        return float(np.sum((pts - centers[assign]) ** 2))

    def lloyd(centers):
        assign = assign_of(centers)
        for _ in range(tracks_module.MAX_ITER):
            new_centers = loop_means(pts, assign, centers)
            move = np.sqrt(np.sum((new_centers - centers) ** 2, axis=1)).max()
            centers, assign = new_centers, assign_of(new_centers)
            if move < tracks_module.TOL:
                break
        return centers, assign, sse_of(centers, assign)

    rng = np.random.default_rng(seed)
    best = None
    for _ in range(tracks_module.RESTARTS):
        centers, assign, sse = lloyd(_seed_centers(pts, k, rng))
        for _round in range(50):
            assign, moved = serial_reassign_pass(pts, assign, k)
            if not moved:
                break
            centers, assign, new_sse = lloyd(loop_means(pts, assign, centers))
            if new_sse >= sse:
                break
            sse = new_sse
        centers = loop_means(pts, assign, centers)
        sse = sse_of(centers, assign)
        if best is None or sse < best[2]:
            best = (centers, assign, sse)
    return best


def grid_starts(rng: np.random.Generator, count: int, w: float, h: float) -> np.ndarray:
    """``count`` start positions on a jittered grid over a w x h box, as bench clips place them."""
    cols = max(1, round(np.sqrt(count * w / h)))
    rows = max(1, -(-count // cols))
    cell = np.arange(count)
    xs = (cell % cols + rng.uniform(0.25, 0.75, size=count)) * (w / cols)
    ys = (cell // cols + rng.uniform(0.25, 0.75, size=count)) * (h / rows)
    return np.round(np.stack([xs, ys], axis=1) + rng.uniform(0, 300, size=2), 2)


def sweep_case(rng: np.random.Generator, case: int):
    """Points, k and a start assignment for sweep oracle case ``case``.

    Cycles through Gaussian points, small integer grids (many ties and
    duplicate points) and all-equal points, and through uniform starts,
    starts with the last cluster empty and starts of singletons around one
    big cluster.
    """
    n = int(rng.integers(1, 61))
    k = int(rng.integers(1, 9))
    kind, start = case % 3, case // 3 % 3
    if kind == 0:
        pts = rng.normal(size=(n, 2)) * rng.uniform(0.1, 10.0)
    elif kind == 1:
        pts = rng.integers(0, int(rng.integers(2, 5)), size=(n, 2)) * rng.choice([0.1, 1.0, 3.0])
    else:
        pts = np.repeat(rng.normal(size=(1, 2)), n, axis=0)
    if start == 0:
        assign = rng.integers(0, k, size=n)
    elif start == 1:
        assign = rng.integers(0, max(1, k - 1), size=n)
    else:
        assign = np.zeros(n, dtype=np.intp)
        singles = rng.permutation(n)[: k - 1]
        assign[singles] = np.arange(1, len(singles) + 1)
    return pts.astype(float), k, assign


# --- masks ------------------------------------------------------------------


def saved_mask(arr, path):
    """``arr`` written by ``save_mask`` to ``path``: the file's JSON object and ``load_mask``'s array."""
    save_mask(arr, path)
    return json.loads(path.read_text()), load_mask(path)


def test_mask_round_trip(tmp_path):
    arr = np.zeros((4, 6), dtype=bool)
    arr[1:3, 2:5] = True
    obj, back = saved_mask(arr, tmp_path / "mask.json")
    assert (obj["width"], obj["height"], sum(obj["rle"])) == (6, 4, 24)
    assert back.dtype == bool and np.array_equal(back, arr)
    rng = np.random.default_rng(0)
    for _ in range(20):
        arr = rng.random((int(rng.integers(1, 6)), int(rng.integers(1, 6)))) < 0.5
        obj, back = saved_mask(arr, tmp_path / "mask.json")
        assert back.shape == arr.shape and np.array_equal(back, arr)
        assert all(run > 0 for run in obj["rle"][1:])  # only the leading run may be 0


def test_mask_run_validation(tmp_path):
    path = tmp_path / "mask.json"
    for runs, message in [([3], "runs cover 3 cells, expected 4"), ([5, -1], "negative run length")]:
        path.write_text(json.dumps({"width": 2, "height": 2, "rle": runs}))
        with pytest.raises(DataError, match=f"^{path}: ValueError: {message}$"):
            load_mask(path)


def test_empty_and_full_mask_encoding(tmp_path):
    empty, back = saved_mask(np.zeros((3, 3), dtype=bool), tmp_path / "empty.json")
    assert empty["rle"] == [9] and not back.any()
    full, back = saved_mask(np.ones((3, 3), dtype=bool), tmp_path / "full.json")
    assert full["rle"] == [0, 9] and back.all()


# --- filter_tracks_by_mask ----------------------------------------------------


def test_filter_full_mask_keeps_visible():
    full = np.ones((10, 10), dtype=bool)
    tracks = static_tracks(
        [(1.0, 1.0), (2.0, 3.0), (8.0, 8.0)], visible=[True, False, True]
    )
    kept = filter_tracks_by_mask(tracks, full)
    assert rows_of(kept) == [rows_of(tracks)[0], rows_of(tracks)[2]]


def test_filter_empty_mask():
    empty = np.zeros((10, 10), dtype=bool)
    kept = filter_tracks_by_mask(static_tracks([(1.0, 1.0)]), empty)
    assert len(kept) == 0 and kept.frames == 4


def test_filter_left_half_mask():
    arr = np.zeros((10, 10), dtype=bool)
    arr[:, :5] = True
    tracks = static_tracks([(x, 5.0) for x in [1.0, 2.0, 4.0, 7.0, 9.0]])
    kept = filter_tracks_by_mask(tracks, arr)
    assert [x for x, _ in starts_of(kept)] == [1.0, 2.0, 4.0]


def test_mask_contains_pixel_center():
    # a point belongs to the pixel cell [floor x, floor x + 1) x [floor y, floor y + 1)
    mask = np.array([[False, True], [False, False]])
    tracks = static_tracks([(1.5, 0.5), (1.0, 0.0), (0.99, 0.5), (1.99, 0.99)])
    assert starts_of(filter_tracks_by_mask(tracks, mask)) == [
        (1.5, 0.5),
        (1.0, 0.0),
        (1.99, 0.99),
    ]
    for x, y in [(5.0, 0.0), (2.0, 0.0), (-0.01, 0.0), (0.0, 2.0)]:
        with pytest.raises(ValueError, match="outside 2x2 mask"):
            filter_tracks_by_mask(static_tracks([(x, y)]), mask)
    # an invisible start is never looked up, so it may lie off the grid
    assert len(filter_tracks_by_mask(static_tracks([(5.0, 0.0)], visible=False), mask)) == 0


def test_filter_ragged_tracks():
    # the filter takes a Tracks, and a Tracks cannot hold tracks of different frame counts
    with pytest.raises(ValueError, match=r"got \(1, 3, 2\) and \(1, 5\)"):
        Tracks(xy=np.zeros((1, 3, 2)), vis=np.ones((1, 5), dtype=bool))
    with pytest.raises(ValueError, match="shape"):
        Tracks(xy=np.zeros((2, 3, 3)), vis=np.ones((2, 3), dtype=bool))
    with pytest.raises(ValueError, match="finite"):
        Tracks(xy=np.full((1, 3, 2), np.nan), vis=np.ones((1, 3), dtype=bool))


def test_filter_dimension_mismatch():
    mask = np.ones((4, 4), dtype=bool)
    with pytest.raises(ValueError, match="outside"):
        filter_tracks_by_mask(static_tracks([(9.0, 1.0)]), mask)


# --- loading --------------------------------------------------------------------


def clip_json(tracks, frames=3):
    return {"clip_id": "v:0", "width": 8, "height": 8, "frames": frames, "tracks": tracks}


def walk(n, visible=True):
    return {"xy": [[1.0, float(i)] for i in range(n)], "vis": [visible] * n}


def read_clip_file(obj):
    """Clip ``obj`` written as a one-line track file and read back by ``iter_clip_tracks``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "clips.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        return next(iter_clip_tracks(path))


@pytest.mark.parametrize(
    "tracks",
    [
        pytest.param([walk(3), walk(5)], id="ragged"),
        pytest.param([walk(4), walk(4)], id="xy-and-vis-longer-than-frames"),
        pytest.param([{"xy": walk(3)["xy"], "vis": [True] * 2}], id="vis-shorter"),
        pytest.param([{"xy": walk(2)["xy"], "vis": [True] * 3}], id="xy-shorter"),
        # six numbers that a reshape would silently read as three (x, y) points
        pytest.param([{"xy": [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], "vis": [True] * 3}], id="2x3"),
        pytest.param([walk(3), {"xy": [[1.0, float("nan")]] * 3, "vis": [True] * 3}], id="nan"),
        pytest.param([{"xy": [[float("inf"), 1.0]] * 3, "vis": [False] * 3}], id="inf"),
        pytest.param([{"vis": [True] * 3}], id="no-xy"),
        pytest.param([None], id="not-an-object"),
        # JSON values that array conversion would coerce into positions or flags
        pytest.param([{"xy": [["2.5", 1.0]] + walk(2)["xy"], "vis": [True] * 3}], id="xy-string"),
        pytest.param([{"xy": [[True, 1.0]] + walk(2)["xy"], "vis": [True] * 3}], id="xy-bool"),
        pytest.param([{"xy": [[None, 1.0]] + walk(2)["xy"], "vis": [True] * 3}], id="xy-null"),
        pytest.param([{"xy": walk(3)["xy"], "vis": ["false", True, True]}], id="vis-string"),
        pytest.param([{"xy": walk(3)["xy"], "vis": [0, True, True]}], id="vis-zero"),
        pytest.param([{"xy": walk(3)["xy"], "vis": [None, True, True]}], id="vis-null"),
        pytest.param([{"xy": walk(3)["xy"], "vis": [2, True, True]}], id="vis-two"),
        pytest.param([{"xy": ["ab", "cd", "ef"], "vis": [True] * 3}], id="xy-pairs-of-chars"),
        pytest.param([{"xy": [[10**400, 1.0]] + walk(2)["xy"], "vis": [True] * 3}], id="xy-huge-int"),
    ],
)
def test_clip_tracks_rejects_tracks_that_do_not_fit(tracks):
    with pytest.raises(ValueError, match="clip v:0") as direct:
        ClipTracks.from_json(clip_json(tracks))
    with pytest.raises(ValueError, match="clip v:0") as decoded:
        read_clip_file(clip_json(tracks))
    # decoding tracks as the line is parsed keeps from_json's message
    assert str(decoded.value).endswith(f".jsonl:1: DataError: {direct.value}")


def test_clip_tracks_without_tracks():
    clip = ClipTracks.from_json(clip_json([], frames=5))
    assert clip.tracks.xy.shape == (0, 5, 2) and clip.tracks.vis.shape == (0, 5)


json_number = st.one_of(
    st.integers(-(10**6), 10**6), st.floats(allow_nan=False, allow_infinity=False, width=64)
)


@st.composite
def json_clips(draw):
    """A valid clip as ``json.loads`` returns it: 0-4 tracks of 1-6 frames."""
    frames = draw(st.integers(1, 6))
    pairs = st.lists(st.lists(json_number, min_size=2, max_size=2), min_size=frames, max_size=frames)
    flags = st.lists(st.booleans(), min_size=frames, max_size=frames)
    tracks = draw(st.lists(st.fixed_dictionaries({"xy": pairs, "vis": flags}), max_size=4))
    return json.loads(json.dumps(clip_json(tracks, frames=frames)))


@settings(max_examples=60, deadline=None)
@given(json_clips())
def test_clip_tracks_flat_pass_matches_nested_conversion(obj):
    rows, shape = obj["tracks"], (len(obj["tracks"]), obj["frames"])
    xy = np.array([t["xy"] for t in rows], dtype=float).reshape(*shape, 2)
    vis = np.array([t["vis"] for t in rows], dtype=bool).reshape(shape)
    for tracks in (ClipTracks.from_json(obj).tracks, read_clip_file(obj).tracks):
        assert tracks.xy.dtype == xy.dtype and np.array_equal(tracks.xy, xy)
        assert tracks.vis.dtype == vis.dtype and np.array_equal(tracks.vis, vis)


def test_track_with_other_keys_loads_as_before():
    # only {xy, vis} objects are decoded as the line is parsed; this one is converted by from_json
    tracks = read_clip_file(clip_json([dict(walk(3), id=7), walk(3, visible=False)])).tracks
    assert np.array_equal(tracks.xy, [walk(3)["xy"]] * 2)
    assert tracks.vis.tolist() == [[True] * 3, [False] * 3]


def test_decoding_a_clip_peaks_under_four_times_its_line(tmp_path):
    # each track becomes arrays as the decoder closes it, so the nested lists
    # of the whole line (about 10x its length) are never alive at once
    rng = np.random.default_rng(0)
    tracks = [
        {"xy": (rng.random((150, 2)) * 300).round(2).tolist(), "vis": (rng.random(150) < 0.9).tolist()}
        for _ in range(400)
    ]
    line = json.dumps(clip_json(tracks, frames=150))
    path = tmp_path / "clips.jsonl"
    path.write_text(line + "\n")
    del tracks
    tracemalloc.start()
    try:
        clips = list(iter_clip_tracks(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert clips[0].tracks.xy.shape == (400, 150, 2)
    assert peak < 4 * len(line)


# --- kmeans_pp ----------------------------------------------------------------


def test_kmeans_identical_points():
    centers, assign, sse = kmeans_pp([(2.0, 3.0)] * 5, k=1, seed=0)
    assert np.allclose(centers, [[2.0, 3.0]])
    assert sse == 0.0
    assert set(assign.tolist()) == {0}


def test_kmeans_k_equals_distinct():
    pts = [(0.0, 0.0), (5.0, 0.0), (0.0, 5.0)]
    centers, _, sse = kmeans_pp(pts, k=3, seed=1)
    assert sse == pytest.approx(0.0, abs=1e-12)
    assert {tuple(c) for c in centers.tolist()} == set(pts)


def test_kmeans_k_too_large():
    with pytest.raises(ValueError, match="exceeds"):
        kmeans_pp([(0.0, 0.0), (1.0, 1.0)], k=3, seed=0)


def test_kmeans_deterministic():
    rng = np.random.default_rng(5)
    pts = [tuple(p) for p in rng.random((12, 2))]
    a = kmeans_pp(pts, k=3, seed=42)
    b = kmeans_pp(pts, k=3, seed=42)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    assert a[2] == b[2]


def test_kmeans_within_one_percent_of_bruteforce():
    rng = np.random.default_rng(123)
    for trial in range(20):
        n = int(rng.integers(3, 9))
        pts = rng.random((n, 2)) * 10
        _, _, sse = kmeans_pp([tuple(p) for p in pts], k=3, seed=trial)
        optimum = brute_force_sse(pts, 3)
        assert sse <= optimum * 1.01 + 1e-9


def test_kmeans_rejects_points_that_are_not_n_by_2():
    for shape in [(5, 1), (5, 3), (5,), (0, 2)]:
        with pytest.raises(ValueError, match=rf"shape \({shape[0]},"):
            kmeans_pp(np.zeros(shape), 2)


def test_lloyd_steps_never_raise_sse():
    """Step Lloyd's loop by hand: neither a mean nor an assignment step raises the SSE."""
    pts = np.random.default_rng(7).random((30, 2))
    starts = np.stack([_seed_centers(pts, 4, np.random.default_rng(seed)) for seed in range(10)])
    batch_centers, batch_assign = _lloyd(pts, starts)
    for start, got_centers, got_assign in zip(starts, batch_centers, batch_assign):
        centers, assign = start, _assign(pts, start[None])[0]
        sse = _sse(pts, centers[None], assign[None])[0]
        for _ in range(tracks_module.MAX_ITER):
            new_centers = _means(pts, assign[None], centers[None])[0]
            moved_sse = _sse(pts, new_centers[None], assign[None])[0]
            assert moved_sse <= sse + 1e-12
            move = np.sqrt(np.sum((new_centers - centers) ** 2, axis=1)).max()
            centers, assign = new_centers, _assign(pts, new_centers[None])[0]
            sse = _sse(pts, centers[None], assign[None])[0]
            assert sse <= moved_sse + 1e-12
            if move < tracks_module.TOL:
                break
        # the hand-stepped loop is the one kmeans_pp runs, alone and in a batch
        (want_centers,), (want_assign,) = _lloyd(pts, start[None])
        for c, a in [(want_centers, want_assign), (got_centers, got_assign)]:
            assert np.array_equal(centers, c) and np.array_equal(assign, a)


def test_reassign_pass_matches_serial_sweep():
    rng = np.random.default_rng(2026)
    moves = 0
    for case in range(900):
        pts, k, start = sweep_case(rng, case)
        other = rng.integers(0, k, size=len(pts))
        want = [serial_reassign_pass(pts, row, k) for row in (start, other)]
        (assign,), (moved,) = _reassign_pass(pts, start[None], k)
        assert np.array_equal(assign, want[0][0]), case
        assert moved == want[0][1], case
        # a batch sweeps each row as that row alone
        batch, batch_moved = _reassign_pass(pts, np.stack([start, other, start]), k)
        for row, moved, (want_assign, want_moved) in zip(batch, batch_moved, want + want[:1]):
            assert np.array_equal(row, want_assign), case
            assert moved == want_moved, case
        moves += int(np.sum(assign != start))
    assert moves > 900  # the cases exercise many moves, not just fixed points


def test_reassign_pass_applies_first_improving_move():
    # Point 0 improves by joining cluster 0 (delta -2/3), which stops point 4,
    # the point that would improve most (delta -2), from joining cluster 1.
    # A sweep that applied the best move first would move point 4 instead.
    pts = np.array([[2.0, 0.0], [5.0, 0.0], [0.0, 0.0], [3.0, 0.0], [2.0, 0.0]])
    start = np.array([1, 0, 1, 0, 0])
    (assign,), (moved,) = _reassign_pass(pts, start[None], 2)
    assert moved
    assert assign.tolist() == [0, 0, 1, 0, 0]
    assert assign.tolist() == serial_reassign_pass(pts, start, 2)[0].tolist()


def assert_kmeans_matches_reference(pts, k, seed):
    centers, assign, sse = kmeans_pp(pts, k, seed)
    want_centers, want_assign, want_sse = serial_kmeans_pp(pts, k, seed)
    assert centers.tobytes() == want_centers.tobytes(), (len(pts), k, seed)
    assert np.array_equal(assign, want_assign), (len(pts), k, seed)
    assert type(sse) is float and sse == want_sse, (len(pts), k, seed)


def test_kmeans_matches_serial_sweep():
    rng = np.random.default_rng(77)
    for case in range(150):
        pts, k, _ = sweep_case(rng, case)
        for seed in (case, case + 1000):
            assert_kmeans_matches_reference([tuple(p) for p in pts], min(k, len(pts)), seed)


def test_kmeans_matches_serial_reference_on_bench_shaped_clouds():
    rng = np.random.default_rng(640)
    for case in range(10):
        pts = np.round(rng.uniform(0.0, 1.0, size=(int(rng.integers(50, 401)), 2)) * (640, 360), 2)
        assert_kmeans_matches_reference(pts, case % 5 + 1, case)
    for case, count in enumerate([4, 96, 200] * 2):
        assert_kmeans_matches_reference(grid_starts(rng, count, 120.0, 90.0), 3, 100 + case)


def tiny_cloud(case):
    """Up to 80 points spread over 1e-6 to 1e-2: a Lloyd step moves its centers by less than 1e-3."""
    rng = np.random.default_rng([0, case])
    n, k = int(rng.integers(8, 81)), int(rng.integers(2, 7))
    pts = rng.normal(size=(n, 2)) * 10 ** rng.uniform(-6, -2) + rng.uniform(0, 640, size=2)
    return pts, min(k, n)


def offset_grid_cloud(case):
    """Up to 80 points on a small grid far from the origin.

    Rounding there makes some single-point moves that the sweep scores as
    improving leave the SSE equal or higher, so the refine rounds' SSE rule decides.
    """
    rng = np.random.default_rng([1, case])
    n, k = int(rng.integers(8, 81)), int(rng.integers(2, 7))
    step = rng.choice([0.5, 1.0, 3.0])
    pts = rng.integers(0, int(rng.integers(2, 5)), size=(n, 2)) * step + np.round(10 ** rng.uniform(2, 9), 2)
    return pts.astype(float), min(k, n)


def test_kmeans_matches_serial_reference_where_the_stop_rules_decide():
    # found by a seeded search: each cloud is one where kmeans_pp changes if
    # Lloyd stops at TOL * 1e3 (tiny), or if the refine rounds go on after a
    # round whose SSE rose (offset grid 2522) or stayed equal (385, 2980)
    for case in (13, 15):
        assert_kmeans_matches_reference(*tiny_cloud(case), case)
    for case in (385, 2522, 2980):
        assert_kmeans_matches_reference(*offset_grid_cloud(case), case)


def test_means_matches_per_cluster_loop():
    rng = np.random.default_rng(91)
    for case in range(900):
        pts, k, assign = sweep_case(rng, case)
        if case % 4 == 3:  # large clusters, where another summation order would show
            pts = rng.uniform(0.0, 640.0, size=(400, 2))
            assign = rng.integers(0, k, size=400)
        fallback = rng.normal(size=(k, 2))
        want = loop_means(pts, assign, fallback)
        assert np.array_equal(_means(pts, assign[None], fallback[None])[0], want), case
        # a batch of runs: each row is the means of that run alone
        others = rng.integers(0, k, size=(2, len(pts)))
        batch = _means(pts, np.vstack([assign, others]), np.stack([fallback, -fallback, fallback]))
        wants = [want] + [loop_means(pts, a, f) for a, f in zip(others, [-fallback, fallback])]
        for row, want_row in zip(batch, wants):
            assert np.array_equal(row, want_row), case


# --- condense -----------------------------------------------------------------


def test_condense_exact_p_distinct():
    # output is ordered by frame-0 x, then y
    tracks = static_tracks([(9.0, 1.0), (0.0, 5.0), (0.0, 0.0)])
    out = condense(tracks, P=3, seed=0)
    assert starts_of(out) == [(0.0, 0.0), (0.0, 5.0), (9.0, 1.0)]


def test_condense_single_track():
    track = static_tracks([(4.0, 4.0)])
    assert rows_of(condense(track, P=3, seed=0)) == rows_of(track)


def test_condense_calls_kmeans_through_the_module_name(monkeypatch):
    # the benchmark's tracks.kmeans span wraps pite.tracks.kmeans_pp and
    # counts len(args[0]); a call that bypassed the name would read 0
    calls = []
    kmeans = tracks_module.kmeans_pp
    monkeypatch.setattr(
        tracks_module, "kmeans_pp", lambda *args, **kw: calls.append((args, kw)) or kmeans(*args, **kw)
    )
    tracks = static_tracks([(0.0, 0.0), (9.0, 1.0), (0.0, 5.0), (9.0, 1.0)])
    condense(tracks, P=2, seed=17)
    [(args, kw)] = calls
    assert np.array_equal(args[0], tracks.xy[:, 0]) and len(args[0]) == 4
    assert inspect.signature(kmeans).bind(*args, **kw).arguments == {"points": args[0], "k": 2, "seed": 17}


def test_condense_counts_distinct_starts_as_np_unique_does(monkeypatch):
    # seeded clouds with repeated rows and both signed zeros, which
    # np.unique(axis=0) counts as one value although their bytes differ
    ks = []
    kmeans = tracks_module.kmeans_pp
    monkeypatch.setattr(tracks_module, "kmeans_pp", lambda pts, k, seed: ks.append(k) or kmeans(pts, k, seed))
    signed_zeros_decided = False
    for case in range(30):
        rng = np.random.default_rng(case)
        starts = rng.choice([-0.0, 0.0, 1.5, -2.0], size=(int(rng.integers(1, 40)), 2))
        ks.clear()
        condense(static_tracks(starts), P=len(starts), seed=case)
        assert ks == [len(np.unique(starts, axis=0))]
        signed_zeros_decided |= len({row.tobytes() for row in starts}) > ks[0]
    assert signed_zeros_decided


def test_condense_three_blobs():
    rng = np.random.default_rng(11)
    blobs = [(5.0, 5.0), (50.0, 5.0), (25.0, 45.0)]
    points = []
    for cx, cy in blobs:
        for _ in range(33):
            x, y = rng.normal([cx, cy], 0.5)
            points.append((float(x), float(y)))
    out = condense(static_tracks(points), P=3, seed=3)
    assert len(out) == 3
    # each returned key point lies in a distinct blob
    homes = set()
    for x, y in starts_of(out):
        dists = [np.hypot(x - cx, y - cy) for cx, cy in blobs]
        home = int(np.argmin(dists))
        assert dists[home] < 3.0
        homes.add(home)
    assert homes == {0, 1, 2}


def test_condense_medoids_are_input_tracks():
    rng = np.random.default_rng(2)
    tracks = static_tracks(rng.random((20, 2)) * 10)
    out = condense(tracks, P=4, seed=9)
    for row in rows_of(out):
        assert row in rows_of(tracks)
    assert starts_of(out) == sorted(starts_of(out))


def test_condense_empty_error():
    with pytest.raises(ValueError):
        condense(static_tracks(np.zeros((0, 2))), P=3, seed=0)


def test_condense_permutation_stable_on_separated_blobs():
    rng = np.random.default_rng(21)
    points = []
    for cx, cy in [(0.0, 0.0), (100.0, 0.0), (50.0, 100.0)]:
        for _ in range(10):
            x, y = rng.normal([cx, cy], 0.3)
            points.append((float(x), float(y)))
    tracks = static_tracks(points)
    base = set(starts_of(condense(tracks, P=3, seed=4)))
    perm = rng.permutation(len(tracks))
    shuffled = set(starts_of(condense(tracks[perm], P=3, seed=4)))
    assert base == shuffled


# --- to_matrix ------------------------------------------------------------------


def test_to_matrix_empty_keypoints():
    matrix = to_matrix(static_tracks(np.zeros((0, 2))), P=3, N=5, width=10, height=10)
    assert matrix.dtype == np.float64 and matrix.shape == (3, 5, 2)
    assert np.all(matrix == -1.0)


def test_to_matrix_static_point():
    track = static_tracks([(5.0, 5.0)], n=10)
    matrix = to_matrix(track, P=2, N=10, width=10, height=10)
    assert all(cell == [0.5, 0.5] for cell in matrix[0].tolist())
    assert all(cell == [-1.0, -1.0] for cell in matrix[1].tolist())


def test_to_matrix_half_visible():
    track = Tracks(xy=np.full((1, 100, 2), (3.0, 4.0)), vis=[[i < 50 for i in range(100)]])
    matrix = to_matrix(track, P=1, N=100, width=10, height=10)
    row = matrix[0].tolist()
    # per-frame oracle: sample k reads source frame k here
    for k in range(100):
        if k < 50:
            assert row[k] == [0.3, 0.4]
        else:
            assert row[k] == [-1.0, -1.0]


def test_to_matrix_downsamples_by_floor():
    track = Tracks(xy=[[(float(i), 0.0) for i in range(10)]], vis=np.ones((1, 10), dtype=bool))
    matrix = to_matrix(track, P=1, N=5, width=10, height=10)
    xs = matrix[0, :, 0].tolist()
    assert xs == [0.0, 0.2, 0.4, 0.6, 0.8]


def test_matrix_rejects_mixed_cells():
    with pytest.raises(ValueError, match=r"^invalid cell \(-1.0, 0.5\)"):
        matrix_from_json({"points": 1, "frames": 1, "coords": [[[-1.0, 0.5]]]})


def test_matrix_json_checks_declared_shape():
    obj = {"points": 1, "frames": 2, "coords": [[[0.5, 0.25], [-1.0, -1.0]]]}
    matrix = matrix_from_json(obj)
    assert matrix.dtype == np.float64 and matrix.shape == (1, 2, 2)
    assert matrix_to_json(matrix) == obj
    for points, frames in [(2, 2), (1, 1), (2, 1)]:
        with pytest.raises(ValueError, match="coords shape"):
            matrix_from_json({**obj, "points": points, "frames": frames})
    with pytest.raises(ValueError):
        matrix_from_json({**obj, "coords": [[[0.5, 0.25], [-1.0]]]})


@pytest.mark.parametrize("value", ["0.5", True, None, [0.5]])
def test_matrix_json_reads_only_json_numbers(value):
    obj = {"points": 1, "frames": 2, "coords": [[[0, 1], [-1, -1]]]}
    assert matrix_from_json(obj).tolist() == [[[0.0, 1.0], [-1.0, -1.0]]]
    obj["coords"][0][0][1] = value
    with pytest.raises(TypeError, match="^coords entries must be JSON numbers$"):
        matrix_from_json(obj)


# --- properties ------------------------------------------------------------------


coords = st.tuples(
    st.floats(0, 63.999, allow_nan=False), st.floats(0, 47.999, allow_nan=False)
)


@st.composite
def random_tracks(draw):
    n_frames = draw(st.integers(1, 8))
    n_tracks = draw(st.integers(1, 6))
    xy = [[draw(coords) for _ in range(n_frames)] for _ in range(n_tracks)]
    vis = [[draw(st.booleans()) for _ in range(n_frames)] for _ in range(n_tracks)]
    return Tracks(xy=xy, vis=vis)


@given(random_tracks(), st.integers(1, 4), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_sentinel_exclusivity_property(tracks, P, N):
    keep = tracks[: min(len(tracks), P)]
    matrix = to_matrix(keep, P=P, N=N, width=64, height=48)
    for j, row in enumerate(matrix.tolist()):
        for k, (x, y) in enumerate(row):
            assert (x, y) == (-1.0, -1.0) or (0 <= x <= 1 and 0 <= y <= 1)
            # per-cell oracle: sample k reads source frame floor(k * F / N)
            src = k * tracks.frames // N
            if j < len(keep) and keep.vis[j, src]:
                assert (x, y) == (keep.xy[j, src, 0] / 64, keep.xy[j, src, 1] / 48)
            else:
                assert (x, y) == (-1.0, -1.0)


@given(random_tracks())
@settings(max_examples=40, deadline=None)
def test_full_mask_filter_is_visibility_filter(tracks):
    full = np.ones((48, 64), dtype=bool)
    kept = filter_tracks_by_mask(tracks, full)
    assert rows_of(kept) == [row for row in rows_of(tracks) if row[1][0]]


@given(random_tracks(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_filter_matches_per_track_oracle(tracks, seed):
    arr = np.random.default_rng(seed).random((48, 64)) < 0.5
    kept = filter_tracks_by_mask(tracks, arr)
    expected = [
        (xy, vis)
        for xy, vis in rows_of(tracks)
        if vis[0] and arr[math.floor(xy[0][1]), math.floor(xy[0][0])]
    ]
    assert rows_of(kept) == expected
