"""Point tracks, binary masks, and trajectory-matrix condensation.

Dense per-frame point tracks come from an external tracker and are held as
one ``Tracks`` array pair: pixel positions (T, F, 2) and visibility (T, F).
A track file is decoded one track at a time: ``decode_track``, a ``json``
object_hook, turns each ``{xy, vis}`` object into its two arrays as soon as
the decoder closes it, so a clip line's peak memory is about three times the
line rather than the ten times its nested lists of floats would take.
A first-frame object mask, a (height, width) bool array, selects the tracks
belonging to one object; run-length coding is only how a mask file stores
it (``load_mask``, ``save_mask``).  Those tracks are condensed to at most P
key points by k-means++ on their first-frame positions, then resampled by
``to_matrix`` onto a float64 (P, N, 2) trajectory matrix of normalized
coordinates with (-1, -1) marking absent samples; ``matrix_to_json`` and
``matrix_from_json`` write and read its record form.
The k-means restarts run in lockstep: the Lloyd, sweep and SSE helpers take
a batch of R runs as (R, k, 2) centers and (R, n) assignments, and a run
drops out of the batch at the step where it would stop alone, so the result
is bit-identical to running the restarts one after another.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .jsonl import BAD_INPUT, integer, naming, read_jsonl, text, unique

SENTINEL = -1.0  # both coordinates of an absent sample

# kmeans_pp: seeded restarts, Lloyd iteration cap, center-movement tolerance
RESTARTS = 10
MAX_ITER = 100
TOL = 1e-6


@dataclass(frozen=True, eq=False)
class Tracks:
    """T tracked scene points over F >= 1 frames: pixel positions plus visibility.

    ``xy`` is a (T, F, 2) float64 array of finite (x, y) positions and
    ``vis`` a (T, F) bool array.  ``tracks[rows]`` selects rows (a slice,
    an index array or a bool mask) and returns a ``Tracks``.
    """

    xy: np.ndarray
    vis: np.ndarray

    def __post_init__(self):
        xy = np.asarray(self.xy, dtype=float)
        vis = np.asarray(self.vis, dtype=bool)
        if xy.ndim != 3 or xy.shape[1] == 0 or xy.shape[2] != 2 or vis.shape != xy.shape[:2]:
            raise ValueError(
                f"tracks need xy of shape (T, F>=1, 2) and vis of shape (T, F), "
                f"got {xy.shape} and {vis.shape}"
            )
        if not np.isfinite(xy).all():
            raise ValueError("track positions must be finite")
        object.__setattr__(self, "xy", xy)
        object.__setattr__(self, "vis", vis)

    def __len__(self) -> int:
        return self.xy.shape[0]

    @property
    def frames(self) -> int:
        return self.xy.shape[1]

    def __getitem__(self, rows) -> "Tracks":
        return Tracks(self.xy[rows], self.vis[rows])


def filter_tracks_by_mask(tracks: Tracks, mask: np.ndarray) -> Tracks:
    """Keep exactly the tracks whose frame-0 position is visible and inside the mask.

    ``mask`` is a (height, width) bool array.  A position (x, y) is inside
    when its pixel cell (floor x, floor y) is foreground; a visible position
    outside the mask's pixel grid raises.
    """
    height, width = mask.shape
    visible = tracks.vis[:, 0]
    cells = np.floor(tracks.xy[visible, 0])
    outside = ((cells < 0) | (cells >= (width, height))).any(axis=1)
    if outside.any():
        x, y = tracks.xy[visible, 0][outside][0].tolist()
        raise ValueError(f"visible track position ({x}, {y}) outside {width}x{height} mask")
    px, py = cells.astype(np.intp).T
    keep = visible.copy()
    keep[visible] = mask[py, px]
    return tracks[keep]


def kmeans_pp(
    points: Sequence[tuple[float, float]],
    k: int,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, float]:
    """k-means with D^2 seeding, Lloyd iterations and single-point moves; best of restarts.

    Each of ``RESTARTS`` runs seeds k centers by D^2 sampling and runs Lloyd
    iterations (at most ``MAX_ITER``, stopping once no center moves by
    ``TOL`` or more).  From that fixed point it alternates a single-point
    reassignment sweep (``_reassign_pass``) with Lloyd iterations, for at
    most 50 rounds, while the sweep moves a point and the SSE falls; the
    round whose SSE does not fall still keeps its centers and assignment.
    The run with the lowest SSE wins; ties keep the earliest run.

    The runs advance in lockstep as (R, n, k) arrays.  Their seeds are drawn
    run by run from one generator; each run leaves the batch exactly where
    it would stop alone (Lloyd on ``TOL`` or ``MAX_ITER``, a sweep when no
    point after its last move moves, the rounds when the sweep moves nothing,
    the SSE does not fall or 50 rounds are done), and each run's arithmetic
    is that of the run alone.

    Returns (centers (k,2), assignments (n,), sse).  Deterministic for a given
    seed.  Raises ValueError when the points are not a nonempty (n, 2) array
    or k is not in 1..n.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] != 2:
        raise ValueError(f"points must be a nonempty (n, 2) array, got shape {pts.shape}")
    n = pts.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of points ({n})")

    rng = np.random.default_rng(seed)
    centers, assign = _lloyd(pts, np.stack([_seed_centers(pts, k, rng) for _ in range(RESTARTS)]))
    sse = _sse(pts, centers, assign)
    # Lloyd fixed points are not always optima even on tiny inputs;
    # single-point reassignment passes are a strict descent beyond them
    live = np.arange(RESTARTS)
    for _round in range(50):
        assign[live], moved = _reassign_pass(pts, assign[live], k)
        live = live[moved]
        if not live.size:
            break
        centers[live], assign[live] = _lloyd(pts, _means(pts, assign[live], centers[live]))
        new_sse = _sse(pts, centers[live], assign[live])
        fell = new_sse < sse[live]
        sse[live[fell]] = new_sse[fell]
        live = live[fell]
    centers = _means(pts, assign, centers)
    sse = _sse(pts, centers, assign)
    best = int(np.argmin(sse))  # the first of equal minima
    return centers[best], assign[best], float(sse[best])


def _seed_centers(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = pts.shape[0]
    centers = np.empty((k, 2), dtype=float)
    centers[0] = pts[rng.integers(n)]
    d2 = np.sum((pts - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            # all remaining points coincide with chosen centers
            idx = rng.integers(n)
        centers[i] = pts[idx]
        d2 = np.minimum(d2, np.sum((pts - centers[i]) ** 2, axis=1))
    return centers


def _lloyd(pts: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd iterations from R center sets (R, k, 2): the final centers and (R, n) assignments.

    A run stops after the step on which none of its centers moved by ``TOL``
    or more, or after ``MAX_ITER`` steps.
    """
    centers = centers.copy()
    assign = _assign(pts, centers)
    live = np.arange(len(centers))
    for _ in range(MAX_ITER):
        new_centers = _means(pts, assign[live], centers[live])
        move = np.sqrt(np.sum((new_centers - centers[live]) ** 2, axis=2)).max(axis=1)
        centers[live] = new_centers
        assign[live] = _assign(pts, new_centers)
        live = live[move >= TOL]
        if not live.size:
            break
    return centers, assign


def _assign(pts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Each point's nearest center (lowest index on ties) under (R, k, 2) centers: (R, n)."""
    dx = pts[:, 0, None] - centers[:, None, :, 0]
    dy = pts[:, 1, None] - centers[:, None, :, 1]
    return np.argmin(dx * dx + dy * dy, axis=2)


def _cluster_sums(pts: np.ndarray, assign: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Member counts (R, k) and coordinate sums (R, k, 2) of (R, n) assignments.

    The sums are one ``bincount`` over the bins ``2 * (run * k + cluster) + axis``,
    which adds each cluster's members in index order, starting from 0.
    """
    runs = len(assign)
    bins = 2 * (assign + k * np.arange(runs)[:, None]).ravel()
    counts = np.bincount(bins, minlength=2 * runs * k)[::2]
    sums = np.bincount(
        np.concatenate((bins, bins + 1)),
        weights=pts.T.repeat(runs, axis=0).ravel(),
        minlength=2 * runs * k,
    )
    return counts.reshape(runs, k), sums.reshape(runs, k, 2)


def _means(pts: np.ndarray, assign: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Cluster means of (R, n) assignments; an empty cluster keeps its (R, k, 2) ``fallback`` row.

    The members are added in index order and divided once, so each row
    equals ``mean(axis=0)`` over the members bit for bit.
    """
    counts, sums = _cluster_sums(pts, assign, fallback.shape[1])
    counts = counts[:, :, None]
    return np.where(counts > 0, sums / np.maximum(counts, 1), fallback)


def _reassign_pass(pts: np.ndarray, assign: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """One Hartigan-Wong sweep of single-point moves per row of (R, n) assignments.

    Returns the new (R, n) assignments and whether each row moved a point.
    Points are visited in index order.  Moving x from cluster A (size na,
    mean ma) to B != A changes the SSE by nb/(nb+1)*|x-mb|^2 - na/(na-1)*|x-ma|^2;
    an empty target costs nothing and a point alone in its cluster stays.
    A point moves to the target with the lowest change (lowest index on ties)
    when that change is below -1e-12, and the move updates the cluster sums
    before the next point is visited.

    Every point before the first mover sees the clusters unchanged, so each
    step scores every point against the current clusters of every row still
    sweeping, applies in each such row the move of the first improving point
    at or after its ``start`` and resumes after it; a row with no such point
    is done.  The moves, their order and the arithmetic are those of a
    point-by-point sweep of each row.
    """
    assign = assign.copy()
    counts, sums = _cluster_sums(pts, assign, k)
    counts = counts.astype(float)
    moved = np.zeros(len(assign), dtype=bool)
    start = np.zeros(len(assign), dtype=np.intp)
    live = np.arange(len(assign))
    index = np.arange(len(pts))
    while live.size:
        count, own = counts[live], assign[live]
        # a singleton never moves, so an empty cluster stays empty with sums 0
        means = sums[live] / np.maximum(count, 1)[:, :, None]
        dx = pts[:, 0, None] - means[:, None, :, 0]
        dy = pts[:, 1, None] - means[:, None, :, 1]
        sq = dx * dx + dy * dy
        cost = (count / (count + 1))[:, None, :] * sq  # 0 for an empty target
        rows = np.arange(len(live))[:, None]
        own_count = count[rows, own]
        delta = cost - (own_count / np.maximum(own_count - 1, 1) * sq[rows, index, own])[:, :, None]
        delta[rows, index, own] = np.inf
        improves = (delta.min(axis=2) < -1e-12) & (own_count > 1) & (index >= start[live, None])
        hit = improves.any(axis=1)
        go, i = live[hit], improves[hit].argmax(axis=1)  # each row's first improving point
        a, b = own[hit, i], delta[hit, i].argmin(axis=1)
        sums[go, a] -= pts[i]
        counts[go, a] -= 1
        sums[go, b] += pts[i]
        counts[go, b] += 1
        assign[go, i] = b
        moved[go] = True
        start[go] = i + 1
        live = go[i + 1 < len(pts)]
    return assign, moved


def _sse(pts: np.ndarray, centers: np.ndarray, assign: np.ndarray) -> np.ndarray:
    """Each run's sum of squared distances to its assigned centers: (R,) float64."""
    return np.array([np.sum((pts - c[a]) ** 2) for c, a in zip(centers, assign)])


def condense(tracks: Tracks, P: int, seed: int = 0) -> Tracks:
    """Condense tracks to at most P key-point tracks.

    First-frame positions are clustered by ``kmeans_pp(starts, k, seed)``
    with k = min(P, number of distinct first-frame positions); each nonempty
    cluster is represented by its medoid track (the member whose frame-0
    point is nearest the cluster center, ties broken by lowest input index).
    The result is ordered by frame-0 position (x, then y; equal positions
    keep cluster order) so output does not depend on input order beyond the
    tie-break.
    """
    if not len(tracks):
        raise ValueError("condense requires at least one track")
    if P < 1:
        raise ValueError("P must be >= 1")
    starts = tracks.xy[:, 0]
    # a set of float pairs counts -0.0 and 0.0 as one, as np.unique(starts,
    # axis=0) does, without that call's import of numpy.ma
    k = min(P, len(set(map(tuple, starts.tolist()))))
    centers, assign, _ = kmeans_pp(starts, k, seed=seed)
    medoids = []
    for j in range(k):
        member_idx = np.flatnonzero(assign == j)
        if member_idx.size == 0:
            continue
        d2 = np.sum((starts[member_idx] - centers[j]) ** 2, axis=1)
        medoids.append(member_idx[int(np.argmin(d2))])  # argmin ties -> lowest index
    rows = np.array(medoids, dtype=np.intp)
    order = np.lexsort((starts[rows, 1], starts[rows, 0]))  # stable: x, then y
    return tracks[rows[order]]


def to_matrix(keypoints: Tracks, P: int, N: int, width: int, height: int) -> np.ndarray:
    """Resample key-point tracks onto a float64 (P, N, 2) matrix of normalized coordinates.

    With F source frames, sample k reads source frame floor(k * F / N).
    Visible samples become (x/width, y/height); invisible samples and rows
    past the keypoint count are the (-1, -1) sentinel.  A visible sample
    outside the frame fails ``_check_cells``.
    """
    if len(keypoints) > P:
        raise ValueError("more keypoints than matrix rows")
    if N < 1:
        raise ValueError("N must be >= 1")
    src = np.arange(N) * keypoints.frames // N
    coords = np.full((P, N, 2), SENTINEL)
    coords[: len(keypoints)] = np.where(
        keypoints.vis[:, src, None], keypoints.xy[:, src] / (width, height), SENTINEL
    )
    return _check_cells(coords)


def _check_cells(coords: np.ndarray) -> np.ndarray:
    """``coords``, unless a cell is neither in [0,1]^2 nor the (-1, -1) sentinel (ValueError)."""
    inside = ((coords >= 0.0) & (coords <= 1.0)).all(axis=-1)
    valid = inside | (coords == SENTINEL).all(axis=-1)
    if not valid.all():
        cell = tuple(coords[~valid][0].tolist())
        raise ValueError(f"invalid cell {cell}: must be in [0,1]^2 or (-1,-1)")
    return coords


# --- file formats ----------------------------------------------------------


def track_arrays(track: dict, frames: int) -> tuple[np.ndarray, np.ndarray]:
    """One track's float64 (frames, 2) ``xy`` and bool (frames,) ``vis`` arrays.

    ``xy`` must hold ``frames`` (x, y) pairs of JSON numbers (not bools) and
    ``vis`` ``frames`` JSON booleans, else ValueError or TypeError; finiteness
    is left to ``Tracks``.
    """
    xy, vis = track["xy"], track["vis"]
    pairs = list(xy)  # a number or null xy fails as not iterable before the length check
    if {len(pairs), len(vis)} - {frames} or set(map(len, pairs)) - {2}:
        raise ValueError(f"each track needs {frames} (x, y) pairs and {frames} vis flags")
    flat = list(chain.from_iterable(pairs))
    if set(map(type, flat)) - {int, float} or set(map(type, vis)) - {bool}:
        raise TypeError("xy entries must be JSON numbers and vis entries JSON booleans")
    return np.fromiter(flat, float).reshape(frames, 2), np.fromiter(vis, bool)


def decode_track(obj: dict) -> object:
    """``json`` object_hook: a track becomes its ``(xy, vis)`` arrays as the decoder closes it.

    Only an object with exactly the keys ``xy`` and ``vis`` that ``track_arrays``
    accepts converts.  Any other object, the clip and a bad track included, is
    returned unchanged: ``ClipTracks.from_json`` converts a bad track again and
    raises its error under the clip's name.
    """
    if obj.keys() == {"xy", "vis"}:
        try:
            return track_arrays(obj, len(obj["xy"]))
        except BAD_INPUT:
            pass
    return obj


@dataclass
class ClipTracks:
    """One tracked clip: dimensions and its point tracks."""

    clip_id: str
    width: int
    height: int
    tracks: Tracks

    @classmethod
    def from_json(cls, obj: dict) -> "ClipTracks":
        """Parse one clip; DataError naming the clip on tracks that do not fit ``frames``.

        ``clip_id`` is a nonempty string.  Each track is an ``(xy, vis)`` array
        pair that ``decode_track`` made while the line was decoded, or an object
        that ``track_arrays`` converts here (raising its error for a bad track);
        every track must have ``frames`` frames, and the pairs are stacked into
        one ``Tracks``.  A decoded track of another length is reported before
        any track that does not convert.
        """
        clip_id = text(obj["clip_id"], "clip_id")
        frames = integer(obj["frames"], "frames")
        rows = obj["tracks"]
        with naming(f"clip {clip_id}"):
            if any(isinstance(row, tuple) and len(row[1]) != frames for row in rows):
                raise ValueError(f"each track needs {frames} (x, y) pairs and {frames} vis flags")
            pairs = [row if isinstance(row, tuple) else track_arrays(row, frames) for row in rows]
            tracks = Tracks(
                xy=np.array([xy for xy, _ in pairs], dtype=float).reshape(len(rows), frames, 2),
                vis=np.array([vis for _, vis in pairs], dtype=bool).reshape(len(rows), frames),
            )
        return cls(
            clip_id=clip_id,
            width=integer(obj["width"], "width"),
            height=integer(obj["height"], "height"),
            tracks=tracks,
        )


def iter_clip_tracks(path: str | Path) -> Iterator[ClipTracks]:
    """Read a JSONL track file, one clip per line; a bad or repeated clip raises DataError.

    Each track is decoded into its arrays by ``decode_track`` as the line is
    parsed, so a line's nested lists are never all alive at once.
    """
    yield from read_jsonl(path, unique(ClipTracks.from_json, "clip_id"), object_hook=decode_track)


def matrix_to_json(coords: np.ndarray) -> dict:
    """The record form of a (P, N, 2) trajectory matrix."""
    points, frames, _ = coords.shape
    return {"points": points, "frames": frames, "coords": coords.tolist()}


def matrix_from_json(obj: dict) -> np.ndarray:
    """Read one record matrix as a float64 (P, N, 2) array, in one typed pass over its ``coords``.

    ``coords`` holds ``points`` rows of ``frames`` (x, y) pairs of JSON
    numbers (not bools); a ragged or misdeclared shape raises ValueError
    and any other entry TypeError.  The same checks that ``track_arrays``
    makes per track run here over the whole matrix at once, then
    ``_check_cells``.
    """
    points, frames = integer(obj["points"], "points"), integer(obj["frames"], "frames")
    rows = obj["coords"]
    cells = list(chain.from_iterable(rows))
    if len(rows) != points or set(map(len, rows)) - {frames} or set(map(len, cells)) - {2}:
        raise ValueError(f"coords shape is not ({points}, {frames}, 2)")
    flat = list(chain.from_iterable(cells))
    if set(map(type, flat)) - {int, float}:
        raise TypeError("coords entries must be JSON numbers")
    return _check_cells(np.array(flat, dtype=float).reshape(points, frames, 2))


def load_mask(path: str | Path) -> np.ndarray:
    """Read a mask file as a (height, width) bool array; a bad file raises DataError naming ``path``.

    ``rle`` holds row-major run lengths, alternating background and foreground from background.
    """
    with open(path, encoding="utf-8") as handle, naming(path):
        obj = json.load(handle)
        runs = [integer(run, "rle run") for run in obj["rle"]]
        width, height = integer(obj["width"], "width"), integer(obj["height"], "height")
        if width <= 0 or height <= 0:
            raise ValueError("mask dimensions must be positive")
        if any(run < 0 for run in runs):
            raise ValueError("negative run length")
        if sum(runs) != width * height:
            raise ValueError(f"runs cover {sum(runs)} cells, expected {width * height}")
        return np.repeat(np.arange(len(runs)) % 2 == 1, runs).reshape(height, width)


def save_mask(mask: np.ndarray, path: str | Path) -> None:
    """Write a (height, width) bool array as the mask file ``load_mask`` reads."""
    mask = np.asarray(mask, dtype=bool)
    height, width = mask.shape
    flat = mask.reshape(-1)
    changes = np.flatnonzero(np.diff(flat)) + 1
    runs = np.diff(np.concatenate(([0], changes, [flat.size]))).tolist()
    if flat[:1].any():
        runs.insert(0, 0)  # the first run is always background
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"width": width, "height": height, "rle": runs}, handle)
