"""Temporal grounding and dense captioning metrics.

Caption metrics use a fixed preprocessing: lowercase, punctuation stripped
to spaces, whitespace tokenization.  METEOR here is the exact-match-only
variant (no stemming or synonym tables), so scores are deterministic and
dependency-free; it is named meteor_lite to flag the deviation.  Scorers
take captions prepared once as ``Caption``; SODA and the bucketed scores
take a video's ``iou_table`` and score pairs by index.  ``TimeSegment`` and
``CaptionedEvent`` are named tuples, so the eval commands need no
``dataclasses``.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

GROUNDING_THRESHOLDS = (0.3, 0.5, 0.7)  # Recall@1 IoU thresholds
CAPTION_IOU_THRESHOLDS = (0.3, 0.5, 0.7, 0.9)  # iou_bucketed_caption_scores
CIDER_MAX_N = 4  # CIDEr n-gram orders 1..4


class TimeSegment(NamedTuple("TimeSegment", [("start", float), ("end", float)])):
    __slots__ = ()

    def __new__(cls, start: float, end: float):
        if not (math.isfinite(start) and math.isfinite(end)):
            raise ValueError(f"segment bounds must be finite, got {start}, {end}")
        if start > end:
            raise ValueError(f"segment start {start} > end {end}")
        return super().__new__(cls, start, end)

    def length(self) -> float:
        return self.end - self.start


class CaptionedEvent(NamedTuple):
    segment: TimeSegment
    caption: str


_PUNCT = re.compile(r"[^\w\s]", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase, strip punctuation to spaces, whitespace split."""
    return _PUNCT.sub(" ", text.lower()).split()


def _ngrams(tokens: Sequence[str], n: int) -> Iterator[tuple[str, ...]]:
    """The n-gram tuples of ``tokens`` in order, repeats included."""
    return zip(*[tokens[i:] for i in range(n)])


class Caption:
    """A caption tokenized once for every scorer.

    ``tokens`` is ``tokenize(text)``; ``ngrams`` counts the n-gram tuples of
    orders 1..CIDER_MAX_N, the orders in turn (order n ends at index
    ``ends[n - 1]``), each in order of first occurrence; ``positions`` maps
    each token to its indices for METEOR to align against (None unless ``reference``).
    """

    __slots__ = ("tokens", "ngrams", "ends", "positions")

    def __init__(self, text: str, reference: bool = True):
        self.tokens = tokenize(text)
        self.ngrams: Counter = Counter()
        self.ends: list[int] = []
        for n in range(1, CIDER_MAX_N + 1):
            self.ngrams.update(_ngrams(self.tokens, n))
            self.ends.append(len(self.ngrams))
        self.positions: dict | None = {} if reference else None
        for i, token in enumerate(self.tokens if reference else ()):
            self.positions.setdefault(token, []).append(i)


def temporal_iou(a: TimeSegment, b: TimeSegment) -> float:
    """Intersection over union of two segments; 0 when the union has no length."""
    inter = max(0.0, min(a.end, b.end) - max(a.start, b.start))
    union = a.length() + b.length() - inter
    if union <= 0:
        return 0.0
    return inter / union


def iou_table(preds: Sequence[TimeSegment], gts: Sequence[TimeSegment]) -> list[list[float]]:
    """``temporal_iou`` of every pair: row j holds ground truth j against each prediction."""
    return [[temporal_iou(pred, gt) for pred in preds] for gt in gts]


def grounding_scores(
    preds: Sequence[TimeSegment | None], gts: Sequence[TimeSegment]
) -> dict:
    """Recall@1 at each of ``GROUNDING_THRESHOLDS`` plus mean IoU over index-aligned pairs.

    A ``None`` prediction is a miss: its IoU is 0.
    """
    if len(preds) != len(gts):
        raise ValueError(f"{len(preds)} predictions vs {len(gts)} ground truths")
    if not gts:
        return {"r_at": {m: 0.0 for m in GROUNDING_THRESHOLDS}, "miou": 0.0}
    ious = [0.0 if p is None else temporal_iou(p, g) for p, g in zip(preds, gts)]
    return {
        "r_at": {m: sum(v >= m for v in ious) / len(ious) for m in GROUNDING_THRESHOLDS},
        "miou": sum(ious) / len(ious),
    }


# --- CIDEr -------------------------------------------------------------------


def build_idf(captions: Sequence[Caption]) -> dict[tuple[str, ...], float]:
    """idf(g) = log(|captions| / df(g)) for every n-gram, n = 1..CIDER_MAX_N.

    df(g) counts the captions containing ``g``; an n-gram is a tuple of n
    tokens, so one dict serves every order.
    """
    if not captions:
        raise ValueError("captions must be nonempty")
    df: Counter = Counter()
    for caption in captions:
        df.update(caption.ngrams.keys())
    n = len(captions)
    return {g: math.log(n / c) for g, c in df.items()}


def tfidf_vectors(
    caption: Caption, idf: Mapping[tuple[str, ...], float]
) -> tuple[dict[tuple[str, ...], float], list[float]]:
    """TF-IDF weight of each n-gram of ``caption``, and the L2 norm of each order 1..CIDER_MAX_N."""
    vec = {g: idf.get(g, 0.0) * tf for g, tf in caption.ngrams.items()}
    weights = list(vec.values())
    bounds = zip([0, *caption.ends], caption.ends)
    return vec, [math.sqrt(sum([v * v for v in weights[a:b]])) for a, b in bounds]


def cider(candidate: tuple[dict, list[float]], ref: tuple[dict, list[float]]) -> float:
    """Per-n cosine of two ``tfidf_vectors`` results (one ``idf``), averaged over n, times 10."""
    cand_vec, cand_norms = candidate
    ref_vec, ref_norms = ref
    dots: list[list[float]] = [[] for _ in range(CIDER_MAX_N)]
    for g, v in cand_vec.items():
        w = ref_vec.get(g)
        if w is not None:
            dots[len(g) - 1].append(v * w)
    total = 0.0
    for terms, cand_norm, ref_norm in zip(dots, cand_norms, ref_norms):
        if cand_norm and ref_norm:
            total += sum(terms) / (cand_norm * ref_norm)
    return 10.0 * total / CIDER_MAX_N


# --- METEOR (exact-match variant) ---------------------------------------------


def meteor_lite(candidate: Caption, ref: Caption) -> float:
    """Unigram exact-match METEOR: F_mean = 10PR/(R+9P) with a chunk penalty.

    Alignment is greedy, left to right over the candidate: each candidate
    token takes the reference position right after the previous match when
    that position holds the same token and is unused, else the first unused
    occurrence.  This need not give the fewest chunks.
    """
    rtok = ref.tokens
    if not candidate.tokens or not rtok:
        return 0.0
    used = [False] * len(rtok)
    matches = chunks = 0
    after = len(rtok)  # the position after the previous match; len(rtok) after a miss
    for tok in candidate.tokens:
        if after < len(rtok) and rtok[after] == tok and not used[after]:
            ri = after  # extends the current chunk
        else:
            for ri in ref.positions.get(tok, ()):
                if not used[ri]:
                    break
            else:
                after = len(rtok)
                continue
            chunks += 1
        used[ri] = True
        matches += 1
        after = ri + 1
    if matches == 0:
        return 0.0
    precision = matches / len(candidate.tokens)
    recall = matches / len(rtok)
    f_mean = 10 * precision * recall / (recall + 9 * precision)
    penalty = 0.5 * (chunks / matches) ** 3
    return f_mean * (1.0 - penalty)


# --- SODA ----------------------------------------------------------------------


def _by_time(segments: Sequence[TimeSegment]) -> list[int]:
    return sorted(range(len(segments)), key=lambda k: (segments[k].start, segments[k].end))


def soda_c(
    preds: Sequence[TimeSegment],
    gts: Sequence[TimeSegment],
    ious: Sequence[Sequence[float]],
    scorer: Callable[[int, int], float],
) -> float:
    """Story-oriented dense-captioning score.

    Dynamic programming finds the temporally order-preserving one-to-one
    matching maximizing the sum of IoU(pred, gt) * scorer(pred, gt); the
    result is the harmonic mean of sum/|preds| and sum/|gts|.  ``ious`` is
    ``iou_table(preds, gts)``; ``scorer(i, j)`` scores prediction i against
    ground truth j and runs only on pairs that overlap (IoU > 0), the others
    contribute 0.
    """
    if not preds or not gts:
        return 0.0
    gt_order = _by_time(gts)
    # prev[j]: best total over the predictions so far x the first j ground truths
    prev = [0.0] * (len(gts) + 1)
    for i in _by_time(preds):
        row = [0.0]
        for j, g in enumerate(gt_order):
            iou = ious[g][i]
            score = iou * scorer(i, g) if iou > 0 else 0.0
            row.append(max(prev[j + 1], row[j], prev[j] + score))
        prev = row
    best = prev[-1]
    precision = best / len(preds)
    recall = best / len(gts)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def iou_bucketed_caption_scores(
    ious: Sequence[Sequence[float]], metric: Callable[[int, int], float]
) -> float:
    """Average caption score over IoU-thresholded greedy matchings.

    ``ious`` is ``iou_table(preds, gts)``.  Per threshold of
    ``CAPTION_IOU_THRESHOLDS``, each ground truth j (in order) is matched
    to the unmatched prediction i with the highest IoU >= threshold
    (prediction ties by lowest index) and scores ``metric(i, j)``;
    unmatched ground truths score 0.  The per-threshold means are averaged.
    """
    if not ious:
        return 0.0
    per_threshold = []
    for threshold in CAPTION_IOU_THRESHOLDS:
        used: set[int] = set()
        total = 0.0
        for j, gt_ious in enumerate(ious):
            best_iou, best_idx = -1.0, None
            for idx, iou in enumerate(gt_ious):
                if idx not in used and iou >= threshold and iou > best_iou:
                    best_iou, best_idx = iou, idx
            if best_idx is not None:
                used.add(best_idx)
                total += metric(best_idx, j)
        per_threshold.append(total / len(ious))
    return sum(per_threshold) / len(per_threshold)
