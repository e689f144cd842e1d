"""Temporal grounding and dense captioning metrics.

Caption metrics use a fixed preprocessing: lowercase, punctuation stripped
to spaces, whitespace tokenization.  METEOR here is the exact-match-only
variant (no stemming or synonym tables), so scores are deterministic and
dependency-free; it is named meteor_lite to flag the deviation.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

GROUNDING_THRESHOLDS = (0.3, 0.5, 0.7)  # Recall@1 IoU thresholds
CAPTION_IOU_THRESHOLDS = (0.3, 0.5, 0.7, 0.9)  # iou_bucketed_caption_scores
CIDER_MAX_N = 4  # CIDEr n-gram orders 1..4


@dataclass(frozen=True)
class TimeSegment:
    start: float
    end: float

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise ValueError(f"segment bounds must be finite, got {self.start}, {self.end}")
        if self.start > self.end:
            raise ValueError(f"segment start {self.start} > end {self.end}")

    def length(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class CaptionedEvent:
    segment: TimeSegment
    caption: str


_PUNCT = re.compile(r"[^\w\s]", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase, strip punctuation to spaces, whitespace split."""
    return _PUNCT.sub(" ", text.lower()).split()


def temporal_iou(a: TimeSegment, b: TimeSegment) -> float:
    """Intersection over union of two segments; 0 when the union has no length."""
    inter = max(0.0, min(a.end, b.end) - max(a.start, b.start))
    union = a.length() + b.length() - inter
    if union <= 0:
        return 0.0
    return inter / union


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


def _ngrams(tokens: Sequence[str], n: int) -> Iterator[tuple[str, ...]]:
    """The n-gram tuples of ``tokens`` in order, repeats included."""
    return zip(*(tokens[i:] for i in range(n)))


def build_idf(captions: Sequence[str]) -> dict[tuple[str, ...], float]:
    """idf(g) = log(|captions| / df(g)) for every n-gram, n = 1..CIDER_MAX_N.

    df(g) counts the captions containing ``g``; an n-gram is a tuple of n
    tokens, so one dict serves every order.
    """
    if not captions:
        raise ValueError("captions must be nonempty")
    df: Counter = Counter()
    for caption in captions:
        tokens = tokenize(caption)
        df.update({g for n in range(1, CIDER_MAX_N + 1) for g in _ngrams(tokens, n)})
    return {g: math.log(len(captions) / c) for g, c in df.items()}


def tfidf_vectors(caption: str, idf: Mapping[tuple[str, ...], float]) -> list[tuple[dict, float]]:
    """TF-IDF vector and its L2 norm per n = 1..CIDER_MAX_N; [] for a token-free caption."""
    tokens = tokenize(caption)
    if not tokens:
        return []
    out = []
    for n in range(1, CIDER_MAX_N + 1):
        # Counter keeps first-occurrence order, which fixes the order of the norm's sum
        vec = {g: tf * idf.get(g, 0.0) for g, tf in Counter(_ngrams(tokens, n)).items()}
        out.append((vec, math.sqrt(sum(v * v for v in vec.values()))))
    return out


def cider(candidate: list[tuple[dict, float]], ref: list[tuple[dict, float]]) -> float:
    """Per-n cosine of two ``tfidf_vectors`` results (one ``idf``), averaged over n, times 10."""
    total = 0.0
    for (cand_vec, cand_norm), (ref_vec, ref_norm) in zip(candidate, ref):
        if cand_norm and ref_norm:
            dot = sum(v * ref_vec[g] for g, v in cand_vec.items() if g in ref_vec)
            total += dot / (cand_norm * ref_norm)
    return 10.0 * total / CIDER_MAX_N


# --- METEOR (exact-match variant) ---------------------------------------------


def meteor_lite(candidate: str, ref: str) -> float:
    """Unigram exact-match METEOR: F_mean = 10PR/(R+9P) with a chunk penalty.

    Alignment is greedy, left to right over the candidate: each candidate
    token takes the reference position right after the previous match when
    that position holds the same token and is unused, else the first unused
    occurrence.  This need not give the fewest chunks.
    """
    cand = tokenize(candidate)
    rtok = tokenize(ref)
    if not cand or not rtok:
        return 0.0
    positions: dict[str, list[int]] = {}
    for i, tok in enumerate(rtok):
        positions.setdefault(tok, []).append(i)
    used = set()
    pairs: list[tuple[int, int]] = []  # (candidate index, reference index)
    prev_ref = None
    for ci, tok in enumerate(cand):
        open_slots = [i for i in positions.get(tok, ()) if i not in used]
        if not open_slots:
            prev_ref = None
            continue
        if prev_ref is not None and prev_ref + 1 in open_slots:
            ri = prev_ref + 1
        else:
            ri = open_slots[0]
        used.add(ri)
        pairs.append((ci, ri))
        prev_ref = ri
    matches = len(pairs)
    if matches == 0:
        return 0.0
    chunks = 1
    for (c0, r0), (c1, r1) in zip(pairs, pairs[1:]):
        if c1 != c0 + 1 or r1 != r0 + 1:
            chunks += 1
    precision = matches / len(cand)
    recall = matches / len(rtok)
    f_mean = 10 * precision * recall / (recall + 9 * precision)
    penalty = 0.5 * (chunks / matches) ** 3
    return f_mean * (1.0 - penalty)


# --- SODA ----------------------------------------------------------------------


def soda_c(
    preds: Sequence[CaptionedEvent],
    gts: Sequence[CaptionedEvent],
    scorer: Callable[[str, str], float] = meteor_lite,
) -> float:
    """Story-oriented dense-captioning score.

    Dynamic programming finds the temporally order-preserving one-to-one
    matching maximizing the sum of IoU(pred, gt) * scorer(captions); the
    result is the harmonic mean of sum/|preds| and sum/|gts|.  ``scorer``
    runs only on pairs that overlap (IoU > 0); the others contribute 0.
    """
    if not preds or not gts:
        return 0.0
    preds = sorted(preds, key=lambda e: (e.segment.start, e.segment.end))
    gts = sorted(gts, key=lambda e: (e.segment.start, e.segment.end))
    n, m = len(preds), len(gts)
    score = [[0.0] * m for _ in range(n)]
    for i, p in enumerate(preds):
        for j, g in enumerate(gts):
            iou = temporal_iou(p.segment, g.segment)
            if iou > 0:
                score[i][j] = iou * scorer(p.caption, g.caption)
    # dp[i][j]: best total over preds[:i] x gts[:j]
    dp = [[0.0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            dp[i][j] = max(
                dp[i - 1][j],
                dp[i][j - 1],
                dp[i - 1][j - 1] + score[i - 1][j - 1],
            )
    best = dp[n][m]
    precision = best / n
    recall = best / m
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def iou_bucketed_caption_scores(
    preds: Sequence[CaptionedEvent],
    gts: Sequence[CaptionedEvent],
    metric: Callable[[str, str], float],
) -> float:
    """Average caption score over IoU-thresholded greedy matchings.

    Per threshold of ``CAPTION_IOU_THRESHOLDS``, each ground truth (in
    order) is matched to the unmatched prediction with the highest
    IoU >= threshold (prediction ties by lowest index); unmatched ground
    truths score 0.  The per-threshold means are averaged.
    """
    if not gts:
        return 0.0
    ious = [[temporal_iou(pred.segment, gt.segment) for pred in preds] for gt in gts]
    per_threshold = []
    for threshold in CAPTION_IOU_THRESHOLDS:
        used: set[int] = set()
        total = 0.0
        for gt, gt_ious in zip(gts, ious):
            best_iou = -1.0
            best_idx = None
            for idx, iou in enumerate(gt_ious):
                if idx in used:
                    continue
                if iou >= threshold and iou > best_iou:
                    best_iou = iou
                    best_idx = idx
            if best_idx is not None:
                used.add(best_idx)
                total += metric(preds[best_idx].caption, gt.caption)
        per_threshold.append(total / len(gts))
    return sum(per_threshold) / len(per_threshold)
