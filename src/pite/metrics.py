"""Temporal grounding and dense captioning metrics.

Caption metrics use a fixed preprocessing: lowercase, punctuation stripped
to spaces, whitespace tokenization.  METEOR here is the exact-match-only
variant (no stemming or synonym tables), so scores are deterministic and
dependency-free; it is named meteor_lite to flag the deviation.  ``cider``
is plain CIDEr, not CIDEr-D: it neither clips candidate weights nor
penalizes length differences.  Scorers take captions prepared once as
``Caption``, whose n-grams are keyed by strings: a unigram by its token, a
longer n-gram by its tokens joined with one space (no token holds
whitespace, so keys of different orders never collide).  SODA and the
bucketed scores take a video's ``iou_table`` and score pairs by index.
``TimeSegment`` and ``CaptionedEvent`` are named tuples, so the eval
commands need no ``dataclasses``.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from itertools import islice
from typing import Callable, Mapping, NamedTuple, Sequence

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


class CaptionedEvent(NamedTuple):
    segment: TimeSegment
    caption: str


_PUNCT = re.compile(r"[^\w\s]", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase, strip punctuation to spaces, whitespace split."""
    return _PUNCT.sub(" ", text.lower()).split()


class Caption:
    """A caption tokenized once for every scorer.

    ``tokens`` is ``tokenize(text)``; ``ngrams`` counts the n-grams of
    orders 1..CIDER_MAX_N, keyed by the token for n = 1 and else by the n
    tokens joined with one space, the orders in turn (order n ends at index
    ``ends[n - 1]``), each in order of first occurrence; ``positions`` maps
    each token to its indices for METEOR to align against (None unless
    ``reference``).
    """

    __slots__ = ("tokens", "ngrams", "ends", "positions")

    def __init__(self, text: str, reference: bool = True):
        self.tokens = grams = tokenize(text)
        self.ngrams: Counter = Counter(grams)
        self.ends: list[int] = [len(self.ngrams)]
        for n in range(2, CIDER_MAX_N + 1):
            # an n-gram's key is its first n - 1 tokens' key, a space and its last token
            grams = list(map(" ".join, zip(grams, self.tokens[n - 1 :])))
            self.ngrams.update(grams)
            self.ends.append(len(self.ngrams))
        self.positions: dict | None = {} if reference else None
        for i, token in enumerate(self.tokens if reference else ()):
            self.positions.setdefault(token, []).append(i)


def temporal_iou(a: TimeSegment, b: TimeSegment) -> float:
    """Intersection over union of two segments: ``iou_table`` of the one pair."""
    return iou_table((a,), (b,))[0][0]


def iou_table(preds: Sequence[TimeSegment], gts: Sequence[TimeSegment]) -> list[list[float]]:
    """Intersection over union of every pair, 0 when the union has no length.

    Row j holds ground truth j against each prediction in turn.
    """
    spans = [(start, end, end - start) for start, end in preds]
    table = []
    for gt_start, gt_end in gts:
        gt_length = gt_end - gt_start
        row = []
        for start, end, length in spans:
            # max(0.0, min(end, gt_end) - max(start, gt_start)), with each
            # builtin's pick on ties, without its call
            overlap = (gt_end if gt_end < end else end) - (gt_start if gt_start > start else start)
            inter = overlap if overlap > 0.0 else 0.0
            union = length + gt_length - inter
            row.append(inter / union if union > 0 else 0.0)
        table.append(row)
    return table


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


def build_idf(captions: Sequence[Caption]) -> dict[str, float]:
    """idf(g) = log(|captions| / df(g)) for every n-gram key, n = 1..CIDER_MAX_N.

    df(g) counts the captions containing ``g``; keys of different orders
    never collide, so one dict serves every order.
    """
    if not captions:
        raise ValueError("captions must be nonempty")
    df: Counter = Counter()
    for caption in captions:
        df.update(caption.ngrams.keys())
    n = len(captions)
    return {g: math.log(n / c) for g, c in df.items()}


def tfidf_vectors(
    caption: Caption, idf: Mapping[str, float]
) -> tuple[dict[str, float], list[float], list[int]]:
    """TF-IDF weight of each n-gram of ``caption``, the L2 norm of each order
    1..CIDER_MAX_N, and ``caption.ends``, where each order's weights end."""
    vec = {g: idf.get(g, 0.0) * tf for g, tf in caption.ngrams.items()}
    weights = list(vec.values())
    bounds = zip([0, *caption.ends], caption.ends)
    return vec, [math.sqrt(sum([v * v for v in weights[a:b]])) for a, b in bounds], caption.ends


def cider(
    candidate: tuple[dict, list[float], list[int]], ref: tuple[dict, list[float], list[int]]
) -> float:
    """Per-n cosine of two ``tfidf_vectors`` results (one ``idf``), averaged over n, times 10.

    Plain CIDEr: candidate weights are not clipped and length differences
    are not penalized.
    """
    cand_vec, cand_norms, cand_ends = candidate
    ref_vec, ref_norms, _ = ref
    ref_weight = ref_vec.get
    weights = iter(cand_vec.items())
    total = 0.0
    start = 0
    for end, cand_norm, ref_norm in zip(cand_ends, cand_norms, ref_norms):
        order = islice(weights, end - start)
        terms = [v * w for g, v in order if (w := ref_weight(g)) is not None]
        start = end
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
