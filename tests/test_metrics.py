import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_soda

from pite.metrics import (
    Caption,
    CaptionedEvent,
    TimeSegment,
    build_idf,
    cider,
    grounding_scores,
    iou_bucketed_caption_scores,
    iou_table,
    meteor_lite,
    soda_c,
    temporal_iou,
    tfidf_vectors,
    tokenize,
)


def seg(a, b):
    return TimeSegment(a, b)


def ev(a, b, caption):
    return CaptionedEvent(segment=seg(a, b), caption=caption)


def idf_of(corpus):
    return build_idf([Caption(c) for c in corpus])


def meteor(candidate, ref):
    return meteor_lite(Caption(candidate), Caption(ref))


def caption_scores(preds, gts, score=meteor_lite):
    """Segments, IoU table and index scorer of two event lists for ``soda_c``
    and ``iou_bucketed_caption_scores``; ``score`` takes prepared captions."""
    cands, refs = [Caption(e.caption) for e in preds], [Caption(e.caption) for e in gts]
    pred_segments, gt_segments = [e.segment for e in preds], [e.segment for e in gts]
    ious = iou_table(pred_segments, gt_segments)
    return pred_segments, gt_segments, ious, lambda i, j: score(cands[i], refs[j])


def soda(preds, gts, score=meteor_lite):
    return soda_c(*caption_scores(preds, gts, score))


def bucketed(preds, gts, score):
    _, _, ious, scorer = caption_scores(preds, gts, score)
    return iou_bucketed_caption_scores(ious, scorer)


# --- temporal IoU / grounding ---------------------------------------------------


def test_iou_identity():
    assert temporal_iou(seg(0, 10), seg(0, 10)) == 1.0


def test_iou_touching():
    assert temporal_iou(seg(0, 5), seg(5, 10)) == 0.0


def test_iou_partial():
    assert temporal_iou(seg(0, 6), seg(4, 10)) == pytest.approx(0.2)


def test_iou_degenerate_union():
    assert temporal_iou(seg(3, 3), seg(3, 3)) == 0.0


def test_segment_validation():
    with pytest.raises(ValueError):
        seg(5, 1)


def test_grounding_perfect():
    gts = [seg(0, 4), seg(2, 9)]
    out = grounding_scores(gts, gts)
    assert out["miou"] == 1.0
    assert all(v == 1.0 for v in out["r_at"].values())


def test_grounding_disjoint():
    out = grounding_scores([seg(0, 1), seg(2, 3)], [seg(5, 6), seg(7, 8)])
    assert out["miou"] == 0.0
    assert all(v == 0.0 for v in out["r_at"].values())


def test_grounding_mixed():
    # engineered IoUs {0.8, 0.4, 0.6}
    preds = [seg(0, 8), seg(0, 4), seg(0, 6)]
    gts = [seg(0, 10), seg(0, 10), seg(0, 10)]
    out = grounding_scores(preds, gts)
    assert out["r_at"][0.3] == 1.0
    assert out["r_at"][0.5] == pytest.approx(2 / 3)
    assert out["r_at"][0.7] == pytest.approx(1 / 3)
    assert out["miou"] == pytest.approx(0.6)


def test_grounding_length_mismatch():
    with pytest.raises(ValueError):
        grounding_scores([seg(0, 1)], [])


@given(
    st.lists(
        st.tuples(st.floats(0, 50), st.floats(0, 50)).map(
            lambda t: seg(min(t), max(t))
        ),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=50, deadline=None)
def test_iou_properties(segments):
    a = segments[0]
    for b in segments:
        v = temporal_iou(a, b)
        assert 0.0 <= v <= 1.0
        assert v == temporal_iou(b, a)
    if a.end > a.start:
        assert temporal_iou(a, a) == 1.0
    out = grounding_scores(segments, segments[::-1])
    r = [out["r_at"][m] for m in (0.3, 0.5, 0.7)]
    assert r[0] >= r[1] >= r[2]


def reference_iou(a, b):
    """Oracle: the IoU of one pair, with the min and max builtins and both lengths."""
    inter = max(0.0, min(a.end, b.end) - max(a.start, b.start))
    union = (a.end - a.start) + (b.end - b.start) - inter
    return inter / union if union > 0 else 0.0


def test_iou_table_matches_temporal_iou_bit_for_bit():
    rng = np.random.default_rng(23)
    # zero-length (2-2, 4-4), identical (0-4 twice), touching (0-4, 4-7),
    # nested (1-3 in 0-4, everything in -1.5-9) and disjoint pairs
    fixed = [
        seg(2, 2), seg(0, 4), seg(0, 4), seg(4, 7), seg(1, 3), seg(-1.5, 9), seg(4, 4), seg(8, 9)
    ]

    def draw():
        k = int(rng.integers(0, 6))
        # half-unit grid, so ends meet and segments repeat; a fifth have length 0
        starts, lengths = rng.integers(-2, 12, size=k) / 2, rng.integers(0, 5, size=k) / 2
        drawn = [seg(float(a), float(a + b)) for a, b in zip(starts, lengths)]
        picked = [fixed[i] for i in rng.choice(len(fixed), size=int(rng.integers(0, 4)))]
        return drawn + picked if rng.random() < 0.5 else picked + drawn

    for _ in range(300):
        preds, gts = draw(), draw()
        table = iou_table(preds, gts)
        assert len(table) == len(gts)
        for gt, row in zip(gts, table):
            assert len(row) == len(preds)
            for pred, iou in zip(preds, row):
                assert iou.hex() == temporal_iou(pred, gt).hex() == reference_iou(pred, gt).hex()


# --- CIDEr ------------------------------------------------------------------------


def score_cider(candidate, ref, idf):
    return cider(tfidf_vectors(Caption(candidate), idf), tfidf_vectors(Caption(ref), idf))


def test_cider_perfect_match_scores_ten():
    idf = idf_of(["a big dog runs today", "yellow cats sleep deeply now"])
    score = score_cider("a big dog runs today", "a big dog runs today", idf)
    assert score == pytest.approx(10.0, abs=1e-9)


def test_cider_no_overlap():
    idf = idf_of(["the cat sat", "a dog ran"])
    assert score_cider("elephants fly north", "the cat sat", idf) == 0.0


def test_cider_empty_candidate():
    assert score_cider("", "the cat sat", idf_of(["the cat sat"])) == 0.0


def test_build_idf_rejects_empty_corpus():
    with pytest.raises(ValueError, match="nonempty"):
        build_idf([])


def test_cider_hand_computed_fixture():
    # corpus of three references; candidate "the cat sat" vs D1
    corpus = ["the cat sat on the mat", "a dog runs fast", "the dog sat"]
    # unigram dfs: the->2, cat->1, sat->2, on/mat->1
    l15, l3 = math.log(1.5), math.log(3.0)
    cos1 = (3 * l15**2 + l3**2) / (
        math.sqrt(2 * l15**2 + l3**2) * math.sqrt(5 * l15**2 + 3 * l3**2)
    )
    cos2 = 2 / math.sqrt(10)  # both bigrams shared, ref has 5 bigrams all idf log 3
    cos3 = 0.5  # one shared trigram of ref's four
    expected = 10.0 * (cos1 + cos2 + cos3 + 0.0) / 4
    got = score_cider("the cat sat", "the cat sat on the mat", idf_of(corpus))
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(4.4583, abs=1e-3)


@given(st.text(alphabet="abc XYZ.,!", min_size=0, max_size=30))
@settings(max_examples=40, deadline=None)
def test_cider_case_invariance(text):
    idf = idf_of(["a b c", "x y z", text or "filler words here"])
    up = score_cider(text.upper(), (text or "q").upper(), idf)
    lo = score_cider(text.lower(), (text or "q").lower(), idf)
    assert up == pytest.approx(lo, abs=1e-12)


def reference_idf(corpus):
    """Oracle: IDF per n-gram (its tokens joined with one space), each caption tokenized once per n."""
    df = Counter()
    for n in range(1, 5):
        for caption in corpus:
            tokens = tokenize(caption)
            df.update({" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)})
    return {g: math.log(len(corpus) / c) for g, c in df.items()}


def reference_cider(candidate, ref, idf):
    """Oracle: CIDEr of one pair, rebuilding both TF-IDF vectors and norms on each call."""

    def vector(tokens, n):
        counts = Counter(" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1))
        return Counter({g: tf * idf.get(g, 0.0) for g, tf in counts.items()})

    def cosine(a, b):
        na = math.sqrt(sum(v * v for v in a.values()))
        nb = math.sqrt(sum(v * v for v in b.values()))
        if na == 0 or nb == 0:
            return 0.0
        return sum(v * b[g] for g, v in a.items() if g in b) / (na * nb)

    cand_tokens = tokenize(candidate)
    if not cand_tokens:
        return 0.0
    total = 0.0
    for n in range(1, 5):
        total += cosine(vector(cand_tokens, n), vector(tokenize(ref), n))
    return 10.0 * total / 4


def test_cider_matches_reference_bit_for_bit():
    rng = np.random.default_rng(5)
    words = ["a", "dog", "runs", "the", "red", "ball", "Dog", "runs!", "far"]
    unseen = ["zebra", "quietly", "violet"]  # never in a reference: n-grams missing from the IDF
    token_free = ["", "...", "?! ,"]

    def caption(pool):
        if rng.random() < 0.1:
            return str(rng.choice(token_free))
        return " ".join(rng.choice(pool, size=int(rng.integers(1, 9))))

    for _ in range(40):
        corpus = [caption(words) for _ in range(int(rng.integers(1, 13)))]
        idf = idf_of(corpus)
        assert idf == reference_idf(corpus)
        for _ in range(15):
            if rng.random() < 0.7:
                candidate = caption(words + unseen)
            else:
                candidate = str(rng.choice(corpus))
            ref = str(rng.choice(corpus))
            assert score_cider(candidate, ref, idf) == reference_cider(candidate, ref, idf)


# letters (one outside ASCII), digits, the underscore, punctuation and
# whitespace that is not the ASCII space: tab, newline, U+00A0 and U+2003
caption_text = st.text(alphabet="abAé1_.,!?'-/ \t\n\u00a0\u2003", max_size=40)


@given(st.lists(caption_text, min_size=1, max_size=5), caption_text)
@settings(max_examples=100, deadline=None)
def test_string_keys_lose_nothing(corpus, candidate):
    for text in [candidate, *corpus]:
        tokens = tokenize(text)
        assert not any(c.isspace() for token in tokens for c in token)
        caption = Caption(text)
        keys = list(caption.ngrams)
        # each order holds exactly its own n-grams, in order of first
        # occurrence with their counts, so no key of one order took another's
        for n, (a, b) in enumerate(zip([0, *caption.ends], caption.ends), start=1):
            grams = Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))
            assert {tuple(k.split(" ")): caption.ngrams[k] for k in keys[a:b]} == grams
            assert [tuple(k.split(" ")) for k in keys[a:b]] == list(grams)
    idf = idf_of(corpus)
    assert idf == reference_idf(corpus)
    for ref in corpus:
        assert score_cider(candidate, ref, idf) == reference_cider(candidate, ref, idf)


# --- METEOR ------------------------------------------------------------------------


def reference_meteor(candidate: str, ref: str) -> float:
    """Oracle: greedy exact-match METEOR on two texts, tokenizing both on each call."""
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


def test_meteor_matches_reference_bit_for_bit():
    rng = np.random.default_rng(11)
    # few distinct words, so captions repeat tokens and alignments branch
    words = ["a", "dog", "Dog", "runs", "runs!", "the", "ball,", "A", "red"]
    token_free = ["", "...", "?! ,"]

    def caption():
        if rng.random() < 0.1:
            return str(rng.choice(token_free))
        return " ".join(rng.choice(words, size=int(rng.integers(1, 12))))

    for _ in range(600):
        candidate, ref = caption(), caption()
        assert meteor(candidate, ref) == reference_meteor(candidate, ref)
        assert meteor(ref, ref) == reference_meteor(ref, ref)


def test_meteor_identical():
    m = 4  # "the big dog runs"
    score = meteor("the big dog runs", "the big dog runs")
    assert score == pytest.approx(1.0 - 0.5 * (1 / m) ** 3)


def test_meteor_no_match():
    assert meteor("alpha beta", "gamma delta") == 0.0


def test_meteor_hand_computed():
    # matches: the, cat (one chunk of 2); P = R = 2/3
    # F = 10*(2/3)*(2/3) / (2/3 + 9*2/3) = 2/3; penalty = 0.5*(1/2)^3 = 1/16
    assert meteor("the cat sat", "the cat ran") == pytest.approx((2 / 3) * (15 / 16))
    assert meteor("the cat sat", "the cat ran") == pytest.approx(0.625)


def test_meteor_chunk_break():
    # matched words in reversed order -> two chunks
    score = meteor("dog cat", "cat dog")
    f_mean = 1.0  # P = R = 1
    penalty = 0.5 * (2 / 2) ** 3
    assert score == pytest.approx(f_mean * (1 - penalty))


def test_meteor_duplicate_tokens():
    # each reference occurrence can absorb only one candidate token
    assert meteor("a a", "a b") < meteor("a b", "a b")


def test_meteor_case_and_punct_invariance():
    assert meteor("The cat sat.", "the CAT sat") == meteor(
        "the cat sat", "the cat sat"
    )


def test_tokenize():
    assert tokenize("The cat, sat!") == ["the", "cat", "sat"]


# --- SODA ---------------------------------------------------------------------------


def test_soda_perfect():
    events = [ev(0, 2, "one"), ev(3, 5, "two")]
    assert soda(events, events, lambda a, b: 1.0) == pytest.approx(1.0)


def test_soda_disjoint():
    preds = [ev(0, 1, "x")]
    gts = [ev(5, 6, "x")]
    assert soda(preds, gts) == 0.0


def test_soda_empty():
    assert soda([], [ev(0, 1, "x")]) == 0.0
    assert soda([ev(0, 1, "x")], []) == 0.0


def test_soda_matches_bruteforce_random():
    rng = np.random.default_rng(99)
    words = ["cat", "dog", "runs", "sits", "red", "blue"]
    for _ in range(150):
        def rand_events(k):
            out = []
            for _ in range(k):
                a = float(rng.uniform(0, 10))
                b = a + float(rng.uniform(0.1, 5))
                caption = " ".join(rng.choice(words, size=3))
                out.append(ev(a, b, caption))
            return out

        preds = rand_events(int(rng.integers(1, 5)))
        gts = rand_events(int(rng.integers(1, 5)))
        got = soda(preds, gts)
        want = brute_force_soda(preds, gts, reference_meteor)
        assert got == pytest.approx(want, abs=1e-9)


def test_soda_scores_only_overlapping_pairs():
    rng = np.random.default_rng(17)
    for _ in range(100):
        def rand_events(prefix, k):
            out = []
            for i in range(k):
                a = float(rng.uniform(0, 20))
                out.append(ev(a, a + float(rng.uniform(0.1, 4)), f"{prefix}{i} dog runs"))
            return out

        preds = rand_events("p", int(rng.integers(1, 6)))
        gts = rand_events("g", int(rng.integers(1, 6)))
        pred_segments, gt_segments, ious, score = caption_scores(preds, gts)
        seen = []

        def scorer(i, j):
            seen.append(temporal_iou(pred_segments[i], gt_segments[j]))
            return score(i, j)

        got = soda_c(pred_segments, gt_segments, ious, scorer)
        assert all(iou > 0 for iou in seen)
        overlapping = sum(temporal_iou(p.segment, g.segment) > 0 for p in preds for g in gts)
        assert len(seen) == overlapping
        assert got == pytest.approx(brute_force_soda(preds, gts, reference_meteor), abs=1e-9)


interval = st.tuples(st.floats(0, 10), st.floats(0.1, 4)).map(
    lambda t: (t[0], t[0] + t[1])
)


@given(
    st.lists(interval, min_size=1, max_size=4),
    st.lists(interval, min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_soda_bruteforce_property(pred_ivs, gt_ivs):
    preds = [ev(a, b, "alpha beta") for a, b in pred_ivs]
    gts = [ev(a, b, "alpha gamma") for a, b in gt_ivs]
    assert soda(preds, gts) == pytest.approx(
        brute_force_soda(preds, gts, reference_meteor), abs=1e-9
    )


# --- bucketed caption scores -----------------------------------------------------


def test_bucketed_perfect():
    events = [ev(0, 4, "the big dog runs"), ev(5, 9, "a cat sits still")]
    out = bucketed(events, events, meteor_lite)
    self_scores = [meteor(e.caption, e.caption) for e in events]
    assert out == pytest.approx(sum(self_scores) / len(self_scores))


def test_bucketed_no_overlap():
    preds = [ev(0, 1, "x y")]
    gts = [ev(8, 9, "x y")]
    assert bucketed(preds, gts, meteor_lite) == 0.0


def test_bucketed_hand_traced_two_by_two():
    # gt0 [0,10] vs pred0 [0,10] iou=1.0; pred1 [0,5] iou=0.5
    # gt1 [0,5]  vs pred0 iou=0.5;        pred1 iou=1.0
    preds = [ev(0, 10, "aa bb"), ev(0, 5, "cc dd")]
    gts = [ev(0, 10, "aa bb"), ev(0, 5, "cc dd")]
    metric = lambda a, b: 1.0 if a.tokens == b.tokens else 0.0
    # thresholds 0.3/0.5: gt0 takes pred0 (iou 1.0), gt1 takes pred1 (iou 1.0) -> 1.0
    # thresholds 0.7/0.9: same pairing, crossings below threshold -> 1.0
    assert bucketed(preds, gts, metric) == 1.0
    # drop pred1: gt1 unmatched at >=0.7 (iou 0.5 only)
    out = bucketed(preds[:1], gts, metric)
    assert out == pytest.approx((0.5 + 0.5 + 0.5 + 0.5) / 4)


def test_bucketed_greedy_prefers_highest_iou():
    # one prediction, two gts; first gt has lower IoU (0.571) but comes first:
    # greedy assigns per-gt in order, so gt0 takes the pred at thresholds
    # 0.3 and 0.5, and gt1 takes it at 0.7 and 0.9; each scores 1/2
    preds = [ev(0, 10, "hit hit")]
    gts = [ev(2, 14, "hit hit"), ev(0, 10, "hit hit")]
    metric = lambda a, b: 1.0
    out = bucketed(preds, gts, metric)
    assert out == pytest.approx(0.5)
