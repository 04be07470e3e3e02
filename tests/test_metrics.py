"""Metric tests: hand-enumerable golden values, an independent brute-force
n-gram oracle, the manual scoring closed form, and feature-vector layout."""
import math
import random
from decimal import Decimal, getcontext
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from derivekit.metrics import (
    ErrorAnnotation,
    MetricError,
    ScoreWeights,
    ScoredRow,
    ZeroDenominator,
    bleu,
    build_score_report,
    feature_vector,
    gleu,
    manual_score,
    perf_difference,
    perturbation_ratio,
    rouge,
    rouge_l,
    score_all,
)


# ---------------------------------------------------------------------------
# independent oracle: naive counting, written differently on purpose

def oracle_ngrams(tokens, n):
    out = []
    for i in range(len(tokens)):
        if i + n <= len(tokens):
            out.append(tuple(tokens[i : i + n]))
    return out


def oracle_clipped_matches(cand, ref):
    matched = 0
    remaining = list(ref)
    for gram in cand:
        if gram in remaining:
            remaining.remove(gram)
            matched += 1
    return matched


def oracle_rouge(candidate, reference, order=2):
    c = oracle_ngrams(candidate.split(), order)
    r = oracle_ngrams(reference.split(), order)
    if not c or not r:
        return 0.0
    m = oracle_clipped_matches(c, r)
    if m == 0:
        return 0.0
    p, rec = m / len(c), m / len(r)
    return 2 * p * rec / (p + rec)


def oracle_bleu(candidate, reference, max_n=4):
    ct, rt = candidate.split(), reference.split()
    if not ct or not rt:
        return 0.0
    log_total = 0.0
    for n in range(1, max_n + 1):
        c = oracle_ngrams(ct, n)
        r = oracle_ngrams(rt, n)
        m = oracle_clipped_matches(c, r)
        if m == 0:
            p = (m + 1) / (len(c) + 1)
        else:
            p = m / len(c)
        log_total += math.log(p)
    bp = 1.0 if len(ct) > len(rt) else math.exp(1 - len(rt) / len(ct))
    return bp * math.exp(log_total / max_n)


def oracle_gleu(candidate, reference, max_n=4):
    ct, rt = candidate.split(), reference.split()
    if not ct or not rt:
        return 0.0
    m = tc = tr = 0
    for n in range(1, max_n + 1):
        c = oracle_ngrams(ct, n)
        r = oracle_ngrams(rt, n)
        m += oracle_clipped_matches(c, r)
        tc += len(c)
        tr += len(r)
    return min(m / tc, m / tr) if tc and tr else 0.0


# ---------------------------------------------------------------------------
# golden values

def test_identical_strings_score_one():
    s = "a b c d e"
    assert rouge(s, s) == 1.0
    assert bleu(s, s) == pytest.approx(1.0, abs=1e-12)
    assert gleu(s, s) == 1.0
    assert rouge_l(s, s) == 1.0


def test_rouge_hand_bigram_case():
    # bigrams: {a b, b c} vs {a b, b d}: one overlap out of two each -> F1 = 0.5
    assert rouge("a b c", "a b d", order=2) == pytest.approx(0.5)


def test_disjoint_vocabularies_score_zero():
    assert rouge("a b c", "x y z") == 0.0
    assert gleu("a b", "x y") == 0.0
    assert rouge_l("a b", "x y") == 0.0


def test_empty_strings_score_zero():
    assert rouge("", "a b") == 0.0
    assert bleu("", "a b") == 0.0
    assert bleu("a b", "") == 0.0
    assert gleu("", "") == 0.0


def test_bleu_brevity_penalty_definition():
    # candidate shorter than reference with perfect n-gram precision:
    # the score is exactly exp(1 - r/c)
    cand, ref = "a b c d e", "a b c d e f g"
    expected_bp = math.exp(1 - 7 / 5)
    assert bleu(cand, ref) == pytest.approx(expected_bp, rel=1e-12)


def test_bleu_hand_enumerated_pair():
    cand, ref = "a b b a c", "a b a c b"
    assert bleu(cand, ref) == pytest.approx(oracle_bleu(cand, ref), abs=1e-12)
    assert gleu(cand, ref) == pytest.approx(oracle_gleu(cand, ref), abs=1e-12)


def test_metrics_match_oracle_exhaustively():
    # every ordered pair over {a,b,c} with len(cand)+len(ref) <= 8
    alphabet = ["a", "b", "c"]
    strings_by_len = {
        k: [" ".join(p) for p in product(alphabet, repeat=k)] for k in range(1, 8)
    }
    checked = 0
    for lc in range(1, 8):
        for lr in range(1, 9 - lc):
            for cand in strings_by_len[lc]:
                for ref in strings_by_len[lr]:
                    assert rouge(cand, ref) == pytest.approx(
                        oracle_rouge(cand, ref), abs=1e-12
                    )
                    assert bleu(cand, ref) == pytest.approx(
                        oracle_bleu(cand, ref), abs=1e-12
                    )
                    assert gleu(cand, ref) == pytest.approx(
                        oracle_gleu(cand, ref), abs=1e-12
                    )
                    checked += 1
    assert checked == sum(
        (3 ** lc) * (3 ** lr) for lc in range(1, 8) for lr in range(1, 9 - lc)
    )


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=80, deadline=None)
def test_metrics_match_oracle_on_longer_samples(seed):
    rng = random.Random(seed)
    alphabet = "a b c d".split()
    cand = " ".join(rng.choice(alphabet) for _ in range(rng.randint(1, 20)))
    ref = " ".join(rng.choice(alphabet) for _ in range(rng.randint(1, 20)))
    assert rouge(cand, ref) == pytest.approx(oracle_rouge(cand, ref), abs=1e-12)
    assert bleu(cand, ref) == pytest.approx(oracle_bleu(cand, ref), abs=1e-12)
    assert gleu(cand, ref) == pytest.approx(oracle_gleu(cand, ref), abs=1e-12)


_tokens3 = st.lists(st.sampled_from("abc"), max_size=12).map(" ".join)


@given(_tokens3, _tokens3)
@settings(max_examples=300, deadline=None)
def test_score_all_equals_separate_metrics_and_oracle(cand, ref):
    for order in ("1", "2", "L"):
        got = score_all(cand, ref, order)
        alone = rouge_l(cand, ref) if order == "L" else rouge(cand, ref, int(order))
        assert got["rouge"] == alone
        assert got["bleu"] == bleu(cand, ref)
        assert got["gleu"] == gleu(cand, ref)
    for n in range(1, 6):
        assert rouge(cand, ref, n) == oracle_rouge(cand, ref, n)
        assert bleu(cand, ref, n) == oracle_bleu(cand, ref, n)
        assert gleu(cand, ref, n) == oracle_gleu(cand, ref, n)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_scores_in_unit_interval(seed):
    rng = random.Random(seed)
    alphabet = "a b c".split()
    cand = " ".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
    ref = " ".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
    for metric in (rouge, bleu, gleu, rouge_l):
        value = metric(cand, ref)
        assert 0.0 <= value <= 1.0


# ---------------------------------------------------------------------------
# pairwise analyses

def test_perf_difference():
    assert perf_difference(0.9, 0.8) == pytest.approx(0.1)
    assert perf_difference(0.5, 0.5) == 0.0
    assert perf_difference(0.5, 0.7) == pytest.approx(-0.2)


def test_perturbation_ratio():
    assert perturbation_ratio(0.8, 0.8) == 1.0
    assert perturbation_ratio(0.5, 1.0) == 0.5
    with pytest.raises(ZeroDenominator):
        perturbation_ratio(0.5, 0.0)


# ---------------------------------------------------------------------------
# manual scoring function

def all_flags(bits):
    return ErrorAnnotation(*bits)


def test_manual_score_boundary_values():
    assert manual_score(all_flags((1, 1, 1, 1, 1, 1))) == pytest.approx(1.0, abs=1e-12)
    assert manual_score(all_flags((0, 0, 0, 0, 0, 0))) == pytest.approx(0.0, abs=1e-12)


def test_manual_score_skip_only_error_high_precision():
    # x = all clean except skip => w.x = 0.95; independent high-precision
    # evaluation of alpha * (((alpha+1)/alpha)^0.95 - 1)
    getcontext().prec = 60
    alpha = Decimal("0.001")
    wx = Decimal("0.95")
    expected = alpha * (((alpha + 1) / alpha).ln() * wx).exp() - alpha
    got = manual_score(all_flags((1, 0, 1, 1, 1, 1)))
    assert got == pytest.approx(float(expected), abs=1e-9)
    assert got == pytest.approx(0.707, abs=1e-3)


def test_manual_score_monotone_over_all_vectors():
    scores = {}
    for bits in product((0, 1), repeat=6):
        scores[bits] = manual_score(all_flags(bits))
    for bits, value in scores.items():
        assert 0.0 <= value <= 1.0
        for i in range(6):
            if bits[i] == 0:
                upper = bits[:i] + (1,) + bits[i + 1:]
                assert scores[upper] > value


def test_score_weights_validation():
    with pytest.raises(MetricError):
        ScoreWeights(weights=(0.5, 0.5, 0, 0, 0, 0.5))
    with pytest.raises(MetricError):
        ScoreWeights(alpha=0.0)
    with pytest.raises(MetricError):
        ErrorAnnotation(2, 0, 0, 0, 0, 0)


# ---------------------------------------------------------------------------
# feature vector and report

def test_feature_vector_static_rows_take_unit_ratios():
    row = ScoredRow("r1", None, {"rouge": 1.0, "bleu": 1.0, "gleu": 1.0}, bleurt=0.9)
    vec = feature_vector(row)
    assert vec == (1.0, 1.0, 0.9, 1.0, 1.0, 1.0, 1.0, 1.0)


def test_feature_vector_bleurt_slot_absent_marker():
    row = ScoredRow("r1", None, {"rouge": 0.5, "bleu": 0.4, "gleu": 0.6})
    vec = feature_vector(row)
    assert vec[2] is None and vec[6] is None


def test_feature_vector_order_fixed_for_perturbed():
    row = ScoredRow(
        "r1", "VR", {"rouge": 0.5, "bleu": 0.4, "gleu": 0.6},
        ratios={"rouge": 0.9, "bleu": 0.8, "gleu": 0.7},
    )
    assert feature_vector(row) == (0.5, 0.4, None, 0.6, 0.9, 0.8, None, 0.7)


def test_build_score_report_pairwise():
    refs = {
        ("a", None): "x y z w",
        ("a", "VR"): "x y z q",
        ("b", None): "m n o p",
    }
    preds = {
        ("a", None): "x y z w",
        ("a", "VR"): "x y z w",
        ("b", None): "m n o p",
    }
    report, rows = build_score_report(preds, refs)
    assert report["aggregates"]["rouge"] == pytest.approx(
        sum(r["rouge"] for r in report["rows"]) / 3
    )
    vr = report["pairwise"]["VR"]
    assert vr["pairs"] == 1
    # static score 1.0, perturbed score = rouge(pred, perturbed ref)
    expected_diff = 1.0 - rouge("x y z w", "x y z q")
    assert vr["diff"]["rouge"] == pytest.approx(expected_diff)
    # prediction pair identical (ratio numerator 1), reference pair not
    expected_ratio = 1.0 / rouge("x y z w", "x y z q")
    assert vr["ratio"]["rouge"] == pytest.approx(expected_ratio)
    assert vr["ratio_excluded"] == 0
    assert report["schema_version"] == 1


def test_build_score_report_zero_denominator_counted():
    refs = {("a", None): "x y", ("a", "VR"): "p q"}
    preds = {("a", None): "x y", ("a", "VR"): "x y"}
    report, rows = build_score_report(preds, refs)
    vr = report["pairwise"]["VR"]
    assert vr["ratio_excluded"] == 1
    assert vr["ratio"]["rouge"] is None


def test_score_all_rouge_variants():
    from derivekit.metrics import score_all

    cand, ref = "a b c x", "a b c y"
    assert score_all(cand, ref, "1")["rouge"] == pytest.approx(rouge(cand, ref, 1))
    assert score_all(cand, ref, "2")["rouge"] == pytest.approx(rouge(cand, ref, 2))
    assert score_all(cand, ref, "L")["rouge"] == pytest.approx(rouge_l(cand, ref))
