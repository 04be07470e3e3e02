"""Metric tests: hand-enumerable golden values, an independent brute-force
n-gram oracle, the manual scoring closed form, and feature-vector layout."""
import math
import random
from decimal import Decimal, getcontext
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from derivekit import metrics
from derivekit.metrics import (
    MetricError,
    ScoredRow,
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

from helpers import (
    bleu_by_totals,
    gleu_by_totals,
    pair_by_updates,
    profile_by_updates,
    rouge_n_by_totals,
    score_report_two_loops,
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


def test_rouge_order_must_be_positive():
    with pytest.raises(MetricError, match="order must be >= 1"):
        rouge("a b", "a b", order=0)


@pytest.mark.parametrize("metric", [bleu, gleu])
def test_bleu_and_gleu_max_n_must_be_positive(metric):
    with pytest.raises(MetricError, match="max_n must be >= 1"):
        metric("a", "a", max_n=0)


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


def test_ngram_layer_equals_the_per_order_oracle():
    """One counting pass per string and the closed-form totals against the
    per-order counts and summed totals they replace, compared with `==`:
    the profiles (keys, counts and insertion order), score_all with ROUGE
    orders 1, 2 and L, rouge of orders 1-6, and bleu and gleu with max_n
    1-6."""
    seen = {"empty": 0, "shorter than max_n": 0, "repeated tokens": 0}

    @given(_tokens3, _tokens3)
    @settings(max_examples=300, deadline=None)
    def check(cand, ref):
        for text in (cand, ref):
            tokens = text.split()
            seen["empty"] += not tokens
            seen["shorter than max_n"] += 0 < len(tokens) < metrics.BLEU_MAX_N
            seen["repeated tokens"] += len(set(tokens)) < len(tokens)
            for max_n in (2, 4, 5, 6):
                got, want = metrics._profile(text, max_n), profile_by_updates(text, max_n)
                assert (got[0], list(got[1].items())) == (want[0], list(want[1].items()))
        c, r, hits = pair_by_updates(cand, ref, metrics.BLEU_MAX_N)
        for order in ("1", "2", "L"):
            want = {
                "rouge": rouge_l(cand, ref) if order == "L" else rouge_n_by_totals(
                    c, r, hits, int(order)),
                "bleu": bleu_by_totals(c, r, hits, metrics.BLEU_MAX_N),
                "gleu": gleu_by_totals(c, r, hits, metrics.BLEU_MAX_N),
            }
            assert score_all(cand, ref, order) == want
        for n in range(1, 7):
            assert rouge(cand, ref, n) == rouge_n_by_totals(*pair_by_updates(cand, ref, n, n), n)
            pair = pair_by_updates(cand, ref, n)
            assert bleu(cand, ref, n) == bleu_by_totals(*pair, n)
            assert gleu(cand, ref, n) == gleu_by_totals(*pair, n)

    check()
    assert all(seen.values()), seen


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
    assert perturbation_ratio(0.5, 0.0) is None


# ---------------------------------------------------------------------------
# manual scoring function

def test_manual_score_boundary_values():
    # exact at both ends, as documented
    assert manual_score((1, 1, 1, 1, 1, 1)) == 1.0
    assert manual_score((0, 0, 0, 0, 0, 0)) == 0.0


def test_manual_score_skip_only_error_high_precision():
    # x = all clean except skip => w.x = 0.95; independent high-precision
    # evaluation of alpha * (((alpha+1)/alpha)^0.95 - 1)
    getcontext().prec = 60
    alpha = Decimal("0.001")
    wx = Decimal("0.95")
    expected = alpha * (((alpha + 1) / alpha).ln() * wx).exp() - alpha
    got = manual_score((1, 0, 1, 1, 1, 1))
    assert got == pytest.approx(float(expected), abs=1e-9)
    assert got == pytest.approx(0.707, abs=1e-3)


def test_manual_score_monotone_over_all_vectors():
    scores = {}
    for bits in product((0, 1), repeat=6):
        scores[bits] = manual_score(bits)
    for bits, value in scores.items():
        assert 0.0 <= value <= 1.0
        for i in range(6):
            if bits[i] == 0:
                upper = bits[:i] + (1,) + bits[i + 1:]
                assert scores[upper] > value


def test_manual_score_rejects_bad_flags():
    with pytest.raises(MetricError, match="flag overall must be 0 or 1"):
        manual_score((2, 0, 0, 0, 0, 0))
    for flags in ((1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1, 1)):
        with pytest.raises(MetricError, match="six flags required"):
            manual_score(flags)


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


def test_build_score_report_needs_the_static_row_for_a_pair():
    report, _ = build_score_report({("a", "VR"): "x y"}, {("a", "VR"): "x y"})
    assert report["aggregates"]["n"] == 1
    assert report["pairwise"] == {}


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


# ---------------------------------------------------------------------------
# the one family loop against the two-loop oracle, and its profile count

KINDS = (None, "VR", "EE", "AG", "SR")


def random_score_inputs(rng):
    """Predictions, references and BLEURT scores over a few families: keys
    are dropped from either side at random (unmatched keys, families with no
    static row), and strings come from a small shared pool as well as fresh
    draws, so equal strings and empty completions meet within and across
    families."""
    pool = ["", "a", "a b", "a b c d", "b a b a", "c d a b c"]

    def text():
        if rng.random() < 0.4:
            return rng.choice(pool)
        return " ".join(rng.choice("abcd") for _ in range(rng.randrange(8)))

    predictions, references, bleurt = {}, {}, {}
    for i in range(rng.randrange(1, 7)):
        for kind in KINDS:
            key = (f"d{i}", kind)
            if rng.random() < 0.85:
                predictions[key] = text()
            if rng.random() < 0.85:
                references[key] = text()
            if rng.random() < 0.3:
                bleurt[key] = rng.random()
    return predictions, references, bleurt


def test_build_score_report_equals_the_two_loop_oracle():
    seen = {"no static row": 0, "unmatched": 0, "ratio excluded": 0, "bleurt": 0,
            "empty completion": 0, "equal strings": 0}
    for seed in range(300):
        rng = random.Random(seed)
        predictions, references, bleurt = random_score_inputs(rng)
        order = ("1", "2", "L")[seed % 3]
        scores = bleurt if seed % 2 else None
        report, rows = score_report_two_loops(predictions, references, order, scores)
        assert build_score_report(predictions, references, order, scores) == (report, rows)
        ids = {rid for rid, _ in predictions.keys() & references.keys()}
        seen["no static row"] += any((rid, None) not in predictions.keys() & references.keys()
                                     for rid in ids)
        seen["unmatched"] += bool(report["unmatched_keys"])
        seen["ratio excluded"] += any(b["ratio_excluded"] for b in report["pairwise"].values())
        seen["bleurt"] += any(r["external_bleurt"] is not None for r in report["rows"])
        seen["empty completion"] += "" in predictions.values()
        texts = [*predictions.values(), *references.values()]
        seen["equal strings"] += len(set(texts)) < len(texts)
    assert all(seen.values()), seen


def _count_profiles(monkeypatch):
    calls = []
    profile = metrics._profile
    monkeypatch.setattr(metrics, "_profile",
                        lambda text, *a: calls.append(text) or profile(text, *a))
    return calls


def test_build_score_report_profiles_each_string_once_per_family(monkeypatch):
    calls = _count_profiles(monkeypatch)
    predictions = {("d0", kind): f"p {kind} x y" for kind in KINDS}
    references = {("d0", kind): f"r {kind} x y" for kind in KINDS}
    report, _ = build_score_report(predictions, references)
    assert len(report["pairwise"]) == 4
    # 10 distinct strings, where scoring each pair afresh profiles 26 times
    assert len(calls) == 10
    # a second family with the same strings profiles them again: no memo
    # outlives its family
    calls.clear()
    predictions.update({("d1", kind): f"p {kind} x y" for kind in KINDS})
    references.update({("d1", kind): f"r {kind} x y" for kind in KINDS})
    build_score_report(predictions, references)
    assert len(calls) == 20


def test_score_all_with_a_memo_equals_score_all_without(monkeypatch):
    calls = _count_profiles(monkeypatch)
    profiles = {}
    for cand, ref in (("a b c", "a b d"), ("a b d", "a b c"), ("a b c", "a b c")):
        assert score_all(cand, ref, "2", profiles) == score_all(cand, ref, "2")
    # the memo profiled "a b c" and "a b d" once; the calls without it, 5 times
    assert len(calls) == 2 + 5
