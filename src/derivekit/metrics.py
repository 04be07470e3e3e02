"""Reference-based text metrics, pairwise perturbation analyses, the manual
scoring function, and the 8-feature export row.

All metrics tokenize by whitespace and return values in [0, 1]. Candidate
and reference roles are fixed (no symmetry assumed). BLEU uses add-one
smoothing on n-gram orders with zero matches, stated in report metadata.

ROUGE-n, BLEU and GLEU share one counting path. `_profile` counts a string
once: its token count and one Counter of its n-grams of every order up to
max_n, keyed by n-tuples (orders cannot collide, their tuples differ in
length). `_hits` walks the candidate's grams once and returns the clipped
matches per order. The n-gram totals follow from the token count
(`len - n + 1`), so `score_all` gets all three metrics from two profiles and
one hits vector; `rouge`, `bleu` and `gleu` are thin wrappers over the same
helpers, and `rouge` profiles only its own order. Every count is an integer,
so each value is exactly the one that counting every order on its own gives
(the tests compare them with `==` against a brute-force oracle). No profile
outlives the call that made it.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional

DEFAULT_WEIGHTS = (0.2, 0.05, 0.15, 0.25, 0.25, 0.1)
DEFAULT_ALPHA = 0.001

ERROR_CATEGORIES = ("overall", "skip", "repeat", "incorrect", "irrelevant", "redundant")

METRIC_NAMES = ("rouge", "bleu", "gleu")
BLEU_SMOOTHING = "add-one on n-gram orders with zero matches"
BLEU_MAX_N = 4


class MetricError(Exception):
    pass


class ZeroDenominator(MetricError):
    pass


def _tokens(text: str) -> list[str]:
    return text.split()


def _profile(text: str, max_n: int, min_n: int = 1) -> tuple[int, Counter]:
    """The token count of `text` and one Counter of its n-grams of every
    order min_n..max_n, keyed by n-tuples."""
    tokens = _tokens(text)
    grams: Counter = Counter()
    for n in range(min_n, min(max_n, len(tokens)) + 1):
        grams.update(zip(*[tokens[i:] for i in range(n)]))
    return len(tokens), grams


def _hits(cand: Counter, ref: Counter, max_n: int) -> list[int]:
    """Clipped n-gram matches of a candidate profile in a reference profile;
    index n holds order n."""
    hits = [0] * (max_n + 1)
    for gram, count in cand.items():
        limit = ref.get(gram)
        if limit:
            hits[len(gram)] += count if count < limit else limit
    return hits


def _pair(
    candidate: str, reference: str, max_n: int, min_n: int = 1
) -> tuple[int, int, list[int]]:
    """Token counts of both strings and their hits over orders min_n..max_n."""
    c, cand = _profile(candidate, max_n, min_n)
    r, ref = (c, cand) if reference == candidate else _profile(reference, max_n, min_n)
    return c, r, _hits(cand, ref, max_n)


def _total(length: int, n: int) -> int:
    """Number of n-grams in `length` tokens."""
    return max(0, length - n + 1)


def _rouge_n(c: int, r: int, hits: list[int], n: int) -> float:
    total_c, total_r = _total(c, n), _total(r, n)
    if total_c == 0 or total_r == 0 or hits[n] == 0:
        return 0.0
    precision = hits[n] / total_c
    recall = hits[n] / total_r
    return 2 * precision * recall / (precision + recall)


def _bleu(c: int, r: int, hits: list[int], max_n: int) -> float:
    if not c or not r:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        total = _total(c, n)
        if hits[n] == 0:
            precision = (hits[n] + 1) / (total + 1)
        else:
            precision = hits[n] / total
        log_sum += math.log(precision)
    bp = 1.0 if c > r else math.exp(1 - r / c)
    return bp * math.exp(log_sum / max_n)


def _gleu(c: int, r: int, hits: list[int], max_n: int) -> float:
    if not c or not r:
        return 0.0
    matched = sum(hits[1 : max_n + 1])
    total_c = sum(_total(c, n) for n in range(1, max_n + 1))
    total_r = sum(_total(r, n) for n in range(1, max_n + 1))
    if total_c == 0 or total_r == 0:
        return 0.0
    return min(matched / total_c, matched / total_r)


def _check_order(order: int) -> int:
    if order < 1:
        raise MetricError(f"ROUGE order must be >= 1, got {order}")
    return order


def rouge(candidate: str, reference: str, order: int = 2) -> float:
    """ROUGE-n F1 on whitespace tokens (default n=2)."""
    return _rouge_n(*_pair(candidate, reference, _check_order(order), order), order)


def rouge_l(candidate: str, reference: str) -> float:
    """ROUGE-L F1 (longest common subsequence)."""
    a, b = _tokens(candidate), _tokens(reference)
    if not a or not b:
        return 0.0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[-1]))
        prev = cur
    lcs = prev[-1]
    if lcs == 0:
        return 0.0
    precision = lcs / len(a)
    recall = lcs / len(b)
    return 2 * precision * recall / (precision + recall)


def bleu(candidate: str, reference: str, max_n: int = BLEU_MAX_N) -> float:
    """BLEU with uniform weights over 1..max_n and the brevity penalty;
    orders with zero matches take add-one smoothing."""
    return _bleu(*_pair(candidate, reference, max_n), max_n)


def gleu(candidate: str, reference: str, max_n: int = BLEU_MAX_N) -> float:
    """GLEU: min(precision, recall) over n-grams pooled across 1..max_n."""
    return _gleu(*_pair(candidate, reference, max_n), max_n)


def score_all(candidate: str, reference: str, rouge_order="2") -> dict[str, float]:
    """rouge_order: n-gram order ("1"/"2"/int) or "L" for LCS-based ROUGE.
    Both strings are profiled once and their hits counted once for all three
    metrics."""
    lcs = str(rouge_order).upper() == "L"
    order = 0 if lcs else _check_order(int(rouge_order))
    c, r, hits = _pair(candidate, reference, max(BLEU_MAX_N, order))
    return {
        "rouge": rouge_l(candidate, reference) if lcs else _rouge_n(c, r, hits, order),
        "bleu": _bleu(c, r, hits, BLEU_MAX_N),
        "gleu": _gleu(c, r, hits, BLEU_MAX_N),
    }


def perf_difference(m_static: float, m_perturbed: float) -> float:
    """Pairwise performance decrease M(s, s_hat) - M(p, p_hat)."""
    return m_static - m_perturbed


def perturbation_ratio(m_pred_pair: float, m_truth_pair: float) -> float:
    """M(s_hat, p_hat) / M(s, p); < 1 means predictions moved less than
    the ground-truth pair."""
    if m_truth_pair == 0:
        raise ZeroDenominator("ground-truth pair similarity is zero")
    return m_pred_pair / m_truth_pair


# ---------------------------------------------------------------------------
# manual scoring

@dataclass(frozen=True)
class ErrorAnnotation:
    """Six binary flags, 1 = the category is error-free."""

    overall: int
    skip: int
    repeat: int
    incorrect: int
    irrelevant: int
    redundant: int

    def __post_init__(self):
        for name in ERROR_CATEGORIES:
            if getattr(self, name) not in (0, 1):
                raise MetricError(f"flag {name} must be 0 or 1")

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(getattr(self, name) for name in ERROR_CATEGORIES)


@dataclass(frozen=True)
class ScoreWeights:
    weights: tuple[float, ...] = DEFAULT_WEIGHTS
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        if len(self.weights) != len(ERROR_CATEGORIES):
            raise MetricError("six category weights required")
        if any(w < 0 for w in self.weights):
            raise MetricError("weights must be >= 0")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise MetricError("weights must sum to 1")
        if self.alpha <= 0:
            raise MetricError("alpha must be > 0")


def manual_score(x: ErrorAnnotation, w: ScoreWeights = ScoreWeights()) -> float:
    """M(x; w, alpha) = alpha * (exp(ln((alpha+1)/alpha) * w.x) - 1).

    Error-free derivations score 1, derivations failing every category 0.
    """
    wx = sum(wi * xi for wi, xi in zip(w.weights, x.as_tuple()))
    return w.alpha * math.expm1(math.log((w.alpha + 1) / w.alpha) * wx)


# ---------------------------------------------------------------------------
# feature vector and score report

FEATURE_HEADER = (
    "id", "perturbation",
    "rouge", "bleu", "bleurt", "gleu",
    "ratio_rouge", "ratio_bleu", "ratio_bleurt", "ratio_gleu",
)


@dataclass
class ScoredRow:
    id: str
    perturbation: Optional[str]
    scores: dict[str, float]
    bleurt: Optional[float] = None
    ratios: dict[str, Optional[float]] = field(default_factory=dict)


def feature_vector(row: ScoredRow) -> tuple:
    """Fixed-order training features: 4 metric scores then 4 ratios; static
    rows take ratio 1. Absent BLEURT slots stay None."""
    if row.perturbation is None:
        ratios = {m: 1.0 for m in METRIC_NAMES}
        ratio_bleurt: Optional[float] = 1.0 if row.bleurt is not None else None
    else:
        ratios = {m: row.ratios.get(m) for m in METRIC_NAMES}
        ratio_bleurt = None  # no pairwise BLEURT table is built
    return (
        row.scores["rouge"],
        row.scores["bleu"],
        row.bleurt,
        row.scores["gleu"],
        ratios["rouge"],
        ratios["bleu"],
        ratio_bleurt,
        ratios["gleu"],
    )


def _mean(values: Iterable[float]) -> Optional[float]:
    values = list(values)
    if not values:
        return None
    return sum(values) / len(values)


def build_score_report(
    predictions: dict[tuple[str, Optional[str]], str],
    references: dict[tuple[str, Optional[str]], str],
    rouge_order="2",
    bleurt_scores: Optional[dict[tuple[str, Optional[str]], float]] = None,
) -> tuple[dict, list[ScoredRow]]:
    """Score every (id, perturbation) prediction against its reference and
    assemble per-example rows, aggregates, and pairwise diff/ratio tables.

    Ratios compare the drift of predictions M(s_hat, p_hat) to the drift of
    references M(s, p); rows whose reference pair scores zero are excluded
    from ratio aggregates and counted.
    """
    bleurt_scores = bleurt_scores or {}
    rows: list[ScoredRow] = []
    keys = sorted(
        (k for k in predictions if k in references),
        key=lambda k: (k[1] or "", k[0]),
    )
    missing = sorted(str(k) for k in predictions.keys() ^ references.keys())
    for key in keys:
        rid, perturbation = key
        row = ScoredRow(
            rid,
            perturbation,
            score_all(predictions[key], references[key], rouge_order),
            bleurt=bleurt_scores.get(key),
        )
        rows.append(row)
    by_key = {(r.id, r.perturbation): r for r in rows}

    pairwise: dict[str, dict] = {}
    for row in rows:
        if row.perturbation is None:
            continue
        static_key = (row.id, None)
        static_row = by_key.get(static_key)
        if static_row is None:
            continue
        bucket = pairwise.setdefault(
            row.perturbation,
            {"pairs": 0, "diff": {m: [] for m in METRIC_NAMES},
             "ratio": {m: [] for m in METRIC_NAMES}, "ratio_excluded": 0},
        )
        bucket["pairs"] += 1
        for m in METRIC_NAMES:
            bucket["diff"][m].append(perf_difference(static_row.scores[m], row.scores[m]))
        pred_pair = score_all(
            predictions[static_key], predictions[(row.id, row.perturbation)], rouge_order
        )
        truth_pair = score_all(
            references[static_key], references[(row.id, row.perturbation)], rouge_order
        )
        excluded = False
        for m in METRIC_NAMES:
            try:
                ratio = perturbation_ratio(pred_pair[m], truth_pair[m])
            except ZeroDenominator:
                row.ratios[m] = None
                excluded = True
                continue
            row.ratios[m] = ratio
            bucket["ratio"][m].append(ratio)
        if excluded:
            bucket["ratio_excluded"] += 1

    report = {
        "config": {
            "rouge_order": str(rouge_order),
            "bleu_max_n": BLEU_MAX_N,
            "bleu_smoothing": BLEU_SMOOTHING,
            "tokenization": "whitespace",
        },
        "rows": [
            {
                "id": r.id,
                "perturbation": r.perturbation,
                "rouge": r.scores["rouge"],
                "bleu": r.scores["bleu"],
                "gleu": r.scores["gleu"],
                "external_bleurt": r.bleurt,
            }
            for r in rows
        ],
        "aggregates": dict(
            {"n": len(rows)},
            **{m: _mean(r.scores[m] for r in rows) for m in METRIC_NAMES},
        ),
        "pairwise": {
            kind: {
                "pairs": bucket["pairs"],
                "diff": {m: _mean(bucket["diff"][m]) for m in METRIC_NAMES},
                "ratio": {m: _mean(bucket["ratio"][m]) for m in METRIC_NAMES},
                "ratio_excluded": bucket["ratio_excluded"],
            }
            for kind, bucket in sorted(pairwise.items())
        },
        "unmatched_keys": missing,
        "schema_version": 1,
    }
    return report, rows


def feature_rows(rows: list[ScoredRow]) -> list[tuple]:
    out = []
    for r in rows:
        vec = feature_vector(r)
        out.append((r.id, r.perturbation or "") + vec)
    return out
