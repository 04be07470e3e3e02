"""Reference-based text metrics, pairwise perturbation analyses, the manual
scoring function, and the 8-feature export row.

All metrics tokenize by whitespace and return values in [0, 1]. Candidate
and reference roles are fixed (no symmetry assumed). BLEU uses add-one
smoothing on n-gram orders with zero matches, stated in report metadata.

ROUGE-n, BLEU and GLEU share one counting path. `_profile` counts a string
in one pass: its token count and one Counter of its n-grams of every order
up to max_n, keyed by n-tuples (orders cannot collide, their tuples differ
in length). `_hits` walks the candidate's grams once and returns the clipped
matches per order. The n-gram totals are closed forms of the token count
(`len - n + 1` per order, and their sum over orders for GLEU), so
`score_all` gets all three metrics from two profiles and one hits vector;
`rouge`, `bleu` and `gleu` are thin wrappers over the same helpers, and
`rouge` profiles only its own order. Every count is an integer, so each
value is exactly the one that counting every order on its own gives (the
tests compare them with `==` against a brute-force oracle).
`score_all` takes an optional `{string: profile}` memo; `build_score_report`
keeps one per family (a static id and its perturbed rows), so each distinct
string of a family is profiled once and no profile outlives its family.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Optional, Sequence

# the paper's manual score: one weight per ERROR_CATEGORIES entry, and alpha
MANUAL_WEIGHTS = (0.2, 0.05, 0.15, 0.25, 0.25, 0.1)
MANUAL_ALPHA = 0.001

ERROR_CATEGORIES = ("overall", "skip", "repeat", "incorrect", "irrelevant", "redundant")

METRIC_NAMES = ("rouge", "bleu", "gleu")
BLEU_SMOOTHING = "add-one on n-gram orders with zero matches"
BLEU_MAX_N = 4


class MetricError(Exception):
    pass


def _tokens(text: str) -> list[str]:
    return text.split()


def _profile(text: str, max_n: int) -> tuple[int, Counter]:
    """The token count of `text` and one Counter of its n-grams of every
    order 1..max_n, keyed by n-tuples and counted in one pass."""
    tokens = _tokens(text)
    orders = range(1, min(max_n, len(tokens)) + 1)
    return len(tokens), Counter(chain.from_iterable(
        zip(*[tokens[i:] for i in range(n)]) for n in orders))


def _hits(cand: Counter, ref: Counter, max_n: int) -> list[int]:
    """Clipped n-gram matches of a candidate profile in a reference profile;
    index n holds order n."""
    hits = [0] * (max_n + 1)
    for gram, count in cand.items():
        limit = ref.get(gram)
        if limit:
            hits[len(gram)] += count if count < limit else limit
    return hits


def _pair(candidate: str, reference: str, max_n: int,
          profiles: Optional[dict] = None) -> tuple[int, int, list[int]]:
    """Token counts of both strings and their hits over orders 1..max_n.
    `profiles` memoizes `_profile` for one max_n; the strings it lacks are
    profiled into it."""
    profiles = {} if profiles is None else profiles
    for text in (candidate, reference):
        if text not in profiles:
            profiles[text] = _profile(text, max_n)
    (c, cand), (r, ref) = profiles[candidate], profiles[reference]
    return c, r, _hits(cand, ref, max_n)


def _rouge_n(c: int, r: int, hits: list[int], n: int) -> float:
    # a hit means both strings hold an n-gram of order n, so both totals are > 0
    if hits[n] == 0:
        return 0.0
    precision = hits[n] / (c - n + 1)
    recall = hits[n] / (r - n + 1)
    return 2 * precision * recall / (precision + recall)


def _bleu(c: int, r: int, hits: list[int], max_n: int) -> float:
    if not c or not r:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        # add-one smoothing: 1 / (total + 1), where an order longer than c has total 0
        precision = hits[n] / (c - n + 1) if hits[n] else 1 / max(c - n + 2, 1)
        log_sum += math.log(precision)
    bp = 1.0 if c > r else math.exp(1 - r / c)
    return bp * math.exp(log_sum / max_n)


def _gleu(c: int, r: int, hits: list[int], max_n: int) -> float:
    if not c or not r:
        return 0.0
    matched = sum(hits[1 : max_n + 1])
    # sum of length - n + 1 over the orders n = 1..m that fit in length tokens
    mc, mr = min(max_n, c), min(max_n, r)
    total_c = mc * (c + 1) - mc * (mc + 1) // 2
    total_r = mr * (r + 1) - mr * (mr + 1) // 2
    return min(matched / total_c, matched / total_r)


def _check_order(order: int, what: str = "ROUGE order") -> int:
    if order < 1:
        raise MetricError(f"{what} must be >= 1, got {order}")
    return order


def rouge(candidate: str, reference: str, order: int = 2) -> float:
    """ROUGE-n F1 on whitespace tokens (default n=2)."""
    return _rouge_n(*_pair(candidate, reference, _check_order(order)), order)


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
    return _bleu(*_pair(candidate, reference, _check_order(max_n, "max_n")), max_n)


def gleu(candidate: str, reference: str, max_n: int = BLEU_MAX_N) -> float:
    """GLEU: min(precision, recall) over n-grams pooled across 1..max_n."""
    return _gleu(*_pair(candidate, reference, _check_order(max_n, "max_n")), max_n)


def score_all(
    candidate: str, reference: str, rouge_order="2", profiles: Optional[dict] = None
) -> dict[str, float]:
    """rouge_order: n-gram order ("1"/"2"/int) or "L" for LCS-based ROUGE.
    Both strings are profiled once and their hits counted once for all three
    metrics. `profiles` is the memo of `_pair`; share one only between calls
    with the same rouge_order."""
    lcs = str(rouge_order).upper() == "L"
    order = 0 if lcs else _check_order(int(rouge_order))
    c, r, hits = _pair(candidate, reference, max(BLEU_MAX_N, order), profiles=profiles)
    return {
        "rouge": rouge_l(candidate, reference) if lcs else _rouge_n(c, r, hits, order),
        "bleu": _bleu(c, r, hits, BLEU_MAX_N),
        "gleu": _gleu(c, r, hits, BLEU_MAX_N),
    }


def perf_difference(m_static: float, m_perturbed: float) -> float:
    """Pairwise performance decrease M(s, s_hat) - M(p, p_hat)."""
    return m_static - m_perturbed


def perturbation_ratio(m_pred_pair: float, m_truth_pair: float) -> Optional[float]:
    """M(s_hat, p_hat) / M(s, p); < 1 means predictions moved less than
    the ground-truth pair. None when the ground-truth pair scores zero."""
    return m_pred_pair / m_truth_pair if m_truth_pair else None


# ---------------------------------------------------------------------------
# manual scoring

def manual_score(flags: Sequence[int]) -> float:
    """M(x; w, alpha) = alpha * (exp(ln((alpha+1)/alpha) * w.x) - 1) of six
    flags in ERROR_CATEGORIES order, each 1 when the category is error-free.

    Error-free derivations score exactly 1, derivations failing every
    category 0: the power form below is exact at both ends.
    """
    if len(flags) != len(ERROR_CATEGORIES):
        raise MetricError(f"six flags required, one per category: {len(flags)} given")
    for name, x in zip(ERROR_CATEGORIES, flags):
        if x not in (0, 1):
            raise MetricError(f"flag {name} must be 0 or 1")
    wx = sum(wi * xi for wi, xi in zip(MANUAL_WEIGHTS, flags))
    return MANUAL_ALPHA * ((1 + 1 / MANUAL_ALPHA) ** wx - 1)


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
    """The mean, summed left to right as sum() did before Python 3.12, whose
    sum() compensates float additions and changes the report's last digits."""
    total = n = 0
    for v in values:
        total += v
        n += 1
    return total / n if n else None


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
    from ratio aggregates and counted. One loop runs over the families (an
    id's static row and its perturbed rows) in id order, with one profile
    memo per family; each bucket list still fills in (kind, id) order.
    """
    bleurt_scores = bleurt_scores or {}
    keys = sorted((k for k in predictions if k in references), key=lambda k: (k[1] or "", k[0]))
    missing = sorted(str(k) for k in predictions.keys() ^ references.keys())
    families: dict[str, list[tuple[str, Optional[str]]]] = {}
    for key in keys:
        families.setdefault(key[0], []).append(key)
    by_key: dict[tuple[str, Optional[str]], ScoredRow] = {}
    pairwise: dict[str, dict] = {}
    for rid, family in sorted(families.items()):
        profiles: dict[str, tuple[int, Counter]] = {}
        for key in family:
            scores = score_all(predictions[key], references[key], rouge_order, profiles)
            by_key[key] = ScoredRow(rid, key[1], scores, bleurt=bleurt_scores.get(key))
        static = (rid, None)
        for key in family:
            if key == static or static not in by_key:
                continue
            row = by_key[key]
            bucket = pairwise.setdefault(
                key[1],
                {"pairs": 0, "diff": {m: [] for m in METRIC_NAMES},
                 "ratio": {m: [] for m in METRIC_NAMES}, "ratio_excluded": 0},
            )
            bucket["pairs"] += 1
            pred_pair = score_all(predictions[static], predictions[key], rouge_order, profiles)
            truth_pair = score_all(references[static], references[key], rouge_order, profiles)
            for m in METRIC_NAMES:
                bucket["diff"][m].append(perf_difference(by_key[static].scores[m], row.scores[m]))
                row.ratios[m] = ratio = perturbation_ratio(pred_pair[m], truth_pair[m])
                if ratio is not None:
                    bucket["ratio"][m].append(ratio)
            bucket["ratio_excluded"] += int(None in row.ratios.values())
    rows = [by_key[key] for key in keys]

    report = {
        "config": {
            "rouge_order": str(rouge_order),
            "bleu_max_n": BLEU_MAX_N,
            "bleu_smoothing": BLEU_SMOOTHING,
            "tokenization": "whitespace",
        },
        "rows": [
            {"id": r.id, "perturbation": r.perturbation,
             **{m: r.scores[m] for m in METRIC_NAMES}, "external_bleurt": r.bleurt}
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
