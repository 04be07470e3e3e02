"""Dataset statistics: length distribution, operation distribution, and
per-length operation-chain tables with relative frequencies.

P(chain) is the probability of an operation chain conditional on derivation
length; the relative-frequency column is P(chain) times the number of
distinct chains of that length, i.e. how many times likelier than the
average chain it is.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from typing import Iterable, Sequence

from .ops import CHAIN_GLYPHS, PREMISE


def chain_label(chain: Sequence[str]) -> str:
    return " -> ".join(CHAIN_GLYPHS.get(op, op) for op in chain)


def build_stats(op_tags: Iterable[Sequence[str]], top_per_length: int = 2) -> dict:
    """Statistics over derivations given as their steps' op tags: the length
    is the step count and the chain is every tag other than premise."""
    lengths: Counter = Counter()
    op_counts: Counter = Counter()
    chains_by_length: dict[int, Counter] = defaultdict(Counter)
    total = 0
    for tags in op_tags:
        total += 1
        lengths[len(tags)] += 1
        chain = tuple(op for op in tags if op != PREMISE)
        for op in chain:
            op_counts[op] += 1
        chains_by_length[len(tags)][chain] += 1

    n_ops = sum(op_counts.values())
    length_hist = {
        str(length): {"count": count, "p": count / total}
        for length, count in sorted(lengths.items())
    }
    op_hist = {
        op: {"count": count, "p": count / n_ops}
        for op, count in sorted(op_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    } if n_ops else {}

    chain_table = []
    for length in sorted(chains_by_length):
        counter = chains_by_length[length]
        n_length = sum(counter.values())
        permutations = len(counter)
        rows = []
        for chain, count in counter.most_common(top_per_length):
            p_chain = count / n_length
            rows.append(
                {
                    "chain": chain_label(chain),
                    "ops": list(chain),
                    "count": count,
                    "p_chain": p_chain,
                    "relative_frequency": relative_frequency(p_chain, permutations),
                }
            )
        chain_table.append(
            {"length": length, "permutations": permutations, "top_chains": rows}
        )

    return {
        "records": total,
        "length_hist": length_hist,
        "op_hist": op_hist,
        "chains": chain_table,
        "schema_version": 1,
    }


def relative_frequency(p_chain: float, permutations: int) -> float:
    """Table-2 arithmetic: P(chain) x distinct-chain count."""
    return p_chain * permutations


def mode_length(stats: dict) -> int:
    hist = stats["length_hist"]
    return int(max(hist, key=lambda k: hist[k]["count"]))


def top_chain(stats: dict, length: int) -> tuple[str, ...]:
    for entry in stats["chains"]:
        if entry["length"] == length and entry["top_chains"]:
            return tuple(entry["top_chains"][0]["ops"])
    return ()
