"""Statistics tests: histogram normalization, chain tables, and the
relative-frequency arithmetic."""
import pytest

from derivekit.stats import build_stats, chain_label, mode_length, relative_frequency, top_chain
from helpers import op_tags


def test_relative_frequency_reference_arithmetic():
    # reference length-4 rows: 0.0369 x 842 ~ 31 and 0.0186 x 842 ~ 16
    assert relative_frequency(0.0369, 842) == pytest.approx(31, abs=0.5)
    assert relative_frequency(0.0186, 842) == pytest.approx(16, abs=0.7)


def test_histograms_normalized(small_dataset):
    _, records, _ = small_dataset
    stats = build_stats(op_tags(records))
    assert stats["records"] == len(records)
    assert sum(v["p"] for v in stats["length_hist"].values()) == pytest.approx(1.0, abs=1e-9)
    assert sum(v["p"] for v in stats["op_hist"].values()) == pytest.approx(1.0, abs=1e-9)


def test_relative_frequency_column_consistent(small_dataset):
    _, records, _ = small_dataset
    stats = build_stats(op_tags(records), top_per_length=3)
    for entry in stats["chains"]:
        for row in entry["top_chains"]:
            assert row["relative_frequency"] == pytest.approx(
                row["p_chain"] * entry["permutations"], abs=1e-9
            )


def test_chain_counts_sum_within_length(small_dataset):
    _, records, _ = small_dataset
    stats = build_stats(op_tags(records), top_per_length=10_000)
    for entry in stats["chains"]:
        total = sum(row["count"] for row in entry["top_chains"])
        length_count = stats["length_hist"][str(entry["length"])]["count"]
        assert total == length_count
        assert sum(row["p_chain"] for row in entry["top_chains"]) == pytest.approx(1.0)


def test_chain_label_glyphs():
    assert chain_label(("diff", "eval_diff", "sub_lhs")) == "d -> d_E -> S_L"
    assert chain_label(("int", "eval_int", "sub_rhs")) == "int -> int_E -> S_R"


def test_mode_and_top_chain_helpers(small_dataset):
    _, records, _ = small_dataset
    stats = build_stats(op_tags(records))
    mode = mode_length(stats)
    assert str(mode) in stats["length_hist"]
    chain = top_chain(stats, 4)
    assert isinstance(chain, tuple)
