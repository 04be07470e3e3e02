"""Generation algorithm tests: premises, step sampling statistics, coherent
extraction, determinism, and the dataset filters."""
import math
import random
from collections import Counter

import pytest

from derivekit import ops
from derivekit.expr import Equation, Integer, Symbol, applied, func, equation_free_symbols
from derivekit.genalg import (
    Applicability,
    GenConfig,
    GenerationError,
    NEW_PREMISE,
    VocabularyExhausted,
    derive_seed,
    extract_derivation,
    generate_dataset,
    generate_derivation,
    generate_premise,
    passes_char_filter,
    passes_token_filter,
    sample_action,
    sample_length,
    _GenState,
)
from derivekit.latex import count_lexemes, equation_to_latex, to_latex
from derivekit.ops import ROLE_PREMISE, Step, dag_coherent, duplicate_free, replay
from derivekit.prompts import build_prompt
from derivekit.records import derivation_record_to_json
from derivekit.vocab import load_symbol_table


def test_config_validation():
    with pytest.raises(GenerationError):
        GenConfig(length_min=3)
    with pytest.raises(GenerationError):
        GenConfig(retry_cap=0)
    with pytest.raises(GenerationError):
        GenConfig(p_subs=-1)
    # settings that would hang sample_length or fail a weighted draw
    for bad in ({"length_sigma": -1}, {"length_mean": 3.4, "length_sigma": 0},
                {"length_mean": 4.5, "length_sigma": 0, "length_min": 5},
                {"p_arity_0": 0, "p_arity_1": 0, "p_arity_2": 0},
                {"p_evaluate": 0, "p_int_or_diff": 0, "p_renaming": 0, "p_define": 0,
                 "p_arith": 0, "p_extension": 0},
                {"p_subs": 0, "p_add_eq": 0}):
        with pytest.raises(GenerationError):
            GenConfig(**bad)
    # a group whose gate can never be drawn may be empty
    GenConfig(p_arity_2=0, p_subs=0, p_add_eq=0)
    cfg = GenConfig(length_mean=3.6, length_sigma=0)
    assert sample_length(cfg, random.Random(0)) == 4


def test_reference_defaults():
    cfg = GenConfig()
    assert (cfg.p_history, cfg.p_arity_0, cfg.p_renaming, cfg.p_arity_1) == (10, 5, 1, 50)
    assert (cfg.p_evaluate, cfg.p_arity_2, cfg.p_int_or_diff, cfg.p_subs) == (50, 100, 1, 5)
    assert (cfg.length_mean, cfg.length_sigma, cfg.length_min) == (7, 3, 4)
    assert (cfg.max_latex_chars, cfg.max_prompt_tokens, cfg.retry_cap) == (350, 512, 100)


def test_sample_length_truncation():
    cfg = GenConfig()
    rng = random.Random(0)
    lengths = [sample_length(cfg, rng) for _ in range(4000)]
    assert min(lengths) >= 4
    mean = sum(lengths) / len(lengths)
    assert 6.0 < mean < 8.5


def test_generate_premise_shape():
    vocab = load_symbol_table()
    rng = random.Random(3)
    used = set()
    seen_names = []
    for _ in range(20):
        eq = generate_premise(vocab, rng, used)
        assert type(eq.lhs).__name__ == "AppliedFunction"
        assert 1 <= len(eq.lhs.args) <= 3
        arg_names = {a.name for a in eq.lhs.args}
        body_names = set(equation_free_symbols(eq)) - {eq.lhs.name}
        assert body_names <= arg_names
        seen_names.append(eq.lhs.name)
        used.update(equation_free_symbols(eq))
    assert len(set(seen_names)) == len(seen_names)  # no reused function names


def test_generate_premise_exhaustion():
    vocab = load_symbol_table()
    used = set(vocab.names())
    with pytest.raises(VocabularyExhausted):
        generate_premise(vocab, random.Random(0), used)


def test_sample_action_distribution_matches_weights():
    # Monte-Carlo oracle against the closed-form gate probabilities
    cfg = GenConfig()
    rng = random.Random(11)
    flags = Applicability(n_steps=3, has_derivative=True, has_integral=True, has_derived=True)
    draws = 50_000
    counts = Counter()
    for _ in range(draws):
        action = sample_action(flags, cfg, rng)
        counts[action] += 1
    class_w = cfg.p_arity_0 + cfg.p_arity_1 + cfg.p_arity_2
    group_w = (
        cfg.p_evaluate + cfg.p_int_or_diff + cfg.p_renaming + cfg.p_define
        + cfg.p_arith + cfg.p_extension
    )
    expected = {
        NEW_PREMISE: cfg.p_arity_0 / class_w,
        ops.EVAL_DIFF: cfg.p_arity_1 / class_w * cfg.p_evaluate / group_w / 2,
        ops.EVAL_INT: cfg.p_arity_1 / class_w * cfg.p_evaluate / group_w / 2,
        ops.DIFF: (cfg.p_arity_1 / class_w) * (cfg.p_int_or_diff / group_w)
        * cfg.p_diff_vs_int / (cfg.p_diff_vs_int + 1),
        ops.INT: (cfg.p_arity_1 / class_w) * (cfg.p_int_or_diff / group_w)
        * 1 / (cfg.p_diff_vs_int + 1),
        ops.RENAME: (cfg.p_arity_1 / class_w)
        * ((cfg.p_renaming + cfg.p_define) / group_w)
        * cfg.p_renaming / (cfg.p_renaming + cfg.p_define),
        ops.ADD: (cfg.p_arity_1 / class_w) * (cfg.p_arith / group_w) / 5,
        ops.SWAP: (cfg.p_arity_1 / class_w) * (cfg.p_extension / group_w) / 4,
        ops.SUB_LHS: (cfg.p_arity_2 / class_w)
        * (cfg.p_subs / (cfg.p_subs + cfg.p_add_eq)) / 2,
        ops.ADD_EQ: (cfg.p_arity_2 / class_w)
        * (cfg.p_add_eq / (cfg.p_subs + cfg.p_add_eq)),
    }
    for action, p in expected.items():
        observed = counts[action]
        sigma = math.sqrt(draws * p * (1 - p))
        assert abs(observed - draws * p) <= 3 * sigma, (action, observed, draws * p)


def test_sample_action_zero_weight_never_drawn():
    cfg = GenConfig(p_arity_2=0.0)
    rng = random.Random(2)
    flags = Applicability(5, True, True, True)
    for _ in range(5000):
        action = sample_action(flags, cfg, rng)
        assert action not in (ops.SUB_LHS, ops.SUB_RHS, ops.ADD_EQ)


# ---------------------------------------------------------------------------
# extraction

def _premise(latex_name: str) -> Step:
    sym = Symbol("x")
    return Step(
        Equation(applied(latex_name, [sym]), func("sin", sym)), None, role=ROLE_PREMISE
    )


def test_extract_prunes_unreachable():
    steps = [_premise("f")]
    steps.append(ops.apply(ops.DIFF, steps, (0,), Symbol("x")))
    steps.append(ops.apply(ops.EXP_BOTH, steps, (0,)))  # never used again
    steps.append(ops.apply(ops.EVAL_DIFF, steps, (1,)))
    extracted = extract_derivation(steps)
    assert len(extracted) == 3
    assert all(s.op != ops.EXP_BOTH for s in extracted.steps)
    assert dag_coherent(extracted)


def test_extract_linear_chain_unchanged():
    steps = [_premise("f")]
    steps.append(ops.apply(ops.DIFF, steps, (0,), Symbol("x")))
    steps.append(ops.apply(ops.EVAL_DIFF, steps, (1,)))
    extracted = extract_derivation(steps)
    assert extracted.equations() == tuple(s.equation for s in steps)
    assert extracted.steps[-1].role == "goal"
    assert extracted.steps[1].role == "ordinary"
    assert extracted.steps[2].role == "goal"


def test_extract_every_nonfinal_step_has_consumer():
    cfg = GenConfig(seed=77)
    vocab = cfg.load_vocabulary()
    for i in range(40):
        rng = random.Random(derive_seed(99, i))
        d = generate_derivation(cfg, rng, vocab=vocab)
        if d is None:
            continue
        consumed = set()
        for s in d.steps:
            consumed.update(s.parents)
        for idx in range(len(d) - 1):
            assert idx in consumed, idx


# ---------------------------------------------------------------------------
# generation loop

def test_retry_cap_returns_none():
    # a registry where nothing applies: no equations beyond one premise and
    # all class weights on arity 2 (inapplicable with one equation)
    cfg = GenConfig(p_arity_0=0, p_arity_1=0, p_arity_2=1, retry_cap=1)
    out = generate_derivation(cfg, random.Random(0))
    assert out is None


def test_determinism_same_seed_identical_records():
    cfg = GenConfig(seed=4242)
    records_a, summary_a = generate_dataset(cfg, 12)
    records_b, summary_b = generate_dataset(cfg, 12)
    rows_a = [derivation_record_to_json(r) for r in records_a]
    rows_b = [derivation_record_to_json(r) for r in records_b]
    assert rows_a == rows_b
    assert summary_a.as_dict() == summary_b.as_dict()


def test_generated_records_valid_and_filtered(small_dataset):
    cfg, records, summary = small_dataset
    assert summary.produced == len(records) == 180
    for record in records:
        d = record.derivation
        assert len(d) >= 4
        assert replay(d).valid
        assert dag_coherent(d)
        assert duplicate_free(d)
        assert passes_char_filter(d, cfg)
        for s in d.steps:
            assert len(equation_to_latex(s.equation)) <= cfg.max_latex_chars
        prompt = build_prompt(d, record.id)
        assert passes_token_filter(prompt.prompt, prompt.target, cfg)
        assert count_lexemes(prompt.prompt + " " + prompt.target) <= cfg.max_prompt_tokens


def test_generate_dataset_rejects_zero_count():
    with pytest.raises(GenerationError):
        generate_dataset(GenConfig(), 0)


# ---------------------------------------------------------------------------
# per-attempt caches

def _fresh_pool(state: _GenState, rng: random.Random) -> list[str]:
    """A constant pool as constant_pool() builds it, shuffled by another rng
    so that the attempt's own draws are left alone."""
    names = state.vocab.names("constant") + state.vocab.names("variable")
    pool = [n for n in names if n not in state.used_names]
    rng.shuffle(pool)
    return pool


def test_caches_agree_with_recomputation_after_every_note(monkeypatch):
    """After every step an attempt accepts: the inverted index yields the
    substitution targets of a full scan in the same order, the ancestor set
    has the size of the extracted derivation, every memoized ops.apply result
    is what ops.apply computes now, and an eval_int failure still fails with
    a freshly drawn pool."""
    note = _GenState.note
    pool_rng = random.Random(5)
    counts = Counter()

    def checked_note(state, step):
        note(state, step)
        steps = state.steps
        n = len(steps)
        assert len(state.ancestors[-1]) == len(extract_derivation(steps))
        subtrees = [set(ops.subexpression_pool(s.equation)) for s in steps]
        for definition, s in enumerate(steps):
            for pattern in (s.equation.lhs, s.equation.rhs):
                scanned = [j for j in range(n) if j != definition and pattern in subtrees[j]]
                indexed = [j for j in state.containing.get(pattern, ()) if j != definition]
                assert indexed == scanned
        for (op, parents), memo in state.applied.items():
            if op == ops.EVAL_INT:
                assert memo is None
                with pytest.raises(ops.OpError):
                    ops.apply(op, steps, parents, constant_pool=_fresh_pool(state, pool_rng))
                counts["eval_int failures"] += 1
            else:
                try:
                    again = ops.apply(op, steps, parents)
                except ops.OpError:
                    again = None
                assert again == memo
                counts[op] += 1
        counts["notes"] += 1

    monkeypatch.setattr(_GenState, "note", checked_note)
    for seed in (0, 1, 2, 3):
        generate_dataset(GenConfig(seed=seed), 4)
    assert counts["notes"] > 200
    assert all(counts[key] > 0 for key in (
        "eval_int failures", ops.EVAL_DIFF, ops.SUB_LHS, ops.SUB_RHS))


def _one_step_per_op() -> list[Step]:
    x, y = Symbol("x"), Symbol("y")
    steps = [
        Step(Equation(applied("f", [x]), func("sin", x)), None, role=ROLE_PREMISE),
        Step(Equation(applied("g", [y]), func("log", y)), None, role=ROLE_PREMISE),
    ]

    def apply(op, parents, operand=None, **kwargs):
        steps.append(ops.apply(op, steps, parents, operand, **kwargs))
        return len(steps) - 1

    for op in (ops.ADD, ops.SUB, ops.MUL, ops.DIV, ops.POW):
        apply(op, (0,), Integer(3))
    diff = apply(ops.DIFF, (0,), x)
    apply(ops.EVAL_DIFF, (diff,))
    integral = apply(ops.INT, (1,), y)
    apply(ops.EVAL_INT, (integral,), constant_pool=["C"])
    apply(ops.SUB_LHS, (0, 2))
    apply(ops.SUB_RHS, (0, 2))
    apply(ops.RENAME, (2,), steps[2].equation.rhs, fresh_name="h")
    for op in (ops.NEGATE, ops.SWAP, ops.EXP_BOTH, ops.LOG_BOTH):
        apply(op, (1,))
    apply(ops.ADD_EQ, (0, 1))
    apply(ops.DEFINE, (1,), func("log", y), fresh_name="k")
    return steps


def test_cached_latex_matches_a_fresh_rendering_for_every_op():
    steps = _one_step_per_op()
    assert {s.op for s in steps[2:]} == set(ops.REGISTRY)
    for s in steps:
        eq = s.equation
        fresh = f"{to_latex(eq.lhs)} = {to_latex(eq.rhs)}"
        assert equation_to_latex(eq) == fresh
        assert equation_to_latex(eq) is equation_to_latex(eq)  # rendered once
        assert equation_to_latex(Equation(eq.lhs, eq.rhs)) == fresh
