"""Generation algorithm tests: premises, step sampling statistics, coherent
extraction, determinism, and the dataset filters."""
import math
import random
from collections import Counter
from importlib import resources
from types import SimpleNamespace

import pytest

from derivekit import ops
from derivekit.expr import (
    Derivative,
    Equation,
    Integral,
    Integer,
    Symbol,
    applied,
    distinct_subtrees,
    equation_free_symbols,
    free_symbols,
    func,
)
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
    try_step,
    _GenState,
    _recency_pick,
    _substitution_draw,
)
from derivekit.latex import count_lexemes, equation_to_latex, parse_equation, to_latex
from derivekit.ops import ROLE_PREMISE, Step, dag_coherent, duplicate_free, replay
from derivekit.prompts import build_prompt
from derivekit.records import derivation_record_to_json
from derivekit.vocab import SymbolEntry, SymbolTable, load_symbol_table
from helpers import (
    equation_free_symbols_by_walk,
    note_by_pool,
    parse_derivation,
    recency_pick_by_choices,
    sample_action_by_choices,
    substitution_draw_by_full_sort,
)
from reference_derivations import DERIVATIONS


def test_config_validation():
    with pytest.raises(GenerationError):
        GenConfig(length_min=3)
    with pytest.raises(GenerationError):
        GenConfig(retry_cap=0)
    with pytest.raises(GenerationError, match="attempt_factor must be >= 1"):
        GenConfig(attempt_factor=0)
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


@pytest.mark.parametrize("bad, message", [
    ({"max_prompt_tokens": "512"}, "max_prompt_tokens must be an integer, not str"),
    ({"max_latex_chars": None}, "max_latex_chars must be an integer, not NoneType"),
    ({"vocabulary": 5}, "vocabulary must be a string or null, not int"),
    ({"seed": True}, "seed must be an integer, not bool"),
    ({"retry_cap": True}, "retry_cap must be an integer, not bool"),
    ({"attempt_factor": 1.5}, "attempt_factor must be an integer, not float"),
    ({"length_min": 4.5}, "length_min must be an integer, not float"),
    ({"p_subs": False}, "p_subs must be a number, not bool"),
    ({"length_mean": "7"}, "length_mean must be a number, not str"),
])
def test_config_values_must_match_their_field_type(bad, message):
    with pytest.raises(GenerationError) as info:
        GenConfig(**bad)
    assert str(info.value) == message


def test_config_number_fields_take_integers():
    cfg = GenConfig(p_history=10, length_mean=7, length_sigma=3, vocabulary=None)
    assert (cfg.p_history, cfg.length_mean, cfg.length_sigma) == (10, 7, 3)


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


def test_packaged_vocabulary_passes_the_checks_of_a_vocabulary_file():
    # loading the packaged default skips the check that each name reads back
    path = resources.files("derivekit.data").joinpath("vocabulary.json")
    assert len(load_symbol_table(str(path)).entries) == 155
    assert load_symbol_table(str(path)) == load_symbol_table()


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


_INT_WEIGHTS = {"p_arity_0": 5, "p_arity_1": 50, "p_arity_2": 100, "p_evaluate": 50,
                "p_int_or_diff": 1, "p_renaming": 1, "p_define": 0, "p_arith": 1,
                "p_extension": 1, "p_subs": 5, "p_add_eq": 1}


@pytest.mark.parametrize("overrides", [{}, {"p_arity_2": 0}, {"p_define": 0}, _INT_WEIGHTS,
                                       {"p_subs": 3**40, "p_add_eq": 7}])
def test_sample_action_matches_the_choices_oracle(overrides):
    # the cumulative tables give the picks and the rng state of random.choices,
    # with float weights and with int weights, exact or rounded to a float
    cfg = GenConfig(**overrides)
    for seed in (0, 1, 7, 1000):
        flag_rng = random.Random(seed + 1)
        flags = [Applicability(flag_rng.randrange(1, 4), *(flag_rng.random() < 0.5
                                                           for _ in range(3)))
                 for _ in range(10_000)]
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        drawn = [sample_action(f, cfg, rng) for f in flags]
        assert drawn == [sample_action_by_choices(f, cfg, oracle_rng) for f in flags]
        assert rng.getstate() == oracle_rng.getstate()
        assert len(set(drawn)) >= 15  # most ops, NEW_PREMISE and None


def test_recency_pick_matches_the_choices_oracle():
    subset_rng = random.Random(3)
    for seed, p_history in enumerate((10.0, 1.5, 0.25, 1e6)):
        cfg = GenConfig(p_history=p_history)
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        for n in range(1, 40):
            state = SimpleNamespace(steps=[None] * n, cfg=cfg, rng=rng)
            oracle = SimpleNamespace(steps=[None] * n, cfg=cfg, rng=oracle_rng)
            for _ in range(50):
                indices = range(n) if subset_rng.random() < 0.3 else sorted(
                    subset_rng.sample(range(n), subset_rng.randint(1, n)))
                assert _recency_pick(state, indices) == recency_pick_by_choices(oracle, indices)
        assert rng.getstate() == oracle_rng.getstate()


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


ONLY_EVALUATE = dict(p_arity_0=0, p_arity_2=0, p_int_or_diff=0, p_renaming=0, p_define=0,
                     p_arith=0, p_extension=0)
ONLY_RENAME = dict(p_arity_0=0, p_arity_2=0, p_evaluate=0, p_int_or_diff=0, p_define=0,
                   p_arith=0, p_extension=0)


@pytest.mark.parametrize("weights,vocab", [
    (ONLY_EVALUATE, None),  # the one derivative is evaluated already
    (ONLY_RENAME, (("y", "function-name"), ("x", "variable"))),  # no unused function name
])
def test_draws_with_nothing_to_apply_fail(weights, vocab):
    steps = [Step(parse_equation("y = x^{2}"), None, role=ROLE_PREMISE)]
    steps.append(ops.apply(ops.DIFF, steps, (0,), Symbol("x")))
    steps.append(ops.apply(ops.EVAL_DIFF, steps, (1,)))
    table = load_symbol_table() if vocab is None else SymbolTable(
        tuple(SymbolEntry(name, kind) for name, kind in vocab))
    state = _GenState(GenConfig(**weights), table, random.Random(0))
    for s in steps:
        state.note(s)
    assert all(try_step(state) is None for _ in range(20))


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
        assert passes_token_filter(d, cfg)
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
    has the size of the extracted derivation, the applicability flags are
    those a scan of the steps gives, every memoized ops.apply result is what
    ops.apply computes now, and an eval_int failure still fails with a
    freshly drawn pool."""
    note = _GenState.note
    pool_rng = random.Random(5)
    counts = Counter()

    def checked_note(state, step):
        note(state, step)
        steps = state.steps
        n = len(steps)
        assert len(state.ancestors[-1]) == len(extract_derivation(steps))
        names = {c.name for s in steps for c in s.constants}
        for s in steps:
            names.update(equation_free_symbols_by_walk(s.equation))
            names.update(free_symbols(s.operand) if s.operand is not None else ())
        assert state.used_names == names
        subtrees = [set(distinct_subtrees(s.equation.lhs, s.equation.rhs)) for s in steps]
        for definition, s in enumerate(steps):
            for pattern in (s.equation.lhs, s.equation.rhs):
                scanned = [j for j in range(n) if j != definition and pattern in subtrees[j]]
                indexed = [j for j in state.containing.get(pattern, ()) if j != definition]
                assert indexed == scanned
        node_types = {type(node) for pool in subtrees for node in pool}
        assert state.flags == Applicability(n, Derivative in node_types, Integral in node_types,
                                            any(s.role != ROLE_PREMISE for s in steps))
        for (op, parents), memo in state.applied.items():
            if op == ops.EVAL_INT:
                assert memo is None
                with pytest.raises(ops.OpError):
                    ops.apply(op, steps, parents, fresh=_fresh_pool(state, pool_rng))
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


def test_substitution_draw_matches_the_full_sort_oracle(monkeypatch):
    """After every step an attempt accepts, each substitution draw returns the
    step that sorting every definition returns, and leaves the rng in the same
    state; the attempt then goes on from the state before the draws."""
    note = _GenState.note
    counts = Counter()

    def note_and_draw(state, step):
        note(state, step)
        before = state.rng.getstate()
        for op, side in ((ops.SUB_LHS, 0), (ops.SUB_RHS, 1)):
            state.rng.setstate(before)
            drawn = _substitution_draw(state, op)
            after = state.rng.getstate()
            state.rng.setstate(before)
            assert drawn == substitution_draw_by_full_sort(state, op)
            assert state.rng.getstate() == after
            with_target = sum(len(sides[side]) > 1 for sides in state.sides)
            counts["no step" if drawn is None else "step"] += 1
            counts["some without a target"] += 0 < with_target < len(state.steps)
        state.rng.setstate(before)

    monkeypatch.setattr(_GenState, "note", note_and_draw)
    for seed in (0, 1, 2, 1000):
        generate_dataset(GenConfig(seed=seed), 3)
    assert all(counts[key] > 50 for key in ("no step", "step", "some without a target"))


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
    apply(ops.EVAL_INT, (integral,), fresh=["C"])
    apply(ops.SUB_LHS, (0, 2))
    apply(ops.SUB_RHS, (0, 2))
    apply(ops.RENAME, (2,), steps[2].equation.rhs, fresh=["h"])
    for op in (ops.NEGATE, ops.SWAP, ops.EXP_BOTH, ops.LOG_BOTH):
        apply(op, (1,))
    apply(ops.ADD_EQ, (0, 1))
    apply(ops.DEFINE, (1,), func("log", y), fresh=["k"])
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


@pytest.mark.parametrize("seed", [0, 1, 2, 1000])
def test_note_matches_the_note_that_walks_the_pool(seed, monkeypatch):
    # every step noted on every attempt is noted again on a shadow state by
    # the parent's note, which lists the distinct subtrees and walks them
    real_note = _GenState.note
    noted = []

    def note(state, step):
        real_note(state, step)
        shadow = state.__dict__.get("shadow")
        if shadow is None:
            shadow = state.shadow = _GenState(state.cfg, state.vocab, random.Random(0))
        note_by_pool(shadow, step)
        assert state.containing == shadow.containing
        assert state.sides == shadow.sides
        assert state.used_names == shadow.used_names
        assert state.flags == shadow.flags
        assert (state.derivative_indices, state.integral_indices, state.derived_indices) == (
            shadow.derivative_indices, shadow.integral_indices, shadow.derived_indices)
        # each step's sides are its sides' containing lists, which later steps grow
        lhs_list, rhs_list = state.sides[-1]
        assert lhs_list is state.containing[step.equation.lhs]
        assert rhs_list is state.containing[step.equation.rhs]
        noted.append(step)

    monkeypatch.setattr(_GenState, "note", note)
    _, summary = generate_dataset(GenConfig(seed=seed), 80)  # a generate input of perfbench
    assert summary.attempts > 80 and len(noted) > 10 * summary.attempts


def test_cached_free_symbols_match_a_fresh_walk():
    equations = [eq for lines in DERIVATIONS.values() for eq in parse_derivation(lines)]
    records, _ = generate_dataset(GenConfig(seed=0), 20)
    for r in records:  # replay fills the caches of every step but the last
        assert replay(r.derivation).valid
    equations += [s.equation for r in records for s in r.derivation.steps]
    assert any(eq._free is not None for eq in equations)
    for eq in equations:
        assert equation_free_symbols(eq) == equation_free_symbols_by_walk(eq)
        assert equation_free_symbols(eq) is equation_free_symbols(eq)  # walked once
        assert Equation(eq.lhs, eq.rhs) is eq  # interned: its names come along
