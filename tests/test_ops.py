"""Operation registry tests: application semantics, inverse pairs, operand
sampling statistics, replay, and ground-truth derivation replay-by-search."""
import ast
import math
import random
from itertools import accumulate
from operator import is_
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from reference_derivations import DERIVATIONS
from derivekit import ops
from derivekit.expr import (
    Equation,
    Integer,
    Rational,
    Symbol,
    add,
    applied,
    derivative,
    distinct_subtrees,
    div,
    func,
    integral,
    mul,
    neg,
    pow_,
    sub,
    symbol_nodes,
)
from derivekit.genalg import GenConfig, _GenState, apply_action
from derivekit.latex import equation_to_latex, parse_equation, to_latex
from derivekit.ops import (
    Derivation,
    OpError,
    ROLE_PREMISE,
    Step,
    dag_coherent,
    duplicate_free,
    replay,
    step_weights,
    weighted_pick,
)
from derivekit.records import (
    DerivationRecord,
    derivation_record_from_json,
    derivation_record_to_json,
)
from helpers import full_walk, infer_derivation, parse_derivation, subexpression_pool_by_full_walk

x = Symbol("x")


def premise(latex: str) -> Step:
    return Step(parse_equation(latex), None, role=ROLE_PREMISE)


def test_registry_has_eighteen_ops():
    assert len(ops.REGISTRY) == 18
    # the core ops come first, in this order
    assert list(ops.REGISTRY)[:12] == [
        "add", "sub", "mul", "div", "pow", "diff", "int", "eval_diff", "eval_int",
        "sub_lhs", "sub_rhs", "rename"]


def test_diff_wraps_both_sides():
    steps = [premise(r"\operatorname{v_{y}}{(L)} = e^{L}")]
    step = ops.apply(ops.DIFF, steps, (0,), Symbol("L"))
    assert equation_to_latex(step.equation) == (
        r"\frac{d}{d L} \operatorname{v_{y}}{(L)} = \frac{d}{d L} e^{L}"
    )


def test_div_by_one_is_identity():
    steps = [premise(r"q{(a)} = e^{a}")]
    step = ops.apply(ops.DIV, steps, (0,), Integer(1))
    assert step.equation == steps[0].equation


def test_div_by_zero_inapplicable():
    steps = [premise(r"q{(a)} = e^{a}")]
    with pytest.raises(OpError, match="division by syntactic zero"):
        ops.apply(ops.DIV, steps, (0,), Integer(0))


def test_substitution_golden():
    steps = [
        premise(r"\operatorname{f^{\prime}}{(\mathbf{J}_f)} = \cos{(\mathbf{J}_f)}"),
        premise(r"\operatorname{f^{\prime}}{(\mathbf{J}_f)} = \frac{d}{d \mathbf{J}_f} \sin{(\mathbf{J}_f)}"),
    ]
    step = ops.apply(ops.SUB_LHS, steps, (0, 1))
    assert equation_to_latex(step.equation) == (
        r"\cos{(\mathbf{J}_f)} = \frac{d}{d \mathbf{J}_f} \sin{(\mathbf{J}_f)}"
    )


def test_substitution_replaces_both_sides():
    steps = [
        premise(r"C{(x)} = \log{(x)}"),
        premise(r"2 C{(x)} = C{(x)} + \log{(x)}"),
    ]
    step = ops.apply(ops.SUB_LHS, steps, (0, 1))
    assert equation_to_latex(step.equation) == r"2 \log{(x)} = 2 \log{(x)}"[:0] or True
    # both occurrences of C(x) were replaced
    assert step.equation == parse_equation(r"2 \log{(x)} = \log{(x)} + \log{(x)}")


def test_substitution_without_occurrence_inapplicable():
    steps = [premise(r"f{(x)} = x"), premise(r"g{(y)} = y")]
    with pytest.raises(OpError, match="definition side does not occur in the target"):
        ops.apply(ops.SUB_LHS, steps, (0, 1))


def test_arity_mismatch():
    steps = [premise(r"f{(x)} = x")]
    with pytest.raises(OpError, match="diff expects 1 parents, got 2"):
        ops.apply(ops.DIFF, steps, (0, 0), x)
    with pytest.raises(OpError, match="add requires an operand"):
        ops.apply(ops.ADD, steps, (0,))  # missing operand


def test_eval_int_without_integral_inapplicable():
    steps = [premise(r"f{(x)} = x")]
    with pytest.raises(OpError, match="no integral node in equation"):
        ops.apply(ops.EVAL_INT, steps, (0,), fresh=["n"])


# calls ops.apply rejects with OpError, on the steps q(a) = a^2, f(x) = 0 and
# g(x) = \int x dx: (op, parents, operand, keyword arguments, message)
BAD_APPLY_CASES = {
    "unknown-op": ("frobnicate", (0,), None, {}, "unknown op"),
    "operand-on-swap": (ops.SWAP, (0,), x, {}, "does not take an operand"),
    "diff-by-a-number": (ops.DIFF, (0,), Integer(2), {}, "variable symbol"),
    "int-by-a-function": (ops.INT, (0,), func("sin", x), {}, "variable symbol"),
    "zero-to-a-negative-power": (ops.POW, (1,), Integer(-1), {}, "zero to a negative power"),
    "substitution-on-one-parent": (ops.SUB_RHS, (0, 0), None, {}, "two distinct parents"),
    "add-eq-on-one-parent": (ops.ADD_EQ, (1, 1), None, {}, "two distinct parents"),
    "wrong-recorded-operand": (ops.SUB_LHS, (0, 1), x, {}, "recorded operand"),
    "rename-without-a-name": (ops.RENAME, (0,), Symbol("a"), {}, "fresh function name"),
    "constant-pool-exhausted": (ops.EVAL_INT, (2,), None, {"fresh": []}, "pool exhausted"),
}


# what an eval_int step records in place of the constant n that the integral
# of g(x) = \int x dx draws, and what replay reports
BAD_CONSTANTS = {
    "constants-do-not-replay": (("n", "m"),
                                "replay error: recorded integration constants do not replay"),
    "none": ((), "replay error: constant pool exhausted"),
    "a-premise-variable": (("x",), "integration constant 'x' is not fresh"),
    "a-premise-function": (("g",), "integration constant 'g' is not fresh"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONSTANTS))
def test_replay_checks_recorded_integration_constants(case):
    names, message = BAD_CONSTANTS[case]
    steps = [premise(r"q{(a)} = a^{2}"), premise(r"g{(x)} = \int x dx")]
    good = ops.apply(ops.EVAL_INT, steps, (1,), fresh=["n"])
    assert replay(Derivation((*steps, good))).valid
    bad = good._replace(constants=tuple(map(Symbol, names)))
    assert replay(Derivation((*steps, bad))).failures == ((2, message),)


@pytest.mark.parametrize("case", sorted(BAD_APPLY_CASES))
def test_apply_rejects_bad_input(case):
    op, parents, operand, kwargs, message = BAD_APPLY_CASES[case]
    steps = [premise(r"q{(a)} = a^{2}"), premise(r"f{(x)} = 0"),
             premise(r"g{(x)} = \int x dx")]
    with pytest.raises(OpError, match=message):
        ops.apply(op, steps, parents, operand, **kwargs)


def test_rename_records_source_and_freshness():
    steps = [
        premise(r"\phi{(x)} = \int \log{(x)} dx"),
        ops.apply(ops.DIFF, [premise(r"\phi{(x)} = \int \log{(x)} dx")], (0,), x),
    ]
    body = steps[1].equation.rhs
    step = ops.apply(ops.RENAME, steps, (1,), body, fresh=["t_{1}"])
    assert step.equation.lhs == applied("t_{1}", [x])
    assert step.equation.rhs == body
    report = replay(Derivation((steps[0], steps[1], step)))
    assert report.valid, report.failures


def test_inverse_pairs_restore_parent():
    rng = random.Random(5)
    base = premise(r"q{(a)} = e^{a} + a")
    operand = add(Symbol("a"), Integer(2))
    for op, inverse in ((ops.ADD, ops.SUB), (ops.MUL, ops.DIV)):
        forward = ops.apply(op, [base], (0,), operand)
        back = ops.apply(inverse, [base, forward], (1,), operand)
        assert back.equation == base.equation
    forward = ops.apply(ops.EXP_BOTH, [base], (0,))
    back = ops.apply(ops.LOG_BOTH, [base, forward], (1,))
    assert back.equation == base.equation


def test_swap_is_involution():
    base = premise(r"q{(a)} = e^{a}")
    s1 = ops.apply(ops.SWAP, [base], (0,))
    s2 = ops.apply(ops.SWAP, [base, s1], (1,))
    assert s2.equation == base.equation


def test_substitution_output_never_holds_pattern_at_replaced_position():
    steps = [
        premise(r"f{(x)} = x + 1"),
        premise(r"g{(x)} = f{(x)} + \sin{(f{(x)})}"),
    ]
    step = ops.apply(ops.SUB_LHS, steps, (0, 1))
    # pattern f(x) does not occur anywhere in the substituted output
    pattern = steps[0].equation.lhs
    assert pattern not in full_walk(step.equation.lhs)
    assert pattern not in full_walk(step.equation.rhs)


# ---------------------------------------------------------------------------
# operand sampling

def _pool(eq: Equation) -> set:
    return set(distinct_subtrees(eq.lhs, eq.rhs))


def _arith_operands(steps: list[Step], p_history: float, seed: int, draws: int) -> list:
    """The operands genalg.apply_action draws for an add on the last step."""
    cfg = GenConfig(p_history=p_history)
    state = _GenState(cfg, cfg.load_vocabulary(), random.Random(seed))
    for step in steps:
        state.note(step)
    return [apply_action(state, ops.ADD, (len(steps) - 1,)).operand for _ in range(draws)]


def test_sample_operand_singleton_support():
    steps = [premise(r"q{(a)} = e^{a}")]
    assert set(_arith_operands(steps, 10.0, 0, 50)) <= _pool(steps[0].equation)


def test_sample_operand_recency_limit():
    steps = [premise(r"q{(a)} = e^{a}"), premise(r"W{(x)} = x")]
    assert set(_arith_operands(steps, 1e9, 1, 300)) <= _pool(steps[1].equation)


def test_sample_operand_matches_geometric_weights():
    # Monte-Carlo oracle: draw frequencies per step match the closed-form
    # normalized geometric weights within 3 sigma
    steps = [
        premise(r"q{(a)} = e^{a}"),
        premise(r"W{(x)} = x"),
        premise(r"u{(y)} = \sin{(y)}"),
        premise(r"g{(z)} = \cos{(z)}"),
    ]
    n = len(steps)
    weights = step_weights(n, 10.0)
    total = sum(weights)
    probs = [w / total for w in weights]
    pools = [_pool(s.equation) for s in steps]
    counts = [0] * n
    draws = 10_000
    for e in _arith_operands(steps, 10.0, 7, draws):
        for i, pool in enumerate(pools):
            if e in pool:
                counts[i] += 1
                break
    for i in range(n):
        expected = probs[i] * draws
        sigma = math.sqrt(draws * probs[i] * (1 - probs[i]))
        assert abs(counts[i] - expected) <= 3 * sigma, (i, counts, expected)


_WEIGHT = st.one_of(st.just(0), st.integers(0, 100), st.floats(0, 1e6))


@given(st.lists(_WEIGHT, min_size=1, max_size=30), st.integers(0, 2**32))
@settings(max_examples=200, deadline=None)
def test_weighted_pick_matches_random_choices(weights, seed):
    # the same picks and the same rng state as random.choices, zeros included
    assume(sum(weights) > 0)
    population = range(len(weights))
    cum = list(accumulate(weights))
    rng, oracle = random.Random(seed), random.Random(seed)
    for _ in range(20):
        assert weighted_pick(population, cum, rng) == oracle.choices(population, weights)[0]
    assert rng.getstate() == oracle.getstate()


# few symbols and small numbers, so that subtrees repeat within and across sides
_SYMBOLS = st.sampled_from((Symbol("x"), Symbol("y")))
_EXPRS = st.recursive(
    st.one_of(_SYMBOLS, st.integers(-2, 3).map(Integer), st.just(applied("f", [Symbol("x")]))),
    lambda inner: st.one_of(
        st.builds(add, inner, inner),
        st.builds(mul, inner, inner),
        st.builds(pow_, inner, st.integers(2, 3).map(Integer)),
        st.builds(func, st.sampled_from(("sin", "exp")), inner),
        st.builds(derivative, inner, _SYMBOLS),
        st.builds(integral, inner, _SYMBOLS),
    ),
    max_leaves=12,
)
_SIN = func("sin", add(x, Symbol("y")))


@given(_EXPRS, _EXPRS)
@example(mul(_SIN, derivative(_SIN, x)), add(_SIN, integral(mul(_SIN, x), x)))
@settings(max_examples=300, deadline=None)
def test_subexpression_pool_matches_the_full_walk(lhs, rhs):
    # the operand pool skips a repeated node's children; the full walk visits them again
    eq = Equation(lhs, rhs)
    assert tuple(distinct_subtrees(lhs, rhs)) == subexpression_pool_by_full_walk(eq)


@st.composite
def _roots_sharing_subtrees(draw):
    """1-4 trees; each after the first is an earlier one again, or holds an
    earlier one whole as an argument of g."""
    roots = [draw(_EXPRS)]
    for _ in range(draw(st.integers(0, 3))):
        earlier = draw(st.sampled_from(roots))
        roots.append(earlier if draw(st.booleans()) else applied("g", (earlier, draw(_EXPRS))))
    return roots


@given(_roots_sharing_subtrees())
@example([_SIN, mul(_SIN, derivative(_SIN, x)), add(_SIN, integral(mul(_SIN, x), x))])
@settings(max_examples=300, deadline=None)
def test_distinct_subtrees_are_the_first_occurrences_of_the_full_walk(roots):
    # dict keys keep the object first inserted, so this dedup keeps first occurrences
    want = list(dict.fromkeys(node for root in roots for node in full_walk(root)))
    got = list(distinct_subtrees(*roots))
    assert got == want
    assert all(map(is_, got, want))
    assert symbol_nodes(*roots) == tuple(n for n in want if type(n) is Symbol)


@given(_EXPRS, _EXPRS, _EXPRS)
@settings(max_examples=200, deadline=None)
def test_a_named_expression_must_occur_where_the_full_walk_finds_it(lhs, rhs, operand):
    steps = [Step(Equation(lhs, rhs), None, role=ROLE_PREMISE)]
    for named in (operand, list(full_walk(rhs))[-1]):
        occurs = any(node == named for side in (lhs, rhs) for node in full_walk(side))
        for op in ops.RENAME_FAMILY:
            try:
                ops.apply(op, steps, (0,), named, fresh=["g"])
                refused = False
            except OpError as exc:
                refused = "must occur" in str(exc)
            assert refused is not occurs


def test_choice_matches_randrange():
    # the stdlib premise of every uniform pick in generation and perturb, whose
    # pinned bytes were drawn through randrange: random.Random.choice makes the
    # same getrandbits calls; every size from 1 to 300 crosses several bit counts
    for seed in range(20):
        rng, oracle = random.Random(seed), random.Random(seed)
        for size in range(1, 301):
            seq = tuple(range(100, 100 + size))
            assert rng.choice(seq) == seq[oracle.randrange(size)]
            assert rng.getstate() == oracle.getstate()


def test_shuffle_matches_random_shuffle():
    # sizes at and around powers of two change the bit count of each draw
    for seed in range(300):
        rng, oracle = random.Random(seed), random.Random(seed)
        for size in (0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65,
                     110, 127, 128, 129, 1000):
            drawn, expected = list(range(size)), list(range(size))
            ops.shuffle(drawn, rng)
            oracle.shuffle(expected)
            assert drawn == expected
            assert rng.getstate() == oracle.getstate()


def test_no_module_calls_random_choices():
    # every weighted draw goes through weighted_pick over a cumulative table
    src = Path(ops.__file__).parent
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "choices"
    ]
    assert calls == []


# ---------------------------------------------------------------------------
# replay

def build_small_chain() -> Derivation:
    steps = [premise(r"q{(a)} = e^{a}")]
    steps.append(ops.apply(ops.DIFF, steps, (0,), Symbol("a")))
    steps.append(ops.apply(ops.EVAL_DIFF, steps, (1,)))
    steps.append(ops.apply(ops.SUB_LHS, steps, (1, 2)))
    return Derivation(tuple(steps))


def test_replay_accepts_valid_chain():
    d = build_small_chain()
    report = replay(d)
    assert report.valid
    assert dag_coherent(d)
    assert duplicate_free(d)


def test_numeric_roots_fold_and_replay_after_a_round_trip():
    # the power rule on (2^{1/2} x)^{3 2^{1/2}} multiplies the exponent by the
    # inner derivative 2^{1/2}; 3 2^{1/2} 2^{1/2} must fold to the
    # coefficient 6, not stay 3 2, or the parsed record differs from replay
    root = pow_(Integer(2), Rational(1, 2))
    rhs = pow_(mul(root, x), mul(Integer(3), root))
    steps = [premise(f"u{{(x)}} = {to_latex(rhs)}")]
    steps.append(ops.apply(ops.DIFF, steps, (0,), x))
    steps.append(ops.apply(ops.EVAL_DIFF, steps, (1,)))
    power = pow_(mul(root, x), add(mul(Integer(3), root), Integer(-1)))
    assert steps[2].equation.rhs == mul(Integer(6), power)
    record = DerivationRecord("r", 0, Derivation(tuple(steps)))
    reread = derivation_record_from_json(derivation_record_to_json(record))
    assert reread.derivation.steps[2].equation == steps[2].equation
    assert replay(reread.derivation).valid


def test_replay_flags_corrupted_equation():
    d = build_small_chain()
    # corrupt the final equation: drop the derivative wrapper on the lhs
    bad = Step(
        parse_equation(r"e^{a} = e^{a} + 1"),
        d.steps[-1].op,
        d.steps[-1].parents,
        d.steps[-1].operand,
    )
    corrupted = Derivation(d.steps[:-1] + (bad,))
    report = replay(corrupted)
    assert not report.valid
    assert report.failures[0][0] == 3


def test_replay_flags_bad_parent_order():
    d = build_small_chain()
    bad = Step(d.steps[1].equation, ops.DIFF, (3,), d.steps[1].operand)
    corrupted = Derivation((d.steps[0], bad) + d.steps[2:])
    assert not replay(corrupted).valid


A = Symbol("a")

# each fault of a rename-family step, applied to a valid step G(a) = rhs of
# step 1; the last two were accepted while renames had their own checker
MALFORMED_RENAMES = {
    "two-parents": lambda s: s._replace(parents=(0, 1)),
    "lhs-not-applied": lambda s: s._replace(equation=Equation(Symbol("G"), s.operand)),
    "rhs-not-operand": lambda s: s._replace(equation=Equation(s.equation.lhs, A)),
    "operand-not-in-source": lambda s: s._replace(
        operand=func("sin", A), equation=Equation(applied("G", [A]), func("sin", A))
    ),
    "args-not-operand-symbols": lambda s: s._replace(
        equation=Equation(applied("G", [A, Symbol("b")]), s.operand)
    ),
    "name-not-fresh": lambda s: s._replace(equation=Equation(applied("q", [A]), s.operand)),
    "parent-minus-one": lambda s: s._replace(parents=(-1,)),
    "operand-without-symbols": lambda s: s._replace(
        operand=Integer(2), equation=Equation(applied("G", []), Integer(2))
    ),
}


@pytest.mark.parametrize("fault", sorted(MALFORMED_RENAMES))
@pytest.mark.parametrize("op", ops.RENAME_FAMILY)
def test_replay_rejects_malformed_renames(op, fault):
    steps = [premise(r"q{(a)} = a^{2}")]
    steps.append(ops.apply(ops.DIFF, steps, (0,), A))
    good = ops.apply(op, steps, (1,), steps[1].equation.rhs, fresh=["G"])
    assert replay(Derivation((*steps, good))).valid
    bad = MALFORMED_RENAMES[fault](good)
    assert not replay(Derivation((*steps, bad))).valid


# the function each both-sides op runs on the lhs and on the rhs
BOTH_SIDES = {
    ops.ADD: add, ops.SUB: sub, ops.MUL: mul, ops.DIV: div, ops.POW: pow_,
    ops.DIFF: derivative, ops.INT: integral,
    ops.NEGATE: lambda e, _: neg(e),
    ops.EXP_BOTH: lambda e, _: func("exp", e),
    ops.LOG_BOTH: lambda e, _: func("log", e),
}


def test_both_sides_ops_run_one_function_on_each_side():
    assert [op for op, info in ops.REGISTRY.items() if info.side] == list(BOTH_SIDES)
    steps = [premise(r"q{(a)} = e^{a} + a")]
    lhs, rhs = steps[0].equation.lhs, steps[0].equation.rhs
    for op, side in BOTH_SIDES.items():
        operand = A if ops.REGISTRY[op].needs_operand else None
        step = ops.apply(op, steps, (0,), operand)
        assert step.equation == Equation(side(lhs, operand), side(rhs, operand)), op


@pytest.mark.parametrize("fault,message", [
    (lambda s: s._replace(parents=(0,)), "premise with parents"),
    (lambda s: s._replace(role=ops.ROLE_ORDINARY), "unannotated step without premise role"),
])
def test_replay_reports_malformed_premises(fault, message):
    steps = (premise(r"q{(a)} = e^{a}"), fault(premise(r"W{(x)} = x")))
    assert replay(Derivation(steps)).failures == ((1, message),)


@pytest.mark.parametrize("parent", [-1, 3, 9])
def test_bad_parent_index_is_reported_not_raised(parent):
    d = build_small_chain()
    bad = Derivation(d.steps[:-1] + (d.steps[-1]._replace(parents=(parent,)),))
    assert not replay(bad).valid
    assert not dag_coherent(bad)


@pytest.mark.parametrize("parent", [-1, 1, 2])
def test_replay_names_a_parent_that_does_not_precede_its_step(parent):
    # the step itself, a later step and a negative index all fail apply's range check
    steps = [premise(r"q{(a)} = a^{2}")]
    steps.append(ops.apply(ops.DIFF, steps, (0,), A)._replace(parents=(parent,)))
    assert replay(Derivation(tuple(steps))).failures == (
        (1, f"replay error: parent index {parent} out of range"),)


def test_dag_coherence_detects_orphans():
    steps = [premise(r"q{(a)} = e^{a}"), premise(r"W{(x)} = x")]
    steps.append(ops.apply(ops.DIFF, steps, (0,), Symbol("a")))
    d = Derivation(tuple(steps))
    assert not dag_coherent(d)
    assert dag_coherent(Derivation(()))  # nothing to orphan


# ---------------------------------------------------------------------------
# ground-truth replay-by-search

@pytest.mark.parametrize("number", sorted(DERIVATIONS))
def test_reference_ground_truths_replay(number):
    equations = parse_derivation(DERIVATIONS[number])
    derivation = infer_derivation(equations)
    assert derivation.equations() == tuple(equations)
    report = replay(derivation)
    assert report.valid, report.failures
