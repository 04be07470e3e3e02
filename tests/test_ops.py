"""Operation registry tests: application semantics, inverse pairs, operand
sampling statistics, replay, and ground-truth derivation replay-by-search."""
import math
import random
from dataclasses import replace

import pytest

from reference_derivations import DERIVATIONS
from derivekit import ops
from derivekit.expr import (
    Equation,
    Integer,
    Symbol,
    add,
    applied,
    func,
)
from derivekit.latex import equation_to_latex, parse_equation
from derivekit.ops import (
    ArityMismatch,
    Derivation,
    InapplicableOp,
    ROLE_PREMISE,
    Step,
    dag_coherent,
    duplicate_free,
    replay,
    sample_operand,
    step_weights,
)
from helpers import infer_derivation, parse_derivation

x = Symbol("x")


def premise(latex: str) -> Step:
    return Step(parse_equation(latex), None, role=ROLE_PREMISE)


def test_registry_has_eighteen_ops():
    assert len(ops.REGISTRY) == 18
    assert sum(1 for info in ops.REGISTRY.values() if not info.extension) == 12


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
    with pytest.raises(InapplicableOp):
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
    with pytest.raises(InapplicableOp):
        ops.apply(ops.SUB_LHS, steps, (0, 1))


def test_arity_mismatch():
    steps = [premise(r"f{(x)} = x")]
    with pytest.raises(ArityMismatch):
        ops.apply(ops.DIFF, steps, (0, 0), x)
    with pytest.raises(ArityMismatch):
        ops.apply(ops.ADD, steps, (0,))  # missing operand


def test_eval_int_without_integral_inapplicable():
    steps = [premise(r"f{(x)} = x")]
    with pytest.raises(InapplicableOp):
        ops.apply(ops.EVAL_INT, steps, (0,), constant_pool=["n"])


def test_rename_records_source_and_freshness():
    steps = [
        premise(r"\phi{(x)} = \int \log{(x)} dx"),
        ops.apply(ops.DIFF, [premise(r"\phi{(x)} = \int \log{(x)} dx")], (0,), x),
    ]
    body = steps[1].equation.rhs
    step = ops.apply(ops.RENAME, steps, (1,), body, fresh_name="t_{1}")
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
    from derivekit.expr import contains

    pattern = steps[0].equation.lhs
    assert not contains(step.equation.lhs, pattern)
    assert not contains(step.equation.rhs, pattern)


# ---------------------------------------------------------------------------
# operand sampling

def test_sample_operand_singleton_support():
    steps = [premise(r"q{(a)} = e^{a}")]
    pool = set(ops.subexpression_pool(steps[0].equation))
    rng = random.Random(0)
    for _ in range(50):
        assert sample_operand(steps, rng, 10.0) in pool


def test_sample_operand_recency_limit():
    steps = [premise(r"q{(a)} = e^{a}"), premise(r"W{(x)} = x")]
    final_pool = set(ops.subexpression_pool(steps[1].equation))
    rng = random.Random(1)
    draws = {sample_operand(steps, rng, 1e9) for _ in range(300)}
    assert draws <= final_pool


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
    pools = [set(ops.subexpression_pool(s.equation)) for s in steps]
    rng = random.Random(7)
    counts = [0] * n
    draws = 10_000
    for _ in range(draws):
        e = sample_operand(steps, rng, 10.0)
        for i, pool in enumerate(pools):
            if e in pool:
                counts[i] += 1
                break
    for i in range(n):
        expected = probs[i] * draws
        sigma = math.sqrt(draws * probs[i] * (1 - probs[i]))
        assert abs(counts[i] - expected) <= 3 * sigma, (i, counts, expected)


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
    "two-parents": lambda s: replace(s, parents=(0, 1)),
    "lhs-not-applied": lambda s: replace(s, equation=Equation(Symbol("G"), s.operand)),
    "rhs-not-operand": lambda s: replace(s, equation=Equation(s.equation.lhs, A)),
    "operand-not-in-source": lambda s: replace(
        s, operand=func("sin", A), equation=Equation(applied("G", [A]), func("sin", A))
    ),
    "args-not-operand-symbols": lambda s: replace(
        s, equation=Equation(applied("G", [A, Symbol("b")]), s.operand)
    ),
    "name-not-fresh": lambda s: replace(s, equation=Equation(applied("q", [A]), s.operand)),
    "parent-minus-one": lambda s: replace(s, parents=(-1,)),
    "operand-without-symbols": lambda s: replace(
        s, operand=Integer(2), equation=Equation(applied("G", []), Integer(2))
    ),
}


@pytest.mark.parametrize("fault", sorted(MALFORMED_RENAMES))
@pytest.mark.parametrize("op", ops.RENAME_FAMILY)
def test_replay_rejects_malformed_renames(op, fault):
    steps = [premise(r"q{(a)} = a^{2}")]
    steps.append(ops.apply(ops.DIFF, steps, (0,), A))
    good = ops.apply(op, steps, (1,), steps[1].equation.rhs, fresh_name="G")
    assert replay(Derivation((*steps, good))).valid
    bad = MALFORMED_RENAMES[fault](good)
    assert not replay(Derivation((*steps, bad))).valid


@pytest.mark.parametrize("parent", [-1, 3, 9])
def test_bad_parent_index_is_reported_not_raised(parent):
    d = build_small_chain()
    bad = Derivation(d.steps[:-1] + (replace(d.steps[-1], parents=(parent,)),))
    assert not replay(bad).valid
    assert not dag_coherent(bad)


def test_dag_coherence_detects_orphans():
    steps = [premise(r"q{(a)} = e^{a}"), premise(r"W{(x)} = x")]
    steps.append(ops.apply(ops.DIFF, steps, (0,), Symbol("a")))
    d = Derivation(tuple(steps))
    assert not dag_coherent(d)


# ---------------------------------------------------------------------------
# ground-truth replay-by-search

@pytest.mark.parametrize("number", sorted(DERIVATIONS))
def test_reference_ground_truths_replay(number):
    equations = parse_derivation(DERIVATIONS[number])
    derivation = infer_derivation(equations)
    assert derivation.equations() == tuple(equations)
    report = replay(derivation)
    assert report.valid, report.failures
