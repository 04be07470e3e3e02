"""Calculus tests: corpus-derived golden results, the complex-step
derivative oracle, and the differentiate-integrate identity over the table."""
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from derivekit.calculus import (
    CalculusError,
    _is_plain_coefficient,
    antiderivative,
    differentiate,
    evaluate_derivatives,
    evaluate_integrals,
)
from derivekit.expr import (
    FUNCTION_KINDS,
    Add,
    Equation,
    Func,
    Integer,
    Mul,
    Pow,
    Symbol,
    add,
    applied,
    derivative,
    div,
    free_symbols,
    func,
    integral,
    mul,
    neg,
    pow_,
)
from derivekit.latex import equation_to_latex, to_latex
from helpers import (
    EvalError,
    antiderivative_by_rule_list,
    eval_complex,
    eval_numeric,
    evaluate_derivatives_by_rebuild,
    evaluate_integrals_by_rebuild,
    or_first,
)
from test_expr import random_expr

x, y = Symbol("x"), Symbol("y")
POOL = ["\\omega", "\\chi", "n", "Q", "f", "n_{2}", "\\varepsilon_0"]


def test_differentiate_golden():
    phi1 = Symbol("\\phi_1")
    assert differentiate(func("sin", phi1), phi1) == func("cos", phi1)
    Xhat, t = Symbol("\\hat{X}"), Symbol("t")
    assert to_latex(differentiate(pow_(Xhat, t), t)) == r"\hat{X}^{t} \log{(\hat{X})}"
    assert differentiate(Symbol("c"), x) == Integer(0)


def test_differentiate_unknown_function_stays_symbolic():
    f = applied("f", [x])
    assert differentiate(f, x) == derivative(f, x)
    assert differentiate(applied("f", [y]), x) == Integer(0)
    assert differentiate(integral(f, x), x) == f


def test_differentiate_product_and_chain_rules():
    e = mul(x, func("log", x))
    assert differentiate(e, x) == add(func("log", x), Integer(1))
    e2 = func("exp", pow_(x, Integer(2)))
    assert differentiate(e2, x) == mul(Integer(2), x, e2)
    assert differentiate(func("cos", x), x) == neg(func("sin", x))


def integral_rhs(e, v, names=POOL):
    """(rhs, constant) of evaluate_integrals on F = integral(e, v), or None
    on a table miss."""
    out = evaluate_integrals(Equation(Symbol("F"), integral(e, v)), names)
    if out is None:
        return None
    eq, (const,) = out
    return eq.rhs, const


def test_integrate_golden_log():
    s = Symbol("\\mathbf{s}")
    out = integral_rhs(func("log", s), s)
    assert out is not None
    anti, const = out
    assert const == Symbol("\\omega")
    assert to_latex(anti) == r"\mathbf{s} \log{(\mathbf{s})} - \mathbf{s} + \omega"


def test_integrate_golden_polynomial():
    J, v = Symbol("\\mathbf{J}"), Symbol("\\mathbf{v}")
    out = integral_rhs(add(J, v), J, POOL[4:])  # the pool less its first four names
    assert out is not None
    anti, const = out
    assert const == Symbol("f")
    assert to_latex(anti) == r"\frac{\mathbf{J}^{2}}{2} + \mathbf{J} \mathbf{v} + f"


def test_integrate_zero_gives_bare_constant():
    out = integral_rhs(Integer(0), x)
    assert out is not None
    anti, const = out
    assert anti == const


def test_integrate_table_miss_returns_none():
    assert integral_rhs(mul(x, func("sin", x)), x) is None
    assert integral_rhs(pow_(x, y), x) is None
    assert integral_rhs(func("sin", mul(Integer(2), x)), x) is None


def test_integrate_constant_never_collides():
    # one name per integral, in the order given: two integrals never share one
    out = evaluate_integrals(Equation(integral(x, x), integral(y, y)), POOL)
    assert out is not None
    _, constants = out
    assert constants == (Symbol(POOL[0]), Symbol(POOL[1]))


def test_evaluate_derivatives_golden():
    me = Symbol("M_{E}")
    l = applied("l", [me])
    eq = Equation(derivative(l, me), derivative(func("cos", me), me))
    out = evaluate_derivatives(eq)
    assert out == Equation(derivative(l, me), neg(func("sin", me)))

    zeta = Symbol("\\zeta")
    alpha = applied("\\alpha", [zeta])
    eq2 = Equation(derivative(alpha, zeta), derivative(func("log", zeta), zeta))
    out2 = evaluate_derivatives(eq2)
    assert out2 == Equation(derivative(alpha, zeta), pow_(zeta, Integer(-1)))


def test_evaluate_derivatives_already_evaluated_raises():
    eq = Equation(derivative(applied("f", [x]), x), func("cos", x))
    with pytest.raises(CalculusError, match="no evaluable derivative in equation"):
        evaluate_derivatives(eq)
    with pytest.raises(CalculusError, match="no evaluable derivative in equation"):
        evaluate_derivatives(Equation(x, y))


def test_evaluate_integrals_golden():
    lam = Symbol("\\lambda")
    u = applied("u", [lam])
    eq = Equation(integral(u, lam), integral(func("sin", lam), lam))
    out = evaluate_integrals(eq, ["n", "Q"])
    assert out is not None
    new, constants = out
    assert equation_to_latex(new) == r"\int u{(\lambda)} d\lambda = n - \cos{(\lambda)}"
    assert constants == (Symbol("n"),)

    psl = Symbol("\\Psi_{\\lambda}")
    I_ = applied("\\mathbb{I}", [psl])
    eq2 = Equation(integral(I_, psl), integral(func("exp", psl), psl))
    out2 = evaluate_integrals(eq2, ["\\chi"])
    assert out2 is not None
    new2, _ = out2
    assert equation_to_latex(new2).endswith(r"= \chi + e^{\Psi_{\lambda}}")


def test_evaluate_integrals_table_miss_is_absent():
    eq = Equation(x, integral(mul(x, func("sin", x)), x))
    assert evaluate_integrals(eq, POOL) is None


def test_evaluate_integrals_errors():
    with pytest.raises(CalculusError, match="no integral node in equation"):
        evaluate_integrals(Equation(x, y), POOL)
    # only a stuck (unknown-function) integral present: nothing to evaluate
    eq = Equation(integral(applied("u", [x]), x), y)
    with pytest.raises(CalculusError, match="no concrete integral to evaluate"):
        evaluate_integrals(eq, POOL)


def test_evaluate_integrals_nested_in_derivative():
    xp = Symbol("x^\\prime")
    inner = integral(func("log", xp), xp)
    eq = Equation(x, derivative(inner, xp))
    out = evaluate_integrals(eq, ["n_{2}"])
    assert out is not None
    new, constants = out
    assert constants == (Symbol("n_{2}"),)
    assert equation_to_latex(new) == (
        r"x = \frac{\partial}{\partial x^\prime} "
        r"(n_{2} + x^\prime \log{(x^\prime)} - x^\prime)"
    )


# ---------------------------------------------------------------------------
# oracles

COMPLEX_STEP = 1e-20


def complex_step(e, var_name, bindings):
    """d e / d var by the complex step: Im e(var + i h) / h. Unlike a finite
    difference it subtracts nothing, so it carries no cancellation error."""
    z = dict(bindings)
    z[var_name] = complex(bindings[var_name], COMPLEX_STEP)
    return eval_complex(e, z).imag / COMPLEX_STEP


@given(st.integers(min_value=0, max_value=1_000_000))
@example(213291)  # a central difference misses (\sin{((e^{x})^{3})})^{3} by 1.1e-6 (relative)
@settings(max_examples=120, deadline=None)
def test_derivative_matches_finite_differences(seed):
    rng = random.Random(seed)
    e = random_expr(rng)
    d = differentiate(e, x)
    checked = 0
    attempts = 0
    while checked < 8 and attempts < 80:
        attempts += 1
        bindings = {name: rng.uniform(0.4, 2.0) for name in ("x", "y", "z")}
        try:
            value = eval_numeric(e, bindings)
            exact = eval_numeric(d, bindings)
            approx = complex_step(e, "x", bindings)
        except EvalError:
            continue
        if not (math.isfinite(exact) and math.isfinite(approx) and math.isfinite(value)):
            continue
        if abs(exact) > 1e4 or abs(value) > 1e6:
            continue
        scale = max(abs(exact), abs(approx), 1.0)
        assert abs(exact - approx) <= 1e-6 * scale, (to_latex(e), exact, approx)
        checked += 1


TABLE_INSTANCES = [
    Integer(3),
    Symbol("c"),
    mul(Symbol("c"), Symbol("b")),
    x,
    pow_(x, Integer(2)),
    pow_(x, Integer(5)),
    pow_(x, Integer(-1)),
    pow_(x, Integer(-3)),
    func("sin", x),
    func("cos", x),
    func("exp", x),
    func("log", x),
    add(x, Symbol("c")),
    add(mul(Integer(3), pow_(x, Integer(2))), neg(func("sin", x)), Symbol("c")),
    mul(Symbol("c"), func("exp", x)),
    div(Symbol("c"), x),
]


@pytest.mark.parametrize("integrand", TABLE_INSTANCES, ids=[to_latex(t) for t in TABLE_INSTANCES])
def test_differentiate_integrate_identity(integrand):
    out = integral_rhs(integrand, x)
    assert out is not None, "table should cover this instance"
    anti, _ = out
    assert differentiate(anti, x) == integrand


def test_antiderivative_of_rules_matches_patterns():
    # rule-level check: for every rule match, differentiate(antiderivative) == pattern
    for integrand in TABLE_INSTANCES:
        anti = antiderivative(integrand, x)
        assert anti is not None
        assert differentiate(anti, x) == integrand


# ---------------------------------------------------------------------------
# the one clause function integrates what the rule functions tried in order did

c = Symbol("c")
HALF = div(Integer(1), Integer(2))
_TABLE_FACTORS = (
    Integer(3), HALF, c, y, pow_(c, HALF),  # plain coefficients
    func("sin", c), applied("f", [c]), pow_(c, y),  # free of x, not plain
    x, pow_(x, Integer(2)), pow_(x, Integer(-1)), pow_(x, Integer(-3)), pow_(x, HALF),
    pow_(x, y), *(func(kind, x) for kind in FUNCTION_KINDS),
    func("sin", mul(Integer(2), x)), applied("f", [x]),
)
_INTEGRANDS = st.lists(
    st.lists(st.sampled_from(_TABLE_FACTORS), min_size=1, max_size=3).map(lambda fs: mul(*fs)),
    min_size=1, max_size=3,
).map(lambda terms: add(*terms))

_TABLE_CASES = {
    "a plain coefficient", "a factor free of x, not plain", "x", "a numeric power of x",
    "x^{-1}", "x^{y}", "an elementary function of x", "a function of a compound argument",
    "a coefficient times one factor in x", "two factors in x", "a sum with one term that misses",
}


def _table_cases(e):
    """The clauses of the integration table, and their near misses, that e reaches."""
    terms = e.terms if type(e) is Add else (e,)
    cases = set()
    if len(terms) > 1 and [antiderivative_by_rule_list(t, x) for t in terms].count(None) == 1:
        cases.add("a sum with one term that misses")
    for t in terms:
        factors = t.factors if type(t) is Mul else (t,)
        in_x = [f for f in factors if "x" in free_symbols(f)]
        if len(in_x) > 1:
            cases.add("two factors in x")
        elif in_x and len(factors) > 1:
            cases.add("a coefficient times one factor in x")
        for f in factors:
            if f not in in_x:
                plain = _is_plain_coefficient(f)
                cases.add("a plain coefficient" if plain else "a factor free of x, not plain")
            elif f is x:
                cases.add("x")
            elif type(f) is Pow and f.base is x:
                cases.add("x^{-1}" if f.exp is Integer(-1)
                          else "x^{y}" if f.exp is y else "a numeric power of x")
            elif type(f) is Func:
                cases.add("an elementary function of x" if f.arg is x
                          else "a function of a compound argument")
    return cases


def test_antiderivative_matches_the_rule_list():
    seen = set()

    @given(_INTEGRANDS)
    @example(func("sin", c))
    @example(applied("f", [c]))
    @example(mul(func("sin", c), x))
    @example(mul(applied("f", [c]), pow_(x, Integer(2))))
    @example(mul(pow_(c, HALF), y))
    @example(pow_(x, y))
    @example(mul(Integer(3), pow_(x, Integer(-1))))
    @example(func("sin", mul(Integer(2), x)))
    @example(mul(x, func("cos", x)))
    @example(add(x, func("exp", x), pow_(x, y)))
    @settings(max_examples=300, deadline=None)
    def check(e):
        seen.update(_table_cases(e))
        assert antiderivative(e, x) is antiderivative_by_rule_list(e, x), to_latex(e)

    check()
    assert seen == _TABLE_CASES


# ---------------------------------------------------------------------------
# the walkers return untouched subtrees as they are: the same results, drawn
# constants and errors as walkers that rebuild every node

_VARS = st.sampled_from((x, y))
_CALC_TREES = st.recursive(
    st.one_of(_VARS, st.integers(-2, 3).map(Integer), st.just(Symbol("c")),
              st.builds(lambda args: applied("f", args), st.lists(_VARS, min_size=1, max_size=2))),
    lambda inner: st.one_of(
        st.builds(or_first(add), inner, inner),
        st.builds(or_first(mul), inner, inner),
        st.builds(or_first(lambda p, k: pow_(p, Integer(k))), inner, st.integers(-1, 3)),
        st.builds(func, st.sampled_from(FUNCTION_KINDS), inner),
        st.builds(lambda p, v, k: derivative(p, v, k), inner, _VARS, st.integers(1, 2)),
        st.builds(integral, inner, _VARS),
    ),
    max_leaves=8,
)


def _outcome(evaluate, *args):
    """What an evaluation returns, with its text, or the error it raises."""
    try:
        out = evaluate(*args)
    except Exception as exc:  # the oracle must raise the same error
        return type(exc), str(exc)
    if out is None:
        return None
    if isinstance(out, Equation):
        return out, equation_to_latex(out)
    eq, constants = out
    return eq, equation_to_latex(eq), constants


@given(_CALC_TREES, _CALC_TREES, st.sets(st.sampled_from(POOL), max_size=len(POOL)))
@example(integral(x, x), integral(x, y), set(POOL[1:]))  # the pool runs out at the second
@example(add(y, integral(applied("f", [x]), x)), derivative(mul(x, y), x), set())
@example(integral(add(applied("f", [x]), integral(x, x)), y), x, set())  # stuck, body evaluated
@settings(max_examples=300, deadline=None)
def test_walkers_match_the_walkers_that_rebuild_every_node(lhs, rhs, used):
    eq = Equation(lhs, rhs)
    assert _outcome(evaluate_derivatives, eq) == _outcome(evaluate_derivatives_by_rebuild, eq)
    names = [n for n in POOL if n not in used]
    assert (_outcome(evaluate_integrals, eq, names)
            == _outcome(evaluate_integrals_by_rebuild, eq, names))
