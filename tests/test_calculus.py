"""Calculus tests: corpus-derived golden results, the complex-step
derivative oracle, and the differentiate-integrate identity over the table."""
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from derivekit.calculus import (
    NoDerivativePresent,
    NoIntegralPresent,
    antiderivative,
    differentiate,
    evaluate_derivatives,
    evaluate_integrals,
)
from derivekit.expr import (
    Equation,
    EvalError,
    Integer,
    Symbol,
    add,
    applied,
    derivative,
    div,
    eval_numeric,
    func,
    integral,
    mul,
    neg,
    pow_,
)
from derivekit.latex import equation_to_latex, to_latex
from helpers import eval_complex
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


def integral_rhs(e, v, used_symbols, constant_pool):
    """(rhs, constant) of evaluate_integrals on F = integral(e, v), or None
    on a table miss."""
    out = evaluate_integrals(Equation(Symbol("F"), integral(e, v)), used_symbols, constant_pool)
    if out is None:
        return None
    eq, (const,) = out
    return eq.rhs, const


def test_integrate_golden_log():
    s = Symbol("\\mathbf{s}")
    out = integral_rhs(func("log", s), s, {"\\mathbf{s}", "y^{\\prime}"}, POOL)
    assert out is not None
    anti, const = out
    assert const == Symbol("\\omega")
    assert to_latex(anti) == r"\mathbf{s} \log{(\mathbf{s})} - \mathbf{s} + \omega"


def test_integrate_golden_polynomial():
    J, v = Symbol("\\mathbf{J}"), Symbol("\\mathbf{v}")
    out = integral_rhs(add(J, v), J, {"\\mathbf{J}", "\\mathbf{v}", "\\omega", "\\chi", "n", "Q"}, POOL)
    assert out is not None
    anti, const = out
    assert const == Symbol("f")
    assert to_latex(anti) == r"\frac{\mathbf{J}^{2}}{2} + \mathbf{J} \mathbf{v} + f"


def test_integrate_zero_gives_bare_constant():
    out = integral_rhs(Integer(0), x, set(), POOL)
    assert out is not None
    anti, const = out
    assert anti == const


def test_integrate_table_miss_returns_none():
    assert integral_rhs(mul(x, func("sin", x)), x, set(), POOL) is None
    assert integral_rhs(pow_(x, y), x, set(), POOL) is None
    assert integral_rhs(func("sin", mul(Integer(2), x)), x, set(), POOL) is None


def test_integrate_constant_never_collides():
    used = set(POOL[:-1]) | {"x"}
    out = integral_rhs(x, x, used, POOL)
    assert out is not None
    _, const = out
    assert const == Symbol(POOL[-1])


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
    with pytest.raises(NoDerivativePresent):
        evaluate_derivatives(eq)
    with pytest.raises(NoDerivativePresent):
        evaluate_derivatives(Equation(x, y))


def test_evaluate_integrals_golden():
    lam = Symbol("\\lambda")
    u = applied("u", [lam])
    eq = Equation(integral(u, lam), integral(func("sin", lam), lam))
    out = evaluate_integrals(eq, {"u", "\\lambda"}, ["n", "Q"])
    assert out is not None
    new, constants = out
    assert equation_to_latex(new) == r"\int u{(\lambda)} d\lambda = n - \cos{(\lambda)}"
    assert constants == (Symbol("n"),)

    psl = Symbol("\\Psi_{\\lambda}")
    I_ = applied("\\mathbb{I}", [psl])
    eq2 = Equation(integral(I_, psl), integral(func("exp", psl), psl))
    out2 = evaluate_integrals(eq2, {"\\mathbb{I}", "\\Psi_{\\lambda}"}, ["\\chi"])
    assert out2 is not None
    new2, _ = out2
    assert equation_to_latex(new2).endswith(r"= \chi + e^{\Psi_{\lambda}}")


def test_evaluate_integrals_table_miss_is_absent():
    eq = Equation(x, integral(mul(x, func("sin", x)), x))
    assert evaluate_integrals(eq, set(), POOL) is None


def test_evaluate_integrals_errors():
    with pytest.raises(NoIntegralPresent):
        evaluate_integrals(Equation(x, y), set(), POOL)
    # only a stuck (unknown-function) integral present: nothing to evaluate
    eq = Equation(integral(applied("u", [x]), x), y)
    with pytest.raises(NoIntegralPresent):
        evaluate_integrals(eq, set(), POOL)


def test_evaluate_integrals_nested_in_derivative():
    xp = Symbol("x^\\prime")
    inner = integral(func("log", xp), xp)
    eq = Equation(x, derivative(inner, xp))
    out = evaluate_integrals(eq, {"x", "x^\\prime"}, ["n_{2}"])
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
    out = integral_rhs(integrand, x, {"x", "c", "b"}, POOL)
    assert out is not None, "table should cover this instance"
    anti, _ = out
    assert differentiate(anti, x) == integrand


def test_antiderivative_of_rules_matches_patterns():
    # rule-level check: for every rule match, differentiate(antiderivative) == pattern
    for integrand in TABLE_INSTANCES:
        anti = antiderivative(integrand, x)
        assert anti is not None
        assert differentiate(anti, x) == integrand
