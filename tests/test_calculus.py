"""Calculus tests: corpus-derived golden results, the finite-difference
oracle, and the differentiate-integrate identity over the table."""
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from derivekit.calculus import (
    NoDerivativePresent,
    NoIntegralPresent,
    antiderivative,
    differentiate,
    evaluate_derivatives,
    evaluate_integrals,
    integrate,
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


def test_integrate_golden_log():
    s = Symbol("\\mathbf{s}")
    out = integrate(func("log", s), s, {"\\mathbf{s}", "y^{\\prime}"}, POOL)
    assert out is not None
    anti, const = out
    assert const == Symbol("\\omega")
    assert to_latex(anti) == r"\mathbf{s} \log{(\mathbf{s})} - \mathbf{s} + \omega"


def test_integrate_golden_polynomial():
    J, v = Symbol("\\mathbf{J}"), Symbol("\\mathbf{v}")
    out = integrate(add(J, v), J, {"\\mathbf{J}", "\\mathbf{v}", "\\omega", "\\chi", "n", "Q"}, POOL)
    assert out is not None
    anti, const = out
    assert const == Symbol("f")
    assert to_latex(anti) == r"\frac{\mathbf{J}^{2}}{2} + \mathbf{J} \mathbf{v} + f"


def test_integrate_zero_gives_bare_constant():
    out = integrate(Integer(0), x, set(), POOL)
    assert out is not None
    anti, const = out
    assert anti == const


def test_integrate_table_miss_returns_none():
    assert integrate(mul(x, func("sin", x)), x, set(), POOL) is None
    assert integrate(pow_(x, y), x, set(), POOL) is None
    assert integrate(func("sin", mul(Integer(2), x)), x, set(), POOL) is None


def test_integrate_constant_never_collides():
    used = set(POOL[:-1]) | {"x"}
    out = integrate(x, x, used, POOL)
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

def central_difference(e, var_name, bindings, h):
    up = dict(bindings)
    dn = dict(bindings)
    up[var_name] += h
    dn[var_name] -= h
    return (eval_numeric(e, up) - eval_numeric(e, dn)) / (2 * h)


@given(st.integers(min_value=0, max_value=1_000_000))
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
        h = 1e-6 * max(1.0, abs(bindings["x"]))
        try:
            value = eval_numeric(e, bindings)
            exact = eval_numeric(d, bindings)
            approx = central_difference(e, "x", bindings, h)
        except EvalError:
            continue
        if not (math.isfinite(exact) and math.isfinite(approx) and math.isfinite(value)):
            continue
        if abs(exact) > 1e4 or abs(value) > 1e6:
            # oscillation/growth faster than the step width: finite
            # differences carry no signal here
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
    out = integrate(integrand, x, {"x", "c", "b"}, POOL)
    assert out is not None, "table should cover this instance"
    anti, _ = out
    assert differentiate(anti, x) == integrand


def test_antiderivative_of_rules_matches_patterns():
    # rule-level check: for every rule match, differentiate(antiderivative) == pattern
    for integrand in TABLE_INSTANCES:
        anti = antiderivative(integrand, x)
        assert anti is not None
        assert differentiate(anti, x) == integrand
