"""Rule-based differentiation and table-driven integration.

Differentiation is total over the supported vocabulary: applications of
named unknown functions differentiate to symbolic Derivative nodes, so
"evaluating" a derivative leaves exactly the parts that cannot be reduced.
Integration is a closed table (powers, 1/x, sin, cos, e^x, log x, linear
combinations); integrands outside the table yield ``None`` rather than an
error, mirroring the generator's skip-on-miss contract. Each successful
integration introduces a constant, the next of the names the caller passes;
the caller keeps those names fresh.
"""
from __future__ import annotations

from typing import Iterable, Optional

from .expr import (
    Add,
    AppliedFunction,
    Derivative,
    Equation,
    Expr,
    Func,
    Integer,
    Integral,
    Mul,
    ONE,
    Pow,
    Rational,
    Symbol,
    ZERO,
    add,
    derivative,
    distinct_subtrees,
    div,
    exact_value,
    free_symbols,
    func,
    integral,
    is_number,
    keep_or_rebuild,
    mul,
    neg,
    num_from_exact,
    pow_,
    sub,
)


class CalculusError(Exception):
    pass


def _depends_on(e: Expr, v: Symbol) -> bool:
    return v.name in free_symbols(e)


def differentiate(e: Expr, v: Symbol) -> Expr:
    """Symbolic derivative de/dv, canonical. Unknown function applications
    become Derivative nodes; derivatives of unrelated variables vanish."""
    return _diff(e, v)


def _diff(e: Expr, v: Symbol) -> Expr:
    t = type(e)
    if t in (Integer, Rational):
        return ZERO
    if t is Symbol:
        return ONE if e == v else ZERO
    if t is AppliedFunction:
        if not _depends_on(e, v):
            return ZERO
        return Derivative(e, v, 1)
    if t is Add:
        return add(*(_diff(x, v) for x in e.terms))
    if t is Mul:
        terms = []
        factors = e.factors
        for i, f in enumerate(factors):
            df = _diff(f, v)
            if df == ZERO:
                continue
            rest = factors[:i] + factors[i + 1:]
            terms.append(mul(df, *rest))
        return add(*terms) if terms else ZERO
    if t is Pow:
        b, p = e.base, e.exp
        db, dp = _diff(b, v), _diff(p, v)
        if dp == ZERO:
            if db == ZERO:
                return ZERO
            return mul(p, pow_(b, sub(p, ONE)), db)
        if db == ZERO:
            return mul(e, func("log", b), dp)
        # general case: b^p (p' log b + p b'/b)
        return mul(e, add(mul(dp, func("log", b)), mul(p, div(db, b))))
    if t is Func:
        u = e.arg
        du = _diff(u, v)
        if du == ZERO:
            return ZERO
        if e.kind == "sin":
            outer: Expr = func("cos", u)
        elif e.kind == "cos":
            outer = neg(func("sin", u))
        elif e.kind == "exp":
            outer = func("exp", u)
        else:
            outer = pow_(u, Integer(-1))
        return mul(outer, du)
    if t is Derivative:
        if not _depends_on(e, v):
            return ZERO
        return derivative(e, v, 1)
    if t is Integral:
        if e.var == v:
            return e.body
        inner = _diff(e.body, v)
        if inner == ZERO:
            return ZERO
        return integral(inner, e.var)
    raise CalculusError(f"cannot differentiate {t!r}")


# ---------------------------------------------------------------------------
# integration table

def _is_plain_coefficient(e: Expr) -> bool:
    """Numbers, symbols, products of them, and their numeric powers."""
    t = type(e)
    if t in (Integer, Rational, Symbol):
        return True
    if t is Pow:
        return _is_plain_coefficient(e.base) and is_number(e.exp)
    if t is Mul:
        return all(_is_plain_coefficient(f) for f in e.factors)
    return False


def antiderivative(e: Expr, v: Symbol) -> Optional[Expr]:
    """Antiderivative of e in v without the integration constant, or None."""
    if type(e) is Add:
        parts = [_term(t, v) for t in e.terms]
        return None if None in parts else add(*parts)
    return _term(e, v)


def _term(e: Expr, v: Symbol) -> Optional[Expr]:
    direct = _atom(e, v)
    if direct is not None or type(e) is not Mul:
        return direct
    # split a coefficient free of v from the rest; the table's closure
    # only covers coefficients built from numbers and plain symbols
    const_parts = [f for f in e.factors if not _depends_on(f, v)]
    var_parts = [f for f in e.factors if _depends_on(f, v)]
    if not const_parts or len(var_parts) > 1 or not all(map(_is_plain_coefficient, const_parts)):
        return None
    inner = _atom(var_parts[0] if var_parts else ONE, v)
    return None if inner is None else mul(*const_parts, inner)


def _atom(e: Expr, v: Symbol) -> Optional[Expr]:
    """The table's three clauses, in order: a plain coefficient free of v,
    a numeric power of v, and an elementary function of v."""
    if not _depends_on(e, v):
        return mul(e, v) if _is_plain_coefficient(e) else None
    if e is v:
        return div(pow_(v, Integer(2)), Integer(2))
    if type(e) is Pow and e.base is v:
        n = exact_value(e.exp)
        if n is None:
            return None
        if n == -1:
            return func("log", v)
        return div(pow_(v, num_from_exact(n + 1)), num_from_exact(n + 1))
    if type(e) is Func and e.arg is v:
        if e.kind == "sin":
            return neg(func("cos", v))
        if e.kind == "cos":
            return func("sin", v)
        if e.kind == "exp":
            return func("exp", v)
        if e.kind == "log":
            return sub(mul(v, func("log", v)), v)
    return None


def _is_concrete_integrand(e: Expr) -> bool:
    """True when the integrand contains no unknown-function application."""
    return not any(type(n) is AppliedFunction for n in distinct_subtrees(e))


# ---------------------------------------------------------------------------
# equation-level evaluation operators

def _map_derivative_nodes(e: Expr) -> Expr:
    kids = [_map_derivative_nodes(x) for x in e.children()]
    if type(e) is not Derivative:
        return keep_or_rebuild(e, kids)
    out = kids[1]
    for _ in range(e.order):
        out = differentiate(out, e.var)
    return out


def evaluate_derivatives(eq: Equation) -> Equation:
    """Evaluate every reducible Derivative node on both sides.

    Derivatives of bare unknown-function applications are fixed points and
    stay symbolic. Raises CalculusError when nothing changes.
    """
    new = Equation(_map_derivative_nodes(eq.lhs), _map_derivative_nodes(eq.rhs))
    if new == eq:
        raise CalculusError("no evaluable derivative in equation")
    return new


class _IntegralEvaluator:
    def __init__(self, names: Iterable[str]):
        self.names = iter(names)
        self.constants: list[Symbol] = []
        self.miss = False
        self.saw_integral = False

    def fresh_constant(self) -> Symbol:
        name = next(self.names, None)
        if name is None:
            raise CalculusError("constant pool exhausted")
        const = Symbol(name)
        self.constants.append(const)
        return const

    def visit(self, e: Expr) -> Expr:
        if type(e) is not Integral:
            return keep_or_rebuild(e, [self.visit(x) for x in e.children()])
        self.saw_integral = True
        body = self.visit(e.body)
        if self.miss:
            return e
        if not _is_concrete_integrand(body):
            return e if body is e.body else integral(body, e.var)
        anti = antiderivative(body, e.var)
        if anti is None:
            self.miss = True
            return e
        return add(anti, self.fresh_constant())


def evaluate_integrals(
    eq: Equation, names: Iterable[str]
) -> Optional[tuple[Equation, tuple[Symbol, ...]]]:
    """Evaluate every concrete Integral node, adding to each the constant
    named by the next of `names`.

    Integrals over unknown-function applications stay symbolic. Returns None
    when some concrete integrand has no table rule; raises CalculusError
    when there is no concrete integral to evaluate at all, or when `names`
    runs out.
    """
    ev = _IntegralEvaluator(names)
    lhs = ev.visit(eq.lhs)
    rhs = ev.visit(eq.rhs)
    if ev.miss:
        return None
    if not ev.saw_integral:
        raise CalculusError("no integral node in equation")
    new = Equation(lhs, rhs)
    if new == eq:
        raise CalculusError("no concrete integral to evaluate")
    return new, tuple(ev.constants)
