"""Immutable symbolic expression trees with built-in canonicalization.

Every constructor function (``add``, ``mul``, ``pow_``, ...) returns a
canonical tree: sums and products are flattened, numeric parts folded into
exact rationals, like terms and like factors merged, and operands stored in
a fixed total structural order. ``canonicalize`` therefore just rebuilds a
tree bottom-up through the constructors and is idempotent by construction.
A folded number is an ``int``, or a ``Fraction`` only when it is not
integral; the two mix exactly and compare and hash alike.

Canonicalization is syntactic only: no trig identities, no factoring, no
equation solving. Derivative and Integral nodes are opaque here and are only
evaluated by the calculus module.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

FUNCTION_KINDS = ("sin", "cos", "exp", "log")

# Class ranks for the total structural order.
_R_NUM = 0
_R_SYMBOL = 1
_R_POW = 2
_R_FUNC = 3
_R_APPLIED = 4
_R_ADD = 5
_R_MUL = 6
_R_DERIVATIVE = 7
_R_INTEGRAL = 8


class ExprError(Exception):
    """Base error for expression operations."""


class EvalError(ExprError):
    """Numeric evaluation failed (unbound name, domain error, opaque node)."""


class Expr:
    """Base class for all expression nodes. Instances are immutable."""

    __slots__ = ("_hash", "_key")

    _hash: int
    _key: Optional[tuple]

    def sort_key(self) -> tuple:
        key = self._key
        if key is None:
            key = self._make_key()
            object.__setattr__(self, "_key", key)
        return key

    def _make_key(self) -> tuple:  # pragma: no cover - overridden
        raise NotImplementedError

    def __hash__(self) -> int:
        return self._hash

    def children(self) -> tuple["Expr", ...]:
        return ()

    def subtrees(self) -> Iterator["Expr"]:
        """Yield every node of the tree, preorder, including self."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    def __repr__(self) -> str:
        from .latex import to_latex

        return f"{type(self).__name__}({to_latex(self)!r})"


class Integer(Expr):
    __slots__ = ("value",)

    def __init__(self, value: int):
        object.__setattr__(self, "value", int(value))
        object.__setattr__(self, "_hash", hash(("i", self.value)))
        object.__setattr__(self, "_key", None)

    def _make_key(self) -> tuple:
        return (_R_NUM, self.value)

    def __eq__(self, other) -> bool:
        return type(other) is Integer and other.value == self.value

    __hash__ = Expr.__hash__


class Rational(Expr):
    """Exact fraction in lowest terms with positive denominator (never integral)."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", hash(("r", num, den)))
        object.__setattr__(self, "_key", None)

    def _make_key(self) -> tuple:
        return (_R_NUM, Fraction(self.num, self.den))

    def __eq__(self, other) -> bool:
        return type(other) is Rational and other.num == self.num and other.den == self.den

    __hash__ = Expr.__hash__


class Symbol(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("s", name)))
        object.__setattr__(self, "_key", None)

    def _make_key(self) -> tuple:
        return (_R_SYMBOL, self.name)

    def __eq__(self, other) -> bool:
        return type(other) is Symbol and other.name == self.name

    __hash__ = Expr.__hash__


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple[Expr, ...]):
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", hash(("+",) + tuple(map(hash, terms))))
        object.__setattr__(self, "_key", None)

    def _make_key(self) -> tuple:
        return (_R_ADD,) + tuple(t.sort_key() for t in self.terms)

    def children(self) -> tuple[Expr, ...]:
        return self.terms

    def __eq__(self, other) -> bool:
        return type(other) is Add and self._hash == other._hash and other.terms == self.terms

    __hash__ = Expr.__hash__


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple[Expr, ...]):
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "_hash", hash(("*",) + tuple(map(hash, factors))))
        object.__setattr__(self, "_key", None)

    def _make_key(self) -> tuple:
        return (_R_MUL,) + tuple(f.sort_key() for f in self.factors)

    def children(self) -> tuple[Expr, ...]:
        return self.factors

    def __eq__(self, other) -> bool:
        return type(other) is Mul and self._hash == other._hash and other.factors == self.factors

    __hash__ = Expr.__hash__


class Pow(Expr):
    __slots__ = ("base", "exp")

    def __init__(self, base: Expr, exp: Expr):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exp", exp)
        object.__setattr__(self, "_hash", hash(("^", hash(base), hash(exp))))
        object.__setattr__(self, "_key", None)

    def _make_key(self) -> tuple:
        return (_R_POW, self.base.sort_key(), self.exp.sort_key())

    def children(self) -> tuple[Expr, ...]:
        return (self.base, self.exp)

    def __eq__(self, other) -> bool:
        return type(other) is Pow and other.base == self.base and other.exp == self.exp

    __hash__ = Expr.__hash__


class Func(Expr):
    """Application of one of the fixed elementary functions sin/cos/exp/log."""

    __slots__ = ("kind", "arg")

    def __init__(self, kind: str, arg: Expr):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "arg", arg)
        object.__setattr__(self, "_hash", hash(("f", kind, hash(arg))))
        object.__setattr__(self, "_key", None)

    def _make_key(self) -> tuple:
        return (_R_FUNC, self.kind, self.arg.sort_key())

    def children(self) -> tuple[Expr, ...]:
        return (self.arg,)

    def __eq__(self, other) -> bool:
        return type(other) is Func and other.kind == self.kind and other.arg == self.arg

    __hash__ = Expr.__hash__


class AppliedFunction(Expr):
    """A named, uninterpreted function applied to arguments, e.g. q(a)."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple[Expr, ...]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_hash", hash(("a", name) + tuple(map(hash, args))))
        object.__setattr__(self, "_key", None)

    def _make_key(self) -> tuple:
        return (_R_APPLIED, self.name) + tuple(a.sort_key() for a in self.args)

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def __eq__(self, other) -> bool:
        return (
            type(other) is AppliedFunction
            and other.name == self.name
            and other.args == self.args
        )

    __hash__ = Expr.__hash__


class Derivative(Expr):
    """Unevaluated derivative node d^order/d var^order (body)."""

    __slots__ = ("body", "var", "order")

    def __init__(self, body: Expr, var: Symbol, order: int):
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_hash", hash(("d", hash(body), hash(var), order)))
        object.__setattr__(self, "_key", None)

    def _make_key(self) -> tuple:
        return (_R_DERIVATIVE, self.var.sort_key(), self.order, self.body.sort_key())

    def children(self) -> tuple[Expr, ...]:
        # var first, so freshly named functions list the derivative
        # variable ahead of other symbols (t1(x', n2) style)
        return (self.var, self.body)

    def __eq__(self, other) -> bool:
        return (
            type(other) is Derivative
            and other.order == self.order
            and other.var == self.var
            and other.body == self.body
        )

    __hash__ = Expr.__hash__


class Integral(Expr):
    """Unevaluated indefinite integral node."""

    __slots__ = ("body", "var")

    def __init__(self, body: Expr, var: Symbol):
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "_hash", hash(("I", hash(body), hash(var))))
        object.__setattr__(self, "_key", None)

    def _make_key(self) -> tuple:
        return (_R_INTEGRAL, self.var.sort_key(), self.body.sort_key())

    def children(self) -> tuple[Expr, ...]:
        return (self.var, self.body)

    def __eq__(self, other) -> bool:
        return type(other) is Integral and other.var == self.var and other.body == self.body

    __hash__ = Expr.__hash__


class Equation:
    """Ordered pair of canonical expressions: lhs = rhs.

    ``_latex`` holds the equation's LaTeX once ``latex.equation_to_latex``
    has rendered it, so each equation is rendered at most once.
    """

    __slots__ = ("lhs", "rhs", "_hash", "_latex")

    def __init__(self, lhs: Expr, rhs: Expr):
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "_hash", hash(("eq", hash(lhs), hash(rhs))))
        object.__setattr__(self, "_latex", None)

    def __eq__(self, other) -> bool:
        return type(other) is Equation and other.lhs == self.lhs and other.rhs == self.rhs

    __hash__ = Expr.__hash__

    def swapped(self) -> "Equation":
        return Equation(self.rhs, self.lhs)

    def __repr__(self) -> str:
        from .latex import equation_to_latex

        return f"Equation({equation_to_latex(self)!r})"


Number = Union[Integer, Rational]

ZERO = Integer(0)
ONE = Integer(1)
MINUS_ONE = Integer(-1)


# ---------------------------------------------------------------------------
# numeric helpers

# A folded number has at most this many bits, so it still prints within
# Python's default 4,300-digit int-to-str limit. A numeric power that would
# fold past it (say 9^{99999999} in parsed input) stays a Pow instead of taking
# minutes and gigabytes to compute; any other fold past it (a product or sum
# of huge numbers) raises ExprError.
MAX_FOLD_BITS = 14_000


def num_from_exact(q: int | Fraction) -> Number:
    num, den = q.numerator, q.denominator
    if num.bit_length() > MAX_FOLD_BITS or den.bit_length() > MAX_FOLD_BITS:
        raise ExprError(f"number larger than {MAX_FOLD_BITS} bits")
    if den == 1:
        return Integer(num)
    return Rational(num, den)


def rational(num: int, den: int) -> Number:
    if den == 0:
        raise ExprError("zero denominator")
    return num_from_exact(Fraction(num, den))


def exact_value(e: Expr) -> int | Fraction | None:
    """An Integer's int, a Rational's Fraction, None for any other node."""
    if type(e) is Integer:
        return e.value
    if type(e) is Rational:
        return Fraction(e.num, e.den)
    return None


def is_number(e: Expr) -> bool:
    return type(e) is Integer or type(e) is Rational


def is_zero(e: Expr) -> bool:
    return type(e) is Integer and e.value == 0


# ---------------------------------------------------------------------------
# canonical constructors

def _coeff_split(term: Expr) -> tuple[int | Fraction, Optional[Expr]]:
    """Split a term into (numeric coefficient, residual non-numeric part)."""
    if is_number(term):
        return exact_value(term), None
    if type(term) is Mul:
        coeff = 1
        rest = []
        for f in term.factors:
            q = exact_value(f)
            if q is not None:
                coeff *= q
            else:
                rest.append(f)
        if not rest:
            return coeff, None
        if len(rest) == 1:
            return coeff, rest[0]
        return coeff, Mul(tuple(rest))
    return 1, term


def _base_exp(factor: Expr) -> tuple[Expr, int | Fraction]:
    """Decompose a factor into (base, numeric exponent); symbolic powers stay atomic."""
    if type(factor) is Pow:
        q = exact_value(factor.exp)
        if q is not None:
            return factor.base, q
    return factor, 1


def _term_order_key(parts: list[tuple[int | Fraction, Optional[Expr]]]):
    """Build the descending order key for Add terms.

    Terms are ranked by their monomial exponent vector over the sorted set of
    generators appearing in any term, tie-broken by coefficient; pure numbers
    have an all-zero vector and sort last.
    """
    gens: dict[tuple, int] = {}
    decomposed = []
    for coeff, rest in parts:
        factors: dict[Expr, int | Fraction] = {}
        if rest is not None:
            rest_factors = rest.factors if type(rest) is Mul else (rest,)
            for f in rest_factors:
                base, q = _base_exp(f)
                factors[base] = factors.get(base, 0) + q
        for base in factors:
            gens.setdefault(base.sort_key(), 0)
        decomposed.append((coeff, factors))
    gen_index = {k: i for i, k in enumerate(sorted(gens))}
    n = len(gen_index)
    keys = []
    for coeff, factors in decomposed:
        monom = [0] * n
        for base, q in factors.items():
            monom[gen_index[base.sort_key()]] = q
        keys.append((tuple(monom), coeff))
    return keys


def add(*terms: Expr) -> Expr:
    flat: list[Expr] = []
    for t in terms:
        if type(t) is Add:
            flat.extend(t.terms)
        else:
            flat.append(t)
    # merge like terms: map residual part -> coefficient sum
    const = 0
    by_rest: dict[Expr, int | Fraction] = {}
    order: list[Expr] = []
    for t in flat:
        coeff, rest = _coeff_split(t)
        if rest is None:
            const += coeff
        else:
            if rest not in by_rest:
                by_rest[rest] = 0
                order.append(rest)
            by_rest[rest] += coeff
    parts: list[tuple[int | Fraction, Optional[Expr]]] = []
    for rest in order:
        if by_rest[rest] != 0:
            parts.append((by_rest[rest], rest))
    if const != 0:
        parts.append((const, None))
    if not parts:
        return ZERO
    keys = _term_order_key(parts)
    ordered = [p for _, p in sorted(zip(keys, parts), key=lambda kp: kp[0], reverse=True)]
    rebuilt = []
    for coeff, rest in ordered:
        if rest is None:
            rebuilt.append(num_from_exact(coeff))
        elif coeff == 1:
            rebuilt.append(rest)
        else:
            rebuilt.append(mul(num_from_exact(coeff), rest))
    if len(rebuilt) == 1:
        return rebuilt[0]
    return Add(tuple(rebuilt))


def mul(*factors: Expr) -> Expr:
    flat: list[Expr] = []
    for f in factors:
        if type(f) is Mul:
            flat.extend(f.factors)
        else:
            flat.append(f)
    coeff = 1
    by_base: dict[Expr, list] = {}
    order: list[Expr] = []
    for f in flat:
        q = exact_value(f)
        if q is not None:
            coeff *= q
            continue
        base, e = _base_exp(f)
        if base not in by_base:
            by_base[base] = [0]
            order.append(base)
        by_base[base][0] += e
    if coeff == 0:
        return ZERO
    rebuilt: list[Expr] = []
    for base in order:
        e = by_base[base][0]
        if e == 0:
            continue
        if e == 1:
            rebuilt.append(base)
        else:
            p = pow_(base, num_from_exact(e))
            q = exact_value(p)
            if q is not None:
                coeff *= q
                continue
            rebuilt.append(p)
    if any(type(p) is Mul for p in rebuilt):
        # exponent merging can resurface a product (e.g. (x y)^2 * (x y)^-1)
        return mul(num_from_exact(coeff), *rebuilt)
    rebuilt.sort(key=Expr.sort_key)
    if not rebuilt:
        return num_from_exact(coeff)
    if len(rebuilt) == 1 and coeff != 1 and type(rebuilt[0]) is Add:
        # a bare number times a sum distributes (2(x+y) -> 2x+2y), matching
        # the corpus; coefficients alongside other factors stay factored
        c = num_from_exact(coeff)
        return add(*(mul(c, t) for t in rebuilt[0].terms))
    if coeff != 1:
        rebuilt.insert(0, num_from_exact(coeff))
    if len(rebuilt) == 1:
        return rebuilt[0]
    return Mul(tuple(rebuilt))


def pow_(base: Expr, exp: Expr) -> Expr:
    qb, qe = exact_value(base), exact_value(exp)
    if qe is not None:
        if qe == 0:
            return ONE
        if qe == 1:
            return base
        if qb is not None and qe.denominator == 1:
            if qb == 0 and qe < 0:
                raise ExprError("zero to a negative power")
            size = max(qb.numerator.bit_length(), qb.denominator.bit_length())
            if size <= 1 or size * abs(qe.numerator) <= MAX_FOLD_BITS:
                # a Fraction base, since an int to a negative power is a float
                return num_from_exact(Fraction(qb) ** qe.numerator)
        if qb is not None and qb == 0 and qe > 0:
            return ZERO
        if qb is not None and qb == 1:
            return ONE
        if type(base) is Pow:
            inner = exact_value(base.exp)
            if inner is not None and qe.denominator == 1:
                return pow_(base.base, num_from_exact(inner * qe))
        if type(base) is Mul and qe.denominator == 1:
            # integer powers distribute over products, so that 1/(x y) and
            # (1/x)(1/y) share one canonical (and printable) form
            return mul(*(pow_(f, exp) for f in base.factors))
    return Pow(base, exp)


def func(kind: str, arg: Expr) -> Expr:
    if kind not in FUNCTION_KINDS:
        raise ExprError(f"unsupported function kind: {kind}")
    if kind == "exp":
        if is_zero(arg):
            return ONE
        if type(arg) is Func and arg.kind == "log":
            return arg.arg
    elif kind == "log":
        if type(arg) is Integer and arg.value == 1:
            return ZERO
        if type(arg) is Func and arg.kind == "exp":
            return arg.arg
    elif kind == "sin":
        if is_zero(arg):
            return ZERO
    elif kind == "cos":
        if is_zero(arg):
            return ONE
    return Func(kind, arg)


def applied(name: str, args: Iterable[Expr]) -> AppliedFunction:
    return AppliedFunction(name, tuple(args))


def derivative(body: Expr, var: Symbol, order: int = 1) -> Expr:
    if order < 1:
        raise ExprError("derivative order must be >= 1")
    if type(body) is Derivative and body.var == var:
        return Derivative(body.body, var, body.order + order)
    return Derivative(body, var, order)


def integral(body: Expr, var: Symbol) -> Integral:
    return Integral(body, var)


def sub(a: Expr, b: Expr) -> Expr:
    return add(a, mul(MINUS_ONE, b))


def div(a: Expr, b: Expr) -> Expr:
    return mul(a, pow_(b, MINUS_ONE))


def neg(a: Expr) -> Expr:
    return mul(MINUS_ONE, a)


# ---------------------------------------------------------------------------
# tree operations

def _bound_var(e: Expr, kids) -> Expr:
    # a derivative or integral takes a new variable only if it is a symbol
    return kids[0] if type(kids[0]) is Symbol else e.var


_CANONICAL_BUILDERS = {
    Add: lambda e, kids: add(*kids),
    Mul: lambda e, kids: mul(*kids),
    Pow: lambda e, kids: pow_(kids[0], kids[1]),
    Func: lambda e, kids: func(e.kind, kids[0]),
    AppliedFunction: lambda e, kids: applied(e.name, kids),
    Derivative: lambda e, kids: derivative(kids[1], _bound_var(e, kids), e.order),
    Integral: lambda e, kids: integral(kids[1], _bound_var(e, kids)),
}

_RAW_BUILDERS = {
    Add: lambda e, kids: Add(tuple(kids)),
    Mul: lambda e, kids: Mul(tuple(kids)),
    Pow: lambda e, kids: Pow(kids[0], kids[1]),
    Func: lambda e, kids: Func(e.kind, kids[0]),
    AppliedFunction: lambda e, kids: AppliedFunction(e.name, tuple(kids)),
    Derivative: lambda e, kids: Derivative(kids[1], _bound_var(e, kids), e.order),
    Integral: lambda e, kids: Integral(kids[1], _bound_var(e, kids)),
}


def rebuild(e: Expr, kids: Sequence[Expr], raw: bool = False) -> Expr:
    """A node of e's class over new children, given in ``children()`` order.

    Builds through the canonical constructors, or through the node classes
    when ``raw`` (keeping the tree shape as given). Leaves come back as-is.
    """
    build = (_RAW_BUILDERS if raw else _CANONICAL_BUILDERS).get(type(e))
    return e if build is None else build(e, kids)


def canonicalize(e: Expr) -> Expr:
    """Rebuild a tree bottom-up through the canonical constructors."""
    if type(e) is Rational:
        return rational(e.num, e.den)
    return rebuild(e, [canonicalize(x) for x in e.children()])


def canonicalize_equation(eq: Equation) -> Equation:
    return Equation(canonicalize(eq.lhs), canonicalize(eq.rhs))


def substitute(e: Expr, target: Expr, replacement: Expr) -> Expr:
    """Replace every complete-subtree occurrence of target, then canonicalize.

    Callers pass canonical trees (every constructor output is canonical), so
    untouched branches are reused as-is and only rebuilt paths re-canonicalize.
    """
    if target == replacement:
        return e
    out = _subst_canonical(e, target, replacement)
    return e if out is None else out


def _subst_canonical(e: Expr, target: Expr, replacement: Expr) -> Optional[Expr]:
    """Fused substitute+canonicalize; None means no occurrence below e."""
    if e == target:
        return replacement
    t = type(e)
    if t is Symbol or t is Integer or t is Rational:
        return None
    kids = e.children()
    parts = [_subst_canonical(x, target, replacement) for x in kids]
    if all(p is None for p in parts):
        return None
    return rebuild(e, [x if p is None else p for p, x in zip(parts, kids)])


def contains(e: Expr, target: Expr) -> bool:
    return any(node == target for node in e.subtrees())


def free_symbols(e: Expr) -> tuple[str, ...]:
    """Names of all Symbol and AppliedFunction nodes, in sorted order."""
    names = set()
    for node in e.subtrees():
        if type(node) is Symbol:
            names.add(node.name)
        elif type(node) is AppliedFunction:
            names.add(node.name)
    return tuple(sorted(names))


def symbol_nodes(e: Expr) -> tuple[Symbol, ...]:
    """Distinct Symbol leaves in first-occurrence (preorder) order."""
    seen = {}
    for node in e.subtrees():
        if type(node) is Symbol and node.name not in seen:
            seen[node.name] = node
    return tuple(seen.values())


def equation_free_symbols(eq: Equation) -> tuple[str, ...]:
    return tuple(sorted(set(free_symbols(eq.lhs)) | set(free_symbols(eq.rhs))))


def eval_numeric(e: Expr, bindings: dict[str, float]) -> float:
    """Evaluate to an IEEE double. AppliedFunction names evaluate via bindings."""
    t = type(e)
    if t is Integer:
        return float(e.value)
    if t is Rational:
        return e.num / e.den
    if t is Symbol:
        if e.name not in bindings:
            raise EvalError(f"unbound symbol: {e.name}")
        return float(bindings[e.name])
    if t is AppliedFunction:
        if e.name not in bindings:
            raise EvalError(f"unbound function name: {e.name}")
        return float(bindings[e.name])
    if t is Add:
        return sum(eval_numeric(x, bindings) for x in e.terms)
    if t is Mul:
        out = 1.0
        for x in e.factors:
            out *= eval_numeric(x, bindings)
        return out
    if t is Pow:
        b = eval_numeric(e.base, bindings)
        p = eval_numeric(e.exp, bindings)
        try:
            out = b ** p
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise EvalError(f"power domain error: {b} ** {p}") from exc
        if isinstance(out, complex):
            raise EvalError(f"power domain error: {b} ** {p}")
        return out
    if t is Func:
        x = eval_numeric(e.arg, bindings)
        if e.kind == "sin":
            return math.sin(x)
        if e.kind == "cos":
            return math.cos(x)
        if e.kind == "exp":
            try:
                return math.exp(x)
            except OverflowError as exc:
                raise EvalError("exp overflow") from exc
        if x <= 0:
            raise EvalError(f"log of non-positive value {x}")
        return math.log(x)
    raise EvalError(f"cannot evaluate {type(e).__name__} node numerically")
