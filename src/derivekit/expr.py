"""Immutable symbolic expression trees with built-in canonicalization.

Every constructor function (``add``, ``mul``, ``pow_``, ...) returns a
canonical tree: sums and products are flattened, numeric parts folded into
exact rationals, like terms and like factors merged, and operands stored in
a fixed total structural order. A tree built only through the constructors
is canonical, so no separate canonicalization pass is ever needed.
Nodes and equations are interned: one object per distinct value, so two
trees are equal exactly when they are the same object, and ``==`` and
``hash()`` are object identity. A constructor's output is a fixed point:
``rebuild(n, n.children()) is n`` for every node ``n`` of such a tree.
Rewriting walks rely on it through ``keep_or_rebuild``: a node none of whose
children changed is returned as it is, with the values it keeps. Listing
walks go through ``distinct_subtrees``.
A folded number is an ``int``, or a ``Fraction`` only when it is not
integral; the two mix exactly and compare and hash alike.

Canonicalization is syntactic only: no trig identities, no factoring, no
equation solving. Derivative and Integral nodes are opaque here and are only
evaluated by the calculus module.
"""
from __future__ import annotations

import weakref
from _weakref import _remove_dead_weakref
from fractions import Fraction
from operator import is_
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


class _KeyedRef(weakref.ref):
    """A weak reference that holds its table key, for its callback: what
    ``weakref.KeyedRef`` is, without its Python-level ``__new__`` and ``__init__``."""

    __slots__ = ("key",)


# (class, *fields) -> a weak reference to the one live instance with them
_NODES: dict[tuple, _KeyedRef] = {}


def _forget(dead: _KeyedRef) -> None:
    """A dead node's callback: drop its entry unless a live node took it over."""
    _remove_dead_weakref(_NODES, dead.key)


class _Interned:
    """One object per distinct value. ``cls(*fields)`` returns the live
    instance of ``cls`` with those fields if there is one, and builds and
    registers it otherwise, so ``==`` and ``hash()`` are object identity and
    every use of a value shares its kept ``_key``, ``_tex`` and ``_free``.
    A subclass's ``__slots__`` name its fields in constructor order. Copying
    or pickling an instance raises TypeError (``__getstate__`` is None): a
    copy would be a second object of the same value."""

    __slots__ = ("_key", "_tex", "_free", "__weakref__")
    __getstate__ = None

    _key: Optional[tuple]
    _tex: Optional[str]
    _free: Optional[tuple[str, ...]]

    def __new__(cls, *fields):
        key = (cls, *fields)
        ref = _NODES.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        if cls is Integer:  # an Integer keeps an int: Integer(True) is Integer(1)
            fields = (int(fields[0]),)
            key = (cls, *fields)
        node = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields, strict=True):
            setattr(node, name, value)
        node._key = node._tex = node._free = None
        new = _KeyedRef(node, _forget)
        new.key = key
        while True:  # setdefault: of two threads building one value, one wins
            ref = _NODES.setdefault(key, new)
            if ref is new:
                return node
            other = ref()
            if other is not None:
                return other
            _remove_dead_weakref(_NODES, key)  # its node died; its callback is due


class Expr(_Interned):
    """Base class for all expression nodes; each subclass defines ``_make_key``.
    Nodes are interned (see ``_Interned``) and immutable, so ``_key``, ``_tex``
    and ``_free`` keep the node's ``sort_key``, ``latex.to_latex`` and
    ``free_symbols`` once computed."""

    __slots__ = ()

    def sort_key(self) -> tuple:
        key = self._key
        if key is None:
            key = self._make_key()
            self._key = key
        return key

    def children(self) -> tuple["Expr", ...]:
        return ()

    def __repr__(self) -> str:
        from .latex import to_latex

        return f"{type(self).__name__}({to_latex(self)!r})"


class Integer(Expr):
    __slots__ = ("value",)

    def _make_key(self) -> tuple:
        return (_R_NUM, self.value)


class Rational(Expr):
    """Exact fraction in lowest terms with positive denominator (never integral)."""

    __slots__ = ("num", "den")

    def _make_key(self) -> tuple:
        return (_R_NUM, Fraction(self.num, self.den))


class Symbol(Expr):
    __slots__ = ("name",)

    def _make_key(self) -> tuple:
        return (_R_SYMBOL, self.name)


class Add(Expr):
    __slots__ = ("terms",)

    def _make_key(self) -> tuple:
        return (_R_ADD,) + tuple(t.sort_key() for t in self.terms)

    def children(self) -> tuple[Expr, ...]:
        return self.terms


class Mul(Expr):
    __slots__ = ("factors",)

    def _make_key(self) -> tuple:
        return (_R_MUL,) + tuple(f.sort_key() for f in self.factors)

    def children(self) -> tuple[Expr, ...]:
        return self.factors


class Pow(Expr):
    __slots__ = ("base", "exp")

    def _make_key(self) -> tuple:
        return (_R_POW, self.base.sort_key(), self.exp.sort_key())

    def children(self) -> tuple[Expr, ...]:
        return (self.base, self.exp)


class Func(Expr):
    """Application of one of the fixed elementary functions sin/cos/exp/log."""

    __slots__ = ("kind", "arg")

    def _make_key(self) -> tuple:
        return (_R_FUNC, self.kind, self.arg.sort_key())

    def children(self) -> tuple[Expr, ...]:
        return (self.arg,)


class AppliedFunction(Expr):
    """A named, uninterpreted function applied to arguments, e.g. q(a)."""

    __slots__ = ("name", "args")

    def _make_key(self) -> tuple:
        return (_R_APPLIED, self.name) + tuple(a.sort_key() for a in self.args)

    def children(self) -> tuple[Expr, ...]:
        return self.args


class Derivative(Expr):
    """Unevaluated derivative node d^order/d var^order (body)."""

    __slots__ = ("body", "var", "order")

    def _make_key(self) -> tuple:
        return (_R_DERIVATIVE, self.var.sort_key(), self.order, self.body.sort_key())

    def children(self) -> tuple[Expr, ...]:
        # var first, so freshly named functions list the derivative
        # variable ahead of other symbols (t1(x', n2) style)
        return (self.var, self.body)


class Integral(Expr):
    """Unevaluated indefinite integral node."""

    __slots__ = ("body", "var")

    def _make_key(self) -> tuple:
        return (_R_INTEGRAL, self.var.sort_key(), self.body.sort_key())

    def children(self) -> tuple[Expr, ...]:
        return (self.var, self.body)


class Equation(_Interned):
    """Ordered pair of canonical expressions: lhs = rhs, interned like a node.

    ``_tex`` and ``_free`` hold its ``latex.equation_to_latex`` and its
    ``equation_free_symbols`` once computed, so each is computed at most once.
    """

    __slots__ = ("lhs", "rhs")

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
    gens: set[tuple] = set()
    decomposed = []
    for coeff, rest in parts:
        factors: dict[Expr, int | Fraction] = {}
        if rest is not None:
            rest_factors = rest.factors if type(rest) is Mul else (rest,)
            for f in rest_factors:
                base, q = _base_exp(f)
                factors[base] = factors.get(base, 0) + q
        gens.update(base.sort_key() for base in factors)
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
    # merge like terms: map residual part -> coefficient sum, in first-seen order
    const = 0
    by_rest: dict[Expr, int | Fraction] = {}
    for t in flat:
        coeff, rest = _coeff_split(t)
        if rest is None:
            const += coeff
        else:
            by_rest[rest] = by_rest.get(rest, 0) + coeff
    parts: list[tuple[int | Fraction, Optional[Expr]]] = [
        (coeff, rest) for rest, coeff in by_rest.items() if coeff != 0]
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
    by_base: dict[Expr, int | Fraction] = {}  # base -> exponent sum, in first-seen order
    for f in flat:
        q = exact_value(f)
        if q is not None:
            coeff *= q
            continue
        base, e = _base_exp(f)
        by_base[base] = by_base.get(base, 0) + e
    if coeff == 0:
        return ZERO
    rebuilt: list[Expr] = []
    for base, e in by_base.items():
        if e == 0:
            continue
        p = base if e == 1 else pow_(base, num_from_exact(e))
        q = exact_value(p)
        if q is not None:
            # a numeric base folds once its exponents sum to an integer
            # (2^{1/2} 2^{1/2} -> 2)
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


def keep_or_rebuild(e: Expr, kids: Sequence[Expr]) -> Expr:
    """e itself when every child came back as the same object (a constructor's
    output is a fixed point), else e rebuilt over the new children."""
    return e if all(map(is_, kids, e.children())) else rebuild(e, kids)


def substitute(e: Expr, target: Expr, replacement: Expr) -> Expr:
    """Replace every complete-subtree occurrence of target, then canonicalize.

    Callers pass canonical trees (every constructor output is canonical), so
    untouched branches are reused as-is and only rebuilt paths re-canonicalize.
    """
    if e is target:
        return replacement
    t = type(e)
    if t is Symbol or t is Integer or t is Rational:
        return e
    return keep_or_rebuild(e, [substitute(x, target, replacement) for x in e.children()])


def distinct_subtrees(*roots: Expr) -> Iterator[Expr]:
    """Each distinct node under the roots once, in first-occurrence preorder.
    A repeated node is not walked again: its first occurrence walked its subtree."""
    seen: set[Expr] = set()
    stack = list(reversed(roots))
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            yield node
            stack.extend(reversed(node.children()))


def free_symbols(e: Expr) -> tuple[str, ...]:
    """Names of all Symbol and AppliedFunction nodes, in sorted order. Each
    node keeps its tuple, built once from its children's."""
    free = e._free
    if free is None:
        t = type(e)
        names = {e.name} if t is Symbol or t is AppliedFunction else set()
        for kid in e.children():
            names.update(free_symbols(kid))
        free = e._free = tuple(sorted(names))
    return free


def symbol_nodes(*roots: Expr) -> tuple[Symbol, ...]:
    """Distinct Symbol leaves under the roots, in first-occurrence preorder."""
    return tuple(n for n in distinct_subtrees(*roots) if type(n) is Symbol)


def equation_free_symbols(eq: Equation) -> tuple[str, ...]:
    if eq._free is None:
        eq._free = tuple(sorted(set(free_symbols(eq.lhs)) | set(free_symbols(eq.rhs))))
    return eq._free
