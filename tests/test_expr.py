"""Expression-core tests: canonical forms, substitution, evaluation, and the
algebraic laws the tree must satisfy."""
import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from derivekit.expr import (
    Add,
    Mul,
    Equation,
    ExprError,
    Integer,
    MAX_FOLD_BITS,
    Mul,
    Rational,
    Symbol,
    add,
    applied,
    div,
    free_symbols,
    func,
    integral,
    derivative,
    keep_or_rebuild,
    mul,
    neg,
    pow_,
    rebuild,
    substitute,
)
from derivekit.genalg import GenConfig, generate_dataset
from helpers import EvalError, canonicalize, eval_numeric, full_walk, rational

x, y, z = Symbol("x"), Symbol("y"), Symbol("z")


def test_like_terms_merge():
    assert add(x, x) == mul(Integer(2), x)
    assert add(x, x, x) == mul(Integer(3), x)
    assert add(mul(Integer(2), x), mul(Integer(3), x)) == mul(Integer(5), x)


def test_additive_identity():
    assert add(x, Integer(0)) == x


def test_mul_permutations_identical():
    exprs = {mul(*perm) for perm in permutations((x, y, z))}
    assert len(exprs) == 1
    assert mul(mul(x, y), z) == mul(z, mul(y, x))


def test_add_permutations_identical():
    exprs = {add(*perm) for perm in permutations((x, func("sin", y), Integer(3)))}
    assert len(exprs) == 1


def test_no_nested_add_or_mul():
    e = add(x, add(y, add(z, Integer(1))))
    assert type(e) is Add
    assert all(type(t) is not Add for t in e.terms)
    m = mul(x, mul(y, mul(z, Integer(2))))
    assert type(m) is Mul
    assert all(type(f) is not Mul for f in m.factors)


def test_nested_power_merges_through_mul():
    e = mul(y, pow_(mul(Integer(2), x), Integer(2)))
    assert type(e) is Mul
    assert all(type(f) is not Mul for f in e.factors)
    assert e == mul(Integer(4), y, pow_(x, Integer(2)))


def test_rational_lowest_terms():
    r = rational(6, -8)
    assert isinstance(r, Rational)
    assert (r.num, r.den) == (-3, 4)
    assert rational(4, 2) == Integer(2)
    assert div(Integer(1), Integer(2)) == rational(1, 2)


def test_numeric_folding():
    assert add(Integer(2), Integer(3)) == Integer(5)
    assert mul(Integer(2), rational(1, 2)) == Integer(1)
    assert pow_(Integer(2), Integer(-2)) == rational(1, 4)
    assert pow_(Integer(2), Integer(3)) == Integer(8)


def test_numeric_powers_fold_exactly():
    # an int to a negative power is a float in Python; the fold must stay exact
    assert pow_(Integer(2), Integer(-1)) == Rational(1, 2)
    assert pow_(Integer(-2), Integer(-3)) == Rational(-1, 8)
    assert pow_(rational(-2, 3), Integer(-2)) == Rational(9, 4)
    with pytest.raises(ExprError, match="zero to a negative power"):
        pow_(Integer(0), Integer(-1))


def test_int_folds_past_the_bit_limit_raise():
    big = Integer(2 ** (MAX_FOLD_BITS - 1))
    for fold in (add, mul):
        with pytest.raises(ExprError, match="bits"):
            fold(big, big)
    with pytest.raises(ExprError, match="bits"):
        mul(big, Integer(2), x)


def test_pow_conventions():
    assert pow_(x, Integer(0)) == Integer(1)
    assert pow_(x, Integer(1)) == x
    assert pow_(pow_(x, Integer(2)), Integer(3)) == pow_(x, Integer(6))
    assert pow_(mul(Integer(2), x), Integer(2)) == mul(Integer(4), pow_(x, Integer(2)))
    half = rational(1, 2)
    assert pow_(Integer(0), half) == Integer(0)
    assert pow_(Integer(1), half) == Integer(1)
    # merged exponents can fold to a number, or give back a product
    root2 = pow_(Integer(2), half)
    assert mul(root2, root2, root2, root2) == Integer(4)
    assert mul(Integer(3), root2, root2, x) == mul(Integer(6), x)
    root_xy = pow_(mul(x, y), half)
    assert mul(root_xy, root_xy) == mul(x, y)


def test_elementary_special_values():
    assert func("exp", Integer(0)) == Integer(1)
    assert func("log", Integer(1)) == Integer(0)
    assert func("sin", Integer(0)) == Integer(0)
    assert func("cos", Integer(0)) == Integer(1)
    assert func("log", func("exp", x)) == x
    assert func("exp", func("log", x)) == x
    with pytest.raises(ExprError, match="unsupported function kind"):
        func("tan", x)
    with pytest.raises(ExprError, match="order must be >= 1"):
        derivative(x, x, 0)


def test_substitute_spec_examples():
    assert substitute(x, x, x) == x
    e = add(mul(Integer(2), x), pow_(x, Integer(2)))
    assert substitute(e, x, Integer(3)) == Integer(15)


def test_substitute_zero_occurrences_returns_input():
    e = add(x, y)
    assert substitute(e, z, Integer(5)) == e


def test_substitute_complete_subtree_only():
    # x + y is not a complete subtree of the flattened x + y + z
    e = add(x, y, z)
    assert substitute(e, add(x, y), Integer(0)) == e


def test_substitute_replaces_only_the_identical_number():
    # hash(-1) == hash(-2) in CPython, yet the two integers are two nodes
    assert Integer(-1) is not Integer(-2) and Integer(-2) is Integer(-2)
    e = add(mul(Integer(-2), x), y)
    assert substitute(e, Integer(-1), z) is e
    assert substitute(e, Integer(-2), z) == add(mul(z, x), y)


def test_free_symbols():
    assert set(free_symbols(add(x, y))) == {"x", "y"}
    assert free_symbols(Integer(5)) == ()
    lam = Symbol("\\lambda")
    e = add(Symbol("n"), neg(func("cos", lam)))
    assert set(free_symbols(e)) == {"n", "\\lambda"}
    assert set(free_symbols(applied("f", [x]))) == {"f", "x"}


def test_eval_numeric_basics():
    assert eval_numeric(func("sin", Integer(0)), {}) == 0.0
    assert eval_numeric(func("log", func("exp", Integer(1))), {}) == pytest.approx(1.0)
    J, v, f = Symbol("J"), Symbol("v"), Symbol("f")
    e = add(div(pow_(J, Integer(2)), Integer(2)), mul(J, v), f)
    assert eval_numeric(e, {"J": 2, "v": 3, "f": 1}) == pytest.approx(9.0)


def test_eval_numeric_errors():
    with pytest.raises(EvalError):
        eval_numeric(x, {})
    with pytest.raises(EvalError):
        eval_numeric(func("log", Integer(-1)), {})
    with pytest.raises(EvalError):
        eval_numeric(derivative(applied("f", [x]), x), {"x": 1, "f": 1})
    with pytest.raises(EvalError):
        eval_numeric(integral(x, x), {"x": 1})


def test_equation_order_sensitive():
    assert Equation(x, y) != Equation(y, x)
    assert Equation(x, y).swapped() == Equation(y, x)


# ---------------------------------------------------------------------------
# random-expression properties

def random_expr(rng: random.Random, depth: int = 0, opaque: bool = False):
    """Concrete expression generator (no stuck nodes) for numeric checks; with
    `opaque`, also unknown-function applications, derivatives and integrals."""
    symbols = [x, y, z]
    atom_choices = ["sym", "int", "rat"]
    if depth >= 4 or rng.random() < 0.35:
        kind = rng.choice(atom_choices)
        if kind == "sym":
            return rng.choice(symbols)
        if kind == "int":
            return Integer(rng.randint(-4, 4))
        return rational(rng.randint(1, 7), rng.randint(2, 7))
    kinds = ["add", "mul", "pow", "sin", "cos", "exp", "log"]
    kind = rng.choice(kinds + ["applied", "derivative", "integral"] if opaque else kinds)

    def inner():
        return random_expr(rng, depth + 1, opaque)

    if kind == "add":
        return add(*(inner() for _ in range(rng.randint(2, 3))))
    if kind == "mul":
        return mul(*(inner() for _ in range(2)))
    if kind == "pow":
        return pow_(inner(), Integer(rng.randint(1, 3)))
    if kind == "log":
        # keep log arguments positive: log(2 + x^2)
        return func("log", add(Integer(2), pow_(inner(), Integer(2))))
    if kind == "applied":
        return applied(rng.choice(("f", "g")), [inner() for _ in range(rng.randint(1, 2))])
    if kind == "derivative":
        return derivative(inner(), rng.choice(symbols), rng.randint(1, 2))
    if kind == "integral":
        return integral(inner(), rng.choice(symbols))
    return func(kind, inner())


def assert_fixed_points(e):
    """Every node rebuilds to itself, the same object: the invariant
    keep_or_rebuild relies on when it returns a node none of whose children
    changed."""
    for node in full_walk(e):
        assert rebuild(node, node.children()) is node, node


def bindings_for(rng: random.Random):
    return {name: rng.uniform(0.3, 2.2) for name in ("x", "y", "z")}


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_canonicalize_idempotent_and_value_preserving(seed):
    rng = random.Random(seed)
    e = random_expr(rng)
    c = canonicalize(e)
    assert canonicalize(c) == c
    for _ in range(16):
        b = bindings_for(rng)
        try:
            v0 = eval_numeric(e, b)
        except EvalError:
            continue
        v1 = eval_numeric(c, b)
        if not (math.isfinite(v0) and math.isfinite(v1)):
            continue
        assert v1 == pytest.approx(v0, rel=1e-9, abs=1e-9)
    assert_fixed_points(c)
    o = random_expr(random.Random(-seed), opaque=True)
    assert canonicalize(o) == o
    assert_fixed_points(o)


@pytest.mark.parametrize("seed", [0, 1, 2, 1000])
def test_every_node_of_generated_derivations_is_a_fixed_point(seed):
    records, _ = generate_dataset(GenConfig(seed=seed), 80)
    for r in records:
        for s in r.derivation.steps:
            for tree in (s.equation.lhs, s.equation.rhs, s.operand):
                if tree is not None:
                    assert_fixed_points(tree)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_untouched_nodes_come_back_as_the_same_object(seed):
    e = random_expr(random.Random(seed), opaque=True)
    w = Symbol("w")  # random_expr draws only x, y and z
    for node in full_walk(e):
        kids = node.children()
        assert keep_or_rebuild(node, list(kids)) is node
        if kids:
            assert keep_or_rebuild(node, [w, *kids[1:]]) is not node
    assert substitute(e, w, x) is e
    for target in list(full_walk(e))[:4]:
        assert substitute(e, target, target) is e
        assert substitute(e, target, w) is not e


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_structural_equality_equivalence(seed):
    rng = random.Random(seed)
    e = random_expr(rng)
    f = canonicalize(e)
    assert e == e
    assert (e == f) == (f == e)
    if e == f:
        assert hash(e) == hash(f)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_add_mul_permutation_invariance(seed):
    rng = random.Random(seed)
    parts = [random_expr(rng, depth=2) for _ in range(3)]
    shuffled = parts[:]
    rng.shuffle(shuffled)
    assert add(*parts) == add(*shuffled)
    assert mul(*parts) == mul(*shuffled)


def test_canonicalize_equation_both_sides():
    from helpers import canonicalize_equation

    eq = Equation(Add((x, x)), Mul((Integer(1), y)))
    out = canonicalize_equation(eq)
    assert out == Equation(mul(Integer(2), x), y)


def test_integer_powers_distribute_over_products():
    from derivekit.expr import Pow

    A, G = Symbol("A"), Symbol("G")
    assert pow_(mul(A, G), Integer(-1)) == mul(pow_(A, Integer(-1)), pow_(G, Integer(-1)))
    assert pow_(mul(Integer(2), x), Integer(3)) == mul(Integer(8), pow_(x, Integer(3)))
    # symbolic exponents stay factored
    assert type(pow_(mul(A, G), y)) is Pow


def test_substitute_symbol_for_derivative_variable_renames_it():
    d = derivative(applied("f", (x,)), x)
    assert substitute(d, x, y) == derivative(applied("f", (y,)), y)
    i = integral(mul(x, z), x)
    assert substitute(i, x, y) == integral(mul(y, z), y)


def test_substitute_non_symbol_for_derivative_variable_keeps_it():
    repl = add(y, Integer(1))
    d = derivative(mul(x, z), x, 2)
    out = substitute(d, x, repl)
    assert out.var == x and out.order == 2
    assert out.body == mul(repl, z)
    i = integral(mul(x, z), x)
    out = substitute(i, x, repl)
    assert out.var == x
    assert out.body == mul(repl, z)


# ---------------------------------------------------------------------------
# exact numbers: integers fold as int, true rationals as Fraction

# a recipe is ("num", Fraction) | ("sym", name) | ("neg", r) | ("pow", r, k)
# | (op, r, r) for op in add/mul/div; it builds an Expr and evaluates in Fraction
_LEAVES = st.one_of(
    st.integers(-6, 6).map(lambda n: ("num", Fraction(n))),
    st.builds(lambda n, d: ("num", Fraction(n, d)), st.integers(-6, 6), st.integers(1, 6)),
    st.sampled_from("xyz").map(lambda name: ("sym", name)),
)
_RECIPES = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.tuples(st.sampled_from(("add", "mul", "div")), inner, inner),
    st.tuples(st.just("neg"), inner),
    st.tuples(st.just("pow"), inner, st.integers(-3, 3)),
), max_leaves=8)
_BINARY = {"add": add, "mul": mul, "div": div}


def _build(r):
    kind = r[0]
    if kind == "num":
        return rational(r[1].numerator, r[1].denominator)
    if kind == "sym":
        return Symbol(r[1])
    if kind == "neg":
        return neg(_build(r[1]))
    if kind == "pow":
        return pow_(_build(r[1]), Integer(r[2]))
    return _BINARY[kind](_build(r[1]), _build(r[2]))


def _in_fractions(r, env):
    kind = r[0]
    if kind == "num":
        return r[1]
    if kind == "sym":
        return env[r[1]]
    if kind == "neg":
        return -_in_fractions(r[1], env)
    if kind == "pow":
        return _in_fractions(r[1], env) ** r[2]
    a, b = _in_fractions(r[1], env), _in_fractions(r[2], env)
    return a + b if kind == "add" else a * b if kind == "mul" else a / b


def _key_atoms(key):
    for part in key:
        if type(part) is tuple:
            yield from _key_atoms(part)
        else:
            yield part


def _assert_exact(e):
    for node in full_walk(e):
        if type(node) is Integer:
            assert type(node.value) is int
        elif type(node) is Rational:
            assert type(node.num) is int and type(node.den) is int and node.den > 1
        assert not any(type(a) is float for a in _key_atoms(node.sort_key()))
    assert canonicalize(e) == e


@given(_RECIPES, st.fixed_dictionaries({name: st.builds(
    Fraction, st.integers(-5, 5), st.integers(1, 4)) for name in "xyz"}))
@settings(max_examples=300, deadline=None)
def test_folds_are_exact_and_canonical(recipe, env):
    try:
        e = _build(recipe)
    except ExprError:
        # only a division by a value that is zero everywhere fails to build
        with pytest.raises(ZeroDivisionError):
            _in_fractions(recipe, env)
        return
    _assert_exact(e)
    try:
        expected = _in_fractions(recipe, env)
    except ZeroDivisionError:
        return
    for name, value in env.items():
        e = substitute(e, Symbol(name), rational(value.numerator, value.denominator))
    _assert_exact(e)
    assert e == rational(expected.numerator, expected.denominator)
