"""Interning: one object per distinct node or equation, so two trees are
equal exactly when they are the same object, whatever route built them; the
table of live nodes keeps none of them alive; and copies are refused."""
import copy
import gc
import os
import pickle
import random
import subprocess
import sys
import threading
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import derivekit
from derivekit.expr import (
    FUNCTION_KINDS,
    Add,
    AppliedFunction,
    Derivative,
    Equation,
    Func,
    Integer,
    Integral,
    Mul,
    Pow,
    Rational,
    Symbol,
    _NODES,
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
    rebuild,
)
from derivekit.latex import equation_to_latex, parse_latex, to_latex
from helpers import canonicalize, full_walk, or_first, rational, structure

_SYMBOLS = st.sampled_from(("x", "y", "\\alpha", "A_{x}", "\\hat{b}")).map(Symbol)
_TREES = st.recursive(
    st.one_of(_SYMBOLS, st.integers(-12, 12).map(Integer),
              st.builds(lambda n, d: rational(n, d), st.integers(-9, 9), st.integers(1, 6))),
    lambda inner: st.one_of(
        st.builds(or_first(add), inner, inner),
        st.builds(or_first(lambda p, q: add(p, neg(q))), inner, inner),
        st.builds(or_first(mul), inner, inner),
        st.builds(or_first(div), inner, inner),
        st.builds(or_first(lambda p, k: pow_(p, Integer(k))), inner, st.integers(-3, 3)),
        st.builds(lambda k, p: func(k, p), st.sampled_from(FUNCTION_KINDS), inner),
        st.builds(applied, st.sampled_from(("f", "\\chi")), st.lists(inner, min_size=1,
                                                                     max_size=3)),
        st.builds(lambda p, v, k: derivative(p, v, k), inner, _SYMBOLS, st.integers(1, 2)),
        st.builds(integral, inner, _SYMBOLS),
    ),
    max_leaves=10,
)


_SYMBOL_STRUCTURES = st.sampled_from(("x", "y", "\\alpha")).map(lambda n: (Symbol, n))
# structures the constructors may never build: raw sums of one term, powers
# of numbers, derivatives of numbers
_STRUCTURES = st.recursive(
    st.one_of(_SYMBOL_STRUCTURES, st.integers(-3, 3).map(lambda v: (Integer, v)),
              st.sampled_from(((1, 2), (-1, 2), (3, 2))).map(lambda q: (Rational, *q))),
    lambda inner: st.one_of(
        st.lists(inner, min_size=1, max_size=3).map(lambda ts: (Add, tuple(ts))),
        st.lists(inner, min_size=1, max_size=3).map(lambda fs: (Mul, tuple(fs))),
        st.tuples(st.just(Pow), inner, inner),
        st.tuples(st.just(Func), st.sampled_from(FUNCTION_KINDS), inner),
        st.tuples(st.just(AppliedFunction), st.sampled_from(("f", "g")),
                  st.lists(inner, min_size=1, max_size=2).map(tuple)),
        st.tuples(st.just(Derivative), inner, _SYMBOL_STRUCTURES, st.integers(1, 2)),
        st.tuples(st.just(Integral), inner, _SYMBOL_STRUCTURES),
    ),
    max_leaves=8,
)


def _from_structure(s):
    """The node or equation that ``structure`` describes, built through the
    classes themselves from the leaves up."""
    if type(s) is not tuple:
        return s
    if s and isinstance(s[0], type):
        return s[0](*map(_from_structure, s[1:]))
    return tuple(map(_from_structure, s))


def _shuffled(e, rng):
    """e rebuilt through the canonical constructors, each sum's and product's
    operands passed in a shuffled order."""
    kids = [_shuffled(k, rng) for k in e.children()]
    if type(e) in (Add, Mul):
        rng.shuffle(kids)
    return rebuild(e, kids)


def _reversed(e):
    """e rebuilt through the node classes with each sum's and product's
    operands reversed: a different tree unless they read the same both ways."""
    kids = [_reversed(k) for k in e.children()]
    if type(e) in (Add, Mul):
        kids.reverse()
    return rebuild(e, kids, raw=True)


@given(_TREES, _TREES, _STRUCTURES, _STRUCTURES, st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_two_values_are_one_object_exactly_when_their_structures_are_equal(e, other, s1, s2,
                                                                           rng):
    built = [e, other, _shuffled(e, rng), canonicalize(e), _reversed(e),
             parse_latex(to_latex(e)), _from_structure(s1), _from_structure(s2)]
    # every node the routes built, and equations over them
    values = [n for t in built for n in distinct_subtrees(t)]
    values += [Equation(a, b) for a in built for b in (e, other)]
    objects: dict = {}
    for value in values:
        s = structure(value)
        assert _from_structure(s) is value  # a raw build of its fields is the object itself
        objects.setdefault(s, set()).add(id(value))
    assert all(len(ids) == 1 for ids in objects.values())  # equal structure: one object
    assert len(set().union(*objects.values())) == len(objects)  # else: distinct objects
    assert len(set(values)) == len(objects)  # hash() and == agree with `is`
    assert structure(_from_structure(s1)) == s1 and structure(_from_structure(s2)) == s2


def test_integer_fields_are_ints_and_numbers_of_one_value_are_one_node():
    big = 10**30 + 7  # no other test builds it, so its first build normalizes it
    assert Integer(Fraction(big)) is Integer(big) and type(Integer(big).value) is int
    assert Integer(True) is Integer(1) and type(Integer(True).value) is int
    assert Integer(-1) is not Integer(-2)  # hash(-1) == hash(-2) in CPython
    assert Rational(1, 2) is Rational(1, 2) and Rational(1, 2) is not Rational(-1, 2)


@pytest.mark.parametrize("make", [lambda: add(Symbol("x"), Integer(3)),
                                  lambda: Equation(Symbol("x"), Integer(3))],
                         ids=["node", "equation"])
def test_copying_or_pickling_a_node_raises_and_makes_no_second_object(make):
    value = make()
    before = len(_NODES)
    for attempt in (copy.copy, copy.deepcopy, pickle.dumps,
                    lambda v: pickle.dumps(v, protocol=0)):
        with pytest.raises(TypeError):
            attempt(value)
    assert len(_NODES) == before


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        return Symbol(f"w_{{{rng.randrange(10**9)}}}") if rng.random() < 0.7 \
            else Integer(rng.randrange(10**12, 10**13))
    kind = rng.randrange(4)
    a, b = _random_tree(rng, depth - 1), _random_tree(rng, depth - 1)
    if kind == 0:
        return add(a, b)
    if kind == 1:
        return mul(a, b)
    if kind == 2:
        return func(rng.choice(FUNCTION_KINDS[:2]), a)
    return AppliedFunction("g", (a, b))


def test_the_table_keeps_no_dropped_tree_alive():
    gc.collect()
    before = len(_NODES)
    rng = random.Random(0)
    for _ in range(1000):
        tree = _random_tree(rng, 5)
        equation_to_latex(Equation(tree, Symbol("w_{0}")))  # fill the kept texts too
    del tree
    gc.collect()
    assert len(_NODES) == before


def test_a_deep_chain_frees_with_its_table_entries_and_no_error():
    script = """
import gc
from derivekit.expr import Func, Symbol, _NODES
gc.collect()
before = len(_NODES)
chain = Symbol("chain")
for _ in range(20_000):
    chain = Func("sin", chain)
assert len(_NODES) == before + 20_001
del chain
gc.collect()
assert len(_NODES) == before, (len(_NODES), before)
print("freed")
"""
    src = os.path.dirname(os.path.dirname(derivekit.__file__))
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "freed\n", "")


def test_a_node_built_before_its_dead_twin_is_forgotten_takes_its_entry():
    rebuilt = []
    node = Symbol("w_{twin}")
    # a callback made after the table's reference runs before the table's own,
    # so it builds the value while the table still holds the dead reference
    probe = weakref.ref(node, lambda _: rebuilt.append(Symbol("w_{twin}")))
    del node
    (again,) = rebuilt
    assert probe() is None
    assert Symbol("w_{twin}") is again and _NODES[(Symbol, "w_{twin}")]() is again


def test_threads_building_the_same_trees_get_the_same_objects():
    recipes = [random.Random(i).random() for i in range(200)]  # one seed per tree
    n_threads = 8
    results: list[list] = [[] for _ in range(n_threads)]
    start = threading.Barrier(n_threads)

    def build(out):
        start.wait(timeout=30)
        for seed in recipes:
            # names no other test builds, so the threads race to make each node
            out.append(_random_tree(random.Random(f"threads {seed}"), 4))

    threads = [threading.Thread(target=build, args=(out,)) for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(out) == len(recipes) for out in results)
    for out in results[1:]:
        for mine, first in zip(out, results[0]):
            assert all(a is b for a, b in zip(full_walk(mine), full_walk(first)))
