"""Perturbation tests: VR bijectivity and isomorphism, EE involution, AG
prefix identity and replay validity, SR string contracts."""
import random

import pytest

from derivekit.expr import (
    AppliedFunction,
    Equation,
    Symbol,
    applied,
    add,
    func,
)
from derivekit.genalg import GenConfig
from derivekit.latex import equation_to_latex
from derivekit.ops import Derivation, ROLE_PREMISE, Step, replay
from derivekit.perturb import (
    GoalExhausted,
    TooManySymbols,
    alternative_goal,
    exchange_expressions,
    remove_steps,
    rename_variables,
)
from derivekit.prompts import build_prompt
from derivekit.vocab import GREEK_POOL_DEFAULT
from helpers import prompt_example_derivation


def isomorphic(a, b) -> bool:
    """Tree isomorphism modulo leaf names, with a consistent name mapping."""
    mapping: dict[str, str] = {}

    def walk(u, v) -> bool:
        if type(u) is not type(v):
            return False
        if type(u) is Symbol:
            return mapping.setdefault(u.name, v.name) == v.name
        if type(u) is AppliedFunction:
            if mapping.setdefault(u.name, v.name) != v.name:
                return False
        ck_u, ck_v = u.children(), v.children()
        if len(ck_u) != len(ck_v):
            return False
        return all(walk(cu, cv) for cu, cv in zip(ck_u, ck_v))

    return walk(a, b)


def test_rename_variables_spec_example():
    en, n, xx = Symbol("E_{n}"), Symbol("n"), Symbol("x")
    d = Derivation((Step(Equation(en, add(n, xx)), None, role=ROLE_PREMISE),))
    renamed, mapping = rename_variables(d, random.Random(0))
    eq = renamed.steps[0].equation
    assert set(mapping) == {"E_{n}", "n", "x"}
    assert len(set(mapping.values())) == 3
    assert set(mapping.values()) <= set(GREEK_POOL_DEFAULT)
    assert isomorphic(d.steps[0].equation.rhs, eq.rhs)


def test_rename_variables_no_symbols_unchanged():
    d = Derivation((Step(Equation(Symbol("x"), Symbol("x")).swapped(), None,
                         role=ROLE_PREMISE),))
    # a derivation with zero *distinct* names beyond one symbol still maps it
    renamed, mapping = rename_variables(d, random.Random(1))
    assert len(mapping) == 1


def test_rename_variables_too_many_symbols():
    syms = [Symbol(f"s_{{{i}}}") for i in range(12)]
    eq = Equation(syms[0], add(*syms[1:]))
    d = Derivation((Step(eq, None, role=ROLE_PREMISE),))
    with pytest.raises(TooManySymbols):
        rename_variables(d, random.Random(0))


def test_rename_variables_isomorphism_on_generated(small_dataset):
    _, records, _ = small_dataset
    for idx, record in enumerate(records[:60]):
        rng = random.Random(idx)
        try:
            renamed, mapping = rename_variables(record.derivation, rng)
        except TooManySymbols:
            continue
        assert len(set(mapping.values())) == len(mapping)  # injective
        assert set(mapping.values()) <= set(GREEK_POOL_DEFAULT)
        for s_old, s_new in zip(record.derivation.steps, renamed.steps):
            assert isomorphic(s_old.equation.lhs, s_new.equation.lhs)
            assert isomorphic(s_old.equation.rhs, s_new.equation.rhs)
            assert s_old.op == s_new.op and s_old.parents == s_new.parents


def test_rename_mapping_injective_across_records(small_dataset):
    _, records, _ = small_dataset
    for idx, record in enumerate(records):
        try:
            _, mapping = rename_variables(record.derivation, random.Random(idx))
        except TooManySymbols:
            continue
        assert len(set(mapping.values())) == len(mapping)


def test_exchange_expressions_spec_example():
    en, n, xx = Symbol("E_{n}"), Symbol("n"), Symbol("x")
    d = Derivation((Step(Equation(en, add(n, xx)), None, role=ROLE_PREMISE),))
    swapped = exchange_expressions(d)
    assert equation_to_latex(swapped.steps[0].equation) == "n + x = E_{n}"


def test_exchange_expressions_involution(small_dataset):
    _, records, _ = small_dataset
    for record in records:
        twice = exchange_expressions(exchange_expressions(record.derivation))
        assert twice == record.derivation
        once = exchange_expressions(record.derivation)
        assert [s.op for s in once.steps] == [s.op for s in record.derivation.steps]


def test_exchange_symmetric_equation_unchanged():
    x = Symbol("x")
    d = Derivation((Step(Equation(x, x), None, role=ROLE_PREMISE),))
    assert exchange_expressions(d).steps[0].equation == Equation(x, x)


def test_alternative_goal_contract(small_dataset):
    cfg, records, _ = small_dataset
    replaced = 0
    for idx, record in enumerate(records[:60]):
        rng = random.Random(1000 + idx)
        try:
            ag = alternative_goal(record.derivation, cfg, rng)
        except GoalExhausted:
            continue
        replaced += 1
        assert len(ag) == len(record.derivation)
        assert ag.steps[:-1] == record.derivation.steps[:-1]
        assert ag.goal().equation != record.derivation.goal().equation
        assert replay(ag).valid
    assert replaced >= 50


def test_alternative_goal_requires_two_steps():
    x = Symbol("x")
    d = Derivation((Step(Equation(applied("f", [x]), x), None, role=ROLE_PREMISE),))
    with pytest.raises(Exception):
        alternative_goal(d, GenConfig(), random.Random(0))


def test_remove_steps_golden_prompt():
    record = build_prompt(prompt_example_derivation(), "fig1")
    assert "then derive" in record.prompt
    stripped = remove_steps(record)
    assert stripped is not None
    assert stripped.prompt == (
        "Given $q{(a)} = e^{a}$ and $G{(a)} = - e^{a} + \\frac{d}{d a} q{(a)}$"
        ", then obtain $e^{G{(a)}} = 1$"
    )
    assert stripped.target == record.target
    assert "then derive" not in stripped.prompt
    assert len(stripped.prompt) < len(record.prompt)


def test_remove_steps_absent_without_intermediates():
    x = Symbol("x")
    steps = (Step(Equation(applied("f", [x]), func("sin", x)), None, role=ROLE_PREMISE),)
    from derivekit import ops as op_mod

    lst = list(steps)
    lst.append(op_mod.apply(op_mod.DIFF, lst, (0,), x))
    d = Derivation((lst[0], Step(lst[1].equation, lst[1].op, lst[1].parents,
                                 lst[1].operand, role="goal")))
    record = build_prompt(d, "r0")
    assert remove_steps(record) is None


def test_remove_steps_strips_every_clause(small_dataset):
    _, records, _ = small_dataset
    stripped_count = 0
    for record in records:
        prompt = build_prompt(record.derivation, record.id)
        stripped = remove_steps(prompt)
        if stripped is None:
            assert "then derive" not in prompt.prompt
            continue
        stripped_count += 1
        assert "then derive" not in stripped.prompt
        assert stripped.target == prompt.target
    assert stripped_count > 10


def test_rename_leaves_keeps_raw_shape_of_every_node_class():
    from derivekit.expr import (Add, Derivative, Func, Integer, Integral, Mul, Pow,
                                Rational)
    from derivekit.perturb import rename_leaves

    a, b = Symbol("a"), Symbol("b")
    f = AppliedFunction("f", (a, b))
    raw = Add((
        a,
        a,
        Mul((Integer(1), a)),
        Pow(a, Integer(1)),
        Func("exp", Func("log", a)),
        Rational(2, 4),
        Derivative(Derivative(f, a, 1), a, 1),
        Integral(Add((b, Integer(0))), b),
    ))
    out = rename_leaves(raw, {"a": "\\alpha", "b": "\\beta", "f": "\\chi"})
    al, be = Symbol("\\alpha"), Symbol("\\beta")
    g = AppliedFunction("\\chi", (al, be))
    assert out == Add((
        al,
        al,
        Mul((Integer(1), al)),
        Pow(al, Integer(1)),
        Func("exp", Func("log", al)),
        Rational(2, 4),
        Derivative(Derivative(g, al, 1), al, 1),
        Integral(Add((be, Integer(0))), be),
    ))
    assert len(out.terms) == 8
    assert isomorphic(raw, out)
