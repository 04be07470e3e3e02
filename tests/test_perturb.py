"""Perturbation tests: VR bijectivity and isomorphism, EE involution, AG
prefix identity and replay validity, SR string contracts."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from derivekit.expr import (
    AppliedFunction,
    Equation,
    Integer,
    Symbol,
    applied,
    add,
    derivative,
    func,
    mul,
    rebuild,
)
from derivekit import perturb as perturb_mod
from derivekit.genalg import GenConfig, _GenState, generate_dataset, prefix_state
from derivekit.latex import equation_to_latex
from derivekit.ops import Derivation, ROLE_PREMISE, Step, replay
from derivekit.perturb import (
    AG,
    Skipped,
    alternative_goal,
    collect_names,
    exchange_expressions,
    perturb,
    remove_steps,
    rename_variables,
)
from derivekit.prompts import build_prompt
from derivekit.records import derivation_record_from_json, derivation_record_to_json, step_to_json
from derivekit.vocab import GREEK_POOL_DEFAULT
from helpers import (
    collect_names_by_full_walk,
    full_walk,
    or_first,
    prompt_example_derivation,
    rename_variables_per_step,
)


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


def _assert_renamed_as_per_step(d, seed):
    """rename_variables with its one memo gives the per-step oracle's
    derivation, mapping, bytes and random state, and equal renamed subtrees,
    in one step or in two, are one object."""
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    assert collect_names(d) == collect_names_by_full_walk(d)
    try:
        want, want_mapping = rename_variables_per_step(d, oracle_rng)
    except Skipped:
        with pytest.raises(Skipped, match="too many symbols"):
            rename_variables(d, rng)
        return
    got, mapping = rename_variables(d, rng)
    assert got == want
    assert list(mapping.items()) == list(want_mapping.items())
    assert rng.getstate() == oracle_rng.getstate()
    assert [step_to_json(s) for s in got.steps] == [step_to_json(s) for s in want.steps]
    first = {}
    for s in got.steps:
        for tree in (s.equation.lhs, s.equation.rhs, s.operand, *s.constants):
            for node in () if tree is None else full_walk(tree):
                assert first.setdefault(node, node) is node


@pytest.mark.parametrize("seed", [0, 1, 2, 1000])
def test_rename_variables_matches_the_per_step_oracle_on_generated(seed):
    records, _ = generate_dataset(GenConfig(seed=seed), 40)
    shared = 0
    for i, record in enumerate(records):
        # as generated, and as loaded, where steps share their parsed sides
        loaded = derivation_record_from_json(derivation_record_to_json(record)).derivation
        for d in (record.derivation, loaded):
            _assert_renamed_as_per_step(d, i)
        renamed, _ = rename_variables(loaded, random.Random(i))
        sides = [side for s in renamed.steps for side in (s.equation.lhs, s.equation.rhs)]
        shared += len(sides) - len({id(side) for side in sides})
    assert shared > 40  # steps do share renamed sides


def _copy(e):
    """e rebuilt from its leaves through the node classes: since nodes are
    interned, e itself."""
    if type(e) is Symbol:
        return Symbol(e.name)
    if type(e) is AppliedFunction:
        return AppliedFunction(e.name, tuple(map(_copy, e.args)))
    if type(e) is Integer:
        return Integer(e.value)
    return rebuild(e, [_copy(k) for k in e.children()], raw=True)


_LEAVES = st.one_of(st.sampled_from(("x", "y", "A_{x}", "\\hat{b}", "n")).map(Symbol),
                    st.integers(-3, 3).map(Integer))
_PARTS = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.builds(or_first(add), inner, inner),
    st.builds(or_first(mul), inner, inner),
    st.builds(func, st.sampled_from(("sin", "exp")), inner),
    st.builds(applied, st.sampled_from(("f", "g")), st.lists(inner, min_size=1, max_size=2)),
    st.builds(derivative, inner, st.sampled_from(("x", "t")).map(Symbol), st.integers(1, 2)),
), max_leaves=6)


@st.composite
def _derivations_with_repeated_subtrees(draw):
    """Steps whose sides reuse a few parts: the same objects, rebuilt copies,
    and sums and products of parts."""
    parts = draw(st.lists(_PARTS, min_size=1, max_size=4))

    def side():
        part = draw(st.sampled_from(parts))
        how = draw(st.sampled_from(("same", "copy", "sum", "product")))
        if how == "copy":
            return _copy(part)
        if how in ("sum", "product"):
            build = add if how == "sum" else mul
            return or_first(build)(part, draw(st.sampled_from(parts)))
        return part

    steps = []
    for _ in range(draw(st.integers(1, 5))):
        operand = side() if draw(st.booleans()) else None
        constants = tuple(map(Symbol, draw(st.lists(st.sampled_from(("C_{1}", "x")),
                                                      max_size=2))))
        steps.append(Step(Equation(side(), side()), None, operand=operand,
                          role=ROLE_PREMISE, constants=constants))
    return Derivation(tuple(steps))


@given(_derivations_with_repeated_subtrees(), st.integers(0, 2**32))
@settings(max_examples=300, deadline=None)
def test_rename_variables_matches_the_per_step_oracle_on_repeated_subtrees(d, seed):
    _assert_renamed_as_per_step(d, seed)


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
    with pytest.raises(Skipped, match="too many symbols"):
        rename_variables(d, random.Random(0))


def test_rename_variables_isomorphism_on_generated(small_dataset):
    _, records, _ = small_dataset
    for idx, record in enumerate(records[:60]):
        rng = random.Random(idx)
        try:
            renamed, mapping = rename_variables(record.derivation, rng)
        except Skipped:
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
        except Skipped:
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
        except Skipped:
            continue
        replaced += 1
        assert len(ag) == len(record.derivation)
        assert ag.steps[:-1] == record.derivation.steps[:-1]
        assert ag.steps[-1].equation != record.derivation.steps[-1].equation
        # the new goal descends from the penultimate step it was drawn on
        assert ag.steps[-1].parents[-1] == len(ag) - 2
        assert replay(ag).valid
    assert replaced >= 50


def noted_state(cfg, vocab, rng, steps) -> _GenState:
    """genalg.prefix_state as generation fills a state: every step noted,
    with the substitution index and the other tables of note built."""
    state = _GenState(cfg, vocab, rng)
    for s in steps:
        state.note(s)
    return state


@pytest.mark.parametrize("seed", [0, 1, 1000])
def test_alternative_goal_draws_as_from_a_noted_state(seed, monkeypatch):
    # the static split scripts/build_datasets.py builds for `seed` at its default size
    static, _ = generate_dataset(GenConfig(seed=seed + 1), 200)
    cfg = GenConfig(seed=seed)
    vocab = cfg.load_vocabulary()
    for record in static:
        prefix = record.derivation.steps[:-1]
        assert (prefix_state(cfg, vocab, None, prefix).used_names
                == noted_state(cfg, vocab, None, prefix).used_names)

    def goals(build_state) -> list:
        monkeypatch.setattr(perturb_mod, "prefix_state", build_state)
        out = []
        for record in static:
            try:
                out.append(perturb(AG, record, cfg, vocab))
            except Skipped as exc:
                out.append(str(exc))
        return out

    expected = goals(noted_state)
    assert sum(type(goal) is not str for goal in expected) > 150
    assert goals(prefix_state) == expected


def test_alternative_goal_requires_two_steps():
    x = Symbol("x")
    d = Derivation((Step(Equation(applied("f", [x]), x), None, role=ROLE_PREMISE),))
    with pytest.raises(Skipped, match="fewer than two steps"):
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
    out = rename_leaves(raw, {"a": "\\alpha", "b": "\\beta", "f": "\\chi"}, {})
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
