"""Prompt rendering tests: template golden values, role handling, targets,
and the few-shot builder contracts."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derivekit import genalg, ops
from derivekit.expr import Equation, Symbol, applied, func
from derivekit.genalg import extract_derivation
from derivekit.latex import count_lexemes, equation_to_latex
from derivekit.ops import Derivation, ROLE_PREMISE, Step
from derivekit.prompts import (
    FEWSHOT_HEADER,
    FEWSHOT_INSTRUCTION,
    PromptError,
    build_fewshot,
    fewshot_pool,
    build_prompt,
    build_target,
    prompt_lexemes,
    prompt_premise_indices,
    qualifies_for_fewshot,
)
from derivekit.records import PromptRecord
from helpers import build_fewshot_by_full_scan, parse_prompt_equations, prompt_example_derivation

GOLDEN_PROMPT = (
    "Given $q{(a)} = e^{a}$ and $G{(a)} = - e^{a} + \\frac{d}{d a} q{(a)}$"
    ", then derive $- e^{a} + \\frac{d}{d a} q{(a)} = 0$"
    ", then obtain $e^{G{(a)}} = 1$"
)


def test_prompt_example_byte_for_byte():
    record = build_prompt(prompt_example_derivation(), "fig1")
    assert record.prompt == GOLDEN_PROMPT


def test_prompt_roles_recorded():
    d = prompt_example_derivation()
    record = build_prompt(d, "fig1")
    assert prompt_premise_indices(d) == (0, 4)
    assert d.intermediates() == (3,)
    goal = equation_to_latex(d.steps[-1].equation)
    assert record.prompt.endswith(f", then obtain ${goal}$")


def test_single_premise_prompt_shape():
    x = Symbol("x")
    steps = [Step(Equation(applied("f", [x]), func("sin", x)), None, role=ROLE_PREMISE)]
    steps.append(ops.apply(ops.EXP_BOTH, steps, (0,)))
    d = Derivation((steps[0], Step(steps[1].equation, steps[1].op, steps[1].parents,
                                   role="goal")))
    record = build_prompt(d, "r")
    assert record.prompt.count("Given") == 1
    assert " and $" not in record.prompt
    assert "then derive" not in record.prompt
    assert record.prompt.count("then obtain") == 1


def test_prompt_round_trip_equations():
    d = prompt_example_derivation()
    record = build_prompt(d, "fig1")
    parsed = parse_prompt_equations(record.prompt)
    referenced = [d.steps[i].equation for i in prompt_premise_indices(d) + d.intermediates()]
    referenced.append(d.steps[-1].equation)
    assert parsed == referenced


def test_prompt_requires_goal():
    with pytest.raises(PromptError, match="empty derivation has no goal"):
        build_prompt(Derivation(()), "empty")


def test_build_target_counts():
    d = prompt_example_derivation()
    target = build_target(d)
    assert target.count(" and ") == len(d) - 1
    assert "$" not in target
    pieces = target.split(" and ")
    assert pieces == [equation_to_latex(s.equation) for s in d.steps]
    single = Derivation(d.steps[:1])
    assert build_target(single) == equation_to_latex(d.steps[0].equation)
    # a lone premise is both the given and the goal
    eq = equation_to_latex(d.steps[0].equation)
    assert build_prompt(single).prompt == f"Given ${eq}$, then obtain ${eq}$"


def test_target_round_trip(small_dataset):
    from derivekit.latex import parse_equation

    _, records, _ = small_dataset
    for record in records[:40]:
        target = build_target(record.derivation)
        parsed = [parse_equation(p) for p in target.split(" and ")]
        assert parsed == list(record.derivation.equations())


# ---------------------------------------------------------------------------
# few-shot

def _pool(n_qualifying: int, n_plain: int) -> list[PromptRecord]:
    pool = []
    for i in range(n_qualifying):
        pool.append(
            PromptRecord(
                id=f"q{i}", static_id=f"q{i}", perturbation=None,
                prompt=f"Given $f_{{{i}}}{{(x)}} = x$ and $g{{(x)}} = x$, "
                       f"then derive $x = {i}$, then obtain $y = {i}$",
                target=f"eq{i}",
            )
        )
    for i in range(n_plain):
        pool.append(
            PromptRecord(
                id=f"p{i}", static_id=f"p{i}", perturbation=None,
                prompt=f"Given $h_{{{i}}}{{(x)}} = x$, then obtain $z = {i}$",
                target=f"pl{i}",
            )
        )
    return pool


EVAL_RECORD = PromptRecord(
    id="e0", static_id="e0", perturbation=None,
    prompt="Given $q{(a)} = e^{a}$, then obtain $a = 0$", target="T",
)


def test_fewshot_structure_and_counts():
    pool = _pool(4, 8)
    text = build_fewshot(EVAL_RECORD, fewshot_pool(pool), random.Random(0))
    assert text.startswith(FEWSHOT_HEADER)
    assert FEWSHOT_INSTRUCTION in text
    assert text.count("Prompt: ") == 6  # five examples plus the evaluation prompt
    assert text.count("Derivation: ") == 5
    assert text.endswith("Prompt: " + EVAL_RECORD.prompt)
    body = text[len(FEWSHOT_HEADER):]
    qualifying = sum(
        1
        for block in body.split("\n\n")
        if "then derive" in block and " and $" in block and "Derivation:" in block
    )
    assert qualifying >= 2


def test_fewshot_template_exact_wording():
    assert FEWSHOT_HEADER == (
        "The following examples consist of a prompt (denoted by Prompt:) and "
        "a mathematical derivation (denoted by Derivation:). Each derivation "
        'contains LaTeX equations separated by "and".'
    )
    assert FEWSHOT_INSTRUCTION == (
        "Now given the following prompt, generate the derivation. "
        'Ensure equations are split by the word "and".'
    )


def test_fewshot_insufficient_pool():
    with pytest.raises(PromptError, match="with >= 2 qualifying, have 9/1"):
        build_fewshot(EVAL_RECORD, fewshot_pool(_pool(1, 8)), random.Random(0))
    with pytest.raises(PromptError, match="with >= 2 qualifying, have 3/2"):
        build_fewshot(EVAL_RECORD, fewshot_pool(_pool(2, 1)), random.Random(0))


def test_fewshot_same_examples_for_static_and_perturbed():
    pool = fewshot_pool(_pool(5, 10))
    perturbed = PromptRecord(
        id="e0", static_id="e0", perturbation="EE",
        prompt="Given $e^{a} = q{(a)}$, then obtain $0 = a$", target="T2",
    )
    text_static = build_fewshot(EVAL_RECORD, pool, random.Random(99))
    text_perturbed = build_fewshot(perturbed, pool, random.Random(99))
    static_blocks = text_static.split("\n\n")[1:-2]
    perturbed_blocks = text_perturbed.split("\n\n")[1:-2]
    assert static_blocks == perturbed_blocks
    assert text_static.split("\n\n")[-1] != text_perturbed.split("\n\n")[-1]


def test_fewshot_excludes_same_family():
    pool = _pool(4, 8)
    twin = PromptRecord(id="q0", static_id="q0", perturbation="VR",
                        prompt="Given $x = y$, then obtain $y = x$", target="W")
    text = build_fewshot(twin, fewshot_pool(pool), random.Random(5))
    assert "eq0" not in text  # the q0 family is never sampled for itself


def test_fewshot_a_row_given_twice_fills_one_example_slot():
    pool = fewshot_pool(_pool(2, 3) * 2)
    for seed in range(20):
        blocks = build_fewshot(EVAL_RECORD, pool, random.Random(seed)).split("\n\n")[1:-2]
        assert len(blocks) == len(set(blocks)) == 5, seed
    # q0, q0, q1, q1, p0, p0: three distinct records are too few
    with pytest.raises(PromptError, match="with >= 2 qualifying, have 3/2"):
        build_fewshot(EVAL_RECORD, fewshot_pool(_pool(2, 1) * 2), random.Random(0))


def _fewshot_or_error(build, record, pool, rng):
    try:
        return build(record, pool, rng)
    except PromptError as exc:
        return f"PromptError: {exc}"


def _assert_fewshot_matches_the_full_scan(record, pool, seed):
    expected_rng, rng = random.Random(seed), random.Random(seed)
    expected = _fewshot_or_error(build_fewshot_by_full_scan, record, pool, expected_rng)
    assert _fewshot_or_error(build_fewshot, record, fewshot_pool(pool), rng) == expected
    assert rng.getstate() == expected_rng.getstate()


# a pool entry: (static family, qualifies, target); records with the same
# three are equal, and the pool can hold one record object more than once
POOL_SPECS = st.lists(st.tuples(st.integers(0, 5), st.booleans(), st.integers(0, 2)),
                      max_size=16)


@given(POOL_SPECS, st.data())
@settings(max_examples=400, deadline=None)
def test_fewshot_matches_the_full_scan_over_random_pools(specs, data):
    records = [
        PromptRecord(
            id=f"r{family}.{target}", static_id=f"s{family}", perturbation=None,
            prompt=(f"Given $x = {family}$ and $y = {target}$, then derive $z = 1$, "
                    f"then obtain $w = 2$" if qualifies else f"Given $x = {family}$, "
                    f"then obtain $w = {target}$"),
            target=f"t{target}",
        )
        for family, qualifies, target in specs
    ]
    repeats = data.draw(st.lists(st.sampled_from(records), max_size=4)) if records else []
    pool = data.draw(st.permutations(records + repeats))
    family = data.draw(st.integers(0, 6))  # 6 is a family no pool record has
    record = PromptRecord(id="e", static_id=f"s{family}", perturbation=data.draw(
        st.sampled_from([None, "VR"])), prompt="Given $a = b$, then obtain $b = a$", target="T")
    _assert_fewshot_matches_the_full_scan(record, pool, data.draw(st.integers(0, 2**64)))


def test_fewshot_matches_the_full_scan_over_generated_prompts(small_dataset):
    prompts = [build_prompt(r.derivation, r.id) for r in small_dataset[1]]
    for i, record in enumerate(prompts[:40]):
        _assert_fewshot_matches_the_full_scan(record, prompts + prompts[:i], i)


def test_qualifies_predicate():
    assert qualifies_for_fewshot(_pool(1, 0)[0])
    assert not qualifies_for_fewshot(_pool(0, 1)[0])


# ---------------------------------------------------------------------------
# prompt_lexemes: the token filter's count without the prompt text

def _lexemes_of_text(d: Derivation) -> int:
    record = build_prompt(d, "r")
    return count_lexemes(record.prompt + " " + record.target)


def test_prompt_lexemes_of_hand_made_derivations():
    example = prompt_example_derivation()
    x = Symbol("x")
    premise = Step(Equation(applied("f", [x]), func("sin", x)), None, role=ROLE_PREMISE)
    steps = [premise]
    steps.append(ops.apply(ops.EXP_BOTH, steps, (0,)))
    steps.append(ops.apply(ops.NEGATE, steps, (1,)))
    no_intermediates = extract_derivation(steps)
    renamed = [premise, ops.apply(ops.RENAME, [premise], (0,), func("sin", x), fresh=["g"])]
    renamed.append(ops.apply(ops.SUB_RHS, renamed, (1, 0)))
    cases = {
        "one step": Derivation((premise,)),
        "rename premises": extract_derivation(renamed),
        "no intermediates": no_intermediates,
        "the prompt example": example,
    }
    assert prompt_premise_indices(cases["rename premises"]) == (0, 1)
    assert not cases["no intermediates"].intermediates()
    assert cases["the prompt example"].intermediates()
    for name, d in cases.items():
        assert prompt_lexemes(d) == _lexemes_of_text(d), name


@pytest.mark.parametrize("seed", [0, 1, 2, 1000])
def test_prompt_lexemes_equal_the_count_of_the_text_on_every_attempt(seed, monkeypatch):
    # every derivation generate_dataset makes reaches the char filter, kept,
    # char-filtered or token-filtered
    seen = []
    char_filter = genalg.passes_char_filter

    def checked(d, cfg):
        seen.append((prompt_lexemes(d), _lexemes_of_text(d)))
        return char_filter(d, cfg)

    monkeypatch.setattr(genalg, "passes_char_filter", checked)
    cfg = genalg.GenConfig(seed=seed)
    _, summary = genalg.generate_dataset(cfg, 80)
    assert len(seen) == summary.attempts - summary.retry_exhausted > 150
    assert all(fast == text for fast, text in seen)
    assert sum(text > cfg.max_prompt_tokens for _, text in seen) >= summary.token_filtered > 50
