"""Prompt rendering: fine-tuning prompt/target pairs and few-shot templates.

Template: premises appear as "Given $...$" then "and $...$" clauses,
evaluation results as ", then derive $...$" clauses in derivation order, and
the final equation as ", then obtain $...$". Targets are the bare equations
joined by " and " (no dollar signs).
"""
from __future__ import annotations

import random
from itertools import islice
from operator import itemgetter
from typing import Optional, Sequence

from .latex import count_lexemes, equation_to_latex
from .ops import RENAME_FAMILY, ROLE_PREMISE, Derivation, shuffle
from .records import PromptRecord

FEWSHOT_HEADER = (
    "The following examples consist of a prompt (denoted by Prompt:) and a "
    'mathematical derivation (denoted by Derivation:). Each derivation contains '
    'LaTeX equations separated by "and".'
)
FEWSHOT_INSTRUCTION = (
    "Now given the following prompt, generate the derivation. "
    'Ensure equations are split by the word "and".'
)

THEN_DERIVE = "then derive"


class PromptError(Exception):
    pass


def prompt_premise_indices(derivation: Derivation) -> tuple[int, ...]:
    """Steps rendered as Given/and clauses: introduced premises plus
    renaming definitions (both state equations the model cannot derive)."""
    last = len(derivation) - 1
    return tuple(
        i
        for i, s in enumerate(derivation.steps)
        if i != last and (s.role == ROLE_PREMISE or s.op in RENAME_FAMILY)
    ) or ((0,) if len(derivation) else ())


def build_target(derivation: Derivation) -> str:
    return " and ".join(equation_to_latex(s.equation) for s in derivation.steps)


def render_prompt_text(
    premise_eqs: Sequence[str], derive_eqs: Sequence[str], goal_eq: str
) -> str:
    parts = [f"Given ${premise_eqs[0]}$"]
    for eq in premise_eqs[1:]:
        parts.append(f"and ${eq}$")
    text = " ".join(parts)
    for eq in derive_eqs:
        text += f", {THEN_DERIVE} ${eq}$"
    text += f", then obtain ${goal_eq}$"
    return text


def prompt_lexemes(derivation: Derivation) -> int:
    """count_lexemes(prompt + " " + target) of build_prompt(derivation),
    without building either text: the template's "$", "," and spaces never
    join an equation's lexemes, so each equation counts alone."""
    counts = [count_lexemes(equation_to_latex(s.equation)) for s in derivation.steps]
    premises, derived = prompt_premise_indices(derivation), derivation.intermediates()
    # 3 for each "Given $.$" or "and $.$", 5 for each ", then derive $.$" and
    # for ", then obtain $.$", and one "and" between two equations of the target
    return (sum(counts[i] + 3 for i in premises) + sum(counts[i] + 5 for i in derived)
            + counts[-1] + 5 + sum(counts) + len(counts) - 1)


def build_prompt(
    derivation: Derivation,
    record_id: str = "",
    static_id: Optional[str] = None,
    perturbation: Optional[str] = None,
) -> PromptRecord:
    if not len(derivation):
        raise PromptError("empty derivation has no goal")
    eqs = [equation_to_latex(s.equation) for s in derivation.steps]
    prompt = render_prompt_text(
        [eqs[i] for i in prompt_premise_indices(derivation)],
        [eqs[i] for i in derivation.intermediates()],
        eqs[-1],
    )
    return PromptRecord(
        id=record_id,
        static_id=static_id if static_id is not None else record_id,
        perturbation=perturbation,
        prompt=prompt,
        target=build_target(derivation),
    )


def qualifies_for_fewshot(record: PromptRecord) -> bool:
    """The sampling constraint: prompt shows an intermediate step and more
    than one premise."""
    return THEN_DERIVE in record.prompt and " and $" in record.prompt


def fewshot_pool(records: Sequence[PromptRecord]) -> list[tuple[PromptRecord, bool]]:
    """build_fewshot's pool: each distinct record paired with
    qualifies_for_fewshot, so a row given twice cannot fill two examples."""
    return [(p, qualifies_for_fewshot(p)) for p in dict.fromkeys(records)]


def build_fewshot(
    record: PromptRecord, pool: Sequence[tuple[PromptRecord, bool]], rng: random.Random
) -> str:
    """Five examples of a fewshot_pool (at least two qualifying), then the
    evaluation prompt. Pool records matching the evaluation record's static
    family are never sampled."""
    candidates = [entry for entry in pool if entry[0].static_id != record.static_id]
    qualifying = sum(map(itemgetter(1), candidates))
    if len(candidates) < 5 or qualifying < 2:
        raise PromptError(
            f"need >= 5 pool prompts with >= 2 qualifying, have {len(candidates)}"
            f"/{qualifying}"
        )
    shuffle(candidates, rng)
    picked = list(islice((p for p, qualifies in candidates if qualifies), 2))
    for p, _ in candidates:
        if len(picked) == 5:
            break
        if p not in picked:
            picked.append(p)
    # each record's position among the candidates, built at C level
    order = dict(zip(map(id, map(itemgetter(0), candidates)), range(len(candidates))))
    picked.sort(key=lambda p: order[id(p)])
    blocks = [f"Prompt: {p.prompt}\nDerivation: {p.target}" for p in picked]
    return (
        FEWSHOT_HEADER
        + "\n\n"
        + "\n\n".join(blocks)
        + "\n\n"
        + FEWSHOT_INSTRUCTION
        + "\n\n"
        + f"Prompt: {record.prompt}"
    )
