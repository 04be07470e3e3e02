"""The four static-set perturbations: VR, EE, AG, SR.

Variable renaming and expression exchange rewrite trees without
re-canonicalizing, so outputs are tree-isomorphic to their inputs (VR) or
exact side swaps (EE). Alternative goal re-samples the final operation from
the penultimate equation; step removal rewrites the prompt only.
"""
from __future__ import annotations

import random
import re
from dataclasses import replace
from typing import Optional

from . import ops
from .expr import AppliedFunction, Equation, Expr, Symbol, rebuild
from .genalg import GenConfig, _GenState, apply_action
from .ops import Derivation, ROLE_GOAL, Step
from .records import PromptRecord
from .vocab import GREEK_POOL_DEFAULT, SymbolTable

VR, EE, AG, SR = "VR", "EE", "AG", "SR"
KINDS = (VR, EE, AG, SR)


class PerturbationError(Exception):
    pass


class TooManySymbols(PerturbationError):
    pass


class GoalExhausted(PerturbationError):
    pass


# ---------------------------------------------------------------------------
# variable renaming

def rename_leaves(e: Expr, mapping: dict[str, str]) -> Expr:
    """Rename symbol and function names without touching tree structure."""
    if type(e) is Symbol:
        return Symbol(mapping.get(e.name, e.name))
    kids = [rename_leaves(x, mapping) for x in e.children()]
    if type(e) is AppliedFunction:
        return AppliedFunction(mapping.get(e.name, e.name), tuple(kids))
    return rebuild(e, kids, raw=True)


def collect_names(d: Derivation) -> list[str]:
    """Distinct symbol/function names in first-appearance order."""
    seen: dict[str, None] = {}

    def walk(e: Expr) -> None:
        for node in e.subtrees():
            if type(node) is Symbol or type(node) is AppliedFunction:
                seen.setdefault(node.name, None)

    for s in d.steps:
        walk(s.equation.lhs)
        walk(s.equation.rhs)
        if s.operand is not None:
            walk(s.operand)
        for c in s.constants:
            seen.setdefault(c.name, None)
    return list(seen)


def rename_variables(d: Derivation, rng: random.Random) -> tuple[Derivation, dict[str, str]]:
    """Bijectively map every distinct name to a letter of the
    out-of-distribution Greek pool."""
    names = collect_names(d)
    if len(names) > len(GREEK_POOL_DEFAULT):
        raise TooManySymbols(
            f"{len(names)} distinct symbols exceed the {len(GREEK_POOL_DEFAULT)}-letter pool"
        )
    letters = rng.sample(GREEK_POOL_DEFAULT, len(names))
    mapping = dict(zip(names, letters))
    steps = []
    for s in d.steps:
        steps.append(
            replace(
                s,
                equation=Equation(
                    rename_leaves(s.equation.lhs, mapping),
                    rename_leaves(s.equation.rhs, mapping),
                ),
                operand=None if s.operand is None else rename_leaves(s.operand, mapping),
                constants=tuple(Symbol(mapping.get(c.name, c.name)) for c in s.constants),
            )
        )
    return Derivation(tuple(steps)), mapping


# ---------------------------------------------------------------------------
# expression exchange

def exchange_expressions(d: Derivation) -> Derivation:
    """Swap lhs and rhs of every equation; an involution."""
    return Derivation(tuple(replace(s, equation=s.equation.swapped()) for s in d.steps))


# ---------------------------------------------------------------------------
# alternative goal

def alternative_goal(
    d: Derivation, cfg: GenConfig, rng: random.Random, vocab: Optional[SymbolTable] = None
) -> Derivation:
    """Replace the final step with a freshly sampled applicable operation on
    the penultimate equation whose result is a new equation. Pass the
    vocabulary to avoid loading it from ``cfg`` on every call."""
    if len(d) < 2:
        raise PerturbationError("alternative goal needs at least two steps")
    prefix = d.steps[:-1]
    old_goal = d.steps[-1].equation
    existing = {s.equation for s in d.steps}
    vocab = vocab if vocab is not None else cfg.load_vocabulary()
    state = _GenState(cfg, vocab, rng)
    for s in prefix:
        state.note(s)
    penultimate = len(prefix) - 1
    for _ in range(cfg.retry_cap):
        candidate = _sample_goal_step(state, penultimate)
        if candidate is None:
            continue
        eq = candidate.equation
        if eq == old_goal or eq in existing or eq.lhs == eq.rhs:
            continue
        return Derivation(prefix + (replace(candidate, role=ROLE_GOAL),))
    raise GoalExhausted("no differing applicable operation found within retry_cap")


_GOAL_OPS = (ops.ADD, ops.SUB, ops.MUL, ops.DIV, ops.POW, ops.DIFF, ops.INT,
             ops.EVAL_DIFF, ops.EVAL_INT, ops.NEGATE, ops.SWAP, ops.EXP_BOTH, ops.LOG_BOTH)


def _sample_goal_step(state: _GenState, target: int) -> Optional[Step]:
    """Draw an op uniformly and run it on the target equation the way
    generation runs it; a substitution takes a uniform earlier definition."""
    rng = state.rng
    choices = _GOAL_OPS + ((ops.SUB_LHS, ops.SUB_RHS) if target >= 1 else ())
    action = choices[rng.randrange(len(choices))]
    if action in (ops.SUB_LHS, ops.SUB_RHS):
        return apply_action(state, action, (rng.randrange(target), target))
    if action == ops.EVAL_INT and (target,) in state.eval_int_parents:
        return None
    return apply_action(state, action, (target,))


# ---------------------------------------------------------------------------
# step removal

_THEN_DERIVE_CLAUSE = re.compile(r", then derive \$[^$]*\$")


def remove_steps(record: PromptRecord) -> Optional[PromptRecord]:
    """Delete every "then derive" clause from the prompt; None when the
    record has no intermediate steps to remove."""
    if "then derive" not in record.prompt:
        return None
    stripped = _THEN_DERIVE_CLAUSE.sub("", record.prompt)
    return replace(record, prompt=stripped, intermediates=(), perturbation=SR)
