"""The four static-set perturbations: VR, EE, AG, SR.

Variable renaming and expression exchange rewrite trees without
re-canonicalizing, so outputs are tree-isomorphic to their inputs (VR) or
exact side swaps (EE). Alternative goal re-samples the final operation from
the penultimate equation; step removal rewrites the prompt only. ``perturb``
applies one kind to one stored record.
"""
from __future__ import annotations

import random
import re
from typing import Optional

from . import ops
from .expr import AppliedFunction, Equation, Expr, Symbol, distinct_subtrees, rebuild
from .genalg import GenConfig, apply_action, derive_seed, passes_token_filter, prefix_state
from .ops import Derivation, ROLE_GOAL
from .prompts import build_prompt
from .records import DerivationRecord, PromptRecord
from .vocab import GREEK_POOL_DEFAULT, SymbolTable

VR, EE, AG, SR = "VR", "EE", "AG", "SR"
KINDS = (VR, EE, AG, SR)


class Skipped(Exception):
    """A record a perturbation leaves out; the message is the reason."""


def perturb(
    kind: str, record: DerivationRecord, cfg: GenConfig, vocab: Optional[SymbolTable]
) -> tuple[DerivationRecord, PromptRecord]:
    """Apply perturbation `kind` to one stored record, drawing from the
    record's own stream of cfg.seed: the perturbed record and its prompt.
    AG takes the vocabulary (None loads it from cfg); EE of an EE row gives
    the untagged original back. EE and SR draw nothing, so only VR and AG
    seed the stream. Raises Skipped for a record the kind leaves out."""
    rng = random.Random(derive_seed(cfg.seed, f"{kind}:{record.id}")) if kind in (VR, AG) else None
    derivation, static_id = record.derivation, record.static_id or record.id
    tag, family = kind, static_id
    if kind == EE:
        derivation = exchange_expressions(derivation)
        if record.perturbation == EE:
            tag = family = None
    elif kind == VR:
        derivation, _ = rename_variables(derivation, rng)
    elif kind == AG:
        derivation = alternative_goal(derivation, cfg, rng, vocab)
    prompt = build_prompt(derivation, record.id, static_id, tag)
    if kind == SR:
        prompt = remove_steps(prompt)
        if prompt is None:
            raise Skipped("no intermediates")
    elif kind == VR and not passes_token_filter(derivation, cfg):
        raise Skipped("token limit")
    return DerivationRecord(record.id, record.seed, derivation, tag, family), prompt


# ---------------------------------------------------------------------------
# variable renaming

def rename_leaves(e: Expr, mapping: dict[str, str], memo: dict[Expr, Expr]) -> Expr:
    """Rename symbol and function names without touching tree structure.
    `memo` maps nodes already renamed to their copies: rename_variables
    shares one across a derivation's steps, so each distinct node is renamed
    once and equal copies are one object."""
    out = memo.get(e)
    if out is not None:
        return out
    if type(e) is Symbol:
        out = Symbol(mapping.get(e.name, e.name))
    else:
        kids = [rename_leaves(x, mapping, memo) for x in e.children()]
        if type(e) is AppliedFunction:
            out = AppliedFunction(mapping.get(e.name, e.name), tuple(kids))
        else:
            out = rebuild(e, kids, raw=True)
    memo[e] = out
    return out


def collect_names(d: Derivation) -> list[str]:
    """Distinct symbol/function names in first-appearance order. A subtree
    equal to one already walked is skipped: its names are already seen."""
    roots = [root for s in d.steps
             for root in (s.equation.lhs, s.equation.rhs, s.operand, *s.constants)
             if root is not None]
    return list(dict.fromkeys(node.name for node in distinct_subtrees(*roots)
                              if type(node) is Symbol or type(node) is AppliedFunction))


def rename_variables(d: Derivation, rng: random.Random) -> tuple[Derivation, dict[str, str]]:
    """Bijectively map every distinct name to a letter of the
    out-of-distribution Greek pool; Skipped when the pool is too small.
    Each distinct node is renamed once for the whole derivation."""
    names = collect_names(d)
    if len(names) > len(GREEK_POOL_DEFAULT):
        raise Skipped("too many symbols")
    letters = rng.sample(GREEK_POOL_DEFAULT, len(names))
    mapping = dict(zip(names, letters))
    memo: dict[Expr, Expr] = {}

    def renamed(e: Expr) -> Expr:
        return rename_leaves(e, mapping, memo)

    steps = tuple(
        s._replace(
            equation=Equation(renamed(s.equation.lhs), renamed(s.equation.rhs)),
            operand=None if s.operand is None else renamed(s.operand),
            constants=tuple(map(renamed, s.constants)),
        )
        for s in d.steps
    )
    return Derivation(steps), mapping


# ---------------------------------------------------------------------------
# expression exchange

def exchange_expressions(d: Derivation) -> Derivation:
    """Swap lhs and rhs of every equation; an involution."""
    return Derivation(tuple(s._replace(equation=s.equation.swapped()) for s in d.steps))


# ---------------------------------------------------------------------------
# alternative goal

def alternative_goal(
    d: Derivation, cfg: GenConfig, rng: random.Random, vocab: Optional[SymbolTable] = None
) -> Derivation:
    """Replace the final step with a freshly sampled applicable operation on
    the penultimate equation whose result is a new equation; Skipped when
    there is no penultimate equation or no new goal within retry_cap draws.
    A draw runs a uniform op as generation runs it, a substitution on a
    uniform earlier definition. Pass the vocabulary to avoid loading it from
    cfg per call. Every parent must precede its step, as the loader checks."""
    if len(d) < 2:
        raise Skipped("fewer than two steps")
    prefix = d.steps[:-1]
    existing = {s.equation for s in d.steps}  # the old goal among them
    vocab = vocab if vocab is not None else cfg.load_vocabulary()
    state = prefix_state(cfg, vocab, rng, prefix)
    penultimate = len(prefix) - 1
    subs = (ops.SUB_LHS, ops.SUB_RHS)
    choices = _GOAL_OPS + (subs if penultimate >= 1 else ())
    for _ in range(cfg.retry_cap):
        action = rng.choice(choices)
        definition = (rng.randrange(penultimate),) if action in subs else ()
        candidate = apply_action(state, action, definition + (penultimate,))
        if candidate is None:
            continue
        eq = candidate.equation
        if eq in existing or eq.lhs == eq.rhs:
            continue
        return Derivation(prefix + (candidate._replace(role=ROLE_GOAL),))
    raise Skipped("goal resampling exhausted")


_GOAL_OPS = (ops.ADD, ops.SUB, ops.MUL, ops.DIV, ops.POW, ops.DIFF, ops.INT,
             ops.EVAL_DIFF, ops.EVAL_INT, ops.NEGATE, ops.SWAP, ops.EXP_BOTH, ops.LOG_BOTH)


# ---------------------------------------------------------------------------
# step removal

_THEN_DERIVE_CLAUSE = re.compile(r", then derive \$[^$]*\$")


def remove_steps(record: PromptRecord) -> Optional[PromptRecord]:
    """Delete every "then derive" clause from the prompt; None when the
    record has no intermediate steps to remove."""
    if "then derive" not in record.prompt:
        return None
    stripped = _THEN_DERIVE_CLAUSE.sub("", record.prompt)
    return record._replace(prompt=stripped, perturbation=SR)
