"""The derivation generation algorithm: premises, stochastic steps, coherent
extraction, retry control, and dataset-scale generation with filters.

A derivation grows by weighted-random operation draws; generation stops
once the coherent sub-derivation ending at the newest equation (its
ancestors) reaches the sampled target length, and only then is it extracted.
Draws that are inapplicable, duplicate an existing equation, re-evaluate an
integral, or produce a trivial lhs = rhs equation count as failures;
retry_cap consecutive failures abandon the attempt.
"""
from __future__ import annotations

import hashlib
import math
import random
import sys
from bisect import bisect
from dataclasses import asdict, dataclass, fields
from itertools import accumulate
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from . import ops
from .expr import (
    AppliedFunction,
    Derivative,
    Equation,
    Expr,
    Integer,
    Integral,
    Symbol,
    add,
    applied,
    div,
    distinct_subtrees,
    equation_free_symbols,
    free_symbols,
    func,
    mul,
    pow_,
    symbol_nodes,
)
from .latex import equation_to_latex
from .ops import Derivation, ROLE_GOAL, ROLE_INTERMEDIATE, ROLE_PREMISE, Step
from .prompts import prompt_lexemes
from .records import DerivationRecord
from .vocab import SymbolTable, load_symbol_table


class GenerationError(Exception):
    pass


class VocabularyExhausted(GenerationError):
    pass


# the values each field annotation accepts; a bool is an int to Python, but
# no field means one
_FIELD_TYPES = {"int": (int, "an integer"), "float": ((int, float), "a number"),
                "Optional[str]": ((str, type(None)), "a string or null")}


@dataclass(frozen=True)
class GenConfig:
    """Generation hyperparameters. The eight named relative weights and the
    length/filter settings carry the reference defaults; the remaining
    weights cover operation groups the named set leaves implicit."""

    p_history: float = 10.0
    p_arity_0: float = 5.0
    p_renaming: float = 1.0
    p_arity_1: float = 50.0
    p_evaluate: float = 50.0
    p_arity_2: float = 100.0
    p_int_or_diff: float = 1.0
    p_diff_vs_int: float = 1.5
    p_subs: float = 5.0
    p_define: float = 0.05
    p_arith: float = 1.0
    p_extension: float = 0.5
    p_add_eq: float = 0.02
    length_mean: float = 7.0
    length_sigma: float = 3.0
    length_min: int = 4
    max_latex_chars: int = 350
    max_prompt_tokens: int = 512
    retry_cap: int = 100
    attempt_factor: int = 50
    vocabulary: Optional[str] = None
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            types, want = _FIELD_TYPES[f.type]
            if isinstance(value, bool) or not isinstance(value, types):
                raise GenerationError(f"{f.name} must be {want}, not {type(value).__name__}")
            # the seed may be any int; every other number must fit in a float
            if (f.name != "seed" and isinstance(value, (int, float))
                    and not abs(value) <= sys.float_info.max):
                raise GenerationError(f"{f.name} must be a finite number")
            if f.name.startswith("p_") and value < 0:
                raise GenerationError(f"{f.name} must be >= 0")
        if self.vocabulary == "":  # would open the current directory
            raise GenerationError("vocabulary must be a file path or null, not an empty string")
        if not (self.p_history > 0 and math.isfinite(1 / self.p_history)):
            # recency weights are p_history ** (-k / n) for 0 <= k < n
            raise GenerationError("p_history must be > 0 with a finite reciprocal")
        if self.length_min < 4:
            raise GenerationError("length_min must be >= 4 (lengths are kept above 3)")
        for name in ("retry_cap", "attempt_factor"):
            if getattr(self, name) < 1:  # attempt_factor 0 would make no attempt at all
                raise GenerationError(f"{name} must be >= 1")
        if self.length_sigma < 0:
            raise GenerationError("length_sigma must be >= 0")
        if not self.length_min - 0.5 < self.length_mean + 4 * self.length_sigma < math.inf:
            # sample_length redraws until round(gauss) >= length_min
            raise GenerationError("length_mean + 4 * length_sigma must be finite and exceed "
                                  "length_min - 0.5")
        # cumulative weights of sample_action's five draws, each with the weight
        # of the gate it is drawn under: a gate drawn with positive weight needs
        # a member with positive weight
        for attr, name, gate, weights in (
            ("_arity_cum", "p_arity_*", 1, (self.p_arity_0, self.p_arity_1, self.p_arity_2)),
            ("_arity1_cum", "the arity-1 groups", self.p_arity_1,
             (self.p_evaluate, self.p_int_or_diff, self.p_renaming + self.p_define,
              self.p_arith, self.p_extension)),
            ("_diff_int_cum", "p_diff_vs_int", self.p_int_or_diff, (self.p_diff_vs_int, 1.0)),
            ("_rename_cum", "p_renaming + p_define", self.p_renaming + self.p_define,
             (self.p_renaming, self.p_define)),
            ("_arity2_cum", "p_subs + p_add_eq", self.p_arity_2, (self.p_subs, self.p_add_eq)),
        ):
            cum = list(accumulate(weights))
            if not math.isfinite(cum[-1]):
                raise GenerationError(f"{name} weights must have a finite sum")
            if gate > 0 and not cum[-1] > 0:
                raise GenerationError(f"{name} weights are all zero")
            object.__setattr__(self, attr, cum)

    def load_vocabulary(self) -> SymbolTable:
        return load_symbol_table(self.vocabulary)


def derive_seed(seed: int, tag: int | str) -> int:
    """Deterministic stream seed for a (seed, tag) pair, stable across
    platforms: per generation attempt, per perturbed record, per few-shot row."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def sample_length(cfg: GenConfig, rng: random.Random) -> int:
    while True:
        value = round(rng.gauss(cfg.length_mean, cfg.length_sigma))
        if value >= cfg.length_min:
            return int(value)


# ---------------------------------------------------------------------------
# premise generation

_ONE_ARG_BODIES: tuple[Callable[[Expr], Expr], ...] = (
    lambda x: x,
    lambda x: func("sin", x),
    lambda x: func("cos", x),
    lambda x: func("exp", x),
    lambda x: func("log", x),
    lambda x: div(Integer(1), x),
    lambda x: pow_(x, Integer(2)),
)

_TWO_ARG_BODIES: tuple[Callable[[Expr, Expr], Expr], ...] = (
    lambda x, y: add(x, y),
    lambda x, y: mul(x, y),
    lambda x, y: div(x, y),
    lambda x, y: pow_(x, y),
)

_THREE_ARG_BODIES: tuple[Callable[[Expr, Expr, Expr], Expr], ...] = (
    lambda x, y, z: add(x, div(y, z)),
    lambda x, y, z: add(mul(x, y), z),
    lambda x, y, z: add(x, y, z),
    lambda x, y, z: div(mul(x, y), z),
)

_PREMISE_ARITY_CUM = tuple(accumulate((35, 40, 25)))  # premises of 1, 2 and 3 arguments


def generate_premise(
    vocab: SymbolTable, rng: random.Random, used: Iterable[str] = ()
) -> Equation:
    """Fresh premise: an unused function name applied to 1-3 unused variables,
    equal to an elementary-function or rational body over those variables."""
    used_set = used if isinstance(used, set) else set(used)
    fn_names = [n for n in vocab.names("function-name") if n not in used_set]
    var_names = [n for n in vocab.names("variable") if n not in used_set]
    if not fn_names or len(var_names) < 1:
        raise VocabularyExhausted("not enough unused symbols for a premise")
    k = min(ops.weighted_pick((1, 2, 3), _PREMISE_ARITY_CUM, rng), len(var_names))
    name = rng.choice(fn_names)
    args = [Symbol(v) for v in rng.sample(var_names, k)]
    bodies = (_ONE_ARG_BODIES, _TWO_ARG_BODIES, _THREE_ARG_BODIES)[k - 1]
    return Equation(applied(name, args), rng.choice(bodies)(*args))


# ---------------------------------------------------------------------------
# single-step sampling

_ARITH_OPS = (ops.ADD, ops.SUB, ops.MUL, ops.DIV, ops.POW)
_EXT1_OPS = (ops.NEGATE, ops.SWAP, ops.EXP_BOTH, ops.LOG_BOTH)

NEW_PREMISE = "new_premise"


class Applicability(NamedTuple):
    n_steps: int
    has_derivative: bool
    has_integral: bool
    has_derived: bool = False


def sample_action(flags: Applicability, cfg: GenConfig, rng: random.Random) -> Optional[str]:
    """Draw the next action (an op id or NEW_PREMISE) through the arity gate
    hierarchy. Returns None when the drawn group has no applicable member.
    The arity and group draws are ops.weighted_pick's bisect, made inline; a
    float times an int total is a float times float(total), as with + 0.0."""
    weighted, draw = ops.weighted_pick, rng.random
    arity = bisect(cfg._arity_cum, draw() * cfg._arity_cum[-1], 0, 2)
    if arity == 0:
        return NEW_PREMISE
    if arity == 1:
        # evaluate, int_or_diff, renaming, arith, ext
        group = bisect(cfg._arity1_cum, draw() * cfg._arity1_cum[-1], 0, 4)
        if group == 0:
            candidates = [op for op, ok in ((ops.EVAL_DIFF, flags.has_derivative),
                                            (ops.EVAL_INT, flags.has_integral)) if ok]
            return rng.choice(candidates) if candidates else None
        if group == 1:
            return weighted((ops.DIFF, ops.INT), cfg._diff_int_cum, rng)
        if group == 2:
            if not flags.has_derived:
                return None
            return weighted((ops.RENAME, ops.DEFINE), cfg._rename_cum, rng)
        if group == 3:
            return rng.choice(_ARITH_OPS)
        return rng.choice(_EXT1_OPS)
    if flags.n_steps < 2:
        return None
    if bisect(cfg._arity2_cum, draw() * cfg._arity2_cum[-1], 0, 1) == 0:  # subs, else add_eq
        return rng.choice((ops.SUB_LHS, ops.SUB_RHS))
    return ops.ADD_EQ


def _recency_pick(state: _GenState, indices: Sequence[int]) -> int:
    weights = ops.step_weights(len(state.steps), state.cfg.p_history)
    return ops.weighted_pick(indices, list(accumulate(weights[i] for i in indices)), state.rng)


class _GenState:
    """One attempt's steps and what is derived from them. The steps list only
    grows, so a step index names the same equation for the whole attempt and
    everything cached here stays valid until the attempt ends."""

    def __init__(self, cfg: GenConfig, vocab: SymbolTable, rng: random.Random):
        self.cfg = cfg
        self.vocab = vocab
        self.rng = rng
        self.steps: list[Step] = []
        self.used_names: set[str] = set()
        self.seen_equations: set[Equation] = set()
        self.eval_int_parents: set[tuple[int, ...]] = set()
        self.eval_diff_parents: set[tuple[int, ...]] = set()
        self.derivative_indices: list[int] = []
        self.integral_indices: list[int] = []
        self.derived_indices: list[int] = []
        # subexpression -> ascending indices of the steps containing it
        self.containing: dict[Expr, list[int]] = {}
        # sides[i]: the containing lists of step i's lhs and rhs; both hold i
        self.sides: list[tuple[list[int], list[int]]] = []
        self.flags = Applicability(0, False, False, False)
        # ancestors[i]: step i and every step it descends from
        self.ancestors: list[set[int]] = []
        # (op, parents) -> the step ops.apply made, or None if it failed
        self.applied: dict[tuple[str, tuple[int, ...]], Optional[Step]] = {}

    def note(self, step: Step) -> None:
        index = len(self.steps)
        self.steps.append(step)
        self.seen_equations.add(step.equation)
        if step.operand is not None:
            self.used_names.update(free_symbols(step.operand))
        self.used_names.update(c.name for c in step.constants)
        if step.op == ops.EVAL_INT:
            self.eval_int_parents.add(step.parents)
        elif step.op == ops.EVAL_DIFF:
            self.eval_diff_parents.add(step.parents)
        ancestors = {index}
        for p in step.parents:
            ancestors |= self.ancestors[p]
        self.ancestors.append(ancestors)
        # a walk of its own, not expr.distinct_subtrees: a node whose containing
        # list already ends in this index was walked, subtree and all
        containing, used = self.containing, self.used_names
        has_derivative = has_integral = False
        eq = step.equation
        stack = [eq.lhs, eq.rhs]
        while stack:
            node = stack.pop()
            indices = containing.get(node)
            if indices is None:
                containing[node] = [index]
            elif indices[-1] == index:
                continue
            else:
                indices.append(index)
            stack.extend(node.children())
            t = type(node)
            if t is Symbol or t is AppliedFunction:
                used.add(node.name)
            elif t is Derivative:
                has_derivative = True
            elif t is Integral:
                has_integral = True
        if has_derivative:
            self.derivative_indices.append(index)
        if has_integral:
            self.integral_indices.append(index)
        if step.role != ROLE_PREMISE:
            self.derived_indices.append(index)
        self.sides.append((containing[eq.lhs], containing[eq.rhs]))
        self.flags = Applicability(index + 1, bool(self.derivative_indices),
                                   bool(self.integral_indices), bool(self.derived_indices))

    def constant_pool(self) -> list[str]:
        pool = [
            n
            for n in self.vocab.names("constant") + self.vocab.names("variable")
            if n not in self.used_names
        ]
        ops.shuffle(pool, self.rng)
        return pool

    def apply_once(self, op: str, parents: tuple[int, ...],
                   fresh: Sequence[str] = ()) -> Optional[Step]:
        """ops.apply on this attempt's steps, None when it fails.

        The result depends only on op and the parents' equations, so each
        (op, parents) pair is computed once per attempt. eval_int draws its
        constants from a pool that shrinks as names get used, so only its
        failures are kept: a table miss or a missing integral does not depend
        on the pool, and an exhausted pool stays exhausted.
        """
        key = (op, parents)
        if key in self.applied:
            return self.applied[key]
        try:
            step = ops.apply(op, self.steps, parents, fresh=fresh)
        except ops.OpError:
            step = None
        if step is None or op != ops.EVAL_INT:
            self.applied[key] = step
        return step

    def fresh_function_name(self) -> Optional[str]:
        names = [n for n in self.vocab.names("function-name") if n not in self.used_names]
        return self.rng.choice(names) if names else None


def prefix_state(cfg: GenConfig, vocab: SymbolTable, rng: random.Random,
                 steps: Sequence[Step]) -> _GenState:
    """A state over `steps` for apply_action given parents, as alternative
    goals call it: the steps and the names note collects, but not note's
    substitution index and tables, which only draws of parents read."""
    state = _GenState(cfg, vocab, rng)
    state.steps = list(steps)
    for s in steps:
        state.used_names.update(equation_free_symbols(s.equation), (c.name for c in s.constants),
                                () if s.operand is None else free_symbols(s.operand))
    return state


def _substitution_draw(state: _GenState, op: str) -> Optional[Step]:
    """Walk definition candidates in recency-sampled order and pick a
    recency-weighted target whose matching side contains one of the
    definition's sides (the "relevant equation elements" pre-search of the
    step procedure)."""
    weights = ops.step_weights(len(state.steps), state.cfg.p_history)
    side = 0 if op == ops.SUB_LHS else 1
    # exponential-sort order: one rng.random() per step, in index order; keys only
    # for definitions with a target, another step in their side's containing list
    draw = state.rng.random
    keyed = []
    for i, sides in enumerate(state.sides):
        u = draw()
        if len(sides[side]) > 1:
            keyed.append((u ** (1.0 / weights[i]), i))
    keyed.sort(reverse=True)
    for _, definition in keyed:
        targets = [j for j in state.sides[definition][side] if j != definition]
        target = _recency_pick(state, targets)
        candidate = state.apply_once(op, (definition, target))
        if candidate is not None:
            return candidate
    return None


def apply_action(
    state: _GenState, action: str, parents: Optional[tuple[int, ...]] = None
) -> Optional[Step]:
    """Execute an action (an op id or NEW_PREMISE), drawing what it needs in
    a fixed order. First its parents, unless given, by recency: a rename
    draws its fresh name before its parent, a substitution walks
    _substitution_draw, and an evaluation skips parents already evaluated.
    Then a premise, an operand (an arithmetic one from a step drawn by
    recency), a variable or the shuffled constant pool.
    None when the op does not apply."""
    rng, steps = state.rng, state.steps
    n = len(steps)
    try:
        if action == NEW_PREMISE:
            eq = generate_premise(state.vocab, rng, state.used_names)
            return Step(eq, None, role=ROLE_PREMISE)
        if action in (ops.SUB_LHS, ops.SUB_RHS):
            if parents is None:
                return _substitution_draw(state, action)
            return state.apply_once(action, parents)
        if action in ops.EVAL_FAMILY:
            if parents is None:
                if action == ops.EVAL_DIFF:
                    indices, done = state.derivative_indices, state.eval_diff_parents
                else:
                    indices, done = state.integral_indices, state.eval_int_parents
                indices = [i for i in indices if (i,) not in done]
                if not indices:
                    return None
                parents = (_recency_pick(state, indices),)
            if action == ops.EVAL_DIFF:
                return state.apply_once(action, parents)
            # the pool is shuffled (drawing from rng) even on a memo hit
            return state.apply_once(action, parents, fresh=state.constant_pool())
        if action == ops.ADD_EQ:
            if parents is None:
                first = _recency_pick(state, range(n))
                parents = (first, _recency_pick(state, [i for i in range(n) if i != first]))
            return ops.apply(action, steps, parents)
        if action in ops.RENAME_FAMILY:
            name = state.fresh_function_name()
            if name is None:
                return None
            parents = parents or (_recency_pick(state, state.derived_indices),)
            eq = steps[parents[0]].equation
            if action == ops.RENAME:
                operand = eq.lhs if rng.random() < 0.5 else eq.rhs
            else:
                operand = rng.choice(tuple(distinct_subtrees(eq.lhs, eq.rhs)))
            return ops.apply(action, steps, parents, operand, (name,))
        parents = parents or (_recency_pick(state, range(n)),)
        eq = steps[parents[0]].equation
        if action in (ops.DIFF, ops.INT):
            names = sorted(symbol_nodes(eq.lhs, eq.rhs), key=lambda s: s.name)
            return ops.apply(action, steps, parents, rng.choice(names)) if names else None
        if action in _ARITH_OPS:
            source = steps[_recency_pick(state, range(n))].equation
            operand = rng.choice(tuple(distinct_subtrees(source.lhs, source.rhs)))
            return ops.apply(action, steps, parents, operand)
        return ops.apply(action, steps, parents)
    except (ops.OpError, VocabularyExhausted):
        return None


def try_step(state: _GenState) -> Optional[Step]:
    """One stochastic step draw; None counts as a failed attempt."""
    action = sample_action(state.flags, state.cfg, state.rng)
    candidate = None if action is None else apply_action(state, action)
    if candidate is None:
        return None

    eq = candidate.equation
    if eq.lhs == eq.rhs:
        return None
    if eq in state.seen_equations:
        return None
    # runtime guard: reject runaway trees early; the strict 350-char filter
    # is still applied per record downstream
    if len(equation_to_latex(eq)) > 2 * state.cfg.max_latex_chars:
        return None
    return candidate


# ---------------------------------------------------------------------------
# coherent extraction and the outer loop

def extract_derivation(steps: list[Step] | tuple[Step, ...]) -> Derivation:
    """Keep exactly the ancestors of the final step, preserving order,
    remapping parent indices, and assigning prompt roles."""
    kept = sorted(ops.ancestors(steps))
    remap = {old: new for new, old in enumerate(kept)}
    out = []
    last = len(kept) - 1
    for new_idx, old_idx in enumerate(kept):
        s = steps[old_idx]
        if new_idx == last:
            role = ROLE_GOAL
        elif s.role == ROLE_PREMISE:
            role = ROLE_PREMISE
        elif s.op in ops.EVAL_FAMILY:
            role = ROLE_INTERMEDIATE
        else:
            role = ops.ROLE_ORDINARY
        out.append(s._replace(parents=tuple(remap[p] for p in s.parents), role=role))
    return Derivation(tuple(out))


def generate_derivation(
    cfg: GenConfig, rng: random.Random, vocab: Optional[SymbolTable] = None
) -> Optional[Derivation]:
    """Run the stepping loop until a coherent derivation of the sampled
    length exists; None after retry_cap consecutive failed draws."""
    vocab = vocab if vocab is not None else cfg.load_vocabulary()
    state = _GenState(cfg, vocab, rng)
    state.note(Step(generate_premise(vocab, rng, state.used_names), None, role=ROLE_PREMISE))
    target_length = sample_length(cfg, rng)
    failures = 0
    while True:
        candidate = try_step(state)
        if candidate is None:
            failures += 1
            if failures >= cfg.retry_cap:
                return None
            continue
        failures = 0
        state.note(candidate)
        if len(state.ancestors[-1]) >= target_length:
            return extract_derivation(state.steps)


@dataclass
class GenerationSummary:
    requested: int = 0
    produced: int = 0
    attempts: int = 0
    retry_exhausted: int = 0
    char_filtered: int = 0
    token_filtered: int = 0

    def as_dict(self) -> dict:
        return {**asdict(self), "schema_version": 1}


def passes_char_filter(d: Derivation, cfg: GenConfig) -> bool:
    return all(len(equation_to_latex(s.equation)) <= cfg.max_latex_chars for s in d.steps)


def passes_token_filter(derivation: Derivation, cfg: GenConfig) -> bool:
    return prompt_lexemes(derivation) <= cfg.max_prompt_tokens


def generate_dataset(cfg: GenConfig, n: int) -> tuple[list[DerivationRecord], GenerationSummary]:
    """Generate n records passing both dataset filters, in at most
    attempt_factor * n attempts, stopping once attempt_factor in a row have
    kept nothing. Records carry the per-attempt stream seed, so output is
    deterministic regardless of how attempts are scheduled."""
    if n < 1:
        raise GenerationError("record count must be >= 1")
    vocab = cfg.load_vocabulary()
    summary = GenerationSummary(requested=n)
    records: list[DerivationRecord] = []
    max_attempts = cfg.attempt_factor * n
    attempt = last_kept = 0
    while len(records) < n and attempt < min(max_attempts, last_kept + cfg.attempt_factor):
        stream_seed = derive_seed(cfg.seed, attempt)
        rng = random.Random(stream_seed)
        attempt += 1
        summary.attempts = attempt
        derivation = generate_derivation(cfg, rng, vocab=vocab)
        if derivation is None:
            summary.retry_exhausted += 1
            continue
        if not passes_char_filter(derivation, cfg):
            summary.char_filtered += 1
            continue
        if not passes_token_filter(derivation, cfg):
            summary.token_filtered += 1
            continue
        records.append(DerivationRecord(f"d{attempt - 1:06d}", stream_seed, derivation))
        summary.produced += 1
        last_kept = attempt
    return records, summary
