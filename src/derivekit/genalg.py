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
import random
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, Iterable, Optional

from . import ops
from .expr import (
    Derivative,
    Equation,
    Expr,
    Integer,
    Integral,
    Symbol,
    add,
    applied,
    div,
    equation_free_symbols,
    free_symbols,
    func,
    mul,
    pow_,
)
from .latex import count_lexemes, equation_to_latex
from .ops import Derivation, ROLE_GOAL, ROLE_INTERMEDIATE, ROLE_PREMISE, Step
from .records import DerivationRecord
from .vocab import SymbolTable, load_symbol_table


class GenerationError(Exception):
    pass


class VocabularyExhausted(GenerationError):
    pass


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
            if f.name.startswith("p_") and getattr(self, f.name) < 0:
                raise GenerationError(f"{f.name} must be >= 0")
        if self.length_min < 4:
            raise GenerationError("length_min must be >= 4 (lengths are kept above 3)")
        if self.retry_cap < 1:
            raise GenerationError("retry_cap must be >= 1")
        if self.length_sigma < 0:
            raise GenerationError("length_sigma must be >= 0")
        if self.length_mean + 4 * self.length_sigma <= self.length_min - 0.5:
            # sample_length redraws until round(gauss) >= length_min
            raise GenerationError(
                "length_mean + 4 * length_sigma must exceed length_min - 0.5"
            )
        # a gate drawn with positive weight needs a member with positive weight
        gates = (
            ("p_arity_*", 1, (self.p_arity_0, self.p_arity_1, self.p_arity_2)),
            ("the arity-1 groups", self.p_arity_1,
             (self.p_evaluate, self.p_int_or_diff, self.p_renaming + self.p_define,
              self.p_arith, self.p_extension)),
            ("p_subs + p_add_eq", self.p_arity_2, (self.p_subs, self.p_add_eq)),
        )
        for name, gate, members in gates:
            if gate > 0 and not any(w > 0 for w in members):
                raise GenerationError(f"{name} weights are all zero")

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


def generate_premise(
    vocab: SymbolTable, rng: random.Random, used: Iterable[str] = ()
) -> Equation:
    """Fresh premise: an unused function name applied to 1-3 unused variables,
    equal to an elementary-function or rational body over those variables."""
    used_set = set(used)
    fn_names = [n for n in vocab.names("function-name") if n not in used_set]
    var_names = [n for n in vocab.names("variable") if n not in used_set]
    if not fn_names or len(var_names) < 1:
        raise VocabularyExhausted("not enough unused symbols for a premise")
    k = rng.choices((1, 2, 3), weights=(35, 40, 25))[0]
    k = min(k, len(var_names))
    name = fn_names[rng.randrange(len(fn_names))]
    args = [Symbol(v) for v in rng.sample(var_names, k)]
    if k == 1:
        body = _ONE_ARG_BODIES[rng.randrange(len(_ONE_ARG_BODIES))](args[0])
    elif k == 2:
        body = _TWO_ARG_BODIES[rng.randrange(len(_TWO_ARG_BODIES))](args[0], args[1])
    else:
        body = _THREE_ARG_BODIES[rng.randrange(len(_THREE_ARG_BODIES))](*args)
    return Equation(applied(name, args), body)


# ---------------------------------------------------------------------------
# single-step sampling

_ARITH_OPS = (ops.ADD, ops.SUB, ops.MUL, ops.DIV, ops.POW)
_EXT1_OPS = (ops.NEGATE, ops.SWAP, ops.EXP_BOTH, ops.LOG_BOTH)

NEW_PREMISE = "new_premise"


@dataclass(frozen=True)
class Applicability:
    n_steps: int
    has_derivative: bool
    has_integral: bool
    has_derived: bool = False


def sample_action(flags: Applicability, cfg: GenConfig, rng: random.Random) -> Optional[str]:
    """Draw the next action (an op id or NEW_PREMISE) through the arity gate
    hierarchy. Returns None when the drawn group has no applicable member."""
    arity = rng.choices((0, 1, 2), weights=(cfg.p_arity_0, cfg.p_arity_1, cfg.p_arity_2))[0]
    if arity == 0:
        return NEW_PREMISE
    if flags.n_steps < 1:
        return None
    if arity == 1:
        group = rng.choices(
            ("evaluate", "int_or_diff", "renaming", "arith", "ext"),
            weights=(cfg.p_evaluate, cfg.p_int_or_diff, cfg.p_renaming + cfg.p_define,
                     cfg.p_arith, cfg.p_extension),
        )[0]
        if group == "evaluate":
            candidates = []
            if flags.has_derivative:
                candidates.append(ops.EVAL_DIFF)
            if flags.has_integral:
                candidates.append(ops.EVAL_INT)
            if not candidates:
                return None
            return candidates[rng.randrange(len(candidates))]
        if group == "int_or_diff":
            return rng.choices((ops.DIFF, ops.INT), weights=(cfg.p_diff_vs_int, 1.0))[0]
        if group == "renaming":
            if not flags.has_derived:
                return None
            return rng.choices(
                (ops.RENAME, ops.DEFINE), weights=(cfg.p_renaming, cfg.p_define)
            )[0]
        if group == "arith":
            return _ARITH_OPS[rng.randrange(len(_ARITH_OPS))]
        return _EXT1_OPS[rng.randrange(len(_EXT1_OPS))]
    if flags.n_steps < 2:
        return None
    group = rng.choices(("subs", "add_eq"), weights=(cfg.p_subs, cfg.p_add_eq))[0]
    if group == "subs":
        return (ops.SUB_LHS, ops.SUB_RHS)[rng.randrange(2)]
    return ops.ADD_EQ


def _recency_pick(indices: list[int], n_total: int, cfg: GenConfig, rng: random.Random) -> int:
    weights = ops.step_weights(n_total, cfg.p_history)
    ws = [weights[i] for i in indices]
    return rng.choices(indices, weights=ws)[0]


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
        # ancestors[i]: step i and every step it descends from
        self.ancestors: list[set[int]] = []
        # (op, parents) -> the step ops.apply made, or None if it failed
        self.applied: dict[tuple[str, tuple[int, ...]], Optional[Step]] = {}

    def note(self, step: Step) -> None:
        index = len(self.steps)
        self.steps.append(step)
        self.seen_equations.add(step.equation)
        self.used_names.update(equation_free_symbols(step.equation))
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
        nodes = ops.subexpression_pool(step.equation)
        for node in nodes:
            self.containing.setdefault(node, []).append(index)
        if any(type(n) is Derivative for n in nodes):
            self.derivative_indices.append(index)
        if any(type(n) is Integral for n in nodes):
            self.integral_indices.append(index)
        if step.role != ROLE_PREMISE:
            self.derived_indices.append(index)

    def constant_pool(self) -> list[str]:
        pool = [
            n
            for n in self.vocab.names("constant") + self.vocab.names("variable")
            if n not in self.used_names
        ]
        self.rng.shuffle(pool)
        return pool

    def apply_once(self, op: str, parents: tuple[int, ...], **kwargs) -> Optional[Step]:
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
            step = ops.apply(op, self.steps, parents, **kwargs)
        except ops.OpError:
            step = None
        if step is None or op != ops.EVAL_INT:
            self.applied[key] = step
        return step

    def fresh_function_name(self) -> Optional[str]:
        names = [n for n in self.vocab.names("function-name") if n not in self.used_names]
        if not names:
            return None
        return names[self.rng.randrange(len(names))]


def _substitution_draw(state: _GenState, op: str) -> Optional[Step]:
    """Walk definition candidates in recency-sampled order and pick a
    recency-weighted target whose matching side contains one of the
    definition's sides (the "relevant equation elements" pre-search of the
    step procedure)."""
    cfg, rng, steps = state.cfg, state.rng, state.steps
    n = len(steps)
    weights = ops.step_weights(n, cfg.p_history)
    def_order = _weighted_order(list(range(n)), weights, rng)
    for definition in def_order:
        def_eq = steps[definition].equation
        pattern = def_eq.lhs if op == ops.SUB_LHS else def_eq.rhs
        targets = [j for j in state.containing.get(pattern, ()) if j != definition]
        if not targets:
            continue
        target = _recency_pick(targets, n, cfg, rng)
        candidate = apply_action(state, op, (definition, target))
        if candidate is not None:
            return candidate
    return None


def _weighted_order(indices: list[int], weights, rng: random.Random) -> list[int]:
    """Weighted order without replacement (exponential-sort sampling)."""
    keyed = sorted(
        ((rng.random() ** (1.0 / weights[i]), i) for i in indices), reverse=True
    )
    return [i for _, i in keyed]


def apply_action(
    state: _GenState,
    action: str,
    parents: tuple[int, ...],
    fresh_name: Optional[str] = None,
) -> Optional[Step]:
    """Execute an action (an op id or NEW_PREMISE) on picked parents, drawing
    what the op needs: a premise, an operand, a variable or the shuffled
    constant pool. A rename takes its fresh name, drawn before its parent.
    None when the op does not apply."""
    rng, steps = state.rng, state.steps
    try:
        if action == NEW_PREMISE:
            eq = generate_premise(state.vocab, rng, state.used_names)
            return Step(eq, None, role=ROLE_PREMISE)
        if action in (ops.SUB_LHS, ops.SUB_RHS, ops.EVAL_DIFF):
            return state.apply_once(action, parents)
        if action == ops.EVAL_INT:
            # the pool is shuffled (drawing from rng) even on a memo hit
            return state.apply_once(action, parents, constant_pool=state.constant_pool())
        eq = steps[parents[0]].equation
        if action in ops.RENAME_FAMILY:
            if action == ops.RENAME:
                operand = eq.lhs if rng.random() < 0.5 else eq.rhs
            else:
                pool = ops.subexpression_pool(eq)
                operand = pool[rng.randrange(len(pool))]
            return ops.apply(action, steps, parents, operand, fresh_name=fresh_name)
        if action in (ops.DIFF, ops.INT):
            var = ops.sample_variable(eq, rng)
            return None if var is None else ops.apply(action, steps, parents, var)
        if action in _ARITH_OPS:
            operand = ops.sample_operand(steps, rng, state.cfg.p_history)
            return ops.apply(action, steps, parents, operand)
        return ops.apply(action, steps, parents)
    except (ops.OpError, VocabularyExhausted):
        return None


def try_step(state: _GenState) -> Optional[Step]:
    """One stochastic step draw; None counts as a failed attempt."""
    cfg, rng, n = state.cfg, state.rng, len(state.steps)
    flags = Applicability(
        n,
        bool(state.derivative_indices),
        bool(state.integral_indices),
        bool(state.derived_indices),
    )
    action = sample_action(flags, cfg, rng)
    if action is None:
        return None
    if action in (ops.SUB_LHS, ops.SUB_RHS):
        candidate = _substitution_draw(state, action)
    else:
        parents: tuple[int, ...] = ()
        name = None
        if action in ops.RENAME_FAMILY:
            name = state.fresh_function_name()
            if name is None:
                return None
            parents = (_recency_pick(state.derived_indices, n, cfg, rng),)
        elif action == ops.ADD_EQ:
            first = _recency_pick(list(range(n)), n, cfg, rng)
            second = _recency_pick([i for i in range(n) if i != first], n, cfg, rng)
            parents = (first, second)
        elif action in ops.EVAL_FAMILY:
            if action == ops.EVAL_DIFF:
                indices, done = state.derivative_indices, state.eval_diff_parents
            else:
                indices, done = state.integral_indices, state.eval_int_parents
            indices = [i for i in indices if (i,) not in done]
            if not indices:
                return None
            parents = (_recency_pick(indices, n, cfg, rng),)
        elif action != NEW_PREMISE:
            parents = (_recency_pick(list(range(n)), n, cfg, rng),)
        candidate = apply_action(state, action, parents, name)
    if candidate is None:
        return None

    eq = candidate.equation
    if eq.lhs == eq.rhs:
        return None
    if eq in state.seen_equations:
        return None
    # runtime guard: reject runaway trees early; the strict 350-char filter
    # is still applied per record downstream
    if len(equation_to_latex(eq)) > 2 * cfg.max_latex_chars:
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
        out.append(replace(s, parents=tuple(remap[p] for p in s.parents), role=role))
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


def passes_token_filter(prompt: str, target: str, cfg: GenConfig) -> bool:
    return count_lexemes(prompt + " " + target) <= cfg.max_prompt_tokens


def generate_dataset(cfg: GenConfig, n: int) -> tuple[list[DerivationRecord], GenerationSummary]:
    """Generate n records passing both dataset filters. Records carry the
    per-attempt stream seed, so output is deterministic regardless of how
    attempts are scheduled."""
    from .prompts import build_prompt

    if n < 1:
        raise GenerationError("record count must be >= 1")
    vocab = cfg.load_vocabulary()
    summary = GenerationSummary(requested=n)
    records: list[DerivationRecord] = []
    max_attempts = cfg.attempt_factor * n
    attempt = 0
    while len(records) < n and attempt < max_attempts:
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
        record = DerivationRecord(f"d{attempt - 1:06d}", stream_seed, derivation)
        prompt = build_prompt(derivation, record.id)
        if not passes_token_filter(prompt.prompt, prompt.target, cfg):
            summary.token_filtered += 1
            continue
        records.append(record)
        summary.produced += 1
    return records, summary
