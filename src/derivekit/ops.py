"""Derivation operations: the 18-op registry, annotated steps, and replay.

A derivation step records the operation id, the indices of the parent
equations it consumed, and the sampled operand (if any), which together make
every step mechanically re-executable. ``replay`` re-runs each step, renames
included, through ``apply`` and reports each one that fails. Premises have no
parents; every other step links backwards, and a coherent derivation keeps
only ancestors of its final equation (see ``ancestors``).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import calculus
from .expr import (
    AppliedFunction,
    ExprError,
    contains,
    Equation,
    Expr,
    Integer,
    Symbol,
    add,
    applied,
    derivative,
    div,
    equation_free_symbols,
    func,
    integral,
    is_zero,
    mul,
    neg,
    pow_,
    substitute,
    symbol_nodes,
)

MINUS_ONE = Integer(-1)


class OpError(Exception):
    pass


class ArityMismatch(OpError):
    pass


class InapplicableOp(OpError):
    pass


# Operation identifiers. The first twelve form the core set; the rest
# are documented extension ops behind registry flags.
ADD = "add"
SUB = "sub"
MUL = "mul"
DIV = "div"
POW = "pow"
DIFF = "diff"
INT = "int"
EVAL_DIFF = "eval_diff"
EVAL_INT = "eval_int"
SUB_LHS = "sub_lhs"
SUB_RHS = "sub_rhs"
RENAME = "rename"
NEGATE = "negate"
SWAP = "swap"
EXP_BOTH = "exp"
LOG_BOTH = "log"
ADD_EQ = "add_eq"
DEFINE = "define"

PREMISE = "premise"  # pseudo-op tag for introduced premises

CHAIN_GLYPHS = {
    ADD: "+", SUB: "-", MUL: "*", DIV: "/", POW: "X^O",
    DIFF: "d", INT: "int", EVAL_DIFF: "d_E", EVAL_INT: "int_E",
    SUB_LHS: "S_L", SUB_RHS: "S_R", RENAME: "R",
    NEGATE: "neg", SWAP: "swap", EXP_BOTH: "exp", LOG_BOTH: "log",
    ADD_EQ: "+eq", DEFINE: "def",
}


@dataclass(frozen=True)
class OpInfo:
    op: str
    arity: int              # parent equations consumed
    needs_operand: bool
    extension: bool = False


REGISTRY: dict[str, OpInfo] = {
    info.op: info
    for info in (
        OpInfo(ADD, 1, True),
        OpInfo(SUB, 1, True),
        OpInfo(MUL, 1, True),
        OpInfo(DIV, 1, True),
        OpInfo(POW, 1, True),
        OpInfo(DIFF, 1, True),          # operand: the differentiation variable
        OpInfo(INT, 1, True),           # operand: the integration variable
        OpInfo(EVAL_DIFF, 1, False),
        OpInfo(EVAL_INT, 1, False),     # constants recorded on the step
        OpInfo(SUB_LHS, 2, False),      # parents: (definition, target)
        OpInfo(SUB_RHS, 2, False),
        OpInfo(RENAME, 1, True),        # operand: a side of the parent equation
        OpInfo(NEGATE, 1, False, extension=True),
        OpInfo(SWAP, 1, False, extension=True),
        OpInfo(EXP_BOTH, 1, False, extension=True),
        OpInfo(LOG_BOTH, 1, False, extension=True),
        OpInfo(ADD_EQ, 2, False, extension=True),
        OpInfo(DEFINE, 1, True, extension=True),
    )
}

RENAME_FAMILY = (RENAME, DEFINE)
EVAL_FAMILY = (EVAL_DIFF, EVAL_INT)

ROLE_PREMISE = "premise"
ROLE_INTERMEDIATE = "intermediate"
ROLE_ORDINARY = "ordinary"
ROLE_GOAL = "goal"


@dataclass(frozen=True)
class Step:
    equation: Equation
    op: Optional[str]                       # None for introduced premises
    parents: tuple[int, ...] = ()
    operand: Optional[Expr] = None
    role: str = ROLE_ORDINARY
    constants: tuple[Symbol, ...] = ()      # eval_int integration constants

    def op_tag(self) -> str:
        return self.op if self.op is not None else PREMISE


@dataclass(frozen=True)
class Derivation:
    steps: tuple[Step, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def equations(self) -> tuple[Equation, ...]:
        return tuple(s.equation for s in self.steps)

    def goal(self) -> Step:
        return self.steps[-1]

    def premises(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.steps) if s.role == ROLE_PREMISE)

    def intermediates(self) -> tuple[int, ...]:
        return tuple(
            i
            for i, s in enumerate(self.steps)
            if s.op in EVAL_FAMILY and i < len(self.steps) - 1
        )


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    failures: tuple[tuple[int, str], ...] = ()


def apply(
    op: str,
    derivation: Sequence[Step] | Derivation,
    parents: tuple[int, ...],
    operand: Optional[Expr] = None,
    fresh_name: Optional[str] = None,
    constants: Optional[Sequence[Symbol]] = None,
    constant_pool: Iterable[str] = (),
) -> Step:
    """Execute one operation and return the resulting step.

    Deterministic given its inputs: rename-family ops take the fresh name
    explicitly and eval_int either reuses the given constants (replay) or
    draws them in order from constant_pool (generation).
    """
    steps = derivation.steps if isinstance(derivation, Derivation) else tuple(derivation)
    info = REGISTRY.get(op)
    if info is None:
        raise OpError(f"unknown op {op!r}")
    if len(parents) != info.arity:
        raise ArityMismatch(f"{op} expects {info.arity} parents, got {len(parents)}")
    if info.needs_operand and operand is None:
        raise ArityMismatch(f"{op} requires an operand")
    if operand is not None and not info.needs_operand and op not in (SUB_LHS, SUB_RHS):
        raise ArityMismatch(f"{op} does not take an operand")
    for p in parents:
        if not 0 <= p < len(steps):
            raise OpError(f"parent index {p} out of range")
    eqs = [steps[p].equation for p in parents]

    try:
        return _apply_dispatch(op, steps, parents, eqs, operand, fresh_name, constants,
                               constant_pool)
    except ExprError as exc:
        raise InapplicableOp(str(exc)) from exc


def _apply_dispatch(
    op: str,
    steps: tuple[Step, ...],
    parents: tuple[int, ...],
    eqs: list[Equation],
    operand: Optional[Expr],
    fresh_name: Optional[str],
    constants: Optional[Sequence[Symbol]],
    constant_pool: Iterable[str],
) -> Step:

    if op in (ADD, SUB, MUL, DIV, POW):
        lhs, rhs = eqs[0].lhs, eqs[0].rhs
        assert operand is not None
        if op == ADD:
            return Step(Equation(add(lhs, operand), add(rhs, operand)), op, parents, operand)
        if op == SUB:
            return Step(
                Equation(add(lhs, neg(operand)), add(rhs, neg(operand))), op, parents, operand
            )
        if op == MUL:
            return Step(Equation(mul(lhs, operand), mul(rhs, operand)), op, parents, operand)
        if op == DIV:
            if is_zero(operand):
                raise InapplicableOp("division by syntactic zero")
            return Step(Equation(div(lhs, operand), div(rhs, operand)), op, parents, operand)
        return Step(Equation(pow_(lhs, operand), pow_(rhs, operand)), op, parents, operand)

    if op in (DIFF, INT):
        assert operand is not None
        if not isinstance(operand, Symbol):
            raise InapplicableOp(f"{op} operand must be a variable symbol")
        lhs, rhs = eqs[0].lhs, eqs[0].rhs
        if op == DIFF:
            eq = Equation(derivative(lhs, operand), derivative(rhs, operand))
        else:
            eq = Equation(integral(lhs, operand), integral(rhs, operand))
        return Step(eq, op, parents, operand)

    if op == EVAL_DIFF:
        try:
            eq = calculus.evaluate_derivatives(eqs[0])
        except calculus.NoDerivativePresent as exc:
            raise InapplicableOp(str(exc)) from exc
        return Step(eq, op, parents)

    if op == EVAL_INT:
        used = set()
        for s in steps:
            used.update(equation_free_symbols(s.equation))
        if constants is not None:
            pool: Iterable[str] = [c.name for c in constants]
            used -= {c.name for c in constants}
        else:
            pool = constant_pool
        try:
            out = calculus.evaluate_integrals(eqs[0], used, pool)
        except calculus.NoIntegralPresent as exc:
            raise InapplicableOp(str(exc)) from exc
        except calculus.CalculusError as exc:
            raise OpError(str(exc)) from exc
        if out is None:
            raise InapplicableOp("integrand outside the integral table")
        eq, drawn = out
        if constants is not None and tuple(drawn) != tuple(constants):
            raise OpError("recorded integration constants do not replay")
        return Step(eq, op, parents, constants=tuple(drawn))

    if op in (SUB_LHS, SUB_RHS):
        # S_L replaces the definition's LHS by its RHS throughout the target
        # (both sides); S_R substitutes the definition's RHS by its LHS.
        if parents[0] == parents[1]:
            raise InapplicableOp("substitution needs two distinct parents")
        definition, target = eqs
        pattern = definition.lhs if op == SUB_LHS else definition.rhs
        replacement = definition.rhs if op == SUB_LHS else definition.lhs
        if operand is not None and operand != pattern:
            raise OpError("recorded operand is not the substituted definition side")
        new_lhs = substitute(target.lhs, pattern, replacement)
        new_rhs = substitute(target.rhs, pattern, replacement)
        if new_lhs == target.lhs and new_rhs == target.rhs:
            raise InapplicableOp("definition side does not occur in the target")
        return Step(Equation(new_lhs, new_rhs), op, parents, pattern)

    if op in RENAME_FAMILY:
        assert operand is not None
        if fresh_name is None:
            raise OpError(f"{op} requires a fresh function name")
        source = eqs[0]
        if not (contains(source.lhs, operand) or contains(source.rhs, operand)):
            raise InapplicableOp("named expression must occur in its source equation")
        # the named expression's distinct symbols, in first-occurrence
        # order (derivative/integral variables first)
        args = symbol_nodes(operand)
        if not args:
            raise InapplicableOp("cannot name an expression with no variables")
        eq = Equation(applied(fresh_name, args), operand)
        return Step(eq, op, parents, operand)

    if op == NEGATE:
        lhs, rhs = eqs[0].lhs, eqs[0].rhs
        return Step(Equation(neg(lhs), neg(rhs)), op, parents)
    if op == SWAP:
        return Step(eqs[0].swapped(), op, parents)
    if op == EXP_BOTH:
        lhs, rhs = eqs[0].lhs, eqs[0].rhs
        return Step(Equation(func("exp", lhs), func("exp", rhs)), op, parents)
    if op == LOG_BOTH:
        lhs, rhs = eqs[0].lhs, eqs[0].rhs
        return Step(Equation(func("log", lhs), func("log", rhs)), op, parents)
    if op == ADD_EQ:
        a, b = eqs
        if parents[0] == parents[1]:
            raise InapplicableOp("add_eq needs two distinct parents")
        return Step(Equation(add(a.lhs, b.lhs), add(a.rhs, b.rhs)), op, parents)

    raise OpError(f"unhandled op {op!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# operand sampling

from functools import lru_cache


@lru_cache(maxsize=4096)
def step_weights(n: int, p_history: float) -> tuple[float, ...]:
    """Recency weights over steps 0..n-1: step at distance k from the end
    weighs p_history^(-k/n); normalized by the caller."""
    return tuple(p_history ** (-(n - 1 - i) / n) for i in range(n))


def subexpression_pool(eq: Equation) -> tuple[Expr, ...]:
    """Deduplicated subtrees of both sides, in deterministic order."""
    seen: dict[Expr, None] = {}
    for side in (eq.lhs, eq.rhs):
        for node in side.subtrees():
            if node not in seen:
                seen[node] = None
    return tuple(seen)


def sample_operand(derivation: Derivation | Sequence[Step], rng, p_history: float) -> Expr:
    """Draw a symbol or sub-expression from the chain with recency bias."""
    steps = derivation.steps if isinstance(derivation, Derivation) else tuple(derivation)
    if not steps:
        raise OpError("cannot sample an operand from an empty derivation")
    weights = step_weights(len(steps), p_history)
    (idx,) = rng.choices(range(len(steps)), weights=weights)
    pool = subexpression_pool(steps[idx].equation)
    return pool[rng.randrange(len(pool))]


def sample_variable(eq: Equation, rng) -> Optional[Symbol]:
    names = sorted(set(symbol_nodes(eq.lhs) + symbol_nodes(eq.rhs)), key=lambda s: s.name)
    if not names:
        return None
    return names[rng.randrange(len(names))]


# ---------------------------------------------------------------------------
# replay

def replay(derivation: Derivation) -> ValidityReport:
    """Re-execute every step from its annotation; report mismatches.

    A rename-family step replays with the function name its lhs records,
    which must not occur in any earlier equation. Replay checks step
    reproduction only; DAG coherence and duplicate freedom are separate
    derivation invariants (see dag_coherent and duplicate_free).
    """
    failures: list[tuple[int, str]] = []
    steps = derivation.steps
    for i, step in enumerate(steps):
        if any(p >= i for p in step.parents):
            failures.append((i, "parent does not precede step"))
            continue
        if step.op is None:
            if step.parents:
                failures.append((i, "premise with parents"))
            if step.role != ROLE_PREMISE:
                failures.append((i, "unannotated step without premise role"))
            continue
        name = None
        if step.op in RENAME_FAMILY and isinstance(step.equation.lhs, AppliedFunction):
            name = step.equation.lhs.name
            if any(name in equation_free_symbols(prior.equation) for prior in steps[:i]):
                failures.append((i, f"renamed function {name!r} is not fresh"))
                continue
        try:
            redone = apply(
                step.op,
                steps[:i],
                step.parents,
                step.operand,
                fresh_name=name,
                constants=step.constants if step.op == EVAL_INT else None,
            )
        except OpError as exc:
            failures.append((i, f"replay error: {exc}"))
            continue
        if redone.equation != step.equation:
            failures.append((i, "replayed equation differs from record"))
    return ValidityReport(not failures, tuple(failures))


def ancestors(steps: Sequence[Step]) -> set[int]:
    """Indices of the final step and of every step it descends from. A parent
    index that does not precede its step is not followed (replay reports it)."""
    if not steps:
        return set()
    keep = {len(steps) - 1}
    frontier = [len(steps) - 1]
    while frontier:
        j = frontier.pop()
        for p in steps[j].parents:
            if 0 <= p < j and p not in keep:
                keep.add(p)
                frontier.append(p)
    return keep


def dag_coherent(derivation: Derivation) -> bool:
    """Every non-final step has a parent path leading to the final step."""
    return len(ancestors(derivation.steps)) == len(derivation.steps)


def duplicate_free(derivation: Derivation) -> bool:
    """No repeated equations and no repeated integral evaluation."""
    eqs = derivation.equations()
    if len(set(eqs)) != len(eqs):
        return False
    eval_parents = [s.parents for s in derivation.steps if s.op == EVAL_INT]
    return len(set(eval_parents)) == len(eval_parents)
