"""Derivation operations: the 18-op registry, annotated steps, and replay.

A derivation step records the operation id, the indices of the parent
equations it consumed, and the sampled operand (if any), which together make
every step mechanically re-executable. ``replay`` re-runs each step, renames
included, through ``apply`` and reports each one that fails. Premises have no
parents; every other step links backwards, and a coherent derivation keeps
only ancestors of its final equation (see ``ancestors``).
"""
from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

from . import calculus
from .expr import (
    AppliedFunction,
    ExprError,
    Equation,
    Expr,
    Symbol,
    add,
    applied,
    derivative,
    distinct_subtrees,
    div,
    equation_free_symbols,
    func,
    integral,
    is_zero,
    mul,
    neg,
    pow_,
    sub,
    substitute,
    symbol_nodes,
)


class OpError(Exception):
    pass


# Operation identifiers. REGISTRY lists the twelve core ops first; the rest
# are extension ops, drawn by GenConfig's p_extension (negate, swap, exp,
# log), p_add_eq and p_define.
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


@dataclass(frozen=True)
class OpInfo:
    op: str
    arity: int              # parent equations consumed
    needs_operand: bool
    glyph: str              # its label in an operation chain (stats)
    # an op that runs one function on both sides: side(expr, operand); the
    # operand is None for the ops that take none
    side: Optional[Callable[[Expr, Optional[Expr]], Expr]] = None


REGISTRY: dict[str, OpInfo] = {
    info.op: info
    for info in (
        OpInfo(ADD, 1, True, "+", add),
        OpInfo(SUB, 1, True, "-", sub),
        OpInfo(MUL, 1, True, "*", mul),
        OpInfo(DIV, 1, True, "/", div),
        OpInfo(POW, 1, True, "X^O", pow_),
        OpInfo(DIFF, 1, True, "d", derivative),     # operand: the differentiation variable
        OpInfo(INT, 1, True, "int", integral),      # operand: the integration variable
        OpInfo(EVAL_DIFF, 1, False, "d_E"),
        OpInfo(EVAL_INT, 1, False, "int_E"),        # constants recorded on the step
        OpInfo(SUB_LHS, 2, False, "S_L"),           # parents: (definition, target)
        OpInfo(SUB_RHS, 2, False, "S_R"),
        OpInfo(RENAME, 1, True, "R"),               # operand: a side of the parent equation
        OpInfo(NEGATE, 1, False, "neg", lambda e, _: neg(e)),
        OpInfo(SWAP, 1, False, "swap"),
        OpInfo(EXP_BOTH, 1, False, "exp", lambda e, _: func("exp", e)),
        OpInfo(LOG_BOTH, 1, False, "log", lambda e, _: func("log", e)),
        OpInfo(ADD_EQ, 2, False, "+eq"),
        OpInfo(DEFINE, 1, True, "def"),
    )
}

RENAME_FAMILY = (RENAME, DEFINE)
EVAL_FAMILY = (EVAL_DIFF, EVAL_INT)

ROLE_PREMISE = "premise"
ROLE_INTERMEDIATE = "intermediate"
ROLE_ORDINARY = "ordinary"
ROLE_GOAL = "goal"
ROLES = (ROLE_PREMISE, ROLE_ORDINARY, ROLE_INTERMEDIATE, ROLE_GOAL)


class Step(NamedTuple):
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
    replayed: frozenset[int] = field(default=frozenset(), compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.steps)

    def equations(self) -> tuple[Equation, ...]:
        return tuple(s.equation for s in self.steps)

    def intermediates(self) -> tuple[int, ...]:
        return tuple(
            i
            for i, s in enumerate(self.steps)
            if s.op in EVAL_FAMILY and i < len(self.steps) - 1
        )


class ValidityReport(NamedTuple):
    valid: bool
    failures: tuple[tuple[int, str], ...] = ()


def apply(
    op: str,
    steps: Sequence[Step],
    parents: tuple[int, ...],
    operand: Optional[Expr] = None,
    fresh: Sequence[str] = (),
) -> Step:
    """Execute one operation and return the resulting step.

    Deterministic given its inputs. `fresh` lists, in order, the names the
    op may introduce: a rename-family op names its function after the first,
    and eval_int takes one per evaluated integral. The caller keeps them
    fresh; apply does not check them against the steps.
    """
    info = REGISTRY.get(op)
    if info is None:
        raise OpError(f"unknown op {op!r}")
    if len(parents) != info.arity:
        raise OpError(f"{op} expects {info.arity} parents, got {len(parents)}")
    if info.needs_operand and operand is None:
        raise OpError(f"{op} requires an operand")
    if operand is not None and not info.needs_operand and op not in (SUB_LHS, SUB_RHS):
        raise OpError(f"{op} does not take an operand")
    for p in parents:
        if not 0 <= p < len(steps):
            raise OpError(f"parent index {p} out of range")
    eqs = [steps[p].equation for p in parents]
    try:
        side = info.side
        if side is not None:
            if op == DIV and is_zero(operand):
                raise OpError("division by syntactic zero")
            if op in (DIFF, INT) and not isinstance(operand, Symbol):
                raise OpError(f"{op} operand must be a variable symbol")
            lhs, rhs = eqs[0].lhs, eqs[0].rhs
            return Step(Equation(side(lhs, operand), side(rhs, operand)), op, parents, operand)

        if op == EVAL_DIFF:
            return Step(calculus.evaluate_derivatives(eqs[0]), op, parents)

        if op == EVAL_INT:
            out = calculus.evaluate_integrals(eqs[0], fresh)
            if out is None:
                raise OpError("integrand outside the integral table")
            return Step(out[0], op, parents, constants=out[1])

        if op in (SUB_LHS, SUB_RHS):
            # S_L replaces the definition's LHS by its RHS throughout the target
            # (both sides); S_R substitutes the definition's RHS by its LHS.
            if parents[0] == parents[1]:
                raise OpError("substitution needs two distinct parents")
            definition, target = eqs
            pattern = definition.lhs if op == SUB_LHS else definition.rhs
            replacement = definition.rhs if op == SUB_LHS else definition.lhs
            if operand is not None and operand != pattern:
                raise OpError("recorded operand is not the substituted definition side")
            new_lhs = substitute(target.lhs, pattern, replacement)
            new_rhs = substitute(target.rhs, pattern, replacement)
            if new_lhs == target.lhs and new_rhs == target.rhs:
                raise OpError("definition side does not occur in the target")
            return Step(Equation(new_lhs, new_rhs), op, parents, pattern)

        if op in RENAME_FAMILY:
            if not fresh:
                raise OpError(f"{op} requires a fresh function name")
            source = eqs[0]
            if operand not in distinct_subtrees(source.lhs, source.rhs):
                raise OpError("named expression must occur in its source equation")
            # the named expression's distinct symbols, in first-occurrence
            # order (derivative/integral variables first)
            args = symbol_nodes(operand)
            if not args:
                raise OpError("cannot name an expression with no variables")
            eq = Equation(applied(fresh[0], args), operand)
            return Step(eq, op, parents, operand)

        if op == SWAP:
            return Step(eqs[0].swapped(), op, parents)
        if op == ADD_EQ:
            a, b = eqs
            if parents[0] == parents[1]:
                raise OpError("add_eq needs two distinct parents")
            return Step(Equation(add(a.lhs, b.lhs), add(a.rhs, b.rhs)), op, parents)
    except (ExprError, calculus.CalculusError) as exc:
        raise OpError(str(exc)) from exc
    raise OpError(f"unhandled op {op!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# draw primitives

def weighted_pick(population: Sequence, cum: Sequence[float], rng):
    """The pick random.choices(population, cum_weights=cum) makes, from the same
    one rng.random() call; cum must end in a positive finite total."""
    return population[bisect(cum, rng.random() * (cum[-1] + 0.0), 0, len(cum) - 1)]


@lru_cache(maxsize=4096)
def step_weights(n: int, p_history: float) -> tuple[float, ...]:
    """Recency weights over steps 0..n-1: step at distance k from the end
    weighs p_history^(-k/n); normalized by the caller."""
    return tuple(p_history ** (-(n - 1 - i) / n) for i in range(n))


def shuffle(x: list, rng) -> None:
    """rng.shuffle(x) with random.shuffle's rejection draws made inline: the
    same getrandbits calls, so the same order and the same end state."""
    getrandbits = rng.getrandbits
    for n in range(len(x), 1, -1):  # swap x[n - 1] with x[j], j drawn below n
        k = n.bit_length()
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        x[n - 1], x[j] = x[j], x[n - 1]


# ---------------------------------------------------------------------------
# replay

def replay(derivation: Derivation) -> ValidityReport:
    """Re-execute every step from its annotation; report mismatches. A step in
    derivation.replayed, which its loader rebuilt with apply, is not applied again.

    The names a step introduces (a rename-family step's function, an
    eval_int step's recorded constants) must be fresh: in no earlier
    equation and not repeated within the step. The step then replays with
    them and must draw exactly its recorded constants. Replay checks step
    reproduction only; DAG coherence and duplicate freedom are separate
    derivation invariants (see dag_coherent and duplicate_free).
    """
    failures: list[tuple[int, str]] = []
    steps = derivation.steps
    seen: set[str] = set()  # the names of the equations before step i
    for i, step in enumerate(steps):
        if i:
            seen.update(equation_free_symbols(steps[i - 1].equation))
        if step.op is None:
            if step.parents:
                failures.append((i, "premise with parents"))
            if step.role != ROLE_PREMISE:
                failures.append((i, "unannotated step without premise role"))
            continue
        kind, fresh = "renamed function", ()
        if step.op == EVAL_INT:
            kind, fresh = "integration constant", tuple(c.name for c in step.constants)
        elif step.op in RENAME_FAMILY and isinstance(step.equation.lhs, AppliedFunction):
            fresh = (step.equation.lhs.name,)
        clash = next((n for k, n in enumerate(fresh) if n in seen or n in fresh[:k]), None)
        if clash is not None:
            failures.append((i, f"{kind} {clash!r} is not fresh"))
            continue
        if i in derivation.replayed:
            continue
        try:
            redone = apply(step.op, steps[:i], step.parents, step.operand, fresh)
        except OpError as exc:
            failures.append((i, f"replay error: {exc}"))
            continue
        if redone.constants != step.constants:
            failures.append((i, "replay error: recorded integration constants do not replay"))
        elif redone.equation != step.equation:
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
