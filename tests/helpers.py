"""Shared test support: the prompt-example derivation, ground-truth
derivation transcripts, replay-by-search annotation, a complex-valued
expression evaluator for the complex-step derivative oracle, a
character-by-character LaTeX tokenizer that the parser's scanner is checked
against, and the op tags that `stats` reads."""
from __future__ import annotations

import cmath
import re
from itertools import permutations

from derivekit import ops
from derivekit.expr import (
    Add,
    AppliedFunction,
    Equation,
    EvalError,
    Expr,
    Func,
    Integer,
    Mul,
    Pow,
    Rational,
    Symbol,
    add,
    applied,
    derivative,
    div,
    equation_free_symbols,
    func,
    neg,
    sub,
)
from derivekit.genalg import extract_derivation
from derivekit.latex import _PUNCT, LatexParseError, parse_equation
from derivekit.ops import Derivation, ROLE_PREMISE, Step


def prompt_example_derivation() -> Derivation:
    """The derivation behind the reference fine-tuning prompt example:
    Given q(a) = e^a and G(a) = -e^a + d/da q(a),
    then derive -e^a + d/da q(a) = 0, then obtain e^{G(a)} = 1."""
    a = Symbol("a")
    qa = applied("q", [a])
    ea = func("exp", a)
    steps = [Step(Equation(qa, ea), None, role=ROLE_PREMISE)]
    steps.append(ops.apply(ops.DIFF, steps, (0,), a))
    steps.append(ops.apply(ops.SUB, steps, (1,), ea))
    steps.append(ops.apply(ops.EVAL_DIFF, steps, (2,)))
    steps.append(
        ops.apply(
            ops.DEFINE, steps, (3,),
            operand=add(neg(ea), derivative(qa, a)), fresh_name="G",
        )
    )
    steps.append(ops.apply(ops.SUB_RHS, steps, (4, 3)))
    steps.append(ops.apply(ops.EXP_BOTH, steps, (5,)))
    return extract_derivation(steps)


# ---------------------------------------------------------------------------
# replay-by-search: annotate a bare list of parsed equations with operations

_SMALL_INT_OPERANDS = [Integer(2), Integer(3), Integer(-1)]


def _candidate_steps(prefix: list[Step], equation: Equation):
    """Yield candidate steps whose replay might reproduce `equation`."""
    n = len(prefix)
    for j in range(n):
        yield Step(equation, ops.EVAL_DIFF, (j,))
        yield Step(equation, ops.SWAP, (j,))
        yield Step(equation, ops.NEGATE, (j,))
        yield Step(equation, ops.EXP_BOTH, (j,))
        yield Step(equation, ops.LOG_BOTH, (j,))
        parent = prefix[j].equation
        # evaluation constants: names fresh relative to the prefix
        seen = set()
        for s in prefix:
            seen.update(equation_free_symbols(s.equation))
        fresh = [
            name
            for name in equation_free_symbols(equation)
            if name not in seen
        ]
        if 1 <= len(fresh) <= 2:
            for perm in permutations(fresh):
                yield Step(
                    equation, ops.EVAL_INT, (j,),
                    constants=tuple(Symbol(f) for f in perm),
                )
        for var in set(equation_free_symbols(parent)) & set(
            equation_free_symbols(equation)
        ):
            yield Step(equation, ops.DIFF, (j,), Symbol(var))
            yield Step(equation, ops.INT, (j,), Symbol(var))
        # arithmetic operands solved from the two lhs sides
        yield Step(equation, ops.ADD, (j,), sub(equation.lhs, parent.lhs))
        yield Step(equation, ops.SUB, (j,), sub(parent.lhs, equation.lhs))
        try:
            yield Step(equation, ops.MUL, (j,), div(equation.lhs, parent.lhs))
            yield Step(equation, ops.DIV, (j,), div(parent.lhs, equation.lhs))
        except Exception:
            pass
        for t in _SMALL_INT_OPERANDS:
            yield Step(equation, ops.POW, (j,), t)
        for k in range(n):
            if k != j:
                yield Step(equation, ops.SUB_LHS, (j, k))
                yield Step(equation, ops.SUB_RHS, (j, k))
                yield Step(equation, ops.ADD_EQ, (j, k))
    # renaming: a fresh function name defined equal to prior content
    lhs = equation.lhs
    if type(lhs).__name__ == "AppliedFunction":
        for j in range(n):
            yield Step(equation, ops.RENAME, (j,), equation.rhs)


def infer_derivation(equations: list[Equation]) -> Derivation:
    """Annotate equations by searching the op registry; equations defining a
    fresh function with no derivable source fall back to premises."""
    steps: list[Step] = [Step(equations[0], None, role=ROLE_PREMISE)]
    for equation in equations[1:]:
        # a rename candidate names its function after the equation's lhs
        name = equation.lhs.name if type(equation.lhs) is AppliedFunction else None
        found = None
        for candidate in _candidate_steps(steps, equation):
            try:
                redone = ops.apply(
                    candidate.op,
                    steps,
                    candidate.parents,
                    candidate.operand,
                    fresh_name=name,
                    constants=candidate.constants if candidate.op == ops.EVAL_INT else None,
                )
            except ops.OpError:
                continue
            if redone.equation == equation:
                found = redone
                break
        if found is None:
            lhs = equation.lhs
            seen = set()
            for s in steps:
                seen.update(equation_free_symbols(s.equation))
            if type(lhs).__name__ == "AppliedFunction" and lhs.name not in seen:
                found = Step(equation, None, role=ROLE_PREMISE)
            else:
                raise AssertionError(f"no operation reproduces {equation!r}")
        steps.append(found)
    return Derivation(tuple(steps))


def parse_derivation(lines: list[str]) -> list[Equation]:
    return [parse_equation(line) for line in lines]


# ---------------------------------------------------------------------------
# complex-valued evaluation


def eval_complex(e: Expr, bindings: dict[str, complex]) -> complex:
    """Evaluate like expr.eval_numeric, but over complex numbers.

    Raises EvalError where eval_numeric does at the real parts (an unbound
    name, a zero base to a negative power, a non-positive base to a
    non-integer power, the log of a non-positive value) and on any overflow,
    which a large imaginary part can cause in sin and cos as well as in exp.
    """
    t = type(e)
    if t is Integer:
        return complex(e.value)
    if t is Rational:
        return complex(e.num / e.den)
    if t is Symbol or t is AppliedFunction:
        if e.name not in bindings:
            raise EvalError(f"unbound name: {e.name}")
        return complex(bindings[e.name])
    if t is Add:
        return sum((eval_complex(x, bindings) for x in e.terms), 0j)
    if t is Mul:
        out = 1 + 0j
        for x in e.factors:
            out *= eval_complex(x, bindings)
        return out
    if t is Pow:
        b = eval_complex(e.base, bindings)
        p = eval_complex(e.exp, bindings)
        if p.imag == 0 and p.real.is_integer():
            p = int(p.real)
        elif b.real <= 0:
            raise EvalError(f"power domain error: {b} ** {p}")
        try:
            return b ** p
        except (OverflowError, ZeroDivisionError) as exc:
            raise EvalError(f"power domain error: {b} ** {p}") from exc
    if t is Func:
        z = eval_complex(e.arg, bindings)
        if e.kind == "log" and z.real <= 0:
            raise EvalError(f"log of non-positive value {z}")
        try:
            return getattr(cmath, e.kind)(z)  # kinds: sin, cos, exp, log
        except OverflowError as exc:
            raise EvalError(f"{e.kind} overflow") from exc
    raise EvalError(f"cannot evaluate {t.__name__} node numerically")


# ---------------------------------------------------------------------------
# reference tokenizer: one character at a time, a regex match per command or
# digit run; returns (kind, text, position) triples ending in EOF

def tokenize(s: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(s)
    while i < n:
        c = s[i]
        if c.isspace():
            i += 1
            continue
        if c == "\\":
            m = re.match(r"\\[A-Za-z]+", s[i:])
            if not m:
                raise LatexParseError("stray backslash", i)
            tokens.append(("CMD", m.group(0), i))
            i += m.end()
            continue
        if "0" <= c <= "9":
            m = re.match(r"[0-9]+", s[i:])
            tokens.append(("DIGITS", m.group(0), i))
            i += m.end()
            continue
        if c in _PUNCT:
            tokens.append((_PUNCT[c], c, i))
            i += 1
            continue
        if c.isalpha():
            tokens.append(("LETTER", c, i))
            i += 1
            continue
        raise LatexParseError(f"unexpected character {c!r}", i)
    tokens.append(("EOF", "", n))
    return tokens


def op_tags(records) -> list[tuple[str, ...]]:
    """Each record's step op tags, the input stats.build_stats takes."""
    return [tuple(s.op_tag() for s in r.derivation) for r in records]
