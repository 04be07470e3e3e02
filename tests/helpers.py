"""Shared test support: the prompt-example derivation, ground-truth
derivation transcripts, replay-by-search annotation, the canonicalization
oracle, a structural equality oracle, real- and complex-valued expression
evaluators (the latter for the complex-step derivative oracle), a
character-by-character LaTeX tokenizer that the parser's scanner is checked
against, the op tags that `stats` reads, readers of command outputs (JSONL
rows, prompt equations, the mode length and top chain of a `stats` report),
the `random.choices` draws, full sort, full subtree walk, uncached
free-symbol walk and pool-walking step note that generation's tables,
pruning and caches replace, the calculus walkers that rebuild every node
where the engine keeps untouched subtrees, the integration table as rule
functions tried in order that the one clause function replaces, the two-loop
score report that the one family loop replaces, the per-order n-gram counts
and summed n-gram totals that the one counting pass and the closed forms
replace, the line-by-line file reader that the one decode step replaces, the
parse-only derivation loader that replaying derived steps replaces, the
printer that renders every node again that the per-node text replaces, the
per-step renaming that VR's one memo per derivation replaces, a wrapper for
tree strategies whose constructors may refuse, and a fixed reference block
for scaling wall-clock bounds to the host's speed."""
from __future__ import annotations

import cmath
import gc
import json
import math
import re
from collections import Counter
from fractions import Fraction
from itertools import permutations
from pathlib import Path
from time import perf_counter
from typing import Iterator, Optional

from derivekit import ops
from derivekit.calculus import (
    CalculusError,
    _IntegralEvaluator,
    _depends_on,
    _is_concrete_integrand,
    _is_plain_coefficient,
    antiderivative,
    differentiate,
)
from derivekit.expr import (
    Add,
    AppliedFunction,
    Derivative,
    Equation,
    Expr,
    ExprError,
    Func,
    Integer,
    Integral,
    Mul,
    Number,
    ONE,
    Pow,
    Rational,
    Symbol,
    add,
    applied,
    derivative,
    distinct_subtrees,
    div,
    equation_free_symbols,
    exact_value,
    func,
    integral,
    mul,
    neg,
    num_from_exact,
    pow_,
    rebuild,
    sub,
    symbol_nodes,
)
from derivekit.genalg import NEW_PREMISE, Applicability, _recency_pick, extract_derivation
from derivekit.latex import (
    _PUNCT,
    LatexParseError,
    RenderError,
    _is_simple_head,
    parse_equation,
    parse_latex,
)
from derivekit.metrics import (
    BLEU_MAX_N,
    BLEU_SMOOTHING,
    METRIC_NAMES,
    ScoredRow,
    _hits,
    _mean,
    perf_difference,
    perturbation_ratio,
    score_all,
)
from derivekit.ops import Derivation, ROLE_PREMISE, Step
from derivekit.prompts import (
    FEWSHOT_HEADER,
    FEWSHOT_INSTRUCTION,
    PromptError,
    qualifies_for_fewshot,
)
from derivekit.perturb import Skipped
from derivekit.records import (
    _MALFORMED,
    DerivationRecord,
    RecordError,
    _numbered_rows,
    _row_fields,
    _step_fields,
    _steps,
)
from derivekit.vocab import GREEK_POOL_DEFAULT


class EvalError(ExprError):
    """Numeric evaluation failed (unbound name, domain error, opaque node)."""


# ---------------------------------------------------------------------------
# canonicalization oracle: every constructor output must be a fixed point

def rational(num: int, den: int) -> Number:
    if den == 0:
        raise ExprError("zero denominator")
    return num_from_exact(Fraction(num, den))


def canonicalize(e: Expr) -> Expr:
    """Rebuild a tree bottom-up through the canonical constructors."""
    if type(e) is Rational:
        return rational(e.num, e.den)
    return rebuild(e, [canonicalize(x) for x in e.children()])


def canonicalize_equation(eq: Equation) -> Equation:
    return Equation(canonicalize(eq.lhs), canonicalize(eq.rhs))


def structure(value):
    """A node's or an equation's class and fields, recursively, as plain
    tuples, read through no node's ``==``: ``structure(a) == structure(b)`` is
    the structural equality that interning turns into object identity."""
    if type(value) is tuple:
        return tuple(map(structure, value))
    if isinstance(value, (Expr, Equation)):
        return (type(value), *(structure(getattr(value, f)) for f in type(value).__slots__))
    return value


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
            operand=add(neg(ea), derivative(qa, a)), fresh=["G"],
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
        renamed = (equation.lhs.name,) if type(equation.lhs) is AppliedFunction else ()
        found = None
        for candidate in _candidate_steps(steps, equation):
            try:
                redone = ops.apply(
                    candidate.op,
                    steps,
                    candidate.parents,
                    candidate.operand,
                    fresh=[c.name for c in candidate.constants] or renamed,
                )
            except ops.OpError:
                continue
            if redone.constants == candidate.constants and redone.equation == equation:
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
# real- and complex-valued evaluation

def eval_numeric(e: Expr, bindings: dict[str, float]) -> float:
    """Evaluate to an IEEE double. AppliedFunction names evaluate via bindings."""
    t = type(e)
    if t is Integer:
        return float(e.value)
    if t is Rational:
        return e.num / e.den
    if t is Symbol:
        if e.name not in bindings:
            raise EvalError(f"unbound symbol: {e.name}")
        return float(bindings[e.name])
    if t is AppliedFunction:
        if e.name not in bindings:
            raise EvalError(f"unbound function name: {e.name}")
        return float(bindings[e.name])
    if t is Add:
        return sum(eval_numeric(x, bindings) for x in e.terms)
    if t is Mul:
        out = 1.0
        for x in e.factors:
            out *= eval_numeric(x, bindings)
        return out
    if t is Pow:
        b = eval_numeric(e.base, bindings)
        p = eval_numeric(e.exp, bindings)
        try:
            out = b ** p
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise EvalError(f"power domain error: {b} ** {p}") from exc
        if isinstance(out, complex):
            raise EvalError(f"power domain error: {b} ** {p}")
        return out
    if t is Func:
        x = eval_numeric(e.arg, bindings)
        if e.kind == "sin":
            return math.sin(x)
        if e.kind == "cos":
            return math.cos(x)
        if e.kind == "exp":
            try:
                return math.exp(x)
            except OverflowError as exc:
                raise EvalError("exp overflow") from exc
        if x <= 0:
            raise EvalError(f"log of non-positive value {x}")
        return math.log(x)
    raise EvalError(f"cannot evaluate {type(e).__name__} node numerically")



def eval_complex(e: Expr, bindings: dict[str, complex]) -> complex:
    """Evaluate like eval_numeric, but over complex numbers.

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
    return [tuple(s.op_tag() for s in r.derivation.steps) for r in records]


# ---------------------------------------------------------------------------
# readers of command outputs

def read_jsonl(path: str | Path) -> Iterator[dict]:
    for _, row in _numbered_rows(path):
        yield row


def parse_prompt_equations(prompt: str) -> list:
    """Parse every $-delimited equation in a prompt back to Equation values."""
    out = []
    chunks = prompt.split("$")
    for i in range(1, len(chunks), 2):
        out.append(parse_equation(chunks[i]))
    return out


def mode_length(stats: dict) -> int:
    hist = stats["length_hist"]
    return int(max(hist, key=lambda k: hist[k]["count"]))


def top_chain(stats: dict, length: int) -> tuple[str, ...]:
    for entry in stats["chains"]:
        if entry["length"] == length and entry["top_chains"]:
            return tuple(entry["top_chains"][0]["ops"])
    return ()


# ---------------------------------------------------------------------------
# oracles for generation's draws and caches: random.choices draws over the
# weights as written, and a fresh walk of both sides

def sample_action_by_choices(flags, cfg, rng):
    """genalg.sample_action with one rng.choices call per weighted draw."""
    arity = rng.choices((0, 1, 2), weights=(cfg.p_arity_0, cfg.p_arity_1, cfg.p_arity_2))[0]
    if arity == 0:
        return NEW_PREMISE
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
            arith = (ops.ADD, ops.SUB, ops.MUL, ops.DIV, ops.POW)
            return arith[rng.randrange(len(arith))]
        ext = (ops.NEGATE, ops.SWAP, ops.EXP_BOTH, ops.LOG_BOTH)
        return ext[rng.randrange(len(ext))]
    if flags.n_steps < 2:
        return None
    group = rng.choices(("subs", "add_eq"), weights=(cfg.p_subs, cfg.p_add_eq))[0]
    if group == "subs":
        return (ops.SUB_LHS, ops.SUB_RHS)[rng.randrange(2)]
    return ops.ADD_EQ


def recency_pick_by_choices(state, indices):
    """genalg._recency_pick with rng.choices over the picked steps' weights."""
    weights = ops.step_weights(len(state.steps), state.cfg.p_history)
    ws = [weights[i] for i in indices]
    return state.rng.choices(indices, weights=ws)[0]


def full_walk(e: Expr) -> Iterator[Expr]:
    """Every node of the tree in preorder, repeats and their subtrees
    included: the walk expr.distinct_subtrees prunes."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


def free_symbols_by_walk(e: Expr) -> tuple[str, ...]:
    """expr.free_symbols walking and sorting the whole tree, keeping nothing."""
    return tuple(sorted({n.name for n in full_walk(e) if type(n) in (Symbol, AppliedFunction)}))


def equation_free_symbols_by_walk(eq: Equation) -> tuple[str, ...]:
    """equation_free_symbols without the per-equation or per-node cache."""
    return tuple(sorted(set(free_symbols_by_walk(eq.lhs)) | set(free_symbols_by_walk(eq.rhs))))


def note_by_pool(state, step: Step) -> None:
    """genalg._GenState.note listing the distinct subtrees and walking them."""
    index = len(state.steps)
    state.steps.append(step)
    state.seen_equations.add(step.equation)
    if step.operand is not None:
        state.used_names.update(free_symbols_by_walk(step.operand))
    state.used_names.update(c.name for c in step.constants)
    if step.op == ops.EVAL_INT:
        state.eval_int_parents.add(step.parents)
    elif step.op == ops.EVAL_DIFF:
        state.eval_diff_parents.add(step.parents)
    ancestors = {index}
    for p in step.parents:
        ancestors |= state.ancestors[p]
    state.ancestors.append(ancestors)
    has_derivative = has_integral = False
    for node in distinct_subtrees(step.equation.lhs, step.equation.rhs):
        state.containing.setdefault(node, []).append(index)
        t = type(node)
        if t is Symbol or t is AppliedFunction:
            state.used_names.add(node.name)
        elif t is Derivative:
            has_derivative = True
        elif t is Integral:
            has_integral = True
    if has_derivative:
        state.derivative_indices.append(index)
    if has_integral:
        state.integral_indices.append(index)
    if step.role != ROLE_PREMISE:
        state.derived_indices.append(index)
    eq = step.equation
    state.sides.append((state.containing[eq.lhs], state.containing[eq.rhs]))
    state.flags = Applicability(index + 1, bool(state.derivative_indices),
                                bool(state.integral_indices), bool(state.derived_indices))


def substitution_draw_by_full_sort(state, op):
    """genalg._substitution_draw with a sort key for every step, each
    definition's targets looked up in the containing index."""
    steps = state.steps
    weights = ops.step_weights(len(steps), state.cfg.p_history)
    for definition in weighted_order(list(range(len(steps))), weights, state.rng):
        def_eq = steps[definition].equation
        pattern = def_eq.lhs if op == ops.SUB_LHS else def_eq.rhs
        targets = [j for j in state.containing.get(pattern, ()) if j != definition]
        if not targets:
            continue
        target = _recency_pick(state, targets)
        candidate = state.apply_once(op, (definition, target))
        if candidate is not None:
            return candidate
    return None


def weighted_order(indices: list[int], weights, rng) -> list[int]:
    """Weighted order without replacement (exponential-sort sampling)."""
    keyed = sorted(
        ((rng.random() ** (1.0 / weights[i]), i) for i in indices), reverse=True
    )
    return [i for _, i in keyed]


def subexpression_pool_by_full_walk(eq: Equation) -> tuple[Expr, ...]:
    """The distinct subtrees of both sides (the operand pool), walking every
    subtree, repeats included."""
    seen: dict[Expr, None] = {}
    for side in (eq.lhs, eq.rhs):
        for node in full_walk(side):
            if node not in seen:
                seen[node] = None
    return tuple(seen)


# ---------------------------------------------------------------------------
# calculus walkers that rebuild every node, whether or not a child changed

def evaluate_derivatives_by_rebuild(eq: Equation) -> Equation:
    """calculus.evaluate_derivatives rebuilding every node it walks."""
    def walk(e: Expr) -> Expr:
        kids = [walk(x) for x in e.children()]
        if type(e) is not Derivative:
            return rebuild(e, kids)
        out = kids[1]
        for _ in range(e.order):
            out = differentiate(out, e.var)
        return out

    new = Equation(walk(eq.lhs), walk(eq.rhs))
    if new == eq:
        raise CalculusError("no evaluable derivative in equation")
    return new


class _RebuildingIntegralEvaluator(_IntegralEvaluator):
    def visit(self, e: Expr) -> Expr:
        if type(e) is not Integral:
            return rebuild(e, [self.visit(x) for x in e.children()])
        self.saw_integral = True
        body = self.visit(e.body)
        if self.miss:
            return e
        if not _is_concrete_integrand(body):
            return integral(body, e.var)
        anti = antiderivative(body, e.var)
        if anti is None:
            self.miss = True
            return e
        return add(anti, self.fresh_constant())


def evaluate_integrals_by_rebuild(eq: Equation, names):
    """calculus.evaluate_integrals rebuilding every node it walks."""
    ev = _RebuildingIntegralEvaluator(names)
    lhs = ev.visit(eq.lhs)
    rhs = ev.visit(eq.rhs)
    if ev.miss:
        return None
    if not ev.saw_integral:
        raise CalculusError("no integral node in equation")
    new = Equation(lhs, rhs)
    if new == eq:
        raise CalculusError("no concrete integral to evaluate")
    return new, tuple(ev.constants)


# ---------------------------------------------------------------------------
# the integration table as a list of rules, each tried in order

def _rule_constant(e: Expr, v: Symbol) -> Optional[Expr]:
    if not _depends_on(e, v) and _is_plain_coefficient(e):
        return mul(e, v)
    return None


def _rule_power(e: Expr, v: Symbol) -> Optional[Expr]:
    if e == v:
        return div(pow_(v, Integer(2)), Integer(2))
    if type(e) is Pow and e.base == v:
        n = exact_value(e.exp)
        if n is None:
            return None
        if n == -1:
            return func("log", v)
        return div(pow_(v, num_from_exact(n + 1)), num_from_exact(n + 1))
    return None


def _rule_elementary(e: Expr, v: Symbol) -> Optional[Expr]:
    if type(e) is Func and e.arg == v:
        if e.kind == "sin":
            return neg(func("cos", v))
        if e.kind == "cos":
            return func("sin", v)
        if e.kind == "exp":
            return func("exp", v)
        if e.kind == "log":
            return sub(mul(v, func("log", v)), v)
    return None


_RULES = (_rule_constant, _rule_power, _rule_elementary)


def _atom_by_rule_list(e: Expr, v: Symbol) -> Optional[Expr]:
    for rule in _RULES:
        out = rule(e, v)
        if out is not None:
            return out
    return None


def _term_by_rule_list(e: Expr, v: Symbol) -> Optional[Expr]:
    direct = _atom_by_rule_list(e, v)
    if direct is not None:
        return direct
    if type(e) is Mul:
        const_parts = [f for f in e.factors if not _depends_on(f, v)]
        var_parts = [f for f in e.factors if _depends_on(f, v)]
        if not all(_is_plain_coefficient(f) for f in const_parts):
            return None
        if const_parts and len(var_parts) <= 1:
            rest = var_parts[0] if var_parts else ONE
            inner = _atom_by_rule_list(rest, v)
            if inner is not None:
                return mul(*const_parts, inner)
    return None


def antiderivative_by_rule_list(e: Expr, v: Symbol) -> Optional[Expr]:
    """calculus.antiderivative as the table was once written: three rule
    functions tried in order for each term, and a product split into a plain
    coefficient free of v and one factor a rule integrates."""
    if type(e) is Add:
        parts = [_term_by_rule_list(t, v) for t in e.terms]
        if any(p is None for p in parts):
            return None
        return add(*parts)
    return _term_by_rule_list(e, v)


# ---------------------------------------------------------------------------
# oracle for the record reader: a file opened as text, read line by line

def load_rows_by_open(path: str | Path, convert) -> list:
    """records.load_rows as a loop over open(path): the same rows, and the
    same RecordError for a bad line."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise RecordError(f"{path}:{lineno}: bad JSON: {exc}") from exc
            if not isinstance(row, dict):
                raise RecordError(f"{path}:{lineno}: row is not a JSON object")
            try:
                out.append(convert(row))
            except _MALFORMED as exc:
                raise RecordError(f"{path}:{lineno}: malformed row: {exc!r}") from exc
    return out


# ---------------------------------------------------------------------------
# oracle for the derivation loader: every stored equation parsed

def derivation_record_from_json_by_parse(payload: dict) -> DerivationRecord:
    """records.derivation_record_from_json as it was before it took derived
    steps from their replay: every equation and operand parsed, through one
    parse memo per record, and Derivation.replayed empty."""
    sides: dict = {}

    def step(s: dict, i: int) -> Step:
        op, parents, role = _step_fields(s, i)
        operand, constants = None, ()
        raw_operand = s.get("operand_latex")
        if op == ops.EVAL_INT:
            if raw_operand:
                constants = tuple(Symbol(name) for name in raw_operand.split(","))
        elif raw_operand is not None:
            operand = parse_latex(raw_operand, sides)
        return Step(parse_equation(s["latex"], sides), None if op == ops.PREMISE else op,
                    parents, operand, role, constants)

    return DerivationRecord(**_row_fields(payload), derivation=Derivation(tuple(
        step(s, i) for i, s in enumerate(_steps(payload)))))


# ---------------------------------------------------------------------------
# oracle for the few-shot builder: the pool qualified again for every
# evaluation record, and random.shuffle

def build_fewshot_by_full_scan(record, pool, rng) -> str:
    """prompts.build_fewshot as it was before the pool came qualified: over
    a plain list of prompt records, with the same text, the same draws and
    the same PromptError message. A record the pool holds more than once
    counts once, as in fewshot_pool."""
    candidates = [p for p in dict.fromkeys(pool) if p.static_id != record.static_id]
    qualifying = [p for p in candidates if qualifies_for_fewshot(p)]
    if len(candidates) < 5 or len(qualifying) < 2:
        raise PromptError(
            f"need >= 5 pool prompts with >= 2 qualifying, have {len(candidates)}"
            f"/{len(qualifying)}"
        )
    shuffled = list(candidates)
    rng.shuffle(shuffled)
    picked = [p for p in shuffled if qualifies_for_fewshot(p)][:2]
    for p in shuffled:
        if len(picked) == 5:
            break
        if p not in picked:
            picked.append(p)
    order = {id(p): i for i, p in enumerate(shuffled)}
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


# ---------------------------------------------------------------------------
# oracle for the score report: a loop that scores every row, then a loop
# that compares each perturbed row with its static row

def score_report_two_loops(
    predictions: dict[tuple[str, Optional[str]], str],
    references: dict[tuple[str, Optional[str]], str],
    rouge_order="2",
    bleurt_scores: Optional[dict[tuple[str, Optional[str]], float]] = None,
) -> tuple[dict, list[ScoredRow]]:
    """metrics.build_score_report as two loops over the rows in (kind, id)
    order: one scores every row, one builds the pairwise tables. Every
    score_all call profiles both of its strings afresh."""
    bleurt_scores = bleurt_scores or {}
    rows: list[ScoredRow] = []
    keys = sorted(
        (k for k in predictions if k in references),
        key=lambda k: (k[1] or "", k[0]),
    )
    missing = sorted(str(k) for k in predictions.keys() ^ references.keys())
    for key in keys:
        rid, perturbation = key
        row = ScoredRow(
            rid,
            perturbation,
            score_all(predictions[key], references[key], rouge_order),
            bleurt=bleurt_scores.get(key),
        )
        rows.append(row)
    by_key = {(r.id, r.perturbation): r for r in rows}

    pairwise: dict[str, dict] = {}
    for row in rows:
        if row.perturbation is None:
            continue
        static_key = (row.id, None)
        static_row = by_key.get(static_key)
        if static_row is None:
            continue
        bucket = pairwise.setdefault(
            row.perturbation,
            {"pairs": 0, "diff": {m: [] for m in METRIC_NAMES},
             "ratio": {m: [] for m in METRIC_NAMES}, "ratio_excluded": 0},
        )
        bucket["pairs"] += 1
        for m in METRIC_NAMES:
            bucket["diff"][m].append(perf_difference(static_row.scores[m], row.scores[m]))
        pred_pair = score_all(
            predictions[static_key], predictions[(row.id, row.perturbation)], rouge_order
        )
        truth_pair = score_all(
            references[static_key], references[(row.id, row.perturbation)], rouge_order
        )
        excluded = False
        for m in METRIC_NAMES:
            ratio = perturbation_ratio(pred_pair[m], truth_pair[m])
            row.ratios[m] = ratio
            if ratio is None:
                excluded = True
                continue
            bucket["ratio"][m].append(ratio)
        if excluded:
            bucket["ratio_excluded"] += 1

    report = {
        "config": {
            "rouge_order": str(rouge_order),
            "bleu_max_n": BLEU_MAX_N,
            "bleu_smoothing": BLEU_SMOOTHING,
            "tokenization": "whitespace",
        },
        "rows": [
            {
                "id": r.id,
                "perturbation": r.perturbation,
                "rouge": r.scores["rouge"],
                "bleu": r.scores["bleu"],
                "gleu": r.scores["gleu"],
                "external_bleurt": r.bleurt,
            }
            for r in rows
        ],
        "aggregates": dict(
            {"n": len(rows)},
            **{m: _mean(r.scores[m] for r in rows) for m in METRIC_NAMES},
        ),
        "pairwise": {
            kind: {
                "pairs": bucket["pairs"],
                "diff": {m: _mean(bucket["diff"][m]) for m in METRIC_NAMES},
                "ratio": {m: _mean(bucket["ratio"][m]) for m in METRIC_NAMES},
                "ratio_excluded": bucket["ratio_excluded"],
            }
            for kind, bucket in sorted(pairwise.items())
        },
        "unmatched_keys": missing,
        "schema_version": 1,
    }
    return report, rows


# ---------------------------------------------------------------------------
# oracle for the n-gram layer: metrics as it was before each string's n-grams
# were counted in one pass and the n-gram totals taken in closed form

def profile_by_updates(text: str, max_n: int, min_n: int = 1) -> tuple[int, Counter]:
    """metrics._profile with one Counter.update per order."""
    tokens = text.split()
    grams: Counter = Counter()
    for n in range(min_n, min(max_n, len(tokens)) + 1):
        grams.update(zip(*[tokens[i:] for i in range(n)]))
    return len(tokens), grams


def pair_by_updates(candidate: str, reference: str, max_n: int, min_n: int = 1):
    (c, cand), (r, ref) = (profile_by_updates(t, max_n, min_n) for t in (candidate, reference))
    return c, r, _hits(cand, ref, max_n)


def _total(length: int, n: int) -> int:
    """Number of n-grams in `length` tokens."""
    return max(0, length - n + 1)


def rouge_n_by_totals(c: int, r: int, hits: list[int], n: int) -> float:
    total_c, total_r = _total(c, n), _total(r, n)
    if total_c == 0 or total_r == 0 or hits[n] == 0:
        return 0.0
    precision = hits[n] / total_c
    recall = hits[n] / total_r
    return 2 * precision * recall / (precision + recall)


def bleu_by_totals(c: int, r: int, hits: list[int], max_n: int) -> float:
    if not c or not r:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        total = _total(c, n)
        if hits[n] == 0:
            precision = (hits[n] + 1) / (total + 1)
        else:
            precision = hits[n] / total
        log_sum += math.log(precision)
    bp = 1.0 if c > r else math.exp(1 - r / c)
    return bp * math.exp(log_sum / max_n)


def gleu_by_totals(c: int, r: int, hits: list[int], max_n: int) -> float:
    if not c or not r:
        return 0.0
    matched = sum(hits[1 : max_n + 1])
    total_c = sum(_total(c, n) for n in range(1, max_n + 1))
    total_r = sum(_total(r, n) for n in range(1, max_n + 1))
    return min(matched / total_c, matched / total_r)


# ---------------------------------------------------------------------------
# oracle for the printer: latex.to_latex as it was before each node kept its
# text, rendering every subtree on every call

def _signed_uncached(e: Expr) -> tuple[bool, str]:
    q = exact_value(e)
    if q is not None:
        return q < 0, _number_str(abs(q))
    if type(e) is Mul:
        return _mul_str_uncached(e)
    return False, to_latex_uncached(e)


def _number_str(q) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"\\frac{{{q.numerator}}}{{{q.denominator}}}"


def _mul_operand_uncached(f: Expr) -> str:
    s = to_latex_uncached(f)
    return f"({s})" if type(f) is Add else s


def _mul_str_uncached(e: Mul) -> tuple[bool, str]:
    coeff = 1
    num_factors: list[Expr] = []
    den_factors: list = []
    for f in e.factors:
        q = exact_value(f)
        if q is not None:
            coeff *= q
            continue
        if type(f) is Pow:
            fq = exact_value(f.exp)
            if fq is not None and fq < 0:
                den_factors.append((f.base, -fq))
                continue
        num_factors.append(f)

    def render_run(items: list[str], exprs: list) -> str:
        out = []
        for j, (s, x) in enumerate(zip(items, exprs)):
            if x is not None and type(x) in (Derivative, Integral) and j < len(items) - 1:
                out.append(f"({s})")
            else:
                out.append(s)
        return " ".join(out)

    negative, coeff = coeff < 0, abs(coeff)
    fraction = bool(den_factors) or coeff.denominator != 1
    if fraction and len(num_factors) == 1 and coeff.numerator == 1:
        num_parts = [to_latex_uncached(num_factors[0])]
    else:
        num_parts = [_mul_operand_uncached(f) for f in num_factors]
    num_exprs: list = list(num_factors)
    if fraction and len(den_factors) == 1 and den_factors[0][1] == 1 and coeff.denominator == 1:
        den_parts = [to_latex_uncached(den_factors[0][0])]
    else:
        den_parts = [_mul_operand_uncached(b) if q == 1 else _pow_str_uncached(b, q)
                     for b, q in den_factors]
    den_exprs: list = [b if q == 1 else None for b, q in den_factors]
    if coeff.numerator != 1 or not num_parts:
        num_parts.insert(0, str(coeff.numerator))
        num_exprs.insert(0, None)
    if coeff.denominator != 1:
        den_parts.insert(0, str(coeff.denominator))
        den_exprs.insert(0, None)
    num = render_run(num_parts, num_exprs)
    if den_parts:
        return negative, f"\\frac{{{num}}}{{{render_run(den_parts, den_exprs)}}}"
    return negative, num


def _pow_base_str_uncached(base: Expr) -> str:
    if type(base) is Symbol:
        return base.name
    if type(base) is Integer and base.value >= 0:
        return str(base.value)
    return f"({to_latex_uncached(base)})"


def _pow_str_uncached(base: Expr, exp_q) -> str:
    if exp_q == 1:
        return to_latex_uncached(base)
    return f"{_pow_base_str_uncached(base)}^{{{_number_str(exp_q)}}}"


def _body_str_uncached(body: Expr) -> str:
    negative, s = _signed_uncached(body)
    if type(body) is Add or negative:
        return f"({to_latex_uncached(body)})"
    return s


def to_latex_uncached(e: Expr) -> str:
    """latex.to_latex rendering every subtree again and keeping nothing."""
    t = type(e)
    if t is Integer:
        return str(e.value)
    if t is Symbol:
        return e.name
    if t is Add:
        parts: list[str] = []
        for i, term in enumerate(e.terms):
            negative, body = _signed_uncached(term)
            if i == 0:
                parts.append(f"- {body}" if negative else body)
            else:
                parts.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(parts)
    if t is Mul or t is Rational:
        negative, body = _signed_uncached(e)
        return f"- {body}" if negative else body
    if t is Pow:
        q = exact_value(e.exp)
        if q is not None and q < 0:
            return f"\\frac{{1}}{{{_pow_str_uncached(e.base, -q)}}}"
        return f"{_pow_base_str_uncached(e.base)}^{{{to_latex_uncached(e.exp)}}}"
    if t is Func:
        if e.kind == "exp":
            return f"e^{{{to_latex_uncached(e.arg)}}}"
        return f"\\{e.kind}{{({to_latex_uncached(e.arg)})}}"
    if t is AppliedFunction:
        if not e.name:
            raise RenderError("empty function name")
        head = e.name if _is_simple_head(e.name) else f"\\operatorname{{{e.name}}}"
        args = ",".join(to_latex_uncached(a) for a in e.args)
        return f"{head}{{({args})}}"
    if t is Derivative:
        marker = "d" if len(symbol_nodes(e.body)) <= 1 else "\\partial"
        if e.order == 1:
            head = f"\\frac{{{marker}}}{{{marker} {e.var.name}}}"
        else:
            head = f"\\frac{{{marker}^{{{e.order}}}}}{{{marker} {e.var.name}^{{{e.order}}}}}"
        return f"{head} {_body_str_uncached(e.body)}"
    if t is Integral:
        return f"\\int {_body_str_uncached(e.body)} d{e.var.name}"
    raise RenderError(f"cannot render {t!r}")


def or_first(build):
    """build(*args), or its first argument where the constructor refuses
    (a division by zero, a fold past the size limit)."""
    def safe(*args):
        try:
            return build(*args)
        except ExprError:
            return args[0]
    return safe


# ---------------------------------------------------------------------------
# variable renaming that walks and renames each step's trees from scratch

def rename_leaves_per_node(e: Expr, mapping: dict[str, str]) -> Expr:
    """perturb.rename_leaves with no memo: every node is copied again."""
    if type(e) is Symbol:
        return Symbol(mapping.get(e.name, e.name))
    kids = [rename_leaves_per_node(x, mapping) for x in e.children()]
    if type(e) is AppliedFunction:
        return AppliedFunction(mapping.get(e.name, e.name), tuple(kids))
    return rebuild(e, kids, raw=True)


def collect_names_by_full_walk(d: Derivation) -> list[str]:
    """perturb.collect_names walking every subtree of every step."""
    seen: dict[str, None] = {}
    for s in d.steps:
        for tree in (s.equation.lhs, s.equation.rhs, s.operand):
            for node in () if tree is None else full_walk(tree):
                if type(node) is Symbol or type(node) is AppliedFunction:
                    seen.setdefault(node.name, None)
        for c in s.constants:
            seen.setdefault(c.name, None)
    return list(seen)


def rename_variables_per_step(d: Derivation, rng) -> tuple[Derivation, dict[str, str]]:
    """perturb.rename_variables renaming each step's trees on their own."""
    names = collect_names_by_full_walk(d)
    if len(names) > len(GREEK_POOL_DEFAULT):
        raise Skipped("too many symbols")
    mapping = dict(zip(names, rng.sample(GREEK_POOL_DEFAULT, len(names))))
    return Derivation(tuple(
        s._replace(
            equation=Equation(rename_leaves_per_node(s.equation.lhs, mapping),
                              rename_leaves_per_node(s.equation.rhs, mapping)),
            operand=None if s.operand is None else rename_leaves_per_node(s.operand, mapping),
            constants=tuple(Symbol(mapping.get(c.name, c.name)) for c in s.constants),
        )
        for s in d.steps
    )), mapping


# ---------------------------------------------------------------------------
# host speed: a fixed piece of pure-Python work, the same as perfbench's
# reference block, and the time it takes on the host the bounds were set on

REF_S = 0.010


def reference_block() -> float:
    """Seconds taken by a fixed piece of pure-Python work (fractions,
    tuple-keyed dicts, sorting, JSON) that is independent of derivekit, with
    the cyclic garbage collector off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc = Fraction(0)
        table = {}
        for i in range(1, 1500):
            acc += Fraction(i % 97, i)
            table[(i % 113, str(i))] = [i, i * 2]
        rows = sorted(table.items(), key=lambda kv: (kv[0][1], kv[1][0]))
        json.loads(json.dumps([list(k) + v for k, v in rows]))
        return perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
