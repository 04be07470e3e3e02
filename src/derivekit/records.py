"""JSONL record schemas for derivations and prompts.

DerivationRecord rows serialize each step as
{"latex", "op", "parents", "operand_latex", "role"}; eval_int steps store
their integration constants comma-joined in the operand_latex slot.
Perturbed rows additionally carry "perturbation" and "static_id". Every row
ends with "schema_version".
"""
from __future__ import annotations

import io
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, TextIO, TypeVar

from .expr import Equation, Expr, ExprError, Symbol
from .latex import (
    LatexParseError, equation_to_latex, parse_equation, parse_latex, to_latex, within_depth)
from .ops import EVAL_INT, PREMISE, REGISTRY, RENAME_FAMILY, ROLES, Derivation, OpError, Step, apply

SCHEMA_VERSION = 1

T = TypeVar("T")
K = TypeVar("K")
V = TypeVar("V")


class RecordError(Exception):
    pass


class DerivationRecord(NamedTuple):
    id: str
    seed: int
    derivation: Derivation
    perturbation: Optional[str] = None
    static_id: Optional[str] = None


class PromptRecord(NamedTuple):
    id: str
    static_id: str
    perturbation: Optional[str]
    prompt: str
    target: str


def step_to_json(step: Step) -> dict:
    if step.op == EVAL_INT:
        operand_latex: Optional[str] = ",".join(c.name for c in step.constants)
    elif step.operand is not None:
        operand_latex = to_latex(step.operand)
    else:
        operand_latex = None
    return {
        "latex": equation_to_latex(step.equation),
        "op": step.op_tag(),
        "parents": list(step.parents),
        "operand_latex": operand_latex,
        "role": step.role,
    }


def _parents(payload: dict, i: int) -> tuple[int, ...]:
    """Step i's parents: integers, each the index of an earlier step."""
    parents = tuple(payload.get("parents", ()))
    if not all(type(p) is int for p in parents):
        raise RecordError(f"parents must be integers: {parents!r}")
    for p in parents:
        if not 0 <= p < i:
            raise RecordError(f"step {i} names parent {p}, which does not precede it")
    return parents


def string_or_null(name: str, value) -> Optional[str]:
    """value, the field `name` of a row, which must be a string or null."""
    if value is not None and type(value) is not str:
        raise RecordError(f"{name} must be a string or null: {value!r}")
    return value


def _op(payload: dict) -> Optional[str]:
    """A step's op, checked with its operand_latex: the op is null, premise or
    a name of ops.REGISTRY, and operand_latex a string or null."""
    string_or_null("operand_latex", payload.get("operand_latex"))
    op = string_or_null("op", payload["op"])
    if op is not None and op != PREMISE and op not in REGISTRY:
        raise RecordError(f"op must be null, {PREMISE} or one of {', '.join(REGISTRY)}: {op!r}")
    return op


def string_field(payload: dict, name: str) -> str:
    """payload[name], which must be a string."""
    value = payload[name]
    if type(value) is not str:
        raise RecordError(f"{name} must be a string: {value!r}")
    return value


def _step_fields(payload: dict, i: int) -> tuple[Optional[str], tuple[int, ...], str]:
    """Step i's op, parents and role, each checked, after a check of its latex."""
    string_field(payload, "latex")
    role = payload["role"]
    if role not in ROLES:
        raise RecordError(f"role must be one of {', '.join(ROLES)}: {role!r}")
    return _op(payload), _parents(payload, i), role


def _row_fields(payload: dict) -> dict:
    """A derivation row's id, seed, perturbation and static_id, checked."""
    seed = payload.get("seed", 0)
    if type(seed) is not int:  # a bool is not a seed
        raise RecordError(f"seed must be an integer: {seed!r}")
    return {"id": string_field(payload, "id"), "seed": seed,
            "perturbation": string_or_null("perturbation", payload.get("perturbation")),
            "static_id": string_or_null("static_id", payload.get("static_id"))}


def _steps(payload: dict) -> list:
    steps = payload["steps"]
    if type(steps) is not list or not steps:
        raise RecordError(f"steps must be a non-empty list: {steps!r}")
    return steps


def _annotation(payload: dict, i: int, sides: dict[str, Expr]) -> Step:
    """Step i of a record, checked, with every field but its equation (None).
    `sides` is the parse memo of latex.parse_equation, shared by the steps
    of one record: a derivation repeats most of its parents' sides."""
    op, parents, role = _step_fields(payload, i)
    operand = None
    constants: tuple[Symbol, ...] = ()
    raw_operand = payload.get("operand_latex")
    if op == EVAL_INT:
        if raw_operand:
            constants = tuple(Symbol(name) for name in raw_operand.split(","))
    elif raw_operand is not None:
        operand = parse_latex(raw_operand, sides)
    return Step(None, None if op == PREMISE else op, parents, operand, role, constants)


def _replayed(steps: list[Step], step: Step, text: str, sides: dict) -> Optional[Equation]:
    """ops.apply's equation for a derived step other than a rename or define,
    if it draws the step's constants and renders to `text`, its stored LaTeX,
    which then parses to it (docs/latex-grammar.md); its sides go into `sides`."""
    if step.op in (None, *RENAME_FAMILY) or not within_depth(text):
        return None
    try:  # a constant's name is the one part of the tree no parse made
        if all(parse_latex(c.name, sides) is c for c in step.constants):
            redone = apply(step.op, steps, step.parents, step.operand,
                           [c.name for c in step.constants])
            eq = redone.equation
            if redone.constants == step.constants and equation_to_latex(eq) == text:
                sides[to_latex(eq.lhs)], sides[to_latex(eq.rhs)] = eq.lhs, eq.rhs
                return eq
    except (OpError, LatexParseError, RecursionError):
        pass
    return None


def derivation_record_to_json(record: DerivationRecord) -> dict:
    payload: dict = {
        "id": record.id,
        "seed": record.seed,
        "steps": [step_to_json(s) for s in record.derivation.steps],
    }
    if record.perturbation is not None:
        payload["perturbation"] = record.perturbation
        payload["static_id"] = record.static_id
    payload["schema_version"] = SCHEMA_VERSION
    return payload


def derivation_record_from_json(payload: dict) -> DerivationRecord:
    """A derivation row's record: each equation from _replayed, or else parsed."""
    fields = _row_fields(payload)
    sides: dict[str, Expr] = {}
    steps: list[Step] = []
    replayed = []
    for i, raw in enumerate(_steps(payload)):
        step = _annotation(raw, i, sides)
        if (equation := _replayed(steps, step, raw["latex"], sides)) is not None:
            replayed.append(i)
        steps.append(step._replace(equation=equation or parse_equation(raw["latex"], sides)))
    return DerivationRecord(**fields, derivation=Derivation(tuple(steps), frozenset(replayed)))


def op_tags_from_json(payload: dict) -> tuple[str, ...]:
    """Each step's Step.op_tag(), from a row checked as
    derivation_record_from_json checks it, except that no LaTeX is parsed."""
    _row_fields(payload)
    steps = _steps(payload)
    return tuple(PREMISE if op is None else op
                 for op, _, _ in map(_step_fields, steps, range(len(steps))))


def prompt_record_to_json(record: PromptRecord) -> dict:
    return {
        "id": record.id,
        "static_id": record.static_id,
        "perturbation": record.perturbation,
        "prompt": record.prompt,
        "target": record.target,
        "schema_version": SCHEMA_VERSION,
    }


def prompt_record_from_json(payload: dict) -> PromptRecord:
    return PromptRecord(
        id=string_field(payload, "id"),
        static_id=string_field(payload, "static_id"),
        perturbation=string_or_null("perturbation", payload.get("perturbation")),
        prompt=string_field(payload, "prompt"),
        target=string_field(payload, "target"),
    )


def write_atomic(path: str | Path, write: Callable[[TextIO], T]) -> T:
    """Call write(fh) on a new file beside `path`, then move it onto `path`;
    if write raises, `path` is left as it was. Lines end in "\n" everywhere."""
    if os.path.exists(path) and not os.path.isfile(path):  # a device or a pipe
        with open(path, "w", encoding="utf-8", newline="") as fh:
            return write(fh)
    path = Path(os.path.realpath(path))  # replace a symlink's target, not the link
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            result = write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return result


# json.dumps(row, ensure_ascii=False) builds an encoder like this one per call
_encode_row = json.JSONEncoder(ensure_ascii=False).encode


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    write_atomic(path, lambda fh: fh.writelines(_encode_row(row) + "\n" for row in rows))


@contextmanager
def open_text(path: str | Path, data: Optional[bytes] = None) -> Iterator[TextIO]:
    r"""The file at `path`, or its bytes `data` when given, open as text as
    open(path, encoding="utf-8") opens it: lines end at "\n", "\r\n" or "\r"
    (str.splitlines would also split at characters such as "\x85" and
    "\u2028", which a JSON string may hold). A read of bytes that are not
    UTF-8 raises RecordError naming the file and the first line that holds
    one."""
    data = Path(path).read_bytes() if data is None else data
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            for lineno, raw in enumerate(data.splitlines(), 1):
                try:  # lines split at b"\n", b"\r\n" and b"\r", as above
                    raw.decode("utf-8")
                except UnicodeDecodeError as bad:
                    raise RecordError(f"{path}:{lineno}: not UTF-8 ({bad.reason})") from exc
            raise RecordError(f"{path}: not UTF-8") from exc


def _numbered_rows(path: str | Path, data: Optional[bytes] = None) -> Iterator[tuple[int, dict]]:
    """The JSON object on each non-blank line of a file; `data`, when given,
    is the file's bytes, already read."""
    with open_text(path, data) as fh:
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
            yield lineno, row


# what a row that does not fit its format raises while it is converted
_MALFORMED = (RecordError, KeyError, TypeError, ValueError, LatexParseError, ExprError)


def _converted(path: str | Path, convert: Callable[[dict], T],
               data: Optional[bytes] = None) -> Iterator[tuple[int, T]]:
    for lineno, row in _numbered_rows(path, data):
        try:
            item = convert(row)
        except _MALFORMED as exc:
            raise RecordError(f"{path}:{lineno}: malformed row: {exc!r}") from exc
        yield lineno, item


def load_rows(path: str | Path, convert: Callable[[dict], T]) -> list[T]:
    """Convert every row of a JSONL file. A row with a missing field, a
    wrongly typed value or LaTeX that does not parse raises RecordError
    naming the file and line."""
    return [item for _, item in _converted(path, convert)]


def load_keyed(path: str | Path, convert: Callable[[dict], tuple[K, V]]) -> dict[K, V]:
    """Like load_rows for rows that convert to (key, value) pairs. A key that
    an earlier line already gave raises RecordError naming the file and both
    lines."""
    out: dict[K, V] = {}
    first: dict[K, int] = {}
    for lineno, (key, value) in _converted(path, convert):
        if key in first:
            raise RecordError(f"{path}:{lineno}: duplicate key {key!r} "
                              f"(first on line {first[key]})")
        first[key] = lineno
        out[key] = value
    return out


# The bytes and the records of the last two derivation files loaded, the most
# recently used first: the dataset build reads both splits in turn in one
# process, and records and their trees are immutable, so loads can share them.
_kept: list[tuple[bytes, tuple[DerivationRecord, ...]]] = []


def load_derivation_records(path: str | Path) -> list[DerivationRecord]:
    """load_rows of derivation records. A file whose bytes equal those of
    one of the last two files loaded is not parsed again: the list holds
    that file's records. Only two files' records are kept, and none after a
    load that raises."""
    global _kept
    kept, _kept = _kept, []
    data = Path(path).read_bytes()
    hit = next((entry for entry in kept if entry[0] == data), None)
    if hit is None:
        del kept[1:]  # the older file is dropped before the parse, so three are never held
        rows = _converted(path, derivation_record_from_json, data)
        hit = (data, tuple(item for _, item in rows))
    _kept = [hit, *(entry for entry in kept if entry is not hit)]
    return list(hit[1])


def load_prompt_records(path: str | Path) -> list[PromptRecord]:
    return load_rows(path, prompt_record_from_json)
