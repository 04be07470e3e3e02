"""JSONL record schemas for derivations and prompts.

DerivationRecord rows serialize each step as
{"latex", "op", "parents", "operand_latex", "role"}; eval_int steps store
their integration constants comma-joined in the operand_latex slot.
Perturbed rows additionally carry "perturbation" and "static_id". Every row
ends with "schema_version".
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, TextIO, TypeVar

from .expr import ExprError, Symbol
from .latex import LatexParseError, equation_to_latex, parse_equation, parse_latex, to_latex
from .ops import EVAL_INT, PREMISE, Derivation, Step

SCHEMA_VERSION = 1

T = TypeVar("T")
K = TypeVar("K")
V = TypeVar("V")


class RecordError(Exception):
    pass


@dataclass(frozen=True)
class DerivationRecord:
    id: str
    seed: int
    derivation: Derivation
    perturbation: Optional[str] = None
    static_id: Optional[str] = None


@dataclass(frozen=True)
class PromptRecord:
    id: str
    static_id: str
    perturbation: Optional[str]
    prompt: str
    target: str
    premises: tuple[int, ...] = ()
    intermediates: tuple[int, ...] = ()
    goal: int = -1


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


def _parents(payload: dict) -> tuple[int, ...]:
    parents = tuple(payload.get("parents", ()))
    if not all(type(p) is int for p in parents):
        raise RecordError(f"parents must be integers: {parents!r}")
    return parents


def _op(payload: dict) -> Optional[str]:
    """A step's op, checked with its operand_latex: each is a string or null."""
    op, operand = payload["op"], payload.get("operand_latex")
    for name, value in (("op", op), ("operand_latex", operand)):
        if value is not None and type(value) is not str:
            raise RecordError(f"{name} must be a string or null: {value!r}")
    return op


def _steps(payload: dict) -> list:
    steps = payload["steps"]
    if type(steps) is not list:
        raise RecordError(f"steps must be a list: {steps!r}")
    return steps


def step_from_json(payload: dict) -> Step:
    op = _op(payload)
    operand = None
    constants: tuple[Symbol, ...] = ()
    raw_operand = payload.get("operand_latex")
    if op == EVAL_INT:
        if raw_operand:
            constants = tuple(Symbol(name) for name in raw_operand.split(","))
    elif raw_operand is not None:
        operand = parse_latex(raw_operand)
    parents = _parents(payload)
    return Step(
        equation=parse_equation(payload["latex"]),
        op=None if op == PREMISE else op,
        parents=parents,
        operand=operand,
        role=payload["role"],
        constants=constants,
    )


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
    return DerivationRecord(
        id=payload["id"],
        seed=payload.get("seed", 0),
        derivation=Derivation(tuple(step_from_json(s) for s in _steps(payload))),
        perturbation=payload.get("perturbation"),
        static_id=payload.get("static_id"),
    )


def op_tags_from_json(payload: dict) -> tuple[str, ...]:
    """Each step's Step.op_tag(), from a row checked as
    derivation_record_from_json checks it, except that no LaTeX is parsed."""
    payload["id"]  # a missing field raises the KeyError the full conversion raises
    tags = []
    for step in _steps(payload):
        op = _op(step)
        _parents(step)
        if type(step["latex"]) is not str:
            raise RecordError(f"latex must be a string: {step['latex']!r}")
        step["role"]
        tags.append(PREMISE if op is None else op)
    return tuple(tags)


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
        id=payload["id"],
        static_id=payload["static_id"],
        perturbation=payload.get("perturbation"),
        prompt=payload["prompt"],
        target=payload["target"],
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


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    write_atomic(path, lambda fh: fh.writelines(
        json.dumps(row, ensure_ascii=False) + "\n" for row in rows))


def _numbered_rows(path: str | Path) -> Iterator[tuple[int, dict]]:
    with open(path, "r", encoding="utf-8") as fh:
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


def read_jsonl(path: str | Path) -> Iterator[dict]:
    for _, row in _numbered_rows(path):
        yield row


# what a row that does not fit its format raises while it is converted
_MALFORMED = (RecordError, KeyError, TypeError, ValueError, LatexParseError, ExprError)


def _converted(path: str | Path, convert: Callable[[dict], T]) -> Iterator[tuple[int, T]]:
    for lineno, row in _numbered_rows(path):
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


def load_derivation_records(path: str | Path) -> list[DerivationRecord]:
    return load_rows(path, derivation_record_from_json)


def load_prompt_records(path: str | Path) -> list[PromptRecord]:
    return load_rows(path, prompt_record_from_json)
