"""Symbol vocabulary: names and role kinds.

The training vocabulary is a configurable JSON file; the packaged default
carries 155 physics-flavoured symbols. A symbol's ``name`` doubles as its
LaTeX form, so each name of a vocabulary file must parse back to itself (a
function name applied to one variable), which rules out bare ``e`` and ``d``,
and the out-of-distribution Greek pool used by variable renaming must stay
disjoint from the vocabulary.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional

from .expr import Symbol, applied
from .latex import LatexParseError, RenderError, parse_latex, to_latex
from .records import RecordError, open_text

KINDS = ("variable", "function-name", "constant")

GREEK_POOL_DEFAULT = (
    "\\alpha", "\\beta", "\\gamma", "\\zeta", "\\iota", "\\kappa",
    "\\nu", "\\xi", "\\tau", "\\upsilon", "\\chi",
)


class VocabularyError(Exception):
    pass


def _reads_back(name: str, kind: str) -> bool:
    """Whether the LaTeX of `name`, used as a symbol of `kind`, parses back to it."""
    tree = applied(name, [Symbol("x")]) if kind == "function-name" else Symbol(name)
    try:
        return parse_latex(to_latex(tree)) == tree
    except (LatexParseError, RenderError):
        return False


@dataclass(frozen=True)
class SymbolEntry:
    name: str
    kind: str


@dataclass(frozen=True)
class SymbolTable:
    entries: tuple[SymbolEntry, ...]
    _by_kind: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seen = set()
        for entry in self.entries:
            if entry.kind not in KINDS:
                raise VocabularyError(f"unknown kind {entry.kind!r} for {entry.name!r}")
            if entry.name in seen:
                raise VocabularyError(f"duplicate symbol name {entry.name!r}")
            if "," in entry.name:
                raise VocabularyError(f"symbol name {entry.name!r} may not contain a comma")
            if entry.name in GREEK_POOL_DEFAULT:
                raise VocabularyError(
                    f"{entry.name!r} belongs to the out-of-distribution Greek pool"
                )
            seen.add(entry.name)
        by_kind = {None: tuple(e.name for e in self.entries)}
        for kind in KINDS:
            by_kind[kind] = tuple(e.name for e in self.entries if e.kind == kind)
        object.__setattr__(self, "_by_kind", by_kind)

    def names(self, kind: Optional[str] = None) -> tuple[str, ...]:
        return self._by_kind.get(kind, ())


def load_symbol_table(path: Optional[str | Path] = None) -> SymbolTable:
    """Load a vocabulary JSON file; None loads the packaged default."""
    if path is None:
        text = resources.files("derivekit.data").joinpath("vocabulary.json").read_text("utf-8")
    else:
        try:
            with open_text(path) as fh:
                text = fh.read()
        except RecordError as exc:  # not UTF-8
            raise VocabularyError(str(exc)) from exc
    try:
        payload = json.loads(text)
        entries = tuple(SymbolEntry(item["name"], item["kind"]) for item in payload["symbols"])
        table = SymbolTable(entries)
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise VocabularyError(f"malformed vocabulary file: {exc}") from exc
    if path is not None:  # a test checks the packaged names, so loading them parses nothing
        for entry in entries:
            if not _reads_back(entry.name, entry.kind):
                raise VocabularyError(f"symbol name {entry.name!r} does not read back from LaTeX")
    return table
