"""In-memory span tracer for the benchmark's traced run.

The tracer replaces chosen derivekit functions by wrappers in every
``derivekit.*`` module namespace that binds them (so ``from .expr import add``
in ``genalg`` is wrapped as well as ``expr.add`` itself) and restores the
originals on exit. Each call becomes a span: name, start, end, parent span and
whether it succeeded. A span's self time is its duration minus the time its
child spans cover. Nothing in ``src/`` is modified.
"""
from __future__ import annotations

import gzip
import importlib
import math
import statistics
import sys
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

import derivekit.cli  # noqa: F401  (imports every module the specs name)


def _returned(result) -> bool:
    return True


def _not_none(result) -> bool:
    return result is not None


@dataclass(frozen=True)
class Probe:
    """One wrapped function.

    ``span`` names the span, or is a function of the call's positional
    arguments (used to split ``ops.apply`` by op). ``ok`` judges a normal
    return; a raised exception always counts as a failure. ``tally`` adds a
    per-call count (for example tokens scored) under the span's name.
    """

    module: str
    attr: str
    span: str | Callable[[tuple], str]
    ok: Callable[[object], bool] = _returned
    tally: Optional[Callable[[tuple], int]] = None


def _score_tokens(args: tuple) -> int:
    return len(args[0].split()) + len(args[1].split())


PROBES = (
    Probe("derivekit.expr", "add", "expr.add"),
    Probe("derivekit.expr", "mul", "expr.mul"),
    Probe("derivekit.expr", "pow_", "expr.pow_"),
    Probe("derivekit.latex", "to_latex", "latex.render"),
    Probe("derivekit.latex", "equation_to_latex", "latex.render"),
    Probe("derivekit.latex", "count_lexemes", "latex.lexeme"),
    Probe("derivekit.latex", "parse_latex", "latex.parse"),
    Probe("derivekit.latex", "parse_equation", "latex.parse_eq"),
    Probe("derivekit.calculus", "differentiate", "calculus.diff"),
    Probe("derivekit.calculus", "evaluate_derivatives", "calculus.eval"),
    Probe("derivekit.calculus", "evaluate_integrals", "calculus.eval", ok=_not_none),
    Probe("derivekit.ops", "apply", lambda args: f"ops.apply.{args[0]}"),
    Probe("derivekit.ops", "replay", "ops.replay"),
    Probe("derivekit.ops", "dag_coherent", "ops.check"),
    Probe("derivekit.ops", "duplicate_free", "ops.check"),
    Probe("derivekit.genalg", "try_step", "genalg.draw", ok=_not_none),
    Probe("derivekit.genalg", "extract_derivation", "genalg.extract"),
    Probe("derivekit.genalg", "generate_derivation", "genalg.attempt", ok=_not_none),
    Probe("derivekit.genalg", "passes_char_filter", "genalg.filter"),
    Probe("derivekit.genalg", "passes_token_filter", "genalg.filter"),
    Probe("derivekit.records", "load_derivation_records", "records.load"),
    Probe("derivekit.records", "load_prompt_records", "records.load"),
    Probe("derivekit.records", "write_jsonl", "records.write"),
    Probe("derivekit.prompts", "build_prompt", "prompts.build"),
    Probe("derivekit.prompts", "build_fewshot", "prompts.fewshot"),
    Probe("derivekit.perturb", "rename_variables", "perturb.vr"),
    Probe("derivekit.perturb", "exchange_expressions", "perturb.ee"),
    Probe("derivekit.perturb", "alternative_goal", "perturb.ag"),
    Probe("derivekit.perturb", "remove_steps", "perturb.sr", ok=_not_none),
    Probe("derivekit.stats", "build_stats", "stats.build"),
    Probe("derivekit.metrics", "score_all", "metrics.score_all", tally=_score_tokens),
    Probe("derivekit.metrics", "rouge", "metrics.rouge"),
    Probe("derivekit.metrics", "rouge_l", "metrics.rouge"),
    Probe("derivekit.metrics", "bleu", "metrics.bleu"),
    Probe("derivekit.metrics", "gleu", "metrics.gleu"),
    Probe("derivekit.metrics", "build_score_report", "metrics.report"),
    Probe("derivekit.client", "query_model", "client.request"),
)


@dataclass
class SpanStats:
    calls: int = 0
    ok: int = 0
    self_s: float = 0.0
    tally: int = 0
    durations: list[float] = field(default_factory=list)


class Tracer:
    """Collects spans while active; use as a context manager."""

    def __init__(self, probes=PROBES):
        self.probes = probes
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.ok = array("b")
        self.tallies: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- span recording ---------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        index = len(self.start)
        self.name_id.append(self._nid(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.ok.append(1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int, ok: bool = True) -> None:
        self.end[index] = perf_counter()
        self.ok[index] = ok
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a block, such as one command of the benchmark."""
        index = self.open(name)
        ok = False
        try:
            yield
            ok = True
        finally:
            self.close(index, ok)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, probe: Probe):
        tracer = self
        fixed = probe.span if isinstance(probe.span, str) else None
        name_of, ok_of, tally_of = probe.span, probe.ok, probe.tally

        def wrapper(*args, **kwargs):
            name = fixed if fixed is not None else name_of(args)
            if tally_of is not None:
                tracer.tallies[name] = tracer.tallies.get(name, 0) + tally_of(args)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(index, False)
                raise
            tracer.close(index, ok_of(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "derivekit" or n.startswith("derivekit."))]
        for probe in self.probes:
            original = getattr(importlib.import_module(probe.module), probe.attr)
            wrapper = self._wrap(original, probe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        return self

    def __exit__(self, exc_type, exc, tb):
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()
        return False

    # -- results ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def stats(self) -> dict[str, SpanStats]:
        """Per span name: calls, successes, summed self time, durations."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: SpanStats() for name in self.names}
        for i in range(n):
            s = out[self.names[self.name_id[i]]]
            dur = self.end[i] - self.start[i]
            s.calls += 1
            s.ok += self.ok[i]
            s.self_s += dur - child[i]
            s.durations.append(dur)
        for name, value in self.tallies.items():
            out.setdefault(name, SpanStats()).tally = value
        return out

    def write(self, path) -> None:
        """Write every span as CSV (index, name, start_s, end_s, parent, ok)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,ok\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name_id[i]]},{self.start[i] - t0:.9f},"
                         f"{self.end[i] - t0:.9f},{self.parent[i]},{self.ok[i]}\n")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
