"""Per-layer metrics of the traced run, computed from spans and from the
counts the commands print.

``CATALOGUE`` is the single list of per-layer metric names, units and better
directions; ``BENCHMARK.json`` lists the same names and ``run.py`` refuses to
report if the two disagree. Metrics of a layer a workload does not reach read
0 (ratios over zero attempts read 0 as well).
"""
from __future__ import annotations

from derivekit.ops import REGISTRY

from spans import SpanStats, median, percentile

OPS = tuple(REGISTRY)
COMMANDS = ("generate", "verify", "stats", "prompt", "perturb", "score")


def _catalogue() -> list[tuple[str, str, str]]:
    rows = [
        ("expr.ctor_calls", "count", "lower"),
        ("expr.ctor_self_s", "s", "lower"),
    ]
    for ctor in ("add", "mul", "pow"):
        rows += [(f"expr.{ctor}_calls", "count", "lower"),
                 (f"expr.{ctor}_self_s", "s", "lower")]
    rows += [
        ("latex.render_calls", "count", "lower"),
        ("latex.render_self_s", "s", "lower"),
        ("latex.lexeme_calls", "count", "lower"),
        ("latex.lexeme_self_s", "s", "lower"),
        ("latex.parse_calls", "count", "lower"),
        ("latex.parse_self_s", "s", "lower"),
        ("latex.parse_us_per_eq", "us", "lower"),
        ("calculus.diff_calls", "count", "lower"),
        ("calculus.diff_self_s", "s", "lower"),
        ("calculus.eval_calls", "count", "lower"),
        ("calculus.eval_self_s", "s", "lower"),
        ("calculus.eval_fail_ratio", "ratio", "lower"),
        ("ops.apply_calls", "count", "lower"),
        ("ops.apply_self_s", "s", "lower"),
        ("ops.apply_ok_ratio", "ratio", "higher"),
    ]
    for op in OPS:
        rows += [(f"ops.apply.{op}.calls", "count", "lower"),
                 (f"ops.apply.{op}.self_s", "s", "lower"),
                 (f"ops.apply.{op}.ok_ratio", "ratio", "higher")]
    rows += [
        ("ops.replay_calls", "count", "lower"),
        ("ops.replay_self_s", "s", "lower"),
        ("ops.check_self_s", "s", "lower"),
        ("genalg.attempts", "count", "lower"),
        ("genalg.kept", "count", "higher"),
        ("genalg.keep_ratio", "ratio", "higher"),
        ("genalg.retry_exhausted", "count", "lower"),
        ("genalg.char_filtered", "count", "lower"),
        ("genalg.token_filtered", "count", "lower"),
        ("genalg.draws", "count", "lower"),
        ("genalg.draw_accept_ratio", "ratio", "higher"),
        ("genalg.draw_self_s", "s", "lower"),
        ("genalg.extract_self_s", "s", "lower"),
        ("genalg.filter_self_s", "s", "lower"),
        ("genalg.attempt_ms_p50", "ms", "lower"),
        ("genalg.attempt_ms_p95", "ms", "lower"),
        ("records.load_self_s", "s", "lower"),
        ("records.write_self_s", "s", "lower"),
        ("prompts.build_calls", "count", "lower"),
        ("prompts.build_self_s", "s", "lower"),
        ("prompts.fewshot_self_s", "s", "lower"),
        ("perturb.vr_self_s", "s", "lower"),
        ("perturb.ee_self_s", "s", "lower"),
        ("perturb.ag_self_s", "s", "lower"),
        ("perturb.sr_self_s", "s", "lower"),
        ("perturb.skipped", "count", "lower"),
        ("stats.build_self_s", "s", "lower"),
        ("metrics.score_all_calls", "count", "lower"),
        ("metrics.rouge_self_s", "s", "lower"),
        ("metrics.bleu_self_s", "s", "lower"),
        ("metrics.gleu_self_s", "s", "lower"),
        ("metrics.report_self_s", "s", "lower"),
        ("metrics.tokens", "count", "lower"),
        ("client.requests", "count", "lower"),
        ("client.attempts", "count", "lower"),
        ("client.errors", "count", "lower"),
        ("client.request_ms_p50", "ms", "lower"),
        ("client.request_ms_p98", "ms", "lower"),
    ]
    rows += [(f"cmd.{c}_s", "s", "lower") for c in COMMANDS]
    rows.append(("trace.overhead_ratio", "ratio", "lower"))
    return rows


CATALOGUE = _catalogue()
# Metrics that are functions of the inputs alone; two traced runs of the
# same inputs must agree on them exactly.
EXACT = tuple(name for name, unit, _ in CATALOGUE if unit in ("count", "ratio")
              and name != "trace.overhead_ratio")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: dict[str, SpanStats], client_spans: dict[str, SpanStats],
                  counters: dict[str, int]) -> dict[str, float]:
    """Per-layer values from the pass spans, the set-up client spans and the
    counts the commands printed (generation summary, perturb skips, server
    attempts). ``cmd.*`` and ``trace.overhead_ratio`` are added by the
    caller."""
    empty = SpanStats()

    def s(name: str) -> SpanStats:
        return spans.get(name, empty)

    def total(*names: str) -> tuple[int, int, float]:
        picked = [s(n) for n in names]
        return (sum(p.calls for p in picked), sum(p.ok for p in picked),
                sum(p.self_s for p in picked))

    m: dict[str, float] = {}

    def calls_and_self(metric: str, *names: str) -> None:
        calls, _, self_s = total(*names)
        m[f"{metric}_calls"], m[f"{metric}_self_s"] = calls, self_s

    calls_and_self("expr.ctor", "expr.add", "expr.mul", "expr.pow_")
    for ctor, span in (("add", "expr.add"), ("mul", "expr.mul"), ("pow", "expr.pow_")):
        calls_and_self(f"expr.{ctor}", span)

    calls_and_self("latex.render", "latex.render")
    calls_and_self("latex.lexeme", "latex.lexeme")
    calls_and_self("latex.parse", "latex.parse", "latex.parse_eq")
    eq = s("latex.parse_eq")
    m["latex.parse_us_per_eq"] = 1e6 * _ratio(eq.self_s, eq.calls)

    calls_and_self("calculus.diff", "calculus.diff")
    calls_and_self("calculus.eval", "calculus.eval")
    ev = s("calculus.eval")
    m["calculus.eval_fail_ratio"] = _ratio(ev.calls - ev.ok, ev.calls)

    apply_names = [f"ops.apply.{op}" for op in OPS]
    calls_and_self("ops.apply", *apply_names)
    calls, ok, _ = total(*apply_names)
    m["ops.apply_ok_ratio"] = _ratio(ok, calls)
    for op, name in zip(OPS, apply_names):
        m[f"ops.apply.{op}.calls"] = s(name).calls
        m[f"ops.apply.{op}.self_s"] = s(name).self_s
        m[f"ops.apply.{op}.ok_ratio"] = _ratio(s(name).ok, s(name).calls)
    calls_and_self("ops.replay", "ops.replay")
    m["ops.check_self_s"] = s("ops.check").self_s

    attempts = counters.get("attempts", 0)
    m["genalg.attempts"] = attempts
    m["genalg.kept"] = counters.get("produced", 0)
    m["genalg.keep_ratio"] = _ratio(m["genalg.kept"], attempts)
    for key in ("retry_exhausted", "char_filtered", "token_filtered"):
        m[f"genalg.{key}"] = counters.get(key, 0)
    draw = s("genalg.draw")
    m["genalg.draws"] = draw.calls
    m["genalg.draw_accept_ratio"] = _ratio(draw.ok, draw.calls)
    m["genalg.draw_self_s"] = draw.self_s
    m["genalg.extract_self_s"] = s("genalg.extract").self_s
    m["genalg.filter_self_s"] = s("genalg.filter").self_s
    m["genalg.attempt_ms_p50"] = 1e3 * median(s("genalg.attempt").durations)
    m["genalg.attempt_ms_p95"] = 1e3 * percentile(s("genalg.attempt").durations, 95)

    m["records.load_self_s"] = s("records.load").self_s
    m["records.write_self_s"] = s("records.write").self_s
    calls_and_self("prompts.build", "prompts.build")
    m["prompts.fewshot_self_s"] = s("prompts.fewshot").self_s
    for kind in ("vr", "ee", "ag", "sr"):
        m[f"perturb.{kind}_self_s"] = s(f"perturb.{kind}").self_s
    m["perturb.skipped"] = counters.get("skipped", 0)
    m["stats.build_self_s"] = s("stats.build").self_s

    m["metrics.score_all_calls"] = s("metrics.score_all").calls
    for name in ("rouge", "bleu", "gleu", "report"):
        m[f"metrics.{name}_self_s"] = s(f"metrics.{name}").self_s
    m["metrics.tokens"] = s("metrics.score_all").tally

    request = client_spans.get("client.request", empty)
    m["client.requests"] = request.calls
    m["client.attempts"] = counters.get("server_attempts", 0)
    m["client.errors"] = request.calls - request.ok
    m["client.request_ms_p50"] = 1e3 * median(request.durations)
    m["client.request_ms_p98"] = 1e3 * percentile(request.durations, 98)
    return m
