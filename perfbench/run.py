#!/usr/bin/env python3
"""derivekit benchmark.

    python3 perfbench/run.py --workload generate|reload|evaluate --seed N \
        --seconds S --trace 0|1

Run from the root of a derivekit checkout. With ``--trace 0`` it sets up
several times, repeats the workload's pass for ``--seconds`` seconds (and at
least once over every input) and reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it runs one pass untraced and twice
traced and reports the per-layer metrics. The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. A run record (machine, commit, sizes, sample
counts) is printed before it and written under ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
PINS = Path(__file__).resolve().parent / "pins.json"
# Taken before main() restricts the run to one CPU.
NPROC = len(os.sched_getaffinity(0))


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (ROOT / "src" / "derivekit" / "cli.py").is_file():
    fail(f"no derivekit sources under {ROOT / 'src'}; run from a derivekit checkout")
sys.path.insert(0, str(ROOT / "src"))
os.environ["DERIVEKIT_API_TOKEN"] = "perfbench"

import layers  # noqa: E402
from spans import PROBES, Tracer  # noqa: E402
from workloads import REF_S, WORKLOADS, Session  # noqa: E402

CLIENT_PROBES = tuple(p for p in PROBES if p.module == "derivekit.client")
# Calls a workload must not make: the "bypass" side of each workload.
ZERO_CALLS = {"generate": ("latex.parse_calls",),
              "evaluate": ("latex.parse_calls", "genalg.draws")}


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if per_layer != layers.CATALOGUE:
        fail("BENCHMARK.json per_layer differs from perfbench/layers.py CATALOGUE")
    return spec


# Seeds 0-15 and the held-out seed 1000 have pinned digests. Any other seed
# n runs the inputs of seed n mod PINNED_CYCLE, so every run is checked
# against pins.
PINNED_CYCLE = 16


def input_seed(workload: str, seed: int) -> tuple[int, Optional[dict[str, str]]]:
    """The seed whose inputs a run uses, and their pinned digests."""
    pins = json.loads(PINS.read_text("utf-8")).get(workload, {})
    if str(seed) not in pins:
        seed %= PINNED_CYCLE
    return seed, pins.get(str(seed))


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {
        "cpu": cpu,
        "nproc": NPROC,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


def cmd_breakdown(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median over passes of each command's seconds per pass."""
    return {f"cmd.{c}_s": statistics.median(p.get(c, 0.0) for p in per_pass)
            for c in layers.COMMANDS}


def run_pass(session: Session, workload, i: int) -> tuple[int, dict[str, float], float]:
    """One pass; returns its items, seconds per command and total seconds."""
    before = dict(session.cmd_s)
    items = workload.run_pass(i)
    spent = {c: t - before.get(c, 0.0) for c, t in session.cmd_s.items()}
    return items, spent, sum(spent.values())


def scaled(session: Session, unit) -> tuple[object, float, float]:
    """Run ``unit()`` between two reference blocks; return its result, its
    seconds less the blocks it ran, and its slowdown: the mean time of the
    blocks before, during and right after it over ``REF_S`` (> 1 is slower
    than the reference machine)."""
    first = len(session.ref_s)
    session.calibrate()
    start = perf_counter()
    result = unit()
    wall = perf_counter() - start - sum(session.ref_s[first + 1:])
    session.calibrate()
    return result, wall, statistics.mean(session.ref_s[first:]) / REF_S


def item_rate(items: list[int], seconds: list[float], inputs: int) -> float:
    """Items per second with every input weighted equally: the sum of each
    input's mean items over the sum of its mean seconds, however many
    passes each input got."""
    by_input = defaultdict(list)
    for i, pair in enumerate(zip(items, seconds)):
        by_input[i % inputs].append(pair)
    means = [[statistics.mean(col) for col in zip(*pairs)] for pairs in by_input.values()]
    return sum(m[0] for m in means) / sum(m[1] for m in means)


def measure(session: Session, workload, seconds: float) -> tuple[dict, dict]:
    """Set up ``workload.setups`` times, then repeat passes for ``seconds``,
    and at least once over every input.

    Each set-up and each pass is scaled to the reference machine speed by
    its own slowdown (see ``scaled``).
    """
    setups = [scaled(session, lambda k=k: workload.setup(k))
              for k in range(workload.setups)]
    passes = []
    start = perf_counter()
    while len(passes) < workload.inputs or perf_counter() - start < seconds:
        passes.append(scaled(session, lambda: run_pass(session, workload, len(passes))))
    workload.finish()
    items = [p[0][0] for p in passes]
    busy = [p[0][2] for p in passes]
    metrics = {
        "items_per_s": item_rate(items, [t / slow for t, (_, _, slow) in zip(busy, passes)],
                                 workload.inputs),
        "setup_s": statistics.median(t / slow for _, t, slow in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "raw_items_per_s": item_rate(items, busy, workload.inputs),
        "raw_setup_s": statistics.median(t for _, t, _ in setups),
        "setup_s": [t for _, t, _ in setups],
        "setup_slowdown": [slow for _, _, slow in setups],
        "pass_s": busy,
        "pass_slowdown": [slow for _, _, slow in passes],
        "reference_blocks": len(session.ref_s),
        "passes": len(passes),
        "items": sum(items),
        "counters": dict(session.counters),
        **cmd_breakdown([p[0][1] for p in passes]),
    }
    return metrics, detail


def trace(session: Session, workload, seed: int) -> tuple[dict, dict]:
    """Every set-up and one pass untraced, then the pass twice traced. A
    workload whose layer metrics come partly from set-up (``traced_setup``)
    repeats its first set-up under the client probes before each traced
    pass."""
    for k in range(workload.setups):
        workload.setup(k)
    _, untraced_cmds, untraced_s = run_pass(session, workload, 0)
    runs, walls, spans = [], [], []
    for r in range(2):
        session.counters.clear()
        with Tracer(CLIENT_PROBES) as setup_tracer:
            if getattr(workload, "traced_setup", False):
                workload.setup(0)
        server_attempts = session.counters["server_attempts"]
        session.counters.clear()
        with Tracer() as tracer:
            session.tracer = tracer
            try:
                _, _, wall = run_pass(session, workload, 0)
            finally:
                session.tracer = None
        counters = dict(session.counters, server_attempts=server_attempts)
        runs.append(layers.layer_metrics(tracer.stats(), setup_tracer.stats(), counters))
        walls.append(wall)
        spans.append(len(tracer))
        tracer.write(OUT / f"spans-{workload.name}-seed{seed}-run{r}.csv.gz")
    a, b = runs
    for name in layers.EXACT:
        if a[name] != b[name]:
            session.operations(1, 1, f"repeat of count {name} ({a[name]} vs {b[name]})")
    for name in ZERO_CALLS.get(workload.name, ()):
        if a[name] != 0:
            session.operations(1, 1, f"zero-call check {name} = {a[name]}")
    metrics = {name: a[name] if name in layers.EXACT else (a[name] + b[name]) / 2
               for name in a}
    metrics.update(cmd_breakdown([untraced_cmds]))
    metrics["trace.overhead_ratio"] = statistics.mean(walls) / untraced_s
    detail = {"spans": spans, "traced_s": walls, "untraced_s": untraced_s}
    return metrics, detail


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # One CPU for the run and its children, so the reference blocks measure
    # the speed of the core the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spec = load_spec()
    seed, pins = input_seed(args.workload, args.seed)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    session = Session(workdir, pins)
    if pins is None:
        session.operations(1, 1, f"pin lookup: seed {seed} has no pinned digests")
    cls = WORKLOADS[args.workload]
    try:
        if args.trace:
            workload = cls(session, seed, pass_shards=1)
            metrics, detail = trace(session, workload, args.seed)
            wanted = [m["name"] for m in spec["per_layer"]]
        else:
            workload = cls(session, seed)
            metrics, detail = measure(session, workload, args.seconds)
            wanted = [m["name"] for m in spec["end_to_end"]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if sorted(metrics) != sorted(wanted):
        fail(f"metrics {sorted(set(metrics) ^ set(wanted))} disagree with BENCHMARK.json")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "pinned": pins is not None,
        "sizes": workload.sizes(),
        "samples": detail,
        "machine": machine(),
        "attempted": session.attempted,
        "failed": session.failed,
        "error_rate": session.failed / max(session.attempted, 1),
        "problems": session.problems,
        "metrics": metrics,
    }
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", "utf-8")
    for name in wanted:
        print(f"{name:32s} {metrics[name]:>14.6g} {units[name]}")
    if not args.trace:
        for name, value in detail.items():
            if name.startswith("cmd.") and value:
                print(f"{name:32s} {value:>14.6g} s")
    print(f"{'error_rate':32s} {record['error_rate']:>14.6g} ratio")
    for problem in session.problems:
        print(f"problem: {problem}")
    print("run: " + json.dumps({k: record[k] for k in
                                ("workload", "seed", "input_seed", "pinned", "sizes", "machine")}))
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted},
    }))


if __name__ == "__main__":
    main()
