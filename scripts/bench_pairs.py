#!/usr/bin/env python3
"""Alternating parent/change pairs of perfbench runs, summarized as BENCH_<pr>.json.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --pr N \
        [--workload generate --workload reload ...] [--seeds 0-9] \
        [--held-out 1000] [--seconds 15] [--out BENCH_N.json]

DIR is a derivekit checkout (for the parent, say, a ``git archive`` of the
parent commit unpacked into a directory). For each workload and each seed the
script runs ``perfbench/run.py --trace 0`` once in each checkout, with
``PYTHONDONTWRITEBYTECODE=1``; the side that runs first alternates from pair
to pair (the parent first in pairs 0, 2, 4, ...). Held-out seeds run after
the others and are reported apart.

The JSON holds every run, and per workload and end-to-end metric: each
pair's values, each side's median and inclusive quartiles over the non-held-out
pairs, the ratio of the medians, the pairs the change wins (the direction
comes from BENCHMARK.json), and whether the medians differ by more than the
parent's interquartile range. Each side's commit is the one run.py reports
(marked when the checkout has uncommitted changes), or, in a ``git archive``
checkout, the one in ``scripts/commit_stamp.txt``. It exits 1 if any run's
last line says ``"correct": false`` (run.py itself exits 0 then), after
writing the file. It exits 2 before any run if either checkout's ``src/``
holds a ``__pycache__``: PYTHONDONTWRITEBYTECODE stops Python writing
bytecode, not reading it, so that side would skip compiling its sources.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
# holds "$Format:%H$" in a git checkout; .gitattributes marks it export-subst,
# so git archive writes the archived commit in its place
STAMP = Path("scripts") / "commit_stamp.txt"


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run.py run in `checkout`: its last line, and its run record."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        last = {"correct": False, "failed": None, "metrics": {}}
    record = next((json.loads(line[5:]) for line in lines if line.startswith("run: ")), {})
    return {"correct": proc.returncode == 0 and last.get("correct") is True,
            "failed": last.get("failed"),
            "metrics": {k: v["value"] for k, v in last.get("metrics", {}).items()},
            "machine": record.get("machine", {}),
            "stderr": proc.stderr.strip().splitlines()[-3:]}


def checkout_commit(checkout: Path, reported: Optional[str]) -> Optional[str]:
    """The commit run.py reports for `checkout`, marked when the checkout has
    uncommitted changes (run.py reports HEAD either way), or, where run.py
    could not ask git (a git archive checkout), the commit in the stamp."""
    if reported and not reported.startswith("unknown"):
        status = subprocess.run(["git", "status", "--porcelain"], cwd=checkout,
                                capture_output=True, text=True).stdout
        return f"{reported} with uncommitted changes" if status.strip() else reported
    try:
        stamp = (checkout / STAMP).read_text("utf-8").strip()
    except OSError:
        return reported
    return stamp if stamp and not stamp.startswith("$Format") else reported


def summary(pairs: list[dict], better: str) -> dict:
    def stats(values: list[float]) -> dict:
        q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                          if len(values) > 1 else values * 3)
        return {"median": median, "q1": q1, "q3": q3}

    def wins(rows: list[dict]) -> str:
        won = sum((p["change"] > p["parent"]) if better == "higher" else
                  (p["change"] < p["parent"]) for p in rows)
        return f"{won}/{len(rows)}"

    timed = [p for p in pairs if not p["held_out"]]
    held = [p for p in pairs if p["held_out"]]
    out: dict = {"better": better}
    if timed:
        parent = stats([p["parent"] for p in timed])
        change = stats([p["change"] for p in timed])
        out.update(parent=parent, change=change,
                   ratio_of_medians=change["median"] / parent["median"],
                   wins=wins(timed),
                   median_gap_exceeds_parent_iqr=(
                       abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"]))
    if held:
        out["held_out_wins"] = wins(held)
    out["wins_all_pairs"] = wins(pairs)
    out["pairs"] = [{k: p[k] for k in ("seed", "first", "held_out", "parent", "change")}
                    for p in pairs]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--pr", required=True)
    parser.add_argument("--workload", action="append", dest="workloads")
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--held-out", default="1000")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seeds = [(s, False) for s in parse_seeds(args.seeds)]
    seeds += [(s, True) for s in parse_seeds(args.held_out)]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in sides.items():
        caches = sorted((path / "src").rglob("__pycache__"))
        if caches:
            parser.error(f"--{side} holds {caches[0]}, which its runs would read in place of "
                         "compiling; delete it (running pytest there writes it)")

    runs: list[dict] = []
    result: dict = {"pr": args.pr, "method": (
        f"perfbench/run.py --seconds {args.seconds} --trace 0 per workload and seed, once "
        "in each checkout, with PYTHONDONTWRITEBYTECODE=1; the side that runs first "
        "alternates (the parent first in even-numbered pairs); quartiles are inclusive "
        "quartiles over the pairs that are not held out"),
        "seconds": args.seconds, "workloads": {}, "runs": runs}
    for workload in workloads:
        pairs = []
        for k, (seed, held_out) in enumerate(seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0], "held_out": held_out}
            for side in order:
                run = run_once(sides[side], workload, seed, args.seconds)
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "first": order[0], **run})
                pair[side] = run["metrics"]
                print(f"{workload} seed {seed} {side}: correct={run['correct']} "
                      f"{run['metrics']}", file=sys.stderr, flush=True)
            pairs.append(pair)
        ok = all(r["correct"] for r in runs if r["workload"] == workload)
        metrics = {}
        for name in better:
            rows = [{**p, "parent": p["parent"][name], "change": p["change"][name]}
                    for p in pairs if name in p["parent"] and name in p["change"]]
            metrics[name] = summary(rows, better[name]) if rows else None
        result["workloads"][workload] = {"all_runs_correct": ok, "metrics": metrics}
    machine = next((r["machine"] for r in runs if r["machine"]), {})
    result["machine"] = {k: v for k, v in machine.items() if k != "commit"}
    result["commits"] = {side: checkout_commit(path, next((
        r["machine"].get("commit") for r in runs if r["side"] == side and r["machine"]), None))
        for side, path in sides.items()}
    result["all_runs_correct"] = all(r["correct"] for r in runs)
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", "utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0 if result["all_runs_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
