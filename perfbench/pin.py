#!/usr/bin/env python3
"""Compute the sha256 digests of every output the benchmark writes.

    python3 perfbench/pin.py --seeds 0-15,1000 [--write]

For each workload and seed it runs every set-up and one pass over every
distinct input (for ``generate``: every input of the cycle), without timing.
Without ``--write`` it prints the digests. With ``--write`` it adds the
digests of new seeds and new outputs to ``perfbench/pins.json``, but refuses
to change a digest already pinned: to re-pin an output on purpose, delete its
entry from the file first and say why in the change that does it.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run  # sets up the import path; exits if no derivekit sources
from workloads import WORKLOADS, Session


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def digests(name: str, seed: int) -> dict[str, str]:
    workdir = run.OUT / f"pin-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    session = Session(workdir, None)
    workload = WORKLOADS[name](session, seed)
    try:
        for k in range(workload.setups):
            workload.setup(k)
        for i in range(workload.inputs):
            workload.run_pass(i)
        workload.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if session.failed:
        raise SystemExit(f"{name} seed {seed}: {session.problems}")
    return dict(sorted(session.seen.items()))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-15,1000")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()

    computed = {name: {str(seed): digests(name, seed) for seed in parse_seeds(args.seeds)}
                for name in sorted(WORKLOADS)}
    if not args.write:
        print(json.dumps(computed, indent=1))
        return
    pins = json.loads(run.PINS.read_text("utf-8"))
    conflicts = []
    for name, by_seed in computed.items():
        for seed, new in by_seed.items():
            old = pins.setdefault(name, {}).setdefault(seed, {})
            for key, digest in new.items():
                if old.setdefault(key, digest) != digest:
                    conflicts.append(f"{name} seed {seed} {key}")
    if conflicts:
        sys.exit("digests differ from the pinned ones, pins.json left unchanged: "
                 + ", ".join(conflicts))
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", "utf-8")


if __name__ == "__main__":
    main()
