#!/usr/bin/env python3
"""End-to-end dataset build: training split, static test split, the four
perturbed sets, fine-tuning and few-shot prompts, and dataset statistics.

Full-scale sizes (tens of thousands of records) take a while; the defaults build a
small but fully structured mirror of the pipeline. Example:

    python scripts/build_datasets.py --out data_build --train 600 --static 200

Every command runs in this process, so a derivation file that several
commands read is parsed once: the process keeps the records of the last two
derivation files it loaded, which holds both splits while the commands on
the static split run between the training split's prompts and its verify.
Each command's wall time goes to stderr as `<seconds> <command
line>`; stdout holds each command's own output, then the record counts.
"""
import argparse
import json
import sys
import time
from pathlib import Path

from derivekit.cli import main as cli


def commands(out: Path, train: int, static: int, seed: int) -> list[list[str]]:
    """The derivekit command lines of the build, in the order they run."""
    argvs = [
        # disjoint seeds give disjoint training and held-out static splits
        ["generate", "--count", train, "--seed", seed, "--out", out / "train.jsonl"],
        ["generate", "--count", static, "--seed", seed + 1, "--out", out / "static.jsonl"],
        ["prompt", "--mode", "finetune", "--in", out / "train.jsonl",
         "--out", out / "train_prompts.jsonl"],
        ["prompt", "--mode", "finetune", "--in", out / "static.jsonl",
         "--out", out / "static_prompts.jsonl"],
    ]
    for kind in ("vr", "ee", "ag", "sr"):
        argvs.append(["perturb", "--kind", kind, "--seed", seed,
                      "--in", out / "static.jsonl",
                      "--out", out / f"{kind}.jsonl",
                      "--prompts-out", out / f"{kind}_prompts.jsonl"])
    for name in ("static", "vr", "ee", "ag", "sr"):
        argvs.append(["prompt", "--mode", "fewshot", "--in", out / f"{name}_prompts.jsonl",
                      "--train", out / "train_prompts.jsonl", "--seed", seed,
                      "--out", out / f"{name}_fewshot.jsonl"])
    argvs.append(["verify", "--in", out / "train.jsonl"])
    argvs.append(["stats", "--in", out / "train.jsonl", "--out", out / "train_stats.json"])
    return [[str(a) for a in argv] for argv in argvs]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="data_build")
    parser.add_argument("--train", type=int, default=600)
    parser.add_argument("--static", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    opts = parser.parse_args()

    out = Path(opts.out)
    out.mkdir(parents=True, exist_ok=True)
    for argv in commands(out, opts.train, opts.static, opts.seed):
        start = time.perf_counter()
        code = cli(argv)
        print(f"{time.perf_counter() - start:.3f} {' '.join(argv)}", file=sys.stderr)
        if code != 0:
            sys.exit(code)

    sizes = {p.name: sum(1 for _ in open(p)) for p in sorted(out.glob("*.jsonl"))}
    print(json.dumps(sizes, indent=1))


if __name__ == "__main__":
    main()
