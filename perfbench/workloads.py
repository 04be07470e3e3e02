"""The three benchmark workloads, driven through ``derivekit.cli.main``.

Every workload is closed-loop and single-client: the next command starts when
the previous one has returned. A workload has a set-up, run several times per
benchmark run (each set-up builds one independent shard of inputs), and a
pass, repeated until the run's time is up. Each command's outputs are hashed
and compared with the pinned digests (``pins.json``) and with the same
command's earlier outputs in the run.
"""
from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from fractions import Fraction
from http.server import HTTPServer
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

from derivekit.cli import main as derivekit_main

ROOT = Path(__file__).resolve().parent.parent

# Sizes, chosen on seeds 0-9 (see perfbench/README.md). A generate run
# measures at least 2,400 distinct generated records; a reload pass reads
# 540 stored records and an evaluate pass scores about 800 rows.
GEN_COUNT = 80         # records kept per `generate` command
GEN_CYCLE = 30         # distinct `generate` inputs per seed, cycled
GEN_SETUPS = 11        # fresh-process start-ups timed per run
RELOAD_STATIC = 100    # static records per reload shard
TRAIN = 80             # training records per reload shard
EVAL_STATIC = 60       # static records per evaluate shard
SHARDS = 3             # set-ups per run for reload and evaluate
KINDS = ("vr", "ee", "ag", "sr")


def sub_seed(seed: int, tag: str) -> int:
    """The program seed for one input of a benchmark seed."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


# Seconds one reference block takes on the machine the bounds were set on.
REF_S = 0.010


def reference_block() -> float:
    """Time a fixed piece of pure-Python work (fractions, tuple-keyed dicts,
    sorting, JSON) that is independent of derivekit.

    On a shared host the speed of the whole machine drifts, by up to 2x
    within a minute; blocks run between commands track that drift, so
    timings can be reported at the reference speed (see README.md). The
    cyclic garbage collector is off during the block, so its time does not
    depend on how many objects derivekit keeps alive.
    """
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


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Session:
    """Runs derivekit commands in-process; counts operations and failures.

    An operation is a command, a record verified, a request sent or a row
    scored. A command fails on a nonzero exit or when one of its outputs
    differs from its pin or from an earlier run of the same command.
    """

    def __init__(self, workdir: Path, pins: Optional[dict[str, str]]):
        self.workdir = workdir
        self.pins = pins
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.cmd_s: dict[str, float] = defaultdict(float)
        self.counters: Counter = Counter()
        self.tracer = None
        self.ref_s: list[float] = []

    def calibrate(self) -> None:
        """Run one reference block, outside any command's timing."""
        self.ref_s.append(reference_block())

    def operations(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{failed}/{attempted} {what} failed")

    def check(self, key: str, path: Path) -> list[str]:
        if not path.is_file():
            return [f"{key} was not written"]
        digest = sha256_file(path)
        problems = []
        if self.seen.setdefault(key, digest) != digest:
            problems.append(f"{key} differs from its first output in this run")
        if self.pins is not None:
            pinned = self.pins.get(key)
            if pinned is None:
                problems.append(f"{key} has no pinned digest")
            elif pinned != digest:
                problems.append(f"{key} sha256 {digest[:16]} != pinned {pinned[:16]}")
        return problems

    def cli(self, *argv, outputs: dict[str, Path] | None = None) -> str:
        """Run one command; return what it printed on stdout."""
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        root = self.tracer.span(f"cli.{argv[0]}") if self.tracer else nullcontext()
        self.calibrate()
        start = perf_counter()
        with redirect_stdout(out), redirect_stderr(err), root:
            code = derivekit_main(argv)
        self.cmd_s[argv[0]] += perf_counter() - start
        problems = [f"exit {code}: {err.getvalue().strip()[:200]}"] if code != 0 else []
        for key, path in (outputs or {}).items():
            problems += self.check(key, path)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{argv[0]}: {p}" for p in problems]
        return out.getvalue()

    def generate(self, count: int, seed: int, path: Path, key: str) -> None:
        summary = json.loads(self.cli("generate", "--count", count, "--seed", seed,
                                      "--out", path, outputs={key: path}))
        for field in ("attempts", "produced", "retry_exhausted", "char_filtered",
                      "token_filtered"):
            self.counters[field] += summary[field]
        if summary["produced"] != count:
            self.operations(1, 1, f"generate of {count} records (shortfall)")


class Workload:
    name = ""
    setups = SHARDS
    inputs = 1  # passes with distinct inputs; pass i uses input i mod inputs

    def __init__(self, session: Session, seed: int, pass_shards: int = SHARDS):
        self.s = session
        self.seed = seed
        self.pass_shards = pass_shards

    def shard(self, k: int) -> tuple[Path, Callable[[str], dict[str, Path]]]:
        """Shard k's directory and a function naming its outputs for the
        digest check."""
        path = self.s.workdir / f"shard{k}"
        path.mkdir(parents=True, exist_ok=True)
        return path, lambda name: {f"shard{k}/{name}": path / name}

    def setup(self, k: int) -> None:
        raise NotImplementedError

    def run_pass(self, i: int) -> int:
        """Run one timed pass; return the items it processed."""
        raise NotImplementedError

    def finish(self) -> None:
        """Untimed checks after the last pass."""

    def sizes(self) -> dict:
        raise NotImplementedError


class Generate(Workload):
    """`generate` of the default GenConfig; an item is a kept record.

    Set-up is the start-up a user pays for each command: a fresh interpreter
    importing derivekit and loading the vocabulary. Pass i generates input
    i mod GEN_CYCLE, so one run covers many distinct derivations.
    """

    name = "generate"
    setups = GEN_SETUPS
    inputs = GEN_CYCLE

    def setup(self, k: int) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        code = ("from derivekit.cli import main; from derivekit.genalg import GenConfig; "
                "GenConfig().load_vocabulary()")
        # No timeout: with one, Popen.wait polls in steps of up to 50 ms,
        # which would quantise the measured start-up time.
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)

    def run_pass(self, i: int) -> int:
        k = i % self.inputs
        name = f"gen{k:02d}.jsonl"
        self.s.generate(GEN_COUNT, sub_seed(self.seed, f"gen{k}"), self.s.workdir / name, name)
        return GEN_COUNT

    def finish(self) -> None:
        report = json.loads(self.s.cli("verify", "--in", self.s.workdir / "gen00.jsonl"))
        self.s.operations(report["records"], report["invalid"], "generated records verified")

    def sizes(self) -> dict:
        return {"count": GEN_COUNT, "cycle": GEN_CYCLE, "setups": GEN_SETUPS}


class Reload(Workload):
    """Read side: verify, stats, prompt and perturb over stored splits.

    Set-up k generates static split k and training split k with the
    program's own commands and renders the training prompts; the few-shot
    pool is every shard's training prompts together. A pass runs, for every
    shard, what the dataset build runs on stored records: verify and stats
    on both splits, prompts (fine-tuning and few-shot) and the four
    perturbations on the static split. An item is an input record (static
    or training) per pass.
    """

    name = "reload"

    def setup(self, k: int) -> None:
        d, out = self.shard(k)
        s = self.s
        s.generate(RELOAD_STATIC, sub_seed(self.seed, f"static{k}"), d / "static.jsonl",
                   f"shard{k}/static.jsonl")
        s.generate(TRAIN, sub_seed(self.seed, f"train{k}"), d / "train.jsonl",
                   f"shard{k}/train.jsonl")
        s.cli("prompt", "--mode", "finetune", "--in", d / "train.jsonl",
              "--out", d / "train_prompts.jsonl", outputs=out("train_prompts.jsonl"))

    def pool(self) -> Path:
        path = self.s.workdir / "pool.jsonl"
        if not path.exists():
            _concat([self.shard(k)[0] / "train_prompts.jsonl" for k in range(self.setups)],
                    path)
        return path

    def run_pass(self, i: int) -> int:
        s = self.s
        pool = self.pool()
        for k in range(self.pass_shards):
            d, out = self.shard(k)
            for split in ("static", "train"):
                report = json.loads(s.cli("verify", "--in", d / f"{split}.jsonl",
                                          "--report", d / f"{split}_verify.json",
                                          outputs=out(f"{split}_verify.json")))
                s.operations(report["records"], report["invalid"], "records verified")
                s.cli("stats", "--in", d / f"{split}.jsonl", "--out", d / f"{split}_stats.json",
                      outputs=out(f"{split}_stats.json"))
            s.cli("prompt", "--mode", "finetune", "--in", d / "static.jsonl",
                  "--out", d / "static_prompts.jsonl", outputs=out("static_prompts.jsonl"))
            s.cli("prompt", "--mode", "fewshot", "--in", d / "static_prompts.jsonl",
                  "--train", pool, "--seed", sub_seed(self.seed, f"fewshot{k}"),
                  "--out", d / "static_fewshot.jsonl", outputs=out("static_fewshot.jsonl"))
            for kind in KINDS:
                report = json.loads(s.cli(
                    "perturb", "--kind", kind, "--seed", sub_seed(self.seed, f"perturb{k}"),
                    "--in", d / "static.jsonl", "--out", d / f"{kind}.jsonl",
                    "--prompts-out", d / f"{kind}_prompts.jsonl",
                    outputs={**out(f"{kind}.jsonl"), **out(f"{kind}_prompts.jsonl")}))
                s.counters["skipped"] += len(report["skipped"])
        return (RELOAD_STATIC + TRAIN) * self.pass_shards

    def sizes(self) -> dict:
        return {"static": RELOAD_STATIC, "train": TRAIN, "setups": self.setups,
                "pass_shards": self.pass_shards}


@contextmanager
def echo_server(session: Session):
    """The repository's mock endpoint (tail-only echo) in one server thread;
    requests that reach it are counted in ``server_attempts``."""
    scripts = str(ROOT / "scripts")
    if scripts not in sys.path:
        sys.path.insert(0, scripts)
    from mock_model_server import EchoHandler

    class CountingEchoHandler(EchoHandler):
        def do_POST(self):
            session.counters["server_attempts"] += 1
            super().do_POST()

        def log_message(self, fmt, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), CountingEchoHandler)
    server.tail_only = True
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              name="echo-server")
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/v1"
    finally:
        server.shutdown()
        thread.join(timeout=60)
        server.server_close()
        if thread.is_alive():
            raise RuntimeError("mock server thread did not stop")


class Evaluate(Workload):
    """Scoring: `score` with pairwise tables and a feature CSV.

    Set-up k builds static split k, its prompts and its four perturbed
    prompt sets, and collects a completion for every prompt from the
    in-process echo server. A pass scores every shard. An item is a scored
    row.
    """

    name = "evaluate"
    traced_setup = True

    def setup(self, k: int) -> None:
        d, out = self.shard(k)
        s = self.s
        s.generate(EVAL_STATIC, sub_seed(self.seed, f"static{k}"), d / "static.jsonl",
                   f"shard{k}/static.jsonl")
        s.cli("prompt", "--mode", "finetune", "--in", d / "static.jsonl",
              "--out", d / "static_prompts.jsonl", outputs=out("static_prompts.jsonl"))
        for kind in KINDS:
            s.cli("perturb", "--kind", kind, "--seed", sub_seed(self.seed, f"perturb{k}"),
                  "--in", d / "static.jsonl", "--out", d / f"{kind}.jsonl",
                  "--prompts-out", d / f"{kind}_prompts.jsonl",
                  outputs={**out(f"{kind}.jsonl"), **out(f"{kind}_prompts.jsonl")})
        _concat([d / f"{name}_prompts.jsonl" for name in ("static",) + KINDS],
                d / "prompts.jsonl")
        with echo_server(s) as base_url:
            done = json.loads(s.cli("collect", "--in", d / "prompts.jsonl",
                                    "--out", d / "preds.jsonl",
                                    "--errors-out", d / "errors.jsonl",
                                    "--base-url", base_url, "--model", "mock",
                                    outputs={**out("preds.jsonl"), **out("errors.jsonl")}))
        s.operations(done["completed"] + done["failed"], done["failed"], "requests")

    def run_pass(self, i: int) -> int:
        s = self.s
        rows = 0
        for k in range(self.pass_shards):
            d, out = self.shard(k)
            aggregates = json.loads(s.cli(
                "score", "--pred", d / "preds.jsonl", "--ref", d / "prompts.jsonl",
                "--out", d / "report.json", "--features-out", d / "features.csv",
                outputs={**out("report.json"), **out("features.csv")}))
            rows += aggregates["n"]
        s.operations(rows, 0, "rows scored")
        return rows

    def sizes(self) -> dict:
        return {"static": EVAL_STATIC, "setups": self.setups, "pass_shards": self.pass_shards}


def _concat(parts: list[Path], dest: Path) -> None:
    dest.write_bytes(b"".join(p.read_bytes() for p in parts))


WORKLOADS = {w.name: w for w in (Generate, Reload, Evaluate)}
