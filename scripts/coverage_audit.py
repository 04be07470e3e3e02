#!/usr/bin/env python3
"""Line-coverage audit of derivekit: which lines of src/ no command runs.

Runs the real CLI pipeline in-process under the stdlib ``trace`` module:
``generate`` for seeds 0 and 1 (seed 1 with the packaged vocabulary given as
a ``--vocabulary`` file), fine-tuning prompts, the four perturbations,
``verify`` and ``stats`` on every split, few-shot prompts, ``collect``
against an in-process mock chat-completions server, and ``score`` with ROUGE
orders 1, 2 and L, with ``--bleurt`` and with ``--pairs``. It then prints
every function in src/derivekit that the pipeline never entered and every
executable line it never ran.

Exit status: 0 when the never-entered functions are exactly the allow-list
below and src/ has exactly ``SRC_LINE_CEILING`` physical lines, 1 when a
function is missing from the allow-list (new code that no command reaches),
an allow-listed function was entered (a stale entry), or src/ has more or
fewer physical lines than ``SRC_LINE_CEILING``. Unexecuted lines inside
entered functions are listed but do not fail the audit: most of them are
branches only bad input reaches, which tests feed instead (see
docs/coverage-audit.md).

    PYTHONPATH=src python3 scripts/coverage_audit.py
"""
from __future__ import annotations

import contextlib
import dis
import importlib.util
import inspect
import io
import json
import os
import sys
import tempfile
import threading
import trace
import types
from http.server import HTTPServer
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "derivekit"

# The physical lines src/ has: a ratchet. A change that shrinks src/ lowers it
# to the new count; one that raises it says by how much in CHANGES.md, next to
# what it buys.
SRC_LINE_CEILING = 4141

# Functions no command enters, each with the reason it stays.
ALLOWED = {
    "expr.Expr.__repr__": "debugging aid",
    "expr.Equation.__repr__": "debugging aid",
    "metrics.rouge": "public metric API; perfbench/spans.py PROBES resolve it",
    "metrics.bleu": "public metric API; perfbench/spans.py PROBES resolve it",
    "metrics.gleu": "public metric API; perfbench/spans.py PROBES resolve it",
    "metrics.manual_score": "the paper's manual scoring (README)",
    "latex.LatexParseError.__init__": "parser error; only bad input raises it",
    "latex._Parser.fail": "parser error helper; only bad input reaches it",
    "latex._Parser.too_deep": "parser error helper; only bad input reaches it",
    "latex._Parser.pos": "parser error helper; only bad input reaches it",
}


def _load_mock_server():
    spec = importlib.util.spec_from_file_location(
        "mock_model_server", ROOT / "scripts" / "mock_model_server.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pipeline(work: Path) -> None:
    """The commands the audit traces; each must exit 0 (verify: 0 or 1)."""
    from derivekit.cli import main

    def run(*args, ok=(0,)) -> None:
        code = main([str(a) for a in args])
        if code not in ok:
            raise SystemExit(f"derivekit {' '.join(map(str, args))} exited {code}")

    run("generate", "--count", 60, "--seed", 0, "--out", work / "train.jsonl")
    # the packaged vocabulary, read as a file: a file's names get the read-back check
    run("generate", "--count", 40, "--seed", 1, "--vocabulary", SRC / "data" / "vocabulary.json",
        "--out", work / "static.jsonl")
    splits = ["train", "static"]
    for split in splits:
        run("prompt", "--mode", "finetune", "--in", work / f"{split}.jsonl",
            "--out", work / f"{split}_prompts.jsonl")
    for kind in ("vr", "ee", "ag", "sr"):
        run("perturb", "--kind", kind, "--seed", 0, "--in", work / "static.jsonl",
            "--out", work / f"{kind}.jsonl", "--prompts-out", work / f"{kind}_prompts.jsonl")
        splits.append(kind)
    for split in splits:
        # exit 1 is a verdict, not a failure: VR rename steps need not replay
        run("verify", "--in", work / f"{split}.jsonl", "--report", work / f"{split}_verify.json",
            ok=(0, 1))
        run("stats", "--in", work / f"{split}.jsonl", "--out", work / f"{split}_stats.json")
    run("stats", "--in", work / "train.jsonl")
    evaluated = splits[1:]
    for split in evaluated:
        run("prompt", "--mode", "fewshot", "--in", work / f"{split}_prompts.jsonl",
            "--train", work / "train_prompts.jsonl", "--seed", 0,
            "--out", work / f"{split}_fewshot.jsonl")

    server = HTTPServer(("127.0.0.1", 0), _load_mock_server().EchoHandler)
    server.tail_only = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    os.environ["DERIVEKIT_AUDIT_TOKEN"] = "audit"
    try:
        for split in evaluated:
            run("collect", "--in", work / f"{split}_fewshot.jsonl",
                "--out", work / f"{split}_completions.jsonl",
                "--errors-out", work / f"{split}_errors.jsonl",
                "--base-url", f"http://127.0.0.1:{server.server_address[1]}/v1",
                "--model", "mock", "--token-env", "DERIVEKIT_AUDIT_TOKEN")
    finally:
        server.shutdown()
        server.server_close()

    def concat(name: str, parts: list[str]) -> Path:
        out = work / name
        out.write_text("".join((work / p).read_text("utf-8") for p in parts), "utf-8")
        return out

    preds = concat("preds.jsonl", [f"{s}_completions.jsonl" for s in evaluated])
    refs = concat("refs.jsonl", [f"{s}_prompts.jsonl" for s in evaluated])
    rows = [json.loads(line) for line in refs.read_text("utf-8").splitlines()]
    bleurt = work / "bleurt.jsonl"
    bleurt.write_text("".join(json.dumps({"id": r["id"], "static_id": r["static_id"],
                                          "perturbation": r["perturbation"], "score": 0.5})
                              + "\n" for r in rows), "utf-8")
    pairs = work / "pairs.jsonl"
    pairs.write_text("".join(json.dumps({"id": r["id"], "perturbation": r["perturbation"],
                                         "static_id": r["static_id"]}) + "\n"
                             for r in rows if r["perturbation"]), "utf-8")
    for order in ("1", "2", "L"):
        run("score", "--pred", preds, "--ref", refs, "--rouge-order", order,
            "--out", work / f"score_{order}.json", "--features-out", work / f"f_{order}.csv")
    run("score", "--pred", preds, "--ref", refs, "--bleurt", bleurt,
        "--out", work / "score_bleurt.json")
    run("score", "--pred", preds, "--ref", refs, "--pairs", pairs,
        "--out", work / "score_pairs.json")


# ---------------------------------------------------------------------------
# line and function tables

def _lines(code: types.CodeType) -> set[int]:
    return {line for _, line in dis.findlinestarts(code) if line}


def _functions(code: types.CodeType, prefix: str):
    """(qualified name, body lines) of every def below `code`; a function's
    own first line (its def or decorator) belongs to the code that defines it."""
    for const in code.co_consts:
        if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
            continue
        name = f"{prefix}.{const.co_name}"
        if const.co_flags & inspect.CO_NEWLOCALS:
            yield name, _lines(const) - {const.co_firstlineno}
        yield from _functions(const, name)


def _all_lines(code: types.CodeType) -> set[int]:
    lines = _lines(code)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _all_lines(const)
    return lines


def src_lines() -> int:
    """Physical lines of src/derivekit's modules, as `wc -l` counts them."""
    return sum(path.read_text("utf-8").count("\n") for path in SRC.glob("*.py"))


def audit(counts: dict) -> tuple[list[str], dict[str, list[int]], int]:
    """The never-entered functions, the unexecuted lines by file, and the
    executable line count of src/derivekit."""
    ran: dict[str, set[int]] = {}
    for (filename, line), hits in counts.items():
        if hits:
            ran.setdefault(os.path.realpath(filename), set()).add(line)
    never_entered: list[str] = []
    unexecuted: dict[str, list[int]] = {}
    executable = 0
    for path in sorted(SRC.glob("*.py")):
        code = compile(path.read_text("utf-8"), str(path), "exec")
        done = ran.get(os.path.realpath(path), set())
        lines = _all_lines(code)
        executable += len(lines)
        missing = sorted(lines - done)
        if missing:
            unexecuted[path.name] = missing
        for name, body in _functions(code, path.stem):
            if body and not body & done:
                never_entered.append(name)
    return never_entered, unexecuted, executable


class _OnlySrc:
    """Trace's ignore filter, decided by file. The stdlib one caches its
    verdict by bare module name, so an ignored json/__init__.py would hide
    derivekit/__init__.py and http/client.py derivekit/client.py."""

    def __init__(self):
        self.verdicts: dict[str, bool] = {}

    def names(self, filename: str, modulename: str) -> bool:
        verdict = self.verdicts.get(filename)
        if verdict is None:
            verdict = not os.path.realpath(filename).startswith(f"{SRC}{os.sep}")
            self.verdicts[filename] = verdict
        return verdict


def main() -> int:
    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = _OnlySrc()
    log = io.StringIO()
    try:
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            tracer.runfunc(pipeline, Path(tmp))
    except SystemExit:  # a command failed: show what the pipeline printed
        sys.stderr.write(log.getvalue())
        raise
    never_entered, unexecuted, executable = audit(tracer.results().counts)
    physical = src_lines()

    missing = [n for n in never_entered if n not in ALLOWED]
    stale = sorted(set(ALLOWED) - set(never_entered))
    print("never-entered functions:")
    for name in never_entered:
        print(f"  {name}: {ALLOWED.get(name, 'NOT IN THE ALLOW-LIST')}")
    print("unexecuted lines:")
    for filename, lines in unexecuted.items():
        source = (SRC / filename).read_text("utf-8").splitlines()
        for line in lines:
            print(f"  {filename}:{line}: {source[line - 1].strip()}")
    n_unexecuted = sum(len(v) for v in unexecuted.values())
    print(f"{physical} lines in src/, {executable} executable, {n_unexecuted} unexecuted, "
          f"{len(never_entered)} functions never entered")
    for name in missing:
        print(f"FAIL: {name} is never entered and not in the allow-list", file=sys.stderr)
    for name in stale:
        print(f"FAIL: allow-listed {name} is entered; remove it from ALLOWED", file=sys.stderr)
    if physical != SRC_LINE_CEILING:
        print(f"FAIL: src/ has {physical} lines, SRC_LINE_CEILING is {SRC_LINE_CEILING}; "
              f"set it to {physical} (a raise says by how much in CHANGES.md)", file=sys.stderr)
    return 1 if missing or stale or physical != SRC_LINE_CEILING else 0


if __name__ == "__main__":
    sys.exit(main())
