"""Command-line surface: generate, perturb, prompt, score, stats, verify,
collect.

Exit codes: 0 success, 1 verification failure, 2 configuration/usage error,
3 I/O error (a missing, unreadable or malformed input file, or an unwritable
output). Commands raise their errors and ``main`` maps them to exit codes;
per-record failures are collected into machine-readable reports rather than
aborting the run. Commands are deterministic given identical seeds and inputs.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import random
import sys
from pathlib import Path
from typing import Optional

from . import client as client_mod
from . import metrics as metrics_mod
from . import perturb as perturb_mod
from . import prompts as prompts_mod
from . import stats as stats_mod
from .genalg import (
    GenConfig,
    GenerationError,
    derive_seed,
    generate_dataset,
    passes_token_filter,
)
from .ops import dag_coherent, duplicate_free, replay
from .records import (
    DerivationRecord,
    RecordError,
    derivation_record_to_json,
    load_derivation_records,
    load_keyed,
    load_prompt_records,
    load_rows,
    op_tags_from_json,
    prompt_record_from_json,
    prompt_record_to_json,
    write_atomic,
    write_jsonl,
)
from .vocab import VocabularyError

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def load_config(path: Optional[str], overrides: dict) -> GenConfig:
    payload = {}
    if path is not None:
        try:
            payload = json.loads(Path(path).read_text("utf-8"))
        except json.JSONDecodeError as exc:
            raise GenerationError(f"{path}: bad JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise GenerationError("config file must hold a JSON object")
    payload.pop("schema_version", None)
    known = {f.name for f in dataclasses.fields(GenConfig)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise GenerationError(f"unknown config keys: {', '.join(unknown)}")
    payload.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return GenConfig(**payload)
    except TypeError as exc:  # a value of the wrong type, e.g. a string weight
        raise GenerationError(f"bad config value: {exc}") from exc


# ---------------------------------------------------------------------------
# commands: each raises its errors, and main maps them to exit codes

def cmd_generate(args) -> int:
    cfg = load_config(args.config, {"seed": args.seed, "vocabulary": args.vocabulary})
    records, summary = generate_dataset(cfg, args.count)
    write_jsonl(args.out, (derivation_record_to_json(r) for r in records))
    print(json.dumps(summary.as_dict()))
    if summary.produced < summary.requested:
        print(
            f"shortfall: produced {summary.produced}/{summary.requested} "
            f"(retry_exhausted={summary.retry_exhausted}, "
            f"char_filtered={summary.char_filtered}, "
            f"token_filtered={summary.token_filtered})",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_perturb(args) -> int:
    kind = args.kind.upper()
    cfg = load_config(args.config, {"seed": args.seed})
    vocab = cfg.load_vocabulary() if kind == perturb_mod.AG else None
    records = load_derivation_records(args.infile)

    out_rows = []
    prompt_rows = []
    report = {"kind": kind, "input": len(records), "written": 0, "skipped": [], "schema_version": 1}
    for record in records:
        rng = random.Random(derive_seed(cfg.seed, f"{kind}:{record.id}"))
        static_id = record.static_id or record.id
        tag, family = kind, static_id
        try:
            if kind == perturb_mod.EE:
                derivation = perturb_mod.exchange_expressions(record.derivation)
                if record.perturbation == perturb_mod.EE:
                    # second application untags: EE is a file-level involution
                    tag = family = None
            elif kind == perturb_mod.VR:
                derivation, _ = perturb_mod.rename_variables(record.derivation, rng)
            elif kind == perturb_mod.AG:
                derivation = perturb_mod.alternative_goal(record.derivation, cfg, rng, vocab)
            else:
                derivation = record.derivation
        except perturb_mod.TooManySymbols:
            report["skipped"].append({"id": record.id, "reason": "too many symbols"})
            continue
        except perturb_mod.GoalExhausted:
            report["skipped"].append({"id": record.id, "reason": "goal resampling exhausted"})
            continue
        new = DerivationRecord(record.id, record.seed, derivation, tag, family)
        prompt = prompts_mod.build_prompt(derivation, record.id, static_id, tag)
        if kind == perturb_mod.SR:
            prompt = perturb_mod.remove_steps(prompt)
            if prompt is None:
                report["skipped"].append({"id": record.id, "reason": "no intermediates"})
                continue
        elif kind == perturb_mod.VR and not passes_token_filter(prompt.prompt, prompt.target, cfg):
            report["skipped"].append({"id": record.id, "reason": "token limit"})
            continue
        out_rows.append(derivation_record_to_json(new))
        prompt_rows.append(prompt_record_to_json(prompt))
        report["written"] += 1

    write_jsonl(args.out, out_rows)
    if args.prompts_out:
        write_jsonl(args.prompts_out, prompt_rows)
    print(json.dumps(report))
    return EXIT_OK


def cmd_prompt(args) -> int:
    if args.mode == "finetune":
        rows = []
        for record in load_derivation_records(args.infile):
            prompt = prompts_mod.build_prompt(
                record.derivation, record.id, record.static_id or record.id,
                record.perturbation,
            )
            rows.append(prompt_record_to_json(prompt))
    else:
        if args.train is None:
            raise prompts_mod.PromptError("--mode fewshot needs --train")
        evals = load_prompt_records(args.infile)
        train = load_prompt_records(args.train)
        rows = []
        for record in evals:
            rng = random.Random(derive_seed(args.seed, f"fewshot:{record.static_id}"))
            payload = prompt_record_to_json(record)
            payload["prompt"] = prompts_mod.build_fewshot(record, train, rng)
            rows.append(payload)
    write_jsonl(args.out, rows)
    return EXIT_OK


def cmd_score(args) -> int:
    alias = {}
    if args.pairs:
        # explicit pair list: perturbed row id -> its static family id
        alias = load_keyed(args.pairs, lambda row: (
            (row["id"], row.get("perturbation")), row["static_id"]))

    def key_of(row_id, perturbation):
        sid = alias.get((row_id, perturbation), row_id)
        return (sid, perturbation)

    def ref_entry(row):
        record = prompt_record_from_json(row)
        return (key_of(record.id if alias else record.static_id, record.perturbation),
                record.target)

    refs = load_keyed(args.ref, ref_entry)
    preds = load_keyed(args.pred, lambda row: (
        key_of(row["id"] if alias else row.get("static_id") or row["id"],
               row.get("perturbation")),
        row["completion"]))
    bleurt = {}
    if args.bleurt:
        bleurt = load_keyed(args.bleurt, lambda row: (
            (row.get("static_id") or row["id"], row.get("perturbation")),
            float(row["score"])))
    report, rows = metrics_mod.build_score_report(
        preds, refs, rouge_order=args.rouge_order, bleurt_scores=bleurt
    )
    write_atomic(args.out, lambda fh: fh.write(json.dumps(report, indent=1) + "\n"))
    if args.features_out:
        table = [metrics_mod.FEATURE_HEADER] + [
            ["" if v is None else v for v in row] for row in metrics_mod.feature_rows(rows)]
        write_atomic(args.features_out, lambda fh: csv.writer(fh).writerows(table))
    print(json.dumps(report["aggregates"]))
    return EXIT_OK


def cmd_stats(args) -> int:
    op_tags = load_rows(args.infile, op_tags_from_json)
    summary = stats_mod.build_stats(op_tags, top_per_length=args.top)
    text = json.dumps(summary, indent=1)
    if args.out:
        write_atomic(args.out, lambda fh: fh.write(text + "\n"))
    else:
        print(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    records = load_derivation_records(args.infile)
    failures = []
    for record in records:
        d = record.derivation
        report = replay(d)
        problems = [f"step {i}: {msg}" for i, msg in report.failures]
        if not dag_coherent(d):
            problems.append("not DAG-coherent")
        if not duplicate_free(d):
            problems.append("duplicate equations or integral evaluations")
        if problems:
            failures.append({"id": record.id, "problems": problems})
    result = {
        "records": len(records),
        "invalid": len(failures),
        "failures": failures,
        "schema_version": 1,
    }
    if args.report:
        write_atomic(args.report, lambda fh: fh.write(json.dumps(result, indent=1) + "\n"))
    print(json.dumps({k: result[k] for k in ("records", "invalid")}))
    return EXIT_VERIFY if failures else EXIT_OK


def cmd_collect(args) -> int:
    cfg = client_mod.EndpointConfig(
        base_url=args.base_url,
        model=args.model,
        token_env=args.token_env,
        temperature=args.temperature,
        timeout_s=args.timeout,
        max_retries=args.max_retries,
    )
    records = load_prompt_records(args.infile)
    rows = []
    errors = []
    for record in records:
        try:
            completion = client_mod.query_model(cfg, record.prompt)
        except client_mod.ClientError as exc:
            errors.append({"id": record.id, "error": type(exc).__name__, "detail": str(exc)})
            continue
        rows.append(
            {
                "id": record.id,
                "static_id": record.static_id,
                "perturbation": record.perturbation,
                "completion": completion,
                "schema_version": 1,
            }
        )
    write_jsonl(args.out, rows)
    if args.errors_out:
        write_jsonl(args.errors_out, errors)
    print(json.dumps({"completed": len(rows), "failed": len(errors)}))
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="derivekit",
        description="Generate, perturb, prompt, and score synthetic LaTeX equation derivations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a derivation dataset (JSONL)")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None, help="JSON file of GenConfig fields")
    p.add_argument("--vocabulary", default=None, help="vocabulary JSON path")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("perturb", help="apply a perturbation to a derivation file")
    p.add_argument("--kind", required=True, choices=["vr", "ee", "ag", "sr", "VR", "EE", "AG", "SR"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--prompts-out", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("prompt", help="render fine-tuning or few-shot prompts")
    p.add_argument("--mode", required=True, choices=["finetune", "fewshot"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--train", default=None, help="pool of training prompt records (few-shot)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_prompt)

    p = sub.add_parser("score", help="score completions against references")
    p.add_argument("--pred", required=True, help="completions JSONL")
    p.add_argument("--ref", required=True, help="prompt-record JSONL with targets")
    p.add_argument("--out", required=True, help="score report JSON")
    p.add_argument("--features-out", default=None, help="feature-vector CSV")
    p.add_argument("--rouge-order", default="2", choices=["1", "2", "L"])
    p.add_argument("--pairs", default=None,
                   help="optional JSONL mapping perturbed row ids to static ids")
    p.add_argument("--bleurt", default=None, help="external BLEURT scores JSONL")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("stats", help="dataset statistics")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--top", type=int, default=2)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("verify", help="replay-check every record")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("collect", help="query a chat-completions endpoint")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--errors-out", default=None)
    p.add_argument("--base-url", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--token-env", default="DERIVEKIT_API_TOKEN")
    p.add_argument("--temperature", type=float, default=0.0)
    p.add_argument("--timeout", type=float, default=30.0)
    p.add_argument("--max-retries", type=int, default=2)
    p.set_defaults(func=cmd_collect)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, RecordError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (GenerationError, VocabularyError, prompts_mod.PromptError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
