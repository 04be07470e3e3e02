"""End-to-end CLI tests: every subcommand, exit codes, determinism, and
file-level contracts."""
import json
import os
import subprocess
import sys
import textwrap
import threading
from http.server import HTTPServer

import pytest

from derivekit import cli, latex, ops, records
from derivekit.cli import main
from derivekit.expr import Symbol
from derivekit.latex import parse_equation, parse_latex
from derivekit.ops import ROLE_PREMISE, Derivation, Step
from derivekit.records import (
    DerivationRecord,
    derivation_record_to_json,
    load_derivation_records,
    load_prompt_records,
    write_jsonl,
)
from derivekit.stats import build_stats
from helpers import op_tags, read_jsonl
from test_client import MockChatHandler


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    assert main(["generate", "--count", "150", "--seed", "5", "--out",
                 str(base / "static.jsonl")]) == 0
    return base


@pytest.fixture(scope="module")
def static_prompts(workdir):
    """The fine-tuning prompts of the static split, for the tests that score
    or collect them."""
    path = workdir / "static_prompts.jsonl"
    assert main(["prompt", "--mode", "finetune", "--in", str(workdir / "static.jsonl"),
                 "--out", str(path)]) == 0
    return path


def run(args) -> int:
    return main([str(a) for a in args])


def test_generate_rejects_zero_count(tmp_path):
    assert run(["generate", "--count", "0", "--out", tmp_path / "x.jsonl"]) == 2


def test_generate_config_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"not_a_field": 1}')
    assert run(["generate", "--count", "1", "--config", cfg,
                "--out", tmp_path / "x.jsonl"]) == 2


def test_generate_deterministic(workdir, tmp_path):
    out2 = tmp_path / "again.jsonl"
    assert run(["generate", "--count", "150", "--seed", "5", "--out", out2]) == 0
    assert (workdir / "static.jsonl").read_bytes() == out2.read_bytes()


def test_generate_count_and_schema(workdir):
    rows = list(read_jsonl(workdir / "static.jsonl"))
    assert len(rows) == 150
    for row in rows:
        assert list(row) == ["id", "seed", "steps", "schema_version"]
        for step in row["steps"]:
            assert list(step) == ["latex", "op", "parents", "operand_latex", "role"]


def test_verify_accepts_generated(workdir):
    assert run(["verify", "--in", workdir / "static.jsonl"]) == 0


def test_verify_flags_corruption(workdir, tmp_path):
    rows = list(read_jsonl(workdir / "static.jsonl"))
    rows[0]["steps"][-1]["latex"] = rows[0]["steps"][-1]["latex"] + " + 1"
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    report = tmp_path / "report.json"
    assert run(["verify", "--in", bad, "--report", report]) == 1
    payload = json.loads(report.read_text())
    assert payload["invalid"] == 1
    assert payload["failures"][0]["id"] == rows[0]["id"]


def test_verify_reports_incoherent_and_duplicate_records(tmp_path):
    # both replay step by step, so only the derivation-level checks catch them
    steps = [Step(parse_equation(r"q{(a)} = e^{a}"), None, role=ROLE_PREMISE),
             Step(parse_equation(r"W{(x)} = x"), None, role=ROLE_PREMISE)]
    orphan = steps + [ops.apply(ops.DIFF, steps, (0,), Symbol("a"))]
    swapped = steps[:1] + [ops.apply(ops.SWAP, steps, (0,))]
    duplicate = swapped + [ops.apply(ops.SWAP, swapped, (1,))]
    infile, report = tmp_path / "in.jsonl", tmp_path / "report.json"
    write_jsonl(infile, (
        derivation_record_to_json(DerivationRecord(name, 0, Derivation(tuple(s))))
        for name, s in (("orphan", orphan), ("duplicate", duplicate))))
    assert run(["verify", "--in", infile, "--report", report]) == 1
    assert json.loads(report.read_text())["failures"] == [
        {"id": "orphan", "problems": ["not DAG-coherent"]},
        {"id": "duplicate", "problems": ["duplicate equations or integral evaluations"]},
    ]


# a premise, then one hand-broken step, and the problem line verify reports
BROKEN_STEPS = {
    "wrong-parent-count": ("x = y", {"latex": "y = x", "op": "swap", "parents": [0, 0]},
                           "replay error: swap expects 1 parents, got 2"),
    "operand-on-swap": ("x = y", {"latex": "y = x", "op": "swap", "operand_latex": "x"},
                        "replay error: swap does not take an operand"),
    "division-by-zero": ("x = y", {"latex": "2 x = 2 y", "op": "div", "operand_latex": "0"},
                         "replay error: division by syntactic zero"),
    "eval-diff-nothing-to-evaluate": ("x = y", {"latex": "y = x", "op": "eval_diff"},
                                      "replay error: no evaluable derivative in equation"),
    "eval-int-extra-constant": (r"x = \int y dy", {
        "latex": r"x = \frac{1}{2} y^{2} + C", "op": "eval_int", "operand_latex": "C,D"},
        "replay error: recorded integration constants do not replay"),
    "eval-int-no-constant": (r"x = \int y dy", {
        "latex": r"x = \frac{1}{2} y^{2} + C", "op": "eval_int", "operand_latex": ""},
        "replay error: constant pool exhausted"),
    "eval-int-constant-in-the-premise": (r"x = \int y dy", {
        "latex": r"x = \frac{y^{2}}{2} + y", "op": "eval_int", "operand_latex": "y"},
        "integration constant 'y' is not fresh"),
    "eval-int-repeated-constant": (r"x = \int y dy + \int z dz", {
        "latex": r"x = 2 C + \frac{y^{2}}{2} + \frac{z^{2}}{2}", "op": "eval_int",
        "operand_latex": "C,C"},
        "integration constant 'C' is not fresh"),
    "constructor-error": ("x = 0", {"latex": "x^{2} = 0", "op": "pow", "operand_latex": "-1"},
                          "replay error: zero to a negative power"),
    # each stored LaTeX below is the text its replay renders to
    "eval-int-replayed-constant-in-the-premise": (r"y = \int x dx", {
        "latex": r"y = \frac{x^{2}}{2} + y", "op": "eval_int", "operand_latex": "y"},
        "integration constant 'y' is not fresh"),
    "eval-int-replayed-extra-constant": (r"x = \int y dy", {
        "latex": r"x = C + \frac{y^{2}}{2}", "op": "eval_int", "operand_latex": "C,D"},
        "replay error: recorded integration constants do not replay"),
    # the constant is the symbol "a b"; the stored text parses to the product a b
    "eval-int-constant-that-parses-to-a-product": (r"x = \int y dy", {
        "latex": r"x = a b + \frac{y^{2}}{2}", "op": "eval_int", "operand_latex": "a b"},
        "replayed equation differs from record"),
}


def test_verify_report_names_each_replay_error(tmp_path):
    rows = []
    for name, (premise, step, _) in BROKEN_STEPS.items():
        steps = [{"latex": premise, "op": "premise", "parents": [], "operand_latex": None,
                  "role": "premise"},
                 {"parents": [0], "operand_latex": None, "role": "goal", **step}]
        rows.append(json.dumps({"id": name, "seed": 0, "steps": steps}))
    infile, report = _file(tmp_path / "in.jsonl", "\n".join(rows) + "\n"), tmp_path / "r.json"
    assert run(["verify", "--in", infile, "--report", report]) == 1
    assert json.loads(report.read_text())["failures"] == [
        {"id": name, "problems": [f"step 1: {message}"]}
        for name, (_, _, message) in BROKEN_STEPS.items()]


@pytest.mark.parametrize("kind", ["vr", "ee", "ag", "sr"])
def test_perturb_kinds(workdir, kind):
    out = workdir / f"{kind}.jsonl"
    prompts = workdir / f"{kind}_prompts.jsonl"
    assert run(["perturb", "--kind", kind, "--seed", "5",
                "--in", workdir / "static.jsonl",
                "--out", out, "--prompts-out", prompts]) == 0
    records = load_derivation_records(out)
    assert records, "perturbation output should not be empty"
    for record in records:
        assert record.perturbation == kind.upper()
        assert record.static_id is not None
    for row in read_jsonl(prompts):
        assert row["perturbation"] == kind.upper()


def test_perturb_ee_twice_is_identity(workdir, tmp_path):
    once = tmp_path / "ee1.jsonl"
    twice = tmp_path / "ee2.jsonl"
    assert run(["perturb", "--kind", "ee", "--in", workdir / "static.jsonl",
                "--out", once]) == 0
    assert run(["perturb", "--kind", "ee", "--in", once, "--out", twice]) == 0
    assert twice.read_bytes() == (workdir / "static.jsonl").read_bytes()


def test_perturb_sr_on_intermediate_free_file(workdir, tmp_path):
    # keep only records with no then-derive steps, SR must skip all of them
    keep = []
    for row in read_jsonl(workdir / "static.jsonl"):
        ops_used = {s["op"] for s in row["steps"][:-1]}
        if not ops_used & {"eval_diff", "eval_int"}:
            keep.append(row)
    if not keep:
        pytest.skip("sample has no intermediate-free records")
    src = tmp_path / "nointer.jsonl"
    src.write_text("\n".join(json.dumps(r) for r in keep) + "\n")
    out = tmp_path / "sr.jsonl"
    assert run(["perturb", "--kind", "sr", "--in", src, "--out", out]) == 0
    assert load_derivation_records(out) == []


def test_prompt_finetune_and_fewshot(workdir):
    prompts = workdir / "prompts.jsonl"
    assert run(["prompt", "--mode", "finetune", "--in", workdir / "static.jsonl",
                "--out", prompts]) == 0
    records = load_prompt_records(prompts)
    assert len(records) == 150
    for record in records:
        assert record.prompt.startswith("Given $")
        assert ", then obtain $" in record.prompt
        assert " and " in record.target

    fewshot = workdir / "fewshot.jsonl"
    assert run(["prompt", "--mode", "fewshot", "--in", prompts, "--train", prompts,
                "--seed", "3", "--out", fewshot]) == 0
    rows = list(read_jsonl(fewshot))
    assert len(rows) == 150
    assert all(r["prompt"].count("Derivation: ") == 5 for r in rows)


def test_score_and_features(static_prompts, tmp_path):
    prompts = static_prompts
    preds = tmp_path / "preds.jsonl"
    rows = []
    for record in load_prompt_records(prompts):
        rows.append({"id": record.id, "perturbation": None, "completion": record.target})
    preds.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    report_path = tmp_path / "report.json"
    features = tmp_path / "features.csv"
    assert run(["score", "--pred", preds, "--ref", prompts, "--out", report_path,
                "--features-out", features]) == 0
    report = json.loads(report_path.read_text())
    assert report["aggregates"]["rouge"] == pytest.approx(1.0)
    assert report["aggregates"]["bleu"] == pytest.approx(1.0)
    header = features.read_text().splitlines()[0]
    assert header == "id,perturbation,rouge,bleu,bleurt,gleu,ratio_rouge,ratio_bleu,ratio_bleurt,ratio_gleu"


def test_stats_command(workdir, tmp_path):
    out = tmp_path / "stats.json"
    assert run(["stats", "--in", workdir / "static.jsonl", "--out", out]) == 0
    stats = json.loads(out.read_text())
    assert stats["records"] == 150
    assert sum(v["p"] for v in stats["length_hist"].values()) == pytest.approx(1.0)


def test_missing_input_is_io_error(tmp_path):
    assert run(["stats", "--in", tmp_path / "absent.jsonl"]) == 3


def _collect(plan, infile, out, errs, *options):
    """Run collect against an in-process MockChatHandler server that follows
    plan; the exit code and the requests the server saw."""
    server = HTTPServer(("127.0.0.1", 0), MockChatHandler)
    server.plan = plan
    server.requests = []
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        code = run(["collect", "--in", infile, "--out", out, "--errors-out", errs,
                    "--base-url", f"http://127.0.0.1:{server.server_address[1]}/v1",
                    "--model", "mock", "--token-env", "DERIVEKIT_TEST_TOKEN", *options])
    finally:
        server.shutdown()
    return code, server.requests


def test_collect_against_mock_server(static_prompts, tmp_path, monkeypatch):
    monkeypatch.setenv("DERIVEKIT_TEST_TOKEN", "tok")
    out = tmp_path / "completions.jsonl"
    errs = tmp_path / "errors.jsonl"
    code, requests = _collect(["500", "echo"], static_prompts, out, errs, "--max-retries", "1")
    assert code == 0
    rows = list(read_jsonl(out))
    assert len(rows) == 150
    prompts = load_prompt_records(static_prompts)
    assert rows[0]["completion"] == prompts[0].prompt
    assert all(req["body"]["temperature"] == 0.0 for req in requests)
    assert not errs.exists() or not errs.read_text().strip()


def test_score_with_explicit_pairs(workdir, tmp_path):
    # references and predictions whose perturbed rows use their own ids,
    # linked to the static family through an explicit --pairs file
    refs = [
        {"id": "s1", "static_id": "s1", "perturbation": None,
         "prompt": "", "target": "x y z", "schema_version": 1},
        {"id": "weird-77", "static_id": "weird-77", "perturbation": "VR",
         "prompt": "", "target": "x y q", "schema_version": 1},
    ]
    preds = [
        {"id": "s1", "perturbation": None, "completion": "x y z"},
        {"id": "weird-77", "perturbation": "VR", "completion": "x y z"},
    ]
    pairs = [{"id": "weird-77", "perturbation": "VR", "static_id": "s1"}]
    # BLEURT rows are keyed like the completions, through the pair list
    bleurt = [{"id": "s1", "perturbation": None, "score": 0.25},
              {"id": "weird-77", "perturbation": "VR", "score": 0.75}]
    for name, rows in (("refs", refs), ("preds", preds), ("pairs", pairs),
                       ("bleurt", bleurt)):
        (tmp_path / f"{name}.jsonl").write_text(
            "\n".join(json.dumps(r) for r in rows) + "\n"
        )
    report = tmp_path / "rep.json"
    assert run(["score", "--pred", tmp_path / "preds.jsonl",
                "--ref", tmp_path / "refs.jsonl", "--bleurt", tmp_path / "bleurt.jsonl",
                "--pairs", tmp_path / "pairs.jsonl", "--out", report]) == 0
    payload = json.loads(report.read_text())
    assert payload["pairwise"]["VR"]["pairs"] == 1
    assert payload["aggregates"]["n"] == 2
    assert [(r["perturbation"], r["external_bleurt"]) for r in payload["rows"]] == [
        (None, 0.25), ("VR", 0.75)]


def test_score_with_bleurt_scores(tmp_path):
    # external BLEURT scores join the report and the feature rows by key
    refs = [{"id": "s1", "static_id": "s1", "perturbation": p, "prompt": "", "target": t}
            for p, t in ((None, "x y z"), ("VR", "x y q"))]
    preds = [{"id": "s1", "perturbation": p, "completion": "x y z"} for p in (None, "VR")]
    bleurt = [{"id": "s1", "perturbation": None, "score": 0.25},
              {"id": "s1", "static_id": "s1", "perturbation": "VR", "score": 0.75}]
    for name, rows in (("refs", refs), ("preds", preds), ("bleurt", bleurt)):
        write_jsonl(tmp_path / f"{name}.jsonl", rows)
    report, features = tmp_path / "rep.json", tmp_path / "features.csv"
    assert run(["score", "--pred", tmp_path / "preds.jsonl", "--ref", tmp_path / "refs.jsonl",
                "--bleurt", tmp_path / "bleurt.jsonl", "--out", report,
                "--features-out", features]) == 0
    rows = json.loads(report.read_text())["rows"]
    assert [(r["perturbation"], r["external_bleurt"]) for r in rows] == [(None, 0.25), ("VR", 0.75)]
    static = features.read_text().splitlines()[1].split(",")
    assert (static[4], static[8]) == ("0.25", "1.0")


BAD_JSONL = '{"id": "d0", "steps": [\n'
NO_STEPS = '{"id": "d0", "seed": 0, "steps": []}\n'
NOT_UTF8 = b'\n{"id": "d\xff1"}\n'
# 400 carets in a row nest 400 powers, one per caret, as deep as a tower
CARET_CHAIN = "f{(x)} = x" + "^{a}" * 400
PROMPT_ROW = {"id": "d0", "static_id": "d0", "perturbation": None,
              "prompt": "Given $x = y$, then obtain $y = x$", "target": "x = y and y = x"}


def _file(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def _not_utf8(path):
    path.write_bytes(NOT_UTF8)
    return path


def _stored(path, latex, parents=(), row=(), **fields):
    """A one-step derivation file; `row` holds fields that replace the row's."""
    step = {"latex": latex, "op": "premise", "parents": list(parents),
            "operand_latex": None, "role": "premise", **fields}
    return _file(path, json.dumps({"id": "d0", "seed": 0, "steps": [step], **dict(row)}) + "\n")


def _score(d, completion="x", target="x = y", bleurt=None, pred=(), ref=(), pairs=None):
    """score of one completion against one reference; `bleurt`, when given, is
    the raw JSON text of the score of one BLEURT row. `pred` and `ref` hold
    fields that replace those of the completion and reference rows, and
    `pairs`, when given, is the one row of a --pairs file."""
    pred_row = {"id": "d0", "completion": completion, **dict(pred)}
    argv = ["score", "--out", d / "o.json",
            "--pred", _file(d / "p.jsonl", json.dumps(pred_row)),
            "--ref", _file(d / "r.jsonl", json.dumps({**PROMPT_ROW, "target": target,
                                                      **dict(ref)}))]
    if bleurt is not None:
        argv += ["--bleurt", _file(d / "b.jsonl", f'{{"id": "d0", "score": {bleurt}}}')]
    if pairs is not None:
        argv += ["--pairs", _file(d / "a.jsonl", json.dumps(pairs))]
    return argv


def _ag_with_parent(d, parent):
    """perturb --kind ag of a three-step record whose second step names `parent`."""
    steps = [{"latex": "x = y", "op": "premise", "parents": [], "operand_latex": None,
              "role": "premise"},
             {"latex": "y = x", "op": "swap", "parents": [parent], "operand_latex": None,
              "role": "intermediate"},
             {"latex": "2 y = 2 x", "op": "mul", "parents": [1], "operand_latex": "2",
              "role": "goal"}]
    infile = _file(d / "in.jsonl", json.dumps({"id": "d7", "seed": 0, "steps": steps}) + "\n")
    return ["perturb", "--kind", "ag", "--in", infile, "--out", d / "o.jsonl"]


def _with_vocabulary(d, *entries):
    symbols = [{"name": name, "kind": kind} for name, kind in entries]
    return ["generate", "--count", 1, "--out", d / "o.jsonl", "--vocabulary",
            _file(d / "v.json", json.dumps({"symbols": symbols}))]


def _generate_with(path, **fields):
    return ["generate", "--count", 1, "--config", _file(path, json.dumps(fields)),
            "--out", path.parent / "out.jsonl"]


def _collect_with(d, option, value):
    """collect of one prompt with one option set; nothing listens on the URL."""
    return ["collect", "--in", _file(d / "in.jsonl", json.dumps(PROMPT_ROW)),
            "--out", d / "o.jsonl", "--base-url", "http://127.0.0.1:9", "--model", "m",
            option, value]


ZERO_ARITY = {"p_arity_0": 0, "p_arity_1": 0, "p_arity_2": 0}
ZERO_ARITY1 = {"p_evaluate": 0, "p_int_or_diff": 0, "p_renaming": 0, "p_define": 0,
               "p_arith": 0, "p_extension": 0}
ZERO_ARITY2 = {"p_subs": 0, "p_add_eq": 0}

_READ = {
    "verify": lambda d, path: ["verify", "--in", path],
    "stats": lambda d, path: ["stats", "--in", path],
    "prompt": lambda d, path: ["prompt", "--mode", "finetune", "--in", path, "--out", d / "o.jsonl"],
    "perturb": lambda d, path: ["perturb", "--kind", "ee", "--in", path, "--out", d / "o.jsonl"],
}

# a stored derivation row with one field of a wrong type or value, read by one
# command: case -> (command, the field named, step fields, row fields)
STORED_FIELD_CASES = {
    "verify-numeric-role": ("verify", "role", {"role": 5}, {}),
    "stats-numeric-role": ("stats", "role", {"role": 5}, {}),
    "prompt-unknown-role": ("prompt", "role", {"role": "bogus"}, {}),
    "perturb-unknown-role": ("perturb", "role", {"role": "bogus"}, {}),
    "verify-string-seed": ("verify", "seed", {}, {"seed": "x"}),
    "stats-bool-seed": ("stats", "seed", {}, {"seed": True}),
    "prompt-integer-id": ("prompt", "id", {}, {"id": 5}),
    "perturb-integer-id": ("perturb", "id", {}, {"id": 5}),
    "verify-integer-static-id": ("verify", "static_id", {}, {"static_id": 5}),
    "stats-integer-perturbation": ("stats", "perturbation", {}, {"perturbation": 5}),
    "prompt-numeric-latex": ("prompt", "latex", {"latex": 5}, {}),
    "perturb-numeric-latex": ("perturb", "latex", {"latex": 5}, {}),
}


def _two_step(path, goal, premise="x = y"):
    """A file of one derivation, x = y and then its swap; `goal` holds fields
    that replace those of the swap, the goal step, and `premise` the premise's
    LaTeX."""
    steps = [{"latex": premise, "op": "premise", "parents": [], "operand_latex": None,
              "role": "premise"},
             {"latex": "y = x", "op": "swap", "parents": [0], "operand_latex": None,
              "role": "goal", **goal}]
    return _file(path, json.dumps({"id": "d0", "seed": 0, "steps": steps}) + "\n")


_READ_EVERY_KIND = {**_READ, **{
    f"perturb-{kind}": (lambda d, path, k=kind: ["perturb", "--kind", k, "--in", path,
                                                  "--out", d / "o.jsonl"])
    for kind in ("vr", "sr", "ag")}}

# the goal step of a stored two-step row with an op no registry holds or a
# parent that does not precede it, read by every read command:
# case -> (command, goal step fields, the message)
GOAL_STEP_CASES = {
    f"{command}-goal-{case}": (command, goal, message)
    for command in _READ_EVERY_KIND
    for case, goal, message in (
        ("unknown-op", {"op": "frobnicate"}, "op must be null, premise or one of add, "),
        ("later-parent", {"parents": [7]}, "step 1 names parent 7, which does not precede it"),
        ("negative-parent", {"parents": [-1]},
         "step 1 names parent -1, which does not precede it"),
        ("huge-parent", {"parents": [10**30]},
         f"step 1 names parent {10**30}, which does not precede it"),
    )
}

BAD_INPUT_CASES = {
    **{case: (lambda d, c=command, s=step, r=row: _READ[c](
        d, _stored(d / "in.jsonl", **{"latex": "x = y", **s}, row=r)), 3)
       for case, (command, _, step, row) in STORED_FIELD_CASES.items()},
    **{case: (lambda d, c=command, g=goal: _READ_EVERY_KIND[c](
        d, _two_step(d / "in.jsonl", g)), 3)
       for case, (command, goal, _) in GOAL_STEP_CASES.items()},
    "verify-bad-json": (lambda d: ["verify", "--in", _file(d / "in.jsonl", BAD_JSONL)], 3),
    "stats-bad-json": (lambda d: ["stats", "--in", _file(d / "in.jsonl", BAD_JSONL)], 3),
    "prompt-bad-json": (lambda d: ["prompt", "--mode", "finetune", "--in",
                                   _file(d / "in.jsonl", BAD_JSONL), "--out", d / "o.jsonl"], 3),
    "perturb-bad-json": (lambda d: ["perturb", "--kind", "vr", "--in",
                                    _file(d / "in.jsonl", BAD_JSONL), "--out", d / "o.jsonl"], 3),
    "verify-missing-field": (lambda d: ["verify", "--in",
                                        _file(d / "in.jsonl", '{"id": "d0"}\n')], 3),
    "stats-missing-field": (lambda d: ["stats", "--in",
                                       _file(d / "in.jsonl", '{"id": "d0"}\n')], 3),
    "stats-non-integer-parents": (lambda d: ["stats", "--in", _stored(
        d / "in.jsonl", "x = y", parents=["0"])], 3),
    "verify-eval-int-numeric-operand": (lambda d: ["verify", "--in", _stored(
        d / "in.jsonl", "x = y", op="eval_int", operand_latex=5)], 3),
    "stats-numeric-op": (lambda d: ["stats", "--in", _stored(d / "in.jsonl", "x = y", op=5)], 3),
    "verify-list-op": (lambda d: ["verify", "--in",
                                  _stored(d / "in.jsonl", "x = y", op=["x"])], 3),
    "verify-steps-not-a-list": (lambda d: ["verify", "--in", _file(
        d / "in.jsonl", '{"id": "d0", "seed": 0, "steps": {}}\n')], 3),
    "verify-empty-steps": (lambda d: ["verify", "--in", _file(d / "in.jsonl", NO_STEPS)], 3),
    "stats-empty-steps": (lambda d: ["stats", "--in", _file(d / "in.jsonl", NO_STEPS)], 3),
    "prompt-empty-steps": (lambda d: ["prompt", "--mode", "finetune", "--in",
                                      _file(d / "in.jsonl", NO_STEPS), "--out", d / "o.jsonl"], 3),
    "perturb-empty-steps": (lambda d: ["perturb", "--kind", "ee", "--in",
                                       _file(d / "in.jsonl", NO_STEPS), "--out", d / "o.jsonl"], 3),
    "verify-row-not-an-object": (lambda d: ["verify", "--in",
                                            _file(d / "in.jsonl", "[1, 2]\n")], 3),
    "stats-numeric-latex": (lambda d: ["stats", "--in", _stored(d / "in.jsonl", 5)], 3),
    "verify-numeric-latex": (lambda d: ["verify", "--in", _stored(d / "in.jsonl", 5)], 3),
    "verify-zero-denominator": (lambda d: ["verify", "--in",
                                           _stored(d / "in.jsonl", r"x = \frac{1}{0}")], 3),
    "verify-unparsable-latex": (lambda d: ["verify", "--in",
                                           _stored(d / "in.jsonl", "x = y +")], 3),
    "verify-empty-function-name": (lambda d: ["verify", "--in", _stored(
        d / "in.jsonl", r"\operatorname{}{(x)} = y")], 3),
    "prompt-empty-function-name": (lambda d: ["prompt", "--mode", "finetune", "--in", _stored(
        d / "in.jsonl", r"\operatorname{ }{(x)} = y"), "--out", d / "o.jsonl"], 3),
    "verify-deep-tower": (lambda d: ["verify", "--in", _stored(
        d / "in.jsonl", "x = " + "x^{" * 700 + "x" + "}" * 700)], 3),
    "verify-caret-chain": (lambda d: ["verify", "--in", _stored(d / "in.jsonl", CARET_CHAIN)], 3),
    # a constant's name that does not parse, in the text its replay renders to
    "verify-eval-int-unparsable-constant": (lambda d: ["verify", "--in", _two_step(
        d / "in.jsonl", {"latex": r"x = \frob + \frac{y^{2}}{2}", "op": "eval_int",
                         "operand_latex": r"\frob"}, premise=r"x = \int y dy")], 3),
    "prompt-caret-chain": (lambda d: ["prompt", "--mode", "finetune", "--in", _stored(
        d / "in.jsonl", CARET_CHAIN), "--out", d / "o.jsonl"], 3),
    "perturb-caret-chain": (lambda d: ["perturb", "--kind", "vr", "--in", _stored(
        d / "in.jsonl", CARET_CHAIN), "--out", d / "o.jsonl"], 3),
    "score-pred-missing-completion": (lambda d: [
        "score", "--pred", _file(d / "p.jsonl", '{"id": "d0"}\n'),
        "--ref", _file(d / "r.jsonl", json.dumps(PROMPT_ROW) + "\n"),
        "--out", d / "o.json"], 3),
    "score-duplicate-pred": (lambda d: [
        "score", "--pred", _file(d / "p.jsonl", '{"id": "d0", "completion": "x"}\n' * 2),
        "--ref", _file(d / "r.jsonl", json.dumps(PROMPT_ROW) + "\n"),
        "--out", d / "o.json"], 3),
    "score-duplicate-ref": (lambda d: [
        "score", "--pred", _file(d / "p.jsonl", '{"id": "d0", "completion": "x"}\n'),
        "--ref", _file(d / "r.jsonl", (json.dumps(PROMPT_ROW) + "\n") * 2),
        "--out", d / "o.json"], 3),
    # completions and targets must be strings, BLEURT scores finite JSON numbers
    "score-integer-completion": (lambda d: _score(d, completion=5), 3),
    "score-null-completion": (lambda d: _score(d, completion=None), 3),
    "score-integer-target": (lambda d: _score(d, target=7), 3),
    "score-bleurt-nan-string": (lambda d: _score(d, bleurt='"nan"'), 3),
    "score-bleurt-nan-literal": (lambda d: _score(d, bleurt="NaN"), 3),
    "score-bleurt-overflowing-float": (lambda d: _score(d, bleurt="1e400"), 3),
    "score-bleurt-huge-integer": (lambda d: _score(d, bleurt="1" + "0" * 400), 3),
    "score-bleurt-numeric-string": (lambda d: _score(d, bleurt='"0.5"'), 3),
    "score-bleurt-bool": (lambda d: _score(d, bleurt="true"), 3),
    # ids are strings and a perturbation tag a string or null, in every score input
    "score-pred-integer-id": (lambda d: _score(d, pred={"id": 5}), 3),
    "score-pred-integer-static-id": (lambda d: _score(d, pred={"static_id": 5}), 3),
    "score-pred-integer-perturbation": (lambda d: _score(d, pred={"perturbation": 7}), 3),
    "score-ref-integer-id": (lambda d: _score(d, ref={"id": 5}), 3),
    "score-ref-integer-static-id": (lambda d: _score(d, ref={"static_id": 5}), 3),
    "score-ref-integer-perturbation": (lambda d: _score(d, ref={"perturbation": 7}), 3),
    "score-pairs-integer-id": (lambda d: _score(d, pairs={"id": 5, "static_id": "d0"}), 3),
    "score-pairs-integer-static-id": (lambda d: _score(
        d, pairs={"id": "d0", "perturbation": "VR", "static_id": 5}), 3),
    "score-pairs-integer-perturbation": (lambda d: _score(
        d, pairs={"id": "d0", "perturbation": 7, "static_id": "d0"}), 3),
    "perturb-ag-forward-parent": (lambda d: _ag_with_parent(d, 1), 3),
    "perturb-ag-negative-parent": (lambda d: _ag_with_parent(d, -1), 3),
    "prompt-huge-integer": (lambda d: ["prompt", "--mode", "finetune", "--in", _stored(
        d / "in.jsonl", "x = 7^{4000} 5^{4000}"), "--out", d / "o.jsonl"], 3),
    # a byte that is not UTF-8, in every kind of input file
    "not-utf8-verify": (lambda d: ["verify", "--in", _not_utf8(d / "in.jsonl")], 3),
    "not-utf8-stats": (lambda d: ["stats", "--in", _not_utf8(d / "in.jsonl")], 3),
    "not-utf8-prompt": (lambda d: ["prompt", "--mode", "finetune", "--in",
                                   _not_utf8(d / "in.jsonl"), "--out", d / "o.jsonl"], 3),
    "not-utf8-fewshot-train": (lambda d: [
        "prompt", "--mode", "fewshot", "--in", _file(d / "in.jsonl", json.dumps(PROMPT_ROW)),
        "--train", _not_utf8(d / "t.jsonl"), "--out", d / "o.jsonl"], 3),
    "not-utf8-perturb": (lambda d: ["perturb", "--kind", "sr", "--in",
                                    _not_utf8(d / "in.jsonl"), "--out", d / "o.jsonl"], 3),
    "not-utf8-score-pred": (lambda d: [
        "score", "--pred", _not_utf8(d / "p.jsonl"),
        "--ref", _file(d / "r.jsonl", json.dumps(PROMPT_ROW)), "--out", d / "o.json"], 3),
    "not-utf8-config": (lambda d: ["generate", "--count", 1, "--config",
                                   _not_utf8(d / "cfg.json"), "--out", d / "o.jsonl"], 2),
    "not-utf8-vocabulary": (lambda d: ["generate", "--count", 1, "--vocabulary",
                                       _not_utf8(d / "v.json"), "--out", d / "o.jsonl"], 2),
    "generate-missing-vocabulary": (lambda d: ["generate", "--count", 1, "--vocabulary",
                                               d / "missing.json", "--out", d / "o.jsonl"], 3),
    # an empty path names no file (open("") would read the current directory)
    "vocabulary-empty-path-option": (lambda d: ["generate", "--count", 1, "--vocabulary", "",
                                                "--out", d / "o.jsonl"], 2),
    "vocabulary-empty-path-config": (lambda d: _generate_with(d / "cfg.json", vocabulary=""), 2),
    "vocabulary-non-string-name": (lambda d: [
        "generate", "--count", 1, "--out", d / "o.jsonl", "--vocabulary",
        _file(d / "v.json", '{"symbols": [{"name": 5, "kind": "variable"}]}')], 2),
    "vocabulary-unknown-kind": (lambda d: _with_vocabulary(d, ("x", "planet")), 2),
    "vocabulary-duplicate-name": (lambda d: _with_vocabulary(
        d, ("x", "variable"), ("x", "constant")), 2),
    "vocabulary-reserved-name": (lambda d: _with_vocabulary(d, ("e", "constant")), 2),
    "vocabulary-comma-in-name": (lambda d: _with_vocabulary(d, ("a,b", "variable")), 2),
    "vocabulary-greek-pool-name": (lambda d: _with_vocabulary(d, ("\\alpha", "variable")), 2),
    # a name whose LaTeX does not parse back to it
    "vocabulary-empty-function-name": (lambda d: _with_vocabulary(d, ("", "function-name")), 2),
    "vocabulary-name-with-a-space": (lambda d: _with_vocabulary(d, ("a b", "variable")), 2),
    "vocabulary-name-with-a-quote": (lambda d: _with_vocabulary(d, ("x'", "variable")), 2),
    "fewshot-without-train": (lambda d: ["prompt", "--mode", "fewshot", "--in",
                                         _file(d / "in.jsonl", json.dumps(PROMPT_ROW) + "\n"),
                                         "--out", d / "o.jsonl"], 2),
    "zero-arity-gate": (lambda d: _generate_with(d / "cfg.json", **ZERO_ARITY), 2),
    "zero-arity1-groups": (lambda d: _generate_with(d / "cfg.json", **ZERO_ARITY1), 2),
    "zero-arity2-groups": (lambda d: _generate_with(d / "cfg.json", **ZERO_ARITY2), 2),
    "length-mean-below-min": (lambda d: _generate_with(d / "cfg.json", length_mean=3.4,
                                                       length_sigma=0), 2),
    # non-finite numbers, and weights whose draws would overflow or divide by zero
    "config-infinite-weight": (lambda d: _generate_with(d / "cfg.json",
                                                        p_arity_0=float("inf")), 2),
    "config-nan-weight": (lambda d: _generate_with(d / "cfg.json", p_arity_1=float("nan")), 2),
    "config-weight-sum-overflows": (lambda d: _generate_with(d / "cfg.json", p_subs=1e308,
                                                             p_add_eq=1e308), 2),
    "config-huge-integer-weight": (lambda d: _generate_with(d / "cfg.json", p_subs=10**400), 2),
    "config-nan-length-sigma": (lambda d: _generate_with(d / "cfg.json",
                                                         length_sigma=float("nan")), 2),
    "config-infinite-length-bound": (lambda d: _generate_with(d / "cfg.json", length_mean=1e308,
                                                              length_sigma=1e308), 2),
    "config-infinite-retry-cap": (lambda d: _generate_with(d / "cfg.json",
                                                           retry_cap=float("inf")), 2),
    "config-zero-p-history": (lambda d: _generate_with(d / "cfg.json", p_history=0), 2),
    "config-zero-attempt-factor": (lambda d: _generate_with(d / "cfg.json", attempt_factor=0), 2),
    # values of the wrong JSON type for their field, bools included
    **{f"config-ill-typed-{name}": (lambda d, kv={name: value}: _generate_with(
        d / "cfg.json", **kv), 2) for name, value in (
            ("max_prompt_tokens", "512"), ("max_latex_chars", None), ("vocabulary", 5),
            ("seed", True), ("retry_cap", True), ("attempt_factor", 1.5), ("length_min", 4.5))},
    "config-subnormal-p-history": (lambda d: _generate_with(d / "cfg.json", p_history=5e-324), 2),
    # numeric options out of range, each named in its message
    "option-collect-negative-timeout": (lambda d: _collect_with(d, "--timeout", -1), 2),
    "option-collect-nan-timeout": (lambda d: _collect_with(d, "--timeout", "nan"), 2),
    "option-collect-zero-timeout": (lambda d: _collect_with(d, "--timeout", 0), 2),
    "option-collect-infinite-timeout": (lambda d: _collect_with(d, "--timeout", "inf"), 2),
    "option-collect-negative-max-retries": (lambda d: _collect_with(d, "--max-retries", -1), 2),
    "option-collect-nan-temperature": (lambda d: _collect_with(d, "--temperature", "nan"), 2),
    "option-collect-infinite-temperature": (lambda d: _collect_with(d, "--temperature", "inf"), 2),
    "option-collect-negative-temperature": (lambda d: _collect_with(d, "--temperature", -1), 2),
    # the last --base-url given wins: one with no host, one that does not
    # split, and one with no scheme (which every request would fail on)
    "option-collect-empty-base-url": (lambda d: _collect_with(d, "--base-url", ""), 2),
    "option-collect-unclosed-ipv6-base-url": (lambda d: _collect_with(
        d, "--base-url", "http://[::1"), 2),
    "option-collect-schemeless-base-url": (lambda d: _collect_with(
        d, "--base-url", "localhost:9/v1"), 2),
    "option-stats-negative-top": (lambda d: ["stats", "--in", _stored(d / "in.jsonl", "x = y"),
                                             "--top", -1], 2),
    "config-bad-json": (lambda d: ["generate", "--count", 1, "--config",
                                   _file(d / "cfg.json", "{"), "--out", d / "o.jsonl"], 2),
    "config-wrong-type": (lambda d: _generate_with(d / "cfg.json", p_subs="x"), 2),
    "config-not-an-object": (lambda d: ["generate", "--count", 1, "--config",
                                        _file(d / "cfg.json", "[1]"), "--out", d / "o.jsonl"], 2),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT_CASES))
def test_bad_input_exits_with_one_line(case, tmp_path, capsys):
    argv, code = BAD_INPUT_CASES[case]
    assert run(argv(tmp_path)) == code
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    assert "Traceback" not in err
    assert err.startswith("io error: " if code == 3 else "config error: ")


@pytest.mark.parametrize("case", sorted(STORED_FIELD_CASES))
def test_a_stored_field_of_a_wrong_type_or_value_is_named(case, tmp_path, capsys):
    assert run(BAD_INPUT_CASES[case][0](tmp_path)) == 3
    err = capsys.readouterr().err
    assert f"{tmp_path / 'in.jsonl'}:1: malformed row: RecordError(" in err
    assert f"{STORED_FIELD_CASES[case][1]} must be " in err
    assert not (tmp_path / "o.jsonl").exists()


@pytest.mark.parametrize("case", sorted(GOAL_STEP_CASES))
def test_an_unknown_op_or_a_parent_that_does_not_precede_its_step_is_named(
        case, tmp_path, capsys):
    assert run(BAD_INPUT_CASES[case][0](tmp_path)) == 3
    err = capsys.readouterr().err
    assert f"{tmp_path / 'in.jsonl'}:1: malformed row: RecordError(" in err
    assert GOAL_STEP_CASES[case][2] in err
    assert not (tmp_path / "o.jsonl").exists()


@pytest.mark.parametrize("case", sorted(c for c in BAD_INPUT_CASES
                                         if c.startswith("score-") and "duplicate" not in c))
def test_score_names_the_malformed_row_and_writes_nothing(case, tmp_path, capsys):
    assert run(BAD_INPUT_CASES[case][0](tmp_path)) == 3
    name = next((file for part, file in (("bleurt", "b"), ("target", "r"), ("-ref-", "r"),
                                         ("-pairs-", "a")) if part in case), "p")
    assert f"{tmp_path / name}.jsonl:1: malformed row" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("case", sorted(c for c in BAD_INPUT_CASES if c.startswith("not-utf8-")))
def test_input_that_is_not_utf8_names_the_file_and_line(case, tmp_path, capsys):
    assert run(BAD_INPUT_CASES[case][0](tmp_path)) == BAD_INPUT_CASES[case][1]
    name = {"fewshot-train": "t.jsonl", "score-pred": "p.jsonl", "config": "cfg.json",
            "vocabulary": "v.json"}.get(case.removeprefix("not-utf8-"), "in.jsonl")
    assert f"{tmp_path / name}:2: not UTF-8 (invalid start byte)" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["vocabulary-empty-path-option", "vocabulary-empty-path-config"])
def test_an_empty_vocabulary_path_is_a_config_error_naming_the_field(case, tmp_path, capsys):
    assert run(BAD_INPUT_CASES[case][0](tmp_path)) == 2
    assert capsys.readouterr().err.startswith("config error: vocabulary must be ")
    assert not (tmp_path / "o.jsonl").exists()


@pytest.mark.parametrize("case", sorted(c for c in BAD_INPUT_CASES if c.startswith("option-")))
def test_an_option_out_of_range_is_named_and_nothing_runs(case, tmp_path, capsys):
    argv = [str(a) for a in BAD_INPUT_CASES[case][0](tmp_path)]
    assert run(argv) == 2
    option, value = argv[-2:]
    assert capsys.readouterr().err.startswith(f"config error: {option} must be ")
    assert not (tmp_path / "o.jsonl").exists()


def test_score_accepts_integer_and_float_bleurt_scores(tmp_path):
    for raw, value in (("1", 1.0), ("-0.5", -0.5), ("1e308", 1e308)):
        assert run(_score(tmp_path, bleurt=raw)) == 0
        row = json.loads((tmp_path / "o.json").read_text())["rows"][0]
        assert row["external_bleurt"] == value


@pytest.mark.parametrize("parent", [1, 2, -1])
def test_perturb_ag_names_the_step_whose_parent_does_not_precede_it(parent, tmp_path, capsys):
    assert run(_ag_with_parent(tmp_path, parent)) == 3
    err = capsys.readouterr().err
    assert f"in.jsonl:1: malformed row: RecordError('step 1 names parent {parent}, which does not precede it" in err
    assert not (tmp_path / "o.jsonl").exists()


def test_generate_reports_a_shortfall(tmp_path, capsys):
    # no prompt fits in one lexeme, so every attempt is token-filtered
    argv = _generate_with(tmp_path / "cfg.json", max_prompt_tokens=1, attempt_factor=2)
    assert run(argv) == 0
    captured = capsys.readouterr()
    summary = json.loads(captured.out)
    assert (summary["produced"], summary["attempts"]) == (0, 2)
    assert captured.err.startswith("shortfall: produced 0/1 (")


def test_generate_stops_after_attempt_factor_attempts_in_a_row_keep_nothing(tmp_path, capsys):
    # no derivation of 60 steps passes the filters, so no attempt keeps one
    argv = _generate_with(tmp_path / "cfg.json", length_mean=60, length_sigma=0,
                          attempt_factor=2)
    argv[argv.index("--count") + 1] = 100_000
    assert run(argv) == 0
    captured = capsys.readouterr()
    summary = json.loads(captured.out)
    assert (summary["produced"], summary["attempts"]) == (0, 2)
    assert captured.err == (
        f"shortfall: produced 0/100000 (retry_exhausted={summary['retry_exhausted']}, "
        f"char_filtered={summary['char_filtered']}, "
        f"token_filtered={summary['token_filtered']}); "
        "stopped: 2 attempts in a row kept nothing\n")
    assert (tmp_path / "out.jsonl").read_bytes() == b""


def _premises(path, *latex):
    steps = [{"latex": text, "op": "premise", "parents": [], "operand_latex": None,
              "role": "premise"} for text in latex]
    return _file(path, json.dumps({"id": "d0", "seed": 0, "steps": steps}) + "\n")


# records each perturbation skips: (kind, config, stored premises, reason)
PERTURB_SKIPS = {
    "vr-too-many-symbols": ("vr", {}, ["x = a + b + c + f + g + h + k + m + n + p + q"],
                            "too many symbols"),
    "vr-token-limit": ("vr", {"max_prompt_tokens": 5}, ["x = y"], "token limit"),
    # every op on 0 = 0 is inapplicable or gives lhs = rhs
    "ag-goal-exhausted": ("ag", {"retry_cap": 5}, ["0 = 0", "x = y"],
                          "goal resampling exhausted"),
    "ag-one-step": ("ag", {}, ["x = y"], "fewer than two steps"),
    # a derivation of premises alone has no "then derive" clause to remove
    "sr-no-intermediates": ("sr", {}, ["x = y", "y = z"], "no intermediates"),
}


@pytest.mark.parametrize("case", sorted(PERTURB_SKIPS))
def test_perturb_reports_skipped_records(case, tmp_path, capsys):
    kind, config, latex, reason = PERTURB_SKIPS[case]
    infile = _premises(tmp_path / "in.jsonl", *latex)
    assert run(["perturb", "--kind", kind, "--in", infile, "--out", tmp_path / "o.jsonl",
                "--config", _file(tmp_path / "cfg.json", json.dumps(config))]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["written"] == 0
    assert report["skipped"] == [{"id": "d0", "reason": reason}]


def test_collect_records_failed_requests(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DERIVEKIT_TEST_TOKEN", "tok")
    out, errs = tmp_path / "completions.jsonl", tmp_path / "errors.jsonl"
    infile = _file(tmp_path / "in.jsonl", json.dumps(PROMPT_ROW) + "\n")
    assert _collect(["401"], infile, out, errs)[0] == 0
    assert json.loads(capsys.readouterr().out) == {"completed": 0, "failed": 1}
    assert out.read_text() == ""
    [error] = read_jsonl(errs)
    assert (error["id"], error["error"]) == ("d0", "AuthError")


@pytest.mark.parametrize("drop", ["close", "truncate"])
def test_collect_records_dropped_connections(tmp_path, monkeypatch, capsys, drop):
    # each of the 1 + --max-retries requests loses its connection; the row is
    # a ServerError and the run still ends with exit 0
    monkeypatch.setenv("DERIVEKIT_TEST_TOKEN", "tok")
    out, errs = tmp_path / "completions.jsonl", tmp_path / "errors.jsonl"
    infile = _file(tmp_path / "in.jsonl", json.dumps(PROMPT_ROW) + "\n")
    code, requests = _collect([drop], infile, out, errs, "--max-retries", "1")
    assert code == 0 and len(requests) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"completed": 0, "failed": 1}
    assert "Traceback" not in captured.err
    [error] = read_jsonl(errs)
    assert (error["id"], error["error"]) == ("d0", "ServerError")
    assert error["detail"].startswith("no response after 2 attempts: ")


def test_blank_lines_are_skipped(tmp_path, capsys):
    row = _stored(tmp_path / "row.jsonl", "x = y").read_text()
    infile = _file(tmp_path / "in.jsonl", "\n" + row + "\n  \n")
    assert run(["stats", "--in", infile]) == 0
    assert json.loads(capsys.readouterr().out)["records"] == 1


def test_stats_reads_no_latex(tmp_path, capsys):
    # stored LaTeX that does not parse is exit 3 for verify, but stats reads
    # only the op tags and counts the record
    infile = _stored(tmp_path / "in.jsonl", "x = y +")
    assert run(["stats", "--in", infile]) == 0
    assert json.loads(capsys.readouterr().out)["records"] == 1


def test_stats_matches_build_stats_over_parsed_records(small_dataset, tmp_path, monkeypatch):
    _, dataset, _ = small_dataset
    infile = tmp_path / "in.jsonl"
    write_jsonl(infile, (derivation_record_to_json(r) for r in dataset))

    def no_parse(text):
        raise AssertionError("stats parsed LaTeX")

    for module in (latex, records):
        monkeypatch.setattr(module, "parse_equation", no_parse)
        monkeypatch.setattr(module, "parse_latex", no_parse)
    assert run(["stats", "--in", infile, "--top", 3, "--out", tmp_path / "s.json"]) == 0
    expected = json.dumps(build_stats(op_tags(dataset), top_per_length=3), indent=1) + "\n"
    assert (tmp_path / "s.json").read_text("utf-8") == expected


def test_records_load_as_a_plain_parse_of_each_step(small_dataset, tmp_path):
    # each record parses a side or operand text once and reuses the tree for
    # its later occurrences; the trees equal a plain parse of each step
    _, dataset, _ = small_dataset
    infile = tmp_path / "in.jsonl"
    write_jsonl(infile, (derivation_record_to_json(r) for r in dataset))
    reused = 0
    for row, record in zip(read_jsonl(infile), load_derivation_records(infile), strict=True):
        trees = {}
        for payload, step in zip(row["steps"], record.derivation.steps, strict=True):
            assert step.equation == parse_equation(payload["latex"])
            lhs, rhs = payload["latex"].split(" = ")
            found = [(lhs, step.equation.lhs), (rhs, step.equation.rhs)]
            if step.operand is not None:
                assert step.operand == parse_latex(payload["operand_latex"])
                found.append((payload["operand_latex"], step.operand))
            for text, tree in found:
                reused += text in trees
                assert trees.setdefault(text, tree) is tree
    assert reused > 1000


def test_failed_write_keeps_the_old_output(tmp_path, monkeypatch):
    out = tmp_path / "out.jsonl"
    out.write_bytes(b"earlier output\n")
    calls = []

    def serialize(record):
        calls.append(record)
        if len(calls) == 2:
            raise RuntimeError("serializer failed")
        return derivation_record_to_json(record)

    monkeypatch.setattr(cli, "derivation_record_to_json", serialize)
    with pytest.raises(RuntimeError, match="serializer failed"):
        run(["generate", "--count", 3, "--seed", 0, "--out", out])
    assert len(calls) == 2
    assert out.read_bytes() == b"earlier output\n"
    assert list(tmp_path.iterdir()) == [out]


def test_output_through_a_symlink_or_to_a_device(tmp_path):
    # a symlink's target is replaced, not the link; a device is written in place
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    link.symlink_to(target)
    infile = _stored(tmp_path / "in.jsonl", "x = y")
    assert run(["stats", "--in", infile, "--out", link]) == 0
    assert link.is_symlink() and json.loads(target.read_text("utf-8"))["records"] == 1
    assert run(["stats", "--in", infile, "--out", os.devnull]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl", "link.json", "target.json"]


# Modules that only `collect` (the HTTP client) or `score` (the scorer and its
# CSV writer) need; every other command must start without them.
ONE_COMMAND_MODULES = ("derivekit.client", "derivekit.metrics", "urllib.request",
                       "http.client", "email", "ssl", "csv")


def _fresh_interpreter(code, cwd):
    """Run ``code`` in a new interpreter that imports this derivekit; return
    its stdout. The code gets ``loaded()``: the modules of ONE_COMMAND_MODULES
    (or their submodules) that were not loaded when the interpreter started."""
    prelude = textwrap.dedent(f"""\
        import sys
        _start = set(sys.modules)
        def loaded():
            return sorted(m for m in set(sys.modules) - _start
                          if any(m == n or m.startswith(n + ".") for n in {ONE_COMMAND_MODULES!r}))
    """)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", prelude + textwrap.dedent(code)],
                          cwd=cwd, env=env, capture_output=True, text=True, check=True)
    return done.stdout


def test_commands_other_than_collect_and_score_import_neither_client_nor_scorer(tmp_path):
    # a few-shot pool of five prompts that show an intermediate step and two premises
    write_jsonl(tmp_path / "train.jsonl", (
        dict(PROMPT_ROW, id=f"t{i}", static_id=f"t{i}",
             prompt="Given $x = y$ and $y = z$, then derive $x = z$, then obtain $z = x$")
        for i in range(5)))
    out = _fresh_interpreter("""
        import contextlib, io, json
        from derivekit.cli import main
        seen = {"import derivekit.cli": loaded()}
        for argv in (
            "generate --count 4 --seed 0 --out d.jsonl",
            "verify --in d.jsonl",
            "stats --in d.jsonl",
            "prompt --mode finetune --in d.jsonl --out p.jsonl",
            "prompt --mode fewshot --in p.jsonl --train train.jsonl --out f.jsonl",
            "perturb --kind vr --in d.jsonl --out vr.jsonl",
            "perturb --kind ee --in d.jsonl --out ee.jsonl",
            "perturb --kind ag --in d.jsonl --out ag.jsonl",
            "perturb --kind sr --in d.jsonl --out sr.jsonl",
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv.split())
            seen[argv] = [code] + loaded()
        print(json.dumps(seen))
    """, tmp_path)
    seen = json.loads(out)
    assert seen.pop("import derivekit.cli") == []
    assert seen == {argv: [0] for argv in seen}


def test_one_parser_serves_every_command_of_a_process(workdir, tmp_path, capsys, monkeypatch):
    # perturb with a seed, a usage error, then perturb with the default seed:
    # in one process, the same bytes as one interpreter per command
    static = str(workdir / "static.jsonl")
    commands = (
        ["perturb", "--kind", "vr", "--seed", "5", "--in", static, "--out", "seeded.jsonl",
         "--prompts-out", "seeded_prompts.jsonl"],
        ["perturb", "--kind", "xx", "--in", static, "--out", "usage.jsonl"],
        ["perturb", "--kind", "vr", "--in", static, "--out", "default.jsonl"],
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    fresh, inproc = tmp_path / "fresh", tmp_path / "inproc"
    fresh.mkdir()
    inproc.mkdir()
    monkeypatch.chdir(inproc)
    codes = []
    for argv in commands:
        done = subprocess.run([sys.executable, "-m", "derivekit.cli", *argv], cwd=fresh,
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                              text=True)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (done.returncode, done.stdout, done.stderr)
        codes.append(code)
    assert codes == [0, 2, 0]
    names = sorted(p.name for p in fresh.iterdir())
    assert names == ["default.jsonl", "seeded.jsonl", "seeded_prompts.jsonl"]
    assert sorted(p.name for p in inproc.iterdir()) == names
    for name in names:
        assert (inproc / name).read_bytes() == (fresh / name).read_bytes()
    assert (inproc / "seeded.jsonl").read_bytes() != (inproc / "default.jsonl").read_bytes()
    assert cli.build_parser() is cli.build_parser()


def test_score_in_a_fresh_interpreter_writes_the_in_process_bytes(tmp_path):
    refs = [{"id": f"s{i}", "static_id": f"s{i}", "perturbation": None, "prompt": "",
             "target": t, "schema_version": 1} for i, t in enumerate(("x = y", "a + b = c"))]
    preds = [{"id": "s0", "perturbation": None, "completion": "x = y"},
             {"id": "s1", "perturbation": None, "completion": "a = c - b"}]
    write_jsonl(tmp_path / "refs.jsonl", refs)
    write_jsonl(tmp_path / "preds.jsonl", preds)

    def score(stem):
        return ["score", "--pred", str(tmp_path / "preds.jsonl"),
                "--ref", str(tmp_path / "refs.jsonl"), "--out", str(tmp_path / f"{stem}.json"),
                "--features-out", str(tmp_path / f"{stem}.csv")]

    out = _fresh_interpreter(f"""
        from derivekit.cli import main
        assert main({score("fresh")!r}) == 0
    """, tmp_path)
    assert run(score("inproc")) == 0
    aggregates = json.loads((tmp_path / "inproc.json").read_text())["aggregates"]
    assert out == json.dumps(aggregates) + "\n"
    for suffix in (".json", ".csv"):
        assert (tmp_path / f"fresh{suffix}").read_bytes() == \
            (tmp_path / f"inproc{suffix}").read_bytes()
