"""End-to-end CLI tests: every subcommand, exit codes, determinism, and
file-level contracts."""
import json
import os
import threading
from http.server import HTTPServer

import pytest

from derivekit import cli, latex, records
from derivekit.cli import main
from derivekit.records import (
    derivation_record_to_json,
    load_derivation_records,
    load_prompt_records,
    read_jsonl,
    write_jsonl,
)
from derivekit.stats import build_stats
from helpers import op_tags
from test_client import MockChatHandler


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    assert main(["generate", "--count", "150", "--seed", "5", "--out",
                 str(base / "static.jsonl")]) == 0
    return base


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


def test_score_and_features(workdir, tmp_path):
    prompts = workdir / "prompts.jsonl"
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


def test_collect_against_mock_server(workdir, tmp_path, monkeypatch):
    server = HTTPServer(("127.0.0.1", 0), MockChatHandler)
    server.plan = ["500", "echo"]
    server.requests = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    monkeypatch.setenv("DERIVEKIT_TEST_TOKEN", "tok")
    out = tmp_path / "completions.jsonl"
    errs = tmp_path / "errors.jsonl"
    try:
        code = run([
            "collect", "--in", workdir / "prompts.jsonl", "--out", out,
            "--errors-out", errs,
            "--base-url", f"http://127.0.0.1:{server.server_address[1]}/v1",
            "--model", "mock", "--token-env", "DERIVEKIT_TEST_TOKEN",
            "--max-retries", "1",
        ])
    finally:
        server.shutdown()
    assert code == 0
    rows = list(read_jsonl(out))
    assert len(rows) == 150
    prompts = load_prompt_records(workdir / "prompts.jsonl")
    assert rows[0]["completion"] == prompts[0].prompt
    assert all(req["body"]["temperature"] == 0.0 for req in server.requests)
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
    for name, rows in (("refs", refs), ("preds", preds), ("pairs", pairs)):
        (tmp_path / f"{name}.jsonl").write_text(
            "\n".join(json.dumps(r) for r in rows) + "\n"
        )
    report = tmp_path / "rep.json"
    assert run(["score", "--pred", tmp_path / "preds.jsonl",
                "--ref", tmp_path / "refs.jsonl",
                "--pairs", tmp_path / "pairs.jsonl", "--out", report]) == 0
    payload = json.loads(report.read_text())
    assert payload["pairwise"]["VR"]["pairs"] == 1
    assert payload["aggregates"]["n"] == 2


BAD_JSONL = '{"id": "d0", "steps": [\n'
PROMPT_ROW = {"id": "d0", "static_id": "d0", "perturbation": None,
              "prompt": "Given $x = y$, then obtain $y = x$", "target": "x = y and y = x"}


def _file(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def _stored(path, latex, parents=(), **fields):
    step = {"latex": latex, "op": "premise", "parents": list(parents),
            "operand_latex": None, "role": "premise", **fields}
    return _file(path, json.dumps({"id": "d0", "seed": 0, "steps": [step]}) + "\n")


def _generate_with(path, **fields):
    return ["generate", "--count", 1, "--config", _file(path, json.dumps(fields)),
            "--out", path.parent / "out.jsonl"]


ZERO_ARITY = {"p_arity_0": 0, "p_arity_1": 0, "p_arity_2": 0}
ZERO_ARITY1 = {"p_evaluate": 0, "p_int_or_diff": 0, "p_renaming": 0, "p_define": 0,
               "p_arith": 0, "p_extension": 0}
ZERO_ARITY2 = {"p_subs": 0, "p_add_eq": 0}

BAD_INPUT_CASES = {
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
    "verify-zero-denominator": (lambda d: ["verify", "--in",
                                           _stored(d / "in.jsonl", r"x = \frac{1}{0}")], 3),
    "verify-unparsable-latex": (lambda d: ["verify", "--in",
                                           _stored(d / "in.jsonl", "x = y +")], 3),
    "verify-deep-tower": (lambda d: ["verify", "--in", _stored(
        d / "in.jsonl", "x = " + "x^{" * 700 + "x" + "}" * 700)], 3),
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
    "prompt-huge-integer": (lambda d: ["prompt", "--mode", "finetune", "--in", _stored(
        d / "in.jsonl", "x = 7^{4000} 5^{4000}"), "--out", d / "o.jsonl"], 3),
    "generate-missing-vocabulary": (lambda d: ["generate", "--count", 1, "--vocabulary",
                                               d / "missing.json", "--out", d / "o.jsonl"], 3),
    "vocabulary-non-string-name": (lambda d: [
        "generate", "--count", 1, "--out", d / "o.jsonl", "--vocabulary",
        _file(d / "v.json", '{"symbols": [{"name": 5, "kind": "variable"}]}')], 2),
    "fewshot-without-train": (lambda d: ["prompt", "--mode", "fewshot", "--in",
                                         _file(d / "in.jsonl", json.dumps(PROMPT_ROW) + "\n"),
                                         "--out", d / "o.jsonl"], 2),
    "zero-arity-gate": (lambda d: _generate_with(d / "cfg.json", **ZERO_ARITY), 2),
    "zero-arity1-groups": (lambda d: _generate_with(d / "cfg.json", **ZERO_ARITY1), 2),
    "zero-arity2-groups": (lambda d: _generate_with(d / "cfg.json", **ZERO_ARITY2), 2),
    "length-mean-below-min": (lambda d: _generate_with(d / "cfg.json", length_mean=3.4,
                                                       length_sigma=0), 2),
    "config-bad-json": (lambda d: ["generate", "--count", 1, "--config",
                                   _file(d / "cfg.json", "{"), "--out", d / "o.jsonl"], 2),
    "config-wrong-type": (lambda d: _generate_with(d / "cfg.json", p_subs="x"), 2),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT_CASES))
def test_bad_input_exits_with_one_line(case, tmp_path, capsys):
    argv, code = BAD_INPUT_CASES[case]
    assert run(argv(tmp_path)) == code
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    assert "Traceback" not in err
    assert err.startswith("io error: " if code == 3 else "config error: ")


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
