"""The derivation loader's replay: a derived step whose ops.apply rebuild
renders to its stored LaTeX takes the rebuilt tree unparsed, and replay does
not apply that step again. Checked against the parse-only loader of
helpers.py on full dataset builds, on hand-broken steps and on bad input."""
import importlib.util
import json
from pathlib import Path

import pytest

from derivekit import records
from derivekit.cli import main
from derivekit.genalg import GenConfig
from derivekit.latex import MAX_DEPTH
from derivekit.ops import RENAME_FAMILY, Derivation, replay
from derivekit.perturb import KINDS, SR, Skipped, perturb
from derivekit.records import derivation_record_from_json, derivation_record_to_json
from helpers import derivation_record_from_json_by_parse, read_jsonl
from test_cli import BAD_INPUT_CASES, BROKEN_STEPS

ROOT = Path(__file__).resolve().parent.parent
SPLITS = ("train", "static", "vr", "ee", "ag", "sr")


@pytest.fixture(scope="module")
def builds(tmp_path_factory):
    """Two scripts/build_datasets.py builds at their default sizes, at seeds 0
    and the held-out 1000."""
    spec = importlib.util.spec_from_file_location(
        "build_datasets", ROOT / "scripts" / "build_datasets.py")
    build = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(build)
    out = []
    for seed in (0, 1000):
        d = tmp_path_factory.mktemp(f"build-{seed}")
        for argv in build.commands(d, 600, 200, seed):
            assert main(argv) == 0
        out.append(d)
    return out


def _run(monkeypatch, capsys, argv, by_parse: bool):
    """main(argv) with no derivation file kept, through the loader or, with
    `by_parse`, through the parse-only one: its exit code and its output."""
    monkeypatch.setattr(records, "_kept", [])
    monkeypatch.setattr(records, "derivation_record_from_json", (
        derivation_record_from_json_by_parse if by_parse else derivation_record_from_json))
    code = main([str(a) for a in argv])
    return code, capsys.readouterr()


def test_every_split_loads_as_the_parse_only_loader_loads_it(builds):
    counts = {split: [0, 0] for split in SPLITS}  # replayed steps, derived steps
    for d in builds:
        for split in SPLITS:
            for row in read_jsonl(d / f"{split}.jsonl"):
                got = derivation_record_from_json(row)
                want = derivation_record_from_json_by_parse(row)
                assert got == want
                assert all(a.equation is b.equation and a.operand is b.operand
                           for a, b in zip(got.derivation.steps, want.derivation.steps,
                                           strict=True))
                assert replay(got.derivation) == replay(want.derivation)
                counts[split][0] += len(got.derivation.replayed)
                counts[split][1] += sum(s.op not in (None, *RENAME_FAMILY)
                                        for s in got.derivation.steps)
    # every split takes the replay; in VR and EE some derived steps do not
    # render to their text and take the parse
    assert all(replayed > 0 for replayed, _ in counts.values()), counts
    assert all(counts[split][0] < counts[split][1] for split in ("vr", "ee")), counts


def test_verify_writes_the_report_of_the_parse_only_loader(builds, tmp_path, monkeypatch, capsys):
    for d in builds:
        for split in SPLITS:
            outputs = []
            for by_parse in (False, True):
                report = tmp_path / f"{split}-{by_parse}.json"
                code, out = _run(monkeypatch, capsys,
                                 ["verify", "--in", d / f"{split}.jsonl", "--report", report],
                                 by_parse)
                outputs.append((code, out.out, report.read_bytes()))
            assert outputs[0] == outputs[1], (d, split)
            # the unperturbed derivations replay; so does SR, which keeps them
            assert outputs[0][0] == 0 or split not in ("train", "static", "sr"), (d, split)


def test_broken_steps_are_reported_as_the_parse_only_loader_reports_them(
        tmp_path, monkeypatch, capsys):
    rows = []
    for name, (premise, step, _) in BROKEN_STEPS.items():
        steps = [{"latex": premise, "op": "premise", "parents": [], "operand_latex": None,
                  "role": "premise"},
                 {"parents": [0], "operand_latex": None, "role": "goal", **step}]
        rows.append({"id": name, "seed": 0, "steps": steps})
    infile = tmp_path / "in.jsonl"
    infile.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    reports = []
    for by_parse in (False, True):
        report = tmp_path / f"report-{by_parse}.json"
        code, _ = _run(monkeypatch, capsys, ["verify", "--in", infile, "--report", report],
                       by_parse)
        reports.append((code, report.read_bytes()))
    assert reports[0] == reports[1]
    # the rows whose text is their replay's take the replay, and are still checked
    replayed = {row["id"] for row in rows
                if derivation_record_from_json(row).derivation.replayed}
    assert {"eval-int-constant-in-the-premise",
            "eval-int-replayed-constant-in-the-premise"} <= replayed
    # an extra constant or a constant named by no parse keeps a step to the parse
    assert not {"eval-int-replayed-extra-constant",
                "eval-int-constant-that-parses-to-a-product"} & replayed


@pytest.mark.parametrize("case", sorted(BAD_INPUT_CASES))
def test_bad_input_fails_as_with_the_parse_only_loader(case, tmp_path, monkeypatch, capsys):
    outputs = []
    for by_parse in (False, True):
        d = tmp_path / str(by_parse)
        d.mkdir()
        code, out = _run(monkeypatch, capsys, BAD_INPUT_CASES[case][0](d), by_parse)
        outputs.append((code, out.out.replace(str(d), "<dir>"), out.err.replace(str(d), "<dir>")))
    assert outputs[0] == outputs[1]


def _deep(n: int, leaf: str, kind: str) -> str:
    """`leaf` under n levels of nesting, each a power tower level or a sum
    inside a product."""
    if kind == "tower":
        return "y^{" * n + leaf + "}" * n
    return "a (b + " * n + leaf + ")" * n


@pytest.mark.parametrize("kind, stored", [("tower", "deep"), ("tower", "shallow"),
                                          ("sum-in-product", "deep"),
                                          ("sum-in-product", "shallow")])
def test_a_substitution_nesting_deep_sides_fails_as_with_the_parse_only_loader(
        kind, stored, tmp_path, monkeypatch, capsys):
    # each premise nests MAX_DEPTH - 2 levels deep, so it parses; S_L puts
    # one inside the other. Stored as the text its replay renders to, the
    # goal nests too deep to parse. Stored as another text, it replays to a
    # tree that, nested as sums in products, takes more Python frames to
    # print than the default recursion limit allows (about 1,200 on 3.11).
    n = MAX_DEPTH - 2
    goal = _deep(n, _deep(n, "y", kind), kind) + " = g" if stored == "deep" else "w = g"
    steps = [{"latex": f"f = {_deep(n, 'y', kind)}", "op": "premise", "parents": [],
              "operand_latex": None, "role": "premise"},
             {"latex": f"{_deep(n, 'f', kind)} = g", "op": "premise", "parents": [],
              "operand_latex": None, "role": "premise"},
             {"latex": goal, "op": "sub_lhs", "parents": [0, 1], "operand_latex": None,
              "role": "goal"}]
    infile = tmp_path / "in.jsonl"
    infile.write_text(json.dumps({"id": "d0", "seed": 0, "steps": steps}) + "\n",
                      encoding="utf-8")
    outputs = []
    for by_parse in (False, True):
        report = tmp_path / "report.json"
        code, out = _run(monkeypatch, capsys, ["verify", "--in", infile, "--report", report],
                         by_parse)
        outputs.append((code, out.out, out.err, report.read_bytes() if code != 3 else None))
        report.unlink(missing_ok=True)
    assert outputs[0] == outputs[1]
    code, _, err, written = outputs[0]
    assert "Traceback" not in err
    if stored == "deep":
        assert code == 3 and f"nesting deeper than {MAX_DEPTH} levels" in err
    else:
        assert code == 1
        assert json.loads(written)["failures"][0]["problems"] == [
            "step 2: replayed equation differs from record"]


def test_replayed_steps_are_left_out_of_equality_and_hash(small_dataset):
    record = small_dataset[1][0]
    loaded = derivation_record_from_json(derivation_record_to_json(record))
    assert loaded.derivation.replayed and not record.derivation.replayed
    steps = record.derivation.steps
    everything = Derivation(steps, frozenset(range(len(steps))))
    for d in (loaded.derivation, everything):
        assert d == record.derivation and hash(d) == hash(record.derivation)
    assert loaded == record and hash(loaded) == hash(record)
    assert "replayed" not in repr(everything)


def test_generated_and_perturbed_derivations_list_no_replayed_step(small_dataset):
    cfg, generated, _ = small_dataset
    vocab = cfg.load_vocabulary()
    # a loaded record's perturbation builds new steps, except SR, which keeps
    # the record's derivation and so its replayed steps
    loaded = [derivation_record_from_json(derivation_record_to_json(r))
              for r in generated[:40]]
    assert all(r.derivation.replayed == frozenset() for r in generated)
    perturbed = 0
    for kind in KINDS:
        for source in (generated[:40], loaded):
            for record in source:
                try:
                    out, _ = perturb(kind, record, GenConfig(seed=7), vocab)
                except Skipped:
                    continue
                perturbed += 1
                if kind == SR:
                    assert out.derivation is record.derivation
                else:
                    assert out.derivation.replayed == frozenset()
    assert perturbed > 200
