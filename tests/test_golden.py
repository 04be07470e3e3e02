"""Golden-output test: the sha256 of every file the commands write.

The pipeline below runs through ``derivekit.cli.main`` exactly as a user
would: two generated splits, the four perturbations with their prompts, the
fine-tuning and few-shot prompts, stats, verification and scoring. Any
refactor or speedup that claims byte identity must leave every digest as
pinned here; a deliberate change of output must re-pin them and say so.
The summary line ``generate`` prints is pinned too, so that a speedup also
keeps every attempt and every filter decision the same.
"""
import contextlib
import hashlib
import io
import json

import pytest

from derivekit.cli import main

GOLDEN = {
    "ag.jsonl": "99eb6dd1b6fb8c35983ca1037068d43b3c0b36cb8e0df263fcca90740c02213a",
    "ag_prompts.jsonl": "14c1b54ea3c3d0d1afa0762a11a15cc2e68786ffa02b645e9976f30f5b989617",
    "ee.jsonl": "645e621fd8e310b8e77428a818a7998763aef8bec2d79ed55200fb9e3d6bd0c6",
    "ee_prompts.jsonl": "7e593a9f264421abdeb8b6337a7472bcd1738bda686848e87ea053fc3531f9e8",
    "features.csv": "e31363aa302331cb69a4d5d4c09c30de5a52f662b3f5f04014229d97fd70ecbb",
    "report.json": "9535e95f549dbc092ff9027fb0b9a65c19f88a4cf20e2cc1fbbdde22798281b5",
    "sr.jsonl": "d252e1ad1b6846febe1ae0d780ba0fc655dbe6a22040f6f56917bd6a5743db00",
    "sr_prompts.jsonl": "a1a1a1d5ec0d01e86da6653dc03b6d4e1032258b3e6f4dec73229e6ef11d61c2",
    "static.jsonl": "136fc73c423d99f2a08460b17024de03804205c93195ad6aeb425eca7b012d60",
    "static_fewshot.jsonl": "b0eeeef2095e8245d1f6109c85cd4a18922e71a78f0ddfd44e383d18b2428ace",
    "static_prompts.jsonl": "8fd2b40c711ce8a750d00f30c601cc463ba4ce660eee6919b27dae27a61d4806",
    "stats.json": "27f324faa7580d92b15afbe1adc2b9614cbe582f56e8c44cedbbaea7a5a894ef",
    "train.jsonl": "cd742530147631b5ad2bf53f0925d38e9e4c10bcd16f449aad5b1bd51042f90d",
    "train_prompts.jsonl": "93c8d6cf4d9c682b032ef740eff4e2a930e35e529a01e36a01e41922a35d0733",
    "verify.json": "c9a83b6d861806510528dc3765e6defa1f756dc13b1702d1057c07e113d1081b",
    "vr.jsonl": "0a92864806f1fe8b94401bcc4bfc83aadd2120b7e292440a344284b19ec87aae",
    "vr_prompts.jsonl": "0465fe702061ab944d947754981d035a8ec32d4b0ab9fdadf7644ba79b0750d4",
}

# the JSON line ``generate --count 60 --seed <seed>`` prints
GENERATE_SUMMARIES = {
    0: {"requested": 60, "produced": 60, "attempts": 143, "retry_exhausted": 5,
        "char_filtered": 4, "token_filtered": 74, "schema_version": 1},
    1: {"requested": 60, "produced": 60, "attempts": 135, "retry_exhausted": 10,
        "char_filtered": 6, "token_filtered": 59, "schema_version": 1},
}

KINDS = ("vr", "ee", "ag", "sr")


def _completion(target: str) -> str:
    """A deterministic imperfect prediction: every third token dropped."""
    tokens = target.split()
    return " ".join(t for i, t in enumerate(tokens) if i % 3 != 2)


def _run(*args) -> str:
    """Run one command; return what it printed to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([str(a) for a in args]) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    summaries = {
        seed: json.loads(_run("generate", "--count", 60, "--seed", seed, "--out", d / name))
        for seed, name in ((0, "train.jsonl"), (1, "static.jsonl"))
    }
    for kind in KINDS:
        _run("perturb", "--kind", kind, "--seed", 1, "--in", d / "static.jsonl",
             "--out", d / f"{kind}.jsonl", "--prompts-out", d / f"{kind}_prompts.jsonl")
    for split in ("train", "static"):
        _run("prompt", "--mode", "finetune", "--in", d / f"{split}.jsonl",
             "--out", d / f"{split}_prompts.jsonl")
    _run("prompt", "--mode", "fewshot", "--in", d / "static_prompts.jsonl",
         "--train", d / "train_prompts.jsonl", "--seed", 7, "--out", d / "static_fewshot.jsonl")
    _run("stats", "--in", d / "train.jsonl", "--out", d / "stats.json")
    _run("verify", "--in", d / "static.jsonl", "--report", d / "verify.json")

    refs = b"".join(
        (d / f"{name}_prompts.jsonl").read_bytes() for name in ("static",) + KINDS
    )
    (d / "refs.jsonl").write_bytes(refs)
    with open(d / "preds.jsonl", "w", encoding="utf-8") as fh:
        for line in refs.decode("utf-8").splitlines():
            row = json.loads(line)
            pred = {"id": row["id"], "static_id": row["static_id"],
                    "perturbation": row["perturbation"],
                    "completion": _completion(row["target"])}
            fh.write(json.dumps(pred) + "\n")
    _run("score", "--pred", d / "preds.jsonl", "--ref", d / "refs.jsonl",
         "--out", d / "report.json", "--features-out", d / "features.csv")
    return d, summaries


def _digests(d) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(d.iterdir())
        if p.name not in ("refs.jsonl", "preds.jsonl")
    }


def test_every_output_matches_its_pinned_digest(outputs):
    d, _ = outputs
    assert _digests(d) == GOLDEN


def test_generate_summaries_match_their_pins(outputs):
    _, summaries = outputs
    assert summaries == GENERATE_SUMMARIES
