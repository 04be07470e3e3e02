"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The statistical criteria run at the sizes the criteria state (1,000 replayed
derivations, 3 x 5,000 records, exhaustive metric enumeration), so this
module takes a few minutes.
"""
import json
import math
import random
import threading
import time
from decimal import Decimal, getcontext
from http.server import HTTPServer
from itertools import product

import pytest

from derivekit import ops
from derivekit.client import AuthError, EndpointConfig, ModelTimeout, query_model
from derivekit.expr import Integer, Symbol, add, func, mul, pow_, eval_numeric
from derivekit.calculus import differentiate
from derivekit.genalg import GenConfig, derive_seed, generate_dataset, generate_derivation
from derivekit.latex import to_latex
from derivekit.metrics import (
    ErrorAnnotation,
    bleu,
    gleu,
    manual_score,
    rouge,
)
from derivekit.ops import dag_coherent, duplicate_free, replay
from derivekit.perturb import (
    GoalExhausted,
    TooManySymbols,
    alternative_goal,
    exchange_expressions,
    remove_steps,
    rename_variables,
)
from derivekit.prompts import build_fewshot, build_prompt, qualifies_for_fewshot
from derivekit.records import step_to_json
from derivekit.stats import build_stats, relative_frequency
from derivekit.vocab import GREEK_POOL_DEFAULT

from helpers import op_tags, prompt_example_derivation
from test_client import MockChatHandler
from test_metrics import oracle_bleu, oracle_gleu, oracle_rouge
from test_perturb import isomorphic
from test_prompts import GOLDEN_PROMPT


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {text}")


@pytest.fixture(scope="module")
def thousand_records():
    records, summary = generate_dataset(GenConfig(seed=1001), 1000)
    assert summary.produced == 1000
    return records


# ---------------------------------------------------------------------------

def test_criterion_1_replay_soundness():
    started = time.time()
    total = 0
    for seed in range(10):
        produced = 0
        index = 0
        cfg = GenConfig(seed=seed)
        vocab = cfg.load_vocabulary()
        while produced < 100:
            rng = random.Random(derive_seed(seed, index))
            index += 1
            derivation = generate_derivation(cfg, rng, vocab=vocab)
            if derivation is None:
                continue
            produced += 1
            total += 1
            assert replay(derivation).valid, (seed, index)
            assert dag_coherent(derivation), (seed, index)
            assert duplicate_free(derivation), (seed, index)
    elapsed = time.time() - started
    assert total == 1000
    assert elapsed < 60.0, f"replay soundness took {elapsed:.1f}s"
    report(1, f"1000 derivations over 10 seeds replay-valid, coherent, "
              f"duplicate-free in {elapsed:.1f}s")


# ---------------------------------------------------------------------------

def _supported_expression(rng: random.Random):
    """Bounded 'supported' expression: polynomial backbone, at most one
    transcendental wrapper per branch, safe at bindings in [0.4, 2.0]."""
    x, y = Symbol("x"), Symbol("y")

    def leaf():
        return rng.choice([x, y, Integer(rng.randint(1, 3))])

    def branch():
        kind = rng.choice(["poly", "sin", "cos", "exp", "log", "ratio"])
        base = add(
            mul(Integer(rng.randint(1, 3)), leaf()),
            leaf(),
        )
        if kind == "poly":
            return pow_(base, Integer(rng.randint(1, 3)))
        if kind == "ratio":
            return pow_(base, Integer(-1))
        if kind == "log":
            return func("log", add(Integer(1), pow_(base, Integer(2))))
        if kind == "exp":
            return func("exp", mul(Integer(1), leaf()))
        return func(kind, base)

    return add(*(branch() for _ in range(rng.randint(1, 3))))


def test_criterion_2_calculus_oracle():
    rng = random.Random(515)
    x_name = "x"
    checked_expressions = 0
    while checked_expressions < 500:
        e = _supported_expression(rng)
        d = differentiate(e, Symbol(x_name))
        points = 0
        while points < 8:
            bindings = {"x": rng.uniform(0.4, 2.0), "y": rng.uniform(0.4, 2.0)}
            h = 1e-6 * max(1.0, abs(bindings["x"]))
            up = dict(bindings, x=bindings["x"] + h)
            dn = dict(bindings, x=bindings["x"] - h)
            exact = eval_numeric(d, bindings)
            approx = (eval_numeric(e, up) - eval_numeric(e, dn)) / (2 * h)
            scale = max(abs(exact), abs(approx), 1.0)
            assert abs(exact - approx) <= 1e-6 * scale, (to_latex(e), exact, approx)
            points += 1
        checked_expressions += 1

    # every table rule: differentiate(integral_rhs(instance)) == instance exactly
    from test_calculus import TABLE_INSTANCES, POOL, integral_rhs

    for integrand in TABLE_INSTANCES:
        out = integral_rhs(integrand, Symbol("x"), {"x", "c", "b"}, POOL)
        assert out is not None
        anti, _ = out
        assert differentiate(anti, Symbol("x")) == integrand
    report(2, "500 expressions x 8 finite-difference points at 1e-6; "
              "table rules invert exactly")


# ---------------------------------------------------------------------------

def test_criterion_3_distribution_shape():
    in_set = {4, 5, 6}
    pooled: dict[int, int] = {}
    pooled_top: dict[tuple, int] = {}
    for seed in (11, 12, 13):
        records, summary = generate_dataset(GenConfig(seed=seed), 5000)
        assert summary.produced == 5000
        stats = build_stats(op_tags(records), top_per_length=10_000)
        hist = {int(k): v["count"] for k, v in stats["length_hist"].items()}
        mode = max(hist, key=hist.get)
        assert mode in in_set, f"seed {seed}: mode {mode}"
        for k, v in hist.items():
            pooled[k] = pooled.get(k, 0) + v
        length4 = next(e for e in stats["chains"] if e["length"] == 4)
        rows = length4["top_chains"]
        top = tuple(rows[0]["ops"])
        assert top == (ops.DIFF, ops.EVAL_DIFF, ops.SUB_LHS), f"seed {seed}: {top}"
        for row in rows:
            key = tuple(row["ops"])
            pooled_top[key] = pooled_top.get(key, 0) + row["count"]
    # pooled mode bin must clear every out-of-set bin by 3 sigma (Poisson)
    mode_bin = max(in_set, key=lambda k: pooled.get(k, 0))
    for k, count in pooled.items():
        if k in in_set:
            continue
        gap = pooled[mode_bin] - count
        sigma = math.sqrt(pooled[mode_bin] + count)
        assert gap > 3 * sigma, (k, pooled)
    # pooled top-chain must clear the runner-up by 3 sigma
    ranked = sorted(pooled_top.items(), key=lambda kv: -kv[1])
    assert ranked[0][0] == (ops.DIFF, ops.EVAL_DIFF, ops.SUB_LHS)
    gap = ranked[0][1] - ranked[1][1]
    sigma = math.sqrt(ranked[0][1] + ranked[1][1])
    assert gap > 3 * sigma, ranked[:3]
    report(3, f"3 x 5000 records: modes in {sorted(in_set)}, pooled mode bin "
              f"L={mode_bin}, top length-4 chain d->d_E->S_L "
              f"({ranked[0][1]} vs {ranked[1][1]})")


# ---------------------------------------------------------------------------

def test_criterion_4_table2_arithmetic(thousand_records):
    assert relative_frequency(0.0369, 842) == pytest.approx(31, abs=0.5)
    stats = build_stats(op_tags(thousand_records), top_per_length=10_000)
    for entry in stats["chains"]:
        for row in entry["top_chains"]:
            assert row["relative_frequency"] == pytest.approx(
                row["p_chain"] * entry["permutations"], abs=1e-9
            )
    report(4, "relative frequency = P(chain) x permutations; "
              "0.0369 x 842 = 31.07 within rounding")


# ---------------------------------------------------------------------------

def test_criterion_5_perturbation_contracts(thousand_records):
    cfg = GenConfig(seed=1001)
    ee_checked = vr_checked = sr_checked = ag_checked = 0
    for idx, record in enumerate(thousand_records):
        d = record.derivation
        # EE involution at the byte level
        twice = exchange_expressions(exchange_expressions(d))
        original = json.dumps([step_to_json(s) for s in d.steps])
        after = json.dumps([step_to_json(s) for s in twice.steps])
        assert original == after
        ee_checked += 1
        # VR: isomorphism modulo leaf names, pool only
        rng = random.Random(derive_seed(7001, idx))
        try:
            renamed, mapping = rename_variables(d, rng)
        except TooManySymbols:
            renamed = None
        if renamed is not None:
            assert len(set(mapping.values())) == len(mapping)
            assert set(mapping.values()) <= set(GREEK_POOL_DEFAULT)
            assert len(set(mapping.values())) <= 11
            for old, new in zip(d.steps, renamed.steps):
                assert isomorphic(old.equation.lhs, new.equation.lhs)
                assert isomorphic(old.equation.rhs, new.equation.rhs)
            vr_checked += 1
        # SR: no "then derive" left, target untouched
        prompt = build_prompt(d, record.id)
        stripped = remove_steps(prompt)
        if stripped is not None:
            assert "then derive" not in stripped.prompt
            assert stripped.target == prompt.target
            sr_checked += 1
        # AG: byte-identical prefix, different goal, replay-valid
        rng = random.Random(derive_seed(7002, idx))
        try:
            ag = alternative_goal(d, cfg, rng)
        except GoalExhausted:
            ag = None
        if ag is not None:
            prefix_a = json.dumps([step_to_json(s) for s in d.steps[:-1]])
            prefix_b = json.dumps([step_to_json(s) for s in ag.steps[:-1]])
            assert prefix_a == prefix_b
            assert ag.goal().equation != d.goal().equation
            assert replay(ag).valid
            ag_checked += 1
    assert ee_checked == 1000
    assert vr_checked >= 900
    assert ag_checked >= 950
    assert sr_checked >= 300
    report(5, f"EE involution {ee_checked}/1000, VR isomorphic {vr_checked}, "
              f"AG prefix-identical {ag_checked}, SR stripped {sr_checked}")


# ---------------------------------------------------------------------------

def test_criterion_6_metric_golden_values():
    started = time.time()
    s = "a b c d"
    assert rouge(s, s) == 1.0
    assert bleu(s, s) == pytest.approx(1.0, abs=1e-12)
    assert gleu(s, s) == 1.0
    alphabet = ["a", "b", "c"]
    strings = {
        k: [" ".join(p) for p in product(alphabet, repeat=k)] for k in range(1, 8)
    }
    pairs = 0
    for lc in range(1, 8):
        for lr in range(1, 9 - lc):
            for cand in strings[lc]:
                for ref in strings[lr]:
                    assert rouge(cand, ref) == pytest.approx(oracle_rouge(cand, ref), abs=1e-12)
                    assert bleu(cand, ref) == pytest.approx(oracle_bleu(cand, ref), abs=1e-12)
                    assert gleu(cand, ref) == pytest.approx(oracle_gleu(cand, ref), abs=1e-12)
                    pairs += 1
    elapsed = time.time() - started
    assert elapsed < 10.0, f"enumeration took {elapsed:.1f}s"
    report(6, f"{pairs} enumerated pairs match the brute-force oracle "
              f"in {elapsed:.1f}s")


# ---------------------------------------------------------------------------

def test_criterion_7_manual_scoring():
    ones = ErrorAnnotation(1, 1, 1, 1, 1, 1)
    zeros = ErrorAnnotation(0, 0, 0, 0, 0, 0)
    assert abs(manual_score(ones) - 1.0) <= 1e-12
    assert abs(manual_score(zeros) - 0.0) <= 1e-12
    scores = {}
    for bits in product((0, 1), repeat=6):
        scores[bits] = manual_score(ErrorAnnotation(*bits))
    for bits, value in scores.items():
        for i in range(6):
            if bits[i] == 0:
                upper = bits[:i] + (1,) + bits[i + 1:]
                assert scores[upper] > value
    getcontext().prec = 60
    alpha = Decimal("0.001")
    expected = alpha * ((((alpha + 1) / alpha).ln() * Decimal("0.95")).exp() - 1)
    got = manual_score(ErrorAnnotation(1, 0, 1, 1, 1, 1))
    assert abs(got - float(expected)) <= 1e-9
    report(7, f"boundaries exact, 64-vector monotone, skip-only = {got:.9f}")


# ---------------------------------------------------------------------------

def test_criterion_8_prompt_fidelity(thousand_records):
    record = build_prompt(prompt_example_derivation(), "fig1")
    assert record.prompt == GOLDEN_PROMPT
    prompts = [build_prompt(r.derivation, r.id) for r in thousand_records]
    qualifying_total = sum(1 for p in prompts if qualifies_for_fewshot(p))
    assert qualifying_total >= 10
    checked = 0
    for idx, p in enumerate(prompts):
        rng = random.Random(derive_seed(8008, idx))
        text = build_fewshot(p, prompts, rng)
        blocks = [b for b in text.split("\n\n") if b.startswith("Prompt: ") and "\nDerivation: " in b]
        assert len(blocks) == 5
        qualifying = sum(
            1 for b in blocks if "then derive" in b and " and $" in b
        )
        assert qualifying >= 2, (idx, qualifying)
        checked += 1
    assert checked == 1000
    report(8, f"reference prompt byte-identical; {checked} few-shot prompts "
              f"each carry >= 2 qualifying examples")


# ---------------------------------------------------------------------------

def test_criterion_9_command_determinism(tmp_path):
    from derivekit.cli import main

    def run_all(base):
        base.mkdir(exist_ok=True)
        paths = {}
        paths["static"] = base / "static.jsonl"
        assert main(["generate", "--count", "60", "--seed", "21",
                     "--out", str(paths["static"])]) == 0
        for kind in ("vr", "ee", "ag", "sr"):
            paths[kind] = base / f"{kind}.jsonl"
            paths[f"{kind}_p"] = base / f"{kind}_prompts.jsonl"
            assert main(["perturb", "--kind", kind, "--seed", "21",
                         "--in", str(paths["static"]), "--out", str(paths[kind]),
                         "--prompts-out", str(paths[f"{kind}_p"])]) == 0
        paths["prompts"] = base / "prompts.jsonl"
        assert main(["prompt", "--mode", "finetune", "--in", str(paths["static"]),
                     "--out", str(paths["prompts"])]) == 0
        preds = base / "preds.jsonl"
        rows = []
        for row in map(json.loads, paths["prompts"].read_text().splitlines()):
            rows.append({"id": row["id"], "perturbation": None,
                         "completion": row["target"]})
        preds.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        paths["report"] = base / "report.json"
        paths["features"] = base / "features.csv"
        assert main(["score", "--pred", str(preds), "--ref", str(paths["prompts"]),
                     "--out", str(paths["report"]),
                     "--features-out", str(paths["features"])]) == 0
        paths["stats"] = base / "stats.json"
        assert main(["stats", "--in", str(paths["static"]),
                     "--out", str(paths["stats"])]) == 0
        return paths

    first = run_all(tmp_path / "a")
    second = run_all(tmp_path / "b")
    compared = 0
    for key in first:
        if first[key].exists():
            assert first[key].read_bytes() == second[key].read_bytes(), key
            compared += 1
    report(9, f"{compared} output files byte-identical across repeated runs")


# ---------------------------------------------------------------------------

def test_criterion_10_client_contract(monkeypatch):
    monkeypatch.setenv("DERIVEKIT_ACCEPT_TOKEN", "tok")
    server = HTTPServer(("127.0.0.1", 0), MockChatHandler)
    server.plan = ["500", "echo"]
    server.requests = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        cfg = EndpointConfig(
            base_url=f"http://127.0.0.1:{server.server_address[1]}/v1",
            model="mock", token_env="DERIVEKIT_ACCEPT_TOKEN",
            timeout_s=5.0, max_retries=1,
        )
        out = query_model(cfg, "ping")
        assert out == "ping"
        assert len(server.requests) == 2  # one transient 500, one retry
        assert all(r["body"]["temperature"] == 0.0 for r in server.requests)

        server.plan = ["401"]
        with pytest.raises(AuthError):
            query_model(cfg, "x")

        server.plan = ["sleep"]
        quick = EndpointConfig(
            base_url=cfg.base_url, model="mock",
            token_env="DERIVEKIT_ACCEPT_TOKEN", timeout_s=0.2, max_retries=0,
        )
        with pytest.raises(ModelTimeout):
            query_model(quick, "x")
    finally:
        server.shutdown()
    report(10, "temperature 0 recorded, one retry on transient 5xx, "
               "auth and timeout errors distinct")
