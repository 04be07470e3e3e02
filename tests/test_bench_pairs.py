"""scripts/bench_pairs.py: alternating pairs, their summary, and exit 1 on
an incorrect run, against stand-in checkouts whose perfbench/run.py prints
fixed metrics."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_pairs.py"

spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

# prints what run.py prints last: the run record line, then the result line;
# the rate is 100 plus the seed, plus the side's offset
FAKE_RUN = """import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
print("run: " + json.dumps({{"machine": {{"cpu": "test", "commit": "{side}"}}}}))
print(json.dumps({{"correct": {correct}, "attempted": 1, "failed": 0, "metrics": {{
    "items_per_s": {{"value": 100.0 + seed + {offset}, "unit": "1/s"}},
    "setup_s": {{"value": 0.5, "unit": "s"}},
    "peak_rss_mb": {{"value": 20.0, "unit": "MB"}}}}}}))
"""


def _checkout(path: Path, side: str, offset: float, correct: bool = True) -> Path:
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(
        FAKE_RUN.format(side=side, offset=offset, correct="True" if correct else "False"))
    return path


def _run(tmp_path, change_correct=True):
    parent = _checkout(tmp_path / "parent", "p", 0.0)
    change = _checkout(tmp_path / "change", "c", 10.0, change_correct)
    out = tmp_path / "BENCH_x.json"
    proc = subprocess.run([sys.executable, str(SCRIPT), "--parent", str(parent), "--change",
                           str(change), "--pr", "x", "--workload", "generate", "--seeds", "0-3",
                           "--held-out", "1000", "--seconds", "1", "--out", str(out)],
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, json.loads(out.read_text())


def test_seed_lists():
    assert bench_pairs.parse_seeds("0-2,5") == [0, 1, 2, 5]
    assert bench_pairs.parse_seeds("") == []


def test_pairs_alternate_and_are_summarized(tmp_path):
    code, result = _run(tmp_path)
    assert code == 0 and result["all_runs_correct"]
    assert result["commits"] == {"parent": "p", "change": "c"}
    assert result["machine"] == {"cpu": "test"}
    firsts = [(r["seed"], r["side"]) for r in result["runs"]]
    assert firsts == [(0, "parent"), (0, "change"), (1, "change"), (1, "parent"),
                      (2, "parent"), (2, "change"), (3, "change"), (3, "parent"),
                      (1000, "parent"), (1000, "change")]
    rate = result["workloads"]["generate"]["metrics"]["items_per_s"]
    # inclusive quartiles of 100..103 and of 110..113; the held-out pair apart
    assert rate["parent"] == {"median": 101.5, "q1": 100.75, "q3": 102.25}
    assert rate["change"] == {"median": 111.5, "q1": 110.75, "q3": 112.25}
    assert rate["wins"] == "4/4" and rate["held_out_wins"] == "1/1"
    assert rate["wins_all_pairs"] == "5/5" and rate["median_gap_exceeds_parent_iqr"]
    setup = result["workloads"]["generate"]["metrics"]["setup_s"]
    assert setup["wins"] == "0/4" and not setup["median_gap_exceeds_parent_iqr"]


def test_an_incorrect_run_exits_1_after_writing_the_file(tmp_path):
    code, result = _run(tmp_path, change_correct=False)
    assert code == 1
    assert not result["all_runs_correct"]
    assert {r["side"] for r in result["runs"] if not r["correct"]} == {"change"}
