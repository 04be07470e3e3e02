"""scripts/bench_pairs.py: alternating pairs, their summary, and exit 1 on
an incorrect run, against stand-in checkouts whose perfbench/run.py prints
fixed metrics."""
import importlib.util
import json
import re
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


def _checkout(path: Path, side: str, offset: float, correct: bool = True,
              stamp: str | None = None) -> Path:
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(
        FAKE_RUN.format(side=side, offset=offset, correct="True" if correct else "False"))
    if stamp is not None:
        (path / "scripts").mkdir()
        (path / "scripts" / "commit_stamp.txt").write_text(stamp + "\n")
    return path


def _run(tmp_path, change_correct=True, parent_commit="p", change_commit="c", stamps=(None, None)):
    parent = _checkout(tmp_path / "parent", parent_commit, 0.0, stamp=stamps[0])
    change = _checkout(tmp_path / "change", change_commit, 10.0, change_correct, stamps[1])
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


UNKNOWN = "unknown (not a git checkout)"


def test_a_git_archive_checkout_names_its_commit_by_the_stamp(tmp_path):
    # run.py cannot ask git in either checkout; git archive filled in the
    # parent's stamp, while the change's still holds the placeholder
    code, result = _run(tmp_path, parent_commit=UNKNOWN, change_commit=UNKNOWN,
                        stamps=("0123abcd" * 5, "$Format:%H$"))
    assert code == 0
    assert result["commits"] == {"parent": "0123abcd" * 5, "change": UNKNOWN}


def test_the_commit_run_py_reports_wins_over_the_stamp(tmp_path):
    _, result = _run(tmp_path, stamps=("0123abcd" * 5, "0123abcd" * 5))
    assert result["commits"] == {"parent": "p", "change": "c"}


def test_a_checkout_with_uncommitted_changes_is_marked(tmp_path):
    # run.py reports HEAD for a working tree, changed or not
    change = tmp_path / "change"
    change.mkdir()
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(change)]
    subprocess.run(git + ["init", "-q"], check=True)
    (change / "a.txt").write_text("1\n")
    subprocess.run(git + ["add", "a.txt"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "a"], check=True)
    assert bench_pairs.checkout_commit(change, "c") == "c"
    (change / "a.txt").write_text("2\n")
    assert bench_pairs.checkout_commit(change, "c") == "c with uncommitted changes"


def test_the_stamp_is_filled_in_by_git_archive():
    attributes = (ROOT / ".gitattributes").read_text().splitlines()
    assert "scripts/commit_stamp.txt export-subst" in attributes
    # the placeholder in a git checkout, the archived commit in an archive
    stamp = (ROOT / bench_pairs.STAMP).read_text().strip()
    assert stamp == "$Format:%H$" or re.fullmatch("[0-9a-f]{40}", stamp)


def test_a_checkout_with_cached_bytecode_is_refused_before_any_run(tmp_path):
    # PYTHONDONTWRITEBYTECODE stops writing bytecode, not reading it
    parent = _checkout(tmp_path / "parent", "p", 0.0)
    change = _checkout(tmp_path / "change", "c", 10.0)
    started = tmp_path / "started"
    for side in (parent, change):
        (side / "perfbench" / "run.py").write_text(f"open({str(started)!r}, 'w').close()\n")
    cache = change / "src" / "derivekit" / "__pycache__"
    cache.mkdir(parents=True)
    out = tmp_path / "BENCH_x.json"
    proc = subprocess.run([sys.executable, str(SCRIPT), "--parent", str(parent), "--change",
                           str(change), "--pr", "x", "--workload", "generate", "--seeds", "0",
                           "--held-out", "", "--seconds", "1", "--out", str(out)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert str(cache) in proc.stderr
    assert not started.exists() and not out.exists()
