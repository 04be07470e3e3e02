"""The line ratchet of scripts/coverage_audit.py, checked without running the
audit's traced pipeline, so it holds wherever the tier-1 tests run."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _audit_module():
    spec = importlib.util.spec_from_file_location(
        "coverage_audit", ROOT / "scripts" / "coverage_audit.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_lines_equal_the_line_ceiling():
    # equal, not at most: a change that shrinks src/ records the new count
    audit = _audit_module()
    modules = (ROOT / "src" / "derivekit").glob("*.py")
    lines = sum(path.read_bytes().count(b"\n") for path in modules)
    assert audit.src_lines() == lines
    assert lines == audit.SRC_LINE_CEILING, (
        f"src/ has {lines} lines, SRC_LINE_CEILING is {audit.SRC_LINE_CEILING}; set it to "
        f"{lines} (a change that raises the ceiling says by how much in CHANGES.md)")
