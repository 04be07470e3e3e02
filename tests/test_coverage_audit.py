"""The line ratchet and the allow-list of scripts/coverage_audit.py, checked
without running the audit's traced pipeline, so they hold wherever the tier-1
tests run."""
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


def test_every_allowed_name_is_a_function_of_src():
    # an entry that a deletion leaves behind fails here, not only in the audit
    audit = _audit_module()
    defined = {name for path in audit.SRC.glob("*.py")
               for name, _ in audit._functions(
                   compile(path.read_text("utf-8"), str(path), "exec"), path.stem)}
    assert sorted(set(audit.ALLOWED) - defined) == []
