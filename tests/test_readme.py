"""The README's library example runs as written, so an API change cannot
leave the documented example broken."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text("utf-8").split("\n## Library example\n", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    *_, prompt, score = out.getvalue().splitlines()
    assert prompt.startswith("Given $")
    assert score.startswith("0.7076")
