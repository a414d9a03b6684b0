from __future__ import annotations

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs_and_prints_its_pattern():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "(supertype) (differentia quality)"
    assert len(lines) > 1
