"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_prints_its_comments():
    code = _quick_start()
    expected = [line.split("#", 1)[1].strip()
                for line in code.splitlines() if line.startswith("print(")]
    assert expected == ["{-2: 0, -1: 0, 0: 1}", "True", "{-2: 0, -1: 2, 0: 2, 1: 0}"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
