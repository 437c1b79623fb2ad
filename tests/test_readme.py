"""The README's quick tour runs, and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_prints_its_comments():
    text = README.read_text()
    tour = text[text.index("## Quick tour"):]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    expected = [line.split("# ", 1)[1].strip()
                for line in block.splitlines() if "print(" in line and "# " in line]
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
