"""The README's quick tour runs and prints what its comments say; its
command-line block runs through ``cli.run``."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from tritforge import cli

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


def test_command_line_block_runs(tmp_path, monkeypatch):
    text = README.read_text()
    section = text[text.index("## Command line"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    codes = {}
    for line in block.splitlines():
        argv = shlex.split(line)
        assert argv[0] == "tritforge", line
        codes[line] = cli.run(argv[1:])
    # the two published rows that test_06 shows inconsistent fail the PDP check
    assert {line: code for line, code in codes.items() if code} == {
        "tritforge catalog pdp-check --data results": 1}
