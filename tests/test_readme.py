"""The README's examples run as written: every `k3lat ...` line of the
"Command line" block exits 0, its two inline goldens match, and the Python
session passes under doctest."""

import doctest
import json
import re
import shlex
from pathlib import Path

import pytest

from k3lat.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def command_block():
    """The lines of the first ```sh block after the "## Command line" heading."""
    section = README.split("## Command line", 1)[1]
    return re.search(r"```sh\n(.*?)```", section, re.S).group(1).splitlines()


def commands():
    """(argv, golden): argv from each `k3lat` line with comments stripped.
    golden is the whole expected output where the README gives one: a
    trailing comment that is a bare number, or a JSON document on the next
    comment line; else None."""
    lines = command_block()
    out = []
    for i, line in enumerate(lines):
        if not line.startswith("k3lat "):
            continue
        argv = shlex.split(line, comments=True)[1:]
        _, _, comment = line.partition("  #")
        nxt = lines[i + 1] if i + 1 < len(lines) else ""
        golden = None
        if comment.strip().isdigit():
            golden = comment.strip()
        elif nxt.startswith("# {"):
            golden = nxt[2:]
        out.append((argv, golden))
    return out


COMMANDS = commands()


def test_command_block_is_found():
    assert len(COMMANDS) >= 10
    goldens = [golden for _, golden in COMMANDS if golden is not None]
    assert len(goldens) == 2 and "75" in goldens
    assert any(json.loads(g)["main_invariant"] for g in goldens if g != "75")


@pytest.mark.parametrize("argv,golden", COMMANDS, ids=[" ".join(a) for a, _ in COMMANDS])
def test_readme_command(capsys, argv, golden):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    if golden is not None:
        assert out == golden + "\n"


def test_readme_session():
    session = re.search(r"```python\n(.*?)```", README, re.S).group(1)
    test = doctest.DocTestParser().get_doctest(session, {}, "README", "README.md", 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    result = runner.summarize(verbose=False)
    assert result.attempted >= 3 and result.failed == 0
