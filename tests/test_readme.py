"""The examples in README.md run as written and give the values they state."""

import re
import shlex
from pathlib import Path

import pytest

from tandemdup import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


# (language, body) of every fenced code block, in order
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)
QUICK_START, DUPLICATION = [body for language, body in BLOCKS if language == "python"]
COMMANDS = [
    line
    for language, body in BLOCKS
    if not language
    for line in body.splitlines()
    if line.startswith("tandemdup ")
]


def test_readme_has_its_command_lines():
    assert len(COMMANDS) == 9


def test_quick_start_prints_the_stated_capacity(capsys):
    scope = {}
    exec(QUICK_START, scope)
    capacity, count = capsys.readouterr().out.splitlines()
    stated = "0.8760357589718848 log_3((3+sqrt(5))/2)"
    assert f"# {stated}" in QUICK_START
    assert capacity == stated
    assert int(count) > 0
    assert "# 17-state DFA" in QUICK_START
    machine = scope["machine"]
    assert machine.is_deterministic and len(machine.states) == 17


def test_duplication_examples_give_the_stated_values():
    scope = {}
    exec(DUPLICATION, scope)
    stated = {
        "'012120'": "012120",
        "{'012', '0121012'}": {"012", "0121012"},
    }
    for text, value in stated.items():
        (line,) = [line for line in DUPLICATION.splitlines() if line.endswith(f"# {text}")]
        assert eval(line.split("#")[0], scope) == value, line


@pytest.mark.parametrize("line", COMMANDS, ids=[line.split()[1] for line in COMMANDS])
def test_command_line_example_exits_zero(line, capsys):
    assert cli.main(shlex.split(line)[1:]) == 0, capsys.readouterr().err
