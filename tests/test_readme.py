"""The README's command examples, run in-process.

Every line of a ``sh`` block that invokes ``diamondgf`` (directly or as
``python3 -m diamondgf``) must exit 0. A trailing comment that starts with a
digit is the command's documented output and must be printed exactly.
"""

import re
import shlex
from pathlib import Path

import pytest

from diamondgf.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.S | re.M)
# The poset file example is the block that opens with 'elements'.
(POSET_EXAMPLE,) = [body for _, body in BLOCKS if body.startswith("elements")]


def _commands():
    """(arguments after ``diamondgf``, documented output or None) per line."""
    commands = []
    for language, body in BLOCKS:
        if language != "sh":
            continue
        for line in body.splitlines():
            command, _, comment = line.partition("#")
            words = shlex.split(command)
            if "diamondgf" not in words:
                continue
            comment = comment.strip()
            expected = comment if comment[:1].isdigit() else None
            commands.append((words[words.index("diamondgf") + 1:], expected))
    return commands


COMMANDS = _commands()


def test_readme_documents_commands_and_outputs():
    assert len(COMMANDS) >= 15
    assert sum(expected is not None for _, expected in COMMANDS) >= 4


@pytest.mark.parametrize(
    "argv, expected", COMMANDS, ids=[" ".join(argv) for argv, _ in COMMANDS]
)
def test_readme_command(argv, expected, capsys, monkeypatch, tmp_path):
    (tmp_path / "poset.txt").write_text(POSET_EXAMPLE, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    if expected is not None:
        assert out == expected + "\n"
