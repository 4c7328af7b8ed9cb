import argparse
import re
from pathlib import Path

from facemlp.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert "average rate" in capsys.readouterr().out


def subcommand_options() -> dict[str, set[str]]:
    """Each facemlp subcommand's option strings, by subcommand name."""
    [sub] = [a for a in build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    return {name: set(p._option_string_actions)
            for name, p in sub.choices.items()}


def test_readme_flags_exist():
    # A flag the parser dropped must leave the README too.
    text = README.read_text()
    options = subcommand_options()
    commands = [line.split()
                for block in re.findall(r"```sh\n(.*?)```", text, re.S)
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("facemlp ")]
    assert commands
    for words in commands:
        flags = {w for w in words if w.startswith("--")}
        assert flags <= options[words[1]], words
    spans = re.findall(r"`(--[^`]*)`", text)
    assert spans
    known = set().union(*options.values())
    for span in spans:
        assert set(re.findall(r"--[a-z][a-z-]*", span)) <= known, span
