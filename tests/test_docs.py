"""The README's command examples parse against the CLI as it is."""

import re
import shlex
from pathlib import Path

from klmpc import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list:
    """Every line of the README's ``sh`` blocks that starts with ``klmpc ``."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.S | re.M)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("klmpc ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert commands, "the README shows no klmpc command"
    parser = cli.build_parser()
    for line in commands:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            raise AssertionError(f"README command does not parse: {line}") from None
