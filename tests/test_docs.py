"""The README's examples match the code as it is: its command lines parse
against the CLI, and its library code names only what the code defines."""

import ast
import dataclasses
import re
import shlex
import typing
from pathlib import Path

from klmpc import cli, edmd, harness

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_blocks(language: str) -> list:
    """The text of each of the README's fenced ``language`` blocks."""
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.S | re.M)


def readme_commands() -> list:
    """Every line of the README's ``sh`` blocks that starts with ``klmpc ``."""
    return [line for block in readme_blocks("sh") for line in block.splitlines()
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


def returns(obj):
    """The type a call of ``obj`` gives: a class gives itself, a function its
    return annotation (None when it has none)."""
    return obj if isinstance(obj, type) else typing.get_type_hints(obj).get("return")


def defines(obj, name: str) -> bool:
    return hasattr(obj, name) or (dataclasses.is_dataclass(obj)
                                  and name in {f.name for f in dataclasses.fields(obj)})


def test_readme_library_names_resolve():
    # read with ast and never run: every harness.<name> and edmd.<name> in
    # the python blocks is defined by its module, and every attribute read
    # from a name bound to such a call is defined by the type it returns
    missing, checked = [], 0
    for block in readme_blocks("python"):
        tree = ast.parse(block)
        scope = {"harness": harness, "edmd": edmd}
        for stmt in tree.body:
            call = getattr(stmt, "value", None)
            if (isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name)
                    and isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and isinstance(call.func.value, ast.Name)
                    and call.func.value.id in ("harness", "edmd")
                    and defines(scope[call.func.value.id], call.func.attr)):
                scope[stmt.targets[0].id] = returns(getattr(scope[call.func.value.id],
                                                            call.func.attr))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and scope.get(node.value.id) is not None):
                checked += 1
                if not defines(scope[node.value.id], node.attr):
                    missing.append(f"{node.value.id}.{node.attr}")
    assert checked, "the README shows no library call"
    assert not missing, f"README names what its code does not define: {missing}"
