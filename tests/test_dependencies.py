"""The package's runtime dependencies: numpy and the standard library only.

scipy and other packages may be installed beside numpy, so a stray import
would pass the rest of the suite; these tests read the sources instead.
"""

import ast
import importlib
import re
import sys
import tomllib
import types
from pathlib import Path

import numpy as np
import pytest

from klmpc import __main__ as klmpc_main
from klmpc import edmd, numkit

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "klmpc"
PYPROJECT = ROOT / "pyproject.toml"


def imported_modules(path: Path) -> set:
    """Top-level names of the modules ``path`` imports; a relative import
    counts as ``klmpc``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("klmpc" if node.level else node.module.split(".")[0])
    return names


def test_package_imports_only_numpy_and_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    allowed = set(sys.stdlib_module_names) | {"numpy", "klmpc"}
    stray = {path.name: sorted(imported_modules(path) - allowed) for path in sources}
    assert {name: mods for name, mods in stray.items() if mods} == {}


def klmpc_modules(path: Path) -> set:
    """The ``klmpc`` modules ``path`` imports, by module name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("klmpc."))
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if node.level or module == "klmpc" or module.startswith("klmpc."):
                module = module.removeprefix("klmpc").lstrip(".")
                names.update([module.split(".")[0]] if module
                             else (alias.name for alias in node.names))
    return names


def test_imported_modules_sees_every_import_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import os.path, scipy.linalg as sl\nfrom . import edmd, lifting\n"
                    "from .plant import drive\nfrom numpy import linalg\n"
                    "import klmpc.mpc\nfrom klmpc.observer import update\n"
                    "def f():\n    import pandas\n")
    assert imported_modules(path) == {"os", "scipy", "klmpc", "numpy", "pandas"}
    assert klmpc_modules(path) == {"edmd", "lifting", "plant", "mpc", "observer"}


@pytest.mark.parametrize("name", ["plant.py", "numkit.py"])
def test_simulator_and_numerics_sit_below_identification(name):
    # the simulated arm and the numerical kernels are the bottom layers: they
    # may use numkit, and no other klmpc module
    assert klmpc_modules(PACKAGE / name) <= {"numkit"}


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "cli.py"),
                         ids=lambda p: p.name)
def test_library_modules_never_print(path):
    # only the command line writes to stdout; the library reports through
    # logging, return values and the files its runners are asked to write,
    # and the entry point in __main__.py only its import error, to stderr
    calls = [node for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "print"]
    to_stderr = [node for node in calls if path.name == "__main__.py" and any(
        kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr" for kw in node.keywords)]
    assert [node.lineno for node in calls if node not in to_stderr] == []


def test_only_the_entry_point_runs_as_a_script():
    # __main__.py pins the BLAS threads before numpy is imported; a second
    # ``__name__ == "__main__"`` block would run the command without the pin,
    # so cli.py's may only print its refusal and exit
    def script_blocks(path):
        return [node for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                if isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
                and {"__name__", "'__main__'"} == {ast.unparse(node.test.left),
                                                   *map(ast.unparse, node.test.comparators)}]

    blocks = {path.name: script_blocks(path) for path in PACKAGE.glob("*.py")}
    assert sorted(name for name, found in blocks.items() if found) == ["__main__.py", "cli.py"]
    [refusal] = blocks["cli.py"]
    assert {ast.unparse(node.func) for stmt in refusal.body for node in ast.walk(stmt)
            if isinstance(node, ast.Call)} == {"print", "sys.exit"}


def test_only_the_document_owners_import_json():
    # harness reads and writes both documents, and edmd quotes a refused
    # JSON value in its message; every other module leaves JSON to them
    owners = sorted(path.name for path in PACKAGE.glob("*.py") if "json" in imported_modules(path))
    assert owners == ["edmd.py", "harness.py"]


def callers(name: str) -> list:
    """The package modules that call a function or method named ``name``."""
    return sorted({path.name for path in PACKAGE.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                   if isinstance(node, ast.Call) and name in (
                       getattr(node.func, "attr", None), getattr(node.func, "id", None))})


def test_only_the_harness_reads_a_models_document():
    # harness.read_models checks a document against the arm and the config;
    # a second caller of edmd.model_from_dict would run entries it never checked
    assert callers("model_from_dict") == ["harness.py"]


def test_only_the_harness_opens_a_file():
    # the harness reads the config and both writes and reads the models
    # document, through one JSON reader; edmd only converts a model's entry,
    # and the command line reaches the package through the harness alone
    assert {module for name in ("open", "read_text", "read_bytes", "write_text", "write_bytes")
            for module in callers(name)} == {"harness.py"}
    assert not hasattr(edmd, "save_models") and not hasattr(edmd, "load_models")
    assert klmpc_modules(PACKAGE / "cli.py") == {"harness"}


def test_declared_dependencies_are_numpy_alone():
    with open(PYPROJECT, "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", d).group().lower() for d in deps] == ["numpy"]


def test_ci_installs_the_declared_numpy_floor():
    # one CI job runs the suite on exactly the oldest numpy the package
    # declares, so the floor is a version that has run it
    with open(PYPROJECT, "rb") as fh:
        [floor] = [d.removeprefix("numpy>=") for d in tomllib.load(fh)["project"]["dependencies"]]
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    assert re.findall(r'"numpy==([0-9.]+)"', workflow) == [f"{floor}.0"]


def test_declared_scripts_import_and_ci_runs_them():
    # the suite calls main in-process, so CI runs each installed command
    # once, and its target must be a callable that imports from the package
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"klmpc": "klmpc.__main__:main"}
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    for name, target in scripts.items():
        module, attr = target.split(":")
        assert callable(getattr(importlib.import_module(module), attr))
        assert re.search(rf"run: {name} --help$", workflow, re.MULTILINE)


def test_ci_pins_the_blas_threads_the_command_line_pins():
    # CI fits on one BLAS thread through the same variables the command line
    # sets, so its suite checks the bits the command writes
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    env = re.search(r"^( +)env:\n((?:\1 .*\n)+)", workflow, re.MULTILINE).group(2)
    assert dict(re.findall(r'^ +(\w+): "(.*)"$', env, re.MULTILINE)) == dict.fromkeys(
        klmpc_main.BLAS_THREAD_VARS, "1")


@pytest.mark.parametrize("module, names", list(numkit.PRIVATE_LAPACK.items()))
def test_numpy_keeps_the_private_lapack_entry_points(module, names):
    # numkit calls these below np.linalg's public API; a numpy that drops
    # one fails here, by name, and not inside a fit
    linalg = importlib.import_module(f"numpy.linalg.{module}")
    assert [name for name in names if not callable(getattr(linalg, name, None))] == []


def test_a_numpy_without_a_private_name_fails_at_import():
    # numkit runs this check when it is imported, naming numpy's version and
    # every name it misses
    stub = types.SimpleNamespace()
    with pytest.raises(ImportError, match=re.escape(
            f"numpy {np.__version__} lacks the LAPACK routines klmpc calls: "
            "numpy.linalg._umath_linalg.solve1")):
        numkit._check_private_lapack({"_umath_linalg": stub,
                                      "lapack_lite": numkit.lapack_lite})


def test_private_lapack_lists_exactly_the_routines_the_package_calls():
    # PRIVATE_LAPACK is the import check's list: every ``lapack.<name>`` the
    # package reads and every ``_lapack_lite("<name>", ...)`` it calls is on
    # it, and it names nothing that none of them calls
    called = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in ("lapack", "lapack_lite")):
                module = "_umath_linalg" if node.value.id == "lapack" else "lapack_lite"
                called.add((module, node.attr))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "_lapack_lite"):
                called.add(("lapack_lite", node.args[0].value))
    assert called == {(module, name) for module, names in numkit.PRIVATE_LAPACK.items()
                      for name in names}


def test_the_command_line_reports_an_import_error(monkeypatch, capsys):
    # a numpy that fails numkit's check gives one error line and exit 2, not
    # a traceback
    monkeypatch.setitem(sys.modules, "klmpc.cli", None)
    assert klmpc_main.main(["fit", "models.json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_only_numkit_names_the_private_lapack_modules():
    # every other module reaches LAPACK through numkit, so a numpy upgrade
    # that moves these is mended in one file
    private = {"_umath_linalg", "lapack_lite"}

    def names(path):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield from node.name.split(".")
            elif isinstance(node, ast.ImportFrom) and node.module:
                yield from node.module.split(".")

    users = sorted(path.name for path in PACKAGE.glob("*.py") if private & set(names(path)))
    assert users == ["numkit.py"]
