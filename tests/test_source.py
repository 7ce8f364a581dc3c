import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import modulidim

TESTS = Path(__file__).resolve().parent


def test_no_assert_statements_in_library():
    # `python -O` strips assert statements, so an invariant that must hold
    # is an explicit check that raises, or an identity pinned in the tests
    sources = sorted(Path(modulidim.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_all_lists_exactly_the_public_names():
    # a name dropped from the package but left in __all__ would make
    # `from modulidim import *` raise; a new export must be listed too
    bound = {
        name for name, value in vars(modulidim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    # compared as sorted lists, so a name listed twice fails too
    assert sorted(modulidim.__all__) == sorted(bound)


def test_every_traced_function_exists(monkeypatch):
    # bench/tracer.py wraps functions by (module, attribute) name; a rename
    # in the package would break the traced benchmark run without this check
    path = TESTS.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("modulidim_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    missing = [
        f"{module}.{attr}"
        for module, attr in tracer.TRACED
        if not callable(getattr(importlib.import_module(f"modulidim.{module}"), attr, None))
    ]
    assert not missing, missing
    # Tracer.__enter__ also wraps Dim.__post_init__ to count constructions,
    # so every way of making a Dim must call it through the class attribute
    Dim = modulidim.Dim
    post_init = Dim.__post_init__
    constructed = []

    def counted_post_init(dim):
        constructed.append(dim)
        post_init(dim)

    monkeypatch.setattr(Dim, "__post_init__", counted_post_init)
    for make in (lambda: Dim(1, 2), lambda: Dim.exact(3), lambda: Dim(1, 2) + 1):
        before = len(constructed)
        made = make()
        assert len(constructed) > before and constructed[-1] is made


# Runs in a ``python -S`` child, so that no site ``.pth`` file loads modules
# first, and prints the modules that ``import modulidim.cli`` adds outside
# the package.
_IMPORTED_BY_CLI = """
import sys
before = set(sys.modules)
import modulidim.cli
print(" ".join(sorted(
    name for name in set(sys.modules) - before if name.split(".")[0] != "modulidim"
)))
"""


def test_cli_import_loads_no_heavy_stdlib_module():
    # each command is a fresh process, so these modules' import time (and,
    # for dataclasses, each class built through exec) would be paid per command
    env = dict(os.environ, PYTHONPATH=str(Path(modulidim.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORTED_BY_CLI],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "argparse" in added  # the child did import the command line
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}
    assert not heavy & added, sorted(heavy & added)


# Runs in a ``python -O`` child from inside ``tests/golden``: every golden
# command through ``cli.main``, printing the name of each whose stdout or exit
# code differs from its golden file, then the number of commands run. It does
# not import ``test_golden``, whose ``pytest`` import would triple its time.
_GOLDEN_UNDER_O = """
import contextlib, io, json, sys
from pathlib import Path
from modulidim.cli import main
if not sys.flags.optimize:
    sys.exit("-O is not in effect")
commands = json.loads(Path("commands.json").read_text(encoding="utf-8"))
for command in commands:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(command["argv"])
    expected = Path(command["name"] + ".out").read_bytes()
    if code != command["exit"] or out.getvalue().encode("utf-8") != expected:
        print(command["name"])
print(len(commands))
"""


def test_golden_output_under_python_O():
    # -O strips asserts and sets __debug__ to False; no document or exit
    # code may depend on either
    golden = TESTS / "golden"
    commands = json.loads((golden / "commands.json").read_text(encoding="utf-8"))
    env = dict(os.environ, PYTHONPATH=str(Path(modulidim.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _GOLDEN_UNDER_O],
        cwd=golden, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(len(commands))]
