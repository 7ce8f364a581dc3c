import ast
import importlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

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


def test_every_export_is_used_inside_the_package():
    # an export whose only caller is a test belongs in tests/reference.py;
    # a use is a name or attribute read in any module but __init__.py (a
    # def or class statement is not one)
    used = set()
    for path in Path(modulidim.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(set(modulidim.__all__) - used)
    assert not unused, unused


def test_every_record_checks_or_derives():
    # a record earns its class by checking its values in __post_init__ or by
    # deriving entries as properties; a function returning a plain result
    # returns a tuple instead
    import modulidim.cli  # noqa: F401  (loads every module that defines a record)

    records = [cls for cls in modulidim.dims.Record.__subclasses__()
               if cls.__module__.partition(".")[0] == "modulidim"]
    assert records
    bare = sorted(
        cls.__name__ for cls in records
        if "__post_init__" not in vars(cls)
        and not any(isinstance(value, property) for value in vars(cls).values())
    )
    assert not bare, bare


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


def test_traced_oracles_print_what_untraced_ones_do():
    # the benchmark's --trace 1 run calls the CLI through Tracer, whose
    # sparse_rank wrapper counts entries by reading the generated columns
    # into a list before the rank sees them
    path = TESTS.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("modulidim_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    commands = [
        ("oracle", "product", "--a", "3", "--b", "-4"),
        ("oracle", "p1", "--k", "9"),
    ]
    untraced = [tracer.run_in_process(args) for args in commands]
    traced = tracer.Tracer()
    with traced:
        assert [tracer.run_in_process(args) for args in commands] == untraced
    assert [code for code, _ in untraced] == [0, 0]
    metrics = traced.layer_metrics()
    assert metrics["linalg.sparse_rank.calls"] == 6
    assert metrics["linalg.sparse_rank.entries"] > 0


# Runs in a ``python -S`` child, so that no site ``.pth`` file loads modules
# first, and prints the modules that ``import modulidim.cli`` adds outside
# the package, then those it adds inside it.
_IMPORTED_BY_CLI = """
import sys
before = set(sys.modules)
import modulidim.cli
added = sorted(set(sys.modules) - before)
print(" ".join(name for name in added if name.split(".")[0] != "modulidim"))
print(" ".join(name for name in added if name.split(".")[0] == "modulidim"))
"""


@pytest.fixture(scope="module")
def imported_by_cli() -> tuple[set, set]:
    """The modules ``import modulidim.cli`` adds outside and inside the package."""
    env = dict(os.environ, PYTHONPATH=str(Path(modulidim.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORTED_BY_CLI],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    outside, inside = proc.stdout.split("\n")[:2]
    return set(outside.split()), set(inside.split())


def test_cli_import_loads_no_heavy_stdlib_module(imported_by_cli):
    # each command is a fresh process, so these modules' import time (and,
    # for dataclasses, each class built through exec) would be paid per command
    added, _ = imported_by_cli
    assert "argparse" in added  # the child did import the command line
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}
    assert not heavy & added, sorted(heavy & added)


def test_cli_import_loads_every_package_module(imported_by_cli):
    # bench/tracer.py and tests/test_records.py import modulidim.cli and then
    # expect every module of the package in sys.modules; a module imported
    # lazily, or by nothing, would be missing there
    _, loaded = imported_by_cli
    package = Path(modulidim.__file__).parent
    expected = {"modulidim"} | {
        f"modulidim.{path.stem}" for path in package.glob("*.py") if path.stem != "__init__"
    }
    assert loaded == expected


# Runs in a child from inside ``tests/golden``: every golden command through
# ``cli.main``, printing the name of each whose stdout or exit code differs from
# its golden file, then the number of commands run, the child's optimization
# level and its Python version. It does not import ``test_golden``, whose
# ``pytest`` import would triple its time.
_GOLDEN_REPLAY = """
import contextlib, io, json, sys
from pathlib import Path
from modulidim.cli import main
commands = json.loads(Path("commands.json").read_text(encoding="utf-8"))
for command in commands:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(command["argv"])
    expected = Path(command["name"] + ".out").read_bytes()
    if code != command["exit"] or out.getvalue().encode("utf-8") != expected:
        print(command["name"])
print(len(commands), sys.flags.optimize, "%d.%d" % sys.version_info[:2])
"""


def _replay_golden(python: list[str], env: dict) -> list[str]:
    """The words ``_GOLDEN_REPLAY`` prints when run by ``python``."""
    env = dict(env, PYTHONPATH=str(Path(modulidim.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [*python, "-c", _GOLDEN_REPLAY],
        cwd=TESTS / "golden", env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def _golden_count() -> str:
    return str(len(json.loads((TESTS / "golden" / "commands.json").read_text(encoding="utf-8"))))


@pytest.mark.parametrize("flag", ["-O", "-OO"])
def test_golden_output_under_python_O(flag):
    # -O strips asserts and sets __debug__ to False, and -OO also strips
    # docstrings; no document or exit code may depend on any of these
    version = "%d.%d" % sys.version_info[:2]
    assert _replay_golden([sys.executable, flag], os.environ) == [
        _golden_count(), str(len(flag) - 1), version
    ]


def _oldest_python() -> tuple[str, dict] | None:
    """A ``python3.10`` on the path and the environment it runs 3.10 in, or
    ``None``. A pyenv shim runs it only where ``PYENV_VERSION`` names 3.10."""
    python = shutil.which("python3.10")
    probe = "import sys; sys.exit(sys.version_info[:2] != (3, 10))"
    for env in (os.environ, dict(os.environ, PYENV_VERSION="3.10")):
        if python and subprocess.run([python, "-c", probe], env=env,
                                     capture_output=True, timeout=60).returncode == 0:
            return python, env
    return None


def test_golden_output_under_the_oldest_supported_python():
    # pyproject.toml declares requires-python >= 3.10, so no module may use
    # syntax or a library call that 3.10 lacks, and 3.10 must give every
    # golden document byte for byte
    found = _oldest_python()
    if found is None:
        pytest.skip("no python3.10 runs here")
    python, env = found
    assert _replay_golden([python], env) == [_golden_count(), "0", "3.10"]
