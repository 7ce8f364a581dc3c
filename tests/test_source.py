import ast
import importlib
import importlib.util
from pathlib import Path

import modulidim


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


def test_every_traced_function_exists():
    # bench/tracer.py wraps functions by (module, attribute) name; a rename
    # in the package would break the traced benchmark run without this check
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
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
