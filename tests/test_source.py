import ast
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
