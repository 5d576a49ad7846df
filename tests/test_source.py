"""Checks on the library source itself."""
import ast
from pathlib import Path

import quivermoduli


def test_no_assert_statements():
    # `python -O` strips assert statements, so invariants raise typed errors
    found = []
    for path in sorted(Path(quivermoduli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
