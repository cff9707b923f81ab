"""Static checks on the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qshuffle"


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements, so a theory guard written as one
    # would silently vanish; guards raise TheoryViolation instead.
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 8
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
