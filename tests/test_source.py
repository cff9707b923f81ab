"""Static checks on the package source."""

import ast
import os
import subprocess
import sys
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


def _modules_loaded_by(module):
    """Modules a fresh interpreter without site packages loads to import `module`."""
    code = f"import sys; before = set(sys.modules); import {module}; print(*sorted(set(sys.modules) - before))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    return set(done.stdout.split())


def test_import_budget():
    # every process pays for its imports before its first weight; the package
    # needs none of these, and the CLI may load only what argparse and json bring
    assert not _modules_loaded_by("qshuffle") & {
        "dataclasses", "typing", "inspect", "re", "warnings", "json", "argparse"
    }
    assert not _modules_loaded_by("qshuffle.cli") & {"dataclasses", "typing", "inspect"}
