"""Rules the package source keeps."""

from __future__ import annotations

import ast
from pathlib import Path

import wallkit

SRC = Path(wallkit.__file__).resolve().parent


def test_no_bare_assert_in_package():
    # `python -O` strips assert statements, so invariants raise explicitly.
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
