"""The engine decides every verdict exactly: no module of it samples."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gchodge"


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module


def test_no_engine_module_imports_random():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 10
    offenders = [f.name for f in files
                 if any(name.split(".")[0] == "random" for name in
                        _imported_modules(ast.parse(f.read_text(), f.name)))]
    assert offenders == []
