"""The scripts under tests/oracles recompute reference values without the package."""

import ast
from pathlib import Path

ORACLES = sorted((Path(__file__).parent / "oracles").glob("*.py"))


def _imported_modules(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    return names


def test_oracles_do_not_import_the_package():
    assert ORACLES, "no oracle scripts found"
    for path in ORACLES:
        modules = _imported_modules(ast.parse(path.read_text(), filename=str(path)))
        bad = sorted(m for m in modules if m.split(".")[0] == "marginlab")
        assert not bad, f"{path.name} imports {bad}"
