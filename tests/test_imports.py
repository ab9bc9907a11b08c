"""Imports inside the package: none unused, and few private ones.

A leading underscore marks a name as its module's own. Imports of such
names from another module cross that line, so their list may shrink but
must not grow.
"""

import ast
from pathlib import Path

import bitetiming

PACKAGE = Path(bitetiming.__file__).parent

ALLOWED = {
    "sim: dataio._bite",
    "sim: dataio._bite_line",
    "sim: dataio._encode",
    "sim: dataio._field",
    "sim: dataio._number",
    "sim: dataio._records",
    "sim: dataio._string",
    "sim: dataio._typed",
    "sim: mlp._forward_cached",
}


def test_private_cross_module_imports_only_shrink():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                found |= {
                    f"{path.stem}: {node.module}.{a.name}"
                    for a in node.names
                    if a.name.startswith("_")
                }
    assert found - ALLOWED == set()


def test_every_imported_name_is_referenced():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        referenced = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.stem}: {name}" for name in sorted(imported - referenced)]
    assert unused == []
