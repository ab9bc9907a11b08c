"""Names inside the package: no import unused, few private ones, and no
public name that nothing uses.

A leading underscore marks a name as its module's own. Imports of such
names from another module cross that line, so their list may shrink but
must not grow.
"""

import ast
import re
from pathlib import Path

import bitetiming

PACKAGE = Path(bitetiming.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {"sim: mlp._forward_cached"}


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


# Public names that only the tests use: the leakage audit that tests compare
# fold digests against.
UNUSED_ALLOWED = {"evaluation.audit_fold"}


def names_used(tree):
    """The names a syntax tree reads, imports or reaches as an attribute."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used |= {a.name for a in node.names}
    return used


def test_every_public_name_is_used_outside_its_definition(monkeypatch):
    # Outside the package: perfbench (with each part of its tracer's dotted
    # TARGETS keys), demos/ and README's Python blocks.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracing import TARGETS

    outside = {part for key in TARGETS for part in key.split(".")}
    for path in [*(ROOT / "perfbench").rglob("*.py"), *(ROOT / "demos").glob("*.py")]:
        outside |= names_used(ast.parse(path.read_text(encoding="utf-8")))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S):
        outside |= names_used(ast.parse(block))
    # Inside it: each top-level statement's uses, so a definition's use of
    # its own name does not count.
    statements = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                defined = []
            statements.append((path.stem, defined, node, names_used(node)))
    unused = {
        f"{module}.{name}"
        for module, defined, node, _ in statements
        for name in defined
        if not name.startswith("_")
        and name not in outside
        and not any(name in used for _, _, other, used in statements if other is not node)
    }
    assert unused - UNUSED_ALLOWED == set()
