"""The package names that the benchmark harness in perfbench/ relies on.

perfbench wraps, imports and reads these names from outside the package, so
without these tests a rename or deletion would fail only a traced benchmark
run.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def resolve(target):
    """The object a tracer target such as ``policy.WafflePolicy.step`` names."""
    module, _, attr = target.partition(".")
    owner = importlib.import_module(f"bitetiming.{module}")
    for name in attr.split("."):
        owner = getattr(owner, name)
    return owner


def test_the_tracer_wraps_every_target_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import TARGETS, Tracer

    originals = {target: resolve(target) for target in TARGETS}
    tracer = Tracer("t")
    try:
        tracer.install()
        assert [t for t in TARGETS if resolve(t) is originals[t]] == []
    finally:
        tracer.uninstall()
    assert [t for t in TARGETS if resolve(t) is not originals[t]] == []


def test_every_package_name_perfbench_imports_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # checks.py reads TrajectoryConfig().control_dt_s when it is imported.
    importlib.import_module("checks")
    # Covers child.py's import of sim.generate_synthetic_session, among others.
    missing = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("bitetiming"):
                        importlib.import_module(alias.name)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                "bitetiming"
            ):
                module = importlib.import_module(node.module)
                missing += [
                    f"{path.name}: {node.module}.{a.name}"
                    for a in node.names
                    if not hasattr(module, a.name)
                ]
    assert missing == []
