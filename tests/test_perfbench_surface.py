"""The package names that the benchmark harness in perfbench/ relies on.

perfbench wraps, imports and reads these names from outside the package, so
without these tests a rename or deletion would fail only a traced benchmark
run.
"""

import ast
import importlib
from pathlib import Path
from types import SimpleNamespace

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


def test_the_closed_loop_calls_perfbench_makes(monkeypatch):
    # run.py's closed_loop and checks.py's oracle_nmcc, on a 30 s session.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import DecisionTimer

    from bitetiming import mlp, policy, sim
    from bitetiming.pipeline import extract_labeled_windows

    source = sim.synthesize_scenario("c30", "social", 30.0, seed=[1, 3, 1])
    windows = extract_labeled_windows(source.session)
    model, _ = mlp.train(windows, mlp.TrainConfig(epochs=1), hidden_dims=(4,))
    timer = DecisionTimer()
    log = sim.run_session(
        source.session,
        timer.policy(policy.WafflePolicy(policy.map_assertiveness(3))),
        predictor=timer.predictor(sim.model_predictor(model)),
        oracle=source.oracle,
    )
    assert len(log.ticks) == len(timer.samples_us) == 60
    assert {source.oracle.command_at(tick.t).value for tick in log.ticks} <= {
        "proceed",
        "stop",
    }


def test_every_cli_command_perfbench_runs_parses(monkeypatch):
    # run.py's study workload, at each scale; argparse exits on an option the
    # CLI no longer takes.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run

    from bitetiming.cli import build_parser

    parser = build_parser()
    for scale in run.SCALES.values():
        stub = SimpleNamespace(cfg=scale["study"], seed=1)
        for name, argv in run.cli_commands(stub, Path("work")):
            assert parser.parse_args([str(a) for a in argv]).command == name


def test_the_study_workload_times_simulate_decisions(monkeypatch, tmp_path):
    # run.py's study workload times `simulate` by patching cli.make_policy and
    # cli.model_predictor, so cmd_simulate must look both up on the module.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import DecisionTimer

    from bitetiming import cli, mlp, sim
    from bitetiming.pipeline import extract_labeled_windows

    source = sim.synthesize_scenario("c30", "social", 30.0, seed=[1, 3, 1])
    windows = extract_labeled_windows(source.session)
    model, _ = mlp.train(windows, mlp.TrainConfig(epochs=1), hidden_dims=(4,))
    mlp.save_model(model, tmp_path / "model.json")
    # monkeypatch restores both names that install_on_cli replaces.
    monkeypatch.setattr(cli, "make_policy", cli.make_policy)
    monkeypatch.setattr(cli, "model_predictor", cli.model_predictor)
    timer = DecisionTimer()
    timer.install_on_cli(cli)
    argv = ["simulate", "--policy", "waffle", "--model", str(tmp_path / "model.json"),
            "--duration", "30", "--out", str(tmp_path / "log.jsonl")]
    assert cli.main(argv) == 0
    assert len(timer.samples_us) == 60
