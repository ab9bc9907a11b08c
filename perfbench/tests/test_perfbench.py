"""Tests of the benchmark itself: metrics printed, failures counted.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(out: Path, workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny", "--out", str(out)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_workload_prints_every_metric_with_its_unit(tmp_path, workload, trace):
    proc = run_bench(tmp_path, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        printed = [line.split() for line in lines if line.split()[:1] == [m["name"]]]
        assert printed and printed[0][-1] == m["unit"], m["name"]
    if trace and workload == "study":
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["evaluation.predict_calls_per_fold"] == 11
        assert metrics["pipeline.useful_extract_ratio"] == pytest.approx(1 / 3)


def test_changed_artifact_is_a_failed_operation_not_a_crash(tmp_path):
    assert run_bench(tmp_path, "study", 0, seed=5).returncode == 0
    (store,) = (tmp_path / "hashes").glob("study-tiny-seed5-*.json")
    hashes = json.loads(store.read_text(encoding="utf-8"))
    hashes["model.json"] = "0" * 64
    store.write_text(json.dumps(hashes), encoding="utf-8")
    proc = run_bench(tmp_path, "study", 0, seed=5)
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] > 1
    assert "# failed: sha256 model.json" in proc.stdout


def test_corrupt_artifacts_count_as_failed_checks(tmp_path):
    from bitetiming.mlp import TrainConfig, save_model, train
    from bitetiming.pipeline import extract_dataset_windows
    from bitetiming.dataio import load_dataset
    from bitetiming.sim import generate_dataset

    manifest = generate_dataset(tmp_path / "data", n_participants=1, duration=30.0, seed=1)
    model, _ = train(extract_dataset_windows(load_dataset(manifest)), TrainConfig(epochs=1))
    save_model(model, tmp_path / "model.json")
    log = tmp_path / "log.jsonl"
    log.write_text('{"schema": "waffle-log/1"}\n{"track": "policy"}\n', encoding="utf-8")

    session = next((tmp_path / "data").glob("*.jsonl"))
    lines = session.read_text(encoding="utf-8").splitlines()
    lines[5] = lines[5][: len(lines[5]) // 2]
    session.write_text("\n".join(lines) + "\n", encoding="utf-8")
    model_text = (tmp_path / "model.json").read_text(encoding="utf-8")
    (tmp_path / "model.json").write_text(model_text.replace("0.", "1.", 1), encoding="utf-8")

    c = checks.Checker()
    assert c.run("dataset", checks.check_dataset, manifest, 2) is None
    assert c.run("model", checks.check_model, tmp_path / "model.json") is None
    assert c.run("log", checks.check_log, log, 1.0) is None
    assert (c.attempted, c.failed) == (3, 3)
    assert "dataset" in c.errors[0] and "model" in c.errors[1]


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path / "out", "study", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_tracer_sees_imported_names_and_restores_them():
    import bitetiming.evaluation as evaluation
    import bitetiming.mlp as mlp

    original = mlp.predict
    tracer = Tracer("t")
    tracer.install()
    try:
        assert evaluation.predict is mlp.predict is not original
    finally:
        tracer.uninstall()
    assert evaluation.predict is original and mlp.predict is original


def test_self_time_subtracts_children():
    spans = [
        ["r/0", None, "evaluation.run_loso", 0.0, 10.0, False, {"folds": 2}],
        ["r/1", "r/0", "mlp.train", 1.0, 5.0, False, {"steps": 4}],
        ["r/2", "r/0", "mlp.predict", 5.0, 6.0, False, {"rows": 3}],
        ["r/3", "r/0", "mlp.predict", 6.0, 7.0, True, {"rows": 1}],
    ]
    m = layer_metrics(spans, iterations=1)
    assert m["evaluation.run_loso.self_s"] == 4.0
    assert m["evaluation.predict_calls_per_fold"] == 1.0
    assert m["mlp.step_us"] == 1e6
    assert m["mlp.predict.single_us"] == 1e6
    assert m["mlp.failed"] == 1.0 and m["evaluation.failed"] == 0.0


def test_speed_factor_is_reference_time_over_mean_sample():
    from speed import REF_S, Speed

    speed = Speed()
    assert speed.factor() == 0.0
    speed.samples = [REF_S / 2, REF_S * 3 / 2]
    assert speed.factor() == pytest.approx(1.0)
    speed.samples = [REF_S * 2, REF_S * 2]
    assert speed.factor() == pytest.approx(0.5)
