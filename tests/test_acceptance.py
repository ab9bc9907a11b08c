"""Acceptance gate: one test per release criterion, with a PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The heavyweight fixtures (synthetic dataset, cross-validation, the
closed-loop session bank) are shared across criteria, so the whole module
stays within the stated runtime budgets.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import brute_force_features, make_window, window_features

from bitetiming.cli import main as cli_main
from bitetiming.dataio import load_dataset, write_session_log
from bitetiming.errors import SchemaVersionError
from bitetiming.evaluation import confusion, mcc, nmcc, run_loso, ConfusionCounts
from bitetiming.mlp import (
    TrainConfig,
    init_mlp,
    load_model,
    loss_and_gradients,
    predict,
    save_model,
    train,
)
from bitetiming.pipeline import extract_dataset_windows
from bitetiming.policy import (
    COMMIT_DISTANCE_M,
    Command,
    FixedIntervalPolicy,
    Phase,
    WafflePolicy,
    map_assertiveness,
)
from bitetiming.sim import (
    generate_dataset,
    model_predictor,
    run_session,
    synthesize_scenario,
)

ABLATIONS = ("imu+mic", "imu", "mic")


def report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def sessions(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "data"
    manifest = generate_dataset(out, 10, 240.0, seed=7)
    return load_dataset(manifest)


@pytest.fixture(scope="module")
def loso_by_ablation(sessions):
    cfg = TrainConfig(seed=0)
    start = time.perf_counter()
    evals = {a: run_loso(sessions, cfg, ablation=a) for a in ABLATIONS}
    return evals, time.perf_counter() - start


@pytest.fixture(scope="module")
def combined_model(sessions):
    windows = extract_dataset_windows(sessions)
    model, _ = train(windows, TrainConfig(seed=0))
    return model


@pytest.fixture(scope="module")
def waffle_logs(combined_model):
    predictor = model_predictor(combined_model)
    logs = {}
    for k in range(20):
        scenario = "individual" if k % 2 == 0 else "social"
        scn = synthesize_scenario(f"sim{k:02d}", scenario, 150.0, seed=[11, k])
        for level in range(1, 6):
            logs[(k, level)] = run_session(
                scn.session,
                WafflePolicy(map_assertiveness(level)),
                predictor=predictor,
            )
    return logs


def test_criterion_1_feature_oracle_equivalence():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    exact_idx = [j for j in range(48) if j % 6 in (0, 1, 4)]  # max, min, range
    close_idx = [j for j in range(48) if j % 6 not in (0, 1, 4)]
    worst = 0.0
    for i in range(1000):
        window = make_window(rng, scale=rng.uniform(0.5, 2.0))
        ours = window_features(*window)
        theirs = np.array(brute_force_features(*window))
        assert np.array_equal(ours[exact_idx], theirs[exact_idx])
        rel = np.abs(ours[close_idx] - theirs[close_idx]) / np.maximum(
            np.maximum(np.abs(ours[close_idx]), np.abs(theirs[close_idx])), 1e-300
        )
        worst = max(worst, float(np.max(rel)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    report(1, ok, f"1000 windows, max rel err {worst:.2e}, {elapsed:.1f}s")


def _forward_by_hand(weights, biases, x):
    a = x
    pre = []
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = a @ w + b
        pre.append(z)
        a = np.maximum(z, 0.0) if i < len(weights) - 1 else z
    return a[:, 0], pre


def test_criterion_2_gradient_check():
    rng = np.random.default_rng(42)
    model = init_mlp((48, 16, 8, 1), seed=3, dropout_p=0.0)
    h = 1e-5
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    for _ in range(20):
        x = rng.normal(0.0, 1.0, (1, 48))
        y = np.array([rng.uniform(0.0, 10.0)])
        _, w_grads, b_grads = loss_and_gradients(model, x, y)
        for _ in range(12):
            layer = int(rng.integers(0, len(model.weights)))
            is_weight = rng.random() < 0.85
            arr = model.weights[layer] if is_weight else model.biases[layer]
            grad = w_grads[layer] if is_weight else b_grads[layer]
            idx = tuple(int(rng.integers(0, s)) for s in arr.shape)
            orig = arr[idx]
            arr[idx] = orig + h
            yp, pre_p = _forward_by_hand(model.weights, model.biases, x)
            arr[idx] = orig - h
            ym, pre_m = _forward_by_hand(model.weights, model.biases, x)
            arr[idx] = orig
            crossed = any(
                np.any((zp > 0) != (zm > 0))
                for zp, zm in zip(pre_p[:-1], pre_m[:-1])
            ) or np.sign(yp[0] - y[0]) != np.sign(ym[0] - y[0])
            if crossed:
                continue
            numeric = (abs(yp[0] - y[0]) - abs(ym[0] - y[0])) / (2 * h)
            analytic = grad[idx]
            rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-7)
            worst = max(worst, rel)
            checked += 1
    elapsed = time.perf_counter() - start
    ok = checked >= 200 and worst < 1e-4 and elapsed < 30.0
    report(2, ok, f"{checked} parameters, max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_metric_fixtures():
    perfect = ConfusionCounts(tp=5, tn=5, fp=0, fn=0)
    always = ConfusionCounts(tp=4, tn=0, fp=6, fn=0)
    mixed = ConfusionCounts(tp=3, tn=2, fp=1, fn=2)
    ok = (
        mcc(perfect) == 1.0
        and nmcc(perfect) == 1.0
        and mcc(always) == 0.0
        and nmcc(always) == 0.5
        and abs(mcc(mixed) - 4.0 / np.sqrt(240.0)) < 1e-9
        and abs(nmcc(mixed) - 0.6290994) < 1e-6
    )
    # Structural Always-Feed check: single-class predictions on mixed labels
    # land at exactly 0.5 whatever the labels are.
    rng = np.random.default_rng(5)
    for _ in range(20):
        moving = rng.integers(0, 2, 50)
        counts = confusion(np.ones(50, dtype=int), moving)
        ok = ok and nmcc(counts) == 0.5
    report(3, ok, "mcc 1.0 / 0.0 / 0.2582 fixtures, single-class nMCC exactly 0.5")


def test_criterion_4_learnability_ordering(loso_by_ablation):
    evals, elapsed = loso_by_ablation
    mae = {a: evals[a].macro_mae() for a in ABLATIONS}
    naive = evals["imu+mic"].macro_naive_mae()
    ok = (
        mae["imu+mic"] <= 0.90 * naive
        and mae["imu+mic"] <= mae["imu"] + 0.15
        and mae["imu+mic"] <= mae["mic"] + 0.15
        and mae["imu+mic"] < mae["imu"] < mae["mic"] < naive
        and elapsed < 300.0
    )
    report(
        4,
        ok,
        f"MAE combined {mae['imu+mic']:.3f} < imu {mae['imu']:.3f} "
        f"< mic {mae['mic']:.3f} < naive {naive:.3f} "
        f"(ratio {mae['imu+mic'] / naive:.3f}), LOSO {elapsed:.0f}s",
    )


def test_criterion_5_alignment_ordering(loso_by_ablation):
    evals, _ = loso_by_ablation
    combined = evals["imu+mic"]
    fixed_macro = combined.macro_nmcc(6.0)
    swept_macro = combined.macro_nmcc(None)
    fixed_micro = combined.micro_nmcc(6.0)
    swept_micro = combined.micro_nmcc(None)
    ok = (
        swept_macro >= fixed_macro
        and swept_micro >= fixed_micro
        and all(e.macro_nmcc(None) >= e.macro_nmcc(6.0) for e in evals.values())
        and fixed_macro >= 0.55
        and swept_macro >= 0.55
    )
    report(
        5,
        ok,
        f"nMCC swept {swept_macro:.3f} >= fixed {fixed_macro:.3f} "
        f"(micro {swept_micro:.3f} >= {fixed_micro:.3f}), both >= 0.55",
    )


def test_criterion_6_determinism_and_monotone_assertiveness(
    waffle_logs, combined_model, tmp_path
):
    all_mono = True
    for k in range(20):
        counts = [len(waffle_logs[(k, level)].bites) for level in range(1, 6)]
        all_mono = all_mono and all(a <= b for a, b in zip(counts, counts[1:]))

    scn = synthesize_scenario("sim00", "individual", 150.0, seed=[11, 0])
    rerun = run_session(
        scn.session,
        WafflePolicy(map_assertiveness(3)),
        predictor=model_predictor(combined_model),
    )
    path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_session_log(waffle_logs[(0, 3)], path_a)
    write_session_log(rerun, path_b)
    identical = path_a.read_bytes() == path_b.read_bytes()
    ok = all_mono and identical
    report(
        6,
        ok,
        f"20 sessions monotone over levels 1-5: {all_mono}, "
        f"identical-seed logs byte-identical: {identical}",
    )


def test_criterion_7_fixed_interval_fidelity():
    scn = synthesize_scenario("fi", "individual", 150.0, seed=[12])
    log = run_session(scn.session, FixedIntervalPolicy())
    triggers = [
        t.t for t in log.ticks if t.command is Command.TRIGGER_FULL_TRAJECTORY
    ]
    ok = len(triggers) == 3 and all(
        abs(t - want) <= 0.5 for t, want in zip(triggers, (45.0, 90.0, 135.0))
    )
    report(7, ok, f"150 s session triggers at {triggers}")


def test_criterion_8_commit_rule_safety(waffle_logs):
    violations = 0
    for log in waffle_logs.values():
        pending = False
        for tick in log.ticks:
            if tick.phase is Phase.RETURNING:
                pending = False
            if tick.distance_to_mouth <= COMMIT_DISTANCE_M and tick.phase in (
                Phase.APPROACHING,
                Phase.AT_FEEDING,
            ):
                pending = True
            if pending and tick.command is Command.STOP:
                violations += 1
    ok = violations == 0
    report(
        8,
        ok,
        f"{len(waffle_logs)} closed-loop sessions, "
        f"{violations} Stops inside the commit zone",
    )


def test_criterion_9_serialization(combined_model, tmp_path):
    path = tmp_path / "model.json"
    save_model(combined_model, path)
    loaded = load_model(path)
    x = np.random.default_rng(303).normal(0.0, 1.0, (100, 48))
    bitwise = np.array_equal(predict(combined_model, x), predict(loaded, x))
    doc = json.loads(path.read_text())
    doc["schema"] = "bitetiming-model/0"
    path.write_text(json.dumps(doc))
    try:
        load_model(path)
        rejected = False
    except SchemaVersionError:
        rejected = True
    ok = bitwise and rejected
    report(
        9,
        ok,
        f"100 inputs bitwise-identical: {bitwise}, "
        f"schema mismatch rejected: {rejected}",
    )


def _pipeline_run(base: Path) -> list[Path]:
    data = base / "data"
    model = base / "model.json"
    reports = base / "reports"
    for argv in (
        ["synth", "--out", str(data), "--participants", "4", "--duration", "90",
         "--seed", "3"],
        ["train", "--manifest", str(data / "manifest.json"), "--out", str(model),
         "--seed", "0", "--epochs", "12"],
        ["eval", "--manifest", str(data / "manifest.json"), "--out", str(reports),
         "--seed", "0", "--epochs", "12"],
    ):
        assert cli_main(argv) == 0, argv
    return [
        reports / "report.tsv",
        reports / "report.jsonl",
        reports / "summary.txt",
        model,
    ]


def test_criterion_10_end_to_end_determinism(tmp_path):
    first = _pipeline_run(tmp_path / "run1")
    second = _pipeline_run(tmp_path / "run2")
    same = [a.read_bytes() == b.read_bytes() for a, b in zip(first, second)]
    ok = all(same)
    report(
        10,
        ok,
        "synth/train/eval reruns byte-identical: "
        + ", ".join(f"{p.name}={s}" for p, s in zip(first, same)),
    )
