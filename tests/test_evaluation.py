"""Metrics, threshold sweeps, and leave-one-subject-out evaluation."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import window_table

from bitetiming.dataio import SessionRecord
from bitetiming.errors import InsufficientDataError
from bitetiming.evaluation import (
    ConfusionCounts,
    accuracy,
    audit_fold,
    confusion,
    evaluate_alignment,
    mae_seconds,
    mcc,
    naive_mean_baseline,
    nmcc,
    report_rows,
    run_loso,
    sweep_thresholds,
    write_report_files,
)
from bitetiming.features import NormalizationStats
from bitetiming.mlp import MlpModel, TrainConfig, model_digest, predict, train
from bitetiming.pipeline import extract_dataset_windows
import bitetiming.evaluation as evaluation
from bitetiming.policy import TAU_GRID
from bitetiming.sim import generate_synthetic_session


def test_mae_fixtures():
    assert mae_seconds(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert mae_seconds(np.array([3.0, 5.0]), np.array([4.0, 9.0])) == 2.5
    # Labels are capped before comparison, predictions are not.
    assert mae_seconds(np.array([10.0]), np.array([14.0])) == 0.0
    assert mae_seconds(np.array([12.0]), np.array([14.0])) == 2.0


def test_mae_validation():
    with pytest.raises(ValueError):
        mae_seconds(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        mae_seconds(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(InsufficientDataError):
        mae_seconds(np.array([]), np.array([]))


def test_naive_baseline():
    assert naive_mean_baseline(np.array([5.0, 5.0]), np.array([3.0, 7.0])) == 2.0
    assert naive_mean_baseline(np.array([4.0]), np.array([4.0])) == 0.0
    # Training labels are capped before the mean is taken.
    assert naive_mean_baseline(np.array([14.0, 6.0]), np.array([8.0])) == 0.0
    with pytest.raises(InsufficientDataError):
        naive_mean_baseline(np.array([]), np.array([1.0]))


def test_confusion_counts():
    counts = confusion(np.array([1, 0, 1, 0]), np.array([1, 1, 0, 0]))
    assert (counts.tp, counts.fn, counts.fp, counts.tn) == (1, 1, 1, 1)
    assert counts.total == 4
    merged = counts + ConfusionCounts(tp=2, tn=0, fp=0, fn=0)
    assert (merged.tp, merged.total) == (3, 6)
    with pytest.raises(ValueError):
        confusion(np.array([1, 0]), np.array([1, 0, 1]))


def test_mcc_fixtures():
    assert mcc(ConfusionCounts(tp=5, tn=5, fp=0, fn=0)) == 1.0
    assert mcc(ConfusionCounts(tp=0, tn=0, fp=5, fn=5)) == -1.0
    # Degenerate marginals give 0 rather than dividing by zero.
    assert mcc(ConfusionCounts(tp=4, tn=0, fp=6, fn=0)) == 0.0
    assert mcc(ConfusionCounts(tp=0, tn=0, fp=0, fn=0)) == 0.0
    expected = 4.0 / math.sqrt(240.0)
    assert mcc(ConfusionCounts(tp=3, tn=2, fp=1, fn=2)) == pytest.approx(expected)


def test_nmcc_fixtures():
    assert nmcc(ConfusionCounts(tp=5, tn=5, fp=0, fn=0)) == 1.0
    assert nmcc(ConfusionCounts(tp=4, tn=0, fp=6, fn=0)) == 0.5
    expected = (4.0 / math.sqrt(240.0) + 1.0) / 2.0
    assert nmcc(ConfusionCounts(tp=3, tn=2, fp=1, fn=2)) == pytest.approx(expected)


def test_accuracy():
    assert accuracy(ConfusionCounts(tp=3, tn=2, fp=1, fn=2)) == 5 / 8
    with pytest.raises(InsufficientDataError):
        accuracy(ConfusionCounts(0, 0, 0, 0))


def test_flipping_predictions_negates_mcc():
    rng = np.random.default_rng(2)
    for _ in range(50):
        predicted = rng.integers(0, 2, 40)
        actual = rng.integers(0, 2, 40)
        counts = confusion(predicted, actual)
        flipped = confusion(1 - predicted, actual)
        assert mcc(flipped) == pytest.approx(-mcc(counts), abs=1e-12)
        assert nmcc(flipped) == pytest.approx(1.0 - nmcc(counts), abs=1e-12)
        assert accuracy(flipped) == pytest.approx(1.0 - accuracy(counts))


def stub_session(pid, scenario="individual"):
    return SessionRecord(
        participant_id=pid,
        scenario=scenario,
        imu_t=np.array([0.0, 1.0]),
        imu_accel=np.zeros((2, 3)),
        mic_t=np.array([0.0, 1.0]),
        mic_amp=np.zeros(2),
    )


def test_run_loso_needs_two_participants():
    with pytest.raises(InsufficientDataError, match="at least 2 participants"):
        run_loso(
            [stub_session("p01"), stub_session("p01", "social")],
            TrainConfig(epochs=1, batch_size=64, seed=0),
        )


def passthrough_model():
    """A hand-built network whose prediction is exactly feature[0]."""
    w = np.zeros((48, 1))
    w[0, 0] = 1.0
    return MlpModel(
        layer_dims=(48, 1),
        weights=[w],
        biases=[np.zeros(1)],
        dropout_p=0.0,
        normalization=NormalizationStats(mean=np.zeros(48), std=np.ones(48)),
    )


def table(*rows):
    """A WindowTable from (participant, y_hat, label, motion) rows.

    Under passthrough_model() each row predicts its y_hat.
    """
    pids, y_hats, labels, motion = zip(*rows)
    features = np.zeros((len(rows), 48))
    features[:, 0] = y_hats
    return window_table(features, labels, pids, motion)


def test_evaluate_alignment_counts_by_hand():
    rows = table(
        ("p1", 3.0, 3.0, 1),   # proceed, moving: TP
        ("p1", 7.0, 7.0, 0),   # stop, stopped: TN
        ("p1", 3.0, 3.0, 0),   # proceed, stopped: FP
        ("p1", 7.0, 7.0, 1),   # stop, moving: FN
        ("p1", 2.0, 2.0, None),  # no motion truth: MAE only
    )
    reports = evaluate_alignment(passthrough_model(), rows, tau=6.0)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.participant_id == "p1"
    assert rep.n_windows == 4
    assert (rep.counts.tp, rep.counts.tn, rep.counts.fp, rep.counts.fn) == (1, 1, 1, 1)
    assert rep.accuracy == 0.5
    assert rep.mcc == 0.0
    assert rep.nmcc == 0.5
    assert rep.mae_seconds == 0.0  # predictions equal the labels on all 5 rows


def test_evaluate_alignment_boundary_and_unlabeled_participant():
    rows = table(
        ("p1", 6.0, 6.0, 1),  # exactly tau proceeds
        ("p1", 6.0, 6.0, 1),
        ("p2", 4.0, 4.0, None),  # no motion truth at all: no report
    )
    reports = evaluate_alignment(passthrough_model(), rows, tau=6.0)
    assert [r.participant_id for r in reports] == ["p1"]
    assert reports[0].counts.tp == 2
    assert reports[0].accuracy == 1.0


def test_sweep_prefers_best_nmcc():
    # Moving rows predicted at 4.5 s, stopped rows at 5.5 s: tau = 5 is the
    # only threshold that separates them perfectly.
    rows = table(*[("p1", 4.5, 4.5, 1)] * 6, *[("p1", 5.5, 5.5, 0)] * 6)
    results = sweep_thresholds(passthrough_model(), rows)
    assert len(results) == 1
    assert results[0].best_tau == 5.0
    assert results[0].by_tau[5.0].nmcc == 1.0
    assert set(results[0].by_tau) == set(TAU_GRID)


def test_sweep_tie_goes_to_smaller_tau():
    rows = table(*[("p1", 0.5, 0.5, 1)] * 4)
    results = sweep_thresholds(passthrough_model(), rows)
    # Every tau gives identical degenerate counts, so the sweep keeps tau = 4.
    assert results[0].best_tau == 4.0
    nmccs = [results[0].by_tau[tau].nmcc for tau in TAU_GRID]
    assert len(set(nmccs)) == 1


@pytest.fixture(scope="module")
def small_dataset():
    sessions = []
    for i, pid in enumerate(("p01", "p02", "p03")):
        for j, scenario in enumerate(("individual", "social")):
            sessions.append(
                generate_synthetic_session(pid, scenario, 60.0, seed=[100, i, j])
            )
    return sessions


@pytest.fixture(scope="module")
def small_loso(small_dataset):
    cfg = TrainConfig(epochs=3, batch_size=64, seed=0)
    return run_loso(small_dataset, cfg, hidden_dims=(16, 8))


def without_motion(session):
    return dataclasses.replace(
        session, motion_t=np.empty(0), motion_moving=np.empty(0, dtype=np.int64)
    )


def test_run_loso_rejects_a_participant_without_motion_labels(small_dataset):
    sessions = [
        without_motion(s) if s.participant_id == "p02" else s for s in small_dataset
    ]
    with pytest.raises(InsufficientDataError, match="participant p02 has no motion labels"):
        run_loso(sessions, TrainConfig(epochs=1, batch_size=64, seed=0), hidden_dims=(4,))


def test_run_loso_predicts_once_per_fold(small_dataset, monkeypatch):
    calls = []

    def counting_predict(model, features):
        calls.append(features.shape)
        return predict(model, features)

    monkeypatch.setattr(evaluation, "predict", counting_predict)
    cfg = TrainConfig(epochs=1, batch_size=64, seed=0)
    ev = run_loso(small_dataset, cfg, hidden_dims=(4,))
    assert [shape[0] for shape in calls] == [f.n_test_rows for f in ev.folds]


def test_run_loso_rejects_a_tau_off_the_grid_before_any_work(small_dataset, monkeypatch):
    def unexpected(*args, **kwargs):
        raise AssertionError("run_loso extracted or trained before checking tau")

    monkeypatch.setattr(evaluation, "extract_dataset_windows", unexpected)
    monkeypatch.setattr(evaluation, "train", unexpected)
    cfg = TrainConfig(epochs=1, batch_size=64, seed=0)
    with pytest.raises(ValueError, match=r"fixed_tau must be one of \(4\.0, .*8\.0\), got 5\.5"):
        run_loso(small_dataset, cfg, fixed_tau=5.5, hidden_dims=(4,))


def test_alignment_entry_points_agree_with_run_loso(small_dataset, small_loso):
    # evaluate_alignment and sweep_thresholds on one fold's model and held-out
    # rows reproduce that fold's reports and best tau.
    fold = small_loso.folds[0]
    cfg = TrainConfig(epochs=3, batch_size=64, seed=0)
    windows = extract_dataset_windows(small_dataset)
    held_out = windows.participant == fold.participant_id
    model, _ = train(windows.rows(~held_out), cfg, hidden_dims=(16, 8))
    assert model_digest(model) == fold.model_digest
    test_rows = windows.rows(held_out)
    y_hat = predict(model, test_rows.features)
    assert fold.mae_seconds == mae_seconds(y_hat, test_rows.time_to_bite)
    [sweep] = sweep_thresholds(model, test_rows)
    assert sweep.best_tau == fold.best_tau
    assert sweep.by_tau == fold.alignment_by_tau
    for tau in TAU_GRID:
        assert evaluate_alignment(model, test_rows, tau) == [fold.alignment_by_tau[tau]]


def test_run_loso_fold_structure(small_loso):
    assert small_loso.ablation == "imu+mic"
    assert [f.participant_id for f in small_loso.folds] == ["p01", "p02", "p03"]
    for fold in small_loso.folds:
        assert fold.n_test_rows > 0
        assert fold.n_train_rows > fold.n_test_rows
        assert set(fold.alignment_by_tau) == set(TAU_GRID)
        assert fold.best_tau in TAU_GRID
        assert fold.mae_seconds > 0.0
        assert fold.naive_mae_seconds > 0.0
        assert math.isfinite(fold.final_train_loss)


def test_run_loso_sweep_dominates_fixed_tau(small_loso):
    for fold in small_loso.folds:
        best = fold.alignment_by_tau[fold.best_tau].nmcc
        assert best >= fold.alignment_by_tau[6.0].nmcc
    assert small_loso.macro_nmcc(None) >= small_loso.macro_nmcc(6.0)


def test_run_loso_macro_micro_consistency(small_loso):
    maes = [f.mae_seconds for f in small_loso.folds]
    assert small_loso.macro_mae() == pytest.approx(np.mean(maes))
    assert small_loso.macro_naive_mae() == pytest.approx(
        np.mean([f.naive_mae_seconds for f in small_loso.folds])
    )
    total = small_loso.micro_counts(6.0)
    by_hand = sum(
        (f.alignment_by_tau[6.0].counts for f in small_loso.folds),
        ConfusionCounts(0, 0, 0, 0),
    )
    assert total == by_hand
    assert small_loso.micro_nmcc(6.0) == nmcc(by_hand)
    # tau=None takes each fold's report at its own best tau.
    best = [f.alignment_by_tau[f.best_tau] for f in small_loso.folds]
    by_hand = sum((r.counts for r in best), ConfusionCounts(0, 0, 0, 0))
    assert small_loso.micro_counts(None) == by_hand
    assert small_loso.micro_nmcc(None) == nmcc(by_hand)
    assert small_loso.macro_nmcc(None) == pytest.approx(np.mean([r.nmcc for r in best]))
    assert small_loso.macro_accuracy(None) == pytest.approx(
        np.mean([r.accuracy for r in best])
    )


def test_audit_fold_reproduces_the_fold_model(small_dataset, small_loso):
    fold = small_loso.folds[1]
    digest = audit_fold(
        small_dataset,
        TrainConfig(epochs=3, batch_size=64, seed=0),
        fold.participant_id,
        hidden_dims=(16, 8),
    )
    assert digest == fold.model_digest


def test_report_files_are_deterministic(small_loso, tmp_path):
    rows = report_rows([small_loso])
    assert len(rows) == 3 * len(TAU_GRID)
    paths_a = write_report_files([small_loso], tmp_path / "a")
    paths_b = write_report_files([small_loso], tmp_path / "b")
    assert [p.name for p in paths_a] == ["report.tsv", "report.jsonl", "summary.txt"]
    for pa, pb in zip(paths_a, paths_b):
        assert pa.read_bytes() == pb.read_bytes()
    tsv_lines = paths_a[0].read_text().splitlines()
    assert len(tsv_lines) == 1 + len(rows)
    assert tsv_lines[0].startswith("ablation\tparticipant\ttau")
    summary = paths_a[2].read_text()
    assert "== ablation: imu+mic ==" in summary
    assert "naive train-mean MAE" in summary
