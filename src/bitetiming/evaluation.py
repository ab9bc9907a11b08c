"""Regression and alignment metrics with leave-one-subject-out evaluation.

Regression quality is mean absolute error in seconds, with labels capped the
same way training caps them, and is compared against the naive baseline that
always predicts the training-label mean. Alignment quality compares the
thresholded predictions against ground-truth proceed/stop motion labels:
accuracy, Matthews correlation (MCC), and normalized MCC (nMCC =
(MCC + 1) / 2, so chance-level or degenerate agreement sits at 0.5).
Proceeding is the positive class. Alignment is kept as confusion counts per
participant and tau, and every score is computed from them. Reports score
every tau in ``TAU_GRID``, the default level's ``DEFAULT_TAU`` and each
fold's best tau.

Cross-validation holds out every session of one participant per fold.
Normalization statistics and network weights come from the training fold
alone; ``audit_fold`` re-derives a fold's model to prove it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .dataio import SessionRecord
from .errors import InsufficientDataError
from .mlp import (
    DEFAULT_HIDDEN_DIMS,
    LABEL_CAP_SECONDS,
    MlpModel,
    TrainConfig,
    model_digest,
    predict,
    train,
)
from .pipeline import WindowTable, extract_dataset_windows
from .policy import DEFAULT_TAU, TAU_GRID


def mae_seconds(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Mean absolute error in seconds, labels capped at ``LABEL_CAP_SECONDS``."""
    predictions = np.asarray(predictions, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if predictions.shape != labels.shape or predictions.ndim != 1:
        raise ValueError(
            f"predictions and labels must be matching 1-D arrays, "
            f"got {predictions.shape} and {labels.shape}"
        )
    if predictions.size == 0:
        raise InsufficientDataError("mae needs at least one prediction")
    return float(np.mean(np.abs(predictions - np.minimum(labels, LABEL_CAP_SECONDS))))


def naive_mean_baseline(train_labels: np.ndarray, test_labels: np.ndarray) -> float:
    """MAE of the constant predictor that outputs the training-label mean."""
    train_labels = np.minimum(np.asarray(train_labels, dtype=np.float64), LABEL_CAP_SECONDS)
    if train_labels.size == 0:
        raise InsufficientDataError("naive baseline needs training labels")
    constant = float(np.mean(train_labels))
    test_labels = np.asarray(test_labels, dtype=np.float64)
    return mae_seconds(np.full(test_labels.shape, constant), test_labels)


@dataclass(frozen=True)
class ConfusionCounts:
    """Binary confusion counts with proceed/moving as the positive class."""

    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            tp=self.tp + other.tp,
            tn=self.tn + other.tn,
            fp=self.fp + other.fp,
            fn=self.fn + other.fn,
        )


def confusion(predicted: np.ndarray, actual: np.ndarray) -> ConfusionCounts:
    """Count a binary confusion matrix from 0/1 arrays."""
    predicted = np.asarray(predicted).astype(bool)
    actual = np.asarray(actual).astype(bool)
    if predicted.shape != actual.shape:
        raise ValueError(
            f"prediction shape {predicted.shape} != label shape {actual.shape}"
        )
    return ConfusionCounts(
        tp=int(np.sum(predicted & actual)),
        tn=int(np.sum(~predicted & ~actual)),
        fp=int(np.sum(predicted & ~actual)),
        fn=int(np.sum(~predicted & actual)),
    )


def mcc(counts: ConfusionCounts) -> float:
    """Matthews correlation coefficient; 0.0 when any marginal is empty."""
    tp, tn, fp, fn = counts.tp, counts.tn, counts.fp, counts.fn
    denom_sq = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom_sq == 0:
        return 0.0
    return (tp * tn - fp * fn) / math.sqrt(denom_sq)


def nmcc(counts: ConfusionCounts) -> float:
    """MCC rescaled to [0, 1]; degenerate single-class data gives 0.5."""
    return (mcc(counts) + 1.0) / 2.0


def accuracy(counts: ConfusionCounts) -> float:
    if counts.total == 0:
        raise InsufficientDataError("accuracy needs at least one decision")
    return (counts.tp + counts.tn) / counts.total


def _counts_by_tau(
    y_hat: np.ndarray,
    windows: WindowTable,
    taus: tuple[float, ...],
) -> dict[str, dict[float, ConfusionCounts]]:
    """Every tau's confusion counts per participant, all from one prediction.

    Each window proceeds iff its prediction is finite and at most tau.
    Windows without a motion label are skipped, and participants with none
    are left out.
    """
    y_hat = np.asarray(y_hat, dtype=np.float64)
    known = windows.motion_known
    by_participant = {}
    for pid in np.unique(windows.participant[known]):
        rows = known & (windows.participant == pid)
        decided_y_hat, moving = y_hat[rows], windows.motion_label[rows]
        finite = np.isfinite(decided_y_hat)
        by_participant[str(pid)] = {
            float(tau): confusion(finite & (decided_y_hat <= tau), moving)
            for tau in taus
        }
    return by_participant


def _best_tau(by_tau: dict[float, ConfusionCounts]) -> float:
    """The tau with the highest nMCC; ties go to the smaller tau."""
    return max(sorted(by_tau), key=lambda tau: nmcc(by_tau[tau]))


def evaluate_alignment(
    model: MlpModel,
    windows: WindowTable,
    tau: float = DEFAULT_TAU,
) -> dict[str, ConfusionCounts]:
    """Per-participant confusion counts of thresholded predictions at one tau."""
    by_participant = _counts_by_tau(predict(model, windows.features), windows, (tau,))
    return {pid: by_tau[float(tau)] for pid, by_tau in by_participant.items()}


def sweep_thresholds(
    model: MlpModel, windows: WindowTable
) -> dict[str, dict[float, ConfusionCounts]]:
    """Per-participant confusion counts at every tau in ``TAU_GRID``."""
    return _counts_by_tau(predict(model, windows.features), windows, TAU_GRID)


@dataclass
class FoldResult:
    """Everything measured on one held-out participant."""

    participant_id: str
    n_train_rows: int
    n_test_rows: int
    mae_seconds: float
    naive_mae_seconds: float
    counts_by_tau: dict[float, ConfusionCounts]
    best_tau: float
    model_digest: str
    final_train_loss: float


@dataclass
class LosoEvaluation:
    """Leave-one-subject-out results for one modality ablation."""

    ablation: str
    folds: list[FoldResult]

    def macro_mae(self) -> float:
        return float(np.mean([f.mae_seconds for f in self.folds]))

    def mae_std(self) -> float:
        return float(np.std([f.mae_seconds for f in self.folds]))

    def macro_naive_mae(self) -> float:
        return float(np.mean([f.naive_mae_seconds for f in self.folds]))

    def _counts(self, tau: float | None) -> list[ConfusionCounts]:
        """Each fold's counts at a fixed tau, or at the fold's best tau if None."""
        return [
            f.counts_by_tau[f.best_tau if tau is None else float(tau)]
            for f in self.folds
        ]

    def macro_nmcc(self, tau: float | None = None) -> float:
        """Macro-average nMCC at a fixed tau, or each fold's optimum if None."""
        return float(np.mean([nmcc(c) for c in self._counts(tau)]))

    def macro_accuracy(self, tau: float | None = None) -> float:
        return float(np.mean([accuracy(c) for c in self._counts(tau)]))

    def micro_counts(self, tau: float | None = None) -> ConfusionCounts:
        return sum(self._counts(tau), ConfusionCounts(0, 0, 0, 0))

    def micro_nmcc(self, tau: float | None = None) -> float:
        return nmcc(self.micro_counts(tau))

    def micro_accuracy(self, tau: float | None = None) -> float:
        return accuracy(self.micro_counts(tau))


def run_loso(
    sessions: list[SessionRecord],
    cfg: TrainConfig,
    ablation: str = "imu+mic",
    hidden_dims: tuple[int, ...] = DEFAULT_HIDDEN_DIMS,
) -> LosoEvaluation:
    """Train and evaluate one model per leave-one-subject-out fold.

    Each fold predicts its held-out rows once; the regression MAE, the
    confusion counts of every tau in ``TAU_GRID`` and the best tau all come
    from that prediction.

    Raises InsufficientDataError with fewer than two participants, or naming
    a participant who has no labeled windows or no motion ground truth.
    """
    participants = sorted({s.participant_id for s in sessions})
    if len(participants) < 2:
        raise InsufficientDataError(
            f"leave-one-subject-out needs at least 2 participants, "
            f"got {len(participants)}"
        )
    windows = extract_dataset_windows(sessions)
    windows = windows.rows(np.argsort(windows.participant, kind="stable"))

    results = []
    for pid in participants:
        held_out = windows.participant == pid
        train_rows, test_rows = windows.rows(~held_out), windows.rows(held_out)
        if not len(test_rows):
            raise InsufficientDataError(f"participant {pid} has no labeled windows")
        if not test_rows.motion_known.any():
            raise InsufficientDataError(f"participant {pid} has no motion labels")
        model, losses = train(train_rows, cfg, ablation, hidden_dims)

        y_hat = predict(model, test_rows.features)
        counts_by_tau = _counts_by_tau(y_hat, test_rows, TAU_GRID)[pid]
        best_tau = _best_tau(counts_by_tau)
        results.append(
            FoldResult(
                participant_id=pid,
                n_train_rows=len(train_rows),
                n_test_rows=len(test_rows),
                mae_seconds=mae_seconds(y_hat, test_rows.time_to_bite),
                naive_mae_seconds=naive_mean_baseline(
                    train_rows.time_to_bite, test_rows.time_to_bite
                ),
                counts_by_tau=counts_by_tau,
                best_tau=best_tau,
                model_digest=model_digest(model),
                final_train_loss=losses[-1],
            )
        )
    return LosoEvaluation(ablation=ablation, folds=results)


def audit_fold(
    sessions: list[SessionRecord],
    cfg: TrainConfig,
    participant_id: str,
    ablation: str = "imu+mic",
    hidden_dims: tuple[int, ...] = DEFAULT_HIDDEN_DIMS,
) -> str:
    """Independently retrain one fold and return its model digest.

    The digest covers weights and normalization statistics, so it matches the
    corresponding ``FoldResult.model_digest`` only if the fold's model was
    fitted on the training sessions alone.
    """
    train_sessions = sorted(
        (s for s in sessions if s.participant_id != participant_id),
        key=lambda s: (s.participant_id, s.scenario),
    )
    model, _ = train(extract_dataset_windows(train_sessions), cfg, ablation, hidden_dims)
    return model_digest(model)


# report.tsv columns in order, each with the format spec of its cells
# ("d" writes the is_best_tau flag as 1 or 0).
_TSV_COLUMNS = {
    "ablation": "s",
    "participant": "s",
    "tau": "g",
    "is_best_tau": "d",
    "n_windows": "d",
    "tp": "d",
    "tn": "d",
    "fp": "d",
    "fn": "d",
    "accuracy": ".6f",
    "mcc": ".6f",
    "nmcc": ".6f",
    "mae_seconds": ".6f",
    "naive_mae_seconds": ".6f",
}


def report_rows(evaluations: list[LosoEvaluation]) -> list[dict]:
    """Flat report rows: one per ablation x participant x tau."""
    rows = []
    for ev in evaluations:
        for fold in ev.folds:
            for tau in TAU_GRID:
                counts = fold.counts_by_tau[float(tau)]
                rows.append(
                    {
                        "ablation": ev.ablation,
                        "participant": fold.participant_id,
                        "tau": float(tau),
                        "is_best_tau": tau == fold.best_tau,
                        "n_windows": counts.total,
                        **asdict(counts),
                        "accuracy": accuracy(counts),
                        "mcc": mcc(counts),
                        "nmcc": nmcc(counts),
                        "mae_seconds": fold.mae_seconds,
                        "naive_mae_seconds": fold.naive_mae_seconds,
                    }
                )
    return rows


def write_report_files(evaluations: list[LosoEvaluation], out_dir: str | Path) -> list[Path]:
    """Write report.tsv, report.jsonl, and summary.txt; returns the paths.

    Output bytes are a pure function of the evaluation results, so repeated
    runs from the same seed produce identical files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = report_rows(evaluations)

    tsv_path = out_dir / "report.tsv"
    with tsv_path.open("w", encoding="utf-8") as f:
        f.write("\t".join(_TSV_COLUMNS) + "\n")
        for row in rows:
            cells = (format(row[col], spec) for col, spec in _TSV_COLUMNS.items())
            f.write("\t".join(cells) + "\n")

    jsonl_path = out_dir / "report.jsonl"
    with jsonl_path.open("w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n")

    summary_path = out_dir / "summary.txt"
    with summary_path.open("w", encoding="utf-8") as f:
        for ev in evaluations:
            f.write(f"== ablation: {ev.ablation} ==\n")
            f.write(
                f"regression MAE (s): {ev.macro_mae():.6f} +- {ev.mae_std():.6f}"
                f" over {len(ev.folds)} folds\n"
            )
            f.write(f"naive train-mean MAE (s): {ev.macro_naive_mae():.6f}\n")
            f.write("per-tau macro alignment:\n")
            for tau in TAU_GRID:
                f.write(
                    f"  tau={tau:g}s accuracy={ev.macro_accuracy(tau):.6f} "
                    f"nmcc={ev.macro_nmcc(tau):.6f}\n"
                )
            fixed = (f"fixed tau={DEFAULT_TAU:g}s", DEFAULT_TAU)
            for label, tau in (fixed, ("swept optimum", None)):
                f.write(
                    f"{label}: macro accuracy={ev.macro_accuracy(tau):.6f} "
                    f"nmcc={ev.macro_nmcc(tau):.6f} | micro accuracy="
                    f"{ev.micro_accuracy(tau):.6f} nmcc={ev.micro_nmcc(tau):.6f}\n"
                )
            best = ", ".join(
                f"{fold.participant_id}:{fold.best_tau:g}" for fold in ev.folds
            )
            f.write(f"per-participant best tau: {best}\n\n")
    return [tsv_path, jsonl_path, summary_path]
