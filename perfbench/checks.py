"""Output checks and quality figures for benchmark artifacts.

Every check is one attempted operation. A check that raises, for any reason,
counts as one failed operation and never stops the benchmark.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from bitetiming.dataio import load_dataset
from bitetiming.evaluation import confusion, nmcc
from bitetiming.features import ABLATIONS, feature_dim
from bitetiming.mlp import load_model
from bitetiming.policy import DEFAULT_TAU, TAU_GRID
from bitetiming.sim import Phase, TrajectoryConfig, read_session_log
from tracing import PROCEED_VALUES

CONTROL_DT_S = TrajectoryConfig().control_dt_s


class CheckFailed(ValueError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Checker:
    """Counts attempted and failed operations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, what: str, fn, *args):
        """Run one check; return its value, or None if it failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as e:  # any failure of a check is a counted failure
            self.fail(f"{what}: {type(e).__name__}: {e}")
            return None

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def operation(self, what: str, ok: bool) -> None:
        """Count an operation performed elsewhere, such as a CLI command."""
        self.attempted += 1
        if not ok:
            self.fail(what)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def artifact_hashes(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    return {
        str(p.relative_to(root)): sha256(p)
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def compare_hashes(checker: Checker, hashes: dict[str, str], reference: dict[str, str]) -> None:
    """One check per reference artifact: present and byte-identical."""
    for name, expected in reference.items():
        checker.run(
            f"sha256 {name}",
            lambda n=name, e=expected: require(
                hashes.get(n) == e, "differs from the seed's first run"
            ),
        )
    for name in sorted(set(hashes) - set(reference)):
        checker.fail(f"sha256 {name}: not produced by the seed's first run")


def check_dataset(manifest: Path, n_sessions: int) -> None:
    sessions = load_dataset(manifest)
    require(
        len(sessions) == n_sessions,
        f"{manifest}: {len(sessions)} sessions, expected {n_sessions}",
    )


def check_model(path: Path, ablation: str = "imu+mic"):
    model = load_model(path)
    require(
        model.input_dim == feature_dim(ablation),
        f"{path}: input dim {model.input_dim}, expected {feature_dim(ablation)}",
    )
    return model


def check_loss_table(path: Path, epochs: int) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    require(len(lines) == epochs + 1, f"{path}: {len(lines)} lines, expected {epochs + 1}")


def check_report(out_dir: Path, n_participants: int) -> list[dict]:
    rows = [
        json.loads(line)
        for line in (out_dir / "report.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    expected = len(ABLATIONS) * n_participants * len(TAU_GRID)
    require(len(rows) == expected, f"report has {len(rows)} rows, expected {expected}")
    tsv_rows = (out_dir / "report.tsv").read_text(encoding="utf-8").splitlines()
    require(len(tsv_rows) == expected + 1, f"report.tsv has {len(tsv_rows)} lines")
    require((out_dir / "summary.txt").stat().st_size > 0, "summary.txt is empty")
    return rows


def check_log(path: Path, duration: float):
    log = read_session_log(path)
    expected = round(duration / CONTROL_DT_S)
    require(
        len(log.ticks) == expected,
        f"{path}: {len(log.ticks)} ticks, expected {expected}",
    )
    return log


def loso_quality(rows: list[dict], tau: float = DEFAULT_TAU) -> tuple[float, float]:
    """Macro MAE and macro nMCC at ``tau`` for the imu+mic ablation."""
    chosen = [r for r in rows if r["ablation"] == "imu+mic" and r["tau"] == tau]
    require(bool(chosen), f"no imu+mic rows at tau {tau}")
    mae = sum(r["mae_seconds"] for r in chosen) / len(chosen)
    return mae, sum(r["nmcc"] for r in chosen) / len(chosen)


def oracle_nmcc(logs_and_oracles) -> float:
    """nMCC of logged proceed/stop against the oracle, pooled over sessions.

    Only ticks at staging or approaching count: there a proceed or stop
    decides whether the utensil moves toward the mouth.
    """
    predicted: list[int] = []
    actual: list[int] = []
    for log, oracle in logs_and_oracles:
        for tick in log.ticks:
            if tick.phase in (Phase.AT_STAGING, Phase.APPROACHING):
                predicted.append(int(tick.command.value in PROCEED_VALUES))
                actual.append(int(oracle.command_at(tick.t).value == "proceed"))
    require(bool(predicted), "no ticks at staging or approaching")
    return nmcc(confusion(predicted, actual))
