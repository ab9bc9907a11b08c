"""End-to-end command-line flows, run in process."""

import filecmp
import hashlib
import json

import pytest

from bitetiming.cli import main
from bitetiming.mlp import load_model
from bitetiming.policy import Command
from bitetiming.sim import read_session_log


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "data"
    rc = main(
        [
            "synth",
            "--out",
            str(out),
            "--participants",
            "2",
            "--duration",
            "40",
            "--seed",
            "3",
        ]
    )
    assert rc == 0
    return out


def test_synth_writes_a_loadable_dataset(dataset_dir, capsys):
    manifest = dataset_dir / "manifest.json"
    assert manifest.exists()
    doc = json.loads(manifest.read_text())
    assert len(doc["sessions"]) == 4


def test_synth_is_deterministic(dataset_dir, tmp_path):
    again = tmp_path / "data2"
    rc = main(
        [
            "synth",
            "--out",
            str(again),
            "--participants",
            "2",
            "--duration",
            "40",
            "--seed",
            "3",
        ]
    )
    assert rc == 0
    names = sorted(p.name for p in dataset_dir.iterdir())
    assert names == sorted(p.name for p in again.iterdir())
    for name in names:
        assert filecmp.cmp(dataset_dir / name, again / name, shallow=False), name


def test_synth_rejects_bad_participant_count(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path / "x"), "--participants", "0"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_train_writes_model_and_loss_table(dataset_dir, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    rc = main(
        [
            "train",
            "--manifest",
            str(dataset_dir / "manifest.json"),
            "--out",
            str(model_path),
            "--epochs",
            "2",
            "--seed",
            "0",
        ]
    )
    assert rc == 0
    model = load_model(model_path)
    assert model.input_dim == 48
    assert model.layer_dims == (48, 128, 64, 1)
    loss_lines = (tmp_path / "model.json.loss.tsv").read_text().splitlines()
    assert loss_lines[0] == "epoch\ttrain_mae"
    assert len(loss_lines) == 3
    assert loss_lines[1].startswith("0\t")
    out = capsys.readouterr().out
    assert "48 features" in out


def test_train_ablation_shrinks_the_input(dataset_dir, tmp_path):
    model_path = tmp_path / "imu.json"
    rc = main(
        [
            "train",
            "--manifest",
            str(dataset_dir / "manifest.json"),
            "--out",
            str(model_path),
            "--ablation",
            "imu",
            "--epochs",
            "1",
        ]
    )
    assert rc == 0
    assert load_model(model_path).input_dim == 36


def test_train_missing_manifest_fails_cleanly(tmp_path, capsys):
    rc = main(
        [
            "train",
            "--manifest",
            str(tmp_path / "nope.json"),
            "--out",
            str(tmp_path / "m.json"),
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_train_rejects_a_manifest_whose_sessions_are_not_paths(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"schema": "waffle-manifest/1", "sessions": [5]}))
    rc = main(["train", "--manifest", str(manifest), "--out", str(tmp_path / "m.json")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {manifest}: 'sessions' must be a list of path strings"]


def test_train_names_the_line_of_a_non_numeric_field(dataset_dir, tmp_path, capsys):
    # A copy of one synthesized session whose second imu line has "ax": {}.
    lines = (dataset_dir / "p01_individual.jsonl").read_text().splitlines()
    rec = json.loads(lines[2])
    rec["ax"] = {}
    lines[2] = json.dumps(rec)
    session = tmp_path / "p01_individual.jsonl"
    session.write_text("\n".join(lines) + "\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps({"schema": "waffle-manifest/1", "sessions": [session.name]})
    )
    rc = main(["train", "--manifest", str(manifest), "--out", str(tmp_path / "m.json")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {session}:3: 'imu' field 'ax' is not a number: {{}}"]


def test_eval_writes_reports(dataset_dir, tmp_path, capsys):
    report_dir = tmp_path / "reports"
    rc = main(
        [
            "eval",
            "--manifest",
            str(dataset_dir / "manifest.json"),
            "--out",
            str(report_dir),
            "--ablation",
            "mic",
            "--epochs",
            "2",
            "--tau",
            "7.0",
        ]
    )
    assert rc == 0
    tsv = (report_dir / "report.tsv").read_text().splitlines()
    assert len(tsv) == 1 + 2 * 5  # two participants, five thresholds
    assert all(line.split("\t")[0] == "mic" for line in tsv[1:])
    summary = (report_dir / "summary.txt").read_text()
    assert "fixed tau=7s" in summary
    assert (report_dir / "report.jsonl").exists()
    out = capsys.readouterr().out
    assert "ablation mic" in out


def test_simulate_fixed_interval(tmp_path, capsys):
    log_path = tmp_path / "fi.jsonl"
    rc = main(
        [
            "simulate",
            "--policy",
            "fixed-interval",
            "--duration",
            "150",
            "--seed",
            "12",
            "--out",
            str(log_path),
        ]
    )
    assert rc == 0
    log = read_session_log(log_path)
    assert log.bite_count() == 3
    triggers = [
        t.t for t in log.ticks if t.command is Command.TRIGGER_FULL_TRAJECTORY
    ]
    assert triggers == [45.0, 90.0, 135.0]
    assert "3 bites" in capsys.readouterr().out


def test_simulate_always_feed_never_stops(tmp_path):
    log_path = tmp_path / "af.jsonl"
    rc = main(
        [
            "simulate",
            "--policy",
            "always-feed",
            "--duration",
            "60",
            "--out",
            str(log_path),
        ]
    )
    assert rc == 0
    log = read_session_log(log_path)
    assert all(t.command is Command.PROCEED for t in log.ticks)
    assert log.bite_count() >= 3


def test_simulate_waffle_end_to_end(dataset_dir, tmp_path):
    model_path = tmp_path / "model.json"
    assert (
        main(
            [
                "train",
                "--manifest",
                str(dataset_dir / "manifest.json"),
                "--out",
                str(model_path),
                "--epochs",
                "2",
            ]
        )
        == 0
    )
    log_path = tmp_path / "waffle.jsonl"
    rc = main(
        [
            "simulate",
            "--policy",
            "waffle",
            "--model",
            str(model_path),
            "--level",
            "5",
            "--duration",
            "60",
            "--out",
            str(log_path),
        ]
    )
    assert rc == 0
    log = read_session_log(log_path)
    assert log.policy_name == "waffle"
    assert len(log.ticks) == 120


def test_simulate_waffle_requires_model(tmp_path, capsys):
    rc = main(
        ["simulate", "--policy", "waffle", "--out", str(tmp_path / "w.jsonl")]
    )
    assert rc == 1
    assert "needs --model" in capsys.readouterr().err


def test_simulate_rejects_tau_and_level_together(tmp_path, capsys):
    rc = main(
        [
            "simulate",
            "--policy",
            "fixed-interval",
            "--tau",
            "6",
            "--level",
            "3",
            "--out",
            str(tmp_path / "x.jsonl"),
        ]
    )
    assert rc == 1
    assert "not both" in capsys.readouterr().err


def test_eval_names_a_participant_without_motion_labels(dataset_dir, tmp_path, capsys):
    # p02's sessions lose their motion track; LOSO cannot score that fold.
    doc = json.loads((dataset_dir / "manifest.json").read_text())
    data = tmp_path / "data"
    data.mkdir()
    for rel in doc["sessions"]:
        lines = (dataset_dir / rel).read_text().splitlines()
        if rel.startswith("p02"):
            lines = [line for line in lines if '"track":"motion"' not in line]
        (data / rel).write_text("\n".join(lines) + "\n")
    (data / "manifest.json").write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["eval", "--manifest", str(data / "manifest.json"), "--out", str(tmp_path / "r"), "--epochs", "1"])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and "p02" in err[0]


def test_simulate_rejects_a_model_with_an_unknown_train_config_key(dataset_dir, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    assert main(["train", "--manifest", str(dataset_dir / "manifest.json"), "--out", str(model_path), "--epochs", "1"]) == 0
    doc = json.loads(model_path.read_text())
    doc["train_config"]["momentum"] = 0.5
    del doc["checksum"]
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    doc["checksum"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["simulate", "--model", str(model_path), "--duration", "30", "--out", str(tmp_path / "log.jsonl")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and str(model_path) in err[0] and "train_config" in err[0]
