"""End-to-end command-line flows, run in process."""

import base64
import filecmp
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import JSON_LIMITS, b64, time_limit, write_old_model, write_signed_model

from bitetiming import cli
from bitetiming.cli import main
from bitetiming.features import NormalizationStats
from bitetiming.mlp import init_mlp, load_model, model_digest, save_model
from bitetiming.policy import Command
from bitetiming.dataio import read_session_log

ROOT = Path(__file__).resolve().parents[1]


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


def test_train_writes_the_same_model_on_one_or_two_blas_threads(dataset_dir, tmp_path):
    # The CLI leaves OpenBLAS its own thread count, and the default network's
    # matmuls are large enough for OpenBLAS to split over two threads.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        argv = ["train", "--manifest", str(dataset_dir / "manifest.json"), "--out", str(out / "model.json")]
        result = subprocess.run(
            [sys.executable, "-m", "bitetiming.cli", *argv, "--epochs", "2"],
            env=dict(env, OPENBLAS_NUM_THREADS=threads), capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert sorted(written[0]) == ["model.json", "model.json.loss.tsv"]
    assert written[0] == written[1]
    assert model_digest(load_model(tmp_path / "threads2" / "model.json")) == json.loads(
        written[0]["model.json"]
    )["checksum"]


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


def test_train_refuses_a_waffle1_session(tmp_path, capsys):
    # A session in the one-line-per-sample layout of waffle/1, and one in the
    # columns of JSON numbers of waffle/2, which preceded waffle/3.
    session = tmp_path / "p01_individual.jsonl"
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"schema": "waffle-manifest/1", "sessions": [session.name]}))
    for schema, track_line in [
        ("waffle/1", '{"track":"imu","t":0.0,"ax":0.1,"ay":0.2,"az":9.8}\n'),
        ("waffle/2", '{"track":"imu","t":[0.0],"ax":[0.1],"ay":[0.2],"az":[9.8]}\n'),
    ]:
        session.write_text(f'{{"schema":"{schema}","participant":"p01","scenario":"individual"}}\n' + track_line)
        rc = main(["train", "--manifest", str(manifest), "--out", str(tmp_path / "m.json")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {session}: schema {schema!r} is not supported, expected 'waffle/3'"]
        assert not (tmp_path / "m.json").exists()


def edited_session(dataset_dir, tmp_path, track, key, edit, which=0):
    """A one-session manifest over a copy of p01_individual.jsonl whose
    ``which``-th ``track`` line holding ``key`` went through ``edit``.
    Returns the manifest, the session copy and the edited line's number."""
    lines = (dataset_dir / "p01_individual.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    index = [i for i, rec in enumerate(records) if rec.get("track") == track and key in rec][which]
    rec = json.loads(lines[index])
    edit(rec)
    lines[index] = json.dumps(rec)
    session = tmp_path / "p01_individual.jsonl"
    session.write_text("\n".join(lines) + "\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps({"schema": "waffle-manifest/1", "sessions": [session.name]})
    )
    return manifest, session, index + 1


def test_train_names_the_line_of_a_non_numeric_field(dataset_dir, tmp_path, capsys):
    # A copy of one synthesized session whose imu ax column is {}, not the
    # base64 string of its values.
    manifest, session, lineno = edited_session(dataset_dir, tmp_path, "imu", "ax", lambda rec: rec.update(ax={}))
    rc = main(["train", "--manifest", str(manifest), "--out", str(tmp_path / "m.json")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {session}:{lineno}: 'imu' field 'ax' is not a string"]


@pytest.mark.parametrize(
    "fields, message",
    [
        (
            {"feeding_arrival_t": 10**399, "bite_complete_t": 10**400},
            "{session}:{lineno}: 'bite' field 'feeding_arrival_t' does not fit a float",
        ),
        (
            {"bite_complete_t": float("inf")},
            r"{session}:{lineno}: bite timestamps must be finite and strictly ordered, got \([0-9.]+, [0-9.]+, inf\)",
        ),
    ],
    ids=["too-large", "infinite"],
)
def test_train_rejects_a_last_bite_that_is_not_a_finite_float(dataset_dir, tmp_path, capsys, fields, message):
    manifest, session, lineno = edited_session(
        dataset_dir, tmp_path, "bite", "bite_complete_t", lambda rec: rec.update(fields), which=-1
    )
    rc = main(["train", "--manifest", str(manifest), "--out", str(tmp_path / "m.json")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.fullmatch("error: " + message.format(session=re.escape(str(session)), lineno=lineno), err[0])
    assert not (tmp_path / "m.json").exists()


def test_train_refuses_a_track_that_spans_more_than_an_hour(tmp_path, capsys):
    # Two imu samples, at -1e308 and 1e308 s: resampling that span once died
    # with an OverflowError traceback.
    columns = {"imu": ("t", "ax", "ay", "az"), "mic": ("t", "amp"), "motion": ("t", "moving")}
    records = [{"schema": "waffle/3", "participant": "p01", "scenario": "individual"}]
    records += [
        {"track": track, key: b64([-1e308, 1e308] if (track, key) == ("imu", "t") else [0.0, 1.0])}
        for track, keys in columns.items()
        for key in keys
    ]
    session = tmp_path / "p01_individual.jsonl"
    session.write_text("".join(json.dumps(r) + "\n" for r in records))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"schema": "waffle-manifest/1", "sessions": [session.name]}))
    rc = main(["train", "--manifest", str(manifest), "--out", str(tmp_path / "m.json")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {session}: imu timestamps [-1e+308, 1e+308] span more than 3601 s"]
    assert not (tmp_path / "m.json").exists()


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
        ]
    )
    assert rc == 0
    tsv = (report_dir / "report.tsv").read_text().splitlines()
    assert len(tsv) == 1 + 2 * 5  # two participants, five thresholds
    assert all(line.split("\t")[0] == "mic" for line in tsv[1:])
    summary = (report_dir / "summary.txt").read_text()
    assert "fixed tau=6s" in summary
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
    assert len(log.bites) == 3
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
    assert len(log.bites) >= 3


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
    write_signed_model(model_path, doc)
    capsys.readouterr()
    rc = main(["simulate", "--model", str(model_path), "--duration", "30", "--out", str(tmp_path / "log.jsonl")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and str(model_path) in err[0] and "train_config" in err[0]


def test_simulate_names_a_model_that_is_not_utf8(tmp_path, capsys):
    model_path = tmp_path / "bad.json"
    model_path.write_bytes(b"\xff")
    rc = main(["simulate", "--model", str(model_path), "--duration", "30", "--out", str(tmp_path / "log.jsonl")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {model_path}:1: not UTF-8 text: invalid start byte"]


def test_simulate_names_a_model_whose_weight_does_not_fit_a_float(tmp_path, capsys):
    model = init_mlp((48, 4, 1), seed=0)
    model.normalization = NormalizationStats(np.zeros(48), np.ones(48))
    model_path = tmp_path / "big.json"
    save_model(model, model_path)
    doc = json.loads(model_path.read_text())
    # The first weight matrix's bytes less one: its last value is cut short.
    doc["weights"][0] = base64.b64encode(base64.b64decode(doc["weights"][0])[:-1]).decode("ascii")
    write_signed_model(model_path, doc)
    rc = main(["simulate", "--model", str(model_path), "--duration", "30", "--out", str(tmp_path / "log.jsonl")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {model_path}: weights[0] holds 1535 bytes, not 8 x 192"]


def test_simulate_refuses_a_version_1_model(tmp_path, capsys):
    model = init_mlp((48, 4, 1), seed=0)
    model.normalization = NormalizationStats(np.zeros(48), np.ones(48))
    model_path = tmp_path / "old.json"
    save_model(model, model_path)
    doc = json.loads(model_path.read_text())
    for version in (1, 2, 3, 4, 5):
        write_old_model(model_path, doc, version)
        rc = main(["simulate", "--model", str(model_path), "--duration", "30", "--out", str(tmp_path / "log.jsonl")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"error: {model_path}: schema 'bitetiming-model/{version}' is not supported, "
            "expected 'bitetiming-model/6'"
        ]
        assert not (tmp_path / "log.jsonl").exists()


@pytest.mark.parametrize(
    "model, message",
    [
        (None, "the waffle policy needs --model"),
        ("missing.json", "[Errno 2] No such file or directory: 'missing.json'"),
    ],
    ids=["no-model", "missing-file"],
)
def test_simulate_names_the_model_before_it_synthesizes(tmp_path, capsys, monkeypatch, model, message):
    # At an hour's duration the session alone takes ~0.5 s to synthesize.
    def fail(*args, **kwargs):
        raise AssertionError("synthesize_scenario called before the model was checked")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "synthesize_scenario", fail)
    argv = ["simulate", "--policy", "waffle", "--duration", "3600", "--out", "log.jsonl"]
    rc = main(argv + ([] if model is None else ["--model", model]))
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value, message", JSON_LIMITS)
def test_train_names_a_manifest_with_a_huge_integer_or_deep_nesting(tmp_path, capsys, value, message):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(f'{{"schema": "waffle-manifest/1", "sessions": {value}}}')
    rc = main(["train", "--manifest", str(manifest), "--out", str(tmp_path / "m.json")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {manifest}: invalid JSON: {message}"]


@pytest.mark.parametrize("duration", ["inf", "nan"])
@pytest.mark.parametrize("command", ["synth", "simulate"])
def test_non_finite_durations_fail_at_once(tmp_path, capsys, command, duration):
    # In process and under a time limit, so a regression that loops up to an
    # infinite duration fails instead of hanging.
    out = tmp_path / ("data" if command == "synth" else "log.jsonl")
    with time_limit(5.0):
        rc = main([command, "--duration", duration, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: sessions must last at least 30 s, got {duration}"]


@pytest.mark.parametrize("duration", ["1e308", "3600.5"])
@pytest.mark.parametrize("command", ["synth", "simulate"])
def test_durations_past_an_hour_fail_at_once(tmp_path, capsys, command, duration):
    # Finite but huge: the behavior script would grow a segment per ~10 s
    # until memory ran out, and synth would leave its directory behind.
    out = tmp_path / ("data" if command == "synth" else "log.jsonl")
    extra = ["--participants", "1"] if command == "synth" else ["--policy", "always-feed"]
    with time_limit(5.0):
        rc = main([command, "--duration", duration, "--out", str(out), *extra])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: sessions must last at most 3600 s, got {float(duration)}"]
    assert not out.exists()


def test_synth_with_a_short_duration_writes_nothing(tmp_path, capsys):
    out = tmp_path / "d"
    rc = main(["synth", "--out", str(out / "data"), "--participants", "1", "--duration", "10"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: sessions must last at least 30 s, got 10.0"]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["synth", "--out", "data"], "error: --seed must be non-negative, got -1"),
        (["simulate", "--out", "log.jsonl"], "error: --seed must be non-negative, got -1"),
        (["train", "--manifest", "missing.json", "--out", "m.json"], "error: seed must be non-negative, got -1"),
        (["eval", "--manifest", "missing.json", "--out", "r"], "error: seed must be non-negative, got -1"),
    ],
)
def test_negative_seed_is_named_before_any_work(tmp_path, capsys, monkeypatch, argv, message):
    # train and eval name the seed before they look for the (missing) manifest.
    monkeypatch.chdir(tmp_path)
    rc = main([*argv, "--seed", "-1"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [message]
    assert list(tmp_path.iterdir()) == []
