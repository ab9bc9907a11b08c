"""Golden sha256 hashes of a tiny synth -> train -> eval -> simulate chain.

The hashes were recorded before windows became a columnar table, so this
test pins every artifact of the README chain byte for byte across that
refactor, not just across two runs of the same code (acceptance criterion
10). The four session files were re-recorded when sessions stopped carrying
an imu quaternion, and again, with ``session.jsonl`` of ``GOLDEN_LONG``, when
session files became ``waffle/2`` (one line per column of each track
instead of one line per sample), and again, the same five files only, when
they became ``waffle/3`` (each column the base64 of its float64 bytes
instead of a JSON array of numbers). Their arrays did not change, so no
loss, report or log hash moved with them. ``model.json`` alone was
re-recorded when models became ``bitetiming-model/2`` (the canonical text
behind its checksum instead of an indented dump), and again when they
became ``bitetiming-model/3`` (each parameter array the base64 of its
float64 bytes instead of nested lists of numbers), each time with the same
weights. When models became ``bitetiming-model/4`` (trained in float32, so
the same data and seed give other weights), the hashes that come from a
model were re-recorded: ``model.json``, the three report files and both
``sim.jsonl`` files. The report files carry no layout id of their own; they
moved with the model. The loss table, printed to six decimals, did not move.
When models became ``bitetiming-model/5`` (one 16-bit dropout draw per unit
instead of one 64-bit float draw, and Adam's bias corrections folded into
its step size, so again other weights), the same six hashes were
re-recorded, and this time the loss table moved with them. ``model.json``
alone was re-recorded when models became ``bitetiming-model/6`` (its
``train_config`` no longer stores the Adam constants and the label cap, which
became fixed), with the same weights. Both ``sim.jsonl`` files alone were
re-recorded when logs became ``waffle-log/2``: each tick line dropped its
``policy`` field, which repeats the header, and its ``gap`` field, which is
true exactly when a predictor ran and ``y_hat`` is null. Every other byte of
the two logs is unchanged.
Float artifacts depend on the numpy build; the hashes were recorded with
numpy 2.4.x on x86-64 OpenBLAS.

The chain's sessions last 40 s and hold five to seven behavior segments.
``GOLDEN_LONG`` pins the shape of a long closed-loop run instead: one 600 s
social session of 73 segments, written through ``write_session``, and the
waffle level-4 log that ``simulate`` writes for the same session with the
chain's model. Its hashes were recorded before segments were synthesized
over slices and shared half-windows were reduced once.

``GOLDEN_POLICY_LOGS`` pins the ``simulate`` log of every policy on one 150 s
social session (seed 11): the three trigger baselines, whose latched
trajectory no other hash covers, and waffle at levels 1 and 5 with the
chain's model. They were recorded before the robot state came to keep when
its phase began instead of two timers. The chain's model predicts below both
levels' thresholds on this session, so the two waffle logs are the same.
"""

import hashlib

import numpy as np
import pytest

from bitetiming.cli import main
from bitetiming.dataio import write_session
from bitetiming.sim import synthesize_scenario

GOLDEN_NUMPY = "2.4"
GOLDEN = {
    "data/manifest.json": "3e389eb9ddad338bde8dc9a131ca73b64d8b67f31dcace7ab9a8061fa737f6aa",
    "data/p01_individual.jsonl": "bfe0ad63d51b1e5a4ac5c9794ccfe910f796916ade997de4daad2f0a7afa4bdc",
    "data/p01_social.jsonl": "ba314340cbc34db4d38c8d9d75214a6dff8e5ca52cb4ff8bd0eb9a06a633793f",
    "data/p02_individual.jsonl": "8e11267cac6ca45e768032e38c3156d5651839c7396e0354bfd5de1fd1135757",
    "data/p02_social.jsonl": "e38d947a5c36501b5aa9b292f841d0932e137be62d2a571e5ef3ca1f33abf9cf",
    "model.json": "e2c1210d17be6ec5c45e8393029f521bbc0953c5431d9091e15b5563db2d0a8e",
    "model.json.loss.tsv": "db4744b473757444817807144df769cce251a8a4e3404b903e54312942a830e7",
    "reports/report.jsonl": "ec71e963704b9076c33e163d7d61dfe900657422a46373180c3fe7912820219c",
    "reports/report.tsv": "d3d0dbb7e4ada824d3d563e2b4022cac1d8b2175fc6b18945dd97d6bbd0531e9",
    "reports/summary.txt": "3c6f1de228b00e2c2778c3b7ecb00956f77791bdb8b822f9c58f9cbffe0a195f",
    "sim.jsonl": "9ba471f1b8746b95e1e5b0b2020ffeb4bab9392ba32d3427128a0cf797d797eb",
}
GOLDEN_LONG = {
    "session.jsonl": "30da148d803ef68843742749489a88169c3258cb2d652a0fdb53cee5f7986218",
    "sim.jsonl": "5b0b739340abc2e1133d95fb680f9ec59ed96a22ac7113b753e9afdc102e9764",
}

GOLDEN_POLICY_LOGS = {
    "always-feed.jsonl": "2f277f8a742e580eb0a020d113a776a5d944b3d98b735fef8d2710a76c343724",
    "fixed-interval.jsonl": "2d06310e6b5dd8a496ecbbd88bf3ceb168f033873c2fe2d6e87e6363afa2eb07",
    "mouth-open.jsonl": "e204cee8de99469ed5193083de163b08b0b62aecaf39cdcb0c2dc072ec05d58e",
    "waffle-1.jsonl": "05a14e95eca2a508ba4d061843278f2224c240a21e685dd6ecec1edad4c6c228",
    "waffle-5.jsonl": "05a14e95eca2a508ba4d061843278f2224c240a21e685dd6ecec1edad4c6c228",
}

golden_numpy = pytest.mark.skipif(
    not np.__version__.startswith(GOLDEN_NUMPY + "."),
    reason=f"golden hashes were recorded with numpy {GOLDEN_NUMPY}",
)


def sha256_tree(root):
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """The README chain's artifacts, in a directory of their own."""
    root = tmp_path_factory.mktemp("chain")
    data, model = root / "data", root / "model.json"
    manifest = str(data / "manifest.json")
    assert main(["synth", "--out", str(data), "--participants", "2", "--duration", "40", "--seed", "5"]) == 0
    assert main(["train", "--manifest", manifest, "--out", str(model), "--epochs", "2"]) == 0
    assert main(["eval", "--manifest", manifest, "--out", str(root / "reports"), "--epochs", "2"]) == 0
    assert main(
        ["simulate", "--model", str(model), "--level", "4", "--duration", "40", "--out", str(root / "sim.jsonl")]
    ) == 0
    return root


@golden_numpy
def test_tiny_chain_matches_golden_hashes(chain):
    assert sha256_tree(chain) == GOLDEN


@golden_numpy
def test_long_social_session_matches_golden_hashes(chain, tmp_path):
    source = synthesize_scenario("sim", "social", 600.0, seed=7)
    write_session(source.session, tmp_path / "session.jsonl")
    assert main(
        ["simulate", "--model", str(chain / "model.json"), "--level", "4", "--scenario", "social",
         "--duration", "600", "--out", str(tmp_path / "sim.jsonl")]
    ) == 0
    assert sha256_tree(tmp_path) == GOLDEN_LONG


@golden_numpy
def test_every_policy_log_matches_golden_hashes(chain, tmp_path):
    runs = {
        "always-feed": ["--policy", "always-feed"],
        "fixed-interval": ["--policy", "fixed-interval"],
        "mouth-open": ["--policy", "mouth-open"],
        "waffle-1": ["--level", "1", "--model", str(chain / "model.json")],
        "waffle-5": ["--level", "5", "--model", str(chain / "model.json")],
    }
    for name, args in runs.items():
        assert main(
            ["simulate", *args, "--scenario", "social", "--duration", "150", "--seed", "11",
             "--out", str(tmp_path / f"{name}.jsonl")]
        ) == 0
    assert sha256_tree(tmp_path) == GOLDEN_POLICY_LOGS
