"""Every script in demos/ runs to completion against the package as it is,
every name the README's Python examples import exists, every ``bitetiming``
command the README shows parses, the README's base64 decode reads what the
package writes, and the README documents every schema id the package
writes."""

import ast
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bitetiming.cli import build_parser
from bitetiming.dataio import MANIFEST_SCHEMA, SESSION_SCHEMA, read_session, write_session
from bitetiming.features import NormalizationStats
from bitetiming.mlp import MODEL_SCHEMA, init_mlp, load_model, save_model
from bitetiming.sim import LOG_SCHEMA, synthesize_scenario

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()
README_PYTHON = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
README_SH = re.findall(r"^```sh\n(.*?)^```", README, re.M | re.S)


def readme_decode():
    """The ``decode`` function of README's one base64 example."""
    [block] = [block for block in README_PYTHON if "b64decode" in block]
    namespace = {}
    exec(block, namespace)
    return namespace["decode"]


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(tmp_path, demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert list(tmp_path.iterdir()) == []


def test_readme_imports_exist():
    # Parsed, not run: the examples write datasets and train models.
    imports = [
        node
        for block in README_PYTHON
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bitetiming"
    ]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        missing = [a.name for a in node.names if not hasattr(module, a.name)]
        assert not missing, f"README imports {missing} from {node.module}"


def readme_commands():
    """Each ``bitetiming`` command in README's sh blocks, its continuation
    lines joined and its comments dropped, as argv without the program."""
    commands = []
    for block in README_SH:
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["bitetiming"]:
                commands.append(argv[1:])
    return commands


def test_readme_commands_parse():
    # An option the README shows but the CLI no longer has fails here.
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"synth", "train", "eval", "simulate"}
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"the CLI refuses README's `bitetiming {shlex.join(argv)}`")


def test_readme_decode_reads_what_read_session_reads(tmp_path):
    # The README's decode, run on every column of a session the package
    # writes, gives read_session's arrays bit for bit.
    decode = readme_decode()
    path = tmp_path / "s.jsonl"
    write_session(synthesize_scenario("p01", "social", 40.0, seed=3).session, path)
    session = read_session(path)
    expected = {
        ("imu", "t"): session.imu_t,
        **{("imu", key): column for key, column in zip(("ax", "ay", "az"), session.imu_accel.T)},
        ("mic", "t"): session.mic_t,
        ("mic", "amp"): session.mic_amp,
        ("motion", "t"): session.motion_t,
        ("motion", "moving"): session.motion_moving,
    }
    decoded = {}
    for line in path.read_text().splitlines()[1:]:
        rec = json.loads(line)
        if rec["track"] != "bite":
            [key] = set(rec) - {"track"}
            decoded[rec["track"], key] = decode(rec[key])
    assert decoded.keys() == expected.keys()
    for name, values in expected.items():
        assert decoded[name].tobytes() == values.astype(np.float64).tobytes(), name


def test_readme_decode_reads_what_load_model_reads(tmp_path):
    # The same decode, reshaped by layer_dims, gives a saved model's
    # weights, biases and normalization bit for bit.
    decode = readme_decode()
    model = init_mlp((48, 5, 3, 1), seed=2)
    rng = np.random.default_rng(2)
    model.biases = [rng.normal(0.0, 1.0, b.size) for b in model.biases]
    model.normalization = NormalizationStats(rng.normal(0.0, 1.0, 48), rng.uniform(0.5, 2.0, 48))
    save_model(model, tmp_path / "model.json")
    doc = json.loads((tmp_path / "model.json").read_text())
    loaded = load_model(tmp_path / "model.json")
    dims = doc["layer_dims"]
    for text, shape, values in [
        *zip(doc["weights"], zip(dims, dims[1:]), loaded.weights),
        *zip(doc["biases"], [(d,) for d in dims[1:]], loaded.biases),
        *((doc["normalization"][k], (dims[0],), getattr(loaded.normalization, k)) for k in ("mean", "std")),
    ]:
        decoded = decode(text).reshape(shape)
        assert decoded.shape == values.shape and decoded.tobytes() == values.tobytes()


def test_readme_file_formats_name_every_schema():
    # A schema bump that leaves the documented format on the old id fails here.
    section = README.split("## File formats", 1)[1].split("\n## ", 1)[0]
    for schema in (SESSION_SCHEMA, MANIFEST_SCHEMA, LOG_SCHEMA, MODEL_SCHEMA):
        assert f"`{schema}`" in section, schema
