"""Every script in demos/ runs to completion against the package as it is,
every name the README's Python examples import exists, and the README's
column decode reads what the package writes."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bitetiming.dataio import read_session, write_session
from bitetiming.sim import synthesize_scenario

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_PYTHON = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


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


def test_readme_decode_reads_what_read_session_reads(tmp_path):
    # The README's decode, run on every column of a session the package
    # writes, gives read_session's arrays bit for bit.
    [block] = [block for block in README_PYTHON if "b64decode" in block]
    namespace = {}
    exec(block, namespace)
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
            decoded[rec["track"], key] = namespace["decode"](rec[key])
    assert decoded.keys() == expected.keys()
    for name, values in expected.items():
        assert decoded[name].tobytes() == values.astype(np.float64).tobytes(), name
