"""Golden sha256 hashes of a tiny synth -> train -> eval -> simulate chain.

The hashes were recorded before windows became a columnar table, so this
test pins every artifact of the README chain byte for byte across that
refactor, not just across two runs of the same code (acceptance criterion
10). Float artifacts depend on the numpy build; the hashes were recorded
with numpy 2.4.x on x86-64 OpenBLAS.
"""

import hashlib

import numpy as np
import pytest

from bitetiming.cli import main

GOLDEN_NUMPY = "2.4"
GOLDEN = {
    "data/manifest.json": "3e389eb9ddad338bde8dc9a131ca73b64d8b67f31dcace7ab9a8061fa737f6aa",
    "data/p01_individual.jsonl": "73183d3cd36b075aa84dad7fbb1891ffbbaaeca5acbe2f94b9d7c3edf04dd1ff",
    "data/p01_social.jsonl": "15fa9b0b2d92df430bd908ce0223b56e9c7f474186830be04747a27c30c78f46",
    "data/p02_individual.jsonl": "dd210aeef6105694c60ce7fa4bd4b96c666f20f946b16549b350673afc6a64e1",
    "data/p02_social.jsonl": "6a550d95a9693114e243008cc97f20a0a5e0d7970365e1431ebb73bb56c4ab49",
    "model.json": "f2ffd17aa14634d8e8387a49c9b57662e44f9961f3edda516b3e4cadb1b2b57f",
    "model.json.loss.tsv": "4c9b54ae025926111497654a8cd71a6f3e82c243fcf922ef73bae7afd323f30e",
    "reports/report.jsonl": "27c5a85ead3c94c9b424769c603c8f3c0682ac68b26dd969908f575771b00ae3",
    "reports/report.tsv": "24c27cb050872c792beef684ead0074fd62420437a0b5a674d29cae10ed9692b",
    "reports/summary.txt": "51be6d206d0634aa4db7fe07d1872253a444419a87e0ae84a1d103f343d1a00d",
    "sim.jsonl": "afb70ee8db9948a2d6dda165de4d9fb63f677180e6860facc65ad4104d4c38f3",
}


@pytest.mark.skipif(
    not np.__version__.startswith(GOLDEN_NUMPY + "."),
    reason=f"golden hashes were recorded with numpy {GOLDEN_NUMPY}",
)
def test_tiny_chain_matches_golden_hashes(tmp_path):
    data, model = tmp_path / "data", tmp_path / "model.json"
    manifest = str(data / "manifest.json")
    assert main(["synth", "--out", str(data), "--participants", "2", "--duration", "40", "--seed", "5"]) == 0
    assert main(["train", "--manifest", manifest, "--out", str(model), "--epochs", "2"]) == 0
    assert main(["eval", "--manifest", manifest, "--out", str(tmp_path / "reports"), "--epochs", "2"]) == 0
    assert main(
        ["simulate", "--model", str(model), "--level", "4", "--duration", "40", "--out", str(tmp_path / "sim.jsonl")]
    ) == 0
    hashes = {
        str(p.relative_to(tmp_path)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.rglob("*"))
        if p.is_file()
    }
    assert hashes == GOLDEN
