"""Golden corpus: the sha256 of every bundled spec's report is pinned.

Each spec runs its own command in text and json, at the spec's seed and at
``--seed 11``.  A changed hash means a changed report; an intentional change
must re-pin the hash and say why in CHANGES.md."""

import hashlib
import json
from importlib import resources

import pytest

from kcert.cli import main

GOLDEN = {
    ("propagation_cover.json", None, "text"): "355e5ee27e6e1b9d376d22a2965bcd034ad9572ebeaaf98dd0ec0f1f6867db25",
    ("propagation_cover.json", None, "json"): "ff1e84ca2d0249a3631b1f9bc7f1f5c85515c1c3a288a32f81cb62d07f0b3d55",
    ("propagation_cover.json", 11, "text"): "5887a8245a0fa89ef6584b61ea92b49f3bd683c2ec865dce59d5d84ca3df4650",
    ("propagation_cover.json", 11, "json"): "c15af612ebfab65e2d186b753a7993cb40634053b275f7e05754f2a4267d0089",
    ("quotient_clutching.json", None, "text"): "fa97ec821e1c6eaff983b682857ac57d3a91ec2343f2e7f7f0d1c4bcba5182b5",
    ("quotient_clutching.json", None, "json"): "c5db1e7c94675c7d798403f8766e760bf5144dc70dd65462883719c679a91595",
    ("quotient_clutching.json", 11, "text"): "fa97ec821e1c6eaff983b682857ac57d3a91ec2343f2e7f7f0d1c4bcba5182b5",
    ("quotient_clutching.json", 11, "json"): "c5db1e7c94675c7d798403f8766e760bf5144dc70dd65462883719c679a91595",
    ("trivial_q.json", None, "text"): "e6bd3b924d6719d1c064903450d29034757b6cdc82337f50030ba6154bc1c62a",
    ("trivial_q.json", None, "json"): "d7405db937d2a17beeb9efed8cb5c5979c3ee888f3114462f6fe17a581300a77",
    ("trivial_q.json", 11, "text"): "2b1e60c5be258b5d01aff0de01472c4f8b9bcc30710ecf01aa9e4c6ae87fd47e",
    ("trivial_q.json", 11, "json"): "bbfed51f1e49c6fc2adeabe1c0c082b0607700af3397f9b0d0c8a8a4eca40f79",
}


def bundled_specs():
    return sorted(
        p.name for p in resources.files("kcert.specs").iterdir()
        if p.name.endswith(".json")
    )


def test_every_bundled_spec_is_pinned():
    assert {name for name, _, _ in GOLDEN} == set(bundled_specs())


@pytest.mark.parametrize("name,seed,fmt", sorted(GOLDEN, key=str))
def test_report_hash(tmp_path, name, seed, fmt):
    path = str(resources.files("kcert.specs").joinpath(name))
    with open(path, encoding="utf-8") as fh:
        command = json.load(fh)["command"]["name"]
    report = tmp_path / "report"
    argv = [command, "--spec", path, "--format", fmt, "--report", str(report)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    assert main(argv) == 0
    digest = hashlib.sha256(report.read_bytes()).hexdigest()
    assert digest == GOLDEN[(name, seed, fmt)]
