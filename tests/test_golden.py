"""Golden corpus: the sha256 of every bundled spec's report is pinned.

Each spec runs its own command in text and json, at the spec's seed and,
when the command reads a seed, at ``--seed 11``.  A changed hash means a changed report; an intentional change
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


# The bundled specs' own commands never run the equal-legs segments
# (kernel_boundary, kernel_i), which are the ones built on double
# invertibles; these pins run exactness on the clutching spec.
EXACTNESS_GOLDEN = {
    (None, "text"): "903757af9cedb058b75f45a471bf6dff88b6246f7e1309d5521a7a90f00d5d06",
    (None, "json"): "8aff262a5626cbe3ac38f80d51199ce5faccafe7acf8d93904ae80a9242db709",
    (11, "text"): "0ab19e8fcfe54c6e066d460a7943c9fd0142e4788da0480a8862756dc4e32561",
    (11, "json"): "5dd74fc9d568e61caa99e8c9e588067da44cc2a9b8a15ab48c2ae0ded2b10bd5",
}

CORRUPT_GOLDEN = {
    "text": "65e78706614651701ab18606052b9b3049e3d417a389232c593b574db4562bdf",
    "json": "803aa9b4f93d83d34f0c5be01d4c9eb067a22bf2e59d86ba56d9a43f9e29ac2d",
}


def _report_digest(argv, report, expect_code):
    assert main(argv + ["--report", str(report)]) == expect_code
    return hashlib.sha256(report.read_bytes()).hexdigest()


@pytest.mark.parametrize("seed,fmt", sorted(EXACTNESS_GOLDEN, key=str))
def test_exactness_clutching_hash(tmp_path, seed, fmt):
    path = str(resources.files("kcert.specs").joinpath("quotient_clutching.json"))
    argv = ["exactness", "--spec", path, "--samples", "3", "--format", fmt]
    if seed is not None:
        argv += ["--seed", str(seed)]
    digest = _report_digest(argv, tmp_path / "report", 0)
    assert digest == EXACTNESS_GOLDEN[(seed, fmt)]


@pytest.mark.parametrize("fmt", sorted(CORRUPT_GOLDEN))
def test_corrupt_witness_hash(tmp_path, fmt):
    base = json.loads(
        resources.files("kcert.specs").joinpath("quotient_clutching.json").read_text()
    )
    base["command"] = {"name": "exactness", "seed": 7, "samples": 2,
                       "corrupt_witness": True}
    del base["matrices"]
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(base))
    argv = ["exactness", "--spec", str(path), "--format", fmt]
    digest = _report_digest(argv, tmp_path / "report", 1)
    assert digest == CORRUPT_GOLDEN[fmt]
