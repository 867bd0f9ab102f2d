"""`exactness` over a family of squares, not only the bundled three.

Each row is one Mayer-Vietoris square, run through ``kcert.cli.main`` at
two seeds with 4 samples: the clutching square Q[x] -> Q[x]/(m) <- Q[x] for
nine moduli, diagonal covers of five points on a line with overlaps {2}
and {2, 3}, and identity squares over Q, Q[x], Q[x]/(x^2 - 1) and full
kernels on two and three points.  Every segment must pass, except the two
kernel segments on a cover, whose recipes assume equal legs and which are
skipped.  Each equal-leg row runs once more with ``corrupt_witness`` and
must fail at kernel_boundary alone.
"""

import json

import pytest
from test_cli import _Q_X, _legs, _line

from kcert.cli import main
from kcert.drivers import SEGMENTS

SEEDS = (3, 11)
SAMPLES = 4
KERNEL_SEGMENTS = {"kernel_boundary", "kernel_i"}


def _square(lambda1, lambda_prime, hom, lambda2=None):
    """The diagram of a square whose legs are both ``hom``; lambda2 defaults
    to lambda1."""
    return _legs(lambda1, lambda_prime, hom, lambda2 or lambda1, hom)["diagram"]


def _identity(algebra):
    return _square(algebra, algebra, "identity")


def _cover(left, right):
    overlap = [p for p in left if p in right]
    return _square(_line(left), _line(overlap), "restriction", _line(right))


# Coefficients from the constant term up.
CLUTCHING_MODULI = {
    "x": ["0", "1"],
    "x-3/2": ["-3/2", "1"],
    "x^2": ["0", "0", "1"],
    "x^2-1": ["-1", "0", "1"],
    "x^2+1": ["1", "0", "1"],
    "x^3": ["0", "0", "0", "1"],
    "x^3-x/2+1/3": ["1/3", "-1/2", "0", "1"],
    "x^4-3x+2": ["2", "-3", "0", "0", "1"],
    "(x^2-1)^2": ["1", "0", "-2", "0", "1"],
}
SQUARES = {
    **{f"clutching-{name}": _square(_Q_X, dict(_Q_X, modulus=m), "quotient")
       for name, m in CLUTCHING_MODULI.items()},
    "cover-overlap-2": _cover(["0", "1", "2"], ["2", "3", "4"]),
    "cover-overlap-2-3": _cover(["0", "1", "2", "3"], ["2", "3", "4"]),
    "identity-Q": _identity({"kind": "trivial"}),
    "identity-Qx": _identity(_Q_X),
    "identity-Qx-mod-x^2-1": _identity(dict(_Q_X, modulus=CLUTCHING_MODULI["x^2-1"])),
    "identity-kernels-2-points": _identity(_line(["0", "1"], diagonal=False)),
    "identity-kernels-3-points": _identity(_line(["0", "1", "2"], diagonal=False)),
}


def _exactness(tmp_path, diagram, seed, corrupt=False):
    """Exit code and JSON report of one ``exactness`` run."""
    spec, report = tmp_path / "spec.json", tmp_path / "report.json"
    command = {"name": "exactness", "seed": seed, "samples": SAMPLES}
    if corrupt:
        command["corrupt_witness"] = True
    spec.write_text(json.dumps({"diagram": diagram, "command": command}))
    code = main(["exactness", "--spec", str(spec), "--format", "json", "--report", str(report)])
    return code, json.loads(report.read_text())


@pytest.mark.parametrize("name", SQUARES)
def test_exactness_over_the_square(tmp_path, name):
    diagram = SQUARES[name]
    equal_legs = not name.startswith("cover")
    skipped = set() if equal_legs else KERNEL_SEGMENTS
    for seed in SEEDS:
        code, report = _exactness(tmp_path, diagram, seed)
        status = {s["segment"]: s["status"] for s in report["segments"]}
        assert code == 0, (seed, status)
        assert status == {s: "skipped" if s in skipped else "pass" for s, _, _ in SEGMENTS}
        if not equal_legs:
            continue
        code, report = _exactness(tmp_path, diagram, seed, corrupt=True)
        failed = [s for s in report["segments"] if s["status"] != "pass"]
        assert code == 1 and [s["segment"] for s in failed] == ["kernel_boundary"], seed
        assert [c["name"] for c in failed[0]["checks"] if not c["ok"]] == [
            "witness trivializes leg1"]
