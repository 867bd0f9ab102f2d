import json
import os
import subprocess
import sys
from importlib import resources

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import kcert
from kcert.cli import _json_text, main
from kcert.identities import IDENTITY_NAMES
from kcert.matrices import FilteredMatrix
from kcert.specdoc import SpecDocument, SpecError


def spec_path(name):
    return str(resources.files("kcert.specs").joinpath(name))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bundled_specs_pass(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--spec", spec_path("trivial_q.json")
    )
    assert code == 0 and "result: pass" in out
    code, out, err = run_cli(
        capsys, "boundary", "--spec", spec_path("quotient_clutching.json")
    )
    assert code == 0 and "result: pass" in out
    code, out, err = run_cli(
        capsys, "exactness", "--spec", spec_path("propagation_cover.json")
    )
    assert code == 0 and "result: pass" in out
    assert "skipped" in out.lower()


def test_exactness_on_clutching(capsys):
    code, out, _ = run_cli(
        capsys, "exactness", "--spec", spec_path("quotient_clutching.json"),
        "--samples", "5",
    )
    assert code == 0
    assert "segment kernel_i: PASS" in out


def test_determinism_bytes(capsys):
    args = ("verify", "--spec", spec_path("trivial_q.json"), "--seed", "7")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    args = ("exactness", "--spec", spec_path("quotient_clutching.json"),
            "--samples", "3", "--format", "json")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    json.loads(out1)


def test_back_to_back_calls_match_single_calls(tmp_path):
    # main() reuses one argument parser per process; no flag of one call may
    # leak into the next (--seed given, then omitted), so each report must be
    # byte-equal to the same call alone in a fresh interpreter
    trivial, clutching = spec_path("trivial_q.json"), spec_path("quotient_clutching.json")
    calls = [
        ["verify", "--spec", trivial, "--samples", "3", "--seed", "11", "--format", "json"],
        ["verify", "--spec", trivial, "--samples", "3"],
        ["exactness", "--spec", clutching, "--samples", "2", "--seed", "5"],
        ["boundary", "--spec", clutching, "--format", "json"],
        ["exactness", "--spec", clutching, "--samples", "2", "--format", "json"],
        ["verify", "--spec", trivial, "--max-size", "2", "--samples", "3"],
    ]
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(kcert.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    for i, argv in enumerate(calls):
        together, alone = tmp_path / f"together{i}", tmp_path / f"alone{i}"
        assert main(argv + ["--report", str(together)]) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "kcert", *argv, "--report", str(alone)],
            env=env, capture_output=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert together.read_bytes() == alone.read_bytes()


def test_wall_clock_goes_to_stderr(capsys):
    _, out, err = run_cli(capsys, "verify", "--spec", spec_path("trivial_q.json"),
                          "--samples", "5")
    assert "wall-clock" in err
    assert "wall-clock" not in out


def test_report_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--spec", spec_path("trivial_q.json"),
        "--samples", "5", "--format", "json", "--report", str(target),
    )
    assert code == 0 and out == ""
    data = json.loads(target.read_text())
    assert data["result"] == "pass"
    assert data["command"]["name"] == "verify"


def test_malformed_rational_rejected(tmp_path, capsys):
    doc = {
        "algebra": {"kind": "trivial"},
        "matrices": {"M": {"algebra": "algebra", "size": 1, "entries": [["1/0"]]}},
        "command": {"name": "verify"},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", "--spec", str(path))
    assert code == 2
    assert "spec error" in err


@pytest.mark.parametrize("entry", ["\u0663", "\uff13", "-\u0663/2", "1/\uff13"])
def test_non_ascii_digits_are_spec_error(tmp_path, capsys, entry):
    # int() and Fraction() read any Unicode decimal digit; a spec rational
    # is written with ASCII digits only.
    doc = {
        "algebra": {"kind": "trivial"},
        "matrices": {"M": {"algebra": "algebra", "size": 1, "entries": [[entry]]}},
        "command": {"name": "verify"},
    }
    path = tmp_path / "digits.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--spec", str(path))
    assert code == 2
    assert "malformed rational" in err


def test_zero_samples_is_spec_error(tmp_path, capsys):
    # zero samples would check nothing, so neither the flag nor the spec
    # value may turn into a pass
    for command, spec in (("verify", "trivial_q.json"),
                          ("exactness", "quotient_clutching.json")):
        code, out, err = run_cli(
            capsys, command, "--spec", spec_path(spec), "--samples", "0"
        )
        assert code == 2
        assert out == ""
        assert "spec error: --samples must be at least 1" in err
        doc = json.loads(resources.files("kcert.specs").joinpath(spec).read_text())
        doc["command"] = {"name": command, "samples": 0}
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, command, "--spec", str(path))
        assert code == 2
        assert out == ""
        assert "spec error: command.samples must be at least 1" in err


@pytest.mark.parametrize("command,spec,flag,value", [
    ("verify", "trivial_q.json", "--samples", "-5"),
    ("verify", "trivial_q.json", "--seed", "-3"),
    ("verify", "trivial_q.json", "--max-size", "-1"),
    ("exactness", "quotient_clutching.json", "--samples", "-1"),
    ("exactness", "quotient_clutching.json", "--seed", "-1"),
])
def test_negative_flag_is_spec_error(capsys, command, spec, flag, value):
    code, out, err = run_cli(capsys, command, "--spec", spec_path(spec), flag, value)
    assert code == 2
    assert out == ""
    assert f"spec error: {flag} must be a nonnegative integer" in err


@pytest.mark.parametrize("command,flag,value", [
    ("boundary", "--seed", "11"),
    ("boundary", "--samples", "0"),
    ("boundary", "--max-size", "2"),
    ("exactness", "--max-size", "2"),
])
def test_flag_the_command_does_not_read_is_usage_error(capsys, command, flag, value):
    # boundary reads no seed, samples or size, and exactness no size, so
    # such a flag is an argparse usage error (exit 2), never ignored
    with pytest.raises(SystemExit) as exc:
        main([command, "--spec", spec_path("quotient_clutching.json"), flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag} {value}" in captured.err


def test_negative_spec_value_names_the_key(tmp_path, capsys):
    doc = {"algebra": {"kind": "trivial"}, "command": {"name": "verify", "seed": -1}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", "--spec", str(path))
    assert code == 2
    assert "spec error: command.seed must be a nonnegative integer" in err


def test_claimed_level_validated(tmp_path, capsys):
    doc = {
        "algebra": {"kind": "trivial"},
        "matrices": {
            "M": {"algebra": "algebra", "size": 1, "entries": [["2"]], "level": 3}
        },
        "command": {"name": "verify"},
    }
    path = tmp_path / "bad_level.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", "--spec", str(path))
    assert code == 2 and "level" in err


def test_corrupted_witness_fails_with_residual(tmp_path, capsys):
    base = json.loads(
        resources.files("kcert.specs").joinpath("quotient_clutching.json").read_text()
    )
    base["command"] = {"name": "exactness", "seed": 7, "samples": 2,
                      "corrupt_witness": True}
    del base["matrices"]
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(base))
    code, out, _ = run_cli(capsys, "exactness", "--spec", str(path))
    assert code == 1
    assert "segment kernel_boundary: FAIL" in out
    assert "residual" in out


def test_verify_fails_every_identity_whose_product_drops_its_level(capsys, monkeypatch):
    # Every identity's built side is a product or a direct sum of products,
    # so products reporting level 0 must fail each ledger on its own.  A
    # direct sum sits at its blocks' lower level, so a sum with a faulted
    # block reports level 0 too: sum_product_both's built side is one.
    product, direct_sum = FilteredMatrix.__matmul__, FilteredMatrix.direct_sum

    def level_zero(self, other):
        out = product(self, other)
        out._level = 0
        return out

    def sum_keeps_level_zero(self, other):
        out = direct_sum(self, other)
        if 0 in (self._level, other._level):
            out._level = 0
        return out

    monkeypatch.setattr(FilteredMatrix, "__matmul__", level_zero)
    monkeypatch.setattr(FilteredMatrix, "direct_sum", sum_keeps_level_zero)
    code, out, _ = run_cli(capsys, "verify", "--spec", spec_path("trivial_q.json"))
    assert code == 1 and "result: fail" in out
    # max_level 16 less each identity's multiplication count
    bounds = (14, 14, 14, 14, 14, 13, 15, 15, 13, 13, 14, 14)
    expected = []
    for name, bound in zip(IDENTITY_NAMES, bounds, strict=True):
        expected.append(f"check {name}: FAIL (samples=100, min_level_slack={-bound})")
        expected += [f"  failure: level 0 below the bound {bound}"] * 3
    lines = [line for line in out.splitlines() if line.startswith(("check ", "  failure: "))]
    assert lines == expected


def test_missing_section_rejected(tmp_path, capsys):
    path = tmp_path / "nodiag.json"
    path.write_text(json.dumps({"algebra": {"kind": "trivial"}}))
    code, _, err = run_cli(capsys, "boundary", "--spec", str(path))
    assert code == 2


def test_boundary_requires_invertible_u(tmp_path, capsys):
    base = json.loads(
        resources.files("kcert.specs").joinpath("quotient_clutching.json").read_text()
    )
    del base["matrices"]["U"]["inverse"]
    path = tmp_path / "no_inverse.json"
    path.write_text(json.dumps(base))
    code, _, err = run_cli(capsys, "boundary", "--spec", str(path))
    assert code == 2 and "inverse" in err


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(SpecError):
        SpecDocument({"algebra": {"kind": "trivial", "bogus": 1}})
    with pytest.raises(SpecError):
        SpecDocument({"unknown_section": {}})


def test_nonjson_rejected(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "verify", "--spec", str(path))
    assert code == 2


TRIVIAL_SPEC = b'{"algebra": {"kind": "trivial"}, "command": {"name": "verify", "samples": 1}}'


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python reads integers of any length"
)
@pytest.mark.parametrize("digits", [4301, 5000])
def test_integer_too_long_to_read_is_spec_error(tmp_path, capsys, digits):
    # json.loads raises a bare ValueError past Python's integer digit limit.
    path = tmp_path / "huge.json"
    path.write_bytes(TRIVIAL_SPEC.replace(b'"samples": 1', b'"seed": ' + b"9" * digits))
    code, _, err = run_cli(capsys, "verify", "--spec", str(path))
    assert code == 2
    assert err.startswith("spec error: spec is not valid JSON: ")


def test_non_utf8_spec_is_spec_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(TRIVIAL_SPEC.replace(b'"verify"', b'"verif\xff"'))
    code, out, err = run_cli(capsys, "verify", "--spec", str(path))
    assert code == 2 and out == ""
    assert "spec error: spec is not valid UTF-8: 'utf-8' codec can't decode byte 0xff" in err


def test_utf8_bom_is_still_rejected(tmp_path, capsys):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + TRIVIAL_SPEC)
    code, out, err = run_cli(capsys, "verify", "--spec", str(path))
    assert code == 2 and out == ""
    assert err == ("spec error: spec is not valid JSON: Unexpected UTF-8 BOM "
                   "(decode using utf-8-sig): line 1 column 1 (char 0)\n")


def _bundled_text(name):
    return resources.files("kcert.specs").joinpath(name).read_text(encoding="utf-8")


# Both crashed with a RecursionError traceback (exit 1).  The 100,000-deep
# command is beyond any interpreter's recursion limit; whether the parser or
# the reader of the matrix gives up on the 5,000-deep entries depends on the
# Python version, so that case pins the exit code and a one-line message.
@pytest.mark.parametrize("text,exact", [
    (_bundled_text("quotient_clutching.json").replace(
        '"command": {', '"command": ' + "[" * 100_000 + "]" * 100_000 + ', "_": {'), True),
    (_bundled_text("quotient_clutching.json").replace(
        '"entries": [[["-1", "0", "1"]]]', '"entries": ' + "[" * 5_000 + "]" * 5_000), False),
], ids=["command-100000-deep", "entries-5000-deep"])
def test_deep_nesting_is_spec_error(tmp_path, capsys, text, exact):
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "boundary", "--spec", str(path))
    assert code == 2 and out == ""
    assert err.startswith("spec error: ") and err.count("\n") == 1
    if exact:
        assert err == "spec error: spec is nested too deeply\n"


# json.loads keeps the last of two equal keys, so these ran whichever value
# came last: two algebras ran the second (exit 0), and "samples" 0 then 1
# ran one sample where 1 then 0 was a spec error.
@pytest.mark.parametrize("text,key", [
    (TRIVIAL_SPEC.decode().replace(
        '"algebra": {"kind": "trivial"}',
        '"algebra": {"kind": "trivial", "max_level": 4}, "algebra": {"kind": "trivial"}'),
     "algebra"),
    (TRIVIAL_SPEC.decode().replace('"samples": 1', '"samples": 1, "samples": 0'), "samples"),
    (TRIVIAL_SPEC.decode().replace('"samples": 1', '"samples": 0, "samples": 1'), "samples"),
], ids=["algebra-twice", "samples-1-then-0", "samples-0-then-1"])
def test_duplicate_key_is_spec_error(tmp_path, capsys, text, key):
    path = tmp_path / "dup.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "verify", "--spec", str(path))
    assert code == 2 and out == ""
    assert err == f"spec error: duplicate key {key!r}\n"


def test_spec_is_read_once_and_hashed_as_read(tmp_path, capsys, monkeypatch):
    import builtins
    import hashlib

    path = tmp_path / "spec.json"
    path.write_bytes(TRIVIAL_SPEC)
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if str(file) == str(path):
            opened.append(args[0] if args else kwargs.get("mode", "r"))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    report = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "verify", "--spec", str(path), "--format", "json",
                         "--report", str(report))
    assert code == 0 and opened == ["rb"]
    digest = json.loads(report.read_text())["command"]["spec_sha256"]
    assert digest == hashlib.sha256(TRIVIAL_SPEC).hexdigest()


def test_boundary_rejects_sectionless_first_leg(tmp_path, capsys):
    doc = {
        "diagram": {
            "lambda1": {"kind": "trivial"},
            "lambda2": {"kind": "quotient-pullback-leg"},
            "lambda_prime": {"kind": "quotient-pullback-leg"},
            "j1": {"type": "scalar-inclusion"},
            "j2": {"type": "identity"},
        },
        "matrices": {
            "U": {"algebra": "lambda_prime", "size": 1,
                  "entries": [[["2"]]], "inverse": [[["1/2"]]]}
        },
        "command": {"name": "boundary", "u": "U"},
    }
    path = tmp_path / "no_section.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "boundary", "--spec", str(path))
    assert code == 2 and "surjective" in err


def _bundled(name):
    return json.loads(resources.files("kcert.specs").joinpath(name).read_text())


def _trivial_with_matrix(**matrix):
    return {
        "algebra": {"kind": "trivial"},
        "matrices": {"M": dict({"algebra": "algebra", "size": 1, "entries": [["2"]]},
                               **matrix)},
        "command": {"name": "verify", "samples": 2},
    }


def _with_command(name, **command):
    doc = _bundled(name)
    doc["command"].update(command)
    return doc


def _propagation(**algebra):
    return {
        "algebra": dict({"kind": "propagation", "points": ["a", "b"],
                         "dist": [["0", "1"], ["1", "0"]], "radius_base": "2"},
                        **algebra),
        "command": {"name": "verify", "samples": 2, "max_size": 2},
    }


# JSON true loads as a bool, which Python counts as the int 1; each integer
# field must reject it rather than run with 1 (or echo "true" in the report)
@pytest.mark.parametrize("command,doc,message", [
    ("verify", _with_command("trivial_q.json", samples=True),
     "command.samples must be a nonnegative integer"),
    ("verify", _with_command("trivial_q.json", seed=True),
     "command.seed must be a nonnegative integer"),
    ("verify", _with_command("trivial_q.json", max_size=True),
     "command.max_size must be a nonnegative integer"),
    ("verify", {"algebra": {"kind": "trivial", "max_level": True},
                "command": {"name": "verify", "samples": 2}},
     "algebra: bad max_level"),
    ("verify", _trivial_with_matrix(size=True), "matrix M: bad size"),
    ("verify", dict(_trivial_with_matrix(level=True),
                    algebra={"kind": "trivial", "max_level": 1}),
     "matrix M: claimed level must be an integer"),
    ("boundary", _with_command("quotient_clutching.json", m=True),
     "command.m must be a nonnegative integer"),
], ids=["samples", "seed", "max_size", "max_level", "size", "level", "m"])
def test_boolean_is_not_an_integer(tmp_path, capsys, command, doc, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command, "--spec", str(path))
    assert code == 2
    assert out == ""
    assert f"spec error: {message}" in err


# a string "false" is truthy, so coercing with bool() would turn it on
@pytest.mark.parametrize("command,doc,message", [
    ("verify", _propagation(diagonal="false"), "algebra: diagonal must be true or false"),
    ("verify", _propagation(diagonal=0), "algebra: diagonal must be true or false"),
    ("exactness", _with_command("quotient_clutching.json", samples=2,
                                corrupt_witness="false"),
     "command.corrupt_witness must be true or false"),
    ("exactness", _with_command("quotient_clutching.json", samples=2, corrupt_witness=1),
     "command.corrupt_witness must be true or false"),
], ids=["diagonal-string", "diagonal-int", "corrupt_witness-string",
        "corrupt_witness-int"])
def test_boolean_field_needs_a_boolean(tmp_path, capsys, command, doc, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command, "--spec", str(path))
    assert code == 2
    assert out == ""
    assert f"spec error: {message}" in err


@pytest.mark.parametrize("diagonal", [True, False])
def test_boolean_diagonal_accepted(tmp_path, capsys, diagonal):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_propagation(diagonal=diagonal)))
    code, out, _ = run_cli(capsys, "verify", "--spec", str(path))
    assert code == 0 and "result: pass" in out
    assert SpecDocument.from_path(str(path)).algebra.diagonal is diagonal


def _clutching_with_leg(**j1):
    doc = _bundled("quotient_clutching.json")
    doc["diagram"]["j1"] = j1
    return doc


def _clutching_with_role(role):
    doc = _bundled("quotient_clutching.json")
    doc["matrices"]["A"]["algebra"] = role
    return doc


# A misspelt perturbation name used to drop the lift-independence check and
# pass; a non-string name, hom type or algebra role crashed on an unhashable
# lookup and a non-object matrices section on .items() (exit 1); a string dist
# row was read character by character.
@pytest.mark.parametrize("command,doc,message", [
    ("boundary", _with_command("quotient_clutching.json", perturb_a="KX"),
     "matrix 'KX' not defined"),
    ("boundary", _with_command("quotient_clutching.json", perturb_b="HX"),
     "matrix 'HX' not defined"),
    ("boundary", _with_command("quotient_clutching.json", lift_a=["A"]),
     "command.lift_a must name a matrix"),
    ("boundary", _with_command("quotient_clutching.json", perturb_a=["K"]),
     "command.perturb_a must name a matrix"),
    ("boundary", _clutching_with_leg(type=["quotient"]),
     "diagram.j1: unknown type ['quotient']"),
    ("verify", _propagation(dist=["01", "10"]), "algebra: dist rows must be arrays"),
    ("verify", dict(_bundled("trivial_q.json"), matrices=["A"]), "matrices must be an object"),
    ("boundary", _clutching_with_role(["lambda1"]),
     "matrix A: unknown algebra role ['lambda1']"),
], ids=["perturb_a-undefined", "perturb_b-undefined", "lift_a-list", "perturb_a-list",
        "hom-type-list", "dist-string-rows", "matrices-list", "role-list"])
def test_malformed_name_or_row_is_spec_error(tmp_path, capsys, command, doc, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command, "--spec", str(path))
    assert code == 2
    assert out == ""
    assert f"spec error: {message}" in err


# Exactness glues through j2 and lifts boundaries through j1, so a leg without
# a section used to crash mid-run with a traceback (exit 1).
@pytest.mark.parametrize("leg,source", [("j1", "lambda1"), ("j2", "lambda2")])
def test_exactness_rejects_sectionless_leg(tmp_path, capsys, leg, source):
    doc = _bundled("quotient_clutching.json")
    doc["diagram"][source] = {"kind": "trivial"}
    doc["diagram"][leg] = {"type": "scalar-inclusion"}
    doc["matrices"] = {}
    doc["command"] = {"name": "exactness", "samples": 1}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "exactness", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert "spec error: exactness requires surjective j1 and j2" in err


# An unwritable --report path used to end in a FileNotFoundError traceback
# and exit 1, which the README reserves for a failed check.
@pytest.mark.parametrize("command,spec", [
    ("verify", "trivial_q.json"),
    ("boundary", "quotient_clutching.json"),
    ("exactness", "quotient_clutching.json"),
])
def test_unwritable_report_path_exits_2(tmp_path, capsys, command, spec):
    target = tmp_path / "missing" / "report.json"
    samples = () if command == "boundary" else ("--samples", "1")
    code, out, err = run_cli(capsys, command, "--spec", spec_path(spec),
                             *samples, "--report", str(target))
    assert code == 2 and out == ""
    assert err.startswith("cannot write report: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not target.exists()


# The extended form (command.m > 0) over the clutching diagram: U = diag(x, 1)
# over Q[x]/(x^2 - 1) is its own inverse and commutes with diag(0, 1).
_X, _ONE, _ZERO, _KILLED = ["0", "1"], ["1"], ["0"], ["-1", "0", "1"]


def _extended_boundary(**perturbations):
    """The spec, with each of K and H given as a perturbation of A and of B."""
    doc = _bundled("quotient_clutching.json")
    diag_x1 = [[_X, _ZERO], [_ZERO, _ONE]]
    doc["matrices"] = {
        "U": {"algebra": "lambda_prime", "size": 2, "entries": diag_x1,
              "inverse": diag_x1},
    }
    doc["command"] = {"name": "boundary", "u": "U", "m": 1}
    for name, entries in perturbations.items():
        doc["matrices"][name] = {"algebra": "lambda1", "size": 2, "entries": entries}
        doc["command"][{"K": "perturb_a", "H": "perturb_b"}[name]] = name
    return doc


@pytest.mark.parametrize("perturbations,checks", [
    ({}, 3),
    ({"K": [[_KILLED, _ZERO], [["-2", "0", "2"], _KILLED]],
      "H": [[_ZERO, _KILLED], [_KILLED, ["0", "-1", "0", "1"]]]}, 5),
], ids=["no-perturbation", "perturbed"])
def test_extended_boundary_passes(tmp_path, capsys, perturbations, checks):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_extended_boundary(**perturbations)))
    code, out, _ = run_cli(capsys, "boundary", "--spec", str(path), "--format", "json")
    report = json.loads(out)
    assert code == 0 and report["result"] == "pass"
    assert report["command"]["m"] == 1
    assert len(report["checks"]) == checks
    assert all(check["ok"] for check in report["checks"])


def test_extended_boundary_rejects_surviving_perturbation(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_extended_boundary(K=[[_ONE, _ZERO], [_ZERO, _ZERO]])))
    code, out, _ = run_cli(capsys, "boundary", "--spec", str(path))
    assert code == 1 and "result: fail" in out
    assert ("check lift independence in A (explicit conjugator): FAIL\n"
            "  residual: perturbation K must die in the overlap ring") in out


def _clutching_lifts(**entries):
    """The bundled clutching spec (U = x) with the entries of A or B replaced."""
    doc = _bundled("quotient_clutching.json")
    for name, rows in entries.items():
        doc["matrices"][name]["entries"] = rows
    return doc


def _cover_lift_over_second_leg():
    """The cover diagram with U = 2 at its overlap point and lift A = 2 over
    the second leg."""
    doc = _bundled("propagation_cover.json")
    doc["matrices"] = {
        "U": {"algebra": "lambda_prime", "size": 1, "entries": [[[["2", "2", "2"]]]],
              "inverse": [[[["2", "2", "1/2"]]]]},
        "A": {"algebra": "lambda2", "size": 1, "entries": [[[["2", "2", "2"]]]]},
    }
    doc["command"] = {"name": "boundary", "u": "U", "lift_a": "A"}
    return doc


def _not_commuting_at_m1():
    """U = [[0, x], [x, 0]], its own inverse, at m = 1: U diag(0, 1) has x at
    (0, 1), where diag(0, 1) U has 0."""
    doc = _extended_boundary()
    swap_x = [[_ZERO, _X], [_X, _ZERO]]
    doc["matrices"]["U"].update(entries=swap_x, inverse=swap_x)
    return doc


# A lift is checked where it enters, before any report line, so a bad one
# rejects the inputs.
@pytest.mark.parametrize("doc,message", [
    (_clutching_lifts(A=[[["1", "1"]]]), "lift A has the wrong image at (0, 0)"),
    (_clutching_lifts(B=[[["0", "0", "1"]]]), "lift B has the wrong image at (0, 0)"),
    (_cover_lift_over_second_leg(), "lifts must live over the first leg"),
    (_not_commuting_at_m1(), "U must commute with the stabilization block, fails at (0, 1)"),
], ids=["lift-a-image", "lift-b-image", "lift-over-lambda2", "m1-not-commuting"])
def test_rejected_lift_is_spec_error(tmp_path, capsys, doc, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "boundary", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err == f"spec error: boundary inputs rejected: {message}\n"


# The corrupted witness is kernel_boundary's, and a diagram without equal
# legs skips that segment, so such a run used to pass without reading it.
def test_corrupt_witness_needs_equal_legs(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(
        _with_command("propagation_cover.json", samples=1, corrupt_witness=True)))
    code, out, err = run_cli(capsys, "exactness", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err == "spec error: command.corrupt_witness needs a diagram with equal legs\n"


# -- the report writer ---------------------------------------------------------

# Quotes, backslashes, control characters and non-ASCII text (BMP and astral),
# which the writer must escape as json.dumps does, and any other character.
_TEXT = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80é€\u2028\U0001d11e')
                | st.characters(), max_size=8)
_INTS = st.integers() | st.sampled_from([2 ** 64 - 1, 2 ** 64, 2 ** 64 + 1, -2 ** 64,
                                         -2 ** 64 - 1, 2 ** 200, -2 ** 200])
_JSON = st.recursive(
    st.none() | st.booleans() | _INTS | _TEXT,
    lambda inner: st.lists(inner) | st.dictionaries(_TEXT, inner),
    max_leaves=20,
)


@given(_JSON)
@example(["a", {"b": 1}, "c"])  # starts with a string, holds a dict
@example(["a", "b", ["c"]])
@example({"": [], "a": {}, "b": [[], {}], "c": [["x", "y"], []]})
@example([True, False, None, 0, -1, 2 ** 64])
def test_report_writer_matches_json_dumps(value):
    assert _json_text(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [
    1.5, {"a": [0.0]},        # float
    (1, 2), {"a": ("x",)},    # tuple
    {1: "a"}, [{"a": {2: 3}}],  # int key
], ids=["float", "nested-float", "tuple", "nested-tuple", "int-key", "nested-int-key"])
def test_report_writer_refuses_what_no_report_holds(value):
    with pytest.raises(TypeError):
        _json_text(value)
