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
from kcert.scalars import Poly, rat
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


NEGATIVE_FLAGS = [
    ("verify", "trivial_q.json", "--samples", "-5"),
    ("verify", "trivial_q.json", "--seed", "-3"),
    ("verify", "trivial_q.json", "--max-size", "-1"),
    ("exactness", "quotient_clutching.json", "--samples", "-1"),
    ("exactness", "quotient_clutching.json", "--seed", "-1"),
]


@pytest.mark.parametrize("command,spec,flag,value", NEGATIVE_FLAGS)
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

    class LevelZero(FilteredMatrix):
        """A faulted matrix, which reports level 0 whatever its entries."""

        __slots__ = ()
        level = 0

    def level_zero(self, other):
        out = product(self, other)
        return LevelZero._raw(out.algebra, out.rows)

    def sum_keeps_level_zero(self, other):
        out = direct_sum(self, other)
        if isinstance(self, LevelZero) or isinstance(other, LevelZero):
            return LevelZero._raw(out.algebra, out.rows)
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


def test_verify_prints_quotient_residuals(tmp_path, capsys, monkeypatch):
    # A failed sample prints its residual's str: over Q[x]/(m) an element is
    # its representative, a polynomial printed with its zero coefficients
    # left out.  Every product gets -2x added at (0, 0).
    product = FilteredMatrix.__matmul__

    def shifted(self, other):
        rows = [list(row) for row in product(self, other).rows]
        rows[0][0] = rows[0][0] + Poly([0, -2])
        return FilteredMatrix(self.algebra, rows)

    monkeypatch.setattr(FilteredMatrix, "__matmul__", shifted)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"algebra": {"kind": "quotient-pullback-leg",
                                            "modulus": ["-1", "0", "1"]},
                                "command": {"name": "verify", "samples": 1, "max_size": 1}}))
    code, out, _ = run_cli(capsys, "verify", "--spec", str(path))
    assert code == 1
    failures = [line for line in out.splitlines() if line.startswith("  failure: ")]
    assert failures == [f"  failure: mismatch at {at}, residual {residual}" for at, residual in (
        ((0, 0), "-2*x"), ((0, 0), "-4*x"), ((1, 1), "4*x"), ((0, 0), "-2*x"),
        ((0, 0), "-24/77 + -46/77*x"), ((0, 0), "1 + -2*x"), ((0, 0), "-2*x"),
        ((0, 0), "-2*x"), ((0, 0), "-6*x"), ((0, 0), "4 + -29/3*x"), ((0, 0), "-1*x"),
    )]
    # Forms these residuals do not show: zero, x itself and higher powers.
    assert [str(Poly(cs)) for cs in ([], [0, 1], [1, 0, rat(-1, 2)], [0, 0, 0, 1])] == [
        "0", "x", "1 + -1/2*x^2", "x^3"]


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


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python writes integers of any length"
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_report_integers_past_the_digit_limit_are_written(tmp_path, capsys, fmt):
    # U = x is its own inverse mod x^2 - 1, and A = B = x + 10^3000 (x^2 - 1)
    # lift it.  Every spec integer has at most 3,001 digits, within the
    # limit a spec is read under, but the report's products of the lifts
    # reach 6,001.  They are written in full, as under
    # -X int_max_str_digits=0, and the limit is restored after the run.
    with open(spec_path("quotient_clutching.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    big = str(10 ** 3000)
    lift = {"algebra": "lambda1", "size": 1, "entries": [[["-" + big, "1", big]]]}
    doc["matrices"] = {"U": doc["matrices"]["U"], "A": lift, "B": lift}
    doc["command"] = {"name": "boundary", "u": "U", "lift_a": "A", "lift_b": "B"}
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "boundary", "--spec", str(path), "--format", fmt)
    assert (code, err.startswith("wall-clock: ")) == (0, True)
    assert sys.get_int_max_str_digits() == limit
    if fmt == "text":
        assert out.endswith("result: pass\n")
    else:
        report = json.loads(out)
        assert report["result"] == "pass"
        assert max(len(token) for token in out.split('"')) > 6000


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
DEEP_NESTING = [
    (_bundled_text("quotient_clutching.json").replace(
        '"command": {', '"command": ' + "[" * 100_000 + "]" * 100_000 + ', "_": {'), True),
    (_bundled_text("quotient_clutching.json").replace(
        '"entries": [[["-1", "0", "1"]]]', '"entries": ' + "[" * 5_000 + "]" * 5_000), False),
]


@pytest.mark.parametrize("text,exact", DEEP_NESTING,
                         ids=["command-100000-deep", "entries-5000-deep"])
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
DUPLICATE_KEYS = [
    (TRIVIAL_SPEC.decode().replace(
        '"algebra": {"kind": "trivial"}',
        '"algebra": {"kind": "trivial", "max_level": 4}, "algebra": {"kind": "trivial"}'),
     "algebra"),
    (TRIVIAL_SPEC.decode().replace('"samples": 1', '"samples": 1, "samples": 0'), "samples"),
    (TRIVIAL_SPEC.decode().replace('"samples": 1', '"samples": 0, "samples": 1'), "samples"),
]


@pytest.mark.parametrize("text,key", DUPLICATE_KEYS,
                         ids=["algebra-twice", "samples-1-then-0", "samples-0-then-1"])
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
BOOLEAN_INTEGERS = [
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
]


@pytest.mark.parametrize("command,doc,message", BOOLEAN_INTEGERS,
                         ids=["samples", "seed", "max_size", "max_level", "size", "level", "m"])
def test_boolean_is_not_an_integer(tmp_path, capsys, command, doc, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command, "--spec", str(path))
    assert code == 2
    assert out == ""
    assert f"spec error: {message}" in err


# a string "false" is truthy, so coercing with bool() would turn it on
NON_BOOLEAN_FLAGS = [
    ("verify", _propagation(diagonal="false"), "algebra: diagonal must be true or false"),
    ("verify", _propagation(diagonal=0), "algebra: diagonal must be true or false"),
    ("exactness", _with_command("quotient_clutching.json", samples=2,
                                corrupt_witness="false"),
     "command.corrupt_witness must be true or false"),
    ("exactness", _with_command("quotient_clutching.json", samples=2, corrupt_witness=1),
     "command.corrupt_witness must be true or false"),
]


@pytest.mark.parametrize("command,doc,message", NON_BOOLEAN_FLAGS,
                         ids=["diagonal-string", "diagonal-int", "corrupt_witness-string",
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


def test_string_integer_and_null_point_labels_accepted(tmp_path, capsys):
    # Each kind of label names its own point, and the report echoes it.
    doc = _with_matrix(_propagation(points=["a", 0, None], dist=[
        ["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]]), [[[[None, 0, "1/2"], ["a", "a", "1"]]]])
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    matrix = SpecDocument.from_path(str(path)).matrix("M")
    assert matrix.rows[0][0].table == {(2, 1): rat(1, 2), (0, 0): rat(1)}
    code, out, _ = run_cli(capsys, "verify", "--spec", str(path), "--format", "json")
    assert code == 0 and json.loads(out)["command"]["algebra"]["points"] == ["a", 0, None]


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
MALFORMED_NAMES_AND_ROWS = [
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
]


@pytest.mark.parametrize("command,doc,message", MALFORMED_NAMES_AND_ROWS,
                         ids=["perturb_a-undefined", "perturb_b-undefined", "lift_a-list",
                              "perturb_a-list", "hom-type-list", "dist-string-rows",
                              "matrices-list", "role-list"])
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
REJECTED_LIFTS = [
    (_clutching_lifts(A=[[["1", "1"]]]), "lift A has the wrong image at (0, 0)"),
    (_clutching_lifts(B=[[["0", "0", "1"]]]), "lift B has the wrong image at (0, 0)"),
    (_cover_lift_over_second_leg(), "lifts must live over the first leg"),
    (_not_commuting_at_m1(), "U must commute with the stabilization block, fails at (0, 1)"),
]


@pytest.mark.parametrize("doc,message", REJECTED_LIFTS,
                         ids=["lift-a-image", "lift-b-image", "lift-over-lambda2",
                              "m1-not-commuting"])
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


# -- every outside input a command rejects -----------------------------------

_TRIVIAL = {"algebra": {"kind": "trivial"}, "command": {"name": "verify", "samples": 1}}
_Q_X = {"kind": "quotient-pullback-leg"}
_Q_X_MOD = {"kind": "quotient-pullback-leg", "modulus": ["-1", "0", "1"]}


def _line(points, diagonal=True, **algebra):
    """A diagonal propagation algebra on points of a line, |i - j| apart."""
    n = len(points)
    return dict({"kind": "propagation", "points": points, "diagonal": diagonal,
                 "dist": [[str(abs(i - j)) for j in range(n)] for i in range(n)],
                 "radius_base": "4"}, **algebra)


def _with_matrix(doc, entries, **matrix):
    """doc with one more matrix, M, over its algebra unless ``matrix`` says."""
    doc = json.loads(json.dumps(doc))
    doc.setdefault("matrices", {})["M"] = dict(size=len(entries), entries=entries, **matrix)
    return doc


def _legs(lambda1, lambda_prime, j1, lambda2=None, j2=None, command="exactness"):
    """A diagram whose second leg defaults to the identity of lambda_prime."""
    return {"diagram": {"lambda1": lambda1, "lambda2": lambda2 or lambda_prime,
                        "lambda_prime": lambda_prime,
                        "j1": {"type": j1}, "j2": {"type": j2 or "identity"}},
            "command": {"name": command, "samples": 1}}


def _kernel_entry(entry, **algebra):
    return _with_matrix(_propagation(**algebra), [[entry]])


def _clutching_boundary(**command):
    """The clutching spec with V = 2 over lambda1, its inverse given, and a
    2 x 2 A2 over lambda1, for command values to name."""
    doc = _with_command("quotient_clutching.json", **command)
    doc["matrices"]["V"] = {"algebra": "lambda1", "size": 1, "entries": [[["2"]]],
                            "inverse": [[["1/2"]]]}
    doc["matrices"]["A2"] = {"algebra": "lambda1", "size": 2,
                             "entries": [[["0", "1"], ["0"]], [["0"], ["1"]]]}
    return doc


# Each row is (command and flags, spec document, a line the run prints on
# stderr), and the run must exit 2 with no report.  A document given as
# bytes is written as it is, and None leaves the spec path missing; "{tmp}"
# in a flag is the test's own directory.  Together with the tables above,
# these rows reach every check of an outside input: tests/test_guards.py
# runs them all under its line audit.
REJECTIONS = [
    pytest.param("verify", None, "spec error: cannot read spec: ", id="missing-spec"),
    pytest.param("verify", b'{"\xff": 1}', "spec error: spec is not valid UTF-8: ", id="not-utf8"),
    pytest.param("verify", b"{not json", "spec error: spec is not valid JSON: ", id="not-json"),
    pytest.param("verify --max-size 0", _TRIVIAL,
                 "spec error: --max-size must be at least 1: 0 checks nothing", id="max-size-0"),
    pytest.param("verify --report {tmp}/missing/report.json", _TRIVIAL,
                 "cannot write report: ", id="unwritable-report"),
    pytest.param("verify", _with_matrix(_TRIVIAL, [["x"]]),
                 "spec error: matrix M: row 0: malformed rational 'x'", id="malformed-rational"),
    pytest.param("verify", _with_matrix(_TRIVIAL, [["1/0"]]),
                 "spec error: matrix M: row 0: malformed rational '1/0' (zero denominator)",
                 id="zero-denominator"),
    pytest.param("verify", _with_matrix(_TRIVIAL, [["2"]], inverse=[["1"]]),
                 "spec error: matrix M: inverse does not verify: "
                 "inverse certificate fails at (0, 0)", id="wrong-inverse"),
    pytest.param("verify", _with_matrix(_TRIVIAL, [["2"]], level=3),
                 "spec error: matrix M: claimed level 3 but recomputed 16", id="claimed-level"),
    pytest.param("verify", {"algebra": {"kind": "quotient-pullback-leg",
                                        "modulus": ["-1", "0", "2"]}},
                 "spec error: algebra: modulus must be monic of degree >= 1",
                 id="non-monic-modulus"),
    pytest.param("verify", _with_matrix({"algebra": _Q_X}, [["1"]]),
                 "spec error: matrix M: row 0: polynomial element must be a coefficient array",
                 id="poly-not-array"),
    pytest.param("verify", _propagation(points=["a", "a"]),
                 "spec error: algebra: duplicate points", id="duplicate-points"),
    pytest.param("verify", _propagation(points=[0.5, 1.5]),
                 "spec error: algebra: float point label 0.5", id="float-point-label"),
    pytest.param("verify", _propagation(points=[float("nan"), 1]),
                 "spec error: algebra: float point label nan", id="nan-point-label"),
    pytest.param("verify", _propagation(points=["a", True]),
                 "spec error: algebra: bad point label True", id="bool-point-label"),
    pytest.param("verify", _propagation(points=[1, True]),
                 "spec error: algebra: bad point label True", id="bool-point-beside-1"),
    pytest.param("verify", _propagation(points=["a", {"b": 1}]),
                 "spec error: algebra: bad point label {'b': 1}", id="object-point-label"),
    pytest.param("verify", _propagation(points=[["a"], "b"]),
                 "spec error: algebra: bad point label ['a']", id="array-point-label"),
    pytest.param("verify", _propagation(dist=[["0"]]),
                 "spec error: algebra: distance matrix shape mismatch", id="dist-shape"),
    pytest.param("verify", _propagation(dist=[["1", "1"], ["1", "0"]]),
                 "spec error: algebra: nonzero diagonal distance", id="dist-diagonal"),
    pytest.param("verify", _propagation(dist=[["0", "1"], ["2", "0"]]),
                 "spec error: algebra: distance matrix not symmetric", id="dist-asymmetric"),
    pytest.param("verify", _propagation(points=["a", "b", "c"], dist=[
        ["0", "1", "3"], ["1", "0", "1"], ["3", "1", "0"]], radius_base="4"),
                 "spec error: algebra: triangle inequality fails", id="dist-triangle"),
    pytest.param("verify", _propagation(radius_base="1/2"),
                 "spec error: algebra: radius base must cover the diameter", id="radius-base"),
    # A key that only another kind reads: each ran as if it were absent.
    pytest.param("verify", {"algebra": {"kind": "trivial", "modulus": ["-1", "0", "1"],
                                        "points": ["a"], "diagonal": True}},
                 "spec error: algebra: kind 'trivial' does not read keys "
                 "['diagonal', 'modulus', 'points']", id="trivial-foreign-keys"),
    pytest.param("verify", {"algebra": dict(_Q_X, points=["a"], dist=[["0"]])},
                 "spec error: algebra: kind 'quotient-pullback-leg' does not read keys "
                 "['dist', 'points']", id="pullback-leg-foreign-keys"),
    pytest.param("verify", _propagation(modulus=["-1", "0", "1"]),
                 "spec error: algebra: kind 'propagation' does not read keys ['modulus']",
                 id="propagation-foreign-key"),
    pytest.param("verify", _kernel_entry("1"),
                 "spec error: matrix M: row 0: propagation element must be a list of triples",
                 id="kernel-not-list"),
    pytest.param("verify", _kernel_entry([["a", "b"]]),
                 "spec error: matrix M: row 0: bad kernel triple ['a', 'b']", id="kernel-pair"),
    pytest.param("verify", _kernel_entry([["a", "z", "1"]]),
                 "spec error: matrix M: row 0: unknown point 'z'", id="kernel-unknown-point"),
    pytest.param("verify", _kernel_entry([[0, True, "1"]], points=[0, 1]),
                 "spec error: matrix M: row 0: bad point label True", id="kernel-bool-point"),
    pytest.param("verify", _kernel_entry([[0, 1.0, "1"]], points=[0, 1]),
                 "spec error: matrix M: row 0: bad point label 1.0", id="kernel-float-point"),
    pytest.param("verify", _kernel_entry([["a", {"b": 1}, "1"]]),
                 "spec error: matrix M: row 0: bad point label {'b': 1}",
                 id="kernel-object-point"),
    pytest.param("verify", _kernel_entry([["a", "b", "1"]], diagonal=True),
                 "spec error: matrix M: row 0: off-diagonal entry in a diagonal algebra",
                 id="kernel-off-diagonal"),
    pytest.param("verify", _kernel_entry([["a", "a", "1"], ["a", "a", "2"]]),
                 "spec error: matrix M: row 0: duplicate kernel entry ['a', 'a']",
                 id="kernel-duplicate"),
    pytest.param("verify", _legs(_Q_X, _Q_X, "identity"),
                 "spec error: verify requires an 'algebra' section", id="verify-no-algebra"),
    pytest.param("boundary", _TRIVIAL,
                 "spec error: boundary requires a 'diagram' section", id="boundary-no-diagram"),
    pytest.param("exactness", _TRIVIAL,
                 "spec error: exactness requires a 'diagram' section", id="exactness-no-diagram"),
    pytest.param("verify", _with_matrix(_legs(_Q_X, _Q_X, "identity"), [[["1"]]]),
                 "spec error: matrix M: no algebra section", id="matrix-no-algebra"),
    pytest.param("exactness", _legs({"kind": "trivial"}, _Q_X, "identity"),
                 "spec error: diagram.j1: identity hom needs equal source and target",
                 id="identity-unequal"),
    pytest.param("exactness", _legs({"kind": "trivial"}, _Q_X_MOD, "quotient"),
                 "spec error: diagram.j1: quotient hom source must be the polynomial ring",
                 id="quotient-source"),
    pytest.param("exactness", _legs(_Q_X, _Q_X, "quotient"),
                 "spec error: diagram.j1: quotient hom target must be a quotient ring",
                 id="quotient-target"),
    pytest.param("exactness", _legs({"kind": "trivial"}, _line(["b"]), "restriction"),
                 "spec error: diagram.j1: restriction hom needs propagation algebras",
                 id="restriction-carrier"),
    pytest.param("exactness", _legs(_line(["a", "b"], diagonal=False),
                                    _line(["b"], diagonal=False), "restriction"),
                 "spec error: diagram.j1: restriction hom requires diagonal algebras",
                 id="restriction-full"),
    pytest.param("exactness", _legs(_line(["a", "b"], max_level=8), _line(["b"]), "restriction"),
                 "spec error: diagram.j1: restriction hom must preserve max_level",
                 id="restriction-max-level"),
    pytest.param("exactness", _legs(_line(["a", "b"]), _line(["z"]), "restriction"),
                 "spec error: diagram.j1: target points ['z'] not in source space",
                 id="restriction-foreign-point"),
    pytest.param("exactness", _legs(_line(["a", "b", "c"]), _line(["a", "c"]), "restriction"),
                 "spec error: diagram.j1: restricted space must inherit the metric",
                 id="restriction-metric"),
    # A hom's source and target are the diagram's roles; none is read.
    pytest.param("exactness", {"diagram": {
        "lambda1": _Q_X, "lambda2": _Q_X, "lambda_prime": _Q_X,
        "j1": {"type": "identity", "source": "lambda2", "target": "nowhere"},
        "j2": {"type": "identity"}}},
                 "spec error: diagram.j1 has unknown keys ['source', 'target']",
                 id="hom-source-target"),
    pytest.param("exactness", _legs(_Q_X, _Q_X_MOD, "scalar-inclusion"),
                 "spec error: diagram.j1: scalar inclusion needs the trivial source",
                 id="inclusion-source"),
    pytest.param("exactness", _legs({"kind": "trivial"}, _Q_X_MOD, "scalar-inclusion",
                                    {"kind": "trivial"}, "scalar-inclusion"),
                 "spec error: diagram: at least one leg must be surjective",
                 id="no-surjective-leg"),
    pytest.param("exactness", _legs(_Q_X, _Q_X_MOD, "quotient", {"kind": "trivial"},
                                    "scalar-inclusion"),
                 "spec error: exactness requires surjective j1 and j2 with sections",
                 id="exactness-sectionless-leg"),
    pytest.param("exactness", _with_command("propagation_cover.json", samples=1,
                                            corrupt_witness=True),
                 "spec error: command.corrupt_witness needs a diagram with equal legs",
                 id="corrupt-unequal-legs"),
    pytest.param("boundary", _with_matrix(
        _legs({"kind": "trivial"}, _Q_X, "scalar-inclusion", command="boundary"),
        [[["2"]]], algebra="lambda_prime", inverse=[[["1/2"]]]),
                 "spec error: boundary requires a surjective j1 with a section",
                 id="boundary-sectionless-j1"),
    pytest.param("boundary", _with_command("quotient_clutching.json", u=["U"]),
                 "spec error: command.u must name a matrix over lambda_prime", id="u-not-a-name"),
    pytest.param("boundary", _clutching_boundary(u="V"),
                 "spec error: matrix 'V' must live over lambda_prime", id="u-over-lambda1"),
    pytest.param("boundary", _clutching_boundary(lift_a="A2"),
                 "spec error: boundary inputs rejected: lift sizes must match U",
                 id="lift-size"),
    pytest.param("boundary", _with_command("quotient_clutching.json", m=2),
                 "spec error: boundary inputs rejected: block split must satisfy 0 <= m <= size",
                 id="m-above-size"),
]


def rejection_argv(tmp_path, command, doc, name="spec.json"):
    """The argv of one rejection row, its spec written to tmp_path / name."""
    path = tmp_path / name
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    elif doc is not None:
        path.write_text(json.dumps(doc))
    command, *flags = command.replace("{tmp}", str(tmp_path)).split()
    return [command, "--spec", str(path), *flags]


def rejection_rows():
    """(command and flags, spec document) of every row of this module's
    tables of inputs that exit 2."""
    rows = [(row.values[0], row.values[1]) for row in REJECTIONS]
    rows += [(command, doc) for table in (BOOLEAN_INTEGERS, NON_BOOLEAN_FLAGS,
                                          MALFORMED_NAMES_AND_ROWS)
             for command, doc, _ in table]
    rows += [("boundary", doc) for doc, _ in REJECTED_LIFTS]
    rows += [(f"{command} {flag} {value}", _bundled(spec))
             for command, spec, flag, value in NEGATIVE_FLAGS]
    rows += [("boundary", text.encode()) for text, _ in DEEP_NESTING]
    return rows + [("verify", text.encode()) for text, _ in DUPLICATE_KEYS]


@pytest.mark.parametrize("command,doc,message", REJECTIONS)
def test_outside_input_is_rejected(tmp_path, capsys, command, doc, message):
    code, out, err = run_cli(capsys, *rejection_argv(tmp_path, command, doc))
    assert code == 2 and out == ""
    assert err.startswith(message) and err.count("\n") == 1


def test_reader_recursion_is_spec_error(monkeypatch):
    # Reading a spec that json parsed may still recurse too deep (a repr of
    # a deeply nested value in a message does), and that is a spec error too.
    def recurse(self, raw):
        raise RecursionError

    monkeypatch.setattr(SpecDocument, "__init__", recurse)
    with pytest.raises(SpecError, match="^spec is nested too deeply$"):
        SpecDocument.from_bytes(TRIVIAL_SPEC)


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
