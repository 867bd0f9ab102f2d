"""Property test of the spec reader: a mutated bundled spec either runs
(exit 0 with a passing report that checked something, or exit 1) or is a
spec error (exit 2), never a traceback, and two runs give the same bytes.

The mutations swap the type of a field, delete, duplicate or rename a key,
nest a value deeply, and write huge or negative integers, ``NaN`` and
``Infinity`` tokens and non-ASCII names.  Objects are kept as lists of
pairs, so a key can appear twice in the JSON text."""

import contextlib
import io
import json
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kcert.cli import main

SPECS = ("trivial_q.json", "quotient_clutching.json", "propagation_cover.json")
# Bounds that keep one run to milliseconds: the sample count, and the matrix
# size the verify suite draws up to.
CAPS = {"samples": 2, "max_size": 2}


class Obj:
    """A JSON object as its list of [key, value] pairs, in order."""

    def __init__(self, pairs):
        self.pairs = [list(p) for p in pairs]


class Raw:
    """JSON text written as it is: a huge integer, a non-finite number, or a
    value nested deeper than this module's own recursion would go."""

    def __init__(self, text):
        self.text = text


def bundled(name, **kwargs):
    return json.loads(resources.files("kcert.specs").joinpath(name).read_bytes(), **kwargs)


# The subcommand each bundled spec is run with.
COMMANDS = {name: bundled(name)["command"]["name"] for name in SPECS}


def dump(node):
    if isinstance(node, Obj):
        return "{" + ", ".join(f"{dump(k)}: {dump(v)}" for k, v in node.pairs) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(dump(v) for v in node) + "]"
    if isinstance(node, Raw):
        return node.text
    return json.dumps(node, ensure_ascii=False)


def slots(node):
    """(container, index, is_pair) for every value below node: in an
    object, the index picks a [key, value] pair."""
    if isinstance(node, Obj):
        for i, pair in enumerate(node.pairs):
            yield node.pairs, i, True
            yield from slots(pair[1])
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield node, i, False
            yield from slots(value)


names = st.text(st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=4)
scalars = st.one_of(
    st.integers(-(2 ** 70), 2 ** 70),
    st.sampled_from([-1, 0, 1, 2, 10 ** 30]),
    st.sampled_from([Raw("9" * 5000), Raw("-" + "9" * 5000), Raw("NaN"), Raw("Infinity"),
                     Raw("-Infinity"), Raw("1e400"), Raw("-0")]),
    st.floats(),
    names,
    st.sampled_from(["0", "1/2", "-1", "é", "0/0"]),
    st.booleans(),
    st.none(),
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.lists(
        st.tuples(names, inner), max_size=3
    ).map(Obj),
    max_leaves=5,
)


@st.composite
def mutated_specs(draw):
    name = draw(st.sampled_from(SPECS))
    root = [bundled(name, object_pairs_hook=Obj)]
    for _ in range(draw(st.integers(1, 3))):
        container, i, is_pair = draw(st.sampled_from([(root, 0, False), *slots(root[0])]))
        value = container[i][1] if is_pair else container[i]
        op = draw(st.sampled_from(["replace", "nest", "delete", "duplicate", "rename"]))
        if op in ("replace", "nest"):
            if op == "replace":
                new = draw(values)
            else:
                depth = draw(st.sampled_from([2, 40, 3000]))
                new = Raw("[" * depth + dump(value) + "]" * depth)
            if is_pair:
                container[i][1] = new
            else:
                container[i] = new
        elif container is root:
            continue
        elif op == "delete":
            del container[i]
        elif op == "duplicate":
            copy = [container[i][0], draw(st.just(value) | values)] if is_pair else value
            container.insert(i + 1, copy)
        elif is_pair:
            container[i][0] = draw(names)
    if isinstance(root[0], Obj):
        for key, command in root[0].pairs:
            if key == "command" and isinstance(command, Obj):
                for pair in command.pairs:
                    cap = CAPS.get(pair[0])
                    if cap is not None and type(pair[1]) is int and pair[1] > cap:
                        pair[1] = cap
    return COMMANDS[name], dump(root[0]).encode("utf-8")


def run(argv):
    """Exit code, report bytes and stderr of one in-process CLI call."""
    report = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(report), contextlib.redirect_stderr(err):
        code = main(argv + ["--format", "json"])
    return code, report.getvalue(), err.getvalue()


def checked_something(report):
    """True when a passing report ran at least one check with samples."""
    if report.get("result") != "pass":
        return False
    checks = report.get("checks", [])
    segments = [s for s in report.get("segments", []) if s.get("status") != "skipped"]
    counted = [c["samples"] for c in checks + segments if "samples" in c]
    return bool(checks or segments) and all(n > 0 for n in counted)


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "spec.json"


# A JSON integer longer than Python's int() converts raised a bare ValueError.
HUGE_INTEGER = (
    b'{"algebra": {"kind": "trivial", "max_level": ' + b"9" * 5000
    + b'}, "command": {"name": "verify", "samples": 1}}'
)


@settings(max_examples=150, deadline=None)
@given(mutated_specs())
@example(case=("verify", HUGE_INTEGER))
def test_mutated_specs_exit_cleanly(spec_file, case):
    command, data = case
    spec_file.write_bytes(data)
    argv = [command, "--spec", str(spec_file)]
    first = run(argv)
    code, report, err = first
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        assert checked_something(json.loads(report))
    if code == 2:
        assert err.startswith("spec error: ")
    assert run(argv)[:2] == first[:2]
