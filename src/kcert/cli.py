"""Command-line driver.

    kcert verify    --spec spec.json [--seed N] [--samples N] [--max-size N]
    kcert boundary  --spec spec.json
    kcert exactness --spec spec.json [--seed N] [--samples N]

Reports are byte-identical for equal (spec, seed): wall-clock goes to
stderr, never into the report.  Exit codes: 0 all checks pass, 1 a check
failed, 2 spec error or a report that cannot be written.

A JSON report is the text ``json.dumps(report, sort_keys=True, indent=2)``
gives, written by ``_json_text`` instead: with ``indent`` set, Python's
``json`` runs its pure-Python encoder, about twice as slow on a boundary
report.  Strings go through the same C escaper ``json`` uses.

A spec is read under Python's limit on the digits of an integer converted
from text (an integer past it is a spec error), but the exact numbers a run
derives from the spec may pass that limit: the run and its report are built
with the limit lifted, and it is restored afterwards."""

import argparse
import contextlib
import functools
import hashlib
import sys
import time
from json.encoder import encode_basestring_ascii as _quote

from .matrices import InvertibleCert
from .drivers import boundary_report, exactness_report, verify_report
from .specdoc import SpecDocument, SpecError, is_json_int, read_spec


def _render_text(report):
    lines = []
    cmd = report.get("command", {})
    lines.append(f"command: {cmd.get('name')}")
    for key in ("spec_sha256", "seed", "samples", "max_size", "m", "size",
                "corrupt_witness"):
        if key in cmd:
            lines.append(f"{key}: {cmd[key]}")
    for check in report.get("checks", ()):
        status = "PASS" if check["ok"] else "FAIL"
        extra = []
        if "samples" in check:
            extra.append(f"samples={check['samples']}")
        if check.get("min_level_slack") is not None:
            extra.append(f"min_level_slack={check['min_level_slack']}")
        suffix = f" ({', '.join(extra)})" if extra else ""
        lines.append(f"check {check['name']}: {status}{suffix}")
        if not check["ok"]:
            for failure in check.get("failures", ()):
                lines.append(f"  failure: {failure}")
            if check.get("residual"):
                lines.append(f"  residual: {check['residual']}")
    for seg in report.get("segments", ()):
        status = seg["status"].upper()
        extra = f" (samples={seg['samples']})" if "samples" in seg else ""
        if seg["status"] == "skipped":
            extra = f" ({seg['reason']})"
        lines.append(f"segment {seg['segment']}: {status}{extra}")
        if seg["status"] == "fail":
            for check in seg.get("checks", ()):
                mark = "ok" if check["ok"] else "FAIL"
                res = f" residual: {check['residual']}" if check.get("residual") else ""
                lines.append(f"  {mark} {check['name']}{res}")
    if "levels" in report:
        ledger = ", ".join(f"{k}={v}" for k, v in sorted(report["levels"].items()))
        lines.append(f"levels: {ledger}")
    lines.append(f"result: {report['result']}")
    return "\n".join(lines) + "\n"


def _json_text(value, pad="\n"):
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` writes
    it, for the types a report holds: dicts with str keys, lists, str, int,
    bool and None.  Any other type, a float, a tuple or a non-str key among
    them, raises TypeError.  ``pad`` is the newline and indent that close
    ``value``."""
    if isinstance(value, str):
        return _quote(value)
    inner = pad + "  "
    sep = "," + inner
    if isinstance(value, list):
        if not value:
            return "[]"
        if isinstance(value[0], str):
            try:
                return "[" + inner + sep.join(map(_quote, value)) + pad + "]"
            except TypeError:  # not every item is a string
                pass
        return "[" + inner + sep.join([_json_text(v, inner) for v in value]) + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        # _quote raises TypeError on a key that is not a str.
        items = [_quote(key) + ": " + _json_text(value[key], inner) for key in sorted(value)]
        return "{" + inner + sep.join(items) + pad + "}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"a report holds no {type(value).__name__}")


def _emit(report, fmt, path):
    if fmt == "json":
        text = _json_text(report) + "\n"
    else:
        text = _render_text(report)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _int_param(args, doc, key, default, least=0):
    """A flag value when given, else the spec's command value; both must be
    integers of at least ``least`` (and never negative)."""
    value = getattr(args, key)
    source = "--" + key.replace("_", "-")
    if value is None:
        value = doc.command.get(key, default)
        source = f"command.{key}"
    if not is_json_int(value) or value < 0:
        raise SpecError(f"{source} must be a nonnegative integer")
    if value < least:
        raise SpecError(f"{source} must be at least {least}: {value} checks nothing")
    return value


def _run_verify(args, doc):
    if doc.algebra is None:
        raise SpecError("verify requires an 'algebra' section")
    seed = _int_param(args, doc, "seed", 0)
    samples = _int_param(args, doc, "samples", 100, least=1)
    max_size = _int_param(args, doc, "max_size", 3, least=1)
    return verify_report(doc.algebra, seed, samples, max_size)


def _named_matrix(doc, key):
    """The matrix that command.<key> names, unwrapped from its certificate."""
    name = doc.command[key]
    if not isinstance(name, str):
        raise SpecError(f"command.{key} must name a matrix")
    m = doc.matrix(name)
    return m.m if isinstance(m, InvertibleCert) else m


def _run_boundary(args, doc):
    if doc.diagram is None:
        raise SpecError("boundary requires a 'diagram' section")
    if not doc.diagram.j1.surjective:
        raise SpecError("boundary requires a surjective j1 with a section")
    name = doc.command.get("u")
    if not isinstance(name, str):
        raise SpecError("command.u must name a matrix over lambda_prime")
    u = doc.matrix(name, want_cert=True)
    if u.algebra != doc.diagram.lambda_prime:
        raise SpecError(f"matrix {name!r} must live over lambda_prime")
    lift_a, lift_b, perturb_a, perturb_b = (
        _named_matrix(doc, key) if key in doc.command else None
        for key in ("lift_a", "lift_b", "perturb_a", "perturb_b")
    )
    m = doc.command.get("m", 0)
    if not is_json_int(m) or m < 0:
        raise SpecError("command.m must be a nonnegative integer")
    try:
        return boundary_report(
            doc.diagram, u, lift_a=lift_a, lift_b=lift_b, m=m,
            perturb_a=perturb_a, perturb_b=perturb_b,
        )
    except ValueError as exc:
        raise SpecError(f"boundary inputs rejected: {exc}") from exc


def _run_exactness(args, doc):
    if doc.diagram is None:
        raise SpecError("exactness requires a 'diagram' section")
    if not (doc.diagram.j1.surjective and doc.diagram.j2.surjective):
        raise SpecError("exactness requires surjective j1 and j2 with sections")
    seed = _int_param(args, doc, "seed", 0)
    samples = _int_param(args, doc, "samples", 25, least=1)
    corrupt = doc.command.get("corrupt_witness", False)
    if not isinstance(corrupt, bool):
        raise SpecError("command.corrupt_witness must be true or false")
    if corrupt and not doc.diagram.same_legs:
        # The corrupted witness is kernel_boundary's, which such a diagram
        # skips, so the run would pass without reading it.
        raise SpecError("command.corrupt_witness needs a diagram with equal legs")
    return exactness_report(doc.diagram, seed, samples, corrupt_witness=corrupt)


# Each command with the integer flags it reads; any other flag is a usage
# error (exit 2).
COMMANDS = {
    "verify": (_run_verify, ("--seed", "--samples", "--max-size")),
    "boundary": (_run_boundary, ()),
    "exactness": (_run_exactness, ("--seed", "--samples")),
}


@contextlib.contextmanager
def _int_digits_unlimited():
    """Lift Python's limit on the digits of an integer converted to or from
    text for the block, and restore it afterwards.  Where Python has no
    limit, or it is lifted already, there is nothing to do."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@functools.cache
def _parser():
    """The argument parser, built on the first ``main`` call and reused:
    parsing leaves no state in it, and building one per call costs about a
    millisecond and a few hundred objects for the cyclic collector."""
    parser = argparse.ArgumentParser(
        prog="kcert",
        description="exact certificate checks for glued idempotents, "
                    "connecting maps and six-term exactness witnesses",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--spec", required=True, help="path to a spec document")
        for flag in flags:
            p.add_argument(flag, type=int, default=None)
        p.add_argument("--report", default=None, help="write the report here")
        p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    started = time.monotonic()
    try:
        data = read_spec(args.spec)
        doc = SpecDocument.from_bytes(data)
        with _int_digits_unlimited():
            report = COMMANDS[args.subcommand][0](args, doc)
            report["command"]["spec_sha256"] = hashlib.sha256(data).hexdigest()
            _emit(report, args.format, args.report)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return 2
    elapsed = time.monotonic() - started
    print(f"wall-clock: {elapsed:.3f}s", file=sys.stderr)
    return 0 if report["result"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
