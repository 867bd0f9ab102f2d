"""Guards on the checker itself rather than on the mathematics.

- Fault injection: every product the ``boundary``, ``exactness`` and
  ``verify`` commands compute is load bearing.  A wrapper around
  ``FilteredMatrix.__matmul__`` adds the all-ones matrix to the k-th
  product, for every k, and the run must then fail (exit 1).  A product
  made while the spec is parsed belongs to a claimed certificate of the
  spec itself, so a fault there may exit 2 instead.
- Shortcut audit: building a certificate or a double matrix checks nothing,
  and only an explicit ``verify()`` checks its claim.  Calling ``verify()``
  on every one as soon as it is built must leave each report byte for byte
  as it was, so every certificate left unverified carries a claim that holds.
  Acceptance criteria 2-8 must pass in the same forced mode.
- Product count: one ``boundary`` run of the bundled clutching spec and one
  ``exactness`` run of the exactness-clutching benchmark's request 0 each
  make an exact number of products, so a repeated product cannot creep back.
- Surface: every module-level name of ``src/kcert`` is read by live code in
  ``src/kcert``, save an allowlist with one reason per name, so a helper that
  only tests (or only other dead helpers) call lives in the tests.  Live code
  is ``main``, the allowlist, module-level statements that define nothing,
  and whatever live code loads, as a fixpoint.  Every name a module of
  ``src/kcert`` imports is loaded in that module or listed in its
  ``__all__``, so a deletion cannot leave a stale import behind.
"""

import ast
import hashlib
import importlib.util
import inspect
import json
import textwrap
from importlib import resources
from pathlib import Path

import pytest
import test_acceptance as acceptance

from kcert import matrices, mv
from kcert.cli import main
from kcert.matrices import FilteredMatrix
from kcert.specdoc import SpecDocument

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def spec_path(name):
    return str(resources.files("kcert.specs").joinpath(name))


def perfbench_request(name, seed=0, index=0):
    """(subcommand, spec document) of request ``index`` of a benchmark
    workload, built by the benchmark's own generator."""
    if not WORKLOADS_PY.exists():
        pytest.skip("perfbench/workloads.py is not in this checkout")
    loader = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    workload = module.WORKLOADS[name]
    return workload.subcommand, workload.spec(seed, index)


def run(argv, report):
    """Exit code and report bytes of one in-process CLI call."""
    report.unlink(missing_ok=True)
    code = main(argv + ["--format", "json", "--report", str(report)])
    return code, report.read_bytes() if report.exists() else b""


class ProductProbe:
    """Counts ``FilteredMatrix.__matmul__`` calls and, when ``fault`` is an
    index, adds the all-ones matrix to that product."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.fault = None
        inner = FilteredMatrix.__matmul__

        def matmul(a, b):
            out = inner(a, b)
            k, self.calls = self.calls, self.calls + 1
            if k == self.fault:
                one = (a.algebra.one(),) * a.n
                out = out + FilteredMatrix._raw(a.algebra, (one,) * a.n)
            return out

        monkeypatch.setattr(FilteredMatrix, "__matmul__", matmul)

    def count(self, thunk):
        self.fault, self.calls = None, 0
        thunk()
        return self.calls


@pytest.fixture
def probe(monkeypatch):
    return ProductProbe(monkeypatch)


def _boundary_cases(tmp_path):
    """(label, spec path) for the bundled boundary spec and request 0 of
    the boundary-clutching benchmark workload."""
    subcommand, doc = perfbench_request("boundary-clutching")
    assert subcommand == "boundary"
    request = tmp_path / "request0.json"
    request.write_text(json.dumps(doc))
    return [("quotient_clutching.json", spec_path("quotient_clutching.json")),
            ("boundary-clutching request 0", str(request))]


def assert_every_product_caught(probe, label, argv, path, report):
    """Corrupt each product of one CLI run in turn; every corrupted run must
    exit 1, or 2 for a product made while the spec is parsed."""
    with open(path, "rb") as fh:
        data = fh.read()
    at_parse = probe.count(lambda: SpecDocument.from_bytes(data))
    total = probe.count(lambda: run(argv, report))
    assert run(argv, report)[0] == 0, label
    silent, codes = [], []
    for k in range(total):
        probe.fault, probe.calls = k, 0
        code, _ = run(argv, report)
        codes.append(code)
        if not (code == 1 or (code == 2 and k < at_parse)):
            silent.append((k, code))
    assert not silent, f"{label}: faults not caught (product, exit): {silent}"
    assert codes.count(2) == at_parse, label


def test_every_boundary_product_is_load_bearing(tmp_path, probe):
    for label, path in _boundary_cases(tmp_path):
        argv = ["boundary", "--spec", path]
        assert_every_product_caught(probe, label, argv, path, tmp_path / "report")


def test_every_exactness_and_verify_product_is_load_bearing(tmp_path, probe):
    # Every product of each run is corrupted, so every call site is hit; one
    # sample keeps the bundled specs' sweeps short.
    # verify-propagation request 0 sweeps the propagation kernel's verify path.
    cover, trivial = spec_path("propagation_cover.json"), spec_path("trivial_q.json")
    cases = [
        ("propagation_cover.json", ["exactness", "--spec", cover, "--samples", "1"], cover),
        ("trivial_q.json", ["verify", "--spec", trivial, "--samples", "1"], trivial),
    ]
    for workload, want in (("exactness-clutching", "exactness"),
                           ("verify-propagation", "verify")):
        subcommand, doc = perfbench_request(workload)
        assert subcommand == want
        request = tmp_path / f"{workload}.json"
        request.write_text(json.dumps(doc))
        cases.append((f"{workload} request 0", [subcommand, "--spec", str(request)],
                      str(request)))
    for label, argv, path in cases:
        assert_every_product_caught(probe, label, argv, path, tmp_path / "report")


def force_checks(monkeypatch):
    """Make every IdempotentCert, InvertibleCert and DoubleMatrix call its
    own verify() as soon as it is built."""

    def force(cls):
        inner = cls.__init__

        def init(self, *args):
            inner(self, *args)
            self.verify()

        monkeypatch.setattr(cls, "__init__", init)

    for cls in (matrices.IdempotentCert, matrices.InvertibleCert, mv.DoubleMatrix):
        force(cls)


def _audit_cases(tmp_path):
    cases = []
    for name in ("trivial_q.json", "quotient_clutching.json", "propagation_cover.json"):
        path = spec_path(name)
        with open(path, encoding="utf-8") as fh:
            command = json.load(fh)["command"]["name"]
        cases.append([command, "--spec", path])
    for workload in ("verify-trivial", "verify-propagation", "exactness-clutching",
                     "boundary-clutching"):
        subcommand, doc = perfbench_request(workload)
        request = tmp_path / f"{workload}.json"
        request.write_text(json.dumps(doc))
        cases.append([subcommand, "--spec", str(request)])
    return cases


def test_forced_checks_leave_reports_unchanged(tmp_path, monkeypatch, probe):
    report = tmp_path / "report"
    cases = _audit_cases(tmp_path)

    def digests():
        runs = [run(argv, report) for argv in cases]
        return [(code, hashlib.sha256(data).hexdigest()) for code, data in runs]

    plain = []
    plain_products = probe.count(lambda: plain.extend(digests()))
    assert [code for code, _ in plain] == [0] * len(cases)
    force_checks(monkeypatch)
    forced = []
    forced_products = probe.count(lambda: forced.extend(digests()))
    assert forced == plain
    # The forced run really verified more: what it verified costs products.
    assert forced_products > plain_products


# Criterion 1 is the timed identity suite; its budget is for the plain mode.
ACCEPTANCE_CRITERIA = sorted(
    name for name in vars(acceptance)
    if name.startswith("test_criterion_") and not name.startswith("test_criterion_1_")
)


@pytest.mark.parametrize("name", ACCEPTANCE_CRITERIA)
def test_acceptance_criterion_under_forced_checks(name, monkeypatch, request):
    criterion = getattr(acceptance, name)
    force_checks(monkeypatch)
    criterion(*[request.getfixturevalue(arg) for arg in inspect.signature(criterion).parameters])


# Products of one `boundary` run of the bundled clutching spec, parse
# included: two for the spec's claimed inverse of U, then the construction,
# its report checks and both lift-independence checks.  Each lift check
# compares one claim (L~ = conj L, or the delta blocks, which take H(AB)
# once) and spends no product on what that claim and the verified L, L~
# imply: the conjugator's inverse, P~ = conj P conj^-1, the fixed e2 leg.
BOUNDARY_PRODUCTS = 51


def test_boundary_product_count(tmp_path, probe):
    argv = ["boundary", "--spec", spec_path("quotient_clutching.json")]
    assert probe.count(lambda: run(argv, tmp_path / "report")) == BOUNDARY_PRODUCTS


# Products of one `exactness` run of request 0 of the exactness-clutching
# benchmark workload: all six segments, with the Whitehead lift in closed
# form, the kernel-boundary witness written down, every block swap of the
# recipes a rearrangement, and the gluing's conjugacy checked only by the
# glued double's verify().  No segment recomputes a claim that an earlier
# line or the construction implies: k0_middle's composite conjugation and
# leg recoveries, kernel_boundary's leg-2 normal form, kernel_i's
# conjugated leg 1, and kernel_i's conjugation back to p~, which only
# verifies its conjugator.
EXACTNESS_PRODUCTS = 128


def test_exactness_product_count(tmp_path, probe):
    subcommand, doc = perfbench_request("exactness-clutching")
    request = tmp_path / "request0.json"
    request.write_text(json.dumps(doc))
    argv = [subcommand, "--spec", str(request)]
    assert probe.count(lambda: run(argv, tmp_path / "report")) == EXACTNESS_PRODUCTS


# Module-level src names that nothing live in src reads, each with its reason.
SURFACE_ALLOWLIST = {
    "instances.suite_algebras": "fixture for tests/ and benchmarks/bench_scalars.py",
    "instances.trivial_diagram": "fixture for tests/ and benchmarks/bench_scalars.py",
    "instances.clutching_diagram": "fixture for tests/ and benchmarks/bench_scalars.py",
    "instances.cover_diagram": "fixture for tests/ and benchmarks/bench_scalars.py",
    "mv.lift_o_element": "acceptance criterion 7 (dyadic lift)",
}


def _loads(node):
    """Every name ``node`` loads as a Name or an Attribute; an import alias
    is not a read."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def src_surface(sources):
    """For {module: source text}: the module-level functions, classes and
    assigned names as {"module.name": names the definition loads} (dunders
    excepted), and the names loaded by module-level statements that define
    nothing."""
    defined, roots = {}, set()
    for stem, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            names = [n for n in names if not (n.startswith("__") and n.endswith("__"))]
            if names:
                defined.update((f"{stem}.{name}", _loads(node)) for name in names)
            else:
                roots |= _loads(node)
    return defined, roots


def unread(defined, roots, allow):
    """The defined names that are not live.  A definition is live when it is
    ``main``, is in ``allow``, or is loaded by a live definition or a root."""
    live, read, grew = set(), set(roots), True
    while grew:
        grew = False
        for qual, loads in defined.items():
            name = qual.split(".", 1)[1]
            if qual not in live and (name == "main" or qual in allow or name in read):
                live.add(qual)
                read |= loads
                grew = True
    return [qual for qual in defined if qual not in live]


def src_sources():
    src = Path(matrices.__file__).resolve().parent
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(src.glob("*.py"))}


def test_every_src_name_is_read_in_src():
    dead = unread(*src_surface(src_sources()), SURFACE_ALLOWLIST)
    assert not dead, f"src names nothing live in src reads (move to tests or delete): {dead}"


def test_surface_allowlist_is_current():
    defined, roots = src_surface(src_sources())
    allow = set(SURFACE_ALLOWLIST)
    stale = [qual for qual in allow
             if qual not in defined or qual not in unread(defined, roots, allow - {qual})]
    assert not stale, f"allowlisted names now read by live src, or gone: {stale}"


def test_surface_guard_follows_live_reads_only():
    # f calls g, but nothing live reaches f; h is only imported; main and
    # the module-level print keep k and LIMIT live.
    a = textwrap.dedent("""
        def f():
            return g()

        def g():
            return 1

        def h():
            return 2

        def k():
            return 3

        def main():
            return k()
    """)
    b = "from .a import h\n\nLIMIT = 4\nprint(LIMIT)\n"
    defined, roots = src_surface({"a": a, "b": b})
    assert sorted(unread(defined, roots, ())) == ["a.f", "a.g", "a.h"]
    assert unread(defined, roots, ("a.f",)) == ["a.h"]


def unused_imports(sources):
    """For {module: source text}: "module.name" for each name a module
    imports but never loads; a name in its ``__all__`` counts as loaded."""
    unused = []
    for stem, text in sources.items():
        tree = ast.parse(text)
        imported, loaded = [], set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names if a.name != "*"]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                loaded |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
        unused += [f"{stem}.{name}" for name in imported if name not in loaded]
    return unused


def test_every_src_import_is_loaded():
    stale = unused_imports(src_sources())
    assert not stale, f"src imports that their module never loads (delete them): {stale}"


def test_import_guard_counts_loads_and_all():
    text = textwrap.dedent("""
        from __future__ import annotations

        import os
        import os.path as osp
        import json
        from collections import namedtuple, OrderedDict as OD
        from .a import exported

        __all__ = ["exported"]

        def f():
            return json.dumps(OD())
    """)
    assert unused_imports({"m": text}) == ["m.os", "m.osp", "m.namedtuple"]
