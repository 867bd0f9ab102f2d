"""Guards on the checker itself rather than on the mathematics.

- Fault injection: every product the ``boundary``, ``exactness`` and
  ``verify`` commands compute is load bearing.  A wrapper around
  ``FilteredMatrix.__matmul__`` adds the all-ones matrix to the k-th
  product, for every k, and the run must then fail (exit 1).  A product
  made while the spec is parsed belongs to a claimed certificate of the
  spec itself, so a fault there may exit 2 instead.  ``boundary`` and
  ``exactness`` runs are swept a second time with a fault that dies in the
  overlap ring: (x^2 - 1) times all-ones on a Q[x] product, a diagonal
  kernel off the overlap on a restriction leg's product.  Such a fault may
  leave another valid witness (the Whitehead lift's and L's corner
  products vanish off the cover's overlap, and any value there gives
  another invertible lift), so its run may also pass with the clean run's
  report bytes.
- Every check can fail first: the same sweeps record each named line that
  the clean runs print, and the first failing line of each report in the
  faulted runs.  A line that never fails first is implied by the lines
  before it or by the construction, so it must go, or be listed in
  ``CHECK_ALLOWLIST`` with one reason.
- Shortcut audit: building a certificate or a double matrix checks nothing,
  and only an explicit ``verify()`` checks its claim.  Calling ``verify()``
  on every one as soon as it is built must leave each report byte for byte
  as it was, so every certificate left unverified carries a claim that holds.
  Acceptance criteria 2-8 must pass in the same forced mode.
- Product count: one ``boundary`` run of the bundled clutching spec and one
  ``exactness`` run of the exactness-clutching benchmark's request 0 each
  make an exact number of products, so a repeated product cannot creep back.
- Slot reads: the hot paths read and build a rational through Fraction's
  two slots.  Over request 0 of each benchmark workload, no function of
  fractions.py runs while a product kernel, the Q row operation's map, the
  Q negation, matrix or kernel equality or negation, kernel arithmetic,
  the propagation unit inverse, the build of a propagation algebra, a
  Poly's build, monic test, sum and difference, a quotient inverse, the
  description of a quotient algebra or the sampler's invertible draws is
  on the stack.  A whole verify-propagation, exactness-clutching or
  boundary-clutching request, from argv to report, makes no call into
  fractions.py at all.  The counts are pinned at 0, so they hold on every
  Python version.
- Surface: every module-level name of ``src/kcert`` is read by live code in
  ``src/kcert``, save an allowlist with one reason per name, so a helper that
  only tests (or only other dead helpers) call lives in the tests.  Live code
  is ``main``, the allowlist, module-level statements that define nothing,
  and whatever live code loads, as a fixpoint.  Class members (methods,
  properties and namedtuple fields, dunders excepted) are scanned by name
  too: a member is live when its class is and live code loads its name.
  Every name a module of
  ``src/kcert`` imports is loaded in that module or listed in its
  ``__all__``, so a deletion cannot leave a stale import behind.
- Liveness, by line: the surface guard matches names, so a member that
  shares its name with a live one passes it.  Under a ``sys.settrace``
  line tracer, in-process CLI runs over every carrier and hom kind, runs
  with a corrupted witness or perturbation that must fail, and every row of
  the rejection tables in ``tests/test_cli.py`` must run every code line in
  the body of every named src function and method, dunders included.  A
  line none of them runs is deleted, or listed in ``LINE_ALLOWLIST`` with
  one reason that names the tier-1 test that runs it: a check's failure
  exit that only a faulted product reaches, or a guard whose deletion could
  return a wrong value or hang.  Lines are the ``co_lines()`` of the
  compiled functions, each named through the AST by its code object's first
  line, which every Python version has.
"""

import ast
import fractions
import hashlib
import importlib.util
import inspect
import json
import sys
import textwrap
import types
from fractions import Fraction
from pathlib import Path

import pytest
import test_acceptance as acceptance
from carriers import clutching_diagram, spec_path
from test_cli import rejection_argv, rejection_rows

from kcert import algebras, cli, matrices, mv, scalars
from kcert.algebras import (
    Kernel,
    LocalizedAlgebra,
    PolyAlgebra,
    PropagationAlgebra,
    QuotientAlgebra,
    QuotientHom,
    TrivialAlgebra,
)
from kcert.cli import main
from kcert.drivers import boundary_report
from kcert.identities import Sampler
from kcert.kclasses import ExactnessReport
from kcert.matrices import FilteredMatrix, InvertibleCert
from kcert.scalars import Poly, rat
from kcert.specdoc import SpecDocument

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


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


def all_ones(algebra):
    return algebra.one()


def dies_mod_x2_minus_1(algebra):
    """x^2 - 1 on a Q[x] leg: every swept Q[x] diagram has the overlap
    Q[x]/(x^2 - 1)."""
    return Poly([-1, 0, 1]) if isinstance(algebra, PolyAlgebra) else None


def dies_off_cover_overlap(algebra):
    """The unit kernel at the first point outside propagation_cover.json's
    overlap {"2"}, which both restriction legs drop; none on the overlap."""
    outside = [i for i, point in enumerate(algebra.points) if point != "2"]
    return Kernel({(outside[0], outside[0]): rat(1)}) if outside else None


class ProductProbe:
    """Records the algebra of each ``FilteredMatrix.__matmul__`` call and,
    when ``fault`` is an index, adds ``fill(algebra)`` times the all-ones
    matrix to that product.  It also wraps ``ExactnessReport.add``: with no
    fault it records each named line as (segment of its report, name), and
    with a fault the first failing line of each report."""

    def __init__(self, monkeypatch):
        self.algebras = []
        self.fault, self.fill = None, all_ones
        self.lines, self.failed_first = set(), set()
        inner = FilteredMatrix.__matmul__

        def matmul(a, b):
            out = inner(a, b)
            if len(self.algebras) == self.fault:
                row = (self.fill(a.algebra),) * a.n
                out = out + FilteredMatrix._raw(a.algebra, (row,) * a.n)
            self.algebras.append(a.algebra)
            return out

        monkeypatch.setattr(FilteredMatrix, "__matmul__", matmul)
        add = ExactnessReport.add

        def record(report, name, ok, detail=None):
            if self.fault is None:
                self.lines.add((report.segment, name))
            elif not ok and report.passed:
                self.failed_first.add((report.segment, name))
            return add(report, name, ok, detail)

        monkeypatch.setattr(ExactnessReport, "add", record)

    def count(self, thunk):
        self.fault, self.algebras = None, []
        thunk()
        return len(self.algebras)


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


def assert_every_product_caught(probe, label, argv, path, report, fills=(all_ones,)):
    """Corrupt each product of one CLI run in turn, once per fill that has an
    entry for the product's algebra; every corrupted run must exit 1, or 2
    for a product made while the spec is parsed, or, for a fault that dies
    in the overlap ring, pass with the clean run's bytes.  The probe records
    the run's named lines and the first failing line of each faulted
    report."""
    with open(path, "rb") as fh:
        data = fh.read()
    at_parse = probe.count(lambda: SpecDocument.from_bytes(data))
    runs = []
    probe.count(lambda: runs.append(run(argv, report)))
    (clean,) = runs
    assert clean[0] == 0, label
    algebras = probe.algebras
    for fill in fills:
        probe.fill = fill
        faults = [k for k, algebra in enumerate(algebras) if fill(algebra) is not None]
        silent, codes = [], []
        for k in faults:
            probe.fault, probe.algebras = k, []
            outcome = run(argv, report)
            code = outcome[0]
            codes.append(code)
            caught = code == 1 or (code == 2 and k < at_parse)
            if not (caught or (fill is not all_ones and outcome == clean)):
                silent.append((k, code))
        probe.fault, probe.fill = None, all_ones
        assert not silent, f"{label}, {fill.__name__}: faults not caught (product, exit): {silent}"
        assert codes.count(2) == sum(k < at_parse for k in faults), label


# Named lines that no fault of the sweeps makes fail first, each with its
# reason, keyed as (segment of the report the line is added to, name).
CHECK_ALLOWLIST = {
    ("boundary", "double matrix constraint"):
        "implied by S0, S1 dying and, at m > 0, checked_lifts' commuting check; "
        "printed in every boundary report",
    ("kernel_boundary", "witness is a double invertible"):
        "only a wrong witness reaches it; the generator's witness legs are one matrix",
    ("kernel_i", "recovered block is the inverse-stabilized transition"):
        "only a wrong witness reaches it; the earlier lines pin phi's block "
        "(test_kclasses.py::test_kernel_i_fails_a_recovered_block_that_is_not_the_inverse)",
    ("kernel_boundary", "diagram has equal legs"):
        "a guard on the diagram, not on a product; goes when the recipe runs on unequal legs",
    ("kernel_i", "diagram has equal legs"):
        "a guard on the diagram, not on a product; goes when the recipe runs on unequal legs",
}


def assert_every_line_fails_first(probe):
    """Every line the probe's clean runs printed failed first in one of its
    faulted runs, unless CHECK_ALLOWLIST says why not; and no allowlisted
    line failed first."""
    never = probe.lines - probe.failed_first
    unlisted = sorted(never - set(CHECK_ALLOWLIST))
    assert not unlisted, f"lines that no fault makes fail first (delete or allowlist): {unlisted}"
    stale = sorted(probe.failed_first & set(CHECK_ALLOWLIST))
    assert not stale, f"allowlisted lines that now fail first: {stale}"


def test_every_boundary_product_is_load_bearing(tmp_path, probe):
    for label, path in _boundary_cases(tmp_path):
        argv = ["boundary", "--spec", path]
        assert_every_product_caught(probe, label, argv, path, tmp_path / "report",
                                    (all_ones, dies_mod_x2_minus_1))
    assert_every_line_fails_first(probe)


def _exactness_and_verify_cases(tmp_path):
    """(label, argv, spec path, fills) for the bundled cover and trivial
    specs, with one sample to keep their sweeps short, and request 0 of the
    exactness-clutching and verify-propagation benchmark workloads."""
    cover, trivial = spec_path("propagation_cover.json"), spec_path("trivial_q.json")
    cases = [
        ("propagation_cover.json", ["exactness", "--spec", cover, "--samples", "1"], cover,
         (all_ones, dies_off_cover_overlap)),
        ("trivial_q.json", ["verify", "--spec", trivial, "--samples", "1"], trivial,
         (all_ones,)),
    ]
    for workload, want, fills in (("exactness-clutching", "exactness",
                                   (all_ones, dies_mod_x2_minus_1)),
                                  ("verify-propagation", "verify", (all_ones,))):
        subcommand, doc = perfbench_request(workload)
        assert subcommand == want
        request = tmp_path / f"{workload}.json"
        request.write_text(json.dumps(doc))
        cases.append((f"{workload} request 0", [subcommand, "--spec", str(request)],
                      str(request), fills))
    return cases


def test_every_exactness_and_verify_product_is_load_bearing(tmp_path, probe):
    # Every product of each run is corrupted, so every call site is hit.
    # verify-propagation request 0 sweeps the propagation kernel's verify path.
    for label, argv, path, fills in _exactness_and_verify_cases(tmp_path):
        assert_every_product_caught(probe, label, argv, path, tmp_path / "report", fills)
    assert_every_line_fails_first(probe)


def test_check_allowlist_is_current(tmp_path, probe):
    # Each allowlisted line is still printed by a clean run of the sweeps;
    # the sweeps themselves fail on one that now fails first.
    argvs = [["boundary", "--spec", path] for _, path in _boundary_cases(tmp_path)]
    argvs += [argv for _, argv, _, _ in _exactness_and_verify_cases(tmp_path)]
    for argv in argvs:
        probe.count(lambda: run(argv, tmp_path / "report"))
    gone = sorted(set(CHECK_ALLOWLIST) - probe.lines)
    assert not gone, f"allowlisted lines no clean run prints: {gone}"


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
# included: one for the spec's claimed inverse of U, then the construction,
# its report checks and both lift-independence checks.  Each lift check
# compares one claim (L~ = conj L, or the delta blocks, which take H(AB)
# once) and spends no product on what that claim and the verified L, L~
# imply: the conjugator's inverse, P~ = conj P conj^-1, the fixed e2 leg.
# It builds L~ from its claim's own products, reading C = (1+S0)B off
# L^-1: S0~, S1~ and C~ are S0 - BK, S1 - KB and C - BKB in the A check,
# and S0 - HA, S1 - AH and C + 2H - H(AB) - sH with s = HA + BA in the B
# check.  49 before each equation was computed once: -1 for U's reverse
# product at parse and -3 for the reverse products of L and both L~ (an
# inverse certificate checks m m^-1 = 1 only), -12 for the closed form of
# P compared in each of those three builds, -2 for the two P~ that nothing
# read.  31 while each lift check rebuilt L~ from the shifted lifts:
# -3 for the A check's BA~, AB~ and (1+S0~)B, -3 for the B check's, its
# corner's one product sH being d12's, and -3 for the delta blocks
# factored through s (HA HA + BA HA is s HA, and HA H + BA H and
# BA H(AB) + HA H(AB) are sH and s H(AB)).
BOUNDARY_PRODUCTS = 22


def test_boundary_product_count(tmp_path, probe):
    argv = ["boundary", "--spec", spec_path("quotient_clutching.json")]
    assert probe.count(lambda: run(argv, tmp_path / "report")) == BOUNDARY_PRODUCTS


# Products of one boundary_report at m = 1 on the clutching diagram, with
# U = diag(2, x) and both lifts perturbed.  Only checked_lifts, on the
# base lifts, checks that U commutes with diag(0, 1) (2 products); each
# lift check builds L~ from its claim's own products, and checks neither
# that again nor the shifted lifts' images, which the perturbation's own
# check implies.  36 while each shifted pair of lifts was checked against
# U as well; 32 while each lift check rebuilt L~ from the shifted lifts,
# -3/-3/-3 as for BOUNDARY_PRODUCTS.
BOUNDARY_M1_PRODUCTS = 23


def test_extended_boundary_product_count(probe):
    diagram = clutching_diagram()
    lp, l1 = diagram.lambda_prime, diagram.lambda1
    x = Poly([0, 1])
    two, half, z = lp.from_rational(rat(2)), lp.from_rational(rat(1, 2)), lp.zero()
    u = InvertibleCert(FilteredMatrix(lp, ((two, z), (z, x))),
                       FilteredMatrix(lp, ((half, z), (z, x))))
    kill, z1 = Poly([-1, 0, 1]), l1.zero()
    k = FilteredMatrix(l1, ((kill, z1), (Poly([-2, 0, 2]), kill)))
    h = FilteredMatrix(l1, ((z1, kill), (kill, Poly([0, -1, 0, 1]))))
    reports = []
    count = probe.count(lambda: reports.append(
        boundary_report(diagram, u, m=1, perturb_a=k, perturb_b=h)))
    assert reports[0]["result"] == "pass" and len(reports[0]["checks"]) == 5
    assert count == BOUNDARY_M1_PRODUCTS


# Products of one `exactness` run of request 0 of the exactness-clutching
# benchmark workload: all six segments, with the Whitehead lift in closed
# form, the kernel-boundary witness written down, every block swap of the
# recipes a rearrangement, and the gluing's conjugacy checked only by the
# glued double's verify().  No segment recomputes a claim that an earlier
# line or the construction implies: k0_middle's composite conjugation and
# leg recoveries, kernel_boundary's leg-2 normal form, kernel_i's
# conjugated leg 1, and kernel_i's conjugation back to p~, which only
# verifies its conjugator.  128 before each equation was computed once:
# -15 in the three full boundary builds (i_after_boundary, kernel_boundary,
# kernel_i: the closed form's 4 products and L's reverse product each),
# -16 in boundary_zero and boundary_zero_oshape, which build S0 and S1
# only (8 products each), and -6 for the reverse products of W1, W2 and
# kernel_i's two double certificates.  91 while boundary_zero_oshape tested
# the O-shape with both products alpha alpha^-1 and alpha^-1 alpha, twice;
# o_blocks now verifies the halves once, one product.  88 while kernel_i
# checked that phi commutes with the scalar block twice, on its own line
# and again among the checks of the lifts v, v^-1, whose image phi is:
# -2 for that second phi e and e phi.
EXACTNESS_PRODUCTS = 86


def test_exactness_product_count(tmp_path, probe):
    subcommand, doc = perfbench_request("exactness-clutching")
    request = tmp_path / "request0.json"
    request.write_text(json.dumps(doc))
    argv = [subcommand, "--spec", str(request)]
    assert probe.count(lambda: run(argv, tmp_path / "report")) == EXACTNESS_PRODUCTS


def _fraction_codes():
    """{code object: name} of every function fractions.py defines: the
    module's functions, Fraction's methods, properties, class and static
    methods, and the functions nested in them, such as the ``forward`` and
    ``reverse`` of each arithmetic operator."""
    codes = {}

    def add(code):
        if code.co_filename == fractions.__file__ and code not in codes:
            codes[code] = code.co_name
            for const in code.co_consts:
                if isinstance(const, types.CodeType):
                    add(const)

    for obj in [*vars(fractions).values(), *vars(Fraction).values()]:
        for f in (obj, getattr(obj, "__func__", None), getattr(obj, "fget", None)):
            code = getattr(f, "__code__", None)
            if isinstance(code, types.CodeType):
                add(code)
    return codes


FRACTION_CALLS = _fraction_codes()


def slot_paths():
    """{code object: name} of the paths that read and build rationals by
    their slots.  The maps of the generic _add_multiple are not among them:
    they are the payloads' own x + y * a, and the Poly and Kernel sums and
    products beneath them are."""
    paths = {
        f.__code__: f.__qualname__ for f in (
            algebras._rational_product, algebras._kernel_product, algebras._poly_product,
            algebras._upper_unit_inverse,
            scalars.encode_rational, scalars._negated, TrivialAlgebra._rows_equal,
            Kernel.__init__, Kernel.__add__, Kernel.__mul__, Kernel.__neg__, Kernel.__eq__,
            PropagationAlgebra.__init__, PropagationAlgebra._level_of, PropagationAlgebra.describe,
            QuotientAlgebra.describe, QuotientHom.apply_payload, Poly.__init__, Poly.const,
            Poly.is_monic, Poly.__add__, Poly.__sub__, scalars._remainder,
            scalars._poly_of, scalars._quot_inverse,
            FilteredMatrix.__eq__, FilteredMatrix.__neg__, FilteredMatrix.first_mismatch,
            Sampler.invertible,
        )
    }
    for a in (rat(2), rat(0)):
        paths[TrivialAlgebra()._add_multiple(a).__code__] = "TrivialAlgebra._add_multiple map"
    return paths


def fraction_calls_on_slot_paths(thunk):
    """(calls, entered) for one call of thunk: calls counts each function of
    fractions.py called while a slot path is on the stack, by (innermost
    slot path, function); entered names the slot paths entered."""
    paths = slot_paths()
    calls, entered = {}, set()

    def hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code in paths:
            entered.add(paths[code])
        elif code in FRACTION_CALLS:
            caller = frame.f_back
            while caller is not None and caller.f_code not in paths:
                caller = caller.f_back
            if caller is not None:
                key = (paths[caller.f_code], FRACTION_CALLS[code])
                calls[key] = calls.get(key, 0) + 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        thunk()
    finally:
        sys.setprofile(previous)
    return calls, entered


def test_slot_paths_call_no_fraction_member(tmp_path):
    entered = set()
    for workload in ("verify-trivial", "verify-propagation", "exactness-clutching",
                     "boundary-clutching"):
        subcommand, doc = perfbench_request(workload)
        request = tmp_path / f"{workload}.json"
        request.write_text(json.dumps(doc))
        argv = [subcommand, "--spec", str(request)]
        codes = []
        calls, seen = fraction_calls_on_slot_paths(
            lambda: codes.append(run(argv, tmp_path / "report")[0]))
        assert codes == [0], workload
        assert calls == {}, f"{workload}: Fraction members called on slot paths: {calls}"
        entered |= seen
    # Every slot path ran, so the count of 0 is not vacuous.
    assert entered == set(slot_paths().values())


def test_slot_path_guard_counts_fraction_members():
    # Fraction arithmetic under a slot path is counted, by path and member;
    # the same arithmetic outside every slot path is not.
    a = FilteredMatrix(TrivialAlgebra(), ((rat(1, 2),),))
    b = FilteredMatrix(TrivialAlgebra(), ((rat(1, 3),),))
    calls, entered = fraction_calls_on_slot_paths(lambda: a.first_mismatch(b))
    assert calls[("FilteredMatrix.first_mismatch", "numerator")] > 0
    assert calls[("FilteredMatrix.first_mismatch", "forward")] == 1
    assert entered == {"FilteredMatrix.first_mismatch", "TrivialAlgebra._rows_equal"}
    calls, entered = fraction_calls_on_slot_paths(lambda: -rat(1, 2) == rat(1, 2))
    assert calls == {} and entered == set()
    # Every call beneath a slot path counts, however deep: Sampler.invertible
    # is generic over carriers, and beneath it the payloads' own sums and
    # products run, which are slot paths too on Q[x] and Q[x]/(m).
    for algebra in (PolyAlgebra(), QuotientAlgebra(Poly([-1, 0, 1])),
                    QuotientAlgebra(Poly([rat(1, 3), rat(-1, 2), 0, 1]))):
        calls, entered = fraction_calls_on_slot_paths(
            lambda: Sampler(1).invertible(algebra, 3, factors=4))
        assert calls == {}, f"{algebra.describe()}: {calls}"
        assert {"Sampler.invertible", "Poly.__add__"} <= entered

    # Over Q with the generic x + y * a, which is Fraction arithmetic and no
    # slot path, the sampler's draw is charged with each call beneath it.
    class GenericRowOperation(TrivialAlgebra):
        _add_multiple = LocalizedAlgebra._add_multiple

    calls, entered = fraction_calls_on_slot_paths(
        lambda: Sampler(1).invertible(GenericRowOperation(), 3, factors=4))
    assert calls[("Sampler.invertible", "forward")] > 0


def test_fraction_calls_cover_fractions_py():
    names = set(FRACTION_CALLS.values())
    assert {"forward", "reverse", "__new__", "__hash__", "__str__", "__eq__", "__lt__",
            "__neg__", "__bool__", "numerator", "denominator", "_richcmp"} <= names
    assert all(code.co_filename == fractions.__file__ for code in FRACTION_CALLS)


# Verify-trivial is not here: its request 0 makes 6 Fraction sums (42
# calls into fractions.py with the helpers they call), each the Q sum a + b
# of _elementary_additive, an identity's own side, which is Fraction
# arithmetic by design.
@pytest.mark.parametrize("workload", ["verify-propagation", "exactness-clutching",
                                      "boundary-clutching"])
def test_request_calls_no_fraction_function(tmp_path, workload):
    # From argv to report, request 0 of the workload reads and builds every
    # rational on Fraction's slots: no function of fractions.py runs.
    subcommand, doc = perfbench_request(workload)
    request = tmp_path / "request0.json"
    request.write_text(json.dumps(doc))
    argv = [subcommand, "--spec", str(request)]
    calls, codes = {}, []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in FRACTION_CALLS:
            name = FRACTION_CALLS[frame.f_code]
            calls[name] = calls.get(name, 0) + 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        codes.append(run(argv, tmp_path / "report")[0])
    finally:
        sys.setprofile(previous)
    assert codes == [0]
    assert calls == {}, f"calls into fractions.py: {calls}"


# Readers of Poly.coeffs, which decodes a polynomial's integer form into
# rationals, in request 0: on exactness-clutching only the diagram's
# description reads the modulus, and on boundary-clutching that and the
# encoders of the 30 Q[x] entries of its printed matrices.  No product,
# sum, reduction or comparison decodes.
COEFFS_READS = {
    "exactness-clutching": {"QuotientAlgebra.describe": 1},
    "boundary-clutching": {"QuotientAlgebra.describe": 1, "PolyAlgebra.encode_payload": 30},
}


@pytest.mark.parametrize("workload", sorted(COEFFS_READS))
def test_only_describe_and_encoders_decode_coeffs(tmp_path, workload):
    subcommand, doc = perfbench_request(workload)
    request = tmp_path / "request0.json"
    request.write_text(json.dumps(doc))
    argv = [subcommand, "--spec", str(request)]
    getter = Poly.coeffs.fget.__code__
    names = {f.__code__: f.__qualname__ for f in (
        QuotientAlgebra.describe, PolyAlgebra.encode_payload, QuotientAlgebra.encode_payload)}
    reads, codes = {}, []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is getter:
            caller = frame.f_back.f_code
            name = names.get(caller, caller.co_name)
            reads[name] = reads.get(name, 0) + 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        codes.append(run(argv, tmp_path / "report")[0])
    finally:
        sys.setprofile(previous)
    assert codes == [0]
    assert reads == COEFFS_READS[workload]


# Module-level src names and class members that nothing live in src reads,
# each with its reason.
SURFACE_ALLOWLIST = {
    "specdoc.SpecDocument.from_path":
        "read by perfbench/run.py:88, two rows of benchmarks/bench_scalars.py "
        "and tests/carriers.py",
    "algebras.LocalizedAlgebra.trivial": "read by perfbench/selftest.py:114",
}


def _loads(node):
    """Every name ``node`` loads as a Name or an Attribute; an import alias
    is not a read."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _namedtuple_fields(node):
    """The field names of ``X = namedtuple("X", [...])``, else ()."""
    call = node.value
    if not (isinstance(call, ast.Call) and "namedtuple" in _loads(call.func)
            and len(call.args) == 2):
        return ()
    return [c.value for c in ast.walk(call.args[1]) if isinstance(c, ast.Constant)]


def src_surface(sources):
    """For {module: source text}: the module-level functions, classes and
    assigned names as {"module.name": names the definition loads}, each
    class's methods, properties and namedtuple fields as
    {"module.Class.member": names the member loads} (dunders excepted), and
    the names loaded by module-level statements that define nothing.  A
    class loads what its body loads outside those members."""
    defined, roots = {}, set()
    for stem, text in sources.items():
        for node in ast.parse(text).body:
            members = {}
            if isinstance(node, ast.ClassDef):
                names = [node.name]
                methods = [m for m in node.body
                           if isinstance(m, ast.FunctionDef) and not _dunder(m.name)]
                members = {m.name: _loads(m) for m in methods}
                rest = [n for n in node.body if n not in methods]
                loads = set().union(*map(_loads, node.bases + node.decorator_list + rest))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names, loads = [node.name], _loads(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                loads = _loads(node)
                if isinstance(node, ast.Assign):
                    members = dict.fromkeys(_namedtuple_fields(node), set())
            else:
                names = []
            names = [n for n in names if not _dunder(n)]
            if names:
                defined.update((f"{stem}.{name}", loads) for name in names)
                defined.update((f"{stem}.{names[0]}.{member}", member_loads)
                               for member, member_loads in members.items())
            else:
                roots |= _loads(node)
    return defined, roots


def unread(defined, roots, allow):
    """The defined names that are not live, leaving out the members of a
    class that is itself not live.  A definition is live when it is
    ``main``, is in ``allow``, or is loaded by a live definition or a root;
    a member needs its class live as well."""
    live, read, grew = set(), set(roots), True
    while grew:
        grew = False
        for qual, loads in defined.items():
            owner, name = qual.rsplit(".", 1)
            if qual in live or ("." in owner and owner not in live):
                continue
            if name == "main" or qual in allow or name in read:
                live.add(qual)
                read |= loads
                grew = True
    return [qual for qual in defined if qual not in live
            and (qual.count(".") == 1 or qual.rsplit(".", 1)[0] in live)]


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


# A spec per carrier and hom kind, for the line audit.
_LINE = {"points": ["0", "1", "2", "3"], "radius_base": "4",
         "dist": [[str(abs(i - j)) for j in range(4)] for i in range(4)]}
_Q = {"kind": "trivial"}
_Q_X = {"kind": "quotient-pullback-leg"}
_Q_X_MOD = {"kind": "quotient-pullback-leg", "modulus": ["-1", "0", "1"]}


def _identity_legs(algebra):
    return {"lambda1": algebra, "lambda2": algebra, "lambda_prime": algebra,
            "j1": {"type": "identity"}, "j2": {"type": "identity"}}


LIVENESS_SPECS = {
    "verify-quotient": {"algebra": _Q_X_MOD, "command": {"name": "verify", "samples": 2}},
    "verify-poly": {"algebra": _Q_X, "command": {"name": "verify", "samples": 2}},
    "verify-kernels": {"algebra": {"kind": "propagation", **_LINE},
                       "command": {"name": "verify", "samples": 2}},
    "verify-functions": {"algebra": {"kind": "propagation", "diagonal": True, **_LINE},
                         "command": {"name": "verify", "samples": 2}},
    # x^3 - 1/2, whose integer form is 2 * m: each pseudo-division step
    # scales by 2.  Seed 2 also draws a product whose division meets a zero
    # coefficient, and a unit whose inverse has a lower degree than m - 1.
    "verify-quotient-scaled": {
        "algebra": {"kind": "quotient-pullback-leg", "modulus": ["-1/2", "0", "0", "1"]},
        "command": {"name": "verify", "samples": 2, "seed": 2}},
    # Point labels are any JSON scalars, and the report echoes them.
    "verify-labels": {
        "algebra": {"kind": "propagation", "points": ["0", 1, None], "radius_base": "2",
                    "dist": [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]]},
        "command": {"name": "verify", "samples": 1, "max_size": 1}},
    "boundary-trivial": {
        "diagram": _identity_legs(_Q),
        "matrices": {"U": {"algebra": "lambda_prime", "size": 1,
                           "entries": [["2"]], "inverse": [["1/2"]]}},
        "command": {"name": "boundary", "u": "U"}},
    # Identity legs on Q[x]/(x^2 - 1), so the report encodes its elements.
    "boundary-quotient": {
        "diagram": _identity_legs(_Q_X_MOD),
        "matrices": {"U": {"algebra": "lambda_prime", "size": 1,
                           "entries": [[["0", "1"]]], "inverse": [[["0", "1"]]]}},
        "command": {"name": "boundary", "u": "U"}},
    # Propagation matrices in a spec, at m = 1, over the cover's restriction legs.
    "boundary-cover": {
        "diagram": json.loads(Path(spec_path("propagation_cover.json")).read_text())["diagram"],
        "matrices": {"U": {"algebra": "lambda_prime", "size": 2,
                           "entries": [[[["2", "2", "2"]], []], [[], [["2", "2", "1"]]]],
                           "inverse": [[[["2", "2", "1/2"]], []], [[], [["2", "2", "1"]]]]}},
        "command": {"name": "boundary", "u": "U", "m": 1}},
    # A scalar-inclusion leg: j2 maps Q into Q[x]/(x^2 - 1).
    "boundary-inclusion": {
        "diagram": {"lambda1": _Q_X, "lambda2": _Q, "lambda_prime": _Q_X_MOD,
                    "j1": {"type": "quotient"}, "j2": {"type": "scalar-inclusion"}},
        "matrices": {"U": {"algebra": "lambda_prime", "size": 1,
                           "entries": [[["0", "1"]]], "inverse": [[["0", "1"]]]}},
        "command": {"name": "boundary", "u": "U"}},
}
# A scalar-inclusion leg into each other carrier, through which a command
# builds that carrier's scalars: j2 maps Q into lambda_prime = lambda1,
# with the identity j1, and U = 2 with inverse 1/2.
for _kind, _carrier, _scalar in (
        ("trivial", _Q, lambda v: v),
        ("poly", _Q_X, lambda v: [v]),
        ("kernels", {"kind": "propagation", **_LINE},
         lambda v: [[p, p, v] for p in _LINE["points"]])):
    LIVENESS_SPECS[f"boundary-inclusion-{_kind}"] = {
        "diagram": {"lambda1": _carrier, "lambda2": _Q, "lambda_prime": _carrier,
                    "j1": {"type": "identity"}, "j2": {"type": "scalar-inclusion"}},
        "matrices": {"U": {"algebra": "lambda_prime", "size": 1,
                           "entries": [[_scalar("2")]], "inverse": [[_scalar("1/2")]]}},
        "command": {"name": "boundary", "u": "U"}}


def _corrupt_exactness(diagram):
    return {"diagram": diagram,
            "command": {"name": "exactness", "samples": 1, "corrupt_witness": True}}


def _surviving_perturbations():
    """The clutching boundary with K = H = 1, which survive in the overlap."""
    doc = json.loads(Path(spec_path("quotient_clutching.json")).read_text())
    for name in ("K", "H"):
        doc["matrices"][name]["entries"] = [[["1"]]]
    return doc


# Runs that must fail (exit 1): a corrupted kernel-boundary witness over
# each carrier with equal legs, whose residuals print its payloads, and
# perturbations that survive in the overlap ring, which fail their checks.
CORRUPT_SPECS = {
    "exactness-trivial": _corrupt_exactness(_identity_legs(_Q)),
    "exactness-poly": _corrupt_exactness(
        json.loads(Path(spec_path("quotient_clutching.json")).read_text())["diagram"]),
    "exactness-quotient": _corrupt_exactness(_identity_legs(_Q_X_MOD)),
    "exactness-kernels": _corrupt_exactness(_identity_legs({"kind": "propagation", **_LINE})),
    "boundary-surviving": _surviving_perturbations(),
}


def liveness_argvs(tmp_path):
    """CLI runs over every carrier and hom kind, in both report formats."""
    argvs = [["verify", "--spec", spec_path("trivial_q.json"), "--samples", "2"],
             ["boundary", "--spec", spec_path("quotient_clutching.json")],
             ["exactness", "--spec", spec_path("quotient_clutching.json"), "--samples", "1"],
             ["exactness", "--spec", spec_path("propagation_cover.json"), "--samples", "1"]]
    for name, doc in LIVENESS_SPECS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        argvs.append([doc["command"]["name"], "--spec", str(path)])
    return [argv + ["--format", fmt, "--report", str(tmp_path / "report")]
            for argv in argvs for fmt in ("text", "json")]


def audit_runs(tmp_path):
    """(argv, exit code) of every run of the line audit: the liveness runs
    (exit 0), the corrupt runs in both formats with the report on stdout
    (exit 1) and every row of tests/test_cli.py's rejection tables (exit 2)."""
    runs = [(argv, 0) for argv in liveness_argvs(tmp_path)]
    for name, doc in CORRUPT_SPECS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        runs += [([doc["command"]["name"], "--spec", str(path), "--format", fmt], 1)
                 for fmt in ("text", "json")]
    rejected = tmp_path / "rejected"
    rejected.mkdir()
    for k, (command, doc) in enumerate(rejection_rows()):
        runs.append((rejection_argv(rejected, command, doc, f"{k}.json"), 2))
    return runs


def src_lines(sources):
    """For {module: source text}: {(module, line): "module.Qual.name"} for
    every code line in the body of every named function and method, nested
    ones and dunders included.  The lines are the ``co_lines()`` of the
    compiled functions, less the def and decorator lines; a line of a lambda
    or a comprehension belongs to the named function around it, since
    Python 3.12 inlines comprehensions.  Each code object is named through
    the AST by its first line, the first decorator's for a decorated
    definition, which every Python version has (``co_qualname`` is 3.11+)."""
    found = {}

    def code_lines(code):
        lines = {line for _, _, line in code.co_lines() if line is not None}
        for const in code.co_consts:
            if inspect.iscode(const) and const.co_name.startswith("<"):
                lines |= code_lines(const)
        return lines

    for stem, text in sources.items():
        spans = {}

        def visit(prefix, body):
            for node in body:
                if isinstance(node, ast.ClassDef):
                    visit(f"{prefix}{node.name}.", node.body)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    name = f"{stem}.{prefix}{node.name}"
                    spans[first] = (name, node.body[0].lineno, node.end_lineno)
                    visit(f"{prefix}{node.name}.", node.body)
                else:
                    for field in ("body", "orelse", "finalbody", "handlers"):
                        visit(prefix, getattr(node, field, ()))

        visit("", ast.parse(text).body)
        codes = [compile(text, stem, "exec")]
        while codes:
            code = codes.pop()
            codes += [c for c in code.co_consts if inspect.iscode(c)]
            # A class body is a code object too, without fresh locals.
            if code.co_name.startswith("<") or not code.co_flags & inspect.CO_NEWLOCALS:
                continue
            name, first, last = spans[code.co_firstlineno]
            found.update(((stem, line), name) for line in code_lines(code)
                         if first <= line <= last)
    return found


def ran_lines(argvs):
    """{(module, line)} of every src line that the in-process CLI runs of
    ``argvs`` run, under a ``sys.settrace`` line tracer, with the exit code
    of each run."""
    src = Path(matrices.__file__).resolve().parent
    stems, ran, codes = {}, set(), []

    def stem_of(filename):
        if filename not in stems:
            path = Path(filename).resolve()
            stems[filename] = path.stem if path.parent == src else None
        return stems[filename]

    def hook(frame, event, arg):
        stem = stem_of(frame.f_code.co_filename)
        if stem is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                ran.add((stem, frame.f_lineno))
            return line

        return line

    # The parser is built once per process; build it under the tracer.
    cli._parser.cache_clear()
    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        for argv in argvs:
            codes.append(main(argv))
    finally:
        sys.settrace(previous)
    return ran, codes


def unrun_lines(sources, ran):
    """{function: {stripped text of each of its lines that did not run}}."""
    texts = {stem: text.splitlines() for stem, text in sources.items()}
    unrun = {}
    for (stem, line), name in src_lines(sources).items():
        if (stem, line) not in ran:
            unrun.setdefault(name, set()).add(texts[stem][line - 1].strip())
    return unrun


# Src lines that no run of the line audit runs, by function: the stripped
# text of each such line, and one reason that names the tier-1 test that
# runs them.  A failure exit that only a faulted product reaches is run by
# the fault sweeps above; a guard stays where deleting it could return a
# wrong value or hang.
_FAULT_SWEEP = "test_guards.py::test_every_exactness_and_verify_product_is_load_bearing"
_VERIFY_FAILS = "test_cli.py::test_verify_fails_every_identity_whose_product_drops_its_level"
_RETURN = "return None, report"
LINE_ALLOWLIST = {
    "algebras.Kernel.__eq__": (
        ("return False",),
        "no command compares two unequal kernels: kernel_i's recovered-block line compares "
        "kernels and fails only on a wrong block, and without it unequal kernels would be "
        "equal (test_algebras.py::test_kernel_equality_reads_every_key_and_value)"),
    "algebras.LocalizedAlgebra.trivial": (
        ("return TrivialAlgebra(max_level)",),
        "perfbench/selftest.py builds its algebra here "
        "(test_algebras.py::test_trivial_algebra_constructor)"),
    "algebras.PropagationAlgebra.accepts": (
        ("return False",),
        "elementary's membership check; a kernel off the space would read as another "
        "point pair in a product (test_algebras.py::test_propagation_membership)"),
    "algebras.QuotientAlgebra._random_unit": (
        ("return self.one(), self.one()",),
        "the unit after 64 draws that are all non-units, which no command's seed meets "
        "(test_algebras.py::test_quotient_unit_draw_falls_back_to_one)"),
    "boundary.verified_l": (
        ("bad = img.first_mismatch(FilteredMatrix.zeros(diagram.lambda_prime, s.n))",
         'raise CertificateFailure(f"{tag} does not die in the overlap ring", *bad)'),
        "checked lifts make S0 and S1 die unless a product is faulted "
        "(test_guards.py::test_every_boundary_product_is_load_bearing)"),
    "cli._render_text": (
        ('lines.append(f"  failure: {failure}")',),
        f"a verify failure needs a faulted product ({_VERIFY_FAILS})"),
    "cli._json_text": (
        ('return "{}"', 'raise TypeError(f"a report holds no {type(value).__name__}")'),
        "no report holds an empty object, which must print as json.dumps prints it "
        "(test_cli.py::test_report_writer_matches_json_dumps); the raise refuses a type "
        "no report holds (::test_report_writer_refuses_what_no_report_holds)"),
    "drivers.verify_report": (
        ('entry["failures"] = [str(f) for f in report.failures]',),
        f"a verify failure needs a faulted product ({_VERIFY_FAILS})"),
    "drivers.exactness_report": (
        ("except CertificateFailure as exc:", "seg_ok = False", 'entry["checks"] = [',
         '{"name": "witness construction", "ok": False, "residual": str(exc)}',
         'entry["failing_sample"] = idx', "break"),
        f"a generator's own certificate fails only under a faulted product ({_FAULT_SWEEP})"),
    "identities.IdentityReport.record": (
        ("self.failed += 1", "if self.failed <= KEPT_FAILURES:",
         "self.failures.append(detail)"),
        f"a verify failure needs a faulted product ({_VERIFY_FAILS})"),
    "identities.Sampler.__init__.below": (
        ('raise ValueError(f"empty range for a draw below {n}")',),
        "below(0) would draw forever "
        "(test_identities.py::test_below_matches_randrange_draw_by_draw)"),
    "identities.judge": (
        ("position, residual = built.first_mismatch(expected)",
         'return False, f"mismatch at {position}, residual {residual}", slack',
         'return False, f"level {built.level} below the bound {bound}", slack'),
        "a verify failure needs a faulted product "
        "(test_cli.py::test_verify_prints_quotient_residuals, "
        "test_identities.py::test_judge_fails_a_level_below_the_bound)"),
    "identities._on_invertibles": (
        ("def driver(algebra, sampler, max_n):", "return driver"),
        "runs at import, when identities.py builds IDENTITY_DRIVERS "
        "(test_identities.py imports it)"),
    "kclasses.exactness_k0_middle": (
        (_RETURN,),
        "failure exits of the witness and padding lines "
        "(test_kclasses.py::test_k0_middle_bad_witness_is_named_and_never_glued, "
        "::test_k0_middle_bad_padding_is_named_and_never_glued)"),
    "kclasses.exactness_boundary_zero_oshape": (
        ("except CertificateFailure:", 'report.add("input is O-shaped", False, "not O-shaped")',
         "return report"),
        f"the generator's input is O-shaped; its halves fail only under a faulted product "
        f"({_FAULT_SWEEP})"),
    "kclasses.exactness_kernel_boundary": (
        ('report.add("diagram has equal legs", False, "recipe assumes equal legs")', _RETURN,
         "except CertificateFailure as exc:",
         'report.add("witness is a double invertible", False, exc)'),
        "the driver skips unequal legs, where the recipe would read a witness it cannot "
        "check (test_kclasses.py::test_kernel_boundary_needs_same_legs); a wrong witness "
        "fails (::test_kernel_boundary_rejects_disagreeing_witness_legs, and "
        f"{_FAULT_SWEEP})"),
    "kclasses.exactness_kernel_i": (
        ('report.add("diagram has equal legs", False, "recipe assumes equal legs")', _RETURN,
         "except CertificateFailure as exc:", "mismatch = str(exc)"),
        "the driver skips unequal legs, where the recipe would read a witness it cannot "
        "check (test_kclasses.py::test_kernel_i_needs_same_legs); a wrong witness fails "
        f"(::test_unstabilizing_residual, and {_FAULT_SWEEP})"),
    "matrices.FilteredMatrix.__init__": (
        ('raise MatrixError("matrix must be square")',),
        "a short row would read as zeros "
        "(test_matrices.py::test_records_check_their_shapes)"),
    "matrices.FilteredMatrix._same": (
        ('raise MatrixError("matrix expected")', 'raise MatrixError("algebra mismatch")',
         'raise MatrixError(f"size mismatch {self.n} vs {other.n}")'),
        "entrywise operations would truncate to the shorter matrix or mix carriers, and "
        "perfbench/selftest.py expects the first (test_matrices.py::"
        "test_records_check_their_shapes, ::test_size_and_algebra_mismatch)"),
    "matrices.FilteredMatrix.__eq__": (
        ("return False",),
        "rows of another size or carrier would compare on a prefix "
        "(test_algebras.py::test_one_changed_component_gives_unequal_algebras)"),
    "matrices.FilteredMatrix.direct_sum": (
        ('raise MatrixError("algebra mismatch")',),
        "a sum would mix carriers "
        "(test_algebras.py::test_one_changed_component_gives_unequal_algebras)"),
    "matrices.FilteredMatrix.sub_block": (
        ('raise MatrixError("matrix must be square")',),
        "a block that is not square (test_matrices.py::test_sub_block_must_be_square)"),
    "matrices.block2": (
        ('raise MatrixError("blocks must share one size")',),
        "short rows would read as zeros (test_matrices.py::test_records_check_their_shapes)"),
    "matrices.InvertibleCert.__init__": (
        ('raise MatrixError("certificate factors mismatch")',),
        "an unverified record of two sizes or carriers "
        "(test_matrices.py::test_records_check_their_shapes)"),
    "matrices.elementary": (
        ('raise MatrixError("elementary matrix needs off-diagonal position")',
         'raise MatrixError("entry not in the algebra")'),
        "a diagonal position is no elementary matrix, and a foreign entry would read as "
        "another payload (test_matrices.py::test_elementary_laws)"),
    "matrices.o_blocks": (
        ('raise CertificateFailure("certificate is not O-shaped")',),
        "without it a matrix that is not O-shaped returns None "
        "(test_kclasses.py::test_o_absorb_rejects_non_o_shape)"),
    "matrices.apply_hom_matrix": (
        ('raise MatrixError("matrix not over the hom\'s source algebra")',),
        "a foreign matrix's payloads would be labelled with the target algebra "
        "(test_matrices.py::test_section_matrix_roundtrip)"),
    "matrices.section_matrix": (
        ('raise MatrixError("matrix not over the hom\'s target algebra")',),
        "a foreign matrix's payloads would be labelled with the source algebra "
        "(test_matrices.py::test_section_matrix_roundtrip)"),
    "mv.DoubleMatrix.__init__": (
        ('raise MatrixError("double matrix legs over the wrong algebras")',
         'raise MatrixError("double matrix legs must share the size")'),
        "an unverified double would read its legs as another pair "
        "(test_mv.py::test_double_matrix_checks_its_legs)"),
    "mv.DoubleMatrix._same": (
        ('raise MatrixError("double matrices over different diagrams")',),
        "legwise operations would mix diagrams "
        "(test_mv.py::test_double_matrices_over_another_diagram_are_refused)"),
    "mv.DoubleMatrix.first_mismatch": (
        ("return (leg, bad[0]), bad[1]",),
        "a double certificate fails only under a faulted product "
        "(test_boundary.py::test_failure_names_first_differing_entry, and "
        f"{_FAULT_SWEEP})"),
    "mv.lift_via_whitehead": (
        ('raise ValueError("lifting requires a surjective leg")',),
        "the one check of a lift's leg, which gluing relies on; every command's legs have "
        "sections (test_mv.py::test_lifting_needs_a_surjective_leg)"),
    "scalars.rat": (
        ("return Rat(value, den)", "return Rat(value)"),
        "commands pass rationals; the sampler's table is built at import, and the tests "
        "build their rationals here (test_scalars.py::test_rational_arith_examples)"),
    "scalars.Poly.__str__": (
        ("if not self.coeffs:", 'return "0"', "parts = []",
         "for i, c in enumerate(self.coeffs):", "if not c:", "continue", "if i == 0:",
         "parts.append(str(c))", "elif i == 1:",
         'parts.append(f"{c}*x" if c != R1 else "x")',
         'parts.append(f"{c}*x^{i}" if c != R1 else f"x^{i}")', 'return " + ".join(parts)'),
        "a residual's text, printed when a verify sample fails "
        "(test_cli.py::test_verify_prints_quotient_residuals)"),
    "specdoc.SpecDocument.from_bytes": (
        ('raise SpecError("spec is nested too deeply") from exc',),
        "a reader that recurses too deep; which nesting the parser passes and the reader "
        "does not differs by Python version (test_cli.py::test_reader_recursion_is_spec_error)"),
    "specdoc.SpecDocument.from_path": (
        ("return cls.from_bytes(read_spec(path))",),
        "read by perfbench/run.py and tests/carriers.py "
        "(test_mv.py::test_double_matrices_over_another_diagram_are_refused)"),
}


def test_every_src_line_runs_under_a_command(tmp_path, capsys):
    runs = audit_runs(tmp_path)
    ran, codes = ran_lines([argv for argv, _ in runs])
    capsys.readouterr()
    assert codes == [code for _, code in runs]
    unrun = unrun_lines(src_sources(), ran)
    allowed = {name: set(lines) for name, (lines, _) in LINE_ALLOWLIST.items()}
    dead = {name: sorted(lines - allowed.get(name, set())) for name, lines in unrun.items()}
    dead = {name: lines for name, lines in sorted(dead.items()) if lines}
    assert not dead, f"src lines no command runs (delete, or allowlist with a test): {dead}"
    stale = {name: sorted(lines - unrun.get(name, set())) for name, lines in allowed.items()}
    stale = {name: lines for name, lines in sorted(stale.items()) if lines}
    assert not stale, f"allowlisted lines that now run, or are gone: {stale}"


def test_line_audit_names_each_body_line():
    # A decorated method's lines start below its def, and a dunder counts.
    # A nested function owns its body, while its def line belongs to the
    # function around it, as do a lambda's and a comprehension's lines.
    # Each line of a multi-line raise that holds code counts.
    text = textwrap.dedent("""
        class C:
            @property
            def size(self):
                return 2

            def __len__(self):
                return 2

        def outer(xs):
            def inner():
                return 1
            ys = [x for x in xs
                  if x]
            return inner() + (lambda: 1)() + len(ys)

        def bad(flag):
            if flag:
                raise ValueError(
                    "no"
                )
            return flag
    """)
    assert src_lines({"a": text}) == {
        ("a", 5): "a.C.size", ("a", 8): "a.C.__len__",
        ("a", 11): "a.outer", ("a", 12): "a.outer.inner", ("a", 13): "a.outer",
        ("a", 14): "a.outer", ("a", 15): "a.outer",
        ("a", 18): "a.bad", ("a", 19): "a.bad", ("a", 20): "a.bad", ("a", 22): "a.bad",
    }


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


def test_surface_guard_scans_class_members():
    # main reaches C, whose __init__ builds a Pair; C.used reads field a.
    # C.dead is the only reader of helper, nothing reads the property size
    # or field b, and D is dead as a whole, so its member is not listed.
    a = textwrap.dedent("""
        from collections import namedtuple

        Pair = namedtuple("Pair", ["a", "b"])

        def helper():
            return 1

        class C:
            def __init__(self):
                self.x = Pair(1, 2)

            def used(self):
                return self.x.a

            def dead(self):
                return helper()

            @property
            def size(self):
                return 2

        class D:
            def gone(self):
                return 3

        def main():
            return C().used()
    """)
    defined, roots = src_surface({"a": a})
    assert sorted(unread(defined, roots, ())) == [
        "a.C.dead", "a.C.size", "a.D", "a.Pair.b", "a.helper"
    ]
    assert sorted(unread(defined, roots, ("a.C.dead",))) == ["a.C.size", "a.D", "a.Pair.b"]


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
