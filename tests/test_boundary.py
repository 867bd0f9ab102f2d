import hashlib
import json

import pytest
from carriers import clutching_diagram, scalar_diag, spec_path, trivial_diagram
from test_acceptance import check_lift_conjugator, perturbed_boundary
from test_guards import perfbench_request

from kcert import boundary, drivers
from kcert.algebras import Kernel
from kcert.boundary import (
    boundary_extended_form,
    boundary_first_form,
    checked_lifts,
    e_block,
    verify_lift_independence_a,
    verify_lift_independence_b,
)
from kcert.cli import main
from kcert.matrices import (
    CertificateFailure,
    FilteredMatrix,
    IdempotentCert,
    InvertibleCert,
    apply_hom_invertible,
    apply_hom_matrix,
    block2,
    elementary,
    expect_equal,
    section_matrix,
    split2,
)
from kcert.mv import DoubleMatrix, glue_idempotents
from kcert.scalars import Poly, rat


def _x_cert(diagram):
    x_cls = Poly([0, 1])
    m = FilteredMatrix(diagram.lambda_prime, ((x_cls,),))
    return InvertibleCert(m, m).verify()


def _x_lift(diagram):
    return FilteredMatrix(diagram.lambda1, ((Poly([0, 1]),),))


def test_trivial_diagram_invertible_lift_gives_zero(trivial_mv):
    two = InvertibleCert(
        scalar_diag(trivial_mv.lambda_prime, 2, 1),
        scalar_diag(trivial_mv.lambda_prime, rat(1, 2), 1),
    ).verify()
    a, b = checked_lifts(
        trivial_mv, two,
        lift_a=scalar_diag(trivial_mv.lambda1, 2, 1),
        lift_b=scalar_diag(trivial_mv.lambda1, rat(1, 2), 1),
    )
    out = boundary_extended_form(trivial_mv, a, b)
    assert out.s0.is_zero() and out.s1.is_zero()
    assert out.p_double.p.first_mismatch(out.minus.p) is None  # the literal zero difference


def test_clutching_boundary_closed_form(clutching):
    u = _x_cert(clutching)
    x = _x_lift(clutching)
    a, b = checked_lifts(clutching, u, lift_a=x, lift_b=x, m=0)
    out = boundary_extended_form(clutching, a, b)
    one_minus_x2 = Poly([1, 0, -1])
    assert out.s0 == FilteredMatrix(clutching.lambda1, ((one_minus_x2,),))
    assert out.s1 == FilteredMatrix(clutching.lambda1, ((one_minus_x2,),))
    out.p.verify()
    out.p_double.p.verify()
    out.p_double.verify()
    # closed form checked inside; cross-check the intertwining laws directly
    assert out.s1 @ a == a @ out.s0
    ident = FilteredMatrix.identity(clutching.lambda1, 1)
    assert a @ (out.s0.plus_one() @ b) == ident - out.s1 @ out.s1


def test_intertwining_for_arbitrary_lifts(clutching, sampler):
    # the algebraic heart: P certifies for arbitrary, non-invertible lifts
    u = _x_cert(clutching)
    kernel = Poly([-1, 0, 1])
    for _ in range(25):
        karr = sampler.matrix(clutching.lambda1, 1)
        ka = FilteredMatrix(
            clutching.lambda1,
            ((karr.rows[0][0] * kernel,),),
        )
        kb = FilteredMatrix(
            clutching.lambda1,
            ((sampler.matrix(clutching.lambda1, 1).rows[0][0] * kernel,),),
        )
        a, b = checked_lifts(
            clutching, u, lift_a=_x_lift(clutching) + ka, lift_b=_x_lift(clutching) + kb
        )
        out = boundary_extended_form(clutching, a, b)
        out.p.verify()
        out.p_double.p.verify()
        out.p_double.verify()
        assert out.s1 @ a == a @ out.s0
        ident = FilteredMatrix.identity(clutching.lambda1, 1)
        assert a @ (out.s0.plus_one() @ b) == ident - out.s1 @ out.s1


def test_default_lifts_use_sections(clutching):
    u = _x_cert(clutching)
    a, b = checked_lifts(clutching, u)
    assert a == section_matrix(clutching.j1, u.m)
    assert b == section_matrix(clutching.j1, u.m_inv)
    assert apply_hom_matrix(clutching.j1, a) == u.m
    assert apply_hom_matrix(clutching.j1, b) == u.m_inv
    out = boundary_extended_form(clutching, a, b)
    out.p.verify()


def test_extended_reduces_to_second_form(clutching, sampler):
    # At m = 0 P is the paper's second form
    # [[S0^2, S0(1+S0)B], [S1 A, 1 - S1^2]], built here from the lifts alone:
    # for invertible lifts (S0 = S1 = 0) and for lifts off by multiples of
    # x^2 - 1 (S0 != 0).
    for size in (1, 2):
        lift = sampler.invertible(clutching.lambda1, size)
        u = InvertibleCert(
            apply_hom_matrix(clutching.j1, lift.m), apply_hom_matrix(clutching.j1, lift.m_inv)
        ).verify()
        ident = FilteredMatrix.identity(clutching.lambda1, size)
        for perturbed in (False, True):
            a, b = lift.m, lift.m_inv
            if perturbed:
                a = a + _kernel_multiple(clutching, sampler, size)
                b = b + _kernel_multiple(clutching, sampler, size)
            s0, s1 = ident - b @ a, ident - a @ b
            assert s0.is_zero() != perturbed
            second = block2(s0 @ s0, s0 @ s0.plus_one() @ b, s1 @ a, ident - s1 @ s1)
            out = boundary_extended_form(
                clutching, *checked_lifts(clutching, u, lift_a=a, lift_b=b))
            assert out.p.p == second


def test_extended_block_diagonal(clutching):
    # m = 1, n = 1, U = diag(2, x): commutes with diag(0, 1)
    lp = clutching.lambda_prime
    x_cls = Poly([0, 1])
    two = lp.from_rational(rat(2))
    half = lp.from_rational(rat(1, 2))
    z = lp.zero()
    u = InvertibleCert(
        FilteredMatrix(lp, ((two, z), (z, x_cls))),
        FilteredMatrix(lp, ((half, z), (z, x_cls))),
    ).verify()
    out = boundary_extended_form(clutching, *checked_lifts(clutching, u, m=1), 1)
    out.p.verify()
    out.p_double.p.verify()
    out.p_double.verify()
    # the m-padding must not change the certified class content: the
    # e-block cuts the x-part exactly as the m = 0 boundary of x does
    x1 = _x_cert(clutching)
    base = boundary_extended_form(clutching, *checked_lifts(clutching, x1))
    cut = out.p.p.sub_block(1, 2, 1, 2)
    assert cut == base.p.p.sub_block(0, 1, 0, 1)


# -- 0/1 blocks as column selections ----------------------------------------------
# The boundary multiplies by e = diag(0_m, 1_n) and e1 = diag(0_m, 1_n, 0_size)
# by keeping columns; these tests hold the selections and the two forms of P
# to the products by e and e1 they replace, over Q[x]/(x^2 - 1) and Q[x].
# The construction compares no closed form, so
# test_p_and_closed_form_match_the_products_by_e and
# test_extended_reduces_to_second_form are where P is held to it.

_SPLITS = [(size, m) for size in (1, 2, 3) for m in (0, 1, 2) if m <= size]


@pytest.mark.parametrize("size,m", _SPLITS)
def test_keep_columns_is_the_product_by_e(clutching, sampler, size, m):
    for algebra in (clutching.lambda_prime, clutching.lambda1):
        e = e_block(algebra, m, size - m)
        mat = sampler.matrix(algebra, size)
        assert boundary._keep_columns(mat, m, size) == mat @ e
        big = sampler.matrix(algebra, 2 * size)
        assert boundary._keep_columns(big, m, size) == big @ e.pad(size)


def _kernel_multiple(diagram, sampler, size):
    """A random matrix over the first leg whose entries are multiples of
    x^2 - 1, so it dies in the overlap ring."""
    kernel = Poly([-1, 0, 1])
    rows = sampler.matrix(diagram.lambda1, size).rows
    return FilteredMatrix(diagram.lambda1, [[p * kernel for p in row] for row in rows])


@pytest.mark.parametrize("size,m", _SPLITS)
def test_p_and_closed_form_match_the_products_by_e(clutching, sampler, size, m):
    # U = diag(U1, U2) with blocks of sizes m and n commutes with e; lifts
    # off by a kernel multiple make S0 and S1 nonzero.
    blocks = [sampler.invertible(clutching.lambda1, k) for k in (m, size - m) if k]
    lift = blocks[0] if len(blocks) == 1 else blocks[0].direct_sum(blocks[1])
    u = InvertibleCert(
        apply_hom_matrix(clutching.j1, lift.m), apply_hom_matrix(clutching.j1, lift.m_inv)
    ).verify()
    a, b = checked_lifts(
        clutching, u,
        lift_a=lift.m + _kernel_multiple(clutching, sampler, size),
        lift_b=lift.m_inv + _kernel_multiple(clutching, sampler, size), m=m,
    )
    out = boundary_extended_form(clutching, a, b, m)
    assert not out.s0.is_zero()
    s0 = out.s0
    e = e_block(clutching.lambda1, m, size - m)
    corner = s0.plus_one() @ b
    assert split2(out.l.m_inv)[1] == corner
    assert out.p.p == out.l.m @ e.pad(size) @ out.l.m_inv
    assert out.p.p == block2(s0 @ e @ s0, s0 @ e @ corner, a @ e @ s0, a @ e @ corner)
    out.p.verify()
    out.p_double.verify()


def test_commuting_condition_rejected(clutching):
    lp = clutching.lambda_prime
    x_cls = Poly([0, 1])
    one = lp.one()
    z = lp.zero()
    u = InvertibleCert(
        FilteredMatrix(lp, ((z, x_cls), (x_cls, z))),
        FilteredMatrix(lp, ((z, x_cls), (x_cls, z))),
    ).verify()
    with pytest.raises(CertificateFailure):
        checked_lifts(clutching, u, m=1)


def test_inverse_lifts_shape(clutching, sampler):
    # invertible lifts inverse to each other give the
    # displayed zero/identity shape; block-diagonal so U commutes with the
    # stabilization block
    u_tilde = sampler.invertible(clutching.lambda1, 1).direct_sum(
        sampler.invertible(clutching.lambda1, 1)
    )
    u = InvertibleCert(
        apply_hom_matrix(clutching.j1, u_tilde.m),
        apply_hom_matrix(clutching.j1, u_tilde.m_inv),
    )
    a, b = checked_lifts(clutching, u, lift_a=u_tilde.m, lift_b=u_tilde.m_inv, m=1)
    out = boundary_extended_form(clutching, a, b, 1)
    assert out.s0.is_zero() and out.s1.is_zero()
    assert out.p_double.p.first_mismatch(out.minus.p) is None


def test_first_form_is_a_verified_double_idempotent(clutching):
    # Each first form alone: no comparison with the extended form.
    u = _x_cert(clutching)
    glued, _, minus = boundary_first_form(clutching, u)
    glued.p.verify()
    glued.verify()
    assert minus.p.m1 == FilteredMatrix.diag_bits(clutching.lambda1, (1, 0))
    # stabilized transition glues to the same certified shape
    stab = u.pad(1)
    glued2, _, _ = boundary_first_form(clutching, stab)
    glued2.p.verify()
    glued2.verify()


def test_lift_independence_a(clutching, sampler):
    u = _x_cert(clutching)
    x = _x_lift(clutching)
    a, b = checked_lifts(clutching, u, lift_a=x, lift_b=x)
    base = boundary_extended_form(clutching, a, b)
    zero = FilteredMatrix.zeros(clutching.lambda1, 1)
    conj, l_tilde = verify_lift_independence_a(clutching, a, b, zero, base)
    assert conj == FilteredMatrix.identity(clutching.lambda1, 2)
    check_lift_conjugator(base, conj, l_tilde, perturbed_boundary(clutching, u, a, b, k=zero))
    k = FilteredMatrix(clutching.lambda1, ((Poly([-1, 0, 1]),),))
    conj, l_tilde = verify_lift_independence_a(clutching, a, b, k, base)
    tilde = perturbed_boundary(clutching, u, a, b, k=k)
    check_lift_conjugator(base, conj, l_tilde, tilde)
    tilde.p.verify()
    with pytest.raises(CertificateFailure):
        verify_lift_independence_a(
            clutching, a, b, FilteredMatrix.identity(clutching.lambda1, 1), base
        )


def test_lift_independence_a_names_the_failing_check(clutching, monkeypatch):
    u = _x_cert(clutching)
    x = _x_lift(clutching)
    a, b = checked_lifts(clutching, u, lift_a=x, lift_b=x)
    base = boundary_extended_form(clutching, a, b)
    k = FilteredMatrix(clutching.lambda1, ((Poly([-1, 0, 1]),),))
    compare = boundary.expect_equal

    def conj_taken_as_identity(lhs, rhs, what):
        # The check's one claim, L~ = conj L, faulted to L~ = L.
        return compare(lhs, base.l.m, what)

    monkeypatch.setattr(boundary, "expect_equal", conj_taken_as_identity)
    with pytest.raises(CertificateFailure) as err:
        verify_lift_independence_a(clutching, a, b, k, base)
    assert str(err.value) == "lift independence in A: L~ = conj . L fails at (0, 0)"
    assert err.value.position == (0, 0)
    # the corner S0 = 1 - BA moves by -BK = -x (x^2 - 1)
    assert err.value.residual == Poly([0, 1, 0, -1])


def displayed_deltas(a, b, h):
    """The four blocks of L~ L^-1 - 1 for B -> B + H as displayed, one
    product per term, from the lifts alone."""
    ha, ah, ab, ba = h @ a, a @ h, a @ b, b @ a
    hab = h @ ab
    d11 = ha - ha @ ha - ba @ ha
    d12 = -(h + h) + hab + ha @ h + ba @ h - ba @ hab - ha @ hab
    return d11, d12, a @ ha, -ah + ah @ ab


def test_lift_independence_b(clutching):
    u = _x_cert(clutching)
    x = _x_lift(clutching)
    a, b = checked_lifts(clutching, u, lift_a=x, lift_b=x)
    h = FilteredMatrix(clutching.lambda1, ((Poly([-1, 0, 1]),),))
    base = boundary_extended_form(clutching, a, b)
    conj, l_tilde = verify_lift_independence_b(clutching, a, h, base)
    check_lift_conjugator(base, conj, l_tilde, perturbed_boundary(clutching, u, a, b, h=h))
    # the four displayed blocks match the independent recomputation
    d11, d12, d21, d22 = displayed_deltas(x, x, h)
    expect = block2(d11.plus_one(), d12, d21, d22.plus_one())
    assert conj == expect


def test_deltas_match_symbolic_expansion(clutching, sampler):
    u = _x_cert(clutching)
    x = _x_lift(clutching)
    kernel = Poly([-1, 0, 1])
    for _ in range(20):
        factor = sampler.matrix(clutching.lambda1, 1).rows[0][0]
        h = FilteredMatrix(clutching.lambda1, ((factor * kernel,),))
        base = boundary_extended_form(clutching, *checked_lifts(clutching, u, lift_a=x, lift_b=x))
        shifted = boundary_extended_form(
            clutching, *checked_lifts(clutching, u, lift_a=x, lift_b=x + h)
        )
        observed = shifted.l.m @ base.l.m_inv
        d11, d12, d21, d22 = displayed_deltas(x, x, h)
        assert observed == block2(d11.plus_one(), d12, d21, d22.plus_one())


# An element of the first leg that dies in the overlap ring, per bundled
# diagram: x^2 - 1, and the unit kernel off the cover's overlap point 2.
_DYING = {
    "clutching": Poly([-1, 0, 1]),
    "cover": Kernel({(0, 0): rat(1), (1, 1): rat(1)}),
}


def _dying(diagram, name, sampler, size):
    """A random first-leg matrix times the dying element, so it dies too."""
    z = diagram.lambda1.zero()
    d = FilteredMatrix(diagram.lambda1, [[_DYING[name] if i == j else z for j in range(size)]
                                         for i in range(size)])
    return sampler.matrix(diagram.lambda1, size) @ d


# Each lift check builds L~ from its claim's products, by identities that
# hold only in the right order of factors (S0~ = S0 - BK, not S0 - KB).  The
# bundled spec is 1 x 1 over a commutative ring, where a swapped pair of
# factors goes unseen, so here the lifts are n x n, off their sections by
# dying matrices (S0, S1 != 0), on both bundled diagrams.
@pytest.mark.parametrize("name", ["clutching", "cover"])
@pytest.mark.parametrize("size", [2, 3])
def test_lift_checks_build_the_shifted_l_noncommutatively(name, size, sampler, request):
    diagram = request.getfixturevalue(name)
    for _ in range(3):
        u = apply_hom_invertible(diagram.j1, sampler.invertible(diagram.lambda1, size))
        a, b = checked_lifts(diagram, u)
        a, b = checked_lifts(diagram, u, lift_a=a + _dying(diagram, name, sampler, size),
                             lift_b=b + _dying(diagram, name, sampler, size))
        base = boundary_extended_form(diagram, a, b)
        assert not base.s0.is_zero() and not base.s1.is_zero()
        k, h = _dying(diagram, name, sampler, size), _dying(diagram, name, sampler, size)
        assert b @ k != k @ b and h @ a != a @ h
        checks = ((verify_lift_independence_a(diagram, a, b, k, base), {"k": k}),
                  (verify_lift_independence_b(diagram, a, h, base), {"h": h}))
        for (conj, l_tilde), shift in checks:
            # check_lift_conjugator also holds L~ to boundary_l on the
            # shifted lifts, through the perturbed boundary.
            check_lift_conjugator(
                base, conj, l_tilde, perturbed_boundary(diagram, u, a, b, **shift))


# A 2 x 2 boundary with both lifts perturbed, on the clutching diagram at
# m = 1: U = diag(2, x), section lifts (so S0 = S1 = diag(0, 1 - x^2)), and
# the K and H of tests/test_guards.py::test_extended_boundary_product_count.
# The bundled spec is 1 x 1, so this pin is the one on the bytes of a
# report whose lift checks multiply matrices that do not commute.
_KILL = ["-1", "0", "1"]
PERTURBED_2X2_MATRICES = {
    "U": {"algebra": "lambda_prime", "size": 2,
          "entries": [[["2"], ["0"]], [["0"], ["0", "1"]]],
          "inverse": [[["1/2"], ["0"]], [["0"], ["0", "1"]]]},
    "K": {"algebra": "lambda1", "size": 2,
          "entries": [[_KILL, ["0"]], [["-2", "0", "2"], _KILL]]},
    "H": {"algebra": "lambda1", "size": 2,
          "entries": [[["0"], _KILL], [_KILL, ["0", "-1", "0", "1"]]]},
}
PERTURBED_2X2_JSON_SHA256 = "166c27d3ee1f33b8d9686018cabed079335637fb78726b4c4ac2d8f67ab9b008"


def test_perturbed_2x2_boundary_report_bytes(tmp_path):
    with open(spec_path("quotient_clutching.json"), encoding="utf-8") as fh:
        diagram = json.load(fh)["diagram"]
    spec = {
        "diagram": diagram,
        "matrices": PERTURBED_2X2_MATRICES,
        "command": {"name": "boundary", "u": "U", "m": 1, "perturb_a": "K", "perturb_b": "H"},
    }
    path, report = tmp_path / "spec.json", tmp_path / "report.json"
    path.write_text(json.dumps(spec))
    assert main(["boundary", "--spec", str(path), "--format", "json",
                 "--report", str(report)]) == 0
    data = report.read_bytes()
    assert [check["ok"] for check in json.loads(data)["checks"]] == [True] * 5
    assert hashlib.sha256(data).hexdigest() == PERTURBED_2X2_JSON_SHA256


# Each lift check compares one claim and leaves the rest to its proof (see
# verify_lift_independence_a): the conjugator's inverse, P~ = conj P conj^-1
# and the fixed second leg.  Here they are recomputed for every conjugator
# a `boundary` run returns.
BOUNDARY_CLUTCHING_SPECS = 20


def test_lift_conjugators_verify(tmp_path, monkeypatch):
    returned, checked = [], []

    def keep_lifts(diagram, u, lift_a, lift_b, m):
        # The run's U, lifts and split, which the lift checks do not take.
        a, b = boundary.checked_lifts(diagram, u, lift_a, lift_b, m)
        checked.append((diagram, u, a, b, m))
        return a, b

    def keep(check, lift):
        def wrapped(*args):
            *_, perturbation, base = args
            conj, l_tilde = check(*args)
            diagram, u, a, b, m = checked[-1]
            tilde = perturbed_boundary(diagram, u, a, b, m=m, **{lift: perturbation})
            returned.append((check.__name__, (base, conj, l_tilde, tilde)))
            return conj, l_tilde
        return wrapped

    monkeypatch.setattr(drivers, "checked_lifts", keep_lifts)
    for name, lift in (("verify_lift_independence_a", "k"), ("verify_lift_independence_b", "h")):
        monkeypatch.setattr(drivers, name, keep(getattr(boundary, name), lift))
    paths = [spec_path("quotient_clutching.json")]
    for index in range(BOUNDARY_CLUTCHING_SPECS):
        subcommand, doc = perfbench_request("boundary-clutching", index=index)
        assert subcommand == "boundary"
        paths.append(tmp_path / f"request{index}.json")
        paths[-1].write_text(json.dumps(doc))
    for path in paths:
        returned.clear()
        assert main(["boundary", "--spec", str(path), "--format", "json",
                     "--report", str(tmp_path / "report.json")]) == 0
        assert [name for name, _ in returned] == [
            "verify_lift_independence_a", "verify_lift_independence_b"]
        for _, claims in returned:
            check_lift_conjugator(*claims)


# No command builds an alternative L, so the lifting-freedom claim lives here
# with its tests.


def rotation_image(u):
    """The block rotation [[0, -U^{-1}], [U, 0]] any alternative L must hit."""
    z = FilteredMatrix.zeros(u.algebra, u.n)
    return block2(z, -u.m_inv, u.m, z)


def boundary_alt_lifting(diagram, u, a, b, l_any):
    """Lifting freedom: any invertible lifting of the block rotation of U
    produces a conjugate idempotent, with conjugator L' L^{-1}; A and B are
    lifts of U and U^{-1}."""
    base = boundary_extended_form(diagram, a, b)
    expect_equal(
        apply_hom_matrix(diagram.j1, l_any.m), rotation_image(u),
        "alternative L does not lift the block rotation",
    )
    e1 = base.l.m_inv @ base.p.p @ base.l.m  # recover e1 = L^-1 P L exactly
    p_alt = IdempotentCert(l_any.m @ e1 @ l_any.m_inv).verify()
    conj = l_any.compose(base.l.inverse())
    expect_equal(p_alt.p, conj.m @ base.p.p @ conj.m_inv, "alt-lift conjugacy fails")
    return p_alt, conj, base


def test_alt_lifting(clutching, sampler):
    u = _x_cert(clutching)
    x = _x_lift(clutching)
    lifts = checked_lifts(clutching, u, lift_a=x, lift_b=x)
    base = boundary_extended_form(clutching, *lifts)
    # canonical L is itself an admissible alternative: identity conjugator
    p_alt, conj, _ = boundary_alt_lifting(clutching, u, *lifts, base.l)
    assert conj.m == FilteredMatrix.identity(clutching.lambda1, 2)
    assert p_alt.p == base.p.p
    # multiply by an elementary factor whose entry dies in the overlap ring
    k = Poly([-1, 0, 1])
    e = InvertibleCert(
        elementary(clutching.lambda1, 2, 0, 1, k), elementary(clutching.lambda1, 2, 0, 1, -k)
    )
    l_any = e.compose(base.l)
    assert apply_hom_matrix(clutching.j1, l_any.m) == rotation_image(u)
    p_alt, conj, _ = boundary_alt_lifting(clutching, u, *lifts, l_any)
    p_alt.verify()
    conj.verify()
    with pytest.raises(CertificateFailure):
        boundary_alt_lifting(clutching, u, *lifts, InvertibleCert.identity(clutching.lambda1, 2))


def test_boundary_level_accounting(clutching, sampler):
    for _ in range(25):
        u_tilde = sampler.invertible(clutching.lambda1, 2)
        u = InvertibleCert(
            apply_hom_matrix(clutching.j1, u_tilde.m),
            apply_hom_matrix(clutching.j1, u_tilde.m_inv),
        )
        out = boundary_extended_form(clutching, *checked_lifts(clutching, u))
        floor = max(0, u.level - 2)
        assert out.l.level >= floor
        assert out.p.level >= floor


# -- failure text ---------------------------------------------------------------
# Each failed claim names its first differing entry; the message, the
# exception class, the position and the residual (left minus right) are
# pinned here for every check a caller can reach with its own inputs.

_T = trivial_diagram()


def _q(*rows):
    """A matrix over Q, the one ring of the trivial diagram."""
    return FilteredMatrix(_T.lambda_prime, [[rat(v) for v in row] for row in rows])


def _unit(value):
    return InvertibleCert(_q([value]), _q([1 / rat(value)])).verify()


def _bad_inverse():
    InvertibleCert(_q([1, 1], [0, 1]), _q([1, 0], [0, 1])).verify()


def _not_idempotent():
    IdempotentCert(_q([1, 0], [0, 2])).verify()


def _legs_disagree():
    DoubleMatrix(_T, _q([1, 0], [0, 1]), _q([1, 0], [3, 1])).verify()


def _double_not_idempotent():
    c = clutching_diagram()
    x2 = FilteredMatrix(c.lambda2, ((Poly([0, 0, 1]),),))
    IdempotentCert(DoubleMatrix(c, FilteredMatrix.identity(c.lambda1, 1), x2).verify()).verify()


def _wrong_lift_a():
    u = InvertibleCert(_q([2, 0], [0, rat(1, 2)]), _q([rat(1, 2), 0], [0, 2])).verify()
    checked_lifts(_T, u, lift_a=_q([2, 0], [1, rat(1, 2)]), lift_b=u.m_inv)


def _wrong_lift_b():
    u = InvertibleCert(_q([2, 0], [0, rat(1, 2)]), _q([rat(1, 2), 0], [0, 2])).verify()
    checked_lifts(_T, u, lift_a=u.m, lift_b=_q([rat(1, 2), 5], [0, 2]))


def _u_not_commuting():
    checked_lifts(_T, InvertibleCert(_q([1, 1], [0, 1]), _q([1, -1], [0, 1])).verify(), m=1)


def _non_conjugate_gluing():
    glue_idempotents(
        IdempotentCert(_q([1, 0], [0, 0])).verify(), IdempotentCert(_q([0, 0], [0, 1])).verify(),
        InvertibleCert.identity(_T.lambda_prime, 2), _T,
    )


def _wrong_alternative_l():
    u = _unit(2)
    boundary_alt_lifting(_T, u, *checked_lifts(_T, u), InvertibleCert.identity(_T.lambda1, 2))


@pytest.mark.parametrize("build,message,position,residual", [
    (_bad_inverse, "inverse certificate fails at (0, 1)", (0, 1), 1),
    (_not_idempotent, "idempotent certificate fails at (1, 1)", (1, 1), 2),
    (_legs_disagree, "legs disagree in the overlap ring at (1, 0)", (1, 0), -3),
    (_double_not_idempotent,
     "idempotent certificate fails at ('leg2', (0, 0))", ("leg2", (0, 0)),
     Poly([0, 0, -1, 0, 1])),
    (_wrong_lift_a, "lift A has the wrong image at (1, 0)", (1, 0), 1),
    (_wrong_lift_b, "lift B has the wrong image at (0, 1)", (0, 1), 5),
    (_u_not_commuting,
     "U must commute with the stabilization block, fails at (0, 1)", (0, 1), 1),
    (_non_conjugate_gluing, "legs disagree in the overlap ring at (0, 0)", (0, 0), 1),
    (_wrong_alternative_l,
     "alternative L does not lift the block rotation at (0, 0)", (0, 0), 1),
], ids=["inverse", "idempotent", "legs-disagree", "double-idempotent", "lift-a", "lift-b",
        "stabilization-block", "gluing", "alternative-l"])
def test_failure_names_first_differing_entry(build, message, position, residual):
    with pytest.raises(CertificateFailure) as err:
        build()
    assert type(err.value) is CertificateFailure
    assert str(err.value) == message
    assert err.value.position == position
    assert err.value.residual == residual
