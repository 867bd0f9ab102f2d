import pytest
from carriers import scalar_diag

from kcert import kclasses
from kcert.algebras import InclusionHom
from kcert.boundary import boundary_first_form
from kcert.drivers import kernel_boundary_witness, kernel_i_witnesses
from kcert.identities import whitehead_product
from kcert.kclasses import exactness_kernel_boundary, exactness_kernel_i
from kcert.matrices import (
    CertificateFailure,
    FilteredMatrix,
    IdempotentCert,
    InvertibleCert,
    MatrixError,
    apply_hom_matrix,
    block2,
    involution_cert,
    o_map,
    section_matrix,
)
from kcert.mv import (
    DoubleMatrix,
    MVDiagram,
    glue_idempotents,
    lift_via_whitehead,
    normalize_difference,
    whitehead_lift,
)
from kcert.scalars import Poly
from test_matrices import sampled_idempotent


def _x_cert(diagram):
    x_cls = Poly([0, 1])
    m = FilteredMatrix(diagram.lambda_prime, ((x_cls,),))
    return InvertibleCert(m, m).verify()


def legs(double):
    """The two legs of a double matrix, to compare."""
    return double.m1, double.m2


def verify_double_idempotent(double):
    """Recheck the pullback constraint of a double matrix, then that each
    leg is idempotent."""
    double.verify()
    for leg in legs(double):
        IdempotentCert(leg).verify()


def test_double_matrix_examples(clutching):
    one1 = FilteredMatrix.identity(clutching.lambda1, 1)
    one2 = FilteredMatrix.identity(clutching.lambda2, 1)
    DoubleMatrix(clutching, one1, one2).verify()
    x = FilteredMatrix(clutching.lambda1, ((Poly([0, 1]),),))
    DoubleMatrix(clutching, x, x).verify()
    shifted = FilteredMatrix(clutching.lambda1, ((Poly([-1, 1, 1]),),))  # x + (x^2 - 1)
    DoubleMatrix(clutching, x, shifted).verify()
    with pytest.raises(CertificateFailure, match="^legs disagree in the overlap ring at "):
        DoubleMatrix(clutching, x, one2).verify()


def test_double_matrix_checks_its_legs(clutching, trivial):
    one1 = FilteredMatrix.identity(clutching.lambda1, 1)
    with pytest.raises(MatrixError, match="legs over the wrong algebras"):
        DoubleMatrix(clutching, one1, FilteredMatrix.identity(trivial, 1))
    with pytest.raises(MatrixError, match="legs must share the size"):
        DoubleMatrix(clutching, one1, FilteredMatrix.identity(clutching.lambda2, 2))


def test_lift_via_whitehead(clutching, sampler):
    u = sampler.invertible(clutching.lambda_prime, 2)
    lifted = lift_via_whitehead(u, clutching.j2)
    lifted.verify()
    assert apply_hom_matrix(clutching.j2, lifted.m) == o_map(u).m


def test_lifting_needs_a_surjective_leg(clutching, trivial):
    # Q[x] -> Q[x]/(x^2 - 1) <- Q: gluing lifts through the scalar
    # inclusion, which has no section.
    lp = clutching.lambda_prime
    j2 = InclusionHom(trivial, lp)
    diagram = MVDiagram(clutching.lambda1, trivial, lp, clutching.j1, j2)
    one = IdempotentCert(FilteredMatrix.identity(clutching.lambda1, 1))
    with pytest.raises(ValueError, match="lifting requires a surjective leg"):
        glue_idempotents(one, IdempotentCert(FilteredMatrix.identity(trivial, 1)),
                         InvertibleCert.identity(lp, 1), diagram)


def _four_factor_lift(a, b):
    """The literal products f1 f2 f1 f4 and f4^-1 f1^-1 f2^-1 f1^-1 of the
    Whitehead factors built from a and b."""
    ident = FilteredMatrix.identity(a.algebra, a.n)
    zero = FilteredMatrix.zeros(a.algebra, a.n)
    f1_inv = block2(ident, -a, zero, ident)
    f2_inv = block2(ident, zero, b, ident)
    f4_inv = block2(zero, ident, -ident, zero)
    # whitehead_product takes the record (a, b) whether or not ab = 1.
    fwd = whitehead_product(InvertibleCert(a, b))
    return fwd, f4_inv @ f1_inv @ f2_inv @ f1_inv


@pytest.mark.parametrize("size", [1, 2, 3])
def test_closed_form_lift_is_the_four_factor_product(clutching, trivial, sampler, size):
    # Over Q[x], the section lifts of u and u^-1 through the clutching leg
    # are inverse only modulo x^2 - 1; over Q, a and b are unrelated.
    ident = FilteredMatrix.identity(clutching.lambda2, size)
    for _ in range(20):
        u = sampler.invertible(clutching.lambda_prime, size, factors=4)
        a, b = section_matrix(clutching.j2, u.m), section_matrix(clutching.j2, u.m_inv)
        if a @ b != ident:
            break
    assert a @ b != ident
    pairs = [(lift_via_whitehead(u, clutching.j2), a, b)]
    a, b = sampler.matrix(trivial, size), sampler.matrix(trivial, size)
    assert a @ b != FilteredMatrix.identity(trivial, size)
    pairs.append((whitehead_lift(a, b), a, b))
    for lifted, a, b in pairs:
        fwd, bwd = _four_factor_lift(a, b)
        assert lifted.m.rows == fwd.rows and lifted.m_inv.rows == bwd.rows
        ident = FilteredMatrix.identity(a.algebra, 2 * size)
        assert lifted.m @ lifted.m_inv == ident and lifted.m_inv @ lifted.m == ident


def test_glue_trivial_units(clutching):
    one1 = IdempotentCert(FilteredMatrix.identity(clutching.lambda1, 1))
    one2 = IdempotentCert(FilteredMatrix.identity(clutching.lambda2, 1))
    unit = InvertibleCert.identity(clutching.lambda_prime, 1)
    glued, _ = glue_idempotents(one1, one2, unit, clutching)
    verify_double_idempotent(glued)
    assert glued.m1 == FilteredMatrix.diag_bits(clutching.lambda1, (1, 0))
    assert glued.m2 == FilteredMatrix.diag_bits(clutching.lambda2, (1, 0))


def test_glue_clutching_idempotent(clutching):
    one1 = IdempotentCert(FilteredMatrix.identity(clutching.lambda1, 1))
    one2 = IdempotentCert(FilteredMatrix.identity(clutching.lambda2, 1))
    u = _x_cert(clutching)
    glued, u_tilde = glue_idempotents(one1, one2, u, clutching)
    verify_double_idempotent(glued)
    # leg1 is the literal stabilization, leg2 the recorded conjugate
    assert glued.m1 == one1.p.pad(1, fill=0)
    expect = u_tilde.m @ one2.p.pad(1, fill=0) @ u_tilde.m_inv
    assert glued.m2 == expect
    assert glued.level >= max(0, min(one1.level, one2.level, u.level) - 4)


def test_glue_precondition_failure(clutching, sampler):
    p1 = IdempotentCert(FilteredMatrix.diag_bits(clutching.lambda1, (1, 0)))
    p2 = IdempotentCert(FilteredMatrix.diag_bits(clutching.lambda2, (0, 0)))
    u = InvertibleCert.identity(clutching.lambda_prime, 2)
    with pytest.raises(CertificateFailure):
        glue_idempotents(p1, p2, u, clutching)


def test_glue_conjugated_by_double_matches_normal_form(clutching, sampler):
    # conjugating each leg of the glued idempotent by the legs of a double
    # invertible keeps both legs certifying and the double constraint intact
    one1 = IdempotentCert(FilteredMatrix.identity(clutching.lambda1, 1))
    one2 = IdempotentCert(FilteredMatrix.identity(clutching.lambda2, 1))
    glued, _ = glue_idempotents(one1, one2, _x_cert(clutching), clutching)
    w = sampler.invertible(clutching.lambda1, 2)
    DoubleMatrix(clutching, w.m, w.m).verify()
    DoubleMatrix(clutching, w.m_inv, w.m_inv).verify()
    verify_double_idempotent(
        DoubleMatrix(clutching, *(w.m @ leg @ w.m_inv for leg in legs(glued)))
    )


def test_normalize_difference(trivial, sampler):
    p1 = sampled_idempotent(sampler, trivial, 2)
    ones = IdempotentCert(FilteredMatrix.identity(trivial, 2))
    p_prime, n = normalize_difference(p1, ones)
    assert n == 2
    assert p_prime.p == p1.p.direct_sum(FilteredMatrix.zeros(trivial, 2))
    p2 = sampled_idempotent(sampler, trivial, 2)
    p_prime, n = normalize_difference(p1, p2)
    assert n == 2
    assert p_prime.verify().p == p1.p.direct_sum(p2.complement().p)


def test_cover_diagram_gluing(cover, sampler):
    # genuine two-chart cover: glue along a unit of the overlap functions
    p1 = sampled_idempotent(sampler, cover.lambda1, 1)
    # the overlap image of p1 must be conjugate to that of p2; use scalars
    one1 = IdempotentCert(FilteredMatrix.identity(cover.lambda1, 1))
    one2 = IdempotentCert(FilteredMatrix.identity(cover.lambda2, 1))
    unit_payload, unit_inv = sampler.unit(cover.lambda_prime)
    u = InvertibleCert(
        FilteredMatrix(cover.lambda_prime, ((unit_payload,),)),
        FilteredMatrix(cover.lambda_prime, ((unit_inv,),)),
    ).verify()
    glued, _ = glue_idempotents(one1, one2, u, cover)
    verify_double_idempotent(glued)


@pytest.mark.parametrize("leg1,leg2,bad_leg", [
    ([0, 0, 1], [1], "leg1"),  # x^2 is 1 in the overlap, but not idempotent
    ([1], [0, 0, 1], "leg2"),
], ids=["leg1", "leg2"])
def test_non_idempotent_double_names_the_leg(clutching, leg1, leg2, bad_leg):
    # The legs of the glued double are p1 + 0 and p2 + 0 (the lift of
    # diag(1, 1) is 1), so they agree, and gluing names the leg that is not
    # idempotent.
    p1 = IdempotentCert(FilteredMatrix(clutching.lambda1, ((Poly(leg1),),)))
    p2 = IdempotentCert(FilteredMatrix(clutching.lambda2, ((Poly(leg2),),)))
    unit = InvertibleCert.identity(clutching.lambda_prime, 1)
    with pytest.raises(CertificateFailure) as err:
        glue_idempotents(p1, p2, unit, clutching)
    assert err.value.position == (bad_leg, (0, 0))
    assert err.value.residual == Poly([0, 0, -1, 0, 1])
    assert str(err.value) == f"idempotent certificate fails at {(bad_leg, (0, 0))}"


@pytest.mark.parametrize("bad_leg", ["leg1", "leg2"])
def test_wrong_double_inverse_names_the_leg(clutching, monkeypatch, bad_leg):
    # kernel_i verifies its un-stabilizing conjugator 1_2 + W on each leg.
    # A trivializer W that claims 2W as its inverse on one leg fails there,
    # at the first entry of the W block, and the line names that leg.
    forged_leg = ("leg1", "leg2").index(bad_leg)
    built = []

    def forged(p):
        w = involution_cert(p)
        built.append(w)
        return InvertibleCert(w.m, w.m_inv + w.m_inv) if len(built) == forged_leg + 1 else w

    monkeypatch.setattr(kclasses, "involution_cert", forged)
    glued, u_tilde, minus = boundary_first_form(clutching, _x_cert(clutching))
    u1, u2 = kernel_i_witnesses(clutching, u_tilde, 1)
    _, report = exactness_kernel_i(clutching, (glued, minus), u1, u2)
    assert len(built) == 2
    assert [c["name"] for c in report.checks if not c["ok"]] == [
        "un-stabilizing restores the normalized plus part"
    ]
    assert report.checks[-1]["residual"] == (
        f"inverse certificate fails at {(bad_leg, (2, 2))}"
    )


def test_double_invertible_rejects_disagreeing_legs(clutching, sampler):
    # kernel_boundary's witness is a double invertible when its forward legs
    # and its inverse legs each agree in the overlap ring.  A witness whose
    # legs disagree in the forward factor is test_kclasses.py's
    # test_kernel_boundary_rejects_disagreeing_witness_legs; here only the
    # inverse of leg 2 is off by 2, and the witness is refused all the same.
    u_tilde = sampler.invertible(clutching.lambda1, 2)
    u, w = kernel_boundary_witness(clutching, u_tilde)
    bad = InvertibleCert(w.m, w.m_inv @ scalar_diag(clutching.lambda2, 2, w.n))
    pair, report = exactness_kernel_boundary(
        clutching, u, (w, bad), lift_a=u_tilde.m, lift_b=u_tilde.m_inv
    )
    assert pair is None
    last = report.checks[-1]
    assert last["name"] == "witness is a double invertible" and not last["ok"]
    assert last["residual"].startswith("legs disagree in the overlap ring at ")


def test_double_matrices_over_another_diagram_are_refused(clutching, cover):
    # Legs over the clutching diagram's algebras are no double over the cover.
    one1 = FilteredMatrix.identity(clutching.lambda1, 1)
    one2 = FilteredMatrix.identity(clutching.lambda2, 1)
    DoubleMatrix(clutching, one1, one2)
    with pytest.raises(MatrixError, match="legs over the wrong algebras"):
        DoubleMatrix(cover, one1, one2)
