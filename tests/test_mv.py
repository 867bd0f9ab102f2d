import pytest
from carriers import clutching_diagram, scalar_diag

from kcert.algebras import InclusionHom
from kcert.identities import whitehead_product
from kcert.matrices import (
    CertificateFailure,
    FilteredMatrix,
    IdempotentCert,
    InvertibleCert,
    MatrixError,
    apply_hom_matrix,
    block2,
    o_map,
    section_matrix,
)
from kcert.mv import (
    DoubleMatrix,
    MVDiagram,
    double_invertible,
    glue_idempotents,
    lift_via_whitehead,
    normalize_difference,
    whitehead_lift,
)
from kcert.scalars import Poly, rat
from test_matrices import sampled_idempotent


def _x_cert(diagram):
    x_cls = Poly([0, 1])
    m = FilteredMatrix(diagram.lambda_prime, ((x_cls,),))
    return InvertibleCert(m, m).verify()


def _verify_double(cert):
    """Recheck the pullback constraint of every matrix of a certificate over
    double matrices, then the certificate itself."""
    mats = (cert.p,) if isinstance(cert, IdempotentCert) else (cert.m, cert.m_inv)
    for mat in mats:
        mat.verify()
    return cert.verify()


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
    _verify_double(glued)
    assert glued.p.m1 == FilteredMatrix.diag_bits(clutching.lambda1, (1, 0))
    assert glued.p.m2 == FilteredMatrix.diag_bits(clutching.lambda2, (1, 0))


def test_glue_clutching_idempotent(clutching):
    one1 = IdempotentCert(FilteredMatrix.identity(clutching.lambda1, 1))
    one2 = IdempotentCert(FilteredMatrix.identity(clutching.lambda2, 1))
    u = _x_cert(clutching)
    glued, u_tilde = glue_idempotents(one1, one2, u, clutching)
    _verify_double(glued)
    # leg1 is the literal stabilization, leg2 the recorded conjugate
    assert glued.p.m1 == one1.p.pad(1, fill=0)
    expect = u_tilde.m @ one2.p.pad(1, fill=0) @ u_tilde.m_inv
    assert glued.p.m2 == expect
    assert glued.level >= max(0, min(one1.level, one2.level, u.level) - 4)


def test_glue_precondition_failure(clutching, sampler):
    p1 = IdempotentCert(FilteredMatrix.diag_bits(clutching.lambda1, (1, 0)))
    p2 = IdempotentCert(FilteredMatrix.diag_bits(clutching.lambda2, (0, 0)))
    u = InvertibleCert.identity(clutching.lambda_prime, 2)
    with pytest.raises(CertificateFailure):
        glue_idempotents(p1, p2, u, clutching)


def test_glue_conjugated_by_double_matches_normal_form(clutching, sampler):
    # conjugating the glued idempotent by a double invertible keeps both
    # legs certifying and the double constraint intact
    one1 = IdempotentCert(FilteredMatrix.identity(clutching.lambda1, 1))
    one2 = IdempotentCert(FilteredMatrix.identity(clutching.lambda2, 1))
    glued, _ = glue_idempotents(one1, one2, _x_cert(clutching), clutching)
    w = sampler.invertible(clutching.lambda1, 2)
    dw = double_invertible(clutching, w, w)
    _verify_double(IdempotentCert(dw.m @ glued.p @ dw.m_inv).verify())


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
    _verify_double(glued)


def _poly_double(diagram, leg1, leg2):
    """1x1 double matrix from two coefficient lists."""
    return DoubleMatrix(
        diagram,
        FilteredMatrix(diagram.lambda1, ((Poly(leg1),),)),
        FilteredMatrix(diagram.lambda2, ((Poly(leg2),),)),
    ).verify()


@pytest.mark.parametrize("leg1,leg2,bad_leg", [
    ([0, 0, 1], [1], "leg1"),  # x^2 is 1 in the overlap, but not idempotent
    ([1], [0, 0, 1], "leg2"),
], ids=["leg1", "leg2"])
def test_non_idempotent_double_names_the_leg(clutching, leg1, leg2, bad_leg):
    p = _poly_double(clutching, leg1, leg2)
    with pytest.raises(CertificateFailure) as err:
        IdempotentCert(p).verify()
    assert err.value.position == (bad_leg, (0, 0))
    assert err.value.residual is not None
    assert bad_leg in str(err.value)


@pytest.mark.parametrize("inv1,inv2,bad_leg", [
    # 1/2 + (x^2 - 1) has the overlap image of 1/2, but it is no inverse of 2
    ([rat(-1, 2), 0, 1], [rat(1, 2)], "leg1"),
    ([rat(1, 2)], [rat(-1, 2), 0, 1], "leg2"),
], ids=["leg1", "leg2"])
def test_wrong_double_inverse_names_the_leg(clutching, inv1, inv2, bad_leg):
    two = _poly_double(clutching, [2], [2])
    with pytest.raises(CertificateFailure) as err:
        InvertibleCert(two, _poly_double(clutching, inv1, inv2)).verify()
    assert err.value.position == (bad_leg, (0, 0))
    assert str(err.value).startswith("inverse certificate fails at ")


def test_double_certificates_use_double_identity(clutching):
    half = _poly_double(clutching, [rat(1, 2)], [rat(1, 2)])
    cert = InvertibleCert(_poly_double(clutching, [2], [2]), half).verify()
    assert cert.algebra == clutching
    p = IdempotentCert(_poly_double(clutching, [1], [1])).verify()
    assert p.complement().p.first_mismatch(DoubleMatrix.diag_bits(clutching, (0,))) is None


def test_double_invertible_rejects_disagreeing_legs(clutching, sampler):
    s = sampler.invertible(clutching.lambda1, 1)
    two = InvertibleCert(
        scalar_diag(clutching.lambda2, 2, 1),
        scalar_diag(clutching.lambda2, rat(1, 2), 1),
    ).verify()
    with pytest.raises(CertificateFailure, match="^legs disagree in the overlap ring at "):
        double_invertible(clutching, s, s.compose(two))
    # built directly, the pair is taken as given: building checks only shapes
    bad = s.compose(two)
    InvertibleCert(
        DoubleMatrix(clutching, s.m, bad.m), DoubleMatrix(clutching, s.m_inv, bad.m_inv)
    )


def test_double_matrices_over_another_diagram_are_refused(clutching, cover):
    # Diagrams compare by identity: a double over a separately parsed copy
    # of the same diagram is refused as one over another diagram is.
    other = clutching_diagram()
    assert other is not clutching
    one = DoubleMatrix.identity(clutching, 1)
    for diagram in (cover, other):
        with pytest.raises(MatrixError):
            one @ DoubleMatrix.identity(diagram, 1)
