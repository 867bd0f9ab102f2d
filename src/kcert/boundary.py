"""The connecting map from invertibles over the overlap ring to formal
differences of double idempotents, in both forms, with the explicit
well-definedness conjugators.

Given lifts A, B of U, U^{-1} through the first leg (not necessarily
invertible), the defect matrices S0 = 1 - BA and S1 = 1 - AB die in the
overlap ring, the block matrix L = [[S0, -(1+S0)B], [A, S1]] is exactly
invertible with inverse [[S0, (1+S0)B], [-A, S1]], and P = L e1 L^{-1},
with e1 = diag(0_m, 1_n, 0), is an idempotent.  Its closed form
[[S0 e S0, S0 e (1+S0)B], [A e S0, A e (1+S0)B]] (e = diag(0_m, 1_n)) is
the block product itself, so it is not compared; at m = 0 it is the
paper's second form [[S0^2, S0(1+S0)B], [S1 A, 1 - S1^2]] by the
intertwining laws S1 A = A S0 and A(1+S0)B = 1 - S1^2, which the tests
recompute.  Pairing P with the scalar block e2 over the second leg gives
the double idempotent whose class, minus the trivial class, is the
boundary.

Every stage takes the lifts, never U.  Only checked_lifts compares a
lift's image with U, and every caller handed U and its lifts apart calls
it.  A recipe that derives U from its own lifts (U = j1(A)) has nothing
to compare and skips it: the construction needs only that S0 and S1 die,
which it checks itself, and at m > 0 that j1(A) commutes with e (see
boundary_extended_form).
The construction comes in three stages, and each caller builds only the
stage it reads: boundary_defects (S0, S1, the one place they are built),
boundary_l (adds the verified L, whose recipe checks that S0 and S1 die)
and boundary_extended_form (adds P and the doubles).  Every L is built
by one recipe, verified_l, from A, S0, S1 and the corner C = (1+S0)B.
Each certificate equation is computed once: L's certificate checks
L L^-1 = 1 only (see InvertibleCert.verify), e1 and e act as column
selections, L^-1 reuses L's corner, and P is never verified on
construction because L's certificate implies P^2 = P (see
boundary_extended_form).
Each lift-independence check compares one claim, L~ = conj L (A) or
L~ L^{-1} = the delta blocks (B), and builds L~ from the products that
claim already makes, with C read off L^{-1}: S0 - BK, S1 - KB, C - BKB
for A -> A + K, and S0 - HA, S1 - AH, C + 2H - H(AB) - sH with
s = HA + BA for B -> B + H.  The conjugator is then L~ L^{-1} for verified
L and L~, so it is invertible with inverse L L~^{-1} and carries P to
P~ = L~ e1 L~^{-1}; the second leg is the same e2 block on both sides.
None of that is recomputed, and P~ is not built.
"""

from collections import namedtuple

from .matrices import (
    CertificateFailure,
    FilteredMatrix,
    IdempotentCert,
    InvertibleCert,
    MatrixError,
    apply_hom_matrix,
    block2,
    expect_equal,
    section_matrix,
)
from .mv import DoubleMatrix, glue_idempotents


BoundaryOutput = namedtuple("BoundaryOutput", ["s0", "s1", "l", "p", "p_double", "e2", "minus"])


def e_block(algebra, m, n):
    """The scalar idempotent diag(0_m, 1_n)."""
    return FilteredMatrix.diag_bits(algebra, (0,) * m + (1,) * n)


def checked_lifts(diagram, u, lift_a=None, lift_b=None, m=0):
    """Lifts (A, B) of U and U^{-1} through the first leg, the section lift
    for each not given, checked to map onto U and U^{-1}; m must split U's
    size, and at m > 0 U must commute with e = diag(0_m, 1_n)."""
    lift_a = section_matrix(diagram.j1, u.m) if lift_a is None else lift_a
    lift_b = section_matrix(diagram.j1, u.m_inv) if lift_b is None else lift_b
    if lift_a.algebra != diagram.lambda1 or lift_b.algebra != diagram.lambda1:
        raise MatrixError("lifts must live over the first leg")
    if lift_a.n != u.n or lift_b.n != u.n:
        raise MatrixError("lift sizes must match U")
    if not (0 <= m <= u.n):
        raise MatrixError("block split must satisfy 0 <= m <= size")
    expect_equal(apply_hom_matrix(diagram.j1, lift_a), u.m, "lift A has the wrong image")
    expect_equal(apply_hom_matrix(diagram.j1, lift_b), u.m_inv, "lift B has the wrong image")
    if m > 0:
        e = e_block(diagram.lambda_prime, m, u.n - m)
        expect_equal(u.m @ e, e @ u.m, "U must commute with the stabilization block, fails")
    return lift_a, lift_b


def boundary_defects(diagram, a, b):
    """(S0, S1) = (1 - BA, 1 - AB) for lifts A, B, unchecked: verified_l
    checks that they die in the overlap ring."""
    ident = FilteredMatrix.identity(diagram.lambda1, a.n)
    return ident - b @ a, ident - a @ b


def verified_l(diagram, a, s0, s1, corner):
    """L = [[S0, -C], [A, S1]] verified against its inverse
    [[S0, C], [-A, S1]], once S0 and S1 are checked to die in the overlap
    ring, naming the first entry of S0, then S1, whose image is not zero;
    the caller passes S0 = 1 - BA, S1 = 1 - AB and C = (1+S0)B for its
    lifts A, B.  The one recipe for L: boundary_l and both lift checks
    build their L through it."""
    for tag, s in (("S0", s0), ("S1", s1)):
        img = apply_hom_matrix(diagram.j1, s)
        if not img.is_zero():
            bad = img.first_mismatch(FilteredMatrix.zeros(diagram.lambda_prime, s.n))
            raise CertificateFailure(f"{tag} does not die in the overlap ring", *bad)
    return InvertibleCert(block2(s0, -corner, a, s1), block2(s0, corner, -a, s1)).verify()


def boundary_l(diagram, a, b):
    """(S0, S1, L) for lifts A, B, with L from verified_l."""
    s0, s1 = boundary_defects(diagram, a, b)
    return s0, s1, verified_l(diagram, a, s0, s1, s0.plus_one() @ b)


def _keep_columns(mat, lo, hi):
    """mat times the 0/1 diagonal that is 1 on columns lo..hi-1: those
    columns kept, the others zero, and no product computed."""
    z = mat.algebra.zero()
    left, right = (z,) * lo, (z,) * (mat.n - hi)
    return FilteredMatrix._raw(mat.algebra, tuple([left + row[lo:hi] + right for row in mat.rows]))


def boundary_extended_form(diagram, a, b, m=0):
    """P = L e1 L^{-1} for lifts A, B and any split m >= 0 of their size,
    paired with the constant e2 block over the second leg.  Requires j1(A)
    to commute with e = diag(0_m, 1_n)."""
    size = a.n
    n = size - m
    s0, s1, l = boundary_l(diagram, a, b)
    # L e1 with e1 = diag(0_m, 1_n, 0_size) keeps columns m..size-1 of L.
    # No closed form is compared: L e1 = [[S0 e, 0], [A e, 0]] and
    # L^-1 = [[S0, C], [-A, S1]] with C = (1+S0)B, so this one product is
    # [[S0 e S0, S0 e C], [A e S0, A e C]] for any blocks, the closed form's
    # own sums.
    p_mat = _keep_columns(l.m, m, size) @ l.m_inv
    # Not verified: boundary_l verified L L^-1 = 1, so L^-1 L = 1 (see
    # InvertibleCert.verify), and e1, e2 are 0/1 diagonals, so
    # P^2 = L e1 (L^-1 L) e1 L^-1 = P and e2^2 = e2.  The boundary report
    # verifies P^2 = P as its own line.
    p = IdempotentCert(p_mat)
    e2_leg2 = e_block(diagram.lambda2, size + m, n)
    # Legs agree, not verified: S0 and S1 die (verified_l checked), so
    # V = j1(A) is invertible with inverse j1(C) = j1(B),
    # j1(L) = [[0, -V^-1], [V, 0]] and
    # j1(P) = j1(L) e1 j1(L)^-1 = diag(0, V e V^-1) = diag(0, e) = j2(e2)
    # once V commutes with e.  At m = 0, e = 1.  At m > 0, checked_lifts
    # checks it for V = U; kernel_i, whose V is phi = j1(v), checks it on
    # its line "phi commutes with the scalar block" and returns before
    # this build when that fails.  The boundary report's "double matrix
    # constraint" line verifies the legs.
    p_double = IdempotentCert(DoubleMatrix(diagram, p_mat, e2_leg2))
    minus = IdempotentCert(
        DoubleMatrix(diagram, e_block(diagram.lambda1, size + m, n), e2_leg2)
    )
    return BoundaryOutput(
        s0=s0, s1=s1, l=l, p=p, p_double=p_double, e2=e2_leg2, minus=minus
    )


def boundary_first_form(diagram, u):
    """The gluing form: (double, u~, minus), the double idempotent glued from
    (1_n, 1_n, U) with its lift u~ of diag(U, U^{-1}) (see
    glue_idempotents), and minus the trivial class of matching rank."""
    n = u.n
    one = IdempotentCert(FilteredMatrix.identity(diagram.lambda1, n))
    one2 = IdempotentCert(FilteredMatrix.identity(diagram.lambda2, n))
    double, u_tilde = glue_idempotents(one, one2, u, diagram)
    minus = IdempotentCert(DoubleMatrix.diag_bits(diagram, (1,) * n + (0,) * n))
    return double, u_tilde, minus


def _corner(base):
    """C = (1+S0)B of a built boundary: the top-right block of L^-1, read
    with no product."""
    n = base.s0.n
    return base.l.m_inv.sub_block(0, n, n, 2 * n)


def verify_lift_independence_a(diagram, a, b, k, base):
    """Verify that the explicit conjugator [[1 - BK, -BKB], [K, 1 + KB]]
    maps L to L~, the L of A + K, for K dying in the overlap ring; returns
    (conj, L~).  ``base`` is the boundary already built from A and B."""
    img = apply_hom_matrix(diagram.j1, k)
    if not img.is_zero():
        raise CertificateFailure("perturbation K must die in the overlap ring")
    # A + K lifts what A lifts, with no check of its own: ``+`` checks that
    # K is over the first leg at A's size, and j1(A + K) = j1(A) + 0.
    a_tilde = a + k
    bk, kb = b @ k, k @ b
    bkb = bk @ b
    # L~ from the conjugator's own products: 1 - B(A + K) = S0 - BK,
    # 1 - (A + K)B = S1 - KB and (1 + S0 - BK)B = C - BKB.
    l_tilde = verified_l(diagram, a_tilde, base.s0 - bk, base.s1 - kb, _corner(base) - bkb)
    conj = block2((-bk).plus_one(), -bkb, k, kb.plus_one())
    expect_equal(l_tilde.m, conj @ base.l.m, "lift independence in A: L~ = conj . L fails")
    # Nothing more to check: L and L~ are verified with their inverses, so
    # conj = L~ L^-1 is invertible with inverse L L~^-1, and
    # conj P conj^-1 = L~ e1 L~^-1 = P~, which is therefore not built.  Both
    # second legs are the e2 block boundary_extended_form builds from the
    # same sizes.
    return conj, l_tilde


def verify_lift_independence_b(diagram, a, h, base):
    """Verify that L~ L^-1 is the displayed delta blocks, where L~ is the L
    of B + H for H dying in the overlap ring; returns (L~ L^-1, L~).
    ``base`` is the boundary already built from A and B; B enters only
    through it, with BA and AB read off its defects as 1 - S0 and 1 - S1."""
    img = apply_hom_matrix(diagram.j1, h)
    if not img.is_zero():
        raise CertificateFailure("perturbation H must die in the overlap ring")
    # A H first: it rejects an H over another algebra or size as B + H would.
    ah = a @ h
    ha = h @ a
    ab = (-base.s1).plus_one()
    hab = h @ ab
    # s = HA + BA = (B + H)A, so S0~ = 1 - s = S0 - HA, S1~ = S1 - AH and
    # C~ = (2 - s)(B + H) = C + 2H - H(AB) - sH, as (2 - BA)B = C.
    s = ha + (-base.s0).plus_one()
    sh = s @ h
    two_h = h + h
    l_tilde = verified_l(diagram, a, base.s0 - ha, base.s1 - ah, _corner(base) + two_h - hab - sh)
    # The delta blocks through s: HA - HA HA - BA HA = HA - s HA, and the
    # four products of d12 pair up into sH - s H(AB).
    expect = block2(
        (ha - s @ ha).plus_one(),
        hab + sh - s @ hab - two_h,
        a @ ha,
        (ah @ ab - ah).plus_one(),
    )
    observed = l_tilde.m @ base.l.m_inv
    expect_equal(observed, expect, "delta block formula fails")
    # observed is L~ L^-1 itself, so it conjugates P to P~ as in the A check.
    return observed, l_tilde
