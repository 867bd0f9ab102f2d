"""Pullback diagrams, double matrices, and constructive gluing.

The pullback ring is never materialized: a double matrix is a pair over the
two legs whose images in the overlap ring agree exactly (Milnor's
patching), which its verify() checks; building one checks only the shapes
of its legs, as building a certificate does.  Its operations act legwise
and its algebra is the diagram, so an idempotent or invertible over the
pullback is a plain IdempotentCert or InvertibleCert whose matrices are
double matrices.

Gluing lifts diag(u, u^{-1}) for the transition invertible u.  Whitehead
factors it as [[1, u], [0, 1]] [[1, 0], [-u^{-1}, 1]] [[1, u], [0, 1]]
[[0, -1], [1, 0]]; with a, b the section lifts of u, u^{-1} through the
surjective leg, the lifted factors multiply out to [[2a - aba, ab - 1],
[1 - ba, b]] and their inverses, in reverse, to [[b, 1 - ba], [ab - 1,
2a - aba]].  Each factor is unipotent or a rotation, so the two are exactly
inverse for any a and b, not only when ab = 1: three products of size n.
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
    o_blocks,
    o_map,
    permutation_cert,
    section_matrix,
)
from .scalars import rat


class DoubleMismatch(CertificateFailure):
    """The two legs disagree in the overlap ring."""


class MVDiagram:
    """Two legs over an overlap ring; at least one leg is surjective and
    carries a section, which is what every lifting argument uses."""

    __slots__ = ("lambda1", "lambda2", "lambda_prime", "j1", "j2")

    def __init__(self, lambda1, lambda2, lambda_prime, j1, j2):
        if j1.source != lambda1 or j1.target != lambda_prime:
            raise ValueError("j1 must map lambda1 onto the overlap ring")
        if j2.source != lambda2 or j2.target != lambda_prime:
            raise ValueError("j2 must map lambda2 onto the overlap ring")
        if not (j1.surjective or j2.surjective):
            raise ValueError("at least one leg must be surjective")
        self.lambda1 = lambda1
        self.lambda2 = lambda2
        self.lambda_prime = lambda_prime
        self.j1 = j1
        self.j2 = j2

    @property
    def same_legs(self):
        """True when the two legs coincide (carrier and map), the shape the
        kernel-recovery recipes assume."""
        return self.lambda1 == self.lambda2 and self.j1 == self.j2

    def _components(self):
        return (self.lambda1, self.lambda2, self.lambda_prime, self.j1, self.j2)

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, MVDiagram) and self._components() == other._components()

    def __hash__(self):
        return hash(self._components())

    def describe(self):
        return {
            "lambda1": self.lambda1.describe(),
            "lambda2": self.lambda2.describe(),
            "lambda_prime": self.lambda_prime.describe(),
            "j1": self.j1.describe(),
            "j2": self.j2.describe(),
        }

    def __repr__(self):
        return f"MVDiagram({self.lambda1.kind}, {self.lambda2.kind} => {self.lambda_prime.kind})"


class DoubleMatrix:
    """A pair (m1, m2) with j1*(m1) = j2*(m2) exactly: a square matrix over
    the pullback, whose algebra is the diagram.  Every operation acts
    legwise, so the certificate classes take it as they take a
    FilteredMatrix.  verify() compares the two overlap images."""

    __slots__ = ("diagram", "m1", "m2")

    def __init__(self, diagram, m1, m2):
        if m1.algebra != diagram.lambda1 or m2.algebra != diagram.lambda2:
            raise MatrixError("double matrix legs over the wrong algebras")
        if m1.n != m2.n:
            raise MatrixError("double matrix legs must share the size")
        self.diagram = diagram
        self.m1 = m1
        self.m2 = m2

    def verify(self):
        expect_equal(
            apply_hom_matrix(self.diagram.j1, self.m1),
            apply_hom_matrix(self.diagram.j2, self.m2),
            "legs disagree in the overlap ring",
            DoubleMismatch,
        )
        return self

    @property
    def algebra(self):
        return self.diagram

    @property
    def n(self):
        return self.m1.n

    @property
    def level(self):
        return min(self.m1.level, self.m2.level)

    @classmethod
    def diag_bits(cls, diagram, bits):
        return cls(
            diagram,
            FilteredMatrix.diag_bits(diagram.lambda1, bits),
            FilteredMatrix.diag_bits(diagram.lambda2, bits),
        )

    @classmethod
    def identity(cls, diagram, n):
        return cls(
            diagram,
            FilteredMatrix.identity(diagram.lambda1, n),
            FilteredMatrix.identity(diagram.lambda2, n),
        )

    def __sub__(self, other):
        self._same(other)
        return DoubleMatrix(self.diagram, self.m1 - other.m1, self.m2 - other.m2)

    def __matmul__(self, other):
        self._same(other)
        return DoubleMatrix(self.diagram, self.m1 @ other.m1, self.m2 @ other.m2)

    def _same(self, other):
        if not isinstance(other, DoubleMatrix) or other.diagram != self.diagram:
            raise MatrixError("double matrices over different diagrams")

    def is_zero(self):
        return self.m1.is_zero() and self.m2.is_zero()

    def direct_sum(self, other):
        self._same(other)
        return DoubleMatrix(
            self.diagram, self.m1.direct_sum(other.m1), self.m2.direct_sum(other.m2)
        )

    def pad(self, k, fill=0):
        if k == 0:
            return self
        return DoubleMatrix(self.diagram, self.m1.pad(k, fill), self.m2.pad(k, fill))

    def sub_block(self, r0, r1, c0, c1):
        return DoubleMatrix(
            self.diagram,
            self.m1.sub_block(r0, r1, c0, c1),
            self.m2.sub_block(r0, r1, c0, c1),
        )

    def first_mismatch(self, other):
        """((leg, (i, j)), residual) of the first differing entry, or None."""
        self._same(other)
        for leg, mine, theirs in (("leg1", self.m1, other.m1), ("leg2", self.m2, other.m2)):
            bad = mine.first_mismatch(theirs)
            if bad is not None:
                return (leg, bad[0]), bad[1]
        return None

    def __eq__(self, other):
        return (
            isinstance(other, DoubleMatrix)
            and self.m1 == other.m1
            and self.m2 == other.m2
        )

    def __hash__(self):
        return hash((self.m1, self.m2))

    def __repr__(self):
        return f"DoubleMatrix(n={self.n}, level={self.level})"


def double_invertible(diagram, cert1, cert2):
    """Invertible certificate over the pullback from one certificate per
    leg, with the forward and the inverse pair each verified to agree in
    the overlap ring.  A pairing that needs no such check is built as
    InvertibleCert(DoubleMatrix(...), DoubleMatrix(...))."""
    return InvertibleCert(
        DoubleMatrix(diagram, cert1.m, cert2.m).verify(),
        DoubleMatrix(diagram, cert1.m_inv, cert2.m_inv).verify(),
    )


def whitehead_lift(a, b):
    """The Whitehead factors of a and b multiplied out, with their inverse, in
    the module's closed form; exactly inverse for any square a, b of one size."""
    ab = a @ b
    ident = FilteredMatrix.identity(a.algebra, a.n)
    corner = a + a - ab @ a
    upper = ab - ident
    lower = ident - b @ a
    return InvertibleCert(block2(corner, upper, lower, b), block2(b, lower, upper, corner))


def lift_via_whitehead(u, leg):
    """Invertible lift of diag(u, u^{-1}) through a surjective leg: the closed
    form of the section lifts of u and u^{-1}, whose image is checked to be
    exactly o_map(u), as a certificate over the leg's source."""
    if not leg.surjective:
        raise ValueError("lifting requires a surjective leg")
    if u.algebra != leg.target:
        raise MatrixError("transition matrix must live over the overlap ring")
    lifted = whitehead_lift(section_matrix(leg, u.m), section_matrix(leg, u.m_inv))
    target = o_map(u)
    expect_equal(apply_hom_matrix(leg, lifted.m), target.m, "lift image mismatch")
    expect_equal(apply_hom_matrix(leg, lifted.m_inv), target.m_inv, "lift image mismatch")
    return lifted


GluedIdempotent = namedtuple(
    "GluedIdempotent", ["double", "p1", "p2", "u", "u_tilde"]
)


def _check_conjugation_pre(diagram, mat1, mat2, u, eq_tag):
    expect_equal(
        apply_hom_matrix(diagram.j1, mat1),
        u.m @ apply_hom_matrix(diagram.j2, mat2) @ u.m_inv,
        f"{eq_tag}: images are not conjugate by u",
    )


def glue_idempotents(p1, p2, u, diagram):
    """Given idempotents over the two legs whose overlap images are
    conjugate by u, produce the size-doubled double idempotent whose first
    leg is p1 + 0 and whose second leg is the recorded conjugate of
    p2 + 0 by the lifted diag(u, u^{-1})."""
    if p1.algebra != diagram.lambda1 or p2.algebra != diagram.lambda2:
        raise MatrixError("idempotents over the wrong legs")
    if p1.n != p2.n or u.n != p1.n:
        raise MatrixError("sizes must agree")
    if not diagram.j2.surjective:
        raise ValueError("gluing lifts through j2, which must be surjective")
    _check_conjugation_pre(diagram, p1.p, p2.p, u, "idempotent gluing")
    n = p1.n
    u_tilde = lift_via_whitehead(u, diagram.j2)
    leg1 = p1.p.pad(n, fill=0)
    p2_stab = p2.p.pad(n, fill=0)
    leg2 = u_tilde.m @ p2_stab @ u_tilde.m_inv
    double = IdempotentCert(DoubleMatrix(diagram, leg1, leg2).verify()).verify()
    return GluedIdempotent(double, p1, p2, u, u_tilde)


def normalize_difference(p1, p2):
    """Rewrite [p1] - [p2] as [p1 + (1 - p2)] - [1_n]: returns the combined
    idempotent and the rank n of the subtracted identity.  It is built
    unverified: it is idempotent whenever p1 and p2 are, and the classes
    built from it are verified where they are glued or chained back."""
    if p1.algebra != p2.algebra:
        raise MatrixError("algebra mismatch")
    return IdempotentCert(p1.p.direct_sum(p2.complement().p)), p2.n


def k0_common_form(d1, d2):
    """Bring two formal differences (plus, minus) over the two legs to the
    common shape ([Q] - [1_N]) with equal sizes and equal N."""
    (plus1, minus1), (plus2, minus2) = d1, d2
    q1, n1 = normalize_difference(plus1, minus1)
    q2, n2 = normalize_difference(plus2, minus2)
    q1 = IdempotentCert(q1.p.pad(n2, fill=1))
    q2 = IdempotentCert(q2.p.pad(n1, fill=1))
    big = max(q1.n, q2.n)
    q1 = q1.pad(big - q1.n)
    q2 = q2.pad(big - q2.n)
    return q1, q2, n1 + n2


def glue_invertibles(s1, s2, u, diagram):
    """Glue invertibles along a transition: double invertible with first leg
    s1 + 1 and second
    leg the recorded conjugate of s2 + 1 by the lifted diag(u, u^{-1})."""
    if s1.algebra != diagram.lambda1 or s2.algebra != diagram.lambda2:
        raise MatrixError("invertibles over the wrong legs")
    if s1.n != s2.n or u.n != s1.n:
        raise MatrixError("sizes must agree")
    if not diagram.j2.surjective:
        raise ValueError("gluing lifts through j2, which must be surjective")
    _check_conjugation_pre(diagram, s1.m, s2.m, u, "invertible gluing")
    n = s1.n
    u_tilde = lift_via_whitehead(u, diagram.j2)
    leg1 = s1.pad(n)
    s2_stab = s2.pad(n)
    leg2 = InvertibleCert(
        u_tilde.m @ s2_stab.m @ u_tilde.m_inv, u_tilde.m @ s2_stab.m_inv @ u_tilde.m_inv
    )
    return double_invertible(diagram, leg1, leg2)


OLift = namedtuple("OLift", ["u_tilde", "xi_tilde", "forward", "perm"])


def lift_o_element(xi, leg):
    """Lift recipe for O-shaped elements: from xi = diag(alpha, alpha^{-1})
    build xi~ by the four-factor formula with section-lifted entries, then
    U~ = diag(xi~, xi~^{-1}), whose forward image diag(xi, xi^{-1}) is
    permutation-conjugate to xi + xi."""
    if not leg.surjective:
        raise ValueError("lifting requires a surjective leg")
    alpha = o_blocks(xi)
    xi_tilde = lift_via_whitehead(alpha, leg)
    u_tilde = o_map(xi_tilde)
    forward = apply_hom_matrix(leg, u_tilde.m)
    expect_equal(forward, xi.m.direct_sum(xi.m_inv), "O-lift image mismatch")
    n = alpha.n
    blocks = (0, 1, 3, 2)
    perm = []
    for b in blocks:
        perm.extend(range(b * n, (b + 1) * n))
    p = permutation_cert(xi.algebra, tuple(perm))
    double_xi = xi.m.direct_sum(xi.m)
    expect_equal(p.m @ double_xi @ p.m_inv, forward, "O-lift permutation conjugacy fails")
    return OLift(u_tilde, xi_tilde, forward, p)


K1GlueWitness = namedtuple("K1GlueWitness", ["xi1", "xi2", "u"])

GluedK1 = namedtuple("GluedK1", ["terms", "details"])


def glue_k1_classes(u1, u2, witness, diagram, coefficient=1):
    """Glue K1 representatives.  With empty xi's this is plain invertible gluing at
    coefficient 1.  With O-shaped corrections, both sides are doubled, the
    corrections lift through the legs by the O-lift recipe, and the glued
    representative carries coefficient 1/2."""
    coeff = rat(coefficient)
    xi1, xi2, u = witness
    if xi1 is None and xi2 is None:
        _check_conjugation_pre(diagram, u1.m, u2.m, u, "K1 gluing")
        glued = glue_invertibles(u1, u2, u, diagram)
        return GluedK1(terms=((glued, coeff),), details=None)
    if not (diagram.j1.surjective and diagram.j2.surjective):
        raise ValueError("the O-lift path needs both legs surjective")
    if xi1 is None or xi2 is None or xi1.n != xi2.n:
        raise CertificateFailure("witness needs O-shaped corrections of one size")
    side1 = apply_hom_matrix(diagram.j1, u1.m).direct_sum(xi1.m)
    side2 = apply_hom_matrix(diagram.j2, u2.m).direct_sum(xi2.m)
    expect_equal(side1, u.m @ side2 @ u.m_inv, "K1 witness equation fails")
    lift1 = lift_o_element(xi1, diagram.j1)
    lift2 = lift_o_element(xi2, diagram.j2)
    u1p = u1.direct_sum(u1).direct_sum(lift1.u_tilde)
    u2p = u2.direct_sum(u2).direct_sum(lift2.u_tilde)
    n = u1.n
    k2 = xi1.n
    # index permutation sending X + X (X = j(u) + xi) to j(u) + j(u) + xi + xi
    perm = (
        tuple(range(0, n))
        + tuple(range(n + k2, 2 * n + k2))
        + tuple(range(n, n + k2))
        + tuple(range(2 * n + k2, 2 * n + 2 * k2))
    )
    rho = permutation_cert(diagram.lambda_prime, perm)
    ident_2n = InvertibleCert.identity(diagram.lambda_prime, 2 * n)
    sigma1 = ident_2n.direct_sum(lift1.perm)
    sigma2 = ident_2n.direct_sum(lift2.perm)
    uu = u.direct_sum(u)
    w = sigma1.compose(rho).compose(uu).compose(rho.inverse()).compose(sigma2.inverse())
    expect_equal(
        apply_hom_matrix(diagram.j1, u1p.m),
        w.m @ apply_hom_matrix(diagram.j2, u2p.m) @ w.m_inv,
        "doubled K1 witness equation fails",
    )
    glued = glue_invertibles(u1p, u2p, w, diagram)
    half = coeff / rat(2)
    return GluedK1(terms=((glued, half),), details=(lift1, lift2, w))
