"""Pullback diagrams, double matrices, and constructive gluing.

The pullback ring is never materialized: a double matrix is a pair over the
two legs whose images in the overlap ring agree exactly (Milnor's
patching), which its verify() checks; building one checks only the shapes
of its legs, as building a certificate does.  Its operations act legwise
and its algebra is the diagram, so an idempotent or invertible over the
pullback is a plain IdempotentCert or InvertibleCert whose matrices are
double matrices.

Gluing idempotents lifts diag(u, u^{-1}) for the transition invertible u
and conjugates the second leg by the lift; that the two idempotents are
conjugate by u in the overlap ring is checked by the glued double's own
verify().  Whitehead factors diag(u, u^{-1}) as [[1, u], [0, 1]]
[[1, 0], [-u^{-1}, 1]] [[1, u], [0, 1]] [[0, -1], [1, 0]]; with a, b the section lifts of u, u^{-1} through the
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
    o_map,
    section_matrix,
)


class DoubleMismatch(CertificateFailure):
    """The two legs disagree in the overlap ring."""


class MVDiagram:
    """Two legs over an overlap ring; at least one leg is surjective and
    carries a section, which is what every lifting argument uses."""

    __slots__ = ("lambda1", "lambda2", "lambda_prime", "j1", "j2")

    def __init__(self, lambda1, lambda2, lambda_prime, j1, j2):
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

    def describe(self):
        return {
            "lambda1": self.lambda1.describe(),
            "lambda2": self.lambda2.describe(),
            "lambda_prime": self.lambda_prime.describe(),
            "j1": self.j1.describe(),
            "j2": self.j2.describe(),
        }


class DoubleMatrix:
    """A pair (m1, m2) with j1*(m1) = j2*(m2) exactly: a square matrix over
    the pullback, whose algebra is the diagram.  Every operation acts
    legwise, so the certificate classes take it as they take a
    FilteredMatrix.  verify() compares the two overlap images; there is no
    ``==``, and first_mismatch compares two double matrices."""

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

    def direct_sum(self, other):
        self._same(other)
        return DoubleMatrix(
            self.diagram, self.m1.direct_sum(other.m1), self.m2.direct_sum(other.m2)
        )

    def first_mismatch(self, other):
        """((leg, (i, j)), residual) of the first differing entry, or None."""
        self._same(other)
        for leg, mine, theirs in (("leg1", self.m1, other.m1), ("leg2", self.m2, other.m2)):
            bad = mine.first_mismatch(theirs)
            if bad is not None:
                return (leg, bad[0]), bad[1]
        return None


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
    lifted = whitehead_lift(section_matrix(leg, u.m), section_matrix(leg, u.m_inv))
    target = o_map(u)
    expect_equal(apply_hom_matrix(leg, lifted.m), target.m, "lift image mismatch")
    expect_equal(apply_hom_matrix(leg, lifted.m_inv), target.m_inv, "lift image mismatch")
    return lifted


GluedIdempotent = namedtuple("GluedIdempotent", ["double", "u_tilde"])


def glue_idempotents(p1, p2, u, diagram):
    """Given idempotents over the two legs whose overlap images are
    conjugate by u, produce the size-doubled double idempotent whose first
    leg is p1 + 0 and whose second leg is the recorded conjugate of
    p2 + 0 by the lifted diag(u, u^{-1}).  The conjugacy is checked by the
    glued double's verify(), which raises DoubleMismatch when it fails."""
    n = p1.n
    u_tilde = lift_via_whitehead(u, diagram.j2)
    leg1 = p1.p.pad(n, fill=0)
    p2_stab = p2.p.pad(n, fill=0)
    leg2 = u_tilde.m @ p2_stab @ u_tilde.m_inv
    # The double's verify() is the conjugacy check: lift_via_whitehead
    # checked j2(u~) = diag(u, u^-1) and j2(u~^-1) = diag(u^-1, u), and j2
    # is a ring map, so j2(leg2) = (u j2(p2) u^-1) + 0 while j1(leg1) =
    # j1(p1) + 0.  The legs disagree exactly where j1(p1) and u j2(p2) u^-1
    # do, first at the same entry and with the same residual.
    double = IdempotentCert(DoubleMatrix(diagram, leg1, leg2).verify()).verify()
    return GluedIdempotent(double, u_tilde)


def normalize_difference(p1, p2):
    """Rewrite [p1] - [p2] as [p1 + (1 - p2)] - [1_n]: returns the combined
    idempotent and the rank n of the subtracted identity.  It is built
    unverified: it is idempotent whenever p1 and p2 are, and the classes
    built from it are verified where they are glued or chained back."""
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
