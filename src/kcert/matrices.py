"""Square matrices over a localized algebra with level bookkeeping, plus the
certificate types every later construction consumes.

Invertibility is certificate-only: a matrix is "invertible" here exactly
when an explicit two-sided inverse is carried along.  A certificate is a
record: building one checks only the shapes of its factors, and verify(),
which recomputes the defining equations and returns the certificate, is the
one check of its claim.  An inverse certificate recomputes m m^-1 = 1 only:
square matrices over every carrier are Dedekind-finite, so m^-1 m = 1
follows (see InvertibleCert.verify).  Levels are recomputed from entries;
the worst-case rule level(a.b) >= min(levels) - 1 is a lower bound the
tests assert, never a substitute for recomputation.

Products are fraction-free: ``@`` checks its operands and hands them to the
carrier's own product kernel (see algebras.py), and a hom maps a matrix
through its own entrywise image, which for the quotient hom keeps every
entry of degree < deg m and reduces only the others.  The entrywise
operations do work only where an entry changes: the algebra's shared zero
and one are built once, and sums, differences and negation test the shared
zero by identity, keeping the entry it faces (negated, when it is
subtracted) and keeping the zero itself, which the product kernels skip.
"""


class MatrixError(ValueError):
    """Size or algebra mismatch in a matrix operation."""


class CertificateFailure(ValueError):
    """A certificate equation failed; carries the first offending entry."""

    def __init__(self, message, position=None, residual=None):
        super().__init__(message)
        self.position = position
        self.residual = residual


def expect_equal(lhs, rhs, what, failure=CertificateFailure):
    """Raise ``failure`` naming the first entry where lhs and rhs differ,
    with its position and residual lhs - rhs; return None when equal."""
    bad = lhs.first_mismatch(rhs)
    if bad is not None:
        raise failure(f"{what} at {bad[0]}", *bad)


class FilteredMatrix:
    __slots__ = ("algebra", "n", "rows", "_level")

    def __init__(self, algebra, rows):
        rows = tuple([tuple(row) for row in rows])
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise MatrixError("matrix must be square")
        self.algebra = algebra
        self.n = n
        self.rows = rows
        self._level = None

    @classmethod
    def _raw(cls, algebra, rows):
        """A matrix on rows that are already a tuple of n tuples of length n."""
        m = object.__new__(cls)
        m.algebra = algebra
        m.n = len(rows)
        m.rows = rows
        m._level = None
        return m

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, algebra, n):
        return cls.diag_bits(algebra, (1,) * n)

    @classmethod
    def zeros(cls, algebra, n):
        return cls._raw(algebra, ((algebra.zero(),) * n,) * n)

    @classmethod
    def diag_bits(cls, algebra, bits):
        """0/1 scalar diagonal matrix from a sequence of bits."""
        z = (algebra.zero(),)
        o = (algebra.one(),)
        n = len(bits)
        return cls._raw(
            algebra, tuple([z * i + (o if b else z) + z * (n - 1 - i) for i, b in enumerate(bits)])
        )

    # -- basics ------------------------------------------------------------

    @property
    def level(self):
        if self._level is None:
            self._level = self.algebra._matrix_level(self.rows)
        return self._level

    def _same(self, other):
        if not isinstance(other, FilteredMatrix):
            raise MatrixError("matrix expected")
        if other.algebra != self.algebra:
            raise MatrixError("algebra mismatch")
        if other.n != self.n:
            raise MatrixError(f"size mismatch {self.n} vs {other.n}")

    def __add__(self, other):
        """Entrywise sum; an entry facing the shared zero is kept as it is."""
        self._same(other)
        z = self.algebra.zero()
        return FilteredMatrix._raw(self.algebra, tuple([
            tuple([b if a is z else a if b is z else a + b for a, b in zip(ra, rb)])
            for ra, rb in zip(self.rows, other.rows)
        ]))

    def __sub__(self, other):
        """Entrywise difference; a minuend facing the shared zero is kept as
        it is, and a subtrahend facing it is only negated."""
        self._same(other)
        z = self.algebra.zero()
        return FilteredMatrix._raw(self.algebra, tuple([
            tuple([a if b is z else -b if a is z else a - b for a, b in zip(ra, rb)])
            for ra, rb in zip(self.rows, other.rows)
        ]))

    def __neg__(self):
        z = self.algebra.zero()  # kept by identity, so products still skip it
        neg = self.algebra._negate
        return FilteredMatrix._raw(self.algebra, tuple([
            tuple([z if a is z else neg(a) for a in row]) for row in self.rows
        ]))

    def __matmul__(self, other):
        """Exact product by the carrier's fraction-free kernel: every entry
        is the exact, reduced sum over k of a[i][k] * b[k][j]."""
        self._same(other)
        return self.algebra._product(self, other)

    def __eq__(self, other):
        """Rows are compared by the carrier's _rows_equal."""
        if not (
            isinstance(other, FilteredMatrix)
            and self.algebra == other.algebra
            and self.n == other.n
        ):
            return False
        return all(map(self.algebra._rows_equal, self.rows, other.rows))

    def is_zero(self):
        return all(not p for row in self.rows for p in row)

    def plus_one(self):
        """self + identity."""
        return self + FilteredMatrix.identity(self.algebra, self.n)

    # -- shape operations ----------------------------------------------------

    def direct_sum(self, other):
        if other.algebra != self.algebra:
            raise MatrixError("algebra mismatch")
        z = (self.algebra.zero(),)
        right = z * other.n
        left = z * self.n
        return FilteredMatrix._raw(
            self.algebra,
            tuple([row + right for row in self.rows] + [left + row for row in other.rows]),
        )

    def pad(self, k, fill=0):
        """The stabilization by a k-block of zeros (idempotents) or ones (invertibles)."""
        block = FilteredMatrix.zeros if fill == 0 else FilteredMatrix.identity
        return self.direct_sum(block(self.algebra, k))

    def sub_block(self, r0, r1, c0, c1):
        rows = tuple([row[c0:c1] for row in self.rows[r0:r1]])
        if rows and len(rows[0]) != len(rows):
            raise MatrixError("matrix must be square")
        return FilteredMatrix._raw(self.algebra, rows)

    def first_mismatch(self, other):
        """Position and residual of the first differing entry in row-major
        order, or None.  Rows are compared whole by the carrier's
        _rows_equal, as ``==`` compares them; only the first differing row is
        scanned entry by entry, each entry as a row of one."""
        self._same(other)
        same = self.algebra._rows_equal
        for i, (ra, rb) in enumerate(zip(self.rows, other.rows)):
            if not same(ra, rb):
                for j, (x, y) in enumerate(zip(ra, rb)):
                    if not same((x,), (y,)):
                        return (i, j), x - y
        return None


def block2(a, b, c, d):
    """Assemble [[a, b], [c, d]] from equal-size square blocks."""
    if not (a.n == b.n == c.n == d.n):
        raise MatrixError("blocks must share one size")
    return FilteredMatrix._raw(
        a.algebra,
        tuple([x + y for x, y in zip(a.rows, b.rows)] + [x + y for x, y in zip(c.rows, d.rows)]),
    )


def split2(m):
    """Split an even-size matrix into its four half-size blocks."""
    k = m.n // 2
    return (
        m.sub_block(0, k, 0, k),
        m.sub_block(0, k, k, m.n),
        m.sub_block(k, m.n, 0, k),
        m.sub_block(k, m.n, k, m.n),
    )


class InvertibleCert:
    """An invertible matrix carried together with its explicit inverse.

    The matrices may be of any square type with ``algebra``, ``n``,
    ``level``, ``@``, ``direct_sum``, ``first_mismatch`` and a classmethod
    ``identity(algebra, n)``: a FilteredMatrix, or a double matrix over a
    pullback diagram.  pad() also needs the matrices' ``pad``, which only a
    FilteredMatrix has.  verify() recomputes m m^-1 = 1, which implies
    m^-1 m = 1 (see verify).  There is no ``==``: compare the factors."""

    __slots__ = ("m", "m_inv")

    def __init__(self, m, m_inv):
        if m.algebra != m_inv.algebra or m.n != m_inv.n:
            raise MatrixError("certificate factors mismatch")
        self.m = m
        self.m_inv = m_inv

    @property
    def n(self):
        return self.m.n

    @property
    def algebra(self):
        return self.m.algebra

    @property
    def level(self):
        return min(self.m.level, self.m_inv.level)

    def verify(self):
        # One side suffices: square matrices over every carrier are
        # Dedekind-finite, so m m^-1 = 1 forces m^-1 m = 1.  Over Q, Q[x] and
        # Q[x]/(m), which are commutative, det m det m^-1 = 1 makes det m a
        # unit, so m has a two-sided inverse (adj m / det m), and a right
        # inverse equals it.  A matrix of propagation kernels on N points is
        # an nN x nN rational matrix, with the same product and unit, and
        # rational matrices are the commutative case.  A double matrix
        # multiplies leg by leg, so each leg is one of these.
        ident = type(self.m).identity(self.m.algebra, self.m.n)
        expect_equal(self.m @ self.m_inv, ident, "inverse certificate fails")
        return self

    @classmethod
    def identity(cls, algebra, n):
        ident = FilteredMatrix.identity(algebra, n)
        return cls(ident, ident)

    def inverse(self):
        return InvertibleCert(self.m_inv, self.m)

    def compose(self, other):
        """Certificate for self.m @ other.m."""
        return InvertibleCert(self.m @ other.m, other.m_inv @ self.m_inv)

    def direct_sum(self, other):
        return InvertibleCert(self.m.direct_sum(other.m), self.m_inv.direct_sum(other.m_inv))

    def pad(self, k):
        return InvertibleCert(self.m.pad(k, fill=1), self.m_inv.pad(k, fill=1))


class IdempotentCert:
    """An idempotent matrix; verify() recomputes p @ p == p.

    Takes the same matrix types as InvertibleCert; complement() also needs
    ``-``, and pad() needs a FilteredMatrix."""

    __slots__ = ("p",)

    def __init__(self, p):
        self.p = p

    @property
    def n(self):
        return self.p.n

    @property
    def algebra(self):
        return self.p.algebra

    @property
    def level(self):
        return self.p.level

    def verify(self):
        expect_equal(self.p @ self.p, self.p, "idempotent certificate fails")
        return self

    def complement(self):
        """1 - p, also idempotent."""
        return IdempotentCert(type(self.p).identity(self.p.algebra, self.p.n) - self.p)

    def pad(self, k):
        return IdempotentCert(self.p.pad(k, fill=0)) if k else self


def elementary(algebra, n, i, j, a):
    """E_ij(a): the n x n identity with a at the off-diagonal position
    (i, j); its inverse is E_ij(-a)."""
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise MatrixError("elementary matrix needs off-diagonal position")
    if not algebra.accepts(a):
        raise MatrixError("entry not in the algebra")
    rows = [list(r) for r in FilteredMatrix.identity(algebra, n).rows]
    rows[i][j] = a
    return FilteredMatrix._raw(algebra, tuple([tuple(r) for r in rows]))


def o_map(u):
    """diag(u, u^{-1}) with its inverse diag(u^{-1}, u); level preserved."""
    return InvertibleCert(u.m.direct_sum(u.m_inv), u.m_inv.direct_sum(u.m))


def o_blocks(cert):
    """The verified (alpha, alpha^{-1}) halves of a certificate of
    FilteredMatrix factors whose matrix is literally diag(alpha, alpha^{-1});
    CertificateFailure otherwise.  Its verify() checks alpha alpha^-1 = 1
    only, which forces alpha^-1 alpha = 1 (see InvertibleCert.verify)."""
    if cert.n % 2 == 0:
        a, b, c, d = split2(cert.m)
        if b.is_zero() and c.is_zero():
            return InvertibleCert(a, d).verify()
    raise CertificateFailure("certificate is not O-shaped")


def permutation_cert(algebra, perm):
    """Permutation matrix cert; conjugation pulls indices back through perm:
    (P M P^{-1})[a][b] = M[perm[a]][perm[b]]."""
    n = len(perm)
    z = algebra.zero()
    o = algebra.one()
    fwd = tuple([tuple([o if j == perm[i] else z for j in range(n)]) for i in range(n)])
    inv = tuple([tuple([o if perm[j] == i else z for j in range(n)]) for i in range(n)])
    return InvertibleCert(FilteredMatrix(algebra, fwd), FilteredMatrix(algebra, inv))


def block_swap_cert(algebra, k):
    """Plain swap of the two k-blocks: P diag(A,B) P^{-1} = diag(B,A)."""
    return permutation_cert(algebra, tuple(range(k, 2 * k)) + tuple(range(k)))


def rotation_swap_cert(algebra, k):
    """Signed rotation [[0,-1],[1,0]] in k-blocks; conjugating diag(B, A)
    by it gives diag(A, B)."""
    z = FilteredMatrix.zeros(algebra, k)
    ident = FilteredMatrix.identity(algebra, k)
    fwd = block2(z, -ident, ident, z)
    inv = block2(z, ident, -ident, z)
    return InvertibleCert(fwd, inv)


def involution_cert(p):
    """W = [[p, 1-p], [1-p, p]] from an idempotent certificate; W^2 = 1 and
    W diag(1, 0) W = p + (1 - p)."""
    q = p.complement().p
    w = block2(p.p, q, q, p.p)
    return InvertibleCert(w, w)


def apply_hom_matrix(h, m):
    """Entrywise image of a matrix under a filtered hom."""
    if m.algebra != h.source:
        raise MatrixError("matrix not over the hom's source algebra")
    return h._apply_matrix(m)


def apply_hom_invertible(h, cert):
    """Hom image of an invertible certificate; the image witnesses itself."""
    return InvertibleCert(apply_hom_matrix(h, cert.m), apply_hom_matrix(h, cert.m_inv))


def section_matrix(h, m):
    """Entrywise section lift of a matrix through a surjective hom."""
    if m.algebra != h.target:
        raise MatrixError("matrix not over the hom's target algebra")
    s = h.section_payload
    return FilteredMatrix(
        h.source, tuple([tuple([s(p) for p in row]) for row in m.rows])
    )
