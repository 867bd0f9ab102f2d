"""Square matrices over a localized algebra with level bookkeeping, plus the
certificate types every later construction consumes.

Invertibility is certificate-only: a matrix is "invertible" here exactly
when an explicit two-sided inverse is carried along, and verify() recomputes
the defining equations rather than trusting them.  Levels are recomputed
from entries; the worst-case rule level(a.b) >= min(levels) - 1 is a lower
bound the tests assert, never a substitute for recomputation.

Products are fraction-free, with one kernel per carrier (cf. Bareiss, Math.
Comp. 22, 1968).  Each operand is read once as integers over the lcm of all
its denominators; the kernel multiplies and adds plain ints over the
nonzero entries only and builds each result coefficient once as
``Rat(c, da * db)``, one gcd per coefficient instead of a reduced rational
multiply and add per term.  Over Q the integers form an n x n grid; kernels
on |X| points form a sparse (n|X|) x (n|X|) block matrix; over Q[x] each
entry accumulates an integer coefficient list, and over Q[x]/(m) that list
is reduced mod m once per entry, by integer pseudo-division; reducing the
sum instead of each term is exact because reduction mod m is a ring map.
Payloads stay reduced, so equality, hashing and encodings do not depend on
how a product was computed.

A Q[x] or Q[x]/(m) matrix carries that integer form across operations: the
private slot ``_ints`` holds, per row, the (column, integer coefficient
list) of each nonzero entry over one common denominator.  It is filled the
first time the matrix is a product operand, so a matrix reused in a chain
or a certificate is converted once.  A product seeds it on its result from
the integer lists it already holds: they sit over d = da * db, and since
lcm_i(d / gcd(d, c_i)) = d / gcd(d, c_1, ..., c_k), dividing d and every
coefficient by g = gcd(d, c_1, ..., c_k) gives exactly the form a fresh
conversion of the decoded entries would.  A reduction by a non-integral
monic m scales entries by different powers of its leading integer
coefficient; such a product leaves the slot empty.  The quotient hom
Q[x] -> Q[x]/(m) maps a matrix through the same form: entries of degree
< deg m are kept, the others are reduced by integer pseudo-division on a
copy of the carried list, and each image entry is decoded once.  The
carried lists are shared and never mutated.
"""

from math import gcd, lcm

from .algebras import PROPAGATION, QUOTIENT, TRIVIAL, AlgebraElement, Kernel
from .scalars import R0, R1, Poly, QuotElem, Rat, _integer_coeffs, rat


class MatrixError(ValueError):
    """Size or algebra mismatch in a matrix operation."""


class CertificateFailure(ValueError):
    """A certificate equation failed; carries the first offending entry."""

    def __init__(self, message, position=None, residual=None):
        super().__init__(message)
        self.position = position
        self.residual = residual


class FilteredMatrix:
    __slots__ = ("algebra", "n", "rows", "_level", "_ints")

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
        self._ints = None

    @classmethod
    def _raw(cls, algebra, rows):
        """A matrix on rows that are already a tuple of n tuples of length n."""
        m = object.__new__(cls)
        m.algebra = algebra
        m.n = len(rows)
        m.rows = rows
        m._level = None
        m._ints = None
        return m

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, algebra, n):
        return cls.scalar_diag(algebra, R1, n)

    @classmethod
    def zeros(cls, algebra, n):
        return cls._raw(algebra, ((algebra.zero(),) * n,) * n)

    @classmethod
    def scalar_diag(cls, algebra, value, n):
        z = (algebra.zero(),)
        v = (algebra.from_rational(rat(value)),)
        return cls._raw(algebra, tuple([z * i + v + z * (n - 1 - i) for i in range(n)]))

    @classmethod
    def diag_bits(cls, algebra, bits):
        """0/1 scalar diagonal matrix from an iterable of bits."""
        z = algebra.zero()
        o = algebra.one()
        bits = tuple(bits)
        n = len(bits)
        return cls(
            algebra,
            tuple(
                tuple((o if bits[i] else z) if i == j else z for j in range(n))
                for i in range(n)
            ),
        )

    @classmethod
    def from_elements(cls, algebra, grid):
        rows = []
        for row in grid:
            out = []
            for e in row:
                if isinstance(e, AlgebraElement):
                    if e.algebra != algebra:
                        raise MatrixError("mixed-algebra entries")
                    out.append(e.payload)
                else:
                    out.append(algebra.element(e).payload)
            rows.append(tuple(out))
        return cls(algebra, rows)

    # -- basics ------------------------------------------------------------

    @property
    def level(self):
        if self._level is None:
            algebra = self.algebra
            if algebra._levels is None:
                # Without a level table every payload sits at max_level.
                self._level = algebra.max_level
            else:
                deg = algebra.degree
                self._level = min(
                    (deg(p) for row in self.rows for p in row), default=algebra.max_level
                )
        return self._level

    def entry(self, i, j):
        return AlgebraElement(self.algebra, self.rows[i][j])

    def _same(self, other):
        if not isinstance(other, FilteredMatrix):
            raise MatrixError("matrix expected")
        if other.algebra != self.algebra:
            raise MatrixError("algebra mismatch")
        if other.n != self.n:
            raise MatrixError(f"size mismatch {self.n} vs {other.n}")

    def __add__(self, other):
        self._same(other)
        return FilteredMatrix._raw(self.algebra, tuple([
            tuple([a + b for a, b in zip(ra, rb)])
            for ra, rb in zip(self.rows, other.rows)
        ]))

    def __sub__(self, other):
        self._same(other)
        return FilteredMatrix._raw(self.algebra, tuple([
            tuple([a - b for a, b in zip(ra, rb)])
            for ra, rb in zip(self.rows, other.rows)
        ]))

    def __neg__(self):
        return FilteredMatrix._raw(
            self.algebra, tuple([tuple([-a for a in row]) for row in self.rows])
        )

    def __matmul__(self, other):
        """Exact product by the carrier's fraction-free kernel: each operand
        is read as integers over one common denominator (over Q[x] and
        Q[x]/(m) once per matrix), only nonzero entries are multiplied, and
        each result coefficient is built once (see the module docstring).  Every entry is the exact, reduced
        sum over k of a[i][k] * b[k][j]."""
        self._same(other)
        algebra = self.algebra
        if algebra.kind == TRIVIAL:
            return FilteredMatrix._raw(algebra, _rational_product(self.rows, other.rows))
        if algebra.kind == PROPAGATION:
            return FilteredMatrix._raw(algebra, _kernel_product(self.rows, other.rows, algebra))
        return _poly_product(self, other)

    def __eq__(self, other):
        return (
            isinstance(other, FilteredMatrix)
            and self.algebra == other.algebra
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.algebra, self.rows))

    def is_zero(self):
        return all(not p for row in self.rows for p in row)

    def scale(self, value):
        v = self.algebra.from_rational(rat(value))
        return FilteredMatrix(
            self.algebra, tuple(tuple(v * p for p in row) for row in self.rows)
        )

    def plus_scalar(self, value):
        """self + value * identity."""
        return self + FilteredMatrix.scalar_diag(self.algebra, value, self.n)

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
        """Stabilize by a k-block of zeros (idempotents) or ones (invertibles)."""
        if k == 0:
            return self
        block = (
            FilteredMatrix.zeros(self.algebra, k)
            if fill == 0
            else FilteredMatrix.scalar_diag(self.algebra, fill, k)
        )
        return self.direct_sum(block)

    def sub_block(self, r0, r1, c0, c1):
        rows = tuple([row[c0:c1] for row in self.rows[r0:r1]])
        if rows and len(rows[0]) != len(rows):
            raise MatrixError("matrix must be square")
        return FilteredMatrix._raw(self.algebra, rows)

    def first_mismatch(self, other):
        """Position and residual of the first differing entry in row-major
        order, or None.  Rows are compared whole; only the first differing
        row is scanned entry by entry."""
        self._same(other)
        for i, (ra, rb) in enumerate(zip(self.rows, other.rows)):
            if ra != rb:
                for j, (x, y) in enumerate(zip(ra, rb)):
                    if x != y:
                        return (i, j), x - y
        return None

    def __repr__(self):
        return f"FilteredMatrix(n={self.n}, level={self.level}, kind={self.algebra.kind})"


# -- fraction-free product kernels ----------------------------------------------
# Each returns the product's rows.  An operand is read once: its common
# denominator is the lcm over all of its rational coefficients, and each
# coefficient becomes the integer numerator * (den // denominator).


def _rational_product(a, b):
    """Q: an n x n integer grid product over the nonzero entries."""
    da = lcm(*[x.denominator for row in a for x in row])
    db = lcm(*[x.denominator for row in b for x in row])
    b_nonzero = [
        [(j, y.numerator * (db // y.denominator)) for j, y in enumerate(row) if y]
        for row in b
    ]
    d = da * db
    n = len(a)
    out = []
    for row in a:
        acc = [0] * n
        for x, brow in zip(row, b_nonzero):
            if x:
                x = x.numerator * (da // x.denominator)
                for j, y in brow:
                    acc[j] += x * y
        out.append(tuple([Rat(c, d) if c else R0 for c in acc]))
    return tuple(out)


def _kernel_product(a, b, algebra):
    """Kernels on the algebra's points: a sparse (n*points) x (n*points)
    integer block product.  Row k of B is indexed by point when a nonzero
    entry of A's block column k first needs it, and the common denominators
    and the row's sums are set up only when a nonzero row of B is met; the
    sums are keyed by (block column, point pair) and only nonzero sums are
    kept."""
    points = algebra.space.size
    zero = algebra.zero()
    n = len(a)
    b_index = [None] * n
    da = db = None
    out = []
    for row in a:
        # acc[j] maps s * points + r to the integer sum for pair (s, r).
        acc = None
        for k, p in enumerate(row):
            if not p.table:
                continue
            index = b_index[k]
            if index is None:
                # () marks a zero row of B: it contributes no term.
                index = ()
                for j, e in enumerate(b[k]):
                    if e.table:
                        if not index:
                            index = [[] for _ in range(points)]
                            if db is None:
                                db = _kernel_den(b)
                        for (q, r), w in e.table.items():
                            index[q].append((j, r, w.numerator * (db // w.denominator)))
                b_index[k] = index
            if not index:
                continue
            if acc is None:
                acc = [{} for _ in range(n)]
                if da is None:
                    da = _kernel_den(a)
            for (s, q), v in p.table.items():
                terms = index[q]
                if terms:
                    v = v.numerator * (da // v.denominator)
                    key = s * points
                    for j, r, w in terms:
                        t = acc[j]
                        t[key + r] = t.get(key + r, 0) + v * w
        if acc is None:
            out.append((zero,) * n)
            continue
        d = da * db
        entries = []
        for t in acc:
            table = {divmod(key, points): Rat(c, d) for key, c in t.items() if c}
            entries.append(Kernel._raw(table) if table else zero)
        out.append(tuple(entries))
    return tuple(out)


def _kernel_den(rows):
    """The lcm of the denominators of every kernel value in rows."""
    return lcm(*[v.denominator for row in rows for p in row for v in p.table.values()])


def _poly_ints(m):
    """The integer form of a Q[x] or Q[x]/(m) matrix, computed on first use
    and carried on the matrix: per row the (column, integer coefficient
    list) of each nonzero entry, over den, the lcm of all coefficient
    denominators.  The lists are shared by every later reader, so none may
    mutate them."""
    ints = m._ints
    if ints is None:
        rows = m.rows
        if m.algebra.modulus is not None:
            rows = [[e.rep for e in row] for row in rows]
        den = lcm(*[c.denominator for row in rows for p in row for c in p.coeffs])
        ints = m._ints = [
            [
                (j, [c.numerator * (den // c.denominator) for c in p.coeffs])
                for j, p in enumerate(row)
                if p.coeffs
            ]
            for row in rows
        ], den
    return ints


def _poly_product(a, b):
    """Q[x] and Q[x]/(m): each entry accumulates an integer coefficient
    list; over Q[x]/(m) the finished list is reduced mod m once.  The
    product carries its own integer form, divided by the gcd of the common
    denominator and all coefficients, unless a reduction scaled an entry."""
    algebra = a.algebra
    modulus = algebra.modulus
    na, da = _poly_ints(a)
    nb, db = _poly_ints(b)
    d = da * db
    if modulus is not None:
        m_int = _integer_coeffs(modulus.coeffs)[0]
    zero = algebra.zero()
    n = a.n
    g = d
    seed = True
    out = []
    out_ints = []
    for arow in na:
        acc = [None] * n
        for k, p in arow:
            for j, q in nb[k]:
                c = acc[j]
                size = len(p) + len(q) - 1
                if c is None:
                    c = acc[j] = [0] * size
                elif len(c) < size:
                    c.extend([0] * (size - len(c)))
                for s, x in enumerate(p):
                    if x:
                        for t, y in enumerate(q, s):
                            c[t] += x * y
        entries = []
        ints = []
        for j, c in enumerate(acc):
            den = d
            if c and modulus is not None:
                scale = _reduce_ints(c, m_int)
                if scale != 1:
                    den *= scale
                    seed = False
            while c and not c[-1]:
                c.pop()
            if not c:
                entries.append(zero)
                continue
            if g != 1:
                g = gcd(g, *c)
            ints.append((j, c))
            poly = Poly._raw(tuple([Rat(v, den) if v else R0 for v in c]))
            entries.append(poly if modulus is None else QuotElem._reduced(modulus, poly))
        out.append(tuple(entries))
        out_ints.append(ints)
    product = FilteredMatrix._raw(algebra, tuple(out))
    if seed:
        # lcm_i(d / gcd(d, c_i)) = d / gcd(d, c_1, ..., c_k): this is the
        # form _poly_ints would compute from the decoded entries.
        if g != 1:
            out_ints = [[(j, [v // g for v in c]) for j, c in row] for row in out_ints]
        product._ints = out_ints, d // g
    return product


def _reduce_ints(c, m_int):
    """Reduce the integer coefficient list c in place modulo m_int, an
    integer multiple e * m of a monic m (e = m_int[-1]), by pseudo-division:
    each step replaces c by e * c - q * x^k * m_int, which clears the top
    coefficient.  Returns e ** steps: c / e ** steps is then the remainder
    of the input mod m."""
    e = m_int[-1]
    dm = len(m_int) - 1
    scale = 1
    for i in range(len(c) - 1, dm - 1, -1):
        q = c[i]
        if q:
            if e != 1:
                for t in range(i):
                    c[t] *= e
                scale *= e
            for k in range(dm):
                c[i - dm + k] -= q * m_int[k]
    del c[dm:]
    return scale


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
    if m.n % 2:
        raise MatrixError("odd size cannot split into 2x2 blocks")
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
    ``level``, ``@``, ``==``, ``direct_sum``, ``pad``, ``first_mismatch`` and
    a classmethod ``identity(algebra, n)``: a FilteredMatrix, or a double
    matrix over a pullback diagram."""

    __slots__ = ("m", "m_inv")

    def __init__(self, m, m_inv, check=True):
        if m.algebra != m_inv.algebra or m.n != m_inv.n:
            raise MatrixError("certificate factors mismatch")
        self.m = m
        self.m_inv = m_inv
        if check:
            self.verify()

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
        ident = type(self.m).identity(self.m.algebra, self.m.n)
        bad = (self.m @ self.m_inv).first_mismatch(ident)
        if bad is None:
            bad = (self.m_inv @ self.m).first_mismatch(ident)
        if bad is not None:
            raise CertificateFailure(
                f"inverse certificate fails at {bad[0]}", bad[0], bad[1]
            )
        return self

    @classmethod
    def identity(cls, algebra, n):
        ident = FilteredMatrix.identity(algebra, n)
        return cls(ident, ident, check=False)

    @classmethod
    def from_unit_diag(cls, algebra, units):
        """Diagonal invertible from (payload, inverse payload) pairs."""
        z = algebra.zero()
        n = len(units)
        fwd = FilteredMatrix(
            algebra,
            tuple(
                tuple(units[i][0] if i == j else z for j in range(n))
                for i in range(n)
            ),
        )
        bwd = FilteredMatrix(
            algebra,
            tuple(
                tuple(units[i][1] if i == j else z for j in range(n))
                for i in range(n)
            ),
        )
        return cls(fwd, bwd, check=False)

    def inverse(self):
        return InvertibleCert(self.m_inv, self.m, check=False)

    def compose(self, other):
        """Certificate for self.m @ other.m."""
        if other.algebra != self.algebra:
            raise MatrixError("algebra mismatch")
        return InvertibleCert(
            self.m @ other.m, other.m_inv @ self.m_inv, check=False
        )

    def direct_sum(self, other):
        return InvertibleCert(
            self.m.direct_sum(other.m),
            self.m_inv.direct_sum(other.m_inv),
            check=False,
        )

    def pad(self, k):
        if k == 0:
            return self
        return InvertibleCert(self.m.pad(k, fill=1), self.m_inv.pad(k, fill=1), check=False)

    def __eq__(self, other):
        return (
            isinstance(other, InvertibleCert)
            and self.m == other.m
            and self.m_inv == other.m_inv
        )

    def __hash__(self):
        return hash((self.m, self.m_inv))

    def __repr__(self):
        return f"InvertibleCert(n={self.n}, level={self.level})"


class IdempotentCert:
    """An idempotent matrix; verify() recomputes p @ p == p.

    Takes the same matrix types as InvertibleCert; complement() also needs
    ``-``."""

    __slots__ = ("p",)

    def __init__(self, p, check=True):
        self.p = p
        if check:
            self.verify()

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
        bad = (self.p @ self.p).first_mismatch(self.p)
        if bad is not None:
            raise CertificateFailure(
                f"idempotent certificate fails at {bad[0]}", bad[0], bad[1]
            )
        return self

    def complement(self):
        """1 - p, also idempotent."""
        return IdempotentCert(
            type(self.p).identity(self.p.algebra, self.p.n) - self.p, check=False
        )

    def direct_sum(self, other):
        return IdempotentCert(self.p.direct_sum(other.p), check=False)

    def pad(self, k):
        return IdempotentCert(self.p.pad(k, fill=0), check=False) if k else self

    def __eq__(self, other):
        return isinstance(other, IdempotentCert) and self.p == other.p

    def __hash__(self):
        return hash(self.p)

    def __repr__(self):
        return f"IdempotentCert(n={self.n}, level={self.level})"


class ElementaryMatrix:
    """Identity plus one off-diagonal entry; always invertible."""

    __slots__ = ("algebra", "n", "i", "j", "entry")

    def __init__(self, algebra, n, i, j, entry):
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise MatrixError("elementary matrix needs off-diagonal position")
        if isinstance(entry, AlgebraElement):
            entry = entry.payload
        if not algebra.accepts(entry):
            raise MatrixError("entry not in the algebra")
        self.algebra = algebra
        self.n = n
        self.i = i
        self.j = j
        self.entry = entry

    def expand(self):
        m = FilteredMatrix.identity(self.algebra, self.n)
        rows = [list(r) for r in m.rows]
        rows[self.i][self.j] = self.entry
        return FilteredMatrix(self.algebra, rows)

    def negated(self):
        return ElementaryMatrix(self.algebra, self.n, self.i, self.j, -self.entry)

    def _same(self, m):
        if m.algebra != self.algebra or m.n != self.n:
            raise MatrixError("elementary matrix and operand mismatch")

    def right_mul(self, m):
        """m @ E as one column operation: column j += column i * entry,
        touching only the rows where column i is nonzero."""
        self._same(m)
        i, j, a = self.i, self.j, self.entry
        return FilteredMatrix._raw(self.algebra, tuple([
            row[:j] + (row[j] + row[i] * a,) + row[j + 1:] if row[i] else row
            for row in m.rows
        ]))

    def left_mul(self, m):
        """E @ m as one row operation: row i += entry * row j, touching only
        the columns where row j is nonzero."""
        self._same(m)
        i, j, a = self.i, self.j, self.entry
        rows = list(m.rows)
        rows[i] = tuple([x + a * y if y else x for x, y in zip(rows[i], rows[j])])
        return FilteredMatrix._raw(self.algebra, tuple(rows))


def elementary_expand(e):
    """Invertible certificate E(a) with inverse E(-a)."""
    return InvertibleCert(e.expand(), e.negated().expand(), check=False)


def conjugate(p, u):
    """u p u^{-1}; conjugating an idempotent certificate re-certifies it."""
    if isinstance(p, IdempotentCert):
        return IdempotentCert(u.m @ p.p @ u.m_inv, check=True)
    if isinstance(p, FilteredMatrix):
        return u.m @ p @ u.m_inv
    raise MatrixError("conjugate expects a matrix or idempotent certificate")


def o_map(u):
    """diag(u, u^{-1}) with its inverse diag(u^{-1}, u); level preserved."""
    return InvertibleCert(
        u.m.direct_sum(u.m_inv), u.m_inv.direct_sum(u.m), check=False
    )


def is_o_shaped(cert):
    """True when cert is literally diag(alpha, alpha^{-1}) on half blocks;
    the matrices also need ``sub_block`` and ``is_zero``."""
    if cert.n % 2:
        return False
    a, b, c, d = split2(cert.m)
    if not (b.is_zero() and c.is_zero()):
        return False
    ident = type(cert.m).identity(cert.algebra, a.n)
    return (a @ d) == ident and (d @ a) == ident


def o_blocks(cert):
    """The (alpha, alpha^{-1}) halves of an O-shaped certificate."""
    if not is_o_shaped(cert):
        raise CertificateFailure("certificate is not O-shaped")
    a, _, _, d = split2(cert.m)
    return InvertibleCert(a, d, check=False)


def permutation_cert(algebra, perm):
    """Permutation matrix cert; conjugation pulls indices back through perm:
    (P M P^{-1})[a][b] = M[perm[a]][perm[b]]."""
    n = len(perm)
    z = algebra.zero()
    o = algebra.one()
    fwd = tuple(
        tuple(o if j == perm[i] else z for j in range(n)) for i in range(n)
    )
    inv = tuple(
        tuple(o if perm[j] == i else z for j in range(n)) for i in range(n)
    )
    return InvertibleCert(
        FilteredMatrix(algebra, fwd), FilteredMatrix(algebra, inv), check=False
    )


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
    return InvertibleCert(fwd, inv, check=False)


def involution_cert(p):
    """W = [[p, 1-p], [1-p, p]] from an idempotent certificate; W^2 = 1 and
    W diag(1, 0) W = p + (1 - p)."""
    q = p.complement().p
    w = block2(p.p, q, q, p.p)
    return InvertibleCert(w, w, check=False)


def apply_hom_matrix(h, m):
    """Entrywise image of a matrix under a filtered hom."""
    if m.algebra != h.source:
        raise MatrixError("matrix not over the hom's source algebra")
    if h.kind == QUOTIENT:
        return _quotient_image(m, h.target)
    f = h.apply_payload
    return FilteredMatrix(
        h.target, tuple(tuple(f(p) for p in row) for row in m.rows)
    )


def _quotient_image(m, target):
    """Image of a Q[x] matrix in Q[x]/(m): entries of degree < deg m are
    kept as they are; the others are reduced from the matrix's integer
    form by integer pseudo-division, on a copy of the carried list, and
    decoded once."""
    modulus = target.modulus
    dm = modulus.degree
    m_int = _integer_coeffs(modulus.coeffs)[0]
    zero = target.zero()
    int_rows, den = _poly_ints(m)
    out = []
    for row, irow in zip(m.rows, int_rows):
        entries = [zero] * m.n
        for j, c in irow:
            if len(c) <= dm:
                entries[j] = QuotElem._reduced(modulus, row[j])
                continue
            c = list(c)
            scale = _reduce_ints(c, m_int)
            while c and not c[-1]:
                c.pop()
            if c:
                d = den * scale
                poly = Poly._raw(tuple([Rat(v, d) if v else R0 for v in c]))
                entries[j] = QuotElem._reduced(modulus, poly)
        out.append(tuple(entries))
    return FilteredMatrix._raw(target, tuple(out))


def apply_hom_invertible(h, cert):
    """Hom image of an invertible certificate; the image witnesses itself."""
    return InvertibleCert(
        apply_hom_matrix(h, cert.m), apply_hom_matrix(h, cert.m_inv), check=False
    )


def apply_hom_idempotent(h, cert):
    return IdempotentCert(apply_hom_matrix(h, cert.p), check=False)


def section_matrix(h, m):
    """Entrywise section lift of a matrix through a surjective hom."""
    if m.algebra != h.target:
        raise MatrixError("matrix not over the hom's target algebra")
    s = h.section_payload
    return FilteredMatrix(
        h.source, tuple(tuple(s(p) for p in row) for row in m.rows)
    )
