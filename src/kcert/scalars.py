"""Exact scalar layer: rationals and univariate polynomials over the
rationals, and the reduction and inverse of Q[x]/(m).

The rational type is ``fractions.Fraction``, exported as ``Rat``: immutable,
always reduced, with a positive denominator, printing as "num/den"
(denominator omitted when 1).  There is one scalar type and no switch that
selects another, so the exact arithmetic every certificate rests on has a
single implementation.

A Poly holds the unique reduced integer form of its polynomial: ``nums``,
integer coefficients with no trailing zero, over one ``den`` > 0 with
gcd(den, *nums) = 1.  Sums, differences, negation, equality and products
work on these integers, and each result is reduced by one gcd of its
denominator and coefficients (``_poly_of``); no coefficient becomes a
rational.  ``coeffs`` decodes the reduced rationals for the encoders and
``__str__``.

An element of Q[x]/(m) is its reduced representative, a Poly of degree
< deg m; the modulus is held once, by its algebra.  Q[x]/(m) has one
reduction, integer pseudo-division (``_reduce_ints``): ``_remainder``
reduces a Poly's integers by it, for the quotient ring's parse, draws and
row operation and for the quotient hom, and the matrix product kernel
reduces each entry's integer list the same way.  An inverse in Q[x]/(m) is
computed over the integers as well: ``_quot_inverse`` solves the
multiplication-by-rep system by Bareiss elimination, with no Euclid loop
over rational coefficients.

Every rational that a kernel decodes from integers it computed, and every
nonzero "p/q" that ``parse_rational`` reads from a spec (a zero is the
shared ``R0``), is built by ``_reduced`` (one gcd), every reciprocal of a
nonzero rational by ``_reciprocal`` and each slot negation by ``_negated`` (no
gcd).  They set Fraction's two slots, ``_numerator`` and ``_denominator``,
on ``object.__new__(Rat)`` and so skip the type dispatch of
``Fraction.__new__``; the result is an ordinary Fraction that equals, hashes
and prints as ``Rat(c, d)`` does.  Since every rational is reduced, equal
values have equal slots, so one loop over the slots compares them with no
``Fraction.__eq__`` call.

Every hot path reads and builds a rational through these two slots, never
by a Fraction method (all are Python code): here ``encode_rational``, the
build of a Poly from rationals and the ``coeffs`` decode; in algebras.py
the Q and kernel product kernels, the Q row operation, Q-matrix equality
and negation, Kernel's arithmetic, the propagation unit inverse and the
build of a propagation algebra, so a verify request over kernels, and an
exactness or boundary request, calls no function of fractions.py.  Poly
arithmetic, the Q[x]/(m) reduction and inverse and the Q[x] and Q[x]/(m)
product kernel read no rational at all.  A test pins ``Rat.__slots__``, and
guards count the calls and the ``coeffs`` decodes.
"""

import re
from fractions import Fraction as Rat
from math import gcd, lcm

R0 = Rat(0)
R1 = Rat(1)

# ASCII digits only: \d would also accept any Unicode decimal digit.
_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")

_new = object.__new__


def _reduced(c, d):
    """Rat(c, d) for ints c and d > 0: one gcd, then Fraction's two slots."""
    g = gcd(c, d)
    if g != 1:
        c //= g
        d //= g
    v = _new(Rat)
    v._numerator = c
    v._denominator = d
    return v


def _reciprocal(v):
    """1 / v for a nonzero Rat v: numerator and denominator swap and the sign
    moves to the new numerator; they stay coprime, so there is no gcd."""
    n = v._numerator
    r = _new(Rat)
    if n < 0:
        r._numerator = -v._denominator
        r._denominator = -n
    else:
        r._numerator = v._denominator
        r._denominator = n
    return r


def _negated(v):
    """-v for a Rat v: v's denominator stays coprime, so there is no gcd."""
    r = _new(Rat)
    r._numerator = -v._numerator
    r._denominator = v._denominator
    return r


class NotInvertible(Exception):
    """Raised when an element of Q[x]/(m) has no multiplicative inverse."""


def rat(value, den=None):
    """Build a scalar from an int, a 'p/q' string, or another scalar."""
    if den is not None:
        return Rat(value, den)
    if isinstance(value, Rat):
        return value
    return Rat(value)


def parse_rational(text):
    """Parse the canonical 'p/q' encoding, rejecting malformed input."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise ValueError(f"malformed rational {text!r}")
    p, _, q = text.strip().partition("/")
    p, q = int(p), int(q or 1)
    if not q:
        raise ValueError(f"malformed rational {text!r} (zero denominator)")
    return _reduced(p, q) if p else R0


def encode_rational(value):
    """Canonical text encoding, the text of ``str(value)`` built from the two
    slots; round-trips through parse_rational."""
    n = value._numerator
    d = value._denominator
    return f"{n}/{d}" if d != 1 else str(n)


class Poly:
    """Univariate polynomial over the scalars, held as its reduced integer
    form: ``nums``, integer coefficients lowest degree first with no
    trailing zero, over ``den`` > 0 with gcd(den, *nums) = 1, so equal
    polynomials have equal forms.  () over 1 is the zero polynomial."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Rat) else rat(c) for c in coeffs]
        while cs and not cs[-1]._numerator:
            cs.pop()
        # Over the lcm of reduced rationals' denominators the form is
        # reduced: the highest power of each prime in den divides some
        # coefficient's own denominator, and not its scaled numerator.
        den = lcm(*[c._denominator for c in cs])
        self.nums = tuple([c._numerator * (den // c._denominator) for c in cs])
        self.den = den

    @classmethod
    def zero(cls):
        return _P_ZERO

    @classmethod
    def one(cls):
        return _P_ONE

    @classmethod
    def const(cls, value):
        v = rat(value)
        return _poly((v._numerator,), v._denominator) if v._numerator else _P_ZERO

    @property
    def coeffs(self):
        """The coefficients as reduced rationals, lowest degree first."""
        den = self.den
        return tuple([_reduced(c, den) if c else R0 for c in self.nums])

    @property
    def degree(self):
        return len(self.nums) - 1

    def is_monic(self):
        nums = self.nums
        return bool(nums) and nums[-1] == self.den

    def __bool__(self):
        return bool(self.nums)

    def __add__(self, other):
        return _poly_sum(self, other, False)

    def __sub__(self, other):
        return _poly_sum(self, other, True)

    def __neg__(self):
        nums = self.nums
        return _poly(tuple([-c for c in nums]), self.den) if nums else _P_ZERO

    def __mul__(self, other):
        a, b = self.nums, other.nums
        if not a or not b:
            return _P_ZERO
        return _poly_of(_int_product(a, b), self.den * other.den)

    def __eq__(self, other):
        # Both forms are reduced, so equal values have equal forms.
        return self is other or (
            isinstance(other, Poly) and self.den == other.den and self.nums == other.nums
        )

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x" if c != R1 else "x")
            else:
                parts.append(f"{c}*x^{i}" if c != R1 else f"x^{i}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Poly([{', '.join(str(c) for c in self.coeffs)}])"


def _poly(nums, den):
    """The Poly on a form that is already reduced."""
    p = _new(Poly)
    p.nums = nums
    p.den = den
    return p


_P_ZERO = _poly((), 1)
_P_ONE = _poly((1,), 1)


def _poly_of(c, den):
    """The Poly with coefficients c[i] / den, for an integer list c and
    den > 0, in its reduced form: trailing zeros are stripped from c in
    place, and c and den are divided by one gcd(den, *c).  The zero
    polynomial is the shared zero."""
    while c and not c[-1]:
        c.pop()
    if not c:
        return _P_ZERO
    if den != 1:
        g = gcd(den, *c)
        if g != 1:
            return _poly(tuple([v // g for v in c]), den // g)
    return _poly(tuple(c), den)


def _poly_sum(a, b, subtract):
    """The Poly a + b, or a - b when subtract: the two forms are brought to
    one denominator, rescaling only a side whose den differs, the integers
    are added, and the result is reduced by one gcd (see _poly_of).  Only
    equal lengths can cancel at the top."""
    x, y = a.nums, b.nums
    den = a.den
    if den != b.den:
        g = gcd(den, b.den)
        fx, fy = b.den // g, den // g
        if fx != 1:
            x = [v * fx for v in x]
        if fy != 1:
            y = [v * fy for v in y]
        den *= fx
    if subtract:
        c = [u - v for u, v in zip(x, y)]
    else:
        c = [u + v for u, v in zip(x, y)]
    la, lb = len(x), len(y)
    if la > lb:
        c += x[lb:]
    elif lb > la:
        c += [-v for v in y[la:]] if subtract else y[la:]
    return _poly_of(c, den)


def _remainder(p, m_int):
    """The remainder mod m of the Poly p, for m_int the integer form of m
    (see _reduce_ints): the one reduction of Q[x] -> Q[x]/(m), by integer
    pseudo-division."""
    c = list(p.nums)
    return _poly_of(c, p.den * _reduce_ints(c, m_int))


def _int_product(a, b):
    """Convolution of two nonempty integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                out[k] += x * y
    return out


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


def _bareiss_solve(rows):
    """Solve the square integer system held in ``rows`` (each row the
    coefficients followed by the right-hand side) by fraction-free Gaussian
    elimination (Bareiss, Math. Comp. 22, 1968), in place.  Returns
    (xs, det) with solution xs[i] / det, or None when the matrix is
    singular.  Every division is exact: each eliminated entry is a minor
    of the input, and each det * x_i a Cramer numerator."""
    n = len(rows)
    prev = 1
    for k in range(n):
        if not rows[k][k]:
            for r in range(k + 1, n):
                if rows[r][k]:
                    rows[k], rows[r] = rows[r], rows[k]
                    break
            else:
                return None
        pivot_row = rows[k]
        p = pivot_row[k]
        for r in range(k + 1, n):
            row = rows[r]
            f = row[k]
            for c in range(k + 1, n + 1):
                row[c] = (p * row[c] - f * pivot_row[c]) // prev
        prev = p
    det = prev
    xs = [0] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        acc = det * row[n]
        for j in range(i + 1, n):
            acc -= row[j] * xs[j]
        xs[i] = acc // row[i]
    return xs, det


def _quot_inverse(rep, modulus):
    """The inverse of rep, a Poly of degree < deg m, in Q[x]/(m) for a
    monic modulus m, or NotInvertible when rep is zero or shares a factor
    with m.

    The inverse s solves rep * s = 1 mod m, a d x d linear system over the
    basis 1, x, ..., x^(d-1): column k is x^k * rep mod m.  Each column is
    kept as integers times its own positive scale (the denominator of rep,
    times e per pseudo-division step by a non-integral m scaled to e * m),
    and the system is solved by Bareiss elimination.  It is singular exactly
    when gcd(rep, m) != 1, since its determinant is the resultant of m and
    rep."""
    if len(rep.nums) == 1:
        n = rep.nums[0]
        return _poly((-rep.den,), -n) if n < 0 else _poly((rep.den,), n)
    d = modulus.degree
    m_int = modulus.nums
    scale = rep.den
    col = list(rep.nums) + [0] * (d - len(rep.nums))
    cols = [col]
    scales = [scale]
    for _ in range(1, d):
        col = [0] + col
        scale *= _reduce_ints(col, m_int)
        cols.append(col)
        scales.append(scale)
    rows = [[c[r] for c in cols] + [0] for r in range(d)]
    rows[0][d] = 1
    solved = _bareiss_solve(rows)
    if solved is None:
        raise NotInvertible("representative shares a factor with the modulus")
    xs, det = solved
    if det < 0:
        det = -det
        xs = [-x for x in xs]
    return _poly_of([x * k for x, k in zip(xs, scales)], det)
