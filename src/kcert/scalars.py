"""Exact scalar layer: rationals, univariate polynomials and quotient-ring
elements over the rationals.

The rational type is ``fractions.Fraction``, exported as ``Rat``: immutable,
always reduced, with a positive denominator, printing as "num/den"
(denominator omitted when 1).  There is one scalar type and no switch that
selects another, so the exact arithmetic every certificate rests on has a
single implementation.

A polynomial product is fraction-free: each operand's coefficients are
scaled to integers over the lcm of its denominators, the integers are
convolved, and each result coefficient is built once by ``_reduced(c, da *
db)``, one gcd per coefficient instead of a reduced Fraction multiply and
add per pair of coefficients.  Coefficients stay reduced rationals, so
equality, hashing and encodings match a schoolbook product.  An inverse in
Q[x]/(m) is computed over the integers as well: QuotElem.invert solves the
multiplication-by-rep system by Bareiss elimination, with no Euclid loop
over Fraction coefficients.

Every rational that a kernel decodes from integers it computed, and every
nonzero "p/q" that ``parse_rational`` reads from a spec (a zero is the
shared ``R0``), is built by ``_reduced`` (one gcd), and every reciprocal of
a nonzero rational by ``_reciprocal`` (no gcd).  Both set Fraction's two
slots, ``_numerator`` and ``_denominator``, on ``object.__new__(Rat)`` and
so skip the type dispatch of ``Fraction.__new__``; the result is an
ordinary Fraction that equals, hashes and prints as ``Rat(c, d)`` does.
Since every rational is reduced, equal values have equal slots, so one loop
over the slots compares them with no ``Fraction.__eq__`` call.

Every hot path reads a rational through these two slots, never through the
``numerator`` and ``denominator`` properties or ``Fraction.__eq__``,
``__neg__`` and ``__bool__``, which are Python code: here ``_integer_coeffs``,
``encode_rational``, ``Poly.__neg__`` and ``Poly.__eq__``; in algebras.py the
product kernels and ``_poly_ints``, the Q row operation
``TrivialAlgebra._add_multiple``, Q-matrix equality
``TrivialAlgebra._rows_equal``, and the zero filter, negation and equality of
``Kernel``.  A test pins ``Rat.__slots__``, and a guard counts the property
and dunder calls those paths make on the benchmark's requests.
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


class NotInvertible(Exception):
    """Raised when a quotient-ring element has no multiplicative inverse."""


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
    """Univariate polynomial over the scalars, coefficients lowest degree
    first with no trailing zero; () is the zero polynomial."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Rat) else rat(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _raw(cls, coeffs):
        p = object.__new__(cls)
        p.coeffs = coeffs
        return p

    @classmethod
    def zero(cls):
        return _P_ZERO

    @classmethod
    def one(cls):
        return _P_ONE

    @classmethod
    def const(cls, value):
        v = rat(value)
        return cls._raw((v,)) if v else _P_ZERO

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == R1

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        while out and not out[-1]:
            out.pop()
        return Poly._raw(tuple(out))

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        # -c keeps c's coprime denominator, so there is no gcd.
        out = []
        for c in self.coeffs:
            v = _new(Rat)
            v._numerator = -c._numerator
            v._denominator = c._denominator
            out.append(v)
        return Poly._raw(tuple(out))

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _P_ZERO
        na, da = _integer_coeffs(a)
        nb, db = _integer_coeffs(b)
        out = _int_product(na, nb)
        d = da * db
        # out[-1] = na[-1] * nb[-1] is nonzero, so there is no trailing zero.
        # A list, not a generator: tuple(<genexpr>) over-allocates and
        # resizes, which churns the interpreter's tuple freelists and shows
        # as peak RSS.
        return Poly._raw(tuple([_reduced(c, d) if c else R0 for c in out]))

    def divmod_by(self, divisor):
        """Exact division with remainder; divisor must be nonzero."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dc = divisor.coeffs
        dd = len(dc) - 1
        lead = dc[-1]
        quot = [R0] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if not c:
                continue
            q = c / lead
            quot[i - dd] = q
            for k in range(dd + 1):
                rem[i - dd + k] = rem[i - dd + k] - q * dc[k]
        while rem and not rem[-1]:
            rem.pop()
        while quot and not quot[-1]:
            quot.pop()
        return Poly._raw(tuple(quot)), Poly._raw(tuple(rem))

    def __eq__(self, other):
        # Coefficients are reduced Fractions, so equal values have equal
        # slots: one loop over the slots, with no Fraction.__eq__ call.
        if self is other:
            return True
        if not isinstance(other, Poly):
            return False
        a, b = self.coeffs, other.coeffs
        if a is b:
            return True
        if len(a) != len(b):
            return False
        for x, y in zip(a, b):
            if x is not y and (
                x._numerator != y._numerator or x._denominator != y._denominator
            ):
                return False
        return True

    def __hash__(self):
        return hash(self.coeffs)

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


_P_ZERO = Poly._raw(())
_P_ONE = Poly._raw((R1,))


def _integer_coeffs(coeffs):
    """(ints, den) with coeffs[i] == ints[i] / den, den the lcm of the
    coefficient denominators."""
    den = lcm(*[c._denominator for c in coeffs])
    if den == 1:
        return [c._numerator for c in coeffs], 1
    return [c._numerator * (den // c._denominator) for c in coeffs], den


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


class QuotElem:
    """Element of Q[x]/(m) for a monic modulus m of degree >= 1, stored as
    the reduced representative."""

    __slots__ = ("modulus", "rep")

    def __init__(self, modulus, rep):
        if not isinstance(modulus, Poly) or not isinstance(rep, Poly):
            raise TypeError("QuotElem expects Poly modulus and representative")
        if modulus.degree < 1 or not modulus.is_monic():
            raise ValueError("modulus must be monic of degree >= 1")
        self.modulus = modulus
        if rep.degree >= modulus.degree:
            _, rep = rep.divmod_by(modulus)
        self.rep = rep

    @classmethod
    def _reduced(cls, modulus, rep):
        e = object.__new__(cls)
        e.modulus = modulus
        e.rep = rep
        return e

    def _check(self, other):
        if not isinstance(other, QuotElem) or other.modulus != self.modulus:
            raise ValueError("mixed quotient rings")

    def __add__(self, other):
        self._check(other)
        return QuotElem._reduced(self.modulus, self.rep + other.rep)

    def __sub__(self, other):
        self._check(other)
        return QuotElem._reduced(self.modulus, self.rep - other.rep)

    def __neg__(self):
        return QuotElem._reduced(self.modulus, -self.rep)

    def __mul__(self, other):
        self._check(other)
        prod = self.rep * other.rep
        if prod.degree >= self.modulus.degree:
            _, prod = prod.divmod_by(self.modulus)
        return QuotElem._reduced(self.modulus, prod)

    def is_zero(self):
        return self.rep.is_zero()

    def __bool__(self):
        return bool(self.rep)

    def invert(self):
        """Inverse in the quotient ring, or NotInvertible when the
        representative shares a factor with the modulus.

        The inverse s solves rep * s = 1 mod m, a d x d linear system over
        the basis 1, x, ..., x^(d-1): column k is x^k * rep mod m.  Each
        column is kept as integers times its own positive scale (the
        denominator of rep, times e per pseudo-division step by a
        non-integral m scaled to e * m), and the system is solved by
        Bareiss elimination.  It is singular exactly when gcd(rep, m) != 1,
        since its determinant is the resultant of m and rep."""
        if self.rep.is_zero():
            raise NotInvertible("zero is not invertible")
        modulus = self.modulus
        if len(self.rep.coeffs) == 1:
            return QuotElem._reduced(modulus, Poly._raw((_reciprocal(self.rep.coeffs[0]),)))
        d = modulus.degree
        m_int = _integer_coeffs(modulus.coeffs)[0]
        col, scale = _integer_coeffs(self.rep.coeffs)
        col = col + [0] * (d - len(col))
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
        out = [_reduced(x * k, det) if x else R0 for x, k in zip(xs, scales)]
        while out and not out[-1]:
            out.pop()
        return QuotElem._reduced(modulus, Poly._raw(tuple(out)))

    def __eq__(self, other):
        return (
            isinstance(other, QuotElem)
            and (self.modulus is other.modulus or self.modulus == other.modulus)
            and self.rep == other.rep
        )

    def __hash__(self):
        return hash((self.modulus, self.rep))

    def __str__(self):
        return f"[{self.rep}]"

    def __repr__(self):
        return f"QuotElem({self.modulus!r}, {self.rep!r})"

