"""Exact scalar layer: rationals, univariate polynomials and quotient-ring
elements over the rationals.

The rational type is ``fractions.Fraction``, exported as ``Rat``: immutable,
always reduced, with a positive denominator, printing as "num/den"
(denominator omitted when 1).  There is one scalar type and no switch that
selects another, so the exact arithmetic every certificate rests on has a
single implementation.

A polynomial product is fraction-free: each operand's coefficients are
scaled to integers over the lcm of its denominators, the integers are
convolved, and each result coefficient is built once as
``Rat(c, da * db)``, one gcd per coefficient instead of a reduced Fraction
multiply and add per pair of coefficients.  Coefficients stay reduced
rationals, so equality, hashing and encodings match a schoolbook product.
"""

import re
from fractions import Fraction as Rat
from math import lcm

R0 = Rat(0)
R1 = Rat(1)

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


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
    try:
        return Rat(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"malformed rational {text!r} (zero denominator)") from None


def encode_rational(value):
    """Canonical text encoding; round-trips through parse_rational."""
    return str(value)


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
    def x(cls):
        return _P_X

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
        return Poly._raw(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _P_ZERO
        na, da = _integer_coeffs(a)
        nb, db = _integer_coeffs(b)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(na):
            if x:
                for k, y in enumerate(nb, i):
                    out[k] += x * y
        d = da * db
        # out[-1] = na[-1] * nb[-1] is nonzero, so there is no trailing zero.
        # A list, not a generator: tuple(<genexpr>) over-allocates and
        # resizes, which churns the interpreter's tuple freelists and shows
        # as peak RSS.
        return Poly._raw(tuple([Rat(c, d) if c else R0 for c in out]))

    def scale(self, value):
        v = rat(value)
        if not v:
            return _P_ZERO
        return Poly._raw(tuple(c * v for c in self.coeffs))

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
        return isinstance(other, Poly) and self.coeffs == other.coeffs

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
_P_X = Poly._raw((R0, R1))


def _integer_coeffs(coeffs):
    """(ints, den) with coeffs[i] == ints[i] / den, den the lcm of the
    coefficient denominators."""
    den = lcm(*[c.denominator for c in coeffs])
    if den == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def poly_egcd(a, b):
    """Extended gcd: returns (g, s, t) with s*a + t*b = g, g monic or zero."""
    r0, r1 = a, b
    s0, s1 = _P_ONE, _P_ZERO
    t0, t1 = _P_ZERO, _P_ONE
    while not r1.is_zero():
        q, r = r0.divmod_by(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    lead = r0.coeffs[-1]
    inv = R1 / lead
    return r0.scale(inv), s0.scale(inv), t0.scale(inv)


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

    def scale(self, value):
        return QuotElem._reduced(self.modulus, self.rep.scale(value))

    def is_zero(self):
        return self.rep.is_zero()

    def __bool__(self):
        return bool(self.rep)

    def invert(self):
        """Inverse in the quotient ring, or NotInvertible when the
        representative shares a factor with the modulus."""
        if self.rep.is_zero():
            raise NotInvertible("zero is not invertible")
        g, s, _ = poly_egcd(self.rep, self.modulus)
        if g.degree != 0:
            raise NotInvertible(f"gcd with modulus is {g}")
        return QuotElem(self.modulus, s)

    def __eq__(self, other):
        return (
            isinstance(other, QuotElem)
            and self.modulus == other.modulus
            and self.rep == other.rep
        )

    def __hash__(self):
        return hash((self.modulus, self.rep))

    def __str__(self):
        return f"[{self.rep}]"

    def __repr__(self):
        return f"QuotElem({self.modulus!r}, {self.rep!r})"


def is_dyadic(value):
    """True when the scalar lies in Z[1/2] (denominator a power of two)."""
    d = value.denominator
    return d & (d - 1) == 0
