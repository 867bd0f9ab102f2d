from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kcert.scalars import (
    NotInvertible,
    Poly,
    QuotElem,
    Rat,
    _reciprocal,
    _reduced,
    encode_rational,
    parse_rational,
    rat,
)


def poly_egcd(a, b):
    """Extended gcd by the Euclid loop over Fraction coefficients: returns
    (g, s, t) with s*a + t*b = g, g monic or zero.  The reference for
    QuotElem.invert, whose inverse is s when g = 1."""
    r0, r1 = a, b
    s0, s1 = Poly.one(), Poly.zero()
    t0, t1 = Poly.zero(), Poly.one()
    while not r1.is_zero():
        q, r = r0.divmod_by(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    inv = rat(1) / r0.coeffs[-1]
    return r0.scale(inv), s0.scale(inv), t0.scale(inv)


rationals = st.builds(
    rat, st.integers(min_value=-40, max_value=40), st.integers(min_value=1, max_value=40)
)


def test_rational_arith_examples():
    assert rat(1, 2) + rat(1, 3) == rat(5, 6)
    x = rat(-7, 9)
    assert x * rat(1) == x
    assert rat(2, 4) + rat(0) == rat(1, 2)
    with pytest.raises(ZeroDivisionError):
        rat(1) / rat(0)


def test_reduction_invariant():
    v = rat(6, 4)
    assert (v.numerator, v.denominator) == (3, 2)
    v = rat(-6, 4)
    assert (v.numerator, v.denominator) == (-3, 2)
    assert rat(0, 5).denominator == 1


def test_fraction_slot_layout():
    # _reduced and _reciprocal set these two slots directly, so a change of
    # Fraction's layout must fail here instead of building wrong rationals.
    assert Rat is Fraction
    assert Rat.__slots__ == ("_numerator", "_denominator")


def assert_same_rational(got, want):
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert got == want and hash(got) == hash(want) and str(got) == str(want)
    other = Fraction(-5, 12)
    for a, b in ((got + other, want + other), (got * other, want * other)):
        assert type(a) is Fraction and a == b and str(a) == str(b)


# c = c0 * k and d = d0 * k up to about 2^130, with a shared factor k.
@settings(max_examples=300)
@given(
    st.integers(-(2 ** 120), 2 ** 120),
    st.integers(1, 2 ** 120) | st.integers(1, 12),
    st.integers(1, 2 ** 10) | st.sampled_from([1, 2, 6, 2 ** 10]),
)
@example(c0=0, d0=7, k=3)
@example(c0=-(2 ** 120), d0=1, k=2 ** 10)
def test_reduced_matches_fraction(c0, d0, k):
    c, d = c0 * k, d0 * k
    assert_same_rational(_reduced(c, d), Rat(c, d))


@settings(max_examples=200)
@given(
    st.integers(-(2 ** 130), 2 ** 130).filter(bool),
    st.integers(1, 2 ** 130) | st.integers(1, 12),
)
@example(num=-3, den=7)
@example(num=5, den=2)
@example(num=-1, den=1)
def test_reciprocal_matches_division(num, den):
    v = Rat(num, den)
    assert_same_rational(_reciprocal(v), 1 / v)


@settings(max_examples=200)
@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    if b:
        assert (a / b) * b == a
    assert a + (-a) == rat(0)


@settings(max_examples=200)
@given(rationals)
def test_encoding_round_trip(a):
    assert parse_rational(encode_rational(a)) == a


def test_parse_rejects_malformed():
    # "\u0663" is Arabic-Indic 3 and "\uff13" fullwidth 3: only ASCII digits parse.
    for bad in ("1/0", "a", "1.5", "1/2/3", "", "2 / 3x", "\u0663", "\uff13", "1/\u0663"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_poly_basics():
    x = Poly.x()
    p = x * x + Poly.const(1)
    assert p.coeffs == (rat(1), rat(0), rat(1))
    assert (p - p).is_zero()
    assert Poly([0, 0]).is_zero()
    assert (x * Poly.zero()).is_zero()
    q, r = (x * x * x + x).divmod_by(Poly([-1, 0, 1]))
    assert q == Poly([0, 1]) and r == Poly([0, 2])


def test_quot_reduce_examples():
    m = Poly([-1, 0, 1])  # x^2 - 1
    x = Poly.x()
    assert QuotElem(m, x * x).rep == Poly.one()
    assert QuotElem(m, x).rep == x
    assert QuotElem(m, x * x * x + x).rep == Poly([0, 2])
    with pytest.raises(ValueError):
        QuotElem(Poly([0, 2]), x)  # non-monic modulus rejected


def test_quot_invert_examples():
    m = Poly([-1, 0, 1])
    x_cls = QuotElem(m, Poly.x())
    inv = x_cls.invert()
    assert inv == x_cls  # x * x = x^2 = 1
    assert QuotElem(m, Poly.one()).invert() == QuotElem(m, Poly.one())
    with pytest.raises(NotInvertible):
        QuotElem(m, Poly([-1, 1])).invert()  # gcd(x - 1, x^2 - 1) = x - 1


@settings(max_examples=100)
@given(st.lists(st.integers(-5, 5), min_size=0, max_size=4))
def test_quot_invert_matches_egcd_oracle(coeffs):
    m = Poly([-1, 0, 1])
    e = QuotElem(m, Poly(coeffs))
    g, _, _ = poly_egcd(e.rep, m)
    if g.degree == 0:
        prod = e * e.invert()
        assert prod.rep == Poly.one()
    else:
        with pytest.raises(NotInvertible):
            e.invert()


def test_egcd_bezout():
    a = Poly([1, 2, 1])  # (x+1)^2
    b = Poly([-1, 0, 1])  # (x-1)(x+1)
    g, s, t = poly_egcd(a, b)
    assert g == Poly([1, 1])  # monic gcd x + 1
    assert s * a + t * b == g


def test_values_transmit_between_workers():
    # immutable values pickle and round-trip exactly
    import pickle

    for v in (rat(3, 7), rat(-2 ** 80, 9), Poly([1, 0, 2]), QuotElem(Poly([-1, 0, 1]), Poly([0, 1]))):
        assert pickle.loads(pickle.dumps(v)) == v


@settings(max_examples=150)
@given(
    st.lists(st.integers(-9, 9), min_size=0, max_size=5),
    st.lists(st.integers(-9, 9), min_size=1, max_size=4),
)
def test_poly_divmod_reconstruction(a_coeffs, m_coeffs):
    a = Poly(a_coeffs)
    m = Poly(m_coeffs)
    if m.is_zero():
        return
    q, r = a.divmod_by(m)
    assert q * m + r == a
    assert r.degree < m.degree


# -- Poly product against a schoolbook Fraction reference --------------------


def _near(power):
    return st.integers(-2, 2).map(lambda d: 2 ** power + d)


_numerators = st.one_of(
    st.integers(-9, 9),
    st.just(0),
    _near(63),
    _near(63).map(lambda v: -v),
    _near(127),
    _near(127).map(lambda v: -v),
)
_denominators = st.one_of(st.integers(1, 9), _near(63), _near(127))
_coeffs = st.lists(
    st.tuples(_numerators, _denominators).map(lambda nd: Fraction(*nd)), max_size=6
)


def _schoolbook(a, b):
    """Product of two Fraction coefficient lists, trailing zeros stripped."""
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and not out[-1]:
        out.pop()
    return out


def _schoolbook_rem(a, m):
    """Remainder of a Fraction list modulo a monic Fraction list."""
    rem = list(a)
    dd = len(m) - 1
    for i in range(len(rem) - 1, dd - 1, -1):
        q = rem[i]
        for k in range(dd + 1):
            rem[i - dd + k] -= q * m[k]
    while rem and not rem[-1]:
        rem.pop()
    return rem


def _poly(fracs):
    return Poly([rat(c.numerator, c.denominator) for c in fracs])


def _fracs(p):
    return [Fraction(c.numerator, c.denominator) for c in p.coeffs]


def _assert_matches(p, expect):
    """p has exactly the reduced coefficients of the Fraction list expect."""
    assert [(c.numerator, c.denominator) for c in p.coeffs] == [
        (c.numerator, c.denominator) for c in expect
    ]
    assert hash(p) == hash(_poly(expect))
    for c in p.coeffs:
        assert isinstance(c, Rat)
        assert c.denominator > 0
        assert gcd(c.numerator, c.denominator) == 1
    assert not p.coeffs or p.coeffs[-1]


@settings(max_examples=300)
@given(_coeffs, _coeffs)
def test_poly_mul_matches_schoolbook(a, b):
    # zero coefficients, unequal lengths, constants and the zero polynomial
    # all come from the strategy
    pa, pb = _poly(a), _poly(b)
    _assert_matches(pa * pb, _schoolbook(_fracs(pa), _fracs(pb)))


@settings(max_examples=100)
@given(_coeffs)
def test_poly_mul_cancellations(a):
    # p(x) * p(-x) is even: every odd coefficient cancels to zero
    p = _poly(a)
    mirrored = Poly([-c if i % 2 else c for i, c in enumerate(p.coeffs)])
    prod = p * mirrored
    assert all(c == 0 for c in prod.coeffs[1::2])
    _assert_matches(prod, _schoolbook(_fracs(p), _fracs(mirrored)))
    _assert_matches(p * Poly.zero(), [])
    _assert_matches(Poly.zero() * p, [])


@settings(max_examples=100)
@given(_coeffs)
def test_poly_negation_matches_fraction(a):
    p = _poly(a)
    _assert_matches(-p, [-c for c in _fracs(p)])
    assert -(-p) == p


def test_poly_mul_examples():
    f = Fraction
    _assert_matches(Poly([1, 1]) * Poly([1, -1]), [f(1), f(0), f(-1)])
    _assert_matches(Poly.const(rat(1, 2)) * Poly.const(2), [f(1)])
    _assert_matches(Poly([rat(1, 6), 0, rat(2, 3)]) * Poly.x(),
                    [f(0), f(1, 6), f(0), f(2, 3)])
    big = f(2 ** 127 - 1, 2 ** 63 + 1)
    a, b = [big, f(0), -big], [f(1, 3), big]
    _assert_matches(_poly(a) * _poly(b), _schoolbook(a, b))


_MODULI = {
    "x^2 - 1": [Fraction(-1), Fraction(0), Fraction(1)],
    "x^3 - x/3 + 2/7": [Fraction(2, 7), Fraction(-1, 3), Fraction(0), Fraction(1)],
}


@settings(max_examples=200)
@given(st.sampled_from(sorted(_MODULI)), _coeffs, _coeffs)
def test_quot_mul_matches_schoolbook(name, a, b):
    m = _MODULI[name]
    modulus = _poly(m)
    ea, eb = QuotElem(modulus, _poly(a)), QuotElem(modulus, _poly(b))
    expect = _schoolbook_rem(_schoolbook(_fracs(ea.rep), _fracs(eb.rep)), m)
    prod = ea * eb
    _assert_matches(prod.rep, expect)
    assert hash(prod) == hash(QuotElem(modulus, _poly(expect)))


@settings(max_examples=100)
@given(_numerators.filter(bool), _numerators.filter(bool))
def test_quot_mul_zero_divisors_cancel(c, d):
    # (1 + x)(1 - x) = 1 - x^2 is zero modulo x^2 - 1, for any scalings
    modulus = Poly([-1, 0, 1])
    prod = QuotElem(modulus, Poly([c, c])) * QuotElem(modulus, Poly([d, -d]))
    _assert_matches(prod.rep, [])
    assert hash(prod) == hash(QuotElem(modulus, Poly.zero()))


# -- QuotElem.invert against the Euclid reference -----------------------------


_INVERT_MODULI = {
    **_MODULI,
    "x^3 - x/2 + 1/3": [Fraction(1, 3), Fraction(-1, 2), Fraction(0), Fraction(1)],
    "x - 5/2": [Fraction(-5, 2), Fraction(1)],
    "x^2": [Fraction(0), Fraction(0), Fraction(1)],
    "(x^2 - 1)^2": [Fraction(1), Fraction(0), Fraction(-2), Fraction(0), Fraction(1)],
}
_monic = st.builds(
    lambda lower: lower + [Fraction(1)],
    st.lists(st.tuples(_numerators, _denominators).map(lambda nd: Fraction(*nd)),
             min_size=1, max_size=4),
)


def _assert_inverts_like_egcd(modulus, rep):
    """QuotElem.invert returns the Euclid inverse, or raises NotInvertible
    exactly when the reference finds a nonconstant gcd or rep is zero."""
    e = QuotElem(modulus, rep)
    g, s, _ = poly_egcd(e.rep, modulus)
    if e.is_zero() or g.degree != 0:
        with pytest.raises(NotInvertible):
            e.invert()
        return False
    inv = e.invert()
    expect = QuotElem(modulus, s)
    _assert_matches(inv.rep, _fracs(expect.rep))
    assert inv == expect and hash(inv) == hash(expect)
    assert (e * inv).rep == Poly.one()
    return True


@settings(max_examples=300)
@given(st.sampled_from(sorted(_INVERT_MODULI)), _coeffs)
def test_quot_invert_matches_egcd(name, coeffs):
    _assert_inverts_like_egcd(_poly(_INVERT_MODULI[name]), _poly(coeffs))


@settings(max_examples=150)
@given(_monic, _coeffs)
def test_quot_invert_matches_egcd_random_modulus(m, coeffs):
    _assert_inverts_like_egcd(_poly(m), _poly(coeffs))


@settings(max_examples=100)
@given(st.sampled_from(sorted(_INVERT_MODULI)), _coeffs, _coeffs)
def test_quot_invert_rejects_multiples_of_a_factor(name, a, b):
    # rep * (anything) shares rep's factors with the modulus; over x^2 - 1
    # the factors 1 + x and 1 - x are zero divisors
    modulus = _poly(_INVERT_MODULI[name])
    e = QuotElem(modulus, _poly(a)) * QuotElem(modulus, _poly(b))
    if not _assert_inverts_like_egcd(modulus, e.rep):
        return
    # a unit times a unit is a unit, and the inverse of a product is the
    # product of the inverses
    assert e.invert() == QuotElem(modulus, _poly(a)).invert() * QuotElem(modulus, _poly(b)).invert()


@settings(max_examples=100)
@given(_numerators.filter(bool), _denominators, st.sampled_from([1, -1]))
def test_quot_invert_zero_divisors_of_x2_minus_1(num, den, sign):
    modulus = Poly([-1, 0, 1])
    c = rat(num, den)
    assert not _assert_inverts_like_egcd(modulus, Poly([c, sign * c]))


def test_quot_invert_non_integral_modulus_examples():
    m = _poly(_INVERT_MODULI["x^3 - x/2 + 1/3"])
    for rep in (Poly.x(), Poly([rat(1, 2), 0, 3]), Poly.const(rat(2, 7)),
                Poly([rat(2 ** 127 + 1, 3), rat(-1, 2 ** 63 - 1)])):
        assert _assert_inverts_like_egcd(m, rep)
    # x^3 - x/2 + 1/3 = 0 at no rational point (rational root test), so it
    # is irreducible over Q: every nonzero element is a unit
    with pytest.raises(NotInvertible):
        QuotElem(m, Poly.zero()).invert()
