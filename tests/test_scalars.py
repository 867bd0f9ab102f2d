import re
from fractions import Fraction
from math import gcd

import pytest
from carriers import payload_product
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kcert.algebras import PolyAlgebra, QuotientAlgebra, QuotientHom
from kcert.matrices import FilteredMatrix
from kcert.scalars import (
    Poly,
    R0,
    Rat,
    _quot_inverse,
    _reciprocal,
    _reduced,
    _remainder,
    encode_rational,
    parse_rational,
    rat,
)


def poly_divmod(a, divisor):
    """Long division with remainder over Fraction coefficients, for a
    nonzero divisor: (q, r) with a = q * divisor + r and deg r < deg
    divisor.  The Euclid step of poly_egcd, and the reference for the one
    reduction mod m of kcert.scalars (integer pseudo-division)."""
    rem = list(a.coeffs)
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
    return Poly(quot), Poly(rem)


def poly_egcd(a, b):
    """Extended gcd by the Euclid loop over Fraction coefficients: returns
    (g, s, t) with s*a + t*b = g, g monic or zero.  The reference for
    _quot_inverse, whose inverse is s when g = 1."""
    r0, r1 = a, b
    s0, s1 = Poly.one(), Poly.zero()
    t0, t1 = Poly.zero(), Poly.one()
    while r1:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if not r0:
        return r0, s0, t0
    inv = Poly.const(rat(1) / r0.coeffs[-1])
    return r0 * inv, s0 * inv, t0 * inv


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


# "\u0663" is Arabic-Indic 3 and "\uff13" fullwidth 3: only ASCII digits parse.
MALFORMED_RATIONALS = ("1/0", "a", "1.5", "1/2/3", "", "2 / 3x", "\u0663", "\uff13", "1/\u0663")


def test_parse_rejects_malformed():
    for bad in MALFORMED_RATIONALS:
        with pytest.raises(ValueError):
            parse_rational(bad)


def fraction_parse(text):
    """The canonical-encoding check, then Fraction(text), with a zero
    denominator reported as a malformed rational: the reference for
    parse_rational's values, strings and errors."""
    if not isinstance(text, str) or not re.match(r"^[+-]?[0-9]+(/[0-9]+)?$", text.strip()):
        raise ValueError(f"malformed rational {text!r}")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"malformed rational {text!r} (zero denominator)") from None


def _outcome(parse, text):
    try:
        v = parse(text)
    except ValueError as exc:
        return "error", str(exc)
    return type(v), v, str(v), v.numerator, v.denominator


# Digit strings at and past int()'s 4,300-digit limit, where Fraction and
# parse_rational raise the same ValueError, and zeros, signs and leading zeros.
@pytest.mark.parametrize("text", [
    "+3", "-0", "0", "+0/7", "007/010", "-12/8", " 5/15 ", "1/1", "0/0",
    "9" * 4300, "-" + "9" * 4300 + "/" + "6" * 4300, "1" * 4301, "1/" + "3" * 4301,
    "-" + "1" * 4400 + "/3",
    *MALFORMED_RATIONALS,
], ids=lambda text: repr(text) if len(text) < 20 else f"{len(text)}-chars")
def test_parse_rational_matches_fraction(text):
    want = _outcome(fraction_parse, text)
    assert _outcome(parse_rational, text) == want
    if want[0] is Fraction and want[1] == 0:
        assert parse_rational(text) is R0


def test_poly_basics():
    x = Poly([0, 1])
    p = x * x + Poly.const(1)
    assert p.coeffs == (rat(1), rat(0), rat(1))
    assert not p - p
    assert not Poly([0, 0])
    assert not x * Poly.zero()


def test_quot_reduce_examples():
    m = Poly([-1, 0, 1])  # x^2 - 1
    x = Poly([0, 1])
    assert _remainder(x * x, m.nums) == Poly.one()
    assert _remainder(x, m.nums) == x
    assert _remainder(x * x * x + x, m.nums) == Poly([0, 2])


def test_quot_invert_examples():
    m = Poly([-1, 0, 1])
    x = Poly([0, 1])
    assert _quot_inverse(x, m) == x  # x * x = x^2 = 1
    assert _quot_inverse(Poly.one(), m) == Poly.one()
    assert _quot_inverse(Poly([-1, 1]), m) is None  # gcd(x - 1, x^2 - 1) = x - 1


@settings(max_examples=100)
@given(st.lists(st.integers(-5, 5), min_size=0, max_size=4))
def test_quot_invert_matches_egcd_oracle(coeffs):
    m = Poly([-1, 0, 1])
    e = _remainder(Poly(coeffs), m.nums)
    g, _, _ = poly_egcd(e, m)
    if g.degree == 0:
        assert _remainder(e * _quot_inverse(e, m), m.nums) == Poly.one()
    else:
        assert _quot_inverse(e, m) is None


def test_egcd_bezout():
    a = Poly([1, 2, 1])  # (x+1)^2
    b = Poly([-1, 0, 1])  # (x-1)(x+1)
    g, s, t = poly_egcd(a, b)
    assert g == Poly([1, 1])  # monic gcd x + 1
    assert s * a + t * b == g


def test_values_transmit_between_workers():
    # immutable values pickle and round-trip exactly
    import pickle

    for v in (rat(3, 7), rat(-2 ** 80, 9), Poly([1, 0, 2]), Poly([rat(-1, 3), 0, rat(5, 2)])):
        assert pickle.loads(pickle.dumps(v)) == v


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


def _poly(fracs):
    return Poly([rat(c.numerator, c.denominator) for c in fracs])


def _fracs(p):
    return [Fraction(c.numerator, c.denominator) for c in p.coeffs]


def _assert_matches(p, expect):
    """p has exactly the reduced coefficients of the Fraction list expect."""
    assert [(c.numerator, c.denominator) for c in p.coeffs] == [
        (c.numerator, c.denominator) for c in expect
    ]
    assert p == _poly(expect)
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


# -- Poly sums and differences against a schoolbook sum ----------------------
# Poly + and - build each coefficient from Fraction's slots; every result
# must equal the Fraction sum, coefficient by coefficient, reduced and
# stripped at the top.  So must the sums of representatives mod m, which are
# the sums of Q[x]/(m) and equal the representative of the Q[x] sum.


_SUM_MODULI = {
    "x^2 - 1": [Fraction(-1), Fraction(0), Fraction(1)],
    "x^3 - x/2 + 1/3": [Fraction(1, 3), Fraction(-1, 2), Fraction(0), Fraction(1)],
}


def _schoolbook_sum(a, b, sign):
    """a + sign * b for two Fraction coefficient lists, trailing zeros
    stripped."""
    n = max(len(a), len(b))
    a, b = a + [Fraction(0)] * (n - len(a)), b + [Fraction(0)] * (n - len(b))
    out = [x + sign * y for x, y in zip(a, b)]
    while out and not out[-1]:
        out.pop()
    return out


def _assert_sums_match(pa, pb):
    """pa + pb and pa - pb, and the same over each of _SUM_MODULI, match the
    schoolbook sums of the coefficients."""
    a, b = _fracs(pa), _fracs(pb)
    _assert_matches(pa + pb, _schoolbook_sum(a, b, 1))
    _assert_matches(pa - pb, _schoolbook_sum(a, b, -1))
    for m in _SUM_MODULI.values():
        m_int = _poly(m).nums
        ea, eb = _remainder(pa, m_int), _remainder(pb, m_int)
        ra, rb = _fracs(ea), _fracs(eb)
        for got, whole, sign in ((ea + eb, pa + pb, 1), (ea - eb, pa - pb, -1)):
            _assert_matches(got, _schoolbook_sum(ra, rb, sign))
            assert got == _remainder(whole, m_int)


_BIG = Fraction(2 ** 127 - 1, 2 ** 63 + 1)


@settings(max_examples=300)
@given(_coeffs, _coeffs)
@example(a=[], b=[])
@example(a=[], b=[Fraction(1, 3), Fraction(-2)])
@example(a=[Fraction(1, 3), Fraction(-2)], b=[])
@example(a=[Fraction(1, 2)], b=[Fraction(1, 3), _BIG, -_BIG])
@example(a=[_BIG, Fraction(2 ** 63 - 1, 3)], b=[Fraction(5)])
def test_poly_sum_and_difference_match_schoolbook(a, b):
    # unequal lengths both ways, the zero polynomial, zero coefficients and
    # values near 2^63 and 2^127 all come from the strategy
    _assert_sums_match(_poly(a), _poly(b))


@settings(max_examples=200)
@given(_coeffs, _coeffs, st.data())
def test_poly_sum_and_difference_cancellations(a, b, data):
    # b agrees with -a (for the sum) or with a (for the difference) on the
    # top coefficients and at one more index: the result is stripped below
    # the top ones and holds a reduced 0 at the inner one.
    pa = _poly(a)
    fa = _fracs(pa)
    n = len(fa)
    if not n:
        return
    top = data.draw(st.integers(1, n), label="top")
    inner = data.draw(st.integers(0, n - 1), label="inner")
    rest = (b + [Fraction(1)] * n)[:n]
    for sign, got in ((1, lambda pb: pa + pb), (-1, lambda pb: pa - pb)):
        cancel = [-sign * c for c in fa]
        coeffs = rest[:n - top] + cancel[n - top:]
        coeffs[inner] = cancel[inner]
        pb = _poly(coeffs)
        out = got(pb)
        assert len(out.coeffs) <= n - top
        if inner < len(out.coeffs):
            assert out.coeffs[inner] == 0
        _assert_sums_match(pa, pb)


@settings(max_examples=200)
@given(_coeffs, _coeffs)
def test_poly_difference_is_sum_of_negation(a, b):
    pa, pb = _poly(a), _poly(b)
    _assert_matches(pa - pa, [])
    assert pa - pb == pa + (-pb)
    assert pb - pa == -(pa - pb)
    assert (pa - pb) + pb == pa
    for m in _SUM_MODULI.values():
        m_int = _poly(m).nums
        ea, eb = _remainder(pa, m_int), _remainder(pb, m_int)
        assert ea - eb == ea + (-eb) == _remainder(pa - pb, m_int)
        assert -ea == _remainder(-pa, m_int)


def test_poly_sum_examples():
    f = Fraction
    _assert_matches(Poly([1, 2, 3]) + Poly([1, 2, -3]), [f(2), f(4)])
    _assert_matches(Poly([1, 2, 3]) - Poly([1, 5, 3]), [f(0), f(-3)])
    _assert_matches(Poly([1]) - Poly([1, 0, rat(2, 3)]), [f(0), f(0), f(-2, 3)])
    _assert_matches(Poly([rat(1, 6)]) + Poly([rat(1, 3)]), [f(1, 2)])
    # 1/(2^63 - 1) - 1/(2^63 + 1) = 2 / (2^126 - 1)
    _assert_matches(Poly([rat(1, 2 ** 63 - 1)]) - Poly([rat(1, 2 ** 63 + 1)]),
                    [f(2, 2 ** 126 - 1)])
    _assert_matches(_poly([_BIG]) + _poly([-_BIG, _BIG]), [f(0), _BIG])


# -- Poly equality against tuple-of-Fraction equality -------------------------
# Poly.__eq__ compares Fraction's two slots directly; it must agree with
# comparing the coefficient tuples as Fractions, however each side was built.


def _by_constructor(fracs):
    return Poly([Rat(c.numerator, c.denominator) for c in fracs])


def _by_reduced(fracs, k):
    """The same values through _reduced, from numerator and denominator both
    scaled by k."""
    return Poly([_reduced(c.numerator * k, c.denominator * k) for c in fracs])


def _assert_eq_agrees(p, q):
    # The reference: the coefficient tuples compared by Fraction.__eq__.
    want = p.coeffs == q.coeffs
    assert (p == q) is want and (q == p) is want
    assert (p != q) is not want
    for modulus in (Poly([-1, 0, 1]), Poly([rat(1, 3), rat(-1, 2), 0, 1])):
        # Representatives reduced by equal moduli that are distinct objects.
        x = _remainder(p, modulus.nums)
        y = _remainder(q, Poly(list(modulus.coeffs)).nums)
        assert (x == y) is (x.coeffs == y.coeffs)


@settings(max_examples=200)
@given(_coeffs, _coeffs, st.integers(1, 2 ** 64))
def test_poly_equality_matches_fraction_tuples(a, b, k):
    pa = _by_constructor(a)
    for p, q in (
        (pa, _by_reduced(b, k)),  # random pairs
        (pa, _by_reduced(a, k)),  # equal values, distinct objects
        (pa, Poly(list(pa.coeffs))),  # equal coefficients, distinct tuples
        (pa, pa),
        (pa, _by_reduced(a + [Fraction(1, 3)], k)),  # unequal lengths
    ):
        _assert_eq_agrees(p, q)
        _assert_eq_agrees(q, p)


@pytest.mark.parametrize(
    "a,b",
    [
        ([rat(1, 3)], [rat(1, 4)]),
        ([rat(2), rat(5, 7)], [rat(2), rat(5, 9)]),
        ([rat(-(2 ** 127) - 1, 5), rat(1)], [rat(-(2 ** 127) - 1, 7), rat(1)]),
        ([rat(1, 2 ** 64 + 1)], [rat(1, 2 ** 64 - 1)]),
    ],
)
def test_poly_equality_equal_numerators_different_denominators(a, b):
    p, q = Poly(a), Poly(b)
    assert [c.numerator for c in p.coeffs] == [c.numerator for c in q.coeffs]
    _assert_eq_agrees(p, q)
    assert p != q
    assert p != 0 and p != a


def test_poly_mul_examples():
    f = Fraction
    _assert_matches(Poly([1, 1]) * Poly([1, -1]), [f(1), f(0), f(-1)])
    _assert_matches(Poly.const(rat(1, 2)) * Poly.const(2), [f(1)])
    _assert_matches(Poly([rat(1, 6), 0, rat(2, 3)]) * Poly([0, 1]),
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
    algebra = QuotientAlgebra(modulus)
    ea, eb = _remainder(_poly(a), modulus.nums), _remainder(_poly(b), modulus.nums)
    expect = _fracs(poly_divmod(_poly(_schoolbook(_fracs(ea), _fracs(eb))), modulus)[1])
    prod = payload_product(algebra, ea, eb)
    _assert_matches(prod, expect)
    assert prod == _remainder(ea * eb, modulus.nums) == _remainder(_poly(expect), modulus.nums)


@settings(max_examples=100)
@given(_numerators.filter(bool), _numerators.filter(bool))
def test_quot_mul_zero_divisors_cancel(c, d):
    # (1 + x)(1 - x) = 1 - x^2 is zero modulo x^2 - 1, for any scalings
    modulus = Poly([-1, 0, 1])
    a, b = Poly([c, c]), Poly([d, -d])
    prod = payload_product(QuotientAlgebra(modulus), a, b)
    _assert_matches(prod, [])
    assert prod is Poly.zero()
    assert _remainder(a * b, modulus.nums) is Poly.zero()


# -- The one reduction mod m against the long-division reference -------------
# The quotient ring's parse, its product kernel and the quotient hom all
# reduce by integer pseudo-division; each remainder must be the long
# division's, coefficient by coefficient.  x^2 - 1/3 and x^3 - x/2 + 1/3 are
# not integral, so each pseudo-division step scales by 3 or 6.


_REDUCTION_MODULI = {
    "x^2 - 1": [Fraction(-1), Fraction(0), Fraction(1)],
    "x^2 - 1/3": [Fraction(-1, 3), Fraction(0), Fraction(1)],
    "x^3 - x/2 + 1/3": [Fraction(1, 3), Fraction(-1, 2), Fraction(0), Fraction(1)],
}


@settings(max_examples=300)
@given(
    st.sampled_from(sorted(_REDUCTION_MODULI)),
    st.lists(st.tuples(_numerators, _denominators).map(lambda nd: Fraction(*nd)), max_size=9),
)
def test_reduction_mod_m_matches_long_division(name, coeffs):
    modulus = _poly(_REDUCTION_MODULI[name])
    a = _poly(coeffs)
    expect = _fracs(poly_divmod(a, modulus)[1])
    h = QuotientHom(PolyAlgebra(), QuotientAlgebra(modulus))
    image = h.apply_payload(a)
    _assert_matches(image, expect)
    _assert_matches(h.target.parse_payload([encode_rational(c) for c in coeffs]), expect)
    _assert_matches(payload_product(h.target, h.target.one(), image), expect)
    if not expect:
        assert image is h.target.zero()
    if a:
        # A nonzero multiple of m reduces to zero, the target's shared one.
        assert h.apply_payload(a * modulus) is h.target.zero()


# -- _quot_inverse against the Euclid reference ------------------------------


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
    """_quot_inverse returns the Euclid inverse of rep's representative, or
    None exactly when the reference finds a nonconstant gcd or rep is zero
    mod m."""
    e = _remainder(rep, modulus.nums)
    g, s, _ = poly_egcd(e, modulus)
    if not e or g.degree != 0:
        assert _quot_inverse(e, modulus) is None
        return False
    inv = _quot_inverse(e, modulus)
    expect = _remainder(s, modulus.nums)
    _assert_matches(inv, _fracs(expect))
    assert inv == expect
    assert payload_product(QuotientAlgebra(modulus), e, inv) == Poly.one()
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
    algebra = QuotientAlgebra(modulus)
    ea, eb = _remainder(_poly(a), modulus.nums), _remainder(_poly(b), modulus.nums)
    e = payload_product(algebra, ea, eb)
    if not _assert_inverts_like_egcd(modulus, e):
        return
    # a unit times a unit is a unit, and the inverse of a product is the
    # product of the inverses
    assert _quot_inverse(e, modulus) == payload_product(
        algebra, _quot_inverse(ea, modulus), _quot_inverse(eb, modulus))


@settings(max_examples=100)
@given(_numerators.filter(bool), _denominators, st.sampled_from([1, -1]))
def test_quot_invert_zero_divisors_of_x2_minus_1(num, den, sign):
    modulus = Poly([-1, 0, 1])
    c = rat(num, den)
    assert not _assert_inverts_like_egcd(modulus, Poly([c, sign * c]))


def test_quot_invert_non_integral_modulus_examples():
    m = _poly(_INVERT_MODULI["x^3 - x/2 + 1/3"])
    for rep in (Poly([0, 1]), Poly([rat(1, 2), 0, 3]), Poly.const(rat(2, 7)),
                Poly([rat(2 ** 127 + 1, 3), rat(-1, 2 ** 63 - 1)])):
        assert _assert_inverts_like_egcd(m, rep)
    # x^3 - x/2 + 1/3 = 0 at no rational point (rational root test), so it
    # is irreducible over Q: every nonzero element is a unit
    assert _quot_inverse(Poly.zero(), m) is None


# -- The reduced integer form of every result -----------------------------------
# A Poly holds integers ``nums`` over one ``den``.  Every result of Poly
# arithmetic, of the Q[x]/(m) product, row operation and inverse, of the
# quotient hom (per payload and per matrix) and of a matrix product over
# Q[x] and Q[x]/(m) must hold the unique reduced form: den > 0,
# gcd(den, *nums) = 1 and no trailing zero, with a zero result the shared
# zero.  Its coeffs must equal a schoolbook Fraction
# result, and rebuilding it from its coeffs must give an equal Poly.

def _fraction_rem(a, m):
    """a mod m for Fraction coefficient lists and a monic m, by long
    division, trailing zeros stripped."""
    r = list(a)
    dm = len(m) - 1
    for i in range(len(r) - 1, dm - 1, -1):
        q = r[i]
        if q:
            for k in range(dm + 1):
                r[i - dm + k] -= q * m[k]
    del r[dm:]
    while r and not r[-1]:
        r.pop()
    return r


def _assert_normal(p, expect):
    """p holds the reduced integer form of the Fraction list expect."""
    assert isinstance(p, Poly)
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int for c in p.nums)
    assert gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1]
    if not p.nums:
        assert p is Poly.zero()
    _assert_matches(p, expect)
    assert Poly(p.coeffs) == p


@settings(max_examples=200, deadline=None)
@given(_coeffs, _coeffs)
@example(a=[], b=[])
@example(a=[_BIG, Fraction(0), -_BIG], b=[Fraction(1, 3), _BIG])
@example(a=[Fraction(2 ** 63 + 1, 2 ** 127 - 1)], b=[Fraction(2 ** 127 - 1, 2 ** 63 + 1)])
def test_poly_and_quot_results_hold_the_reduced_form(a, b):
    pa, pb = _poly(a), _poly(b)
    fa, fb = _fracs(pa), _fracs(pb)
    _assert_normal(pa + pb, _schoolbook_sum(fa, fb, 1))
    _assert_normal(pa - pb, _schoolbook_sum(fa, fb, -1))
    _assert_normal(pa - pa, [])
    _assert_normal(pa * pb, _schoolbook(fa, fb))
    _assert_normal(-pa, [-c for c in fa])
    for m in _SUM_MODULI.values():
        modulus = _poly(m)
        target = QuotientAlgebra(modulus)
        h = QuotientHom(PolyAlgebra(), target)
        ea, eb = h.apply_payload(pa), h.apply_payload(pb)
        ra, rb = _fraction_rem(fa, m), _fraction_rem(fb, m)
        _assert_normal(ea, ra)
        _assert_normal(eb, rb)
        _assert_normal(ea + eb, _schoolbook_sum(ra, rb, 1))
        _assert_normal(ea - eb, _schoolbook_sum(ra, rb, -1))
        _assert_normal(payload_product(target, ea, eb), _fraction_rem(_schoolbook(ra, rb), m))
        _assert_normal(-ea, [-c for c in ra])
        _assert_normal(h.apply_payload(pa * pb), _fraction_rem(_schoolbook(fa, fb), m))
        if eb:
            # The row operation x + y * a, with y = eb and a = ea.
            _assert_normal(target._add_multiple(ea)(eb, eb), _schoolbook_sum(
                rb, _fraction_rem(_schoolbook(rb, ra), m), 1))
        inv = _quot_inverse(ea, modulus)
        if inv is None:
            continue
        # The inverse is the one element of degree < deg m whose product
        # with ra is 1 mod m.
        want = _fracs(inv)
        assert _fraction_rem(_schoolbook(ra, want), m) == [Fraction(1)]
        _assert_normal(inv, want)


_NF_ALGEBRAS = {
    "Q[x]": None,
    "Q[x]/(x^2 - 1)": _SUM_MODULI["x^2 - 1"],
    "Q[x]/(x^3 - x/2 + 1/3)": _SUM_MODULI["x^3 - x/2 + 1/3"],
}
_entry_coeffs = st.one_of(
    st.just([]),
    st.lists(st.tuples(_numerators, _denominators).map(lambda nd: Fraction(*nd)), max_size=4),
)


def _square(data, n):
    return [[data.draw(_entry_coeffs) for _ in range(n)] for _ in range(n)]


def _entry(algebra, fracs, k):
    """A payload of the algebra with these coefficients; an empty list is
    the shared zero, or for odd k a zero built afresh."""
    if not fracs:
        return algebra.zero() if k % 2 == 0 else algebra.parse_payload([])
    p = _poly(fracs)
    return _remainder(p, algebra.modulus.nums) if isinstance(algebra, QuotientAlgebra) else p


@pytest.mark.parametrize("name", sorted(_NF_ALGEBRAS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_matrix_products_and_images_hold_the_reduced_form(name, data):
    m = _NF_ALGEBRAS[name]
    algebra = PolyAlgebra() if m is None else QuotientAlgebra(_poly(m))
    reduce = (lambda fracs: fracs) if m is None else (lambda fracs: _fraction_rem(fracs, m))
    n = data.draw(st.integers(1, 3), label="n")
    fa, fb = _square(data, n), _square(data, n)
    a = FilteredMatrix(algebra, [[_entry(algebra, fa[i][j], i + j) for j in range(n)]
                                 for i in range(n)])
    b = FilteredMatrix(algebra, [[_entry(algebra, fb[i][j], i * j) for j in range(n)]
                                 for i in range(n)])
    ra = [[reduce(_fracs(_poly(c))) for c in row] for row in fa]
    rb = [[reduce(_fracs(_poly(c))) for c in row] for row in fb]
    product = a @ b
    for i in range(n):
        for j in range(n):
            want = []
            for k in range(n):
                want = _schoolbook_sum(want, _schoolbook(ra[i][k], rb[k][j]), 1)
            _assert_normal(product.rows[i][j], reduce(want))
    if m is not None:
        h = QuotientHom(PolyAlgebra(), algebra)
        source = FilteredMatrix(PolyAlgebra(), [[_entry(PolyAlgebra(), c, i + j)
                                                 for j, c in enumerate(row)]
                                                for i, row in enumerate(fa)])
        image = h._apply_matrix(source)
        for row, got_row in zip(source.rows, image.rows):
            for p, got in zip(row, got_row):
                if len(p.nums) < len(m):
                    assert got is p  # already a representative, kept as it is
                else:
                    _assert_normal(got, _fraction_rem(_fracs(p), m))


@pytest.mark.parametrize("name", sorted(_NF_ALGEBRAS))
def test_cancelling_product_entries_are_the_shared_zero(name):
    # [p, p] times the column [q, -q] sums two nonzero products to zero.
    m = _NF_ALGEBRAS[name]
    algebra = PolyAlgebra() if m is None else QuotientAlgebra(_poly(m))
    p = _entry(algebra, [Fraction(2 ** 63 + 1, 3), Fraction(-1, 2), Fraction(1)], 0)
    q = _entry(algebra, [Fraction(1, 2 ** 127 - 1), Fraction(5)], 0)
    z = algebra.zero()
    product = FilteredMatrix(algebra, [[p, p], [z, p]]) @ FilteredMatrix(
        algebra, [[q, z], [-q, q]])
    pq = payload_product(algebra, p, q)
    assert product.rows[0][0] is z
    assert product.rows[1][0] == -pq
    assert product.rows[0][1] == product.rows[1][1] == pq
