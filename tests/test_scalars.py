from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcert.scalars import (
    NotInvertible,
    Poly,
    QuotElem,
    Rat,
    encode_rational,
    is_dyadic,
    parse_rational,
    poly_egcd,
    rat,
)


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
    for bad in ("1/0", "a", "1.5", "1/2/3", "", "2 / 3x"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_matches_fraction_semantics():
    for n1, d1, n2, d2 in [(3, 7, -5, 9), (10, 4, 6, 8), (-2, 3, -3, 2)]:
        x, y = rat(n1, d1), rat(n2, d2)
        fx, fy = Fraction(n1, d1), Fraction(n2, d2)
        assert str(x + y) == str(fx + fy)
        assert str(x * y) == str(fx * fy)
        assert str(x - y) == str(fx - fy)
        assert str(x / y) == str(fx / fy)
        assert (x < y) == (fx < fy)


def test_big_integer_promotion_is_exact():
    big = rat(2 ** 80, 3)
    sq = big * big
    assert sq.numerator == 2 ** 160 and sq.denominator == 9
    assert sq / big == big


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


def test_dyadic_detection():
    assert is_dyadic(rat(3, 8))
    assert is_dyadic(rat(5))
    assert not is_dyadic(rat(1, 3))


def test_values_transmit_between_workers():
    # immutable values pickle and round-trip exactly
    import pickle

    for v in (rat(3, 7), rat(-2 ** 80, 9), Poly([1, 0, 2]), QuotElem(Poly([-1, 0, 1]), Poly([0, 1]))):
        assert pickle.loads(pickle.dumps(v)) == v


def test_int64_boundary_parity_with_fraction():
    # straddle the 64-bit fast path: products and sums that overflow into
    # the big-integer path must agree with Fraction exactly
    import random as _random

    rng = _random.Random(64)
    interesting = [
        0, 1, -1, 2, 3, 2 ** 31, 2 ** 62, 2 ** 63 - 1, -(2 ** 63 - 1),
        2 ** 63, 2 ** 64 + 3, 3 ** 50, -(3 ** 50),
    ]
    values = []
    for _ in range(300):
        if rng.random() < 0.5:
            n = rng.choice(interesting) + rng.randint(-2, 2)
        else:
            n = rng.randint(-10 ** 25, 10 ** 25)
        d = abs(rng.choice(interesting + [rng.randint(1, 10 ** 20)])) + 1
        values.append((n, d))
    for i in range(0, len(values) - 1, 2):
        (n1, d1), (n2, d2) = values[i], values[i + 1]
        x, y = rat(n1, d1), rat(n2, d2)
        fx, fy = Fraction(n1, d1), Fraction(n2, d2)
        assert (x + y).numerator == (fx + fy).numerator
        assert (x + y).denominator == (fx + fy).denominator
        assert (x * y).numerator == (fx * fy).numerator
        assert (x - y).denominator == (fx - fy).denominator
        if fy:
            q = x / y
            fq = fx / fy
            assert (q.numerator, q.denominator) == (fq.numerator, fq.denominator)
        assert (x < y) == (fx < fy)
        assert (x == y) == (fx == fy)


def test_demotion_at_the_boundary():
    # a big-path value that reduces back into 64-bit range must demote and
    # compare equal to the small construction
    huge = rat(2 ** 100, 2 ** 99)
    assert huge == rat(2)
    assert (huge.numerator, huge.denominator) == (2, 1)
    edge = rat(2 ** 63 - 1)
    assert edge * rat(1) == edge
    assert (edge + rat(1)) - rat(1) == edge


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
