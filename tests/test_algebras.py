import pytest

from kcert.algebras import (
    IDENTITY,
    QUOTIENT,
    RESTRICTION,
    AlgebraElement,
    FilteredHom,
    Kernel,
    LocalizedAlgebra,
    PropagationSpace,
)
from kcert.identities import Sampler
from kcert.instances import line_space, quotient_algebra
from kcert.scalars import Poly, rat


def test_radius_schedule_law(propagation):
    space = propagation.space
    for mu in range(1, propagation.max_level + 1):
        assert space.radius(mu) + space.radius(mu) == space.radius(mu - 1)


def test_space_validation():
    with pytest.raises(ValueError):
        PropagationSpace(("a", "b"), [[rat(0), rat(1)], [rat(2), rat(0)]], 4)
    with pytest.raises(ValueError):
        PropagationSpace(("a", "b"), [[rat(0), rat(9)], [rat(9), rat(0)]], 4)


def test_degree_examples_three_point_line():
    # d(i, j) = |i - j|, R = 4: r(2) = 1 >= 1 > r(3) = 1/2.
    alg = LocalizedAlgebra.propagation(line_space(3, 4))
    nn = alg.element(Kernel({(0, 1): rat(1), (1, 0): rat(1), (1, 2): rat(1), (2, 1): rat(1)}))
    assert nn.degree == 2
    assert alg.element(alg.one()).degree == alg.max_level
    assert alg.element(alg.zero()).degree == alg.max_level
    lam = alg.element(alg.from_rational(rat(-7, 3)))
    assert lam.degree == alg.max_level  # scalar multiples of 1 sit at the top
    prod = nn * nn
    assert prod.degree == 1  # support reaches distance 2 <= r(1)


def test_unit_and_zero_cases(propagation, sampler):
    one = propagation.element(propagation.one())
    x = propagation.element(sampler.payload(propagation))
    assert one * x == x
    assert x * one == x


@pytest.mark.parametrize("kind", ["trivial", "quotient", "propagation"])
def test_axiom4_and_linearity(all_algebras, kind):
    algebra = all_algebras[kind]
    sampler = Sampler(99)
    for _ in range(1000):
        a = sampler.element(algebra)
        b = sampler.element(algebra)
        prod = a * b
        assert prod.degree >= max(0, min(a.degree, b.degree) - 1)
        s = a + b
        assert s.degree >= min(a.degree, b.degree)


def test_axiom3_scalars(all_algebras):
    sampler = Sampler(5)
    for algebra in all_algebras.values():
        for _ in range(50):
            lam = sampler.rational()
            e = algebra.element(algebra.from_rational(lam))
            assert e.degree == algebra.max_level


def test_mixed_algebra_rejected(trivial, quotient):
    a = trivial.element(rat(1))
    b = quotient.element(quotient.one())
    with pytest.raises(ValueError):
        a * b


def test_quotient_hom_and_section(quotient):
    top = LocalizedAlgebra.poly_ring()
    h = FilteredHom(QUOTIENT, top, quotient)
    x3 = top.element(Poly([0, 0, 0, 1]))
    img = h.apply(x3)
    assert img.payload.rep == Poly([0, 1])  # x^3 = x mod x^2 - 1
    one = quotient.element(quotient.one())
    assert h.section(one).payload == Poly.one()
    assert h.apply(h.section(img)) == img
    assert img.degree >= x3.degree


def test_restriction_hom_roundtrip():
    whole = LocalizedAlgebra.propagation(line_space(5), diagonal=True)
    sub = LocalizedAlgebra.propagation(line_space(3), diagonal=True)
    # points "0","1","2" with the inherited metric
    h = FilteredHom(RESTRICTION, whole, sub)
    f = whole.element(Kernel({(0, 0): rat(2), (3, 3): rat(5)}))
    img = h.apply(f)
    assert img.payload == Kernel({(0, 0): rat(2)})
    back = h.section(img)
    assert back.payload == Kernel({(0, 0): rat(2)})  # extension by zero
    assert h.apply(back) == img


def test_restriction_requires_diagonal():
    whole = LocalizedAlgebra.propagation(line_space(5))
    sub = LocalizedAlgebra.propagation(line_space(3))
    with pytest.raises(ValueError):
        FilteredHom(RESTRICTION, whole, sub)


def test_section_is_right_inverse_randomized(clutching, cover):
    sampler = Sampler(17)
    for diagram in (clutching, cover):
        for hom in (diagram.j1, diagram.j2):
            for _ in range(200):
                target = AlgebraElement(
                    hom.target, sampler.payload(hom.target)
                )
                assert hom.apply(hom.section(target)) == target


def test_homs_are_unital_and_multiplicative(clutching, cover):
    sampler = Sampler(23)
    for diagram in (clutching, cover):
        for hom in (diagram.j1, diagram.j2):
            one = hom.source.element(hom.source.one())
            assert hom.apply(one).payload == hom.target.one()
            for _ in range(100):
                a = AlgebraElement(hom.source, sampler.payload(hom.source))
                b = AlgebraElement(hom.source, sampler.payload(hom.source))
                assert hom.apply(a * b) == hom.apply(a) * hom.apply(b)
                assert hom.apply(a + b) == hom.apply(a) + hom.apply(b)


def test_identity_hom(trivial):
    h = FilteredHom(IDENTITY, trivial, trivial)
    e = trivial.element(rat(5, 3))
    assert h.apply(e) == e


def test_element_encoding_round_trip(all_algebras):
    sampler = Sampler(31)
    for algebra in all_algebras.values():
        for _ in range(50):
            payload = sampler.payload(algebra)
            enc = algebra.encode_payload(payload)
            assert algebra.parse_payload(enc) == payload


def test_same_carrier_different_schedules():
    # The same metric space wrapped with two radius bases filters differently.
    a_fine = LocalizedAlgebra.propagation(line_space(3, 4))
    a_coarse = LocalizedAlgebra.propagation(line_space(3, 8))
    k = Kernel({(0, 1): rat(1), (1, 0): rat(1)})
    assert a_fine.degree(k) == 2
    assert a_coarse.degree(k) == 3


def test_support_addition_law(propagation, sampler):
    # composition reaches at most the sum of the supports' reaches
    space = propagation.space

    def reach(payload):
        return max((space.dist[i][j] for (i, j) in payload.table), default=rat(0))

    for _ in range(200):
        a = sampler.payload(propagation)
        b = sampler.payload(propagation)
        prod = a * b
        if prod.is_zero():
            continue
        assert reach(prod) <= reach(a) + reach(b)


def test_scalar_inclusion_hom(trivial):
    from kcert.algebras import INCLUSION

    target = LocalizedAlgebra.poly_ring()
    h = FilteredHom(INCLUSION, trivial, target)
    assert not h.surjective
    e = trivial.element(rat(3, 2))
    assert h.apply(e).payload == Poly([rat(3, 2)])
    with pytest.raises(ValueError):
        h.section(target.element(target.one()))
    with pytest.raises(ValueError):
        FilteredHom(INCLUSION, target, target)
