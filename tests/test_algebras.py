import json
import random
from fractions import Fraction
from importlib import resources
from math import gcd

import pytest
from carriers import line_space, payload_product, radius, scalar_diag, suite_algebras
from hypothesis import given, settings
from hypothesis import strategies as st

from kcert.algebras import (
    IdentityHom,
    InclusionHom,
    Kernel,
    LocalizedAlgebra,
    PolyAlgebra,
    PropagationAlgebra,
    PropagationSpace,
    QuotientAlgebra,
    QuotientHom,
    RestrictionHom,
    TrivialAlgebra,
    _upper_unit_inverse,
)
from kcert.identities import Sampler
from kcert.matrices import FilteredMatrix, MatrixError, apply_hom_matrix, elementary
from kcert.scalars import Poly, parse_rational, rat
from kcert.specdoc import parse_algebra, parse_diagram


def test_radius_schedule_law(propagation):
    space = propagation.space
    for mu in range(1, propagation.max_level + 1):
        assert radius(space, mu) + radius(space, mu) == radius(space, mu - 1)


# Three points on a line at 1/3 and 1/6: d(a, c) = 1/2 meets the triangle
# inequality with equality, and R = 1/2 is the diameter.
_THIRDS = (("a", "b", "c"), (("0", "1/3", "1/2"), ("1/3", "0", "1/6"), ("1/2", "1/6", "0")),
           "1/2")
_MICRO = rat(1, 10 ** 6)


def _space(points, dist, radius_base):
    return PropagationSpace(points, [[parse_rational(v) if isinstance(v, str) else v
                                      for v in row] for row in dist], rat(radius_base))


def _changed(dist, *entries):
    """dist with each (i, j, value) of ``entries`` put in."""
    rows = [list(row) for row in dist]
    for i, j, v in entries:
        rows[i][j] = v
    return rows


# Four points on a line at 1/3, 1/6 and 1/3: every triangle along the line
# holds with equality over thirds and sixths, up to d(a, d) = 5/6 = R.
_LINE_SIXTHS = (("a", "b", "c", "d"), [[abs(x - y) for y in (0, rat(1, 3), rat(1, 2), rat(5, 6))]
                                        for x in (0, rat(1, 3), rat(1, 2), rat(5, 6))], "5/6")


@pytest.mark.parametrize("case", [_THIRDS, _LINE_SIXTHS], ids=["thirds", "line-sixths"])
def test_space_checks_hold_with_equality(case):
    points, dist, radius_base = case
    space = _space(points, dist, radius_base)
    assert space.radius_base == parse_rational(radius_base)
    assert max(v for row in space.dist for v in row) == space.radius_base


_, _D, _R = _THIRDS
SPACE_REJECTIONS = {
    "duplicate points": (("a", "b", "a"), _D, _R),
    "distance matrix shape mismatch": (("a", "b", "c"), [row[:2] for row in _D], _R),
    "nonzero diagonal distance": (("a", "b", "c"), _changed(_D, (1, 1, _MICRO)), _R),
    "distance matrix not symmetric":
        (("a", "b", "c"), _changed(_D, (1, 0, rat(1, 3) + _MICRO)), _R),
    "triangle inequality fails": (("a", "b", "c"), _changed(
        _D, (0, 2, rat(1, 2) + _MICRO), (2, 0, rat(1, 2) + _MICRO)), "1"),
    "radius base must cover the diameter": (("a", "b", "c"), _D, rat(1, 2) - _MICRO),
    # A negative distance is caught by the triangle inequality first:
    # d(a, a) = 0 > d(a, b) + d(b, a) = -2/10^6.
    "negative distance": (("a", "b", "c"), _changed(_D, (0, 1, -_MICRO), (1, 0, -_MICRO)), _R),
}
SPACE_MESSAGES = {**{m: m for m in SPACE_REJECTIONS},
                  "negative distance": "triangle inequality fails"}


def test_space_validation():
    # One test over all seven rejections, each with its own message.
    for case, args in SPACE_REJECTIONS.items():
        with pytest.raises(ValueError, match=f"^{SPACE_MESSAGES[case]}$"):
            _space(*args)


def test_degree_examples_three_point_line():
    # d(i, j) = |i - j|, R = 4: r(2) = 1 >= 1 > r(3) = 1/2.
    alg = PropagationAlgebra(line_space(3, 4))
    nn = Kernel({(0, 1): rat(1), (1, 0): rat(1), (1, 2): rat(1), (2, 1): rat(1)})
    assert alg.accepts(nn)
    assert alg.degree(nn) == 2
    assert alg.degree(alg.one()) == alg.max_level
    assert alg.degree(alg.zero()) == alg.max_level
    lam = alg.from_rational(rat(-7, 3))
    assert alg.degree(lam) == alg.max_level  # scalar multiples of 1 sit at the top
    assert alg.degree(nn * nn) == 1  # support reaches distance 2 <= r(1)


def test_unit_and_zero_cases(propagation, sampler):
    one = propagation.one()
    x = sampler.payload(propagation)
    assert one * x == x
    assert x * one == x


@pytest.mark.parametrize("kind", ["trivial", "poly", "quotient", "propagation"])
def test_zero_is_built_once(kind):
    algebra = {**suite_algebras(), "poly": PolyAlgebra()}[kind]
    assert algebra.zero() is algebra.zero()
    assert algebra.zero() == algebra.from_rational(0)
    assert algebra.accepts(algebra.zero()) and not algebra.zero()


@pytest.mark.parametrize("kind", ["trivial", "poly", "quotient", "propagation"])
def test_one_is_built_once(kind):
    algebra = {**suite_algebras(), "poly": PolyAlgebra()}[kind]
    assert algebra.one() is algebra.one()
    assert algebra.one() == algebra.from_rational(1)
    assert algebra.accepts(algebra.one())
    ident = FilteredMatrix.identity(algebra, 3)
    assert all(ident.rows[i][i] is algebra.one() for i in range(3))
    assert ident == scalar_diag(algebra, 1, 3)


# x^2 - 1/3 is not integral: its integer form is 3x^2 - 1, so e = 3 != 1.
IMAGE_MODULI = [Poly([-1, 0, 1]), Poly([rat(-1, 3), 0, 1])]


@pytest.mark.parametrize("modulus", IMAGE_MODULI, ids=str)
def test_quotient_image_keeps_short_entries_and_reduces_long_ones(modulus):
    source = PolyAlgebra()
    h = QuotientHom(source, QuotientAlgebra(modulus))
    short = [Poly([rat(2, 3)]), Poly([rat(-1, 2), rat(5, 7)])]
    long = [
        Poly([rat(1, 2), 0, rat(-3, 5)]),
        Poly([0, 1, rat(2, 9), 1]),
        modulus * Poly([rat(4, 5), 1]),  # reduces to zero
        modulus * Poly([1, 1]) + Poly([rat(1, 6)]),  # reduces to a constant
    ]
    rows = [short + long[:2], long[2:] + [source.zero(), Poly([])], short[::-1] + long[1:3],
            [source.zero()] * 2 + long[::3]]
    m = FilteredMatrix(source, rows)
    carried = FilteredMatrix(source, rows) @ FilteredMatrix.identity(source, 4)
    assert carried == m
    for operand in (m, carried):
        image = apply_hom_matrix(h, operand)
        # The short entries sit at columns 0 and 1 of rows 0 and 2.
        for r, c in ((0, 0), (0, 1), (2, 0), (2, 1)):
            assert image.rows[r][c] is operand.rows[r][c]
        for row, out in zip(operand.rows, image.rows):
            for p, q in zip(row, out):
                if p.degree < modulus.degree:
                    assert q is p  # zeros too, the shared one and a fresh Poly([])
                else:
                    assert q == h.apply_payload(p)
                    assert q.degree < modulus.degree
                    if not q:
                        assert q is h.target.zero()
        assert image == FilteredMatrix(
            h.target, [[h.apply_payload(p) for p in row] for row in operand.rows]
        )


@pytest.mark.parametrize("kind", ["trivial", "quotient", "propagation"])
def test_axiom4_and_linearity(all_algebras, kind):
    algebra = all_algebras[kind]
    sampler = Sampler(99)
    degree = algebra.degree
    for _ in range(1000):
        a = sampler.payload(algebra)
        b = sampler.payload(algebra)
        assert degree(payload_product(algebra, a, b)) >= max(0, min(degree(a), degree(b)) - 1)
        assert degree(a + b) >= min(degree(a), degree(b))


def test_axiom3_scalars(all_algebras):
    sampler = Sampler(5)
    for algebra in all_algebras.values():
        for _ in range(50):
            lam = sampler.rational()
            assert algebra.degree(algebra.from_rational(lam)) == algebra.max_level


def test_quotient_hom_and_section(quotient):
    top = PolyAlgebra()
    h = QuotientHom(top, quotient)
    x3 = Poly([0, 0, 0, 1])
    img = h.apply_payload(x3)
    assert quotient.accepts(img)
    assert img == Poly([0, 1])  # x^3 = x mod x^2 - 1
    assert h.section_payload(quotient.one()) == Poly.one()
    assert h.apply_payload(h.section_payload(img)) == img
    assert quotient.degree(img) >= top.degree(x3)


def test_restriction_hom_roundtrip():
    whole = PropagationAlgebra(line_space(5), diagonal=True)
    sub = PropagationAlgebra(line_space(3), diagonal=True)
    # points "0","1","2" with the inherited metric
    h = RestrictionHom(whole, sub)
    f = Kernel({(0, 0): rat(2), (3, 3): rat(5)})
    img = h.apply_payload(f)
    assert img == Kernel({(0, 0): rat(2)})
    back = h.section_payload(img)
    assert back == Kernel({(0, 0): rat(2)})  # extension by zero
    assert h.apply_payload(back) == img


def test_restriction_requires_diagonal():
    whole = PropagationAlgebra(line_space(5))
    sub = PropagationAlgebra(line_space(3))
    with pytest.raises(ValueError):
        RestrictionHom(whole, sub)


def test_section_is_right_inverse_randomized(clutching, cover):
    sampler = Sampler(17)
    for diagram in (clutching, cover):
        for hom in (diagram.j1, diagram.j2):
            for _ in range(200):
                target = sampler.payload(hom.target)
                lift = hom.section_payload(target)
                assert hom.source.accepts(lift)
                assert hom.apply_payload(lift) == target


def test_homs_are_unital_and_multiplicative(clutching, cover):
    sampler = Sampler(23)
    for diagram in (clutching, cover):
        for hom in (diagram.j1, diagram.j2):
            f = hom.apply_payload
            assert f(hom.source.one()) == hom.target.one()
            for _ in range(100):
                a = sampler.payload(hom.source)
                b = sampler.payload(hom.source)
                assert f(a * b) == payload_product(hom.target, f(a), f(b))
                assert f(a + b) == f(a) + f(b)


def test_identity_hom(trivial):
    h = IdentityHom(trivial, trivial)
    e = rat(5, 3)
    assert h.apply_payload(e) == e
    assert h.section_payload(e) == e


def test_element_encoding_round_trip(all_algebras):
    sampler = Sampler(31)
    for algebra in all_algebras.values():
        for _ in range(50):
            payload = sampler.payload(algebra)
            enc = algebra.encode_payload(payload)
            assert algebra.parse_payload(enc) == payload


def test_same_carrier_different_schedules():
    # The same metric space wrapped with two radius bases filters differently.
    a_fine = PropagationAlgebra(line_space(3, 4))
    a_coarse = PropagationAlgebra(line_space(3, 8))
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
        if not prod:
            continue
        assert reach(prod) <= reach(a) + reach(b)


def test_scalar_inclusion_hom(trivial):
    target = PolyAlgebra()
    h = InclusionHom(trivial, target)
    assert not h.surjective
    assert h.apply_payload(rat(3, 2)) == Poly([rat(3, 2)])
    assert not hasattr(h, "section_payload")
    with pytest.raises(ValueError):
        InclusionHom(target, target)


# -- equality contract -------------------------------------------------------

PROPAGATION_SPEC = {
    "kind": "propagation", "max_level": 16, "diagonal": False,
    "points": ["a", "b", "c"],
    "dist": [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]],
    "radius_base": "4",
}
QUOTIENT_SPEC = {"kind": "quotient-pullback-leg", "max_level": 16, "modulus": ["-1", "0", "1"]}
ALGEBRA_SPECS = {
    "trivial": {"kind": "trivial", "max_level": 16},
    "poly": {"kind": "quotient-pullback-leg", "max_level": 16},
    "quotient": QUOTIENT_SPEC,
    "propagation": PROPAGATION_SPEC,
    "propagation-diagonal": dict(PROPAGATION_SPEC, diagonal=True),
}


def _parse_twice(spec, parse=parse_algebra):
    # a JSON round trip, so the two parses share no objects
    return parse(json.loads(json.dumps(spec))), parse(json.loads(json.dumps(spec)))


@pytest.mark.parametrize("name", sorted(ALGEBRA_SPECS))
def test_separately_parsed_algebras_are_equal(name):
    a, b = _parse_twice(ALGEBRA_SPECS[name])
    assert a is not b
    assert a == b and not a != b
    assert FilteredMatrix.identity(a, 2) == FilteredMatrix.identity(b, 2)
    assert (FilteredMatrix.identity(a, 2) @ FilteredMatrix.identity(b, 2)).algebra == a


@pytest.mark.parametrize("spec", ["quotient_clutching.json", "propagation_cover.json"])
def test_separately_parsed_homs_are_equal(spec):
    raw = json.loads(resources.files("kcert.specs").joinpath(spec).read_text())
    d1, d2 = _parse_twice(raw["diagram"], parse_diagram)
    for h1, h2 in ((d1.j1, d2.j1), (d1.j2, d2.j2)):
        assert h1 is not h2
        assert h1 == h2
    assert d1 == d2


def _with_distance(spec, i, j, value):
    dist = [list(row) for row in spec["dist"]]
    dist[i][j] = dist[j][i] = value
    return dict(spec, dist=dist)


NEAR_TWINS = {
    "kind": (ALGEBRA_SPECS["trivial"], ALGEBRA_SPECS["poly"]),
    "max_level": (PROPAGATION_SPEC, dict(PROPAGATION_SPEC, max_level=15)),
    "diagonal": (PROPAGATION_SPEC, ALGEBRA_SPECS["propagation-diagonal"]),
    "distance": (PROPAGATION_SPEC, _with_distance(PROPAGATION_SPEC, 0, 2, "3/2")),
    "radius_base": (PROPAGATION_SPEC, dict(PROPAGATION_SPEC, radius_base="8")),
    "points": (PROPAGATION_SPEC, dict(PROPAGATION_SPEC, points=["a", "b", "d"])),
    "modulus": (QUOTIENT_SPEC, dict(QUOTIENT_SPEC, modulus=["1", "0", "1"])),
    "no modulus": (QUOTIENT_SPEC, ALGEBRA_SPECS["poly"]),
}


@pytest.mark.parametrize("component", sorted(NEAR_TWINS))
def test_one_changed_component_gives_unequal_algebras(component):
    a, b = (parse_algebra(spec) for spec in NEAR_TWINS[component])
    assert a != b and b != a
    assert not a == b
    ma, mb = FilteredMatrix.identity(a, 2), FilteredMatrix.identity(b, 2)
    assert ma != mb
    for op in (lambda x, y: x @ y, lambda x, y: x + y, lambda x, y: x - y,
               lambda x, y: x.direct_sum(y)):
        with pytest.raises(MatrixError):
            op(ma, mb)
        with pytest.raises(MatrixError):
            op(mb, ma)


def test_changed_leg_gives_unequal_homs():
    top = PolyAlgebra()
    h = QuotientHom(top, QuotientAlgebra(Poly([-1, 0, 1])))
    other = QuotientHom(top, QuotientAlgebra(Poly([1, 0, 1])))
    lower = QuotientHom(PolyAlgebra(15), QuotientAlgebra(Poly([-1, 0, 1])))
    assert h != other and h != lower
    triv = TrivialAlgebra()
    assert IdentityHom(triv, triv) != IdentityHom(
        TrivialAlgebra(3), TrivialAlgebra(3)
    )


# -- one class per carrier and per hom -------------------------------------------


def _diagonal(space, max_level=16):
    return PropagationAlgebra(space, diagonal=True, max_level=max_level)


def _two_points(d):
    return PropagationSpace(("0", "1"), [[0, d], [d, 0]], 4)


INVALID_HOMS = {
    "identity-unequal": (IdentityHom, lambda: (TrivialAlgebra(), TrivialAlgebra(3)),
                         "equal source and target"),
    "quotient-source": (QuotientHom, lambda: (suite_algebras()["quotient"],) * 2,
                        "source must be the polynomial ring"),
    "quotient-target": (QuotientHom, lambda: (PolyAlgebra(), PolyAlgebra()),
                        "target must be a quotient ring"),
    "restriction-carrier": (
        RestrictionHom, lambda: (PolyAlgebra(), suite_algebras()["quotient"]),
        "needs propagation algebras"),
    "restriction-max-level": (
        RestrictionHom, lambda: (_diagonal(line_space(5)), _diagonal(line_space(3), 15)),
        "must preserve max_level"),
    "restriction-foreign-point": (
        RestrictionHom, lambda: (_diagonal(line_space(5)), _diagonal(
            PropagationSpace(("0", "9"), [[0, 1], [1, 0]], 4))),
        "not in source space"),
    "restriction-metric": (
        RestrictionHom, lambda: (_diagonal(line_space(5)), _diagonal(_two_points(2))),
        "must inherit the metric"),
}


@pytest.mark.parametrize("case", sorted(INVALID_HOMS))
def test_hom_rejects_invalid_pairing(case):
    hom, algebras, message = INVALID_HOMS[case]
    with pytest.raises(ValueError, match=message):
        hom(*algebras())


def _leg(cls, **described):
    return cls, dict({"kind": cls.kind, "max_level": 16}, **described)


def _cover_leg(*points):
    return _leg(PropagationAlgebra, points=list(points), radius_base="4", diagonal=True)


# What each parse builds, per part (the algebra, or a diagram's three algebras
# and two homs), with the description reports embed.
PARSED_CLASSES = {
    "trivial": [_leg(TrivialAlgebra)],
    "poly": [_leg(PolyAlgebra)],
    "quotient": [_leg(QuotientAlgebra, modulus=["-1", "0", "1"])],
    "propagation": [_leg(PropagationAlgebra, points=["a", "b", "c"], radius_base="4",
                         diagonal=False)],
    "propagation-diagonal": [_leg(PropagationAlgebra, points=["a", "b", "c"],
                                  radius_base="4", diagonal=True)],
    "quotient_clutching.json": [
        _leg(PolyAlgebra), _leg(PolyAlgebra),
        _leg(QuotientAlgebra, modulus=["-1", "0", "1"]),
        (QuotientHom, {"type": "quotient"}), (QuotientHom, {"type": "quotient"}),
    ],
    "propagation_cover.json": [
        _cover_leg("0", "1", "2"), _cover_leg("2", "3", "4"), _cover_leg("2"),
        (RestrictionHom, {"type": "restriction"}), (RestrictionHom, {"type": "restriction"}),
    ],
}


@pytest.mark.parametrize("name", sorted(PARSED_CLASSES))
def test_parsed_classes_and_descriptions(name):
    if name in ALGEBRA_SPECS:
        parts = [parse_algebra(ALGEBRA_SPECS[name])]
    else:
        raw = json.loads(resources.files("kcert.specs").joinpath(name).read_text())
        d = parse_diagram(raw["diagram"])
        parts = [d.lambda1, d.lambda2, d.lambda_prime, d.j1, d.j2]
        assert d.describe() == {
            role: described for role, (_, described)
            in zip(("lambda1", "lambda2", "lambda_prime", "j1", "j2"), PARSED_CLASSES[name])
        }
    for part, (cls, described) in zip(parts, PARSED_CLASSES[name], strict=True):
        assert type(part) is cls
        assert part.describe() == described


# -- degree parity -------------------------------------------------------------


def reference_degree(algebra, payload):
    """The degree as the farthest reach of the support, walked down the radius
    schedule: the definition the level table must reproduce."""
    if not payload:
        return algebra.max_level
    space = algebra.space
    reach = rat(0)
    for (i, j) in payload.table:
        d = space.dist[i][j]
        if d > reach:
            reach = d
    if not reach:
        return algebra.max_level
    if reach > radius(space, 0):
        return 0
    mu = 0
    while mu < algebra.max_level and radius(space, mu + 1) >= reach:
        mu += 1
    return mu


def _third_space():
    # non-integer distances, and a zero distance between distinct points
    third, half = rat(1, 3), rat(3, 2)
    return PropagationSpace(
        ("a", "b", "c", "d"),
        [[0, third, half, half],
         [third, 0, half, half],
         [half, half, 0, 0],
         [half, half, 0, 0]],
        rat(5, 3),
    )


DEGREE_SPACES = {
    "line1": lambda: line_space(1),
    "line2": lambda: line_space(2),
    "line4": lambda: line_space(4),
    "line4-R4": lambda: line_space(4, 4),
    "line6": lambda: line_space(6),
    "thirds": _third_space,
}


SATURATING = {("line4", 1), ("line4-R4", 1), ("line6", 1), ("thirds", 1)}


@pytest.mark.parametrize("max_level", [1, 3, 16])
@pytest.mark.parametrize("space_name", sorted(DEGREE_SPACES))
def test_degree_table_matches_reach_loop(space_name, max_level):
    space = DEGREE_SPACES[space_name]()
    algebra = PropagationAlgebra(space, max_level=max_level)
    n = space.size
    pairs = [(i, j) for i in range(n) for j in range(n)]
    rng = random.Random(f"{space_name}-{max_level}")
    kernels = [Kernel({}), Kernel({(i, i): rat(i + 1) for i in range(n)})]
    kernels += [Kernel({p: rat(1)}) for p in pairs]
    for _ in range(300):
        support = rng.sample(pairs, rng.randint(1, len(pairs)))
        kernels.append(Kernel({p: rat(rng.randint(-9, 9) or 1, rng.randint(1, 5))
                               for p in support}))
    saturated = False
    for k in kernels:
        want = reference_degree(algebra, k)
        assert algebra.degree(k) == want, k
        saturated |= want == max_level and any(space.dist[i][j] for i, j in k.table)
    # there the schedule stops at max_level while r(max_level) still covers a reach
    assert saturated == ((space_name, max_level) in SATURATING)


# -- propagation unit inverses against the geometric series -------------------


def _series_inverse(algebra, lam, nil):
    """(lam * 1 + N)^-1 as lam^-1 * sum_k (-N / lam)^k, a finite series
    since N is nilpotent: the reference for the back-substituted inverse."""
    n_k = Kernel(nil)
    lam_inv = rat(1) / lam
    scaled = algebra.from_rational(-lam_inv) * n_k
    acc = power = algebra.one()
    while True:
        power = power * scaled
        if not power:
            break
        acc = acc + power
    return algebra.from_rational(lam_inv) * acc


_small = st.builds(rat, st.integers(-7, 7), st.integers(1, 7))


@st.composite
def _nilpotents(draw):
    """(points, lam, strictly upper-triangular table) on 1-6 points."""
    n = draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    nil = {pair: draw(_small.filter(bool)) for pair in chosen}
    return n, draw(_small.filter(bool)), nil


@settings(max_examples=200)
@given(_nilpotents())
def test_upper_unit_inverse_matches_series(case):
    n, lam, nil = case
    algebra = PropagationAlgebra(line_space(n))
    u = algebra.from_rational(lam) + Kernel(nil)
    inv = _upper_unit_inverse(lam, nil, n)
    assert inv == _series_inverse(algebra, lam, nil)
    assert all(v for v in inv.table.values())
    assert u * inv == algebra.one() and inv * u == algebra.one()


# -- Kernel arithmetic against a dict-of-Fraction schoolbook --------------------
# The references below use Fraction's own operators on plain dicts, and share
# no code with Kernel or _upper_unit_inverse.


def _school_product(a, b):
    out = {}
    for (i, k), v in a.items():
        for (q, j), w in b.items():
            if k == q:
                out[(i, j)] = out.get((i, j), Fraction(0)) + v * w
    return {key: v for key, v in out.items() if v != 0}


def _school_sum(a, b):
    out = dict(a)
    for key, v in b.items():
        out[key] = out.get(key, Fraction(0)) + v
    return {key: v for key, v in out.items() if v != 0}


def _school_unit_inverse(lam, nil, n):
    """(lam * 1 + N)^-1 by Gauss-Jordan elimination on the dense matrix."""
    m = [[lam if i == j else nil.get((i, j), Fraction(0)) for j in range(n)]
         + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        pivot = m[c][c]
        m[c] = [x / pivot for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return {(i, j): m[i][n + j] for i in range(n) for j in range(n) if m[i][n + j] != 0}


def _assert_stored_values_canonical(kernel):
    """Every stored value is a nonzero reduced Fraction with a positive
    denominator, read through the public properties."""
    for v in kernel.table.values():
        assert type(v) is Fraction and v.numerator != 0 and v.denominator > 0
        assert gcd(v.numerator, v.denominator) == 1


# Small rationals, and numerators and denominators near 2^63 and 2^127.
_BIG = st.sampled_from([2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1, 2 ** 127 - 1, 2 ** 127, 2 ** 127 + 1])
_values = st.one_of(
    st.builds(Fraction, st.integers(-7, 7).filter(bool), st.integers(1, 7)),
    st.builds(lambda sign, big, den: Fraction(sign * big, den),
              st.sampled_from([1, -1]), _BIG, st.one_of(st.integers(1, 9), _BIG)),
    st.builds(lambda num, big: Fraction(num, big), st.integers(-9, 9).filter(bool), _BIG),
)
_KEYS = [(i, j) for i in range(3) for j in range(3)]
_tables = st.dictionaries(st.sampled_from(_KEYS), _values, max_size=len(_KEYS))


@st.composite
def _cancelling_products(draw):
    """(a, b) with a * b zero at (i, j): a[i][k] b[k][j] = -a[i][q] b[q][j],
    the only two terms there, so a product may cancel to empty."""
    i, j = draw(st.sampled_from(range(3))), draw(st.sampled_from(range(3)))
    k, q = draw(st.sampled_from([(0, 1), (1, 2), (0, 2)]))
    x, y, w = draw(_values), draw(_values), draw(_values)
    return {(i, k): x, (i, q): y}, {(k, j): w, (q, j): -x * w / y}


@settings(max_examples=200)
@given(st.one_of(st.tuples(_tables, _tables), _cancelling_products()))
def test_kernel_product_matches_schoolbook(case):
    a, b = case
    product = Kernel(a) * Kernel(b)
    assert product.table == _school_product(a, b)
    _assert_stored_values_canonical(product)
    if not product.table:
        assert product is PropagationAlgebra(line_space(3)).zero()


@settings(max_examples=150)
@given(_tables, _tables, st.booleans())
def test_kernel_sum_and_difference_match_schoolbook(a, b, cancel):
    if cancel:
        # b cancels a on every shared key.
        b = {**b, **{key: -v for key, v in a.items()}}
    negated = {key: -v for key, v in b.items()}
    for built, want in ((Kernel(a) + Kernel(b), _school_sum(a, b)),
                        (Kernel(a) - Kernel(negated), _school_sum(a, b)),
                        (-Kernel(b), negated)):
        assert built.table == want
        _assert_stored_values_canonical(built)
    zero = PropagationAlgebra(line_space(3)).zero()
    assert Kernel(a) - Kernel(a) is zero


@st.composite
def _big_nilpotents(draw):
    """(points, lam, strictly upper-triangular table) on 1-5 points, with
    values near 2^63 and 2^127 as well as small ones."""
    n = draw(st.integers(1, 5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return n, draw(_values), {pair: draw(_values) for pair in chosen}


@settings(max_examples=200)
@given(_big_nilpotents())
def test_upper_unit_inverse_matches_schoolbook(case):
    n, lam, nil = case
    inv = _upper_unit_inverse(lam, nil, n)
    assert inv.table == _school_unit_inverse(lam, nil, n)
    _assert_stored_values_canonical(inv)


def test_upper_unit_inverse_cancels_to_a_missing_entry():
    # Row 0 of the inverse of 1 + N, N = e01 + e12 + e02: the (0, 2) entry
    # is -N02 + N01 * N12 = 0, so it is not stored.
    one = Fraction(1)
    inv = _upper_unit_inverse(one, {(0, 1): one, (1, 2): one, (0, 2): one}, 3)
    assert (0, 2) not in inv.table
    assert inv.table == _school_unit_inverse(one, {(0, 1): one, (1, 2): one, (0, 2): one}, 3)


def test_quotient_unit_draw_falls_back_to_one():
    # Every draw is 1 + x, a zero divisor mod x^2 - 1: after 64 draws the
    # unit is 1, its own inverse.
    algebra = QuotientAlgebra(Poly([-1, 0, 1]))

    class ZeroDivisors:
        draws = 0

        def _below(self, n):
            return n - 1

        def rational(self):
            self.draws += 1
            return rat(1)

    sampler = ZeroDivisors()
    assert algebra._random_unit(sampler) == (algebra.one(), algebra.one())
    assert sampler.draws == 2 * 64


def test_propagation_membership(propagation):
    # A kernel is in the algebra when its points are the space's, and, in a
    # diagonal algebra, when it sits on the diagonal.
    diagonal = PropagationAlgebra(propagation.space, diagonal=True)
    one = Kernel({(0, 0): rat(1)})
    assert propagation.accepts(one) and diagonal.accepts(one)
    assert propagation.accepts(Kernel({(0, 3): rat(1)}))
    assert not diagonal.accepts(Kernel({(0, 3): rat(1)}))
    assert not propagation.accepts(Kernel({(0, 4): rat(1)}))
    assert not propagation.accepts(rat(1))


def test_quotient_membership(quotient):
    # An element of Q[x]/(m) is its representative, a Poly of degree
    # < deg m; a longer Poly is no element, and elementary rejects it.
    for rep in (Poly.zero(), Poly.one(), Poly([rat(-1, 2), rat(5, 3)])):
        assert quotient.accepts(rep)
    for long in (Poly([0, 0, 1]), Poly([-1, 0, 1]), Poly([0, 0, 0, 1])):
        assert not quotient.accepts(long)
        with pytest.raises(MatrixError, match="entry not in the algebra"):
            elementary(quotient, 2, 0, 1, long)
        assert quotient.accepts(QuotientHom(PolyAlgebra(), quotient).apply_payload(long))
    assert not quotient.accepts(rat(1))


def test_trivial_algebra_constructor():
    # The static constructor the benchmark's self-test builds its algebra by.
    assert LocalizedAlgebra.trivial(4) == TrivialAlgebra(4)
