"""Desk-scale carriers and diagrams for the tests and benchmarks/bench_scalars.py.

The clutching and cover diagrams are read from the bundled specs; only what
no spec holds is built here: a line of points as a propagation space, the
three algebras the identity suite runs over, the trivial diagram with
identity legs, scalar diagonals such as 2 and 1/2, a space's radius
schedule, and the product of two payloads in their algebra.  The CLI builds its
algebras and diagrams from JSON specs alone."""

from importlib import resources

from kcert.algebras import (
    IdentityHom,
    PropagationAlgebra,
    PropagationSpace,
    QuotientAlgebra,
    TrivialAlgebra,
)
from kcert.matrices import FilteredMatrix
from kcert.mv import MVDiagram
from kcert.scalars import Poly, rat
from kcert.specdoc import SpecDocument


def payload_product(algebra, a, b):
    """a * b in the algebra: the one entry of a 1 x 1 matrix product, which
    over Q[x]/(m) is the Q[x] product of the representatives reduced mod m."""
    return (FilteredMatrix(algebra, ((a,),)) @ FilteredMatrix(algebra, ((b,),))).rows[0][0]


def spec_path(name):
    return str(resources.files("kcert.specs").joinpath(name))


def clutching_diagram():
    """quotient_clutching.json's diagram: two Q[x] legs over Q[x]/(x^2 - 1),
    both the quotient map."""
    return SpecDocument.from_path(spec_path("quotient_clutching.json")).diagram


def cover_diagram():
    """propagation_cover.json's diagram: five points on a line covered by
    {0, 1, 2} and {2, 3, 4}, restriction legs of diagonal propagation
    algebras onto the overlap {2}."""
    return SpecDocument.from_path(spec_path("propagation_cover.json")).diagram


def line_space(npoints=4, radius_base=None):
    """Points 0..n-1 on a line with |i - j| distances; radius base defaults
    to the diameter so the whole algebra sits at level 0 or above."""
    if radius_base is None:
        radius_base = max(npoints - 1, 1)
    dist = [[rat(abs(i - j)) for j in range(npoints)] for i in range(npoints)]
    return PropagationSpace(tuple(str(i) for i in range(npoints)), dist, radius_base)


def radius(space, mu):
    """r(mu) = R / 2^mu, the space's radius schedule as Fraction arithmetic:
    r(mu) + r(mu) = r(mu - 1) exactly.  The reference the level table,
    which compares reach * 2^mu with R as integers, must reproduce."""
    return space.radius_base / rat(2 ** mu)


def suite_algebras():
    """The three carriers the identity suite runs over: Q, Q[x]/(x^2 - 1) and
    full kernels on four points of a line."""
    return {
        "trivial": TrivialAlgebra(),
        "quotient": QuotientAlgebra(Poly([-1, 0, 1])),
        "propagation": PropagationAlgebra(line_space(4, 4)),
    }


def trivial_diagram():
    """Both legs the identity on the scalars."""
    alg = TrivialAlgebra()
    j = IdentityHom(alg, alg)
    return MVDiagram(alg, alg, alg, j, j)


def scalar_diag(algebra, value, n):
    """The n x n diagonal matrix with every diagonal entry the rational
    ``value``."""
    z = (algebra.zero(),)
    v = (algebra.from_rational(rat(value)),)
    return FilteredMatrix._raw(algebra, tuple([z * i + v + z * (n - 1 - i) for i in range(n)]))
