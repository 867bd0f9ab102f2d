"""Desk-scale instances built in code for the tests and the scalar
benchmark: the three algebra carriers the random suites run over and three
pullback diagrams.  The CLI never imports this module; it builds its
algebras and diagrams from JSON specs (see specdoc)."""

from .algebras import (
    IdentityHom,
    PolyAlgebra,
    PropagationAlgebra,
    PropagationSpace,
    QuotientAlgebra,
    QuotientHom,
    RestrictionHom,
    TrivialAlgebra,
)
from .mv import MVDiagram
from .scalars import Poly, rat


def trivial_algebra(max_level=16):
    return TrivialAlgebra(max_level=max_level)


def line_space(npoints=4, radius_base=None):
    """Points 0..n-1 on a line with |i - j| distances; radius base defaults
    to the diameter so the whole algebra sits at level 0 or above."""
    if radius_base is None:
        radius_base = max(npoints - 1, 1)
    dist = [[rat(abs(i - j)) for j in range(npoints)] for i in range(npoints)]
    return PropagationSpace(tuple(str(i) for i in range(npoints)), dist, radius_base)


def propagation_algebra(npoints=4, radius_base=4, max_level=16):
    return PropagationAlgebra(
        line_space(npoints, radius_base), diagonal=False, max_level=max_level
    )


def poly_algebra(max_level=16):
    return PolyAlgebra(max_level=max_level)


def x2_minus_1():
    return Poly([-1, 0, 1])


def quotient_algebra(modulus=None, max_level=16):
    return QuotientAlgebra(
        x2_minus_1() if modulus is None else modulus, max_level=max_level
    )


def suite_algebras(max_level=16):
    """The three instances the identity suite runs over."""
    return {
        "trivial": trivial_algebra(max_level),
        "quotient": quotient_algebra(max_level=max_level),
        "propagation": propagation_algebra(max_level=max_level),
    }


def trivial_diagram(max_level=16):
    """Both legs the identity on the scalars."""
    alg = trivial_algebra(max_level)
    j = IdentityHom(alg, alg)
    return MVDiagram(alg, alg, alg, j, j)


def clutching_diagram(max_level=16):
    """Two polynomial-ring legs over Q[x]/(x^2 - 1); both legs the quotient
    map with the canonical-representative section."""
    top = poly_algebra(max_level)
    overlap = quotient_algebra(max_level=max_level)
    j = QuotientHom(top, overlap)
    return MVDiagram(top, top, overlap, j, j)


def cover_diagram(max_level=16):
    """Five points on a line covered by two overlapping three-point
    subspaces; the legs are restriction maps of diagonal (function)
    propagation algebras with extension-by-zero sections."""
    whole = line_space(5)
    y1 = PropagationSpace(
        ("0", "1", "2"), [row[:3] for row in whole.dist[:3]], whole.radius_base
    )
    y2 = PropagationSpace(
        ("2", "3", "4"), [row[2:] for row in whole.dist[2:]], whole.radius_base
    )
    overlap_pts = ("2",)
    overlap = PropagationSpace(overlap_pts, [[rat(0)]], whole.radius_base)
    a1 = PropagationAlgebra(y1, diagonal=True, max_level=max_level)
    a2 = PropagationAlgebra(y2, diagonal=True, max_level=max_level)
    ap = PropagationAlgebra(overlap, diagonal=True, max_level=max_level)
    j1 = RestrictionHom(a1, ap)
    j2 = RestrictionHom(a2, ap)
    return MVDiagram(a1, a2, ap, j1, j2)
