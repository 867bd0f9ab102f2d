"""Filtered (localized) algebras: the degree interface, the carriers, and
filtered homomorphisms with deterministic sections.

One class per carrier (TrivialAlgebra, PropagationAlgebra, PolyAlgebra,
QuotientAlgebra) owns its payload conversions, codec, identity-suite draws
and fraction-free matrix product; one class per hom kind (IdentityHom,
QuotientHom, RestrictionHom, InclusionHom) owns its payload map, its section
when surjective, and its construction checks.  ``kind`` and ``type`` name
them in reports.

An element is its bare payload.  Degrees are always recomputed from the
payload, never trusted from input.  The filtration is decreasing,
degree(a*b) >= min(deg a, deg b) - 1 floored at 0, scalar multiples of 1
sit at max_level, and addition never loses a level.  The propagation
carrier realizes this through supports: the radius schedule
r(mu) = R / 2^mu satisfies r(mu) + r(mu) = r(mu - 1) exactly, so support
addition under composition yields the degree law.

Algebras and homs are immutable after construction.  Each builds its
structural signature, its zero and its one once, so ``==`` is an identity
check or one tuple comparison and every identity matrix shares one unit
payload, and a propagation algebra builds its table of per-pair levels
once, so a kernel's degree is the lowest level over its support.  The
carrier owns a matrix's level too (_matrix_level): without a level table it
is max_level, and over kernels it is one pass over the union of the
entries' supports, so a zero entry costs nothing.

Matrix products are fraction-free (cf. Bareiss, Math. Comp. 22, 1968):
each operand is read once as integers over the lcm of its denominators,
only nonzero entries are multiplied, and each result entry is reduced once,
one gcd per coefficient or per entry instead of a reduced rational multiply
and add per term.  Over Q the integers form
an n x n grid over the entries that are not the shared zero R0, an
identity test that reads nothing.  Most zeros of the identity suite are
R0: those of identities and zero blocks, of product entries, of row and
column operations that cancel, and of draws.  Any other zero (a negated or
subtracted one, "0" parsed from a spec) is kept and only adds 0.  Kernels
on |X| points form a sparse (n|X|) x (n|X|) block matrix,
whose product decodes each distinct integer sum once (lam * 1 units put one
value on every point, so most sums repeat within a product);
over Q[x] each entry accumulates an integer coefficient list, and over
Q[x]/(m) that list is reduced mod m once per entry, which is exact because
reduction mod m is a ring map.  That reduction is integer pseudo-division,
the one reduction mod m in kcert (see scalars.py).  A Q[x] or Q[x]/(m)
entry already holds its integers over one denominator (see scalars.Poly),
so an operand is read as it is, rescaling only the entries whose
denominator differs from the lcm (_poly_rows), and each product entry is
built reduced, with no decode.  A Q[x]/(m) element is a Poly of degree
< deg m, so the same Poly payload serves both rings; the modulus is held by
the QuotientAlgebra alone.  The quotient hom keeps every entry of degree
< deg m as it is and reduces the others one at a time.
The Q and kernel products read every rational through Fraction's two slots
``_numerator`` and ``_denominator`` (see scalars.py), never by a Fraction
method, and so do all of Kernel's arithmetic (a sum or product holds each
value as an integer pair and builds it once by ``_reduced``) and the build
of a propagation algebra, whose metric checks and level table compare
integers.  FilteredMatrix ``==`` and first_mismatch compare rows by the
carrier hook ``_rows_equal`` and ``-`` negates by ``_negate``: the payloads'
own ``==`` and ``-``, except over Q, where each is a slot loop.  Payloads
stay reduced, so equality and encodings do not depend on how a
product was computed.
Products and images are built through the operand's own matrix class, so
this module needs no import of matrices.py.

Each carrier draws identity-suite units together with their exact
inverses, and no inverse is a series or a Euclid loop.  Over Q and Q[x] a
unit is a nonzero scalar, and a diagonal propagation unit is one per point.
A full propagation unit is u = lam * 1 + N with N strictly upper
triangular in the point order; u^-1 is built by back substitution, last
point first (_upper_unit_inverse), each entry summed as an unreduced
integer pair and built once by ``_reduced``.  Over Q[x]/(m) a drawn
representative is inverted by ``scalars._quot_inverse``, a Bareiss solve
of the integer multiplication-by-rep system that rejects exactly the
non-units.  An elementary row or column operation adds y * a per touched
entry (_add_multiple): over Q as one integer sum over x.den * y.den * a.den
and one reduced rational, read from and built on the slots, over Q[x]/(m)
as x plus the remainder of the Q[x] product y * a, and on the other
carriers as the payloads' own x + y * a.  An exact inverse is unique, so
the draws do not depend on how it is computed.
"""

from itertools import chain
from math import lcm
from operator import eq, neg

from .scalars import (
    NotInvertible,
    Poly,
    R0,
    R1,
    Rat,
    _negated,
    _poly_of,
    _quot_inverse,
    _reciprocal,
    _reduce_ints,
    _reduced,
    _remainder,
    encode_rational,
    parse_rational,
    rat,
)

DEFAULT_MAX_LEVEL = 16


class Kernel:
    """Sparse kernel on point pairs of a finite metric space; composition is
    the integral-operator product, so supports add under multiplication."""

    __slots__ = ("table",)

    def __init__(self, table):
        self.table = {k: v for k, v in table.items() if v._numerator}

    @classmethod
    def _raw(cls, table):
        """A kernel on a table that already holds no zero value."""
        k = object.__new__(cls)
        k.table = table
        return k

    def __add__(self, other):
        out = dict(self.table)
        for k, v in other.table.items():
            s = out.get(k)
            if s is None:
                out[k] = v
            elif c := s._numerator * v._denominator + v._numerator * s._denominator:
                out[k] = _reduced(c, s._denominator * v._denominator)
            else:
                del out[k]
        return Kernel._raw(out) if out else _K_ZERO

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Kernel._raw({key: _negated(v) for key, v in self.table.items()})

    def __mul__(self, other):
        by_row = {}
        for (k, j), w in other.table.items():
            by_row.setdefault(k, []).append((j, w._numerator, w._denominator))
        sums = {}
        for (i, k), v in self.table.items():
            vn, vd = v._numerator, v._denominator
            for j, wn, wd in by_row.get(k, ()):
                key = (i, j)
                s = sums.get(key)
                c, d = vn * wn, vd * wd
                sums[key] = (c, d) if s is None else (s[0] * d + c * s[1], s[1] * d)
        out = {key: _reduced(c, d) for key, (c, d) in sums.items() if c}
        return Kernel._raw(out) if out else _K_ZERO

    def __bool__(self):
        return bool(self.table)

    def __eq__(self, other):
        # Values are nonzero reduced Fractions, so equal kernels have the
        # same keys and equal values have equal slots: one loop over the
        # slots, as in Poly.__eq__, with no Fraction.__eq__ call.
        a, b = self.table, other.table
        if len(a) != len(b):
            return False
        get = b.get
        for key, x in a.items():
            y = get(key)
            if y is None or (x is not y and (
                x._numerator != y._numerator or x._denominator != y._denominator
            )):
                return False
        return True

    def __repr__(self):
        items = ", ".join(f"({i},{j}): {v}" for (i, j), v in sorted(self.table.items()))
        return f"Kernel({{{items}}})"


_K_ZERO = Kernel({})


def is_point_label(label):
    """A point label is a JSON string, integer or null.  Not a bool, which
    list.index would match to the point 1, nor a float, array or object."""
    return label is None or type(label) in (str, int)


class PropagationSpace:
    """Finite metric space with the geometric radius schedule r(mu) = R/2^mu."""

    __slots__ = ("points", "dist", "radius_base")

    def __init__(self, points, dist, radius_base):
        points = tuple(points)
        if len(set(points)) != len(points):
            raise ValueError("duplicate points")
        n = len(points)
        d = tuple([tuple([rat(v) for v in row]) for row in dist])
        if len(d) != n or any(len(row) != n for row in d):
            raise ValueError("distance matrix shape mismatch")
        # The distances as integers over den, their common denominator.
        den = lcm(*[v._denominator for row in d for v in row])
        e = [[v._numerator * (den // v._denominator) for v in row] for row in d]
        for i in range(n):
            if e[i][i]:
                raise ValueError("nonzero diagonal distance")
            for j in range(n):
                if e[i][j] != e[j][i]:
                    raise ValueError("distance matrix not symmetric")
                for k in range(n):
                    if e[i][j] > e[i][k] + e[k][j]:
                        raise ValueError("triangle inequality fails")
        R = rat(radius_base)
        diam = max([x for row in e for x in row], default=0)
        if R._numerator * den < diam * R._denominator:
            raise ValueError("radius base must cover the diameter")
        self.points = points
        self.dist = d
        self.radius_base = R

    @property
    def size(self):
        return len(self.points)

    def index_of(self, label):
        # A spec's points are labels too (specdoc checks them), so list.index
        # then matches only a label of the same kind: 1 never finds the point
        # true, nor 1.0 the point 1.
        if not is_point_label(label):
            raise ValueError(f"bad point label {label!r}")
        try:
            return self.points.index(label)
        except ValueError:
            raise ValueError(f"unknown point {label!r}") from None

    def signature(self):
        return (
            self.points,
            tuple([tuple([encode_rational(v) for v in row]) for row in self.dist]),
            encode_rational(self.radius_base),
        )


class LocalizedAlgebra:
    """A unital algebra together with its computable degree function: the
    base of the four carrier classes."""

    __slots__ = ("max_level", "_sig", "_zero", "_one")
    kind = None
    # Per-pair levels of a propagation algebra; without a table every
    # payload sits at max_level.
    _levels = None
    # Whether two rows of payloads are equal entrywise: the tuple ==, which
    # calls each payload's own __eq__.  A builtin, so it binds no self.
    _rows_equal = eq
    # -a for a payload a: the payload's own __neg__, a builtin as above.
    _negate = neg

    def __init__(self, max_level, zero, one, *signature):
        self.max_level = max_level
        self._zero = zero
        self._one = one
        self._sig = (self.kind, max_level, *signature)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def trivial(max_level=DEFAULT_MAX_LEVEL):
        """Kept for perfbench/selftest.py, which builds its algebra here."""
        return TrivialAlgebra(max_level)

    # -- payloads ----------------------------------------------------------

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def degree(self, payload):
        """Largest mu <= max_level with payload in the mu-th subspace.  For a
        kernel that is the lowest pair level over its support: the level is
        monotone in the distance, so this is the level of the farthest reach."""
        levels = self._levels
        if levels is None:
            return self.max_level
        return min(map(levels.__getitem__, payload.table), default=self.max_level)

    def _matrix_level(self, rows):
        """The level of a matrix with these rows: the lowest entry degree,
        which without a level table is max_level for every payload."""
        return self.max_level

    def _add_multiple(self, a, left=False):
        """The map (x, y) -> x + y * a, or x + a * y when left, that an
        elementary column or row operation applies to each touched entry;
        y is not the shared zero."""
        if left:
            return lambda x, y: x + a * y
        return lambda x, y: x + y * a

    def describe(self):
        return {"kind": self.kind, "max_level": self.max_level}

    def __eq__(self, other):
        return self is other or (
            isinstance(other, LocalizedAlgebra) and self._sig == other._sig
        )


class TrivialAlgebra(LocalizedAlgebra):
    """Q, with every element at max_level."""

    __slots__ = ()
    kind = "trivial"

    def __init__(self, max_level=DEFAULT_MAX_LEVEL):
        super().__init__(max_level, R0, R1)

    def from_rational(self, value):
        return rat(value)

    def accepts(self, payload):
        return isinstance(payload, Rat)

    def encode_payload(self, payload):
        return encode_rational(payload)

    def parse_payload(self, obj):
        return parse_rational(obj)

    def _random_payload(self, sampler):
        return sampler.rational()

    def _random_unit(self, sampler):
        v = sampler.rational(allow_zero=False)
        return v, _reciprocal(v)

    def _add_multiple(self, a, left=False):
        """Fraction-free, and the same on both sides since Q is commutative:
        x + y * a over the one denominator x.den * y.den * a.den, reduced by
        one gcd; a sum that cancels is the shared zero R0."""
        an, ad = a._numerator, a._denominator
        if not an:
            return lambda x, y: x

        def add_multiple(x, y):
            xd = x._denominator
            yd = y._denominator * ad
            c = x._numerator * yd + y._numerator * an * xd
            return _reduced(c, xd * yd) if c else R0

        return add_multiple

    @staticmethod
    def _rows_equal(a, b):
        """Entrywise equality of two rows of rationals of one length: they
        are reduced, so equal values have equal slots, and one loop compares
        the slots with no Fraction.__eq__ call."""
        for x, y in zip(a, b):
            if x is not y and (
                x._numerator != y._numerator or x._denominator != y._denominator
            ):
                return False
        return True

    _negate = staticmethod(_negated)

    def _product(self, a, b):
        return a._raw(self, _rational_product(a.rows, b.rows))


class PropagationAlgebra(LocalizedAlgebra):
    """Finite-support kernels on a PropagationSpace, filtered by reach; a
    diagonal algebra holds only kernels supported on the diagonal."""

    __slots__ = ("space", "diagonal", "_levels", "_pairs")
    kind = "propagation"

    def __init__(self, space, diagonal=False, max_level=DEFAULT_MAX_LEVEL):
        diagonal = bool(diagonal)
        one = Kernel._raw({(i, i): R1 for i in range(space.size)})
        super().__init__(max_level, _K_ZERO, one, space.signature(), diagonal)
        self.space = space
        self.diagonal = diagonal
        n = space.size
        self._levels = {
            (i, j): self._level_of(space.dist[i][j]) for i in range(n) for j in range(n)
        }
        # The point pair (i, j) at index i * n + j, the key _kernel_product
        # gives its integer sums.
        self._pairs = [(i, j) for i in range(n) for j in range(n)]

    def _level_of(self, reach):
        """Largest mu <= max_level with reach <= r(mu) = R / 2^mu, else 0, and
        max_level at reach 0: 2^mu <= R / reach, so mu is one less than the
        bit length of the integer floor(R / reach), read on the slots."""
        if not reach._numerator:
            return self.max_level
        R = self.space.radius_base
        q = R._numerator * reach._denominator // (reach._numerator * R._denominator)
        return min(self.max_level, max(q.bit_length() - 1, 0))

    def _matrix_level(self, rows):
        """One pass over every entry's support; a zero kernel has none, so it
        adds nothing, just as its degree is max_level."""
        supports = chain.from_iterable([p.table for row in rows for p in row])
        return min(map(self._levels.__getitem__, supports), default=self.max_level)

    def from_rational(self, value):
        v = rat(value)
        if not v:
            return _K_ZERO
        return Kernel._raw({(i, i): v for i in range(self.space.size)})

    def accepts(self, payload):
        if not isinstance(payload, Kernel):
            return False
        n = self.space.size
        for (i, j) in payload.table:
            if not (0 <= i < n and 0 <= j < n):
                return False
            if self.diagonal and i != j:
                return False
        return True

    def encode_payload(self, payload):
        points = self.space.points
        return [
            [points[i], points[j], encode_rational(v)]
            for (i, j), v in sorted(payload.table.items())
        ]

    def parse_payload(self, obj):
        if not isinstance(obj, list):
            raise ValueError("propagation element must be a list of triples")
        table = {}
        for triple in obj:
            if not isinstance(triple, list) or len(triple) != 3:
                raise ValueError(f"bad kernel triple {triple!r}")
            i = self.space.index_of(triple[0])
            j = self.space.index_of(triple[1])
            if self.diagonal and i != j:
                raise ValueError("off-diagonal entry in a diagonal algebra")
            if (i, j) in table:
                raise ValueError(f"duplicate kernel entry {triple[:2]!r}")
            table[(i, j)] = parse_rational(triple[2])
        return Kernel(table)

    def describe(self):
        space = self.space
        return dict(super().describe(), points=list(space.points),
                    radius_base=encode_rational(space.radius_base), diagonal=self.diagonal)

    def _random_payload(self, sampler):
        n = self.space.size
        table = {}
        below = sampler._below
        for _ in range(below(4)):
            i = below(n)
            j = i if self.diagonal else below(n)
            table[(i, j)] = sampler.rational(allow_zero=False)
        return Kernel(table)

    def _random_unit(self, sampler):
        space = self.space
        lam = sampler.rational(allow_zero=False)
        if self.diagonal:
            table = {}
            inv = {}
            for i in range(space.size):
                v = sampler.rational(allow_zero=False)
                table[(i, i)] = v
                inv[(i, i)] = _reciprocal(v)
            return Kernel._raw(table), Kernel._raw(inv)
        # lam * 1 + a nilpotent kernel N, strictly upper triangular in the
        # point order.
        n = space.size
        nil = {}
        below = sampler._below
        for _ in range(below(3)):
            i = below(n - 1) if n > 1 else 0
            j = i + 1 + below(n - 1 - i) if n > 1 else 0
            if i != j:
                nil[(i, j)] = sampler.rational(allow_zero=False)
        table = {(i, i): lam for i in range(n)}
        table.update(nil)
        return Kernel._raw(table), _upper_unit_inverse(lam, nil, n)

    def _product(self, a, b):
        return a._raw(self, _kernel_product(a.rows, b.rows, self))


def _upper_unit_inverse(lam, nil, n):
    """(lam * 1 + N)^-1 for N strictly upper triangular on n points (the
    table ``nil``), by back substitution, last point first: row i of the
    inverse is (e_i - sum over k > i of N[i][k] * row k) / lam, each entry an
    integer pair over the slots until it is built once by _reduced."""
    inv_lam = _reciprocal(lam)
    # -1/lam as the integer pair (fn, fd), with fd > 0.
    fn, fd = -inv_lam._numerator, inv_lam._denominator
    by_row = {}
    for (i, k), c in nil.items():
        by_row.setdefault(i, []).append((k, fn * c._numerator, fd * c._denominator))
    rows = [None] * n
    for i in range(n - 1, -1, -1):
        sums = {}
        for k, cn, cd in by_row.get(i, ()):
            for j, v in rows[k].items():
                vn, vd = v._numerator * cn, v._denominator * cd
                s = sums.get(j)
                sums[j] = (vn, vd) if s is None else (s[0] * vd + vn * s[1], s[1] * vd)
        rows[i] = {i: inv_lam, **{j: _reduced(c, d) for j, (c, d) in sums.items() if c}}
    return Kernel._raw({(i, j): v for i, row in enumerate(rows) for j, v in row.items()})


class PolyAlgebra(LocalizedAlgebra):
    """Q[x], the polynomial leg of a quotient pullback; every element sits
    at max_level."""

    __slots__ = ()
    kind = "quotient-pullback-leg"
    modulus = None

    def __init__(self, max_level=DEFAULT_MAX_LEVEL):
        super().__init__(max_level, Poly.zero(), Poly.one(), None)

    def from_rational(self, value):
        return Poly.const(rat(value))

    def accepts(self, payload):
        return isinstance(payload, Poly)

    def encode_payload(self, payload):
        return [encode_rational(c) for c in payload.coeffs]

    def parse_payload(self, obj):
        return _parse_poly(obj)

    def _random_payload(self, sampler):
        return _random_poly(sampler, 2)

    def _random_unit(self, sampler):
        v = sampler.rational(allow_zero=False)
        return Poly.const(v), Poly.const(_reciprocal(v))

    def _product(self, a, b):
        return _poly_product(a, b)


class QuotientAlgebra(LocalizedAlgebra):
    """Q[x]/(m) for a monic modulus m of degree >= 1, the overlap of a
    quotient pullback; every element sits at max_level.  An element is its
    reduced representative, a Poly of degree < deg m, and the modulus is
    held here only."""

    __slots__ = ("modulus", "_m_int")
    kind = "quotient-pullback-leg"

    def __init__(self, modulus, max_level=DEFAULT_MAX_LEVEL):
        if modulus.degree < 1 or not modulus.is_monic():
            raise ValueError("modulus must be monic of degree >= 1")
        # 0 and 1 have degree < deg m, so each is its own representative.
        super().__init__(max_level, Poly.zero(), Poly.one(), (modulus.nums, modulus.den))
        self.modulus = modulus
        # e * m with integer coefficients, e = den the lcm of m's denominators.
        self._m_int = list(modulus.nums)

    def from_rational(self, value):
        return Poly.const(rat(value))

    def accepts(self, payload):
        return isinstance(payload, Poly) and len(payload.nums) <= self.modulus.degree

    def encode_payload(self, payload):
        return [encode_rational(c) for c in payload.coeffs]

    def parse_payload(self, obj):
        p = _parse_poly(obj)
        return p if len(p.nums) <= self.modulus.degree else _remainder(p, self._m_int)

    def describe(self):
        return dict(super().describe(), modulus=[encode_rational(c) for c in self.modulus.coeffs])

    def _random_payload(self, sampler):
        p = _random_poly(sampler, 2)
        return p if len(p.nums) <= self.modulus.degree else _remainder(p, self._m_int)

    def _random_unit(self, sampler):
        modulus = self.modulus
        for _ in range(64):
            e = _random_poly(sampler, modulus.degree - 1)
            if not e.nums:
                continue
            try:
                return e, _quot_inverse(e, modulus)
            except NotInvertible:
                continue
        return self.one(), self.one()

    def _add_multiple(self, a, left=False):
        """x + y * a reduced mod m, the same on both sides since Q[x]/(m) is
        commutative: the one place a payload product must be the quotient
        product."""
        m_int = self._m_int
        return lambda x, y: x + _remainder(y * a, m_int)

    def _product(self, a, b):
        return _poly_product(a, b)


def _parse_poly(obj):
    if not isinstance(obj, list):
        raise ValueError("polynomial element must be a coefficient array")
    return Poly([parse_rational(c) for c in obj])


def _random_poly(sampler, top):
    """A polynomial of random degree 0..top with small rational coefficients."""
    return Poly([sampler.rational() for _ in range(sampler._below(top + 1) + 1)])


class FilteredHom:
    """Unital filtered homomorphism with a deterministic section when
    surjective: the base of the four hom classes."""

    __slots__ = ("source", "target", "_sig")
    type = None
    surjective = True

    def __init__(self, source, target):
        self.source = source
        self.target = target
        self._sig = (self.type, source._sig, target._sig)

    def _apply_matrix(self, m):
        """Entrywise image of a matrix over the source."""
        f = self.apply_payload
        return m._raw(self.target, tuple([tuple([f(p) for p in row]) for row in m.rows]))

    def __eq__(self, other):
        return self is other or (isinstance(other, FilteredHom) and self._sig == other._sig)

    def describe(self):
        return {"type": self.type}


class IdentityHom(FilteredHom):
    """The identity of one algebra, its own section."""

    __slots__ = ()
    type = "identity"

    def __init__(self, source, target):
        if source != target:
            raise ValueError("identity hom needs equal source and target")
        super().__init__(source, target)

    def apply_payload(self, payload):
        return payload

    def section_payload(self, payload):
        return payload


class QuotientHom(FilteredHom):
    """Q[x] -> Q[x]/(m); the section takes the canonical representative."""

    __slots__ = ()
    type = "quotient"

    def __init__(self, source, target):
        if not isinstance(source, PolyAlgebra):
            raise ValueError("quotient hom source must be the polynomial ring")
        if not isinstance(target, QuotientAlgebra):
            raise ValueError("quotient hom target must be a quotient ring")
        super().__init__(source, target)

    def apply_payload(self, payload):
        """The remainder of payload mod m, by integer pseudo-division over
        the target's integer form of m; a zero remainder is the shared zero."""
        return _remainder(payload, self.target._m_int)

    def section_payload(self, payload):
        return payload

    def _apply_matrix(self, m):
        """Entries of degree < deg m are kept as they are; only the others
        are read as integers and reduced (apply_payload)."""
        dm = self.target.modulus.degree
        reduce = self.apply_payload
        return m._raw(self.target, tuple([
            tuple([p if len(p.nums) <= dm else reduce(p) for p in row]) for row in m.rows
        ]))


class RestrictionHom(FilteredHom):
    """Restriction of functions on X to Y subset X, between diagonal
    propagation algebras; the section extends by zero."""

    __slots__ = ("_src_index", "_tgt_index")
    type = "restriction"

    def __init__(self, source, target):
        if not (isinstance(source, PropagationAlgebra)
                and isinstance(target, PropagationAlgebra)):
            raise ValueError("restriction hom needs propagation algebras")
        if not (source.diagonal and target.diagonal):
            # Restricting a full kernel algebra is not multiplicative:
            # products may route through points outside the subspace.
            raise ValueError("restriction hom requires diagonal algebras")
        if source.max_level != target.max_level:
            raise ValueError("restriction hom must preserve max_level")
        src, tgt = source.space, target.space
        missing = [p for p in tgt.points if p not in src.points]
        if missing:
            raise ValueError(f"target points {missing} not in source space")
        self._src_index = tuple(src.index_of(p) for p in tgt.points)
        self._tgt_index = {src.index_of(p): k for k, p in enumerate(tgt.points)}
        for a in range(tgt.size):
            for b in range(tgt.size):
                ia, ib = self._src_index[a], self._src_index[b]
                if tgt.dist[a][b] != src.dist[ia][ib]:
                    raise ValueError("restricted space must inherit the metric")
        super().__init__(source, target)

    def apply_payload(self, payload):
        table = {}
        for (i, j), v in payload.table.items():
            a = self._tgt_index.get(i)
            b = self._tgt_index.get(j)
            if a is not None and b is not None:
                table[(a, b)] = v
        return Kernel._raw(table)

    def section_payload(self, payload):
        table = {}
        for (a, b), v in payload.table.items():
            table[(self._src_index[a], self._src_index[b])] = v
        return Kernel._raw(table)


class InclusionHom(FilteredHom):
    """The scalars into any carrier; not surjective, so it has no section
    (every lift checks ``surjective`` first)."""

    __slots__ = ()
    type = "scalar-inclusion"
    surjective = False

    def __init__(self, source, target):
        if not isinstance(source, TrivialAlgebra):
            raise ValueError("scalar inclusion needs the trivial source")
        super().__init__(source, target)

    def apply_payload(self, payload):
        return self.target.from_rational(payload)


# -- fraction-free product kernels ----------------------------------------------
# An operand is read once: its common denominator is the lcm over all of its
# denominators, and each coefficient becomes the integer
# numerator * (den // denominator).


def _rational_product(a, b):
    """Q: an n x n integer grid product over the nonzero entries.  Entries
    are selected by identity with the shared zero R0, so only they are
    read; a zero that is another object only adds 0 to a sum."""
    a_nonzero = [[(k, x) for k, x in enumerate(row) if x is not R0] for row in a]
    b_nonzero = [[(j, y) for j, y in enumerate(row) if y is not R0] for row in b]
    da = lcm(*[x._denominator for row in a_nonzero for _, x in row])
    db = lcm(*[y._denominator for row in b_nonzero for _, y in row])
    b_ints = [[(j, y._numerator * (db // y._denominator)) for j, y in row] for row in b_nonzero]
    d = da * db
    n = len(a)
    out = []
    for row in a_nonzero:
        acc = [0] * n
        for k, x in row:
            x = x._numerator * (da // x._denominator)
            for j, y in b_ints[k]:
                acc[j] += x * y
        out.append(tuple([_reduced(c, d) if c else R0 for c in acc]))
    return tuple(out)


def _kernel_product(a, b, algebra):
    """Kernels on the algebra's points: a sparse (n*points) x (n*points)
    integer block product.  B is indexed once by (block row, point); the
    sums are keyed by (block column, point pair) and only nonzero sums are
    kept.  Each distinct sum is decoded once: a lam * 1 unit puts one value
    on every point, so sums repeat across pairs and entries.  The memo is
    local to the call because the denominator d differs between products."""
    points = algebra.space.size
    pairs = algebra._pairs
    zero = algebra.zero()
    da = lcm(*[v._denominator for row in a for p in row for v in p.table.values()])
    db = lcm(*[v._denominator for row in b for p in row for v in p.table.values()])
    b_index = [[] for _ in range(len(b) * points)]
    for k, row in enumerate(b):
        base = k * points
        for j, p in enumerate(row):
            for (q, r), w in p.table.items():
                b_index[base + q].append((j, r, w._numerator * (db // w._denominator)))
    d = da * db
    memo = {}
    n = len(a)
    out = []
    for row in a:
        # acc[j] maps s * points + r to the integer sum for pair (s, r).
        acc = [{} for _ in range(n)]
        for k, p in enumerate(row):
            base = k * points
            for (s, q), v in p.table.items():
                terms = b_index[base + q]
                if terms:
                    v = v._numerator * (da // v._denominator)
                    key = s * points
                    for j, r, w in terms:
                        t = acc[j]
                        t[key + r] = t.get(key + r, 0) + v * w
        entries = []
        for t in acc:
            table = {}
            for key, c in t.items():
                if c:
                    v = memo.get(c)
                    if v is None:
                        v = memo[c] = _reduced(c, d)
                    table[pairs[key]] = v
            entries.append(Kernel._raw(table) if table else zero)
        out.append(tuple(entries))
    return tuple(out)


def _poly_rows(rows):
    """Per row the (column, integer coefficients) of each nonzero Q[x] or
    Q[x]/(m) entry, over den, the lcm of the entry denominators: an entry
    over den is read as it is, and only the others are rescaled."""
    den = lcm(*{p.den for row in rows for p in row})
    return [
        [(j, p.nums if p.den == den else [c * (den // p.den) for c in p.nums])
         for j, p in enumerate(row) if p.nums]
        for row in rows
    ], den


def _poly_product(a, b):
    """Q[x] and Q[x]/(m): each entry accumulates an integer coefficient
    list over da * db; over Q[x]/(m) the finished list is reduced mod m
    once.  Each entry is then built reduced by ``scalars._poly_of``, one
    gcd of its denominator and coefficients; a zero is the algebra's shared
    zero."""
    algebra = a.algebra
    quotient = algebra.modulus is not None
    na, da = _poly_rows(a.rows)
    nb, db = _poly_rows(b.rows)
    d = da * db
    if quotient:
        m_int = algebra._m_int
    zero = algebra.zero()
    n = a.n
    out = []
    for arow in na:
        acc = [None] * n
        for k, p in arow:
            for j, q in nb[k]:
                c = acc[j]
                size = len(p) + len(q) - 1
                if c is None:
                    c = acc[j] = [0] * size
                elif len(c) < size:
                    c.extend([0] * (size - len(c)))
                for s, x in enumerate(p):
                    if x:
                        for t, y in enumerate(q, s):
                            c[t] += x * y
        entries = []
        for c in acc:
            if c is None:
                entries.append(zero)
            elif quotient:
                entries.append(_poly_of(c, d * _reduce_ints(c, m_int)))
            else:
                entries.append(_poly_of(c, d))
        out.append(tuple(entries))
    return a._raw(algebra, tuple(out))
