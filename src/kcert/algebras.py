"""Filtered (localized) algebras: the degree interface, three concrete
carriers, and filtered homomorphisms with deterministic sections.

Degrees are always recomputed from the payload, never trusted from input.
The filtration is decreasing, degree(a*b) >= min(deg a, deg b) - 1 floored
at 0, scalar multiples of 1 sit at max_level, and addition never loses a
level.  The propagation carrier realizes this through supports: the radius
schedule r(mu) = R / 2^mu satisfies r(mu) + r(mu) = r(mu - 1) exactly, so
support addition under composition yields the degree law.

Algebras and homs are immutable after construction.  Each builds its
structural signature once, so ``==`` is an identity check or one tuple
comparison, and a propagation algebra builds its table of per-pair levels
once, so a kernel's degree is the lowest level over its support.
"""

from .scalars import Poly, QuotElem, R0, R1, Rat, encode_rational, parse_rational, rat

TRIVIAL = "trivial"
PROPAGATION = "propagation"
QUOTIENT_LEG = "quotient-pullback-leg"

DEFAULT_MAX_LEVEL = 16


class Kernel:
    """Sparse kernel on point pairs of a finite metric space; composition is
    the integral-operator product, so supports add under multiplication."""

    __slots__ = ("table",)

    def __init__(self, table):
        self.table = {k: v for k, v in table.items() if v}

    @classmethod
    def _raw(cls, table):
        """A kernel on a table that already holds no zero value."""
        k = object.__new__(cls)
        k.table = table
        return k

    def __add__(self, other):
        if not isinstance(other, Kernel):
            return NotImplemented
        out = dict(self.table)
        for k, v in other.table.items():
            s = out.get(k)
            s = v if s is None else s + v
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return Kernel._raw(out) if out else _K_ZERO

    def __sub__(self, other):
        if not isinstance(other, Kernel):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Kernel._raw({key: -v for key, v in self.table.items()})

    def __mul__(self, other):
        if not isinstance(other, Kernel):
            return NotImplemented
        by_row = {}
        for (k, j), v in other.table.items():
            by_row.setdefault(k, []).append((j, v))
        out = {}
        for (i, k), v in self.table.items():
            for j, w in by_row.get(k, ()):
                key = (i, j)
                s = out.get(key)
                s = v * w if s is None else s + v * w
                out[key] = s
        # Cancelling sums can leave zero values, so this one filters.
        return Kernel(out)

    def is_zero(self):
        return not self.table

    def __bool__(self):
        return bool(self.table)

    def __eq__(self, other):
        return isinstance(other, Kernel) and self.table == other.table

    def __hash__(self):
        return hash(frozenset(self.table.items()))

    def __repr__(self):
        items = ", ".join(f"({i},{j}): {v}" for (i, j), v in sorted(self.table.items()))
        return f"Kernel({{{items}}})"


_K_ZERO = Kernel({})


class PropagationSpace:
    """Finite metric space with the geometric radius schedule r(mu) = R/2^mu."""

    __slots__ = ("points", "dist", "radius_base", "_radii")

    def __init__(self, points, dist, radius_base):
        points = tuple(points)
        if len(set(points)) != len(points):
            raise ValueError("duplicate points")
        n = len(points)
        d = tuple(tuple(rat(v) for v in row) for row in dist)
        if len(d) != n or any(len(row) != n for row in d):
            raise ValueError("distance matrix shape mismatch")
        for i in range(n):
            if d[i][i]:
                raise ValueError("nonzero diagonal distance")
            for j in range(n):
                if d[i][j] != d[j][i]:
                    raise ValueError("distance matrix not symmetric")
                if d[i][j] < R0:
                    raise ValueError("negative distance")
                for k in range(n):
                    if d[i][j] > d[i][k] + d[k][j]:
                        raise ValueError("triangle inequality fails")
        R = rat(radius_base)
        diam = max((d[i][j] for i in range(n) for j in range(n)), default=R0)
        if R < diam:
            raise ValueError("radius base must cover the diameter")
        self.points = points
        self.dist = d
        self.radius_base = R
        self._radii = {}

    @property
    def size(self):
        return len(self.points)

    def radius(self, mu):
        """r(mu) = R / 2^mu; satisfies r(mu) + r(mu) = r(mu - 1) exactly."""
        r = self._radii.get(mu)
        if r is None:
            r = self.radius_base / rat(2 ** mu)
            self._radii[mu] = r
        return r

    def index_of(self, label):
        try:
            return self.points.index(label)
        except ValueError:
            raise ValueError(f"unknown point {label!r}") from None

    def signature(self):
        return (
            self.points,
            tuple(tuple(str(v) for v in row) for row in self.dist),
            str(self.radius_base),
        )


class LocalizedAlgebra:
    """A unital algebra together with its computable degree function."""

    __slots__ = ("kind", "max_level", "space", "diagonal", "modulus", "_levels", "_sig",
                 "_zero")

    def __init__(self, kind, max_level=DEFAULT_MAX_LEVEL, space=None,
                 diagonal=False, modulus=None):
        if max_level < 1:
            raise ValueError("max_level must be >= 1")
        self.kind = kind
        self.max_level = max_level
        self.space = None
        self.diagonal = False
        self.modulus = None
        self._levels = None
        if kind == TRIVIAL:
            self._zero = R0
            self._sig = (kind, max_level)
        elif kind == PROPAGATION:
            if not isinstance(space, PropagationSpace):
                raise ValueError("propagation algebra needs a PropagationSpace")
            self.space = space
            self.diagonal = bool(diagonal)
            self._zero = _K_ZERO
            n = space.size
            self._levels = {
                (i, j): self._level_of(space.dist[i][j]) for i in range(n) for j in range(n)
            }
            self._sig = (kind, max_level, space.signature(), self.diagonal)
        elif kind == QUOTIENT_LEG:
            if modulus is not None:
                if not isinstance(modulus, Poly):
                    raise TypeError("modulus must be a Poly")
                if modulus.degree < 1 or not modulus.is_monic():
                    raise ValueError("modulus must be monic of degree >= 1")
            self.modulus = modulus
            self._zero = (
                Poly.zero() if modulus is None else QuotElem._reduced(modulus, Poly.zero())
            )
            self._sig = (kind, max_level, None if modulus is None else modulus.coeffs)
        else:
            raise ValueError(f"unknown algebra kind {kind!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def trivial(cls, max_level=DEFAULT_MAX_LEVEL):
        return cls(TRIVIAL, max_level)

    @classmethod
    def propagation(cls, space, diagonal=False, max_level=DEFAULT_MAX_LEVEL):
        return cls(PROPAGATION, max_level, space=space, diagonal=diagonal)

    @classmethod
    def poly_ring(cls, max_level=DEFAULT_MAX_LEVEL):
        return cls(QUOTIENT_LEG, max_level)

    @classmethod
    def quotient_ring(cls, modulus, max_level=DEFAULT_MAX_LEVEL):
        return cls(QUOTIENT_LEG, max_level, modulus=modulus)

    # -- payloads ----------------------------------------------------------

    def zero(self):
        return self._zero

    def one(self):
        return self.from_rational(R1)

    def from_rational(self, value):
        v = rat(value)
        if self.kind == TRIVIAL:
            return v
        if self.kind == PROPAGATION:
            if not v:
                return _K_ZERO
            return Kernel._raw({(i, i): v for i in range(self.space.size)})
        if self.modulus is None:
            return Poly.const(v)
        return QuotElem(self.modulus, Poly.const(v))

    def accepts(self, payload):
        if self.kind == TRIVIAL:
            return isinstance(payload, Rat)
        if self.kind == PROPAGATION:
            if not isinstance(payload, Kernel):
                return False
            n = self.space.size
            for (i, j) in payload.table:
                if not (0 <= i < n and 0 <= j < n):
                    return False
                if self.diagonal and i != j:
                    return False
            return True
        if self.modulus is None:
            return isinstance(payload, Poly)
        return isinstance(payload, QuotElem) and payload.modulus == self.modulus

    def _level_of(self, reach):
        """Largest mu <= max_level with reach <= r(mu); max_level at reach 0."""
        if not reach:
            return self.max_level
        space = self.space
        mu = 0
        while mu < self.max_level and space.radius(mu + 1) >= reach:
            mu += 1
        return mu

    def degree(self, payload):
        """Largest mu <= max_level with payload in the mu-th subspace.  For a
        kernel that is the lowest pair level over its support: the level is
        monotone in the distance, so this is the level of the farthest reach."""
        if self.kind != PROPAGATION:
            return self.max_level
        return min(map(self._levels.__getitem__, payload.table), default=self.max_level)

    def is_zero(self, payload):
        return not payload

    def element(self, payload):
        if isinstance(payload, AlgebraElement):
            payload = payload.payload
        if isinstance(payload, (int, str)) or isinstance(payload, Rat):
            payload = self.from_rational(rat(payload))
        if not self.accepts(payload):
            raise ValueError(f"payload {payload!r} not in {self.describe()}")
        return AlgebraElement(self, payload)

    # -- text encoding (CLI file formats) ----------------------------------

    def encode_payload(self, payload):
        if self.kind == TRIVIAL:
            return encode_rational(payload)
        if self.kind == PROPAGATION:
            points = self.space.points
            return [
                [points[i], points[j], encode_rational(v)]
                for (i, j), v in sorted(payload.table.items())
            ]
        coeffs = payload.coeffs if self.modulus is None else payload.rep.coeffs
        return [encode_rational(c) for c in coeffs]

    def parse_payload(self, obj):
        if self.kind == TRIVIAL:
            return parse_rational(obj)
        if self.kind == PROPAGATION:
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
        if not isinstance(obj, list):
            raise ValueError("polynomial element must be a coefficient array")
        p = Poly([parse_rational(c) for c in obj])
        return p if self.modulus is None else QuotElem(self.modulus, p)

    def describe(self):
        out = {"kind": self.kind, "max_level": self.max_level}
        if self.kind == PROPAGATION:
            out["points"] = list(self.space.points)
            out["radius_base"] = str(self.space.radius_base)
            out["diagonal"] = self.diagonal
        elif self.kind == QUOTIENT_LEG and self.modulus is not None:
            out["modulus"] = [str(c) for c in self.modulus.coeffs]
        return out

    def __eq__(self, other):
        return self is other or (
            isinstance(other, LocalizedAlgebra) and self._sig == other._sig
        )

    def __hash__(self):
        return hash(self._sig)

    def __repr__(self):
        return f"LocalizedAlgebra({self.describe()!r})"


class AlgebraElement:
    """An element of a localized algebra with its computed degree."""

    __slots__ = ("algebra", "payload", "degree")

    def __init__(self, algebra, payload):
        self.algebra = algebra
        self.payload = payload
        self.degree = algebra.degree(payload)

    def _same(self, other):
        if not isinstance(other, AlgebraElement) or other.algebra != self.algebra:
            raise ValueError("mixed-algebra operands rejected")

    def __add__(self, other):
        self._same(other)
        return AlgebraElement(self.algebra, self.payload + other.payload)

    def __sub__(self, other):
        self._same(other)
        return AlgebraElement(self.algebra, self.payload - other.payload)

    def __mul__(self, other):
        self._same(other)
        return AlgebraElement(self.algebra, self.payload * other.payload)

    def __neg__(self):
        return AlgebraElement(self.algebra, -self.payload)

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.algebra == other.algebra
            and self.payload == other.payload
        )

    def __hash__(self):
        return hash((self.algebra, self.payload))

    def is_zero(self):
        return self.algebra.is_zero(self.payload)

    def __repr__(self):
        return f"<{self.payload!r} deg {self.degree}>"


IDENTITY = "identity"
QUOTIENT = "quotient"
RESTRICTION = "restriction"
INCLUSION = "scalar-inclusion"


class FilteredHom:
    """Unital filtered homomorphism with a deterministic section when
    surjective.  Kinds: identity, quotient (Q[x] -> Q[x]/(m)), restriction
    (diagonal propagation algebras on Y subset X), and the non-surjective
    scalar inclusion of the trivial carrier into any other."""

    __slots__ = ("kind", "source", "target", "surjective", "_src_index", "_tgt_index", "_sig")

    def __init__(self, kind, source, target):
        self.kind = kind
        self.source = source
        self.target = target
        self.surjective = True
        self._src_index = None
        self._tgt_index = None
        if kind == IDENTITY:
            if source != target:
                raise ValueError("identity hom needs equal source and target")
        elif kind == QUOTIENT:
            if source.kind != QUOTIENT_LEG or source.modulus is not None:
                raise ValueError("quotient hom source must be the polynomial ring")
            if target.kind != QUOTIENT_LEG or target.modulus is None:
                raise ValueError("quotient hom target must be a quotient ring")
        elif kind == INCLUSION:
            if source.kind != TRIVIAL:
                raise ValueError("scalar inclusion needs the trivial source")
            self.surjective = False
        elif kind == RESTRICTION:
            if source.kind != PROPAGATION or target.kind != PROPAGATION:
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
        else:
            raise ValueError(f"unknown hom kind {kind!r}")
        self._sig = (kind, source._sig, target._sig)

    # -- payload maps ------------------------------------------------------

    def apply_payload(self, payload):
        if self.kind == IDENTITY:
            return payload
        if self.kind == INCLUSION:
            return self.target.from_rational(payload)
        if self.kind == QUOTIENT:
            # The target's constructor checked that the modulus is monic of
            # degree >= 1, so only the reduction of QuotElem.__init__ is needed.
            modulus = self.target.modulus
            if payload.degree >= modulus.degree:
                _, payload = payload.divmod_by(modulus)
            return QuotElem._reduced(modulus, payload)
        table = {}
        for (i, j), v in payload.table.items():
            a = self._tgt_index.get(i)
            b = self._tgt_index.get(j)
            if a is not None and b is not None:
                table[(a, b)] = v
        return Kernel._raw(table)

    def section_payload(self, payload):
        if self.kind == IDENTITY:
            return payload
        if self.kind == INCLUSION:
            raise ValueError("section of a non-surjective hom")
        if self.kind == QUOTIENT:
            return payload.rep
        table = {}
        for (a, b), v in payload.table.items():
            table[(self._src_index[a], self._src_index[b])] = v
        return Kernel._raw(table)

    def apply(self, elem):
        if elem.algebra != self.source:
            raise ValueError("element not in the hom's source algebra")
        return AlgebraElement(self.target, self.apply_payload(elem.payload))

    def section(self, elem):
        if not self.surjective:
            raise ValueError("section of a non-surjective hom")
        if elem.algebra != self.target:
            raise ValueError("element not in the hom's target algebra")
        return AlgebraElement(self.source, self.section_payload(elem.payload))

    def __eq__(self, other):
        return self is other or (isinstance(other, FilteredHom) and self._sig == other._sig)

    def __hash__(self):
        return hash(self._sig)

    def describe(self):
        return {"type": self.kind}

    def __repr__(self):
        return f"FilteredHom({self.kind}, {self.source.kind} -> {self.target.kind})"
