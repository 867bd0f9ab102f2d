"""Declarative spec documents for the CLI: a single JSON-compatible object
with "algebra" or "diagram", optional named "matrices", and a "command"
section.  Rationals are strings "p/q", polynomial elements are coefficient
arrays, propagation kernels are sparse [point, point, value] triples.
Claimed levels are re-derived and rejected on mismatch."""

import json

from .algebras import (
    IdentityHom,
    InclusionHom,
    PolyAlgebra,
    PropagationAlgebra,
    PropagationSpace,
    QuotientAlgebra,
    QuotientHom,
    RestrictionHom,
    TrivialAlgebra,
    is_point_label,
)
from .matrices import FilteredMatrix, InvertibleCert
from .mv import MVDiagram
from .scalars import Poly, parse_rational


class SpecError(Exception):
    """Schema violation; the CLI maps this to exit code 2."""


ALGEBRA_KEYS = {"kind", "max_level", "points", "dist", "radius_base", "diagonal", "modulus"}
HOM_KEYS = {"type", "source", "target"}
MATRIX_KEYS = {"algebra", "size", "entries", "inverse", "level"}
COMMAND_KEYS = {
    "name", "seed", "samples", "max_size", "u", "lift_a", "lift_b", "m",
    "perturb_a", "perturb_b", "corrupt_witness",
}
TOP_KEYS = {"algebra", "diagram", "matrices", "command"}


def _require(cond, message):
    if not cond:
        raise SpecError(message)


def is_json_int(value):
    """A JSON integer: ``json`` loads ``true``/``false`` as ``bool``, a
    subclass of ``int`` that must not pass as a count or level."""
    return isinstance(value, int) and not isinstance(value, bool)


def _json_object(pairs):
    """A JSON object whose keys are distinct: readers differ on which of two
    equal keys wins, so a spec must not depend on it."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise SpecError(f"duplicate key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def _check_keys(obj, allowed, where):
    _require(isinstance(obj, dict), f"{where} must be an object")
    unknown = set(obj) - allowed
    _require(not unknown, f"{where} has unknown keys {sorted(unknown)}")


def _propagation(obj, where, max_level):
    points = obj.get("points")
    dist = obj.get("dist")
    _require(isinstance(points, list) and points, f"{where}: points required")
    # The report echoes each label, and a report holds no float.
    for label in points:
        _require(not isinstance(label, float), f"{where}: float point label {label!r}")
        _require(is_point_label(label), f"{where}: bad point label {label!r}")
    _require(isinstance(dist, list), f"{where}: dist required")
    # A string row would otherwise be read character by character.
    _require(all(isinstance(row, list) for row in dist), f"{where}: dist rows must be arrays")
    diagonal = obj.get("diagonal", False)
    _require(isinstance(diagonal, bool), f"{where}: diagonal must be true or false")
    rows = [[parse_rational(v) for v in row] for row in dist]
    space = PropagationSpace(points, rows, parse_rational(obj.get("radius_base", "1")))
    return PropagationAlgebra(space, diagonal=diagonal, max_level=max_level)


def _pullback_leg(obj, where, max_level):
    modulus = obj.get("modulus")
    if modulus is None:
        return PolyAlgebra(max_level=max_level)
    _require(isinstance(modulus, list), f"{where}: modulus must be a coefficient array")
    return QuotientAlgebra(
        Poly([parse_rational(c) for c in modulus]), max_level=max_level
    )


# The document's "kind" names the carrier; Q[x] and Q[x]/(m) share one,
# told apart by the modulus.
ALGEBRA_PARSERS = {
    TrivialAlgebra.kind: lambda obj, where, max_level: TrivialAlgebra(max_level),
    PropagationAlgebra.kind: _propagation,
    PolyAlgebra.kind: _pullback_leg,
}
HOM_CLASSES = {h.type: h for h in (IdentityHom, QuotientHom, RestrictionHom, InclusionHom)}


def parse_algebra(obj, where="algebra"):
    _check_keys(obj, ALGEBRA_KEYS, where)
    kind = obj.get("kind")
    max_level = obj.get("max_level", 16)
    _require(is_json_int(max_level) and max_level >= 1, f"{where}: bad max_level")
    parse = ALGEBRA_PARSERS.get(kind) if isinstance(kind, str) else None
    _require(parse is not None, f"{where}: unknown kind {kind!r}")
    try:
        return parse(obj, where, max_level)
    except (ValueError, TypeError) as exc:
        raise SpecError(f"{where}: {exc}") from exc


def parse_diagram(obj, where="diagram"):
    _check_keys(
        obj, {"lambda1", "lambda2", "lambda_prime", "j1", "j2"}, where
    )
    algebras = {}
    for role in ("lambda1", "lambda2", "lambda_prime"):
        _require(role in obj, f"{where}: {role} required")
        algebras[role] = parse_algebra(obj[role], f"{where}.{role}")
    homs = {}
    for leg, src in (("j1", "lambda1"), ("j2", "lambda2")):
        spec = obj.get(leg)
        _check_keys(spec or {}, HOM_KEYS, f"{where}.{leg}")
        _require(spec and "type" in spec, f"{where}.{leg}: type required")
        hom = HOM_CLASSES.get(spec["type"]) if isinstance(spec["type"], str) else None
        _require(hom is not None, f"{where}.{leg}: unknown type {spec['type']!r}")
        try:
            homs[leg] = hom(algebras[src], algebras["lambda_prime"])
        except ValueError as exc:
            raise SpecError(f"{where}.{leg}: {exc}") from exc
    try:
        return MVDiagram(
            algebras["lambda1"], algebras["lambda2"], algebras["lambda_prime"],
            homs["j1"], homs["j2"],
        )
    except ValueError as exc:
        raise SpecError(f"{where}: {exc}") from exc


def parse_matrix(obj, algebra, where="matrix"):
    _check_keys(obj, MATRIX_KEYS, where)
    size = obj.get("size")
    entries = obj.get("entries")
    _require(is_json_int(size) and size >= 1, f"{where}: bad size")
    _require(
        isinstance(entries, list) and len(entries) == size,
        f"{where}: entries must be a {size}x{size} grid",
    )
    rows = []
    for r, row in enumerate(entries):
        _require(isinstance(row, list) and len(row) == size, f"{where}: row {r} malformed")
        try:
            rows.append(tuple([algebra.parse_payload(e) for e in row]))
        except (ValueError, TypeError) as exc:
            raise SpecError(f"{where}: row {r}: {exc}") from exc
    mat = FilteredMatrix(algebra, rows)
    claimed = obj.get("level")
    if claimed is not None:
        _require(is_json_int(claimed), f"{where}: claimed level must be an integer")
        _require(
            claimed == mat.level,
            f"{where}: claimed level {claimed} but recomputed {mat.level}",
        )
    inverse = obj.get("inverse")
    if inverse is not None:
        inv = parse_matrix(
            {"size": size, "entries": inverse}, algebra, f"{where}.inverse"
        )
        try:
            return InvertibleCert(mat, inv).verify()
        except ValueError as exc:
            raise SpecError(f"{where}: inverse does not verify: {exc}") from exc
    return mat


class SpecDocument:
    __slots__ = ("algebra", "diagram", "matrices", "command")

    def __init__(self, raw):
        _check_keys(raw, TOP_KEYS, "document")
        self.algebra = None
        self.diagram = None
        if "algebra" in raw:
            self.algebra = parse_algebra(raw["algebra"])
        if "diagram" in raw:
            self.diagram = parse_diagram(raw["diagram"])
        command = raw.get("command", {})
        _check_keys(command, COMMAND_KEYS, "command")
        self.command = command
        matrices = raw.get("matrices", {})
        _require(isinstance(matrices, dict), "matrices must be an object")
        self.matrices = {}
        for name, spec in matrices.items():
            _require(isinstance(spec, dict), f"matrix {name} must be an object")
            role = spec.get("algebra", "algebra")
            self.matrices[name] = parse_matrix(
                spec, self._resolve_algebra(role, name), f"matrix {name}"
            )

    def _resolve_algebra(self, role, name):
        if role == "algebra":
            _require(self.algebra is not None, f"matrix {name}: no algebra section")
            return self.algebra
        _require(self.diagram is not None, f"matrix {name}: no diagram section")
        roles = {
            "lambda1": self.diagram.lambda1,
            "lambda2": self.diagram.lambda2,
            "lambda_prime": self.diagram.lambda_prime,
        }
        _require(
            isinstance(role, str) and role in roles, f"matrix {name}: unknown algebra role {role!r}"
        )
        return roles[role]

    def matrix(self, name, want_cert=False):
        _require(name in self.matrices, f"matrix {name!r} not defined")
        m = self.matrices[name]
        if want_cert:
            _require(
                isinstance(m, InvertibleCert),
                f"matrix {name!r} needs an explicit inverse",
            )
        return m

    @classmethod
    def from_bytes(cls, data):
        """Parse a spec from its bytes, decoded strictly as UTF-8.  A byte
        order mark is kept, so the JSON parser rejects it.  An integer too
        long for Python to convert, and nesting too deep for the parser or
        the reader, are spec errors too."""
        try:
            raw = json.loads(data.decode("utf-8"), object_pairs_hook=_json_object)
        except UnicodeDecodeError as exc:
            raise SpecError(f"spec is not valid UTF-8: {exc}") from exc
        except ValueError as exc:
            raise SpecError(f"spec is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise SpecError("spec is nested too deeply") from exc
        try:
            return cls(raw)
        except RecursionError as exc:
            raise SpecError("spec is nested too deeply") from exc

    @classmethod
    def from_path(cls, path):
        return cls.from_bytes(read_spec(path))


def read_spec(path):
    """The bytes of the spec file at path; the CLI parses and hashes these
    same bytes, so the file is read once."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise SpecError(f"cannot read spec: {exc}") from exc
