"""Time each layer of the exact-arithmetic stack on the Fraction scalars.

The hot path of the whole artifact is exact small-matrix arithmetic inside
the randomized identity suite, so that is what gets timed: raw scalar
throughput, the 4x4 matrix product kernel, the polynomial product behind
every Q[x] and Q[x]/(m) entry (degree 3 x 3 and 8 x 8), the other payload
products (a kernel on 4 points, an element of Q[x]/(x^2 - 1)), a Poly sum
(degree 3 + 6) and a Poly difference whose top coefficient cancels, the
reduction of a degree-6 polynomial mod x^3 - x/2 + 1/3 (``_remainder``,
which scales each pseudo-division step by 6), the algebra
equality every matrix operation checks, between two propagation algebras
built separately (equal, not identical), the matrix product over each
carrier (Q, Q[x], Q[x]/(x^2 - 1), kernels on 4 points; sampled n x n
operands, n = 2, 4, 6), the image of a sampled Q[x] matrix in Q[x]/(x^2 - 1)
(n = 2, 4, 6), the conjugation u p u^-1 over Q[x]/(x^2 - 1) (n = 2, 4), the
invertible lift of diag(u, u^-1) through Q[x] -> Q[x]/(x^2 - 1) (n = 2, 6),
the entrywise layer around the products over Q[x]/(x^2 - 1) at n = 4 (a sum
and two differences with an identity operand, first_mismatch of two equal
products, the image of a fresh Q[x] matrix whose entries need no reduction),
the sampler's draws (a unit with its inverse per carrier, a 4 x 4
invertible over Q, Q[x]/(x^2 - 1) and kernels on 4 points, and 1,000 small
rationals, the draw layer under them all), and a slice of the identity
suite over the three bundled carriers.  Over kernels on 4 points and over Q
it also times the product of two O-map-shaped operands diag(u, u^-1)
(n = 4, 8), the block-diagonal shape the O-map laws multiply; over kernels
the level of a freshly built 4 x 4 matrix; and over both, ``==`` of two
equal 4 x 4 products computed apart, whose entries are distinct objects.
Operands are reused across calls, as certificates reuse them, so a
matrix's integer form is computed once per row.  Last come the
certificate layer and the two ends of a request: the bundled clutching
spec's boundary report built from its parsed matrices (construction and both
lift-independence checks), its JSON text as ``kcert boundary --format json``
writes it, one "p/q" spec rational parsed, and the algebra of the
verify-propagation benchmark's request 0 built from its spec (the metric
checks of its 4-point space and its level table).  After them, four rows of
the certificate layer: verify() of that spec's L (2 x 2 over Q[x]), one
product since an inverse certificate checks m m^-1 = 1 only, each of that
spec's two lift-independence checks alone on its built boundary, and the
exactness report of the clutching diagram with one sample per segment.

The host's speed drifts (up to 3x for seconds at a time on a shared 2-vCPU
Xeon), so each row is timed between two runs of perfbench's ``host_probe``,
a fixed Fraction loop outside kcert, and is printed scaled as if the probe
had taken ``PROBE_REFERENCE_S``, with the raw figure next to it.  Everything
runs in this process.

Usage: PYTHONPATH=src python benchmarks/bench_scalars.py [--samples N]
"""

import argparse
import sys
import time
from importlib import resources
from pathlib import Path

from kcert.algebras import (
    Kernel,
    PolyAlgebra,
    PropagationAlgebra,
    QuotientAlgebra,
    QuotientHom,
    TrivialAlgebra,
)
from kcert.cli import _json_text
from kcert.boundary import (
    boundary_extended_form,
    boundary_l,
    checked_lifts,
    verify_lift_independence_a,
    verify_lift_independence_b,
)
from kcert.drivers import boundary_report, exactness_report
from kcert.identities import Sampler, run_identity_suite
from kcert.matrices import (
    FilteredMatrix,
    apply_hom_matrix,
    o_map,
    section_matrix,
)
from kcert.mv import lift_via_whitehead
from kcert.scalars import Poly, Rat, _remainder, parse_rational, rat
from kcert.specdoc import SpecDocument, parse_algebra

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tests"))
from carriers import line_space, suite_algebras  # noqa: E402
from run import PROBE_REFERENCE_S, host_probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

X2_MINUS_1 = Poly([-1, 0, 1])
# x^3 - x/2 + 1/3: not integral, so its integer form is 6 * m.
SCALED_CUBIC = Poly([rat(1, 3), rat(-1, 2), 0, 1])


def per_call_us(fn, reps):
    """(scaled, raw) microseconds per call of fn; scaled reads as if the
    host probes taken around the calls had lasted PROBE_REFERENCE_S."""
    before = host_probe()
    t = time.perf_counter()
    for _ in range(reps):
        fn()
    raw = (time.perf_counter() - t) / reps * 1e6
    after = host_probe()
    return raw * PROBE_REFERENCE_S * 2 / (before + after), raw


def scalar_mops():
    a, b = rat(3, 7), rat(-5, 9)
    n = 200000

    def loop():
        acc = rat(0)
        for _ in range(n):
            acc = acc + a * b

    return tuple(n * 2 / us for us in per_call_us(loop, 1))


def matmul4_us():
    m = FilteredMatrix(
        TrivialAlgebra(), tuple(tuple(rat(i + j + 1, 3) for j in range(4)) for i in range(4))
    )
    return per_call_us(lambda: m @ m, 5000)


def poly_mul_us(degree):
    p, q = (
        Poly([rat((7 * i + s) % 11 - 5 or 1, i % 4 + 1) for i in range(degree + 1)])
        for s in (1, 2)
    )
    return per_call_us(lambda: p * q, 20000 // degree)


def payload_rows():
    k, l = (
        Kernel({(i, j): rat((3 * i + 5 * j + s) % 7 - 3 or 1, j + 1)
                for i in range(4) for j in range(4)})
        for s in (1, 2)
    )
    u, v = (Poly([rat(s, 3), rat(-2, s + 4)]) for s in (1, 2))
    x2_minus_1, scaled_cubic = X2_MINUS_1.nums, SCALED_CUBIC.nums
    sextic = Poly([rat((5 * i + 2) % 9 - 4 or 1, i % 3 + 2) for i in range(7)])
    cubic = Poly([rat((3 * i + 1) % 7 - 3 or 1, i + 2) for i in range(4)])
    # Equal top coefficients, so the difference strips its top.
    near = Poly([*[rat(i - 3, 5) for i in range(6)], sextic.coeffs[-1]])
    alg_a, alg_b = PropagationAlgebra(*line_space(4, 4)), PropagationAlgebra(*line_space(4, 4))
    assert alg_a is not alg_b
    return [
        ("Kernel product, 4 points", per_call_us(lambda: k * l, 2000)),
        ("Q[x]/(x^2 - 1) product, _remainder(u * v, m)",
         per_call_us(lambda: _remainder(u * v, x2_minus_1), 20000)),
        ("Poly sum, degree 3 + 6", per_call_us(lambda: cubic + sextic, 20000)),
        ("Poly difference, degree 6 - 6, top cancels", per_call_us(lambda: sextic - near, 20000)),
        ("_remainder(p, m), degree 6 mod x^3 - x/2 + 1/3",
         per_call_us(lambda: _remainder(sextic, scaled_cubic), 20000)),
        ("algebra == (propagation, built twice)", per_call_us(lambda: alg_a == alg_b, 100000)),
    ]


def matmul_rows():
    sampler = Sampler(5)
    rows = []
    for label, algebra in (
        ("Q", TrivialAlgebra()),
        ("Q[x]", PolyAlgebra()),
        ("Q[x]/(x^2 - 1)", QuotientAlgebra(X2_MINUS_1)),
        ("propagation, 4 points", PropagationAlgebra(*line_space(4, 4))),
    ):
        for size in (2, 4, 6):
            x, y = sampler.matrix(algebra, size), sampler.matrix(algebra, size)
            rows.append((f"FilteredMatrix @, {label}, n = {size}",
                         per_call_us(lambda: x @ y, 2000 // size)))
    algebra = PropagationAlgebra(*line_space(4, 4))
    for size in (4, 8):
        x, y = (o_map(sampler.invertible(algebra, size // 2)).m for _ in range(2))
        rows.append((f"FilteredMatrix @, diag(u, u^-1), propagation, 4 points, n = {size}",
                     per_call_us(lambda: x @ y, 2000 // size)))
    m = sampler.matrix(algebra, 4)
    rows.append(("FilteredMatrix.level, fresh, propagation, 4 points, n = 4",
                 per_call_us(lambda: FilteredMatrix._raw(algebra, m.rows).level, 5000)))
    algebra = TrivialAlgebra()
    for size in (4, 8):
        x, y = (o_map(sampler.invertible(algebra, size // 2)).m for _ in range(2))
        rows.append((f"FilteredMatrix @, diag(u, u^-1), Q, n = {size}",
                     per_call_us(lambda: x @ y, 2000 // size)))
    # Drawn last, so the rows above keep their draws.
    for label, algebra in (("Q", TrivialAlgebra()),
                           ("propagation, 4 points", PropagationAlgebra(*line_space(4, 4)))):
        x, y = sampler.matrix(algebra, 4), sampler.matrix(algebra, 4)
        left, right = x @ y, x @ y
        assert left == right
        rows.append((f"FilteredMatrix ==, equal products, {label}, n = 4",
                     per_call_us(lambda: left == right, 20000)))
    return rows


def quotient_rows():
    sampler = Sampler(5)
    source, target = PolyAlgebra(), QuotientAlgebra(X2_MINUS_1)
    h = QuotientHom(source, target)
    rows = []
    for size in (2, 4, 6):
        m = sampler.matrix(source, size)
        rows.append((f"apply_hom_matrix, Q[x] -> Q[x]/(x^2 - 1), n = {size}",
                     per_call_us(lambda: apply_hom_matrix(h, m), 2000 // size)))
    for size in (2, 4):
        u, p = sampler.invertible(target, size, factors=4), sampler.matrix(target, size)
        rows.append((f"u p u^-1, Q[x]/(x^2 - 1), n = {size}",
                     per_call_us(lambda: u.m @ p @ u.m_inv, 1000 // size)))
    # Drawn after the rows above, so their operands stay the same.
    for size in (2, 6):
        u = sampler.invertible(target, size, factors=4)
        rows.append((f"lift_via_whitehead, Q[x] -> Q[x]/(x^2 - 1), n = {size}",
                     per_call_us(lambda: lift_via_whitehead(u, h), 400 // size)))
    # The entrywise layer around the products, drawn last for the same reason.
    m, u = sampler.matrix(target, 4), sampler.invertible(target, 4, factors=4)
    ident = FilteredMatrix.identity(target, 4)
    rows.append(("FilteredMatrix + and -, identity operand, Q[x]/(x^2 - 1), n = 4",
                 per_call_us(lambda: (m + ident, m - ident, ident - m), 2000)))
    left, right = u.m @ m, u.m @ m
    rows.append(("first_mismatch, equal products, Q[x]/(x^2 - 1), n = 4",
                 per_call_us(lambda: left.first_mismatch(right), 5000)))
    # Fresh each call, so no integer form is carried from an earlier call.
    short = section_matrix(h, m).rows
    rows.append(("apply_hom_matrix, fresh, entries of degree < 2, Q[x] -> Q[x]/(x^2 - 1), n = 4",
                 per_call_us(lambda: apply_hom_matrix(h, FilteredMatrix._raw(source, short)),
                             5000)))
    return rows


def sampler_rows():
    sampler = Sampler(5)
    rows = []
    for label, algebra in (
        ("Q", TrivialAlgebra()),
        ("Q[x]", PolyAlgebra()),
        ("Q[x]/(x^2 - 1)", QuotientAlgebra(X2_MINUS_1)),
        ("propagation, 4 points", PropagationAlgebra(*line_space(4, 4))),
        ("diagonal propagation, 4 points",
         PropagationAlgebra(*line_space(4), diagonal=True)),
    ):
        rows.append((f"Sampler.unit, {label}", per_call_us(lambda: sampler.unit(algebra), 5000)))
    for label, algebra in (
        ("Q", TrivialAlgebra()),
        ("Q[x]/(x^2 - 1)", QuotientAlgebra(X2_MINUS_1)),
        ("propagation, 4 points", PropagationAlgebra(*line_space(4, 4))),
    ):
        rows.append((f"Sampler.invertible, {label}, n = 4",
                     per_call_us(lambda: sampler.invertible(algebra, 4), 1000)))
    # The draw layer alone, drawn last so the rows above keep their draws.
    rational = sampler.rational
    rows.append(("Sampler.rational, 1,000 draws",
                 per_call_us(lambda: [rational() for _ in range(1000)], 50)))
    return rows


def suite_rows(samples):
    rows = []
    for name, algebra in suite_algebras().items():
        def suite():
            reports = run_identity_suite(algebra, sizes=4, samples=samples, seed=1)
            assert all(r.ok for r in reports)

        rows.append((f"identity suite, {name}", tuple(us / 1e6 for us in per_call_us(suite, 1))))
    return rows


def request_end_rows():
    doc = SpecDocument.from_path(resources.files("kcert.specs") / "quotient_clutching.json")
    u, a, b, k, h = (doc.matrix("U", want_cert=True), doc.matrix("A"), doc.matrix("B"),
                     doc.matrix("K"), doc.matrix("H"))

    def report():
        return boundary_report(doc.diagram, u, lift_a=a, lift_b=b, perturb_a=k, perturb_b=h)

    built = report()
    assert built["result"] == "pass"
    spec = WORKLOADS["verify-propagation"].spec(0, 0)["algebra"]
    return [
        ("boundary_report, bundled clutching spec", per_call_us(report, 200)),
        ("report JSON, boundary report", per_call_us(lambda: _json_text(built), 2000)),
        ("parse_rational p/q", per_call_us(lambda: parse_rational("-22/7"), 50000)),
        ("parse_algebra, verify-propagation spec",
         per_call_us(lambda: parse_algebra(spec), 5000)),
    ]


def certificate_rows():
    doc = SpecDocument.from_path(resources.files("kcert.specs") / "quotient_clutching.json")
    diagram, k, h = doc.diagram, doc.matrix("K"), doc.matrix("H")
    a, b = checked_lifts(diagram, doc.matrix("U", want_cert=True), doc.matrix("A"), doc.matrix("B"))
    _, _, l = boundary_l(diagram, a, b)
    base = boundary_extended_form(diagram, a, b)

    def exactness():
        assert exactness_report(doc.diagram, 1, 1)["result"] == "pass"

    return [
        ("InvertibleCert.verify, L over Q[x], n = 2", per_call_us(l.verify, 2000)),
        ("lift independence in A, bundled clutching spec",
         per_call_us(lambda: verify_lift_independence_a(diagram, a, b, k, base), 1000)),
        ("lift independence in B, bundled clutching spec",
         per_call_us(lambda: verify_lift_independence_b(diagram, a, h, base), 1000)),
        ("exactness_report, clutching diagram, 1 sample", per_call_us(exactness, 20)),
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=100,
                        help="identity-suite samples per identity (default 100)")
    args = parser.parse_args()
    rows = [
        ("scalar throughput (Mops/s)", scalar_mops()),
        ("4x4 matmul (us)", matmul4_us()),
    ]
    rows += [(f"Poly product, degree {d} x {d} (us)", poly_mul_us(d)) for d in (3, 8)]
    rows += [(f"{name} (us)", us) for name, us in payload_rows() + matmul_rows() + quotient_rows()
                                  + sampler_rows()]
    rows += [(f"{name} (s)", s) for name, s in suite_rows(args.samples)]
    rows += [(f"{name} (us)", us) for name, us in request_end_rows() + certificate_rows()]
    width = max(len(name) for name, _ in rows)
    print(f"{Rat.__name__} scalars; scaled to a host probe of {PROBE_REFERENCE_S * 1e3} ms")
    print(f"{'benchmark':<{width}}  {'scaled':>10}  {'raw':>10}")
    for name, (scaled, raw) in rows:
        print(f"{name:<{width}}  {scaled:>10.2f}  {raw:>10.2f}")


if __name__ == "__main__":
    main()
