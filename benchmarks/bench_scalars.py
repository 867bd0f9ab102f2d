"""Compare the compiled scalar core against the pure-Python fallback.

The hot path of the whole artifact is exact small-matrix arithmetic inside
the randomized identity suite, so that is what gets timed: raw scalar
throughput, the 4x4 matrix product kernel, the polynomial product behind
every Q[x] and Q[x]/(m) entry (degree 3 x 3 and 8 x 8), the other payload
products (a kernel on 4 points, an element of Q[x]/(x^2 - 1)), the algebra
equality every matrix operation checks, between two propagation algebras
built separately (equal, not identical), the matrix product over each
carrier (Q, Q[x], Q[x]/(x^2 - 1), kernels on 4 points; sampled n x n
operands, n = 2, 4, 6), and a slice of the identity suite over the three
bundled carriers.  Each configuration runs in a subprocess because the
core is selected at import time (KCERT_PURE=1 forces the fallback).
Each column is labelled with the scalar type that actually ran; a speedup
is printed only when the two types differ.

Usage: python benchmarks/bench_scalars.py [--samples N]
"""

import argparse
import json
import os
import subprocess
import sys

WORKER = r"""
import json, sys, time

from kcert import scalars
from kcert.identities import run_identity_suite
from kcert.instances import suite_algebras

samples = int(sys.argv[1])
out = {"compiled": scalars.COMPILED}

a, b = scalars.rat(3, 7), scalars.rat(-5, 9)
n = 200000
t = time.perf_counter()
acc = scalars.rat(0)
for _ in range(n):
    acc = acc + a * b
out["scalar_mops"] = round(n * 2 / (time.perf_counter() - t) / 1e6, 2)

from kcert.matrices import FilteredMatrix
from kcert.instances import trivial_algebra
alg = trivial_algebra()
m = FilteredMatrix(
    alg, tuple(tuple(scalars.rat(i + j + 1, 3) for j in range(4)) for i in range(4))
)
reps = 5000
t = time.perf_counter()
for _ in range(reps):
    m @ m
out["matmul4_us"] = round((time.perf_counter() - t) / reps * 1e6, 1)

from kcert.scalars import Poly
poly_mul = {}
for degree in (3, 8):
    p, q = (
        Poly([scalars.rat((7 * i + s) % 11 - 5 or 1, i % 4 + 1) for i in range(degree + 1)])
        for s in (1, 2)
    )
    reps = 20000 // degree
    t = time.perf_counter()
    for _ in range(reps):
        p * q
    poly_mul[degree] = round((time.perf_counter() - t) / reps * 1e6, 1)
out["poly_mul_us"] = poly_mul


def per_call_us(fn, reps):
    t = time.perf_counter()
    for _ in range(reps):
        fn()
    return round((time.perf_counter() - t) / reps * 1e6, 2)


from kcert.algebras import Kernel
from kcert.instances import propagation_algebra, x2_minus_1
k, l = (
    Kernel({(i, j): scalars.rat((3 * i + 5 * j + s) % 7 - 3 or 1, j + 1)
            for i in range(4) for j in range(4)})
    for s in (1, 2)
)
u, v = (scalars.QuotElem(x2_minus_1(), Poly([scalars.rat(s, 3), scalars.rat(-2, s + 4)]))
        for s in (1, 2))
alg_a, alg_b = propagation_algebra(), propagation_algebra()
assert alg_a is not alg_b
out["payload_us"] = {
    "Kernel product, 4 points": per_call_us(lambda: k * l, 2000),
    "QuotElem product mod x^2 - 1": per_call_us(lambda: u * v, 20000),
    "algebra == (propagation, built twice)": per_call_us(lambda: alg_a == alg_b, 100000),
}

from kcert.identities import Sampler
from kcert.instances import poly_algebra, quotient_algebra
sampler = Sampler(5)
matmul_us = {}
for label, algebra in (
    ("Q", trivial_algebra()),
    ("Q[x]", poly_algebra()),
    ("Q[x]/(x^2 - 1)", quotient_algebra()),
    ("propagation, 4 points", propagation_algebra()),
):
    for size in (2, 4, 6):
        x, y = sampler.matrix(algebra, size), sampler.matrix(algebra, size)
        matmul_us[f"FilteredMatrix @, {label}, n = {size}"] = per_call_us(
            lambda: x @ y, 2000 // size
        )
out["matmul_us"] = matmul_us

suite = {}
for name, algebra in suite_algebras().items():
    t = time.perf_counter()
    reports = run_identity_suite(algebra, sizes=4, samples=samples, seed=1)
    assert all(r.ok for r in reports)
    suite[name] = round(time.perf_counter() - t, 2)
out["suite_seconds"] = suite
print(json.dumps(out))
"""


def run_config(pure, samples):
    env = dict(os.environ)
    env["KCERT_PURE"] = "1" if pure else "0"
    proc = subprocess.run(
        [sys.executable, "-c", WORKER, str(samples)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def backend(result):
    """Name of the scalar type a worker actually ran on."""
    return "_ratcore.Rat" if result["compiled"] else "Fraction"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=100,
                        help="identity-suite samples per identity (default 100)")
    args = parser.parse_args()
    default = run_config(pure=False, samples=args.samples)
    pure = run_config(pure=True, samples=args.samples)
    labels = (f"default: {backend(default)}", f"KCERT_PURE=1: {backend(pure)}")
    compare = backend(default) != backend(pure)
    if not compare:
        print(f"note: both runs used {backend(default)} (the compiled core is not "
              "built), so no speedup is shown")
    rows = [
        ("scalar throughput (Mops/s)", default["scalar_mops"], pure["scalar_mops"]),
        ("4x4 matmul (us)", default["matmul4_us"], pure["matmul4_us"]),
    ]
    for degree in default["poly_mul_us"]:
        rows.append(
            (f"Poly product, degree {degree} x {degree} (us)",
             default["poly_mul_us"][degree], pure["poly_mul_us"][degree])
        )
    for name in default["payload_us"]:
        rows.append((f"{name} (us)", default["payload_us"][name], pure["payload_us"][name]))
    for name in default["matmul_us"]:
        rows.append((f"{name} (us)", default["matmul_us"][name], pure["matmul_us"][name]))
    for name in default["suite_seconds"]:
        rows.append(
            (f"identity suite, {name} (s)",
             default["suite_seconds"][name], pure["suite_seconds"][name])
        )
    width = max(len(r[0]) for r in rows)
    cols = max(len(label) for label in labels)
    header = f"{'benchmark':<{width}}  {labels[0]:>{cols}}  {labels[1]:>{cols}}"
    print(header + (f"  {'speedup':>8}" if compare else ""))
    for name, fast, slow in rows:
        line = f"{name:<{width}}  {fast:>{cols}}  {slow:>{cols}}"
        if compare:
            if "Mops" in name:
                speedup = fast / slow if slow else float("inf")
            else:
                speedup = slow / fast if fast else float("inf")
            line += f"  {speedup:>7.1f}x"
        print(line)


if __name__ == "__main__":
    main()
