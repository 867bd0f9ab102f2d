"""Seeded request generators for the benchmark workloads.

A request is one spec document plus the subcommand that runs it.  Request
``i`` of a run is generated from ``(workload, seed, i)`` alone, so the same
seed always gives the same requests.  The request shape (matrix size, sample
count) cycles through a fixed list by index, so every seed runs the same mix
of shapes and the seed only changes the random entries and kcert's own
sampler seed.  The generators use plain ``fractions.Fraction`` and build
documents in the CLI's spec format; they never call into kcert.
"""

import random
from fractions import Fraction

MAX_LEVEL = 16


def _rational(rng, allow_zero=True):
    while True:
        num = rng.randint(-3, 3)
        if num or allow_zero:
            return Fraction(num, rng.randint(1, 3))


def _line_algebra(npoints, radius_base, diagonal):
    points = [str(i) for i in range(npoints)]
    dist = [[str(abs(i - j)) for j in range(npoints)] for i in range(npoints)]
    return {
        "kind": "propagation", "max_level": MAX_LEVEL, "points": points,
        "dist": dist, "radius_base": str(radius_base), "diagonal": diagonal,
    }


def _clutching_diagram():
    """Q[x] legs over Q[x]/(x^2 - 1), both legs the quotient map."""
    leg = {"kind": "quotient-pullback-leg", "max_level": MAX_LEVEL}
    return {
        "lambda1": dict(leg),
        "lambda2": dict(leg),
        "lambda_prime": dict(leg, modulus=["-1", "0", "1"]),
        "j1": {"type": "quotient"},
        "j2": {"type": "quotient"},
    }


# -- Q[x]/(x^2 - 1): an element a + b*x is the pair (a, b) -------------------


def _qunit(rng):
    """A unit a + b*x (a^2 != b^2) with its inverse (a - b*x)/(a^2 - b^2)."""
    while True:
        a, b = _rational(rng, allow_zero=False), _rational(rng, allow_zero=False)
        norm = a * a - b * b
        if norm:
            return (a, b), (a / norm, -b / norm)


def _kernel_multiple(rng):
    """r(x) * (x^2 - 1) for a random r of degree 1, as coefficients."""
    r0, r1 = _rational(rng, allow_zero=False), _rational(rng, allow_zero=False)
    return [str(c) for c in (-r0, -r1, r0, r1)]


def boundary_matrices(rng):
    """A 1x1 unit U over Q[x]/(x^2 - 1) with its exact inverse, the section
    lifts A, B of U and U^-1 to Q[x], and perturbations K, H that are
    multiples of x^2 - 1 (so they die in the overlap ring).  No coefficient
    is zero, so every request does the same operations on different
    numbers."""
    unit, inverse = _qunit(rng)

    def matrix(algebra, entry, **extra):
        return {"algebra": algebra, "size": 1, "entries": [[entry]], **extra}

    u, u_inv = [str(c) for c in unit], [str(c) for c in inverse]
    return {
        "U": matrix("lambda_prime", u, inverse=[[u_inv]]),
        "A": matrix("lambda1", u),
        "B": matrix("lambda1", u_inv),
        "K": matrix("lambda1", _kernel_multiple(rng)),
        "H": matrix("lambda1", _kernel_multiple(rng)),
    }


# -- workloads ----------------------------------------------------------------


class Workload:
    """One request stream: a subcommand, the request shapes it cycles
    through (the parameters ``build`` takes, such as (samples, max_size)),
    and how to turn (rng, shape) into a spec document."""

    def __init__(self, name, subcommand, shapes, build, pool):
        self.name = name
        self.subcommand = subcommand
        self.shapes = shapes
        self._build = build
        # A run cycles through `pool` distinct requests.
        self.pool = pool

    def spec(self, seed, index):
        rng = random.Random(f"{self.name}:{seed}:{index}")
        shape = self.shapes[index % len(self.shapes)]
        return self._build(rng, shape)


def _verify_trivial(rng, shape):
    samples, max_size = shape
    return {
        "algebra": {"kind": "trivial", "max_level": MAX_LEVEL},
        "command": {"name": "verify", "seed": rng.randrange(2 ** 31),
                    "samples": samples, "max_size": max_size},
    }


def _verify_propagation(rng, shape):
    samples, max_size = shape
    return {
        "algebra": _line_algebra(4, 4, diagonal=False),
        "command": {"name": "verify", "seed": rng.randrange(2 ** 31),
                    "samples": samples, "max_size": max_size},
    }


def _exactness_clutching(rng, shape):
    (samples,) = shape
    return {
        "diagram": _clutching_diagram(),
        "command": {"name": "exactness", "seed": rng.randrange(2 ** 31),
                    "samples": samples},
    }


def _boundary_clutching(rng, _shape):
    return {
        "diagram": _clutching_diagram(),
        "matrices": boundary_matrices(rng),
        "command": {"name": "boundary", "u": "U", "lift_a": "A", "lift_b": "B",
                    "perturb_a": "K", "perturb_b": "H"},
    }


# Why each workload exists is recorded in BENCHMARK.json.  Pools are sized so
# that a 24-second run covers about one pass on a busy 2-vCPU Xeon: large
# enough that a seed's mix of request costs varies little between seeds.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-trivial", "verify",
                 [(6, 2), (6, 3), (6, 3), (6, 4), (6, 5)], _verify_trivial, 384),
        Workload("verify-propagation", "verify",
                 [(2, 2), (2, 3), (2, 3), (2, 4)], _verify_propagation, 384),
        Workload("exactness-clutching", "exactness", [(1,)], _exactness_clutching, 384),
        Workload("boundary-clutching", "boundary", [()], _boundary_clutching, 320),
    )
}
