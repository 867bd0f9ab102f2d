"""Executable verification of the displayed matrix identities the rest of
the construction leans on: rotation commutativity of direct sums, the
O-map laws, the four-factor decomposition of diag(u, u^{-1}), elementary
matrix laws, and the commutator/product/conjugation transport identities.

Each identity draws its inputs and returns its two sides with its ledger
inputs: (built, expected, input levels, multiplications performed).  One
function, ``judge``, gives every sample its verdict: the sides must be
equal exactly, and the built side must sit at level >= min(input levels) -
(number of multiplications performed), floored at zero.  A single failing
sample fails its report.
"""

import random

from .matrices import (
    FilteredMatrix,
    InvertibleCert,
    block2,
    block_swap_cert,
    elementary,
    o_map,
    permutation_cert,
    rotation_swap_cert,
)
from .scalars import R0, rat


# Failure details a report keeps, the ones a verify report prints.
KEPT_FAILURES = 3


class IdentityReport:
    """Outcome of running one identity over a batch of sampled inputs: the
    number of failing samples and the details of the first KEPT_FAILURES."""

    __slots__ = ("identity", "samples", "failed", "failures", "min_slack")

    def __init__(self, identity):
        self.identity = identity
        self.samples = 0
        self.failed = 0
        self.failures = []
        self.min_slack = None

    @property
    def ok(self):
        return not self.failed

    def record(self, ok, detail, slack):
        self.samples += 1
        if not ok:
            self.failed += 1
            if self.failed <= KEPT_FAILURES:
                self.failures.append(detail)
        if self.min_slack is None or slack < self.min_slack:
            self.min_slack = slack


# The 21 values Sampler.rational draws, num/den at index 3 * (num + 3) +
# (den - 1); every zero is the shared R0, which products skip by identity.
_SMALL_RATIONALS = tuple([
    rat(num, den) if num else R0 for num in range(-3, 4) for den in range(1, 4)
])


class Sampler:
    """Deterministic random inputs: small rationals, each carrier's own
    payload and unit draws (``_random_payload``, ``_random_unit``), and
    invertibles built from a unit diagonal and elementary factors so inverses
    come for free.

    Every integer draw goes through one primitive, ``_below(n)``, which is
    CPython's ``Random._randbelow_with_getrandbits`` bound to the
    ``getrandbits`` of ``rng = random.Random(seed)``: ``randrange(n)`` is
    ``_below(n)`` and ``randint(a, b)`` is ``a + _below(b - a + 1)``, so a
    seed consumes the same generator bits as those calls and gives the same
    draws.

    A draw builds nothing by rational arithmetic it can avoid.  A small
    rational num/den (|num| <= 3, 1 <= den <= 3) is read from a table of its
    21 values; each carrier returns a unit with its exact inverse, built
    without a series or a Euclid loop (see algebras.py); an elementary
    factor is applied in place as one column operation on the matrix and
    one row operation on its inverse (the carrier's ``_add_multiple``).  An
    exact inverse is unique, so the sampled inputs do not depend on how the
    inverses are computed."""

    def __init__(self, seed=0):
        self.rng = random.Random(seed)
        getrandbits = self.rng.getrandbits

        def below(n):
            """A uniform int in [0, n); ValueError for an empty range."""
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                if n <= 0:
                    raise ValueError(f"empty range for a draw below {n}")
                r = getrandbits(k)
            return r

        self._below = below

    def size(self, max_n, min_n=1):
        return min_n + self._below(max(max_n, min_n) - min_n + 1)

    def rational(self, allow_zero=True):
        """num/den for num = randint(-3, 3), nonzero unless allow_zero, and
        then den = randint(1, 3)."""
        below = self._below
        num = below(7)
        if not allow_zero:
            while num == 3:
                num = below(7)
        return _SMALL_RATIONALS[3 * num + below(3)]

    def payload(self, algebra):
        return algebra._random_payload(self)

    def unit(self, algebra):
        """A unit of the algebra with its exact inverse."""
        return algebra._random_unit(self)

    def matrix(self, algebra, n):
        return FilteredMatrix(
            algebra,
            tuple([tuple([self.payload(algebra) for _ in range(n)]) for _ in range(n)]),
        )

    def invertible(self, algebra, n, factors=None):
        """Random invertible certificate: a unit diagonal times up to four
        elementary factors E(a), built in place as lists of rows.  m @ E(a)
        is a column operation on m (column j += column i * a) and E(-a) @
        m_inv a row operation on m_inv (row i += -a * row j); each touches
        only the entries whose source entry is not the shared zero."""
        z = algebra.zero()
        m = [[z] * n for _ in range(n)]
        m_inv = [[z] * n for _ in range(n)]
        for k in range(n):
            m[k][k], m_inv[k][k] = self.unit(algebra)
        if factors is None:
            factors = self._below(5)
        if n >= 2:
            for _ in range(factors):
                i, j = self._off_diagonal(n)
                a = self.payload(algebra)
                col = algebra._add_multiple(a)
                for row in m:
                    if row[i] is not z:
                        row[j] = col(row[j], row[i])
                row_op = algebra._add_multiple(algebra._negate(a), left=True)
                target = m_inv[i]
                for k, y in enumerate(m_inv[j]):
                    if y is not z:
                        target[k] = row_op(target[k], y)
        return InvertibleCert(
            FilteredMatrix._raw(algebra, tuple([tuple(row) for row in m])),
            FilteredMatrix._raw(algebra, tuple([tuple(row) for row in m_inv])),
        )

    def _off_diagonal(self, n):
        """A position (i, j) with i != j in an n x n matrix, n >= 2."""
        below = self._below
        i = below(n)
        j = below(n)
        while j == i:
            j = below(n)
        return i, j


def whitehead_decompose(u):
    """The four factors [[1,u],[0,1]], [[1,0],[-u^{-1},1]], [[1,u],[0,1]],
    [[0,-1],[1,0]] whose product is diag(u, u^{-1}) exactly."""
    alg = u.algebra
    n = u.n
    ident = FilteredMatrix.identity(alg, n)
    zero = FilteredMatrix.zeros(alg, n)
    return [
        block2(ident, u.m, zero, ident),
        block2(ident, zero, -u.m_inv, ident),
        block2(ident, u.m, zero, ident),
        block2(zero, -ident, ident, zero),
    ]


def whitehead_product(u):
    f1, f2, f3, f4 = whitehead_decompose(u)
    return f1 @ f2 @ f3 @ f4


def judge(built, expected, levels, budget):
    """The verdict on one sample, as (ok, detail, slack).  It passes when
    ``built`` equals ``expected`` exactly and sits at level >= bound =
    max(0, min(levels) - budget), budget being the multiplications that
    built it; slack is built's level minus the bound.  A failure's detail
    names the first differing entry and its residual built - expected, or
    the level that falls below the bound."""
    bound = max(0, min(levels) - budget)
    slack = built.level - bound
    if built != expected:
        position, residual = built.first_mismatch(expected)
        return False, f"mismatch at {position}, residual {residual}", slack
    if slack < 0:
        return False, f"level {built.level} below the bound {bound}", slack
    return True, None, slack


# -- the identities as formulas: (built, expected, levels, budget) ----------


def commutator_o_product(a, b):
    """diag(ABA^{-1}B^{-1}, 1) = O(A) O(B) O((BA)^{-1})."""
    comm = a.m @ b.m @ a.m_inv @ b.m_inv
    built = o_map(a).m @ o_map(b).m @ o_map(b.compose(a).inverse()).m
    expected = comm.direct_sum(FilteredMatrix.identity(a.algebra, a.n))
    return built, expected, [a.level, b.level], 3


def sum_product_both(a, b):
    """diag(A,B) = diag(AB,1) diag(B^{-1},B) = diag(B^{-1},B) diag(BA,1),
    both factorizations judged at once as one direct sum."""
    ident = FilteredMatrix.identity(a.algebra, a.n)
    lhs = a.m.direct_sum(b.m)
    ob = b.m_inv.direct_sum(b.m)
    first = (a.m @ b.m).direct_sum(ident) @ ob
    second = ob @ (b.m @ a.m).direct_sum(ident)
    return first.direct_sum(second), lhs.direct_sum(lhs), [a.level, b.level], 2


def conjugation_transport(a, b):
    """diag(ABA^{-1}, 1) = O(A) diag(B, 1) O(A)^{-1}."""
    ident = FilteredMatrix.identity(a.algebra, a.n)
    oa = o_map(a)
    built = oa.m @ b.m.direct_sum(ident) @ oa.m_inv
    expected = (a.m @ b.m @ a.m_inv).direct_sum(ident)
    return built, expected, [a.level, b.level], 2


def elementary_commutator(i, j, k, algebra, a, n):
    """E_ij(a) = [E_ik(a), E_kj(1)] for distinct indices i, j, k < n and a
    payload a of the algebra."""
    one, neg = algebra.one(), algebra._negate
    built = (
        elementary(algebra, n, i, k, a) @ elementary(algebra, n, k, j, one)
        @ elementary(algebra, n, i, k, neg(a)) @ elementary(algebra, n, k, j, neg(one))
    )
    expected = elementary(algebra, n, i, j, a)
    return built, expected, [algebra.degree(a), algebra.max_level], 3


def _o_conjugation(u, lam):
    """O(lam u lam^{-1}) = diag(lam, lam) O(u) diag(lam, lam)^{-1}."""
    conj = InvertibleCert(lam.m @ u.m @ lam.m_inv, lam.m @ u.m_inv @ lam.m_inv)
    ll = lam.direct_sum(lam)
    return ll.m @ o_map(u).m @ ll.m_inv, o_map(conj).m, [u.level, lam.level], 2


def _o_inverse_swap(u):
    """The block swap conjugates O(u) to O(u^{-1})."""
    swap = block_swap_cert(u.algebra, u.n)
    return swap.m @ o_map(u).m @ swap.m_inv, o_map(u.inverse()).m, [u.level], 2


def _product_absorption(a, b):
    """diag(A, B) = diag(AB, 1) diag(B^{-1}, B)."""
    built = (a.m @ b.m).direct_sum(FilteredMatrix.identity(a.algebra, a.n)) @ (
        b.m_inv.direct_sum(b.m)
    )
    return built, a.m.direct_sum(b.m), [a.level, b.level], 2


def _whitehead(u):
    """diag(u, u^{-1}) is the product of its four Whitehead factors."""
    return whitehead_product(u), u.m.direct_sum(u.m_inv), [u.level], 3


# -- per-sample identity drivers: draw the inputs, return the two sides ------


def _on_invertibles(count, formula):
    """The driver that draws a size n, then ``count`` invertibles of size n,
    and applies ``formula`` to them."""
    def driver(algebra, sampler, max_n):
        n = sampler.size(max_n)
        return formula(*[sampler.invertible(algebra, n) for _ in range(count)])

    return driver


def _rotation_swap(algebra, sampler, max_n):
    n = sampler.size(max_n)
    a = sampler.matrix(algebra, n)
    b = sampler.matrix(algebra, n)
    rot = rotation_swap_cert(algebra, n)
    return rot.m @ b.direct_sum(a) @ rot.m_inv, a.direct_sum(b), [a.level, b.level], 2


def _o_additive(algebra, sampler, max_n):
    n1 = sampler.size(max_n)
    n2 = sampler.size(max_n)
    u1 = sampler.invertible(algebra, n1)
    u2 = sampler.invertible(algebra, n2)
    perm = (
        tuple(range(n1))
        + tuple(range(2 * n1, 2 * n1 + n2))
        + tuple(range(n1, 2 * n1))
        + tuple(range(2 * n1 + n2, 2 * n1 + 2 * n2))
    )
    p = permutation_cert(algebra, perm)
    built = p.m @ o_map(u1).m.direct_sum(o_map(u2).m) @ p.m_inv
    return built, o_map(u1.direct_sum(u2)).m, [u1.level, u2.level], 2


def _elementary_additive(algebra, sampler, max_n):
    n = sampler.size(max_n, min_n=2)
    i, j = sampler._off_diagonal(n)
    a = sampler.payload(algebra)
    b = sampler.payload(algebra)
    return (
        elementary(algebra, n, i, j, a) @ elementary(algebra, n, i, j, b),
        elementary(algebra, n, i, j, a + b),
        [algebra.degree(a), algebra.degree(b)],
        1,
    )


def _elementary_inverse(algebra, sampler, max_n):
    n = sampler.size(max_n, min_n=2)
    i, j = sampler._off_diagonal(n)
    a = sampler.payload(algebra)
    e, e_inv = elementary(algebra, n, i, j, a), elementary(algebra, n, i, j, algebra._negate(a))
    return e @ e_inv, FilteredMatrix.identity(algebra, n), [e.level, e_inv.level], 1


def _elementary_commutator(algebra, sampler, max_n):
    n = sampler.size(max_n, min_n=3)
    i, j, k = sampler.rng.sample(range(n), 3)
    return elementary_commutator(i, j, k, algebra, sampler.payload(algebra), n)


IDENTITY_DRIVERS = (
    ("rotation_swap", _rotation_swap),
    ("o_additive", _o_additive),
    ("o_conjugation", _on_invertibles(2, _o_conjugation)),
    ("o_inverse_swap", _on_invertibles(1, _o_inverse_swap)),
    ("product_absorption", _on_invertibles(2, _product_absorption)),
    ("whitehead_factorization", _on_invertibles(1, _whitehead)),
    ("elementary_additive", _elementary_additive),
    ("elementary_inverse", _elementary_inverse),
    ("elementary_commutator", _elementary_commutator),
    ("commutator_o_product", _on_invertibles(2, commutator_o_product)),
    ("sum_product_both", _on_invertibles(2, sum_product_both)),
    ("conjugation_transport", _on_invertibles(2, conjugation_transport)),
)

IDENTITY_NAMES = tuple(name for name, _ in IDENTITY_DRIVERS)


def run_identity_suite(algebra, sizes=3, samples=100, seed=0):
    """Run every identity over `samples` random inputs of size <= sizes and
    judge each sample.  Deterministic for a fixed seed; returns one report
    per identity."""
    reports = []
    for name, driver in IDENTITY_DRIVERS:
        sampler = Sampler((seed, name).__repr__())
        report = IdentityReport(name)
        for _ in range(samples):
            report.record(*judge(*driver(algebra, sampler, sizes)))
        reports.append(report)
    return reports
