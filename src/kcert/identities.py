"""Executable verification of the displayed matrix identities the rest of
the construction leans on: rotation commutativity of direct sums, the
O-map laws, the four-factor decomposition of diag(u, u^{-1}), elementary
matrix laws, and the commutator/product/conjugation transport identities.

Every check is exact; a single failing sample fails its report.  Alongside
equality, each check asserts the level ledger: the constructed side sits at
level >= min(input levels) - (number of multiplications performed), floored
at zero.
"""

import random

from .matrices import (
    ElementaryMatrix,
    FilteredMatrix,
    InvertibleCert,
    block2,
    block_swap_cert,
    elementary_expand,
    o_map,
    permutation_cert,
    rotation_swap_cert,
)
from .scalars import rat


class IdentityReport:
    """Outcome of running one identity over a batch of sampled inputs."""

    __slots__ = ("identity", "samples", "failures", "min_slack")

    def __init__(self, identity, samples=0, failures=None, min_slack=None):
        self.identity = identity
        self.samples = samples
        self.failures = list(failures or ())
        self.min_slack = min_slack

    @property
    def ok(self):
        return not self.failures

    def record(self, ok, detail, slack):
        self.samples += 1
        if not ok:
            self.failures.append(detail)
        if slack is not None:
            if self.min_slack is None or slack < self.min_slack:
                self.min_slack = slack

    def __repr__(self):
        state = "pass" if self.ok else f"FAIL({len(self.failures)})"
        return f"IdentityReport({self.identity}: {state}, samples={self.samples})"


# The 21 values Sampler.rational draws, keyed by (numerator, denominator).
_SMALL_RATIONALS = {(num, den): rat(num, den) for num in range(-3, 4) for den in range(1, 4)}


class Sampler:
    """Deterministic random inputs: small rationals, each carrier's own
    payload and unit draws (``_random_payload``, ``_random_unit``), and
    invertibles built from a unit diagonal and elementary matrices so
    inverses come for free.

    A draw builds nothing by rational arithmetic it can avoid.  A small
    rational num/den (|num| <= 3, 1 <= den <= 3) is read from a table of its
    21 values; each carrier returns a unit with its exact inverse, built
    without a series or a Euclid loop (see algebras.py); an elementary
    factor is applied as one column operation on the matrix and one row
    operation on its inverse, fraction-free over Q[x]/(m).  The draws for a
    seed make the same calls on ``rng`` and an exact inverse is unique, so
    the sampled inputs do not depend on how the inverses are computed."""

    def __init__(self, seed_or_rng=0):
        if isinstance(seed_or_rng, random.Random):
            self.rng = seed_or_rng
        else:
            self.rng = random.Random(seed_or_rng)

    def size(self, max_n, min_n=1):
        return self.rng.randint(min_n, max(max_n, min_n))

    def rational(self, allow_zero=True):
        num = self.rng.randint(-3, 3)
        if not allow_zero:
            while num == 0:
                num = self.rng.randint(-3, 3)
        return _SMALL_RATIONALS[num, self.rng.randint(1, 3)]

    def payload(self, algebra):
        return algebra._random_payload(self)

    def element(self, algebra):
        return algebra.element(self.payload(algebra))

    def unit(self, algebra):
        """A unit of the algebra with its exact inverse."""
        return algebra._random_unit(self)

    def matrix(self, algebra, n):
        return FilteredMatrix(
            algebra,
            tuple(tuple(self.payload(algebra) for _ in range(n)) for _ in range(n)),
        )

    def invertible(self, algebra, n, factors=None):
        """Random invertible certificate: a unit diagonal times up to four
        elementary matrices.  Each elementary factor is applied as row and
        column operations rather than products: m @ E(a) is one column
        operation on the matrix, E(-a) @ m_inv one row operation on the
        inverse."""
        cert = InvertibleCert.from_unit_diag(
            algebra, [self.unit(algebra) for _ in range(n)]
        )
        if factors is None:
            factors = self.rng.randint(0, 4)
        if n >= 2:
            for _ in range(factors):
                i = self.rng.randrange(n)
                j = self.rng.randrange(n)
                while j == i:
                    j = self.rng.randrange(n)
                e = ElementaryMatrix(algebra, n, i, j, self.payload(algebra))
                cert = InvertibleCert(
                    e.right_mul(cert.m), e.negated().left_mul(cert.m_inv), check=False
                )
        return cert

    def idempotent(self, algebra, n):
        bits = [self.rng.randint(0, 1) for _ in range(n)]
        diag = FilteredMatrix.diag_bits(algebra, bits)
        u = self.invertible(algebra, n, factors=self.rng.randint(0, 2))
        from .matrices import IdempotentCert

        return IdempotentCert(u.m @ diag @ u.m_inv, check=False)


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


def _slack(out_level, in_levels, budget):
    bound = max(0, min(in_levels) - budget)
    return out_level - bound


def _single(identity, ok, detail, slack):
    report = IdentityReport(identity)
    report.record(ok, detail, slack)
    return report


# -- single-input checks (the public operation surface) ---------------------


def check_commutator_factorization(a, b):
    """diag(ABA^{-1}B^{-1}, 1) = O(A) O(B) O((BA)^{-1})."""
    comm = a.m @ b.m @ a.m_inv @ b.m_inv
    lhs = comm.direct_sum(FilteredMatrix.identity(a.algebra, a.n))
    ba = b.compose(a)
    rhs = o_map(a).m @ o_map(b).m @ o_map(ba.inverse()).m
    ok = lhs == rhs
    slack = _slack(rhs.level, [a.level, b.level], 3)
    detail = None if ok else f"commutator factorization mismatch: {lhs.first_mismatch(rhs)}"
    return _single("commutator_o_product", ok and slack >= 0, detail, slack)


def check_sum_product_identity(a, b):
    """diag(A,B) = diag(AB,1) diag(B^{-1},B) = diag(B^{-1},B) diag(BA,1)."""
    ident = FilteredMatrix.identity(a.algebra, a.n)
    lhs = a.m.direct_sum(b.m)
    ob = b.m_inv.direct_sum(b.m)
    first = (a.m @ b.m).direct_sum(ident) @ ob
    second = ob @ (b.m @ a.m).direct_sum(ident)
    ok = lhs == first and lhs == second
    slack = _slack(min(first.level, second.level), [a.level, b.level], 2)
    detail = None if ok else "sum/product factorization mismatch"
    return _single("sum_product_both", ok and slack >= 0, detail, slack)


def check_conjugation_identity(a, b):
    """diag(ABA^{-1}, 1) = O(A) diag(B, 1) O(A)^{-1}."""
    ident = FilteredMatrix.identity(a.algebra, a.n)
    lhs = (a.m @ b.m @ a.m_inv).direct_sum(ident)
    oa = o_map(a)
    rhs = oa.m @ b.m.direct_sum(ident) @ oa.m_inv
    ok = lhs == rhs
    slack = _slack(rhs.level, [a.level, b.level], 2)
    detail = None if ok else f"conjugation transport mismatch: {lhs.first_mismatch(rhs)}"
    return _single("conjugation_transport", ok and slack >= 0, detail, slack)


def check_elementary_commutator(i, j, k, a, size=None):
    """E_ij(a) = [E_ik(a), E_kj(1)] for distinct indices, size >= 3."""
    if len({i, j, k}) != 3:
        raise ValueError("indices must be distinct")
    n = size if size is not None else max(i, j, k) + 1
    if n < 3:
        raise ValueError("commutator identity needs size >= 3")
    alg = a.algebra
    eik = elementary_expand(ElementaryMatrix(alg, n, i, k, a))
    ekj = elementary_expand(ElementaryMatrix(alg, n, k, j, alg.one()))
    lhs = ElementaryMatrix(alg, n, i, j, a).expand()
    rhs = eik.m @ ekj.m @ eik.m_inv @ ekj.m_inv
    ok = lhs == rhs
    slack = _slack(rhs.level, [alg.degree(a.payload), alg.max_level], 3)
    detail = None if ok else f"elementary commutator mismatch: {lhs.first_mismatch(rhs)}"
    return _single("elementary_commutator", ok and slack >= 0, detail, slack)


# -- per-sample identity drivers --------------------------------------------


def _ident_rotation_swap(algebra, sampler, max_n):
    n = sampler.size(max_n)
    a = sampler.matrix(algebra, n)
    b = sampler.matrix(algebra, n)
    rot = rotation_swap_cert(algebra, n)
    out = rot.m @ b.direct_sum(a) @ rot.m_inv
    ok = out == a.direct_sum(b)
    return ok, None if ok else "rotation swap mismatch", _slack(
        out.level, [a.level, b.level], 2
    )


def _ident_o_additive(algebra, sampler, max_n):
    n1 = sampler.size(max_n)
    n2 = sampler.size(max_n)
    u1 = sampler.invertible(algebra, n1)
    u2 = sampler.invertible(algebra, n2)
    lhs = o_map(u1.direct_sum(u2))
    shuffled = o_map(u1).direct_sum(o_map(u2))
    perm = (
        tuple(range(n1))
        + tuple(range(2 * n1, 2 * n1 + n2))
        + tuple(range(n1, 2 * n1))
        + tuple(range(2 * n1 + n2, 2 * n1 + 2 * n2))
    )
    p = permutation_cert(algebra, perm)
    out = p.m @ shuffled.m @ p.m_inv
    ok = out == lhs.m
    return ok, None if ok else "O additivity mismatch", _slack(
        out.level, [u1.level, u2.level], 2
    )


def _ident_o_conjugation(algebra, sampler, max_n):
    n = sampler.size(max_n)
    u = sampler.invertible(algebra, n)
    lam = sampler.invertible(algebra, n)
    conj = InvertibleCert(lam.m @ u.m @ lam.m_inv, lam.m @ u.m_inv @ lam.m_inv, check=False)
    lhs = o_map(conj)
    ll = lam.direct_sum(lam)
    rhs = ll.m @ o_map(u).m @ ll.m_inv
    ok = lhs.m == rhs
    return ok, None if ok else "O conjugation mismatch", _slack(
        rhs.level, [u.level, lam.level], 2
    )


def _ident_o_inverse_swap(algebra, sampler, max_n):
    n = sampler.size(max_n)
    u = sampler.invertible(algebra, n)
    swap = block_swap_cert(algebra, n)
    out = swap.m @ o_map(u).m @ swap.m_inv
    ok = out == o_map(u.inverse()).m
    return ok, None if ok else "O inverse swap mismatch", _slack(out.level, [u.level], 2)


def _ident_product_absorption(algebra, sampler, max_n):
    n = sampler.size(max_n)
    a = sampler.invertible(algebra, n)
    b = sampler.invertible(algebra, n)
    lhs = a.m.direct_sum(b.m)
    rhs = (a.m @ b.m).direct_sum(FilteredMatrix.identity(algebra, n)) @ (
        b.m_inv.direct_sum(b.m)
    )
    ok = lhs == rhs
    return ok, None if ok else "multiplicative absorption mismatch", _slack(
        rhs.level, [a.level, b.level], 2
    )


def _ident_whitehead(algebra, sampler, max_n):
    n = sampler.size(max_n)
    u = sampler.invertible(algebra, n)
    prod = whitehead_product(u)
    ok = prod == u.m.direct_sum(u.m_inv)
    return ok, None if ok else "whitehead product mismatch", _slack(
        prod.level, [u.level], 3
    )


def _ident_elementary_additive(algebra, sampler, max_n):
    n = sampler.size(max_n, min_n=2)
    i = sampler.rng.randrange(n)
    j = sampler.rng.randrange(n)
    while j == i:
        j = sampler.rng.randrange(n)
    a = sampler.payload(algebra)
    b = sampler.payload(algebra)
    ea = ElementaryMatrix(algebra, n, i, j, a).expand()
    eb = ElementaryMatrix(algebra, n, i, j, b).expand()
    eab = ElementaryMatrix(algebra, n, i, j, a + b).expand()
    out = ea @ eb
    ok = out == eab
    levels = [algebra.degree(a), algebra.degree(b)]
    return ok, None if ok else "elementary additivity mismatch", _slack(out.level, levels, 1)


def _ident_elementary_inverse(algebra, sampler, max_n):
    n = sampler.size(max_n, min_n=2)
    i = sampler.rng.randrange(n)
    j = sampler.rng.randrange(n)
    while j == i:
        j = sampler.rng.randrange(n)
    e = ElementaryMatrix(algebra, n, i, j, sampler.payload(algebra))
    cert = elementary_expand(e)
    out = cert.m @ cert.m_inv
    ok = out == FilteredMatrix.identity(algebra, n)
    return ok, None if ok else "elementary inverse mismatch", _slack(
        out.level, [cert.level], 1
    )


def _ident_elementary_commutator(algebra, sampler, max_n):
    n = sampler.size(max_n, min_n=3)
    idx = sampler.rng.sample(range(n), 3)
    report = check_elementary_commutator(
        idx[0], idx[1], idx[2], algebra.element(sampler.payload(algebra)), size=n
    )
    ok = report.ok
    return ok, None if ok else report.failures[0], report.min_slack


def _ident_commutator_o_product(algebra, sampler, max_n):
    n = sampler.size(max_n)
    report = check_commutator_factorization(
        sampler.invertible(algebra, n), sampler.invertible(algebra, n)
    )
    return report.ok, None if report.ok else report.failures[0], report.min_slack


def _ident_sum_product_both(algebra, sampler, max_n):
    n = sampler.size(max_n)
    report = check_sum_product_identity(
        sampler.invertible(algebra, n), sampler.invertible(algebra, n)
    )
    return report.ok, None if report.ok else report.failures[0], report.min_slack


def _ident_conjugation_transport(algebra, sampler, max_n):
    n = sampler.size(max_n)
    report = check_conjugation_identity(
        sampler.invertible(algebra, n), sampler.invertible(algebra, n)
    )
    return report.ok, None if report.ok else report.failures[0], report.min_slack


IDENTITY_DRIVERS = (
    ("rotation_swap", _ident_rotation_swap),
    ("o_additive", _ident_o_additive),
    ("o_conjugation", _ident_o_conjugation),
    ("o_inverse_swap", _ident_o_inverse_swap),
    ("product_absorption", _ident_product_absorption),
    ("whitehead_factorization", _ident_whitehead),
    ("elementary_additive", _ident_elementary_additive),
    ("elementary_inverse", _ident_elementary_inverse),
    ("elementary_commutator", _ident_elementary_commutator),
    ("commutator_o_product", _ident_commutator_o_product),
    ("sum_product_both", _ident_sum_product_both),
    ("conjugation_transport", _ident_conjugation_transport),
)

IDENTITY_NAMES = tuple(name for name, _ in IDENTITY_DRIVERS)


def run_identity_suite(algebra, sizes=3, samples=100, seed=0, identities=None):
    """Run every identity over `samples` random inputs of size <= sizes.
    Deterministic for a fixed seed; returns one report per identity."""
    wanted = set(identities) if identities is not None else None
    reports = []
    for name, driver in IDENTITY_DRIVERS:
        if wanted is not None and name not in wanted:
            continue
        sampler = Sampler(random.Random((seed, name).__repr__()))
        report = IdentityReport(name)
        for _ in range(samples):
            ok, detail, slack = driver(algebra, sampler, sizes)
            report.record(ok, detail, slack)
        reports.append(report)
    return reports
