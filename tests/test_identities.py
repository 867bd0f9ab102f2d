import hashlib
import json
import random

import pytest
from carriers import line_space, payload_product, scalar_diag, suite_algebras

from kcert.algebras import PropagationAlgebra
from kcert.identities import (
    IDENTITY_NAMES,
    IdentityReport,
    Sampler,
    commutator_o_product,
    conjugation_transport,
    elementary_commutator,
    judge,
    run_identity_suite,
    sum_product_both,
    whitehead_decompose,
    whitehead_product,
)
from kcert.matrices import FilteredMatrix, InvertibleCert, elementary
from kcert.scalars import Poly, rat


def _scalar_cert(algebra, value):
    return InvertibleCert(
        scalar_diag(algebra, rat(value), 1),
        scalar_diag(algebra, 1 / rat(value), 1),
    ).verify()


def _passes(sides):
    """Judge one identity's (built, expected, levels, budget); True when
    the sample passes, exactly and within its level ledger."""
    ok, detail, slack = judge(*sides)
    assert ok == (detail is None)
    return ok and slack >= 0


def test_whitehead_unit_case(trivial):
    u = InvertibleCert.identity(trivial, 1)
    prod = whitehead_product(u)
    assert prod == FilteredMatrix.identity(trivial, 2)
    assert len(whitehead_decompose(u)) == 4


def test_whitehead_scalar_two(trivial):
    u = InvertibleCert(
        scalar_diag(trivial, 2, 1),
        scalar_diag(trivial, rat(1, 2), 1),
    ).verify()
    prod = whitehead_product(u)
    expect = FilteredMatrix(trivial, ((rat(2), rat(0)), (rat(0), rat(1, 2))))
    assert prod == expect


def test_whitehead_class_of_x(quotient):
    x_cls = Poly([0, 1])
    u = InvertibleCert(
        FilteredMatrix(quotient, ((x_cls,),)),
        FilteredMatrix(quotient, ((x_cls,),)),
    ).verify()
    prod = whitehead_product(u)
    z = quotient.zero()
    assert prod == FilteredMatrix(quotient, ((x_cls, z), (z, x_cls)))


def test_judge_passes_equal_sides_within_the_ledger(trivial):
    m = FilteredMatrix.identity(trivial, 2)
    assert judge(m, m, [trivial.max_level, 20], 3) == (True, None, 3)
    # the bound is floored at zero
    assert judge(m, m, [1], 3) == (True, None, trivial.max_level)


def test_judge_names_the_first_mismatch(trivial):
    built = FilteredMatrix(trivial, ((rat(1), rat(2)), (rat(0), rat(1))))
    expected = FilteredMatrix.identity(trivial, 2)
    assert judge(built, expected, [trivial.max_level], 1) == (
        False, "mismatch at (0, 1), residual 2", 1,
    )


def test_judge_fails_a_level_below_the_bound(trivial):
    m = FilteredMatrix.identity(trivial, 2)
    top = trivial.max_level
    assert judge(m, m, [top + 3], 1) == (False, f"level {top} below the bound {top + 2}", -2)


def test_report_keeps_three_details_and_counts_every_failure():
    report = IdentityReport("x")
    report.record(True, None, 2)
    for k in range(5):
        report.record(False, f"failure {k}", -k)
    assert report.samples == 6 and report.failed == 5 and not report.ok
    assert report.failures == ["failure 0", "failure 1", "failure 2"]
    assert report.min_slack == -4


def test_commutator_factorization_cases(trivial, sampler):
    a = sampler.invertible(trivial, 1)
    b = sampler.invertible(trivial, 1)
    assert _passes(commutator_o_product(a, b))  # commuting case
    a2 = sampler.invertible(trivial, 2)
    b2 = sampler.invertible(trivial, 2)
    assert _passes(commutator_o_product(a2, b2))


def test_commutator_level_drop(propagation, sampler):
    for _ in range(20):
        a = sampler.invertible(propagation, 2)
        b = sampler.invertible(propagation, 2)
        ok, detail, slack = judge(*commutator_o_product(a, b))
        assert ok, detail
        assert slack >= 0  # level >= input level - 3


def test_sum_product_cases(trivial):
    two = _scalar_cert(trivial, 2)
    assert _passes(sum_product_both(two, _scalar_cert(trivial, 3)))
    assert _passes(sum_product_both(two, InvertibleCert.identity(trivial, 1)))


def test_conjugation_identity_cases(quotient, sampler):
    one = InvertibleCert.identity(quotient, 2)
    b = sampler.invertible(quotient, 2)
    assert _passes(conjugation_transport(one, b))
    a = sampler.invertible(quotient, 2)
    assert _passes(conjugation_transport(a, b))


def test_elementary_commutator_cases(quotient):
    assert _passes(elementary_commutator(0, 1, 2, quotient, quotient.zero(), 3))
    x = Poly([0, 1])
    assert _passes(elementary_commutator(0, 1, 2, quotient, x, 3))
    with pytest.raises(ValueError):
        elementary_commutator(0, 0, 1, quotient, x, 3)


def test_suite_all_instances_pass(all_algebras):
    for name, algebra in all_algebras.items():
        sizes = 2 if name == "propagation" else 3
        reports = run_identity_suite(algebra, sizes=sizes, samples=50, seed=7)
        assert [r.identity for r in reports] == list(IDENTITY_NAMES)
        for report in reports:
            assert report.ok, f"{name}: {report.identity}: {report.failures[:1]}"
            assert report.min_slack is None or report.min_slack >= 0


def test_suite_deterministic(trivial):
    r1 = run_identity_suite(trivial, sizes=3, samples=20, seed=42)
    r2 = run_identity_suite(trivial, sizes=3, samples=20, seed=42)
    assert [(r.identity, r.samples, r.min_slack) for r in r1] == [
        (r.identity, r.samples, r.min_slack) for r in r2
    ]


def test_suite_empty_samples(trivial):
    reports = run_identity_suite(trivial, sizes=3, samples=0, seed=0)
    for report in reports:
        assert report.samples == 0 and report.ok


def test_sampled_invertibles_verify(all_algebras):
    sampler = Sampler(13)
    for algebra in all_algebras.values():
        for _ in range(30):
            sampler.invertible(algebra, sampler.size(3)).verify()



def _digest(obj):
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def _unit_draw_algebras():
    return {
        **suite_algebras(),
        "diagonal": PropagationAlgebra(line_space(4), diagonal=True),
        "one-point": PropagationAlgebra(line_space(1)),
    }


# (seed, sha256 over the encodings of 500 unit draws, the sampler's next
# random() after them), recorded before the unit inverses were built
# fraction-free: an exact inverse is unique and the draws consume the same
# random numbers, so none of these may move.
UNIT_DRAW_PINS = {
    "trivial": (11, "8e6133cf2fcbaed40c51ea24073532b8df171304bab4f8af6d4b35515dba8975", 0.24830521705960562),
    "quotient": (12, "202e01918b1489008371a9058e3d6fdc43ed55096b6781817c846a7731a8d702", 0.07328308823761476),
    "propagation": (13, "7ac6ae7596f44792fe6f145905797bb2dbce0ce04dc5ff228609357501f7b835", 0.026404812617801254),
    "diagonal": (14, "e7a241f056f6a2f96141a865878d4645d6cba0e1f67088c365f623f65d061d8e", 0.37221385431241805),
    "one-point": (15, "6dea73660bfcd108c6b396dcccd2330a88333be2fc584fb8f81da3e4465598c1", 0.08580278323519541),
}


@pytest.mark.parametrize("name", sorted(UNIT_DRAW_PINS))
def test_unit_draws_are_pinned(name):
    algebra = _unit_draw_algebras()[name]
    seed, digest, next_random = UNIT_DRAW_PINS[name]
    sampler = Sampler(seed)
    one = algebra.one()
    encoded = []
    for _ in range(500):
        u, u_inv = sampler.unit(algebra)
        assert payload_product(algebra, u, u_inv) == one
        assert payload_product(algebra, u_inv, u) == one
        encoded.append([algebra.encode_payload(u), algebra.encode_payload(u_inv)])
    assert (_digest(encoded), sampler.rng.random()) == (digest, next_random)


# The same for 60 sampled 4 x 4 invertibles per suite carrier, which also
# pins the unit diagonal and the row and column operations.
INVERTIBLE_PINS = {
    "trivial": (21, "e5a3e9ab73b2f8e294f9ad795058ab3ace5003fbb0d0e46762fac9dc23b6a95d", 0.44786171737377545),
    "quotient": (22, "af842f8548e33b1c83f1169c32815119575d80148daf9216c5e276fcf5ba58c4", 0.1927439489323266),
    "propagation": (23, "1a4f5d6770290c7f8545f8bd4abb267e0ebfa029c23ec3fef6b9d8e0c3713205", 0.8660147281757524),
}


@pytest.mark.parametrize("name", sorted(INVERTIBLE_PINS))
def test_sampled_invertibles_are_pinned(name):
    algebra = suite_algebras()[name]
    seed, digest, next_random = INVERTIBLE_PINS[name]
    sampler = Sampler(seed)
    encoded = []
    for _ in range(60):
        cert = sampler.invertible(algebra, 4)
        encoded.append([
            [[algebra.encode_payload(p) for p in row] for row in m.rows]
            for m in (cert.m, cert.m_inv)
        ])
    assert (_digest(encoded), sampler.rng.random()) == (digest, next_random)


@pytest.mark.parametrize("name", sorted(INVERTIBLE_PINS))
def test_sampled_invertible_is_its_unit_diagonal_times_its_factors(name):
    # Replays the draws of Sampler.invertible and multiplies the factors out:
    # m = D E(a1) ... E(ak) and m_inv = E(-ak) ... E(-a1) D^-1.
    algebra = suite_algebras()[name]
    for seed in range(30):
        sampler = Sampler(seed)
        cert = sampler.invertible(algebra, 4)
        replay = Sampler(seed)
        units = [replay.unit(algebra) for _ in range(4)]
        z = algebra.zero()
        m, m_inv = (
            FilteredMatrix(algebra, [[u[side] if r == c else z for c in range(4)]
                                     for r, u in enumerate(units)])
            for side in (0, 1)
        )
        for _ in range(replay.rng.randint(0, 4)):
            i, j = replay._off_diagonal(4)
            a = replay.payload(algebra)
            m, m_inv = m @ elementary(algebra, 4, i, j, a), elementary(algebra, 4, i, j, -a) @ m_inv
        assert (cert.m, cert.m_inv) == (m, m_inv)
        assert replay.rng.random() == sampler.rng.random()


# -- every draw consumes the generator bits of the random.Random call it
# stands for -----------------------------------------------------------------


def _reference_rational(rng, allow_zero=True):
    """Sampler.rational written with Random.randint."""
    num = rng.randint(-3, 3)
    if not allow_zero:
        while num == 0:
            num = rng.randint(-3, 3)
    return rat(num, rng.randint(1, 3))


def _reference_off_diagonal(rng, n):
    """Sampler._off_diagonal written with Random.randrange."""
    i = rng.randrange(n)
    j = rng.randrange(n)
    while j == i:
        j = rng.randrange(n)
    return i, j


def test_below_matches_randrange_draw_by_draw():
    # Widths 1..17 cover n = 1, 2, 4, 8 and 16, where n.bit_length() and
    # (n - 1).bit_length() differ.
    for seed in range(200):
        sampler = Sampler(seed)
        reference = random.Random(seed)
        for n in range(1, 18):
            for _ in range(3):
                assert sampler._below(n) == reference.randrange(n)
            for lo in (-3, 0, 5):
                assert lo + sampler._below(n) == reference.randint(lo, lo + n - 1)
        assert sampler.rng.random() == reference.random()
    # An empty range raises, as randrange does, instead of drawing forever;
    # a propagation algebra on no points reaches it through a payload draw.
    empty = PropagationAlgebra(line_space(0))
    for n in (0, -1, -4):
        with pytest.raises(ValueError):
            Sampler(0)._below(n)
    with pytest.raises(ValueError):
        for seed in range(10):
            Sampler(seed).payload(empty)


def test_draws_match_their_random_random_calls():
    for seed in range(200):
        sampler = Sampler(seed)
        reference = random.Random(seed)
        for max_n, min_n in ((3, 1), (2, 1), (3, 2), (5, 3), (1, 2)):
            assert sampler.size(max_n, min_n) == reference.randint(min_n, max(max_n, min_n))
        for allow_zero in (True, False, True):
            assert sampler.rational(allow_zero) == _reference_rational(reference, allow_zero)
        for n in (2, 3, 4, 5):
            assert sampler._off_diagonal(n) == _reference_off_diagonal(reference, n)
        assert sampler.rng.random() == reference.random()


def test_sampler_draws_from_random_random_of_its_seed():
    assert type(Sampler(5).rng) is random.Random
    assert Sampler("5").rng.random() == random.Random("5").random()
