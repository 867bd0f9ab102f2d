import pytest
from carriers import scalar_diag

from kcert.boundary import (
    boundary_extended_form,
    boundary_first_form,
    checked_lifts,
    e_block,
)
from kcert import drivers, kclasses
from kcert.drivers import (
    gen_boundary_zero,
    gen_i_after_boundary,
    gen_k0_middle,
    gen_kernel_boundary,
    gen_kernel_i,
    kernel_boundary_witness,
    kernel_i_witnesses,
)
from kcert.identities import Sampler
from kcert.kclasses import (
    exactness_boundary_zero,
    exactness_i_after_boundary,
    exactness_k0_middle,
    exactness_kernel_boundary,
    exactness_kernel_i,
    swap_halves,
)
from kcert.matrices import (
    CertificateFailure,
    FilteredMatrix,
    IdempotentCert,
    InvertibleCert,
    apply_hom_invertible,
    apply_hom_matrix,
    block_swap_cert,
    elementary,
    involution_cert,
    o_blocks,
    split2,
)
from kcert.mv import DoubleMatrix, normalize_difference
from kcert.scalars import Poly, rat
from test_matrices import sampled_idempotent
from test_mv import legs, verify_double_idempotent


def factors(cert):
    """The matrix and inverse of a certificate over one ring, to compare."""
    return cert.m, cert.m_inv


def _x_cert(diagram):
    x_cls = Poly([0, 1])
    m = FilteredMatrix(diagram.lambda_prime, ((x_cls,),))
    return InvertibleCert(m, m).verify()


# -- O-shape: the gate of O-absorption and of boundary_zero_oshape ----------


def test_o_absorb_rejects_non_o_shape(trivial):
    u = InvertibleCert(elementary(trivial, 2, 0, 1, rat(1)), elementary(trivial, 2, 0, 1, rat(-1)))
    with pytest.raises(CertificateFailure, match="not O-shaped"):
        o_blocks(u)
    with pytest.raises(CertificateFailure, match="not O-shaped"):
        o_blocks(InvertibleCert.identity(trivial, 3))
    # near-O shape: diag(2, 1/2) with off-diagonal junk
    half_bad = InvertibleCert(
        FilteredMatrix(trivial, ((rat(2), rat(1)), (rat(0), rat(1, 2)))),
        FilteredMatrix(trivial, ((rat(1, 2), rat(-1)), (rat(0), rat(2)))),
    ).verify()
    with pytest.raises(CertificateFailure, match="not O-shaped"):
        o_blocks(half_bad)
    # block diagonal, but the halves are not inverse: diag(2, 1)
    not_inverse = FilteredMatrix(trivial, ((rat(2), rat(0)), (rat(0), rat(1))))
    with pytest.raises(CertificateFailure, match="inverse certificate fails"):
        o_blocks(InvertibleCert(not_inverse, not_inverse))


def test_inverse_pair_absorbs_to_zero(quotient, sampler):
    u = sampler.invertible(quotient, 2)
    pair = InvertibleCert(
        u.m.direct_sum(u.m_inv), u.m_inv.direct_sum(u.m)
    )
    # [u] + [u^{-1}] is zero: the pair u + u^{-1} is O-shaped, with halves u
    # and u^{-1}, and an O-shaped xi absorbs: xi + 1 = swap (1 + xi) swap^-1.
    assert factors(o_blocks(pair)) == factors(u)
    one = InvertibleCert.identity(quotient, 4)
    swap = block_swap_cert(quotient, 4)
    assert pair.direct_sum(one).m == swap.m @ one.direct_sum(pair).m @ swap.m_inv


# -- exactness segments --------------------------------------------------------


def test_segments_on_clutching(clutching):
    sampler = Sampler(2)
    assert gen_k0_middle(clutching, sampler).passed
    assert gen_boundary_zero(clutching, sampler).passed
    assert gen_i_after_boundary(clutching, sampler).passed
    assert gen_kernel_boundary(clutching, sampler).passed
    assert gen_kernel_i(clutching, sampler).passed


def test_segments_on_trivial_diagram(trivial_mv):
    sampler = Sampler(3)
    assert gen_k0_middle(trivial_mv, sampler).passed
    assert gen_boundary_zero(trivial_mv, sampler).passed
    assert gen_i_after_boundary(trivial_mv, sampler).passed
    assert gen_kernel_boundary(trivial_mv, sampler).passed
    assert gen_kernel_i(trivial_mv, sampler).passed


def test_segments_on_cover(cover):
    sampler = Sampler(4)
    assert gen_k0_middle(cover, sampler).passed
    assert gen_boundary_zero(cover, sampler).passed
    assert gen_i_after_boundary(cover, sampler).passed


def test_i_after_boundary_extended_variant(clutching):
    lp = clutching.lambda_prime
    x_cls = Poly([0, 1])
    z = lp.zero()
    two = lp.from_rational(rat(2))
    half = lp.from_rational(rat(1, 2))
    u = InvertibleCert(
        FilteredMatrix(lp, ((two, z), (z, x_cls))),
        FilteredMatrix(lp, ((half, z), (z, x_cls))),
    ).verify()
    report = exactness_i_after_boundary(clutching, u, m=1)
    assert report.passed


def test_kernel_boundary_rejects_corrupt_witness(clutching):
    sampler = Sampler(5)
    report = gen_kernel_boundary(clutching, sampler, corrupt=True)
    assert not report.passed
    failing = [c["name"] for c in report.checks if not c["ok"]]
    assert failing


def test_kernel_boundary_splits_liftable_input(clutching, sampler):
    u_tilde = sampler.invertible(clutching.lambda1, 2)
    u, w = kernel_boundary_witness(clutching, u_tilde)
    pair, report = exactness_kernel_boundary(
        clutching, u, (w, w), lift_a=u_tilde.m, lift_b=u_tilde.m_inv
    )
    assert report.passed
    w1, w2 = pair
    product = apply_hom_matrix(clutching.j2, w2.m) @ apply_hom_matrix(
        clutching.j1, w1.m
    )
    assert product == u.m
    # for exact-inverse lifts the recipe recovers the lifted element itself
    assert w2.m == u_tilde.m


def test_kernel_boundary_needs_same_legs(cover, sampler):
    u = sampler.invertible(cover.lambda_prime, 1)
    _, report = exactness_kernel_boundary(
        cover, u, (InvertibleCert.identity(cover.lambda1, 2),) * 2
    )
    assert not report.passed


def test_kernel_i_needs_same_legs(cover):
    ident = InvertibleCert.identity(cover.lambda1, 2)
    phi, report = exactness_kernel_i(cover, None, ident, ident)
    assert phi is None
    assert report.checks == [{"name": "diagram has equal legs", "ok": False,
                              "residual": "recipe assumes equal legs"}]


@pytest.mark.parametrize("name", ["clutching", "trivial_mv"])
def test_kernel_boundary_witness_is_l_times_swap(name, request):
    # The witness is written down as diag(-B, A); it must be the L.swap of
    # the boundary the checker builds from the same lifts.
    diagram = request.getfixturevalue(name)
    sampler = Sampler(19)
    for size in (1, 2, 3):
        u_tilde = sampler.invertible(diagram.lambda1, size)
        u, w = kernel_boundary_witness(diagram, u_tilde)
        a, b = checked_lifts(diagram, u, lift_a=u_tilde.m, lift_b=u_tilde.m_inv)
        swap = block_swap_cert(diagram.lambda1, size)
        assert factors(w) == factors(boundary_extended_form(diagram, a, b).l.compose(swap))


def test_swap_halves_equals_the_swap_product(clutching, sampler):
    # Each block rearrangement of the exactness recipes against the product
    # by block_swap_cert it replaces.
    l1, lp = clutching.lambda1, clutching.lambda_prime
    # i_after_boundary: L.swap, for m = 0 and, with U = U_a + U_b commuting
    # with diag(0_1, 1_2), for m = 1.
    u = sampler.invertible(lp, 1).direct_sum(sampler.invertible(lp, 2))
    for m in (0, 1):
        l = boundary_extended_form(clutching, *checked_lifts(clutching, u, m=m), m).l
        assert factors(swap_halves(l)) == factors(l.compose(block_swap_cert(l1, 3)))
    # kernel_boundary: swap.U1^-1, on the generated witness and on a
    # sampled invertible.
    _, w = kernel_boundary_witness(clutching, sampler.invertible(l1, 2))
    for cert in (w, sampler.invertible(l1, 4)):
        swap = block_swap_cert(l1, 2)
        assert factors(swap_halves(cert.inverse(), left=True)) == factors(
            swap.compose(cert.inverse()))
    # k0_middle: W.swap for the involution of an idempotent.
    for k in (1, 2):
        w = involution_cert(sampled_idempotent(sampler, lp, k))
        assert factors(swap_halves(w)) == factors(w.compose(block_swap_cert(lp, k)))


KERNEL_I_CHECKS = [
    "diagram has equal legs",
    "witness u1 trivializes leg1",
    "witness u2 trivializes leg2",
    "conjugated leg2 is literal eps",
    "phi commutes with the scalar block",
    "S0 = 0",
    "boundary block reproduces conjugated class (leg1)",
    "conjugating back restores p~",
    "un-stabilizing restores the normalized plus part",
]
RECOVERED_BLOCK = "recovered block is the inverse-stabilized transition"


def test_kernel_i_round_trip_clutching(clutching):
    """Glue the clutching class, push it through the legs with recorded
    trivializers, and recover a transition whose scalar-block cut is the
    stabilized clutching function."""
    u = _x_cert(clutching)
    glued, u_tilde, minus = boundary_first_form(clutching, u)
    u1, u2 = kernel_i_witnesses(clutching, u_tilde, 1)
    phi, report = exactness_kernel_i(clutching, (glued, minus), u1, u2)
    assert report.passed
    # check names are report bytes on failure
    assert [c["name"] for c in report.checks] == KERNEL_I_CHECKS
    assert [c["name"] for c in gen_kernel_i(clutching, Sampler(2)).checks] == (
        KERNEL_I_CHECKS + [RECOVERED_BLOCK]
    )
    block = phi.sub_block(2, 4, 2, 4)
    expected = u.m.direct_sum(FilteredMatrix.identity(clutching.lambda_prime, 1))
    assert block == expected
    # level ledger across the whole pipeline: the boundary of phi with the
    # lifts u2^-1 u1 and u1^-1 u2, as the segment builds it; phi is the
    # image of v, and checked_lifts also reads the image of v^-1
    v = u2.inverse().compose(u1)
    phi_cert = apply_hom_invertible(clutching.j1, v)
    assert phi == phi_cert.m
    m = u1.n - minus.n
    out = boundary_extended_form(
        clutching, *checked_lifts(clutching, phi_cert, lift_a=v.m, lift_b=v.m_inv, m=m), m
    )
    assert out.p_double.level >= max(0, min(glued.level, minus.level) - 8)


@pytest.mark.parametrize("name", ["clutching", "trivial_mv"])
def test_kernel_i_fails_a_recovered_block_that_is_not_the_inverse(name, request, monkeypatch):
    # Gluing U^-1 in place of U makes the recovered block diag(U, 1): every
    # earlier line passes, and the last fails wherever U != U^-1.
    diagram = request.getfixturevalue(name)
    first_form, drawn = drivers.boundary_first_form, []

    def glue_inverse(diagram, u):
        drawn.append(u)
        return first_form(diagram, u.inverse())

    monkeypatch.setattr(drivers, "boundary_first_form", glue_inverse)
    refused = 0
    for seed in range(8):
        report = gen_kernel_i(diagram, Sampler(seed))
        involution = drawn[-1].m == drawn[-1].m_inv
        assert [(c["name"], c["ok"]) for c in report.checks] == (
            [(line, True) for line in KERNEL_I_CHECKS] + [(RECOVERED_BLOCK, involution)]
        )
        refused += not involution
    assert refused


def test_kernel_i_trivial_difference(trivial_mv):
    one = DoubleMatrix.diag_bits(trivial_mv, (1,))
    # witnesses: the plus part normalizes to diag(1, 0); align with diag(0, 1)
    from kcert.matrices import permutation_cert

    u1 = permutation_cert(trivial_mv.lambda1, (1, 0))
    phi, report = exactness_kernel_i(trivial_mv, (one, one), u1, u1)
    assert report.passed
    assert phi == FilteredMatrix.identity(trivial_mv.lambda_prime, 2)


def _kernel_i_with_plus_part(trivial_mv, monkeypatch, wrong):
    """exactness_kernel_i on [diag(1, 0)] - [diag(1, 0)] over Q, with the
    witnesses that trivialize the normalized plus part it builds.  With
    ``wrong``, normalization is made to build its plus part from diag(0, 1)
    instead of the input's diag(1, 0)."""
    from kcert import kclasses
    from kcert.matrices import permutation_cert

    pair = DoubleMatrix.diag_bits(trivial_mv, (1, 0))
    if wrong:
        swapped = IdempotentCert(FilteredMatrix.diag_bits(trivial_mv.lambda1, (0, 1)))
        monkeypatch.setattr(
            kclasses, "normalize_difference", lambda _, p2: normalize_difference(swapped, p2)
        )
    # p~ = diag(0, 1, 0, 1) or diag(1, 0, 0, 1); eps = diag(0, 0, 1, 1)
    perm = (0, 2, 1, 3) if wrong else (2, 0, 1, 3)
    u = permutation_cert(trivial_mv.lambda1, perm)
    return exactness_kernel_i(trivial_mv, (pair, pair), u, u)


def test_kernel_i_chains_the_plus_part_back_to_the_input(trivial_mv, monkeypatch):
    phi, report = _kernel_i_with_plus_part(trivial_mv, monkeypatch, wrong=False)
    assert report.passed
    phi, report = _kernel_i_with_plus_part(trivial_mv, monkeypatch, wrong=True)
    # Every step from the normalized plus part on is consistent; only the
    # chain back to the input difference sees that it is not [plus] - [minus].
    failed = [c["name"] for c in report.checks if not c["ok"]]
    assert failed == ["un-stabilizing restores the normalized plus part"]
    names = [c["name"] for c in report.checks]
    assert names == KERNEL_I_CHECKS and phi is not None


@pytest.mark.parametrize(
    "case,residual",
    [
        ("pass", None),
        ("wrong-plus-part", "(('leg1', (0, 0)), Fraction(-1, 1))"),
        ("forged-trivializer", "inverse certificate fails at ('leg1', (2, 2))"),
    ],
    ids=["pass", "wrong-plus-part", "forged-trivializer"],
)
def test_unstabilizing_residual(trivial_mv, monkeypatch, case, residual):
    # The line verifies its conjugator 1 + W, then names the first entry
    # where p~ + minus and the conjugated plus + diag(0, 1) differ, or the
    # failed claim of the conjugator's verify.
    if case == "forged-trivializer":
        # the trivializer W claims 2W as its inverse
        def forged(p):
            w = involution_cert(p)
            return InvertibleCert(w.m, w.m_inv + w.m_inv)

        monkeypatch.setattr(kclasses, "involution_cert", forged)
    _, report = _kernel_i_with_plus_part(
        trivial_mv, monkeypatch, wrong=case == "wrong-plus-part"
    )
    line = report.checks[-1]
    assert line["name"] == "un-stabilizing restores the normalized plus part"
    assert line.get("residual") == residual
    assert [c["name"] for c in report.checks if not c["ok"]] == (
        [] if residual is None else [line["name"]]
    )


def test_boundary_zero_reports_shape(clutching, sampler):
    u_tilde = sampler.invertible(clutching.lambda1, 1)
    report = exactness_boundary_zero(clutching, u_tilde)
    assert report.passed
    assert [c["name"] for c in report.checks] == ["S0 = 0", "S1 = 0"]


def test_k0_glue_push_reglue_round_trip(clutching):
    """A glued class pushed through the legs feeds back into the middle
    segment with the trivial witness, since its legs agree literally in the
    overlap ring."""
    u = _x_cert(clutching)
    glued, _, minus = boundary_first_form(clutching, u)
    d1 = (
        IdempotentCert(glued.m1),
        IdempotentCert(minus.m1),
    )
    d2 = (
        IdempotentCert(glued.m2),
        IdempotentCert(minus.m2),
    )
    from kcert.mv import k0_common_form

    q1, _, _ = k0_common_form(d1, d2)
    xi = IdempotentCert(
        FilteredMatrix.zeros(clutching.lambda_prime, 1)
    )
    v = InvertibleCert.identity(clutching.lambda_prime, q1.n + 1)
    pre, report = exactness_k0_middle(clutching, d1, d2, xi, v)
    assert report.passed
    plus, _ = pre
    verify_double_idempotent(plus)


def test_k0_middle_bad_witness_is_named_and_never_glued(clutching, monkeypatch):
    # The sampled witness v of gen_k0_middle, composed with E(0, n-1; 1),
    # no longer conjugates the stabilized images: the segment names that
    # line and returns before it glues.
    results = []

    def break_witness(diagram, d1, d2, xi, v):
        lam = diagram.lambda_prime
        e = InvertibleCert(elementary(lam, v.n, 0, v.n - 1, lam.one()),
                           elementary(lam, v.n, 0, v.n - 1, -lam.one()))
        bad = v.compose(e)
        results.append(exactness_k0_middle(diagram, d1, d2, xi, bad))
        return results[-1]

    def no_gluing(*args):
        raise AssertionError("a failed k0_middle witness was glued")

    monkeypatch.setattr(drivers, "exactness_k0_middle", break_witness)
    monkeypatch.setattr(kclasses, "glue_idempotents", no_gluing)
    assert not gen_k0_middle(clutching, Sampler(2)).passed
    (rep, report), = results
    assert rep is None
    assert [c["name"] for c in report.checks if not c["ok"]] == [
        "witness: stabilized images conjugate"
    ]


@pytest.mark.parametrize("name", ["clutching", "cover"])
def test_k0_middle_with_a_nonzero_padding_idempotent(name, request, monkeypatch):
    # gen_k0_middle pads with xi = 0, where the padding trivializer's
    # c e c^-1 and e c c^-1 are both the scalar block e = 0 + 1, so that
    # line cannot see its product order.  xi = [[1, 1], [0, 0]] is an
    # idempotent with xi + (1 - xi) != e; the sampled witness v + 1, padded
    # by one more 1, still conjugates the xi-stabilized images, and the
    # segment passes every line and glues.
    results = []

    def padded(diagram, d1, d2, _, v):
        lam = diagram.lambda_prime
        one, z = lam.one(), lam.zero()
        xi = IdempotentCert(FilteredMatrix(lam, ((one, one), (z, z)))).verify()
        results.append(exactness_k0_middle(diagram, d1, d2, xi, v.pad(1)))
        return results[-1]

    monkeypatch.setattr(drivers, "exactness_k0_middle", padded)
    for seed in range(4):
        assert gen_k0_middle(request.getfixturevalue(name), Sampler(seed)).passed
    for pre, report in results:
        assert pre is not None
        assert [c["name"] for c in report.checks] == [
            "witness: stabilized images conjugate", "padding trivializer"]
        assert report.passed


def test_k0_middle_bad_padding_is_named_and_never_glued(clutching, monkeypatch):
    # xi = [[2]] is not idempotent, yet the sampled witness v + 1 still
    # conjugates the xi-stabilized images.  The padding trivializer is the
    # one line that fails, and the segment returns before it glues.
    results = []

    def bad_padding(diagram, d1, d2, _, v):
        lam = diagram.lambda_prime
        xi = IdempotentCert(FilteredMatrix(lam, ((lam.from_rational(rat(2)),),)))
        results.append(exactness_k0_middle(diagram, d1, d2, xi, v))
        return results[-1]

    def no_gluing(*args):
        raise AssertionError("a k0_middle witness with a bad padding was glued")

    monkeypatch.setattr(drivers, "exactness_k0_middle", bad_padding)
    monkeypatch.setattr(kclasses, "glue_idempotents", no_gluing)
    assert not gen_k0_middle(clutching, Sampler(2)).passed
    (rep, report), = results
    assert rep is None
    assert [c["name"] for c in report.checks if not c["ok"]] == ["padding trivializer"]


def test_double_mismatch_position_reported(clutching):
    x = FilteredMatrix(clutching.lambda1, ((Poly([0, 1]),),))
    one = FilteredMatrix.identity(clutching.lambda2, 1)
    try:
        DoubleMatrix(clutching, x, one).verify()
        assert False, "mismatch must raise"
    except CertificateFailure as exc:
        assert str(exc).startswith("legs disagree in the overlap ring at ")
        assert exc.position == (0, 0)
        assert exc.residual is not None


def _o_double(clutching, junk):
    """Leg certificates of the double invertible diag(2, 1/2) on leg1; on
    leg2 the same plus an off-diagonal entry that dies in the overlap ring,
    so leg2 is not O-shaped unless the entry is zero."""
    l1, l2 = clutching.lambda1, clutching.lambda2
    two, half, zero = Poly([2]), Poly([rat(1, 2)]), l1.zero()
    k = Poly(junk)
    leg1 = InvertibleCert(
        FilteredMatrix(l1, ((two, zero), (zero, half))),
        FilteredMatrix(l1, ((half, zero), (zero, two))),
    ).verify()
    leg2 = InvertibleCert(
        FilteredMatrix(l2, ((two, k), (zero, half))),
        FilteredMatrix(l2, ((half, -k), (zero, two))),
    ).verify()
    DoubleMatrix(clutching, leg1.m, leg2.m).verify()
    DoubleMatrix(clutching, leg1.m_inv, leg2.m_inv).verify()
    return leg1, leg2


@pytest.mark.parametrize(
    "junk,passes", [([], True), ([-1, 0, 1], False)], ids=["both-legs", "leg1-only"]
)
def test_o_absorb_of_double_needs_both_legs_o_shaped(clutching, junk, passes):
    # o_blocks reads a certificate over one ring, so a double is O-shaped
    # when each leg's certificate is.
    leg1, leg2 = _o_double(clutching, junk)
    assert o_blocks(leg1).m == split2(leg1.m)[0]
    if passes:
        assert o_blocks(leg2).m == split2(leg2.m)[0]
    else:
        with pytest.raises(CertificateFailure, match="not O-shaped"):
            o_blocks(leg2)


def test_kernel_boundary_rejects_disagreeing_witness_legs(clutching, sampler):
    u_tilde = sampler.invertible(clutching.lambda1, 2)
    u, w = kernel_boundary_witness(clutching, u_tilde)
    two = InvertibleCert(
        scalar_diag(clutching.lambda1, 2, w.n),
        scalar_diag(clutching.lambda1, rat(1, 2), w.n),
    ).verify()
    pair, report = exactness_kernel_boundary(
        clutching, u, (w, w.compose(two)), lift_a=u_tilde.m, lift_b=u_tilde.m_inv
    )
    assert pair is None and not report.passed
    last = report.checks[-1]
    assert last["name"] == "witness is a double invertible" and not last["ok"]
    assert "legs disagree in the overlap ring" in last["residual"]


# The segments do not check the claims that an earlier line or the
# construction implies (a comment at each place says why).  Here each one
# is recomputed on sampled passing instances.
IMPLIED_CLAIM_SEEDS = 20


@pytest.mark.parametrize("name", ["clutching", "trivial_mv"])
def test_implied_exactness_claims_hold(name, request, monkeypatch):
    diagram = request.getfixturevalue(name)
    calls = {}

    def record(module, attr):
        original = getattr(module, attr)

        def wrapped(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.setdefault(attr, []).append((args, kwargs, result))
            return result
        monkeypatch.setattr(module, attr, wrapped)

    record(kclasses, "glue_idempotents")
    for attr in ("exactness_boundary_zero", "exactness_i_after_boundary",
                 "exactness_kernel_boundary", "exactness_kernel_i"):
        record(drivers, attr)
    for seed in range(IMPLIED_CLAIM_SEEDS):
        for gen in (gen_k0_middle, gen_boundary_zero, gen_i_after_boundary,
                    gen_kernel_boundary, gen_kernel_i):
            assert gen(diagram, Sampler(seed)).passed
    j1, j2 = diagram.j1, diagram.j2
    # k0_middle: composite conjugation, the glued double idempotent, and
    # both leg recoveries.
    for (q1p, q2p, u_final, _), _, (glued, u_tilde) in calls["glue_idempotents"]:
        assert apply_hom_matrix(j1, q1p.p) == (
            u_final.m @ apply_hom_matrix(j2, q2p.p) @ u_final.m_inv
        )
        verify_double_idempotent(glued)
        big = q1p.n
        assert glued.m1 == q1p.p.pad(big, fill=0)
        assert glued.m2 == u_tilde.m @ q2p.p.pad(big, fill=0) @ u_tilde.m_inv
    # boundary_zero, which builds no L or P: L is invertible (built and
    # verified here, with its other side) and the boundary class is the
    # literal zero difference.
    for (_, u_tilde), _, _ in calls["exactness_boundary_zero"]:
        u = apply_hom_invertible(j1, u_tilde)
        out = boundary_extended_form(
            diagram, *checked_lifts(diagram, u, lift_a=u_tilde.m, lift_b=u_tilde.m_inv)
        )
        assert out.l.m_inv @ out.l.m == FilteredMatrix.identity(diagram.lambda1, 2 * u.n)
        assert legs(out.p_double) == legs(out.minus)
    # i_after_boundary: leg 2 is the literal e2.
    for (_, u), _, _ in calls["exactness_i_after_boundary"]:
        out = boundary_extended_form(diagram, *checked_lifts(diagram, u))
        assert out.p_double.m2 == e_block(diagram.lambda2, u.n, u.n)
    # kernel_boundary: the normal form's leg 2 is V e2 V^-1, V = U1^-1 U2.
    for (_, u, (u1, u2)), lifts, _ in calls["exactness_kernel_boundary"]:
        out = boundary_extended_form(diagram, *checked_lifts(diagram, u, **lifts))
        v = u1.inverse().compose(u2)
        e2 = out.p_double.m2
        assert u1.m_inv @ e2 @ u1.m == v.m @ e2 @ v.m_inv
    # kernel_i: the conjugated leg 1 is V eps V^-1, V = u2^-1 u1, the
    # boundary of phi has S1 = 0, and it reproduces the conjugated leg 2.
    for (_, (plus, minus), u1, u2), _, (phi, _) in calls["exactness_kernel_i"]:
        p1, p2 = (
            normalize_difference(IdempotentCert(p), IdempotentCert(q))[0].p
            for p, q in ((plus.m1, minus.m1), (plus.m2, minus.m2))
        )
        eps = e_block(diagram.lambda1, plus.n, minus.n)
        v = u2.inverse().compose(u1)
        assert u2.m_inv @ p1 @ u2.m == v.m @ eps @ v.m_inv
        phi_cert = apply_hom_invertible(j1, v)
        assert phi == phi_cert.m
        lifts = checked_lifts(diagram, phi_cert, lift_a=v.m, lift_b=v.m_inv, m=plus.n)
        out = boundary_extended_form(diagram, *lifts, plus.n)
        assert out.s1.is_zero()
        total = plus.n + minus.n
        assert out.p_double.m2 == FilteredMatrix.zeros(diagram.lambda2, total).direct_sum(
            u2.m_inv @ p2 @ u2.m
        )
    assert all(len(calls[attr]) == IMPLIED_CLAIM_SEEDS for attr in calls)
