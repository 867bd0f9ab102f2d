"""Acceptance gate: every criterion at its stated budget, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module is the exit gate for the build."""

import json
import time
from collections import namedtuple
from importlib import resources

import pytest
from carriers import (
    clutching_diagram,
    cover_diagram,
    payload_product,
    radius,
    suite_algebras,
    trivial_diagram,
)

from kcert.boundary import (
    boundary_extended_form,
    boundary_first_form,
    checked_lifts,
    verify_lift_independence_a,
    verify_lift_independence_b,
)
from kcert.cli import main as cli_main
from kcert.drivers import kernel_boundary_witness, kernel_i_witnesses
from kcert.identities import Sampler, run_identity_suite, whitehead_product
from kcert.kclasses import (
    exactness_boundary_zero,
    exactness_i_after_boundary,
    exactness_kernel_boundary,
    exactness_kernel_i,
)
from kcert.matrices import (
    CertificateFailure,
    FilteredMatrix,
    InvertibleCert,
    apply_hom_matrix,
    expect_equal,
    o_blocks,
    o_map,
    permutation_cert,
)
from kcert.mv import lift_via_whitehead
from kcert.scalars import Poly, rat

SAMPLES_PER_INSTANCE = 1000
SUITE_BUDGET_SECONDS = 60.0


def _report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _x_cert(diagram):
    x_cls = Poly([0, 1])
    m = FilteredMatrix(diagram.lambda_prime, ((x_cls,),))
    return InvertibleCert(m, m).verify()


def perturbed_boundary(diagram, u, a, b, k=None, h=None, m=0):
    """The boundary with A + K or B + H, lifts of U and U^{-1} checked by
    checked_lifts, which a lift-independence check does not build: it
    builds only L~."""
    a = a if k is None else a + k
    b = b if h is None else b + h
    return boundary_extended_form(diagram, *checked_lifts(diagram, u, a, b, m), m)


def check_lift_conjugator(base, conj, l_tilde, tilde):
    """What a lift-independence check leaves to its proof, recomputed: for
    the conjugator ``conj`` and the L~ it returns, L~ is the perturbed
    boundary's L, L L~^-1 is an exact two-sided inverse of conj, conj
    carries P to P~, and the second leg is fixed.  ``base`` and ``tilde``
    are the boundaries before and after the perturbation."""
    assert (tilde.l.m, tilde.l.m_inv) == (l_tilde.m, l_tilde.m_inv)
    cert = InvertibleCert(conj, base.l.m @ tilde.l.m_inv).verify()
    assert cert.m_inv @ cert.m == FilteredMatrix.identity(conj.algebra, conj.n)
    assert tilde.p.p == cert.m @ base.p.p @ cert.m_inv
    assert tilde.p_double.p.m2 == base.p_double.p.m2


def test_criterion_1_identity_suite():
    started = time.monotonic()
    failures = []
    for name, algebra in suite_algebras().items():
        for report in run_identity_suite(
            algebra, sizes=4, samples=SAMPLES_PER_INSTANCE, seed=20260810
        ):
            if not report.ok:
                failures.append((name, report.identity, report.failures[:1]))
            if report.min_slack is not None and report.min_slack < 0:
                failures.append((name, report.identity, "level slack negative"))
    elapsed = time.monotonic() - started
    _report(
        "1 identity-suite",
        not failures and elapsed < SUITE_BUDGET_SECONDS,
        f"{SAMPLES_PER_INSTANCE} samples/identity/instance, {elapsed:.1f}s"
        + (f", failures={failures[:2]}" if failures else ""),
    )


def test_criterion_2_whitehead_decomposition():
    algebras = suite_algebras()
    sampler = Sampler(2026)
    checked = 0
    ok = True
    trivial = algebras["trivial"]
    base = whitehead_product(InvertibleCert.identity(trivial, 1))
    ok &= base == FilteredMatrix.identity(trivial, 2)
    while checked < 500:
        for algebra in algebras.values():
            u = sampler.invertible(algebra, sampler.size(4))
            ok &= whitehead_product(u) == u.m.direct_sum(u.m_inv)
            checked += 1
    _report("2 whitehead-decomposition", ok, f"{checked} invertibles + base case")


def test_criterion_3_axiom4_bookkeeping():
    sampler = Sampler(3)
    ok = True
    for name, algebra in suite_algebras().items():
        degree = algebra.degree
        for _ in range(1000):
            a = sampler.payload(algebra)
            b = sampler.payload(algebra)
            ab = payload_product(algebra, a, b)
            ok &= degree(ab) >= max(0, min(degree(a), degree(b)) - 1)
    propagation = suite_algebras()["propagation"]
    for mu in range(1, 17):
        ok &= radius(propagation, mu) + radius(propagation, mu) == radius(propagation, mu - 1)
    _report("3 axiom4-bookkeeping", ok, "1000 pairs/instance + exact radius law")


def test_criterion_4_boundary_clutching():
    diagram = clutching_diagram()
    u = _x_cert(diagram)
    x = FilteredMatrix(diagram.lambda1, ((Poly([0, 1]),),))
    out = boundary_extended_form(diagram, *checked_lifts(diagram, u, lift_a=x, lift_b=x))
    one_minus_x2 = FilteredMatrix(diagram.lambda1, ((Poly([1, 0, -1]),),))
    ok = out.s0 == one_minus_x2 and out.s1 == one_minus_x2
    out.p.verify()
    out.p_double.p.verify()
    out.p_double.verify()
    closed = (
        out.s0 @ out.s0,
        out.s0 @ (out.s0.plus_one() @ x),
        out.s1 @ x,
        FilteredMatrix.identity(diagram.lambda1, 1) - out.s1 @ out.s1,
    )
    from kcert.matrices import block2

    ok &= out.p.p == block2(*closed)
    _report("4 boundary-clutching", ok, "S0 = S1 = 1 - x^2, closed form entrywise")


def test_criterion_5_well_definedness():
    diagram = clutching_diagram()
    u = _x_cert(diagram)
    x = FilteredMatrix(diagram.lambda1, ((Poly([0, 1]),),))
    a, b = checked_lifts(diagram, u, lift_a=x, lift_b=x)
    base = boundary_extended_form(diagram, a, b)
    sampler = Sampler(5)
    kernel = Poly([-1, 0, 1])
    count = 0
    for _ in range(100):
        factor = sampler.matrix(diagram.lambda1, 1).rows[0][0]
        k = FilteredMatrix(diagram.lambda1, ((factor * kernel,),))
        check_lift_conjugator(
            base, *verify_lift_independence_a(diagram, a, b, k, base),
            perturbed_boundary(diagram, u, a, b, k=k),
        )
        count += 1
        factor = sampler.matrix(diagram.lambda1, 1).rows[0][0]
        h = FilteredMatrix(diagram.lambda1, ((factor * kernel,),))
        check_lift_conjugator(
            base, *verify_lift_independence_b(diagram, a, h, base),
            perturbed_boundary(diagram, u, a, b, h=h),
        )
        count += 1
    _report("5 well-definedness", count == 200, f"{count} perturbations, conjugators exact")


def test_criterion_6_exactness_witnesses():
    diagrams = {
        "trivial": trivial_diagram(),
        "clutching": clutching_diagram(),
        "cover": cover_diagram(),
    }
    ok = True
    for name, diagram in diagrams.items():
        sampler = Sampler((6, name).__repr__())
        for _ in range(200):
            u_tilde = sampler.invertible(diagram.lambda1, sampler.size(2))
            ok &= exactness_boundary_zero(diagram, u_tilde).passed
            u = sampler.invertible(diagram.lambda_prime, sampler.size(2))
            ok &= exactness_i_after_boundary(diagram, u).passed
    # constructive round trips on the clutching example
    diagram = diagrams["clutching"]
    sampler = Sampler(66)
    u_tilde = sampler.invertible(diagram.lambda1, 2)
    u_img, w = kernel_boundary_witness(diagram, u_tilde)
    pair, report = exactness_kernel_boundary(
        diagram, u_img, (w, w), lift_a=u_tilde.m, lift_b=u_tilde.m_inv
    )
    ok &= report.passed and pair is not None
    u = _x_cert(diagram)
    glued, u_tilde, minus = boundary_first_form(diagram, u)
    u1, u2 = kernel_i_witnesses(diagram, u_tilde, 1)
    phi, report = exactness_kernel_i(diagram, (glued, minus), u1, u2)
    ok &= report.passed
    ok &= phi.sub_block(2, 4, 2, 4) == u.m.direct_sum(
        FilteredMatrix.identity(diagram.lambda_prime, 1)
    )
    _report("6 exactness-witnesses", ok,
            "200 liftable inputs x 3 diagrams + iii.3/iii.4 round trips")


OLift = namedtuple("OLift", ["u_tilde", "xi_tilde", "forward", "perm"])


def lift_o_element(xi, leg):
    """Lift recipe for O-shaped elements: from xi = diag(alpha, alpha^{-1})
    build xi~ by the four-factor formula with section-lifted entries, then
    U~ = diag(xi~, xi~^{-1}), whose forward image diag(xi, xi^{-1}) is
    permutation-conjugate to xi + xi."""
    if not leg.surjective:
        raise ValueError("lifting requires a surjective leg")
    alpha = o_blocks(xi)
    xi_tilde = lift_via_whitehead(alpha, leg)
    u_tilde = o_map(xi_tilde)
    forward = apply_hom_matrix(leg, u_tilde.m)
    expect_equal(forward, xi.m.direct_sum(xi.m_inv), "O-lift image mismatch")
    n = alpha.n
    perm = []
    for b in (0, 1, 3, 2):
        perm.extend(range(b * n, (b + 1) * n))
    p = permutation_cert(xi.algebra, tuple(perm))
    double_xi = xi.m.direct_sum(xi.m)
    expect_equal(p.m @ double_xi @ p.m_inv, forward, "O-lift permutation conjugacy fails")
    return OLift(u_tilde, xi_tilde, forward, p)


def test_lift_o_element(clutching, sampler):
    alpha = sampler.invertible(clutching.lambda_prime, 1)
    xi = o_map(alpha)
    lifted = lift_o_element(xi, clutching.j1)
    lifted.u_tilde.verify()
    assert lifted.forward == xi.m.direct_sum(xi.m_inv)
    # permutation conjugacy to xi + xi
    double_xi = xi.m.direct_sum(xi.m)
    assert lifted.perm.m @ double_xi @ lifted.perm.m_inv == lifted.forward
    # identity input -> identity lift image
    one = InvertibleCert.identity(clutching.lambda_prime, 1)
    triv = lift_o_element(o_map(one), clutching.j1)
    assert triv.forward == FilteredMatrix.identity(clutching.lambda_prime, 4)
    with pytest.raises(CertificateFailure):
        lift_o_element(sampler.invertible(clutching.lambda_prime, 2), clutching.j1)


def test_criterion_7_dyadic_lift():
    diagram = clutching_diagram()
    sampler = Sampler(7)
    ok = True
    for _ in range(100):
        alpha = sampler.invertible(diagram.lambda_prime, sampler.size(2))
        xi = o_map(alpha)
        lifted = lift_o_element(xi, diagram.j1)
        forward = apply_hom_matrix(diagram.j1, lifted.u_tilde.m)
        ok &= forward == lifted.forward
        double_xi = xi.m.direct_sum(xi.m)
        ok &= lifted.perm.m @ double_xi @ lifted.perm.m_inv == forward
    _report("7 dyadic-lift", ok, "100 O-shaped lifts, image perm-conjugate to xi+xi")


def test_criterion_8_cli_determinism(tmp_path, capsys):
    specs = {
        "verify": "trivial_q.json",
        "boundary": "quotient_clutching.json",
        "exactness": "propagation_cover.json",
    }
    ok = True
    for command, spec in specs.items():
        path = str(resources.files("kcert.specs").joinpath(spec))
        outputs = []
        for run in range(2):
            target = tmp_path / f"{command}-{run}.txt"
            code = cli_main(
                [command, "--spec", path, "--report", str(target), "--format", "json"]
            )
            ok &= code == 0
            outputs.append(target.read_bytes())
        ok &= outputs[0] == outputs[1]
        json.loads(outputs[0])
    capsys.readouterr()
    _report("8 cli-determinism", ok, "byte-identical reports, corpus exit 0")
