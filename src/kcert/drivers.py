"""Witness generators and report builders behind the CLI commands.

Exactness segments are self-witnessing: each generator builds random
instances together with the explicit data (conjugators, trivializers,
padding) its segment needs, then replays the constructive recipe and
records every exact check.  Segments whose recipe assumes equal legs are
reported as skipped on diagrams without them."""

from .boundary import (
    boundary_extended_form,
    boundary_first_form,
    checked_lifts,
    verify_lift_independence_a,
    verify_lift_independence_b,
)
from .identities import IDENTITY_NAMES, Sampler, run_identity_suite
from .kclasses import (
    ExactnessReport,
    K0MiddleWitness,
    exactness_boundary_zero,
    exactness_boundary_zero_oshape,
    exactness_i_after_boundary,
    exactness_k0_middle,
    exactness_kernel_boundary,
    exactness_kernel_i,
)
from .matrices import (
    CertificateFailure,
    FilteredMatrix,
    IdempotentCert,
    InvertibleCert,
    apply_hom_invertible,
    elementary,
    o_map,
    permutation_cert,
)


def encode_matrix(mat):
    enc = mat.algebra.encode_payload
    return [[enc(p) for p in row] for row in mat.rows]


def encode_double(dm):
    return {"leg1": encode_matrix(dm.m1), "leg2": encode_matrix(dm.m2)}


# -- verify ------------------------------------------------------------------


def verify_report(algebra, seed, samples, max_size):
    checks = []
    passed = True
    for report in run_identity_suite(algebra, sizes=max_size, samples=samples, seed=seed):
        ok = report.ok
        passed = passed and ok
        entry = {
            "name": report.identity,
            "ok": ok,
            "samples": report.samples,
            "min_level_slack": report.min_slack,
        }
        if not ok:
            entry["failures"] = [str(f) for f in report.failures]
        checks.append(entry)
    return {
        "command": {
            "name": "verify",
            "seed": seed,
            "samples": samples,
            "max_size": max_size,
            "algebra": algebra.describe(),
            "identities": list(IDENTITY_NAMES),
        },
        "checks": checks,
        "result": "pass" if passed else "fail",
    }


# -- boundary ----------------------------------------------------------------


def boundary_report(diagram, u, lift_a=None, lift_b=None, m=0,
                    perturb_a=None, perturb_b=None):
    # Outside the log: a lift that fails its check raises, and the CLI
    # rejects the inputs (exit 2) instead of reporting a failed line.
    a, b = checked_lifts(diagram, u, lift_a, lift_b, m)
    log = ExactnessReport("boundary")
    # The line's name lists "closed form", though P's block product is its
    # closed form and none is compared (see boundary_extended_form);
    # renaming the line would move the report bytes.
    out = log.run(
        "boundary construction (S, L, P, double constraint, closed form)",
        lambda: boundary_extended_form(diagram, a, b, m),
    )
    report = {
        "command": {"name": "boundary", "m": m, "size": u.n,
                    "diagram": diagram.describe()},
        "checks": log.checks,
    }
    if out is not None:
        log.run("P certifies idempotent", out.p.verify)
        # P_double^2 = P_double is P^2 = P on leg 1, checked on the line
        # above, and e2^2 = e2 on leg 2, a 0/1 diagonal; what is left to
        # check is that the legs agree.
        log.run("double matrix constraint", out.p_double.p.verify)
        report["s0"] = encode_matrix(out.s0)
        report["s1"] = encode_matrix(out.s1)
        report["l"] = encode_matrix(out.l.m)
        report["l_inv"] = encode_matrix(out.l.m_inv)
        report["p"] = encode_matrix(out.p.p)
        report["p_double"] = encode_double(out.p_double.p)
        report["class"] = {
            "plus": report["p_double"],
            "minus": encode_double(out.minus.p),
        }
        report["levels"] = {
            "input": u.level,
            "s0": out.s0.level,
            "s1": out.s1.level,
            "l": out.l.level,
            "p": out.p.level,
            "p_double": out.p_double.level,
        }
        if perturb_a is not None:
            log.run(
                "lift independence in A (explicit conjugator)",
                lambda: verify_lift_independence_a(diagram, a, b, perturb_a, out),
            )
        if perturb_b is not None:
            log.run(
                "lift independence in B (delta blocks)",
                lambda: verify_lift_independence_b(diagram, a, perturb_b, out),
            )
    report["result"] = "pass" if log.passed else "fail"
    return report


# -- exactness ---------------------------------------------------------------


def gen_k0_middle(diagram, sampler):
    lam1, lam2 = diagram.lambda1, diagram.lambda2
    c1 = sampler.invertible(lam1, 2, factors=sampler._below(3))
    c2 = sampler.invertible(lam2, 2, factors=sampler._below(3))
    plus1 = IdempotentCert(c1.m @ FilteredMatrix.diag_bits(lam1, (1, 0)) @ c1.m_inv)
    minus1 = IdempotentCert(FilteredMatrix.identity(lam1, 1))
    plus2 = IdempotentCert(c2.m @ FilteredMatrix.diag_bits(lam2, (1, 0)) @ c2.m_inv)
    minus2 = IdempotentCert(FilteredMatrix.identity(lam2, 1))
    c1p = c1.pad(2)
    c2p = c2.pad(2)
    v = apply_hom_invertible(diagram.j1, c1p).compose(
        apply_hom_invertible(diagram.j2, c2p).inverse()
    )
    xi = IdempotentCert(FilteredMatrix.zeros(diagram.lambda_prime, 1))
    witness = K0MiddleWitness(xi, v.pad(1))
    _, report = exactness_k0_middle(diagram, (plus1, minus1), (plus2, minus2), witness)
    return report


def gen_boundary_zero(diagram, sampler):
    u_tilde = sampler.invertible(diagram.lambda1, sampler.size(2))
    return exactness_boundary_zero(diagram, u_tilde)


def gen_boundary_zero_oshape(diagram, sampler):
    xi = o_map(sampler.invertible(diagram.lambda_prime, 1))
    return exactness_boundary_zero_oshape(diagram, xi)


def gen_i_after_boundary(diagram, sampler):
    u = sampler.invertible(diagram.lambda_prime, sampler.size(2))
    return exactness_i_after_boundary(diagram, u)


def kernel_boundary_witness(diagram, u_tilde):
    """For a liftable transition the boundary trivializes literally; L.swap
    is its recorded trivializer on both legs.  The lifts A = u~, B = u~^-1
    have S0 = S1 = 0, so L = [[0, -B], [A, 0]] and L.swap = diag(-B, A), with
    inverse diag(-A, B); the checker builds L itself."""
    a, b = u_tilde.m, u_tilde.m_inv
    return apply_hom_invertible(diagram.j1, u_tilde), InvertibleCert(
        (-b).direct_sum(a), (-a).direct_sum(b)
    )


def gen_kernel_boundary(diagram, sampler, corrupt=False):
    u_tilde = sampler.invertible(diagram.lambda1, sampler.size(2))
    u, w = kernel_boundary_witness(diagram, u_tilde)
    if corrupt:
        # A factor that fails to commute with the scalar block breaks the
        # trivialization equation, which the checker must surface.
        lam = diagram.lambda1
        one = lam.one()
        w = w.compose(InvertibleCert(
            elementary(lam, w.n, 0, w.n - 1, one), elementary(lam, w.n, 0, w.n - 1, -one)
        ))
    _, report = exactness_kernel_boundary(
        diagram, u, (w, w), lift_a=u_tilde.m, lift_b=u_tilde.m_inv
    )
    return report


def kernel_i_witnesses(diagram, glued, n):
    """Trivializers for the first-form glued class [p(1,1,u)] - [1_n + 0_n]:
    a permutation aligns the scalar leg with the bottom block, and the
    recorded u-lift handles the conjugated leg."""
    perm = (
        tuple(range(2 * n, 3 * n))
        + tuple(range(0, 2 * n))
        + tuple(range(3 * n, 4 * n))
    )
    u1 = permutation_cert(diagram.lambda1, perm)
    u2 = glued.u_tilde.direct_sum(
        InvertibleCert.identity(diagram.lambda2, 2 * n)
    ).compose(permutation_cert(diagram.lambda2, perm))
    return u1, u2


def gen_kernel_i(diagram, sampler):
    n = 1
    u = sampler.invertible(diagram.lambda_prime, n)
    glued, minus = boundary_first_form(diagram, u)
    u1, u2 = kernel_i_witnesses(diagram, glued, n)
    phi, report = exactness_kernel_i(diagram, (glued.double, minus), u1, u2)
    if phi is not None:
        expected = u.m.direct_sum(FilteredMatrix.identity(diagram.lambda_prime, n))
        block = phi.sub_block(2 * n, 4 * n, 2 * n, 4 * n)
        inv_expected = u.m_inv.direct_sum(
            FilteredMatrix.identity(diagram.lambda_prime, n)
        )
        ok = block == expected or block == inv_expected
        report.add(
            "recovered block is the (inverse-)stabilized transition", ok,
            "block does not match the transition",
        )
    return report


SEGMENTS = (
    ("k0_middle", gen_k0_middle, False),
    ("boundary_zero", gen_boundary_zero, False),
    ("boundary_zero_oshape", gen_boundary_zero_oshape, False),
    ("i_after_boundary", gen_i_after_boundary, False),
    ("kernel_boundary", gen_kernel_boundary, True),
    ("kernel_i", gen_kernel_i, True),
)


def exactness_report(diagram, seed, samples, corrupt_witness=False):
    segments = []
    passed = True
    for name, gen, needs_same_legs in SEGMENTS:
        if needs_same_legs and not diagram.same_legs:
            segments.append(
                {"segment": name, "status": "skipped",
                 "reason": "recipe assumes equal legs"}
            )
            continue
        sampler = Sampler((seed, name).__repr__())
        entry = {"segment": name, "samples": samples, "checks": []}
        seg_ok = True
        for idx in range(samples):
            try:
                if name == "kernel_boundary" and corrupt_witness:
                    report = gen(diagram, sampler, corrupt=True)
                else:
                    report = gen(diagram, sampler)
            except CertificateFailure as exc:
                seg_ok = False
                entry["checks"] = [
                    {"name": "witness construction", "ok": False, "residual": str(exc)}
                ]
                entry["failing_sample"] = idx
                break
            if not report.passed:
                seg_ok = False
                entry["checks"] = report.checks
                entry["failing_sample"] = idx
                break
        entry["status"] = "pass" if seg_ok else "fail"
        passed = passed and seg_ok
        segments.append(entry)
    return {
        "command": {
            "name": "exactness",
            "seed": seed,
            "samples": samples,
            "corrupt_witness": bool(corrupt_witness),
            "diagram": diagram.describe(),
        },
        "segments": segments,
        "result": "pass" if passed else "fail",
    }
