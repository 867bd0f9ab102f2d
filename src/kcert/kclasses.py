"""The six-term exactness witness suite.

A K0 difference is a plain (plus, minus) pair of idempotent certificates.
Class equality is never decided, only certified: each segment states its
"=" as an exact matrix equality between explicit representatives, through
recorded conjugators and literal scalar blocks, and records it as a named
check with its exact residual.
"""

from collections import namedtuple

from .boundary import boundary_defects, boundary_extended_form, checked_lifts, e_block
from .matrices import (
    CertificateFailure,
    FilteredMatrix,
    IdempotentCert,
    InvertibleCert,
    apply_hom_matrix,
    block2,
    involution_cert,
    o_blocks,
    split2,
)
from .mv import (
    DoubleMatrix,
    double_invertible,
    glue_idempotents,
    k0_common_form,
    lift_via_whitehead,
    normalize_difference,
)


def swap_halves(cert, left=False):
    """cert.compose(swap), or swap.compose(cert) when ``left``, for the block
    swap (block_swap_cert, its own inverse), by moving blocks: no product."""
    a, b, c, d = split2(cert.m)
    ai, bi, ci, di = split2(cert.m_inv)
    if left:
        return InvertibleCert(block2(c, d, a, b), block2(bi, ai, di, ci))
    return InvertibleCert(block2(b, a, d, c), block2(ci, di, ai, bi))


# -- exactness witnesses -----------------------------------------------------


class ExactnessReport:
    """Named checks with exact residuals, in report form, for one six-term
    segment or one ``boundary`` run."""

    __slots__ = ("segment", "checks")

    def __init__(self, segment):
        self.segment = segment
        self.checks = []

    def add(self, name, ok, detail=None):
        if ok:
            self.checks.append({"name": name, "ok": True})
        else:
            self.checks.append({"name": name, "ok": False, "residual": str(detail)})
        return ok

    def require(self, name, mismatch):
        """Record a first_mismatch-style result (None means pass)."""
        return self.add(name, mismatch is None, mismatch)

    def run(self, name, thunk):
        """Record ``thunk()`` as a check that fails when it raises
        CertificateFailure; return its result, or None when it failed."""
        try:
            result = thunk()
        except CertificateFailure as exc:
            self.add(name, False, exc)
            return None
        self.add(name, True)
        return result

    @property
    def passed(self):
        return all(check["ok"] for check in self.checks)


K0MiddleWitness = namedtuple("K0MiddleWitness", ["xi", "v"])


def exactness_k0_middle(diagram, d1, d2, witness):
    """Exactness at the leg pair: a matched pair of K0 differences comes from
    a glued class.  The witness conjugates the xi-stabilized common forms
    over the overlap ring; the recipe pads with xi and 1 - xi, rewrites the
    padding as a scalar block and glues, and the glued double's verify()
    certifies the glued class."""
    report = ExactnessReport("k0_middle")
    q1, q2, n_minus = k0_common_form(d1, d2)
    xi, v = witness
    k = xi.n
    j1q1 = apply_hom_matrix(diagram.j1, q1.p)
    j2q2 = apply_hom_matrix(diagram.j2, q2.p)
    lhs = j1q1.direct_sum(xi.p)
    rhs = v.m @ j2q2.direct_sum(xi.p) @ v.m_inv
    if not report.require("witness: stabilized images conjugate", lhs.first_mismatch(rhs)):
        return None, report
    xi_bar = xi.complement()
    c = swap_halves(involution_cert(xi))
    scalar = e_block(xi.algebra, k, k)
    if not report.require(
        "padding trivializer", (c.m @ scalar @ c.m_inv).first_mismatch(
            xi.p.direct_sum(xi_bar.p)
        )
    ):
        return None, report
    s = q1.n
    one_s = InvertibleCert.identity(diagram.lambda_prime, s)
    t = one_s.direct_sum(c)
    u_final = t.inverse().compose(v.pad(k)).compose(t)
    q1p = IdempotentCert(q1.p.direct_sum(e_block(diagram.lambda1, k, k)))
    q2p = IdempotentCert(q2.p.direct_sum(e_block(diagram.lambda2, k, k)))
    # That u_final conjugates j2(q2p) onto j1(q1p) needs no line of its own:
    # the padding trivializer passes only for an idempotent xi, and then
    # c^-1 = swap W is the inverse of c = W swap, so by the witness line
    # t^-1 (v + 1) t carries j2(q2) + scalar to j1(q1) + scalar.  Glue's
    # verify() checks that conjugacy again, and its legs q1p + 0 and
    # u~ (q2p + 0) u~^-1 are glue's own formulas.
    glued = glue_idempotents(q1p, q2p, u_final, diagram)
    minus = IdempotentCert(DoubleMatrix.diag_bits(diagram, (1,) * (n_minus + k)))
    return (glued.double, minus), report


def exactness_boundary_zero(diagram, u_tilde):
    """Boundary kills leg images: the boundary of a leg-image is certifiably zero; the
    lifts are the element and its inverse, so both defect matrices vanish
    and the double idempotent is literally the trivial block."""
    report = ExactnessReport("boundary_zero")
    # The transition is j1(u~) itself, so the lifts need no check against it.
    s0, s1 = boundary_defects(diagram, u_tilde.m, u_tilde.m_inv)
    report.add("S0 = 0", s0.is_zero(), "S0 nonzero")
    report.add("S1 = 0", s1.is_zero(), "S1 nonzero")
    # The boundary class is then the literal zero difference, with no line
    # of its own and no L or P built: at S0 = S1 = 0, L = [[0, -B], [A, 0]]
    # and L^-1 = [[0, B], [-A, 0]], so by block multiplication
    # L L^-1 = diag(BA, AB) = 1 and P = L e1 L^-1 = diag(0, AB) = diag(0, 1),
    # the minus part's leg 1; both leg 2s are the same e2 block.
    return report


def exactness_boundary_zero_oshape(diagram, xi):
    """The O-shaped case of the vanishing law: the four-factor recipe lifts xi
    invertibly through j1, so the same vanishing applies."""
    report = ExactnessReport("boundary_zero_oshape")
    try:
        alpha = o_blocks(xi)
    except CertificateFailure:
        report.add("input is O-shaped", False, "not O-shaped")
        return report
    report.add("input is O-shaped", True)
    lifted = lift_via_whitehead(alpha, diagram.j1)
    report.checks.extend(exactness_boundary_zero(diagram, lifted).checks)
    return report


def exactness_i_after_boundary(diagram, u, m=0):
    """Legs kill boundary classes: both legs of the boundary class are certifiably
    trivial; the first by the explicit conjugator L . swap, the second
    literally."""
    report = ExactnessReport("i_after_boundary")
    a, b = checked_lifts(diagram, u, m=m)
    out = boundary_extended_form(diagram, a, b, m)
    conj = swap_halves(out.l)
    e2_leg1 = e_block(diagram.lambda1, u.n + m, u.n - m)
    report.require(
        "leg1: P = (L.swap) e2 (L.swap)^-1",
        out.p.p.first_mismatch(conj.m @ e2_leg1 @ conj.m_inv),
    )
    # Leg 2 is out.e2 itself, the literal scalar block.
    return report


def exactness_kernel_boundary(diagram, u, witness, lift_a=None, lift_b=None):
    """Kernel of the boundary: a trivialized boundary class yields a splitting of U
    into leg images.  The witness (U1, U2) conjugates the boundary double
    idempotent to the trivial block; conjugating the first leg back by
    U1^{-1} reaches the literal block, and the block-diagonal matrix
    swap.U1^{-1}.L produces the splitting pair with U = j2(W2) . j1(W1) exactly."""
    report = ExactnessReport("kernel_boundary")
    if not diagram.same_legs:
        report.add("diagram has equal legs", False, "recipe assumes equal legs")
        return None, report
    report.add("diagram has equal legs", True)
    u1, u2 = witness
    out = boundary_extended_form(diagram, *checked_lifts(diagram, u, lift_a, lift_b))
    try:
        double_invertible(diagram, u1, u2)
    except CertificateFailure as exc:
        report.add("witness is a double invertible", False, exc)
        return None, report
    report.add("witness is a double invertible", True)
    e2 = e_block(diagram.lambda1, u.n, u.n)
    if not report.require(
        "witness trivializes leg1", out.p.p.first_mismatch(u1.m @ e2 @ u1.m_inv)
    ):
        return None, report
    if not report.require(
        "witness fixes leg2", out.p_double.p.m2.first_mismatch(u2.m @ out.e2 @ u2.m_inv)
    ):
        return None, report
    # Conjugating back by U1^{-1} sends the first leg to the literal e2.  Leg 2
    # needs no line: "witness fixes leg2" gives U1^-1 e2 U1 = V e2 V^-1 for
    # V = U1^-1 U2.
    report.require(
        "normal form leg1 is literal e2", (u1.m_inv @ out.p.p @ u1.m).first_mismatch(e2)
    )
    g = swap_halves(u1.inverse(), left=True).compose(out.l)
    g11, g12, g21, _ = split2(g.m)
    report.add(
        "swap.U1^-1.L is block diagonal",
        g12.is_zero() and g21.is_zero(),
        "off-diagonal blocks survive",
    )
    if not report.passed:
        return None, report
    w1 = InvertibleCert(g11, split2(g.m_inv)[0]).verify()
    w2 = InvertibleCert(split2(u2.m)[3], split2(u2.m_inv)[3]).verify()
    product = apply_hom_matrix(diagram.j2, w2.m) @ apply_hom_matrix(diagram.j1, w1.m)
    report.require("splitting: U = j2(W2) . j1(W1)", u.m.first_mismatch(product))
    return (w1, w2), report


def exactness_kernel_i(diagram, d, u1, u2):
    """Kernel of the legs: a double K0 difference killed by both legs is a
    boundary.  Normalize the difference to p~ = plus + (1 - minus), conjugate
    by (u2^{-1}, u2^{-1}); the second leg becomes the literal scalar block, phi
    = j1(u2^{-1} u1) commutes with it, and the lifts u2^{-1} u1, u1^{-1} u2
    have vanishing defects, so the extended boundary of phi reproduces the
    input class with every step certified.  Returns (phi, report): phi is
    the matrix j1(u2^{-1} u1), or None after a failed line.  No line reads
    the image of u1^{-1} u2, so it is not mapped."""
    report = ExactnessReport("kernel_i")
    if not diagram.same_legs:
        report.add("diagram has equal legs", False, "recipe assumes equal legs")
        return None, report
    report.add("diagram has equal legs", True)
    plus, minus = d
    m_sz, n_sz = plus.n, minus.n
    p_tilde, _ = normalize_difference(plus, minus)
    total = m_sz + n_sz
    eps = e_block(diagram.lambda1, m_sz, n_sz)
    report.require(
        "witness u1 trivializes leg1",
        p_tilde.p.m1.first_mismatch(u1.m @ eps @ u1.m_inv),
    )
    report.require(
        "witness u2 trivializes leg2",
        p_tilde.p.m2.first_mismatch(u2.m @ eps @ u2.m_inv),
    )
    if not report.passed:
        return None, report
    back = InvertibleCert(
        DoubleMatrix(diagram, u2.m_inv, u2.m_inv), DoubleMatrix(diagram, u2.m, u2.m)
    )
    p_tt = IdempotentCert(back.m @ p_tilde.p @ back.m_inv)
    v = u2.inverse().compose(u1)
    # Leg 1 needs no line: it is u2^-1 (u1 eps u1^-1) u2 = V eps V^-1 by the
    # witness line for u1, which returned early if it failed.
    report.require("conjugated leg2 is literal eps", p_tt.p.m2.first_mismatch(eps))
    phi = apply_hom_matrix(diagram.j1, v.m)
    eps_prime = e_block(diagram.lambda_prime, m_sz, n_sz)
    report.require(
        "phi commutes with the scalar block",
        (phi @ eps_prime).first_mismatch(eps_prime @ phi),
    )
    if not report.passed:
        return None, report
    # phi is j1(v), so the lifts v, v^-1 need no check against it; the
    # line "phi commutes with the scalar block" above is the commuting
    # boundary_extended_form requires at m > 0.
    out = boundary_extended_form(diagram, v.m, v.m_inv, m_sz)
    report.add("S0 = 0", out.s0.is_zero(), "S0 nonzero")
    # S1 = 1 - AB needs no line: the lifts are A = V and B = V^-1, and
    # S0 = 1 - BA = 0 above gives BA = 1, which forces AB = 1 (see
    # InvertibleCert.verify).  A faulty product A B fails L's verify() in
    # boundary_extended_form first.
    report.require(
        "boundary block reproduces conjugated class (leg1)",
        out.p.p.first_mismatch(
            FilteredMatrix.zeros(diagram.lambda1, total).direct_sum(p_tt.p.m1)
        ),
    )
    # Leg 2 needs no line: the boundary's leg 2 is e_block(lambda2, total +
    # m, n) = 0_total + eps, and "conjugated leg2 is literal eps" passed
    # before the return above, so 0_total + p_tt's leg 2 is the same block.

    # Chain back to the input class: un-conjugate, then un-normalize.
    # back's legs are one matrix over equal legs, so its inverse is a double
    # invertible.  p_tt was built as back p~ back^-1, so conjugating it by
    # back^-1 gives (u2 u2^-1) p~ (u2 u2^-1) on each leg, which is p~ once
    # back^-1's verify has checked u2 u2^-1 = 1 (and so u2^-1 u2 = 1, see
    # InvertibleCert.verify).
    report.run("conjugating back restores p~", back.inverse().verify)
    # What is left is [p~] - [1_n] = [plus] - [minus]: 1_m + W conjugates
    # plus + diag(0_n, 1_n) onto p~ + minus = plus + (1 - minus) + minus,
    # with the trivializer W = [[minus, 1 - minus], [1 - minus, minus]].  W
    # is built leg by leg by one recipe, so its legs agree as minus's do, and
    # W = W^-1, which conj's verify checks; so W diag(1_n, 0_n) W =
    # minus + (1 - minus) follows from the lower block, and the minus part
    # trivializes.
    w1, w2 = (involution_cert(IdempotentCert(leg)) for leg in (minus.p.m1, minus.p.m2))
    trivializer = InvertibleCert(
        DoubleMatrix(diagram, w1.m, w2.m), DoubleMatrix(diagram, w1.m_inv, w2.m_inv)
    )
    ident = DoubleMatrix.identity(diagram, m_sz)
    lower = DoubleMatrix.diag_bits(diagram, (0,) * n_sz + (1,) * n_sz)
    conj = InvertibleCert(ident, ident).direct_sum(trivializer)
    try:
        conj.verify()
    except CertificateFailure as exc:
        mismatch = str(exc)
    else:
        mismatch = p_tilde.p.direct_sum(minus.p).first_mismatch(
            conj.m @ plus.p.direct_sum(lower) @ conj.m_inv
        )
    report.require("un-stabilizing restores the normalized plus part", mismatch)
    return phi, report
