from fractions import Fraction
from math import gcd
from operator import add, matmul, sub

import pytest
from carriers import line_space, payload_product, scalar_diag, suite_algebras
from hypothesis import given, settings
from hypothesis import strategies as st

from kcert.algebras import (
    InclusionHom,
    Kernel,
    PolyAlgebra,
    PropagationAlgebra,
    QuotientAlgebra,
    QuotientHom,
    TrivialAlgebra,
)
from kcert.matrices import (
    CertificateFailure,
    FilteredMatrix,
    IdempotentCert,
    InvertibleCert,
    MatrixError,
    apply_hom_invertible,
    apply_hom_matrix,
    block2,
    block_swap_cert,
    elementary,
    involution_cert,
    o_blocks,
    o_map,
    permutation_cert,
    rotation_swap_cert,
    section_matrix,
)
from kcert.identities import Sampler
from kcert.mv import DoubleMatrix
from kcert.scalars import R0, Poly, _remainder, parse_rational, rat


def sampled_idempotent(sampler, algebra, n):
    """u diag(bits) u^-1 for random 0/1 bits and a sampled invertible u with
    up to two elementary factors."""
    bits = [sampler.rng.randint(0, 1) for _ in range(n)]
    diag = FilteredMatrix.diag_bits(algebra, bits)
    u = sampler.invertible(algebra, n, factors=sampler.rng.randint(0, 2))
    return IdempotentCert(u.m @ diag @ u.m_inv)


def test_identity_neutral(trivial, sampler):
    m = sampler.matrix(trivial, 3)
    ident = FilteredMatrix.identity(trivial, 3)
    assert ident @ m == m
    assert m @ ident == m
    assert (ident @ m).level == m.level


# Keyed by the test ids.
NEGATION_ALGEBRAS = {
    "trivial_algebra": TrivialAlgebra,
    "poly_algebra": PolyAlgebra,
    "quotient_algebra": lambda: suite_algebras()["quotient"],
    "propagation_algebra": lambda: suite_algebras()["propagation"],
}


@pytest.mark.parametrize("make", sorted(NEGATION_ALGEBRAS))
def test_negation_keeps_the_shared_zero(make, sampler):
    # Products skip the algebra's shared zero by identity, so -m must keep
    # every such entry the same object.
    algebra = NEGATION_ALGEBRAS[make]()
    z = algebra.zero()
    m = sampler.matrix(algebra, 2).direct_sum(FilteredMatrix.zeros(algebra, 2))
    neg = -m
    kept = [(i, j) for i, row in enumerate(m.rows) for j, a in enumerate(row) if a is z]
    assert len(kept) >= 8
    assert all(neg.rows[i][j] is z for i, j in kept)
    assert neg.rows == tuple(tuple(-a for a in row) for row in m.rows)
    assert neg + m == FilteredMatrix.zeros(algebra, 4)


def test_size_and_algebra_mismatch(trivial, quotient, sampler):
    a = sampler.matrix(trivial, 2)
    b = sampler.matrix(trivial, 3)
    with pytest.raises(ValueError):
        a @ b
    c = sampler.matrix(quotient, 2)
    with pytest.raises(ValueError):
        a @ c
    # One representative over x^2 - 1 and over x^2 + 1: elements of two
    # rings, which no operation mixes and == tells apart.
    other = QuotientAlgebra(Poly([1, 0, 1]))
    rows = ((Poly([0, 1]),),)
    d, e = FilteredMatrix(quotient, rows), FilteredMatrix(other, rows)
    for op in (add, sub, matmul, FilteredMatrix.first_mismatch):
        with pytest.raises(MatrixError, match="algebra mismatch"):
            op(d, e)
    assert d != e and e != d


def test_sub_block_must_be_square(trivial, sampler):
    m = sampler.matrix(trivial, 4)
    assert m.sub_block(1, 3, 2, 4).rows == tuple(row[2:4] for row in m.rows[1:3])
    with pytest.raises(MatrixError):
        m.sub_block(0, 2, 0, 3)


def test_records_check_their_shapes(trivial, quotient, sampler):
    # A short row, an operand that is no matrix, blocks of two sizes and
    # factors of two sizes or algebras are rejected where they are built,
    # before any entry is read.
    with pytest.raises(MatrixError, match="matrix must be square"):
        FilteredMatrix(trivial, ((rat(1), rat(2)), (rat(3),)))
    a = sampler.matrix(trivial, 2)
    with pytest.raises(MatrixError, match="matrix expected"):
        a @ 1
    with pytest.raises(MatrixError, match="blocks must share one size"):
        block2(a, a, a, sampler.matrix(trivial, 1))
    for other in (sampler.matrix(trivial, 3), sampler.matrix(quotient, 2)):
        with pytest.raises(MatrixError, match="certificate factors mismatch"):
            InvertibleCert(a, other)


def _entry_level(m):
    """Reference level: the lowest entry degree, max_level for n = 0."""
    deg = m.algebra.degree
    return min((deg(p) for row in m.rows for p in row), default=m.algebra.max_level)


@pytest.mark.parametrize(
    "kind", ["trivial", "poly", "quotient", "propagation", "diagonal propagation"]
)
def test_level_laws(kind, sampler):
    algebra = {
        **suite_algebras(),
        "poly": PolyAlgebra(),
        "diagonal propagation": PropagationAlgebra(line_space(4), diagonal=True),
    }[kind]
    empty = FilteredMatrix.zeros(algebra, 0)
    assert empty.n == 0 and empty.level == algebra.max_level
    nonzero = scalar_diag(algebra, rat(-2, 3), 3)
    assert not nonzero.is_zero() and nonzero.level == algebra.max_level
    for _ in range(200):
        n = sampler.size(3)
        a = sampler.matrix(algebra, n)
        b = sampler.matrix(algebra, n)
        assert a.level == _entry_level(a) and b.level == _entry_level(b)
        # an all-zero row adds nothing to the level
        zero_row = FilteredMatrix(algebra, ((algebra.zero(),) * n,) + a.rows[1:])
        assert zero_row.level == _entry_level(zero_row)
        if kind != "propagation":
            # Over Q, Q[x] and Q[x]/(m) every payload sits at max_level, and
            # so does every kernel supported on the diagonal.
            assert a.level == algebra.max_level
        assert (a @ b).level >= max(0, min(a.level, b.level) - 1)
        assert (a + b).level >= min(a.level, b.level)
        # direct_sum carries the blocks' known levels; the entries agree
        ab = a.direct_sum(b)
        assert ab.level == _entry_level(ab) == min(a.level, b.level)


def test_elementary_laws(quotient):
    x2 = Poly([0, 0, 1])  # in Q[x], but no representative mod x^2 - 1
    alg = quotient
    xe = alg.parse_payload(["0", "1"])
    e = elementary(alg, 3, 0, 2, xe)
    assert e.rows[0] == (alg.one(), alg.zero(), xe)
    InvertibleCert(e, elementary(alg, 3, 0, 2, -xe)).verify()
    a = elementary(alg, 3, 0, 1, alg.parse_payload(["2"]))
    b = elementary(alg, 3, 0, 1, alg.parse_payload(["0", "3"]))
    assert a @ b == elementary(alg, 3, 0, 1, alg.parse_payload(["2", "3"]))
    with pytest.raises(ValueError):
        elementary(alg, 3, 1, 1, alg.one())
    with pytest.raises(MatrixError, match="off-diagonal"):
        elementary(alg, 3, 0, 3, alg.one())
    with pytest.raises(MatrixError, match="not in the algebra"):
        elementary(alg, 3, 0, 1, x2)


def test_check_idempotent(trivial):
    good = FilteredMatrix.diag_bits(trivial, (1, 0))
    cert = IdempotentCert(good).verify()
    assert cert.level == trivial.max_level
    bad = scalar_diag(trivial, rat(1, 2), 2)
    with pytest.raises(CertificateFailure) as err:
        IdempotentCert(bad).verify()
    assert err.value.position == (0, 0)
    assert err.value.residual == rat(-1, 4)


def test_conjugation_recertifies(all_algebras, sampler):
    for algebra in all_algebras.values():
        for _ in range(50):
            n = sampler.size(3)
            p = sampled_idempotent(sampler, algebra, n)
            u = sampler.invertible(algebra, n)
            q = IdempotentCert(u.m @ p.p @ u.m_inv)
            q.verify()
            one = InvertibleCert.identity(algebra, n)
            assert IdempotentCert(one.m @ p.p @ one.m_inv).verify().p == p.p


def test_direct_sum_swap_conjugacy(trivial, sampler):
    a = sampler.matrix(trivial, 2)
    b = sampler.matrix(trivial, 2)
    rot = rotation_swap_cert(trivial, 2)
    assert rot.m @ b.direct_sum(a) @ rot.m_inv == a.direct_sum(b)
    swap = block_swap_cert(trivial, 2)
    assert swap.m @ b.direct_sum(a) @ swap.m_inv == a.direct_sum(b)


def test_o_map_laws(quotient, sampler):
    u = sampler.invertible(quotient, 2)
    ou = o_map(u)
    ou.verify()
    assert ou.level == u.level
    assert o_blocks(ou).m == u.m and o_blocks(ou).m_inv == u.m_inv
    assert o_map(InvertibleCert.identity(quotient, 2)).m == FilteredMatrix.identity(
        quotient, 4
    )
    # O(u^{-1}) is the block swap conjugate of O(u)
    swap = block_swap_cert(quotient, 2)
    assert swap.m @ ou.m @ swap.m_inv == o_map(u.inverse()).m


def _o_multiplicativity_counterexample(algebra):
    """O(u1 u2) and O(u1) O(u2) for the non-commuting 2x2 elementary pair
    E_01(1), E_10(1)."""
    one = algebra.one()
    u1 = InvertibleCert(elementary(algebra, 2, 0, 1, one), elementary(algebra, 2, 0, 1, -one))
    u2 = InvertibleCert(elementary(algebra, 2, 1, 0, one), elementary(algebra, 2, 1, 0, -one))
    return o_map(u1.compose(u2)), o_map(u1).compose(o_map(u2))


def test_o_map_non_multiplicativity_pinned(trivial, quotient):
    for algebra in (trivial, quotient):
        lhs, rhs = _o_multiplicativity_counterexample(algebra)
        assert lhs.m != rhs.m
        # 1x1 commutative entries: the two sides DO agree, hence 2x2 blocks.
        a = InvertibleCert(
            scalar_diag(algebra, 2, 1),
            scalar_diag(algebra, rat(1, 2), 1),
        )
        b = InvertibleCert(
            scalar_diag(algebra, 3, 1),
            scalar_diag(algebra, rat(1, 3), 1),
        )
        assert o_map(a.compose(b)).m == o_map(a).compose(o_map(b)).m


def test_stabilization_paddings(trivial, sampler):
    p = sampled_idempotent(sampler, trivial, 2)
    assert p.pad(2).p == p.p.direct_sum(FilteredMatrix.zeros(trivial, 2))
    u = sampler.invertible(trivial, 2)
    pu = u.pad(2)
    pu.verify()
    assert pu.m == u.m.direct_sum(FilteredMatrix.identity(trivial, 2))


def test_apply_hom_preserves_certificates(clutching, sampler):
    h = clutching.j1
    for _ in range(25):
        u = sampler.invertible(clutching.lambda1, 2)
        apply_hom_invertible(h, u).verify()
        p = sampled_idempotent(sampler, clutching.lambda1, 2)
        IdempotentCert(apply_hom_matrix(h, p.p)).verify()


def test_section_matrix_roundtrip(clutching, trivial, sampler):
    h = clutching.j1
    m = sampler.matrix(clutching.lambda_prime, 2)
    lifted = section_matrix(h, m)
    assert apply_hom_matrix(h, lifted) == m
    # A matrix over the wrong algebra is rejected in both directions.
    with pytest.raises(MatrixError):
        apply_hom_matrix(h, m)
    with pytest.raises(MatrixError):
        section_matrix(h, lifted)
    inclusion = InclusionHom(trivial, clutching.lambda1)
    # Not surjective, so it has no section; every lift checks surjectivity first.
    with pytest.raises(AttributeError):
        section_matrix(inclusion, FilteredMatrix.identity(clutching.lambda1, 2))


def test_involution_cert(trivial, sampler):
    p = sampled_idempotent(sampler, trivial, 2)
    w = involution_cert(p)
    w.verify()
    scalar = FilteredMatrix.diag_bits(trivial, (1, 1, 0, 0))
    assert w.m @ scalar @ w.m_inv == p.p.direct_sum(p.complement().p)
    # the complementary block, which exactness_kernel_i's chain from the
    # normalized plus part back to the input difference relies on
    scalar = FilteredMatrix.diag_bits(trivial, (0, 0, 1, 1))
    assert w.m @ scalar @ w.m_inv == p.complement().p.direct_sum(p.p)


def test_permutation_cert(trivial):
    p = permutation_cert(trivial, (2, 0, 1))
    p.verify()
    d = FilteredMatrix.diag_bits(trivial, (1, 0, 0))
    out = p.m @ d @ p.m_inv
    # conjugation pulls indices back through the permutation: out[a] = d[perm[a]]
    assert out == FilteredMatrix.diag_bits(trivial, (0, 1, 0))


def test_invertible_cert_failure(trivial):
    m = scalar_diag(trivial, 2, 2)
    with pytest.raises(CertificateFailure):
        InvertibleCert(m, m).verify()


def _perturbed(mat, i, j):
    """mat with one added to entry (i, j)."""
    rows = [list(row) for row in mat.rows]
    rows[i][j] = rows[i][j] + mat.algebra.one()
    return FilteredMatrix(mat.algebra, rows)


def _first_failure(m, i, j):
    """Where m (m^-1 + E_ij) = 1 + m E_ij first differs from 1: column j
    of m E_ij is column i of m, so at the first row r with m[r][i] nonzero,
    with residual m[r][i]."""
    r = next(r for r in range(m.n) if m.rows[r][i] != m.algebra.zero())
    return (r, j), m.rows[r][i]


ONE_SIDED_ALGEBRAS = {
    "Q": TrivialAlgebra,
    "Q[x]": PolyAlgebra,
    "Q[x]/(x^2-1)": lambda: suite_algebras()["quotient"],
    "kernels": lambda: suite_algebras()["propagation"],
    "diagonal kernels": lambda: PropagationAlgebra(line_space(4), diagonal=True),
}


@pytest.mark.parametrize("name", sorted(ONE_SIDED_ALGEBRAS) + ["double"])
def test_one_sided_inverse_implies_the_other_side(name, clutching):
    # verify() computes m m^-1 = 1 only; over every carrier that forces
    # m^-1 m = 1, recomputed here.  A one-entry change of the inverse fails
    # the one product that verify() makes, at the first row that column i
    # of m reaches.
    sampler = Sampler(29)
    for n in (1, 2, 3):
        for _ in range(6):
            if name == "double":
                c1 = sampler.invertible(clutching.lambda1, n, factors=2)
                c2 = sampler.invertible(clutching.lambda2, n, factors=2)
                cert = InvertibleCert(DoubleMatrix(clutching, c1.m, c2.m),
                                      DoubleMatrix(clutching, c1.m_inv, c2.m_inv))
            else:
                cert = sampler.invertible(ONE_SIDED_ALGEBRAS[name](), n, factors=2)
            assert cert.verify() is cert
            ident = type(cert.m).identity(cert.algebra, n)
            assert (cert.m_inv @ cert.m).first_mismatch(ident) is None
            i, j = sampler._below(n), sampler._below(n)
            if name == "double":
                bad = DoubleMatrix(clutching, cert.m_inv.m1, _perturbed(cert.m_inv.m2, i, j))
                pos, residual = _first_failure(cert.m.m2, i, j)
                pos = ("leg2", pos)
            else:
                bad = _perturbed(cert.m_inv, i, j)
                pos, residual = _first_failure(cert.m, i, j)
            with pytest.raises(CertificateFailure) as err:
                InvertibleCert(cert.m, bad).verify()
            assert str(err.value) == f"inverse certificate fails at {pos}"
            assert err.value.position == pos
            assert err.value.residual == residual


# -- the product against a dense reference -----------------------------------

PARITY_ALGEBRAS = {
    "Q": TrivialAlgebra,
    "Q[x]": PolyAlgebra,
    "Q[x]/(x^2-1)": lambda: suite_algebras()["quotient"],
    "kernels": lambda: suite_algebras()["propagation"],
    "Q[x]/(x^3-x/2+1/3)": lambda: QuotientAlgebra(Poly([rat(1, 3), rat(-1, 2), 0, 1])),
    "diagonal kernels": lambda: PropagationAlgebra(line_space(4), diagonal=True),
}


def dense_product(a, b):
    """Textbook triple loop: every entry is zero + the sum over all k of
    a[i][k] * b[k][j], zero terms included; over Q[x]/(m) the sum of the
    representatives' Q[x] products is reduced mod m once, at the end."""
    n = a.n
    algebra = a.algebra
    zero = algebra.zero()
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = zero
            for k in range(n):
                acc = acc + a.rows[i][k] * b.rows[k][j]
            if isinstance(algebra, QuotientAlgebra):
                acc = _remainder(acc, algebra.modulus.nums)
            row.append(acc)
        rows.append(row)
    return FilteredMatrix(algebra, rows)


def assert_same_entries(got, want):
    assert got == want
    for grow, wrow in zip(got.rows, want.rows):
        assert [type(g) for g in grow] == [type(w) for w in wrow]


def sparse_matrix(sampler, algebra, n):
    """A sampled matrix with about half of its entries forced to zero."""
    zero = algebra.zero()
    return FilteredMatrix(
        algebra,
        tuple(
            tuple(
                sampler.payload(algebra) if sampler.rng.random() < 0.5 else zero
                for _ in range(n)
            )
            for _ in range(n)
        ),
    )


def parity_operands(sampler, algebra, n):
    perm = tuple(sampler.rng.sample(range(n), n))
    yield FilteredMatrix.zeros(algebra, n)
    yield FilteredMatrix.identity(algebra, n)
    yield permutation_cert(algebra, perm).m
    yield sampler.matrix(algebra, n)
    yield sparse_matrix(sampler, algebra, n)
    yield sampler.invertible(algebra, n, factors=4).m


@pytest.mark.parametrize("name", sorted(PARITY_ALGEBRAS))
@pytest.mark.parametrize("n", range(1, 7))
def test_product_matches_dense_reference(name, n):
    algebra = PARITY_ALGEBRAS[name]()
    sampler = Sampler(n)
    operands = list(parity_operands(sampler, algebra, n))
    for a in operands:
        for b in operands:
            assert_same_entries(a @ b, dense_product(a, b))


def test_zero_divisor_products_cancel_to_zero():
    algebra = suite_algebras()["quotient"]
    x_minus_1 = algebra.parse_payload(["-1", "1"])
    x_plus_1 = algebra.parse_payload(["1", "1"])
    assert not payload_product(algebra, x_minus_1, x_plus_1)
    for n in range(1, 5):
        a = FilteredMatrix(algebra, [[x_minus_1] * n] * n)
        b = FilteredMatrix(algebra, [[x_plus_1] * n] * n)
        product = a @ b
        assert_same_entries(product, dense_product(a, b))
        assert product.is_zero()
        assert all(p is algebra.zero() for row in product.rows for p in row)


def test_cancelling_sums_give_zero():
    algebra = TrivialAlgebra()
    a = FilteredMatrix(algebra, [[rat(1), rat(1)], [rat(2), rat(-2)]])
    b = FilteredMatrix(algebra, [[rat(1), rat(3)], [rat(-1), rat(3)]])
    product = a @ b
    assert_same_entries(product, dense_product(a, b))
    assert product.rows[0][0] == 0 and product.rows[1][1] == 0


def _kernels(algebra, grid):
    """A matrix of kernels from {(i, j): "p/q"} tables."""
    return FilteredMatrix(
        algebra, [[Kernel({k: rat(v) for k, v in t.items()}) for t in row] for row in grid]
    )


def test_kernel_products_decode_each_denominator_afresh():
    # Both products build the integer sum 2: over d = 1 it reads 2, over
    # d = 3 it reads 2/3, so a decoded value kept from the first product
    # would be wrong in the second.
    algebra = suite_algebras()["propagation"]
    one = {(0, 0): "1", (1, 2): "1"}
    two = {(0, 0): "2", (2, 3): "2"}
    third = {(0, 0): "1/3", (1, 2): "1/3"}
    for a, b in [(one, two), (third, two), (one, two)]:
        x, y = _kernels(algebra, [[a]]), _kernels(algebra, [[b]])
        product = x @ y
        assert_same_entries(product, dense_product(x, y))
        assert_canonical(product.rows[0][0], algebra)
    assert product.rows[0][0].table == {(0, 0): 2, (1, 3): 2}
    third_product = (_kernels(algebra, [[third]]) @ _kernels(algebra, [[two]])).rows[0][0]
    assert third_product.table == {(0, 0): rat(2, 3), (1, 3): rat(2, 3)}


def test_kernel_product_with_recurring_and_cancelling_sums():
    # lam * 1 blocks put the sum 2/3 * 3/5 on every point of both diagonal
    # entries; at point 0 of entry (0, 0) a second term cancels it.
    algebra = suite_algebras()["propagation"]
    lam = {(i, i): "2/3" for i in range(4)}
    mu = {(i, i): "3/5" for i in range(4)}
    a = _kernels(algebra, [[lam, {(0, 0): "1", (1, 2): "-1/5"}], [{}, lam]])
    b = _kernels(algebra, [[mu, {(2, 1): "1"}], [{(0, 0): "-2/5"}, mu]])
    product = a @ b
    assert_same_entries(product, dense_product(a, b))
    for row in product.rows:
        for p in row:
            assert_canonical(p, algebra)
    two_fifths = rat(2, 5)
    assert product.rows[0][0].table == {(1, 1): two_fifths, (2, 2): two_fifths,
                                        (3, 3): two_fifths}
    assert product.rows[1][1].table == {(i, i): two_fifths for i in range(4)}
    assert product.rows[0][1].table == {(0, 0): rat(3, 5), (1, 2): rat(-3, 25),
                                        (2, 1): rat(2, 3)}


# -- elementary factors as row and column operations ---------------------------
# Sampler.invertible applies an elementary factor E(a) as a column operation
# x -> x + y * a and a row operation x -> x + a * y on the touched entries;
# the carriers' _add_multiple builds both maps.


def assert_add_multiple(algebra, a, xs, ys):
    """_add_multiple(a) is x + y * a and _add_multiple(a, left=True) is
    x + a * y, in value, type and canonical form, for every x and nonzero y."""
    col = algebra._add_multiple(a)
    row = algebra._add_multiple(a, left=True)
    for x in xs:
        for y in ys:
            if not y:
                continue
            for got, want in ((col(x, y), x + payload_product(algebra, y, a)),
                              (row(x, y), x + payload_product(algebra, a, y))):
                assert got == want and type(got) is type(want)
                assert_canonical(got, algebra)


@pytest.mark.parametrize("name", sorted(PARITY_ALGEBRAS))
def test_elementary_row_and_column_operations(name):
    algebra = PARITY_ALGEBRAS[name]()
    sampler = Sampler(7)
    for _ in range(40):
        a = sampler.payload(algebra)
        entries = [p for row in sparse_matrix(sampler, algebra, 3).rows for p in row]
        assert_add_multiple(algebra, a, entries, entries)


@pytest.mark.parametrize("name", sorted(suite_algebras()))
def test_sampled_invertibles_verify(name):
    algebra = suite_algebras()[name]
    sampler = Sampler(11)
    for n in range(1, 6):
        for factors in (None, 4):
            for _ in range(8):
                sampler.invertible(algebra, n, factors=factors).verify()


# -- the product against the dense reference on generated operands -------------
# Operands draw their entries from a small pool of payloads, their negations
# and zero, so sums of x and -x cancel often; coefficients sit within 2 of
# 2**63 and 2**127 as well as small; quotient pools also take multiples of
# 1 + x and 1 - x, the zero divisors of Q[x]/(x^2-1).


def _near(power):
    return st.integers(-2, 2).map(lambda d: 2 ** power + d)


_numerators = st.one_of(
    st.integers(-3, 3),
    _near(63),
    _near(63).map(lambda v: -v),
    _near(127),
    _near(127).map(lambda v: -v),
)
_denominators = st.one_of(st.integers(1, 4), _near(63), _near(127))
_scalars = st.builds(rat, _numerators, _denominators)
_polys = st.lists(_scalars, max_size=4).map(Poly)


def _payloads(algebra):
    if isinstance(algebra, TrivialAlgebra):
        return _scalars
    if isinstance(algebra, PropagationAlgebra):
        points = range(algebra.space.size)
        keys = (
            st.sampled_from(points).map(lambda i: (i, i))
            if algebra.diagonal
            else st.tuples(st.sampled_from(points), st.sampled_from(points))
        )
        return st.dictionaries(keys, _scalars, max_size=4).map(Kernel)
    if isinstance(algebra, PolyAlgebra):
        return _polys
    m = algebra.modulus
    divisors = st.builds(
        lambda c, s: Poly([c, c * s]), _scalars.filter(bool), st.sampled_from((1, -1))
    )
    return st.one_of(_polys, divisors).map(lambda p: _remainder(p, m.nums))


@st.composite
def _operands(draw, algebra, payloads=None):
    n = draw(st.integers(0, 6))
    if payloads is None:
        payloads = _payloads(algebra)
    pool = draw(st.lists(payloads, min_size=1, max_size=3))
    pool += [-p for p in pool] + [algebra.zero()]
    entries = st.sampled_from(pool)
    a, b = (
        FilteredMatrix(algebra, [[draw(entries) for _ in range(n)] for _ in range(n)])
        for _ in range(2)
    )
    return a, b


def _coefficients(payload):
    if isinstance(payload, Poly):
        return payload.coeffs
    if isinstance(payload, Kernel):
        return tuple(payload.table.values())
    return (payload,)


def assert_canonical(payload, algebra):
    for c in _coefficients(payload):
        assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1
    if isinstance(algebra, QuotientAlgebra):
        assert payload.degree < algebra.modulus.degree
    if isinstance(payload, Poly):
        assert not payload.coeffs or payload.coeffs[-1]
        assert payload.den > 0 and gcd(payload.den, *payload.nums) == 1
        assert not payload.nums or payload.nums[-1]
    if isinstance(payload, Kernel):
        assert all(payload.table.values())
        assert algebra.accepts(payload)


@pytest.mark.parametrize("name", sorted(PARITY_ALGEBRAS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generated_products_match_dense_reference(name, data):
    algebra = PARITY_ALGEBRAS[name]()
    a, b = data.draw(_operands(algebra))
    got, want = a @ b, dense_product(a, b)
    assert_same_entries(got, want)
    for row in got.rows:
        for g in row:
            assert_canonical(g, algebra)



@pytest.mark.parametrize("name", sorted(PARITY_ALGEBRAS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_generated_row_and_column_operations(name, data):
    # large coefficients, cancelling pools and the zero divisors 1 +- x;
    # both sides compare reduced entries
    algebra = PARITY_ALGEBRAS[name]()
    m, _ = data.draw(_operands(algebra))
    entries = [p for row in m.rows for p in row]
    assert_add_multiple(algebra, data.draw(_payloads(algebra)), entries, entries)


@pytest.mark.parametrize("name", ["Q", "Q[x]", "Q[x]/(x^2-1)", "kernels"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sums_and_differences_match_entrywise_payloads(name, data):
    # The pools hold each payload's negation and the shared zero, so sums
    # and differences cancel often and many entries face the shared zero.
    algebra = PARITY_ALGEBRAS[name]()
    z = algebra.zero()
    a, b = data.draw(_operands(algebra))
    total, diff = a + b, a - b
    for got, op in ((total, add), (diff, sub)):
        want = [[op(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)]
        assert_same_entries(got, FilteredMatrix(algebra, want))
        for row in got.rows:
            for g in row:
                assert_canonical(g, algebra)
    for ra, rb, rs, rd in zip(a.rows, b.rows, total.rows, diff.rows):
        for x, y, s, d in zip(ra, rb, rs, rd):
            # An entry facing the shared zero is kept, or only negated.
            if x is z:
                assert s is y and d == -y
            if y is z:
                assert s is x and d is x
    assert (a - a).is_zero() and (a + -a).is_zero()


# -- Q zeros that are not the shared R0 -----------------------------------------
# The Q product selects entries by identity with R0, and the Q row and column
# operations return R0 for a sum that cancels.  A zero built any other way is
# kept as an entry and must only ever add 0.  (A spec's "0" parses to R0
# itself, so the zero parsed from text here is Fraction("0").)


def _stray_zeros():
    zeros = [rat(0, 3), rat("0"), rat(1, 3) - rat(1, 3), -R0]
    assert all(z == 0 and z is not R0 for z in zeros)
    return zeros


def test_q_products_with_zeros_that_are_not_r0():
    algebra = TrivialAlgebra()
    z3, parsed, cancelled, negated = _stray_zeros()
    a = FilteredMatrix(algebra, [
        [z3, rat(2, 3), parsed],
        [cancelled, negated, z3],
        [rat(-5, 7), R0, cancelled],
    ])
    b = FilteredMatrix(algebra, [
        [parsed, rat(7, 5), R0],
        [rat(3, 2), z3, negated],
        [cancelled, cancelled, rat(1, 9)],
    ])
    sampler = Sampler(3)
    operands = [a, b, FilteredMatrix(algebra, [[z3] * 3] * 3), sampler.matrix(algebra, 3),
                sampler.invertible(algebra, 3, factors=4).m]
    for x in operands:
        for y in operands:
            product = x @ y
            assert_same_entries(product, dense_product(x, y))
            for row in product.rows:
                for v in row:
                    assert_canonical(v, algebra)
                    assert v or v is R0
    assert (a @ b).rows[1] == (R0, R0, R0)


def test_q_row_and_column_operations_cancelling_to_zero():
    algebra = TrivialAlgebra()
    z3, parsed, _, _ = _stray_zeros()
    three = rat(3)
    # -6 + 2 * 3 and 2 + (-2/3) * 3 cancel to R0 itself; a stray zero x
    # gives y * 3 alone
    entries = [rat(2), rat(-6), z3, rat(-2, 3), rat(1, 4), rat(1, 5), parsed, rat(4, 3)]
    assert_add_multiple(algebra, three, entries, entries)
    for left in (False, True):
        f = algebra._add_multiple(three, left=left)
        assert f(rat(-6), rat(2)) is R0 and f(rat(2), rat(-2, 3)) is R0
        assert f(z3, rat(1, 5)) == rat(3, 5) and f(parsed, rat(1, 4)) == rat(3, 4)
        # a zero multiple leaves every entry as it is
        for zero in (R0, z3):
            keep = algebra._add_multiple(zero, left=left)
            assert all(keep(x, y) is x for x in entries for y in entries if y)


def test_sampled_q_zeros_are_r0():
    sampler = Sampler(0)
    draws = [sampler.rational() for _ in range(500)]
    assert any(v is R0 for v in draws)
    assert all(v or v is R0 for v in draws)


# -- reused entries and the fraction-free quotient image -------------------------
# Q[x] and Q[x]/(m) entries hold their integer form, which products, shape
# operations and the quotient image share by reference.  No image may differ
# from the per-entry payload map, and the shared entries must survive being
# read again.

MODULI = {
    "x^2-1": Poly([-1, 0, 1]),
    "x^3-x/2+1/3": Poly([rat(1, 3), rat(-1, 2), 0, 1]),
}


def _hom_entries(m):
    """Polynomials of degree up to 6, so most need reducing, and p + q * m,
    whose part above deg m cancels in the reduction (all of it when p = 0)."""
    return st.one_of(
        st.lists(_scalars, max_size=7).map(Poly),
        st.builds(lambda p, q: p + q * m, _polys, _polys),
    )


def payload_image(h, m):
    """The per-entry reference: h.apply_payload on every entry."""
    return FilteredMatrix(h.target, [[h.apply_payload(p) for p in row] for row in m.rows])


@pytest.mark.parametrize("modulus", sorted(MODULI))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_quotient_image_matches_payload_map(modulus, data):
    m = MODULI[modulus]
    h = QuotientHom(PolyAlgebra(), QuotientAlgebra(m))
    a, b = data.draw(_operands(PolyAlgebra(), _hom_entries(m)))
    # A fresh operand, one that was read as a product operand, and a product.
    for operand in (FilteredMatrix(a.algebra, a.rows), a, a @ b):
        got, want = apply_hom_matrix(h, operand), payload_image(h, operand)
        assert_same_entries(got, want)
        for row in got.rows:
            for p in row:
                assert_canonical(p, h.target)


@pytest.mark.parametrize("modulus", sorted(MODULI))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_carried_forms_survive_reuse(modulus, data):
    m = MODULI[modulus]
    h = QuotientHom(PolyAlgebra(), QuotientAlgebra(m))
    a, b = data.draw(_operands(PolyAlgebra(), _hom_entries(m)))
    fresh = FilteredMatrix(a.algebra, a.rows)
    ab_want = dense_product(a, b)
    image_want = payload_image(h, fresh)
    ab = a @ b
    for _ in range(2):
        assert_same_entries(apply_hom_matrix(h, a), image_want)
        assert_same_entries(a @ b, ab_want)
        assert_same_entries(apply_hom_matrix(h, ab), payload_image(h, ab_want))
        assert_same_entries(ab @ a, dense_product(ab_want, fresh))
        image = apply_hom_matrix(h, a)
        assert_same_entries(image @ image, dense_product(image_want, image_want))


# -- equality against entrywise Fraction equality --------------------------------
# Q-matrix and Kernel equality compare Fraction slots.  Each operand builds
# its own Fraction objects, so equal values sit in distinct objects; a zero
# takes any of the forms below, of which only R0 is the shared zero; and a
# changed entry keeps its numerator over another denominator, or draws a new
# value.

_ZERO_FORMS = (lambda: R0, lambda: -R0, lambda: rat(0), lambda: parse_rational("0"),
               lambda: Fraction("0"))
_values = st.tuples(st.integers(-3, 3), st.integers(1, 4))


def _changed(data, value):
    num, den = value
    how = data.draw(st.sampled_from(("keep", "denominator", "redraw")))
    if how == "denominator":
        return num, data.draw(st.integers(1, 4))
    return data.draw(_values) if how == "redraw" else value


def _fresh(data, value):
    """A new Fraction object for (num, den), or a drawn zero form at 0."""
    num, den = value
    return Fraction(num, den) if num else data.draw(st.sampled_from(_ZERO_FORMS))()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_q_matrix_equality_is_entrywise_fraction_equality(data):
    q = TrivialAlgebra()
    n = data.draw(st.integers(1, 4))
    left = [[data.draw(_values) for _ in range(n)] for _ in range(n)]
    right = [[_changed(data, v) for v in row] for row in left]
    a, b = (FilteredMatrix(q, [[_fresh(data, v) for v in row] for row in src])
            for src in (left, right))
    pairs = [((i, j), x, y) for i, (ra, rb) in enumerate(zip(a.rows, b.rows))
             for j, (x, y) in enumerate(zip(ra, rb))]
    differing = [(position, x - y) for position, x, y in pairs if not Fraction.__eq__(x, y)]
    assert (a == b) is (not differing)
    assert (a != b) is bool(differing)
    assert a.first_mismatch(b) == (differing[0] if differing else None)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_kernel_equality_is_entrywise_fraction_equality(data):
    keys = st.tuples(st.integers(0, 3), st.integers(0, 3))
    left = data.draw(st.dictionaries(keys, _values, max_size=5))
    right = {k: _changed(data, v) for k, v in left.items()}
    if right and data.draw(st.booleans()):
        # Move one entry to a key outside the table: the same size, other keys.
        old = data.draw(st.sampled_from(sorted(right)))
        new = data.draw(keys.filter(lambda k: k not in right))
        right[new] = right.pop(old)
    a, b = (Kernel({k: _fresh(data, v) for k, v in src.items()}) for src in (left, right))
    want_a, want_b = ({k: Fraction(*v) for k, v in src.items() if v[0]} for src in (left, right))
    assert a.table == want_a and b.table == want_b
    assert (a == b) is (want_a == want_b)
    assert (-a == -b) is (want_a == want_b)
    assert (-a).table == {k: -v for k, v in want_a.items()}
    m = FilteredMatrix(PropagationAlgebra(line_space(4, 4)), ((a,),))
    assert (m == FilteredMatrix(m.algebra, ((b,),))) is (want_a == want_b)
