import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relbetti.fieldlin import (
    Matrix,
    ComplexInvalid,
    NoSolution,
    check_modulus,
    column_basis,
    complement_coords,
    free_rows,
    homology_dims,
    hstack,
    kernel_basis,
    kron,
    pivot_rows,
    quotient,
    rank,
    rref,
    solve,
)
from conftest import (
    oracle_complement_coords,
    oracle_kernel_basis,
    oracle_kron,
    oracle_quotient,
    oracle_rref,
    oracle_solve,
    sympy_rank,
)


def M(entries, p=2):
    return Matrix(entries, p)


class TestFieldConfig:
    """The modulus validator behind --field, Matrix and the modules."""

    def test_default_is_two(self):
        # the CLI's default field; a numpy integer comes back as an int
        assert check_modulus(np.int64(2)) == 2
        assert type(check_modulus(np.int64(2))) is int

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            check_modulus(6)

    def test_rejects_huge(self):
        with pytest.raises(ValueError):
            check_modulus((1 << 31) + 11)

    def test_accepts_odd_prime(self):
        assert check_modulus(5) == 5

    @pytest.mark.parametrize("n", [9, 25, 49, 46337 * 46337])
    def test_rejects_odd_prime_square(self, n):
        # the trial division must reach d * d == n; 46337^2 < 2^31 is the
        # largest such square a modulus could be
        with pytest.raises(ValueError, match="prime"):
            check_modulus(n)


class TestModulus:
    def test_matrix_rejects_composite(self):
        with pytest.raises(ValueError, match="prime"):
            Matrix([[1]], 4)

    @pytest.mark.parametrize("p", [1, -3, 1 << 31, 5.0, "5", None])
    def test_matrix_rejects_non_modulus(self, p):
        with pytest.raises(ValueError):
            Matrix([[1]], p)

    def test_accepts_largest_prime_below_limit(self):
        assert Matrix([[-1]], (1 << 31) - 1).tolist() == [[(1 << 31) - 2]]


class TestMatrixBasics:
    def test_entries_reduced_mod_p(self):
        m = M([[7, -1]], p=5)
        assert m.tolist() == [[2, 4]]

    def test_immutable(self):
        m = M([[1, 0]])
        with pytest.raises(ValueError):
            m.a[0, 0] = 0

    def test_matmul_mod(self):
        a = M([[1, 1], [0, 1]], p=2)
        b = M([[1], [1]], p=2)
        assert (a @ b).tolist() == [[0], [1]]

    def test_matmul_p_mismatch_rejected(self):
        with pytest.raises(ValueError):
            M([[1]], 2) @ M([[1]], 3)

    def test_zero_dim_shapes(self):
        z = Matrix.zeros(3, 0, 2)
        assert z.rows == 3 and z.cols == 0
        assert (z.transpose() @ z).rows == 0

    @pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0)])
    def test_empty_shapes_are_zero(self, rows, cols):
        assert Matrix.zeros(rows, cols, 2).is_zero()
        assert Matrix(np.ones((rows, cols), dtype=np.int64), 3).is_zero()

    def test_is_zero_sees_one_entry(self):
        a = np.zeros((2, 3), dtype=np.int64)
        a[1, 2] = 5
        assert Matrix(a, 5).is_zero()
        assert not Matrix(a, 7).is_zero()

    def test_large_p_matmul_exact(self):
        # inner dim * (p-1)^2 overflows int64; result must still be exact
        p = (1 << 31) - 1  # Mersenne prime
        n = 4
        a = Matrix(np.full((1, n), p - 1), p)
        b = Matrix(np.full((n, 1), p - 1), p)
        expect = (n * (p - 1) * (p - 1)) % p
        assert (a @ b).tolist() == [[expect]]


class TestRank:
    def test_identity(self):
        assert rank(Matrix.identity(2, 2)) == 2

    def test_zero(self):
        assert rank(Matrix.zeros(3, 4, 2)) == 0

    def test_ones_2x2_gf2(self):
        assert rank(M([[1, 1], [1, 1]])) == 1

    def test_char_matters(self):
        # [[1,1],[1,-1]] is invertible over GF(5) but rank 1 over GF(2)
        assert rank(M([[1, 1], [1, 1]], p=5)) == 1
        assert rank(M([[1, 1], [1, 4]], p=5)) == 2
        assert rank(M([[1, 1], [1, 1]], p=2)) == 1

    @pytest.mark.parametrize("p", [2, 5])
    def test_against_sympy(self, p):
        rng = np.random.default_rng(100 + p)
        for _ in range(40):
            r, c = rng.integers(0, 6, size=2)
            e = rng.integers(0, p, size=(r, c))
            assert rank(Matrix(e, p)) == sympy_rank(e, p)


class TestRref:
    def test_pivots_leftmost(self):
        m = M([[0, 1, 1], [1, 1, 0]])
        r, pivots = rref(m)
        assert pivots == (0, 1)
        assert r.tolist() == [[1, 0, 1], [0, 1, 1]]

    def test_rref_normalized_gf5(self):
        r, pivots = rref(M([[2, 1]], p=5))
        # leading entry scaled to 1: 2^{-1} = 3 mod 5
        assert r.tolist() == [[1, 3]]
        assert pivots == (0,)


class TestKernel:
    def test_identity_trivial_kernel(self):
        k = kernel_basis(Matrix.identity(2, 2))
        assert k.rows == 2 and k.cols == 0

    def test_zero_matrix_full_kernel(self):
        k = kernel_basis(Matrix.zeros(2, 3, 2))
        assert k.cols == 3
        assert rank(k) == 3

    def test_sum_constraint_gf2(self):
        k = kernel_basis(M([[1, 1]]))
        assert k.tolist() == [[1], [1]]

    def test_member_of_kernel(self):
        m = M([[1, 2, 3], [0, 1, 4]], p=5)
        k = kernel_basis(m)
        assert (m @ k).is_zero()
        assert k.cols == 3 - rank(m)

    @pytest.mark.parametrize("p", [2, 5])
    def test_rank_nullity_random(self, p):
        rng = np.random.default_rng(7)
        for _ in range(30):
            r, c = rng.integers(0, 6, size=2)
            m = Matrix(rng.integers(0, p, size=(r, c)), p)
            k = kernel_basis(m)
            assert k.cols + rank(m) == m.cols
            assert (m @ k).is_zero()
            assert rank(k) == k.cols


class TestSolve:
    def test_identity(self):
        b = M([[1], [0]])
        assert solve(Matrix.identity(2, 2), b).tolist() == [[1], [0]]

    def test_free_variable_zeroed(self):
        x = solve(M([[1, 1]]), M([[1]]))
        assert x.tolist() == [[1], [0]]

    def test_no_solution(self):
        with pytest.raises(NoSolution):
            solve(Matrix.zeros(2, 2, 2), M([[1], [0]]))

    def test_multicolumn(self):
        m = M([[1, 0], [1, 1]], p=5)
        b = M([[2, 0], [3, 4]], p=5)
        x = solve(m, b)
        assert (m @ x) == b

    def test_roundtrip_random(self):
        rng = np.random.default_rng(11)
        for p in (2, 5):
            for _ in range(30):
                r, c, k = rng.integers(0, 5, size=3)
                m = Matrix(rng.integers(0, p, size=(r, c)), p)
                x0 = Matrix(rng.integers(0, p, size=(c, k)), p)
                b = m @ x0
                x = solve(m, b)
                assert (m @ x) == b


class TestHomologyDims:
    def test_single_space(self):
        assert homology_dims([1], [], p=2) == [1]

    def test_identity_acyclic(self):
        assert homology_dims([1, 1], [Matrix.identity(1, 2)], p=2) == [0, 0]

    @pytest.mark.parametrize("p", [2, 5])
    def test_full_triangle_augmented(self, p):
        # augmented simplicial chain complex of a 2-simplex:
        # K <- K^3 (vertices) <- K^3 (edges 01,02,12) <- K (triangle)
        d1 = Matrix([[1, 1, 1]], p)
        d2 = Matrix([[-1, -1, 0], [1, 0, -1], [0, 1, 1]], p)
        d3 = Matrix([[1], [-1], [1]], p)
        assert homology_dims([1, 3, 3, 1], [d1, d2, d3], p=p) == [0, 0, 0, 0]

    def test_rejects_nonzero_composite(self):
        d1 = Matrix.identity(1, 2)
        d2 = Matrix.identity(1, 2)
        with pytest.raises(ComplexInvalid):
            homology_dims([1, 1, 1], [d1, d2], p=2)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ComplexInvalid):
            homology_dims([1, 2], [Matrix.identity(1, 2)], p=2)

    def test_against_sympy_ranks(self):
        rng = np.random.default_rng(13)
        for p in (2, 5):
            for _ in range(20):
                d0, d1 = rng.integers(1, 5, size=2)
                a = Matrix(rng.integers(0, p, size=(d0, d1)), p)
                k = kernel_basis(a)
                d2 = k.cols
                if d2 == 0:
                    continue
                pick = Matrix(rng.integers(0, p, size=(d2, 3)), p)
                b = k @ pick
                dims = [int(d0), int(d1), 3]
                got = homology_dims(dims, [a, b], p=p)
                ra = sympy_rank(a.a, p)
                rb = sympy_rank(b.a, p)
                expect = [d0 - ra, d1 - ra - rb, 3 - rb]
                assert got == expect


class TestStack:
    def test_hstack_rejects_mixed_moduli(self):
        with pytest.raises(ValueError, match="modulus mismatch"):
            hstack([M([[4]], 5), M([[2]], 3)])

    def test_stacks_keep_entries(self):
        a, b = M([[4]], 5), M([[2]], 5)
        assert hstack([a, b]).tolist() == [[4, 2]]


class TestKron:
    def test_kron_identity(self):
        a = M([[1, 1], [0, 1]])
        assert kron(Matrix.identity(1, 2), a) == a

    def test_kron_shape(self):
        a = Matrix.zeros(2, 3, 5)
        b = Matrix.zeros(4, 1, 5)
        k = kron(a, b)
        assert (k.rows, k.cols) == (8, 3)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 4),
    st.integers(0, 4),
    st.sampled_from([2, 5]),
    st.integers(0, 2**32 - 1),
)
def test_rank_transpose_property(r, c, p, seed):
    rng = np.random.default_rng(seed)
    m = Matrix(rng.integers(0, p, size=(r, c)), p)
    assert rank(m) == rank(m.transpose())


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 4),
    st.integers(0, 4),
    st.sampled_from([2, 5]),
    st.integers(0, 2**32 - 1),
)
def test_euler_characteristic_property(d0, d1, p, seed):
    rng = np.random.default_rng(seed)
    a = Matrix(rng.integers(0, p, size=(d0, d1)), p)
    k = kernel_basis(a)
    pick = Matrix(rng.integers(0, p, size=(k.cols, 2)), p)
    b = k @ pick
    dims = [d0, d1, 2]
    hs = homology_dims(dims, [a, b], p=p)
    euler_h = sum((-1) ** i * h for i, h in enumerate(hs))
    euler_d = sum((-1) ** i * d for i, d in enumerate(dims))
    assert euler_h == euler_d
    assert all(h >= 0 for h in hs)


# -- the Python-row kernel against the row-at-a-time numpy oracle -------

ORACLE_PRIMES = [2, 3, 5, (1 << 31) - 1]


@st.composite
def residue_arrays(draw, p, rows=None):
    """Entries mod p, biased towards 0, 1 and p - 1; empty shapes allowed."""
    if rows is None:
        rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6))
    entry = st.sampled_from([0, 0, 1, p - 1]) | st.integers(0, p - 1)
    flat = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
    return np.array(flat, dtype=np.int64).reshape(rows, cols)


def assert_well_formed(m, p):
    assert m.p == p
    assert m.a.dtype == np.int64 and m.a.ndim == 2
    assert not m.a.flags.writeable
    assert ((m.a >= 0) & (m.a < p)).all()


def assert_same(m, expect, p):
    assert_well_formed(m, p)
    assert m.a.shape == expect.shape
    assert m.tolist() == expect.tolist()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_kernel_bit_identical_to_oracle(data):
    p = data.draw(st.sampled_from(ORACLE_PRIMES))
    a = data.draw(residue_arrays(p))
    b = data.draw(residue_arrays(p, rows=a.shape[0]))
    c = data.draw(residue_arrays(p))
    m, mb, mc = Matrix(a, p), Matrix(b, p), Matrix(c, p)

    r, pivots = rref(m)
    expect_r, expect_pivots = oracle_rref(a, p)
    assert pivots == expect_pivots
    assert_same(r, expect_r, p)

    assert_same(kernel_basis(m), oracle_kernel_basis(a, p), p)

    expect_x = oracle_solve(a, b, p)
    if isinstance(expect_x, str):
        with pytest.raises(NoSolution) as err:
            solve(m, mb)
        assert str(err.value) == expect_x
    else:
        assert_same(solve(m, mb), expect_x, p)

    assert_same(kron(m, mc), oracle_kron(a, c, p), p)


def seeded_residues(rng, rows, cols, p):
    """Entries mod p: uniform, mostly 0, 1 and p - 1, or of rank at most 2."""
    kind = rng.integers(3)
    if kind == 0:
        return rng.integers(0, p, size=(rows, cols))
    if kind == 1:
        picks = np.array([0, 0, 0, 1, p - 1], dtype=np.int64)
        a = picks[rng.integers(0, 5, size=(rows, cols))]
        odd = rng.random((rows, cols)) < 0.1
        a[odd] = rng.integers(0, p, size=int(odd.sum()))
        return a
    u = rng.integers(0, p, size=(rows, 2)).astype(object)
    v = rng.integers(0, p, size=(2, cols)).astype(object)
    return ((u @ v) % p).astype(np.int64)


@pytest.mark.parametrize("p", ORACLE_PRIMES)
@pytest.mark.parametrize("shape", ["wide", "square"])
def test_larger_kernels_bit_identical_to_oracle(p, shape):
    # beyond residue_arrays' 6x6: 1-3 rows by up to 64 columns, as the
    # Hom solves give, and squares up to 12x12
    rng = np.random.default_rng([p, int(shape == "wide")])
    for _ in range(100):
        if shape == "wide":
            rows, cols = int(rng.integers(1, 4)), int(rng.integers(1, 65))
        else:
            rows = cols = int(rng.integers(7, 13))
        a = seeded_residues(rng, rows, cols, p)
        b = seeded_residues(rng, rows, int(rng.integers(1, 3)), p)
        if rng.integers(2):
            x = rng.integers(0, p, size=(cols, b.shape[1])).astype(object)
            b = ((a.astype(object) @ x) % p).astype(np.int64)
        m = Matrix(a, p)

        r, pivots = rref(m)
        expect_r, expect_pivots = oracle_rref(a, p)
        assert pivots == expect_pivots
        assert_same(r, expect_r, p)

        assert_same(kernel_basis(m), oracle_kernel_basis(a, p), p)

        expect_x = oracle_solve(a, b, p)
        if isinstance(expect_x, str):
            with pytest.raises(NoSolution) as err:
                solve(m, Matrix(b, p))
            assert str(err.value) == expect_x
        else:
            assert_same(solve(m, Matrix(b, p)), expect_x, p)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_kernel_basis_is_identity_at_free_columns(data):
    # homalg.kernel reads a kernel vector's coordinates at these rows
    p = data.draw(st.sampled_from(ORACLE_PRIMES))
    m = Matrix(data.draw(residue_arrays(p)), p)
    _, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    k = kernel_basis(m).a
    assert k.shape == (m.cols, len(free))
    for j, f in enumerate(free):
        assert np.flatnonzero(k[:, j])[-1] == f
        assert k[f, j] == 1
    assert np.array_equal(k[free], np.eye(len(free), dtype=np.int64))
    if free:
        assert free_rows(kernel_basis(m)).tolist() == free


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_column_basis_is_identity_at_pivot_rows(data):
    # homalg.image reads a vector's coordinates in the span at these rows
    p = data.draw(st.sampled_from(ORACLE_PRIMES))
    a = data.draw(residue_arrays(p))
    r, pivots = oracle_rref(a.T, p)
    basis = column_basis(Matrix(a, p))
    assert_same(basis, r[: len(pivots)].T, p)
    if pivots:
        at = pivot_rows(basis)
        assert at.tolist() == list(pivots)
        assert np.array_equal(basis.a[at], np.eye(len(pivots), dtype=np.int64))
        for j, q in enumerate(pivots):
            assert np.flatnonzero(basis.a[:, j])[0] == q
    both = np.concatenate([a, basis.a], axis=1)
    assert sympy_rank(both, p) == sympy_rank(a, p) == basis.cols


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_quotient_matches_inverted_route(data):
    p = data.draw(st.sampled_from(ORACLE_PRIMES))
    m = Matrix(data.draw(residue_arrays(p)), p)
    basis = column_basis(m)
    want, coords = oracle_quotient(m)
    assert complement_coords(basis) == oracle_complement_coords(m) == coords
    proj, got = quotient(basis)
    assert got == coords
    assert_same(proj, want.a, p)
    assert (proj @ basis).is_zero()


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_empty_shapes(shape):
    rows, cols = shape
    m = Matrix.zeros(rows, cols, 5)
    r, pivots = rref(m)
    assert pivots == ()
    assert_same(r, np.zeros(shape, dtype=np.int64), 5)
    assert rank(m) == 0
    assert_same(kernel_basis(m), np.eye(cols, dtype=np.int64), 5)
    assert complement_coords(m) == list(range(rows))
    basis = column_basis(m)
    assert_same(basis, np.zeros((rows, 0), dtype=np.int64), 5)
    proj, coords = quotient(basis)
    assert coords == list(range(rows))
    assert_same(proj, np.eye(rows, dtype=np.int64), 5)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_structural_results_well_formed(data):
    p = data.draw(st.sampled_from(ORACLE_PRIMES))
    a = data.draw(residue_arrays(p))
    b = data.draw(residue_arrays(p, rows=a.shape[1]))
    m, mb = Matrix(a, p), Matrix(b, p)
    assert_same(m.transpose(), a.T, p)
    product = [
        [sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in b.T]
        for row in a
    ]
    assert_same(m @ mb, np.array(product, dtype=np.int64).reshape(
        a.shape[0], b.shape[1]), p)
    cols = list(range(a.shape[1]))[::-1]
    assert_same(m.take_cols(cols), a[:, cols], p)
    for j in range(a.shape[1]):
        assert_same(m.col(j), a[:, j:j + 1], p)
    assert_same(hstack([m, m]), np.concatenate([a, a], axis=1), p)
