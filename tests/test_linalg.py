"""Exact linear algebra over prime fields."""

from itertools import combinations, permutations
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdmm.linalg import (
    _CHUNK,
    _FIRST_CHUNK,
    _MAX_P,
    SingularMatrixError,
    SubmatrixCheck,
    _combination_indices,
    _residues,
    _singular,
    all_txt_submatrices_invertible,
    is_invertible,
    matmul_mod,
    solve,
    submatrix_checks,
    vandermonde,
)

# The largest prime whose residue products fit int64: isqrt(2^63 - 1) - 6.
P_NEAR_LIMIT = 3_037_000_493


def permanent_style_det(m, p):
    """Reference determinant by permutation expansion."""
    t = m.shape[0]
    total = 0
    for perm in permutations(range(t)):
        inversions = sum(
            1 for i in range(t) for j in range(i + 1, t) if perm[i] > perm[j]
        )
        prod = 1
        for i, j in enumerate(perm):
            prod *= int(m[i, j])
        total += (-1) ** inversions * prod
    return total % p


def planted_dependencies(n, t, p, dependent_rows, seed):
    """Random n x t matrix in which each listed row set is linearly dependent:
    its last row is a random combination of the others; entries in [0, p)."""
    rng = np.random.default_rng(seed)
    data = rng.integers(1, p, (n, t))
    for rows in dependent_rows:
        coeffs = rng.integers(1, p, len(rows) - 1)
        data[rows[-1]] = coeffs @ data[list(rows[:-1])] % p
    return data


def det_mod(m, p):
    """Reference determinant mod p by Gaussian elimination on Python ints."""
    a = [[int(v) % p for v in row] for row in m]
    t, det = len(a), 1
    for k in range(t):
        pivot = next((i for i in range(k, t) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det = det * a[k][k] % p
        inv = pow(a[k][k], p - 2, p)
        for i in range(k + 1, t):
            f = a[i][k] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[k])]
    return det % p


def singular_positions(m, subsets, p):
    """1-based positions of the singular t x t submatrices mod p, by determinant."""
    return [i + 1 for i, rows in enumerate(subsets) if det_mod(m[list(rows)], p) == 0]


# Each public function on a matrix over F_p, as call(input, p), with an input
# holding unreduced and negative entries mod 11 and an input of the wrong
# shape. In the all_txt and submatrix_checks inputs a row is 11, which is
# singular only once it is reduced.
ENTRIES = {
    "vandermonde": (lambda x, p: vandermonde(x, (0, 1, 3), p), [-1, 12, 25], [[1, 2], [3, 4]]),
    "is_invertible": (is_invertible, [[12, -1], [22, 5]], np.arange(4)),
    "solve": (lambda m, p: solve(m, [[-6], [23]], p), [[12, -1], [22, 5]], np.arange(4)),
    "all_txt_submatrices_invertible": (
        lambda m, p: all_txt_submatrices_invertible(m, 1, p),
        [[3], [11]],
        np.arange(4),
    ),
    "submatrix_checks": (
        lambda m, p: submatrix_checks(m, 1, p),
        [[[3], [11]], [[-2], [4]]],
        [[3], [11]],
    ),
}


def plain(result):
    return result.tolist() if isinstance(result, np.ndarray) else result


class TestEntryChecks:
    @pytest.mark.parametrize("name", ENTRIES)
    def test_unreduced_entries_are_reduced_mod_p(self, name):
        call, x, _ = ENTRIES[name]
        x = np.array(x)
        before = x.copy()
        assert plain(call(x, 11)) == plain(call(before % 11, 11))
        assert np.array_equal(x, before)  # reduced in a copy

    @pytest.mark.parametrize("name", ENTRIES)
    def test_refuses_the_wrong_shape(self, name):
        call, _, wrong = ENTRIES[name]
        with pytest.raises(ValueError):
            call(wrong, 11)

    @pytest.mark.parametrize("name", ENTRIES)
    @pytest.mark.parametrize("p", [_MAX_P + 2, 4_000_000_007, 2**62 + 1])
    def test_refuses_fields_past_int64_products(self, name, p):
        # Over such a p a product of two residues overflows int64: a singular
        # [[a, b], [c*a, c*b]] mod 4,000,000,007 once read as invertible.
        call, x, _ = ENTRIES[name]
        with pytest.raises(ValueError, match="exceeds"):
            call(np.array(x) % 11, p)


# Primes on both sides of each path of matmul_mod, with the number k of inner
# terms per chunk: (p-1)^2 * inner + p < 2^24 for float32 in one chunk,
# (p-1)^2 * k + p < 2^53 for float64, < 2^63 for int64. The inner
# dimension here runs from 1 to 24.
KERNEL_PRIMES = [
    2,
    829,  # the largest prime on float32 for every inner dimension here
    839,  # float64 from inner dimension 24 on
    1091,  # float32 up to inner dimension 14, then float64 in one product
    4093,  # the largest prime on float32, at inner dimension 1 only
    4099,  # the smallest prime never on float32
    33_554_393,  # float64 chunks, k = 8
    67_108_859,  # float64 chunks, k = 2
    94_906_249,  # the largest prime with a float64 chunk, k = 1
    94_906_297,  # the smallest prime on int64 chunks, k = 1023
    1_000_000_021,  # int64, k = 9
    2_147_483_647,  # int64, k = 2
    P_NEAR_LIMIT,  # int64, k = 1
]


@st.composite
def kernel_operands(draw):
    """(a, b, p): random shapes and primes, entries random, all p - 1 (the
    largest partial sums), unreduced in [-10p, 10p], or mixed: one operand
    random and the other either unreduced or random but for one entry p or
    -1."""
    p = draw(st.sampled_from(KERNEL_PRIMES))
    m, inner, n = draw(st.integers(1, 5)), draw(st.integers(1, 24)), draw(st.integers(1, 5))
    fill = draw(st.sampled_from(["random", "max", "unreduced", "mixed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if fill == "max":
        return np.full((m, inner), p - 1), np.full((inner, n), p - 1), p
    lo, hi = (-10 * p, 10 * p + 1) if fill == "unreduced" else (0, p)
    a, b = rng.integers(lo, hi, (m, inner)), rng.integers(lo, hi, (inner, n))
    if fill == "mixed":
        side = (a, b)[draw(st.integers(0, 1))]
        stray = draw(st.sampled_from(["unreduced", p, -1]))
        if stray == "unreduced":
            side[...] = rng.integers(-10 * p, 10 * p + 1, side.shape)
        else:
            side[tuple(rng.integers(0, side.shape))] = stray
    return a, b, p


class TestMatmulMod:
    @settings(max_examples=200, deadline=None)
    @given(kernel_operands())
    def test_matches_python_int_reference(self, operands):
        a, b, p = operands
        a_before, b_before = a.copy(), b.copy()
        expected = (a.astype(object) @ b.astype(object)) % p
        out = matmul_mod(a, b, p)
        assert out.dtype == np.int64
        assert out.tolist() == expected.tolist()
        # The inputs are read, never written, and the output is a new array.
        assert np.array_equal(a, a_before) and np.array_equal(b, b_before)
        assert not np.shares_memory(out, a) and not np.shares_memory(out, b)

    @pytest.mark.parametrize("stray", [-1, 1091, 2 * 1091, -5 * 1091 - 3])
    def test_one_out_of_range_entry_reduces_a_copy(self, stray):
        # The product would often stay exact with the stray entry left as it
        # is, so check the operand that the kernel multiplies.
        p = 1091
        x = np.random.default_rng(2).integers(0, p, (6, 9))
        x[3, 4] = stray
        before = x.copy()
        reduced = _residues(x, p)
        assert reduced.tolist() == (before % p).tolist()
        assert reduced is not x and np.array_equal(x, before)

    @pytest.mark.parametrize("p", [2, 1091, P_NEAR_LIMIT])
    def test_residues_are_used_as_they_are(self, p):
        x = np.random.default_rng(6).integers(0, p, (4, 7))
        x[0, 0], x[-1, -1] = 0, p - 1
        assert _residues(x, p) is x
        assert _residues(np.zeros((0, 3), dtype=np.int64), p).shape == (0, 3)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(_MAX_P + 1, 2**64))
    def test_refuses_fields_past_int64_products(self, p):
        with pytest.raises(ValueError, match="exceeds"):
            matmul_mod(np.eye(2, dtype=np.int64), np.eye(2, dtype=np.int64), p)

    def test_slabs_and_chunks_cover_every_entry(self):
        # More output elements than one slab, on a chunked int64 path.
        p = 1_000_000_021
        rng = np.random.default_rng(4)
        a = rng.integers(0, p, (40, 20))
        b = rng.integers(0, p, (20, 60_000))
        expected = (a.astype(object) @ b[:, ::97].astype(object)) % p
        assert matmul_mod(a, b, p)[:, ::97].tolist() == expected.tolist()




def targeted_sums(p: int, inner: int, sums) -> tuple[np.ndarray, np.ndarray]:
    """Operands a (2 x inner) and b (inner x len(sums)+1) of residues whose
    product row 0 holds each of sums, and whose last column in row 1 holds
    the largest sum of all, (p-1)^2 * inner. Row 0 of a is p-1 but for a
    last 1, so column j of b gives sums[j] = (p-1) * q + r as q spread over
    its first inner-1 entries, up to p-1 each, and r last."""
    a = np.full((2, inner), p - 1, dtype=np.int64)
    a[0, -1] = 1
    cols = []
    for total in sums:
        q, r = divmod(total, p - 1)
        assert q <= (p - 1) * (inner - 1)
        cols.append([min(p - 1, max(0, q - (p - 1) * j)) for j in range(inner - 1)] + [r])
    cols.append([p - 1] * inner)
    return a, np.array(cols, dtype=np.int64).T


class TestReduction:
    """Sums on both sides of multiples of p, up to the largest each float
    type allows, on one tile and on tiles of five entries."""

    @pytest.mark.parametrize(
        "p,inner,dtype",
        [
            (829, 24, "float32"),
            (2_897, 2, "float32"),  # (p-1)^2 * 2 = 16,773,632, near 2^24
            # At these two, y * fl(1/p) falls below k for some y = k*p, so
            # floor(y * (1/p)) in place of floor(y / p) would leave r = p.
            (307, 24, "float32"),
            (33_554_291, 8, "float64"),
            (1_091, 15, "float64"),
            (33_554_393, 8, "float64"),  # (p-1)^2 * 8 + p, just below 2^53
            (67_108_859, 4, "float64"),  # two chunks of k = 2
            (94_906_297, 3, "int64"),
        ],
    )
    @pytest.mark.parametrize("tile", [None, 5])
    def test_sums_at_multiples_of_p(self, p, inner, dtype, tile, monkeypatch):
        sq = (p - 1) ** 2
        single = sq * inner + p < 2**24
        assert dtype == ("float32" if single else "float64" if sq + p < 2**53 else "int64")
        if tile is not None:
            monkeypatch.setattr("pdmm.linalg._TILE", tile)
        top = sq * (inner - 1) + p - 2  # the largest sum that row 0 can hold
        # 200 multiples of p from each end of [p, top] and around its middle.
        last, mid = top // p, top // (2 * p)
        multiples = {*range(1, 201), *range(mid - 100, mid + 100), *range(last - 199, last + 1)}
        sums = [0, p - 1, top - 1, top] + [
            k * p + d for k in sorted(multiples) for d in (-1, 0, 1) if 0 < k * p + d <= top
        ]
        a, b = targeted_sums(p, inner, sums)
        exact = a.astype(object) @ b.astype(object)
        assert exact[0, :-1].tolist() == sums and exact[1, -1] == sq * inner
        assert matmul_mod(a, b, p).tolist() == (exact % p).tolist()


# The narrowest signed dtype that holds p - 1 at each width.
NARROW_PRIMES = [(23, np.int8), (1091, np.int16), (1_000_000_021, np.int32)]


class TestNarrowOperands:
    @pytest.mark.parametrize("p,dtype", NARROW_PRIMES)
    def test_narrow_operands_and_outputs_match_int64(self, p, dtype):
        # int8 * int8 products of residues wrap at p = 23, int16 at 1091 and
        # int32 at 1e9: matmul_mod reads narrow operands only through its
        # exact float or int64 chunks, and writes any output dtype that
        # holds p - 1.
        rng = np.random.default_rng(p)
        a, b = rng.integers(0, p, (9, 40)), rng.integers(0, p, (40, 11))
        a[0, 0] = b[0, 0] = p - 1
        want = (a.astype(object) @ b.astype(object)) % p
        assert matmul_mod(a, b, p).tolist() == want.tolist()
        for out in (np.int8, np.int16, np.int32, np.int64):
            if np.iinfo(out).max >= p - 1:
                got = matmul_mod(a.astype(dtype), b.astype(dtype), p, _dtype=out)
                assert got.dtype == out and got.tolist() == want.tolist()

    @pytest.mark.parametrize("p,dtype", NARROW_PRIMES)
    def test_narrow_entries_outside_the_field_are_reduced_in_int64(self, p, dtype):
        rng = np.random.default_rng(3)
        top = np.iinfo(dtype).max
        a = rng.integers(-top, top + 1, (5, 7)).astype(dtype)
        b = rng.integers(0, p, (7, 6)).astype(dtype)
        a[0, 0], a[0, 1] = -top, top
        before = a.copy()
        expected = (a.astype(object) @ b.astype(object)) % p
        assert matmul_mod(a, b, p).tolist() == expected.tolist()
        assert np.array_equal(a, before)

    def test_only_the_kernel_keeps_narrow_residues(self):
        x = np.arange(12, dtype=np.int16).reshape(3, 4)
        assert _residues(x, 23, narrow=True) is x
        assert _residues(x, 23).dtype == np.int64
        assert _residues(x, 11, narrow=True).dtype == np.int64  # reduced in int64

    @pytest.mark.parametrize("p,dtype", NARROW_PRIMES)
    def test_elimination_widens_narrow_inputs(self, p, dtype):
        # Elimination multiplies residues in the dtype of its input, so a
        # narrow input must give what the same int64 input gives.
        rng = np.random.default_rng(p)
        regular = regular_matrix(6, p, rng)
        singular = regular.copy()
        singular[5] = (3 * regular[0] + regular[2]) % p
        rhs = rng.integers(0, p, (6, 2))
        for m in (regular, singular):
            assert is_invertible(m.astype(dtype), p) == is_invertible(m, p)
        assert is_invertible(regular, p) and not is_invertible(singular, p)
        x = solve(regular.astype(dtype), rhs.astype(dtype), p)
        assert x.dtype == np.int64 and x.tolist() == solve(regular, rhs, p).tolist()
        tall = np.concatenate([regular, singular])[:, :3]
        for m in (tall, planted_dependencies(9, 3, p, [(1, 4, 7)], seed=p)):
            want = all_txt_submatrices_invertible(m, 3, p)
            assert all_txt_submatrices_invertible(m.astype(dtype), 3, p) == want
            assert submatrix_checks(m.astype(dtype)[None], 3, p) == [want]
        assert not all_txt_submatrices_invertible(tall, 3, p).ok


class TestVandermonde:
    def test_entries(self):
        m = vandermonde((1, 2, 3), (0, 1, 2), 11)
        assert m.tolist() == [[1, 1, 1], [1, 2, 4], [1, 3, 9]]

    def test_generalized_exponents(self):
        m = vandermonde((2,), (0, 3, 10), 11)
        assert m.tolist() == [[1, 8, 1]]  # 2^10 = 1 in F_11


class TestRankSolve:
    def test_rank_fixtures(self):
        # Ranks 1, 2 and 0: only the full-rank matrix is invertible.
        assert not is_invertible(np.array([[1, 2], [2, 4]]), 11)
        assert is_invertible(np.array([[1, 2], [2, 5]]), 11)
        assert not is_invertible(np.zeros((3, 3), dtype=int), 11)

    def test_standard_vandermonde_invertible(self):
        assert is_invertible(vandermonde((1, 2, 3, 4), (0, 1, 2, 3), 53), 53)

    def test_solve_known_system(self):
        m = np.array([[2, 1], [1, 3]])
        rhs = np.array([[5], [10]])
        x = solve(m, rhs, 11)
        assert (m @ x % 11).tolist() == rhs.tolist()

    @pytest.mark.parametrize("seed", range(5))
    def test_solve_roundtrip_random(self, seed):
        rng = np.random.default_rng(seed)
        while True:
            m = rng.integers(0, 53, (6, 6))
            if is_invertible(m, 53):
                break
        rhs = rng.integers(0, 53, (6, 4))
        x = solve(m, rhs, 53)
        assert np.array_equal(m @ x % 53, rhs)

    def test_solve_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            solve(np.array([[1, 2], [2, 4]]), np.array([[1], [2]]), 11)

    def test_solve_rejects_non_square(self):
        with pytest.raises(SingularMatrixError):
            solve(np.array([[1, 2, 3], [4, 5, 6]]), np.array([[1], [2]]), 11)


SOLVE_PRIMES = [2, 11, P_NEAR_LIMIT]


def regular_matrix(n, p, rng):
    """Random regular n x n matrix mod p: a row permutation of L U with L
    unit lower and U upper triangular with nonzero diagonal."""
    lower = np.tril(rng.integers(0, p, (n, n)), -1) + np.eye(n, dtype=np.int64)
    upper = np.triu(rng.integers(0, p, (n, n)), 1) + np.diag(rng.integers(1, p, n))
    m = (lower.astype(object) @ upper.astype(object)) % p
    return m[rng.permutation(n)].astype(np.int64)


def anti_triangular(n, p, rng):
    """Regular n x n matrix mod p that is zero above its anti-diagonal, so
    that the forward pass meets a zero pivot, and repairs it by a row
    addition, at each of its first n // 2 steps."""
    m = np.fliplr(np.tril(rng.integers(0, p, (n, n)), -1))
    return m + np.fliplr(np.diag(rng.integers(1, p, n)))


def assert_solves(m, rhs, x, p):
    """m x == rhs mod p, in Python ints, with x reduced."""
    assert x.shape == rhs.shape
    assert ((0 <= x) & (x < p)).all()
    got = (m.astype(object) @ x.astype(object)) % p
    assert got.tolist() == (rhs.astype(object) % p).tolist()


class TestSharedElimination:
    """is_invertible and solve on _singular's forward pass, against Python
    int references, at the smallest prime, a small one and the largest
    admissible one."""

    @pytest.mark.parametrize("p", SOLVE_PRIMES)
    @pytest.mark.parametrize("n", [1, 2, 5, 17, 40])
    def test_solve_multi_column_rhs(self, p, n):
        rng = np.random.default_rng(n)
        m = regular_matrix(n, p, rng)
        rhs = rng.integers(0, p, (n, 3))
        assert is_invertible(m, p)
        assert_solves(m, rhs, solve(m, rhs, p), p)

    @pytest.mark.parametrize("p", SOLVE_PRIMES)
    @pytest.mark.parametrize("n", [2, 3, 8, 40])
    def test_zero_leading_pivots(self, p, n):
        rng = np.random.default_rng(100 + n)
        m = anti_triangular(n, p, rng)
        assert m[0, 0] == 0 and det_mod(m, p) != 0
        assert is_invertible(m, p)
        eye = np.eye(n, dtype=np.int64)
        assert_solves(m, eye, solve(m, eye, p), p)

    @pytest.mark.parametrize("p", SOLVE_PRIMES)
    def test_is_invertible_matches_determinant(self, p):
        rng = np.random.default_rng(p % 1000)
        outcomes = set()
        for trial in range(120):
            n = 1 + trial % 9
            m = rng.integers(0, p, (n, n)) * (rng.random((n, n)) < 0.6)
            if trial % 4 == 0 and n > 1:
                m[-1] = m[0] * rng.integers(0, p) % p
            want = det_mod(m, p) != 0
            assert is_invertible(m, p) == want
            outcomes.add(want)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("p", SOLVE_PRIMES)
    @pytest.mark.parametrize("n", [2, 9, 40])
    def test_singular_raises(self, p, n):
        rng = np.random.default_rng(200 + n)
        dependent = regular_matrix(n, p, rng)
        coeffs = rng.integers(0, p, n - 1).astype(object)
        dependent[-1] = (coeffs @ dependent[:-1].astype(object)) % p
        zero_column = regular_matrix(n, p, rng)
        zero_column[:, n // 2] = 0
        for m in (dependent, zero_column, anti_triangular(n, p, rng) * (np.arange(n) != 0)):
            assert det_mod(m, p) == 0
            assert not is_invertible(m, p)
            with pytest.raises(SingularMatrixError):
                solve(m, rng.integers(0, p, (n, 2)), p)

    def test_empty_matrix_is_regular(self):
        empty = np.zeros((0, 0), dtype=np.int64)
        assert is_invertible(empty, 11)
        assert solve(empty, np.zeros((0, 2), dtype=np.int64), 11).shape == (0, 2)

    @pytest.mark.parametrize("p", SOLVE_PRIMES)
    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (1, 4), (40, 39)])
    def test_non_square_is_singular(self, p, shape):
        m = np.ones(shape, dtype=np.int64)
        assert not is_invertible(m, p)
        with pytest.raises(SingularMatrixError):
            solve(m, np.ones((shape[0], 1), dtype=np.int64), p)


def singular_stack(t, p, seed):
    """(t, t, M) stack of random matrices mod p in which every third has its
    last row a multiple of its first, and every seventh a zero first column."""
    rng = np.random.default_rng(seed)
    stack = rng.integers(0, p, (60, t, t), dtype=np.int64)
    if t > 1:
        scale = rng.integers(1, p, (20, 1), dtype=np.int64)
        stack[::3, -1] = stack[::3, 0] * scale % p
    stack[1::7, :, 0] = 0
    return stack.transpose(1, 2, 0).copy()


@st.composite
def mixed_modulus_stacks(draw):
    """(stack, moduli): a (t, t+m, M) stack of residues, each matrix mod its
    own prime among 2, 11 and P_NEAR_LIMIT, with a drawn share of zero
    entries, so that zero pivots, with and without a row below to repair
    them, are common."""
    t, extra, count = draw(st.integers(1, 5)), draw(st.integers(0, 2)), draw(st.integers(1, 9))
    moduli = draw(st.lists(st.sampled_from((2, 11, P_NEAR_LIMIT)), min_size=count, max_size=count))
    moduli = np.array(moduli, dtype=np.int64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = rng.integers(0, moduli[:, None, None], (count, t, t + extra))
    stack[rng.random(stack.shape) < draw(st.sampled_from((0.2, 0.5, 0.8)))] = 0
    return stack.transpose(1, 2, 0).copy(), moduli


# Three 3 x 3 matrices whose first pivot is 0: mod 11 with nothing below it,
# mod 2 repaired by row 1 and mod P_NEAR_LIMIT by row 2. The repair then
# works on columns 1 and 2 only, and its row is 3 entries long, as long as
# the stack, so a modulus taken for the wrong matrix or broadcast along the
# row would not raise.
REPAIR_EXAMPLE = (
    np.array(
        [
            [[0, 0, 0], [5, 1, 7], [3, 0, P_NEAR_LIMIT - 2]],
            [[0, 1, 0], [2, 1, 9], [8, 0, 12345]],
            [[0, 0, P_NEAR_LIMIT - 1], [4, 1, 3], [6, 1, P_NEAR_LIMIT - 7]],
        ],
        dtype=np.int64,
    ).transpose(1, 2, 0).copy(),
    np.array([11, 2, P_NEAR_LIMIT], dtype=np.int64),
)


class TestBatchDets:
    """The batched singularity test against reference determinants."""

    @settings(max_examples=200, deadline=None)
    @given(mixed_modulus_stacks())
    @example(REPAIR_EXAMPLE)
    def test_per_matrix_modulus_equals_one_call_per_matrix(self, case):
        # A stack with one modulus per matrix is eliminated as if each
        # matrix were passed alone with its own p: the same verdicts and the
        # same overwritten entries.
        stack, moduli = case
        got = stack.copy()
        singular = _singular(got, moduli)
        for i, p in enumerate(moduli.tolist()):
            alone = stack[:, :, i : i + 1].copy()
            assert singular[i] == _singular(alone, p)[0]
            assert np.array_equal(got[:, :, i], alone[:, :, 0])

    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6])
    def test_matches_permutation_expansion(self, t):
        for p in (101, P_NEAR_LIMIT):
            stack = singular_stack(t, p, seed=t)
            singular = _singular(stack.copy(), p)
            for m, s in zip(stack.transpose(2, 0, 1), singular):
                assert s == (permanent_style_det(m, p) == 0)
            assert 0 < singular.sum() < len(singular)

    def test_zero_iff_rank_deficient(self):
        rng = np.random.default_rng(9)
        stack = rng.integers(0, 101, (4, 4, 100)).astype(np.int64)
        stack[3, :, ::3] = stack[0, :, ::3]  # force repeated rows in every third one
        for m, s in zip(stack.transpose(2, 0, 1), _singular(stack.copy(), 101)):
            assert s == (det_mod(m, 101) == 0)


class TestSubmatrixCheck:
    def test_vandermonde_all_pairs_invertible(self):
        m = vandermonde(tuple(range(1, 11)), (0, 1), 53)
        check = all_txt_submatrices_invertible(m, 2, 53)
        assert check.status == "verified_all"
        assert check.ok
        assert check.checked == 45

    def test_finds_singular_pair_with_witness(self):
        # Points 2 and -2 collapse under the even exponents (2, 4).
        m = vandermonde((1, 2, 51, 3), (2, 4), 53)
        check = all_txt_submatrices_invertible(m, 2, 53)
        assert check.status == "found_singular"
        assert not check.ok
        assert check.witness == (1, 2)

    def test_level_names_the_walk(self):
        m = vandermonde((1, 2, 51, 3), (2, 4), 53)
        assert all_txt_submatrices_invertible(m, 2, 53).level == "exhaustive"

    def test_large_t_fallback(self):
        m = vandermonde(tuple(range(1, 9)), (0, 1, 2, 3, 4), 101)
        check = all_txt_submatrices_invertible(m, 5, 101)
        assert check.status == "verified_all"

    def test_no_columns_is_one_empty_regular_subset(self):
        # The mask walks of T = 1 check d with no column: its one 0 x 0
        # submatrix is regular.
        check = SubmatrixCheck(None, 1, "exhaustive")
        assert submatrix_checks(np.zeros((3, 5, 0), dtype=np.int64), 0, [7, 11, 13]) == [check] * 3
        assert all_txt_submatrices_invertible(np.zeros((5, 0)), 0, 53) == check

    def test_rejects_column_mismatch(self):
        m = vandermonde((1, 2, 3), (0, 1), 53)
        with pytest.raises(ValueError):
            all_txt_submatrices_invertible(m, 3, 53)

    @pytest.mark.parametrize(
        "n, t, dependent_rows",
        [
            (16, 4, [(3, 5, 7, 9), (4, 8, 12, 15)]),
            (14, 5, [(2, 4, 6, 8, 10), (3, 5, 7, 9, 13)]),
            (15, 6, [(2, 4, 6, 8, 10, 12), (1, 3, 5, 7, 11, 14)]),
        ],
    )
    def test_exhaustive_witness_is_first_singular_subset(self, n, t, dependent_rows):
        m = planted_dependencies(n, t, 10007, dependent_rows, seed=3)
        subsets = list(combinations(range(n), t))
        singular = singular_positions(m, subsets, 10007)
        assert len(singular) >= 2
        first = singular[0]
        assert first > _CHUNK  # the witness lies beyond the first chunk
        check = all_txt_submatrices_invertible(m, t, 10007)
        assert check.status == "found_singular"
        assert check.witness == subsets[first - 1]
        assert check.checked == first

    @pytest.mark.parametrize("position", [1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1, comb(18, 4)])
    def test_witness_position_at_chunk_edges(self, position):
        # One planted singular subset at 1, 1,024, 1,025, 2,049 or the last
        # of the C(18, 4) = 3,060 subsets: checked is its 1-based position,
        # so at the last subset it equals C(n, t).
        n, t = 18, 4
        subsets = list(combinations(range(n), t))
        m = planted_dependencies(n, t, 1_000_003, [subsets[position - 1]], seed=7)
        assert singular_positions(m, subsets, 1_000_003) == [position]
        check = all_txt_submatrices_invertible(m, t, 1_000_003)
        assert (check.status, check.level) == ("found_singular", "exhaustive")
        assert check.witness == subsets[position - 1]
        assert check.checked == position

    def test_stacked_walk_equals_one_matrix_checks(self):
        # Each matrix has its own modulus and at most one planted singular
        # subset, on either side of the chunk edges at 256 and 1,280 of the
        # C(21, 3) = 1,330 subsets, so the matrices leave the walk at
        # different chunks; two more mod 11 have many singular subsets. Each
        # check must be the one the one-matrix check returns.
        n, t = 21, 3
        subsets = list(combinations(range(n), t))
        edges = (_FIRST_CHUNK, _FIRST_CHUNK + _CHUNK)
        positions = [1] + [e + d for e in edges for d in (0, 1)] + [len(subsets), None]
        primes = (1_000_003, P_NEAR_LIMIT)
        mats, moduli = [], []
        for i, pos in enumerate(positions):
            p = primes[i % 2]
            planted = [] if pos is None else [subsets[pos - 1]]
            m = planted_dependencies(n, t, p, planted, seed=11 + i)
            assert singular_positions(m, subsets, p) == ([] if pos is None else [pos])
            mats.append(m)
            moduli.append(p)
        mats += [planted_dependencies(n, t, 11, [], seed) for seed in (1, 2)]
        moduli += [11, 11]
        checks = submatrix_checks(np.stack(mats), t, moduli)
        assert checks == [all_txt_submatrices_invertible(m, t, p) for m, p in zip(mats, moduli)]
        assert {c.level for c in checks} == {"exhaustive"}
        assert [c.checked for c in checks[: len(positions)]] == [
            len(subsets) if pos is None else pos for pos in positions
        ]

    def test_stacked_walk_of_one_modulus(self):
        # An int modulus, or an array of one repeated prime, walks like the
        # per-matrix array.
        mats = [planted_dependencies(12, 3, 10007, [(1, 4, 9)], seed) for seed in range(3)]
        stack = np.stack(mats)
        want = [all_txt_submatrices_invertible(m, 3, 10007) for m in mats]
        assert submatrix_checks(stack, 3, 10007) == want
        assert submatrix_checks(stack, 3, [10007] * 3) == want
        with pytest.raises(ValueError):
            submatrix_checks(stack, 4, 10007)

    def test_entries_are_reduced_by_their_own_modulus(self):
        # Row 0 is 11: a singular 1 x 1 submatrix mod 11, but not mod 13.
        stack = np.array([[[11], [3]], [[11], [3]]])
        assert submatrix_checks(stack[:1], 1, 11)[0].witness == (0,)
        assert [c.witness for c in submatrix_checks(stack, 1, [11, 13])] == [(0,), None]
        for p in (2**62 + 1, [11, 2**62 + 1]):
            with pytest.raises(ValueError, match="exceeds"):
                submatrix_checks(stack, 1, p)
        with pytest.raises(ValueError, match="one modulus or 2"):
            submatrix_checks(stack, 1, [11, 13, 17])

    def test_last_matrix_in_the_walk_reads_its_own_rows(self):
        # Matrix 0 leaves at the first subset; matrix 1, singular only at
        # subset 300 of C(14, 3) = 364, then walks the second chunk alone.
        subsets = list(combinations(range(14), 3))
        mats = [
            planted_dependencies(14, 3, 1_000_003, [subsets[0]], seed=1),
            planted_dependencies(14, 3, 1_000_003, [subsets[299]], seed=2),
        ]
        assert singular_positions(mats[1], subsets, 1_000_003) == [300]
        checks = submatrix_checks(np.stack(mats), 3, 1_000_003)
        assert [c.checked for c in checks] == [1, 300]
        assert checks == [all_txt_submatrices_invertible(m, 3, 1_000_003) for m in mats]

    @pytest.mark.parametrize("n, t", [(5, 0), (8, 3), (41, 4), (255, 2), (256, 2), (300, 1)])
    def test_combination_indices_are_the_combinations(self, n, t):
        # One byte per index while n fits uint8, the next dtype past it.
        got = _combination_indices(n, t)
        assert got.tolist() == [list(c) for c in combinations(range(n), t)]
        assert got.shape == (comb(n, t), t)
        assert got.dtype == (np.uint8 if n <= 255 else np.uint16)
        assert not got.flags.writeable
        assert _combination_indices(n, t) is got
