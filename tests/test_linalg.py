"""Exact linear algebra over prime fields."""

import random
from itertools import combinations, permutations
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdmm.field import PrimeField
from pdmm.linalg import (
    _CHUNK,
    _FIRST_CHUNK,
    _MAX_P,
    FieldMatrix,
    SingularMatrixError,
    SubmatrixCheck,
    _residues,
    _sampled_subsets,
    _singular,
    all_txt_submatrices_invertible,
    is_invertible,
    matmul_mod,
    solve,
    submatrix_checks,
    vandermonde,
)

F11 = PrimeField.of(11)
F53 = PrimeField.of(53)
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
    its last row is a random combination of the others."""
    rng = np.random.default_rng(seed)
    data = rng.integers(1, p, (n, t))
    for rows in dependent_rows:
        coeffs = rng.integers(1, p, len(rows) - 1)
        data[rows[-1]] = coeffs @ data[list(rows[:-1])] % p
    return FieldMatrix(data, PrimeField.of(p))


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


def singular_positions(m, subsets):
    """1-based positions of the singular t x t submatrices, by determinant."""
    return [
        i + 1
        for i, rows in enumerate(subsets)
        if det_mod(m.data[list(rows)], m.field.p) == 0
    ]


class TestFieldMatrix:
    def test_reduces_mod_p(self):
        m = FieldMatrix(np.array([[12, -1], [22, 5]]), F11)
        assert m.data.tolist() == [[1, 10], [0, 5]]

    def test_equality(self):
        a = FieldMatrix(np.array([[1, 2]]), F11)
        b = FieldMatrix(np.array([[12, 13]]), F11)
        assert a == b
        assert a != FieldMatrix(np.array([[1, 2]]), F53)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            FieldMatrix(np.arange(4), F11)

    def test_refuses_fields_past_int64_products(self):
        # A singular [[a, b], [c*a, c*b]] over p = 4,000,000,007: its 2x2
        # determinant overflows int64, and the submatrix check read it as
        # invertible. The field scan never picks such a field, so build it directly.
        fld = PrimeField.of(4_000_000_007)
        assert fld.p > P_NEAR_LIMIT
        a, b, c = 3_253_080_962, 2_597_663_003, 3_651_022_314
        with pytest.raises(ValueError):
            FieldMatrix(np.array([[a, b], [c * a % fld.p, c * b % fld.p]]), fld)
        with pytest.raises(ValueError):
            vandermonde((1, 2, 3), (0, 1), fld)


# Primes on both sides of each path of matmul_mod, with the number k of inner
# terms per chunk: (p-1)^2 * k + p < 2^53 for float64, < 2^63 for int64.
KERNEL_PRIMES = [
    2,
    1091,  # float64, one product for any inner dimension here
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


class TestVandermonde:
    def test_entries(self):
        m = vandermonde((1, 2, 3), (0, 1, 2), F11)
        assert m.data.tolist() == [[1, 1, 1], [1, 2, 4], [1, 3, 9]]

    def test_generalized_exponents(self):
        m = vandermonde((2,), (0, 3, 10), F11)
        assert m.data.tolist() == [[1, 8, 1]]  # 2^10 = 1 in F_11


class TestRankSolve:
    def test_rank_fixtures(self):
        # Ranks 1, 2 and 0: only the full-rank matrix is invertible.
        assert not is_invertible(FieldMatrix(np.array([[1, 2], [2, 4]]), F11))
        assert is_invertible(FieldMatrix(np.array([[1, 2], [2, 5]]), F11))
        assert not is_invertible(FieldMatrix(np.zeros((3, 3), dtype=int), F11))

    def test_standard_vandermonde_invertible(self):
        assert is_invertible(vandermonde((1, 2, 3, 4), (0, 1, 2, 3), F53))

    def test_solve_known_system(self):
        m = FieldMatrix(np.array([[2, 1], [1, 3]]), F11)
        rhs = FieldMatrix(np.array([[5], [10]]), F11)
        x = solve(m, rhs)
        assert (m.data @ x.data % 11).tolist() == rhs.data.tolist()

    @pytest.mark.parametrize("seed", range(5))
    def test_solve_roundtrip_random(self, seed):
        rng = np.random.default_rng(seed)
        while True:
            m = FieldMatrix(rng.integers(0, 53, (6, 6)), F53)
            if is_invertible(m):
                break
        rhs = FieldMatrix(rng.integers(0, 53, (6, 4)), F53)
        x = solve(m, rhs)
        assert np.array_equal(m.data @ x.data % 53, rhs.data)

    def test_solve_singular_raises(self):
        m = FieldMatrix(np.array([[1, 2], [2, 4]]), F11)
        with pytest.raises(SingularMatrixError):
            solve(m, FieldMatrix(np.array([[1], [2]]), F11))

    def test_solve_rejects_non_square(self):
        m = FieldMatrix(np.array([[1, 2, 3], [4, 5, 6]]), F11)
        with pytest.raises(SingularMatrixError):
            solve(m, FieldMatrix(np.array([[1], [2]]), F11))


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
        fld = PrimeField.of(p)
        m = regular_matrix(n, p, rng)
        rhs = rng.integers(0, p, (n, 3))
        assert is_invertible(FieldMatrix(m, fld))
        x = solve(FieldMatrix(m, fld), FieldMatrix(rhs, fld))
        assert_solves(m, rhs, x.data, p)

    @pytest.mark.parametrize("p", SOLVE_PRIMES)
    @pytest.mark.parametrize("n", [2, 3, 8, 40])
    def test_zero_leading_pivots(self, p, n):
        rng = np.random.default_rng(100 + n)
        fld = PrimeField.of(p)
        m = anti_triangular(n, p, rng)
        assert m[0, 0] == 0 and det_mod(m, p) != 0
        assert is_invertible(FieldMatrix(m, fld))
        x = solve(FieldMatrix(m, fld), FieldMatrix(np.eye(n, dtype=np.int64), fld))
        assert_solves(m, np.eye(n, dtype=np.int64), x.data, p)

    @pytest.mark.parametrize("p", SOLVE_PRIMES)
    def test_is_invertible_matches_determinant(self, p):
        rng = np.random.default_rng(p % 1000)
        fld = PrimeField.of(p)
        outcomes = set()
        for trial in range(120):
            n = 1 + trial % 9
            m = rng.integers(0, p, (n, n)) * (rng.random((n, n)) < 0.6)
            if trial % 4 == 0 and n > 1:
                m[-1] = m[0] * rng.integers(0, p) % p
            want = det_mod(m, p) != 0
            assert is_invertible(FieldMatrix(m, fld)) == want
            outcomes.add(want)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("p", SOLVE_PRIMES)
    @pytest.mark.parametrize("n", [2, 9, 40])
    def test_singular_raises(self, p, n):
        rng = np.random.default_rng(200 + n)
        fld = PrimeField.of(p)
        dependent = regular_matrix(n, p, rng)
        coeffs = rng.integers(0, p, n - 1).astype(object)
        dependent[-1] = (coeffs @ dependent[:-1].astype(object)) % p
        zero_column = regular_matrix(n, p, rng)
        zero_column[:, n // 2] = 0
        for m in (dependent, zero_column, anti_triangular(n, p, rng) * (np.arange(n) != 0)):
            assert det_mod(m, p) == 0
            assert not is_invertible(FieldMatrix(m, fld))
            with pytest.raises(SingularMatrixError):
                solve(FieldMatrix(m, fld), FieldMatrix(rng.integers(0, p, (n, 2)), fld))

    def test_empty_matrix_is_regular(self):
        empty = FieldMatrix(np.zeros((0, 0), dtype=np.int64), F11)
        assert is_invertible(empty)
        assert solve(empty, FieldMatrix(np.zeros((0, 2), dtype=np.int64), F11)).data.shape == (0, 2)

    @pytest.mark.parametrize("p", SOLVE_PRIMES)
    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (1, 4), (40, 39)])
    def test_non_square_is_singular(self, p, shape):
        fld = PrimeField.of(p)
        m = FieldMatrix(np.ones(shape, dtype=np.int64), fld)
        assert not is_invertible(m)
        with pytest.raises(SingularMatrixError):
            solve(m, FieldMatrix(np.ones((shape[0], 1), dtype=np.int64), fld))


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
        m = vandermonde(tuple(range(1, 11)), (0, 1), F53)
        check = all_txt_submatrices_invertible(m, 2)
        assert check.status == "verified_all"
        assert check.ok
        assert check.checked == 45

    def test_finds_singular_pair_with_witness(self):
        # Points 2 and -2 collapse under the even exponents (2, 4).
        m = vandermonde((1, 2, 51, 3), (2, 4), F53)
        check = all_txt_submatrices_invertible(m, 2)
        assert check.status == "found_singular"
        assert not check.ok
        assert check.witness == (1, 2)

    def test_sampling_path_when_over_budget(self):
        pts = tuple(range(1, 41))
        m = vandermonde(pts, (0, 1), F53)
        check = all_txt_submatrices_invertible(m, 2, budget=100, seed=1)
        assert check.status == "verified_sample"
        assert check.checked == 100

    def test_level_names_the_walk(self):
        m = vandermonde((1, 2, 51, 3), (2, 4), F53)
        assert all_txt_submatrices_invertible(m, 2).level == "exhaustive"
        assert all_txt_submatrices_invertible(m, 2, budget=5).level == "sampled"
        m = vandermonde(tuple(range(1, 41)), (0, 1), F53)
        assert all_txt_submatrices_invertible(m, 2, budget=100).level == "sampled"

    def test_large_t_fallback(self):
        fld = PrimeField.of(101)
        m = vandermonde(tuple(range(1, 9)), (0, 1, 2, 3, 4), fld)
        check = all_txt_submatrices_invertible(m, 5)
        assert check.status == "verified_all"

    def test_no_columns_is_one_empty_regular_subset(self):
        # The mask walks of T = 1 check d with no column: its one 0 x 0
        # submatrix is regular.
        check = SubmatrixCheck(None, 1, "exhaustive")
        assert submatrix_checks(np.zeros((3, 5, 0), dtype=np.int64), 0, [7, 11, 13]) == [check] * 3
        assert all_txt_submatrices_invertible(FieldMatrix(np.zeros((5, 0)), F53), 0) == check

    def test_rejects_column_mismatch(self):
        m = vandermonde((1, 2, 3), (0, 1), F53)
        with pytest.raises(ValueError):
            all_txt_submatrices_invertible(m, 3)

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
        singular = singular_positions(m, subsets)
        assert len(singular) >= 2
        first = singular[0]
        assert first > _CHUNK  # the witness lies beyond the first chunk
        check = all_txt_submatrices_invertible(m, t)
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
        assert singular_positions(m, subsets) == [position]
        check = all_txt_submatrices_invertible(m, t)
        assert (check.status, check.level) == ("found_singular", "exhaustive")
        assert check.witness == subsets[position - 1]
        assert check.checked == position

    def test_sampled_witness_is_first_singular_draw(self):
        # Points 21 and 47 coincide, so every subset holding both is singular.
        n, t, budget, seed = 60, 3, 4000, 6
        pts = list(range(1, n + 1))
        pts[47] = pts[21]
        m = vandermonde(pts, range(t), PrimeField.of(10007))
        rng = random.Random(seed)
        sample = [tuple(sorted(rng.sample(range(n), t))) for _ in range(budget)]
        singular = singular_positions(m, sample)
        assert len(singular) >= 2
        first = singular[0]
        assert first > _CHUNK
        check = all_txt_submatrices_invertible(m, t, budget=budget, seed=seed)
        assert check.status == "found_singular"
        assert check.witness == sample[first - 1]
        assert check.checked == first

    def test_stacked_walk_equals_one_matrix_checks(self):
        # Each matrix has its own modulus and at most one planted singular
        # subset, on either side of the chunk edges at 256 and 1,280 of the
        # C(21, 3) = 1,330 subsets, so the matrices leave the walk at
        # different chunks; two more mod 11 have many singular subsets. Each
        # check must be the one the one-matrix check returns, exhaustive and
        # sampled.
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
            assert singular_positions(m, subsets) == ([] if pos is None else [pos])
            mats.append(m)
        mats += [planted_dependencies(n, t, 11, [], seed) for seed in (1, 2)]
        stack = np.stack([m.data for m in mats])
        moduli = [m.field.p for m in mats]
        for budget in (comb(n, t), 1000):
            checks = submatrix_checks(stack, t, moduli, budget, seed=4)
            assert checks == [all_txt_submatrices_invertible(m, t, budget, 4) for m in mats]
            assert {c.level for c in checks} == {"exhaustive" if budget > 1000 else "sampled"}
        exhaustive = submatrix_checks(stack, t, moduli)
        assert [c.checked for c in exhaustive[: len(positions)]] == [
            len(subsets) if pos is None else pos for pos in positions
        ]

    def test_stacked_walk_of_one_modulus(self):
        # An int modulus, or an array of one repeated prime, walks like the
        # per-matrix array.
        mats = [planted_dependencies(12, 3, 10007, [(1, 4, 9)], seed) for seed in range(3)]
        stack = np.stack([m.data for m in mats])
        want = [all_txt_submatrices_invertible(m, 3) for m in mats]
        assert submatrix_checks(stack, 3, 10007) == want
        assert submatrix_checks(stack, 3, [10007] * 3) == want
        with pytest.raises(ValueError):
            submatrix_checks(stack, 4, 10007)

    def test_last_matrix_in_the_walk_reads_its_own_rows(self):
        # Matrix 0 leaves at the first subset; matrix 1, singular only at
        # subset 300 of C(14, 3) = 364, then walks the second chunk alone.
        subsets = list(combinations(range(14), 3))
        mats = [
            planted_dependencies(14, 3, 1_000_003, [subsets[0]], seed=1),
            planted_dependencies(14, 3, 1_000_003, [subsets[299]], seed=2),
        ]
        assert singular_positions(mats[1], subsets) == [300]
        checks = submatrix_checks(np.stack([m.data for m in mats]), 3, 1_000_003)
        assert [c.checked for c in checks] == [1, 300]
        assert checks == [all_txt_submatrices_invertible(m, 3) for m in mats]

    def test_sampled_subsets_are_the_seeded_draws(self):
        rng = random.Random(5)
        want = [sorted(rng.sample(range(41), 4)) for _ in range(2500)]
        got = _sampled_subsets(41, 4, 2500, 5)
        assert got.tolist() == want
        assert got.dtype == np.uint8
        assert not got.flags.writeable
        assert _sampled_subsets(41, 4, 2500, 5) is got
