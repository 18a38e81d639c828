"""Exact linear algebra over prime fields."""

import tracemalloc
from itertools import combinations, permutations
from math import comb

import numpy as np
import pytest

import pdmm.linalg as pdmm_linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdmm.field import PrimeField
from pdmm.linalg import (
    _CHUNK,
    _FIRST_CHUNK,
    _FIRST_WALK,
    _MAX_P,
    _MINORS_UP_TO,
    _TILE,
    _WALK_CHUNK,
    SubmatrixCheck,
    _exact_type,
    _matmul_parts,
    _reduce,
    _prefix_rows,
    _prefix_tree,
    _residues,
    _singular,
    all_txt_submatrices_invertible,
    matmul_mod,
    submatrix_checks,
    vandermonde,
)
from pdmm.scheme import TaskPair, worker_multiply

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
    its last row is a random combination of the others, summed in Python
    ints, since int64 wraps near _MAX_P; entries in [0, p)."""
    rng = np.random.default_rng(seed)
    data = rng.integers(1, p, (n, t))
    for rows in dependent_rows:
        coeffs = rng.integers(1, p, len(rows) - 1).astype(object)
        data[rows[-1]] = coeffs @ data[list(rows[:-1])].astype(object) % p
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


def invertible(m, p):
    """Whether the square matrix m is invertible mod p: its one n-row subset
    passes the T x T check."""
    return all_txt_submatrices_invertible(m, len(m), p).ok


def singular_positions(m, subsets, p):
    """1-based positions of the singular t x t submatrices mod p, by determinant."""
    return [i + 1 for i, rows in enumerate(subsets) if det_mod(m[list(rows)], p) == 0]


def first_chunk_end(n, t, budget=_FIRST_WALK, done=0):
    """The last subset of the first chunk past subset done of one matrix's
    walk of the t-row subsets of n rows, with a budget of subsets (the
    cofactor walk's first by default): the end of the last row prefix whose
    subsets all lie within done + budget."""
    ends = _prefix_tree(n, t)[2]
    return int(ends[np.searchsorted(ends, done + budget, side="right") - 1])


# Each public function on a matrix over F_p, as call(input, p), with an input
# holding unreduced and negative entries mod 11 and an input of the wrong
# shape. In the all_txt and submatrix_checks inputs a row is 11, which is
# singular only once it is reduced.
ENTRIES = {
    "vandermonde": (lambda x, p: vandermonde(x, (0, 1, 3), p), [-1, 12, 25], [[1, 2], [3, 4]]),
    "matmul_mod": (lambda m, p: matmul_mod(m, [[-6], [23]], p), [[12, -1], [22, 5]], np.arange(4)),
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
    def test_unsigned_entries_are_reduced_exactly(self, name):
        # Each entry plus a multiple of 11 near 2^64 - 1, which a plain cast
        # to int64 wraps to a negative number of another residue.
        call, x, _ = ENTRIES[name]
        x = np.array(x) % 11
        big = x.astype(np.uint64) + np.uint64(11 * ((2**64 - 1) // 11 - 1))
        assert plain(call(big, 11)) == plain(call(x, 11))
        assert plain(call(x != 0, 11)) == plain(call((x != 0).astype(np.int64), 11))

    @pytest.mark.parametrize("name", ENTRIES)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.complex128, object])
    def test_refuses_non_integer_entries(self, name, dtype):
        call, x, _ = ENTRIES[name]
        with pytest.raises(ValueError, match="integer"):
            call(np.array(x).astype(dtype), 11)

    def test_unsigned_and_float_repros(self):
        # 2^64 - 1 = 1 (mod 7) once read as -1 = 6; 1.5 once read as 1.
        assert matmul_mod(np.array([[2**64 - 1]], dtype=np.uint64), [[1]], 7).tolist() == [[1]]
        with pytest.raises(ValueError, match="integer"):
            matmul_mod([[1.5]], [[2]], 7)

    @pytest.mark.parametrize("name", ENTRIES)
    @pytest.mark.parametrize("p", [_MAX_P + 2, 4_000_000_007, 2**62 + 1])
    def test_refuses_fields_past_int64_products(self, name, p):
        # Over such a p a product of two residues overflows int64: a singular
        # [[a, b], [c*a, c*b]] mod 4,000,000,007 once read as invertible.
        call, x, _ = ENTRIES[name]
        with pytest.raises(ValueError, match="exceeds"):
            call(np.array(x) % 11, p)

    @pytest.mark.parametrize("name", ENTRIES)
    @pytest.mark.parametrize("p", [0, 1, -7])
    def test_refuses_moduli_below_two(self, name, p):
        # matmul_mod([[1]], [[1]], 0) once returned -2^63, mod -7 it gave -4,
        # and a check mod 0 found the witness (0,).
        call, x, _ = ENTRIES[name]
        with pytest.raises(ValueError, match="below 2"):
            call(np.array(x) % 11, p)

    def test_refuses_a_modulus_below_two_in_a_stack(self):
        call, x, _ = ENTRIES["submatrix_checks"]
        with pytest.raises(ValueError, match="below 2"):
            call(np.array(x) % 11, [7, 0])


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

    def test_temporaries_stay_tile_sized(self):
        # float64 in chunks of 8 inner terms, over tiles of 512 x 128: past
        # the output and the two float64 casts of the operands, a chunk's
        # product, the tile's sum and its quotients are alive at once (3.13
        # tiles measured), never an array the size of the output.
        p = 33_554_393
        assert _exact_type(p, 64) == (np.float64, 8)
        rng = np.random.default_rng(5)
        a, b = rng.integers(0, p, (512, 64)), rng.integers(0, p, (64, 512))
        tracemalloc.start()
        try:
            out = matmul_mod(a, b, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.tolist() == ((a.astype(object) @ b.astype(object)) % p).tolist()
        assert peak <= out.nbytes + (a.size + b.size) * 8 + 4 * _TILE * 8

    @pytest.mark.parametrize(
        "p,inner",
        [
            (1091, 12),  # float32: one chunk of every inner dimension
            (33_554_393, 8),  # float64 in chunks of 8 inner terms
            (33_554_393, 9),
            (P_NEAR_LIMIT, 1),  # int64 in chunks of one term
            (P_NEAR_LIMIT, 2),
        ],
    )
    @pytest.mark.parametrize("extra", [0, 1])
    def test_one_tile_equals_the_tiled_loop(self, p, inner, extra, monkeypatch):
        # An output of at most _TILE entries and an inner dimension of at
        # most one chunk is one tile of one chunk; one entry or one inner
        # term more takes the loop. Either must equal the loop over tiles of
        # 4,096 entries and Python ints.
        step = _exact_type(p, inner)[1]
        assert inner == step or inner == step + 1
        rng = np.random.default_rng(inner + extra)
        a, b = rng.integers(0, p, (1, inner)), rng.integers(0, p, (inner, _TILE + extra))
        a[0], b[:, 0] = p - 1, p - 1  # the largest sum, (p-1)^2 * inner
        got = matmul_mod(a, b, p)
        monkeypatch.setattr("pdmm.linalg._TILE", 4096)
        assert got.tobytes() == matmul_mod(a, b, p).tobytes()
        assert got.tolist() == ((a.astype(object) @ b.astype(object)) % p).tolist()


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

    @pytest.mark.parametrize("p", [4_093, 4_099, 94_906_249, 94_906_297])
    def test_elimination_differences(self, p):
        # An elimination step reduces differences in [-(p-1)^2, (p-1)^2] in
        # the walk's type: at both ends, and at and next to multiples of p
        # of either sign.
        kind = _exact_type(p, 1)[0]
        sq = (p - 1) ** 2
        k = (sq - 1) // p  # the largest k with k*p + 1 <= (p-1)^2
        ys = [0, 1, sq - 1, sq] + [j * p + d for j in (1, 2, k // 2, k - 1, k) for d in (-1, 0, 1)]
        ys += [-y for y in ys]
        y = np.array(ys, dtype=kind)
        assert y.astype(object).tolist() == ys  # every y is exact in the type
        out = np.empty(len(ys), dtype=np.int64)
        assert _reduce(y, kind(p), out).tolist() == [v % p for v in ys]
        assert _reduce(y.copy(), kind(p), y).astype(object).tolist() == [v % p for v in ys]

    @pytest.mark.parametrize(
        "p", [2, 3, 7, 65_537, 94_906_297, 1_000_000_007, 2_147_483_659, 3_037_000_499]
    )
    def test_int64_reduction_equals_remainder(self, p):
        # y - (y // p) * p wraps past int64 for y near INT64_MIN, and still
        # lands on the residue.
        info = np.iinfo(np.int64)
        edges = [info.min, info.min + 1, -p, -1, 0, 1, p, info.max - 1, info.max]
        drawn = np.random.default_rng(p).integers(info.min, info.max, 199_998, endpoint=True)
        y = np.concatenate([np.array(edges, dtype=np.int64), drawn])
        assert y.size == 200_007
        expected = np.remainder(y, np.int64(p))
        assert expected[: len(edges)].tolist() == [v % p for v in edges]
        # Into an out of y's type, into a narrower one that holds p - 1
        # (encode's shares), and in place.
        outs = [np.empty_like(y)] + ([np.empty(y.shape, np.int32)] if p <= 2**31 else [])
        for out in outs:
            assert _reduce(y, np.int64(p), out) is out
            assert np.array_equal(out, expected)
        assert _reduce(y, np.int64(p), y) is y
        assert np.array_equal(y, expected)


# The narrowest signed dtype that holds p - 1 at each width.
NARROW_PRIMES = [(23, np.int8), (1091, np.int16), (1_000_000_021, np.int32)]


class TestNarrowOperands:
    @pytest.mark.parametrize("p,dtype", NARROW_PRIMES)
    def test_narrow_operands_and_outputs_match_int64(self, p, dtype):
        # int8 * int8 products of residues wrap at p = 23, int16 at 1091 and
        # int32 at 1e9: matmul_mod reads narrow operands only through its
        # exact float or int64 chunks and returns int64, and the kernel,
        # through _matmul_parts, writes any output dtype that holds p - 1.
        rng = np.random.default_rng(p)
        a, b = rng.integers(0, p, (9, 40)), rng.integers(0, p, (40, 11))
        a[0, 0] = b[0, 0] = p - 1
        want = (a.astype(object) @ b.astype(object)) % p
        assert matmul_mod(a, b, p).tolist() == want.tolist()
        got = matmul_mod(a.astype(dtype), b.astype(dtype), p)
        assert got.dtype == np.int64 and got.tolist() == want.tolist()
        for out in (np.int8, np.int16, np.int32, np.int64):
            if np.iinfo(out).max >= p - 1:
                got = _matmul_parts(a.astype(dtype), list(b.astype(dtype)), p, out)
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

    def test_signed_residues_keep_their_dtype(self):
        # Residues are read as they are; an entry outside [0, p) is reduced
        # in int64, whatever the width of its input.
        x = np.arange(12, dtype=np.int16).reshape(3, 4)
        assert _residues(x, 23) is x and _residues(x, 23, 2) is x
        reduced = _residues(x, 11)
        assert reduced.dtype == np.int64 and reduced.tolist() == (x % 11).tolist()
        edge = np.array([[127, -128]], dtype=np.int8)
        assert _residues(edge, 1091).tolist() == [[127, 1091 - 128]]

    @pytest.mark.parametrize("name", ENTRIES)
    @pytest.mark.parametrize("p,dtype", NARROW_PRIMES)
    def test_narrow_residues_give_the_int64_result(self, name, p, dtype):
        call, x, _ = ENTRIES[name]
        x = np.array(x) % p  # negative entries become residues near p
        assert plain(call(x.astype(dtype), p)) == plain(call(x, p))

    @pytest.mark.parametrize("p,dtype", NARROW_PRIMES)
    def test_elimination_widens_narrow_inputs(self, p, dtype):
        # The walk casts its input to the type _exact_type gives, so a narrow
        # input must give what the same int64 input gives.
        rng = np.random.default_rng(p)
        regular = regular_matrix(6, p, rng)
        singular = regular.copy()
        singular[5] = (3 * regular[0] + regular[2]) % p
        for m in (regular, singular):
            assert invertible(m.astype(dtype), p) == invertible(m, p)
        assert invertible(regular, p) and not invertible(singular, p)
        tall = np.concatenate([regular, singular])[:, :3]
        for m in (tall, planted_dependencies(9, 3, p, [(1, 4, 7)], seed=p)):
            want = all_txt_submatrices_invertible(m, 3, p)
            assert all_txt_submatrices_invertible(m.astype(dtype), 3, p) == want
            assert submatrix_checks(m.astype(dtype)[None], 3, p) == [want]
        assert not all_txt_submatrices_invertible(tall, 3, p).ok


# A prime at or below 2^(bits-1) and one above it for each signed width: the
# entry check reads the first through an unsigned view of the entries, the
# second by their minimum alone, since no entry of the dtype reaches it.
SIGNED_EDGES = [
    (np.int8, 127),
    (np.int8, 131),
    (np.int16, 32_749),
    (np.int16, 32_771),
    (np.int32, 2**31 - 1),
    (np.int32, 2_147_483_659),
    (np.int64, 1091),
    (np.int64, P_NEAR_LIMIT),
]


def signed_entries(dtype, p, shape, kind, rng):
    """Entries of dtype: residues, residues with one negative entry or one
    at or above p, or any entries of the dtype ('any')."""
    info = np.iinfo(dtype)
    x = rng.integers(0, min(p, info.max + 1), shape, dtype=dtype)
    spot = tuple(rng.integers(0, shape))
    if kind == "negative":
        x[spot] = rng.integers(info.min, 0)
    elif kind == "large":
        x[spot] = rng.integers(p, info.max, endpoint=True)
    elif kind == "any":
        x = rng.integers(info.min, info.max, shape, dtype=dtype, endpoint=True)
        x.flat[:2] = info.min, info.max
    return x


def entry_cases():
    for dtype, p in SIGNED_EDGES:
        for kind in ("residues", "negative", "large", "any"):
            if kind != "large" or p <= np.iinfo(dtype).max:
                for order in "<>":
                    yield pytest.param(dtype, p, kind, order, id=f"{dtype.__name__}-{p}-{kind}-{order}")


class TestSignedEntryCheck:
    """The entry check of signed operands, through matmul_mod, worker_multiply
    and the T x T checks, against Python ints, in both byte orders, on both
    sides of p = 2^(bits-1)."""

    @pytest.mark.parametrize("dtype,p,kind,order", entry_cases())
    def test_products_and_checks_equal_python_ints(self, dtype, p, kind, order):
        rng = np.random.default_rng(p)
        x = signed_entries(dtype, p, (6, 2), kind, rng)
        x[4] = x[1]  # the subset (1, 4) is singular
        x = x.astype(np.dtype(dtype).newbyteorder(order))
        y = rng.integers(0, p, (2, 5))
        before = x.copy()
        residues = np.array([[int(v) % p for v in row] for row in x.tolist()], dtype=object)
        checked = _residues(x, p)
        assert checked.tolist() == residues.tolist()
        assert (checked is x) == (x.tolist() == residues.tolist())
        want = (residues @ y.astype(object)) % p
        assert matmul_mod(x, y, p).tolist() == want.tolist()
        assert matmul_mod(y.T, x.T, p).tolist() == want.T.tolist()
        # The worker's int64 product wraps past (p-1)^2 * 2 >= 2^63; there it
        # must give the bytes that int64 residues give.
        response = worker_multiply(PrimeField(p), TaskPair(x, y, 0))
        wide = worker_multiply(PrimeField(p), TaskPair(residues.astype(np.int64), y, 0))
        assert response.tobytes() == wide.tobytes()
        if (p - 1) ** 2 * 2 < 2**63:
            assert response.tolist() == want.tolist()
        subsets = list(combinations(range(6), 2))
        first = singular_positions(residues, subsets, p)[0]
        check = SubmatrixCheck(subsets[first - 1], first, "exhaustive")
        assert first <= subsets.index((1, 4)) + 1
        assert submatrix_checks(x[None], 2, p) == [check]
        assert all_txt_submatrices_invertible(x, 2, p) == check
        assert np.array_equal(x, before)

    def test_big_endian_entries_outside_the_field(self):
        # 5632 is 0x1600; its bytes read in the other order give 22 < 23, so
        # a check that ignored the byte order would multiply it unreduced,
        # and float32 holds the sums exactly only up to n = 141.
        for n in range(100, 800):
            a, b = np.full((1, n), 5632, ">i2"), np.full((n, 1), 21, ">i2")
            assert matmul_mod(a, b, 23).tolist() == [[5632 * 21 * n % 23]], n


class TestVandermonde:
    def test_entries(self):
        m = vandermonde((1, 2, 3), (0, 1, 2), 11)
        assert m.tolist() == [[1, 1, 1], [1, 2, 4], [1, 3, 9]]

    def test_generalized_exponents(self):
        m = vandermonde((2,), (0, 3, 10), 11)
        assert m.tolist() == [[1, 8, 1]]  # 2^10 = 1 in F_11

    def test_refuses_non_integer_exponents(self):
        # int(e) would truncate them to the exponents (1, 2).
        with pytest.raises(ValueError, match="integer"):
            vandermonde([2, 3], [1.5, 2.9], 11)
        exponents = np.array([1, 2], dtype=np.uint8)
        assert vandermonde([2, 3], exponents, 11).tolist() == [[2, 4], [3, 9]]


class TestRank:
    def test_rank_fixtures(self):
        # Ranks 1, 2 and 0: only the full-rank matrix is invertible.
        assert not invertible(np.array([[1, 2], [2, 4]]), 11)
        assert invertible(np.array([[1, 2], [2, 5]]), 11)
        assert not invertible(np.zeros((3, 3), dtype=int), 11)

    def test_standard_vandermonde_invertible(self):
        assert invertible(vandermonde((1, 2, 3, 4), (0, 1, 2, 3), 53), 53)


ELIMINATION_PRIMES = [2, 11, P_NEAR_LIMIT]


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


class TestSharedElimination:
    """_singular's forward pass on square matrices, through the T x T check
    of their one n-row subset, against Python int references, at the
    smallest prime, a small one and the largest admissible one."""

    @pytest.mark.parametrize("p", ELIMINATION_PRIMES)
    @pytest.mark.parametrize("n", [1, 2, 5, 17, 40])
    def test_regular_matrices_are_invertible(self, p, n):
        rng = np.random.default_rng(n)
        m = regular_matrix(n, p, rng)
        assert det_mod(m, p) != 0
        assert invertible(m, p)

    @pytest.mark.parametrize("p", ELIMINATION_PRIMES)
    @pytest.mark.parametrize("n", [2, 3, 8, 40])
    def test_zero_leading_pivots(self, p, n):
        rng = np.random.default_rng(100 + n)
        m = anti_triangular(n, p, rng)
        assert m[0, 0] == 0 and det_mod(m, p) != 0
        assert invertible(m, p)

    @pytest.mark.parametrize("p", ELIMINATION_PRIMES)
    def test_elimination_matches_determinant(self, p):
        rng = np.random.default_rng(p % 1000)
        outcomes = set()
        for trial in range(120):
            n = 1 + trial % 9
            m = rng.integers(0, p, (n, n)) * (rng.random((n, n)) < 0.6)
            if trial % 4 == 0 and n > 1:
                m[-1] = m[0] * rng.integers(0, p) % p
            want = det_mod(m, p) != 0
            assert invertible(m, p) == want
            outcomes.add(want)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("p", ELIMINATION_PRIMES)
    @pytest.mark.parametrize("n", [2, 9, 40])
    def test_singular_matrices_fail(self, p, n):
        rng = np.random.default_rng(200 + n)
        dependent = regular_matrix(n, p, rng)
        coeffs = rng.integers(0, p, n - 1).astype(object)
        dependent[-1] = (coeffs @ dependent[:-1].astype(object)) % p
        zero_column = regular_matrix(n, p, rng)
        zero_column[:, n // 2] = 0
        for m in (dependent, zero_column, anti_triangular(n, p, rng) * (np.arange(n) != 0)):
            assert det_mod(m, p) == 0
            assert not invertible(m, p)

    def test_empty_matrix_is_regular(self):
        assert invertible(np.zeros((0, 0), dtype=np.int64), 11)


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
    """(stack, moduli): a (t, t, M) stack of residues, each matrix mod its
    own prime among 2, 11 and P_NEAR_LIMIT, with a drawn share of zero
    entries, so that zero pivots, with and without a row below to repair
    them, are common."""
    t, count = draw(st.integers(1, 5)), draw(st.integers(1, 9))
    moduli = draw(st.lists(st.sampled_from((2, 11, P_NEAR_LIMIT)), min_size=count, max_size=count))
    moduli = np.array(moduli, dtype=np.int64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = rng.integers(0, moduli[:, None, None], (count, t, t))
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
        assert first > _CHUNK > max(_FIRST_CHUNK, _FIRST_WALK)  # past either walk's first chunk
        check = all_txt_submatrices_invertible(m, t, 10007)
        assert check.status == "found_singular"
        assert check.witness == subsets[first - 1]
        assert check.checked == first

    @pytest.mark.parametrize(
        "position",
        [1, *(first_chunk_end(18, 4) + d for d in (-1, 0, 1, 2)), comb(18, 4)],
    )
    def test_witness_position_at_chunk_edges(self, position):
        # One planted singular subset at 1, on either side of the end of the
        # cofactor walk's first chunk (512 of the C(18, 4) = 3,060 subsets,
        # where a prefix's run of subsets ends), or at the last subset:
        # checked is its 1-based position, so at the last subset it equals
        # C(n, t).
        n, t = 18, 4
        subsets = list(combinations(range(n), t))
        m = planted_dependencies(n, t, 1_000_003, [subsets[position - 1]], seed=7)
        assert singular_positions(m, subsets, 1_000_003) == [position]
        check = all_txt_submatrices_invertible(m, t, 1_000_003)
        assert (check.status, check.level) == ("found_singular", "exhaustive")
        assert check.witness == subsets[position - 1]
        assert check.checked == position

    @pytest.mark.parametrize("moduli", [(1_000_003,), (1_000_003, P_NEAR_LIMIT, 33_554_393)])
    @pytest.mark.parametrize("n, t", [(15, 6), (16, 8)])
    def test_elimination_witness_at_chunk_edges(self, n, t, moduli, monkeypatch):
        # Widths above _MINORS_UP_TO are eliminated in chunks that end where
        # a row prefix's run of subsets does: the last within _FIRST_CHUNK
        # subsets, then within _CHUNK more, at 255 and 1,274 of C(15, 6) and
        # 255 and 1,279 of C(16, 8). One matrix per planted subset, the
        # first or last of the run on either side of each of the first two
        # chunk edges, each mod its own modulus, leaves the stacked walk at
        # its own chunk; checked is its 1-based position.
        assert t > _MINORS_UP_TO
        subsets = list(combinations(range(n), t))
        ends = [0] + _prefix_tree(n, t)[2].tolist()
        first = first_chunk_end(n, t, _FIRST_CHUNK)
        edges = (first, first_chunk_end(n, t, _CHUNK, done=first))
        positions = []
        for edge in edges:
            at = ends.index(edge)
            positions += [ends[at - 1] + 1, edge, edge + 1, ends[at + 1]]
        mats, ps = [], [moduli[i % len(moduli)] for i in range(len(positions))]
        for i, (pos, p) in enumerate(zip(positions, ps)):
            m = planted_dependencies(n, t, p, [subsets[pos - 1]], seed=40 + i)
            assert first_singular_reference(m, t, p) == (subsets[pos - 1], pos)
            mats.append(m)
        want = [SubmatrixCheck(subsets[pos - 1], pos, "exhaustive") for pos in positions]
        assert submatrix_checks(np.stack(mats), t, ps) == want
        sizes = []
        singular = pdmm_linalg._singular
        monkeypatch.setattr(
            "pdmm.linalg._singular", lambda a, p: sizes.append(a.shape[2]) or singular(a, p)
        )
        assert [all_txt_submatrices_invertible(m, t, p) for m, p in zip(mats, ps)] == want
        # The last matrix, planted past the second edge, walks three chunks.
        assert sizes[-3:-1] == [edges[0], edges[1] - edges[0]]

    def test_planted_dependency_near_the_int64_edge(self):
        # Summed in int64 the planted row wrapped, and none of the 126 4-row
        # subsets was singular.
        subsets = list(combinations(range(9), 4))
        m = planted_dependencies(9, 4, P_NEAR_LIMIT, [(2, 3, 5, 8)], seed=493)
        position = subsets.index((2, 3, 5, 8)) + 1
        assert singular_positions(m, subsets, P_NEAR_LIMIT) == [position]
        assert all_txt_submatrices_invertible(m, 4, P_NEAR_LIMIT).checked == position

    def test_stacked_walk_equals_one_matrix_checks(self):
        # Each matrix has its own modulus and at most one planted singular
        # subset, on either side of the end of the first chunk (511 of the
        # C(21, 3) = 1,330 subsets) or last, so the matrices leave the walk at
        # different chunks; two more mod 11 have many singular subsets. Each
        # check must be the one the one-matrix check returns.
        n, t = 21, 3
        subsets = list(combinations(range(n), t))
        edge = first_chunk_end(n, t)
        positions = [1] + [edge + d for d in (0, 1, 2)] + [len(subsets), None]
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
        # subset 540 of C(16, 3) = 560, past the first chunk's 510, then walks
        # the second chunk alone.
        subsets = list(combinations(range(16), 3))
        assert first_chunk_end(16, 3) < 540
        mats = [
            planted_dependencies(16, 3, 1_000_003, [subsets[0]], seed=1),
            planted_dependencies(16, 3, 1_000_003, [subsets[539]], seed=2),
        ]
        assert singular_positions(mats[1], subsets, 1_000_003) == [540]
        checks = submatrix_checks(np.stack(mats), 3, 1_000_003)
        assert [c.checked for c in checks] == [1, 540]
        assert checks == [all_txt_submatrices_invertible(m, 3, 1_000_003) for m in mats]

# The elimination's type, for widths above _MINORS_UP_TO, at either side of
# each switch of _exact_type(p, 1): the largest prime on float32, the smallest
# past it, the largest on float64, the smallest past it, and the largest
# prime at or below _MAX_P.
RUNGS = [
    (4_093, np.float32),
    (4_099, np.float64),
    (94_906_249, np.float64),
    (94_906_297, np.int64),
    (P_NEAR_LIMIT, np.int64),
]

# The cofactor walk's type at width t, _exact_type(p, t): float32 while
# t (p-1)^2 + p < 2^24, float64 while (p-1)^2 + p < 2^53, int64 past that.
# Its sums of t products fit one chunk while t (p-1)^2 + p < 2^m, m = 24, 53
# or 63, and are reduced in chunks of fewer terms past it. Per width: the
# largest prime on float32, the smallest past it, and the largest prime whose
# t products fit one float64 chunk and the smallest past it (for t = 1, the
# switch to int64).
WALK_EDGES = {
    1: (4_093, 4_099, 94_906_249, 94_906_297),
    2: (2_897, 2_903, 67_108_859, 67_108_879),
    3: (2_357, 2_371, 54_794_149, 54_794_197),
    4: (2_039, 2_053, 47_453_111, 47_453_149),
    5: (1_831, 1_847, 42_443_351, 42_443_377),
}
# Past the edges, at every width above 1: the largest prime on float64, whose
# sums are reduced term by term, the smallest on int64, in one chunk, and two
# int64 primes whose sums are reduced every 2 terms and term by term.
EDGE_KINDS = (np.float32, np.float64, np.float64, np.float64)
PAST_EDGES = [(94_906_249, np.float64)] + [
    (p, np.int64) for p in (94_906_297, 2_147_483_647, P_NEAR_LIMIT)
]
WALK_RUNGS = [
    (t, p, np.int64 if (t, p) == (1, 94_906_297) else kind)
    for t, edges in WALK_EDGES.items()
    for p, kind in zip(edges, EDGE_KINDS)
] + [(t, p, kind) for t in range(2, _MINORS_UP_TO + 1) for p, kind in PAST_EDGES]


def first_singular_reference(m, t, p):
    """(witness, checked) of the T x T check of m, by Python-int determinants
    of its row subsets in lexicographic order."""
    subsets = list(combinations(range(len(m)), t))
    for i, rows in enumerate(subsets):
        if det_mod(m[list(rows)], p) == 0:
            return rows, i + 1
    return None, len(subsets)


def rung_matrices(p, t, seed):
    """(t + 5) x t matrices mod p: random; that with its last subset made
    singular; that with zeros in rows 0 and 1, so that the first pivots of
    the subsets holding them are zero and are repaired by a row added from
    below, and with its subset (1, 4, 5, ..), which needs such a repair,
    made singular; and the last again with unreduced and negative entries."""
    n = t + 5
    rng = np.random.default_rng(seed)
    regular = rng.integers(1, p, (n, t))

    def singular(m, rows):
        m = m.copy()
        coeffs = rng.integers(1, p, t - 1).astype(object)
        m[rows[-1]] = (coeffs @ m[list(rows[:-1])].astype(object)) % p
        return m

    zeros = regular.copy()
    zeros[:2, :2] = 0
    zeros = singular(zeros, (1, *range(4, t + 3)))
    shifted = zeros + p * rng.integers(-3, 4, (n, t))
    shifted[0, 0] = -p
    return {
        "random": regular,
        "planted": singular(regular, tuple(range(n - t, n))),
        "zero pivots": zeros,
        "unreduced": shifted,
    }


def assert_equals_reference(t, p, mats):
    """Both fronts on each matrix give the Python-int reference, and the
    matrices hold both outcomes."""
    outcomes = set()
    for name, m in mats.items():
        witness, checked = first_singular_reference(m, t, p)
        want = SubmatrixCheck(witness, checked, "exhaustive")
        assert all_txt_submatrices_invertible(m, t, p) == want, name
        assert submatrix_checks(m[None], t, [p]) == [want], name
        outcomes.add(witness is None)
    assert outcomes == {True, False}


class TestWalkRungs:
    """The T x T walk in each type of _exact_type's ladder, against
    Python-int determinants: the cofactor walk at every width it serves, and
    the elimination above it."""

    @pytest.mark.parametrize("t,p,kind", WALK_RUNGS)
    def test_walk_equals_python_int_reference(self, t, p, kind, monkeypatch):
        walks = []

        def recorded(cols, q, width, step):
            walks.append((cols.dtype.type, type(q), step))
            return walk(cols, q, width, step)

        def no_elimination(*args):
            raise AssertionError("a width the cofactor walk serves was eliminated")

        walk = pdmm_linalg._cofactor_walk
        monkeypatch.setattr("pdmm.linalg._cofactor_walk", recorded)
        monkeypatch.setattr("pdmm.linalg._singular", no_elimination)
        assert_equals_reference(t, p, rung_matrices(p, t, seed=p % 1000 + t))
        ((got, modulus, step),) = set(walks)
        bits = {np.float32: 24, np.float64: 53, np.int64: 63}[kind]
        assert (got, modulus) == (kind, kind)
        assert (step >= t) == ((p - 1) ** 2 * t + p < 2**bits)

    @pytest.mark.parametrize("p,kind", RUNGS)
    def test_elimination_equals_python_int_reference(self, p, kind, monkeypatch):
        kinds = []

        def recorded(a, q):
            kinds.append((a.dtype.type, type(q)))
            return _singular(a, q)

        monkeypatch.setattr("pdmm.linalg._singular", recorded)
        t = _MINORS_UP_TO + 1
        assert_equals_reference(t, p, rung_matrices(p, t, seed=p % 1000))
        assert set(kinds) == {(kind, kind)}

    @pytest.mark.parametrize(
        "t,pair", [(4, (2_039, 2_053)), (4, (94_906_249, 94_906_297)), (6, (4_093, 4_099))]
    )
    def test_stack_across_two_rungs(self, t, pair):
        # One walk in the larger modulus' type equals one walk per matrix in
        # its own.
        mats, moduli = [], []
        for p in pair:
            by_name = rung_matrices(p, t, seed=p % 997)
            mats += by_name.values()
            moduli += [p] * len(by_name)
        alone = [submatrix_checks(m[None], t, p)[0] for m, p in zip(mats, moduli)]
        assert submatrix_checks(np.stack(mats), t, moduli) == alone
        assert {c.ok for c in alone} == {True, False}


class TestCofactorWalk:
    """The cofactor walk's prefixes, chunks and memory."""

    @pytest.mark.parametrize("t", range(1, _MINORS_UP_TO + 1))
    @pytest.mark.parametrize(
        "moduli",
        [(2, 11, 13, 2_039, 11, 1_831), (11, 1_000_003, P_NEAR_LIMIT, 94_906_249, 2, 67_108_859)],
    )
    def test_chunked_stacks_equal_the_reference(self, t, moduli, monkeypatch):
        # Chunks of 3 to 8 subsets, so that chunks end inside and at the end
        # of a prefix's run, every level's run of prefixes starts mid-way,
        # and the matrices, each mod its own prime with one subset planted
        # singular from the first to the last, leave the walk at different
        # chunks.
        n = t + 6
        subsets = list(combinations(range(n), t))
        spots = [0, 1, len(subsets) // 3, len(subsets) // 2, len(subsets) - 2, len(subsets) - 1]
        mats = [
            planted_dependencies(n, t, p, [subsets[spot]], seed=31 * t + i)
            for i, (p, spot) in enumerate(zip(moduli, spots))
        ]
        want = [
            SubmatrixCheck(*first_singular_reference(m, t, p), "exhaustive")
            for m, p in zip(mats, moduli)
        ]
        whole = [all_txt_submatrices_invertible(m, t, p) for m, p in zip(mats, moduli)]
        monkeypatch.setattr("pdmm.linalg._FIRST_WALK", 3)
        monkeypatch.setattr("pdmm.linalg._WALK_CHUNK", 8 * t)
        assert submatrix_checks(np.stack(mats), t, list(moduli)) == want == whole
        assert [all_txt_submatrices_invertible(m, t, p) for m, p in zip(mats, moduli)] == want
        assert len({c.checked for c in want}) > 2

    @pytest.mark.parametrize("n, t", [(1, 1), (6, 1), (7, 2), (9, 3), (10, 4), (11, 5), (5, 5)])
    def test_prefixes_are_the_lexicographic_runs(self, n, t):
        # Each (t-1)-row prefix, read back through its parents, in order,
        # with the subsets up to it.
        parents, rows, ends = _prefix_tree(n, t)
        prefixes = [tuple(_prefix_rows(parents, rows, j).tolist()) for j in range(len(ends))]
        assert prefixes == list(combinations(range(n - 1), t - 1))
        # An index array reads every prefix at once, one column each.
        every = _prefix_rows(parents, rows, np.arange(len(ends)))
        assert every.shape == (t - 1, len(ends)) and every.T.tolist() == [list(q) for q in prefixes]
        runs = [n - 1 - (p[-1] if p else -1) for p in prefixes]
        assert ends.tolist() == list(np.cumsum(runs)) and ends[-1] == comb(n, t)

    def test_temporaries_stay_chunk_sized(self):
        # A one-matrix walk of the C(60, 4) = 487,635 subsets holds one
        # chunk's determinants, about _WALK_CHUNK, their quotients and minors
        # at a time, and its prefixes (C(59, 3) of them, 0.8 MiB): its peak,
        # 4.8 chunks in float64 measured, is a small multiple of one chunk,
        # not of the walk.
        m = planted_dependencies(60, 4, 33_554_393, [], seed=6)
        tracemalloc.start()
        try:
            check = all_txt_submatrices_invertible(m, 4, 33_554_393)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert check.checked == comb(60, 4)
        assert peak <= 6 * _WALK_CHUNK * 8
