"""Dense exact linear algebra over a prime field.

Matrices are numpy int64 arrays reduced mod p; all elimination and every
product is exact. The field must keep products of two residues inside int64,
so p is at most isqrt(2^63 - 1) = 3,037,000,499. One elimination, the
division-free forward pass _singular on (t, t+m, M) stacks, serves the
batched T x T submatrix checks, is_invertible, and solve, which
back-substitutes on the upper triangular system it leaves.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .field import _MAX_P, PrimeField


class SingularMatrixError(Exception):
    """Square system has no unique solution."""


# Output elements per row slab of matmul_mod: bounds its float64 temporary.
_SLAB = 1 << 20


def _check_p(p: int):
    if p > _MAX_P:
        raise ValueError(f"p = {p} exceeds {_MAX_P}: products of two residues overflow int64")


def matmul_mod(a, b, p: int) -> np.ndarray:
    """Exact (a @ b) mod p as an int64 array, for integer matrices and p <= _MAX_P.

    Entries are reduced mod p first, so they may be negative or >= p. With
    delayed reduction, as in FFLAS-FFPACK: a float64 BLAS product is exact
    while every partial sum is an integer below 2^53, so the inner dimension
    runs in chunks of k with (p-1)^2 * k + p < 2^53, one chunk whenever the
    whole product fits; where a single product of residues does not fit, in
    int64 chunks with (p-1)^2 * k + p < 2^63. Each chunk is reduced mod p
    before the next is added. Output rows are made in slabs, so that no
    float64 copy of the whole result exists next to the int64 one.

    Raises ValueError for p > _MAX_P, like FieldMatrix.
    """
    _check_p(p)
    a = np.asarray(a, dtype=np.int64) % p
    b = np.asarray(b, dtype=np.int64) % p
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"cannot multiply shapes {a.shape} and {b.shape}")
    sq = (p - 1) ** 2
    if sq + p < 2**53:
        dtype, step = np.float64, (2**53 - 1 - p) // sq
    else:
        dtype, step = np.int64, (2**63 - 1 - p) // sq
    a, b = a.astype(dtype, copy=False), b.astype(dtype, copy=False)
    inner = a.shape[1]
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    rows = max(1, _SLAB // max(1, b.shape[1]))
    for r in range(0, a.shape[0], rows):
        dst = out[r : r + rows]
        for k in range(0, inner, step):
            prod = a[r : r + rows, k : k + step] @ b[k : k + step]
            if k:
                np.add(dst, prod, out=dst, casting="unsafe")
            else:
                dst[...] = prod
            dst %= p
    return out


@dataclass
class FieldMatrix:
    data: np.ndarray
    field: PrimeField

    def __post_init__(self):
        _check_p(self.field.p)
        arr = np.asarray(self.data, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError(f"expected 2-D matrix, got shape {arr.shape}")
        self.data = arr % self.field.p

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldMatrix)
            and self.field.p == other.field.p
            and self.data.shape == other.data.shape
            and bool(np.array_equal(self.data, other.data))
        )


def vandermonde(points, exponents, field: PrimeField) -> FieldMatrix:
    """Generalized Vandermonde matrix M[i][j] = points[i] ** exponents[j] in F_p."""
    p = field.p
    rows = [[pow(int(pt) % p, int(e), p) for e in exponents] for pt in points]
    return FieldMatrix(np.array(rows, dtype=np.int64), field)


def _singular(a: np.ndarray, p: int) -> np.ndarray:
    """Which matrices of a (t, t+m, M) stack of residues mod p are singular
    in their first t columns, for any t and m >= 0. Overwrites the stack.

    Division-free elimination, as in Bareiss' fraction-free method but without
    its exact division, which mod p is not needed: each step multiplies the
    rows below the pivot by the pivot and subtracts a multiple of the pivot
    row, so no inverses are needed and every product stays below p^2.
    A zero pivot is replaced by adding the first row below with a nonzero
    entry in its column, which keeps the determinant. If a column has no
    nonzero entry left, every later row becomes zero; so a matrix is singular
    exactly when its last diagonal entry ends at zero. Row operations span
    all t+m columns, so a regular matrix leaves an equivalent upper
    triangular system [U | c]: row k is exact from column k on, and the
    entries below the diagonal are stale, never zeroed. A 0 x 0 matrix is
    regular.
    """
    t = a.shape[0]
    if t == 0:
        return np.zeros(a.shape[2], dtype=bool)
    for k in range(t - 1):
        zero = np.flatnonzero(a[k, k] == 0)
        if zero.size:
            below = a[k + 1 :, k, zero] != 0
            has = below.any(axis=0)
            cols, rows = zero[has], k + 1 + below.argmax(axis=0)[has]
            a[k, :, cols] = (a[k, :, cols] + a[rows, :, cols]) % p
        rest = a[k + 1 :, k + 1 :]
        rest *= a[k, k]
        rest -= a[k + 1 :, k, None] * a[k, k + 1 :]
        rest %= p
    return a[t - 1, t - 1] == 0


def is_invertible(m: FieldMatrix) -> bool:
    return m.rows == m.cols and not _singular(m.data[:, :, None].copy(), m.field.p)[0]


def solve(m: FieldMatrix, rhs: FieldMatrix) -> FieldMatrix:
    """Solve M X = rhs; M must be square and regular.

    _singular's forward pass on [M | rhs] leaves an equivalent upper
    triangular system, solved from the last row up with one inverse per
    pivot. Only the entries on and above the diagonal are read: those below
    are stale.
    """
    if m.rows != m.cols:
        raise SingularMatrixError(f"matrix is {m.rows}x{m.cols}, not square")
    if m.rows != rhs.rows:
        raise ValueError("rhs row count does not match matrix dimension")
    n, p = m.rows, m.field.p
    aug = np.concatenate([m.data, rhs.data], axis=1)[:, :, None]
    if _singular(aug, p)[0]:
        raise SingularMatrixError(f"{n}x{n} matrix is singular")
    u, x = aug[:, :n, 0], aug[:, n:, 0]
    for k in range(n - 1, -1, -1):
        x[k] = x[k] * pow(int(u[k, k]), p - 2, p) % p
        x[:k] = (x[:k] - u[:k, k, None] * x[k]) % p
    return FieldMatrix(x, m.field)


# Certification levels of a T x T check, strongest first: decided from the
# points by structure, every subset eliminated, or a seeded sample eliminated.
LEVELS = ("structural", "exhaustive", "sampled")


@dataclass(frozen=True)
class SubmatrixCheck:
    """Outcome of the all-TxT-submatrices invertibility check.

    witness holds the first singular row subset, if one was found. level says
    how the matrix was checked: 'exhaustive' (the subsets in lexicographic
    order), 'sampled' (a seeded sample of them), or 'structural' (a proof from
    the points, with no subset eliminated; checked is then C(n, t)). status is
    read from the two: 'found_singular' when there is a witness, else
    'verified_sample' for a sampled check, else 'verified_all'. A sampled pass
    is no proof, yet ok counts it as passing.
    """

    witness: tuple[int, ...] | None
    checked: int
    level: str

    @property
    def status(self) -> str:
        if self.witness is not None:
            return "found_singular"
        return "verified_sample" if self.level == "sampled" else "verified_all"

    @property
    def ok(self) -> bool:
        return self.witness is None


# Row subsets are checked in chunks so that a singular subset ends the check
# without enumerating or testing the rest. The first chunk is smaller, since
# a matrix with a singular subset most often shows one early.
_FIRST_CHUNK, _CHUNK = 256, 1024


@lru_cache(maxsize=8)
def _combination_indices(n: int, t: int) -> np.ndarray:
    """All C(n, t) row subsets in lexicographic order, shared and read-only."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), t))
    idx = np.fromiter(flat, dtype=np.intp, count=comb(n, t) * t).reshape(-1, t)
    idx.flags.writeable = False
    return idx


@lru_cache(maxsize=8)
def _sampled_subsets(n: int, t: int, count: int, seed: int) -> np.ndarray:
    """`count` sorted t-row subsets drawn from random.Random(seed), in draw
    order, shared and read-only. Filled chunk by chunk in the smallest
    integer dtype that holds n, so no list of all the draws is ever built."""
    rng = random.Random(seed)
    population = range(n)
    out = np.empty((count, t), dtype=np.min_scalar_type(n))
    for start in range(0, count, _CHUNK):
        size = min(_CHUNK, count - start)
        out[start : start + size] = [sorted(rng.sample(population, t)) for _ in range(size)]
    out.flags.writeable = False
    return out


def all_txt_submatrices_invertible(
    m: FieldMatrix, t: int, budget: int = 100_000, seed: int = 0
) -> SubmatrixCheck:
    """Check invertibility of every (or a seeded sample of) t-row submatrix
    of the n x t matrix m.

    Exhaustive when C(n, t) <= budget, walking the subsets in lexicographic
    order; otherwise a deterministic pseudorandom sample of `budget` sorted
    subsets drawn from random.Random(seed). Subsets are tested in chunks,
    and the check stops at the first singular subset in that order and
    returns it as the witness; checked is then its 1-based position.
    Otherwise every subset has been tested, and checked is C(n, t)
    (level 'exhaustive') or `budget` (level 'sampled').
    """
    if m.cols != t:
        raise ValueError(f"matrix has {m.cols} columns, expected t={t}")
    n = m.rows
    if comb(n, t) <= budget:
        level, subsets = "exhaustive", _combination_indices(n, t)
    else:
        level, subsets = "sampled", _sampled_subsets(n, t, budget, seed)
    # Singularity is transpose-invariant, so each stack holds its submatrices
    # transposed: entry [j, i, c] is row chunk[c, i], column j. np.take lays
    # it out C-contiguous, the subsets innermost, where fancy indexing would
    # leave the row operations strided.
    transposed = m.data.T
    start, size = 0, _FIRST_CHUNK
    while start < len(subsets):
        chunk = subsets[start : start + size]
        bad = np.flatnonzero(_singular(np.take(transposed, chunk.T, axis=1), m.field.p))
        if bad.size:
            i = int(bad[0])
            return SubmatrixCheck(tuple(int(r) for r in chunk[i]), start + i + 1, level)
        start, size = start + size, _CHUNK
    return SubmatrixCheck(None, len(subsets), level)
