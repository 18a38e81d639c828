"""Dense exact linear algebra over a prime field.

A matrix over F_p is an int64 array and an int p: every public function
takes or returns that form, refuses p above isqrt(2^63 - 1) = 3,037,000,499,
so that products of two residues stay inside int64, and divides its input by
p only when some entry lies outside [0, p). All elimination and every
product is exact. One product kernel, matmul_mod, serves encode, the
simulated workers and decode. One elimination, the division-free forward
pass _singular on (t, t+m, M) stacks, with one modulus or one per matrix,
serves is_invertible, solve, which back-substitutes on the upper triangular
system it leaves, and the T x T submatrix checks: submatrix_checks walks a
stack of matrices, each mod its own p, through all of their row subsets at
once, and all_txt_submatrices_invertible is its one-matrix case. No check
samples: each walks every subset or stops at the first singular one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .field import _MAX_P


class SingularMatrixError(Exception):
    """Square system has no unique solution."""


# Output elements per row slab of matmul_mod: bounds its float64 temporary.
_SLAB = 1 << 20


def _check_p(p: int):
    if p > _MAX_P:
        raise ValueError(f"p = {p} exceeds {_MAX_P}: products of two residues overflow int64")


def _residues(x, p) -> np.ndarray:
    """x as int64, reduced mod p only if some entry lies outside [0, p).
    p is an int, or an int64 array that broadcasts against x: a modulus per
    entry.

    Callers pass residues almost always, and % p costs more than the float64
    product it feeds; min and max cost a fraction of it. The result is x
    itself when x is already a reduced int64 array: read it, never write it.
    """
    x = np.asarray(x, dtype=np.int64)
    if x.size and (x.min() < 0 or (x.max() >= p if isinstance(p, int) else (x >= p).any())):
        return x % p
    return x


def _matrix(m, p: int) -> np.ndarray:
    """m as a 2-D int64 array of residues mod p, by _residues' rule, once p
    is checked."""
    _check_p(p)
    m = _residues(m, p)
    if m.ndim != 2:
        raise ValueError(f"expected 2-D matrix, got shape {m.shape}")
    return m


def matmul_mod(a, b, p: int) -> np.ndarray:
    """Exact (a @ b) mod p as an int64 array, for integer matrices and p <= _MAX_P.

    Entries may be negative or >= p: an operand with an entry outside [0, p)
    is reduced mod p first, one already in [0, p) is used as it is. Neither
    input is modified, and the output is a new array. With delayed
    reduction, as in FFLAS-FFPACK: a float64 BLAS product is exact
    while every partial sum is an integer below 2^53, so the inner dimension
    runs in chunks of k with (p-1)^2 * k + p < 2^53, one chunk whenever the
    whole product fits; where a single product of residues does not fit, in
    int64 chunks with (p-1)^2 * k + p < 2^63. Each chunk is reduced mod p
    before the next is added. Output rows are made in slabs, so that no
    float64 copy of the whole result exists next to the int64 one.

    Raises ValueError for p > _MAX_P, like every function here.
    """
    a, b = _matrix(a, p), _matrix(b, p)
    if a.shape[1] != b.shape[0]:
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


def vandermonde(points, exponents, p: int) -> np.ndarray:
    """Generalized Vandermonde matrix M[i][j] = points[i] ** exponents[j] mod p,
    for a vector of integer points."""
    _check_p(p)
    if np.ndim(points) != 1:
        raise ValueError(f"expected a vector of points, got shape {np.shape(points)}")
    rows = [[pow(int(x) % p, int(e), p) for e in exponents] for x in points]
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(exponents))


def _singular(a: np.ndarray, p) -> np.ndarray:
    """Which matrices of a (t, t+m, M) stack of residues are singular in
    their first t columns, for any t and m >= 0. p is one modulus for the
    whole stack or an array of M, one per matrix, broadcast along the last
    axis. Overwrites the stack.

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
            # a[k, :, cols] is (len(cols), t+m): one modulus per row of it.
            pc = p[cols, None] if isinstance(p, np.ndarray) else p
            a[k, :, cols] = (a[k, :, cols] + a[rows, :, cols]) % pc
        rest = a[k + 1 :, k + 1 :]
        rest *= a[k, k]
        rest -= a[k + 1 :, k, None] * a[k, k + 1 :]
        if isinstance(p, np.ndarray):
            # rest %= p, whose slow branch for negative entries costs more
            # than fmod with an array of moduli: lift fmod's negative
            # remainders by p instead.
            np.fmod(rest, p, out=rest)
            rest += (rest >> 63) & p
        else:
            rest %= p
    return a[t - 1, t - 1] == 0


def is_invertible(m, p: int) -> bool:
    m = _matrix(m, p)
    return m.shape[0] == m.shape[1] and not _singular(m[:, :, None].copy(), p)[0]


def solve(m, rhs, p: int) -> np.ndarray:
    """Solve M X = rhs; M must be square and regular.

    _singular's forward pass on [M | rhs] leaves an equivalent upper
    triangular system, solved from the last row up with one inverse per
    pivot. Only the entries on and above the diagonal are read: those below
    are stale.
    """
    m, rhs = _matrix(m, p), _matrix(rhs, p)
    n = m.shape[0]
    if m.shape[1] != n:
        raise SingularMatrixError(f"matrix is {n}x{m.shape[1]}, not square")
    if rhs.shape[0] != n:
        raise ValueError("rhs row count does not match matrix dimension")
    aug = np.concatenate([m, rhs], axis=1)[:, :, None]
    if _singular(aug, p)[0]:
        raise SingularMatrixError(f"{n}x{n} matrix is singular")
    u, x = aug[:, :n, 0], aug[:, n:, 0]
    for k in range(n - 1, -1, -1):
        x[k] = x[k] * pow(int(u[k, k]), p - 2, p) % p
        x[:k] = (x[:k] - u[:k, k, None] * x[k]) % p
    return x


# Certification levels of a T x T check, strongest first: decided from the
# points by structure, or every subset eliminated.
LEVELS = ("structural", "exhaustive")


@dataclass(frozen=True)
class SubmatrixCheck:
    """Outcome of the all-TxT-submatrices invertibility check.

    witness holds the first singular row subset, if one was found. level says
    how the matrix was checked: 'exhaustive' (the subsets in lexicographic
    order) or 'structural' (a proof from the points, with no subset
    eliminated; checked is then C(n, t)). status is 'found_singular' when
    there is a witness, else 'verified_all'.
    """

    witness: tuple[int, ...] | None
    checked: int
    level: str

    @property
    def status(self) -> str:
        return "verified_all" if self.witness is None else "found_singular"

    @property
    def ok(self) -> bool:
        return self.witness is None


# Row subsets are checked in chunks so that a singular subset ends the check
# without enumerating or testing the rest. The first chunk is smaller, since
# a matrix with a singular subset most often shows one early; after the
# second, chunks double up to _LAST_CHUNK, since a matrix still in the walk
# most often has none.
_FIRST_CHUNK, _CHUNK, _LAST_CHUNK = 256, 1024, 4096


@lru_cache(maxsize=8)
def _combination_indices(n: int, t: int) -> np.ndarray:
    """All C(n, t) row subsets in lexicographic order (for t = 0 the empty
    one), shared and read-only, in the smallest integer dtype that holds n:
    one byte per index for n <= 255."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), t))
    dtype = np.min_scalar_type(n)
    idx = np.fromiter(flat, dtype=dtype, count=comb(n, t) * t).reshape(comb(n, t), t)
    idx.flags.writeable = False
    return idx


def _first_singular(cols: np.ndarray, n: int, g: int, p, subsets: np.ndarray) -> list[int]:
    """The position in subsets of each matrix's first singular row subset,
    or len(subsets) when it has none. Singularity is transpose-invariant, so
    cols holds g matrices of residues, each n x t, transposed and side by
    side: row r of matrix m is column m*n + r of the t x g*n array. p is
    one int modulus or an array of g.

    Subsets are tested in chunks, every matrix still in the walk at once,
    and a matrix leaves the walk at its first singular subset.
    """
    t = cols.shape[0]
    first = [len(subsets)] * g
    live = list(range(g))  # the matrices still in the walk
    start, size = 0, _FIRST_CHUNK
    while start < len(subsets) and live:
        chunk = subsets[start : start + size]
        c = len(chunk)
        rows = chunk.T
        if len(live) > 1 or live[0]:
            # Entry [i, k * L + l] is row chunk[k, i] of the l-th of L live matrices.
            rows = (rows[:, :, None] + n * np.array(live)).reshape(t, c * len(live))
        # np.take lays the submatrices out C-contiguous, [column, row, matrix],
        # where fancy indexing would leave the row operations strided.
        bad = _singular(
            np.take(cols, rows, axis=1), np.tile(p, c) if isinstance(p, np.ndarray) else p
        )
        if np.flatnonzero(bad).size:
            bad = bad.reshape(c, len(live))
            hit = bad.any(axis=0)
            for j, k in zip(np.flatnonzero(hit).tolist(), bad[:, hit].argmax(axis=0).tolist()):
                first[live[j]] = start + k
            live = [m for m, h in zip(live, hit.tolist()) if not h]
            if isinstance(p, np.ndarray):
                p = p[~hit]
        start, size = start + c, _CHUNK if size == _FIRST_CHUNK else min(2 * size, _LAST_CHUNK)
    return first


def _check(position: int, subsets: np.ndarray) -> SubmatrixCheck:
    if position == len(subsets):
        return SubmatrixCheck(None, position, "exhaustive")
    return SubmatrixCheck(tuple(subsets[position].tolist()), position + 1, "exhaustive")


def submatrix_checks(mats, t: int, p) -> list[SubmatrixCheck]:
    """all_txt_submatrices_invertible on each n x t matrix of a (G, n, t)
    stack, matrix g mod p[g] (or all mod one int p), in one walk: the G
    matrices walk the same subsets, and check g is the one the one-matrix
    check returns on matrix g alone. Entries outside [0, p) are reduced by
    their own matrix's modulus.
    """
    mats = np.asarray(mats, dtype=np.int64)
    if mats.ndim != 3 or mats.shape[2] != t:
        raise ValueError(f"expected a stack of n x {t} matrices, got shape {mats.shape}")
    g, n, _ = mats.shape
    if not isinstance(p, int):
        p = np.asarray(p, dtype=np.int64).ravel()
        if p.size and (p == p[0]).all():  # one modulus: _singular's faster reduction
            p = int(p[0])
        elif p.size != g:
            raise ValueError(f"expected one modulus or {g}, got {p.size}")
    _check_p(p if isinstance(p, int) else int(p.max(initial=0)))
    mats = _residues(mats, p if isinstance(p, int) else p[:, None, None])
    subsets = _combination_indices(n, t)
    cols = mats.transpose(2, 0, 1).reshape(t, g * n)
    return [_check(i, subsets) for i in _first_singular(cols, n, g, p, subsets)]


def all_txt_submatrices_invertible(m, t: int, p: int) -> SubmatrixCheck:
    """Check invertibility mod p of every t-row submatrix of the n x t
    matrix m: the one-matrix case of submatrix_checks.

    The C(n, t) subsets are walked in lexicographic order, in chunks, and
    the check stops at the first singular subset and returns it as the
    witness; checked is then its 1-based position. Otherwise every subset
    has been tested, and checked is C(n, t). The level is 'exhaustive'.
    """
    return submatrix_checks(np.asarray(m)[None], t, p)[0]
