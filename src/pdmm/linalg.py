"""Dense exact linear algebra over a prime field.

A matrix over F_p is an integer array and an int p. Every public function,
and _matmul_parts' left operand, takes its input by one entry rule,
_residues. It raises ValueError for non-integer entries, for an input of the
wrong number of dimensions, for p below 2, which has no residues, and for p
above isqrt(2^63 - 1) = 3,037,000,499, past which a product of two residues
overflows int64. It divides by p, in int64, only when some entry lies
outside [0, p), which one reduction over a signed operand finds, and
reduces unsigned entries exactly. Signed residues are read in their own
dtype (int8, int16, int32, as encode writes its shares). Every matrix
returned is int64, and every result exact. Exactness is decided in one
place, _exact_type: the smallest of float32, float64 and int64 in which the
products of residues mod p are exact. One product kernel, _mulmod, serves
encode, the simulated workers and decode: it multiplies residues cast to
that type, in chunks, and reduces the output tile by tile in cache, each
temporary a tile-sized array that numpy allocates where it is made. A
product of one tile and one chunk (a worker's task, a level of the walk,
encode and decode at small sizes) is one product and one reduction, with
no slicing. It checks nothing; its callers do. matmul_mod,
the public front, checks and casts both operands. _matmul_parts, for
encode and decode, copies each part of its right operand once, straight
into the kernel's type, checks [0, p) there, and writes any integer dtype
(encode's narrow shares). The simulated workers of pdmm.scheme cast
encode's shares, residues by construction, and call the kernel on stacks
of workers, about one tile of output per call. Decoding eliminates
nothing, since the scheme inverts its Vandermonde decode matrix in closed
form. The T x T submatrix checks are the one other use of the kernel:
submatrix_checks walks a stack of G n x t matrices, each mod its own p,
through the row subsets of all of them at once, in lexicographic order,
and a matrix leaves the stack at its first singular subset;
all_txt_submatrices_invertible is its one-matrix case. Both engines read
that order off one tree of row prefixes, _prefix_tree, chunk by chunk. For
t up to _MINORS_UP_TO the walk, _cofactor_walk, shares minors between
subsets: a subset P + {i}, i > max(P), is singular exactly when
d[i] . c_P = 0 (mod p), c_P the cofactors of the row prefix P. Each
prefix's minors come from its parent's by one _mulmod against a matrix of
Laplace signs, and the last level is one _mulmod of the cofactors against
d.T, in the type _exact_type(p, t) gives. Wider checks are eliminated by the
division-free forward pass _singular, over (t, t, M) stacks of a chunk's
subsets, in the type _exact_type(p, 1) gives. The kernel's tiles, the
walk's levels and the elimination's steps share one reduction, _reduce,
whose exactness matmul_mod proves. No check samples: each walks every
subset or stops at the first singular one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod

import numpy as np

from .field import _MAX_P


# Output elements per tile of matmul_mod: a tile and its quotients, at most
# 512 KiB each in float64, are reduced while they are still in the L2 cache.
_TILE = 1 << 16


def _integers(x) -> np.ndarray:
    """x as an array of integers: as it is when its dtype is a signed or
    unsigned integer or bool, an empty int64 array when it is empty. Float,
    complex and other non-integer entries raise ValueError, since a cast to
    int64 would truncate them silently."""
    x = np.asarray(x)
    if x.dtype.kind not in "iub":
        if x.size:
            raise ValueError(f"expected integer entries, got dtype {x.dtype}")
        x = x.astype(np.int64)
    return x


def _residues(x, p, ndim: int | None = None) -> np.ndarray:
    """x as residues mod p, by the entry rule of every public function here.

    p is an int, or an int64 array of moduli, one per entry, that broadcasts
    against x. p or a modulus below 2 or above _MAX_P, non-integer entries (by
    _integers' rule) and an x of other than ndim dimensions, when ndim is
    given, raise ValueError. Signed residues are returned as they are, in
    their own dtype: x itself, to be read, never written, since % p costs
    more than the float product it feeds, and the one reduction that finds
    an entry outside [0, p) a fraction of it. For an int p at most
    2^(bits-1) of x's dtype, that is the maximum of x read as unsigned, in
    x's own byte order, where a negative entry reads as 2^(bits-1) or more;
    for a larger p, which no entry of the dtype reaches, the minimum. An
    array of moduli takes the minimum and a comparison. The kernel and the
    walk of submatrix_checks cast residues to the type _exact_type gives.
    An entry outside [0, p) is reduced in int64; unsigned and bool entries,
    which may lie at or above 2^63, in uint64 first.
    """
    low = p if isinstance(p, int) else int(np.min(p, initial=2))
    if low < 2:
        raise ValueError(f"p = {low} is below 2: there are no residues mod it")
    top = p if isinstance(p, int) else int(np.max(p, initial=0))
    if top > _MAX_P:
        raise ValueError(f"p = {top} exceeds {_MAX_P}: products of two residues overflow int64")
    x = _integers(x)
    if ndim is not None and x.ndim != ndim:
        raise ValueError(f"expected a {ndim}-D array, got shape {x.shape}")
    if x.dtype.kind in "ub":
        return np.remainder(x, np.asarray(p, dtype=np.uint64)).astype(np.int64)
    if not x.size:
        return x
    if not isinstance(p, int):
        outside = x.min() < 0 or (x >= p).any()
    elif p <= 1 << (8 * x.itemsize - 1):
        # Read as unsigned, in x's own byte order, a negative entry is at
        # least 2^(bits-1) >= p: one reduction finds both kinds of outlier.
        outside = x.view(x.dtype.str.replace("i", "u")).max() >= p
    else:
        outside = x.min() < 0  # no entry of the dtype reaches p
    return np.asarray(x, dtype=np.int64) % p if outside else x


@lru_cache(maxsize=256)
def _exact_type(p: int, inner: int):
    """The smallest type in which a product of residues mod p over inner
    terms is exact, and its chunk k of inner terms (see matmul_mod); cached,
    since the many small products pay for every call."""
    sq = (p - 1) ** 2
    if sq * inner + p < 2**24:
        return np.float32, max(1, inner)
    if sq + p < 2**53:
        return np.float64, (2**53 - 1 - p) // sq
    return np.int64, (2**63 - 1 - p) // sq


def matmul_mod(a, b, p: int) -> np.ndarray:
    """Exact (a @ b) mod p as an int64 array, for integer matrices and p <= _MAX_P.

    The checked front of the product kernel _mulmod. Entries may be
    negative or >= p: an operand with an entry outside [0, p) is reduced
    mod p in int64 first; one already in [0, p) is used as it is, in any
    signed integer dtype. Both are then cast to the kernel's type. Neither
    input is modified, and the output is a new array.

    The product is taken, as in FFLAS-FFPACK, in the smallest type in which
    it is exact, with delayed reduction over chunks of k inner terms, each
    chunk reduced mod p before the next is added:
    - float32 BLAS, one chunk, when (p-1)^2 * inner + p < 2^24;
    - float64 BLAS with (p-1)^2 * k + p < 2^53, one chunk whenever the whole
      product fits, while (p-1)^2 + p < 2^53 (p <= 94,906,249);
    - int64 with (p-1)^2 * k + p < 2^63 beyond that.
    Every partial sum is then an integer below 2^m, m = 24, 53 or 63, so
    no sum is rounded and none wraps. The output is made in tiles of about
    _TILE entries. Each tile is reduced while it is in cache and written to
    the output once, so no temporary the size of the output exists.

    Each tile is reduced by _reduce, the one reduction, which the T x T
    walks share. An int64 tile is reduced as y - (y // p) * p. A float y,
    a tile here or an elimination step's difference of two products of
    residues there, is reduced as r = y - p * floor(y / p). That is exact
    for every integer p - 2^m <= y < 2^m, m = 24 for float32 and 53 for
    float64, the significand's precision: a tile lies in [0, 2^m), and a step's
    difference in [-(p-1)^2, (p-1)^2], with (p-1)^2 + p < 2^m by the
    elimination's _exact_type(p, 1). The cofactor walk's tiles, sums of at
    most step products of a residue and a residue or its negation added to
    a reduced sum, lie in (-(p-1)^2 * step, (p-1)^2 * step + p), with
    (p-1)^2 * step + p < 2^m by its _exact_type(p, t). Write y = k*p + c
    with k = floor(y/p) and 0 <= c < p. Rounding to nearest is symmetric,
    fl(-x) = -fl(x), so the quotient y/p is rounded, whatever its sign, to
    a float off by at most 2^-m * |y|/p < 1/p. When c = 0, y/p = k is a
    float, since |k| <= |y| < 2^m, and fl(y/p) = k. Otherwise y/p = k + c/p
    lies at least 1/p from both k and k + 1, so k < fl(y/p) < k + 1. Either
    way its floor is k. Then 0 <= k*p <= y < 2^m for y >= 0, and |k*p| =
    |y| + c < |y| + p <= 2^m for y < 0, so k*p is a float product without
    rounding, and y - k*p = c a float difference without rounding. c is
    an integer-valued float in [0, p), so one cast writes it exactly into
    any integer dtype that holds p - 1.

    Raises ValueError for p < 2 or p > _MAX_P, like every function here.
    """
    a, b = _residues(a, p, 2), _residues(b, p, 2)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"cannot multiply shapes {a.shape} and {b.shape}")
    kind, step = _exact_type(p, a.shape[1])
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.int64)
    return _mulmod(a.astype(kind, copy=False), b.astype(kind, copy=False), p, step, out)


def _mulmod(a: np.ndarray, b: np.ndarray, p, step: int, out: np.ndarray) -> np.ndarray:
    """Write (a @ b) mod p into out and return it: the kernel behind
    matmul_mod, _matmul_parts, the simulated workers of pdmm.scheme and
    the levels of the cofactor walk, which check its operands or build
    them as residues.

    a and b hold residues mod p in the type that _exact_type(p, inner)
    gives, and step is the chunk of inner terms that it gives; nothing here
    checks them. The cofactor walk passes two other kinds of operands:
    residues against negated residues, -(p-1) .. 0, and Laplace signs, -1,
    0 and 1, against products of two residues, in chunks with no more
    nonzero signs in a row than _exact_type's step. Either way a chunk's
    sum, added to a reduced one, stays within the bounds of matmul_mod's
    proof of _reduce. a and b are matrices, or stacks of matrices along
    leading axes, multiplied as np.matmul does, and p is an int or, for a
    stack, an array of that type that broadcasts against the output. out
    is any integer array of the product's shape that holds p - 1 (encode's
    narrow shares, int64 elsewhere), or an array of a and b's type. Each
    chunk's product, the tile's running sum and _reduce's quotients are
    arrays of at most _TILE entries, which numpy allocates where they are
    made. An output of at most _TILE entries over at most step inner terms
    is the loop's one pass, made without its slicing: one product, reduced
    into out. A 12 x 96 by 96 x 12 float32 product so took 3.9-4.5 us, of
    which the product took 1.2-1.4 us and _reduce 2.1-2.4 us (timeit, best
    of 5, 2 vCPUs, numpy 2.4.6).
    """
    (rows, inner), cols = a.shape[-2:], b.shape[-1]
    modulus = p if isinstance(p, np.ndarray) else a.dtype.type(p)
    if out.size <= _TILE and inner <= step:  # one tile of one chunk
        return _reduce(a @ b, modulus, out)
    tile = _TILE // max(1, prod(out.shape[:-2]))
    height = max(1, min(rows, tile))
    width = max(1, tile // height)
    for r in range(0, rows, height):
        for c in range(0, cols, width):
            dst, y = out[..., r : r + height, c : c + width], None
            for k in range(0, max(1, inner), step):
                chunk = a[..., r : r + height, k : k + step] @ b[..., k : k + step, c : c + width]
                y = chunk if y is None else np.add(y, chunk, out=y)
                _reduce(y, modulus, dst if k + step >= inner else y)
    return out


def _reduce(y: np.ndarray, p, out: np.ndarray) -> np.ndarray:
    """Write y mod p into out, in [0, p), and return it: the one reduction
    of _mulmod's tiles, the cofactor walk's among them, and _singular's
    steps.

    y holds integers in the type _exact_type gives, p - 2^m <= y < 2^m
    (see matmul_mod's proof), and p is a scalar, or an array that
    broadcasts against y, of the same type. out is y, or shares no memory
    with it, and holds p - 1; y is written only when out is y.

    One rule serves every type. The quotient is made in a new array of y's
    type, floor(y / p) for a float y and y // p for an int64 one (numpy
    divides by one int64 by multiplication), and is then multiplied by p in
    place. When out has y's type the difference y - q is written straight
    into out. Otherwise it is written into q, whose entries are then exact
    residues in [0, p), and one np.copyto casts q into out, in place of a
    mixed-type subtract, which numpy runs through its buffered cast loop.
    """
    if y.dtype.kind == "f":
        q = y / p
        np.floor(q, out=q)
    else:
        q = y // p
    q *= p
    if out.dtype == y.dtype:
        return np.subtract(y, q, out=out)
    np.subtract(y, q, out=q)
    np.copyto(out, q, casting="unsafe")
    return out


def _matmul_parts(left, parts, p: int, dtype) -> np.ndarray:
    """Exact (left @ S) mod p as a new array of dtype, where row i of S is
    parts[i] raveled: encode's and decode's product.

    left is a small matrix, checked and cast like matmul_mod's operands.
    The parts, of one shape and any integer dtype, may be strided views.
    np.stack copies each once, in C, straight into its row of S in the
    kernel's type, and S is then checked for entries outside [0, p). That
    check is exact on a float S too: an integer is rounded to a float
    monotonically, and 0 and p - 1 are floats, so x < 0 exactly when
    fl(x) < 0, and x > p - 1 exactly when fl(x) > p - 1. Unsigned entries at
    or above 2^63 wrap to negatives in an int64 S and are caught the same
    way. Each part with an entry outside [0, p) is reduced by _residues and
    copied again. Non-integer parts raise ValueError, by _integers' rule, as
    do parts of different shapes.
    """
    left = _residues(left, p, 2)
    parts = [_integers(part) for part in parts]
    shape = parts[0].shape
    kind, step = _exact_type(p, len(parts))
    s = np.empty((len(parts), prod(shape)), dtype=kind)
    np.stack(parts, out=s.reshape(len(parts), *shape), casting="unsafe")
    if s.size and (s.min() < 0 or s.max() > p - 1):
        for i in np.flatnonzero((s.min(axis=1) < 0) | (s.max(axis=1) > p - 1)).tolist():
            s[i] = _residues(parts[i], p).ravel()
    out = np.empty((left.shape[0], s.shape[1]), dtype=dtype)
    return _mulmod(left.astype(kind), s, p, step, out)


def vandermonde(points, exponents, p: int) -> np.ndarray:
    """Generalized Vandermonde matrix M[i][j] = points[i] ** exponents[j] mod p,
    for vectors of integer points and integer exponents: non-integer
    exponents raise ValueError, by _integers' rule, as points do."""
    points, exponents = _residues(points, p, 1), _integers(exponents).tolist()
    rows = [[pow(x, e, p) for e in exponents] for x in points.tolist()]
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(exponents))


def _singular(a: np.ndarray, p) -> np.ndarray:
    """Which matrices of a (t, t, M) stack of residues, t >= 1, are singular.
    The stack is in the type _exact_type(p, 1) gives for its largest modulus
    (float32, float64 or int64), and p is one modulus for the whole stack,
    or an array of M, one per matrix, broadcast along the last axis, in the
    same type. Overwrites the stack.

    Division-free elimination, as in Bareiss' fraction-free method but without
    its exact division, which mod p is not needed: each step multiplies the
    rows below the pivot by the pivot and subtracts a multiple of the pivot
    row, so no inverses are needed. Every product, at most (p-1)^2, and
    every difference, in [-(p-1)^2, (p-1)^2], is then an integer that the
    stack's type holds exactly, and _reduce is exact on it (see matmul_mod).
    A zero pivot is replaced by adding the first row below with a nonzero
    entry in its column, which keeps the determinant. If a column has no
    nonzero entry left, every later row becomes zero; so a matrix is singular
    exactly when its last diagonal entry ends at zero.
    """
    t = a.shape[0]
    for k in range(t - 1):
        zero = np.flatnonzero(a[k, k] == 0)
        if zero.size:
            below = a[k + 1 :, k, zero] != 0
            has = below.any(axis=0)
            cols, rows = zero[has], k + 1 + below.argmax(axis=0)[has]
            # a[k, :, cols] is (len(cols), t): one modulus per row of it.
            pc = p[cols, None] if isinstance(p, np.ndarray) else p
            added = a[k, :, cols] + a[rows, :, cols]
            a[k, :, cols] = _reduce(added, pc, added)
        rest = a[k + 1 :, k + 1 :]
        rest *= a[k, k]
        rest -= a[k + 1 :, k, None] * a[k, k + 1 :]
        _reduce(rest, p, rest)
    return a[t - 1, t - 1] == 0


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


# Widths up to _MINORS_UP_TO are walked by shared minors (_cofactor_walk),
# wider ones by elimination. Over whole one-matrix walks on 2 vCPUs, minors
# took 0.26-0.31 of elimination's time at widths 4 and 5 (C(53, 4) and
# C(40, 5) subsets), 0.52 at width 6 (C(25, 6)) and 0.68 at width 7
# (C(20, 7)), but 1.8 and 2.3 times it on C(14, 7) and C(16, 8): there the
# C(t, k) minors per prefix at each level outgrow the subsets they serve.
_MINORS_UP_TO = 5

# The cofactor walk's chunks: the first holds the prefixes of the first
# _FIRST_WALK subsets, since a matrix with a singular subset most often shows
# one early; each later one about _WALK_CHUNK determinants of the live
# matrices together, so that a one-matrix walk of C(35, 3) takes two. The
# instantiate scans' walks took 1.01 of elimination's time with 256 first
# subsets and 0.85-0.89 with 512; the dog-rs (8,8,5) scan took 0.75-1.06 s
# at 2^16 determinants, 0.97-1.40 s at 2^15, and no less at 2^17.
_FIRST_WALK, _WALK_CHUNK = 512, 1 << 16

# The signs 1, -1, 1, .. of the walk's widths: a product with float32,
# float64 or int64 residues keeps their type.
_ALTERNATING = np.array([(-1) ** s for s in range(_MINORS_UP_TO)], dtype=np.int8)


@lru_cache(maxsize=8)
def _prefix_tree(n: int, t: int):
    """The row prefixes of the t-row subsets of n rows, read by both walks.

    Level k holds, in lexicographic order, the k-row prefixes that a t-row
    subset can start with: those whose last row is at most n - 1 - (t - k).
    Level 0 is the empty prefix, whose last row is -1. Returns (parents,
    rows, ends): for each level k = 1 .. t-1, parents[k - 1] and
    rows[k - 1] give each prefix's (k-1)-row prefix (its index one level
    down) and its last row, so rows[-1], or [-1] for t = 1, holds the last
    row c of each (t-1)-row prefix P, whose n - 1 - c extensions P + {i},
    i > c, come in lexicographic order. ends[j] is the number of t-row
    subsets that start with a (t-1)-row prefix up to j, where a chunk ends.
    """
    parents, rows = [], []
    last = np.array([-1], dtype=np.intp)
    for k in range(1, t):
        counts = np.maximum(n - 1 - (t - k) - last, 0)
        parent = np.repeat(np.arange(len(last)), counts)
        first = np.cumsum(counts) - counts  # each parent's first child
        last = last[parent] + 1 + np.arange(len(parent)) - first[parent]
        parents.append(parent)
        rows.append(last)
    return parents, rows, np.cumsum(n - 1 - last)


@lru_cache(maxsize=32)
def _laplace(t: int, k: int, kind) -> np.ndarray:
    """The level-k expansion of a width-t walk as a matrix of signs in the
    walk's type: row J, a column set of size k in lexicographic order, has
    the Laplace sign (-1)^(k-1+m) of the m-th column j of J at column
    j * C(t, k-1) + J', J' the index of J less j among the (k-1)-sets, and
    zeros elsewhere; read-only."""
    below = {cols: i for i, cols in enumerate(itertools.combinations(range(t), k - 1))}
    signs = np.zeros((comb(t, k), t * len(below)), dtype=kind)
    for row, cols in enumerate(itertools.combinations(range(t), k)):
        for m, j in enumerate(cols):
            signs[row, j * len(below) + below[cols[:m] + cols[m + 1 :]]] = (-1) ** (k - 1 + m)
    signs.flags.writeable = False
    return signs


def _prefix_rows(parents: list, rows: list, idx) -> np.ndarray:
    """The rows of the (t-1)-row prefixes idx of _prefix_tree, one index or
    an array of them, read back through their parents: a (t-1,) + idx.shape
    array, first row first."""
    out = np.empty((len(rows),) + np.shape(idx), dtype=np.intp)
    for k in range(len(rows) - 1, -1, -1):
        out[k] = rows[k][idx]
        idx = parents[k][idx]
    return out


def _chunk_minors(cols: np.ndarray, p, step: int, parents: list, rows: list, start: int, stop: int):
    """The minors of the (t-1)-row prefixes start .. stop - 1 of _prefix_tree
    on every (t-1)-column set, laid out [matrix, column set, prefix], for
    _cofactor_walk's (G, t, n) cols. They are built level by level from the
    run of shorter prefixes they extend, a contiguous run at every level:
    level 1 is cols, and each level k comes from level k-1 by one _mulmod of
    _laplace's signs against the products of each prefix's last row and its
    parent's minors."""
    g, t, _ = cols.shape
    if t == 1:  # the empty prefix
        return np.ones((g, 1, 1), dtype=cols.dtype)
    spans = [(start, stop)]  # the run of prefixes at each level, top down
    for parent in reversed(parents[1:]):
        lo, hi = spans[-1]
        spans.append((int(parent[lo]), int(parent[hi - 1]) + 1))
    spans.reverse()
    minors = cols[:, :, spans[0][0] : spans[0][1]]
    for k in range(2, t):
        (lo, hi), below = spans[k - 1], spans[k - 2][0]
        entries = np.take(cols, rows[k - 1][lo:hi], axis=2)[:, :, None]
        terms = entries * np.take(minors, parents[k - 1][lo:hi] - below, axis=2)[:, None]
        signs = _laplace(t, k, cols.dtype.type)
        out = np.empty((g, len(signs), hi - lo), dtype=cols.dtype)
        # A row of signs has k nonzeros: one chunk holds them all when step does.
        chunk = signs.shape[1] if step >= k else step
        minors = _mulmod(signs, terms.reshape(g, -1, hi - lo), p, chunk, out)
    return minors


def _cofactor_walk(cols: np.ndarray, p, t: int, step: int) -> list[tuple | None]:
    """The first singular t-row subset of each matrix of a (G, t, n) stack
    of G matrices of residues, each n x t, transposed, as (witness,
    checked), or None when it has none. cols is in the type
    _exact_type(p, t) gives for its largest modulus, whose chunk of inner
    terms is step, and p is a scalar of that type or a (G, 1, 1) array of
    one modulus per matrix.

    A subset P + {i} with i > max(P) is singular exactly when d[i] . c_P = 0
    (mod p), where c_P is the vector of cofactors of the (t-1)-row prefix P:
    its signed (t-1) x (t-1) minors, which _chunk_minors builds level by
    level by expansion along each prefix's last row. The last level is one
    _mulmod of the prefixes' minors against d.T, signed, so the first zero
    in row-major order with i > max(P) is the first singular subset in
    lexicographic order; checked counts the subsets up to P, less those
    after i. Every sum of step signed products of two residues lies in
    [-(p-1)^2 * step, (p-1)^2 * step], and _reduce is exact on it, plus a
    reduced sum before it (see matmul_mod).

    The prefixes are walked in lexicographic chunks (_FIRST_WALK subsets
    first, then about _WALK_CHUNK determinants of the live matrices), each
    with the run of shorter prefixes it needs at every level; a matrix leaves
    the stack at its first singular subset.
    """
    g, _, n = cols.shape
    parents, rows, ends = _prefix_tree(n, t)
    last = rows[-1] if rows else np.array([-1], dtype=np.intp)
    # The last level's right operand: at column set s the prefixes' minors
    # lack column j = t-1-s, whose Laplace sign is (-1)^(t-1+j) = (-1)^s.
    right = cols[:, ::-1] * _ALTERNATING[:t, None]
    positions = np.arange(n)
    found: list[tuple | None] = [None] * g
    live = list(range(g))  # the input position of each matrix left in the stack
    total = int(ends[-1])
    start, done, budget = 0, 0, _FIRST_WALK  # done: the subsets before prefix start
    while start < len(ends) and live:
        if total - done <= budget:
            stop = len(ends)
        else:
            stop = max(start + 1, int(np.searchsorted(ends, done + budget, side="right")))
        minors = _chunk_minors(cols, p, step, parents, rows, start, stop)
        top = last[start:stop]
        col = int(top.min()) + 1
        dets = np.empty((len(live), stop - start, n - col), dtype=cols.dtype)
        _mulmod(minors.transpose(0, 2, 1), right[:, :, col:], p, step, dets)
        zero = (dets == 0) & (positions[col:] > top[:, None])  # i > max(P)
        zero = zero.reshape(len(live), -1)
        if zero.any():
            hit = zero.any(axis=1)
            hits = np.flatnonzero(hit)
            for j, at in zip(hits.tolist(), zero[hits].argmax(axis=1).tolist()):
                prefix, i = divmod(at, n - col)
                idx, i = start + prefix, col + i
                checked = int(ends[idx]) - (n - 1 - i)
                found[live[j]] = ((*_prefix_rows(parents, rows, idx).tolist(), i), checked)
            if stop < len(ends):
                keep = ~hit
                live = [m for m, h in zip(live, hit.tolist()) if not h]
                cols, right = cols[keep], right[keep]
                if isinstance(p, np.ndarray):
                    p = p[keep]
        start, done = stop, int(ends[stop - 1])
        budget = max(_FIRST_WALK, _WALK_CHUNK // max(1, len(live) * t))
    return found


# Elimination's budgets of subsets per chunk: a singular subset ends the
# check without building or testing the rest. The first chunk is
# smaller, since a matrix with a singular subset most often shows one early;
# after the second, chunks double up to _LAST_CHUNK, since a matrix still in
# the walk most often has none.
_FIRST_CHUNK, _CHUNK, _LAST_CHUNK = 256, 1024, 4096


def _elimination_walk(cols: np.ndarray, p, t: int) -> list[tuple | None]:
    """The walk of widths above _MINORS_UP_TO, by _singular: each matrix's
    first singular t-row subset, as (witness, checked), checked its 1-based
    position, or None when it has none, as _cofactor_walk returns it.
    Singularity is transpose-invariant, so cols is a (t, n, G) stack of G
    matrices of residues, each n x t, transposed: entry [k, r, m] is row r,
    column k of matrix m. p is one modulus or an array of G, in cols' type
    (see _singular).

    A chunk holds the runs of the prefixes of _prefix_tree that end within
    its budget of subsets, as a (t, c) array of row indices: each prefix's
    rows repeated over its run, then the run's last rows. Every matrix left
    in the walk is eliminated on it at once, and leaves the walk, and the
    stack, at its first singular subset.
    """
    _, n, g = cols.shape
    parents, rows, ends = _prefix_tree(n, t)
    found: list[tuple | None] = [None] * g
    live = list(range(g))  # the input position of each matrix left in cols
    start, done, budget = 0, 0, _FIRST_CHUNK  # done: the subsets before prefix start
    while start < len(ends) and live:
        stop = max(start + 1, int(np.searchsorted(ends, done + budget, side="right")))
        heads = np.empty((t, stop - start), dtype=np.intp)
        heads[:-1] = _prefix_rows(parents, rows, np.arange(start, stop))
        # Subset done + o, in the run that ends at subset ends[j], ends in
        # row n - ends[j] + done + o.
        heads[-1] = n + done - ends[start:stop]
        chunk = np.repeat(heads, n - 1 - rows[-1][start:stop], axis=1)
        c = chunk.shape[1]
        chunk[-1] += np.arange(c)
        # np.take lays the submatrices out C-contiguous, [column, row, subset,
        # matrix], where fancy indexing would leave the row operations strided.
        bad = _singular(
            np.take(cols, chunk, axis=1).reshape(t, t, c * len(live)),
            np.tile(p, c) if isinstance(p, np.ndarray) else p,
        )
        if np.flatnonzero(bad).size:
            bad = bad.reshape(c, len(live))
            hit = bad.any(axis=0)
            for j, k in zip(np.flatnonzero(hit).tolist(), bad[:, hit].argmax(axis=0).tolist()):
                found[live[j]] = (tuple(chunk[:, k].tolist()), done + k + 1)
            live = [m for m, h in zip(live, hit.tolist()) if not h]
            cols = cols[:, :, ~hit]
            if isinstance(p, np.ndarray):
                p = p[~hit]
        start, done = stop, done + c
        budget = _CHUNK if budget == _FIRST_CHUNK else min(2 * budget, _LAST_CHUNK)
    return found


def submatrix_checks(mats, t: int, p) -> list[SubmatrixCheck]:
    """all_txt_submatrices_invertible on each n x t matrix of a (G, n, t)
    stack, matrix g mod p[g] (or all mod one int p), in one walk: the G
    matrices walk the same subsets, and check g is the one the one-matrix
    check returns on matrix g alone. Entries outside [0, p) are reduced by
    their own matrix's modulus.
    """
    mats = np.asarray(mats)
    if mats.ndim != 3 or mats.shape[2] != t:
        raise ValueError(f"expected a stack of n x {t} matrices, got shape {mats.shape}")
    g = mats.shape[0]
    if not isinstance(p, int):
        p = np.asarray(p, dtype=np.int64).ravel()
        # One modulus as an int: elimination then tiles no moduli per chunk.
        # Its walk of dog-rs (5,5,5) r=1 s=3's beta_s (292,825 subsets) in
        # the scan took 0.031-0.032 s so, 0.034-0.035 s as an array (2 vCPUs).
        if p.size and (p == p[0]).all():
            p = int(p[0])
        elif p.size != g:
            raise ValueError(f"expected one modulus or {g}, got {p.size}")
    mats = _residues(mats, p if isinstance(p, int) else p[:, None, None])
    # The walk runs in the smallest type in which a sum of t products of two
    # residues (one product for elimination) mod the largest modulus is
    # exact; every smaller modulus is exact in it.
    top = p if isinstance(p, int) else int(p.max(initial=0))
    n = mats.shape[1]
    if t == 0 or t > n:  # one empty subset, or none
        found = [None] * g
    elif t <= _MINORS_UP_TO:
        kind, step = _exact_type(top, t)
        p = kind(p) if isinstance(p, int) else p.astype(kind)[:, None, None]
        cols = np.ascontiguousarray(mats.transpose(0, 2, 1), dtype=kind)
        found = _cofactor_walk(cols, p, t, step)
    else:
        kind = _exact_type(top, 1)[0]
        p = kind(p) if isinstance(p, int) else p.astype(kind)
        cols = mats.transpose(2, 1, 0).astype(kind)
        found = _elimination_walk(cols, p, t)
    passed = SubmatrixCheck(None, comb(n, t), "exhaustive")
    return [passed if f is None else SubmatrixCheck(*f, "exhaustive") for f in found]


def all_txt_submatrices_invertible(m, t: int, p: int) -> SubmatrixCheck:
    """Check invertibility mod p of every t-row submatrix of the n x t
    matrix m: the one-matrix case of submatrix_checks.

    The C(n, t) subsets are walked in lexicographic order, in chunks, and
    the check stops at the first singular subset and returns it as the
    witness; checked is then its 1-based position. Otherwise every subset
    has been tested, and checked is C(n, t). The level is 'exhaustive'.
    """
    return submatrix_checks(np.asarray(m)[None], t, p)[0]
