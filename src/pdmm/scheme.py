"""Executable matrix-multiplication schemes built from degree vectors.

Covers the full pipeline: choose a field and evaluation points, partition
the inputs, encode worker tasks, simulate the workers, decode the product,
and verify privacy both by rank checks and by exhaustive enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from math import comb, isqrt, lcm

import numpy as np

from .degrees import (
    DegreeVectors,
    ParameterError,
    _integer,
    _progression_order,
    _progression_steps,
    addition_table,
    quadrants,
    validate_degree_table,
)
from .field import _MAX_P, FieldError, PrimeField, _primitive_root, is_prime
from .linalg import (
    _TILE,
    LEVELS,
    SubmatrixCheck,
    _exact_type,
    _integers,
    _matmul_parts,
    _mulmod,
    _residues,
    all_txt_submatrices_invertible,
    submatrix_checks,
    vandermonde,
)


class SchemeError(Exception):
    """Scheme instantiation or simulation failure."""


class BudgetExceededError(SchemeError):
    """An exhaustive verification would exceed its enumeration budget or
    walk cap; raised before anything is checked."""


# splitmix64's state increment and its two mixing multipliers.
_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

# Draws that SplitMix64.matrix mixes at a time: uint64 arrays of 128 KiB,
# which stay in the L2 cache. _STEPS[i] = (i + 1) * _GAMMA mod 2^64.
_DRAWS = 1 << 14
_STEPS = np.arange(1, _DRAWS + 1, dtype=np.uint64) * np.uint64(_GAMMA)


class SplitMix64:
    """Portable seeded generator (splitmix64); used for all scheme randomness.
    The seed is an int by degrees._integer's rule, taken mod 2^64."""

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = _integer(seed, "seed") & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & self.MASK
        z = ((z ^ (z >> 27)) * _MIX2) & self.MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection sampling, for
        1 <= n <= 2^64; any other n raises ValueError, since there are no
        draws below it or a 64-bit draw cannot reach them all. n is an int
        by degrees._integer's rule."""
        n = _integer(n, "n")
        if not 1 <= n <= 1 << 64:
            raise ValueError(f"n = {n} lies outside [1, 2^64]")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n

    def matrix(self, rows: int, cols: int, p: int) -> np.ndarray:
        """rows x cols draws of below(p), row by row, as int64, for
        1 <= p <= 2^63; any other p raises ValueError, since its draws would
        not fit int64 or there are none. rows, cols and p are ints by
        degrees._integer's rule.

        The next rows * cols states are state + i * _GAMMA, so the stream is
        mixed in numpy uint64, _DRAWS draws at a time. Two uint64 arrays of
        at most _DRAWS entries, made once per call, hold every temporary:
        a chunk is mixed in place in one, the other takes each shift and
        then the quotient, and the chunk is reduced straight into the int64
        result as z - (z // p) * p, whose division by one uint64 numpy makes
        by multiplication (libdivide), several times faster than z % p.
        When a draw of any chunk would be rejected, the whole matrix is
        drawn again by the scalar loop from the state it started at, which
        keeps the stream exact; the state advances only at the end.
        """
        rows, cols, p = _integer(rows, "rows"), _integer(cols, "cols"), _integer(p, "p")
        if not 1 <= p <= 1 << 63:
            raise ValueError(f"p = {p} lies outside [1, 2^63]")
        count = rows * cols
        u64 = np.uint64
        modulus, limit = u64(p), (1 << 64) - (1 << 64) % p  # draws >= limit are rejected
        out = np.empty(count, dtype=np.int64)
        chunk, scratch = (np.empty(min(count, _DRAWS), dtype=u64) for _ in range(2))
        for start in range(0, count, _DRAWS):
            n = min(_DRAWS, count - start)
            z, tmp = chunk[:n], scratch[:n]
            np.add(_STEPS[:n], u64((self.state + start * _GAMMA) & self.MASK), out=z)
            for shift, mix in ((30, _MIX1), (27, _MIX2)):
                np.right_shift(z, u64(shift), out=tmp)
                z ^= tmp
                z *= u64(mix)
            np.right_shift(z, u64(31), out=tmp)
            z ^= tmp
            if limit < 1 << 64 and z.max() >= limit:
                return np.array(
                    [[self.below(p) for _ in range(cols)] for _ in range(rows)], dtype=np.int64
                )
            np.floor_divide(z, modulus, out=tmp)
            tmp *= modulus
            np.subtract(z, tmp, out=out[start : start + n].view(u64))
        self.state = (self.state + count * _GAMMA) & self.MASK
        return out.reshape(rows, cols)


@dataclass(frozen=True)
class PdmmScheme:
    """A fully instantiated scheme: degree vectors, field, evaluation points.

    gamma is the strictly ascending tuple of distinct degree-table entries,
    one per point of rho, as quadrants(dv).gamma gives it. Encoding and
    decoding need omega, with the points among omega^0 .. omega^(N-1); the
    privacy checks do not. rho, gamma and omega are ints by degrees._integer's
    rule.
    """

    dv: DegreeVectors
    field: PrimeField
    rho: tuple[int, ...]
    gamma: tuple[int, ...]
    omega: int | None = None
    family: str | None = None
    params: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        for name in ("rho", "gamma"):
            object.__setattr__(self, name, tuple(_integer(x, name) for x in getattr(self, name)))
        if self.omega is not None:
            object.__setattr__(self, "omega", _integer(self.omega, "omega"))
        p = self.field.p
        residues = {x % p for x in self.rho}
        if len(residues) != len(self.rho) or 0 in residues:
            raise SchemeError(f"evaluation points must be distinct and nonzero mod p = {p}")
        if len(self.rho) != len(self.gamma):
            raise SchemeError("need exactly one evaluation point per distinct degree")
        if any(a >= b for a, b in zip(self.gamma, self.gamma[1:])):
            raise SchemeError("gamma must be strictly ascending")

    @property
    def n_workers(self) -> int:
        return len(self.rho)

    @property
    def t_privacy(self) -> int:
        return self.dv.t

    # The two linear maps of the pipeline and the sigma both read, built on first
    # use. cached_property stores them in __dict__, which a frozen dataclass allows.

    @cached_property
    def _sigma(self) -> np.ndarray:
        """The exponents sigma_i of the points rho_i = omega^sigma_i, looked up
        among omega^0 .. omega^(N-1), walked one multiplication at a time as
        _ratio walks them: the rows of omega's power tables that both maps
        read.
        Raises SchemeError, on first encode or decode, when omega is None or
        a point is not among them, and ValueError for p above _MAX_P."""
        p, n, omega = self.field.p, self.n_workers, self.omega
        if omega is None:
            raise SchemeError("encoding and decoding need omega: the points must be its powers")
        if p > _MAX_P:
            raise ValueError(f"p = {p} exceeds {_MAX_P}: products of two residues overflow int64")
        steps = itertools.repeat(omega, n - 1)
        points = itertools.accumulate(steps, lambda x, w: x * w % p, initial=1)
        index = {x: k for k, x in enumerate(points)}
        sigma = [index.get(x % p) for x in self.rho]
        if None in sigma:
            stray = self.rho[sigma.index(None)]
            raise SchemeError(f"point {stray} is not among omega^0 .. omega^{n - 1}")
        return np.array(sigma)

    @cached_property
    def _encoders(self) -> tuple[np.ndarray, np.ndarray]:
        """E_A (N x (K+T)) and E_B (N x (L+T)): the share polynomials'
        generalized Vandermonde matrices at rho, data exponents first, as
        rows sigma of one table of omega's powers, which _powers builds by
        doubling from one pow per exponent. Refuses what _sigma refuses."""
        sigma, dv = self._sigma, self.dv
        exps_a = dv.alpha_p + dv.alpha_s
        m = _powers((self.omega,), (self.field.p,), exps_a + dv.beta_p + dv.beta_s, self.n_workers)
        return m[sigma, : len(exps_a)], m[sigma, len(exps_a) :]

    @cached_property
    def _decoder(self) -> np.ndarray:
        """The KL x N rows of V^-1, V[i][j] = rho_i^gamma_j, that give the
        coefficients of the block products A_i B_j, in row-major (i, j) order.

        On rho_i = omega^sigma_i, V[i][j] = z_j^sigma_i in the nodes
        z_j = omega^gamma_j, so row j of V^-1 is Lagrange's L_j = Q_j / Q_j(z_j)
        read at the powers sigma_i, with Q_j = M / (x - z_j) and
        M = prod(x - z_k): no elimination. _master gives M's coefficients
        m_0 .. m_N, highest first. The coefficient of x^(N-1-k) in Q_j is
        u_k z_j^(k-N+1), with u_k = sum_{i <= k} m_i z_j^(N-1-i), and
        Q_j(z_j) = sum_k u_k. So the rows are a cumulative sum, two sums and
        a few products along the KL x N table of the powers z_j^k, which
        _powers builds by doubling: int64 array operations, in which every
        product of two residues stays below 2^63 for p <= _MAX_P, and so
        does every sum of N residues.

        Raises SchemeError, on first decode, when gamma is not the table's
        distinct sums or two nodes coincide, and what _sigma raises.
        """
        if tuple(self.gamma) != quadrants(self.dv).gamma:
            raise SchemeError("gamma is not the degree table's distinct sums, ascending")
        sigma, p, n, omega = self._sigma, self.field.p, self.n_workers, self.omega
        nodes = [pow(omega, g, p) for g in self.gamma]
        if len(set(nodes)) < n:
            raise SchemeError(f"nodes omega^gamma collide mod {p}: the decode matrix is singular")
        master = _master(nodes, p)
        data = addition_table(self.dv)[: self.dv.k, : self.dv.l].ravel().tolist()
        powers = np.ascontiguousarray(_powers((omega,), (p,), data, n).T)  # z_j^k
        u = np.cumsum(master[:n] * powers[:, ::-1] % p, axis=1) % p
        scale = u.sum(axis=1) % p * powers[:, -1] % p
        w = np.array([pow(v, -1, p) for v in scale.tolist()], dtype=np.int64)
        return (u * powers % p)[:, n - 1 - sigma] * w[:, None] % p


@dataclass(frozen=True)
class PartitionedMatrix:
    blocks: tuple[np.ndarray, ...]
    original_rows: int
    original_cols: int
    padding: int


@dataclass(frozen=True)
class TaskPair:
    a_share: np.ndarray
    b_share: np.ndarray
    worker: int


@dataclass(frozen=True)
class Randomness:
    r_mats: tuple[np.ndarray, ...]
    s_mats: tuple[np.ndarray, ...]


def _master(nodes, p: int) -> np.ndarray:
    """The N + 1 coefficients of prod(x - z) over the N nodes mod p, highest
    first, in int64: one int64 array step per node, times x - z, in which
    every product of a residue and a node stays below 2^63 for p <= _MAX_P."""
    m = np.zeros(len(nodes) + 1, dtype=np.int64)
    m[0] = 1
    for k, z in enumerate(nodes, 1):
        m[1 : k + 1] -= m[:k] * z
        m[1 : k + 1] %= p
    return m


def _ratio(rho, p: int) -> int | None:
    """The residue r when rho = 1, r, r^2, .., r^(N-1) mod p, N >= 2, and None
    otherwise. On such points every table of powers is a geometric
    recurrence: _mask_check walks d, and _progression_side decides a side
    from r."""
    if len(rho) < 2:
        return None
    r, x = rho[1] % p, 1
    for y in rho:
        if y % p != x:
            return None
        x = x * r % p
    return r


def _progression_side(rho, d: int, modulus: int | None, p: int, r: int | None) -> bool:
    """Whether the points prove every T x T submatrix of the mask
    Vandermonde matrix [x^e for e in exps] over rho invertible mod p, for a
    side exps = c + d*i (mod modulus for a cyclic table) of the step d that
    degrees._progression_steps gives; r is _ratio(rho, p). False means only
    that the submatrices must be eliminated.

    Every point must be nonzero and, for a cyclic table, satisfy
    x^modulus = 1. Row x is then x^c times the Vandermonde row of the node
    x^d, so the submatrix on rows W is diag(x_w^c) times a Vandermonde
    matrix in the nodes x_w^d: the proof holds when the N nodes are
    pairwise distinct, and for 2 <= T <= N only then.

    On the points r^w this takes O(N) multiplications and no pow per
    point: they are nonzero iff r is, x^modulus = 1 for all iff r^modulus
    = 1, and the nodes s^w, s = r^d, are distinct iff s^k != 1 for
    1 <= k < N. Other points take a pow or two per point.
    """
    n = len(rho)
    if r is None:
        if any(x % p == 0 for x in rho):
            return False
        if modulus is not None and any(pow(x, modulus, p) != 1 for x in rho):
            return False
        return len({pow(x, d, p) for x in rho}) == n
    if r == 0 or (modulus is not None and pow(r, modulus, p) != 1):
        return False
    s = x = pow(r, d, p)
    for _ in range(n - 1):  # x = s^k, 1 <= k < N
        if x == 1:
            return False
        x = x * s % p
    return True


def instantiate_cat(dv: DegreeVectors, min_p: int = 0, params: dict | None = None) -> PdmmScheme:
    """instantiate_degree_table for a cyclic table, with family 'catx': the
    smallest prime p >= max(N + 1, min_p) with q | p - 1, q the table's
    modulus, on the points omega^0 .. omega^(N-1), omega of order q, where
    _progression_order proves both mask sides ('structural')."""
    if dv.modulus is None:
        raise ParameterError("instantiate_cat expects a cyclic table (modulus present)")
    return instantiate_degree_table(dv, min_p=min_p, family="catx", params=params)


# Candidates (p, q) that one band [P, 2P) of primes may spend before the
# scan moves on to the next band.
_BAND_CANDIDATES = 32


def _divisors(k: int) -> list[int]:
    small = [d for d in range(1, isqrt(k) + 1) if k % d == 0]
    return sorted(set(small + [k // d for d in small]))


def _powers(omegas, moduli, exps, n: int) -> np.ndarray:
    """The G mask Vandermonde matrices on the points omega^0 .. omega^(n-1),
    side by side in an n x G*len(exps) array: entry [w, g*len(exps) + j] is
    omegas[g]^(w * exps[j]) mod moduli[g]. Built by doubling: rows k .. 2k - 1
    are rows 0 .. k - 1 times row k, the square of row k / 2, written in
    place; every product of two residues fits int64 for moduli <= _MAX_P."""
    e = len(exps)
    if len(set(moduli)) == 1:
        p = moduli[0]
    else:
        p = np.repeat(np.array(moduli, dtype=np.int64), e)
    m = np.empty((n, len(omegas) * e), dtype=np.int64)
    m[:1] = 1
    if n > 1:
        m[1] = [pow(w, x, q) for w, q in zip(omegas, moduli) for x in exps]
        step = m[1]
    for k in (2**i for i in range(1, (n - 1).bit_length())):
        step = step * step % p  # row k
        rows = m[k : 2 * k]
        np.multiply(m[: len(rows)], step, out=rows)
        np.remainder(rows, p, out=rows)
    return m


# The most subsets that a T x T walk of a mask side eliminates: C(N-1, T-1)
# for a walk of d (see _lift), C(N, T) for a whole mask matrix. A side that
# must be walked above it is refused before anything is walked.
_WALK_CAP = 2**22

# The most values, p^(K+T) or p^(L+T), that verify_privacy_exhaustive
# enumerates on a side; a larger side is refused before it starts.
_ENUMERATION_CAP = 20_000_000


def _refuse_above_cap(n: int, t: int) -> None:
    """Raise BudgetExceededError, naming the count and the cap, when a walk
    of the t-row subsets of n rows would eliminate more than _WALK_CAP."""
    if comb(n, t) > _WALK_CAP:
        raise BudgetExceededError(
            f"walking a mask side takes C({n}, {t}) = {comb(n, t)} subsets, "
            f"above the cap of {_WALK_CAP}"
        )


def _lift(check: SubmatrixCheck, n: int, t: int) -> SubmatrixCheck:
    """The T x T check of a mask matrix m on the points 1, r, r^2, .. that a
    check of d = m[1:, 1:] - m[1:, :1] stands for.

    Row w + c of m is row w times diag(r^(c*exps)), so rows W and W - min(W)
    are singular together, and the subsets holding row 0 = (1, .., 1), which
    come first, decide an exhaustive check. Less column 0 they are the
    (T-1) x (T-1) submatrices of d on rows 1 .. N-1, in the same order: d's
    witness W is the subset {0} + (W + 1), at the same position.
    """
    if check.ok:
        return SubmatrixCheck(None, comb(n, t), check.level)
    return SubmatrixCheck((0,) + tuple(w + 1 for w in check.witness), check.checked, check.level)


def _mask_checks(omegas, moduli, exps, n: int, t: int) -> list[SubmatrixCheck]:
    """_mask_check on the points omega^0 .. omega^(n-1) of each omega in omegas,
    mod its own modulus, in one walk of d by submatrix_checks, for
    1 <= T <= N; the caller refuses a walk above _WALK_CAP."""
    m = _powers(omegas, moduli, exps, n).reshape(n, len(omegas), len(exps)).transpose(1, 0, 2)
    d = m[:, 1:, 1:] - m[:, 1:, :1]  # submatrix_checks reduces each mod its own p
    return [_lift(check, n, t) for check in submatrix_checks(d, t - 1, moduli)]


def _mask_check(rho, exps, t: int, p: int, r: int | None) -> SubmatrixCheck:
    """all_txt_submatrices_invertible(vandermonde(rho, exps, p), t, p): a
    whole walk of the C(N, T) subsets, or, when r = _ratio(rho, p) is not
    None and 1 <= T <= N, of only the C(N-1, T-1) subsets of d (see _lift),
    with the same witness and count. Either walk above _WALK_CAP raises
    BudgetExceededError before anything is walked. It is _mask_checks for
    one point set, through the one-matrix check, whose calls
    bench/tracing.py counts."""
    n = len(rho)
    if r is None or not 1 <= t <= n:
        _refuse_above_cap(n, t)
        return all_txt_submatrices_invertible(vandermonde(rho, exps, p), t, p)
    _refuse_above_cap(n - 1, t - 1)
    m = _powers((r,), (p,), exps, n)
    return _lift(all_txt_submatrices_invertible(m[1:, 1:] - m[1:, :1], t - 1, p), n, t)


def _doubling(items):
    """Consecutive groups of 1, 2, 4, .. items, the last one short."""
    items, size = iter(items), 1
    while group := list(itertools.islice(items, size)):
        yield group
        size *= 2


def instantiate_degree_table(
    dv: DegreeVectors,
    strategy: str = "roots_of_unity",
    seed: int = 0,
    min_p: int = 0,
    family: str | None = None,
    params: dict | None = None,
) -> PdmmScheme:
    """Choose a field and evaluation points for an integer or cyclic degree
    table at which every T x T mask submatrix is certified invertible.

    One deterministic scan takes roots of unity as evaluation points.
    Primes p are scanned in bands [P, 2P) from P = max(N + 1, min_p), and
    for each p every order q >= N that the table admits, ascending, with
    omega = g^((p-1)/q), g the smallest generator of F_p^*, and the points
    rho = omega^0 .. omega^(N-1). An integer table admits every divisor q
    of p - 1; q may be composite, and below the largest table entry. A
    cyclic table admits only its modulus q, so only primes p = 1 (mod
    lcm(2, q)) are scanned. A q is skipped unless gamma, alpha_s and beta_s
    each keep distinct residues mod q, a test made once per q. The decode
    matrix is then a Vandermonde matrix in the distinct nodes omega^gamma
    and needs no elimination. A band spends at most 32 candidates (p, q);
    past 3,037,000,499 (_MAX_P) FieldError is raised. The first candidate
    in this order whose two mask sides pass is accepted.

    A mask side whose degrees form an arithmetic progression, with the step
    that degrees._progression_steps gives, is decided from q alone by
    _progression_order, as condition IV is, with no points built, once the
    candidate is counted against the band's 32: 'structural'. Any other
    side is walked whole, over the C(N-1, T-1) subsets of d (see _lift):
    'exhaustive'. BudgetExceededError is raised before any walk when that
    count exceeds _WALK_CAP = 2^22. The walked sides of the band's remaining
    candidates are eliminated in groups of 1, 2, 4, .. candidates, so that
    a table accepted at its first candidate costs one check: the generator
    of F_p and omega are computed for the candidates of a group, and one
    walk of submatrix_checks per side checks them all, alpha_s first and
    beta_s only for the candidates whose alpha_s passed. params records q
    and, in params["certificate"], the weaker side's level, which
    verify_privacy_rank reports too.

    strategy (two names for the scan) and seed are read by nothing but the
    check of the strategy name; the benchmark's callers still pass both.
    min_p is an int by degrees._integer's rule.
    """
    min_p = _integer(min_p, "min_p")
    qs = quadrants(dv)
    report = validate_degree_table(dv, qs)
    if not report.valid:
        raise SchemeError(f"degree table fails validation: {report.flags}")
    if strategy not in ("roots_of_unity", "random_search"):
        raise SchemeError(f"unknown instantiation strategy: {strategy}")
    n, t = qs.n_unique, dv.t
    sides = (dv.alpha_s, dv.beta_s)
    vectors = (qs.gamma,) + sides
    steps = _progression_steps(dv)
    if None in steps:
        _refuse_above_cap(n - 1, t - 1)
    # Only p = 1 (mod stride) can be prime, above N >= 2, and have q | p - 1.
    stride = 2 if dv.modulus is None else lcm(2, dv.modulus)
    distinct = {}  # q -> whether every vector keeps distinct residues mod q

    def counted(q: int) -> bool:
        if q not in distinct:
            distinct[q] = all(len({v % q for v in vec}) == len(vec) for vec in vectors)
        return distinct[q]

    def verdicts(q: int) -> tuple:
        """Each side's verdict from q: True proven, False rejected, None open."""
        return tuple(None if d is None else _progression_order(d, n, q) for d in steps)

    generators = {}  # p -> the smallest generator of F_p^*
    band = max(n + 1, min_p)
    while band <= _MAX_P:
        candidates = itertools.islice(
            (
                (p, q)
                for p in filter(
                    is_prime,
                    range(band + (1 - band) % stride, min(2 * band, _MAX_P + 1), stride),
                )
                for q in (_divisors(p - 1) if dv.modulus is None else (dv.modulus,))
                if q >= n and counted(q)
            ),
            _BAND_CANDIDATES,
        )
        open_candidates = ((p, q, v) for p, q in candidates if False not in (v := verdicts(q)))
        for group in _doubling(open_candidates):
            for p, _, _ in group:
                if p not in generators:
                    generators[p] = _primitive_root(p)
            omegas = [pow(generators[p], (p - 1) // q, p) for p, q, _ in group]
            live = range(len(group))
            for i, exps in enumerate(sides):
                walk = [c for c in live if group[c][2][i] is None]
                if not walk:
                    continue
                checks = _mask_checks(
                    [omegas[c] for c in walk], [group[c][0] for c in walk], exps, n, t
                )
                failed = {c for c, check in zip(walk, checks) if not check.ok}
                live = [c for c in live if c not in failed]
            if live:
                c = live[0]
                p, q, v = group[c]
                steps = itertools.repeat(omegas[c], n - 1)
                rho = tuple(itertools.accumulate(steps, lambda x, w: x * w % p, initial=1))
                level = "exhaustive" if None in v else "structural"
                meta = dict(params or {}, q=q, certificate=level)
                return PdmmScheme(
                    dv, PrimeField(p), rho, qs.gamma, omega=omegas[c], family=family, params=meta
                )
        band *= 2
    raise FieldError(
        f"no prime p <= {_MAX_P} from min_p={min_p} passes: larger ones overflow int64"
    )


# -- partitioning ----------------------------------------------------------


def _partition(m: np.ndarray, parts: int, axis: int, name: str) -> PartitionedMatrix:
    """Zero-pad m along axis to a multiple of parts and split it there. The
    blocks are views, of m itself when it needs no padding, in m's integer
    dtype, unreduced; encode reduces them. Raises SchemeError unless m is a
    non-empty 2-D matrix, and ValueError for non-integer entries, by
    linalg._integers' rule."""
    m = np.asarray(m)
    if m.ndim != 2 or m.size == 0:
        raise SchemeError(f"{name} must be a non-empty 2-D matrix")
    m = _integers(m)
    rows, cols = m.shape
    padding = (-m.shape[axis]) % parts
    if padding:
        m = np.pad(m, [(0, padding if ax == axis else 0) for ax in (0, 1)])
    return PartitionedMatrix(tuple(np.split(m, parts, axis=axis)), rows, cols, padding)


def partition_a(a: np.ndarray, big_k: int) -> PartitionedMatrix:
    """A's K row blocks, views of A (see _partition)."""
    return _partition(a, big_k, 0, "A")


def partition_b(b: np.ndarray, big_l: int) -> PartitionedMatrix:
    """B's L column blocks, strided views of B (see _partition); encode
    reads each once, as it copies it into its product's operand."""
    return _partition(b, big_l, 1, "B")


def draw_randomness(scheme: PdmmScheme, a_shape, b_shape, seed: int) -> Randomness:
    """The T masks of A's block shape a_shape, then the T of B's, as 2T
    consecutive calls of SplitMix64(seed).matrix would draw them, in one
    call: matrix draws the stream of below, row by row, whether or not it
    rejects a draw, so one call of the total count gives the values of
    consecutive ones. The masks are int64 views of that one array."""
    t, (h, m), (k, w) = scheme.t_privacy, a_shape, b_shape
    draws = SplitMix64(seed).matrix(1, t * (h * m + k * w), scheme.field.p)
    r, s = np.split(draws[0], [t * h * m])
    return Randomness(tuple(r.reshape(t, h, m)), tuple(s.reshape(t, k, w)))


def _shares(
    scheme: PdmmScheme,
    a_parts: PartitionedMatrix,
    b_parts: PartitionedMatrix,
    rnd: Randomness,
) -> tuple[np.ndarray, np.ndarray]:
    """encode's checks and its two products: the stacks (N, h, m) of A's
    shares and (N, m, w) of B's, share w at row w (see encode)."""
    dv = scheme.dv
    p = scheme.field.p
    a_shape = a_parts.blocks[0].shape
    b_shape = b_parts.blocks[0].shape
    if len(a_parts.blocks) != dv.k or len(b_parts.blocks) != dv.l:
        raise SchemeError("partition block counts do not match (K, L)")
    if len(rnd.r_mats) != dv.t or len(rnd.s_mats) != dv.t:
        raise SchemeError(
            f"expected T = {dv.t} masks per side, got {len(rnd.r_mats)} and {len(rnd.s_mats)}"
        )
    if any(r.shape != a_shape for r in rnd.r_mats) or any(
        s.shape != b_shape for s in rnd.s_mats
    ):
        raise SchemeError("randomness shapes do not match block shapes")
    e_a, e_b = scheme._encoders
    n = scheme.n_workers
    narrow = np.min_scalar_type(1 - p)

    def shares(e, parts, shape):
        return _matmul_parts(e, parts, p, narrow).reshape(n, *shape)

    a_shares = shares(e_a, a_parts.blocks + rnd.r_mats, a_shape)
    b_shares = shares(e_b, b_parts.blocks + rnd.s_mats, b_shape)
    return a_shares, b_shares


def encode(
    scheme: PdmmScheme,
    a_parts: PartitionedMatrix,
    b_parts: PartitionedMatrix,
    rnd: Randomness,
) -> list[TaskPair]:
    """Evaluate the two encoding polynomials at every worker's point: one
    product E_A @ (A_1..A_K, R_1..R_T) and one for B, each written as one
    stack of the N workers' shares; task w's shares are views of row w of
    the two stacks, which multiply_via_scheme hands to the workers whole.

    Each product's right operand is built once by linalg._matmul_parts: every
    block and mask, strided or not, in any integer dtype, is copied straight
    into it in the kernel's type and checked for [0, p) there. The shares
    are the one narrow array of the pipeline: residues in the smallest
    signed integer dtype that holds p - 1 (int8 at p = 23, int16 at
    p = 1091, int32 below 2^31), written by the kernel tile by tile.
    Responses and decoded products are int64.

    Raises SchemeError when the block counts are not (K, L), or rnd does
    not hold exactly T masks per side, each of its side's block shape.
    """
    a_shares, b_shares = _shares(scheme, a_parts, b_parts, rnd)
    return [TaskPair(a_shares[w], b_shares[w], w) for w in range(len(a_shares))]


def _respond(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """The workers' responses a @ b mod p as a new int64 array, for shares
    of residues mod p in any signed integer dtype: one worker's h x m and
    m x w matrices, or the stacks (N, h, m) and (N, m, w) of N workers.
    Nothing is checked here; worker_multiply checks its shares, and
    encode's are residues by construction.

    While (p-1)^2 * m < 2^63 the workers run on linalg's kernel _mulmod: a
    stack max(1, _TILE // (h*w)) workers per call, so that a call's output
    is about one tile, and one worker's matrices in a 2-D call, since a
    stack of one slices more per call (on a 12 x 96 by 96 x 12 task it
    took 7.9-8.3 us so, against 6.7-7.1 us in 2-D, where _mulmod makes it
    one product and one reduction; timeit, best of 5). There the responses
    equal a plain int64 product. Past that bound (p ~ 10^9 at m = 10) the
    int64 product is kept, in the same groups, and wraps silently, so the
    responses, and the decoded product, are wrong there.
    """
    (rows, inner), cols = a.shape[-2:], b.shape[-1]
    out = np.empty(a.shape[:-1] + (cols,), dtype=np.int64)
    wraps = (p - 1) ** 2 * inner >= 2**63
    kind, step = (np.int64, None) if wraps else _exact_type(p, inner)
    if a.ndim == 2:
        groups = [(a, b, out)]
    else:
        size = max(1, _TILE // max(1, rows * cols))
        groups = [
            (a[g : g + size], b[g : g + size], out[g : g + size]) for g in range(0, len(a), size)
        ]
    for x, y, dst in groups:
        x, y = x.astype(kind, copy=False), y.astype(kind, copy=False)
        if wraps:
            # The int64 product wraps here. The benchmark's own tests expect
            # this fault; the benchmark change that mends it deletes this
            # branch together with that expectation. Sums that wrap mod 2^64
            # do not depend on their order, so a stack wraps exactly as its
            # workers do one by one.
            np.remainder(x @ y, p, out=dst)
        else:
            _mulmod(x, y, p, step, dst)
    return out


def worker_multiply(field: PrimeField, task: TaskPair) -> np.ndarray:
    """One worker's response: a_share @ b_share mod p, in int64, by the
    core that multiply_via_scheme runs on all workers at once (see
    _respond), so the two give the same bytes.

    The shares are taken by linalg's entry rule, in any integer dtype
    (encode's are narrow): entries outside [0, p) are reduced first, and
    non-integer entries and p above 3,037,000,499 raise ValueError. Shares
    that are not 2-D, or of mismatched inner dimensions, raise SchemeError.
    Past (p-1)^2 * inner < 2^63 (p ~ 10^9 at inner dimension 10) the int64
    product wraps silently, so responses, and the decoded product, are
    wrong there.
    """
    a, b = task.a_share, task.b_share
    if a.ndim != 2 or b.ndim != 2:
        raise SchemeError(f"shares must be 2-D matrices: {a.shape} x {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise SchemeError(f"inner dimensions mismatch: {a.shape} x {b.shape}")
    p = field.p
    return _respond(_residues(a, p), _residues(b, p), p)


def decode(scheme: PdmmScheme, responses) -> list[list[np.ndarray]]:
    """Recover the K x L grid of block products from all worker responses,
    a list of N matrices or one (N, h, w) stack, by applying the scheme's
    KL x N decode matrix, through linalg._matmul_parts: each response is
    copied once into the product's operand and checked for [0, p) there.
    Non-integer responses raise ValueError."""
    n = scheme.n_workers
    if len(responses) != n:
        raise SchemeError(f"expected {n} responses, got {len(responses)}")
    shape = responses[0].shape
    if any(r.shape != shape for r in responses):
        raise SchemeError("responses have inconsistent shapes")
    coeffs = _matmul_parts(scheme._decoder, responses, scheme.field.p, np.int64)
    coeffs = coeffs.reshape(-1, *shape)
    big_l = scheme.dv.l
    return [list(coeffs[i : i + big_l]) for i in range(0, len(coeffs), big_l)]


def assemble(grid, a_parts: PartitionedMatrix, b_parts: PartitionedMatrix) -> np.ndarray:
    """Stitch the grid of block products back together and drop padding:
    each row of blocks is concatenated once into its rows of the product,
    and the padding is sliced off. Raises SchemeError when the grid, read
    by its first block's shape, does not cover the product, and ValueError
    when a row of blocks does not fill its rows."""
    rows, cols = a_parts.original_rows, b_parts.original_cols
    h, w = grid[0][0].shape
    if len(grid) * h < rows or len(grid[0]) * w < cols:
        raise SchemeError("the grid of blocks does not cover the product")
    dtype = np.result_type(*{b.dtype for row in grid for b in row})
    full = np.empty((len(grid) * h, len(grid[0]) * w), dtype=dtype)
    for i, row in enumerate(grid):
        np.concatenate(row, axis=1, out=full[i * h : (i + 1) * h])
    return full[:rows, :cols]


def multiply_via_scheme(
    scheme: PdmmScheme, a: np.ndarray, b: np.ndarray, seed: int = 0
) -> np.ndarray:
    """Full pipeline: partition, encode, simulate workers, decode, reassemble.

    The N workers are simulated as one stacked product: encode's two stacks
    of shares go whole to worker_multiply's core, _respond, and its stack
    of responses to decode. The product equals, byte for byte, that of the
    stage functions called one by one with worker_multiply per task.

    a and b may be of any integer dtype and hold entries outside [0, p);
    non-integer entries raise ValueError. An operand that is not a non-empty
    2-D matrix, and 2-D operands of mismatched inner dimensions, raise
    SchemeError."""
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim == b.ndim == 2 and a.shape[1] != b.shape[0]:
        raise SchemeError(f"inner dimensions mismatch: {a.shape} x {b.shape}")
    a_parts = partition_a(a, scheme.dv.k)
    b_parts = partition_b(b, scheme.dv.l)
    rnd = draw_randomness(scheme, a_parts.blocks[0].shape, b_parts.blocks[0].shape, seed)
    a_shares, b_shares = _shares(scheme, a_parts, b_parts, rnd)
    grid = decode(scheme, _respond(a_shares, b_shares, scheme.field.p))
    return assemble(grid, a_parts, b_parts)


# -- privacy verification --------------------------------------------------


@dataclass(frozen=True)
class PrivacyRankReport:
    a_check: SubmatrixCheck
    b_check: SubmatrixCheck

    @property
    def ok(self) -> bool:
        return self.a_check.ok and self.b_check.ok

    @property
    def level(self) -> str:
        """The weaker of the two sides' certification levels."""
        return max(self.a_check.level, self.b_check.level, key=LEVELS.index)


def verify_privacy_rank(scheme: PdmmScheme) -> PrivacyRankReport:
    """T x T submatrix invertibility of the two mask Vandermonde matrices.

    A progression side (degrees._progression_steps) that _progression_side
    proves from the points is reported as SubmatrixCheck(None, C(N, T),
    'structural') with no subset eliminated; catx and GASP small/big
    schemes are proven so. Any other side gets
    _mask_check's exhaustive report, so a failing side keeps its witness: on
    the points 1, r, r^2, .. of a scanned scheme, the walk of d the scan
    made; on other points a walk of every T-row subset. A walk above
    _WALK_CAP raises BudgetExceededError before anything is walked. Both
    sides share one _ratio of the points.
    """
    dv, n, t, p = scheme.dv, scheme.n_workers, scheme.t_privacy, scheme.field.p
    r = _ratio(scheme.rho, p)

    def side(exps, d) -> SubmatrixCheck:
        if d is not None and _progression_side(scheme.rho, d, dv.modulus, p, r):
            return SubmatrixCheck(None, comb(n, t), "structural")
        return _mask_check(scheme.rho, exps, t, p, r)

    return PrivacyRankReport(*map(side, (dv.alpha_s, dv.beta_s), _progression_steps(dv)))


@dataclass(frozen=True)
class PrivacyExhaustiveReport:
    ok: bool
    subsets_checked: int
    witness: tuple | None  # (side, worker subset, data values) on failure


# Counters per block of data values in _enumerate_side: bounds its temporaries.
_COUNT_BLOCK = 1 << 20


def _enumerate_side(
    rho, prefix_exps, suffix_exps, p, subsets
) -> tuple[bool, int, tuple | None]:
    n = len(rho)
    big_k, t = len(prefix_exps), len(suffix_exps)
    pow_pref, pow_suf = vandermonde(rho, prefix_exps, p), vandermonde(rho, suffix_exps, p)
    data_vals = np.array(list(itertools.product(range(p), repeat=big_k)), dtype=np.int64)
    mask_vals = np.array(list(itertools.product(range(p), repeat=t)), dtype=np.int64)
    codebase = p ** np.arange(t - 1, -1, -1, dtype=np.int64)
    full = p**t
    per_block = max(1, _COUNT_BLOCK // full)
    checked = 0
    for subset in subsets:
        rows = list(subset)
        masks = mask_vals @ pow_suf[rows].T % p  # (p^T, T) task contributions
        bases = data_vals @ pow_pref[rows].T % p  # (p^K, T)
        for start in range(0, len(bases), per_block):
            block = bases[start : start + per_block]
            # codes[i, m]: the task tuple of data value start + i under mask m,
            # offset into a range of p^T counters of its own.
            codes = np.arange(len(block), dtype=np.int64)[:, None] * full
            for j in range(t):
                codes = codes + (block[:, j, None] + masks[:, j]) % p * codebase[j]
            counts = np.bincount(codes.ravel(), minlength=codes.size).reshape(codes.shape)
            # Uniform over (F_p)^T iff every task tuple occurs exactly once.
            bad = np.flatnonzero((counts != 1).any(axis=1))
            if bad.size:
                i = start + int(bad[0])
                return False, checked, (tuple(subset), tuple(data_vals[i]))
        checked += 1
    return True, checked, None


def verify_privacy_exhaustive(scheme: PdmmScheme) -> PrivacyExhaustiveReport:
    """Brute-force check that any T workers' tasks are uniform and data-independent.

    Requires 1x1 blocks conceptually: the enumeration treats each block as a
    single field element. Every T-subset of workers is enumerated;
    BudgetExceededError is raised first when p^(K+T) or p^(L+T) exceeds
    _ENUMERATION_CAP.
    """
    dv = scheme.dv
    p = scheme.field.p
    t = scheme.t_privacy
    n = scheme.n_workers
    for side_k in (dv.k, dv.l):
        if p ** (side_k + t) > _ENUMERATION_CAP:
            raise BudgetExceededError(
                f"p^(K+T) = {p ** (side_k + t)} exceeds budget {_ENUMERATION_CAP}"
            )
    subsets = list(itertools.combinations(range(n), t))

    ok_a, checked_a, wit_a = _enumerate_side(scheme.rho, dv.alpha_p, dv.alpha_s, p, subsets)
    if not ok_a:
        return PrivacyExhaustiveReport(False, checked_a, ("A",) + wit_a)
    ok_b, checked_b, wit_b = _enumerate_side(scheme.rho, dv.beta_p, dv.beta_s, p, subsets)
    if not ok_b:
        return PrivacyExhaustiveReport(False, checked_a + checked_b, ("B",) + wit_b)
    return PrivacyExhaustiveReport(True, checked_a + checked_b, None)
