"""Parameter optimization and grid sweeps over the scheme families.

The four families are compared by worker count.  GASP_rs and DOG_rs are
scanned over their admissible chain parameters (r, s) in order; GASP_r,
which is GASP_rs at s = T with r <= min(K, T), is read off the same GASP_rs
scan.  Sets of exponents are Python-int bitsets (bit i set iff i is in the
set), so a sumset X + Y is an OR of shifted copies of X and its size is
`int.bit_count` (Python >= 3.10).  A gap vector g_w = gap(T, d, w) is a
union of width-w runs one stride d apart, so X + g_w is the run X + [0, w)
copied over d·[0, T // w) by doubling, in O(log T) shift-ORs, plus one
shorter run.

(K, L, T) is oriented with K >= L (`_oriented`), and [0, x) is empty for
x <= 0.  Each count N(r, s) is one sumset that does not depend on L, plus
arithmetic in L:

- GASP_rs, stride K, w = min(r, K), b_s = |[0, K) + g_s| (one interval):
  N(r, s) = KL + u_L(min(b_s, KL)) + |(g_r + g_s) ∪ [0, b_s - KL)|, with
  u_L(b) = L·w + b - ⌊b/K⌋·w - min(b mod K, w).  Without its data sums
  [0, KL) and shifted down by KL, the table is (g_r + K·[0, L)) ∪
  [0, b_s) ∪ (g_r + g_s + KL).  Below KL, g_r + K·[0, L) is the runs
  [mK, mK + w), m < L (all of [0, KL) for r = T > K), which u_L(b)
  counts with [0, b).  Above KL it lies in g_r + KL, since a gap vector
  less one stride stays inside it, so in g_r + g_s + KL, since 0 is in
  g_s.
- DOG_rs, stride d = K + r, α_r = [0, K) ∪ (K + g_r):
  N(r, s) = LK + (L - 1)·r + |α_r + g_s|.  The table is
  left ∪ (α_r + g_s + b0) with left = α_r + d·[0, L) and b0 = (L - 1)d + K.
  left is [0, Ld) ∪ (g_r + b0), of size Ld + T - r, and x + b0 lies below
  Ld exactly when x < r.  [0, r) and g_r lie in α_r + g_s: an entry
  jd + c of g_r, c < r, is c + jd if j·s < T (then jd is in g_s), and is
  (K + (j - 1)d + c) + r otherwise (then s > r).  So the first least s of
  one r serves every L.

By Cauchy–Davenport, |X + Y| >= |X| + |Y| - 1 for finite sets of
integers: b_s >= K + T - 1, |g_r + g_s| >= 2T - 1 and |α_r + g_s| >=
K + 2T - 1.  That gives floors that do not depend on s,

  GASP_rs: N(r, s) >= KL + u_L(min(K + T - 1, KL)) + 2T - 1,
  DOG_rs:  N(r, s) >= LK + (L - 1)·r + K + 2T - 1,

both non-decreasing in r (u_L is in w, as b <= KL).  For each L, a family
counts only an r whose floor is under that L's best N so far; for GASP_rs,
an r <= min(K, T) whose floor is under only GASP_r's best N(r, T) costs
the one count at s = T.  The scan stops at the first r that no L needs, so
its result is an exhaustive scan's, first-minimum tie-breaks included.
One scan per (K, T) serves every L (`_choices`).  `sweep` computes each
grid point and its transpose (L, K, T), the same problem, once per call,
in (K, T, L) order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import inf
from operator import itemgetter

from .degrees import ParameterError, _integer, _n_catx

# Fixed tie-break order when families report equal worker counts.
FAMILY_ORDER = ("CATX", "DOG_RS", "GASP_RS", "GASP_R")


@dataclass(frozen=True)
class SchemeChoice:
    """Best parameters found for one family at one grid point."""

    family: str
    n_workers: int
    r: int | None = None
    s: int | None = None
    x: int | None = None


@dataclass(frozen=True)
class SweepRecord:
    """One grid point: per-family optima, the winner, and relative savings.

    margin is second-best minus best worker count.  polegap is always the
    string "n/a": that family has no construction here and is excluded from
    the comparison.  Savings are exact rationals (fraction of GASP_R's N).
    """

    k: int
    l: int
    t: int
    catx: SchemeChoice | None
    gasp_r: SchemeChoice
    gasp_rs: SchemeChoice
    dog_rs: SchemeChoice
    winner: str
    margin: int
    polegap: str = "n/a"

    @property
    def dog_saving(self) -> Fraction:
        return Fraction(self.gasp_r.n_workers - self.dog_rs.n_workers, self.gasp_r.n_workers)

    @property
    def gasp_rs_saving(self) -> Fraction:
        return Fraction(self.gasp_r.n_workers - self.gasp_rs.n_workers, self.gasp_r.n_workers)


def _oriented(big_k: int, big_l: int, big_t: int) -> tuple[int, int, int]:
    """Transpose the problem so K >= L (A·B = (Bᵀ·Aᵀ)ᵀ keeps N unchanged)."""
    if big_l > big_k:
        big_k, big_l = big_l, big_k
    return big_k, big_l, big_t


def _spread(bits: int, stride: int, count: int) -> int:
    """bits + stride·[0, count): `count` copies of the set `bits`, each
    shifted one stride past the previous, built by doubling."""
    out, done, width = 0, 0, 1
    while True:
        if count & 1:
            out |= bits << done * stride
            done += width
        count >>= 1
        if not count:
            return out
        bits |= bits << width * stride
        width *= 2


def _runs(bits: int, widest: int) -> list[int]:
    """Element w is bits + [0, w), for every w in 0..widest."""
    runs = [0, bits]
    for w in range(1, widest):
        runs.append(runs[-1] | bits << w)
    return runs


def _gap_vector(length: int, stride: int, w: int) -> int:
    """gap(length, stride, w) as a bitset: `_gap` with X = {0}."""
    full, rest = divmod(length, w)
    return _spread((1 << w) - 1, stride, full) | ((1 << rest) - 1) << full * stride


def _gap(runs: list[int], stride: int, length: int, w: int) -> int:
    """X + gap(length, stride, w), where runs[v] = X + [0, v): full chains
    of width w, one stride apart, then one chain of width length % w."""
    full, rest = divmod(length, w)
    out = _spread(runs[w], stride, full)
    return out | runs[rest] << full * stride if rest else out


def _outside(big_k: int, w: int, b: int) -> int:
    """u_L(b) - L·w = |[0, b)| less the ⌊b/K⌋·w + min(b mod K, w) entries
    it shares with the runs [mK, mK + w), for 0 <= b <= KL."""
    return b - b // big_k * w - min(b % big_k, w)


def _gasp_floor(big_k: int, big_l: int, big_t: int, r: int) -> int:
    """No N(r, s) of GASP_rs at (K, L, T) is below this (Cauchy–Davenport:
    b_s >= K + T - 1 and |g_r + g_s| >= 2T - 1); non-decreasing in r."""
    kl, w = big_k * big_l, min(r, big_k)
    return kl + big_l * w + _outside(big_k, w, min(big_k + big_t - 1, kl)) + 2 * big_t - 1


def _dog_floor(big_k: int, big_l: int, big_t: int, r: int) -> int:
    """No N(r, s) of DOG_rs at (K, L, T) is below this (Cauchy–Davenport:
    |α_r + g_s| >= (K + T) + T - 1); increasing in r."""
    return big_l * big_k + (big_l - 1) * r + big_k + 2 * big_t - 1


def _admissible(big_k: int, big_t: int):
    """GASP_rs chain lengths whose gap vector has T distinct entries:
    gap(T, K, w) repeats exactly when K < w < T (entries w and K are K)."""
    return range(1, big_t + 1) if big_t <= big_k else [*range(1, big_k + 1), big_t]


def _gasp_counts(big_k: int, big_t: int, ls, r: int, bound, t_bound):
    """[(i, s, N)] of GASP_rs chain length r, N = N(r, s) at (K, ls[i], T):
    every admissible s for an L whose floor is under bound[i], and s = T
    alone for one whose floor is under t_bound[i] only; None if neither
    holds for any L.

    With b_s = |[0, K) + g_s| (one interval) and X = g_r + g_s, N(r, s) =
    KL + u_L(min(b_s, KL)) + |X ∪ [0, b_s - KL)|, where |X ∪ [0, c)| is
    c + |X ∩ [c, ∞)|: one sumset per s, whatever L.
    """
    w = min(r, big_k)
    full, t_only = [], []
    for i, big_l in enumerate(ls):
        floor = _gasp_floor(big_k, big_l, big_t, r)
        kl = big_k * big_l
        if floor < bound[i]:
            full.append((i, kl + big_l * w, kl))
        elif floor < t_bound[i]:
            t_only.append((i, kl + big_l * w, kl))
    if not (full or t_only):
        return None
    seed = _gap_vector(big_t, big_k, r)
    if full:
        runs, ss = _runs(seed, big_t), _admissible(big_k, big_t)
    else:
        # _gap at s = T reads runs[T] = seed + [0, T) alone.
        runs, ss = [0] * big_t + [_spread(seed, 1, big_t)], [big_t]
    counts = []
    for s in ss:
        x = _gap(runs, big_k, big_t, s)
        n_x = x.bit_count()
        # Full runs of [0, K) + g_s end at q·K + s - 1, a short one at q·K + rest + K - 1.
        q, rest = divmod(big_t, s)
        b = q * big_k + (max(s, rest + big_k) if rest else s) - 1
        low = _outside(big_k, w, b) + n_x
        for i, lw, kl in full + t_only if s == big_t else full:
            if b < kl:
                counts.append((i, s, lw + low))
            else:
                counts.append((i, s, kl + b + (x >> b - kl).bit_count()))
    return counts


def _dog_counts(big_k: int, big_t: int, ls, r: int, bound):
    """[(s, M)] of DOG_rs chain length r for every s <= min(T, K + r) (the
    s whose g_s is injective), with M = |α_r + g_s| on stride K + r, so
    that N(r, s) = LK + (L - 1)·r + M for every L; None if every ls[i]'s
    floor reaches bound[i]."""
    if all(_dog_floor(big_k, big_l, big_t, r) >= b for big_l, b in zip(ls, bound)):
        return None
    stride = big_k + r
    runs = _runs((1 << big_k) - 1 | _gap_vector(big_t, stride, r) << big_k, min(big_t, stride))
    return [
        (s, _gap(runs, stride, big_t, s).bit_count())
        for s in range(1, min(big_t, stride) + 1)
    ]


def _gasp_scan(big_k: int, big_t: int, ls):
    """GASP_rs and GASP_r at (K, L, T) for every L in ls.

    Returns (bound, best, t_bound, t_best): per L, the least N(r, s) and
    its first (r, s) in order, and the least N(r, T) over r <= min(K, T)
    and its first r.  A best is replaced only by a strictly smaller N, and
    the floors rise with r, so the scan stops at the first r that no L can
    use, tie-breaks included.
    """
    n_ls = len(ls)
    bound, best = [inf] * n_ls, [None] * n_ls
    t_bound, t_best = [inf] * n_ls, [None] * n_ls
    unwanted = [0] * n_ls
    for r in _admissible(big_k, big_t):
        counts = _gasp_counts(big_k, big_t, ls, r, bound, t_bound if r <= big_k else unwanted)
        if counts is None:
            break
        for i, s, n in counts:
            if n < bound[i]:
                bound[i], best[i] = n, (r, s)
            if s == big_t and r <= big_k and n < t_bound[i]:
                t_bound[i], t_best[i] = n, r
    return bound, best, t_bound, t_best


def _dog_scan(big_k: int, big_t: int, ls):
    """DOG_rs at (K, L, T) for every L in ls: per L, the least N and its
    first (r, s).  Since N(r, s) - M(r, s) does not depend on s, the first
    least M serves every L."""
    bound, best = [inf] * len(ls), [None] * len(ls)
    for r in range(1, big_t + 1):
        counts = _dog_counts(big_k, big_t, ls, r, bound)
        if counts is None:
            break
        s, m = min(counts, key=itemgetter(1))
        for i, big_l in enumerate(ls):
            n = big_l * big_k + (big_l - 1) * r + m
            if n < bound[i]:
                bound[i], best[i] = n, (r, s)
    return bound, best


def _choices(big_k: int, big_t: int, ls) -> list[tuple[SchemeChoice, ...]]:
    """(GASP_R, GASP_RS, DOG_RS) at (K, L, T) for every L in ls, ascending
    and at most K: one scan per family over the whole group.  GASP_r is
    GASP_rs with s = T (β_s = KL + [0, T)), r <= min(K, T)."""
    n_rs, rs, n_r, r_r = _gasp_scan(big_k, big_t, ls)
    n_dog, dog = _dog_scan(big_k, big_t, ls)
    return [
        (
            SchemeChoice("GASP_R", n_r[i], r=r_r[i]),
            SchemeChoice("GASP_RS", n_rs[i], *rs[i]),
            SchemeChoice("DOG_RS", n_dog[i], *dog[i]),
        )
        for i in range(len(ls))
    ]


def _point(big_k, big_l, big_t) -> tuple[int, int, int]:
    """(K, L, T) as ints, numpy integers included: ParameterError for a
    float or a bool, ValueError for a value below 2."""
    point = _integer(big_k, "K"), _integer(big_l, "L"), _integer(big_t, "T")
    if min(point) < 2:
        raise ValueError("need K, L, T >= 2")
    return point


def catx_choice(big_k: int, big_l: int, big_t: int) -> SchemeChoice | None:
    """Closed-form worker count at x=1; None where the construction needs
    T <= min(K, L) and that fails."""
    return _catx_choice(_integer(big_k, "K"), _integer(big_l, "L"), _integer(big_t, "T"))


def _catx_choice(big_k: int, big_l: int, big_t: int) -> SchemeChoice | None:
    """catx_choice on ints; n_catx_formula's refusal of T < 2 is kept."""
    big_k, big_l, big_t = _oriented(big_k, big_l, big_t)
    if big_t > big_l:
        return None
    if big_t < 2:
        raise ParameterError(f"need K >= L >= T >= 2, got ({big_k}, {big_l}, {big_t})")
    return SchemeChoice("CATX", _n_catx(big_k, big_l, big_t), x=1)


def _record(big_k, big_l, big_t, gr, grs, dg) -> SweepRecord:
    """The point's record: the four families ranked by worker count."""
    cx = _catx_choice(big_k, big_l, big_t)
    ranked = sorted(
        (c for c in (cx, dg, grs, gr) if c is not None),
        key=lambda c: (c.n_workers, FAMILY_ORDER.index(c.family)),
    )
    winner = ranked[0].family
    margin = ranked[1].n_workers - ranked[0].n_workers if len(ranked) > 1 else 0
    return SweepRecord(big_k, big_l, big_t, cx, gr, grs, dg, winner, margin)


def best_scheme(big_k: int, big_l: int, big_t: int) -> SweepRecord:
    big_k, big_l, big_t = _point(big_k, big_l, big_t)
    k, l, t = _oriented(big_k, big_l, big_t)
    return _record(big_k, big_l, big_t, *_choices(k, t, [l])[0])


def sweep(k_range, l_range, t_range) -> list[SweepRecord]:
    """One record per grid point, in lexicographic (K, L, T) order.

    l_range None ties L to K: the points (K, K, T). Otherwise the grid is
    the product of all three ranges.  A point and its transpose (L, K, T)
    are one problem (`_oriented`), so the choices of each are computed once
    per call, in (K, T, L) order of the distinct oriented points, one
    `_choices` scan per (K, T) for all of its L; every point's record is
    then `_record` on its K and L as given.  Range elements are read as
    `_point` reads them.
    """
    ks = sorted({_integer(k, "K") for k in k_range})
    ts = sorted({_integer(t, "T") for t in t_range})
    if l_range is None:
        points = [(k, k, t) for k in ks for t in ts]
    else:
        ls = sorted({_integer(l, "L") for l in l_range})
        points = [(k, l, t) for k in ks for l in ls for t in ts]
    if not points:
        raise ValueError("empty sweep grid")
    if min(map(min, points)) < 2:
        raise ValueError("need K, L, T >= 2")
    choices = {}
    keys = sorted({_oriented(*point) for point in points}, key=itemgetter(0, 2, 1))
    for (big_k, big_t), group in groupby(keys, key=itemgetter(0, 2)):
        group = list(group)
        choices.update(zip(group, _choices(big_k, big_t, [l for _, l, _ in group])))
    return [_record(k, l, t, *choices[_oriented(k, l, t)]) for k, l, t in points]
