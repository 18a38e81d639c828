"""Parameter optimization and grid sweeps over the scheme families.

The four families are compared by worker count.  GASP_rs and DOG_rs are
scanned over their admissible chain parameters (r, s) in order; GASP_r,
which is GASP_rs at s = T with r <= min(K, T), is read off the same GASP_rs
scan.  Sets of exponents are Python-int bitsets (bit i set iff i is in the
set), so a sumset X + Y is an OR of shifted copies of X and its size is
`int.bit_count` (Python >= 3.10).  Every vector is a union of width-w runs
one stride d apart (d = K for GASP_r and GASP_rs, K + r for DOG_rs, and
β_p = d·[0, L)), so X + gap(T, d, w) is the run X + [0, w) copied over
d·[0, T // w) by doubling, in O(log T) shift-ORs, plus one shorter run.

One scan per (K, T) serves every L at once (`_scan`).  Each count is the
size of a union left ∪ low ∪ (X ≪ shift) plus a constant: left =
seed + d·[0, L) is built once per (r, L), while X = seed + gap(T, d, s) and
low do not depend on L, are built once per (r, s), counted against every L
that still needs that (r, s), and dropped.  For GASP_rs the seed is
g_r = gap(T, K, r), X = g_r + g_s is as wide as T·K, not KL, and KL enters
only as the one shift of X and the constant; for DOG_rs the seed is
α_p ∪ α_s.  Every gap vector starts at 0, so every N(r, s) is at least the
floor, the count with gap(T, d, s) cut to {0}: for each L, a family skips
an r whose floor already reaches its best N so far, without changing its
result.  `sweep` computes each grid point and its transpose (L, K, T), the
same problem, once per call, in (K, T, L) order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import groupby
from math import inf
from operator import itemgetter

from .degrees import n_catx_formula

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


def _gap(runs: list[int], stride: int, length: int, w: int) -> int:
    """X + gap(length, stride, w), where runs[v] = X + [0, v): full chains
    of width w, one stride apart, then one chain of width length % w."""
    full, rest = divmod(length, w)
    out = runs[w] if full == 1 else _spread(runs[w], stride, full)
    return out | runs[rest] << full * stride if rest else out


def _gasp_chains(big_k: int, big_t: int, ls):
    """GASP_rs at (K, L, T) for every L in ls, on stride K.

    With g_w = gap(T, K, w), N(r, s) = KL + |(g_r + K·[0, L)) ∪ ([0, K) +
    g_s) ∪ ((g_r + g_s) ≪ KL)|: the data sums fill [0, KL), and the other
    three quadrants, less KL, are these sets.  The low set [0, K) + g_s is
    one interval, since its runs of width s + K - 1 lie one stride K apart;
    lows[0] = [0, K) is the floor's, at g_s cut to {0}.
    """
    # Admissible chain lengths: those whose gap vector has T distinct entries.
    # gap(T, K, r) repeats exactly when K < r < T: entries i = K and i = r are K.
    rs = [r for r in range(1, big_t + 1) if r <= big_k or r == big_t]
    lows = [(1 << big_k) - 1]
    for s in range(1, big_t + 1):
        full, rest = divmod(big_t, s)
        # Full runs end at full·K + s - 1, the last short one at full·K + rest + K - 1.
        lows.append((1 << full * big_k + (max(s, rest + big_k) if rest else s) - 1) - 1)
    places = [(big_l, big_k * big_l, big_k * big_l) for big_l in ls]
    ones = _runs(1, big_t)
    for r in rs:
        yield r, big_k, _gap(ones, big_k, big_t, r), lows, rs, places


def _dog_chains(big_k: int, big_t: int, ls):
    """DOG_rs at (K, L, T) for every L in ls, on stride K + r.

    With α = [0, K) ∪ (K + gap(T, K + r, r)), N(r, s) = |(α + (K + r)·[0, L))
    ∪ ((α + gap(T, K + r, s)) ≪ b0)|, b0 = (K + r)(L - 1) + K the first entry
    of β_s: all of the s part is shifted, so every low set is empty.
    s <= K + r keeps every gap vector injective.
    """
    ones = _runs(1, big_t)
    lows = [0] * (big_t + 1)
    for r in range(1, big_t + 1):
        stride = big_k + r
        yield (
            r,
            stride,
            (1 << big_k) - 1 | _gap(ones, stride, big_t, r) << big_k,
            lows,
            range(1, min(big_t, stride) + 1),
            [(big_l, stride * (big_l - 1) + big_k, 0) for big_l in ls],
        )


def _counts(big_t: int, chain, bounds, t_bounds):
    """Yield (i, s, N) for chain length r against the i-th L of its group.

    chain is (r, stride, seed, lows, ss, places), places[i] = (L, shift,
    base) with L ascending, and N(r, s) = base + |left ∪ lows[s] ∪ ((seed +
    gap(T, stride, s)) ≪ shift)| with left = seed + stride·[0, L).  Neither
    seed + gap(T, stride, s) nor lows[s] depends on L, so each is built once
    per s and counted against every L that still wants it.  Every gap
    vector holds 0, so N(r, s) is at least the floor: the count with seed
    for the sumset and lows[0] for lows[s].  The i-th L gets every s in ss
    while its floor stays under bounds[i], and only (T, N) while it stays
    under t_bounds[i]: seed + [0, T), built by doubling without the runs.
    Both lists are read before the first yield.
    """
    r, stride, seed, lows, ss, places = chain
    full, t_only = [], []
    left = done = 0
    for i, (big_l, shift, base) in enumerate(places):
        left |= _spread(seed, stride, big_l - done) << done * stride
        done = big_l
        floor = (left | seed << shift | lows[0]).bit_count() + base
        if floor < bounds[i]:
            full.append((i, left, shift, base))
        elif floor < t_bounds[i]:
            t_only.append((i, left, shift, base))
    if full:
        runs, last = _runs(seed, ss[-1]), full + t_only
        for s in ss:
            hi, lo = _gap(runs, stride, big_t, s), lows[s]
            for i, left, shift, base in last if s == big_t else full:
                yield i, s, (left | hi << shift | lo).bit_count() + base
    elif t_only:
        hi, lo = _spread(seed, 1, big_t), lows[big_t]
        for i, left, shift, base in t_only:
            yield i, big_t, (left | hi << shift | lo).bit_count() + base


def _scan(big_t: int, chains, n_ls: int, t_rs: int = 0):
    """Per L of the group: the first (r, s) of least N, in the order
    `chains` yields them; and the first r <= t_rs of least N(r, T).

    Returns (bound, best, t_bound, t_best): per L, the least N and its (r,
    s), and the least N(r, T) and its r (None where t_rs is 0).  Each L
    keeps its own bests, replaced only by a strictly smaller N, and its own
    skip bounds: no N(r, s) is below the floor of `_counts`, so an r whose
    floor reaches an L's best N cannot change that L's result, tie-break
    included.  One pass over the GASP_rs chains so also serves GASP_r.
    """
    bound, best = [inf] * n_ls, [None] * n_ls
    t_bound, t_best = [inf] * n_ls, [None] * n_ls
    unwanted = [0] * n_ls
    for chain in chains:
        r = chain[0]
        t_wanted = t_bound if r <= t_rs else unwanted
        for i, s, n in _counts(big_t, chain, bound, t_wanted):
            if n < bound[i]:
                bound[i], best[i] = n, (r, s)
            if s == big_t and n < t_wanted[i]:
                t_bound[i], t_best[i] = n, r
    return bound, best, t_bound, t_best


def _choices(big_k: int, big_t: int, ls) -> list[tuple[SchemeChoice, ...]]:
    """(GASP_R, GASP_RS, DOG_RS) at (K, L, T) for every L in ls, ascending
    and at most K: one scan per family over the whole group.  GASP_r is
    GASP_rs with s = T (β_s = KL + [0, T)), r <= min(K, T)."""
    n_rs, rs, n_r, r_r = _scan(
        big_t, _gasp_chains(big_k, big_t, ls), len(ls), min(big_k, big_t)
    )
    n_dog, dog, _, _ = _scan(big_t, _dog_chains(big_k, big_t, ls), len(ls))
    return [
        (
            SchemeChoice("GASP_R", n_r[i], r=r_r[i]),
            SchemeChoice("GASP_RS", n_rs[i], *rs[i]),
            SchemeChoice("DOG_RS", n_dog[i], *dog[i]),
        )
        for i in range(len(ls))
    ]


def best_dog_rs(big_k: int, big_l: int, big_t: int) -> SchemeChoice:
    big_k, big_l, big_t = _oriented(big_k, big_l, big_t)
    (n,), (best,), _, _ = _scan(big_t, _dog_chains(big_k, big_t, [big_l]), 1)
    return SchemeChoice("DOG_RS", n, *best)


def catx_choice(big_k: int, big_l: int, big_t: int) -> SchemeChoice | None:
    """Closed-form worker count at x=1; None where the construction needs
    T <= min(K, L) and that fails."""
    big_k, big_l, big_t = _oriented(big_k, big_l, big_t)
    if big_t > big_l:
        return None
    return SchemeChoice("CATX", n_catx_formula(big_k, big_l, big_t), x=1)


def _record(big_k, big_l, big_t, gr, grs, dg) -> SweepRecord:
    """The point's record: the four families ranked by worker count."""
    cx = catx_choice(big_k, big_l, big_t)
    ranked = sorted(
        (c for c in (cx, dg, grs, gr) if c is not None),
        key=lambda c: (c.n_workers, FAMILY_ORDER.index(c.family)),
    )
    winner = ranked[0].family
    margin = ranked[1].n_workers - ranked[0].n_workers if len(ranked) > 1 else 0
    return SweepRecord(big_k, big_l, big_t, cx, gr, grs, dg, winner, margin)


def best_scheme(big_k: int, big_l: int, big_t: int) -> SweepRecord:
    if min(big_k, big_l, big_t) < 2:
        raise ValueError("need K, L, T >= 2")
    k, l, t = _oriented(big_k, big_l, big_t)
    return _record(big_k, big_l, big_t, *_choices(k, t, [l])[0])


def sweep(k_range, l_range, t_range) -> list[SweepRecord]:
    """One record per grid point, in lexicographic (K, L, T) order.

    l_range None ties L to K: the points (K, K, T). Otherwise the grid is
    the product of all three ranges.  A point and its transpose (L, K, T)
    are one problem (`_oriented`), so each is computed once per call and
    the other's record is the same with K and L as given.  The distinct
    oriented points are computed in (K, T, L) order, one `_choices` scan
    per (K, T) for all of its L.
    """
    ks, ts = sorted(set(k_range)), sorted(set(t_range))
    if l_range is None:
        points = [(k, k, t) for k in ks for t in ts]
    else:
        points = [(k, l, t) for k in ks for l in sorted(set(l_range)) for t in ts]
    if not points:
        raise ValueError("empty sweep grid")
    if min(map(min, points)) < 2:
        raise ValueError("need K, L, T >= 2")
    computed: dict[tuple[int, int, int], SweepRecord] = {}
    keys = sorted({_oriented(*point) for point in points}, key=itemgetter(0, 2, 1))
    for (big_k, big_t), group in groupby(keys, key=itemgetter(0, 2)):
        group = list(group)
        for key, choices in zip(group, _choices(big_k, big_t, [l for _, l, _ in group])):
            computed[key] = _record(*key, *choices)
    records = []
    for k, l, t in points:
        rec = computed[_oriented(k, l, t)]
        records.append(rec if (rec.k, rec.l) == (k, l) else replace(rec, k=k, l=l))
    return records
