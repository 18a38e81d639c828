"""Parameter optimization and grid sweeps over the scheme families.

For each (K, L, T) the admissible chain parameters (r, s) of GASP_rs and
DOG_rs are scanned in order by one routine, `_scan`; GASP_r, which is
GASP_rs at s = T with r <= min(K, T), is read off the same GASP_rs scan.
The four families are compared by worker count.  Sets of exponents are
Python-int bitsets (bit i set iff i is in the set), so a sumset X + Y is an
OR of shifted copies of X and its size is `int.bit_count` (Python >= 3.10).
Every vector is a union of width-w runs one stride d apart (d = K for
GASP_r and GASP_rs, K + r for DOG_rs, and β_p = d·[0, L)), so
X + gap(T, d, w) is the run X + [0, w) copied over d·[0, T // w) by
doubling, in O(log T) shift-ORs, plus one shorter run.  Per chain length r
the set (α_p ∪ α_s) + β_p, which does not depend on s, is built once
together with the runs of α_p ∪ α_s; each s then costs one such copy, one
OR and one bit count.  Every gap vector starts at 0, so every β_s holds its
first entry b0, and N(r, s) is at least the floor |(α_p ∪ α_s) + (β_p ∪
{b0})| for every s: a family skips an r whose floor already reaches its best
N so far, without changing its result.  `sweep` computes each grid point and
its transpose (L, K, T), the same problem, once per call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import inf

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
    return _spread(runs[w], stride, full) | runs[rest] << full * stride


def _counts(big_l: int, big_t: int, alphas: int, stride: int, b0: int, ss, bound=inf, t_bound=0):
    """Yield (s, N) for each chain width s in ss, in order.

    alphas is the bitset of α_p ∪ α_s (bit i set iff exponent i is in the
    set), β_p = stride·[0, L) and β_s = b0 + gap(T, stride, s).  N is the
    size of left ∪ (b0 + alphas + gap(T, stride, s)), with left =
    alphas + β_p.  Every gap vector holds 0, so every N is at least the
    floor |left ∪ (b0 + alphas)|.  Nothing is yielded when the floor
    reaches `bound`, except (T, N) alone while the floor stays under
    `t_bound`: alphas + [0, T), built by doubling without the runs.
    """
    left = _spread(alphas, stride, big_l)
    floor = (left | alphas << b0).bit_count()
    if floor < bound:
        runs = _runs(alphas, max(ss))
        for s in ss:
            yield s, (left | _gap(runs, stride, big_t, s) << b0).bit_count()
    elif floor < t_bound:
        yield big_t, (left | _spread(alphas, 1, big_t) << b0).bit_count()


def _scan(family: str, big_l: int, big_t: int, chains, t_family=None, t_rs=0):
    """First (r, s) of least worker count, in the order `chains` yields them,
    for `family`; and for `t_family`, the first r <= t_rs of least N(r, T).

    `chains` yields (r, alphas, stride, b0, ss), the arguments of `_counts`
    for chain length r; one pass serves both families (GASP_rs and GASP_r).
    Each keeps its own best, replaced only by a strictly smaller N, and its
    own skip bound: no N(r, s) is below the floor of `_counts`, so an r whose
    floor reaches a family's best N cannot change that family's result,
    tie-break included.  An r that only `t_family` still needs costs one
    count, at s = T.  Returns (best, t_best); t_best is None without
    `t_family`.
    """
    best = t_best = None
    bound = t_bound = inf
    for r, *chain in chains:
        t_wanted = t_bound if r <= t_rs else 0
        for s, n in _counts(big_l, big_t, *chain, bound, t_wanted):
            if n < bound:
                best, bound = SchemeChoice(family, n, r=r, s=s), n
            if s == big_t and n < t_wanted:
                t_best, t_bound = SchemeChoice(t_family, n, r=r), n
    return best, t_best


def _gasp_rs_chains(big_k: int, big_l: int, big_t: int, rs, ss):
    """GASP_rs on stride K: α_s = KL + gap(T, K, r), β_s = KL + gap(T, K, s)."""
    kl = big_k * big_l
    ones = _runs(1, big_t)
    for r in rs:
        yield r, (1 << big_k) - 1 | _gap(ones, big_k, big_t, r) << kl, big_k, kl, ss


def _dog_rs_chains(big_k: int, big_l: int, big_t: int):
    """DOG_rs on stride K + r; s <= stride keeps every gap vector injective."""
    ones = _runs(1, big_t)
    for r in range(1, big_t + 1):
        stride = big_k + r
        yield (
            r,
            (1 << big_k) - 1 | _gap(ones, stride, big_t, r) << big_k,
            stride,
            stride * (big_l - 1) + big_k,
            range(1, min(big_t, stride) + 1),
        )


def _gasp(big_k: int, big_l: int, big_t: int) -> tuple[SchemeChoice, SchemeChoice]:
    """(GASP_r, GASP_rs) from one scan of the GASP_rs chains: GASP_r is
    GASP_rs with s = T (β_s = KL + [0, T)), r <= min(K, T)."""
    big_k, big_l, big_t = _oriented(big_k, big_l, big_t)
    # Admissible chain lengths: those whose gap vector has T distinct entries.
    # gap(T, K, r) repeats exactly when K < r < T: entries i = K and i = r are K.
    rs = [r for r in range(1, big_t + 1) if r <= big_k or r == big_t]
    chains = _gasp_rs_chains(big_k, big_l, big_t, rs, rs)
    grs, gr = _scan("GASP_RS", big_l, big_t, chains, "GASP_R", min(big_k, big_t))
    return gr, grs


def best_dog_rs(big_k: int, big_l: int, big_t: int) -> SchemeChoice:
    big_k, big_l, big_t = _oriented(big_k, big_l, big_t)
    return _scan("DOG_RS", big_l, big_t, _dog_rs_chains(big_k, big_l, big_t))[0]


def catx_choice(big_k: int, big_l: int, big_t: int) -> SchemeChoice | None:
    """Closed-form worker count at x=1; None where the construction needs
    T <= min(K, L) and that fails."""
    big_k, big_l, big_t = _oriented(big_k, big_l, big_t)
    if big_t > big_l:
        return None
    return SchemeChoice("CATX", n_catx_formula(big_k, big_l, big_t), x=1)


def best_scheme(big_k: int, big_l: int, big_t: int) -> SweepRecord:
    if min(big_k, big_l, big_t) < 2:
        raise ValueError("need K, L, T >= 2")
    cx = catx_choice(big_k, big_l, big_t)
    gr, grs = _gasp(big_k, big_l, big_t)
    dg = best_dog_rs(big_k, big_l, big_t)
    entries = {"CATX": cx, "DOG_RS": dg, "GASP_RS": grs, "GASP_R": gr}
    ranked = sorted(
        (c for c in entries.values() if c is not None),
        key=lambda c: (c.n_workers, FAMILY_ORDER.index(c.family)),
    )
    winner = ranked[0].family
    margin = ranked[1].n_workers - ranked[0].n_workers if len(ranked) > 1 else 0
    return SweepRecord(big_k, big_l, big_t, cx, gr, grs, dg, winner, margin)


def sweep(k_range, l_range, t_range) -> list[SweepRecord]:
    """One record per grid point, in lexicographic (K, L, T) order.

    l_range None ties L to K: the points (K, K, T). Otherwise the grid is
    the product of all three ranges.  A point and its transpose (L, K, T)
    are one problem (`_oriented`), so each is computed once per call and
    the other's record is the same with K and L as given.
    """
    ks, ts = sorted(set(k_range)), sorted(set(t_range))
    if l_range is None:
        points = [(k, k, t) for k in ks for t in ts]
    else:
        points = [(k, l, t) for k in ks for l in sorted(set(l_range)) for t in ts]
    if not points:
        raise ValueError("empty sweep grid")
    # Grid points are independent; evaluate in deterministic order.
    computed: dict[tuple[int, int, int], SweepRecord] = {}
    records = []
    for k, l, t in points:
        key = _oriented(k, l, t)
        rec = computed.get(key)
        if rec is None:
            rec = computed[key] = best_scheme(k, l, t)
        records.append(rec if (rec.k, rec.l) == (k, l) else replace(rec, k=k, l=l))
    return records
