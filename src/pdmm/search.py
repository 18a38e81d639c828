"""Parameter optimization and grid sweeps over the scheme families.

For each (K, L, T) the admissible chain parameters (r, s) of GASP_r, GASP_rs
and DOG_rs are scanned in order by one routine, `_scan`, and the four
families are compared by worker count.  Per chain length r it builds one
bitmap of the TL ∪ BL sums (α_p ∪ α_s) + β_p, which do not depend on s;
each s adds (α_p ∪ α_s) + β_s to a copy and counts the set bits.  Since
every s gives at least the entries of r's bitmap, an r whose bitmap is
already as large as the best N found so far is skipped without changing the
result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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
    def choices(self) -> dict[str, SchemeChoice | None]:
        return {
            "CATX": self.catx,
            "GASP_R": self.gasp_r,
            "GASP_RS": self.gasp_rs,
            "DOG_RS": self.dog_rs,
        }

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


def _gaps(big_t: int, stride: int) -> np.ndarray:
    """Row r-1 is the chain vector gap(T, stride, r): element i is
    (i // r)·stride + i % r, for every chain length r in 1..T."""
    i = np.arange(big_t)
    r = np.arange(1, big_t + 1)[:, None]
    return (i // r) * stride + i % r


def _scan(family: str, chains) -> SchemeChoice:
    """First (r, s) of least worker count, in the order `chains` yields them.

    `chains` yields (r, alphas, beta_p, ss, beta_s) with alphas = α_p ∪ α_s
    and row j of beta_s the β_s vector of chain length ss[j].  The TL ∪ BL
    sums alphas + β_p do not depend on s, so they go into one bitmap per r;
    each s adds alphas + β_s to a copy and counts the set bits.  Every s gives
    N(r, s) >= |TL ∪ BL| and only a strictly smaller N replaces the best, so
    an r whose bitmap already holds best.N entries is skipped whole: the
    result equals the exhaustive scan's, tie-break included.
    """
    best = None
    for r, alphas, beta_p, ss, beta_s in chains:
        left = np.zeros(int(alphas.max()) + max(int(beta_p.max()), int(beta_s.max())) + 1, bool)
        left[np.add.outer(alphas, beta_p)] = True
        if best is not None and np.count_nonzero(left) >= best.n_workers:
            continue
        for s, row in zip(ss, beta_s):
            seen = left.copy()
            seen[np.add.outer(alphas, row)] = True
            n = int(np.count_nonzero(seen))
            if best is None or n < best.n_workers:
                best = SchemeChoice(family, n, r=r, s=s)
    return best


def best_gasp_r(big_k: int, big_l: int, big_t: int) -> SchemeChoice:
    """GASP_r is GASP_rs with β_s = KL + [0, T): one s per r."""
    big_k, big_l, big_t = _oriented(big_k, big_l, big_t)
    kl = big_k * big_l
    ap = np.arange(big_k)
    bp = big_k * np.arange(big_l)
    gaps = kl + _gaps(big_t, big_k)
    beta_s = kl + np.arange(big_t)[None, :]
    return _scan(
        "GASP_R",
        ((r, np.concatenate([ap, gaps[r - 1]]), bp, [None], beta_s)
         for r in range(1, min(big_k, big_t) + 1)),
    )


def best_gasp_rs(big_k: int, big_l: int, big_t: int) -> SchemeChoice:
    big_k, big_l, big_t = _oriented(big_k, big_l, big_t)
    kl = big_k * big_l
    ap = np.arange(big_k)
    bp = big_k * np.arange(big_l)
    gaps = kl + _gaps(big_t, big_k)
    # Admissible chain lengths: those whose gap vector has T distinct entries.
    # gap(T, K, r) repeats exactly when K < r < T: entries i = K and i = r are K.
    rs = [r for r in range(1, big_t + 1) if r <= big_k or r == big_t]
    beta_s = gaps[np.array(rs) - 1]
    return _scan(
        "GASP_RS",
        ((r, np.concatenate([ap, gaps[r - 1]]), bp, rs, beta_s) for r in rs),
    )


def best_dog_rs(big_k: int, big_l: int, big_t: int) -> SchemeChoice:
    """DOG_rs on stride K + r; s <= stride keeps every gap vector injective."""
    big_k, big_l, big_t = _oriented(big_k, big_l, big_t)
    ap = np.arange(big_k)

    def chains():
        for r in range(1, big_t + 1):
            stride = big_k + r
            gaps = _gaps(big_t, stride)
            n_s = min(big_t, stride)
            yield (
                r,
                np.concatenate([ap, big_k + gaps[r - 1]]),
                stride * np.arange(big_l),
                range(1, n_s + 1),
                stride * (big_l - 1) + big_k + gaps[:n_s],
            )

    return _scan("DOG_RS", chains())


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
    gr = best_gasp_r(big_k, big_l, big_t)
    grs = best_gasp_rs(big_k, big_l, big_t)
    dg = best_dog_rs(big_k, big_l, big_t)
    entries = {"CATX": cx, "DOG_RS": dg, "GASP_RS": grs, "GASP_R": gr}
    ranked = sorted(
        (c for c in entries.values() if c is not None),
        key=lambda c: (c.n_workers, FAMILY_ORDER.index(c.family)),
    )
    winner = ranked[0].family
    margin = ranked[1].n_workers - ranked[0].n_workers if len(ranked) > 1 else 0
    return SweepRecord(big_k, big_l, big_t, cx, gr, grs, dg, winner, margin)


def sweep(k_range, l_range, t_range, mode: str = "full") -> list[SweepRecord]:
    """One record per grid point, in lexicographic (K, L, T) order.

    mode 'KequalsL' ties L to K and ignores l_range; 'full' takes the product
    of all three ranges.
    """
    ks, ts = sorted(set(k_range)), sorted(set(t_range))
    if mode == "KequalsL":
        points = [(k, k, t) for k in ks for t in ts]
    elif mode == "full":
        points = [(k, l, t) for k in ks for l in sorted(set(l_range)) for t in ts]
    else:
        raise ValueError(f"unknown sweep mode: {mode}")
    if not points:
        raise ValueError("empty sweep grid")
    # Grid points are independent; evaluate in deterministic order.
    return [best_scheme(*pt) for pt in points]
