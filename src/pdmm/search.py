"""Parameter optimization and grid sweeps over the scheme families.

For each (K, L, T) the admissible chain parameters (r, s) are searched
exhaustively and the four families are compared by worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .degrees import (
    _count_sums,
    construct_gasp_r,
    gap,
    n_catx_formula,
)

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


def best_gasp_r(big_k: int, big_l: int, big_t: int) -> SchemeChoice:
    big_k, big_l, big_t = _oriented(big_k, big_l, big_t)
    best = None
    for r in range(1, min(big_k, big_t) + 1):
        dv = construct_gasp_r(big_k, big_l, big_t, r)
        n = _count_sums(dv.alpha_p, dv.alpha_s, dv.beta_p, dv.beta_s)
        if best is None or n < best.n_workers:
            best = SchemeChoice("GASP_R", n, r=r)
    return best


def _gap_arrays(big_t: int, stride: int) -> dict[int, np.ndarray]:
    """gap(T, stride, r) for each chain length r, keeping only injective ones."""
    out = {}
    for r in range(1, big_t + 1):
        g = gap(big_t, stride, r)
        if len(set(g)) == big_t:
            out[r] = np.asarray(g)
    return out


def best_gasp_rs(big_k: int, big_l: int, big_t: int) -> SchemeChoice:
    big_k, big_l, big_t = _oriented(big_k, big_l, big_t)
    kl = big_k * big_l
    ap = np.arange(big_k)
    bp = big_k * np.arange(big_l)
    gaps = _gap_arrays(big_t, big_k)
    best = None
    for r in sorted(gaps):
        as_ = kl + gaps[r]
        for s in sorted(gaps):
            n = _count_sums(ap, as_, bp, kl + gaps[s])
            if best is None or n < best.n_workers:
                best = SchemeChoice("GASP_RS", n, r=r, s=s)
    return best


def best_dog_rs(big_k: int, big_l: int, big_t: int) -> SchemeChoice:
    big_k, big_l, big_t = _oriented(big_k, big_l, big_t)
    ap = np.arange(big_k)
    best = None
    for r in range(1, big_t + 1):
        stride = big_k + r
        gaps = _gap_arrays(big_t, stride)
        as_ = big_k + gaps[r]
        bp = stride * np.arange(big_l)
        base = stride * (big_l - 1) + big_k
        for s in range(1, min(big_t, stride) + 1):
            n = _count_sums(ap, as_, bp, base + gaps[s])
            if best is None or n < best.n_workers:
                best = SchemeChoice("DOG_RS", n, r=r, s=s)
    return best


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
