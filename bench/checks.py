"""Checks of pdmm outputs made apart from the library.

Nothing here imports pdmm. Primality, elimination mod p, the degree-table
constructions and the worker counts are re-derived from their definitions,
so a fault in the library cannot vouch for itself. Every check returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

# The documented `sweep` CSV contract (README "Command line").
CSV_HEADER = (
    "K,L,T,N_catx,N_gaspr,r_gaspr,N_gasprs,r_gasprs,s_gasprs,"
    "N_dogrs,r_dogrs,s_dogrs,winner,margin"
)

# Worker counts stated by the source paper: (K, L, T) -> {CSV column: N}.
PAPER_WORKER_COUNTS = {
    (2, 2, 2): {"N_catx": 10, "N_gaspr": 11},
    (4, 4, 4): {"N_catx": 34, "N_gaspr": 36},
    (7, 7, 6): {"N_dogrs": 88, "N_gasprs": 89},
    (3, 3, 3): {"N_dogrs": 23},
}

# The brute force re-derives every family's optimum up to this T.
BRUTE_FORCE_MAX_T = 8

# Row subsets checked exhaustively up to this many, else a seeded sample of
# this many: covers every grid scheme (gasp-small (4,4,4): C(41,4) = 101,270).
EXHAUSTIVE_LIMIT = 1 << 17


# -- arithmetic --------------------------------------------------------------


def is_prime(n: int) -> bool:
    """Primality by trial division (the benchmark's fields are small)."""
    if n > 2**48:
        raise ValueError(f"{n} is too large for trial division")
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    return all(n % d for d in range(3, math.isqrt(n) + 1, 2))


def prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


def int64_safe(p: int, inner: int) -> bool:
    """True when an int64 product of [0, p) matrices cannot overflow."""
    return (p - 1) ** 2 * inner < 2**63


def reference_product(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """A.B mod p, in int64 only where the sum provably fits, else Python ints."""
    if int64_safe(p, a.shape[1]):
        return a.astype(np.int64) @ b.astype(np.int64) % p
    exact = a.astype(object) @ b.astype(object) % p
    return exact.astype(np.int64)


def singular_mask(stack: np.ndarray, p: int) -> np.ndarray:
    """For a (M, t, t) stack, True where the matrix is singular mod p.

    Fraction-free elimination: row r becomes pivot*row_r - a_rc*row_c, which
    scales the determinant by the nonzero pivot, so rank is kept and no
    inverse is needed. Every product stays below p^2 <= 2^62.
    """
    if (p - 1) ** 2 >= 2**62:
        raise ValueError(f"p={p} is too large for the int64 elimination")
    a = np.array(stack, dtype=np.int64) % p
    m, t, _ = a.shape
    rows = np.arange(m)
    singular = np.zeros(m, dtype=bool)
    for c in range(t):
        nonzero = a[:, c:, c] != 0
        singular |= ~nonzero.any(axis=1)
        pivot_row = c + nonzero.argmax(axis=1)
        top = a[rows, c].copy()
        a[rows, c] = a[rows, pivot_row]
        a[rows, pivot_row] = top
        pivot = a[:, c, c][:, None]
        for r in range(c + 1, t):
            factor = a[:, r, c][:, None]
            a[:, r, :] = (a[:, r, :] * pivot - factor * a[:, c, :]) % p
    return singular


def vandermonde(points, exponents, p: int) -> np.ndarray:
    return np.array(
        [[pow(int(x), int(e), p) for e in exponents] for x in points], dtype=np.int64
    )


def first_singular_subset(v: np.ndarray, t: int, p: int, chunk: int = 1 << 15,
                          limit: int = EXHAUSTIVE_LIMIT):
    """The first t-row subset of v whose t x t block is singular, or None.

    Every subset, in lexicographic order, when there are at most `limit`;
    otherwise `limit` subsets drawn uniformly with a fixed seed.
    """
    n = v.shape[0]
    for block in _subset_blocks(n, t, chunk, limit):
        bad = singular_mask(v[block], p)
        if bad.any():
            return tuple(int(i) for i in block[int(bad.argmax())])
    return None


def _subset_blocks(n: int, t: int, chunk: int, limit: int):
    """(m, t) arrays of sorted row indices: see first_singular_subset."""
    if math.comb(n, t) <= limit:
        combos = itertools.combinations(range(n), t)
        while block := list(itertools.islice(combos, chunk)):
            yield np.array(block, dtype=np.intp)
    else:
        rng = np.random.default_rng(0)
        for start in range(0, limit, chunk):
            keys = rng.random((min(chunk, limit - start), n))
            yield np.sort(keys.argsort(axis=1)[:, :t], axis=1)


# -- degree tables -----------------------------------------------------------


def gap(length: int, x: int, r: int) -> list[int]:
    """Chains of r consecutive integers whose starts are x apart."""
    return [(i // r) * x + i % r for i in range(length)]


def gasp_r(k, l, t, r):
    kl = k * l
    return (list(range(k)), [kl + g for g in gap(t, k, r)],
            [k * j for j in range(l)], [kl + i for i in range(t)], None)


def gasp_rs(k, l, t, r, s):
    kl = k * l
    return (list(range(k)), [kl + g for g in gap(t, k, r)],
            [k * j for j in range(l)], [kl + g for g in gap(t, k, s)], None)


def dog_rs(k, l, t, r, s):
    stride = k + r
    return (list(range(k)), [k + g for g in gap(t, stride, r)],
            [stride * j for j in range(l)],
            [stride * (l - 1) + k + g for g in gap(t, stride, s)], None)


def cat_x(k, l, t, x=1):
    """The cyclic table over Z_q with q = K*L* + (T-1)^2 (needs K >= L >= T)."""
    tb = t - 1

    def shift(v):
        return next(c for c in itertools.count() if tb == 1 or math.gcd(v + 1 + c, tb) == 1)

    ks, ls = k + 1 + shift(k), l + 1 + shift(l)
    q = ks * ls + tb * tb
    y = (-x * tb * pow(ks, -1, q)) % q
    return ([(y * i) % q for i in range(k)], [(x * i + k * y) % q for i in range(t)],
            [(x * i) % q for i in range(l)], [(y * i - x) % q for i in range(t)], q)


def table_sums(table) -> set[int]:
    ap, as_, bp, bs, q = table
    return {(a + b) % q if q else a + b for a in ap + as_ for b in bp + bs}


def worker_count(table) -> int:
    return len(table_sums(table))


def admissible(family: str, k: int, l: int, t: int):
    """The (r, s) each family's construction admits, in search order (K >= L)."""
    if family == "gasp-r":
        return [(r, None) for r in range(1, min(k, t) + 1)]
    if family == "gasp-rs":
        # A chain longer than the stride K overlaps the next one, unless it is the only one.
        chains = [r for r in range(1, t + 1) if len(set(gap(t, k, r))) == t]
        return [(r, s) for r in chains for s in chains]
    if family == "dog-rs":
        return [(r, s) for r in range(1, t + 1) for s in range(1, min(t, k + r) + 1)]
    raise ValueError(family)


def build(family: str, k: int, l: int, t: int, r=None, s=None):
    if family == "catx":
        return cat_x(k, l, t)
    if family == "gasp-r":
        return gasp_r(k, l, t, r)
    if family == "gasp-rs":
        return gasp_rs(k, l, t, r, s)
    if family == "dog-rs":
        return dog_rs(k, l, t, r, s)
    raise ValueError(family)


def best_params(family: str, k: int, l: int, t: int):
    """(N, r, s) of the first admissible (r, s) with the fewest workers."""
    best = None
    for r, s in admissible(family, k, l, t):
        n = worker_count(build(family, k, l, t, r, s))
        if best is None or n < best[0]:
            best = (n, r, s)
    return best


# -- instantiate ---------------------------------------------------------------


def scheme_problems(label: str, scheme, table, certificate) -> list[str]:
    """Independent checks of one instantiated scheme and its rank certificate.

    `table` is the degree table the scheme was built from, by this module's
    constructions; the scheme must carry exactly that table.
    """
    out = []
    dv, p, rho = scheme.dv, scheme.field.p, [int(v) for v in scheme.rho]
    ap, as_, bp, bs, q = table
    if (list(dv.alpha_p), list(dv.alpha_s), list(dv.beta_p), list(dv.beta_s), dv.modulus) != (
        ap, as_, bp, bs, q
    ):
        out.append(f"{label}: degree table differs from the family's construction")
    if not is_prime(p):
        out.append(f"{label}: p={p} is not prime")
    if len(set(rho)) != len(rho) or any(not 0 < v < p for v in rho):
        out.append(f"{label}: evaluation points are not distinct nonzero elements of F_{p}")
    sums = table_sums(table)
    if len(rho) != len(sums) or sorted(sums) != [int(g) for g in scheme.gamma]:
        out.append(f"{label}: N={len(rho)} but the table has {len(sums)} distinct sums")
        return out
    if singular_mask(vandermonde(rho, sorted(sums), p)[None], p)[0]:
        out.append(f"{label}: the N x N gamma-Vandermonde matrix is singular mod {p}")
    for side, exps in (("alpha_s", as_), ("beta_s", bs)):
        witness = first_singular_subset(vandermonde(rho, exps, p), len(exps), p)
        if witness is not None:
            out.append(f"{label}: {side} rows {witness} form a singular T x T block")
    if scheme.omega is not None:
        order = q if q is not None else scheme.params.get("q")
        omega = int(scheme.omega)
        if order is None or pow(omega, order, p) != 1 or any(
            pow(omega, order // f, p) == 1 for f in prime_factors(order)
        ):
            out.append(f"{label}: omega={omega} does not have order q={order} mod {p}")
        elif rho != [pow(omega, i, p) for i in range(len(rho))]:
            out.append(f"{label}: rho is not the consecutive powers of omega")
    elif q is not None:
        out.append(f"{label}: cyclic scheme without omega")
    if not certificate.ok:
        out.append(f"{label}: verify_privacy_rank does not report ok")
    return out


# -- multiply ------------------------------------------------------------------


def product_problems(label: str, out, reference: np.ndarray) -> list[str]:
    out = np.asarray(out)
    if out.shape != reference.shape:
        return [f"{label}: product shape {out.shape}, expected {reference.shape}"]
    wrong = np.argwhere(out != reference)
    if len(wrong):
        i, j = (int(v) for v in wrong[0])
        return [f"{label}: {len(wrong)} wrong entries, first at ({i}, {j})"]
    return []


# -- sweep ---------------------------------------------------------------------

_FAMILY_COLUMNS = (
    ("gasp-r", "N_gaspr", "r_gaspr", None),
    ("gasp-rs", "N_gasprs", "r_gasprs", "s_gasprs"),
    ("dog-rs", "N_dogrs", "r_dogrs", "s_dogrs"),
)
_WINNER = {"catx": "CATX", "gasp-r": "GASP_R", "gasp-rs": "GASP_RS", "dog-rs": "DOG_RS"}


def _opt_int(v):
    return None if v in ("", None) else int(v)


def record_problems(rec: dict) -> list[str]:
    """Check one grid point: {"K", "L", "T", "catx": (N|None), family: (N, r, s)}."""
    out = []
    k, l, t = rec["K"], rec["L"], rec["T"]
    where = f"({k},{l},{t})"
    ko, lo = max(k, l), min(k, l)  # A.B = (B^T A^T)^T: N is symmetric in K, L
    counts = {}
    if t <= lo:
        want = worker_count(cat_x(ko, lo, t))
        if rec["catx"] != want:
            out.append(f"{where}: N_catx={rec['catx']}, the table has {want}")
        counts["catx"] = want
    elif rec["catx"] is not None:
        out.append(f"{where}: N_catx reported where CAT_x needs T <= min(K, L)")
    for family, _, _, _ in _FAMILY_COLUMNS:
        n, r, s = rec[family]
        if (r, s) not in admissible(family, ko, lo, t):
            out.append(f"{where}: {family} (r, s) = ({r}, {s}) is not admissible")
            continue
        want = worker_count(build(family, ko, lo, t, r, s))
        if n != want:
            out.append(f"{where}: {family} N={n}, the table for (r, s)=({r}, {s}) has {want}")
        counts[family] = want
        if t <= BRUTE_FORCE_MAX_T:
            best = best_params(family, ko, lo, t)[0]
            if n != best:
                out.append(f"{where}: {family} N={n}, brute force finds {best}")
    ranked = sorted(counts.values())
    if counts and counts.get(_family_of(rec["winner"])) != ranked[0]:
        out.append(f"{where}: winner {rec['winner']} does not have the fewest workers")
    if len(ranked) > 1 and rec["margin"] != ranked[1] - ranked[0]:
        out.append(f"{where}: margin {rec['margin']}, expected {ranked[1] - ranked[0]}")
    reported = {"N_catx": rec["catx"], "N_gaspr": rec["gasp-r"][0],
                "N_gasprs": rec["gasp-rs"][0], "N_dogrs": rec["dog-rs"][0]}
    for column, want in PAPER_WORKER_COUNTS.get((k, l, t), {}).items():
        if reported[column] != want:
            out.append(f"{where}: {column}={reported[column]}, the paper gives {want}")
    return out


def _family_of(winner: str):
    return next((f for f, w in _WINNER.items() if w == winner), None)


def csv_problems(text: str, points: list[tuple[int, int, int]]) -> list[str]:
    """Check a `sweep` CSV against the contract and the expected grid points."""
    lines = text.strip("\n").split("\n")
    if lines[0] != CSV_HEADER:
        return [f"CSV header {lines[0]!r} differs from the documented contract"]
    names = CSV_HEADER.split(",")
    rows = [dict(zip(names, line.split(","))) for line in lines[1:]]
    got = [(int(r["K"]), int(r["L"]), int(r["T"])) for r in rows]
    if got != points:
        return [f"CSV holds {len(got)} grid points, expected {len(points)} in order"]
    out = []
    for row in rows:
        rec = {
            "K": int(row["K"]), "L": int(row["L"]), "T": int(row["T"]),
            "catx": _opt_int(row["N_catx"]),
            "winner": row["winner"], "margin": int(row["margin"]),
        }
        for family, n_col, r_col, s_col in _FAMILY_COLUMNS:
            rec[family] = (int(row[n_col]), _opt_int(row[r_col]),
                           _opt_int(row[s_col]) if s_col else None)
        out += record_problems(rec)
    return out


def search_json_problems(text: str, point: tuple[int, int, int]) -> list[str]:
    """Check one `search --format json` document for grid point `point`."""
    doc = json.loads(text)
    if (doc["K"], doc["L"], doc["T"]) != point:
        return [f"search answered {(doc['K'], doc['L'], doc['T'])}, asked {point}"]

    def choice(key):
        c = doc[key]
        return (c["N"], c.get("r"), c.get("s"))

    rec = {
        "K": doc["K"], "L": doc["L"], "T": doc["T"],
        "catx": doc["catx"]["N"] if doc["catx"] else None,
        "gasp-r": choice("gasp_r"), "gasp-rs": choice("gasp_rs"), "dog-rs": choice("dog_rs"),
        "winner": doc["winner"], "margin": doc["margin"],
    }
    return record_problems(rec)
