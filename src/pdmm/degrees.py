"""Degree vectors for polynomial-code matrix multiplication schemes.

Constructs the four families of degree tables (GASP_r, GASP_rs, DOG_rs over
the integers; CAT_x with addition modulo q). Both kinds share one addition
table (addition_table), from which their unique entries are counted and one
validator checks the decodability/privacy conditions; for a cyclic table,
condition IV is the progression rule (_progression_order) under which
consecutive powers of a root of unity serve as evaluation points. Exponents
and moduli stay below 2^62, so that every sum of two fits int64.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd

import numpy as np


class ParameterError(ValueError):
    """Construction parameters out of range or in the wrong order."""


# Entries and moduli lie below this, so that a sum of two never wraps int64.
EXPONENT_LIMIT = 1 << 62


_VECTORS = ("alpha_p", "alpha_s", "beta_p", "beta_s")


def _integer(value, name: str) -> int:
    """value as an int; a float, which int() truncates, or a bool is refused."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ParameterError(f"{name} takes only integers, got {value!r}")


@dataclass(frozen=True)
class DegreeVectors:
    """The tuple (alpha_p, alpha_s, beta_p, beta_s), optionally cyclic.

    When ``modulus`` is set, all additions in the degree table are taken
    modulo it and entries must already lie in [0, modulus). Every entry and
    the modulus are ints, by _integer's rule, below EXPONENT_LIMIT = 2^62.
    """

    alpha_p: tuple[int, ...]
    alpha_s: tuple[int, ...]
    beta_p: tuple[int, ...]
    beta_s: tuple[int, ...]
    modulus: int | None = None

    def __post_init__(self):
        if self.modulus is not None:
            object.__setattr__(self, "modulus", _integer(self.modulus, "modulus"))
            if not 1 <= self.modulus < EXPONENT_LIMIT:
                raise ParameterError(f"modulus must lie in [1, 2^62), got {self.modulus}")
        bound = EXPONENT_LIMIT if self.modulus is None else self.modulus
        for name in _VECTORS:
            vec = tuple(_integer(v, name) for v in getattr(self, name))
            object.__setattr__(self, name, vec)
            if not vec:
                raise ParameterError(f"{name} must be non-empty")
            if not all(0 <= v < bound for v in vec):
                raise ParameterError(f"{name} has an entry outside [0, {bound}): {vec}")
        if len(self.alpha_s) != len(self.beta_s):
            raise ParameterError("alpha_s and beta_s must have equal length T")

    @property
    def k(self) -> int:
        return len(self.alpha_p)

    @property
    def l(self) -> int:
        return len(self.beta_p)

    @property
    def t(self) -> int:
        return len(self.alpha_s)


@dataclass(frozen=True)
class QuadrantSets:
    """The four sumsets of the degree table and their union."""

    tl: frozenset[int]
    tr: frozenset[int]
    bl: frozenset[int]
    br: frozenset[int]
    gamma: tuple[int, ...]
    n_unique: int


@dataclass(frozen=True)
class CatParameters:
    kappa: int
    lam: int
    k_star: int
    l_star: int
    t_bar: int
    q: int
    x: int
    y: int


@dataclass(frozen=True)
class ValidationReport:
    """Per-condition pass/fail flags with deterministic collision witnesses.

    ``witnesses`` holds (condition-or-quadrant label, colliding value) pairs:
    TL, TR, BL and BR, then alpha and beta, each label's values ascending.
    """

    flags: dict[str, bool]
    n_unique: int
    witnesses: tuple[tuple[str, int], ...]

    @property
    def valid(self) -> bool:
        return all(self.flags.values())


def gap(length: int, x: int, r: int) -> tuple[int, ...]:
    """Generalized arithmetic progression: r-length chains spaced x apart.

    Element i (0-based) is (i // r) * x + (i % r); a final partial chain is
    truncated. length, x and r are ints by _integer's rule.
    """
    length, x, r = _integer(length, "length"), _integer(x, "x"), _integer(r, "r")
    if length < 1 or r < 1:
        raise ParameterError(f"gap requires length >= 1 and r >= 1, got {length}, {r}")
    return tuple((i // r) * x + (i % r) for i in range(length))


def _ordered(big_k, big_l, big_t) -> tuple[int, int, int]:
    """(K, L, T) as ints by _integer's rule, refused unless K >= L >= T >= 2."""
    big_k, big_l, big_t = _integer(big_k, "K"), _integer(big_l, "L"), _integer(big_t, "T")
    if not big_k >= big_l >= big_t >= 2:
        raise ParameterError(f"need K >= L >= T >= 2, got ({big_k}, {big_l}, {big_t})")
    return big_k, big_l, big_t


def kappa_lambda(big_k: int, big_l: int, big_t: int) -> tuple[int, int]:
    """Minimal non-negative shifts making K+1+kappa and L+1+lambda coprime to T-1."""
    return _kappa_lambda(*_ordered(big_k, big_l, big_t))


def _kappa_lambda(big_k: int, big_l: int, big_t: int) -> tuple[int, int]:
    """kappa_lambda on ints with K >= L >= T >= 2."""
    t_bar = big_t - 1
    if t_bar == 1:
        return (0, 0)
    kappa = 0
    while gcd(big_k + 1 + kappa, t_bar) != 1:
        kappa += 1
    lam = 0
    while gcd(big_l + 1 + lam, t_bar) != 1:
        lam += 1
    return (kappa, lam)


def construct_gasp_r(big_k: int, big_l: int, big_t: int, r: int) -> DegreeVectors:
    """GASP_r is GASP_rs with s = T: gap(T, K, T) is [0, T)."""
    big_k, big_l, big_t = _integer(big_k, "K"), _integer(big_l, "L"), _integer(big_t, "T")
    r = _integer(r, "r")
    if not (big_k >= big_l >= 2 and big_t >= 2):
        raise ParameterError(f"need K >= L >= 2 and T >= 2, got ({big_k}, {big_l}, {big_t})")
    if not 1 <= r <= min(big_k, big_t):
        raise ParameterError(f"need 1 <= r <= min(K, T), got r={r}")
    return construct_gasp_rs(big_k, big_l, big_t, r, big_t)


def construct_gasp_rs(big_k: int, big_l: int, big_t: int, r: int, s: int) -> DegreeVectors:
    big_k, big_l, big_t = _integer(big_k, "K"), _integer(big_l, "L"), _integer(big_t, "T")
    r, s = _integer(r, "r"), _integer(s, "s")
    if not (big_k >= 2 and big_l >= 2 and big_t >= 2):
        raise ParameterError(f"need K, L, T >= 2, got ({big_k}, {big_l}, {big_t})")
    if not (1 <= r <= big_t and 1 <= s <= big_t):
        raise ParameterError(f"need 1 <= r, s <= T, got r={r}, s={s}")
    kl = big_k * big_l
    return DegreeVectors(
        alpha_p=tuple(range(big_k)),
        alpha_s=tuple(kl + g for g in gap(big_t, big_k, r)),
        beta_p=tuple(big_k * i for i in range(big_l)),
        beta_s=tuple(kl + g for g in gap(big_t, big_k, s)),
    )


def construct_dog_rs(big_k: int, big_l: int, big_t: int, r: int, s: int) -> DegreeVectors:
    big_k, big_l, big_t = _integer(big_k, "K"), _integer(big_l, "L"), _integer(big_t, "T")
    r, s = _integer(r, "r"), _integer(s, "s")
    if not (big_k >= 2 and big_l >= 2 and big_t >= 2):
        raise ParameterError(f"need K, L, T >= 2, got ({big_k}, {big_l}, {big_t})")
    if not 1 <= r <= big_t:
        raise ParameterError(f"need 1 <= r <= T, got r={r}")
    if not 1 <= s <= min(big_t, big_k + r):
        raise ParameterError(f"need 1 <= s <= min(T, K+r), got s={s}")
    stride = big_k + r
    return DegreeVectors(
        alpha_p=tuple(range(big_k)),
        alpha_s=tuple(big_k + g for g in gap(big_t, stride, r)),
        beta_p=tuple(stride * i for i in range(big_l)),
        beta_s=tuple(stride * (big_l - 1) + big_k + g for g in gap(big_t, stride, s)),
    )


def cat_parameters(big_k: int, big_l: int, big_t: int, x: int = 1) -> CatParameters:
    big_k, big_l, big_t = _integer(big_k, "K"), _integer(big_l, "L"), _integer(big_t, "T")
    x = _integer(x, "x")
    kappa, lam = kappa_lambda(big_k, big_l, big_t)
    k_star = big_k + 1 + kappa
    l_star = big_l + 1 + lam
    t_bar = big_t - 1
    q = k_star * l_star + t_bar * t_bar
    if gcd(x, q) != 1:
        raise ParameterError(f"x={x} is not coprime to q={q}")
    y = (-x * t_bar * pow(k_star, -1, q)) % q
    # gcd(y, q) = 1 is guaranteed structurally; assert as a sanity check.
    assert gcd(y, q) == 1
    return CatParameters(kappa, lam, k_star, l_star, t_bar, q, x, y)


def construct_cat_x(big_k: int, big_l: int, big_t: int, x: int = 1) -> DegreeVectors:
    big_k, big_l, big_t = _integer(big_k, "K"), _integer(big_l, "L"), _integer(big_t, "T")
    x = _integer(x, "x")
    par = cat_parameters(big_k, big_l, big_t, x)
    q, y = par.q, par.y
    return DegreeVectors(
        alpha_p=tuple((y * i) % q for i in range(big_k)),
        alpha_s=tuple((x * i + big_k * y) % q for i in range(big_t)),
        beta_p=tuple((x * i) % q for i in range(big_l)),
        beta_s=tuple((y * i - x) % q for i in range(big_t)),
        modulus=q,
    )


def addition_table(dv: DegreeVectors) -> np.ndarray:
    """The (K+T) x (L+T) int64 degree table alpha_i + beta_j, rows alpha_p
    then alpha_s, columns beta_p then beta_s, reduced mod dv.modulus for a
    cyclic table. Every sum of the table is taken here."""
    table = np.add.outer(
        np.array(dv.alpha_p + dv.alpha_s, dtype=np.int64),
        np.array(dv.beta_p + dv.beta_s, dtype=np.int64),
    )
    if dv.modulus is not None:
        table %= dv.modulus
    return table


def quadrants(dv: DegreeVectors) -> QuadrantSets:
    """The four sumsets TL/TR/BL/BR and the sorted union gamma."""
    table = addition_table(dv)
    top, bottom = table[: dv.k], table[dv.k :]
    tl, tr, bl, br = (
        frozenset(block.ravel().tolist())
        for block in (top[:, : dv.l], top[:, dv.l :], bottom[:, : dv.l], bottom[:, dv.l :])
    )
    gamma = tuple(sorted(tl | tr | bl | br))
    return QuadrantSets(tl, tr, bl, br, gamma, len(gamma))


def count_unique(dv: DegreeVectors) -> int:
    """Number of distinct degree-table entries (= required worker count N)."""
    return quadrants(dv).n_unique


def table_to_dict(family: str | None, dv: DegreeVectors, params: dict) -> dict:
    """JSON-ready description of a degree table; read back by table_from_dict."""
    doc = {"family": family, "K": dv.k, "L": dv.l, "T": dv.t}
    doc.update(params)
    if dv.modulus is not None:
        doc["q"] = dv.modulus
    doc["alpha_p"] = list(dv.alpha_p)
    doc["alpha_s"] = list(dv.alpha_s)
    doc["beta_p"] = list(dv.beta_p)
    doc["beta_s"] = list(dv.beta_s)
    doc["N"] = quadrants(dv).n_unique
    return doc


def table_from_dict(doc: dict) -> DegreeVectors:
    """The degree table of a table document, cyclic mod doc["q"]
    exactly when it carries q. ParameterError unless doc is a JSON object
    with all four vectors, each a list."""
    if not isinstance(doc, dict):
        raise ParameterError(f"expected a JSON object, got {type(doc).__name__}")
    missing = [name for name in _VECTORS if name not in doc]
    if missing:
        raise ParameterError(f"table document has no {missing[0]}")
    for name in _VECTORS:
        if not isinstance(doc[name], list):
            raise ParameterError(f"{name} must be a list of integers")
    return DegreeVectors(*(doc[name] for name in _VECTORS), modulus=doc.get("q"))


def n_catx_formula(big_k: int, big_l: int, big_t: int) -> int:
    """Closed-form worker count (K+1)(L+1) + (T-1)^2 + kappa + lambda."""
    return _n_catx(*_ordered(big_k, big_l, big_t))


def _n_catx(big_k: int, big_l: int, big_t: int) -> int:
    """n_catx_formula on ints with K >= L >= T >= 2."""
    kappa, lam = _kappa_lambda(big_k, big_l, big_t)
    return (big_k + 1) * (big_l + 1) + (big_t - 1) ** 2 + kappa + lam


def _repeated(values) -> list[int]:
    """The values of a short vector of ints that occur more than once,
    ascending."""
    seen, repeats = set(), set()
    for v in values:
        (repeats if v in seen else seen).add(v)
    return sorted(repeats)


def validate_degree_table(
    dv: DegreeVectors, qs: QuadrantSets | None = None
) -> ValidationReport:
    """Check the private-and-decodable conditions of an integer or cyclic
    degree table.

    II: the KL data sums are distinct. III: the sums TR (IIIa), BL (IIIb)
    and BR (IIIc) miss the data sums. IV, for an integer table: no exponent
    repeats in alpha or in beta; for a cyclic table, the sufficient
    condition that both mask sides are progressions that _progression_order
    proves on consecutive powers of a q-th root of unity. qs, when given,
    must be quadrants(dv), which is otherwise computed here.
    """
    if qs is None:
        qs = quadrants(dv)
    dups = _repeated(addition_table(dv)[: dv.k, : dv.l].ravel().tolist())
    flags = {"I": True, "II": not dups}
    witnesses = [("TL", v) for v in dups]
    for label, name, other in (("IIIa", "TR", qs.tr), ("IIIb", "BL", qs.bl),
                               ("IIIc", "BR", qs.br)):
        overlap = sorted(qs.tl & other)
        flags[label] = not overlap
        witnesses.extend((name, v) for v in overlap)
    if dv.modulus is None:
        repeats = [
            (name, v)
            for name, vec in (("alpha", dv.alpha_p + dv.alpha_s), ("beta", dv.beta_p + dv.beta_s))
            for v in _repeated(vec)
        ]
        flags["IV"] = not repeats
        witnesses.extend(repeats)
    else:
        flags["IV"] = all(
            d is not None and _progression_order(d, qs.n_unique, dv.modulus)
            for d in _progression_steps(dv)
        )
    return ValidationReport(flags, qs.n_unique, tuple(witnesses))


def _progression_steps(dv: DegreeVectors) -> tuple[int | None, int | None]:
    """The step d of alpha_s and of beta_s as progressions c + d*i, mod q
    for a cyclic table, or None for a side that is none; a single entry
    steps by 1. Condition IV, the scan of scheme.instantiate_degree_table
    and scheme.verify_privacy_rank take a side's step only from here, and
    apply the rule to every side that has one, for every T."""
    q, steps = dv.modulus, []
    for vec in (dv.alpha_s, dv.beta_s):
        diffs = {b - a if q is None else (b - a) % q for a, b in zip(vec, vec[1:])} or {1}
        steps.append(diffs.pop() if len(diffs) == 1 else None)
    return tuple(steps)


def _progression_order(d: int, n: int, q: int) -> bool:
    """Whether a mask side c + d*i (mod q for a cyclic table) makes every
    T x T mask submatrix invertible on the points omega^0 .. omega^(n-1),
    omega of order q. Each such submatrix is diag(omega^(w*c)) times a
    Vandermonde matrix in the nodes omega^(w*d), which are powers of an
    element of order q / gcd(d, q): they are pairwise distinct iff that
    order is at least n. For 2 <= T <= n two equal nodes make a submatrix
    singular; a side of T > n entries has none. A zero step never passes
    for n >= 2."""
    return q // gcd(d, q) >= n
