"""The field scan against references written from its rules.

Cyclic (catx) tables admit one order, their modulus q: the scheme lies on
the smallest prime p >= max(min_p, N + 1) with q | p - 1, at the points
omega^0 .. omega^(N-1) for omega = g^((p-1)/q), and ref_cat says so directly.

instantiate_degree_table scans primes p in bands [P, 2P), from P = N + 1
(no min_p here), and for each p the divisors q >= N of p - 1, ascending. A q
at which gamma, alpha_s or beta_s repeats a residue is skipped; any other is
a candidate, with the points rho = omega^0 .. omega^(N-1) for omega =
g^((p-1)/q), g the smallest generator of F_p^*. A band spends at most 32
candidates. The first candidate whose two mask sides have no singular T x T
submatrix is accepted; its certificate is 'structural' when both mask
vectors are arithmetic progressions, else 'exhaustive'.

The reference follows that rule with none of the library's code: primes and
divisors by trial division, g as the first element whose powers reach every
nonzero residue, and each mask side decided by exact integer determinants,
by the Leibniz formula, of its submatrices in lexicographic order of the row
subsets. Three facts keep it fast. Rows w + c of a mask matrix on these
points are rows w times diag(omega^(c*e)), so rows W and W - min(W) are
singular together, and only the subsets that hold row 0 are tested. A side
c + d*i is singular exactly when two of the nodes x^d coincide. And the first
n points do not depend on the table, so a side that passes on n points
passes on fewer, and one with a singular submatrix on rows below m fails on
every n >= m. With every_subset=True the first two are dropped: all C(N, T)
submatrices of both sides are tested.
"""

import itertools
import time
from functools import lru_cache
from math import comb, factorial, isqrt

import numpy as np
import pytest

from pdmm.degrees import (
    ParameterError,
    construct_cat_x,
    construct_dog_rs,
    construct_gasp_r,
    construct_gasp_rs,
    count_unique,
    validate_degree_table,
)
from pdmm.field import FieldError
from pdmm.scheme import (
    instantiate_cat,
    instantiate_degree_table,
    multiply_via_scheme,
    verify_privacy_rank,
)


@lru_cache(maxsize=None)
def ref_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def ref_divisors(n):
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


@lru_cache(maxsize=None)
def ref_generator(p):
    for g in range(1, p):
        x, order = g, 1
        while x != 1:
            x, order = x * g % p, order + 1
        if order == p - 1:
            return g
    raise AssertionError(f"{p} has no generator")


@lru_cache(maxsize=None)
def signed_permutations(t):
    """The permutations of range(t), as rows, and their signs."""
    perms = list(itertools.permutations(range(t)))
    inversions = [sum(a > b for i, a in enumerate(q) for b in q[i + 1 :]) for q in perms]
    return np.array(perms).reshape(-1, t), np.array([(-1) ** k for k in inversions])


def ref_determinants(m, p):
    """Determinants mod p of a (t, t, M) stack of residues: the exact
    integer determinants by the Leibniz formula, a signed sum over the t!
    permutations of products of t entries, reduced mod p at the end. Each
    product is at most (p-1)^t, so t! (p-1)^t < 2^63 keeps the sum inside
    int64."""
    t = m.shape[0]
    assert factorial(t) * (p - 1) ** t < 2**63
    perms, signs = signed_permutations(t)
    # products[k, c] = prod over i of m[i, perms[k, i], c]
    products = m[np.arange(t)[:, None], perms.T].prod(axis=0)
    return signs @ products % p


@lru_cache(maxsize=16)
def ref_subsets(n, t):
    """The t-subsets of range(n) in lexicographic order, as an array."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), t))
    return np.fromiter(flat, dtype=np.intp).reshape(-1, t)


def ref_first_singular(p, q, n, exps, every_subset):
    """None when every T x T submatrix of [x^e for e in exps] on the points
    x_w = omega^w, w < n, omega of order q, is regular mod p; else 1 + the
    largest row of a singular one, so that the side fails for every n at
    least that.

    Row w is x_w^c times the row of exps - c, so the tables ask this only
    for exps with exps[0] = 0. Then row 0 and column 0 are all ones, and a
    submatrix on rows {0} + W is, after subtracting row 0 from the others,
    regular iff [x_w^e - 1] for w in W and e in exps[1:] is. Unless
    every_subset is set, only those (T-1) x (T-1) determinants are taken.
    """
    assert exps[0] == 0
    omega = pow(ref_generator(p), (p - 1) // q, p)
    if ref_progression(exps) and not every_subset:
        # exps = d*i: Vandermonde rows in the nodes x^d. A repeated node at
        # w makes every T-subset holding both of its rows singular.
        first = {}
        for w in range(n if len(exps) > 1 else 0):
            if first.setdefault(pow(omega, w * exps[1], p), w) != w:
                return max(w, len(exps) - 1) + 1
        return None
    if every_subset:
        first_row, columns = 0, [[pow(omega, w * e, p) for w in range(n)] for e in exps]
    else:
        first_row = 1
        columns = [[(pow(omega, w * e, p) - 1) % p for w in range(1, n)] for e in exps[1:]]
    columns = np.array(columns, dtype=np.int64)
    subsets = ref_subsets(*columns.shape[::-1])
    start, size = 0, 128
    while start < len(subsets):
        chunk = subsets[start : start + size]
        # Entry (i, j) of matrix c is column i at row chunk[c, j]: each
        # matrix transposed, which leaves its determinant.
        singular = np.flatnonzero(ref_determinants(columns[:, chunk.T], p) == 0)
        if singular.size:
            return first_row + int(chunk[singular].max(axis=1).min()) + 1
        start, size = start + size, 4 * size
    return None


# (p, q, exps, every_subset) -> (largest n known to pass, smallest n known to
# fail): the first n points are the same whatever the table's N.
VERDICTS = {}


def ref_side_passes(p, q, n, exps, every_subset):
    key = (p, q, exps, every_subset)
    passes, fails = VERDICTS.get(key, (0, float("inf")))
    if passes < n < fails:
        bad = ref_first_singular(p, q, n, exps, every_subset)
        passes, fails = (n, fails) if bad is None else (passes, min(fails, bad))
        VERDICTS[key] = passes, fails
    return n <= passes


def ref_progression(vec):
    return len({b - a for a, b in zip(vec, vec[1:])}) <= 1


def ref_scan(dv, every_subset=False):
    """(p, q, omega, rho, certificate) by the scan's rule."""
    assert dv.modulus is None
    gamma = sorted({a + b for a in dv.alpha_p + dv.alpha_s for b in dv.beta_p + dv.beta_s})
    n = len(gamma)
    band = n + 1
    while True:
        candidates = 0
        for p in filter(ref_is_prime, range(band, 2 * band)):
            for q in ref_divisors(p - 1):
                if q < n or any(
                    len({v % q for v in vec}) < len(vec) for vec in (gamma, dv.alpha_s, dv.beta_s)
                ):
                    continue
                candidates += 1
                if all(
                    ref_side_passes(p, q, n, tuple(e - vec[0] for e in vec), every_subset)
                    for vec in (dv.alpha_s, dv.beta_s)
                ):
                    omega = pow(ref_generator(p), (p - 1) // q, p)
                    rho = tuple(pow(omega, w, p) for w in range(n))
                    level = (
                        "structural"
                        if ref_progression(dv.alpha_s) and ref_progression(dv.beta_s)
                        else "exhaustive"
                    )
                    return p, q, omega, rho, level
                if candidates == 32:
                    break
            if candidates == 32:
                break
        band *= 2


def integer_tables(k, l, t, cap):
    """Every distinct valid gasp-r, gasp-rs and dog-rs table at (K, L, T)
    with C(N, T) <= cap, labelled by its first construction."""
    tables = {}
    for r, s in itertools.product(range(1, t + 1), repeat=2):
        builds = [("gasp-rs", construct_gasp_rs)]
        if s <= k + r:
            builds.append(("dog-rs", construct_dog_rs))
        if s == t and k >= l and r <= min(k, t):
            builds.append(("gasp-r", lambda k, l, t, r, s: construct_gasp_r(k, l, t, r)))
        for family, build in builds:
            dv = build(k, l, t, r, s)
            if validate_degree_table(dv).valid and comb(count_unique(dv), t) <= cap:
                tables.setdefault(dv, f"{family} r={r} s={s}")
    return tables


def scan(dv):
    scheme = instantiate_degree_table(dv)
    return (
        scheme.field.p, scheme.params["q"], scheme.omega, scheme.rho,
        scheme.params["certificate"],
    )


POINTS = list(itertools.product(range(2, 5), repeat=3))


@pytest.mark.parametrize("k, l, t", POINTS, ids=[f"{k}-{l}-{t}" for k, l, t in POINTS])
def test_every_small_table_matches_the_reference(k, l, t):
    tables = integer_tables(k, l, t, 100_000)
    assert tables
    for dv, label in tables.items():
        assert scan(dv) == ref_scan(dv), label


@pytest.mark.parametrize("k, l", [(2, 2), (3, 2), (2, 3), (3, 3)], ids=["2-2", "3-2", "2-3", "3-3"])
def test_reference_on_every_subset_agrees(k, l):
    # The shift argument and the node rule above, checked where every
    # subset is cheap to test: the reference that decides each side by the
    # determinants of all C(N, T) of its submatrices gives the same scan.
    for t in (2, 3):
        for dv, label in integer_tables(k, l, t, 2_000).items():
            assert scan(dv) == ref_scan(dv, every_subset=True), label


def assert_exact_product(scheme):
    """A 6x6 by 6x6 product through the scheme equals the one on Python ints."""
    p = scheme.field.p
    rng = np.random.default_rng(p)
    a, b = rng.integers(0, p, (6, 6)), rng.integers(0, p, (6, 6))
    want = (a.astype(object) @ b.astype(object)) % p
    assert multiply_via_scheme(scheme, a, b).tolist() == want.tolist()


@pytest.mark.parametrize(
    "dv, p, q, certificate",
    [
        (construct_gasp_r(2, 2, 2, 1), 23, 22, "structural"),  # gasp-small (2,2,2)
        (construct_dog_rs(3, 3, 3, 1, 2), 109, 108, "exhaustive"),
        (construct_gasp_rs(4, 4, 4, 1, 2), 1193, 149, "exhaustive"),
        (construct_dog_rs(4, 4, 4, 1, 2), 1201, 240, "exhaustive"),
        (construct_dog_rs(2, 2, 3, 2, 2), 67, 33, "exhaustive"),
        # C(30, 5) = 142,506 subsets per side, but only the C(29, 4) =
        # 23,751 that hold row 0 are eliminated: within the budget.
        (construct_dog_rs(3, 3, 5, 2, 3), 15877, 108, "exhaustive"),
        # C(N-1, T-1) = C(91, 3) = 138,415 subsets per walk of beta_s.
        (construct_gasp_rs(8, 8, 4, 1, 2), 12433, 444, "exhaustive"),
    ],
    ids=[
        "gasp-small-2-2-2", "dog-rs-3-3-3", "gasp-rs-4-4-4", "dog-rs-4-4-4", "dog-rs-2-2-3-2-2",
        "dog-rs-3-3-5-2-3", "gasp-rs-8-8-4-1-2",
    ],
)
def test_pinned_scans(dv, p, q, certificate):
    got = scan(dv)
    assert (got[0], got[1], got[4]) == (p, q, certificate)
    assert got == ref_scan(dv)
    assert_exact_product(instantiate_degree_table(dv))


@pytest.mark.parametrize(
    "dv, p, q",
    [
        (construct_gasp_rs(5, 5, 5, 2, 3), 225289, 252),
        (construct_dog_rs(5, 5, 5, 1, 3), 112663, 3414),
        (construct_gasp_rs(6, 6, 5, 1, 3), 286721, 5120),
        (construct_dog_rs(6, 6, 5, 1, 3), 282671, 1229),
        (construct_dog_rs(8, 8, 5, 1, 3), 1687571, 185),
        (construct_dog_rs(2, 2, 6, 1, 2), 13313, 416),
        (construct_dog_rs(2, 2, 7, 5, 7), 13859, 26),
    ],
    ids=[
        "gasp-rs-5-5-5-2-3", "dog-rs-5-5-5-1-3", "gasp-rs-6-6-5-1-3", "dog-rs-6-6-5-1-3",
        "dog-rs-8-8-5-1-3", "dog-rs-2-2-6-1-2", "dog-rs-2-2-7-5-7",
    ],
)
def test_pinned_scans_past_the_reference(dv, p, q):
    # At these p the reference's Leibniz sums overflow int64. A side that is
    # no progression is walked whole, over the C(N-1, T-1) subsets that hold
    # row 0: 292,825 for (5,5,5), 814,385 and 766,480 for gasp-rs and dog-rs
    # (6,6,5), and 4,082,925 for dog-rs (8,8,5), the widest walk within the
    # cap of 2^22. dog-rs (2,2,6) walks width 5, the widest the cofactor walk
    # serves, over 42,504 subsets, and (2,2,7) width 6, by elimination, over
    # 177,100 (C(N, T) = 177,100 and 657,800 per side). The rank check walks
    # the same subsets and reports the same level. A band spends at most 32
    # candidates before p doubles: without that bound dog-rs (5,5,5) stays
    # among small primes for more than 40 s, and each scan, its rank check
    # and a product take well under 30 s.
    start = time.perf_counter()
    scheme = instantiate_degree_table(dv)
    assert (scheme.field.p, scheme.params) == (p, {"q": q, "certificate": "exhaustive"})
    report = verify_privacy_rank(scheme)
    assert report.ok and report.level == "exhaustive"
    assert_exact_product(scheme)
    assert time.perf_counter() - start < 30


def ref_cat_prime(dv, min_p):
    """(p, N) for a cyclic table: p the smallest prime >= max(min_p, N + 1)
    with q | p - 1."""
    q = dv.modulus
    n = len({(a + b) % q for a in dv.alpha_p + dv.alpha_s for b in dv.beta_p + dv.beta_s})
    p = max(min_p, n + 1)
    while not (ref_is_prime(p) and (p - 1) % q == 0):
        p += 1
    return p, n


def ref_cat(dv, min_p):
    """(p, omega, rho) for a cyclic table by the cyclic rule."""
    p, n = ref_cat_prime(dv, min_p)
    omega = pow(ref_generator(p), (p - 1) // dv.modulus, p)
    return p, omega, tuple(pow(omega, w, p) for w in range(n))


def ref_has_order(x, q, p):
    """Whether x has multiplicative order exactly q mod p."""
    powers = [pow(x, e, p) for e in range(1, q + 1)]
    return 1 in powers and powers.index(1) == q - 1


def catx_tables(k):
    """Every valid catx table with K = k, L, T <= 8 and x in {1, 2, 3, 5, 7}."""
    tables = {}
    for l, t, x in itertools.product(range(2, 9), range(2, 9), (1, 2, 3, 5, 7)):
        try:
            dv = construct_cat_x(k, l, t, x)
        except ParameterError:  # x shares a factor with q
            continue
        if validate_degree_table(dv).valid:
            tables.setdefault(dv, f"catx-{k}-{l}-{t} x={x}")
    return tables


@pytest.mark.parametrize("min_p", [0, 50, 1000])
@pytest.mark.parametrize("k", range(2, 9))
def test_every_catx_table_matches_the_reference(k, min_p):
    tables = catx_tables(k)
    assert tables
    for dv, label in tables.items():
        scheme = instantiate_cat(dv, min_p=min_p)
        assert (scheme.field.p, scheme.omega, scheme.rho) == ref_cat(dv, min_p), label
        assert scheme.params == {"q": dv.modulus, "certificate": "structural"}


@pytest.mark.parametrize("k", range(2, 9))
def test_every_catx_field_matches_the_reference_at_min_p_1e6(k):
    # ref_generator is too slow for p ~ 10^6, so omega is checked by its
    # order. Offering every divisor of p - 1 as an order, as integer tables
    # do, would move catx (5,5,3) x=3 to another q here.
    for dv, label in catx_tables(k).items():
        scheme = instantiate_cat(dv, min_p=10**6)
        p, n = ref_cat_prime(dv, 10**6)
        assert (scheme.field.p, scheme.params["q"]) == (p, dv.modulus), label
        assert ref_has_order(scheme.omega, dv.modulus, p), label
        assert scheme.rho == tuple(pow(scheme.omega, w, p) for w in range(n)), label


@pytest.mark.parametrize(
    "k, l, t, x, min_p, p",
    [
        (2, 2, 2, 1, 0, 11),  # q = 10: omega = 2 generates F_11^*
        (2, 2, 2, 1, 50, 61),
        (4, 4, 4, 3, 0, 103),  # q = 34
        (8, 8, 4, 1, 0, 1091),  # q = 109
        (2, 2, 2, 1, 10**9, 1_000_000_021),
        # The largest prime p = 1 (mod 10) at most 3,037,000,499.
        (2, 2, 2, 1, 3_037_000_391, 3_037_000_391),
    ],
)
def test_pinned_catx_fields(k, l, t, x, min_p, p):
    dv = construct_cat_x(k, l, t, x)
    scheme = instantiate_cat(dv, min_p=min_p)
    q = dv.modulus
    assert (scheme.field.p, scheme.params["q"]) == (p, q)
    # omega has order exactly q, and rho is its first N powers.
    omega = scheme.omega
    assert ref_has_order(omega, q, p)
    assert scheme.rho == tuple(pow(omega, w, p) for w in range(scheme.n_workers))


@pytest.mark.parametrize("min_p", [3_037_000_392, 4 * 10**9])
def test_catx_refuses_fields_past_the_int64_bound(min_p):
    with pytest.raises(FieldError, match="3037000499"):
        instantiate_cat(construct_cat_x(2, 2, 2, 1), min_p=min_p)
