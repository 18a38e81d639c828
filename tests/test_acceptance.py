"""Acceptance suite: one pass/fail line per criterion.

Criteria cover worker-count fixtures, the closed-form worker-count formula,
the structural lattice lemmas, end-to-end decodability, both privacy
verifiers, the relative-savings trend, and x-invariance.
"""

import time
from math import gcd

import numpy as np
import pytest

from lattice_tools import lattice_solutions, lattice_span_mod_q, quadrant_intersections
from pdmm.degrees import (
    DegreeVectors,
    cat_parameters,
    construct_cat_x,
    construct_gasp_r,
    count_unique,
    n_catx_formula,
    quadrants,
)
from pdmm.linalg import vandermonde
from pdmm.scheme import (
    PdmmScheme,
    SplitMix64,
    instantiate_cat,
    instantiate_degree_table,
    multiply_via_scheme,
    verify_privacy_exhaustive,
    verify_privacy_rank,
)
from pdmm.search import (
    best_scheme,
    catx_choice,
)
from pdmm.degrees import construct_dog_rs, construct_gasp_rs


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name} failed{suffix}"


@pytest.fixture(scope="module")
def scheme_grid():
    """Every family instantiated over 2 <= T <= L <= K <= 4 (shared by the
    decodability and rank-privacy criteria)."""
    start = time.time()
    schemes = []
    for big_k in range(2, 5):
        for big_l in range(2, big_k + 1):
            for big_t in range(2, big_l + 1):
                klt = (big_k, big_l, big_t)
                schemes.append(("catx", instantiate_cat(construct_cat_x(*klt, 1))))
                for fam, r in (("gasp-small", 1), ("gasp-big", min(big_k, big_t))):
                    dv = construct_gasp_r(*klt, r)
                    schemes.append(
                        (fam, instantiate_degree_table(dv, "roots_of_unity", family=fam))
                    )
                c = best_scheme(*klt).gasp_rs
                dv = construct_gasp_rs(*klt, c.r, c.s)
                schemes.append(
                    ("gasp-rs", instantiate_degree_table(dv, "random_search", seed=0))
                )
                c = best_scheme(*klt).dog_rs
                dv = construct_dog_rs(*klt, c.r, c.s)
                schemes.append(
                    ("dog-rs", instantiate_degree_table(dv, "random_search", seed=0))
                )
    return schemes, time.time() - start


def test_criterion_1_worker_count_fixtures():
    start = time.time()
    fixtures = [
        (catx_choice(2, 2, 2).n_workers, 10),
        (best_scheme(2, 2, 2).gasp_r.n_workers, 11),
        (catx_choice(4, 4, 4).n_workers, 34),
        (best_scheme(4, 4, 4).gasp_r.n_workers, 36),
        (best_scheme(7, 7, 6).dog_rs.n_workers, 88),
        (best_scheme(7, 7, 6).gasp_rs.n_workers, 89),
        (catx_choice(7, 7, 6).n_workers, 89),
        (best_scheme(7, 7, 6).gasp_r.n_workers, 91),
        (best_scheme(3, 3, 3).dog_rs.n_workers, 23),
        (best_scheme(3, 3, 3).gasp_r.n_workers, 22),
    ]
    elapsed = time.time() - start
    ok = all(got == want for got, want in fixtures) and elapsed < 1.0
    report("criterion 1 (worker-count fixtures)", ok, f"{elapsed:.2f}s")


def test_criterion_2_formula_equals_brute_force():
    start = time.time()
    ok = True
    points = 0
    for big_k in range(2, 13):
        for big_l in range(2, big_k + 1):
            for big_t in range(2, big_l + 1):
                points += 1
                dv = construct_cat_x(big_k, big_l, big_t, 1)
                if count_unique(dv) != n_catx_formula(big_k, big_l, big_t):
                    ok = False
    elapsed = time.time() - start
    ok = ok and points == 286 and elapsed < 5.0
    report("criterion 2 (closed-form worker count)", ok, f"{points} points, {elapsed:.2f}s")


def test_criterion_3_gap_over_small_chain_variant():
    ok = True
    for big_k in range(2, 11):
        for big_l in range(2, big_k + 1):
            for big_t in range(2, big_l + 1):
                if gcd(big_k + 1, big_t - 1) != 1 or gcd(big_l + 1, big_t - 1) != 1:
                    continue
                n_small = count_unique(construct_gasp_r(big_k, big_l, big_t, 1))
                if n_small - n_catx_formula(big_k, big_l, big_t) != 3 * big_t - 5:
                    ok = False
    report("criterion 3 (3T-5 saving over the r=1 chain)", ok)


def test_criterion_4_lattice_lemma_suite():
    start = time.time()
    ok = True
    for big_k in range(2, 7):
        for big_l in range(2, big_k + 1):
            for big_t in range(2, big_l + 1):
                par = cat_parameters(big_k, big_l, big_t, 1)
                q = par.q
                # (a) congruence solutions = the generated lattice
                if lattice_solutions(par, (0, q - 1), (0, q - 1)) != lattice_span_mod_q(par):
                    ok = False
                # (b) only three solutions inside the bounding rectangle
                box = lattice_solutions(
                    par,
                    (-big_l, big_t + big_l - 1),
                    (-big_k - big_t + 1, big_k - 1),
                )
                if box != {(0, 0), (par.l_star, par.t_bar), (par.t_bar, -par.k_star)}:
                    ok = False
                # (c) quadrant overlap sizes
                dv = construct_cat_x(big_k, big_l, big_t, 1)
                if quadrant_intersections(dv) != (
                    2 * par.t_bar - par.kappa,
                    2 * par.t_bar - par.lam,
                ):
                    ok = False
                # (d) coprimality with q
                if any(gcd(v, q) != 1 for v in (par.k_star, par.l_star, par.t_bar, par.y)):
                    ok = False
    elapsed = time.time() - start
    ok = ok and elapsed < 30.0
    report("criterion 4 (lattice lemma suite)", ok, f"{elapsed:.2f}s")


def test_criterion_5_end_to_end_decodability(scheme_grid):
    schemes, setup_time = scheme_grid
    start = time.time()
    ok = len(schemes) == 50
    for fam, scheme in schemes:
        p = scheme.field.p
        rng = SplitMix64(7)
        for trial in range(20):
            a = rng.matrix(2 * scheme.dv.k, 2, p)
            b = rng.matrix(2, 2 * scheme.dv.l, p)
            if not np.array_equal(multiply_via_scheme(scheme, a, b, seed=trial), a @ b % p):
                ok = False
    elapsed = time.time() - start + setup_time
    ok = ok and elapsed < 60.0
    report(
        "criterion 5 (end-to-end decodability)",
        ok,
        f"{len(schemes)} schemes x 20 pairs, {elapsed:.1f}s incl. instantiation",
    )


def test_criterion_6_privacy_rank(scheme_grid):
    schemes, _ = scheme_grid
    ok = True
    for fam, scheme in schemes:
        rep = verify_privacy_rank(scheme)
        if not (rep.ok and rep.a_check.status == "verified_all"
                and rep.b_check.status == "verified_all"):
            ok = False
    # Mutating the first mask degree of the cyclic (2,2,2) table from 6 to 1
    # must be caught, and workers {2, 4} in particular collapse to rank one.
    good = instantiate_cat(construct_cat_x(2, 2, 2, 1))
    bad_dv = DegreeVectors((0, 3), (1, 6), (0, 1), (9, 2), modulus=10)
    bad = PdmmScheme(bad_dv, good.field, good.rho, quadrants(bad_dv).gamma)
    detected = not verify_privacy_rank(bad).ok
    v = vandermonde(good.rho, bad_dv.alpha_s, good.field.p)
    (a, b), (c, d) = map(int, v[2]), map(int, v[4])
    singular_at_2_4 = (a * d - b * c) % good.field.p == 0
    ok = ok and detected and singular_at_2_4
    report(
        "criterion 6 (privacy via submatrix rank)",
        ok,
        "mutation detected, workers {2,4} singular",
    )


def test_criterion_7_privacy_exhaustive():
    start = time.time()
    scheme = instantiate_cat(construct_cat_x(2, 2, 2, 1))
    assert scheme.field.p == 11
    rep = verify_privacy_exhaustive(scheme)
    elapsed = time.time() - start
    # 45 worker pairs on each of the two sides; every (A_1, A_2) in F_11^2
    # must induce the uniform distribution over all 11^2 task values.
    ok = rep.ok and rep.subsets_checked == 90 and elapsed < 30.0
    report("criterion 7 (exhaustive privacy over F_11)", ok, f"{elapsed:.2f}s")


def test_criterion_8_relative_savings_trend():
    start = time.time()
    ok = True
    savings = []
    for n in range(30, 101, 10):
        rec = best_scheme(n, n, n)
        gasp, dog = rec.gasp_r.n_workers, rec.dog_rs.n_workers
        saving = (gasp - dog) / gasp
        savings.append(round(saving, 4))
        if not 0.03 <= saving <= 0.07:
            ok = False
    elapsed = time.time() - start
    ok = ok and elapsed < 120.0
    report("criterion 8 (relative-savings trend)", ok, f"{savings}, {elapsed:.1f}s")


def test_criterion_9_x_invariance():
    ok = True
    for big_k in range(2, 6):
        for big_l in range(2, big_k + 1):
            for big_t in range(2, big_l + 1):
                q = cat_parameters(big_k, big_l, big_t, 1).q
                base = n_catx_formula(big_k, big_l, big_t)
                for x in range(1, q):
                    if gcd(x, q) != 1:
                        continue
                    if count_unique(construct_cat_x(big_k, big_l, big_t, x)) != base:
                        ok = False
    report("criterion 9 (worker count independent of x)", ok)
