"""Degree-table constructions, counting, validation, and lattice tools."""

from math import gcd

import numpy as np
import pytest

from lattice_tools import lattice_solutions, lattice_span_mod_q, quadrant_intersections
from pdmm.degrees import (
    EXPONENT_LIMIT,
    _progression_order,
    _progression_steps,
    DegreeVectors,
    ParameterError,
    addition_table,
    cat_parameters,
    construct_cat_x,
    construct_dog_rs,
    construct_gasp_r,
    construct_gasp_rs,
    count_unique,
    gap,
    kappa_lambda,
    n_catx_formula,
    quadrants,
    table_from_dict,
    validate_degree_table,
)
from pdmm.scheme import instantiate_cat


# Each table constructor on integer parameters, as call(*args), with args.
CONSTRUCTORS = {
    "gap": (gap, (5, 10, 3)),
    "kappa_lambda": (kappa_lambda, (5, 4, 4)),
    "cat_parameters": (cat_parameters, (4, 4, 3, 2)),
    "construct_cat_x": (construct_cat_x, (4, 4, 3, 2)),
    "construct_gasp_r": (construct_gasp_r, (3, 2, 3, 2)),
    "construct_gasp_rs": (construct_gasp_rs, (3, 2, 3, 2, 1)),
    "construct_dog_rs": (construct_dog_rs, (3, 2, 3, 2, 1)),
    "n_catx_formula": (n_catx_formula, (4, 4, 3)),
}


@pytest.mark.parametrize("name", CONSTRUCTORS)
def test_constructors_read_integers_by_one_rule(name):
    # Each parameter as a numpy integer gives what the int gives; as a float,
    # which once returned 17.0 or raised a bare TypeError, or as a bool, it
    # is refused.
    call, args = CONSTRUCTORS[name]
    want = call(*args)
    for i, v in enumerate(args):
        for kind in (np.int64, np.uint8):
            assert call(*args[:i], kind(v), *args[i + 1 :]) == want
        for bad in (float(v), v + 0.5, bool(v)):
            with pytest.raises(ParameterError, match="only integers"):
                call(*args[:i], bad, *args[i + 1 :])


class TestGap:
    def test_single_chains(self):
        assert gap(4, 7, 1) == (0, 7, 14, 21)

    def test_two_chains(self):
        assert gap(4, 4, 2) == (0, 1, 4, 5)

    def test_truncated_final_chain(self):
        assert gap(5, 10, 3) == (0, 1, 2, 10, 11)

    def test_full_run(self):
        assert gap(3, 5, 3) == (0, 1, 2)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ParameterError):
            gap(0, 2, 1)
        with pytest.raises(ParameterError):
            gap(3, 2, 0)


class TestKappaLambda:
    @pytest.mark.parametrize(
        "klt,expected",
        [((2, 2, 2), (0, 0)), ((3, 3, 3), (1, 1)), ((5, 5, 4), (1, 1)),
         ((7, 7, 6), (0, 0)), ((4, 4, 4), (0, 0)), ((8, 8, 4), (1, 1))],
    )
    def test_values(self, klt, expected):
        assert kappa_lambda(*klt) == expected

    def test_minimality_and_coprimality(self):
        for big_k in range(2, 9):
            for big_l in range(2, big_k + 1):
                for big_t in range(2, big_l + 1):
                    kappa, lam = kappa_lambda(big_k, big_l, big_t)
                    t_bar = big_t - 1
                    assert gcd(big_k + 1 + kappa, t_bar) == 1
                    assert gcd(big_l + 1 + lam, t_bar) == 1
                    assert all(gcd(big_k + 1 + c, t_bar) != 1 for c in range(kappa))
                    assert all(gcd(big_l + 1 + c, t_bar) != 1 for c in range(lam))

    def test_rejects_wrong_order(self):
        with pytest.raises(ParameterError):
            kappa_lambda(2, 3, 2)


class TestGaspConstructions:
    def test_gasp_small_2_2_2(self):
        dv = construct_gasp_r(2, 2, 2, 1)
        assert dv.alpha_p == (0, 1)
        assert dv.alpha_s == (4, 6)
        assert dv.beta_p == (0, 2)
        assert dv.beta_s == (4, 5)
        assert count_unique(dv) == 11

    def test_gasp_r2_4_4_4(self):
        assert count_unique(construct_gasp_r(4, 4, 4, 2)) == 36

    def test_gasp_rs_with_s_equal_t_matches_gasp_r(self):
        # GASP_r's own definition, beta_s = KL + [0, T), on every table with
        # 2 <= L <= K <= 8, 2 <= T <= 8 and 1 <= r <= min(K, T).
        tables = 0
        for big_k in range(2, 9):
            for big_l in range(2, big_k + 1):
                for big_t in range(2, 9):
                    kl = big_k * big_l
                    for r in range(1, min(big_k, big_t) + 1):
                        expected = DegreeVectors(
                            tuple(range(big_k)),
                            tuple(kl + g for g in gap(big_t, big_k, r)),
                            tuple(big_k * i for i in range(big_l)),
                            tuple(kl + i for i in range(big_t)),
                        )
                        assert construct_gasp_r(big_k, big_l, big_t, r) == expected
                        assert construct_gasp_rs(big_k, big_l, big_t, r, big_t) == expected
                        tables += 1
        assert tables == 854

    def test_rejects_out_of_range_r(self):
        with pytest.raises(ParameterError):
            construct_gasp_r(4, 3, 2, 3)

    def test_rejects_k_smaller_than_l(self):
        with pytest.raises(ParameterError):
            construct_gasp_r(2, 3, 2, 1)


class TestDogConstruction:
    def test_dog_2_2_2(self):
        dv = construct_dog_rs(2, 2, 2, 1, 1)
        assert dv.alpha_p == (0, 1)
        assert dv.alpha_s == (2, 5)
        assert dv.beta_p == (0, 3)
        assert dv.beta_s == (5, 8)

    def test_best_7_7_6_worker_count(self):
        assert count_unique(construct_dog_rs(7, 7, 6, 1, 3)) == 88

    def test_rejects_s_beyond_bound(self):
        with pytest.raises(ParameterError):
            construct_dog_rs(2, 2, 5, 1, 4)  # s > min(T, K+r) = 3


class TestCatParameters:
    def test_2_2_2(self):
        par = cat_parameters(2, 2, 2, 1)
        assert (par.q, par.y) == (10, 3)
        assert (par.k_star, par.l_star, par.t_bar) == (3, 3, 1)

    def test_4_4_4_x3(self):
        par = cat_parameters(4, 4, 4, 3)
        assert (par.q, par.y) == (34, 5)

    def test_y_solves_defining_congruence(self):
        for big_k in range(2, 8):
            for big_t in range(2, big_k + 1):
                par = cat_parameters(big_k, big_k, big_t, 1)
                assert (par.k_star * par.y + par.x * par.t_bar) % par.q == 0

    def test_rejects_x_sharing_factor_with_q(self):
        with pytest.raises(ParameterError):
            cat_parameters(2, 2, 2, 5)  # q = 10


class TestCatConstruction:
    def test_2_2_2_full_fixture(self):
        dv = construct_cat_x(2, 2, 2, 1)
        assert dv.alpha_p == (0, 3)
        assert dv.alpha_s == (6, 7)
        assert dv.beta_p == (0, 1)
        assert dv.beta_s == (9, 2)
        assert dv.modulus == 10
        qs = quadrants(dv)
        assert qs.tl == frozenset({0, 1, 3, 4})
        assert qs.tr == frozenset({2, 5, 9})
        assert qs.bl == frozenset({6, 7, 8})
        assert qs.br == frozenset({5, 6, 8, 9})
        assert qs.gamma == tuple(range(10))
        assert qs.n_unique == 10

    def test_4_4_4_worker_count(self):
        assert count_unique(construct_cat_x(4, 4, 4, 3)) == 34

    def test_7_7_6_fills_whole_ring(self):
        dv = construct_cat_x(7, 7, 6, 8)
        assert dv.modulus == 89
        assert count_unique(dv) == 89


class TestCountUnique:
    @pytest.mark.parametrize(
        "dv",
        [
            construct_gasp_r(4, 3, 2, 1),
            construct_gasp_rs(5, 5, 4, 2, 3),
            construct_dog_rs(6, 4, 3, 2, 2),
            construct_cat_x(5, 4, 3, 1),
            construct_cat_x(6, 6, 5, 7),
        ],
    )
    def test_matches_set_comprehension(self, dv):
        q = dv.modulus
        entries = {
            (a + b) % q if q is not None else a + b
            for a in dv.alpha_p + dv.alpha_s
            for b in dv.beta_p + dv.beta_s
        }
        assert count_unique(dv) == len(entries)
        assert quadrants(dv).n_unique == len(entries)


class TestNCatxFormula:
    @pytest.mark.parametrize(
        "klt,n", [((2, 2, 2), 10), ((4, 4, 4), 34), ((7, 7, 6), 89), ((20, 20, 2), 442)]
    )
    def test_fixtures(self, klt, n):
        assert n_catx_formula(*klt) == n


class TestValidation:
    @pytest.mark.parametrize(
        "dv",
        [
            construct_gasp_r(2, 2, 2, 1),
            construct_gasp_r(4, 4, 4, 2),
            construct_gasp_rs(7, 7, 6, 2, 3),
            construct_dog_rs(7, 7, 6, 1, 3),
        ],
    )
    def test_integer_families_valid(self, dv):
        report = validate_degree_table(dv)
        assert report.valid
        assert report.witnesses == ()

    def test_duplicate_alpha_fails_condition_iv(self):
        dv = DegreeVectors((0, 1), (1, 6), (0, 2), (4, 5))
        report = validate_degree_table(dv)
        assert not report.flags["IV"]
        assert ("alpha", 1) in report.witnesses

    def test_tl_collision_fails_condition_ii(self):
        dv = DegreeVectors((0, 1), (8, 9), (0, 1), (10, 11))
        report = validate_degree_table(dv)
        assert not report.flags["II"]
        assert ("TL", 1) in report.witnesses

    def test_overlap_fails_condition_iii(self):
        dv = DegreeVectors((0, 1), (2, 6), (0, 2), (7, 8))
        report = validate_degree_table(dv)
        assert not report.flags["IIIb"]  # alpha_s + beta_p hits the data block

    def test_cyclic_families_valid(self):
        for big_k in range(2, 7):
            for big_t in range(2, big_k + 1):
                report = validate_degree_table(construct_cat_x(big_k, big_k, big_t, 1))
                assert report.valid, (big_k, big_t)

    def test_cyclic_mask_progression_failure(self):
        # Degree step 5 shares a factor with q = 10: consecutive powers of a
        # tenth root of unity repeat, so the mask rows cannot stay invertible.
        dv = DegreeVectors((0, 3), (1, 6), (0, 1), (9, 2), modulus=10)
        assert not validate_degree_table(dv).flags["IV"]

    def test_dispatch_guards(self):
        # One validator and one scan take both kinds; instantiate_cat only cyclic tables.
        with pytest.raises(ParameterError):
            instantiate_cat(construct_gasp_r(2, 2, 2, 1))


def progression_rule(dv, n):
    """Condition IV of a cyclic table on n points: both mask sides are
    progressions that _progression_order proves for the table's modulus."""
    return all(
        d is not None and _progression_order(d, n, dv.modulus) for d in _progression_steps(dv)
    )


class TestProgressionRule:
    def test_cyclic_table_takes_its_modulus(self):
        dv = construct_cat_x(2, 2, 2, 1)
        assert progression_rule(dv, 10)
        assert validate_degree_table(dv).flags["IV"] and count_unique(dv) == 10

    def test_integer_tables_keep_their_steps_and_read_repeats(self):
        # An integer table's steps are not reduced, and its condition IV
        # reads repeated exponents, not the rule: the scan takes each
        # order q of F_p^* and decides a progression side for it there.
        assert _progression_steps(construct_gasp_r(2, 2, 2, 1)) == (2, 1)
        dv = construct_gasp_rs(4, 4, 3, 1, 2)  # beta_s = (16, 17, 20)
        assert _progression_steps(dv) == (4, None)
        assert validate_degree_table(dv).flags["IV"]

    def test_non_progression(self):
        # alpha_s = (1, 2, 4): steps 1 and 2.
        dv = DegreeVectors((0, 3), (1, 2, 4), (0, 1), (6, 7, 8), modulus=10)
        assert _progression_steps(dv) == (None, 1)
        assert not progression_rule(dv, 8)

    @pytest.mark.parametrize("modulus", [10, 12])
    def test_zero_step(self, modulus):
        dv = DegreeVectors((0, 3), (1, 1), (0, 1), (7, 8), modulus=modulus)
        assert _progression_steps(dv) == (0, 1)
        assert not progression_rule(dv, 4)

    def test_step_sharing_a_factor_with_the_modulus(self):
        dv = DegreeVectors((0, 3), (1, 6), (0, 1), (9, 2), modulus=10)
        assert _progression_steps(dv) == (5, 3)
        assert not progression_rule(dv, 10)

    def test_too_few_powers(self):
        # n > q: the n points omega^0 .. omega^(n-1) repeat.
        assert not progression_rule(construct_cat_x(2, 2, 2, 1), 11)

    def test_single_mask_entry_is_a_progression(self):
        dv = DegreeVectors((0, 1), (4,), (0, 2), (5,), modulus=10)
        assert _progression_steps(dv) == (1, 1)
        assert progression_rule(dv, 8)
        assert validate_degree_table(dv).flags["IV"] and count_unique(dv) == 8


class TestDegreeVectorsInvariants:
    def test_rejects_entry_at_modulus(self):
        with pytest.raises(ParameterError):
            DegreeVectors((0,), (10,), (0,), (1,), modulus=10)

    def test_rejects_mismatched_mask_lengths(self):
        with pytest.raises(ParameterError):
            DegreeVectors((0,), (1, 2), (0,), (1,))

    @pytest.mark.parametrize(
        "vectors,modulus",
        [
            (((0.5, 1.7), (4.9,), (0, 2), (7,)), None),  # int() would truncate them
            (((0, 1), (4,), (0, 2), (7,)), 10.5),
            (((0, True), (4,), (0, 2), (7,)), None),
            (((0, np.bool_(True)), (4,), (0, 2), (7,)), None),
            (((0, 1), (4,), (0, 2), ("7",)), None),
            (((0, 1), (4,), (0, 2), (7,)), True),
        ],
    )
    def test_rejects_non_integer_entries_and_moduli(self, vectors, modulus):
        with pytest.raises(ParameterError, match="integers"):
            DegreeVectors(*vectors, modulus=modulus)

    @pytest.mark.parametrize(
        "name,value", [("alpha_p", 5), ("alpha_s", "ab"), ("beta_p", None), ("beta_s", {"0": 4})]
    )
    def test_table_document_vectors_must_be_lists(self, name, value):
        # A bare int is no iterable, and a string would be read by characters.
        doc = {"alpha_p": [0, 1], "alpha_s": [2, 3], "beta_p": [0, 4], "beta_s": [5, 6]}
        assert table_from_dict(doc) == DegreeVectors((0, 1), (2, 3), (0, 4), (5, 6))
        doc[name] = value
        with pytest.raises(ParameterError, match=f"^{name} must be a list of integers"):
            table_from_dict(doc)

    def test_numpy_integers_become_ints(self):
        dv = DegreeVectors(
            np.arange(2), (np.int32(4),), (np.uint8(0), 2), (7,), modulus=np.int64(10)
        )
        assert dv == DegreeVectors((0, 1), (4,), (0, 2), (7,), modulus=10)
        assert all(type(v) is int for v in dv.alpha_p + dv.alpha_s + dv.beta_p)
        assert type(dv.modulus) is int

    def test_dimensions(self):
        dv = construct_gasp_rs(5, 4, 3, 1, 2)
        assert (dv.k, dv.l, dv.t) == (5, 4, 3)

    @pytest.mark.parametrize(
        "vectors,modulus",
        [
            (((0,), (EXPONENT_LIMIT,), (0,), (1,)), None),
            (((0,), (1,), (0,), (EXPONENT_LIMIT,)), None),
            (((0,), (1,), (0,), (2,)), EXPONENT_LIMIT),
            (((0,), (-1,), (0,), (2,)), None),
        ],
    )
    def test_rejects_entries_and_moduli_out_of_range(self, vectors, modulus):
        with pytest.raises(ParameterError):
            DegreeVectors(*vectors, modulus=modulus)

    @pytest.mark.parametrize("modulus", [None, EXPONENT_LIMIT - 1])
    def test_largest_entries_sum_without_wrapping(self, modulus):
        top = EXPONENT_LIMIT - 2
        dv = DegreeVectors((0, top), (1,), (0, top), (1,), modulus=modulus)
        sums = {a + b if modulus is None else (a + b) % modulus
                for a in (0, top, 1) for b in (0, top, 1)}
        assert addition_table(dv).min() >= 0
        assert set(addition_table(dv).ravel().tolist()) == sums
        assert count_unique(dv) == len(sums)


class TestLattice:
    def test_solutions_form_the_generated_lattice(self):
        for klt in ((2, 2, 2), (4, 4, 3), (5, 5, 4), (6, 6, 6)):
            par = cat_parameters(*klt, 1)
            q = par.q
            span = lattice_span_mod_q(par)
            assert lattice_solutions(par, (0, q - 1), (0, q - 1)) == span

    def test_named_solutions_only_in_bounding_box(self):
        big_k, big_l, big_t = 5, 4, 3
        par = cat_parameters(big_k, big_l, big_t, 1)
        box = lattice_solutions(
            par, (-big_l, big_t + big_l - 1), (-big_k - big_t + 1, big_k - 1)
        )
        assert box == {(0, 0), (par.l_star, par.t_bar), (par.t_bar, -par.k_star)}

    def test_quadrant_intersections_2_2_2(self):
        dv = construct_cat_x(2, 2, 2, 1)
        assert quadrant_intersections(dv) == (2, 2)  # 2*t_bar - kappa/lambda
