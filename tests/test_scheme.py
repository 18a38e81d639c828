"""Scheme instantiation, the encode/decode pipeline, and privacy checks."""

import functools
import hashlib
import itertools
import json
import tracemalloc
from functools import lru_cache
from math import comb
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdmm.cli import FAMILIES, build_degree_vectors
from pdmm.degrees import (
    DegreeVectors,
    ParameterError,
    _progression_steps,
    construct_cat_x,
    construct_dog_rs,
    construct_gasp_r,
    construct_gasp_rs,
    quadrants,
    table_from_dict,
    validate_degree_table,
)
from pdmm.field import FieldError, PrimeField, _primitive_root
from pdmm.linalg import _TILE, SubmatrixCheck, all_txt_submatrices_invertible, vandermonde
import pdmm.degrees as degrees_module
import pdmm.scheme as scheme_module
from pdmm.scheme import (
    _GAMMA,
    _enumerate_side,
    _progression_side,
    _ratio,
    BudgetExceededError,
    PartitionedMatrix,
    PdmmScheme,
    Randomness,
    SchemeError,
    SplitMix64,
    TaskPair,
    assemble,
    decode,
    draw_randomness,
    encode,
    instantiate_cat,
    instantiate_degree_table,
    multiply_via_scheme,
    partition_a,
    partition_b,
    verify_privacy_exhaustive,
    verify_privacy_rank,
    worker_multiply,
)


@pytest.fixture(scope="module")
def cat222():
    return instantiate_cat(construct_cat_x(2, 2, 2, 1))


class TestSplitMix64:
    def test_reference_vectors(self):
        g = SplitMix64(0)
        assert [g.next_u64() for _ in range(3)] == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]
        assert SplitMix64(1234567).next_u64() == 6457827717110365317

    def test_below_is_in_range_and_deterministic(self):
        a = [SplitMix64(5).below(97) for _ in range(1)]
        b = [SplitMix64(5).below(97) for _ in range(1)]
        assert a == b
        g = SplitMix64(5)
        assert all(0 <= g.below(97) < 97 for _ in range(200))

    @pytest.mark.parametrize(
        "rows, cols, n",
        [(1, 1, 1), (1, 1, 2), (3, 5, 97), (17, 9, 1091), (8, 8, 2**32), (6, 7, 1_000_000_021),
         (4, 6, 2**62 + 1), (4, 6, 2**64 // 3 + 1), (4, 6, 2**63)],
    )
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_matrix_is_the_scalar_stream(self, rows, cols, n, seed):
        fast, slow = SplitMix64(seed), SplitMix64(seed)
        out = fast.matrix(rows, cols, n)
        assert out.dtype == np.int64 and out.shape == (rows, cols)
        assert out.tolist() == [[slow.below(n) for _ in range(cols)] for _ in range(rows)]
        assert fast.state == slow.state
        assert fast.next_u64() == slow.next_u64()

    @pytest.mark.parametrize(
        "call",
        [
            lambda g, i: g.matrix(1, 3, i(97)),
            lambda g, i: g.matrix(i(2), 3, 97),
            lambda g, i: g.matrix(2, i(3), 97),
            lambda g, i: g.below(i(97)),
        ],
        ids=["p", "rows", "cols", "below"],
    )
    def test_numpy_integers_draw_as_ints(self, call):
        fast, slow = SplitMix64(5), SplitMix64(5)
        assert np.array_equal(call(fast, np.int64), call(slow, int))
        assert fast.state == slow.state

    @pytest.mark.parametrize(
        "call",
        [
            lambda g: g.matrix(1, 3, 97.0),
            lambda g: g.matrix(1, 3, True),
            lambda g: g.matrix(2.0, 3, 97),
            lambda g: g.matrix(2, True, 97),
            lambda g: g.below(97.0),
            lambda g: g.below(True),
        ],
        ids=["p-float", "p-bool", "rows-float", "cols-bool", "below-float", "below-bool"],
    )
    def test_floats_and_bools_are_refused(self, call):
        # int() would truncate a float, and True would draw as p = 1: all zeros.
        g = SplitMix64(5)
        with pytest.raises(ParameterError, match="only integers"):
            call(g)
        assert g.state == 5

    @pytest.mark.parametrize("n", [2**62 + 1, 2**64 // 3 + 1])
    def test_matrix_rejection_runs_the_scalar_loop(self, n):
        # n = 2^62 + 1 rejects about a quarter of the draws and 2^64 / 3 + 1
        # about a third, so 24 values take more than 24 steps of the stream.
        g = SplitMix64(3)
        g.matrix(4, 6, n)
        assert g.state != (3 + 24 * _GAMMA) & SplitMix64.MASK

    @pytest.mark.parametrize("n", [-5, 0, 2**63 + 1, 2**64 - 59])
    def test_matrix_refuses_draws_that_do_not_fit_int64(self, n):
        # No draw below 0 or 1 exists; one from [0, n) above 2^63 may not fit int64.
        g = SplitMix64(3)
        with pytest.raises(ValueError, match="outside"):
            g.matrix(2, 2, n)
        assert g.state == 3

    @pytest.mark.parametrize("n", [-5, -1, 0, 2**64 + 1, 2**65])
    def test_below_refuses_n_outside_its_range(self, n):
        # Below 1 there is no draw (n = 0 divided by zero, a negative n drew
        # negatives); above 2^64 a 64-bit draw never reaches the limit.
        g = SplitMix64(3)
        with pytest.raises(ValueError, match="outside"):
            g.below(n)
        assert g.state == 3

    @pytest.mark.parametrize("n", [1, 2**64])
    def test_below_takes_either_end_of_its_range(self, n):
        g, stream = SplitMix64(9), SplitMix64(9)
        draws = [g.below(n) for _ in range(5)]
        assert draws == [stream.next_u64() % n for _ in range(5)]

    @pytest.mark.parametrize("count", [2**14 - 1, 2**14, 2**14 + 1, 3 * 2**14 + 5])
    @pytest.mark.parametrize("n", [1091, 2**63])
    def test_matrix_is_the_scalar_stream_across_chunks(self, count, n):
        # matrix mixes 2^14 draws at a time; neither n rejects a draw here.
        assert scheme_module._DRAWS == 2**14
        fast, slow = SplitMix64(11), SplitMix64(11)
        out = fast.matrix(1, count, n)
        assert out.dtype == np.int64 and out.shape == (1, count)
        assert out.tolist() == [[slow.below(n) for _ in range(count)]]
        assert fast.state == slow.state == (11 + count * _GAMMA) & SplitMix64.MASK

    @pytest.mark.parametrize(
        "n, seed, draws",
        [
            (2**63 - 2**48, 2, None),  # rejects one draw in 2^15, first at 16,423
            (2**64 // 3 + 1, 14, 4),  # rejects a third, first at 4, in chunks of 4
        ],
    )
    def test_rejection_in_a_later_chunk_redraws_from_the_start(self, n, seed, draws, monkeypatch):
        if draws is not None:
            monkeypatch.setattr(scheme_module, "_DRAWS", draws)
        chunk = scheme_module._DRAWS
        raw, limit = SplitMix64(seed), (1 << 64) - (1 << 64) % n
        first = next(i for i in itertools.count() if raw.next_u64() >= limit)
        assert chunk <= first < 2 * chunk  # the first chunk passes, the second rejects
        count = 3 * chunk + 5
        fast, slow = SplitMix64(seed), SplitMix64(seed)
        out = fast.matrix(1, count, n)
        assert out.tolist() == [[slow.below(n) for _ in range(count)]]
        assert fast.state == slow.state != (seed + count * _GAMMA) & SplitMix64.MASK

    # p = 3 * 2^61 rejects a quarter of the draws, those at or above 3 * 2^62.
    # From seed 0 the first draw is rejected; from seed 3 the eighth, so of
    # 5 + 8 draws the first five take the numpy path and the rest the scalar
    # loop.
    @pytest.mark.parametrize("a,b", [(1, 1), (5, 8), (40, 24)])
    @pytest.mark.parametrize("seed", [0, 3, 6])
    def test_one_matrix_is_two_consecutive_ones(self, a, b, seed):
        p = 3 * 2**61
        one, two = SplitMix64(seed), SplitMix64(seed)
        whole = one.matrix(1, a + b, p)
        parts = np.concatenate([two.matrix(1, a, p), two.matrix(1, b, p)], axis=1)
        assert whole.dtype == parts.dtype == np.int64
        assert whole.tolist() == parts.tolist()
        assert one.state == two.state


class TestInstantiateCat:
    def test_2_2_2_fixture(self, cat222):
        assert cat222.field.p == 11
        assert cat222.omega == 2
        assert cat222.rho == (1, 2, 4, 8, 5, 10, 9, 7, 3, 6)
        assert cat222.gamma == tuple(range(10))
        assert cat222.n_workers == 10
        assert cat222.t_privacy == 2

    def test_4_4_4_field(self):
        scheme = instantiate_cat(construct_cat_x(4, 4, 4, 3))
        assert scheme.field.p == 103
        assert scheme.n_workers == 34

    def test_min_p_respected(self):
        scheme = instantiate_cat(construct_cat_x(2, 2, 2, 1), min_p=50)
        assert scheme.field.p == 61

    def test_rejects_invalid_cyclic_table(self):
        bad = DegreeVectors((0, 3), (1, 6), (0, 1), (9, 2), modulus=10)
        with pytest.raises(SchemeError):
            instantiate_cat(bad)

    def test_step_sharing_a_factor_with_q_can_be_private(self):
        # Step 2 shares a factor with q = 10, yet omega^(2w) has order 5 = N:
        # IV reads the scan's rule, so the table validates, is instantiated at
        # p = 11 with both sides proven from q, and decodes exactly.
        dv = DegreeVectors((0,), (2, 4), (0,), (2, 4), modulus=10)
        report = validate_degree_table(dv)
        assert report.n_unique == 5 and report.flags["IV"] and report.valid
        scheme = instantiate_degree_table(dv, family="catx")
        assert (scheme.field.p, scheme.params["certificate"]) == (11, "structural")
        assert verify_privacy_rank(scheme).ok and verify_privacy_exhaustive(scheme).ok
        rng = np.random.default_rng(0)
        a, b = rng.integers(0, 11, (3, 4)), rng.integers(0, 11, (4, 5))
        product = multiply_via_scheme(scheme, a, b, seed=1)
        assert product.tolist() == (exact(a) @ exact(b) % 11).tolist()


def progression_tables():
    """Every distinct valid gasp-rs and dog-rs table on K, L, T <= 5 whose
    two mask vectors are arithmetic progressions, with C(N, T) <= 10^5."""
    tables = {}
    for big_k, big_l, big_t in itertools.product(range(2, 6), repeat=3):
        for r, s in itertools.product(range(1, big_t + 1), repeat=2):
            builds = [("gasp-rs", construct_gasp_rs)]
            if s <= big_k + r:
                builds.append(("dog-rs", construct_dog_rs))
            for family, build in builds:
                dv = build(big_k, big_l, big_t, r, s)
                n = quadrants(dv).n_unique
                if (
                    validate_degree_table(dv).valid
                    and None not in _progression_steps(dv)
                    and comb(n, big_t) <= 100_000
                ):
                    tables.setdefault(dv, f"{family}-{big_k}-{big_l}-{big_t}-{r}-{s}")
    return [pytest.param(dv, id=label) for dv, label in tables.items()]


class TestInstantiateDegreeTable:
    def test_roots_of_unity_gasp_big(self):
        scheme = instantiate_degree_table(
            construct_gasp_r(3, 3, 3, 3), "roots_of_unity"
        )
        assert scheme.n_workers == len(set(scheme.rho))

    @pytest.mark.parametrize(
        "dv",
        [
            construct_gasp_r(4, 4, 4, 2),  # alpha_s 16 + (0, 1, 4, 5): no progression
            construct_gasp_r(5, 3, 4, 4),
            construct_dog_rs(3, 3, 3, 1, 2),
            construct_gasp_rs(2, 2, 5, 2, 2),
        ],
        ids=["gasp-r-4-4-4-2", "gasp-big-5-3-4", "dog-rs-3-3-3-1-2", "gasp-rs-2-2-5-2-2"],
    )
    def test_strategy_names_alias_the_scan(self, dv):
        def result(scheme):
            return scheme.field.p, scheme.omega, scheme.rho, scheme.params

        default = result(instantiate_degree_table(dv))
        assert result(instantiate_degree_table(dv, "roots_of_unity")) == default
        assert result(instantiate_degree_table(dv, "random_search", seed=5)) == default

    @pytest.mark.parametrize("dv", progression_tables())
    def test_roots_of_unity_certifies_progression_tables(self, dv):
        scheme = instantiate_degree_table(dv, "roots_of_unity")
        report = verify_privacy_rank(scheme)
        assert (report.a_check.status, report.b_check.status) == ("verified_all",) * 2
        assert report.level == scheme.params["certificate"] == "structural"
        p = scheme.field.p
        v = vandermonde(scheme.rho, scheme.gamma, p)
        assert all_txt_submatrices_invertible(v, len(v), p).ok

    def test_quadrants_computed_once(self, monkeypatch):
        # The validation and the scan share one quadrants(dv).
        calls = []

        def counted(dv):
            calls.append(dv)
            return quadrants(dv)

        monkeypatch.setattr(degrees_module, "quadrants", counted)
        monkeypatch.setattr(scheme_module, "quadrants", counted)
        dv = construct_gasp_r(3, 3, 3, 3)
        instantiate_degree_table(dv)
        assert calls == [dv]

    def test_random_search_small_gasp(self):
        scheme = instantiate_degree_table(
            construct_gasp_r(2, 2, 2, 1), "random_search", seed=0
        )
        assert scheme.n_workers == 11
        assert scheme.field.p <= 101
        assert verify_privacy_rank(scheme).ok

    def test_random_search_is_deterministic(self):
        dv = construct_dog_rs(3, 3, 3, 1, 2)
        a = instantiate_degree_table(dv, "random_search", seed=4)
        b = instantiate_degree_table(dv, "random_search", seed=4)
        assert a.rho == b.rho and a.field.p == b.field.p

    @pytest.mark.parametrize(
        "dv, eliminated",
        [
            (construct_dog_rs(2, 2, 3, 2, 2), ("alpha_s", "beta_s")),
            (construct_gasp_rs(4, 4, 3, 1, 2), ("beta_s",)),  # alpha_s steps by 4
            # alpha_s (4, 9, 14, 19) steps by 5: decided by q, never walked.
            (construct_dog_rs(4, 4, 4, 1, 2), ("beta_s",)),
        ],
        ids=["dog-rs-2-2-3-2-2", "gasp-rs-4-4-3-1-2", "dog-rs-4-4-4-1-2"],
    )
    def test_scan_eliminates_one_side_per_call(self, dv, eliminated, monkeypatch):
        # Each call walks one side for a group of candidates. A group's first
        # eliminated side is walked for all of its candidates, and beta_s, in
        # the next call, for exactly those whose alpha_s passed. Groups grow
        # 1, 2, 4, .. and the first is one candidate. The decode matrix is
        # never built: its nodes omega^gamma are distinct by the residue
        # rule, and the walks on the powers of omega build their own.
        log = []
        checks = scheme_module._mask_checks

        def logged_checks(omegas, moduli, exps, *args):
            result = checks(omegas, moduli, exps, *args)
            log.append((tuple(exps), list(zip(omegas, moduli)), [c.ok for c in result]))
            return result

        def no_vandermonde(*args):
            raise AssertionError("the scan built a Vandermonde matrix")

        monkeypatch.setattr("pdmm.scheme._mask_checks", logged_checks)
        monkeypatch.setattr("pdmm.scheme.vandermonde", no_vandermonde)
        sides = [getattr(dv, side) for side in eliminated]
        scheme = instantiate_degree_table(dv)
        assert any(False in oks for _, _, oks in log)  # some candidates were rejected
        assert len(log[0][1]) == 1
        i, sizes = 0, []
        while i < len(log):
            exps, group, oks = log[i]
            assert exps == sides[0]
            sizes.append(len(group))
            i += 1
            passed = [c for c, ok in zip(group, oks) if ok]
            if len(sides) == 2 and passed:
                assert log[i][0] == sides[1] and log[i][1] == passed
                i += 1
        # Each group doubles the one before it, or starts a band again at
        # one candidate; only a band's last group may be short.
        for a, b, c in zip(sizes, sizes[1:], sizes[2:] + [1]):
            assert b in (1, 2 * a) or (b < 2 * a and c == 1)
        exps, group, oks = log[-1]
        assert next(c for c, ok in zip(group, oks) if ok) == (scheme.omega, scheme.field.p)

    @pytest.mark.parametrize(
        "dv, levels",
        [
            # alpha_s (16, 20, 24) steps by 4; beta_s (16, 17, 20) is eliminated.
            (construct_gasp_rs(4, 4, 3, 1, 2), ("exhaustive", "exhaustive")),
            # Both sides progressions.
            (construct_gasp_r(3, 3, 3, 1), ("structural", "exhaustive")),
            # Both sides progressions, and q rejects candidates before p = 59.
            (construct_gasp_r(4, 3, 3, 1), ("structural", "exhaustive")),
        ],
        ids=["gasp-rs-4-4-3-1-2", "gasp-small-3-3-3", "gasp-small-4-3-3"],
    )
    def test_scan_decides_progression_sides_exactly(self, dv, levels, monkeypatch):
        # Deciding a progression side from q accepts the same candidate as
        # eliminating the T x T submatrices of it on the points.
        decided = instantiate_degree_table(dv)
        monkeypatch.setattr("pdmm.scheme._progression_order", lambda *args: None)
        eliminated = instantiate_degree_table(dv)
        got = [(s.field.p, s.omega, s.rho, s.params["q"]) for s in (decided, eliminated)]
        assert got[0] == got[1]
        assert (decided.params["certificate"], eliminated.params["certificate"]) == levels

    @pytest.mark.parametrize(
        "dv",
        [construct_gasp_rs(3, 3, 3, 2, 3), construct_dog_rs(3, 3, 3, 1, 2)],
        ids=["gasp-rs-3-3-3-2-3", "dog-rs-3-3-3-1-2"],
    )
    def test_scan_reads_no_seed(self, dv):
        # Every walk is exhaustive, so nothing in the scan is drawn.
        schemes = [instantiate_degree_table(dv, seed=seed) for seed in range(4)]
        assert schemes == [schemes[0]] * 4

    @pytest.mark.parametrize(
        "dv, level",
        [
            (construct_gasp_rs(2, 2, 5, 2, 2), "structural"),  # both steps 1
            (construct_gasp_rs(3, 3, 3, 2, 3), "exhaustive"),  # beta_s steps by 1
        ],
        ids=["gasp-rs-2-2-5-2-2", "gasp-rs-3-3-3-2-3"],
    )
    def test_random_search_records_its_certificate(self, dv, level):
        # The rank check reports the level the scan recorded.
        scheme = instantiate_degree_table(dv, "random_search")
        assert scheme.params["certificate"] == level
        assert verify_privacy_rank(scheme).level == level

    def test_t1_table(self):
        # A single mask entry is a progression of step 1, so the rule proves
        # both sides from q, as condition IV does for a cyclic table: each
        # 1 x 1 submatrix is a power of a nonzero point. The rank check
        # proves them from the points. Walked instead, both sides pass on
        # the same field and points.
        dv = DegreeVectors((0, 1), (4,), (0, 2), (4,))
        scheme = instantiate_degree_table(dv)
        assert (scheme.field.p, scheme.params) == (11, {"q": 10, "certificate": "structural"})
        assert scheme.rho == (1, 2, 4, 8, 5, 10, 9, 7)
        report = verify_privacy_rank(scheme)
        assert report.a_check == report.b_check == SubmatrixCheck(None, 8, "structural")
        r = _ratio(scheme.rho, 11)
        walked = [scheme_module._mask_check(scheme.rho, (4,), 1, 11, r) for _ in range(2)]
        assert walked == [SubmatrixCheck(None, 8, "exhaustive")] * 2

    def test_refuses_a_walk_above_the_cap(self, monkeypatch):
        # gasp-rs (6,6,6) r=2 s=3: N = 72, and beta_s is no progression, so
        # a whole walk would eliminate C(71, 5) = 13,019,909 > 2^22 subsets.
        def no_walk(*args):
            raise AssertionError("the scan walked a side it refuses")

        monkeypatch.setattr("pdmm.scheme._mask_checks", no_walk)
        with pytest.raises(BudgetExceededError, match="13019909") as refused:
            instantiate_degree_table(construct_gasp_rs(6, 6, 6, 2, 3))
        assert "4194304" in str(refused.value)

    @pytest.mark.parametrize("reverse, walked", [(False, comb(21, 2)), (True, comb(22, 3))])
    def test_rank_check_refuses_a_walk_above_the_cap(self, reverse, walked, monkeypatch):
        # gasp-rs (3,3,3) r=2 s=3 has N = 22, T = 3, and alpha_s walked. On
        # the scan's points the rank check walks d's C(21, 2) subsets, on the
        # points reversed, no powers 1, r, r^2, .., all C(22, 3). One subset
        # below that cap it refuses before walking; at the cap it walks.
        scheme = instantiate_degree_table(construct_gasp_rs(3, 3, 3, 2, 3))
        if reverse:
            scheme = PdmmScheme(scheme.dv, scheme.field, scheme.rho[::-1], scheme.gamma)
        monkeypatch.setattr("pdmm.scheme._WALK_CAP", walked)
        report = verify_privacy_rank(scheme)
        assert report.ok and report.a_check.level == "exhaustive"

        def no_walk(*args):
            raise AssertionError("the rank check walked a side it refuses")

        for name in ("all_txt_submatrices_invertible", "submatrix_checks", "_mask_checks"):
            monkeypatch.setattr(f"pdmm.scheme.{name}", no_walk)
        monkeypatch.setattr("pdmm.scheme._WALK_CAP", walked - 1)
        with pytest.raises(BudgetExceededError, match=f" = {walked} subsets") as refused:
            verify_privacy_rank(scheme)
        assert f"cap of {walked - 1}" in str(refused.value)

    def test_reversed_scan_points_are_walked_whole(self):
        # dog-rs (3,3,5) r=2 s=3: neither mask side is a progression, and its
        # scan's points in reverse are no powers 1, r, r^2, .., so the rank
        # check walks all C(30, 5) = 142,506 subsets of each side.
        scheme = instantiate_degree_table(construct_dog_rs(3, 3, 5, 2, 3))
        assert (scheme.field.p, scheme.params["q"], scheme.n_workers) == (15877, 108, 30)
        reverse = PdmmScheme(scheme.dv, scheme.field, scheme.rho[::-1], scheme.gamma)
        report = verify_privacy_rank(reverse)
        for check in (report.a_check, report.b_check):
            assert (check.status, check.level, check.checked) == (
                "verified_all", "exhaustive", 142_506
            )

    @pytest.mark.parametrize(
        "dv, p, q, a_witness, b_witness",
        [
            (construct_gasp_rs(5, 5, 5, 2, 3), 56359, 3131, (0, 3, 25, 39, 46), (0, 1, 15, 36, 53)),
            (construct_dog_rs(5, 5, 5, 1, 3), 28183, 462, None, (0, 1, 23, 29, 49)),
            (construct_gasp_rs(6, 6, 5, 1, 3), 71693, 17923, None, (0, 1, 34, 37, 47)),
            (construct_dog_rs(6, 6, 5, 1, 3), 17681, 104, None, (0, 1, 7, 11, 13)),
        ],
        ids=["gasp-rs-5-5-5-2-3", "dog-rs-5-5-5-1-3", "gasp-rs-6-6-5-1-3", "dog-rs-6-6-5-1-3"],
    )
    def test_rank_check_finds_what_a_sample_passed(self, dv, p, q, a_witness, b_witness):
        # The fields a 100,000-subset sample once accepted for these tables.
        # The rank check walks d whole on such points.
        omega = pow(_primitive_root(p), (p - 1) // q, p)
        qs = quadrants(dv)
        rho = tuple(pow(omega, w, p) for w in range(qs.n_unique))
        scheme = PdmmScheme(dv, PrimeField(p), rho, qs.gamma)
        report = verify_privacy_rank(scheme)
        assert (report.a_check.witness, report.b_check.witness) == (a_witness, b_witness)
        assert report.level == "exhaustive" and not report.ok

    def test_roots_of_unity_records_a_structural_certificate(self, cat222):
        gasp = instantiate_degree_table(construct_gasp_r(3, 3, 3, 1), "roots_of_unity")
        assert gasp.params["certificate"] == cat222.params["certificate"] == "structural"

    def test_cat_sides_eliminated_agree_with_q(self, monkeypatch):
        # Undecided from q, both catx mask sides are eliminated on the
        # points mod p, and pass where the structural proof does.
        monkeypatch.setattr("pdmm.scheme._progression_order", lambda *args: None)
        scheme = instantiate_cat(construct_cat_x(2, 2, 2, 1))
        assert (scheme.field.p, scheme.omega) == (11, 2)
        assert scheme.params["certificate"] == "exhaustive"

    def test_roots_of_unity_refuses_points_it_cannot_prove(self, monkeypatch):
        # With every candidate rejected, the scan runs out of fields. Its
        # last band, [3e9, 3037000499], walks its 32 candidates, all open
        # here, in groups of 1, 2, 4, 8, 16 and 1.
        groups = []

        def reject_all(omegas, *args):
            groups.append(len(omegas))
            return [SubmatrixCheck((0, 1), 1, "exhaustive")] * len(omegas)

        monkeypatch.setattr("pdmm.scheme._progression_order", lambda *args: None)
        monkeypatch.setattr("pdmm.scheme._mask_checks", reject_all)
        with pytest.raises(FieldError, match="3037000499"):
            instantiate_degree_table(construct_gasp_r(2, 2, 2, 1), min_p=3_000_000_000)
        assert groups == [1, 2, 4, 8, 16, 1]

    def test_unknown_strategy(self):
        with pytest.raises(SchemeError):
            instantiate_degree_table(construct_gasp_r(2, 2, 2, 1), "magic")


class TestFieldBound:
    # No prime field above 3,037,000,499 keeps products of two residues in int64.
    def test_cat_above_the_bound(self):
        with pytest.raises(FieldError, match="3037000499"):
            instantiate_cat(construct_cat_x(2, 2, 2, 1), min_p=4 * 10**9)

    @pytest.mark.parametrize("strategy", ["roots_of_unity", "random_search"])
    def test_degree_table_above_the_bound(self, strategy):
        with pytest.raises(FieldError, match="3037000499"):
            instantiate_degree_table(construct_gasp_r(2, 2, 2, 1), strategy, min_p=4 * 10**9)


class TestPartitioning:
    def test_partition_a_even(self):
        parts = partition_a(np.arange(12).reshape(4, 3), 2)
        assert len(parts.blocks) == 2
        assert parts.padding == 0
        assert parts.blocks[1].tolist() == [[6, 7, 8], [9, 10, 11]]

    def test_partition_a_pads_rows(self):
        parts = partition_a(np.ones((5, 3), dtype=int), 2)
        assert parts.padding == 1
        assert parts.blocks[1][-1].tolist() == [0, 0, 0]
        assert parts.original_rows == 5

    def test_partition_b_pads_cols(self):
        parts = partition_b(np.ones((3, 5), dtype=int), 3)
        assert parts.padding == 1
        assert all(b.shape == (3, 2) for b in parts.blocks)

    def test_rejects_empty(self):
        with pytest.raises(SchemeError, match="A must be"):
            partition_a(np.zeros((0, 3)), 2)
        with pytest.raises(SchemeError, match="B must be"):
            partition_b(np.zeros(3), 2)


class TestPipeline:
    def test_decode_matches_direct_product(self, cat222):
        p = cat222.field.p
        a = np.arange(16).reshape(4, 4) % p
        b = np.arange(16)[::-1].reshape(4, 4) % p
        assert np.array_equal(multiply_via_scheme(cat222, a, b), a @ b % p)

    def test_padding_still_exact(self, cat222):
        p = cat222.field.p
        rng = np.random.default_rng(0)
        a = rng.integers(0, p, (5, 3))
        b = rng.integers(0, p, (3, 7))
        assert np.array_equal(multiply_via_scheme(cat222, a, b), a @ b % p)

    @pytest.mark.parametrize(
        "dv,strategy",
        [
            (construct_gasp_r(2, 2, 2, 1), "roots_of_unity"),
            (construct_gasp_r(3, 2, 2, 2), "random_search"),
            (construct_gasp_rs(3, 3, 3, 2, 2), "random_search"),
            (construct_dog_rs(3, 3, 2, 1, 1), "random_search"),
        ],
    )
    def test_integer_table_pipelines(self, dv, strategy):
        scheme = instantiate_degree_table(dv, strategy, seed=0)
        p = scheme.field.p
        rng = np.random.default_rng(1)
        a = rng.integers(0, p, (2 * dv.k, 3))
        b = rng.integers(0, p, (3, 2 * dv.l))
        assert np.array_equal(multiply_via_scheme(scheme, a, b, seed=2), a @ b % p)

    @pytest.mark.parametrize(
        "spec, dims, groups",
        [
            (("catx", 8, 8, 4), (13, 7, 11), 1),
            (("gasp-small", 2, 2, 2), (5, 7, 3), 1),
            (("dog-rs", 3, 3, 3, 1, 2), (7, 4, 8), 1),
            # (p-1)^2 * 40 >= 2^63: the workers' int64 product wraps. At 12
            # inner terms the branch runs, but no sum of share products
            # passes 2^63, so nothing wraps.
            ("p1e9", (5, 40, 7), 1),
            # 32 x 32 responses: 64 of the 92 workers per kernel call, then 28.
            (("catx", 8, 8, 4), (250, 3, 251), 2),
            # 82 x 83 responses: 9 of the 10 workers per int64 product, then 1.
            ("p1e9", (163, 40, 165), 2),
        ],
        ids=[
            "catx-8-8-4", "gasp-small-2-2-2", "dog-rs-3-3-3", "catx-2-2-2-p1e9",
            "catx-8-8-4-two-groups", "catx-2-2-2-p1e9-two-groups",
        ],
    )
    def test_stacked_workers_equal_the_staged_path(self, spec, dims, groups):
        # Every dims pads A's rows, B's columns or both. groups counts the
        # stacked workers' products of about _TILE output entries each.
        scheme = linear_map_schemes()[3] if spec == "p1e9" else decoder_scheme(spec)
        dv, p, n = scheme.dv, scheme.field.p, scheme.n_workers
        rows, inner, cols = dims
        assert rows % dv.k or cols % dv.l
        assert ((p - 1) ** 2 * inner >= 2**63) == (spec == "p1e9")
        rng = np.random.default_rng(rows)
        a, b = rng.integers(0, p, (rows, inner)), rng.integers(0, p, (inner, cols))
        a_parts, b_parts = partition_a(a, dv.k), partition_b(b, dv.l)
        h, w = a_parts.blocks[0].shape[0], b_parts.blocks[0].shape[1]
        assert -(-n // max(1, _TILE // (h * w))) == groups
        rnd = draw_randomness(scheme, a_parts.blocks[0].shape, b_parts.blocks[0].shape, 6)
        tasks = encode(scheme, a_parts, b_parts, rnd)
        responses = [worker_multiply(scheme.field, task) for task in tasks]
        staged = assemble(decode(scheme, responses), a_parts, b_parts)
        whole = multiply_via_scheme(scheme, a, b, seed=6)
        assert (whole.dtype, whole.shape) == (staged.dtype, staged.shape) == (np.int64, dims[::2])
        assert whole.tobytes() == staged.tobytes()
        # The same wrong bytes where the int64 product wraps, exact elsewhere.
        exact_product = (exact(a) @ exact(b) % p).tolist()
        assert (whole.tolist() == exact_product) == (spec != "p1e9")

    @pytest.mark.parametrize(
        "make, p, pinned",
        [
            (lambda: instantiate_cat(construct_cat_x(8, 8, 4, 1)), 1091,
             ("d2f7587f5d9b5d24", "966e445d5c6bd3f7", "2a9c30b8e84979a7")),
            (lambda: instantiate_degree_table(construct_gasp_r(2, 2, 2, 1)), 23,
             ("f47f847267ace56e", "c59aa0eae354f6a1", "a8afd5783a7ba17a")),
            (lambda: instantiate_degree_table(construct_dog_rs(3, 3, 3, 1, 2), family="dog-rs"),
             109, ("b41dbcf9bb25af41", "51d1ea5e48151af8", "24bed6004ef9dd47")),
        ],
        ids=["catx-8-8-4", "gasp-small-2-2-2", "dog-rs-3-3-3"],
    )
    def test_seeded_pipeline_is_pinned(self, make, p, pinned):
        # At 96x96x96 with seed 0 (dog-rs: int8 shares, float32 workers), the
        # first 16 hex digits of the sha256 of the masks of draw_randomness,
        # of the encode shares (values, dtypes and shapes) and of
        # multiply_via_scheme's product equal those taken at commit bc3743a,
        # before encode and decode copied their parts straight into the
        # kernel's type and masks were drawn in chunks (dog-rs: at commit
        # eaa3d45, before the masks were one draw).
        def digest(arrays):
            h = hashlib.sha256()
            for x in arrays:
                h.update(x.dtype.str.encode() + str(x.shape).encode())
                h.update(np.ascontiguousarray(x).tobytes())
            return h.hexdigest()[:16]

        scheme = make()
        assert scheme.field.p == p
        rng = np.random.default_rng(0)
        a, b = rng.integers(0, p, (96, 96)), rng.integers(0, p, (96, 96))
        a_parts, b_parts = partition_a(a, scheme.dv.k), partition_b(b, scheme.dv.l)
        rnd = draw_randomness(scheme, a_parts.blocks[0].shape, b_parts.blocks[0].shape, 0)
        tasks = encode(scheme, a_parts, b_parts, rnd)
        got = (
            digest(rnd.r_mats + rnd.s_mats),
            digest([x for t in tasks for x in (t.a_share, t.b_share)]),
            digest([multiply_via_scheme(scheme, a, b, seed=0)]),
        )
        assert got == pinned
        # The stage functions, with worker_multiply per task, give the same
        # product as multiply_via_scheme's stacked workers.
        responses = [worker_multiply(scheme.field, task) for task in tasks]
        assert digest([assemble(decode(scheme, responses), a_parts, b_parts)]) == got[2]

    @pytest.mark.parametrize("shapes", [((2, 3), (3, 4)), ((1, 1), (1, 1)), ((2, 3), (2, 2))])
    @pytest.mark.parametrize("seed", [0, 9])
    def test_randomness_is_2t_consecutive_matrices(self, shapes, seed):
        # One draw of all 2T masks: the stream, dtypes and shapes of T
        # matrices of A's block shape, then T of B's, drawn one by one.
        scheme = decoder_scheme(("catx", 8, 8, 4))
        (a_shape, b_shape), t, p = shapes, scheme.t_privacy, scheme.field.p
        rng = SplitMix64(seed)
        want = [rng.matrix(*a_shape, p) for _ in range(t)] + [rng.matrix(*b_shape, p) for _ in range(t)]
        rnd = draw_randomness(scheme, a_shape, b_shape, seed)
        got = rnd.r_mats + rnd.s_mats
        assert len(rnd.r_mats) == len(rnd.s_mats) == t == 4
        assert [(x.dtype, x.shape) for x in got] == [(x.dtype, x.shape) for x in want]
        assert [x.tolist() for x in got] == [x.tolist() for x in want]
        one = SplitMix64(seed)
        one.matrix(1, sum(x.size for x in want), p)
        assert one.state == rng.state

    def test_worker_count_matches_tasks(self, cat222):
        a_parts = partition_a(np.ones((4, 2), dtype=int), 2)
        b_parts = partition_b(np.ones((2, 4), dtype=int), 2)
        rnd = draw_randomness(cat222, (2, 2), (2, 2), seed=0)
        tasks = encode(cat222, a_parts, b_parts, rnd)
        assert len(tasks) == cat222.n_workers
        response = worker_multiply(cat222.field, tasks[0])
        assert response.shape == (2, 2)

    @pytest.mark.parametrize(
        "p,inner,one_float_product",
        [
            (1091, 512, True),  # matmul_mod's float64 path, one product
            (100_000_007, 32, False),  # its int64 chunks: (p-1)^2 + p >= 2^53
        ],
    )
    def test_worker_matches_python_int_reference(self, p, inner, one_float_product):
        assert ((p - 1) ** 2 * inner + p < 2**53) == one_float_product
        assert (p - 1) ** 2 * inner < 2**63
        rng = np.random.default_rng(inner)
        task = TaskPair(rng.integers(0, p, (6, inner)), rng.integers(0, p, (inner, 7)), 0)
        response = worker_multiply(PrimeField(p), task)
        expected = (task.a_share.astype(object) @ task.b_share.astype(object)) % p
        assert response.dtype == np.int64
        assert response.tolist() == expected.tolist()
        # Bit-identical to the int64 product, which does not wrap here.
        assert np.array_equal(response, task.a_share @ task.b_share % p)

    @pytest.mark.parametrize("min_p", [0, 5 * 10**7])
    def test_unreduced_inputs_stay_exact(self, min_p):
        # Entries in [-10p, 10p]; 5 rows and 9 columns pad both sides. At
        # p = 50,000,021 an unreduced entry times a residue exceeds 2^53.
        scheme = instantiate_cat(construct_cat_x(2, 2, 2, 1), min_p=min_p)
        p = scheme.field.p
        rng = np.random.default_rng(5)
        a = rng.integers(-10 * p, 10 * p + 1, (5, 7))
        b = rng.integers(-10 * p, 10 * p + 1, (7, 9))
        expected = (a.astype(object) @ b.astype(object)) % p
        assert multiply_via_scheme(scheme, a, b, seed=3).tolist() == expected.tolist()

    def test_shape_mismatch_raises(self, cat222):
        with pytest.raises(SchemeError):
            multiply_via_scheme(cat222, np.ones((4, 3)), np.ones((4, 4)))

    def test_one_dimensional_operands_raise(self, cat222):
        # A 1-D operand once raised IndexError at a.shape[1].
        with pytest.raises(SchemeError, match="A must be a non-empty 2-D matrix"):
            multiply_via_scheme(cat222, np.arange(4), np.arange(4))
        with pytest.raises(SchemeError, match="B must be a non-empty 2-D matrix"):
            multiply_via_scheme(cat222, np.eye(2, dtype=np.int64), np.arange(2))

    def test_refuses_float_inputs(self, cat222):
        # A cast to int64 would truncate 1.5 to 1 and multiply on.
        eye = np.eye(2, dtype=np.int64)
        with pytest.raises(ValueError, match="integer entries"):
            multiply_via_scheme(cat222, [[1.5, 2.0], [3.0, 4.0]], eye)
        with pytest.raises(ValueError, match="integer entries"):
            multiply_via_scheme(cat222, eye, np.eye(2))

    def test_decode_refuses_float_responses(self, cat222):
        p = cat222.field.p
        a_parts = partition_a(np.arange(4).reshape(2, 2), 2)
        b_parts = partition_b(np.arange(4).reshape(2, 2), 2)
        rnd = draw_randomness(cat222, (1, 2), (2, 1), seed=0)
        tasks = encode(cat222, a_parts, b_parts, rnd)
        responses = [worker_multiply(cat222.field, t) for t in tasks]
        assert decode(cat222, responses)[1][1].tolist() == [[(2 * 1 + 3 * 3) % p]]
        with pytest.raises(ValueError, match="integer entries"):
            decode(cat222, [r + 0.5 for r in responses])

    @pytest.mark.parametrize("rows, cols", [(5, 7), (5, 3)])
    def test_assemble_drops_padding_on_both_sides(self, rows, cols):
        # 5 rows in 4 blocks of 2 leave the last block all padding.
        a_parts = partition_a(np.ones((rows, 3), dtype=np.int64), 4)
        b_parts = partition_b(np.ones((3, cols), dtype=np.int64), 2)
        assert a_parts.padding and b_parts.padding
        h, w = a_parts.blocks[0].shape[0], b_parts.blocks[0].shape[1]
        grid = [[np.arange(h * w).reshape(h, w) + 100 * i + 10 * j for j in range(2)]
                for i in range(4)]
        out = assemble(grid, a_parts, b_parts)
        assert out.shape == (rows, cols)
        assert out.tolist() == np.block(grid)[:rows, :cols].tolist()
        assert not any(np.shares_memory(out, block) for row in grid for block in row)

    def test_assemble_refuses_a_grid_that_does_not_fill_the_product(self):
        a_parts = partition_a(np.ones((4, 3), dtype=np.int64), 2)
        b_parts = partition_b(np.ones((3, 4), dtype=np.int64), 2)
        block = np.zeros((2, 2), dtype=np.int64)
        with pytest.raises(SchemeError, match="cover"):
            assemble([[block, block]], a_parts, b_parts)
        for grid in ([[block, block], [block]],
                     [[block, block], [block, np.zeros((2, 1), dtype=np.int64)]],
                     [[block, block], [block, np.zeros((1, 2), dtype=np.int64)]]):
            with pytest.raises(ValueError):
                assemble(grid, a_parts, b_parts)


def in_form(x, form, p):
    """The residues x mod p as another integer array with the same residues:
    a strided view, unreduced entries, negative ones, or uint64 ones at or
    above 2^63."""
    if form == "strided":
        wide = np.zeros((x.shape[0], 2 * x.shape[1]), dtype=np.int64)
        wide[:, ::2] = x
        return wide[:, ::2]
    if form == "unreduced":
        return x + p * np.random.default_rng(0).integers(-10, 11, x.shape)
    if form == "negative":
        return x - p
    return x.astype(np.uint64) + np.uint64(-(-(2**63) // p) * p)


class TestPipelineErrors:
    """Each stage refuses parts that do not fit the scheme or each other."""

    @pytest.fixture
    def parts(self, cat222):
        a_parts = partition_a(np.ones((4, 2), dtype=int), 2)
        b_parts = partition_b(np.ones((2, 4), dtype=int), 2)
        return a_parts, b_parts, draw_randomness(cat222, (2, 2), (2, 2), seed=0)

    def test_encode_refuses_block_counts_off_k_l(self, cat222, parts):
        a_parts, b_parts, rnd = parts
        three = partition_a(np.ones((6, 2), dtype=int), 3)
        with pytest.raises(SchemeError, match="partition block counts"):
            encode(cat222, three, b_parts, rnd)

    def test_encode_refuses_masks_of_another_shape(self, cat222, parts):
        a_parts, b_parts, _ = parts
        rnd = draw_randomness(cat222, (2, 3), (2, 2), seed=0)
        with pytest.raises(SchemeError, match="randomness shapes"):
            encode(cat222, a_parts, b_parts, rnd)

    @pytest.mark.parametrize("count", [1, 3])
    def test_encode_refuses_a_mask_count_off_t(self, cat222, parts, count):
        # Off-count masks once surfaced as numpy's matmul ValueError.
        a_parts, b_parts, rnd = parts
        masks = (rnd.r_mats[0],) * count
        for off in (Randomness(masks, rnd.s_mats), Randomness(rnd.r_mats, masks)):
            with pytest.raises(SchemeError, match="expected T = 2 masks per side"):
                encode(cat222, a_parts, b_parts, off)

    def test_decode_refuses_a_missing_response(self, cat222, parts):
        responses = [worker_multiply(cat222.field, t) for t in encode(cat222, *parts)]
        n = cat222.n_workers
        with pytest.raises(SchemeError, match=f"expected {n} responses, got {n - 1}"):
            decode(cat222, responses[:-1])

    def test_decode_refuses_responses_of_two_shapes(self, cat222, parts):
        responses = [worker_multiply(cat222.field, t) for t in encode(cat222, *parts)]
        responses[-1] = np.zeros((2, 3), dtype=np.int64)
        with pytest.raises(SchemeError, match="inconsistent shapes"):
            decode(cat222, responses)

    def test_worker_refuses_shares_that_are_not_2d(self, cat222):
        # 1-D shares once raised IndexError at a_share.shape[1].
        for a, b, shapes in [
            (np.ones(3, dtype=np.int64), np.ones((3, 2), dtype=np.int64), r"\(3,\) x \(3, 2\)"),
            (np.ones((2, 3), dtype=np.int64), np.ones(3, dtype=np.int64), r"\(2, 3\) x \(3,\)"),
            (np.ones((1, 2, 3), dtype=np.int64), np.ones((3, 2), dtype=np.int64),
             r"\(1, 2, 3\) x \(3, 2\)"),
        ]:
            with pytest.raises(SchemeError, match=f"shares must be 2-D matrices: {shapes}"):
                worker_multiply(cat222.field, TaskPair(a, b, 0))

    @pytest.mark.parametrize("p, inner", [(1091, 4), (1_000_000_021, 12)])
    def test_worker_takes_its_shares_by_the_entry_rule(self, p, inner):
        # Shares off their residues by multiples of p give the same bytes,
        # in the int64 branch too ((p-1)^2 * 12 >= 2^63); float shares are
        # refused, where the int64 branch once truncated them.
        rng = np.random.default_rng(p)
        a, b = rng.integers(0, p, (3, inner)), rng.integers(0, p, (inner, 2))
        field = PrimeField(p)
        want = worker_multiply(field, TaskPair(a, b, 0))
        assert worker_multiply(field, TaskPair(a + 3 * p, b - p, 0)).tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="integer entries"):
            worker_multiply(field, TaskPair(a + 0.5, b, 0))

    def test_worker_refuses_shares_of_mismatched_inner_dimension(self, cat222):
        task = TaskPair(np.ones((2, 3), dtype=np.int64), np.ones((2, 2), dtype=np.int64), 0)
        with pytest.raises(SchemeError, match=r"inner dimensions mismatch: \(2, 3\) x \(2, 2\)"):
            worker_multiply(cat222.field, task)


class TestOperandForms:
    @pytest.mark.parametrize("form", ["strided", "unreduced", "negative", "uint64"])
    @pytest.mark.parametrize("index", [0, 2, 3], ids=["p11", "dog-rs", "p1e9"])
    def test_encode_and_decode_equal_the_python_int_product(self, form, index):
        # Float32, float64 and int64 kernels (encode at p = 11, decode at
        # the dog-rs field, both at p ~ 1e9).
        scheme = linear_map_schemes()[index]
        dv, p = scheme.dv, scheme.field.p
        rng = np.random.default_rng(index)
        a, b = rng.integers(0, p, (2 * dv.k, 5)), rng.integers(0, p, (5, 3 * dv.l))
        a_parts, b_parts = partition_a(a, dv.k), partition_b(b, dv.l)
        rnd = draw_randomness(scheme, a_parts.blocks[0].shape, b_parts.blocks[0].shape, 4)

        def formed(parts):
            return PartitionedMatrix(
                tuple(in_form(x, form, p) for x in parts.blocks),
                parts.original_rows, parts.original_cols, parts.padding,
            )

        masks = Randomness(*(tuple(in_form(m, form, p) for m in ms)
                             for ms in (rnd.r_mats, rnd.s_mats)))
        tasks = encode(scheme, formed(a_parts), formed(b_parts), masks)
        for task, point in zip(tasks, scheme.rho):
            want_a = evaluate(a_parts.blocks + rnd.r_mats, dv.alpha_p + dv.alpha_s, point, p)
            want_b = evaluate(b_parts.blocks + rnd.s_mats, dv.beta_p + dv.beta_s, point, p)
            assert task.a_share.tolist() == want_a.tolist()
            assert task.b_share.tolist() == want_b.tolist()
        responses = [
            in_form((exact(t.a_share) @ exact(t.b_share) % p).astype(np.int64), form, p)
            for t in tasks
        ]
        grid = decode(scheme, responses)
        for a_block, row in zip(a_parts.blocks, grid):
            for b_block, block in zip(b_parts.blocks, row):
                assert block.dtype == np.int64
                assert block.tolist() == (exact(a_block) @ exact(b_block) % p).tolist()

    def test_encode_allocates_the_shares_and_one_operand_per_side(self):
        # catx (8,8,4) at 256^3: p = 1091, N = 92, 8,192 entries per block.
        # encode keeps the shares (int16) and builds one float32 operand of
        # K + T rows per side, multiplied in tiles, whose product, sum and
        # quotients are tile-sized; an int64 stack of the parts would not fit.
        scheme = instantiate_cat(construct_cat_x(8, 8, 4, 1))
        dv, p, n = scheme.dv, scheme.field.p, scheme.n_workers
        rng = np.random.default_rng(0)
        a, b = rng.integers(0, p, (256, 256)), rng.integers(0, p, (256, 256))
        a_parts, b_parts = partition_a(a, dv.k), partition_b(b, dv.l)
        rnd = draw_randomness(scheme, a_parts.blocks[0].shape, b_parts.blocks[0].shape, 0)
        scheme._encoders  # built before the measurement
        tracemalloc.start()
        try:
            tasks = encode(scheme, a_parts, b_parts, rnd)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = a_parts.blocks[0].size
        assert (p, n, size, b_parts.blocks[0].size) == (1091, 92, 8192, 8192)
        assert tasks[0].a_share.dtype == np.int16
        shares = 2 * n * size * 2
        operands = 2 * (dv.k + dv.t) * size * 4
        tiles = 2 * _TILE * 4
        assert peak <= shares + operands + tiles


@lru_cache(maxsize=None)
def linear_map_schemes():
    return (
        instantiate_cat(construct_cat_x(2, 2, 2, 1)),  # p = 11
        instantiate_degree_table(construct_gasp_r(2, 2, 2, 1), "roots_of_unity"),
        instantiate_degree_table(construct_dog_rs(3, 3, 2, 1, 1), "random_search", seed=0),
        # N = 10 at p ~ 10^9: (p-1)^2 * N passes 2^63.
        instantiate_cat(construct_cat_x(2, 2, 2, 1), min_p=10**9),  # p = 1,000,000,021
        # Just below isqrt(2^63 - 1) = 3,037,000,499.
        instantiate_cat(construct_cat_x(2, 2, 2, 1), min_p=3_037_000_000),
        instantiate_degree_table(
            construct_gasp_r(2, 2, 2, 1), "random_search", min_p=3_037_000_000
        ),
    )


def exact(m):
    return m.astype(object)


def evaluate(blocks, exponents, point, p):
    """sum of block * point^e mod p, in Python ints."""
    return sum(exact(b) * pow(point, e, p) for b, e in zip(blocks, exponents)) % p


@st.composite
def pipeline_inputs(draw):
    """A scheme, A and B with random shapes (padding included), a seed."""
    scheme = draw(st.sampled_from(linear_map_schemes()))
    rows, inner, cols = (draw(st.integers(1, 7)) for _ in range(3))
    seed = draw(st.integers(0, 2**64 - 1))
    rng = np.random.default_rng(seed)
    p = scheme.field.p
    a, b = rng.integers(0, p, (rows, inner)), rng.integers(0, p, (inner, cols))
    a_parts, b_parts = partition_a(a, scheme.dv.k), partition_b(b, scheme.dv.l)
    rnd = draw_randomness(scheme, a_parts.blocks[0].shape, b_parts.blocks[0].shape, seed)
    return scheme, a_parts, b_parts, rnd


class TestLinearMaps:
    @settings(max_examples=40, deadline=None)
    @given(pipeline_inputs())
    def test_encode_is_per_worker_evaluation(self, inputs):
        scheme, a_parts, b_parts, rnd = inputs
        dv, p = scheme.dv, scheme.field.p
        tasks = encode(scheme, a_parts, b_parts, rnd)
        assert [t.worker for t in tasks] == list(range(scheme.n_workers))
        for task, point in zip(tasks, scheme.rho):
            want_a = evaluate(a_parts.blocks + rnd.r_mats, dv.alpha_p + dv.alpha_s, point, p)
            want_b = evaluate(b_parts.blocks + rnd.s_mats, dv.beta_p + dv.beta_s, point, p)
            assert task.a_share.dtype == task.b_share.dtype == np.min_scalar_type(1 - p)
            assert task.a_share.tolist() == want_a.tolist()
            assert task.b_share.tolist() == want_b.tolist()

    @settings(max_examples=40, deadline=None)
    @given(pipeline_inputs())
    def test_decode_of_exact_responses_is_exact(self, inputs):
        scheme, a_parts, b_parts, rnd = inputs
        p = scheme.field.p
        tasks = encode(scheme, a_parts, b_parts, rnd)
        responses = [
            (exact(t.a_share) @ exact(t.b_share) % p).astype(np.int64) for t in tasks
        ]
        grid = decode(scheme, responses)
        assert len(grid) == scheme.dv.k and all(len(row) == scheme.dv.l for row in grid)
        for a_block, row in zip(a_parts.blocks, grid):
            for b_block, block in zip(b_parts.blocks, row):
                assert block.tolist() == (exact(a_block) @ exact(b_block) % p).tolist()


    @settings(max_examples=40, deadline=None)
    @given(pipeline_inputs(), st.sampled_from([1, -1, 3, -3]))
    def test_decode_reduces_responses_shifted_by_multiples_of_p(self, inputs, k):
        # Responses off their residues by k * p must decode to the same grid.
        scheme, a_parts, b_parts, rnd = inputs
        p = scheme.field.p
        tasks = encode(scheme, a_parts, b_parts, rnd)
        responses = [
            (exact(t.a_share) @ exact(t.b_share) % p).astype(np.int64) for t in tasks
        ]
        grid = decode(scheme, responses)
        shifted = decode(scheme, [r + k * p for r in responses])
        assert [[b.tolist() for b in row] for row in shifted] == [
            [b.tolist() for b in row] for row in grid
        ]


# The schemes whose decoders are compared with an independent inverse:
# (family, K, L, T, r, s), N = 92, 54, 38, 24, 23 and 10.
DECODER_SPECS = [
    ("catx", 8, 8, 4),
    ("dog-rs", 5, 5, 5, 1, 3),
    ("gasp-rs", 4, 4, 4, 2, 3),
    ("gasp-small", 3, 3, 3),
    ("dog-rs", 3, 3, 3, 1, 2),
    ("catx", 2, 2, 2),
]


def spec_id(spec):
    return "-".join(map(str, spec))


@lru_cache(maxsize=None)
def decoder_scheme(spec, min_p=0):
    dv, params = build_degree_vectors(*spec)
    return instantiate_degree_table(dv, min_p=min_p, family=spec[0], params=params)


def gauss_jordan_inverse(m, p):
    """The inverse of the square matrix m mod p, as lists of Python ints, by
    Gauss-Jordan elimination on [m | I]; None when m is singular."""
    n = len(m)
    a = [[int(v) % p for v in row] + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return None
        a[k], a[pivot] = a[pivot], a[k]
        inv = pow(a[k][k], -1, p)
        a[k] = [v * inv % p for v in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k]
                a[i] = [(v - f * w) % p for v, w in zip(a[i], a[k])]
    return [row[n:] for row in a]


def reversed_points(scheme):
    return PdmmScheme(scheme.dv, scheme.field, scheme.rho[::-1], scheme.gamma, omega=scheme.omega)


ORDERS = ["scan", "reversed", "shuffled"]


def points_in(scheme, order):
    """The scheme on its scan's points 1, omega, omega^2, .., in reverse, or
    in a fixed shuffle of them; the last two are no powers 1, r, r^2, .."""
    if order == "scan":
        return scheme
    if order == "reversed":
        return reversed_points(scheme)
    rho = tuple(np.random.default_rng(5).permutation(scheme.rho).tolist())
    assert _ratio(rho, scheme.field.p) is None
    return PdmmScheme(scheme.dv, scheme.field, rho, scheme.gamma, omega=scheme.omega)


def oracle_encoders(scheme):
    """E_A and E_B by a pow per entry, on Python ints."""
    dv, p = scheme.dv, scheme.field.p
    return tuple(
        np.array([[pow(x, e, p) for e in exps] for x in scheme.rho], dtype=np.int64)
        for exps in (dv.alpha_p + dv.alpha_s, dv.beta_p + dv.beta_s)
    )


def oracle_decoder(scheme):
    """The decoder's rows on Python ints: M = prod(x - z_k) one node at a
    time, and for each data node z the quotient M / (x - z) by synthetic
    division, read at the powers sigma_i and scaled by its value at z."""
    p, n, omega, dv = scheme.field.p, scheme.n_workers, scheme.omega, scheme.dv
    sigma = {pow(omega, k, p): k for k in range(n)}
    nodes = [pow(omega, g, p) for g in scheme.gamma]
    master = [1]
    for z in nodes:
        master = [(a - z * b) % p for a, b in zip(master + [0], [0] + master)]
    exps = [n - 1 - sigma[x % p] for x in scheme.rho]
    data_sums = [a + b for a in dv.alpha_p for b in dv.beta_p]
    if dv.modulus is not None:
        data_sums = [v % dv.modulus for v in data_sums]
    rows = []
    for z in (nodes[scheme.gamma.index(v)] for v in data_sums):
        q = list(itertools.accumulate(master[:n], lambda v, c: (v * z + c) % p))
        scale = pow(functools.reduce(lambda v, c: (v * z + c) % p, q, 0), -1, p)
        rows.append([q[e] * scale % p for e in exps])
    return np.array(rows, dtype=np.int64)


# DECODER_SPECS, catx (16,16,8) with N = 338, dog-rs (3,3,5) r=2 s=3 with
# N = 30, and catx (4,4,4) with N = 34 at p = 3,000,000,371, where products
# of two residues come close to 2^63.
ORACLE_SPECS = [(spec, 0) for spec in DECODER_SPECS] + [
    (("catx", 16, 16, 8), 0),
    (("dog-rs", 3, 3, 5, 2, 3), 0),
    (("catx", 4, 4, 4), 3 * 10**9),
]


class TestMapsAgainstPythonInts:
    """The two linear maps, built from power tables by recurrence, against
    the pow per entry and the synthetic division on Python ints, byte for
    byte, on the scan's points (1, omega, omega^2, ..), in reverse and in a
    fixed shuffle."""

    @pytest.mark.parametrize(
        "spec,min_p", ORACLE_SPECS, ids=[f"{spec_id(s)}-p{m}" for s, m in ORACLE_SPECS]
    )
    @pytest.mark.parametrize("order", ORDERS, ids=ORDERS)
    def test_bytes_equal_the_oracle(self, spec, min_p, order):
        scheme = decoder_scheme(spec, min_p)
        assert scheme.field.p >= min_p
        scheme = points_in(scheme, order)
        maps = scheme._encoders + (scheme._decoder,)
        for got, want in zip(maps, oracle_encoders(scheme) + (oracle_decoder(scheme),)):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()

    def test_edge_field_is_pinned(self):
        scheme = decoder_scheme(("catx", 4, 4, 4), 3 * 10**9)
        assert (scheme.field.p, scheme.n_workers) == (3_000_000_371, 34)


class TestDecoder:
    """The closed-form decoder against an inverse by elimination, and the
    schemes it refuses."""

    @pytest.mark.parametrize("spec", DECODER_SPECS, ids=spec_id)
    @pytest.mark.parametrize("reverse", [False, True], ids=["scan", "reversed"])
    def test_rows_equal_the_inverse_by_elimination(self, spec, reverse):
        scheme = decoder_scheme(spec)
        if reverse:
            scheme = reversed_points(scheme)
        dv, p = scheme.dv, scheme.field.p
        inverse = gauss_jordan_inverse(vandermonde(scheme.rho, scheme.gamma, p), p)
        sums = [a + b for a in dv.alpha_p for b in dv.beta_p]
        if dv.modulus is not None:
            sums = [v % dv.modulus for v in sums]
        want = [inverse[scheme.gamma.index(v)] for v in sums]
        decoder = scheme._decoder
        assert decoder.dtype == np.int64 and decoder.shape == (dv.k * dv.l, scheme.n_workers)
        assert decoder.tolist() == want

    @pytest.mark.parametrize("spec", [DECODER_SPECS[4], DECODER_SPECS[5]], ids=spec_id)
    def test_pipeline_eliminates_nothing(self, spec, monkeypatch):
        def no_elimination(*args):
            raise AssertionError("decoding eliminated a matrix")

        scheme = reversed_points(decoder_scheme(spec))
        monkeypatch.setattr("pdmm.linalg._singular", no_elimination)
        monkeypatch.setattr("pdmm.linalg._cofactor_walk", no_elimination)
        p = scheme.field.p
        rng = np.random.default_rng(8)
        a = rng.integers(0, p, (2 * scheme.dv.k, 5))
        b = rng.integers(0, p, (5, 3 * scheme.dv.l))
        expected = (a.astype(object) @ b.astype(object)) % p
        assert multiply_via_scheme(scheme, a, b, seed=1).tolist() == expected.tolist()

    @pytest.mark.parametrize("order", ORDERS, ids=ORDERS)
    def test_pipeline_builds_no_vandermonde_matrix(self, order, monkeypatch):
        # Both maps read rows sigma of one power table on any order of the
        # points; neither the pow per entry nor the test for 1, r, r^2, ..
        # is on the encode or decode path.
        def no_call(*args):
            raise AssertionError("the pipeline left the power table")

        scheme = points_in(decoder_scheme(DECODER_SPECS[1]), order)
        monkeypatch.setattr("pdmm.scheme.vandermonde", no_call)
        monkeypatch.setattr("pdmm.scheme._ratio", no_call)
        p = scheme.field.p
        rng = np.random.default_rng(3)
        a = rng.integers(0, p, (2 * scheme.dv.k, 4))
        b = rng.integers(0, p, (4, scheme.dv.l))
        expected = (a.astype(object) @ b.astype(object)) % p
        assert multiply_via_scheme(scheme, a, b, seed=2).tolist() == expected.tolist()

    @staticmethod
    def assert_refused(scheme, error, match, monkeypatch):
        """encode and decode both raise error, encode before any share is
        computed."""
        with pytest.raises(error, match=match):
            scheme._decoder
        a_parts = partition_a(np.eye(3, dtype=int), scheme.dv.k)
        b_parts = partition_b(np.eye(3, dtype=int), scheme.dv.l)
        shapes = a_parts.blocks[0].shape, b_parts.blocks[0].shape
        rnd = draw_randomness(scheme, *shapes, seed=0)

        def no_shares(*args):
            raise AssertionError("encode computed shares")

        monkeypatch.setattr("pdmm.scheme._matmul_parts", no_shares)
        with pytest.raises(error, match=match):
            encode(scheme, a_parts, b_parts, rnd)

    def test_refuses_a_scheme_without_omega(self, monkeypatch):
        s = decoder_scheme(DECODER_SPECS[4])
        bare = PdmmScheme(s.dv, s.field, s.rho, s.gamma)
        assert verify_privacy_rank(bare).ok  # the checks still read it
        with pytest.raises(SchemeError, match="omega"):
            multiply_via_scheme(bare, np.eye(3, dtype=int), np.eye(3, dtype=int))
        self.assert_refused(bare, SchemeError, "need omega", monkeypatch)

    def test_refuses_a_field_above_the_int64_bound(self, monkeypatch):
        # 3,037,000,507, the first prime past _MAX_P: the maps' int64
        # products of two residues would wrap there, so both refuse it.
        s = decoder_scheme(DECODER_SPECS[5])
        big = PdmmScheme(s.dv, PrimeField(3_037_000_507), s.rho, s.gamma, omega=s.omega)
        self.assert_refused(big, ValueError, "exceeds", monkeypatch)

    def test_refuses_a_point_that_is_no_power_of_omega(self, monkeypatch):
        s = decoder_scheme(DECODER_SPECS[4])
        p, n = s.field.p, s.n_workers
        powers = {pow(s.omega, k, p) for k in range(n)}
        stray = next(x for x in range(2, p) if x not in powers)
        off = PdmmScheme(s.dv, s.field, s.rho[:-1] + (stray,), s.gamma, omega=s.omega)
        with pytest.raises(SchemeError, match=f"point {stray} is not among"):
            multiply_via_scheme(off, np.eye(3, dtype=int), np.eye(3, dtype=int))
        self.assert_refused(off, SchemeError, f"point {stray} is not among", monkeypatch)

    def test_refuses_an_omega_under_which_two_nodes_collide(self):
        # An omega of order q' >= N gives N distinct points, yet if two gamma
        # agree mod q' their nodes omega^gamma coincide and V is singular:
        # here q' = N = 23 in F_47, a candidate the scan's residue rule skips.
        s = decoder_scheme(DECODER_SPECS[4])
        gamma, n = s.gamma, s.n_workers
        p, q = 47, 23
        assert q == n < s.params["q"] and (p - 1) % q == 0
        assert len({g % q for g in gamma}) < n
        omega = pow(_primitive_root(p), (p - 1) // q, p)
        rho = tuple(pow(omega, w, p) for w in range(n))
        assert gauss_jordan_inverse(vandermonde(rho, gamma, p), p) is None
        colliding = PdmmScheme(s.dv, PrimeField(p), rho, gamma, omega=omega)
        with pytest.raises(SchemeError, match="collide"):
            colliding._decoder


class TestNarrowShares:
    """Shares are the one narrow array: the smallest signed dtype holding
    p - 1. Worker responses and the decoded product are int64."""

    @pytest.mark.parametrize(
        "min_p,p,dtype,inner",
        [
            (0, 11, np.int8, 5),
            (1090, 1091, np.int16, 5),
            (10**9, 1_000_000_021, np.int32, 5),
            # An inner dimension of 1 keeps the workers' int64 product exact.
            (3_037_000_000, 3_037_000_111, np.int64, 1),
        ],
    )
    def test_only_the_shares_are_narrow(self, min_p, p, dtype, inner):
        scheme = instantiate_cat(construct_cat_x(2, 2, 2, 1), min_p=min_p)
        dv = scheme.dv
        assert scheme.field.p == p
        rng = np.random.default_rng(p)
        a, b = rng.integers(0, p, (6, inner)), rng.integers(0, p, (inner, 4))
        a_parts, b_parts = partition_a(a, dv.k), partition_b(b, dv.l)
        rnd = draw_randomness(scheme, a_parts.blocks[0].shape, b_parts.blocks[0].shape, 9)
        tasks = encode(scheme, a_parts, b_parts, rnd)
        assert all(t.a_share.dtype == t.b_share.dtype == dtype for t in tasks)
        responses = [worker_multiply(scheme.field, task) for task in tasks]
        assert all(r.dtype == np.int64 for r in responses)
        assert all(block.dtype == np.int64 for row in decode(scheme, responses) for block in row)
        product = multiply_via_scheme(scheme, a, b, seed=9)
        assert product.dtype == np.int64
        assert product.tolist() == (exact(a) @ exact(b) % p).tolist()

    @pytest.mark.parametrize(
        "p,dtype,inner",
        [
            (23, np.int8, 64),
            (1091, np.int16, 64),
            (1_000_000_021, np.int32, 4),
            (1_000_000_021, np.int32, 12),  # (p-1)^2 * 12 >= 2^63: the int64 branch
        ],
    )
    def test_worker_response_is_the_same_for_narrow_shares(self, p, dtype, inner):
        wraps = (p - 1) ** 2 * inner >= 2**63
        # In the int64 branch, entries from the top sixteenth of [0, p) make
        # every dot product pass 2^63.
        low = p - p // 16 if wraps else 0
        rng = np.random.default_rng(inner)
        a, b = rng.integers(low, p, (5, inner)), rng.integers(low, p, (inner, 6))
        wide = worker_multiply(PrimeField(p), TaskPair(a, b, 0))
        narrow = worker_multiply(PrimeField(p), TaskPair(a.astype(dtype), b.astype(dtype), 0))
        assert wide.dtype == narrow.dtype == np.int64
        assert wide.tobytes() == narrow.tobytes()
        if not wraps:
            assert wide.tolist() == (exact(a) @ exact(b) % p).tolist()
        else:
            # The known int64 wrap, on narrow shares exactly as on int64 ones.
            assert (exact(a) @ exact(b)).min() >= 2**63
            assert wide.tolist() == (a @ b % p).tolist()
            assert wide.tolist() != (exact(a) @ exact(b) % p).tolist()


# verify_privacy_rank on every scheme of the benchmark's instantiate grid
# (2 <= T <= L <= K <= 4, gasp-rs and dog-rs at their best (r, s), gasp-rs
# (2,2,5) and the product schemes), keyed by (spec, min_p): the field p, the
# count C(N, T) that both sides report, and each side's level, S structural
# or E exhaustive. No side has a witness.
RANK_PINS = {
    (("catx", 8, 8, 4), 0): (1091, 2794155, "SS"),
    (("gasp-small", 2, 2, 2), 0): (23, 55, "SS"),
    (("dog-rs", 3, 3, 3, 1, 2), 0): (109, 1771, "SE"),
    (("catx", 2, 2, 2), 10**9): (1000000021, 45, "SS"),
    (("catx", 2, 2, 2), 0): (11, 45, "SS"),
    (("gasp-big", 2, 2, 2), 0): (13, 55, "SS"),
    (("gasp-rs", 2, 2, 2, 1, 1), 0): (23, 55, "SS"),
    (("dog-rs", 2, 2, 2, 1, 2), 0): (17, 55, "SS"),
    (("catx", 3, 2, 2), 0): (53, 78, "SS"),
    (("gasp-small", 3, 2, 2), 0): (23, 91, "SS"),
    (("gasp-big", 3, 2, 2), 0): (17, 91, "SS"),
    (("gasp-rs", 3, 2, 2, 1, 2), 0): (23, 91, "SS"),
    (("dog-rs", 3, 2, 2, 1, 2), 0): (31, 91, "SS"),
    (("catx", 3, 3, 2), 0): (103, 136, "SS"),
    (("gasp-small", 3, 3, 2), 0): (29, 153, "SS"),
    (("gasp-big", 3, 3, 2), 0): (23, 171, "SS"),
    (("gasp-rs", 3, 3, 2, 1, 2), 0): (29, 153, "SS"),
    (("dog-rs", 3, 3, 2, 1, 2), 0): (43, 153, "SS"),
    (("catx", 3, 3, 3), 0): (59, 1540, "SS"),
    (("gasp-small", 3, 3, 3), 0): (29, 2024, "SS"),
    (("gasp-big", 3, 3, 3), 0): (29, 1771, "SS"),
    (("gasp-rs", 3, 3, 3, 2, 3), 0): (127, 1540, "ES"),
    (("catx", 4, 2, 2), 0): (17, 120, "SS"),
    (("gasp-small", 4, 2, 2), 0): (43, 136, "SS"),
    (("gasp-big", 4, 2, 2), 0): (23, 136, "SS"),
    (("gasp-rs", 4, 2, 2, 1, 2), 0): (43, 136, "SS"),
    (("dog-rs", 4, 2, 2, 1, 2), 0): (23, 136, "SS"),
    (("catx", 4, 3, 2), 0): (43, 210, "SS"),
    (("gasp-small", 4, 3, 2), 0): (47, 231, "SS"),
    (("gasp-big", 4, 3, 2), 0): (29, 253, "SS"),
    (("gasp-rs", 4, 3, 2, 1, 2), 0): (47, 231, "SS"),
    (("dog-rs", 4, 3, 2, 1, 2), 0): (29, 231, "SS"),
    (("catx", 4, 3, 3), 0): (59, 2300, "SS"),
    (("gasp-small", 4, 3, 3), 0): (59, 3276, "SS"),
    (("gasp-big", 4, 3, 3), 0): (31, 2925, "SS"),
    (("gasp-rs", 4, 3, 3, 2, 3), 0): (173, 2925, "ES"),
    (("dog-rs", 4, 3, 3, 1, 3), 0): (37, 2925, "SS"),
    (("catx", 4, 4, 2), 0): (53, 325, "SS"),
    (("gasp-small", 4, 4, 2), 0): (59, 351, "SS"),
    (("gasp-big", 4, 4, 2), 0): (37, 406, "SS"),
    (("gasp-rs", 4, 4, 2, 1, 2), 0): (59, 351, "SS"),
    (("dog-rs", 4, 4, 2, 1, 2), 0): (37, 351, "SS"),
    (("catx", 4, 4, 3), 0): (59, 3654, "SS"),
    (("gasp-small", 4, 4, 3), 0): (67, 5456, "SS"),
    (("gasp-big", 4, 4, 3), 0): (41, 5984, "SS"),
    (("gasp-rs", 4, 4, 3, 1, 2), 0): (191, 5456, "SE"),
    (("dog-rs", 4, 4, 3, 1, 3), 0): (37, 4960, "SS"),
    (("catx", 4, 4, 4), 0): (103, 46376, "SS"),
    (("gasp-small", 4, 4, 4), 0): (83, 101270, "SS"),
    (("gasp-big", 4, 4, 4), 0): (41, 82251, "SS"),
    (("gasp-rs", 4, 4, 4, 1, 2), 0): (1193, 58905, "SE"),
    (("dog-rs", 4, 4, 4, 1, 2), 0): (1201, 58905, "SE"),
    (("gasp-rs", 2, 2, 5, 2, 2), 0): (19, 6188, "SS"),
}


class TestPrivacyRank:
    @pytest.mark.parametrize(
        "key", list(RANK_PINS), ids=[f"{spec_id(s)}-p{m}" for s, m in RANK_PINS]
    )
    def test_instantiate_grid_is_pinned(self, key):
        p, checked, levels = RANK_PINS[key]
        scheme = decoder_scheme(*key)
        report = verify_privacy_rank(scheme)
        assert scheme.field.p == p
        assert checked == comb(scheme.n_workers, scheme.t_privacy)
        names = {"S": "structural", "E": "exhaustive"}
        for check, level in zip((report.a_check, report.b_check), levels):
            assert (check.level, check.checked, check.witness) == (names[level], checked, None)
        assert scheme.params["certificate"] == report.level

    def test_cat_2_2_2_passes(self, cat222):
        report = verify_privacy_rank(cat222)
        assert report.ok
        assert report.a_check.status == "verified_all"
        assert report.a_check.checked == 45

    def test_mutated_mask_degrees_detected(self, cat222):
        # Replacing the mask degrees (6, 7) with (1, 6) makes worker pairs at
        # even index distance collapse to rank one.
        bad_dv = DegreeVectors((0, 3), (1, 6), (0, 1), (9, 2), modulus=10)
        bad = PdmmScheme(bad_dv, cat222.field, cat222.rho, quadrants(bad_dv).gamma)
        report = verify_privacy_rank(bad)
        assert not report.ok
        assert report.a_check.status == "found_singular"

    @pytest.mark.parametrize(
        "scheme",
        [
            lambda: instantiate_cat(construct_cat_x(8, 8, 4, 1)),
            lambda: instantiate_degree_table(construct_gasp_r(4, 4, 4, 1), "roots_of_unity"),
        ],
        ids=["catx-8-8-4", "gasp-small-4-4-4"],
    )
    def test_roots_of_unity_schemes_are_proven_by_structure(self, scheme):
        # C(92, 4) and C(41, 4) are each over 100,000 subsets, proven
        # without eliminating one.
        scheme = scheme()
        full = comb(scheme.n_workers, scheme.t_privacy)
        assert full > 100_000
        report = verify_privacy_rank(scheme)
        for check in (report.a_check, report.b_check):
            assert (check.status, check.witness, check.checked) == ("verified_all", None, full)
            assert check.level == "structural"
        assert report.ok and report.level == "structural"

    def test_singular_progression_side_keeps_its_witness(self, cat222):
        # alpha_s = (1, 6) steps by 5 mod 10: the nodes x^5 take two values.
        bad_dv = DegreeVectors((0, 3), (1, 6), (0, 1), (9, 2), modulus=10)
        bad = PdmmScheme(bad_dv, cat222.field, cat222.rho, quadrants(bad_dv).gamma)
        assert _progression_steps(bad_dv)[0] == 5
        p = bad.field.p
        assert _progression_side(bad.rho, 5, 10, p, _ratio(bad.rho, p)) is False
        report = verify_privacy_rank(bad)
        assert report.a_check == all_txt_submatrices_invertible(
            vandermonde(bad.rho, bad_dv.alpha_s, p), 2, p
        )
        assert report.a_check.level == "exhaustive"
        assert report.b_check.level == "structural"

    def test_level_is_the_weaker_side(self):
        # beta_s (9, 10, 11) is proven; alpha_s (9, 10, 12) is eliminated.
        dv = construct_gasp_rs(3, 3, 3, 2, 3)
        scheme = instantiate_degree_table(dv, "random_search")
        n, p = scheme.n_workers, scheme.field.p
        exhaustive = verify_privacy_rank(scheme)
        assert exhaustive.b_check.level == "structural"
        assert exhaustive.a_check == all_txt_submatrices_invertible(
            vandermonde(scheme.rho, dv.alpha_s, p), 3, p
        )
        assert (exhaustive.a_check.checked, exhaustive.level) == (comb(n, 3), "exhaustive")
        # The same points in reverse are no powers 1, r, r^2, .. so all
        # C(22, 3) = 1,540 subsets of alpha_s are walked.
        reverse = PdmmScheme(dv, scheme.field, scheme.rho[::-1], scheme.gamma)
        walked = verify_privacy_rank(reverse)
        assert walked.b_check == exhaustive.b_check
        assert walked.a_check == all_txt_submatrices_invertible(
            vandermonde(reverse.rho, dv.alpha_s, p), 3, p
        )
        assert (walked.a_check.checked, walked.level) == (1540, "exhaustive")


def rule_tables():
    """Every valid catx table with T <= L <= K <= 6 and x in {1, 2}; the
    tables of tests/test_degrees.py::TestProgressionRule; the step-2 table
    (0), (2, 4), (0), (2, 4) mod 10; and tests/data/table_cyclic_q10.json."""
    tables = []
    for big_k, big_l, big_t in itertools.product(range(2, 7), repeat=3):
        for x in (1, 2) if big_k >= big_l >= big_t else ():
            try:
                dv = construct_cat_x(big_k, big_l, big_t, x)
            except ParameterError:  # x shares a factor with q
                continue
            tables.append(pytest.param(dv, id=f"catx-{big_k}-{big_l}-{big_t}-x{x}"))
    named = {
        "gasp-small-2-2-2": construct_gasp_r(2, 2, 2, 1),
        "non-progression": DegreeVectors((0, 3), (1, 2, 4), (0, 1), (6, 7, 8), modulus=10),
        "zero-step-q10": DegreeVectors((0, 3), (1, 1), (0, 1), (7, 8), modulus=10),
        "zero-step-q12": DegreeVectors((0, 3), (1, 1), (0, 1), (7, 8), modulus=12),
        "step-sharing-a-factor": DegreeVectors((0, 3), (1, 6), (0, 1), (9, 2), modulus=10),
        "single-mask-entry": DegreeVectors((0, 1), (4,), (0, 2), (5,), modulus=10),
        "step-2-q10": DegreeVectors((0,), (2, 4), (0,), (2, 4), modulus=10),
        "table-cyclic-q10": table_from_dict(
            json.loads((Path(__file__).parent / "data" / "table_cyclic_q10.json").read_text())
        ),
    }
    return tables + [pytest.param(dv, id=label) for label, dv in named.items()]


class TestProgressionRuleAgreement:
    @pytest.mark.parametrize("dv", rule_tables())
    def test_iv_scan_and_rank_check_agree(self, dv):
        # Condition IV, the scan and the rank check take each side's step
        # from degrees._progression_steps. A table that passes IV (by the
        # rule for a cyclic table; these integer tables' sides are
        # progressions too) is certified structural by the scan and by the
        # rank check, and one that fails it, or another condition, is refused.
        if not validate_degree_table(dv).valid:
            with pytest.raises(SchemeError):
                instantiate_degree_table(dv)
            return
        scheme = instantiate_degree_table(dv)
        assert scheme.params["certificate"] == "structural"
        assert verify_privacy_rank(scheme).level == "structural"

    def test_skipped_x_is_refused(self):
        # catx (2, 2, 2) has q = 10, which x = 2 divides.
        with pytest.raises(ParameterError, match="coprime"):
            construct_cat_x(2, 2, 2, 2)


SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@st.composite
def mask_sides(draw):
    """(points, exponents, modulus, p): integer or cyclic progressions and
    arbitrary exponents, at points that are q-th roots of unity (all of them,
    for a cyclic table's modulus q), nonzero residues, or residues including
    zero; small fields make node collisions common."""
    p = draw(st.sampled_from(SMALL_PRIMES))
    t = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["integer", "cyclic", "any"]))
    modulus = draw(st.integers(2, 12)) if kind != "integer" else None
    c = draw(st.integers(0, 12))
    d = draw(st.integers(-4, 6))
    if kind == "integer":
        c = max(c, -d * (t - 1))  # exponents stay non-negative
        exps = tuple(c + d * i for i in range(t))
    elif kind == "cyclic":
        exps = tuple((c + d * i) % modulus for i in range(t))
    else:
        exps = tuple(draw(st.lists(st.integers(0, 15), min_size=t, max_size=t)))
        if draw(st.booleans()):
            exps = tuple(e % modulus for e in exps)
        else:
            modulus = None
    pool = draw(st.sampled_from(["roots", "nonzero", "with zero"]))
    if pool == "roots":
        point = st.sampled_from([x for x in range(1, p) if pow(x, modulus or 1, p) == 1])
    else:
        point = st.integers(pool == "nonzero", p - 1)
    n = draw(st.integers(1, 12))
    rho = tuple(draw(st.lists(point, min_size=n, max_size=n)))
    if pool == "with zero":
        rho = (0,) + rho[1:]
    return rho, exps, modulus, p


def multiplicative_order(r, p):
    """The order of r mod p, or None for r = 0 mod p."""
    if r % p == 0:
        return None
    return next(k for k in range(1, p) if pow(r, k, p) == 1)


@st.composite
def power_sides(draw):
    """(points, exponents, modulus, p): the powers 1, r, r^2, .. of one r,
    often of small order or 0 or 1, with multiples of p added to some
    entries; integer or cyclic progressions, a cyclic modulus often a
    multiple of r's order and otherwise one where mostly r^modulus != 1."""
    p = draw(st.sampled_from(SMALL_PRIMES[2:] + (97, 101)))
    small = [x for x in range(p) if (multiplicative_order(x, p) or 1) <= 6]
    r = draw(st.one_of(st.sampled_from(small), st.integers(0, p - 1)))
    n = draw(st.integers(2, 12))
    rho = tuple(pow(r, w, p) + p * draw(st.sampled_from([0, 0, 1, 3])) for w in range(n))
    t = draw(st.integers(1, 5))
    order = multiplicative_order(r, p)
    if draw(st.booleans()):
        modulus = None
    elif order is not None and draw(st.booleans()):
        modulus = order * draw(st.integers(1, 12 // order or 1))
    else:
        modulus = draw(st.integers(2, 12))
    c, d = draw(st.integers(0, 12)), draw(st.integers(-4, 6))
    if modulus is None:
        c = max(c, -d * (t - 1))  # exponents stay non-negative
        exps = tuple(c + d * i for i in range(t))
    else:
        exps = tuple((c + d * i) % modulus for i in range(t))
    return rho, exps, modulus, p


def assert_matches_elimination(rho, exps, modulus, p):
    """A proof is sound for every T, and for 2 <= T <= N exact: a side it
    does not prove there has a singular T x T submatrix. The rule on the
    powers of _ratio(rho, p) agrees with the rule point by point."""
    t = len(exps)
    d = _progression_steps(DegreeVectors((0,), exps, (0,), exps, modulus=modulus))[0]
    roots = modulus is None or all(pow(x, modulus, p) == 1 for x in rho)
    decidable = d is not None and roots and all(x % p for x in rho)
    got = d is not None and _progression_side(rho, d, modulus, p, _ratio(rho, p))
    ok = all_txt_submatrices_invertible(vandermonde(rho, exps, p), t, p).ok
    assert not got or (decidable and ok)
    if decidable and 2 <= t <= len(rho):
        assert got == ok
    if d is not None:
        assert got == _progression_side(rho, d, modulus, p, None)


class TestProgressionSide:
    @settings(max_examples=500, deadline=None)
    @given(mask_sides())
    # (8, 0) is 8 + i mod 9, but only the point 1 has x^9 = 1, so column x^0
    # is not x^9: rows 13 and 16 are dependent, though the nodes x^1 differ.
    @example(((13, 12, 16, 1), (8, 0), 9, 17))
    def test_matches_exhaustive_elimination(self, side):
        assert_matches_elimination(*side)

    @settings(max_examples=400, deadline=None)
    @given(power_sides())
    # 4 has order 5 mod 11, so its nodes 4^(2w) repeat from w = 5 on.
    @example(((1, 4, 5, 9, 3, 1, 4), (1, 3), None, 11))
    # 3 has order 5 mod 11, so 3^4 != 1: the cyclic side mod 4 is not proven.
    @example(((1, 3 + 11, 9, 5 + 33, 4), (0, 1, 2), 4, 11))
    def test_consecutive_powers_match_exhaustive_elimination(self, side):
        rho, exps, modulus, p = side
        assert _ratio(rho, p) == rho[1] % p
        assert_matches_elimination(rho, exps, modulus, p)


@st.composite
def geometric_sides(draw):
    """(points, exponents, t, p, cap): mostly the powers 1, r, r^2, .. of
    some r, often of small order so that singular subsets are common, and
    sometimes other points; walk caps on both sides of C(n-1, t-1) and of
    C(n, t)."""
    p = draw(st.sampled_from(SMALL_PRIMES[2:] + (97, 101)))
    r = draw(st.integers(1, p - 1))
    n = draw(st.integers(1, 12))
    rho = [pow(r, w, p) for w in range(n)]
    if draw(st.integers(0, 3)) == 0:
        rho[draw(st.integers(0, n - 1))] = draw(st.integers(1, p - 1))
    t = draw(st.integers(1, min(n, 5)))
    exps = tuple(draw(st.lists(st.integers(0, 40), min_size=t, max_size=t)))
    cap = draw(st.sampled_from([0, comb(n - 1, t - 1), comb(n, t), 2**22]))
    return tuple(rho), exps, t, p, cap


class TestMaskCheck:
    @settings(max_examples=250, deadline=None)
    @given(geometric_sides())
    # The powers of 2 mod 11 but for x_2 = 1: rows 0, 1 and 2 are dependent,
    # which no subset of the powers themselves is.
    @example(((1, 2, 1, 8, 5, 10), (0, 1, 2), 3, 11, 2**22))
    def test_equals_the_full_check(self, side):
        # The whole check, by a walk of d's C(n-1, t-1) subsets on the powers
        # of rho[1] and of all C(n, t) elsewhere; refused above the cap.
        rho, exps, t, p, cap = side
        n = len(rho)
        powers = all(x == pow(rho[min(1, n - 1)], w, p) for w, x in enumerate(rho))
        walked = comb(n - 1, t - 1) if powers else comb(n, t)
        with mock.patch.object(scheme_module, "_WALK_CAP", cap):
            if walked > cap:
                with pytest.raises(BudgetExceededError):
                    scheme_module._mask_check(rho, exps, t, p, _ratio(rho, p))
                return
            got = scheme_module._mask_check(rho, exps, t, p, _ratio(rho, p))
        assert got == all_txt_submatrices_invertible(vandermonde(rho, exps, p), t, p)


    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_stacked_equals_one_point_set_at_a_time(self, data):
        # The scan's walk over several omega, each with its own prime,
        # gives each the check of its own powers alone.
        n = data.draw(st.integers(2, 12))
        t = data.draw(st.integers(1, min(n, 5)))
        exps = tuple(data.draw(st.lists(st.integers(0, 40), min_size=t, max_size=t)))
        primes = st.sampled_from(SMALL_PRIMES[2:] + (97, 101))
        pairs = data.draw(st.lists(st.tuples(primes, st.integers(1, 100)), min_size=1, max_size=6))
        omegas, moduli = [r % p or 1 for p, r in pairs], [p for p, _ in pairs]
        want = [
            scheme_module._mask_check(tuple(pow(w, i, p) for i in range(n)), exps, t, p, w)
            for w, p in zip(omegas, moduli)
        ]
        assert scheme_module._mask_checks(omegas, moduli, exps, n, t) == want


class TestPrivacyExhaustive:
    def test_cat_2_2_2_uniform_for_all_pairs(self, cat222):
        report = verify_privacy_exhaustive(cat222)
        assert report.ok
        assert report.subsets_checked == 90  # 45 pairs, both A and B sides

    def test_mutated_scheme_has_nonuniform_witness(self, cat222):
        bad_dv = DegreeVectors((0, 3), (1, 6), (0, 1), (9, 2), modulus=10)
        bad = PdmmScheme(bad_dv, cat222.field, cat222.rho, quadrants(bad_dv).gamma)
        report = verify_privacy_exhaustive(bad)
        assert not report.ok
        side, subset, data = report.witness
        assert side == "A"
        assert len(subset) == 2

    @pytest.mark.parametrize("block", [None, 5 * 121])  # 5 * 121: five data values per block
    @pytest.mark.parametrize("mutated", [False, True])
    def test_counts_match_the_per_value_loop(self, cat222, mutated, block, monkeypatch):
        scheme = cat222
        if mutated:
            bad_dv = DegreeVectors((0, 3), (1, 6), (0, 1), (9, 2), modulus=10)
            scheme = PdmmScheme(bad_dv, cat222.field, cat222.rho, quadrants(bad_dv).gamma)
        if block is not None:
            monkeypatch.setattr("pdmm.scheme._COUNT_BLOCK", block)
        dv, p = scheme.dv, scheme.field.p
        subsets = list(itertools.combinations(range(scheme.n_workers), 2))
        for prefix, suffix in ((dv.alpha_p, dv.alpha_s), (dv.beta_p, dv.beta_s)):
            args = (scheme.rho, prefix, suffix, p, subsets)
            assert _enumerate_side(*args) == per_value_enumerate_side(*args)

    def test_beta_side_failure_names_b(self):
        # gasp-rs (2,2,2) r=2 s=1 at its scanned p = 29, on points that are no
        # powers of its omega: alpha_s passes the rank check, beta_s fails at
        # workers (1, 7), and the enumeration finds the same pair on side B.
        s = instantiate_degree_table(construct_gasp_rs(2, 2, 2, 2, 1))
        assert s.field.p == 29
        rho = (28, 13, 25, 14, 2, 9, 17, 16, 27, 10, 21, 12)
        scheme = PdmmScheme(s.dv, s.field, rho, s.gamma)
        rank = verify_privacy_rank(scheme)
        assert rank.a_check.ok and rank.b_check.witness == (1, 7)
        report = verify_privacy_exhaustive(scheme)
        assert not report.ok
        assert report.witness == ("B", (1, 7), (0, 0))

    def test_budget_guard(self):
        scheme = instantiate_cat(construct_cat_x(4, 4, 4, 3))
        with pytest.raises(BudgetExceededError):
            verify_privacy_exhaustive(scheme)

    def test_budget_guard_reads_the_cap(self, cat222, monkeypatch):
        # catx (2,2,2) at p = 11 enumerates 11^4 = 14,641 values per side.
        monkeypatch.setattr("pdmm.scheme._ENUMERATION_CAP", 11**4 - 1)
        with pytest.raises(BudgetExceededError, match="14641"):
            verify_privacy_exhaustive(cat222)
        monkeypatch.setattr("pdmm.scheme._ENUMERATION_CAP", 11**4)
        assert verify_privacy_exhaustive(cat222).ok


def per_value_enumerate_side(rho, prefix_exps, suffix_exps, p, subsets):
    """scheme._enumerate_side as a loop over the data values, with one
    np.unique of the p^T task codes per value."""
    big_k, t = len(prefix_exps), len(suffix_exps)
    pow_pref = np.array([[pow(pt, e, p) for e in prefix_exps] for pt in rho], dtype=np.int64)
    pow_suf = np.array([[pow(pt, e, p) for e in suffix_exps] for pt in rho], dtype=np.int64)
    data_vals = np.array(list(itertools.product(range(p), repeat=big_k)), dtype=np.int64)
    mask_vals = np.array(list(itertools.product(range(p), repeat=t)), dtype=np.int64)
    codebase = p ** np.arange(t - 1, -1, -1, dtype=np.int64)
    checked = 0
    for subset in subsets:
        rows = list(subset)
        masks = mask_vals @ pow_suf[rows].T % p
        bases = data_vals @ pow_pref[rows].T % p
        for i in range(bases.shape[0]):
            codes = ((bases[i] + masks) % p) @ codebase
            if np.unique(codes).size != p**t:
                return False, checked, (tuple(subset), tuple(data_vals[i]))
        checked += 1
    return True, checked, None


class TestSerialization:
    def test_table_without_family_is_cyclic_when_it_carries_q(self):
        # Only q makes a document cyclic: the q = 10 table counts N = 10 mod
        # q without its family, and without q it is an integer table, with
        # its family catx or without it.
        doc = json.loads((Path(__file__).parent / "data" / "table_cyclic_q10.json").read_text())
        family = doc.pop("family")
        dv = table_from_dict(doc)
        assert dv.modulus == 10 and quadrants(dv).n_unique == 10
        del doc["q"]
        assert table_from_dict(doc).modulus is None
        assert table_from_dict(dict(doc, family=family)).modulus is None

    @pytest.mark.parametrize("doc", [[], {"alpha_p": [0], "alpha_s": [1], "beta_p": [0]}])
    def test_malformed_documents_raise_parameter_error(self, doc):
        with pytest.raises(ParameterError):
            table_from_dict(doc)


class TestSchemeInvariants:
    def test_rejects_duplicate_points(self, cat222):
        with pytest.raises(SchemeError):
            PdmmScheme(cat222.dv, cat222.field, (1,) * 10, cat222.gamma)

    def test_rejects_zero_point(self, cat222):
        rho = (0,) + cat222.rho[1:]
        with pytest.raises(SchemeError):
            PdmmScheme(cat222.dv, cat222.field, rho, cat222.gamma)

    @pytest.mark.parametrize("shift", ["p", "zero"])
    def test_rejects_points_that_coincide_mod_p(self, shift):
        # gasp-small (2,2,2) at p = 23: rho[0] + p, or p itself, is the
        # point rho[0], or 0, of F_p; decoding on it gives a wrong product.
        s = instantiate_degree_table(construct_gasp_r(2, 2, 2, 1))
        p, rho = s.field.p, list(s.rho)
        rho[1] = rho[0] + p if shift == "p" else p
        with pytest.raises(SchemeError, match=f"nonzero mod p = {p}"):
            PdmmScheme(s.dv, s.field, tuple(rho), s.gamma, omega=s.omega)

    def test_decode_refuses_gamma_off_the_table(self):
        # Shifted by 100, gamma stays ascending with one entry per point, and
        # decoding on it gives [[12,12],[12,12]] for [[0,1],[2,3]] @ [[1,2],[3,4]].
        s = instantiate_degree_table(construct_gasp_r(2, 2, 2, 1))
        shifted = PdmmScheme(s.dv, s.field, s.rho, tuple(g + 100 for g in s.gamma), omega=s.omega)
        a, b = np.array([[0, 1], [2, 3]]), np.array([[1, 2], [3, 4]])
        with pytest.raises(SchemeError, match="gamma"):
            multiply_via_scheme(shifted, a, b)
        assert multiply_via_scheme(s, a, b).tolist() == [[3, 4], [11, 16]]

    def test_rejects_unordered_gamma(self, cat222):
        # gamma is the table's distinct sums in ascending order, as
        # quadrants(dv).gamma gives them and the decoder compares them.
        with pytest.raises(SchemeError, match="ascending"):
            PdmmScheme(cat222.dv, cat222.field, cat222.rho, cat222.gamma[::-1])


class TestIntegerInputs:
    """A scheme's field, points, gamma and omega, a seed and min_p are Python
    ints by degrees._integer's rule: numpy integers are taken as their
    values, and floats and bools are refused."""

    @pytest.mark.parametrize("kind", [np.int64, np.int32])
    def test_numpy_integers_give_what_ints_give(self, kind):
        s = decoder_scheme(DECODER_SPECS[4])
        numpy = PdmmScheme(
            s.dv,
            PrimeField(kind(s.field.p)),
            tuple(kind(x) for x in s.rho),
            tuple(kind(g) for g in s.gamma),
            omega=kind(s.omega),
            family=s.family,
            params=s.params,
        )
        assert numpy == s
        values = (numpy.field.p, numpy.omega) + numpy.rho + numpy.gamma
        assert all(type(v) is int for v in values)
        for got, want in zip(numpy._encoders + (numpy._decoder,), s._encoders + (s._decoder,)):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        assert verify_privacy_rank(numpy) == verify_privacy_rank(s)
        a, b = np.arange(12).reshape(6, 2), np.arange(8).reshape(2, 4)
        got = multiply_via_scheme(numpy, a, b, seed=4)
        assert got.tobytes() == multiply_via_scheme(s, a, b, seed=4).tobytes()

    @pytest.mark.parametrize("kind", [np.int64, np.uint64, np.int32])
    def test_numpy_seed_and_min_p_give_what_ints_give(self, kind):
        s = decoder_scheme(DECODER_SPECS[4])
        got, want = (draw_randomness(s, (3, 2), (2, 4), seed) for seed in (kind(3), 3))
        masks = zip(got.r_mats + got.s_mats, want.r_mats + want.s_mats, strict=True)
        assert all(x.tobytes() == y.tobytes() for x, y in masks)
        a, b = np.arange(12).reshape(6, 2), np.arange(8).reshape(2, 4)
        got = multiply_via_scheme(s, a, b, seed=kind(3))
        assert got.tobytes() == multiply_via_scheme(s, a, b, seed=3).tobytes()
        moved = instantiate_degree_table(s.dv, min_p=kind(200))
        assert moved == instantiate_degree_table(s.dv, min_p=200)
        assert type(moved.field.p) is int and moved.field.p > 200

    @pytest.mark.parametrize(
        "value",
        [3.0, np.float64(3), True, np.bool_(True)],
        ids=["float", "numpy-float", "bool", "numpy-bool"],
    )
    def test_seed_and_min_p_refuse_non_integers(self, cat222, value):
        a = np.eye(2, dtype=int)
        with pytest.raises(ParameterError, match="^seed takes only integers"):
            multiply_via_scheme(cat222, a, a, seed=value)
        with pytest.raises(ParameterError, match="^min_p takes only integers"):
            instantiate_degree_table(cat222.dv, min_p=value)

    @pytest.mark.parametrize(
        "p", [23.0, np.float64(23), True, "23"], ids=["float", "numpy-float", "bool", "str"]
    )
    def test_field_refuses_non_integers(self, p):
        with pytest.raises(ParameterError, match="^p takes only integers"):
            PrimeField(p)

    @pytest.mark.parametrize("name", ["rho", "gamma", "omega"])
    @pytest.mark.parametrize(
        "value",
        [2.0, np.float64(2), True, np.bool_(True)],
        ids=["float", "numpy-float", "bool", "numpy-bool"],
    )
    def test_scheme_refuses_non_integer_points_and_omega(self, cat222, name, value):
        rho, gamma, omega = cat222.rho, cat222.gamma, cat222.omega
        if name == "omega":
            omega = value
        elif name == "rho":
            rho = rho[:-1] + (value,)
        else:
            gamma = gamma[:-1] + (value,)
        with pytest.raises(ParameterError, match=f"^{name} takes only integers"):
            PdmmScheme(cat222.dv, cat222.field, rho, gamma, omega=omega)


@st.composite
def family_points(draw):
    """A family token with (K, L, T) and (r, s) it accepts, K, L <= 4 and
    T <= 3, product dimensions up to 6 and a seed."""
    family = draw(st.sampled_from(FAMILIES))
    k, l, t = draw(st.integers(2, 4)), draw(st.integers(2, 4)), draw(st.integers(2, 3))
    if family not in ("gasp-rs", "dog-rs"):  # the others need K >= L
        k, l = max(k, l), min(k, l)
    if family == "catx":  # and CAT needs L >= T
        t = min(t, l)
    r = draw(st.integers(1, min(k, t) if family == "gasp-r" else t))
    s = draw(st.integers(1, t))
    dims = tuple(draw(st.integers(1, 6)) for _ in range(3))
    return family, (k, l, t), r, s, dims, draw(st.integers(0, 2**32 - 1))


class TestEveryFamily:
    @settings(max_examples=25, deadline=None)
    @given(family_points())
    def test_instantiated_scheme_is_private_and_exact(self, point):
        family, (k, l, t), r, s, (rows, inner, cols), seed = point
        dv, params = build_degree_vectors(family, k, l, t, r, s)
        scheme = instantiate_degree_table(dv, family=family, params=params)
        assert verify_privacy_rank(scheme).ok
        p = scheme.field.p
        rng = np.random.default_rng(seed)
        a, b = rng.integers(0, p, (rows, inner)), rng.integers(0, p, (inner, cols))
        want = (a.astype(object) @ b.astype(object)) % p
        assert multiply_via_scheme(scheme, a, b, seed=seed).tolist() == want.tolist()
