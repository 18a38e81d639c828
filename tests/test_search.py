"""Per-family parameter optimization and grid sweeps."""

import tracemalloc
from fractions import Fraction
from math import inf

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdmm import search
from pdmm.degrees import (
    ParameterError,
    construct_cat_x,
    construct_dog_rs,
    construct_gasp_r,
    construct_gasp_rs,
    count_unique,
    gap,
)
from pdmm.search import (
    SchemeChoice,
    best_scheme,
    catx_choice,
    sweep,
)


class TestBestGaspR:
    @pytest.mark.parametrize(
        "klt,r,n",
        [((4, 4, 4), 2, 36), ((7, 7, 6), 3, 91), ((3, 3, 3), 2, 22), ((2, 2, 2), 1, 11)],
    )
    def test_fixtures(self, klt, r, n):
        choice = best_scheme(*klt).gasp_r
        assert (choice.r, choice.n_workers) == (r, n)

    def test_transposes_when_l_exceeds_k(self):
        assert best_scheme(3, 5, 2).gasp_r.n_workers == best_scheme(5, 3, 2).gasp_r.n_workers


class TestBestGaspRsAndDog:
    def test_dog_7_7_6(self):
        choice = best_scheme(7, 7, 6).dog_rs
        assert (choice.r, choice.s, choice.n_workers) == (1, 3, 88)

    def test_gasp_rs_7_7_6(self):
        choice = best_scheme(7, 7, 6).gasp_rs
        assert (choice.r, choice.s, choice.n_workers) == (2, 3, 89)

    def test_dog_3_3_3(self):
        assert best_scheme(3, 3, 3).dog_rs.n_workers == 23

    def test_gasp_rs_never_worse_than_gasp_r(self):
        for big_k in range(2, 7):
            for big_l in range(2, big_k + 1):
                for big_t in range(2, 7):
                    rec = best_scheme(big_k, big_l, big_t)
                    assert rec.gasp_rs.n_workers <= rec.gasp_r.n_workers

    def test_reported_n_matches_reconstruction(self):
        for klt in ((3, 3, 3), (5, 4, 3), (7, 7, 6), (6, 5, 5)):
            rec = best_scheme(*klt)
            c = rec.gasp_rs
            assert count_unique(construct_gasp_rs(*klt, c.r, c.s)) == c.n_workers
            c = rec.dog_rs
            assert count_unique(construct_dog_rs(*klt, c.r, c.s)) == c.n_workers
            c = rec.gasp_r
            assert count_unique(construct_gasp_r(*klt, c.r)) == c.n_workers


def _reference(family, construct, pairs):
    """First minimum of count_unique over admissible (r, s) in order."""
    best = None
    for r, s in pairs:
        dv = construct(r, s)
        if len(set(dv.alpha_s)) < len(dv.alpha_s) or len(set(dv.beta_s)) < len(dv.beta_s):
            continue
        n = count_unique(dv)
        if best is None or n < best.n_workers:
            best = SchemeChoice(family, n, r=r, s=s)
    return best


def _reference_choices(big_k, big_l, big_t):
    big_k, big_l = max(big_k, big_l), min(big_k, big_l)
    klt = (big_k, big_l, big_t)
    ts = range(1, big_t + 1)
    return (
        _reference(
            "GASP_R", lambda r, s: construct_gasp_r(*klt, r),
            [(r, None) for r in range(1, min(big_k, big_t) + 1)],
        ),
        _reference(
            "GASP_RS", lambda r, s: construct_gasp_rs(*klt, r, s),
            [(r, s) for r in ts for s in ts],
        ),
        _reference(
            "DOG_RS", lambda r, s: construct_dog_rs(*klt, r, s),
            [(r, s) for r in ts for s in range(1, min(big_t, big_k + r) + 1)],
        ),
    )


class TestAgainstBruteForce:
    @settings(max_examples=100, deadline=None)
    @given(
        big_k=st.integers(2, 12),
        big_l=st.integers(2, 12),
        big_t=st.integers(2, 12),
    )
    def test_choices_equal_exhaustive_first_minimum(self, big_k, big_l, big_t):
        expected = _reference_choices(big_k, big_l, big_t)
        for klt in ((big_k, big_l, big_t), (big_l, big_k, big_t)):
            rec = best_scheme(*klt)
            assert (rec.gasp_r, rec.gasp_rs, rec.dog_rs) == expected


def _gasp_counted(big_k, big_t, ls):
    """{(r, i, s): N} for the i-th L of the group, from the GASP_rs counter
    with no skip bound."""
    return {
        (r, i, s): n
        for r in search._admissible(big_k, big_t)
        for i, s, n in search._gasp_counts(big_k, big_t, ls, r, [inf] * len(ls), [0] * len(ls))
    }


def _dog_counted(big_k, big_t, ls):
    """{(r, i, s): N} for the i-th L of the group, N = LK + (L - 1)·r + M
    with M = |α_r + g_s| from the DOG_rs counter with no skip bound."""
    return {
        (r, i, s): big_l * big_k + (big_l - 1) * r + m
        for r in range(1, big_t + 1)
        for s, m in search._dog_counts(big_k, big_t, ls, r, [inf] * len(ls))
        for i, big_l in enumerate(ls)
    }


def _floor(dv):
    """|(α_p ∪ α_s) + (β_p ∪ {b0})|: the table with β_s cut to its first entry."""
    alphas = dv.alpha_p + dv.alpha_s
    return len({a + b for a in alphas for b in dv.beta_p + dv.beta_s[:1]})


def _sumset(xs, ys):
    return {x + y for x in xs for y in ys}


def _gasp_identity(big_k, big_l, big_t, r, s):
    """KL + u_L(min(b_s, KL)) + |(g_r + g_s) ∪ [0, b_s - KL)|, on sets."""
    g_r, g_s = set(gap(big_t, big_k, r)), set(gap(big_t, big_k, s))
    w, kl = min(r, big_k), big_k * big_l
    b_s = len(_sumset(range(big_k), g_s))
    u = big_l * w + search._outside(big_k, w, min(b_s, kl))
    return kl + u + len(_sumset(g_r, g_s) | set(range(b_s - kl)))


def _dog_union(big_k, big_t, r, s):
    """|α_r + g_s| on stride K + r, on sets, which hold g_r."""
    g_r, g_s = set(gap(big_t, big_k + r, r)), set(gap(big_t, big_k + r, s))
    sums = _sumset(set(range(big_k)) | {big_k + g for g in g_r}, g_s)
    assert g_r <= sums
    return len(sums)


def _gasp_pairs(big_k, big_t):
    rs = search._admissible(big_k, big_t)
    return [(r, s) for r in rs for s in rs]


def _dog_pairs(big_k, big_t):
    return [(r, s) for r in range(1, big_t + 1) for s in range(1, min(big_t, big_k + r) + 1)]


class TestCounter:
    """Every per-(r, s) count, not only the argmin, against count_unique of
    the built table. K and L are taken in both orders."""

    @settings(max_examples=100, deadline=None)
    @given(
        big_k=st.integers(2, 12),
        big_l=st.integers(2, 12),
        big_t=st.integers(2, 12),
    )
    @example(big_k=2, big_l=3, big_t=5)  # r = T > K: one chain wider than the stride
    @example(big_k=3, big_l=2, big_t=5)  # b_s > KL
    @example(big_k=12, big_l=2, big_t=12)  # every r admissible
    def test_gasp_rs_counts_equal_count_unique(self, big_k, big_l, big_t):
        def build(r, s):
            return construct_gasp_rs(big_k, big_l, big_t, r, s)

        # Admissible: the gap vector of width r has T distinct entries.
        rs = [r for r in range(1, big_t + 1) if len(set(build(r, r).alpha_s)) == big_t]
        got = _gasp_counted(big_k, big_t, [big_l])
        assert got == {(r, 0, s): count_unique(build(r, s)) for r in rs for s in rs}
        if big_t > big_k:
            assert (big_t, 0, big_t) in got

    @settings(max_examples=100, deadline=None)
    @given(
        big_k=st.integers(2, 12),
        big_l=st.integers(2, 12),
        big_t=st.integers(2, 12),
    )
    @example(big_k=2, big_l=3, big_t=6)  # s = K + r < T
    @example(big_k=12, big_l=2, big_t=12)  # s = T < K + r
    def test_dog_rs_counts_equal_count_unique(self, big_k, big_l, big_t):
        got = _dog_counted(big_k, big_t, [big_l])
        assert got == {
            (r, 0, s): count_unique(construct_dog_rs(big_k, big_l, big_t, r, s))
            for r in range(1, big_t + 1)
            for s in range(1, min(big_t, big_k + r) + 1)
        }

    def test_one_group_counts_every_l(self):
        # One scan of (K, T) = (7, 6) counts all its L at once.
        ls = range(2, 8)
        got = _gasp_counted(7, 6, ls)
        assert got == {
            (r, i, s): count_unique(construct_gasp_rs(7, big_l, 6, r, s))
            for r in range(1, 7)
            for i, big_l in enumerate(ls)
            for s in range(1, 7)
        }
        got = _dog_counted(7, 6, ls)
        assert got == {
            (r, i, s): count_unique(construct_dog_rs(7, big_l, 6, r, s))
            for r in range(1, 7)
            for i, big_l in enumerate(ls)
            for s in range(1, 7)
        }

    @settings(max_examples=100, deadline=None)
    @given(
        big_k=st.integers(2, 12),
        big_l=st.integers(2, 12),
        big_t=st.integers(2, 12),
    )
    @example(big_k=2, big_l=3, big_t=5)  # r = T > K: g_r + K·[0, L) holds [0, KL)
    @example(big_k=3, big_l=2, big_t=5)  # b_s > KL: [0, K) + g_s reaches past KL
    @example(big_k=2, big_l=3, big_t=6)  # s = K + r < T
    def test_identities_equal_count_unique(self, big_k, big_l, big_t):
        for r, s in _gasp_pairs(big_k, big_t):
            n = count_unique(construct_gasp_rs(big_k, big_l, big_t, r, s))
            assert _gasp_identity(big_k, big_l, big_t, r, s) == n, (r, s)
        for r, s in _dog_pairs(big_k, big_t):
            n = count_unique(construct_dog_rs(big_k, big_l, big_t, r, s))
            m = _dog_union(big_k, big_t, r, s)
            assert big_l * big_k + (big_l - 1) * r + m == n, (r, s)
            assert (s, m) in search._dog_counts(big_k, big_t, [big_l], r, [inf])

    def test_bound_skips_a_chain_whose_left_set_is_large_enough(self):
        # The floor LK + (L - 1)·r + K + 2T - 1 is at least |(α_p ∪ α_s) +
        # (β_p ∪ {b0})|, the table with β_s cut to its first entry b0, and
        # the counter skips at it.
        floor = search._dog_floor(7, 7, 6, 1)
        assert floor >= _floor(construct_dog_rs(7, 7, 6, 1, 1))
        assert search._dog_counts(7, 6, [7], 1, [floor]) is None
        assert [s for s, _ in search._dog_counts(7, 6, [7], 1, [floor + 1])] == [1, 2, 3, 4, 5, 6]

    def test_t_bound_counts_s_equal_t_alone(self):
        # Past `bound`, a floor under `t_bound` still yields (T, N(r, T)).
        dv = construct_gasp_rs(7, 7, 6, 1, 6)
        floor = search._gasp_floor(7, 7, 6, 1)
        assert search._gasp_counts(7, 6, [7], 1, [floor], [floor]) is None
        got = search._gasp_counts(7, 6, [7], 1, [floor], [floor + 1])
        assert got == [(0, 6, count_unique(dv))]
        # In a group, an L that only GASP_r still needs gets (T, N) alone,
        # beside an L that gets every s.
        got = search._gasp_counts(7, 6, [5, 7], 1, [inf, floor], [0, floor + 1])
        assert [(i, s) for i, s, _ in got] == [(0, s) for s in range(1, 7)] + [(1, 6)]
        assert got[-1] == (1, 6, count_unique(dv))

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(["gasp_rs", "dog_rs"]),
        big_k=st.integers(2, 12),
        big_l=st.integers(2, 12),
        big_t=st.integers(2, 12),
    )
    @example(kind="gasp_rs", big_k=2, big_l=3, big_t=5)
    @example(kind="gasp_rs", big_k=3, big_l=2, big_t=5)
    @example(kind="dog_rs", big_k=2, big_l=3, big_t=6)
    def test_floor_lies_between_left_and_every_count(self, kind, big_k, big_l, big_t):
        """|left| <= `_floor` <= floor <= N(r, s) for every admissible s, so
        skipping an r whose floor reaches the best N never skips a better
        (r, s); and the floor rises with r, so the scan may stop there."""
        if kind == "gasp_rs":
            rs, floor_of = search._admissible(big_k, big_t), search._gasp_floor
            pairs = _gasp_pairs(big_k, big_t)

            def build(r, s):
                return construct_gasp_rs(big_k, big_l, big_t, r, s)

            def counts(r, bound):
                return search._gasp_counts(big_k, big_t, [big_l], r, [bound], [0])
        else:
            rs, floor_of = range(1, big_t + 1), search._dog_floor
            pairs = _dog_pairs(big_k, big_t)

            def build(r, s):
                return construct_dog_rs(big_k, big_l, big_t, r, s)

            def counts(r, bound):
                return search._dog_counts(big_k, big_t, [big_l], r, [bound])
        floors = []
        for r in rs:
            ss = [s for r_, s in pairs if r_ == r]
            dv = build(r, ss[0])
            left = len({a + b for a in dv.alpha_p + dv.alpha_s for b in dv.beta_p})
            floor = floor_of(big_k, big_l, big_t, r)
            assert left <= _floor(dv) <= floor <= min(count_unique(build(r, s)) for s in ss)
            # The counter skips at exactly this floor.
            assert counts(r, floor) is None
            assert len(counts(r, floor + 1)) == len(ss)
            floors.append(floor)
        assert floors == sorted(floors)

    def test_scan_stops_at_the_first_r_no_l_needs(self, monkeypatch):
        # The floors rise with r, so after the first r that every L skips,
        # no later r is counted: each scan asks for one skipped r at most.
        asked = []
        for name in ("_gasp_counts", "_dog_counts"):
            def counted(*args, _counts=getattr(search, name), _name=name):
                got = _counts(*args)
                asked.append((_name, got is None))
                return got

            monkeypatch.setattr(search, name, counted)
        best_scheme(40, 40, 30)
        for name in ("_gasp_counts", "_dog_counts"):
            skipped = [none for n, none in asked if n == name]
            assert skipped[-1] and skipped.count(True) == 1, name
            assert len(skipped) < 30


class TestCatxChoice:
    @pytest.mark.parametrize("klt,n", [((2, 2, 2), 10), ((7, 7, 6), 89), ((20, 20, 2), 442)])
    def test_fixtures(self, klt, n):
        choice = catx_choice(*klt)
        assert choice.n_workers == n
        assert choice.x == 1
        assert count_unique(construct_cat_x(*klt, 1)) == n

    def test_none_when_privacy_exceeds_smaller_dimension(self):
        assert catx_choice(5, 2, 3) is None
        assert catx_choice(2, 5, 3) is None


class TestBestScheme:
    def test_2_2_2_cat_beats_gasp(self):
        rec = best_scheme(2, 2, 2)
        assert rec.winner == "CATX"
        assert rec.catx.n_workers == 10
        assert rec.gasp_r.n_workers == 11
        assert rec.margin == 1

    def test_7_7_6_dog_wins_by_one(self):
        rec = best_scheme(7, 7, 6)
        assert rec.winner == "DOG_RS"
        assert rec.margin == 1

    def test_3_3_3_tie_at_22(self):
        rec = best_scheme(3, 3, 3)
        assert rec.gasp_r.n_workers == 22
        assert rec.dog_rs.n_workers == 23
        assert rec.catx.n_workers == 22
        # The fixed tie order prefers the cyclic family at equal N.
        assert rec.winner == "CATX"
        assert rec.margin == 0

    def test_polegap_marked_absent(self):
        assert best_scheme(2, 2, 2).polegap == "n/a"

    def test_transposition_symmetry(self):
        for big_k in range(2, 6):
            for big_l in range(2, 6):
                for big_t in (2, 3):
                    a = best_scheme(big_k, big_l, big_t)
                    b = best_scheme(big_l, big_k, big_t)
                    # The winner names its field: CATX is catx, DOG_RS dog_rs.
                    na = getattr(a, a.winner.lower()).n_workers
                    nb = getattr(b, b.winner.lower()).n_workers
                    assert na == nb

    def test_savings_are_exact_rationals(self):
        rec = best_scheme(7, 7, 6)
        assert rec.dog_saving == Fraction(3, 91)
        assert rec.gasp_rs_saving == Fraction(2, 91)

    def test_rejects_degenerate_parameters(self):
        for klt in [(1, 2, 2), (2, 2, 1), (2, 2, 0), (0, 0, 2)]:
            with pytest.raises(ValueError, match="need K, L, T >= 2"):
                best_scheme(*klt)

    def test_numpy_integers_give_the_int_records(self):
        # Read as given, a numpy K enters the bitsets as 1 << np.int64(K) and
        # wraps: best_scheme(np.int64(5), 5, 4) would read DOG_RS N = 1.
        rec = best_scheme(np.int64(5), 5, np.int32(4))
        assert rec == best_scheme(5, 5, 4)
        assert (rec.dog_rs.n_workers, rec.winner, rec.margin) == (48, "CATX", 1)
        assert all(type(v) is int for v in (rec.k, rec.l, rec.t, rec.dog_rs.n_workers))
        rec = best_scheme(np.int64(40), 40, 30)
        assert rec == best_scheme(40, 40, 30)
        assert rec.dog_rs.n_workers == 1963
        assert catx_choice(np.int64(7), 7, np.int64(6)) == catx_choice(7, 7, 6)
        recs = sweep(np.arange(10, 13), None, np.arange(8, 10))
        assert recs == sweep(range(10, 13), None, range(8, 10))
        assert all(type(r.k) is int and type(r.dog_rs.n_workers) is int for r in recs)
        assert sweep([np.int64(3)], np.arange(2, 4), [np.int64(2)]) == sweep([3], [2, 3], [2])

    @pytest.mark.parametrize(
        "name,klt", [("K", (2.0, 2, 2)), ("L", (2, True, 2)), ("T", (2, 2, 2.5))]
    )
    def test_floats_and_bools_are_refused_by_name(self, name, klt):
        for search_at in (best_scheme, catx_choice):
            with pytest.raises(ParameterError, match=f"^{name} takes only integers"):
                search_at(*klt)
        k, l, t = ([v] for v in klt)
        with pytest.raises(ParameterError, match=f"^{name} takes only integers"):
            sweep(k, l, t)

    def test_memory_stays_per_chain(self):
        # The sumsets of one (r, s) at a time: a scan that kept every r's
        # runs and sumsets for the point peaked near 2.2 MiB here.
        tracemalloc.start()
        try:
            best_scheme(100, 100, 100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * 2**20


class TestSweep:
    def test_single_point_equals_best_scheme(self):
        assert sweep([4], [4], [3])[0] == best_scheme(4, 4, 3)

    def test_k_equals_l_mode(self):
        recs = sweep([2, 3], None, [2])
        assert [(r.k, r.l, r.t) for r in recs] == [(2, 2, 2), (3, 3, 2)]

    def test_full_mode_lexicographic_order(self):
        recs = sweep([3, 2], [2], [3, 2])
        assert [(r.k, r.l, r.t) for r in recs] == [
            (2, 2, 2), (2, 2, 3), (3, 2, 2), (3, 2, 3)
        ]

    def test_cat_dominates_when_t_is_small(self):
        recs = sweep(range(10, 16), None, [2])
        assert all(r.winner == "CATX" for r in recs)

    @pytest.mark.parametrize(
        "ranges,mode",
        [
            ((range(2, 8), range(3, 10), range(2, 7)), "full"),
            ((range(2, 9), None, range(2, 6)), "KequalsL"),
        ],
    )
    def test_equals_best_scheme_per_point(self, ranges, mode):
        # mode names the CLI's grid: KequalsL is the one without an L range.
        recs = sweep(*ranges)
        ks, ls, ts = ranges
        if mode == "full":
            points = [(k, l, t) for k in ks for l in ls for t in ts]
        else:
            points = [(k, k, t) for k in ks for t in ts]
        assert recs == [best_scheme(*pt) for pt in points]

    def test_each_oriented_point_computed_once_per_call(self, monkeypatch):
        calls, groups = [], []
        choices = search._choices

        def counted(big_k, big_t, ls):
            groups.append((big_k, big_t))
            calls.extend((big_k, big_l, big_t) for big_l in ls)
            return choices(big_k, big_t, ls)

        monkeypatch.setattr(search, "_choices", counted)
        ks, ls, ts = range(2, 6), range(2, 7), range(2, 4)
        oriented = {(max(k, l), min(k, l), t) for k in ks for l in ls for t in ts}
        recs = sweep(ks, ls, ts)
        assert len(recs) == len(ks) * len(ls) * len(ts)
        assert len(calls) == len(oriented) < len(recs)
        assert set(calls) == oriented
        # One scan per (K, T), for all of its L.
        assert sorted(groups) == sorted({(big_k, big_t) for big_k, _, big_t in oriented})
        sweep(ks, ls, ts)
        assert len(calls) == 2 * len(oriented)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep([], [], [2])

    def test_degenerate_point_rejected(self):
        with pytest.raises(ValueError):
            sweep([1, 2], None, [2])
