"""The addition table against the earlier set-based quadrants and validators.

The reference below builds each quadrant as a Python set of sums and checks
an integer table and a cyclic one by two separate routines. The library now
derives both from one int64 addition table; on random small tables of both
kinds, with repeats, TL collisions, quadrant overlaps and non-progression
masks, it must give the same quadrants, flags, witnesses and counts.
"""

from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from pdmm.degrees import (
    DegreeVectors,
    QuadrantSets,
    ValidationReport,
    count_unique,
    quadrants,
    validate_degree_table,
)


def ref_sumset(a, b, modulus):
    if modulus is None:
        return frozenset(u + v for u in a for v in b)
    return frozenset((u + v) % modulus for u in a for v in b)


def ref_quadrants(dv):
    tl = ref_sumset(dv.alpha_p, dv.beta_p, dv.modulus)
    tr = ref_sumset(dv.alpha_p, dv.beta_s, dv.modulus)
    bl = ref_sumset(dv.alpha_s, dv.beta_p, dv.modulus)
    br = ref_sumset(dv.alpha_s, dv.beta_s, dv.modulus)
    gamma = tuple(sorted(tl | tr | bl | br))
    return QuadrantSets(tl, tr, bl, br, gamma, len(gamma))


def ref_disjointness(qs):
    flags = {}
    witnesses = []
    for label, other, name in (("IIIa", qs.tr, "TR"), ("IIIb", qs.bl, "BL"), ("IIIc", qs.br, "BR")):
        overlap = sorted(qs.tl & other)
        flags[label] = not overlap
        witnesses.extend((name, v) for v in overlap)
    return flags, witnesses


def ref_tl_multiset_ok(dv):
    counts = {}
    for a in dv.alpha_p:
        for b in dv.beta_p:
            v = (a + b) % dv.modulus if dv.modulus is not None else a + b
            counts[v] = counts.get(v, 0) + 1
    dups = sorted(v for v, c in counts.items() if c > 1)
    return not dups, [("TL", v) for v in dups]


def ref_no_duplicates(vec, label):
    seen = set()
    dups = set()
    for v in vec:
        (dups if v in seen else seen).add(v)
    return not dups, [(label, v) for v in sorted(dups)]


def ref_validate_degree_table(dv):
    qs = ref_quadrants(dv)
    flags = {"I": True}
    witnesses = []
    ok, wit = ref_tl_multiset_ok(dv)
    flags["II"] = ok
    witnesses.extend(wit)
    d_flags, d_wit = ref_disjointness(qs)
    flags.update(d_flags)
    witnesses.extend(d_wit)
    ok_a, wit_a = ref_no_duplicates(dv.alpha_p + dv.alpha_s, "alpha")
    ok_b, wit_b = ref_no_duplicates(dv.beta_p + dv.beta_s, "beta")
    flags["IV"] = ok_a and ok_b
    witnesses.extend(wit_a + wit_b)
    return ValidationReport(flags, qs.n_unique, tuple(witnesses))


def ref_progression_rule(vec, q, n):
    """A cyclic mask side passes when its differences mod q are one value d
    (a single entry steps by 1) and omega^d, omega of order q, has order
    q / gcd(d, q) >= n."""
    diffs = {(b - a) % q for a, b in zip(vec, vec[1:])} if len(vec) > 1 else {1}
    if len(diffs) != 1:
        return False
    (d,) = diffs
    return q // gcd(d, q) >= n


def ref_validate_cat(dv):
    qs = ref_quadrants(dv)
    flags = {"I": True}
    witnesses = []
    ok, wit = ref_tl_multiset_ok(dv)
    flags["II"] = ok
    witnesses.extend(wit)
    d_flags, d_wit = ref_disjointness(qs)
    flags.update(d_flags)
    witnesses.extend(d_wit)
    flags["IV"] = all(
        ref_progression_rule(vec, dv.modulus, qs.n_unique) for vec in (dv.alpha_s, dv.beta_s)
    )
    return ValidationReport(flags, qs.n_unique, tuple(witnesses))


@st.composite
def degree_tables(draw):
    """Integer or cyclic tables with K, L, T <= 4 over a small value range, so
    that repeats and collisions are common; a mask vector is sometimes an
    arithmetic progression, so that cyclic condition IV passes as well."""
    modulus = draw(st.one_of(st.none(), st.integers(1, 24)))
    top = modulus if modulus is not None else draw(st.integers(1, 30))
    big_k, big_l, big_t = (draw(st.integers(1, 4)) for _ in range(3))

    def vector(length):
        if draw(st.booleans()):
            start, step = draw(st.integers(0, top - 1)), draw(st.integers(0, top - 1))
            return tuple((start + step * i) % top for i in range(length))
        return tuple(draw(st.lists(st.integers(0, top - 1), min_size=length, max_size=length)))

    return DegreeVectors(
        vector(big_k), vector(big_t), vector(big_l), vector(big_t), modulus=modulus
    )


class TestAgainstSetReference:
    @settings(max_examples=600, deadline=None)
    @given(degree_tables())
    def test_quadrants_counts_and_reports_match(self, dv):
        ref_qs = ref_quadrants(dv)
        assert quadrants(dv) == ref_qs
        assert count_unique(dv) == ref_qs.n_unique
        ref = ref_validate_degree_table(dv) if dv.modulus is None else ref_validate_cat(dv)
        report = validate_degree_table(dv)
        assert list(report.flags.items()) == list(ref.flags.items())
        assert report.n_unique == ref.n_unique
        assert report.witnesses == ref.witnesses
