"""Prime-field arithmetic, field discovery, and roots of unity."""

import pytest

from pdmm.field import (
    _MAX_P,
    FieldError,
    PrimeField,
    element_of_order,
    find_field,
    is_prime,
)


class TestIsPrime:
    @pytest.mark.parametrize("n", [2, 3, 5, 7, 11, 13, 53, 61, 103, 2729, 104729])
    def test_primes(self, n):
        assert is_prime(n)

    @pytest.mark.parametrize("n", [-7, 0, 1, 4, 9, 91, 561, 1729, 104730])
    def test_composites_and_carmichael(self, n):
        assert not is_prime(n)

    def test_large_prime(self):
        assert is_prime(2**61 - 1)
        assert not is_prime(2**61 + 1)


class TestPrimeField:
    def test_generator_of_f11(self):
        fld = PrimeField.of(11)
        assert fld.generator == 2
        assert sorted(pow(2, e, 11) for e in range(10)) == list(range(1, 11))

    @pytest.mark.parametrize("p", [2, 3, 13, 53, 101])
    def test_generator_has_full_order(self, p):
        fld = PrimeField.of(p)
        assert {pow(fld.generator, e, p) for e in range(p - 1)} == set(range(1, p))

    def test_rejects_composite(self):
        with pytest.raises(FieldError):
            PrimeField.of(10)

    def test_rejects_non_generator(self):
        # 3 has order 5 in F_11.
        with pytest.raises(FieldError):
            PrimeField(11, 3)


class TestFindField:
    def test_smallest_for_q_10(self):
        assert find_field(10).p == 11

    def test_smallest_for_q_34(self):
        assert find_field(34).p == 103

    def test_min_p_skips_small_candidates(self):
        assert find_field(10, min_p=50).p == 61

    @pytest.mark.parametrize("q", [2, 6, 10, 13, 34, 89, 97])
    def test_divisibility_contract(self, q):
        fld = find_field(q)
        assert fld.p > q
        assert (fld.p - 1) % q == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(FieldError):
            find_field(0)

    def test_q_1_is_the_next_prime(self):
        def next_prime(m):
            m = max(m, 2)
            while any(m % d == 0 for d in range(2, int(m**0.5) + 1)):
                m += 1
            return m

        for m in range(-3, 2000):
            assert find_field(1, m).p == next_prime(m), m

    @pytest.mark.parametrize(
        "min_p,p", [(10**9, 1_000_000_007), (2**31, 2_147_483_659), (3 * 10**9, 3_000_000_019)]
    )
    def test_q_1_large(self, min_p, p):
        assert find_field(1, min_p).p == p

    def test_largest_field_is_the_int64_bound(self):
        # 3,037,000,493 is the largest prime <= _MAX_P = isqrt(2^63 - 1).
        assert _MAX_P == 3_037_000_499
        assert find_field(1, 3_037_000_493).p == 3_037_000_493
        with pytest.raises(FieldError, match="3037000499"):
            find_field(1, 3_037_000_494)
        with pytest.raises(FieldError, match="3037000499"):
            find_field(10, 4 * 10**9)


class TestElementOfOrder:
    @pytest.mark.parametrize("q,p", [(10, 11), (13, 53), (34, 103)])
    def test_exact_order(self, q, p):
        fld = find_field(q)
        assert fld.p == p
        w = element_of_order(fld, q)
        assert pow(w, q, p) == 1
        assert all(pow(w, e, p) != 1 for e in range(1, q))

    def test_order_ten_in_f11_is_generator(self):
        assert element_of_order(PrimeField.of(11), 10) == 2

    def test_rejects_non_divisor(self):
        with pytest.raises(FieldError):
            element_of_order(PrimeField.of(11), 7)
