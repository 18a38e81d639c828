"""Primality and prime fields; the field scan is tested in test_scan_reference."""

import pytest

from pdmm.field import _MAX_P, FieldError, PrimeField, is_prime


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


def test_int64_bound():
    # The largest p whose products of two residues fit int64.
    assert _MAX_P == 3_037_000_499
    assert (_MAX_P + 1) ** 2 > 2**63 - 1 >= _MAX_P**2
