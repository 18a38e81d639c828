"""Primality and prime fields; the field scan is tested in test_scan_reference."""

from unittest import mock

import pytest

import pdmm.field as field_module
from pdmm.field import _MAX_P, _MR_SMALL_BOUND, FieldError, PrimeField, _primitive_root, is_prime


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

    def test_least_strong_pseudoprime_to_the_four_bases_is_composite(self):
        # 3,215,031,751 = 151 * 751 * 28,351 passes Miller-Rabin to the
        # bases 2, 3, 5 and 7, so from it on all twelve bases are used.
        n = _MR_SMALL_BOUND
        assert n == 151 * 751 * 28_351 == 3_215_031_751 > _MAX_P
        assert not is_prime(n)

    @pytest.mark.parametrize(
        "window",
        [
            range(0, 30_000),
            range(10**9 - 5_000, 10**9 + 5_000),
            range(_MAX_P - 20_000, _MAX_P + 1),
        ],
        ids=["small", "1e9", "max-p"],
    )
    def test_four_bases_agree_with_twelve(self, window):
        four = [is_prime(n) for n in window]
        with mock.patch.object(field_module, "_MR_SMALL_BOUND", 0):
            twelve = [is_prime(n) for n in window]
        assert four == twelve
        assert any(four)


class TestPrimitiveRoot:
    def test_generator_of_f11(self):
        assert _primitive_root(11) == 2
        assert sorted(pow(2, e, 11) for e in range(10)) == list(range(1, 11))

    @pytest.mark.parametrize("p", [2, 3, 7, 13, 53, 101])
    def test_smallest_generator_has_full_order(self, p):
        # 2 has order 3 in F_7, whose smallest generator is 3.
        g = _primitive_root(p)
        assert {pow(g, e, p) for e in range(p - 1)} == set(range(1, p))
        for smaller in range(2, g):
            assert len({pow(smaller, e, p) for e in range(p - 1)}) < p - 1


def test_prime_field_rejects_composite():
    assert PrimeField(11).p == 11
    with pytest.raises(FieldError):
        PrimeField(10)


def test_int64_bound():
    # The largest p whose products of two residues fit int64.
    assert _MAX_P == 3_037_000_499
    assert (_MAX_P + 1) ** 2 > 2**63 - 1 >= _MAX_P**2
