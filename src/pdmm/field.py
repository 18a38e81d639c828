"""Prime fields F_p: primality and primitive elements.

A :class:`PrimeField` names a prime p. Elements are plain Python ints or
int64 arrays in [0, p); the code that uses them reduces mod p itself.
_primitive_root gives the smallest primitive element of F_p, from which
the field scan of scheme.instantiate_degree_table takes its roots of unity.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .degrees import _integer


class FieldError(Exception):
    """Invalid field construction, or no field as requested."""


# Witness set proving Miller-Rabin deterministic for all n < 3.3 * 10^24,
# comfortably covering the 64-bit range used here.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Below 3,215,031,751, the least strong pseudoprime to the bases 2, 3, 5 and
# 7, those four bases alone are deterministic. The bound lies above _MAX_P,
# so they decide every number that the field scan tests.
_MR_SMALL_BOUND = 3_215_031_751

# The largest p whose products of two residues fit int64: linalg refuses any
# larger field, so the field scan of scheme.instantiate_degree_table stops here.
_MAX_P = isqrt(2**63 - 1)


def is_prime(n: int) -> bool:
    """Deterministic primality test: trial division by the primes of
    _MR_BASES, then Miller-Rabin with the bases 2, 3, 5 and 7 below
    _MR_SMALL_BOUND and with all twelve from it on."""
    if n < 2:
        return False
    for sp in _MR_BASES:
        if n % sp == 0:
            return n == sp
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES[:4] if n < _MR_SMALL_BOUND else _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors by trial division (n fits the search bound)."""
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


def _primitive_root(p: int) -> int:
    """Smallest primitive element of F_p (order exactly p-1)."""
    if p == 2:
        return 1
    factors = _prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in factors):
            return g
    raise FieldError(f"no primitive root found for p={p}")  # unreachable for prime p


@dataclass(frozen=True)
class PrimeField:
    """The field F_p; p must be prime. p is taken as an int by
    degrees._integer's rule, which refuses floats and bools."""

    p: int

    def __post_init__(self):
        object.__setattr__(self, "p", _integer(self.p, "p"))
        if not is_prime(self.p):
            raise FieldError(f"{self.p} is not prime")
