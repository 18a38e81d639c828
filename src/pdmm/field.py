"""Prime fields F_p: primality and primitive elements.

A :class:`PrimeField` names a prime p. Elements are plain Python ints or
int64 arrays in [0, p); the code that uses them reduces mod p itself.

The field scan of scheme.instantiate_degree_table reads each prime's
number theory from _factored(p), a cache that lasts for the process and
holds at most _FACTORED_PRIMES = 1,024 primes, the least recently used
evicted first. An entry factors p - 1 once, by one trial division, and
derives from that factorization both the divisors of p - 1, the orders q
the scan may take, and, on first use, the smallest generator of F_p^*,
from which the scan takes its roots of unity (_primitive_root). is_prime
stays uncached, so every call runs the test: the check that the four small
Miller-Rabin bases agree with all twelve calls it twice per number, under
two bounds, and a cache would answer the second call from the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
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


def _prime_factors(n: int) -> list[tuple[int, int]]:
    """The prime factorization of n >= 1 as (prime, exponent) pairs,
    ascending, by trial division by 2 and the odd numbers (n fits the
    search bound)."""
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return factors


class _Factored:
    """A prime p with p - 1 factored: its distinct prime factors, its
    divisors ascending, and the smallest generator of F_p^*, found from
    the factors on first use."""

    def __init__(self, p: int):
        powers = _prime_factors(p - 1)
        divisors = [1]
        for f, e in powers:
            divisors = [d * f**i for d in divisors for i in range(e + 1)]
        self.p = p
        self.factors = tuple(f for f, _ in powers)
        self.divisors = tuple(sorted(divisors))

    @cached_property
    def root(self) -> int:
        p = self.p
        if p == 2:
            return 1
        factors = self.factors
        return next(g for g in range(2, p) if all(pow(g, (p - 1) // f, p) != 1 for f in factors))


# The most primes _factored keeps. An entry holds the divisors of p - 1, a
# few dozen for most p, so a full cache stays within a few MiB.
_FACTORED_PRIMES = 1024


@lru_cache(maxsize=_FACTORED_PRIMES)
def _factored(p: int) -> _Factored:
    """p - 1 factored once per process for a prime p (see the module
    docstring); callers test p with is_prime first."""
    return _Factored(p)


def _primitive_root(p: int) -> int:
    """Smallest primitive element of F_p (order exactly p-1)."""
    return _factored(p).root


@dataclass(frozen=True)
class PrimeField:
    """The field F_p; p must be prime. p is taken as an int by
    degrees._integer's rule, which refuses floats and bools."""

    p: int

    def __post_init__(self):
        object.__setattr__(self, "p", _integer(self.p, "p"))
        if not is_prime(self.p):
            raise FieldError(f"{self.p} is not prime")
