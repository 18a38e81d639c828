"""Prime fields F_p: primality and primitive elements.

A :class:`PrimeField` names p and a generator of its multiplicative group.
Elements are plain Python ints or int64 arrays in [0, p); the code that uses
them reduces mod p itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt


class FieldError(Exception):
    """Invalid field construction, or no field as requested."""


# Witness set proving Miller-Rabin deterministic for all n < 3.3 * 10^24,
# comfortably covering the 64-bit range used here.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# The largest p whose products of two residues fit int64: linalg refuses any
# larger field, so the field scan of scheme.instantiate_degree_table stops here.
_MAX_P = isqrt(2**63 - 1)


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with fixed witness set)."""
    if n < 2:
        return False
    for sp in _MR_BASES:
        if n % sp == 0:
            return n == sp
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
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
    """The field F_p together with a cached primitive element.

    Construct via :meth:`PrimeField.of` unless both invariants (p prime,
    generator of order p-1) are already known to hold.
    """

    p: int
    generator: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise FieldError(f"{self.p} is not prime")
        if not 1 <= self.generator < self.p:
            raise FieldError(f"generator {self.generator} out of range for p={self.p}")
        order_checks = (
            pow(self.generator, (self.p - 1) // f, self.p) != 1
            for f in _prime_factors(self.p - 1)
        )
        if self.p > 2 and not all(order_checks):
            raise FieldError(f"{self.generator} is not a generator of F_{self.p}")

    @classmethod
    def of(cls, p: int) -> "PrimeField":
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        return cls(p, _primitive_root(p))
