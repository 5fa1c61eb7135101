"""Wisconsin-benchmark key permutation.

The paper's microbenchmark keys follow the key-value permutation of the
Wisconsin benchmark (DeWitt, 1993): unique keys are produced in a
pseudo-random order by a multiplicative generator over a prime field.  A
primitive root of the prime visits every non-zero residue exactly once, so
skipping values above the desired relation size yields a permutation of
``0 .. n - 1``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from repro.exceptions import ConfigurationError

#: Primes used by size bracket; each is the smallest prime comfortably above
#: the bracket bound, as in the original Wisconsin generator tables.
_PRIMES = (
    (1_000, 1_009),
    (10_000, 10_007),
    (100_000, 100_003),
    (1_000_000, 1_000_003),
    (10_000_000, 10_000_019),
    (100_000_000, 100_000_007),
)


def _select_prime(num_keys: int) -> int:
    for bound, prime in _PRIMES:
        if num_keys <= bound:
            return prime
    raise ConfigurationError(
        f"relation of {num_keys} keys exceeds the largest supported size "
        f"({_PRIMES[-1][0]})"
    )


def _prime_factors(value: int) -> list[int]:
    """Distinct prime factors of ``value`` by trial division."""
    factors = []
    remainder = value
    candidate = 2
    while candidate * candidate <= remainder:
        if remainder % candidate == 0:
            factors.append(candidate)
            while remainder % candidate == 0:
                remainder //= candidate
        candidate += 1 if candidate == 2 else 2
    if remainder > 1:
        factors.append(remainder)
    return factors


@lru_cache(maxsize=None)
def _primitive_root(prime: int) -> int:
    """Smallest primitive root modulo ``prime``.

    A primitive root guarantees the multiplicative sequence cycles through
    every non-zero residue, which is what makes the generator a permutation
    rather than merely pseudo-random.
    """
    order = prime - 1
    factors = _prime_factors(order)
    for candidate in range(2, prime):
        if all(pow(candidate, order // factor, prime) != 1 for factor in factors):
            return candidate
    raise ConfigurationError(f"no primitive root found for prime {prime}")


def wisconsin_permutation(num_keys: int, seed: int = 1) -> Iterator[int]:
    """Yield a pseudo-random permutation of ``0 .. num_keys - 1``.

    Args:
        num_keys: number of distinct keys to produce.
        seed: starting element of the multiplicative sequence, in
            ``[1, prime - 1]``.  Different seeds give rotations of the same
            underlying cycle -- deterministic, but enough variety for
            experiments.
    """
    if num_keys <= 0:
        raise ConfigurationError("number of keys must be positive")
    prime = _select_prime(num_keys)
    if not 1 <= seed < prime:
        raise ConfigurationError(f"seed must lie in [1, {prime - 1}]")
    generator = _primitive_root(prime)
    produced = 0
    value = seed
    while produced < num_keys:
        value = (value * generator) % prime
        if value <= num_keys:
            yield value - 1
            produced += 1

