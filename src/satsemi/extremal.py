"""Extremal members of the saturated family with fixed Frobenius number.

The inclusion-maximal members follow a single arithmetic progression up
to the conductor: multiples of a step a below F+1, plus every integer
from F+1 on.  Which steps occur is a divisibility question about F
alone, and the least achievable genus comes from the smallest usable
step.
"""

from __future__ import annotations

from math import isqrt

from .errors import NotRepresentable
from .satsets import closure
from .semigroup import NumericalSemigroup, _multiples, _set_bits, ordinary

__all__ = [
    "tooth",
    "non_divisors",
    "minimal_non_divisors",
    "maximal_elements",
    "least_non_divisor",
    "min_genus",
]


def tooth(step: int, conductor: int) -> NumericalSemigroup:
    """Multiples of ``step`` together with every integer >= ``conductor``.

    Saturated for any positive arguments.  When the result would be all
    of N (step 1, or conductor below 2) NotRepresentable is raised.
    """
    if step < 1 or conductor < 1:
        raise ValueError("step and conductor must be positive")
    # F is the largest x < conductor that step does not divide: c - 1, or
    # else c - 2, which a step >= 2 dividing c - 1 cannot divide
    frobenius = conductor - (1 if (conductor - 1) % step else 2)
    if frobenius < 1 or not frobenius % step:
        raise NotRepresentable("every nonnegative integer is in the set")
    # F+1 .. conductor-1 are multiples of step, so the set is the closure
    # of {step}; a step past F leaves only 0 below F+1
    return closure(frobenius, [step] if step < frobenius else [])


def non_divisors(n: int) -> tuple[int, ...]:
    """Integers in 1..n that do not divide n, ascending."""
    if n < 1:
        raise ValueError("n must be positive")
    return tuple(x for x in range(1, n + 1) if n % x)


def minimal_non_divisors(n: int) -> tuple[int, ...]:
    """Non-divisors of n divisible by no smaller non-divisor, ascending.

    Such an x has every proper divisor dividing n.  Two coprime factors
    of x above 1 would both divide n, and so would x; so x is a prime
    power p**k with p**(k-1) | n, that is p**(v_p(n)+1) <= n.  Those are
    read off a prime sieve on a bitmap over 0..n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    # the candidates 2..n first: at huge n this one shift fails at once,
    # where _multiples would double its run up to the failing size
    prime = (1 << (n + 1)) - 4
    for p in range(2, isqrt(n) + 1):
        if prime >> p & 1:
            prime &= ~(_multiples(p, n + 1) >> (p * p) << (p * p))
    powers = []
    for p in _set_bits(prime):
        q = p
        while n % q == 0:
            q *= p
        if q <= n:
            powers.append(q)
    return tuple(sorted(powers))


def maximal_elements(frobenius: int) -> list[NumericalSemigroup]:
    """The inclusion-maximal saturated semigroups with this Frobenius number.

    Each is a single-progression semigroup whose step is a minimal
    non-divisor of F, listed by ascending step.  For F in {1, 2} every
    smaller integer divides F, the family is the single ordinary
    semigroup, and that is returned as its own maximum.
    """
    if frobenius < 1:
        raise ValueError("frobenius must be >= 1")
    steps = minimal_non_divisors(frobenius)
    if not steps:
        return [ordinary(frobenius + 1)]
    return [tooth(x, frobenius + 1) for x in steps]


def least_non_divisor(n: int) -> int:
    """Smallest positive integer that does not divide n."""
    if n < 1:
        raise ValueError("n must be positive")
    p = 2
    while n % p == 0:
        p += 1
    return p


def min_genus(frobenius: int) -> int:
    """Least genus among the saturated semigroups with this Frobenius number.

    Equals F - floor(F/p) for the least non-divisor p of F, the genus of
    the progression semigroup with step p.
    """
    if frobenius < 1:
        raise ValueError("frobenius must be >= 1")
    return frobenius - frobenius // least_non_divisor(frobenius)
