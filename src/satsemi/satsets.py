"""Finite sets inside the saturated family, and least saturated extensions.

Call X a usable set for F when X lies in {1..F-1} and some saturated
semigroup with Frobenius number F contains it.  That happens exactly when
X is empty or gcd(X) does not divide F: a witness can be written down
directly, while a gcd dividing F would force F itself into any saturated
superset (repeatedly adding the gcd of the prefix ends on F).

The least witness follows X explicitly.  Between consecutive elements of
X the members form an arithmetic progression whose step is the gcd of the
elements so far; the final progression runs up to F, and everything from
F+1 on is included.  Conversely, scanning any saturated member for the
positions where the running gcd of its members drops recovers the unique
minimal set that generates it this way; the size of that set is the rank
of the member.

Each direction has one implementation on the membership bitmap: ``_fill``
lays the progressions of a set and ``semigroup._drops`` reads the gcd
drops off a bitmap of small elements, once per ``minimal_system`` call
(through ``semigroup._saturated_drops``, which decides ``is_saturated``).
Every caller outside the two enumeration kernels goes through them; the
kernels (``tree._expand``, ``rank_enum._grow``) keep incremental forms.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from .errors import NotASatFSet, NotSaturated, WrongFrobenius
from .semigroup import NumericalSemigroup, _drops, _multiples, _saturated_drops

__all__ = [
    "SatFSet",
    "is_sat_set",
    "closure",
    "minimal_system",
    "is_minimal_system",
    "rank",
]


class SatFSet(NamedTuple):
    """An ascending set of members below a fixed Frobenius number."""

    frobenius: int
    elements: tuple[int, ...]


def _normalized(xs: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(set(xs)))


def _fill(frobenius: int, ns: Sequence[int]) -> int:
    """The bitmap of 0, the progressions n_i, n_i + g_i, .. below n_{i+1}
    (the last one below F), and F+1, where ns is ascending and g_i is the
    gcd of its first i elements.  As g_i divides n_i, each progression is
    the part from n_i up of ``_multiples(g_i, n_{i+1})``.
    """
    mask = 1 | 1 << (frobenius + 1)
    g = 0
    for n, stop in zip(ns, (*ns[1:], frobenius)):
        g = math.gcd(g, n)
        mask |= _multiples(g, stop) >> n << n
    return mask


def is_sat_set(frobenius: int, xs: Iterable[int]) -> bool:
    """Can xs sit inside a saturated semigroup with this Frobenius number?

    True when xs lies within {1..F-1} and either is empty or has a gcd
    that does not divide F.
    """
    if frobenius < 1:
        return False
    ns = _normalized(xs)
    if not ns:
        return True
    if ns[0] < 1 or ns[-1] >= frobenius:
        return False
    return frobenius % math.gcd(*ns) != 0


def _usable(frobenius: int, xs: Iterable[int]) -> tuple[int, ...]:
    # xs normalized, or NotASatFSet when it is not a usable set for F
    ns = _normalized(xs)
    if not is_sat_set(frobenius, ns):
        raise NotASatFSet(
            f"{list(ns)} extends to no saturated semigroup with Frobenius number {frobenius}"
        )
    return ns


def closure(frobenius: int, xs: Iterable[int]) -> NumericalSemigroup:
    """The least saturated semigroup with this Frobenius number containing xs.

    Input order and repeats are irrelevant.  Raises NotASatFSet when no
    such semigroup exists; the empty set closes to the ordinary semigroup
    {0, F+1, ->}.
    """
    ns = _usable(frobenius, xs)
    # _fill lays out the least witness of the module docstring, which is
    # closed and saturated; tests compare it with the validating constructor
    return NumericalSemigroup._raw(frobenius, _fill(frobenius, ns))


def minimal_system(
    S: NumericalSemigroup, frobenius: int | None = None
) -> SatFSet:
    """The unique minimal set whose closure is S.

    Its elements are the members below F where the running gcd of the
    members drops; the multiplicity always belongs unless S is ordinary,
    whose system is empty.  S must be saturated (NotSaturated) and, when
    a Frobenius number is supplied, match it (WrongFrobenius).
    """
    if frobenius is not None and frobenius != S.frobenius:
        raise WrongFrobenius(
            f"expected Frobenius number {frobenius}, got {S.frobenius}"
        )
    ns = _saturated_drops(S.frobenius, S._mask)
    if ns is None:
        raise NotSaturated(f"{S!r} is not saturated")
    return SatFSet(S.frobenius, tuple(ns))


def is_minimal_system(frobenius: int, xs: Iterable[int]) -> bool:
    """Is xs (normalized) exactly the minimal system of its closure?

    Happens precisely when every element strictly drops the running gcd
    of the prefix, which ``_drops`` decides on the bitmap of xs.  Raises
    NotASatFSet on unusable input.
    """
    ns = list(_usable(frobenius, xs))
    # each element at least halves the running gcd, which starts below F,
    # so a longer list is no minimal system; this also keeps the bitmap
    # below from costing one F-bit copy per element of a long list
    if len(ns) > frobenius.bit_length():
        return False
    small = 0
    for n in ns:
        small |= 1 << n
    return _drops(frobenius, small) == ns


def rank(S: NumericalSemigroup, frobenius: int | None = None) -> int:
    """Size of the minimal system; 0 exactly for the ordinary semigroup."""
    return len(minimal_system(S, frobenius).elements)
