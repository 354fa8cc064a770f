"""Enumeration of the saturated family stratified by rank.

The minimal systems {n1 < .. < np} of rank-p members are governed by
their prefix gcds d_i = gcd(n1..ni): these strictly decrease, each
divides the one before, and the last must not divide F.  Conversely
every such divisor chain (d1..dp), paired with positive coefficients
t1..tp subject to t1*d1 + .. + tp*dp < F and
gcd(d_i / d_{i+1}, t_{i+1}) = 1, produces the minimal system
{d1, t1*d1 + t2*d2, .., t1*d1 + .. + tp*dp}.

Distinct witnesses can give the same semigroup (a larger t1 can trade
against a smaller t2 for the same partial sums), but those with t1 = 1
are in bijection with the rank-p members: a member's minimal system
forces n1 = d1 and then each t_i = (n_i - n_{i-1}) / d_i.  Enumerating
all chains with entry sum below F, and per chain the coefficient tuples
with t1 = 1, therefore lists every rank-p member exactly once, and its
small elements follow from the minimal system as the progressions
n_i, n_i + d_i, .. below n_{i+1}.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import NotASatSequence
from .extremal import least_non_divisor
from .satsets import closure
from .semigroup import NumericalSemigroup, ordinary, sort_masks

__all__ = [
    "is_sat_sequence",
    "list_sequences",
    "feasible_rank",
    "coefficient_tuples",
    "witness_generators",
    "witness_to_semigroup",
    "enumerate_rank",
]


def is_sat_sequence(frobenius: int, ds: Sequence[int]) -> bool:
    """Strictly decreasing divisor chain whose last entry does not divide F."""
    ds = tuple(ds)
    if not ds or any(d < 1 for d in ds):
        return False
    for a, b in zip(ds, ds[1:]):
        if b >= a or a % b:
            return False
    return frobenius % ds[-1] != 0


def list_sequences(frobenius: int, length: int) -> list[tuple[int, ...]]:
    """All chains of the given length with entry sum below F, ascending.

    Chains factor as repeated multiplication by integers >= 2 starting
    from the smallest entry, which must not divide F.  Branches whose
    cheapest completion (repeated doubling) already reaches F are cut.
    """
    if frobenius < 1 or length < 1:
        raise ValueError("need frobenius >= 1 and length >= 1")
    found: list[tuple[int, ...]] = []

    def grow(chain: list[int], total: int) -> None:
        if len(chain) == length:
            found.append(tuple(reversed(chain)))
            return
        d = chain[-1]
        rest = length - len(chain)
        v = 2 * d
        while total + v * ((1 << rest) - 1) < frobenius:
            chain.append(v)
            grow(chain, total + v)
            chain.pop()
            v += d

    for a in range(2, frobenius):
        if frobenius % a and a * ((1 << length) - 1) < frobenius:
            grow([a], a)
    return sorted(found)


def feasible_rank(frobenius: int, p: int) -> bool:
    """Does the family contain a member of rank p?

    For p >= 1 this is a * (2**p - 1) < F with a the least non-divisor
    of F; rank 0 (the ordinary semigroup) always exists.
    """
    if frobenius < 1 or p < 0:
        raise ValueError("need frobenius >= 1 and p >= 0")
    if p == 0:
        return True
    return least_non_divisor(frobenius) * ((1 << p) - 1) < frobenius


def coefficient_tuples(
    frobenius: int, ds: Sequence[int]
) -> list[tuple[int, ...]]:
    """All coefficient tuples pairing with the chain, ascending.

    Positive tuples t with sum(t_i * d_i) < F whose entries after the
    first are coprime to the preceding divisor ratio.  Entries are chosen
    left to right, each bounded by what the remaining entries need at
    coefficient 1, so every branch ends in a tuple.
    """
    ds = tuple(ds)
    if not is_sat_sequence(frobenius, ds):
        raise NotASatSequence(
            f"{list(ds)} is not a decreasing divisor chain avoiding F={frobenius}"
        )
    out: list[tuple[int, ...]] = []
    ts: list[int] = []
    rest = [sum(ds[i + 1:]) for i in range(len(ds))]

    def grow(i: int, budget: int) -> None:
        if i == len(ds):
            out.append(tuple(ts))
            return
        d = ds[i]
        ratio = ds[i - 1] // d if i else 1
        for t in range(1, (budget - rest[i]) // d + 1):
            if math.gcd(ratio, t) == 1:
                ts.append(t)
                grow(i + 1, budget - t * d)
                ts.pop()

    grow(0, frobenius - 1)
    return out


def witness_generators(
    ds: Sequence[int], ts: Sequence[int]
) -> tuple[int, ...]:
    """The minimal system encoded by a chain and coefficients.

    The first chain entry, followed by the partial weighted sums from the
    second coefficient on.
    """
    gens = [ds[0]]
    acc = ds[0] * ts[0]
    for d, t in zip(ds[1:], ts[1:]):
        acc += d * t
        gens.append(acc)
    return tuple(gens)


def witness_to_semigroup(
    frobenius: int, ds: Sequence[int], ts: Sequence[int]
) -> NumericalSemigroup:
    """The member whose minimal system a chain/coefficients pair encodes.

    The result has rank len(ds), and its minimal system is exactly
    witness_generators(ds, ts) with prefix gcds ds.
    """
    ds, ts = tuple(ds), tuple(ts)
    if not is_sat_sequence(frobenius, ds):
        raise NotASatSequence(
            f"{list(ds)} is not a decreasing divisor chain avoiding F={frobenius}"
        )
    if len(ts) != len(ds) or any(t < 1 for t in ts):
        raise ValueError("need one positive coefficient per chain entry")
    if sum(d * t for d, t in zip(ds, ts)) >= frobenius:
        raise ValueError("weighted sum must stay below the Frobenius number")
    if any(
        math.gcd(a // b, t) != 1 for a, b, t in zip(ds, ds[1:], ts[1:])
    ):
        raise ValueError("a coefficient shares a factor with its divisor ratio")
    return closure(frobenius, witness_generators(ds, ts))


def enumerate_rank(frobenius: int, p: int) -> list[NumericalSemigroup]:
    """All members of the family with the given rank, ascending by small
    elements.

    Each member has exactly one witness with t1 = 1: its minimal system
    fixes the chain as its prefix gcds and n1 = d1, and then every
    t_i = (n_i - n_{i-1}) / d_i is forced.  Those witnesses therefore list
    the rank class once each, and each member is read off its minimal
    system directly: the small elements are the progressions n_i + k*d_i
    below n_{i+1}, the last one running below F.
    """
    if frobenius < 1 or p < 0:
        raise ValueError("need frobenius >= 1 and p >= 0")
    if p == 0:
        return [ordinary(frobenius + 1)]
    masks = []
    for ds in list_sequences(frobenius, p):
        for ts in coefficient_tuples(frobenius, ds):
            if ts[0] != 1:
                break  # the tuples ascend, so all with t1 = 1 came first
            gens = witness_generators(ds, ts)
            mask = 1 | (1 << (frobenius + 1))
            for n, d, end in zip(gens, ds, gens[1:] + (frobenius,)):
                count = (end - n + d - 1) // d
                mask |= ((1 << (count * d)) - 1) // ((1 << d) - 1) << n
            masks.append(mask)
    sort_masks(frobenius, masks)
    return [NumericalSemigroup._raw(frobenius, mask) for mask in masks]
