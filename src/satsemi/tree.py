"""Tree enumeration of the saturated semigroups with a fixed Frobenius number.

Fix F >= 1 and consider the saturated numerical semigroups whose Frobenius
number is F.  The family is finite, closed under intersection, has the
ordinary semigroup {0, F+1, ->} as least element, and removing the
multiplicity of any other member stays inside it.  Repeatedly deleting
multiplicities therefore connects every member to the least one, which
organizes the family as a rooted tree: the children of S are the sets
S + {x} where x is a special gap of S below its multiplicity, x != F, and
the enlarged set is still saturated.

Enumeration runs breadth first over that tree, one genus per layer, and a
node is nothing but its membership bitmap.  A gap x below the
multiplicity is pseudo-Frobenius when shifting the nonzero members up by
x lands inside S, which is one shift and mask over the window 0..F+1; it
is special when 2x is a member as well.  Whether adjoining x preserves
saturation is decided by a running gcd over the members between m(S) and
m(S)+x only.

special_gaps_from_msg and child_msg are the same two steps computed from
minimal generators; the walk does not call them.
"""

from __future__ import annotations

import math
# Unused: the traced benchmark wraps this name to count pool starts
# (tree.pools_started).  Remove the import when the benchmark retires
# that metric.
from concurrent.futures import ProcessPoolExecutor
from typing import Iterator

from .errors import PreconditionViolated, ResidueClassMissing
from .extremal import least_non_divisor
from .semigroup import NumericalSemigroup, ordinary, sort_masks

__all__ = [
    "special_gaps_from_msg",
    "extension_is_saturated",
    "child_msg",
    "iter_layers",
    "iter_sat",
    "enumerate_sat",
    "enumerate_sat_genus",
    "chain",
]


def special_gaps_from_msg(
    S: NumericalSemigroup, msg: tuple[int, ...]
) -> tuple[int, ...]:
    """Special gaps computed from cached minimal generators.

    Valid whenever S has maximal embedding dimension (every saturated
    semigroup does): the Apery set of the multiplicity is then {0} plus
    the generators other than the multiplicity itself.
    """
    m = msg[0]
    nonzero = tuple(a for a in msg if a != m)
    ap_set = frozenset(nonzero)
    pf = sorted(
        w - m for w in nonzero if all(w + w2 not in ap_set for w2 in nonzero)
    )
    pf_set = frozenset(pf)
    return tuple(x for x in pf if 2 * x not in pf_set)


def extension_is_saturated(S: NumericalSemigroup, x: int) -> bool:
    """Does adjoining the special gap x keep the semigroup saturated?

    Requires 0 < x < m(S), x != F and x a gap; x is assumed to be a
    special gap of S, so the enlarged set is closed.  Only the members
    between m(S) and m(S)+x can break saturation: beyond that window the
    member gcds are unchanged by x.
    """
    F = S.frobenius
    m = S.multiplicity
    mask = S._mask
    if x == F or not 0 < x < m or (mask >> x) & 1:
        raise PreconditionViolated(
            f"x={x} must be a gap below the multiplicity {m} and distinct from F={F}"
        )
    g = x
    window = (mask >> m) & ((1 << (min(x, F - m) + 1)) - 1)
    while window:
        low = window & -window
        window ^= low
        s = m + low.bit_length() - 1
        g = math.gcd(g, s)
        t = s + g
        if t <= F + 1 and not (mask >> t) & 1:
            return False
    return True


def child_msg(msg: tuple[int, ...], x: int) -> tuple[int, ...]:
    """Minimal generators of S + {x} from those of S.

    Per nonzero residue class mod x the least generator survives, and x
    joins as the new multiplicity.  Every class must be hit;
    ResidueClassMissing signals a caller bug (the parent was not of
    maximal embedding dimension, or x was not eligible).
    """
    least = [0] * x
    for a in msg:
        r = a % x
        if r and (least[r] == 0 or a < least[r]):
            least[r] = a
    picked = [v for v in least[1:] if v]
    if len(picked) != x - 1:
        raise ResidueClassMissing(f"some residue class mod {x} has no generator")
    picked.append(x)
    picked.sort()
    return tuple(picked)


def _expand(frobenius: int, mask: int) -> list[int]:
    # the children of one node, as bitmaps
    S = NumericalSemigroup._raw(frobenius, mask)
    window = (1 << (frobenius + 2)) - 1
    body = mask & ~1
    m = (body & -body).bit_length() - 1
    children = []
    for x in range(1, min(m, frobenius)):
        if (body << x) & window & ~mask:
            continue  # x is not pseudo-Frobenius
        if 2 * x <= frobenius + 1 and not (mask >> (2 * x)) & 1:
            continue  # x is pseudo-Frobenius but not special
        if extension_is_saturated(S, x):
            children.append(mask | (1 << x))
    return children


def iter_layers(frobenius: int) -> Iterator[list[NumericalSemigroup]]:
    """Yield the tree layer by layer; layer k holds the members of genus F-k.

    Inside a layer, members come in ascending order of their small-element
    lists.
    """
    if frobenius < 1:
        raise ValueError("frobenius must be >= 1")
    layer = [ordinary(frobenius + 1)._mask]
    while layer:
        yield [NumericalSemigroup._raw(frobenius, mask) for mask in layer]
        layer = [child for mask in layer for child in _expand(frobenius, mask)]
        sort_masks(frobenius, layer)


def iter_sat(frobenius: int) -> Iterator[NumericalSemigroup]:
    """Stream every member of the family in canonical order."""
    for layer in iter_layers(frobenius):
        yield from layer


def enumerate_sat(frobenius: int) -> list[NumericalSemigroup]:
    """All saturated semigroups with the given Frobenius number.

    Layers come in increasing depth (decreasing genus); inside a layer,
    ascending by the list of small elements.
    """
    return list(iter_sat(frobenius))


def enumerate_sat_genus(frobenius: int, genus: int) -> list[NumericalSemigroup]:
    """The members with the given genus; empty when the genus is unreachable.

    Genus g occurs exactly for F - floor(F/p) <= g <= F with p the least
    non-divisor of F, and the walk stops at depth F - g.
    """
    if frobenius < 1:
        raise ValueError("frobenius must be >= 1")
    floor = frobenius - frobenius // least_non_divisor(frobenius)
    if genus > frobenius or genus < floor:
        return []
    target = frobenius - genus
    for depth, layer in enumerate(iter_layers(frobenius)):
        if depth == target:
            return layer
    return []


def chain(S: NumericalSemigroup) -> list[NumericalSemigroup]:
    """S, then repeated multiplicity removals, ending at {0, F+1, ->}.

    The length equals the count of small elements, and every link is
    saturated whenever S is.
    """
    out = [S]
    while S.multiplicity != S.frobenius + 1:
        S = S.remove_multiplicity()
        out.append(S)
    return out
