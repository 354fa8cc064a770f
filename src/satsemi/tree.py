"""Tree enumeration of the saturated semigroups with a fixed Frobenius number.

Fix F >= 1 and consider the saturated numerical semigroups whose Frobenius
number is F.  The family is finite, closed under intersection, has the
ordinary semigroup {0, F+1, ->} as least element, and removing the
multiplicity of any other member stays inside it.  Repeatedly deleting
multiplicities therefore connects every member to the least one, which
organizes the family as a rooted tree: the children of S are the sets
S + {x} where x is a special gap of S below its multiplicity, x != F, and
the enlarged set is still saturated.

Enumeration runs breadth first over that tree, one genus per layer.  A
node is its membership bitmap together with its gcd-drop chain: writing
m for the multiplicity (m = F+1 at the root), the links (n_1, d_1), ...,
(n_p, d_p) are the members n_1 = m < n_2 < ... < n_p < F at which the
running gcd d_i = gcd(n_1, ..., n_i) of the members drops.  Below, n_2
stands for F+1 when p < 2.  A saturated S satisfies s + d_s in S for
every nonzero member s, d_s the gcd of the members up to s, so the
members in [n_i, n_{i+1}) are exactly n_i, n_i + d_i, n_i + 2 d_i, ...
(with n_{p+1} = F+1).  The members past F+1 are read as present.  A
layer is built in four stages, and no stage loops over the members of a
node.

1. Candidates are one mask.  Every saturated semigroup is Arf, so
   a + b - m is a member for all nonzero members a, b (Rosales and
   Garcia-Sanchez, Numerical Semigroups, 2009, ch. 3).  Hence, for
   0 < x < m, x is pseudo-Frobenius exactly when x + m is a member: the
   forward direction takes s = m, and conversely x + s = (x + m) + s - m
   lies in S for every nonzero member s.  Such an x is special (2x is not
   pseudo-Frobenius) exactly when 2x is a member, since a gap 2x would
   be pseudo-Frobenius: 2x + s = x + (x + s).  So the candidates are the bits x of
   S shifted down by m, and each needs one more bit test for 2x.  As 2x
   cannot be a nonzero member below m, only x >= m/2 can be special.

2. Saturation is one bit test per link.  Let x be a special gap with
   x < m, and T = S + {x}.  T is saturated exactly when
   n_i + gcd(x, d_i) is a member of S for every link with d_i not
   dividing x.  Proof: T is saturated when t + gcd(members of T up to t)
   lies in T for each nonzero member t.  For t = x that is 2x, a member
   of S.  For a member t >= m of S the gcd is g = gcd(x, d_t); when d_t
   divides x, g = d_t and t + d_t is in S because S is saturated.  A
   member t > F needs nothing, as t + g > F+1.  Otherwise t lies in a
   segment [n_i, n_{i+1}) with d_i = d_t not dividing x, so
   0 < g < d_i.  The members of the segment are multiples of d_i, so
   t + g is a member only if it reaches n_{i+1}, which fails for every
   member of the segment but its last.  So the test holds for the whole
   segment exactly when n_i is its only member and n_i + g is a member;
   and if n_i + g is a member it is at least n_{i+1}, so
   n_i + d_i > n_{i+1} and n_i is the only member.  This is the test
   "(segment << gcd(x, d_i)) & ~S == 0" over each gcd-drop segment,
   reduced to the segment's first member.

   The first link (m, m) never divides x, so g = gcd(x, m) < m must put
   m + g in S.  Members of S below 2m other than m are at least n_2, so
   g >= n_2 - m, and g divides m - x > 0, so x <= m - g <= 2m - n_2.
   With stage 1 the candidates lie in [ceil(m/2), min(m, F, 2m - n_2 + 1)).

3. The child's chain comes from the parent's.  The running gcd of T is
   x at x and gcd(x, d_t) at each member t >= m, and
   gcd(x, d_i) = gcd(gcd(x, d_{i-1}), d_i).  So T's links are (x, x)
   followed by the (n_i, gcd(x, d_i)) at which that value drops.

4. Layers need no sort.  The small elements of a child are its
   multiplicity x followed by those of its parent, so the next layer in
   ascending order of small-element lists is its children grouped by
   ascending x, each group in the order of their parents.

extension_is_saturated is the public reference for stage 2 (tests
compare the two); it scans the members between m(S) and m(S)+x, and the
walk no longer calls it.  special_gaps_from_msg and child_msg compute
the special gaps and the child's generators from minimal generators;
the walk does not call them either.
"""

from __future__ import annotations

import math
# Unused: the traced benchmark wraps this name to count pool starts
# (tree.pools_started).  Remove the import when the benchmark retires
# that metric.
from concurrent.futures import ProcessPoolExecutor
from typing import Iterator

from .errors import PreconditionViolated, ResidueClassMissing
from .extremal import min_genus
from .semigroup import NumericalSemigroup, ordinary

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

# a node's gcd-drop chain: the (n_i, d_i) links of the module docstring
_Chain = tuple[tuple[int, int], ...]


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


def _expand(
    frobenius: int, mask: int, chain: _Chain, groups: list[list[tuple[int, _Chain]]]
) -> None:
    """Append each child of one node, as (bitmap, chain), to the group of
    its multiplicity x; see the module docstring for stages 1-3.

    A chain is built link by link from the parent's, and its n_i must
    equal ``satsets._drops`` of the child's small elements.
    """
    m = chain[0][0] if chain else frobenius + 1
    n2 = chain[1][0] if len(chain) > 1 else frobenius + 1
    lo = (m + 1) // 2
    hi = min(m, frobenius, 2 * m - n2 + 1)
    if hi <= lo:
        return
    # the tail made explicit up to F+1+m, past every bit read below
    ext = mask | ((1 << m) - 1) << (frobenius + 2)
    cand = (ext >> m) & ((1 << hi) - (1 << lo))
    while cand:
        low = cand & -cand
        cand ^= low
        x = low.bit_length() - 1
        if not (ext >> (2 * x)) & 1:
            continue  # pseudo-Frobenius but not special
        for n, d in chain:
            g = math.gcd(x, d)
            if g != d and not (ext >> (n + g)) & 1:
                break
        else:
            links = [(x, x)]
            g = x
            for n, d in chain:
                h = math.gcd(g, d)
                if h < g:
                    links.append((n, h))
                    g = h
            groups[x].append((mask | low, tuple(links)))


def iter_layers(frobenius: int) -> Iterator[list[NumericalSemigroup]]:
    """Yield the tree layer by layer; layer k holds the members of genus F-k.

    Inside a layer, members come in ascending order of their small-element
    lists.
    """
    if frobenius < 1:
        raise ValueError("frobenius must be >= 1")
    layer = [(ordinary(frobenius + 1)._mask, ())]
    while layer:
        yield [NumericalSemigroup._raw(frobenius, mask) for mask, _ in layer]
        groups = [[] for _ in range(frobenius)]
        for mask, chain in layer:
            _expand(frobenius, mask, chain, groups)
        layer = [child for group in groups for child in group]


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

    Genus g occurs exactly for min_genus(F) <= g <= F, and the walk stops
    at depth F - g.
    """
    if frobenius < 1:
        raise ValueError("frobenius must be >= 1")
    if genus > frobenius or genus < min_genus(frobenius):
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
