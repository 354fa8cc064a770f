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
   be pseudo-Frobenius: 2x + s = x + (x + s).  As 2x cannot be a
   nonzero member below m, only x >= m/2 can be special.

   So the special candidates are one AND: each node carries ``doubles``,
   the bitmap of the y < F with 2y a member, and the candidates are
   (S >> m) & doubles.  At the root {0, F+1, ->} that bitmap is 0 and
   every y with 2y >= F+1, that is y >= ceil((F+1)/2).  A child
   T = S + {x} has the one member x more than S, so 2y is in T exactly
   when 2y is in S or 2y = x: doubles gains x/2 when x is even and
   nothing else.

2. Saturation is one bit test per link.  Let x be a special gap with
   x < m, and T = S + {x}.  T is saturated exactly when
   n_i + gcd(x, d_i) is a member of S for every link.  Proof: T is
   saturated when t + gcd(members of T up to t) lies in T for each
   nonzero member t.  For t = x that is 2x, a member of S.  For a member
   t >= m of S the gcd is g = gcd(x, d_t); when d_t divides x,
   g = d_t and t + d_t is in S because S is saturated (so a link with
   d_i dividing x passes).  A member t > F needs nothing, as
   t + g > F+1.  Otherwise t lies in a segment [n_i, n_{i+1}) with
   d_i = d_t not dividing x, so 0 < g < d_i.  The members of the segment
   are multiples of d_i, so t + g is a member only if it reaches
   n_{i+1}, which fails for every member of the segment but its last.
   So the test holds for the whole segment exactly when n_i is its only
   member and n_i + g is a member; and if n_i + g is a member it is at
   least n_{i+1}, so n_i + d_i > n_{i+1} and n_i is the only member.
   This is the test "(segment << gcd(x, d_i)) & ~S == 0" over each
   gcd-drop segment, reduced to the segment's first member.

   The first link (m, m) never divides x, so g = gcd(x, m) < m must put
   m + g in S.  Members of S below 2m other than m are at least n_2, so
   g >= n_2 - m, and g divides m - x > 0, so x <= m - g <= 2m - n_2.
   With stage 1 the candidates lie in [ceil(m/2), 2m - n_2 + 1), which
   ends at or below m since n_2 > m; the root has no link, and its
   candidates are [ceil((F+1)/2), F).

   The first link is decided for all candidates at once.  Let B be the
   set of proper divisors g of m with m + g in S; x passes exactly when
   gcd(x, m), a proper divisor of m as x < m, lies in B.  B is closed
   under multiples: if m + g is in S, then m + kg is in S for every
   k >= 1, by induction with the Arf property, as
   (m + (k-1)g) + (m + g) - m = m + kg.  So x passes exactly when some
   g in B divides x: gcd(x, m) is such a g, and any such g divides
   gcd(x, m), which is then a multiple of g in B.  The x that pass are
   therefore the union over g in B of the multiples of g, a bitmap that
   depends on B alone and not on m.  One walk keeps these unions in a
   table keyed by B, read off S as (S >> m) & (proper divisors of m),
   so a node's first link is one AND with a looked-up bitmap, and the
   loop visits only the x that pass it.

3. The child's chain comes from the parent's, in the same loop as the
   test.  The running gcd of T is x at x and gcd(x, d_t) at each member
   t >= m.  Since d_i divides d_{i-1}, gcd(x, d_i) =
   gcd(gcd(x, d_{i-1}), d_i), so h_0 = x and h_i = gcd(h_{i-1}, d_i)
   give h_i = gcd(x, d_i): the g that stage 2 tests at link i and the
   running gcd of T at n_i.  One pass over the parent's links therefore
   tests n_i + h_i in S and appends (n_i, h_i) to T's links, which
   start at (x, x), whenever h_i < h_{i-1}.

4. Layers need no sort.  The small elements of a child are its
   multiplicity x followed by those of its parent, so the next layer in
   ascending order of small-element lists is its children grouped by
   ascending x, each group in the order of their parents.  The kernel
   ``_expand`` takes a whole layer and returns the next one so.

extension_is_saturated is the public reference for stage 2 (tests
compare the two); it scans the members between m(S) and m(S)+x, and the
walk no longer calls it.  special_gaps_from_msg and child_msg compute
the special gaps and the child's generators from minimal generators;
the walk does not call them either.
"""

from __future__ import annotations

from itertools import islice
from math import gcd, isqrt
from typing import Iterator

from .errors import PreconditionViolated, ResidueClassMissing
from .extremal import min_genus
from .semigroup import NumericalSemigroup, _collector_paused, _multiples, ordinary

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
# a node: its bitmap, its chain, and the bitmap of the y with 2y a member
_Node = tuple[int, _Chain, int]


def __getattr__(name: str):
    # The walk starts no process pool.  This hook exists only so that the
    # traced benchmark finds tree.ProcessPoolExecutor and prints no
    # `absent` line: it rebinds names it finds in the module's dict, and
    # this one is never stored there, so tree.pools_started can no longer
    # count anything.  Importing concurrent.futures eagerly cost every
    # command about a third of its start-up, so the name is resolved only
    # when asked for.  Delete this hook when the benchmark retires that
    # metric (ROADMAP item 1).
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
        g = gcd(g, s)
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


class _FirstLink(dict):
    """One walk's first-link verdicts; see stage 2 of the module docstring.

    Maps B, a bitmap of divisors of some multiplicity, to the bitmap of
    the x < F that some g in B divides.  ``divs[m]`` (the proper divisors
    of m) is a bitmap filled on first use, so a walk pays only for the m
    it reaches: a shallow walk at huge F reaches few, where filling them
    all would take F^2 bits before the first layer.
    """

    def __init__(self, frobenius: int):
        super().__init__()
        self.frobenius = frobenius
        self.divs = [0] * (frobenius + 1)

    def divisors(self, m: int) -> int:
        """The bitmap of the divisors of m below m."""
        divs = 0
        for g in range(1, isqrt(m) + 1):
            if not m % g:
                divs |= 1 << g | 1 << m // g
        divs &= ~(1 << m)
        self.divs[m] = divs
        return divs

    def __missing__(self, b: int) -> int:
        key, passes = b, 0
        while b:
            g = b & -b
            b ^= g
            passes |= _multiples(g.bit_length() - 1, self.frobenius)
        self[key] = passes
        return passes


def _expand(frobenius: int, layer: list[_Node], table: _FirstLink) -> list[_Node]:
    """The layer below: the children of every node, grouped by their
    multiplicity x, each group in the order of the parents; see the
    module docstring for stages 1-4.

    A child's chain is built link by link from its parent's, and its n_i
    must equal ``semigroup._drops`` of the child's small elements.
    """
    top = frobenius + 1
    divs = table.divs
    groups = [[] for _ in range(frobenius)]
    for mask, chain, doubles in layer:
        if chain:
            m = chain[0][0]
            hi = 2 * m + 1 - (chain[1][0] if len(chain) > 1 else top)
        else:
            m, hi = top, frobenius
        lo = (m + 1) // 2
        if hi <= lo:
            continue
        # the tail made explicit up to F+1+m, past every bit read below
        ext = mask | ((1 << m) - 1) << (frobenius + 2)
        shifted = ext >> m
        cand = shifted & doubles & ((1 << hi) - (1 << lo))
        if chain:
            cand &= table[shifted & (divs[m] or table.divisors(m))]
        while cand:
            low = cand & -cand
            cand ^= low
            x = low.bit_length() - 1
            links = [(x, x)]
            h = x
            for n, d in chain:
                g = gcd(h, d)
                if not ext >> (n + g) & 1:
                    break
                if g < h:
                    links.append((n, g))
                    h = g
            else:
                child_doubles = doubles if x & 1 else doubles | 1 << (x >> 1)
                groups[x].append((mask | low, tuple(links), child_doubles))
    return [child for group in groups for child in group]


def _root(frobenius: int) -> _Node:
    # {0, F+1, ->} with no links; 2y is a member for y = 0 and y >= (F+1)/2
    doubles = 1 | (1 << frobenius) - (1 << (frobenius + 2) // 2)
    return ordinary(frobenius + 1)._mask, (), doubles


def _walk(frobenius: int) -> Iterator[list[_Node]]:
    # the layers of the tree as lists of nodes, in the order of iter_layers;
    # the CLI prints enumerate's and genus's records straight from the nodes
    if frobenius < 1:
        raise ValueError("frobenius must be >= 1")
    table = _FirstLink(frobenius)
    layer = [_root(frobenius)]
    while layer:
        yield layer
        layer = _expand(frobenius, layer, table)


def _genus_layer(frobenius: int, genus: int) -> list[_Node]:
    # the nodes of genus g: it occurs exactly for min_genus(F) <= g <= F,
    # as the layer at depth F - g, where the walk stops
    if frobenius < 1:
        raise ValueError("frobenius must be >= 1")
    if genus > frobenius or genus < min_genus(frobenius):
        return []
    return next(islice(_walk(frobenius), frobenius - genus, None), [])


def _members(frobenius: int, layer: list[_Node]) -> list[NumericalSemigroup]:
    # the layer's nodes as members, each built in place as
    # NumericalSemigroup._raw would: a call per member cost more than the walk
    members: list[NumericalSemigroup] = []
    new, append = object.__new__, members.append
    for mask, _, _ in layer:
        S = new(NumericalSemigroup)
        S.frobenius = frobenius
        S._mask = mask
        append(S)
    return members


def iter_layers(frobenius: int) -> Iterator[list[NumericalSemigroup]]:
    """Yield the tree layer by layer; layer k holds the members of genus F-k.

    Inside a layer, members come in ascending order of their small-element
    lists.
    """
    for layer in _walk(frobenius):
        yield _members(frobenius, layer)


def iter_sat(frobenius: int) -> Iterator[NumericalSemigroup]:
    """Stream every member of the family in canonical order."""
    for layer in iter_layers(frobenius):
        yield from layer


def enumerate_sat(frobenius: int) -> list[NumericalSemigroup]:
    """All saturated semigroups with the given Frobenius number.

    Layers come in increasing depth (decreasing genus); inside a layer,
    ascending by the list of small elements.  The cyclic collector is
    paused while the list is built, since a member holds two ints and joins
    no cycle; cyclic garbage made meanwhile by other threads waits
    until the call returns.
    """
    members: list[NumericalSemigroup] = []
    with _collector_paused():
        for layer in iter_layers(frobenius):
            members += layer
    return members


def enumerate_sat_genus(frobenius: int, genus: int) -> list[NumericalSemigroup]:
    """The members with the given genus; empty when the genus is unreachable.

    Genus g occurs exactly for min_genus(F) <= g <= F, as the walk's layer
    at depth F - g, whose nodes the CLI's ``genus`` prints unwrapped.  As
    in ``enumerate_sat``, the cyclic collector is paused while the layer
    is built, and cyclic garbage from other threads waits until it returns.
    """
    with _collector_paused():
        return _members(frobenius, _genus_layer(frobenius, genus))


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
