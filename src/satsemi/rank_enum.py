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
forces n1 = d1 and then each t_i = (n_i - n_{i-1}) / d_i.  Its small
elements follow from the minimal system as the progressions
n_i, n_i + d_i, .. below n_{i+1}, the last one running below F.

``enumerate_rank`` does not list witnesses.  It searches the minimal
systems directly, depth first.  A state is the last generator n placed
and its prefix gcd d (the root is n = d = 0, with gcd(0, n1) = n1).  The
next generator is any n' with n < n' < F and d not dividing n', and the
state becomes (n', gcd(d, n')).  This is the t1 = 1 witness restated:
since d | n, gcd(d, n') = d' exactly when t' = (n' - n) / d' is coprime
to d / d'.  After p generators the state is a member iff its d does not
divide F.

No branch is dead.  Whether a state (n, h) with r generators left can be
completed depends on n only through a bound: it can iff n < bound_r(h).
With none left, bound_0(h) is F if h does not divide F and 0 if it does.
For r >= 1, bound_r(h) is the top bit of nxt[r][h] (none if it is
empty), the bitmap of the n' < F with h not dividing n' and
n' < bound_{r-1}(gcd(h, n')).  The search only ever steps to a bit of
that table, so every state it enters reaches a member.

The table is built from multiples alone, because bounds only grow along
divisibility: if h | h', every continuation of (n, h) also continues
(n, h').  (By induction on r: h not dividing n'' implies h' does not
either, and gcd(h, n'') divides gcd(h', n'').)  So bound_r(h) <=
bound_r(h').  Now an n' with gcd(d, n') = h is a multiple of every
divisor g of h.  Hence n' lies in the OR, over the divisors 1 < g < d
of d, of the multiples of g below bound_{r-1}(g), exactly when n' is
below bound_{r-1}(h) (for h = 1 never, and nothing completes from a
gcd of 1).  Removing the multiples of d leaves nxt[r][d].  Each row is
built as a sieve: every g cuts its multiples below bound_{r-1}(g) once
and ORs them into each proper multiple d = 2g, 3g, .. below F, so no
divisor lists are kept.

The search comes out in canonical order, ascending by small elements,
with no sort.  Take two siblings, continued with next generators
a' < b'.  They share the small elements up to the progression of n
below a'.  Through a', the next small element is a'.  Through b', it is
the next term of the progression or b', and both exceed a': a' is not a
term, since d | n and d does not divide a'.  So every member through a'
sorts before every member through b', and trying n' in ascending order
is canonical.  For the same reason, stopping at n (running its
progression to F) sorts after every continuation, so a search that may
also stop early tries "stop" last; with the rank fixed, a branch stops
only after its p-th generator.

The last level costs one OR per member.  Take a leaf-parent state (n, d)
with mask holding the small elements below n, and a last generator m
with g = gcd(d, m).  The member is mask, the progression of d from n
below m, and the multiples of g from m below F.  As g divides d, every
multiple of d from m on is a multiple of g from m on, so the cut at m
can be dropped: the member is base | tail, with base = mask | (the
multiples of d from n up) computed once per state, and tail = (the
multiples of g from m up) depending on (d, m) alone.  From rank 3 on
the tails are kept per d, because a few prefix gcds serve every state
(at F = 199, p = 3, 45 of them serve 39,919 members), and kept across
calls at the same F, since a tail depends on F and d alone.  Below
rank 3 nothing would be shared: at p = 1 the root is the only leaf
parent, and at p = 2 each leaf parent (n1, n1) has its own d, so
keeping the tails would only hold memory.

The tables are built once per F and shared by every p.  ``mult`` and
the sieve rows depend on F alone (row r is the same whatever p asks
for it); only the first-generator row depends on p, as it reads the
bounds of row p - 1.  So the module keeps one ``_Tables`` for the last
F asked: ``mult``, the sieve rows grown to the largest p asked, and the
rank >= 3 tails.  Stratifying a family by rank, p = 1..5, then builds
``mult`` once and four sieve rows, where a build per call would take
five ``mult`` and ten rows.  A call at another F replaces the object
whole, so at most one F's tables stay alive after a call returns: by
tracemalloc, 0.29 MB at F = 199 (p <= 8), 1.41 MB at F = 500 (p <= 4)
and 1.0 MB at F = 2000 (p <= 2).  ``mult`` and each row take about F^2
bits, so even a single call at a large F keeps them until a call at
another F: 44.5 MB after ``enumerate_rank(20000, 1)``.  Threads may
share the tables: rows are grown into a new list in a new object, which
is then published whole, so no caller reads a half-grown list, and a
tails entry is added in place, as its value depends on d alone.

So the search yields one block per leaf-parent state, not one item per
member: its base, the generators n1..n(p-1) on its path, and the last
generators and tails that complete it.  ``enumerate_rank`` lists the
bitmaps of the blocks' members and passes them to ``semigroup._members``,
the library's one list builder.  ``_rank_records`` turns the blocks into
the CLI's records as they come, each with its minimal system read off
the path, so ``rank`` streams and never re-derives a minimal system.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import islice
from typing import Iterable, Iterator, Sequence

from .errors import NotASatSequence
from .extremal import least_non_divisor
from .satsets import closure
from .semigroup import (
    NumericalSemigroup,
    _collector_paused,
    _members,
    _multiples,
    _set_bits,
    ordinary,
)

__all__ = [
    "is_sat_sequence",
    "list_sequences",
    "feasible_rank",
    "coefficient_tuples",
    "witness_generators",
    "witness_to_semigroup",
    "enumerate_rank",
]

# a leaf block of the rank search: (base, gens, ms, ts, k), see _grow
_Block = tuple[int, tuple[int, ...], list[int], list[int], int]


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
    if not feasible_rank(frobenius, length):
        return []
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
    of F; rank 0 (the ordinary semigroup) always exists.  As a >= 2, no
    p beyond the bit length of F passes, and such a p is refused before
    2**p is built.
    """
    if frobenius < 1 or p < 0:
        raise ValueError("need frobenius >= 1 and p >= 0")
    if p == 0:
        return True
    if p > frobenius.bit_length():
        return False
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

    A depth-first search over minimal systems n1 < .. < np, trying the
    next generator in ascending order from the sieve rows of
    ``_next_rows`` and ``_first_row``, so that every branch it enters ends
    in a member and the members come out in canonical order (see the
    module docstring).  The list is built from the search's leaf blocks
    (``_leaf_blocks``): each member's bitmap is one OR of its block's base
    and a tail shared by every state with the same prefix gcd, and
    ``semigroup._members`` makes the bitmaps members.  The tables are kept
    for the last F asked, so calls at one F for several p build them once;
    the first call at another F frees them.  The cyclic collector is
    paused while the search runs and the list is built, since a member
    holds two ints and joins no cycle; cyclic garbage made meanwhile by
    other threads waits until the call returns.
    """
    if frobenius < 1 or p < 0:
        raise ValueError("need frobenius >= 1 and p >= 0")
    if p == 0:
        return [ordinary(frobenius + 1)]
    with _collector_paused():
        # a list, not a generator: feeding _members a generator was slower
        masks = [
            base | t
            for base, _, _, ts, k in _leaf_blocks(frobenius, p)
            for t in islice(ts, k, None)
        ]
        return _members(frobenius, masks)


def _rank_records(frobenius: int, p: int) -> Iterable[tuple[int, list[int]]]:
    # the CLI's records of rank p, each member's bitmap and minimal system,
    # a leaf block at a time as the search finds it: the minimal system is
    # the block's path and the last generator m.  _leaf_blocks takes its
    # tables at the call, so an F too large to represent fails before any
    # output.  Rank 0 is the ordinary semigroup
    if p == 0:
        return [(ordinary(frobenius + 1)._mask, [])]
    return (
        (base | t, [*gens, m])
        for base, gens, ms, ts, k in _leaf_blocks(frobenius, p)
        for m, t in islice(zip(ms, ts), k, None)
    )


class _Tables:
    """The rank search's tables at one F, shared by every p (see the
    module docstring): ``mult[g]``, the multiples of g in g..F-1 from
    ``_multiples`` (``mult[0]`` is empty, so the root state (n, d) = (0, 0)
    lays no progression and gcd(0, n1) = n1); the sieve rows ``rows[r]``
    of ``_next_rows`` for 1 <= r < len(rows); and the rank >= 3 tails of
    ``_last_progressions`` per prefix gcd d.
    """

    def __init__(
        self,
        frobenius: int,
        mult: list[int],
        rows: list[list[int]],
        tails: dict[int, tuple[list[int], list[int]]],
    ) -> None:
        self.frobenius = frobenius
        self.mult = mult
        self.rows = rows
        self.tails = tails


# the tables of the last F asked, replaced whole and never changed in
# place apart from a new tails entry (see _leaf_blocks)
_tables: _Tables | None = None


def _leaf_blocks(frobenius: int, p: int) -> Iterator[_Block]:
    """The leaf blocks of the rank-p search, p >= 1, in canonical order;
    none when p is infeasible.  See ``_grow`` for a block.

    The tables are taken from the last call when it was at the same F,
    grown when it asked for a smaller p, and built here otherwise, before
    the first block is asked for, so an F too large to represent fails at
    the call and leaves the kept tables as they were.  Only the row of
    first generators is built for every call.
    """
    global _tables
    if not feasible_rank(frobenius, p):
        return iter(())
    # the root bitmap comes first: at an F too large to represent it fails
    # at once, before the tables below take F^2 bits
    root = 1 | (1 << (frobenius + 1))
    tables = _tables
    if tables is None or tables.frobenius != frobenius:
        mult = [0] + [_multiples(g, frobenius) for g in range(1, frobenius)]
        tables = _Tables(frobenius, mult, [[]], {})
    if len(tables.rows) < p:
        rows = _next_rows(frobenius, tables.mult, tables.rows, p)
        tables = _Tables(frobenius, tables.mult, rows, tables.tails)
    _tables = tables
    rows = tables.rows[:p]
    rows.append([_first_row(frobenius, rows[-1])])
    # from rank 3 on a few prefix gcds serve every leaf-parent state, so
    # their last progressions are kept; below that each state has its own
    tails = tables.tails if p >= 3 else None
    return _grow(rows, tables.mult, tails, root, p)


def _bounds(frobenius: int, row: list[int]) -> list[int]:
    # bound[d]: a state (n, d) with r generators left can be completed iff
    # n < bound[d], read off row r; with none left (row is the empty
    # rows[0]) iff d does not divide F
    if not row:
        return [frobenius if d and frobenius % d else 0 for d in range(frobenius)]
    return [nexts.bit_length() - 1 for nexts in row]


def _next_rows(
    frobenius: int, mult: list[int], rows: list[list[int]], p: int
) -> list[list[int]]:
    """A new list: ``rows`` followed by the sieve rows up to rows[p - 1].

    rows[r][d], for 1 <= r and 1 <= d < F, is the bitmap of the next
    generators n' < F a state with prefix gcd d can take when r
    generators remain, n' among them: d does not divide n', and the state
    (n', gcd(d, n')) can still be completed with r - 1 more.  rows[0] is
    empty.  Each row is sieved from the bounds of the row before (see the
    module docstring), so row r does not depend on p.
    """
    F = frobenius
    rows = list(rows)
    bound = _bounds(F, rows[-1])
    while len(rows) < p:
        # sieve: each g ORs its multiples below bound[g] into every proper
        # multiple d of g, which keeps exactly the n' below
        # bound[gcd(d, n')] (see the module docstring)
        acc = [0] * F
        for g in range(2, F):
            b = bound[g]
            if b > g:
                cut = mult[g] & ((1 << b) - 1)
                for d in range(2 * g, F, g):
                    acc[d] |= cut
        row = [a & ~m for a, m in zip(acc, mult)]
        rows.append(row)
        bound = _bounds(F, row)
    return rows


def _first_row(frobenius: int, row: list[int]) -> int:
    """The bitmap of the first generators of a search with p generators,
    given row = rows[p - 1]: the n1 > 1 whose state (n1, n1) can be
    completed with p - 1 more.  It reads no ``mult``.
    """
    bound = _bounds(frobenius, row)
    # one binary numeral, digit d for d = F-1 down to 0: linear in F,
    # where adding F shifted ints is quadratic
    digits = ["1" if 1 < d < bound[d] else "0" for d in range(frobenius - 1, -1, -1)]
    return int("".join(digits), 2)


def _grow(
    rows: list[list[int]],
    mult: list[int],
    tails: dict[int, tuple[list[int], list[int]]] | None,
    root: int,
    p: int,
) -> Iterator[_Block]:
    """Search the states from the root, depth first and in order, and
    yield one block per leaf-parent state.

    A state is (n, d, mask, r, gens): the last generator n and the prefix
    gcd d, the small elements below n in mask, r generators left to place
    and the generators gens placed so far; the root is (0, 0, root, p, ()).
    The next generators of a state with r left are read from
    ``rows[r][d]``: the sieve rows for r < p, and at the root
    ``rows[p] = [the first row]``.  The states wait on a stack, the
    children of a state pushed in descending order so that the least
    comes off first.  A member's bitmap is built progression by
    progression as the search descends, each cut from ``mult[d]``, the
    ``_multiples`` of d below F: below n by a shift down and up, as
    ``satsets._fill`` cuts it, and below the next
    generator by a mask.  It must equal ``_fill`` of its minimal system.

    A leaf-parent state (r = 1) yields the block ``(base, gens, ms, ts,
    k)``: its members are ``base | ts[i]`` with minimal system
    ``(*gens, ms[i])`` for i >= k, the last generators ``ms`` and their
    tails ``ts`` from ``_last_progressions``, read from ``tails`` when it
    is a dict (see the module docstring).  One yield per state, not per
    member, keeps the leaf loop in the caller.
    """
    stack = [(0, 0, root, p, ())]
    while stack:
        n, d, mask, r, gens = stack.pop()
        step = mult[d] >> n << n
        if r > 1:
            nexts = _set_bits(rows[r][d] >> (n + 1) << (n + 1))
            stack += [
                (m, math.gcd(d, m), mask | (step & ((1 << m) - 1)), r - 1, (*gens, m))
                for m in reversed(nexts)
            ]
            continue
        if tails is None:
            ms, ts = _last_progressions(rows[1][d], mult, d)
        elif d in tails:
            ms, ts = tails[d]
        else:
            ms, ts = tails[d] = _last_progressions(rows[1][d], mult, d)
        yield mask | step, gens, ms, ts, bisect_right(ms, n)


def _last_progressions(
    nexts: int, mult: list[int], d: int
) -> tuple[list[int], list[int]]:
    """The last generators m > d of a leaf-parent state with prefix gcd d,
    ascending, and the last progression ``mult[gcd(d, m)] >> m << m`` of
    each; at the root (d = 0) that is ``mult[m]``, as gcd(0, m) = m.
    """
    ms = _set_bits(nexts >> (d + 1) << (d + 1))
    return ms, [mult[math.gcd(d, m)] >> m << m for m in ms]
