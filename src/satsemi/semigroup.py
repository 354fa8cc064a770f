"""Bounded numerical semigroups and their basic invariants.

A numerical semigroup is a subset of the nonnegative integers that is
closed under addition, contains 0, and misses only finitely many values.
Writing F for the largest missing value (the Frobenius number), the whole
set is determined by membership on 0..F+1, because every integer above
F+1 belongs automatically.  Instances store that window as a bitmap
packed into one int: membership is a shift and a mask, and set-level
operations run on machine words.

Every list of positions read off a bitmap comes from ``_set_bits``: the
bitmap's bits as 0/1 bytes, with which ``itertools.compress`` selects the
positions.  The CLI spells its printed lists from ``_set_bits`` for the
first record, then a byte of the bitmap at a time.  The windows
read are named once: ``_small_window`` for the nonzero members below F,
``_gap_window`` for the places a gap can sit.  Where a computation needs
members past F+1, ``_ext`` writes out that many bits of the implicit
tail.  Every bitmap of the multiples of a step comes from
``_multiples``, and every list of the gcd drops of the small elements
from ``_drops``; only the enumeration kernels keep incremental forms.
The list builders of the enumerations pause the cyclic collector with
``_collector_paused``.

The set of all nonnegative integers has no largest gap and is therefore
not representable; constructors reject it.
"""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager
from itertools import compress
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    FrobeniusViolated,
    GcdNotOne,
    NotAMember,
    NotClosed,
    NotRepresentable,
    WouldChangeFrobenius,
)

__all__ = ["AperyTable", "NumericalSemigroup", "ordinary"]


class AperyTable(NamedTuple):
    """Least member of each residue class modulo a fixed nonzero member.

    ``entries[i]`` is the smallest member congruent to i mod ``modulus``;
    subtracting the modulus from any entry leaves the semigroup.
    """

    modulus: int
    entries: tuple[int, ...]


class NumericalSemigroup:
    """A numerical semigroup, bounded by its Frobenius number.

    ``frobenius`` is the largest gap; ``x in S`` answers membership for
    any integer.  Instances are immutable and hashable.  Use
    :meth:`from_small_elements`, :meth:`from_generators` or
    :func:`ordinary` to build one.
    """

    __slots__ = ("frobenius", "_mask")

    def __init__(self, frobenius: int, mask: int):
        """Validate and store a membership bitmap over 0..frobenius+1.

        Raises FrobeniusViolated when bit ``frobenius`` is set and
        NotClosed when some representable sum of members is missing.
        """
        if frobenius < 1:
            raise NotRepresentable("a numerical semigroup here needs a gap, so frobenius >= 1")
        window = (1 << (frobenius + 2)) - 1
        if mask & ~window:
            raise ValueError("membership bitmap has bits above frobenius+1")
        if not mask & 1:
            raise ValueError("0 must be a member")
        if not (mask >> (frobenius + 1)) & 1:
            raise ValueError("frobenius+1 must be a member")
        if (mask >> frobenius) & 1:
            raise FrobeniusViolated(f"{frobenius} cannot be a member")
        # a sum a + b <= F + 1 has its smaller term a <= (F + 1) // 2
        half = (1 << ((frobenius + 1) // 2 + 1)) - 2
        body = mask & ~1
        for a in _set_bits(mask & half):
            missing = (body << a) & window & ~mask
            if missing:
                s = (missing & -missing).bit_length() - 1
                raise NotClosed(f"{a} + {s - a} = {s} is missing")
        self.frobenius = frobenius
        self._mask = mask

    @classmethod
    def _raw(cls, frobenius: int, mask: int) -> "NumericalSemigroup":
        # trusted path for values already known valid; rank_enum._grow's
        # leaf loop and tree._members inline copies, so keep the three alike
        self = object.__new__(cls)
        self.frobenius = frobenius
        self._mask = mask
        return self

    @classmethod
    def from_small_elements(cls, frobenius: int, small: Iterable[int]) -> "NumericalSemigroup":
        """Build {0} union ``small`` union {frobenius+1, ->}.

        Every listed element must satisfy 0 < s < frobenius; listing the
        Frobenius number itself raises FrobeniusViolated, and a candidate
        set that is not additively closed raises NotClosed.
        """
        if frobenius < 1:
            raise NotRepresentable("frobenius must be >= 1")
        mask = 1 | (1 << (frobenius + 1))
        for s in small:
            if s == frobenius:
                raise FrobeniusViolated(f"{s} is the designated Frobenius number")
            if not 0 < s < frobenius:
                raise ValueError(f"small element {s} outside 1..{frobenius - 1}")
            mask |= 1 << s
        return cls(frobenius, mask)

    @classmethod
    def from_generators(cls, gens: Iterable[int]) -> "NumericalSemigroup":
        """Build the semigroup of all sums of the generators.

        The generators must be positive with overall gcd 1 (GcdNotOne
        otherwise); a generator 1 yields all of N, which is rejected as
        NotRepresentable.  The true Frobenius number is computed.
        """
        gs = sorted(set(gens))
        if not gs or gs[0] < 1:
            raise ValueError("generators must be positive integers")
        if math.gcd(*gs) != 1:
            raise GcdNotOne(f"gcd{tuple(gs)} != 1")
        if gs[0] == 1:
            raise NotRepresentable("1 generates all of N")
        # Schur's bound F <= (m - 1)(g_max - 1) - 1 < m * g_max: every
        # value from F+1 up to the window's top is a member, so the window's
        # highest missing value is F
        top = gs[0] * gs[-1]
        window = (1 << (top + 1)) - 1
        reach = 1
        for g in gs:
            # after the steps g, 2g, .., 2^k g every sum has gained up to
            # 2^(k+1) - 1 copies of g; a step past the top adds nothing
            step = g
            while step <= top:
                reach |= (reach << step) & window
                step *= 2
        frobenius = (~reach & window).bit_length() - 1
        return cls(frobenius, reach & ((1 << (frobenius + 2)) - 1))

    # -- membership and counting ------------------------------------------

    def __contains__(self, x: int) -> bool:
        if not isinstance(x, int) or x < 0:
            return False
        if x > self.frobenius + 1:
            return True
        return (self._mask >> x) & 1 == 1

    def members_up_to(self, bound: int) -> Iterator[int]:
        """Yield every member s with 0 <= s <= bound, ascending."""
        top = min(bound, self.frobenius + 1)
        if top >= 0:
            yield from _set_bits(self._mask & ((1 << (top + 1)) - 1))
        yield from range(self.frobenius + 2, bound + 1)

    @property
    def multiplicity(self) -> int:
        """Least nonzero member."""
        body = self._mask & ~1
        return (body & -body).bit_length() - 1

    @property
    def small_count(self) -> int:
        """Number of members strictly below the Frobenius number, 0 included."""
        return (self._mask & ((1 << self.frobenius) - 1)).bit_count()

    @property
    def genus(self) -> int:
        """Number of gaps."""
        return self.frobenius + 1 - self.small_count

    @property
    def embedding_dimension(self) -> int:
        """Size of the minimal generating set."""
        return len(self.minimal_generators())

    def nonzero_small_elements(self) -> tuple[int, ...]:
        """Members strictly between 0 and the Frobenius number, ascending."""
        return tuple(_set_bits(self._mask & _small_window(self.frobenius)))

    def gaps(self) -> tuple[int, ...]:
        """The finitely many nonmembers, ascending."""
        return tuple(_set_bits(~self._mask & _gap_window(self.frobenius)))

    # -- generators and Apery structure -----------------------------------

    def minimal_generators(self) -> tuple[int, ...]:
        """The unique minimal generating set, ascending.

        A nonzero member is a minimal generator exactly when it is not a
        sum of two nonzero members.  No generator exceeds 2F+1: from 2F+2
        on, every value splits as (F+1) plus another member.
        """
        F = self.frobenius
        # a sum up to 2F+1 has a term below F, since F is a gap
        body = _ext(F, self._mask, F) & ~1
        sums = 0
        for a in _set_bits(self._mask & _small_window(F)):
            sums |= body << a
        return tuple(_set_bits(body & ~sums))

    def apery(self, n: int) -> AperyTable:
        """Least member of each residue class mod n, for a nonzero member n."""
        if n <= 0 or n not in self:
            raise NotAMember(f"{n} is not a nonzero member")
        entries = [0] * n
        for w in _set_bits(_apery_mask(self.frobenius, self._mask, n)):
            entries[w % n] = w
        return AperyTable(n, tuple(entries))

    def pseudo_frobenius(self) -> tuple[int, ...]:
        """Gaps z with z + s a member for every nonzero member s, ascending.

        Computed from that definition on the bitmap: start from all gaps
        and, for each nonzero member s below F, keep the z with z + s a
        member.  A member s >= F+1 constrains nothing, since z + s >= F+2
        is always a member.
        """
        F = self.frobenius
        ext = _ext(F, self._mask, F)
        pf = ~self._mask & _gap_window(F)
        for s in _set_bits(self._mask & _small_window(F)):
            pf &= ext >> s
        return tuple(_set_bits(pf))

    def special_gaps(self) -> tuple[int, ...]:
        """Gaps whose adjunction leaves a numerical semigroup, ascending.

        These are the pseudo-Frobenius numbers whose double is a member.
        """
        return tuple(x for x in self.pseudo_frobenius() if 2 * x in self)

    def gcd_up_to(self, s: int) -> int:
        """gcd of all members <= s; s itself must be a nonzero member."""
        if s <= 0 or s not in self:
            raise NotAMember(f"{s} is not a nonzero member")
        F = self.frobenius
        if s >= F + 2:
            return 1  # the prefix contains the consecutive pair F+1, F+2
        # the running gcd changes only at its drops, so theirs is the gcd
        # of every member up to s; F+1 lies past the small window
        drops = _drops(F, self._mask & _small_window(F) & ((2 << s) - 1))
        return math.gcd(*drops, F + 1) if s > F else math.gcd(*drops)

    # -- predicates --------------------------------------------------------

    def is_saturated(self) -> bool:
        """True when s + gcd_up_to(s) is a member for every nonzero member s.

        Members above the Frobenius number need no check: their prefix gcd
        is 1 and the successor is always present.  The members between two
        drops of the prefix gcd share it, so each segment [n_i, n_{i+1})
        between consecutive drops that ``_drops`` reads (the last segment
        ending at F) is tested with one shift by its gcd.
        """
        return _saturated_drops(self.frobenius, self._mask) is not None

    def is_med(self) -> bool:
        """True when the embedding dimension equals the multiplicity."""
        return len(self.minimal_generators()) == self.multiplicity

    def issubset(self, other: "NumericalSemigroup") -> bool:
        bound = max(self.frobenius, other.frobenius)
        return self._filled(bound) & ~other._filled(bound) == 0

    # -- derived semigroups -------------------------------------------------

    def _filled(self, frobenius: int) -> int:
        # bitmap over 0..frobenius+1, for frobenius >= self.frobenius
        return _ext(self.frobenius, self._mask, frobenius - self.frobenius)

    def intersect(self, other: "NumericalSemigroup") -> "NumericalSemigroup":
        """Set intersection; its Frobenius number is the larger of the two."""
        frobenius = max(self.frobenius, other.frobenius)
        return NumericalSemigroup._raw(
            frobenius, self._filled(frobenius) & other._filled(frobenius)
        )

    def remove_multiplicity(self) -> "NumericalSemigroup":
        """Drop the least nonzero member.

        The ordinary semigroup {0, F+1, ->} has only F+1 to drop, which
        would change the Frobenius number; that raises WouldChangeFrobenius.
        """
        m = self.multiplicity
        if m == self.frobenius + 1:
            raise WouldChangeFrobenius(
                "removing the multiplicity of {0, F+1, ->} changes the Frobenius number"
            )
        return NumericalSemigroup._raw(self.frobenius, self._mask & ~(1 << m))

    def adjoin(self, x: int) -> "NumericalSemigroup":
        """Return the semigroup with the gap x added.

        x must be a gap below the Frobenius number whose adjunction keeps
        the set closed (a special gap); otherwise NotClosed is raised.
        """
        if not 0 < x < self.frobenius or x in self:
            raise ValueError(f"{x} is not a gap below the Frobenius number")
        return NumericalSemigroup(self.frobenius, self._mask | (1 << x))

    # -- canonical external forms -------------------------------------------

    def canonical_text(self) -> str:
        """Generator form, e.g. "<2,9> | F=7" with angle brackets."""
        gens = ",".join(map(str, self.minimal_generators()))
        return f"⟨{gens}⟩ | F={self.frobenius}"

    def canonical_json(self) -> dict:
        """The shared JSON object: frobenius, small_elements, msg, genus, multiplicity."""
        return {
            "frobenius": self.frobenius,
            "small_elements": list(self.nonzero_small_elements()),
            "msg": list(self.minimal_generators()),
            "genus": self.genus,
            "multiplicity": self.multiplicity,
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self.frobenius == other.frobenius and self._mask == other._mask

    def __hash__(self) -> int:
        return hash((self.frobenius, self._mask))

    def __repr__(self) -> str:
        small = ",".join(map(str, self.nonzero_small_elements()))
        return f"NumericalSemigroup(F={self.frobenius}, small=[{small}])"


def ordinary(conductor: int) -> NumericalSemigroup:
    """The semigroup {0, conductor, conductor+1, ...}.

    It is saturated, and it is the least saturated semigroup with
    Frobenius number conductor-1.
    """
    if conductor < 0:
        raise ValueError("conductor must be nonnegative")
    if conductor < 2:
        raise NotRepresentable(f"{{0, {conductor}, ->}} is all of N")
    return NumericalSemigroup._raw(conductor - 1, 1 | (1 << conductor))


def _small_window(frobenius: int) -> int:
    # bits 1..F-1: where the nonzero small elements sit
    return (1 << frobenius) - 2


def _gap_window(frobenius: int) -> int:
    # bits 1..F: where the gaps sit
    return (1 << (frobenius + 1)) - 2


def _ext(frobenius: int, mask: int, k: int) -> int:
    # the bitmap with the implicit tail written out for k bits past F+1
    return mask | ((1 << k) - 1) << (frobenius + 2)


def _multiples(g: int, stop: int) -> int:
    # the bitmap of the positive multiples of g below stop, for g >= 1, by
    # shift-or doubling as in from_generators: the run of the first k of
    # the n terms doubles while 2k < n, and then one shift by n - k <= k
    # lays the last n - k terms over its top
    run, k, n = 1 << g, 1, (stop - 1) // g
    while 2 * k < n:
        run |= run << k * g
        k *= 2
    return run | run << (n - k) * g if n > 0 else 0


def _drops(frobenius: int, small: int) -> list[int]:
    """The positions, ascending, at which the running gcd of the set bits
    of ``small`` drops; its bits must lie in 1..F-1.

    The lowest set bit n is the next drop.  With g = gcd(g, n), no
    multiple of g drops the gcd again, since the gcd only shrinks to
    divisors of g; so those bits are cleared, and the lowest one left is
    the next drop.  One ``_multiples`` per drop: the rank, not the number
    of small elements, sets the cost.
    """
    picks = []
    g = 0
    while small:
        n = (small & -small).bit_length() - 1
        picks.append(n)
        g = math.gcd(g, n)
        small &= ~_multiples(g, frobenius)
    return picks


def _saturated_drops(frobenius: int, mask: int) -> list[int] | None:
    # the gcd drops of a membership bitmap's small elements if it is
    # saturated, else None; NumericalSemigroup.is_saturated has the proof
    window = (1 << (frobenius + 2)) - 1
    ns = _drops(frobenius, mask & _small_window(frobenius))
    g = 0
    for n, stop in zip(ns, (*ns[1:], frobenius)):
        g = math.gcd(g, n)
        if ((mask & ((1 << stop) - (1 << n))) << g) & window & ~mask:
            return None
    return ns


@contextmanager
def _collector_paused() -> Iterator[None]:
    # The cyclic collector paused while a list of members is built, and
    # re-enabled after only if it was on: a member holds two ints and joins
    # no cycle, yet each collection walks the members built so far.  Never
    # wrap a generator's body, or its caller would run between items with
    # the collector off.
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _apery_mask(frobenius: int, mask: int, n: int) -> int:
    # the Apery set of the nonzero member n as a bitmap: the members w
    # with w - n not a member; each is at most F + n
    ext = _ext(frobenius, mask, n)
    return ext & ~(ext << n)


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _set_bits(mask: int) -> list[int]:
    # positions of the set bits of a nonnegative int, ascending: its bits,
    # lowest first, as 0/1 bytes up to its highest set bit select them
    bits = format(mask, "b")[::-1].encode().translate(_BIT_BYTES)
    return list(compress(range(len(bits)), bits))
