"""Exhaustive ground truth at small Frobenius numbers.

Every subset of {1..F-1} is tested literally against the definitions:
additive closure of {0} | T | {F+1, ->} first, then saturation in three
equivalent formulations that must agree with each other.  The predicates
here work on raw bitmaps and deliberately share no code with the fast
modules they are used to validate.

The closure test is bit-sliced (Biham, FSE 1997): it decides all
N = 2**(F-1) subsets at once.  Lane b of an N-bit int stands for the
subset T_b = {i : bit i-1 of b is set}, and ``X[i]`` has lane b set iff
i is in T_b, for 1 <= i <= F-1, while ``X[F] = 0`` since F is never in
the set.  One ``&`` or ``|`` then decides a pair condition for every
subset, and the non-closed lanes are

    bad = OR over 1 <= a <= b, a + b <= F of X[a] & X[b] & ~X[a+b].

This is the literal test.  {0} | T | {F+1, ->} fails to be closed iff
some a, b >= 1 in the set have a + b <= F+1 missing (larger sums are
present).  F is absent, so a, b <= F-1 lie in T; F+1 is present, so
a + b <= F.  The condition is symmetric in a and b, so a <= b suffices.

Saturation is sliced the same way, but over the closed subsets only.
``Y[v]`` has lane k set iff v is in the k-th closed mask, for
0 <= v <= F+1 (a transpose of the masks' binary strings), and every value
above F+1 is present in every lane.  At F=20 that is 900 lanes against
2**19: each saturation step is one ``&`` per gcd class, and running those
over every subset, closed or not, was about six times slower in a trial.

The prefix gcd is tracked per lane by classes: a dict maps g to the lanes
whose members below s have gcd g, with g = 0 while there is none.  At
each s the lanes holding s move from class g to class gcd(g, s), and no
lane moves otherwise, since a lane's prefix gcd changes only when a
member joins the prefix, and then to gcd(g, s).  That class divides g,
so the gcd only ever drops, and it divides s, so a class that receives
lanes at s does not itself move at s.  Each step is (s, g, lanes), the
lanes holding s with prefix gcd g up to s, and each formulation of
saturation reads these steps against ``Y`` and returns its failing
lanes:

- the definition: s >= 1 with s + g missing;
- over all members, 0 included: the zero step asks for 0 + gcd{0} = 0;
- every multiple: s >= 1 with some s + k*g <= F+1, k >= 1, missing.

Any lane on which the three disagree raises AssertionError.
"""

from __future__ import annotations

import math

from .errors import TooLarge
from .extremal import maximal_elements, min_genus
from .rank_enum import enumerate_rank, feasible_rank
from .satsets import closure, minimal_system
from .semigroup import NumericalSemigroup
from .tree import enumerate_sat, enumerate_sat_genus

__all__ = ["BRUTE_FORCE_LIMIT", "Report", "brute_force_sat", "check_all"]

BRUTE_FORCE_LIMIT = 20


def _closed_masks(frobenius: int) -> list[int]:
    """The additively closed subset bitmaps at this F, by ascending subset."""
    lanes = 1 << (frobenius - 1)
    full = (1 << lanes) - 1
    X = [full] * (frobenius + 1)
    X[frobenius] = 0
    for i in range(1, frobenius):
        # period 2w: w clear lanes, then w set lanes; doubled out to N lanes
        w = 1 << (i - 1)
        v, span = ((1 << w) - 1) << w, 2 * w
        while span < lanes:
            v |= v << span
            span *= 2
        X[i] = v
    absent = [full ^ x for x in X]
    bad = 0
    for a in range(1, frobenius // 2 + 1):
        hit = 0
        for b in range(a, frobenius - a + 1):
            hit |= X[b] & absent[a + b]
        bad |= X[a] & hit
    # lane b is character b of the reversed binary string
    lane_bits = bin(full ^ bad)[:1:-1]
    base = 1 | (1 << (frobenius + 1))
    out = []
    b = lane_bits.find("1")
    while b >= 0:
        out.append(base | (b << 1))
        b = lane_bits.find("1", b + 1)
    return out


def _lanes(masks: list[int], frobenius: int) -> list[int]:
    # the transpose: lane k of Y[v] is bit v of masks[k], for v = 0..F+1;
    # column j of the last mask first is Y[F+1-j] spelled high lane first
    width = f"0{frobenius + 2}b"
    columns = zip(*[format(m, width) for m in reversed(masks)])
    Y = [int("".join(c), 2) for c in columns]
    Y.reverse()
    return Y


def _gcd_steps(Y: list[int], frobenius: int, everyone: int):
    """Yield (s, g, lanes) for s = 0..F+1: the lanes holding s, split by g,
    the gcd of their members up to s (the gcd of {0} is 0)."""
    classes = {0: everyone}
    for s in range(frobenius + 2):
        held = Y[s]
        for g, lanes in list(classes.items()):
            here = lanes & held
            if here:
                h = math.gcd(g, s)
                yield s, h, here
                if h != g:
                    # h divides s, so class h itself does not move at this s
                    classes[h] = classes.get(h, 0) | here
                    if lanes == here:
                        del classes[g]
                    else:
                        classes[g] = lanes ^ here


def _failing_definition(Y, frobenius, steps) -> int:
    # a nonzero member s whose s + gcd(members <= s) is missing
    fail = 0
    for s, g, lanes in steps:
        if s:
            fail |= lanes & ~Y[s + g]
    return fail


def _failing_with_zero(Y, frobenius, steps) -> int:
    # the same over all members; the zero term asks for 0 + gcd{0} = 0
    fail = 0
    for s, g, lanes in steps:
        fail |= lanes & ~Y[s + g]
    return fail


def _failing_multiples(Y, frobenius, steps) -> int:
    # a missing s + k * gcd(members <= s), k >= 1, up to F+1
    fail = 0
    for s, g, lanes in steps:
        if s:
            for v in range(s + g, frobenius + 2, g):
                fail |= lanes & ~Y[v]
    return fail


def refuse_above_limit(frobenius: int) -> None:
    """Raise TooLarge when the subset search at this F is not practical."""
    if frobenius > BRUTE_FORCE_LIMIT:
        raise TooLarge(f"subset search above F={BRUTE_FORCE_LIMIT} is not practical")


def brute_force_sat(frobenius: int) -> list[NumericalSemigroup]:
    """Every saturated semigroup with this Frobenius number, by subset search.

    Candidates are the 2**(F-1) subsets of {1..F-1}, all tested for
    closure at once, and the closed ones for saturation at once (see the
    module docstring); above F=20 the search is refused (TooLarge).
    """
    if frobenius < 1:
        raise ValueError("frobenius must be >= 1")
    refuse_above_limit(frobenius)
    masks = _closed_masks(frobenius)
    everyone = (1 << len(masks)) - 1
    # members above F+1 are present in every lane
    Y = _lanes(masks, frobenius) + [everyone] * (frobenius + 1)
    steps = list(_gcd_steps(Y, frobenius, everyone))
    fails = [
        test(Y, frobenius, steps)
        for test in (_failing_definition, _failing_with_zero, _failing_multiples)
    ]
    split = (fails[0] ^ fails[1]) | (fails[1] ^ fails[2])
    if split:
        k = (split & -split).bit_length() - 1
        raise AssertionError(
            f"equivalent saturation conditions disagree on {masks[k]:#x} at F={frobenius}"
        )
    kept = bin(everyone ^ fails[0])[:1:-1]
    found = [NumericalSemigroup(frobenius, m) for m, bit in zip(masks, kept) if bit == "1"]
    found.sort(key=lambda s: s.nonzero_small_elements())
    return found


class Report:
    """Outcome of cross-validating the fast paths against the subset search."""

    def __init__(
        self,
        frobenius: int,
        semigroup_count: int,
        discrepancies: list[str] | None = None,
    ) -> None:
        self.frobenius = frobenius
        self.semigroup_count = semigroup_count
        self.discrepancies = [] if discrepancies is None else discrepancies

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def to_json(self) -> dict:
        return {
            "frobenius": self.frobenius,
            "semigroup_count": self.semigroup_count,
            "ok": self.ok,
            "discrepancies": list(self.discrepancies),
        }


def check_all(frobenius: int) -> Report:
    """Compare every fast computation at this F against the brute force.

    Covers the tree enumeration, the genus filter, the maximal elements,
    the minimum genus, the closure/minimal-system round trip, and the
    partition of the family into rank classes.  Counterexamples land in
    the report verbatim; an empty list means all checks passed.
    """
    truth = brute_force_sat(frobenius)
    truth_set = set(truth)
    report = Report(frobenius, len(truth))
    bad = report.discrepancies.append

    fast = enumerate_sat(frobenius)
    fast_set = set(fast)
    if len(fast) != len(fast_set):
        bad("tree enumeration repeated a member")
    for s in truth:
        if s not in fast_set:
            bad(f"missing from tree enumeration: {s.canonical_text()}")
    for s in fast:
        if s not in truth_set:
            bad(f"tree enumeration invented: {s.canonical_text()}")

    for g in range(frobenius + 2):
        want = {s for s in truth if s.genus == g}
        got = set(enumerate_sat_genus(frobenius, g))
        if want != got:
            bad(f"genus filter mismatch at g={g}")

    want_max = {
        s for s in truth if not any(s != t and s.issubset(t) for t in truth)
    }
    got_max = set(maximal_elements(frobenius))
    if want_max != got_max:
        bad(
            "maximal elements mismatch: expected "
            + ", ".join(sorted(s.canonical_text() for s in want_max))
        )

    want_min = min(s.genus for s in truth)
    if min_genus(frobenius) != want_min:
        bad(f"min genus: reported {min_genus(frobenius)}, brute force {want_min}")

    for s in truth:
        system = minimal_system(s)
        if closure(frobenius, system.elements) != s:
            bad(f"closure of the minimal system changed {s.canonical_text()}")

    assigned: dict[NumericalSemigroup, int] = {}
    p = 0
    while True:
        members = enumerate_rank(frobenius, p)
        if p >= 1 and feasible_rank(frobenius, p) != bool(members):
            bad(f"feasibility test disagrees with enumeration at rank {p}")
        if p >= 1 and not members:
            break
        for s in members:
            if len(minimal_system(s).elements) != p:
                bad(f"{s.canonical_text()} emitted at rank {p} but has another rank")
            if s in assigned:
                bad(
                    f"{s.canonical_text()} appears at ranks {assigned[s]} and {p}"
                )
            assigned[s] = p
        p += 1
    if set(assigned) != truth_set:
        bad("rank classes do not partition the family")

    return report
