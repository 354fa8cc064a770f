"""Exhaustive ground truth at small Frobenius numbers.

Every subset of {1..F-1} is tested literally against the definitions:
additive closure of {0} | T | {F+1, ->} first, then saturation in three
equivalent formulations that must agree with each other.  The predicates
here work on raw bitmaps and deliberately share no code with the fast
modules they are used to validate.
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


def _member(mask: int, frobenius: int, v: int) -> bool:
    return v >= 0 and (v > frobenius + 1 or (mask >> v) & 1 == 1)


def _closed(mask: int, frobenius: int) -> bool:
    limit = frobenius + 1
    window = (1 << (limit + 1)) - 1
    body = mask & ~1
    for a in range(1, limit // 2 + 1):
        if (mask >> a) & 1 and (body << a) & window & ~mask:
            return False
    return True


def _prefix_gcds(members: list[int]) -> list[int]:
    out, g = [], 0
    for s in members:
        g = math.gcd(g, s)
        out.append(g)
    return out


def _saturated_definition(mask, frobenius, members, gcds) -> bool:
    # every nonzero member s has s + gcd(members <= s) in the set
    return all(_member(mask, frobenius, s + g) for s, g in zip(members, gcds))


def _saturated_with_zero(mask, frobenius, members, gcds) -> bool:
    # same ranging over all members; the zero term asks for 0 + gcd{0} = 0
    if not _member(mask, frobenius, 0):
        return False
    return all(_member(mask, frobenius, s + g) for s, g in zip(members, gcds))


def _saturated_multiples(mask, frobenius, members, gcds) -> bool:
    # every s + k * gcd(members <= s), k >= 1, until past F+1
    for s, g in zip(members, gcds):
        v = s + g
        while v <= frobenius + 1:
            if not (mask >> v) & 1:
                return False
            v += g
    return True


def refuse_above_limit(frobenius: int) -> None:
    """Raise TooLarge when the subset search at this F is not practical."""
    if frobenius > BRUTE_FORCE_LIMIT:
        raise TooLarge(f"subset search above F={BRUTE_FORCE_LIMIT} is not practical")


def brute_force_sat(frobenius: int) -> list[NumericalSemigroup]:
    """Every saturated semigroup with this Frobenius number, by subset search.

    Candidates are the 2**(F-1) subsets of {1..F-1}; above F=20 the
    search is refused (TooLarge).
    """
    if frobenius < 1:
        raise ValueError("frobenius must be >= 1")
    refuse_above_limit(frobenius)
    base = 1 | (1 << (frobenius + 1))
    found = []
    for bits in range(1 << max(0, frobenius - 1)):
        mask = base | (bits << 1)
        if not _closed(mask, frobenius):
            continue
        members = [i for i in range(1, frobenius + 2) if (mask >> i) & 1]
        gcds = _prefix_gcds(members)
        votes = (
            _saturated_definition(mask, frobenius, members, gcds),
            _saturated_with_zero(mask, frobenius, members, gcds),
            _saturated_multiples(mask, frobenius, members, gcds),
        )
        if votes[0] is not votes[1] or votes[1] is not votes[2]:
            raise AssertionError(
                f"equivalent saturation conditions disagree on {mask:#x} at F={frobenius}"
            )
        if votes[0]:
            found.append(NumericalSemigroup(frobenius, mask))
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
