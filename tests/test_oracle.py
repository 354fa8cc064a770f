import math

import pytest

import satsemi.oracle as oracle
from satsemi.errors import TooLarge
from satsemi.oracle import Report, brute_force_sat, check_all
from satsemi.semigroup import NumericalSemigroup, ordinary

# family sizes frozen after the first oracle run; recomputation must agree
GOLDEN_COUNTS = {
    1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 3, 7: 7, 8: 5,
    9: 9, 10: 8, 11: 16, 12: 7, 13: 21, 14: 14, 15: 25, 16: 18,
    17: 39, 18: 16, 19: 50, 20: 22,
}

# numerical semigroups with Frobenius number F = 1..20, OEIS A124506
A124506 = (
    1, 1, 2, 2, 5, 4, 11, 10, 21, 22,
    51, 40, 106, 103, 200, 205, 465, 405, 961, 900,
)


def _closed(mask, frobenius):
    """False iff some nonzero a, b in the bitmap have a + b <= F+1 missing."""
    limit = frobenius + 1
    window = (1 << (limit + 1)) - 1
    body = mask & ~1
    for a in range(1, limit // 2 + 1):
        if (mask >> a) & 1 and (body << a) & window & ~mask:
            return False
    return True


# the per-mask saturation tests the lanes replaced, kept as the reference


def _member(mask, frobenius, v):
    return v >= 0 and (v > frobenius + 1 or (mask >> v) & 1 == 1)


def _prefix_gcds(members):
    out, g = [], 0
    for s in members:
        g = math.gcd(g, s)
        out.append(g)
    return out


def _saturated_definition(mask, frobenius, members, gcds):
    # every nonzero member s has s + gcd(members <= s) in the set
    return all(_member(mask, frobenius, s + g) for s, g in zip(members, gcds))


def _saturated_with_zero(mask, frobenius, members, gcds):
    # same ranging over all members; the zero term asks for 0 + gcd{0} = 0
    if not _member(mask, frobenius, 0):
        return False
    return all(_member(mask, frobenius, s + g) for s, g in zip(members, gcds))


def _saturated_multiples(mask, frobenius, members, gcds):
    # every s + k * gcd(members <= s), k >= 1, until past F+1
    for s, g in zip(members, gcds):
        v = s + g
        while v <= frobenius + 1:
            if not (mask >> v) & 1:
                return False
            v += g
    return True


def _saturated(mask, frobenius):
    members = [i for i in range(1, frobenius + 2) if (mask >> i) & 1]
    gcds = _prefix_gcds(members)
    votes = {
        test(mask, frobenius, members, gcds)
        for test in (_saturated_definition, _saturated_with_zero, _saturated_multiples)
    }
    assert len(votes) == 1, (frobenius, mask)
    return votes.pop()


def test_bit_sliced_closure_matches_literal_test():
    for f in range(1, 17):
        base = 1 | (1 << (f + 1))
        want = [
            base | (b << 1)
            for b in range(1 << (f - 1))
            if _closed(base | (b << 1), f)
        ]
        assert oracle._closed_masks(f) == want, f


def test_closed_subset_counts_are_a124506():
    got = tuple(len(oracle._closed_masks(f)) for f in range(1, 21))
    assert got == A124506


def test_bit_sliced_saturation_matches_per_mask_test(corpus):
    for f in range(1, 17):
        want = [
            NumericalSemigroup(f, mask)
            for mask in oracle._closed_masks(f)
            if _saturated(mask, f)
        ]
        want.sort(key=lambda S: S.nonzero_small_elements())
        assert list(corpus(f)) == want, f


def test_disagreeing_saturation_lanes_raise(monkeypatch):
    # flip lane 0 (the ordinary semigroup) in one formulation only
    multiples = oracle._failing_multiples
    monkeypatch.setattr(
        oracle, "_failing_multiples", lambda *args: multiples(*args) ^ 1
    )
    with pytest.raises(AssertionError, match=r"on 0x401 at F=9\b"):
        brute_force_sat(9)


def test_brute_force_sat7_exact(corpus):
    got = {S.minimal_generators() for S in corpus(7)}
    assert got == {
        (8, 9, 10, 11, 12, 13, 14, 15),
        (4, 9, 10, 11),
        (5, 8, 9, 11, 12),
        (6, 8, 9, 10, 11, 13),
        (3, 8, 10),
        (4, 6, 9, 11),
        (2, 9),
    }


def test_brute_force_tiny(corpus):
    assert list(corpus(1)) == [ordinary(2)]
    assert list(corpus(2)) == [ordinary(3)]
    assert set(corpus(3)) == {ordinary(4), ordinary(4).adjoin(2)}


def test_brute_force_counts(corpus):
    for f, count in GOLDEN_COUNTS.items():
        assert len(corpus(f)) == count, f


def test_brute_force_members_valid(corpus):
    for f in range(1, 11):
        family = corpus(f)
        assert len(set(family)) == len(family)
        for S in family:
            NumericalSemigroup.from_small_elements(f, S.nonzero_small_elements())
            assert S.frobenius == f
            assert S.is_saturated()
            assert S.is_med()
            assert 2 * S.genus >= f + 1


def test_brute_force_bounds():
    with pytest.raises(TooLarge):
        brute_force_sat(21)
    with pytest.raises(ValueError):
        brute_force_sat(0)


def test_check_all_clean():
    # criterion 9 runs F = 1..16
    for f in (17, 18, 19, 20):
        report = check_all(f)
        assert report.ok
        assert report.discrepancies == []
        assert report.semigroup_count == GOLDEN_COUNTS[f]
        assert report.to_json()["ok"] is True


def test_check_all_catches_lies(monkeypatch):
    # the checker must actually notice a wrong fast answer
    monkeypatch.setattr(oracle, "min_genus", lambda f: 0)
    report = check_all(7)
    assert not report.ok
    assert any("min genus" in line for line in report.discrepancies)


def test_report_shape():
    report = Report(frobenius=5, semigroup_count=4)
    assert report.ok
    data = report.to_json()
    assert data == {
        "frobenius": 5,
        "semigroup_count": 4,
        "ok": True,
        "discrepancies": [],
    }
