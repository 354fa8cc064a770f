import math
import random
from itertools import combinations

import pytest

from satsemi.errors import NotASatFSet, NotSaturated, WrongFrobenius
from satsemi.extremal import maximal_elements, tooth
from satsemi.satsets import (
    SatFSet,
    _drops,
    _fill,
    closure,
    is_minimal_system,
    is_sat_set,
    minimal_system,
    rank,
)
from satsemi.semigroup import NumericalSemigroup, _small_window, ordinary
from satsemi.tree import enumerate_sat


def small_subsets(frobenius, max_size=3):
    pool = range(1, frobenius)
    for size in range(max_size + 1):
        yield from combinations(pool, size)


def test_is_sat_set_examples():
    assert is_sat_set(51, [8, 28, 42])
    assert not is_sat_set(4, [2])
    assert is_sat_set(7, [])
    assert not is_sat_set(7, [7])
    assert not is_sat_set(7, [1])
    assert is_sat_set(7, [4, 6])
    assert not is_sat_set(0, [])


def test_is_sat_set_matches_brute_force(corpus):
    for f in range(1, 11):
        family = corpus(f)
        for xs in small_subsets(f):
            expected = any(all(x in s for x in xs) for s in family)
            assert is_sat_set(f, xs) == expected, (f, xs)


def test_closure_example_51():
    S = closure(51, [8, 28, 42])
    assert S.nonzero_small_elements() == (
        8, 16, 24, 28, 32, 36, 40, 42, 44, 46, 48, 50,
    )
    assert S.frobenius == 51
    assert S.is_saturated()


def test_closure_basics(du):
    assert closure(9, []) == ordinary(10)
    assert closure(7, [4, 6]) == du(7, 4, 6)
    assert closure(7, [6, 4, 6]) == du(7, 4, 6)  # order and repeats ignored
    with pytest.raises(NotASatFSet):
        closure(4, [2])
    with pytest.raises(NotASatFSet):
        closure(7, [9])


def test_closure_is_least_container(corpus):
    for f in (6, 8, 10):
        family = corpus(f)
        for xs in small_subsets(f):
            if not is_sat_set(f, xs):
                continue
            S = closure(f, xs)
            containers = [t for t in family if all(x in t for x in xs)]
            meet = containers[0]
            for t in containers[1:]:
                meet = meet.intersect(t)
            assert S == meet
            assert all(S.issubset(t) for t in containers)
            assert S in set(family)


def test_minimal_system_example_42(du):
    S = du(21, 4, 8, 10, 12, 14, 16, 18, 20)
    assert minimal_system(S) == SatFSet(21, (4, 10))
    assert rank(S) == 2


def test_minimal_system_examples():
    assert minimal_system(ordinary(8)).elements == ()
    assert minimal_system(closure(51, [8, 28, 42])).elements == (8, 28, 42)
    assert minimal_system(tooth(2, 8)).elements == (2,)


def test_minimal_system_errors():
    bumpy = NumericalSemigroup.from_generators([3, 4])
    with pytest.raises(NotSaturated):
        minimal_system(bumpy)
    with pytest.raises(WrongFrobenius):
        minimal_system(ordinary(8), frobenius=9)
    assert minimal_system(ordinary(8), frobenius=7).elements == ()


def test_multiplicity_opens_system(corpus):
    for f in (8, 10):
        for S in corpus(f):
            system = minimal_system(S).elements
            if S == ordinary(f + 1):
                assert system == ()
            else:
                assert system[0] == S.multiplicity


def test_is_minimal_system_examples():
    assert is_minimal_system(51, [8, 28, 42])
    assert not is_minimal_system(7, [2, 4])
    assert is_minimal_system(21, [4, 10])
    assert is_minimal_system(7, [6, 4])  # normalized before testing
    assert is_minimal_system(9, [])
    assert not is_minimal_system(21, [4, 8, 10])
    assert is_minimal_system(25, [12, 18, 20])
    assert not is_minimal_system(25, [12, 18, 20, 22])
    assert not is_minimal_system(25, [12, 14, 18])
    assert not is_minimal_system(101, [30, 45, 60])
    assert is_minimal_system(10**6 + 1, [2])
    assert not is_minimal_system(10**6 + 1, [4, 6, 8])
    assert not is_minimal_system(10**6 + 1, range(2, 10**6, 2))
    with pytest.raises(NotASatFSet):
        is_minimal_system(4, [2])


def test_rank_examples():
    assert rank(ordinary(12)) == 0
    assert rank(tooth(2, 8)) == 1
    for m in (2, 3, 4, 5, 6):
        assert rank(tooth(m, 8)) == 1


def test_rank_bounded_by_embedding_dimension(corpus):
    for f in (9, 11):
        for S in corpus(f):
            assert rank(S) <= S.embedding_dimension


def test_rank_one_members_are_progressions(corpus):
    for f in (7, 10, 12):
        want = {tooth(m, f + 1) for m in range(2, f) if f % m}
        got = {S for S in corpus(f) if rank(S) == 1}
        assert got == want


def test_prefix_gcd_law(corpus):
    for f in (8, 10):
        for S in corpus(f):
            system = minimal_system(S).elements
            g = 0
            for n in system:
                g = math.gcd(g, n)
                assert S.gcd_up_to(n) == g


def usable_sets(frobenius, count, seed):
    rng = random.Random(seed)
    while count:
        xs = rng.sample(range(1, frobenius), rng.randint(1, 6))
        if is_sat_set(frobenius, xs):
            count -= 1
            yield sorted(xs)


def test_fill_passes_the_validating_constructor():
    # closure trusts _fill; the checked constructor re-proves its output
    systems = [
        (f, minimal_system(S).elements) for f in range(1, 61) for S in enumerate_sat(f)
    ]
    systems += [(f, xs) for f in (101, 199, 1000) for xs in usable_sets(f, 40, f)]
    for f, ns in systems:
        S = NumericalSemigroup(f, _fill(f, ns))
        assert S.frobenius == f and S.is_saturated(), (f, ns)
        assert closure(f, ns) == S


def literal_drops(small):
    # the elements of an ascending list at which its running gcd drops
    picks = []
    g = 0
    for s in small:
        if math.gcd(g, s) != g:
            g = math.gcd(g, s)
            picks.append(s)
    return picks


def test_drops_off_the_bitmap_match_the_literal_list():
    family = [S for f in range(1, 61) for S in enumerate_sat(f)]
    for S in family + maximal_elements(2000) + [closure(10**6, [3])]:
        F = S.frobenius
        want = literal_drops(S.nonzero_small_elements())
        assert _drops(F, S._mask & _small_window(F)) == want, S
    for S in family:
        want = literal_drops(S.nonzero_small_elements())
        assert minimal_system(S).elements == tuple(want), S


def test_is_minimal_system_matches_the_literal_list():
    for f in (101, 199, 1000):
        for xs in usable_sets(f, 40, f):
            assert is_minimal_system(f, xs) == (literal_drops(xs) == xs), (f, xs)
