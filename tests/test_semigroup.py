import math
from itertools import combinations, count

import pytest

from satsemi.errors import (
    FrobeniusViolated,
    GcdNotOne,
    NotAMember,
    NotClosed,
    NotRepresentable,
    WouldChangeFrobenius,
)
from satsemi.oracle import _closed_masks
from satsemi.satsets import closure, minimal_system
from satsemi.semigroup import NumericalSemigroup, ordinary


# -- definition-level re-implementations used as oracles ---------------------


def naive_pseudo_frobenius(S):
    # gaps z with z + s a member for every nonzero member s; members past
    # F+1 never fail since the sum lands past F+1 too
    out = []
    for z in S.gaps():
        if all(z + s in S for s in S.members_up_to(S.frobenius + 1) if s):
            out.append(z)
    return tuple(out)


def naive_special_gaps(S):
    # gaps x whose adjunction keeps the set additively closed
    out = []
    for x in S.gaps():
        if 2 * x in S and all(
            x + s in S for s in S.members_up_to(S.frobenius + 1) if s
        ):
            out.append(x)
    return tuple(out)


def naive_saturated(S):
    # the defining condition checked member by member, plus the
    # all-multiples variant; both must agree
    plain, multiples = True, True
    for s in S.members_up_to(S.frobenius + 1):
        if not s:
            continue
        g = math.gcd(*[m for m in S.members_up_to(s) if m])
        if s + g not in S:
            plain = False
        v = s + g
        while v <= S.frobenius + 1:
            if v not in S:
                multiples = False
            v += g
    assert plain == multiples
    return plain


# -- constructors -------------------------------------------------------------


def test_from_small_elements_examples(du):
    assert du(7) == ordinary(8)
    assert du(7, 2, 4, 6) == NumericalSemigroup.from_generators([2, 9])
    assert du(7, 2, 4, 6).minimal_generators() == (2, 9)


def test_from_small_elements_rejects_open_sums():
    with pytest.raises(NotClosed):
        NumericalSemigroup.from_small_elements(4, [2])  # 2 + 2 = 4 missing
    with pytest.raises(NotClosed):
        NumericalSemigroup.from_small_elements(9, [3, 5])  # 3 + 5 = 8 missing


def test_constructor_accepts_exactly_the_closed_masks():
    # the bit-sliced subset search of the oracle shares no code with the
    # constructor; every subset of 1..F-1 is tried, so the last member the
    # closure loop visits, (F+1) // 2, is covered at every F
    for f in range(1, 15):
        closed = set(_closed_masks(f))
        for b in range(1 << (f - 1)):
            mask = 1 | b << 1 | 1 << (f + 1)
            if mask in closed:
                assert NumericalSemigroup(f, mask)._mask == mask
            else:
                with pytest.raises(NotClosed):
                    NumericalSemigroup(f, mask)


def test_from_small_elements_rejects_bad_values():
    with pytest.raises(FrobeniusViolated):
        NumericalSemigroup.from_small_elements(7, [7])
    with pytest.raises(ValueError):
        NumericalSemigroup.from_small_elements(7, [0])
    with pytest.raises(ValueError):
        NumericalSemigroup.from_small_elements(7, [8])
    with pytest.raises(NotRepresentable):
        NumericalSemigroup.from_small_elements(0, [])


def test_from_generators_gap_fixture():
    S = NumericalSemigroup.from_generators([8, 9, 11, 13])
    assert S.frobenius == 23
    assert S.apery(8).entries == (0, 9, 18, 11, 20, 13, 22, 31)


def test_from_generators_ordinary_form():
    for f in range(1, 9):
        gens = range(f + 1, 2 * f + 2)
        assert NumericalSemigroup.from_generators(gens) == ordinary(f + 1)


def test_from_generators_smallest():
    S = NumericalSemigroup.from_generators([2, 3])
    assert S.frobenius == 1
    assert 2 in S and 3 in S and 1 not in S


def test_from_generators_matches_reachability_scan():
    # x is a member when x - g is one for some generator g; past the
    # product of the least and largest generators every value is a member
    for size in (2, 3):
        for gens in combinations(range(2, 16), size):
            if math.gcd(*gens) != 1:
                continue
            top = gens[0] * gens[-1]
            reach = [True]
            for x in range(1, top + 1):
                reach.append(any(x >= g and reach[x - g] for g in gens))
            frobenius = max(x for x in range(top + 1) if not reach[x])
            S = NumericalSemigroup.from_generators(gens)
            assert S.frobenius == frobenius
            members = [x for x in range(frobenius + 2) if reach[x]]
            assert list(S.members_up_to(frobenius + 1)) == members


def test_from_generators_errors():
    with pytest.raises(GcdNotOne):
        NumericalSemigroup.from_generators([2, 4])
    with pytest.raises(GcdNotOne):
        NumericalSemigroup.from_generators([2])
    with pytest.raises(NotRepresentable):
        NumericalSemigroup.from_generators([1, 3])
    with pytest.raises(ValueError):
        NumericalSemigroup.from_generators([])
    with pytest.raises(ValueError):
        NumericalSemigroup.from_generators([0, 3])


def test_generator_round_trip(corpus, du):
    cases = [s for f in (5, 7, 9) for s in corpus(f)]
    cases += [
        NumericalSemigroup.from_generators(g)
        for g in ([3, 5], [4, 6, 9], [5, 7, 9], [6, 10, 15])
    ]
    for S in cases:
        assert NumericalSemigroup.from_generators(S.minimal_generators()) == S


# -- counting invariants -------------------------------------------------------


def test_counts_examples(du):
    delta = ordinary(8)
    assert (delta.genus, delta.multiplicity, delta.small_count) == (7, 8, 1)
    assert du(7, 2, 4, 6).genus == 4
    assert NumericalSemigroup.from_generators([2, 9]).genus == 4


def test_genus_plus_small_count(corpus):
    for f in (4, 7, 9, 11):
        for S in corpus(f):
            assert S.genus + S.small_count == S.frobenius + 1
    S = NumericalSemigroup.from_generators([7, 8, 9, 11, 13])
    assert S.genus + S.small_count == S.frobenius + 1


def test_genus_lower_bound(corpus):
    for f in (5, 8, 10):
        for S in corpus(f):
            assert 2 * S.genus >= S.frobenius + 1


# -- minimal generators ---------------------------------------------------------


def test_minimal_generators_examples(du):
    assert ordinary(8).minimal_generators() == tuple(range(8, 16))
    assert du(7, 3, 6).minimal_generators() == (3, 8, 10)
    assert du(7, 4, 6).minimal_generators() == (4, 6, 9, 11)


def test_minimal_generators_definition(corpus):
    for S in corpus(8) + corpus(9):
        gens = S.minimal_generators()
        members = [m for m in S.members_up_to(2 * S.frobenius + 1) if m]
        sums = {a + b for a in members for b in members}
        assert gens == tuple(m for m in members if m not in sums)
        assert S.embedding_dimension <= S.multiplicity


# -- Apery tables ----------------------------------------------------------------


def test_apery_ordinary():
    assert ordinary(8).apery(8).entries == (0, 9, 10, 11, 12, 13, 14, 15)


def test_apery_structure(corpus):
    for S in corpus(8):
        for n in [m for m in S.members_up_to(S.frobenius + 1) if m]:
            table = S.apery(n)
            assert len(table.entries) == n
            for i, w in enumerate(table.entries):
                assert w % n == i
                assert w in S and w - n not in S


def test_apery_med_relation(corpus):
    # with maximal embedding dimension, the table of the multiplicity is
    # {0} plus the generators above the multiplicity
    for S in corpus(7) + corpus(10):
        m = S.multiplicity
        table = set(S.apery(m).entries)
        assert table == {0} | (set(S.minimal_generators()) - {m})


def test_apery_definition_beyond_saturated():
    # every numerical semigroup with F <= 12, saturated or not, and every
    # nonzero member n <= F+2: entry i is the least member congruent to i
    nonsaturated = 0
    for f in range(1, 13):
        for bits in range(1 << (f - 1)):
            small = [s for s in range(1, f) if (bits >> (s - 1)) & 1]
            try:
                S = NumericalSemigroup.from_small_elements(f, small)
            except NotClosed:
                continue
            nonsaturated += not S.is_saturated()
            for n in range(1, f + 3):
                if n not in S:
                    continue
                want = tuple(
                    next(s for s in count(i, n) if s in S) for i in range(n)
                )
                assert S.apery(n) == (n, want)
    assert nonsaturated > 0


def test_apery_rejects_nonmembers():
    S = ordinary(8)
    with pytest.raises(NotAMember):
        S.apery(3)
    with pytest.raises(NotAMember):
        S.apery(0)


# -- pseudo-Frobenius and special gaps ---------------------------------------------


def test_pseudo_frobenius_fixture():
    S = NumericalSemigroup.from_generators([7, 8, 9, 11, 13])
    assert S.pseudo_frobenius() == (6, 10, 12)


def test_pseudo_frobenius_examples(du):
    assert ordinary(8).pseudo_frobenius() == tuple(range(1, 8))
    assert NumericalSemigroup.from_generators([2, 9]).pseudo_frobenius() == (7,)


def test_pseudo_frobenius_matches_definition(corpus):
    cases = list(corpus(9)) + [
        NumericalSemigroup.from_generators(g)
        for g in ([3, 5], [4, 7, 9], [5, 6, 8], [7, 8, 9, 11, 13])
    ]
    for S in cases:
        pf = S.pseudo_frobenius()
        assert pf == naive_pseudo_frobenius(S)
        assert max(pf) == S.frobenius


def test_special_gaps_fixture():
    S = NumericalSemigroup.from_generators([6, 7, 8, 10, 11])
    assert S.special_gaps() == (4, 5, 9)


def test_special_gaps_examples(du):
    assert ordinary(8).special_gaps() == (4, 5, 6, 7)
    assert du(7, 4, 6).special_gaps() == (2, 5, 7)


def test_special_gaps_matches_definition(corpus):
    cases = list(corpus(9)) + [
        NumericalSemigroup.from_generators(g)
        for g in ([3, 5], [4, 7, 9], [6, 7, 8, 10, 11])
    ]
    for S in cases:
        assert S.special_gaps() == naive_special_gaps(S)


def test_adjoining_special_gap_is_semigroup(corpus):
    for S in corpus(8):
        for x in S.special_gaps():
            if x < S.frobenius:
                S.adjoin(x)  # validates closure internally


# -- member gcd prefix -----------------------------------------------------------


def test_gcd_up_to_examples(du):
    S = du(17, 8, 10, 12, 14, 16)
    assert S.gcd_up_to(8) == 8
    assert S.gcd_up_to(10) == 2
    T = du(51, 8, 16, 24, 28, 32, 36, 40, 42, 44, 46, 48, 50)
    assert T.gcd_up_to(28) == 4
    assert T.gcd_up_to(42) == 2


def test_gcd_up_to_multiplicity_and_tail(corpus):
    for S in corpus(9):
        assert S.gcd_up_to(S.multiplicity) == S.multiplicity
        assert S.gcd_up_to(S.frobenius + 3) == 1


def test_gcd_up_to_matches_definition():
    # every nonzero member up to F+2 of every closed mask, saturated or not
    for f in range(1, 15):
        for mask in _closed_masks(f):
            S = NumericalSemigroup(f, mask)
            members = [s for s in S.members_up_to(f + 2) if s]
            for k, s in enumerate(members, 1):
                assert S.gcd_up_to(s) == math.gcd(*members[:k]), (S, s)


def test_gcd_up_to_rejects():
    S = ordinary(8)
    with pytest.raises(NotAMember):
        S.gcd_up_to(3)
    with pytest.raises(NotAMember):
        S.gcd_up_to(0)


# -- saturation and embedding dimension --------------------------------------------


def test_is_saturated_examples(du):
    assert du(17, 8, 10, 12, 14, 16).is_saturated()
    for m in range(2, 13):
        assert ordinary(m).is_saturated()
    assert not NumericalSemigroup.from_generators([7, 8, 9, 11, 13]).is_saturated()


def test_is_saturated_matches_definition():
    for f in range(1, 15):
        for mask in _closed_masks(f):
            S = NumericalSemigroup(f, mask)
            assert S.is_saturated() == naive_saturated(S), S


def test_is_saturated_on_a_wide_closure():
    # a third of a million small members but one gcd drop; minimal_system
    # tests saturation first
    assert minimal_system(closure(10**6, [3])).elements == (3,)


def test_is_med(corpus):
    assert ordinary(9).is_med()
    for S in corpus(7):
        assert S.is_med()
    assert NumericalSemigroup.from_generators([2, 3]).is_med()
    assert not NumericalSemigroup.from_generators([3, 4]).is_med()


# -- intersection, removal, adjunction ----------------------------------------------


def test_intersect_example(du):
    assert du(7, 3, 6).intersect(du(7, 4, 6)) == du(7, 6)


def test_intersect_properties(corpus):
    five, seven = corpus(5), corpus(7)
    for S in five:
        for T in seven:
            both = S.intersect(T)
            assert both == T.intersect(S)
            assert both.frobenius == 7
            for x in range(both.frobenius + 2):
                assert (x in both) == (x in S and x in T)
            assert both.is_saturated()
    for S in seven:
        assert S.intersect(S) == S


def test_remove_multiplicity(du):
    assert du(7, 2, 4, 6).remove_multiplicity() == du(7, 4, 6)
    assert du(7, 4).remove_multiplicity() == du(7)
    with pytest.raises(WouldChangeFrobenius):
        ordinary(8).remove_multiplicity()


def test_remove_multiplicity_keeps_saturation(corpus):
    for S in corpus(9):
        if S != ordinary(10):
            assert S.remove_multiplicity().is_saturated()


def test_adjoin(du):
    assert ordinary(8).adjoin(4) == du(7, 4)
    assert du(7, 4).adjoin(6) == du(7, 4, 6)
    with pytest.raises(NotClosed):
        ordinary(8).adjoin(2)  # 2 + 2 = 4 would be missing
    with pytest.raises(ValueError):
        ordinary(8).adjoin(7)  # equals the Frobenius number
    with pytest.raises(ValueError):
        du(7, 4).adjoin(4)  # already a member


def test_adjoin_undoes_removal(corpus):
    root = ordinary(10)
    for S in corpus(9):
        if S != root:
            assert S.remove_multiplicity().adjoin(S.multiplicity) == S


# -- membership and canonical forms ---------------------------------------------


def test_membership_semantics(du):
    S = du(7, 2, 4, 6)
    assert 0 in S and 2 in S and 8 in S and 100 in S
    assert 1 not in S and 7 not in S and -3 not in S
    assert S.nonzero_small_elements() == (2, 4, 6)
    assert S.gaps() == (1, 3, 5, 7)


def test_members_up_to_edges(corpus):
    for f in range(1, 10):
        for S in corpus(f):
            for bound in (-2, -1, 0, f, f + 1, f + 3):
                expected = [x for x in range(bound + 1) if x in S]
                assert list(S.members_up_to(bound)) == expected


def test_canonical_text(du):
    assert du(7, 2, 4, 6).canonical_text() == "⟨2,9⟩ | F=7"


def test_canonical_json(du):
    assert du(7, 4, 6).canonical_json() == {
        "frobenius": 7,
        "small_elements": [4, 6],
        "msg": [4, 6, 9, 11],
        "genus": 5,
        "multiplicity": 4,
    }


def test_equality_and_hash(du):
    assert du(7, 4, 6) == du(7, 6, 4)
    assert hash(du(7, 4, 6)) == hash(du(7, 6, 4))
    assert du(7, 4, 6) != du(7, 4)
    assert len({du(7, 4, 6), du(7, 6, 4)}) == 1


def test_ordinary_rejects_degenerate():
    with pytest.raises(NotRepresentable):
        ordinary(1)
    with pytest.raises(ValueError):
        ordinary(-2)
