import math

import pytest

from satsemi.errors import NotRepresentable
from satsemi.extremal import (
    least_non_divisor,
    maximal_elements,
    min_genus,
    minimal_non_divisors,
    non_divisors,
    tooth,
)
from satsemi.satsets import minimal_system
from satsemi.semigroup import ordinary

A30 = (4, 7, 8, 9, 11, 12, 13, 14, 16, 17, 18, 19, 20, 21,
       22, 23, 24, 25, 26, 27, 28, 29)
B30 = (4, 7, 9, 11, 13, 17, 19, 23, 25, 29)


def test_tooth_examples(du):
    assert tooth(2, 8) == du(7, 2, 4, 6)
    assert tooth(2, 8).genus == 4
    assert tooth(4, 7) == du(6, 4)
    assert tooth(4, 7).genus == 5
    assert tooth(5, 3) == ordinary(3)


def test_tooth_degenerate():
    with pytest.raises(NotRepresentable):
        tooth(1, 5)
    with pytest.raises(NotRepresentable):
        tooth(3, 1)
    with pytest.raises(ValueError, match="step and conductor must be positive"):
        tooth(0, 5)
    with pytest.raises(NotRepresentable):
        tooth(1, 10**18)


def test_tooth_saturated_with_expected_frobenius():
    for f in range(3, 13):
        for a in range(2, f):
            if f % a:
                T = tooth(a, f + 1)
                assert T.frobenius == f
                assert T.is_saturated()
                assert T.genus == f - f // a


def test_tooth_is_the_literal_set():
    # every step and conductor up to 60, including conductors one past a
    # multiple of the step and steps at or beyond the conductor
    for c in range(1, 61):
        for step in range(1, 62):
            def member(x):
                return x % step == 0 or x >= c

            if member(1):
                with pytest.raises(NotRepresentable):
                    tooth(step, c)
                continue
            T = tooth(step, c)
            assert T.frobenius == max(x for x in range(c) if not member(x))
            assert [x in T for x in range(c + step + 2)] == [
                member(x) for x in range(c + step + 2)
            ]


def test_non_divisors_30():
    got = non_divisors(30)
    assert got == A30
    assert len(got) == 22
    assert minimal_non_divisors(30) == B30


def test_minimal_non_divisors_small():
    assert minimal_non_divisors(1) == ()
    assert minimal_non_divisors(2) == ()
    assert minimal_non_divisors(7) == (2, 3, 5)


def test_minimal_non_divisors_definition():
    for n in [*range(1, 300), 720, 1024, 1260, 1500]:
        a = set(non_divisors(n))
        want = tuple(
            sorted(x for x in a if not any(y != x and x % y == 0 for y in a))
        )
        assert minimal_non_divisors(n) == want


def test_maximal_elements_30():
    assert maximal_elements(30) == [tooth(x, 31) for x in B30]


def test_maximal_elements_degenerate():
    assert maximal_elements(1) == [ordinary(2)]
    assert maximal_elements(2) == [ordinary(3)]
    with pytest.raises(ValueError, match="frobenius must be >= 1"):
        maximal_elements(0)


def test_maximal_elements_match_inclusion_filter(corpus):
    for f in range(1, 13):
        family = corpus(f)
        want = {
            s
            for s in family
            if not any(s != t and s.issubset(t) for t in family)
        }
        assert set(maximal_elements(f)) == want


def test_least_non_divisor():
    assert least_non_divisor(1) == 2
    assert least_non_divisor(7) == 2
    assert least_non_divisor(6) == 4
    assert least_non_divisor(12) == 5
    with pytest.raises(ValueError, match="n must be positive"):
        least_non_divisor(0)


def test_min_genus_examples():
    assert min_genus(7) == 4
    assert min_genus(6) == 5
    assert min_genus(12) == 10
    with pytest.raises(ValueError, match="frobenius must be >= 1"):
        min_genus(0)


def test_min_genus_matches_oracle(corpus):
    for f in range(1, 13):
        assert min_genus(f) == min(s.genus for s in corpus(f))
        p = least_non_divisor(f)
        if p < f:
            assert tooth(p, f + 1).genus == min_genus(f)


def test_progression_intersection_reconstruction(corpus):
    # every saturated member is an intersection of single-progression
    # semigroups read off from the positions where its member gcd drops
    for f in (7, 9, 10):
        for S in corpus(f):
            jumps = minimal_system(S).elements
            if not jumps:
                assert S == tooth(f + 1, f + 1)
                continue
            pieces = []
            g = 0
            for i, n in enumerate(jumps):
                g = math.gcd(g, n)
                boundary = jumps[i + 1] if i + 1 < len(jumps) else f + 1
                pieces.append(tooth(g, boundary))
            rebuilt = pieces[0]
            for piece in pieces[1:]:
                rebuilt = rebuilt.intersect(piece)
            assert rebuilt == S
