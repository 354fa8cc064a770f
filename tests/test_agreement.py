"""The tree walk and the rank enumerator agree for every F <= 60, and at
F = 83 and 101, above the Frobenius numbers the golden digests pin.

The two paths share no code: the walk adjoins special gaps layer by
layer and orders each layer by grouping children, the rank enumerator
builds each member from its t1 = 1 witness and sorts.
"""

from satsemi.rank_enum import enumerate_rank, feasible_rank
from satsemi.tree import enumerate_sat, iter_layers


def small(S):
    return S.nonzero_small_elements()


def test_layers_sorted_and_at_their_depth():
    for f in range(1, 61):
        for depth, layer in enumerate(iter_layers(f)):
            assert layer == sorted(layer, key=small)
            assert all(S.small_count - 1 == depth for S in layer)


def test_rank_classes_partition_the_tree_family():
    for f in [*range(1, 61), 83, 101]:
        family = enumerate_sat(f)
        classes = []
        p = 0
        while p == 0 or feasible_rank(f, p):
            members = enumerate_rank(f, p)
            assert members == sorted(members, key=small)
            classes.append(members)
            p += 1
        assert enumerate_rank(f, p) == []
        assert sum(map(len, classes)) == len(family)
        assert set().union(*classes) == set(family)
