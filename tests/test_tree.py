import gc
from functools import partial
from itertools import accumulate
from math import gcd

import pytest

from satsemi.errors import PreconditionViolated, ResidueClassMissing
from satsemi.extremal import maximal_elements
from satsemi.rank_enum import enumerate_rank
from satsemi.satsets import minimal_system
from satsemi.semigroup import NumericalSemigroup, _drops, _multiples, _small_window, ordinary
from satsemi.tree import (
    _expand,
    _FirstLink,
    _root,
    _walk,
    _walk_records,
    chain,
    child_msg,
    enumerate_sat,
    enumerate_sat_genus,
    extension_is_saturated,
    iter_layers,
    iter_sat,
    special_gaps_from_msg,
)

SAT7_EXPECTED = [
    ((), (8, 9, 10, 11, 12, 13, 14, 15)),
    ((4,), (4, 9, 10, 11)),
    ((5,), (5, 8, 9, 11, 12)),
    ((6,), (6, 8, 9, 10, 11, 13)),
    ((3, 6), (3, 8, 10)),
    ((4, 6), (4, 6, 9, 11)),
    ((2, 4, 6), (2, 9)),
]


def test_special_gaps_from_msg_matches_direct(corpus):
    for f in (6, 8, 10):
        for S in corpus(f):
            msg = S.minimal_generators()
            assert special_gaps_from_msg(S, msg) == S.special_gaps()


def test_children_walkthrough(du):
    by_smalls = {
        (): (4, 5, 6),
        (4,): (),
        (5,): (),
        (6,): (3, 4),
        (3, 6): (),
        (4, 6): (2,),
        (2, 4, 6): (),
    }
    children = {smalls: [] for smalls in by_smalls}
    for layer in iter_layers(7):
        for S in layer:
            if S != ordinary(8):
                parent = S.remove_multiplicity().nonzero_small_elements()
                children[parent].append(S.multiplicity)
    assert {k: tuple(sorted(v)) for k, v in children.items()} == by_smalls


def test_extension_examples(du):
    assert extension_is_saturated(du(17, 8, 10, 12, 14, 16), 6)
    assert not extension_is_saturated(du(7, 6), 5)
    assert extension_is_saturated(ordinary(8), 4)


def test_extension_preconditions(du):
    S = du(7, 4)
    with pytest.raises(PreconditionViolated):
        extension_is_saturated(S, 4)  # already a member
    with pytest.raises(PreconditionViolated):
        extension_is_saturated(S, 5)  # not below the multiplicity
    with pytest.raises(PreconditionViolated):
        extension_is_saturated(ordinary(8), 7)  # equals F
    with pytest.raises(PreconditionViolated):
        extension_is_saturated(S, 0)


def test_child_msg_walkthrough():
    delta_msg = tuple(range(8, 16))
    assert child_msg(delta_msg, 4) == (4, 9, 10, 11)
    assert child_msg((6, 8, 9, 10, 11, 13), 3) == (3, 8, 10)
    assert child_msg((4, 6, 9, 11), 2) == (2, 9)


def test_child_msg_missing_class():
    with pytest.raises(ResidueClassMissing):
        child_msg((3, 5), 4)  # residue class 2 mod 4 unrepresented


def test_enumerate_sat7_exact():
    got = [
        (S.nonzero_small_elements(), S.minimal_generators())
        for S in enumerate_sat(7)
    ]
    assert got == SAT7_EXPECTED


def test_enumerate_tiny():
    assert enumerate_sat(1) == [ordinary(2)]
    assert enumerate_sat(2) == [ordinary(3)]


def test_enumerated_members_are_valid():
    for f in (9, 12):
        for S in enumerate_sat(f):
            assert S.frobenius == f
            assert S.is_saturated()
            assert S.is_med()
            # revalidate closure through the checked constructor
            NumericalSemigroup.from_small_elements(f, S.nonzero_small_elements())


def test_enumerate_genus_example():
    got = [S.nonzero_small_elements() for S in enumerate_sat_genus(7, 5)]
    assert got == [(3, 6), (4, 6)]


def test_enumerate_genus_edges():
    assert enumerate_sat_genus(7, 7) == [ordinary(8)]
    assert enumerate_sat_genus(7, 3) == []
    assert enumerate_sat_genus(7, 8) == []
    assert enumerate_sat_genus(7, 0) == []
    assert enumerate_sat_genus(1, 1) == [ordinary(2)]


def test_chain_example(du):
    assert chain(du(7, 2, 4, 6)) == [
        du(7, 2, 4, 6),
        du(7, 4, 6),
        du(7, 6),
        du(7),
    ]
    assert chain(ordinary(8)) == [ordinary(8)]


def test_chain_properties(corpus):
    for S in corpus(10):
        links = chain(S)
        assert len(links) == S.small_count
        assert links[-1] == ordinary(11)
        assert [x.genus for x in links] == list(range(S.genus, 11))
        assert all(x.is_saturated() for x in links)


def test_family_closed_under_covariety_operations(corpus):
    family = set(corpus(8))
    root = ordinary(9)
    for S in family:
        for T in family:
            assert S.intersect(T) in family
        if S != root:
            assert S.remove_multiplicity() in family


def test_parent_child_consistency(corpus):
    for f in (7, 9):
        family = set(corpus(f))
        for S in family:
            if S == ordinary(f + 1):
                continue
            parent = S.remove_multiplicity()
            assert parent in family
            x = S.multiplicity
            assert x in parent.special_gaps()
            assert x < parent.multiplicity
            assert extension_is_saturated(parent, x)
            assert parent.adjoin(x) == S


def test_rejects_bad_frobenius():
    with pytest.raises(ValueError):
        enumerate_sat(0)
    with pytest.raises(ValueError):
        enumerate_sat_genus(0, 0)


def gcd_drop_chain(S):
    # the (n_i, d_i) links: the members where the running gcd drops, and its value
    ns = minimal_system(S).elements
    return tuple(zip(ns, accumulate(ns, gcd)))


def test_pseudo_frobenius_below_multiplicity_is_a_shift():
    for f in range(1, 61):
        for S in enumerate_sat(f):
            m = S.multiplicity
            shifted = {x for x in range(1, m) if x + m in S}
            assert shifted == {x for x in S.pseudo_frobenius() if x < m}, S


def candidate_range(f, links):
    # stage 2's [lo, hi) for a node other than the root: its children's x
    # lie in it
    m = links[0][0]
    n2 = links[1][0] if len(links) > 1 else f + 1
    return (m + 1) // 2, 2 * m + 1 - n2


def test_kernel_decides_like_the_reference():
    for f in range(1, 61):
        table = _FirstLink(f)
        layer = [_root(f)]
        while layer:
            for node in layer:
                mask, links, doubles = node
                S = NumericalSemigroup._raw(f, mask)
                literal_doubles = sum(1 << y for y in range(f) if 2 * y in S)
                m = S.multiplicity
                leaf = links is None
                if leaf:
                    # a leaf keeps only its parent's chain, from which its
                    # record is derived; rebuilt as a full node from its
                    # literal chain and doubles, it must pass every check
                    # below with no children
                    links = gcd_drop_chain(S)
                    assert list(_walk_records([[node]])) == [(mask, [n for n, _ in links])], S
                    node = mask, links, doubles = mask, links, literal_doubles
                assert links == gcd_drop_chain(S)
                assert doubles == literal_doubles, S
                if links:
                    # the leaf rule splits off exactly the nodes whose
                    # candidate range is empty, the root's children included
                    lo, hi = candidate_range(f, links)
                    assert (hi <= lo) == leaf, S
                kept = set()
                probe = _FirstLink(f)
                for child, child_links, child_last in _expand(f, [node], probe):
                    x = (child ^ mask).bit_length() - 1
                    assert child == mask | 1 << x
                    if child_links is None:
                        # a leaf keeps its parent's chain; its record is
                        # checked when the walk reaches it
                        assert child_last == links
                    else:
                        assert child_links == gcd_drop_chain(NumericalSemigroup._raw(f, child))
                    kept.add(x)
                if links:
                    # the node looks up the literal B, and the union of its
                    # multiples is the literal first link
                    b = sum(1 << g for g in range(1, m) if m % g == 0 and m + g in S)
                    want = sum(1 << x for x in range(1, m) if m + gcd(x, m) in S)
                    assert set(probe) <= {b}, S
                    assert probe[b] & (1 << m) - 1 == want, S
                for x in S.special_gaps():
                    if x < m and x != f:
                        want = extension_is_saturated(S, x)
                        assert want == S.adjoin(x).is_saturated()
                        assert (x in kept) == want, (S, x)
                        kept.discard(x)
                assert not kept, S
            layer = _expand(f, layer, table)


def test_walk_records_are_the_minimal_systems():
    # every node's record, a leaf's derived from its parent's links, lists
    # the members at which its running gcd drops
    for f in [*range(1, 61), 83, 101, 150]:
        for mask, system in _walk_records(_walk(f)):
            assert system == _drops(f, mask & _small_window(f)), (f, mask)


def test_multiples_and_divisors_are_literal():
    for g in range(1, 201):
        for stop in range(201):
            want = sum(1 << x for x in range(g, stop, g))
            assert _multiples(g, stop) == want, (g, stop)
    table = _FirstLink(120)
    for m in range(2, 121):
        divisors = [g for g in range(1, m) if m % g == 0]
        assert table.divisors(m) == sum(1 << g for g in divisors)


def reference_layers(f):
    layer = [ordinary(f + 1)]
    while layer:
        yield layer
        children = []
        for S in layer:
            m = S.multiplicity
            for x in S.special_gaps():
                if x < m and x != f and extension_is_saturated(S, x):
                    children.append(NumericalSemigroup._raw(f, S._mask | 1 << x))
        layer = sorted(children, key=lambda S: S.nonzero_small_elements())


@pytest.mark.parametrize("f", [83, 101])
def test_walk_equals_reference_walk(f):
    walk = iter_layers(f)
    for depth, want in enumerate(reference_layers(f)):
        assert next(walk) == want, depth
    assert next(walk, None) is None


def failing_expand(*args):
    assert not gc.isenabled()
    raise RuntimeError("search failed")


def failing_grow(*args):
    # a generator, as rank_enum._grow is: its body runs as the list is built
    assert not gc.isenabled()
    raise RuntimeError("search failed")
    yield


@pytest.mark.parametrize(
    "build, search, failing_search",
    [
        (partial(enumerate_sat, 40), "satsemi.tree._expand", failing_expand),
        (partial(enumerate_sat_genus, 40, 30), "satsemi.tree._expand", failing_expand),
        (partial(enumerate_rank, 60, 3), "satsemi.rank_enum._grow", failing_grow),
    ],
    ids=["enumerate_sat", "enumerate_sat_genus", "enumerate_rank"],
)
def test_builders_pause_the_collector_only_while_they_build(
    monkeypatch, build, search, failing_search
):
    # the collector is on again after a return and after a raise, and a
    # caller's disabled collector stays disabled
    assert build()
    assert gc.isenabled()
    monkeypatch.setattr(search, failing_search)
    with pytest.raises(RuntimeError, match="search failed"):
        build()
    assert gc.isenabled()
    monkeypatch.undo()
    gc.disable()
    try:
        assert build()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_iter_layers_leaves_the_collector_on_between_layers():
    # a generator's caller runs between its items, so no pause spans them
    layers = iter_layers(40)
    next(layers)
    assert gc.isenabled()
    assert next(layers)
    assert gc.isenabled()


def test_iter_sat_streams_the_family_and_leaves_the_collector_on():
    # member for member the list that enumerate_sat builds, and, as a
    # generator, it never pauses the collector, so stopping it partway
    # leaves the collector on
    for f in range(1, 41):
        members = enumerate_sat(f)
        streamed = list(iter_sat(f))
        assert streamed == members, f
        assert all(type(S) is NumericalSemigroup for S in streamed), f
    members = iter_sat(40)
    for _ in range(100):
        next(members)
        assert gc.isenabled()
    members.close()
    assert gc.isenabled()


def test_every_library_builder_returns_plain_members():
    # each list the library returns holds NumericalSemigroup itself, with
    # the given F and a bitmap that the validating constructor accepts
    for f in (1, 2, 12, 30):
        built = {
            "iter_layers": [S for layer in iter_layers(f) for S in layer],
            "enumerate_sat": enumerate_sat(f),
            "enumerate_sat_genus": [
                S for g in range(f + 2) for S in enumerate_sat_genus(f, g)
            ],
            "enumerate_rank": [S for p in range(6) for S in enumerate_rank(f, p)],
            "maximal_elements": maximal_elements(f),
        }
        for name, members in built.items():
            assert members, (f, name)
            for S in members:
                assert type(S) is NumericalSemigroup, (f, name)
                assert S.frobenius == f, (f, name)
                assert S == NumericalSemigroup(f, S._mask), (f, name)
