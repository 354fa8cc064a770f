import gc
import hashlib
import json
import math
from itertools import product
from pathlib import Path

import pytest

from satsemi.errors import NotASatSequence
from satsemi.extremal import tooth
from satsemi.rank_enum import (
    _next_table,
    coefficient_tuples,
    enumerate_rank,
    feasible_rank,
    is_sat_sequence,
    list_sequences,
    witness_generators,
    witness_to_semigroup,
)
from satsemi.satsets import closure, minimal_system
from satsemi.semigroup import NumericalSemigroup, _multiples, ordinary

PINNED = Path(__file__).resolve().parent.parent / "bench" / "pinned.json"


def naive_is_chain(frobenius, ds):
    if not ds or any(d < 1 for d in ds):
        return False
    decreasing = all(a > b for a, b in zip(ds, ds[1:]))
    divides = all(a % b == 0 for a, b in zip(ds, ds[1:]))
    return decreasing and divides and frobenius % ds[-1] != 0


def naive_coefficient_tuples(frobenius, ds):
    bound = frobenius // min(ds) + 1
    out = []
    for ts in product(range(1, bound), repeat=len(ds)):
        if sum(d * t for d, t in zip(ds, ts)) >= frobenius:
            continue
        if all(
            math.gcd(a // b, t) == 1 for a, b, t in zip(ds, ds[1:], ts[1:])
        ):
            out.append(ts)
    return sorted(out)


def test_is_sat_sequence_cases():
    assert is_sat_sequence(7, (4, 2))
    assert is_sat_sequence(7, (6, 2))
    assert is_sat_sequence(7, (6, 3))
    assert is_sat_sequence(8, (6, 3))
    assert not is_sat_sequence(8, (4, 2))  # 2 divides 8
    assert not is_sat_sequence(7, (2, 4))  # increasing
    assert not is_sat_sequence(7, (6, 4))  # 4 does not divide 6
    assert not is_sat_sequence(7, (7,))  # 7 divides 7
    assert not is_sat_sequence(7, ())
    assert is_sat_sequence(7, (4,))


def test_is_sat_sequence_matches_definition():
    for f in (6, 7, 10):
        for p in (1, 2, 3):
            for ds in product(range(1, f + 1), repeat=p):
                assert is_sat_sequence(f, ds) == naive_is_chain(f, ds)


def test_list_sequences_examples():
    assert list_sequences(18, 3) == []
    assert list_sequences(7, 2) == [(4, 2)]
    assert list_sequences(7, 10**12) == []  # refused before 2**p is built
    for f in (5, 9, 12):
        want = [(d,) for d in range(2, f) if f % d]
        assert list_sequences(f, 1) == want


def test_list_sequences_matches_brute_force():
    for f in range(2, 15):
        for p in (1, 2, 3):
            want = sorted(
                ds
                for ds in product(range(1, f), repeat=p)
                if naive_is_chain(f, ds) and sum(ds) < f
            )
            assert list_sequences(f, p) == want


def test_feasible_rank_examples():
    assert not feasible_rank(18, 3)
    assert feasible_rank(7, 2)
    assert feasible_rank(9, 0)
    assert not feasible_rank(7, 10**12)
    with pytest.raises(ValueError):
        feasible_rank(0, 1)
    with pytest.raises(ValueError):
        feasible_rank(7, -1)


def test_feasible_rank_matches_sequences():
    for f in range(1, 17):
        for p in range(1, 6):
            assert feasible_rank(f, p) == bool(list_sequences(f, p))


def test_coefficient_tuples_examples():
    assert coefficient_tuples(7, (4, 2)) == [(1, 1)]
    assert coefficient_tuples(11, (4, 2)) == [(1, 1), (1, 3), (2, 1)]
    assert coefficient_tuples(9, (2,)) == [(1,), (2,), (3,), (4,)]
    assert coefficient_tuples(7, (6, 3)) == []  # the chain alone reaches F
    with pytest.raises(NotASatSequence):
        coefficient_tuples(8, (4, 2))


def test_coefficient_tuples_match_brute_force():
    for f in range(2, 15):
        for p in (1, 2, 3):
            for ds in list_sequences(f, p):
                assert coefficient_tuples(f, ds) == naive_coefficient_tuples(f, ds)


def test_all_ones_tuple_always_present():
    # the chain itself, summed, is always a usable witness
    for f in (7, 11, 13, 16):
        for p in (1, 2, 3):
            for ds in list_sequences(f, p):
                assert tuple([1] * p) in coefficient_tuples(f, ds)
                gens = witness_generators(ds, [1] * p)
                assert minimal_system(closure(f, gens)).elements == gens


def test_witness_generators():
    assert witness_generators((4, 2), (1, 1)) == (4, 6)
    assert witness_generators((8, 4, 2), (1, 5, 7)) == (8, 28, 42)
    assert witness_generators((5,), (3,)) == (5,)


def test_witness_to_semigroup_examples(du):
    assert witness_to_semigroup(7, (4, 2), (1, 1)) == du(7, 4, 6)
    assert witness_to_semigroup(51, (8, 4, 2), (1, 5, 7)) == closure(
        51, [8, 28, 42]
    )
    for d in (2, 3, 4, 5, 6):
        assert witness_to_semigroup(7, (d,), (1,)) == tooth(d, 8)


def test_witness_to_semigroup_validation():
    with pytest.raises(NotASatSequence):
        witness_to_semigroup(8, (4, 2), (1, 1))
    with pytest.raises(ValueError):
        witness_to_semigroup(7, (4, 2), (1,))
    with pytest.raises(ValueError):
        witness_to_semigroup(7, (4, 2), (1, 0))
    with pytest.raises(ValueError):
        witness_to_semigroup(7, (4, 2), (1, 2))  # shares a factor with 4/2
    with pytest.raises(ValueError):
        witness_to_semigroup(7, (4, 2), (2, 1))  # weighted sum reaches 10 >= 7


def test_witness_semigroups_have_expected_rank():
    for f in (7, 11, 12):
        for p in (1, 2, 3):
            for ds in list_sequences(f, p):
                for ts in coefficient_tuples(f, ds):
                    S = witness_to_semigroup(f, ds, ts)
                    system = minimal_system(S).elements
                    assert system == witness_generators(ds, ts)
                    assert len(system) == p
                    g = 0
                    for n, d in zip(system, ds):
                        g = math.gcd(g, n)
                        assert g == d


def test_distinct_witnesses_can_collide():
    # why enumerate_rank keeps only t1 = 1: amounts moved between the
    # first two coefficients leave all partial sums unchanged
    a = witness_to_semigroup(11, (4, 2), (1, 3))
    b = witness_to_semigroup(11, (4, 2), (2, 1))
    assert a == b


def test_leading_coefficient_one_witnesses_biject():
    # restricted to t1 = 1 the parametrization hits every member of the
    # rank class exactly once
    for f in (7, 11, 13):
        for p in (1, 2, 3):
            canonical = {}
            for ds in list_sequences(f, p):
                for ts in coefficient_tuples(f, ds):
                    if ts[0] != 1:
                        continue
                    S = witness_to_semigroup(f, ds, ts)
                    assert S not in canonical, (f, ds, ts, canonical[S])
                    canonical[S] = (ds, ts)
            assert set(canonical) == set(enumerate_rank(f, p))


def test_enumerate_rank_examples(du):
    assert enumerate_rank(7, 2) == [du(7, 4, 6)]
    assert enumerate_rank(18, 3) == []
    assert enumerate_rank(7, 10**12) == []
    assert enumerate_rank(7, 0) == [ordinary(8)]
    assert set(enumerate_rank(7, 1)) == {tooth(m, 8) for m in (2, 3, 4, 5, 6)}
    with pytest.raises(ValueError):
        enumerate_rank(0, 1)


def test_enumerate_rank_partitions_family(corpus):
    for f in range(1, 13):
        family = set(corpus(f))
        seen = {}
        p = 0
        while True:
            members = enumerate_rank(f, p)
            assert len(members) == len(set(members))
            if p >= 1:
                assert feasible_rank(f, p) == bool(members)
                if not members:
                    break
            for S in members:
                assert S not in seen
                seen[S] = p
            p += 1
        assert set(seen) == family


def reference_rank_class(frobenius, p):
    # every t1 = 1 witness, its progressions ORed into a bitmap, then sorted
    members = []
    for ds in list_sequences(frobenius, p):
        for ts in coefficient_tuples(frobenius, ds):
            if ts[0] != 1:
                continue
            gens = witness_generators(ds, ts)
            mask = 1 | (1 << (frobenius + 1))
            for n, d, end in zip(gens, ds, gens[1:] + (frobenius,)):
                mask |= sum(1 << x for x in range(n, end, d))
            members.append(NumericalSemigroup._raw(frobenius, mask))
    return sorted(members, key=lambda S: S.nonzero_small_elements())


def test_enumerate_rank_matches_witness_reference():
    for f in [*range(1, 61), 101, 150]:
        p = 1
        while True:
            members = enumerate_rank(f, p)
            assert members == reference_rank_class(f, p), (f, p)
            if not members:
                break
            p += 1


def reference_next_table(frobenius, p, mult):
    # each row entry ORs, over the proper divisors 1 < g < d of d listed
    # per d, the multiples of g below bound[g]
    F = frobenius
    divisors = [[] for _ in range(F)]
    for g in range(2, F):
        for d in range(2 * g, F, g):
            divisors[d].append(g)
    bound = [F if d and F % d else 0 for d in range(F)]
    rows = [[]]
    for _ in range(p - 1):
        row = []
        for d, gs in enumerate(divisors):
            acc = 0
            for g in gs:
                b = bound[g]
                if b > g:
                    acc |= mult[g] & ((1 << b) - 1)
            row.append(acc & ~mult[d])
        rows.append(row)
        bound = [nexts.bit_length() - 1 for nexts in row]
    first = sum(1 << d for d in range(2, F) if d < bound[d])
    rows.append([first])
    return rows


def test_next_table_matches_divisor_reference():
    # a row letting in a generator that cannot complete would only add a
    # dead branch, which no listed member shows
    for f in [*range(1, 61), 101, 150, 199]:
        mult = [0] + [_multiples(g, f) for g in range(1, f)]
        for p in range(1, 7):
            assert _next_table(f, p, mult) == reference_next_table(f, p, mult), (f, p)
    # the first row alone, far past the F above; at p = 1 neither reads mult
    for f in (1024, 1025, 20000):
        assert _next_table(f, 1, []) == reference_next_table(f, 1, []), f


def test_rank_one_at_large_frobenius_is_one_closure_per_non_divisor():
    # the root's last progressions, and shift cuts around byte boundaries,
    # far above the F the witness reference reaches
    for f in (1000, 1023, 1024, 1025):
        want = [closure(f, [m]) for m in range(2, f) if f % m]
        assert enumerate_rank(f, 1) == want, f


def test_enumerate_rank_leaves_no_garbage_cycle():
    # a search function that calls itself as a closure would hold the
    # result list in a reference cycle, which only the cyclic collector
    # frees, and that raises peak memory
    gc.collect()
    gc.disable()
    try:
        # the root leaf (p = 1), per-state tails (p = 2), shared tails (p >= 3)
        for p in (1, 2, 3, 4):
            enumerate_rank(101, p)
            assert gc.collect() == 0, p
    finally:
        gc.enable()


def pinned_rank_digest(frobenius, max_rank):
    # restates bench/workloads.rank_digest: for each p, a SHA-256 over one
    # line of nonzero small elements per member, then one SHA-256 over the
    # lines "p:count:digest"
    outer = hashlib.sha256()
    total = 0
    for p in range(max_rank + 1):
        members = enumerate_rank(frobenius, p)
        inner = hashlib.sha256()
        for S in members:
            inner.update(",".join(map(str, S.nonzero_small_elements())).encode())
            inner.update(b"\n")
        outer.update(f"{p}:{len(members)}:{inner.hexdigest()}\n".encode())
        total += len(members)
    return outer.hexdigest(), total


def test_rank_matches_pinned_benchmark_digest():
    # one input of the benchmark's rank workload per parity of F, above
    # the F <= 150 that the witness reference covers, against its pin
    pinned = json.loads(PINNED.read_text())["rank"]
    for f in (109, 198):
        entry = pinned[str(f)]
        got = pinned_rank_digest(f, entry["max_rank"])
        assert got == (entry["sha256"], entry["members"]), f
