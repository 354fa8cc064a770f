"""Saturated numerical semigroups with a fixed Frobenius number.

A numerical semigroup S is saturated when every nonzero member s admits
s + gcd(members of S up to s) back in S.  For a fixed Frobenius number F
this package enumerates all saturated semigroups (as a rooted tree walked
breadth first), slices them by genus, lists the inclusion-maximal ones,
computes least saturated extensions of finite sets and the matching
unique minimal generating systems, and enumerates members by rank.  A
brute-force subset oracle cross-validates every fast path at small F.
"""

from .errors import (
    FrobeniusViolated,
    GcdNotOne,
    NotAMember,
    NotASatFSet,
    NotASatSequence,
    NotClosed,
    NotRepresentable,
    NotSaturated,
    PreconditionViolated,
    ResidueClassMissing,
    SemigroupError,
    TooLarge,
    WouldChangeFrobenius,
    WrongFrobenius,
)
from .extremal import (
    least_non_divisor,
    maximal_elements,
    min_genus,
    minimal_non_divisors,
    non_divisors,
    tooth,
)
from .oracle import Report, brute_force_sat, check_all
from .rank_enum import (
    coefficient_tuples,
    enumerate_rank,
    feasible_rank,
    is_sat_sequence,
    list_sequences,
    witness_generators,
    witness_to_semigroup,
)
from .satsets import (
    SatFSet,
    closure,
    is_minimal_system,
    is_sat_set,
    minimal_system,
    rank,
)
from .semigroup import AperyTable, NumericalSemigroup, ordinary
from .tree import (
    chain,
    child_msg,
    enumerate_sat,
    enumerate_sat_genus,
    extension_is_saturated,
    iter_layers,
    iter_sat,
    special_gaps_from_msg,
)

__version__ = "0.1.0"

__all__ = [
    "AperyTable",
    "FrobeniusViolated",
    "GcdNotOne",
    "NotAMember",
    "NotASatFSet",
    "NotASatSequence",
    "NotClosed",
    "NotRepresentable",
    "NotSaturated",
    "NumericalSemigroup",
    "PreconditionViolated",
    "Report",
    "ResidueClassMissing",
    "SatFSet",
    "SemigroupError",
    "TooLarge",
    "WouldChangeFrobenius",
    "WrongFrobenius",
    "brute_force_sat",
    "chain",
    "check_all",
    "child_msg",
    "closure",
    "coefficient_tuples",
    "enumerate_rank",
    "enumerate_sat",
    "enumerate_sat_genus",
    "extension_is_saturated",
    "feasible_rank",
    "is_minimal_system",
    "is_sat_sequence",
    "is_sat_set",
    "iter_layers",
    "iter_sat",
    "least_non_divisor",
    "list_sequences",
    "maximal_elements",
    "min_genus",
    "minimal_non_divisors",
    "minimal_system",
    "non_divisors",
    "ordinary",
    "rank",
    "special_gaps_from_msg",
    "tooth",
    "witness_generators",
    "witness_to_semigroup",
]
