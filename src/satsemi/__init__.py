"""Saturated numerical semigroups with a fixed Frobenius number.

A numerical semigroup S is saturated when every nonzero member s admits
s + gcd(members of S up to s) back in S.  For a fixed Frobenius number F
this package enumerates all saturated semigroups (as a rooted tree walked
breadth first), slices them by genus, lists the inclusion-maximal ones,
computes least saturated extensions of finite sets and the matching
unique minimal generating systems, and enumerates members by rank.  A
brute-force subset oracle (``satsemi.oracle``) cross-validates every fast
path at small F.

The package exports the names of the README quick start, ``feasible_rank``,
the return types ``SatFSet`` and ``AperyTable``, and the errors; everything
else is imported from its own module.
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
from .extremal import maximal_elements, min_genus
from .rank_enum import enumerate_rank, feasible_rank
from .satsets import SatFSet, closure, minimal_system, rank
from .semigroup import AperyTable, NumericalSemigroup, ordinary
from .tree import enumerate_sat, enumerate_sat_genus

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
    "ResidueClassMissing",
    "SatFSet",
    "SemigroupError",
    "TooLarge",
    "WouldChangeFrobenius",
    "WrongFrobenius",
    "closure",
    "enumerate_rank",
    "enumerate_sat",
    "enumerate_sat_genus",
    "feasible_rank",
    "maximal_elements",
    "min_genus",
    "minimal_system",
    "ordinary",
    "rank",
]
