"""The multiset order on naturals that the termination measure decreases in.

The measure itself, the multiset of the levels of the outputs of a process
not under replication, comes out of the checker's typing walk together with
the weight (`checker.derive`); it is re-exported here and, like the weight,
is defined on well-typed processes only.
"""

from __future__ import annotations

from .checker import Multiset, as_multiset, measure

__all__ = ["Multiset", "as_multiset", "format_multiset", "measure", "multiset_greater"]


def multiset_greater(m1: Multiset, m2: Multiset) -> bool:
    """Strict multiset extension of > on naturals: m1 > m2. On a total order
    it is the lexicographic order of the two multisets sorted in descending
    order, a proper prefix being the smaller."""
    return sorted(m1, reverse=True) > sorted(m2, reverse=True)


def format_multiset(m: Multiset) -> str:
    return "{" + ", ".join(str(k) for k in m) + "}"
