"""The multiset order on naturals that the termination measure decreases in.

The measure itself, the multiset of the levels of the outputs of a process
not under replication, comes out of the checker's typing walk together with
the weight (`checker.derive`); it is re-exported here and, like the weight,
is defined on well-typed processes only.
"""

from __future__ import annotations

from collections import Counter

from .checker import Multiset, as_multiset, measure

__all__ = ["Multiset", "as_multiset", "format_multiset", "measure", "multiset_greater"]


def multiset_greater(m1: Multiset, m2: Multiset) -> bool:
    """Strict multiset extension of > on naturals: m1 > m2."""
    c1, c2 = Counter(m1), Counter(m2)
    common = c1 & c2
    n2 = c1 - common  # what m1 adds over the shared part
    n1 = c2 - common  # what m2 adds over the shared part
    if not n2:
        return False
    top = max(n2)
    return all(e < top for e in n1)


def format_multiset(m: Multiset) -> str:
    return "{" + ", ".join(str(k) for k in m) + "}"
