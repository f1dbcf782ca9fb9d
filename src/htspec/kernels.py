"""The brute-force matching oracle, a bitmask backtracking loop.

Masks are plain ints, one bit per edge index, so there is no size limit
beyond the caller's edge limit.  The library's own counts come from the
leaf-to-root recurrence in ``matching``; this loop checks them.
"""

from __future__ import annotations

from typing import Sequence


def count_matchings(conflicts: Sequence[int]) -> list[int]:
    """Count matchings of every size by backtracking over edge indices.

    ``conflicts[i]`` is the bitmask of edges sharing at least one vertex
    with edge ``i``.  Returns ``counts`` of length ``m + 1`` where
    ``counts[s]`` is the number of s-subsets of pairwise disjoint edges
    (``counts[0] == 1``, trailing entries may be zero).

    Each matching is visited exactly once: members are chosen in
    ascending index order, and the candidate mask passed down contains
    only higher indices compatible with everything chosen so far.
    """
    m = len(conflicts)
    counts = [0] * (m + 1)
    counts[0] = 1
    if m == 0:
        return counts

    def rec(avail: int, size: int) -> None:
        while avail:
            bit = avail & -avail
            avail ^= bit
            i = bit.bit_length() - 1
            counts[size + 1] += 1
            rest = avail & ~conflicts[i]
            if rest:
                rec(rest, size + 1)

    rec((1 << m) - 1, 0)
    return counts
