"""Bitmask kernels: subset enumeration and the brute-force matching oracle.

Masks are plain ints, one bit per edge index, so there is no size limit
beyond the caller's caps.
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


def connected_subset_masks(adjacency: Sequence[int], cap: int) -> list[int]:
    """Enumerate all nonempty connected edge subsets as bitmasks.

    ``adjacency[i]`` is the bitmask of edges sharing a vertex with edge
    ``i`` (bit ``i`` itself clear).  Each connected subset is produced
    exactly once, anchored at its minimum edge index: the growth only
    ever adds higher indices, and a per-level forbidden mask stops a
    candidate reappearing through a different extension order.  The
    growth walks an explicit stack of (subset, extension, forbidden)
    frames, so its depth is not bounded by the interpreter's recursion
    limit.

    Raises OverflowError as soon as more than ``cap`` subsets exist.
    """
    out: list[int] = []
    for anchor in range(len(adjacency)):
        allowed = ~((1 << (anchor + 1)) - 1)  # indices strictly above anchor
        out.append(1 << anchor)
        stack = [(1 << anchor, adjacency[anchor] & allowed, 0)]
        while stack:
            if len(out) > cap:
                raise OverflowError("connected subset cap exceeded")
            subset, ext, forbidden = stack[-1]
            if not ext:
                stack.pop()
                continue
            bit = ext & -ext
            ext ^= bit
            stack[-1] = (subset, ext, forbidden | bit)
            fresh = adjacency[bit.bit_length() - 1] & allowed & ~(
                subset | bit | forbidden | ext
            )
            out.append(subset | bit)
            stack.append((subset | bit, ext | fresh, forbidden))
    return out
