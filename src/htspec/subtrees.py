"""Connected induced subtrees of a hypertree and their matching polynomials.

In a hypertree every connected edge subset F is induced-closed: no edge
outside F can lie inside the vertex union of F without closing a cycle.
Connected edge subsets therefore correspond one-to-one with connected
induced subtrees having at least one edge, which is exactly the family
whose polynomial roots assemble the set spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .core import (
    UniformHypergraph,
    edge_adjacency_masks,
    induced,
    is_hypertree,
    vertex_union,
)
from .errors import CatalogTooLarge, NotAHypertree
from .matching import AlphaPolynomial, MatchingCounts, add_shifted, convolve
from .matching import poly_to_json, to_alpha_poly

DEFAULT_MAX_SUBSETS = 10**6


@dataclass(frozen=True)
class EdgeSubset:
    """Sorted indices into the host hypertree's canonical edge list."""

    indices: tuple[int, ...]

    @classmethod
    def from_mask(cls, mask: int) -> "EdgeSubset":
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return cls(tuple(out))

    def mask(self) -> int:
        m = 0
        for i in self.indices:
            m |= 1 << i
        return m

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class SubtreeCatalog:
    """All connected edge subsets of a host plus their distinct polynomials.

    ``poly_of_subset[j]`` indexes ``polys`` for subset ``subsets[j]``;
    distinct subtrees sharing a matching polynomial collapse onto the
    same entry.  ``polys`` is sorted by (degree, coefficients), so the
    catalog is deterministic however the per-subset work is scheduled.
    """

    host: UniformHypergraph
    subsets: tuple[EdgeSubset, ...]
    polys: tuple[AlphaPolynomial, ...]
    poly_of_subset: tuple[int, ...]

    def witnesses(self, poly_index: int) -> tuple[int, ...]:
        """Positions in ``subsets`` whose subtree has this polynomial."""
        return tuple(
            j for j, p in enumerate(self.poly_of_subset) if p == poly_index
        )

    def to_json_dict(self) -> dict:
        return {
            "subtrees": [
                {
                    "edges": list(s.indices),
                    "phi_alpha": poly_to_json(self.polys[p]),
                }
                for s, p in zip(self.subsets, self.poly_of_subset)
            ],
            "distinct_polys": [poly_to_json(p) for p in self.polys],
        }


def connected_edge_subsets(
    H: UniformHypergraph, max_subsets: int = DEFAULT_MAX_SUBSETS
) -> list[EdgeSubset]:
    """All nonempty edge subsets forming a connected sub-hypergraph.

    Enumeration grows sets from a minimum-index anchor over the edge
    adjacency structure, visiting each subset exactly once; no vertex
    subset scan is involved.
    """
    if not is_hypertree(H):
        raise NotAHypertree("connected_edge_subsets requires a hypertree")
    if H.m == 0:
        return []
    try:
        masks = kernels.connected_subset_masks(edge_adjacency_masks(H), max_subsets)
    except OverflowError:
        raise CatalogTooLarge(
            f"more than {max_subsets} connected edge subsets"
        ) from None
    subsets = [EdgeSubset.from_mask(mask) for mask in masks]
    subsets.sort(key=lambda s: (len(s), s.indices))
    return subsets


def induced_closure_holds(H: UniformHypergraph, F: EdgeSubset) -> bool:
    """True iff the subgraph induced on F's vertex union has edge set F."""
    members = vertex_union(H, F.indices)
    inside = set(members)
    induced_edges = {
        i for i, e in enumerate(H.edges) if inside.issuperset(e)
    }
    return induced_edges == set(F.indices)


def subtree_hypergraph(H: UniformHypergraph, F: EdgeSubset) -> UniformHypergraph:
    """The connected induced subtree carried by F, relabeled to 1..|U|."""
    return induced(H, vertex_union(H, F.indices))


def _subset_counts(
    subsets: list[EdgeSubset], adj: list[int]
) -> list[tuple[int, ...]]:
    """Matching counts of every subset, each from smaller ones.

    ``subsets`` must hold every connected edge subset of a hypertree in
    (size, indices) order.  A connected F with two or more edges has a
    pendant edge e, whose neighbours in F all share one vertex v of e;
    F - e is connected, and removing e with all its neighbours leaves
    components C that are connected and smaller.  So

        counts(F) = counts(F - e) + x * prod_C counts(C)

    reads only entries already computed, and the memo holds one entry
    per connected subset.
    """
    memo: dict[int, tuple[int, ...]] = {}
    out = []
    for s in subsets:
        mask = s.mask()
        if len(s) == 1:
            counts: tuple[int, ...] = (1, 1)
        else:
            for e in s.indices:
                near = adj[e] & mask
                first = near & -near
                # e is pendant iff its neighbours meet each other (at v)
                if near & ~adj[first.bit_length() - 1] == first:
                    break
            rest = mask & ~(near | 1 << e)
            used = [1]
            while rest:
                comp = reach = rest & -rest
                while reach:
                    bit = reach & -reach
                    reach = (reach ^ bit) | (adj[bit.bit_length() - 1] & rest & ~comp)
                    comp |= reach
                rest &= ~comp
                used = convolve(used, memo[comp])
            counts = tuple(add_shifted(memo[mask & ~(1 << e)], used))
        memo[mask] = counts
        out.append(counts)
    return out


def distinct_matching_polynomials(
    H: UniformHypergraph, max_subsets: int = DEFAULT_MAX_SUBSETS
) -> SubtreeCatalog:
    """Catalog every connected induced subtree with its matching polynomial.

    Matching counts only see the edge subset, so each subset's counts
    come from those of smaller connected subsets of the same host (see
    ``_subset_counts``).  The work is a few bitmask operations and
    convolutions per subset, so the catalog's cost follows its size,
    which is exponential in m on bushy trees and quadratic on paths.
    The count tuple is the dedup key: it and the alpha polynomial
    determine each other, so each distinct tuple is converted once.
    Vertex-only subtrees (polynomial 1, no roots) are not represented.
    """
    subsets = connected_edge_subsets(H, max_subsets)
    counts = _subset_counts(subsets, edge_adjacency_masks(H))
    poly = {c: to_alpha_poly(MatchingCounts(c)) for c in set(counts)}
    order = sorted(poly, key=lambda c: (poly[c].degree, poly[c].coeffs))
    rank = {c: i for i, c in enumerate(order)}
    return SubtreeCatalog(
        host=H,
        subsets=tuple(subsets),
        polys=tuple(poly[c] for c in order),
        poly_of_subset=tuple(rank[c] for c in counts),
    )
