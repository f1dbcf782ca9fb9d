"""Connected induced subtrees of a hypertree and their matching polynomials.

In a hypertree every connected edge subset F is induced-closed: no edge
outside F can lie inside the vertex union of F without closing a cycle.
Connected edge subsets therefore correspond one-to-one with connected
induced subtrees having at least one edge, which is exactly the family
whose polynomial roots assemble the set spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import UniformHypergraph, hypertree_walk, induced, vertex_union
from .errors import CatalogTooLarge
from .matching import AlphaPolynomial, MatchingCounts, convolve, fold_edge
from .matching import poly_to_json, to_alpha_poly

DEFAULT_MAX_SUBSETS = 10**6


@dataclass(frozen=True, slots=True)
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


def _subtree_counts(
    H: UniformHypergraph, max_subsets: int
) -> list[tuple[EdgeSubset, tuple[int, ...]]]:
    """Every nonempty connected edge subset of H with its matching counts,
    in (size, indices) order.

    Each component is rooted at its smallest vertex (``hypertree_walk``),
    and every connected subset has exactly one top vertex, the one
    nearest the root.  Visiting vertices leaves first, vertex v keeps
    one state (edge mask, A, B) per subset topped at v, starting from
    the empty state.  Folding in a child edge e appends every old state
    joined with every option for e: e itself together with one state,
    possibly empty, per child, joined by ``matching.fold_edge`` as in
    ``matching_counts_tree``.  So each subset is built once, by one
    fold step from smaller ones.

    Subsets topped at v number T(v) - 1, where T(v) is the product over
    v's child edges of 1 + the product of the children's T.  That count
    is checked against ``max_subsets`` before any state is built.
    NotAHypertree, from the walk, unless H is one.
    """
    order, children = hypertree_walk(H)
    tops = [1] * (H.n + 1)  # T(v), the empty subset included
    for v in reversed(order):
        for _, kids in children[v]:
            tops[v] *= 1 + math.prod(tops[c] for c in kids)
    total = sum(tops) - len(tops)
    if total > max_subsets:
        raise CatalogTooLarge(
            f"more than {max_subsets} connected edge subsets: "
            f"the host has {total}"
        )
    # one tuple per distinct count list, shared by all subsets having it
    interned: dict[tuple[int, ...], tuple[int, ...]] = {}

    def join(state, option):
        a, b = fold_edge(state[1], state[2], option[1], option[2])
        a = tuple(a)
        return state[0] | option[0], interned.setdefault(a, a), b

    states: list = [None] * (H.n + 1)
    found = []
    for v in reversed(order):
        top = [(0, (1,), (1,))]
        for i, kids in children[v]:
            options = [(1 << i, (1,), (1,))]
            for c in kids:
                options = [
                    (mask | mc, convolve(pa, a), convolve(pb, b))
                    for mask, pa, pb in options
                    for mc, a, b in states[c]
                ]
                states[c] = None
            top += [join(state, option) for state in top for option in options]
        states[v] = top
        found += [(mask, a) for mask, a, _ in top[1:]]
    # the last states go before the EdgeSubsets come, which lowers the peak
    del states, top
    for j, (mask, a) in enumerate(found):
        found[j] = EdgeSubset.from_mask(mask), a
    found.sort(key=lambda sc: (len(sc[0]), sc[0].indices))
    return found


def connected_edge_subsets(
    H: UniformHypergraph, max_subsets: int = DEFAULT_MAX_SUBSETS
) -> list[EdgeSubset]:
    """All nonempty edge subsets forming a connected sub-hypergraph, in
    (size, indices) order.

    Each subset is built once from its top vertex by the leaf-to-root
    fold of ``_subtree_counts``; no vertex subset scan is involved.
    CatalogTooLarge when there are more than ``max_subsets``, raised
    from an up-front count before any subset is built.
    """
    return [s for s, _ in _subtree_counts(H, max_subsets)]


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


def distinct_matching_polynomials(
    H: UniformHypergraph, max_subsets: int = DEFAULT_MAX_SUBSETS
) -> SubtreeCatalog:
    """Catalog every connected induced subtree with its matching polynomial.

    The leaf-to-root fold of ``_subtree_counts`` builds each connected
    edge subset once, from its top vertex, together with its matching
    counts, so the catalog's cost follows its size, which is exponential
    in m on bushy trees and quadratic on loose paths.  The count tuple
    is the dedup key: it and the alpha polynomial determine each other,
    so each distinct tuple is converted once.  CatalogTooLarge, from an
    up-front count, when there are more than ``max_subsets`` subsets.
    Vertex-only subtrees (polynomial 1, no roots) are not represented.
    """
    found = _subtree_counts(H, max_subsets)
    poly = {c: to_alpha_poly(MatchingCounts(c)) for c in {c for _, c in found}}
    order = sorted(poly, key=lambda c: (poly[c].degree, poly[c].coeffs))
    rank = {c: i for i, c in enumerate(order)}
    return SubtreeCatalog(
        host=H,
        subsets=tuple(s for s, _ in found),
        polys=tuple(poly[c] for c in order),
        poly_of_subset=tuple(rank[c] for _, c in found),
    )
