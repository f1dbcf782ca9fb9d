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
from operator import getitem

from .core import UniformHypergraph, hypertree_walk, induced, vertex_union
from .errors import CatalogTooLarge, ValidationError
from .matching import AlphaPolynomial, poly_to_json

DEFAULT_MAX_SUBSETS = 10**6


def _require_max_subsets(max_subsets: int) -> None:
    """ValidationError unless ``max_subsets`` is an int >= 1 (not a bool)."""
    if (
        isinstance(max_subsets, bool)
        or not isinstance(max_subsets, int)
        or max_subsets < 1
    ):
        raise ValidationError(
            f"max_subsets must be an int >= 1, got {max_subsets!r}"
        )


@dataclass(frozen=True, slots=True)
class EdgeSubset:
    """Sorted indices into the host hypertree's canonical edge list."""

    indices: tuple[int, ...]

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

    def to_json_dict(self) -> dict:
        """Each distinct polynomial's JSON form is built once and shared
        by every subset that has it."""
        forms = [poly_to_json(p) for p in self.polys]
        return {
            "subtrees": [
                {"edges": list(s.indices), "phi_alpha": forms[p]}
                for s, p in zip(self.subsets, self.poly_of_subset)
            ],
            "distinct_polys": forms,
        }


def _fold(H: UniformHypergraph, max_states: int, masks: bool):
    """Yield, for each vertex v of H's ``hypertree_walk``, leaves first,
    the set of packed (A, B, mask) states of the edge subsets topped at
    v, the empty subset's (1, 1, 0) included.  NotAHypertree, from the
    walk, unless H is one.

    Each component is rooted at its smallest vertex, and every connected
    subset has exactly one top vertex, the one nearest the root.  Vertex
    v starts from the empty state.  Folding in a child edge e joins
    every old state with every option for e: e itself together with one
    state, possibly empty, per child of e.  A and B count the matchings
    of the subset below v, all of them and those leaving v uncovered.

    Each count list is packed into one int, slot i holding the number
    of i-matchings in bits [i*w, (i+1)*w) with w = m + 1.  A join is
    then A' = sa*pa + (sb*pb << w), B' = sb*pa, mask' = sm | pm, and the
    products over an edge's children are int multiplies.  Slots never
    carry: every coefficient of every product and sum counts the
    i-matchings of a subforest of H, which is at most C(m, i) <= 2^m <
    2^w.  Ints also hash cheaply, which makes the per-vertex sets cheap.

    With ``masks``, each option for e starts with mask 1 << (m - 1 - e),
    so edge e holds bit m - 1 - e (``_subtree_counts`` says why), no two
    subsets share a state, and v's set holds one state per subset topped
    at v: each subset is built once, by one join from smaller ones.
    Without, every mask is 0 and v keeps only the distinct (A, B) states:
    two subsets with equal (A, B) give equal states after every later
    join, so the nontrivial A over all vertices are still exactly the
    catalog's count lists.  The cost then follows the number of distinct
    states: m nonempty ones at the centre of ``star(m, k)``, which has
    2^m - 1 subsets, about m^2 / 2 on loose paths, and still exponential
    where the distinct polynomials are.

    CatalogTooLarge, naming the edge being folded, as soon as the
    distinct nonempty states built so far pass ``max_states``.  They are
    counted after each row of a product, so no set outgrows the cap by
    more than one row.  A child edge's set of options counts too: each
    option gives the edge a distinct nonempty state, so options past the
    cap mean states past it, and the early refusal never turns away a
    host whose states fit.  Each vertex's set is dropped once its parent
    has read it.
    """
    order, children = hypertree_walk(H)
    w = H.m + 1
    states: list = [None] * (H.n + 1)
    built = 0

    def refuse(i):
        return CatalogTooLarge(
            f"more than {max_states} distinct (A, B) states, "
            f"refused while folding edge {list(H.edges[i])}"
        )

    for v in reversed(order):
        top = {(1, 1, 0)}
        room = max_states - built + 1  # top's size limit, (1, 1, 0) included
        for i, kids in children[v]:
            options = {(1, 1, 1 << (H.m - 1 - i) if masks else 0)}
            for c in kids:
                grown = set()
                for pa, pb, pm in options:
                    grown.update([(pa * a, pb * b, pm | m) for a, b, m in states[c]])
                    if len(grown) > max_states:
                        raise refuse(i)
                options = grown
                states[c] = None
            old = tuple(top)
            for pa, pb, pm in options:
                top.update(
                    [(sa * pa + (sb * pb << w), sb * pa, sm | pm) for sa, sb, sm in old]
                )
                if len(top) > room:
                    raise refuse(i)
        built += len(top) - 1
        states[v] = top
        yield top


def _ranked_polys(packed: set[int], w: int) -> list[tuple[int, AlphaPolynomial]]:
    """Each packed A count list of ``_fold`` (slots of w bits) with its
    alpha polynomial, sorted by (degree, coefficients).

    Slot i holds the number of i-matchings, and the coefficient of
    alpha^(d - i) is (-1)^i times it, so the signed slots reversed are
    the little-endian coefficients, built straight from the int with no
    ``MatchingCounts`` round trip.  ValidationError, as ``MatchingCounts``
    raises it, unless slot 0 holds 1; the top slot is nonzero by
    construction, and ``AlphaPolynomial`` checks its lead.  Equal lengths
    mean equal degrees, so (length, coefficients) is the same order.
    """
    slot = (1 << w) - 1
    ranked = []
    for a in packed:
        if a & slot != 1:
            raise ValidationError("matching counts must start with counts[0] = 1")
        coeffs = []
        rest = a
        neg = False
        while rest:
            c = rest & slot
            coeffs.append(-c if neg else c)
            neg = not neg
            rest >>= w
        coeffs.reverse()
        ranked.append((a, AlphaPolynomial(tuple(coeffs))))
    ranked.sort(key=lambda ap: (len(ap[1].coeffs), ap[1].coeffs))
    return ranked


def _subtree_counts(
    H: UniformHypergraph, max_subsets: int
) -> list[tuple[EdgeSubset, int]]:
    """Every nonempty connected edge subset of H with its packed A count
    list from ``_fold``, in (size, indices) order.

    That order is one int sort of the fold's masks.  Take two subsets
    of one size: the first index where their sorted tuples differ lies
    in the one that comes first, and it is the smallest index of their
    symmetric difference.  Edge e holds bit m - 1 - e, so that index
    holds the highest bit where the masks differ, and (indices) order is
    descending mask order: at m = 4, {0, 3} has mask 9 and precedes
    {1, 2}, mask 6.  The key (popcount << m) - mask orders by size, then
    so.  Each mask is decoded into its EdgeSubset once, after the sort,
    by per-byte tables: with width = ceil(m / 8) bytes, table j (highest
    byte first) maps each byte value to the ascending edge indices its
    set bits stand for, so the indices are the concatenation of
    ``table[b]`` over the mask's big-endian bytes.  The highest byte
    holds the r = m - 8 (width - 1) lowest edges, so its table has only
    the 2^r values they can make.

    Subsets topped at v number T(v) - 1, where T(v) is the product over
    v's child edges of 1 + the product of the children's T.  That count
    is checked against ``max_subsets`` before any state is built, so the
    fold itself never reaches its cap.  NotAHypertree, from the walk,
    unless H is one.
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
    m = H.m
    fold = _fold(H, max_subsets, True)
    found = [(mask, a) for top in fold for a, _, mask in top if mask]
    found.sort(key=lambda ma: (ma[0].bit_count() << m) - ma[0])
    # the fold's states are gone before the EdgeSubsets come, which lowers the peak
    width = (m + 7) // 8
    tables = []
    for j in range(width):
        # bit t of byte j is mask bit 8 * (width - 1 - j) + t, so edge base - t
        base = m - 1 - 8 * (width - 1 - j)
        table = [()]
        for t in range(min(8, base + 1)):  # no edge below 0
            # the byte values below 2^(t+1) with bit t set, in order; their
            # edge base - t is the smallest of each, so it comes first
            table += [(base - t,) + rest for rest in table]
        tables.append(table)
    for j, (mask, a) in enumerate(found):
        indices = sum(map(getitem, tables, mask.to_bytes(width, "big")), ())
        found[j] = EdgeSubset(indices), a
    return found


def _distinct_polys(
    H: UniformHypergraph, max_states: int
) -> tuple[AlphaPolynomial, ...]:
    """``distinct_matching_polynomials(H).polys``, without listing subsets:
    the maskless ``_fold``, capped at ``max_states`` distinct nonempty
    (A, B) states.  No state records the subset that realized it.
    """
    found = {a for top in _fold(H, max_states, False) for a, _, _ in top}
    found.discard(1)
    return tuple(p for _, p in _ranked_polys(found, H.m + 1))


def subtree_hypergraph(H: UniformHypergraph, F: EdgeSubset) -> UniformHypergraph:
    """The connected induced subtree carried by F, relabeled to 1..|U|."""
    return induced(H, vertex_union(H, F.indices))


def distinct_matching_polynomials(
    H: UniformHypergraph, max_subsets: int = DEFAULT_MAX_SUBSETS
) -> SubtreeCatalog:
    """Catalog every connected induced subtree with its matching polynomial.

    The leaf-to-root ``_fold``, with edge masks, builds each connected
    edge subset once, from its top vertex, together with its packed
    matching counts, so the catalog's cost follows its size, which is
    exponential in m on bushy trees and quadratic on loose paths.  The
    packed count list is the dedup key: it and the alpha polynomial
    determine each other, so each distinct one is converted once.
    ``subsets`` come in (size, indices) order, from one int sort of the
    fold's bit-reversed edge masks (see ``_subtree_counts``).
    ValidationError unless ``max_subsets`` is an int >= 1 (not a bool);
    CatalogTooLarge, from an up-front count, when there are more than
    ``max_subsets`` subsets.  Vertex-only subtrees (polynomial 1, no
    roots) are not represented.
    """
    _require_max_subsets(max_subsets)
    found = _subtree_counts(H, max_subsets)
    ranked = _ranked_polys({a for _, a in found}, H.m + 1)
    rank = {a: j for j, (a, _) in enumerate(ranked)}
    return SubtreeCatalog(
        host=H,
        subsets=tuple(s for s, _ in found),
        polys=tuple(p for _, p in ranked),
        poly_of_subset=tuple(rank[a] for _, a in found),
    )
