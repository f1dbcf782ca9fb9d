"""k-uniform hypergraphs: representation, validation, generators, transforms.

Vertices are labeled 1..n.  Every hypergraph is stored in canonical form
(each edge sorted ascending, edge list sorted lexicographically), so two
equal hypergraphs compare bit-identically and hash consistently.  All
values are immutable after construction.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    DuplicateEdge,
    NonUniformEdge,
    NotAHyperforest,
    NotAHypertree,
    PowerBelowUniformity,
    ValidationError,
    VertexOutOfRange,
)


@dataclass(frozen=True)
class UniformHypergraph:
    """Canonical k-uniform hypergraph on vertices 1..n.

    ``parent_vertices`` is populated by :func:`induced`: entry ``i``
    holds the label, in the graph this one was induced from, of vertex
    ``i + 1`` here.  It is metadata only and excluded from equality.

    The first structural check or tree fold on a host walks it
    (``_walk``), and every later one reads that walk: it stays in the
    instance __dict__, O(n + mk), for as long as the host lives.
    """

    k: int
    n: int
    edges: tuple[tuple[int, ...], ...]
    parent_vertices: tuple[int, ...] | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)

    @cached_property
    def _walked(self) -> tuple[tuple[int, ...], tuple, int, int | None]:
        # in the instance __dict__, not a field, so ==, hash and repr
        # ignore it, and __getstate__ leaves it out of pickles
        return _walk(self)

    def __getstate__(self) -> dict:
        state = dict(vars(self))
        state.pop("_walked", None)
        return state

    def degrees(self) -> list[int]:
        """Vertex degrees, 1-indexed (entry 0 is a dummy)."""
        deg = [0] * (self.n + 1)
        for e in self.edges:
            for v in e:
                deg[v] += 1
        return deg


def build(
    k: int,
    n: int,
    edges: Sequence[Sequence[int]],
    parent_vertices: tuple[int, ...] | None = None,
) -> UniformHypergraph:
    """Validate and canonicalize a k-uniform hypergraph.

    Raises:
        NonUniformEdge: an edge has a number of distinct vertices != k.
        VertexOutOfRange: a vertex label is not an integer (bools are
            not) or lies outside 1..n.
        DuplicateEdge: two edges coincide as sets.
    """
    if k < 2:
        raise ValidationError(f"uniformity k must be >= 2, got {k}")
    if n < 1:
        raise ValidationError(f"vertex count n must be >= 1, got {n}")
    canon: list[tuple[int, ...]] = []
    for e in edges:
        e = tuple(e)
        for v in e:
            if isinstance(v, bool) or not isinstance(v, int):
                raise VertexOutOfRange(f"vertex label {v!r} is not an integer")
        distinct = set(e)
        if len(distinct) != k or len(e) != k:
            raise NonUniformEdge(
                f"edge {sorted(distinct)} has {len(distinct)} distinct "
                f"vertices, expected {k}"
            )
        for v in distinct:
            if v < 1 or v > n:
                raise VertexOutOfRange(f"vertex {v} outside 1..{n}")
        canon.append(tuple(sorted(distinct)))
    canon.sort()
    for a, b in zip(canon, canon[1:]):
        if a == b:
            raise DuplicateEdge(f"edge {list(a)} occurs twice")
    return UniformHypergraph(k, n, tuple(canon), parent_vertices)


def _walk(H: UniformHypergraph) -> tuple[tuple[int, ...], tuple, int, int | None]:
    """(order, children, components, cycle) from the one traversal of
    the incidence structure, which every structural check and fold reads
    through the host's memo, ``UniformHypergraph._walked``.

    Each component is rooted at its smallest vertex, and order lists
    each vertex once, after its parent, depth first without recursion.
    Each edge is taken once, at the first of its vertices visited:
    children[v] holds (edge index, the edge's other vertices) per edge
    taken at v, all ascending (entry 0 is a dummy).  An edge meeting a
    vertex already seen closes a cycle; cycle is the first such edge's
    index, or None.  It is left out of children, but its unseen vertices
    are still visited, or one reached only through it would count as a
    component of its own.  order and children are tuples, so no reader
    can change the memo that the others share.
    """
    incident: list[list[int]] = [[] for _ in range(H.n + 1)]
    for i, e in enumerate(H.edges):
        for v in e:
            incident[v].append(i)
    seen = [False] * (H.n + 1)
    taken = [False] * H.m
    children: list = [()] * (H.n + 1)
    order: list[int] = []
    components, cycle = 0, None
    for root in range(1, H.n + 1):
        if seen[root]:
            continue
        components += 1
        seen[root] = True
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            below = []
            for i in incident[v]:
                if taken[i]:
                    continue
                taken[i] = True
                e = H.edges[i]
                j = e.index(v)
                kids = e[:j] + e[j + 1 :]
                fresh = [c for c in kids if not seen[c]]
                for c in fresh:
                    seen[c] = True
                stack.extend(fresh)
                if len(fresh) == len(kids):
                    below.append((i, kids))
                elif cycle is None:
                    cycle = i
            if below:
                children[v] = tuple(below)
    return tuple(order), tuple(children), components, cycle


def is_connected(H: UniformHypergraph) -> bool:
    """True iff the walk finds one component (an isolated vertex is one)."""
    return H._walked[2] == 1


def is_hyperforest(H: UniformHypergraph) -> bool:
    """True iff the walk meets no cycle: every component is a hypertree."""
    return H._walked[3] is None


def is_hypertree(H: UniformHypergraph) -> bool:
    """True iff the walk finds one component and no cycle."""
    return H._walked[2:] == (1, None)


def rooted_walk(H: UniformHypergraph) -> tuple[tuple[int, ...], tuple]:
    """(order, children) of a hyperforest from ``_walk``, the structural
    check of every tree algorithm: NotAHyperforest, naming the edge,
    when some edge closes a cycle.  It ends on any hypergraph.
    """
    order, children, _, cycle = H._walked
    if cycle is not None:
        raise NotAHyperforest(
            f"not a hyperforest: edge {list(H.edges[cycle])} closes a cycle"
        )
    return order, children


def hypertree_walk(H: UniformHypergraph) -> tuple[tuple[int, ...], tuple]:
    """``rooted_walk`` of a hypertree, for the calls that need one:
    NotAHypertree, naming a cycle-closing edge or the component count,
    otherwise."""
    order, children, components, cycle = H._walked
    if cycle is not None:
        raise NotAHypertree(
            f"not a hypertree: edge {list(H.edges[cycle])} closes a cycle"
        )
    if components > 1:
        raise NotAHypertree(f"not a hypertree: {components} components")
    return order, children


def edge_adjacency_masks(H: UniformHypergraph) -> list[int]:
    """Bitmask per edge of the other edges sharing a vertex with it."""
    at = [0] * (H.n + 1)
    for i, e in enumerate(H.edges):
        for v in e:
            at[v] |= 1 << i
    adj = []
    for i, e in enumerate(H.edges):
        mask = 0
        for v in e:
            mask |= at[v]
        adj.append(mask & ~(1 << i))
    return adj


def induced(H: UniformHypergraph, U: Iterable[int]) -> UniformHypergraph:
    """Induced sub-hypergraph on U, relabeled to 1..|U|.

    Edges are exactly those of H fully contained in U.  The original
    labels are retained in ``parent_vertices`` so eigenvector support
    arguments can map back into H.
    """
    members = tuple(sorted(set(U)))
    if not members:
        raise ValidationError("induced subgraph needs a nonempty vertex set")
    for v in members:
        if v < 1 or v > H.n:
            raise VertexOutOfRange(f"vertex {v} outside 1..{H.n}")
    relabel = {v: i + 1 for i, v in enumerate(members)}
    inside = set(members)
    sub_edges = [
        tuple(relabel[v] for v in e) for e in H.edges if inside.issuperset(e)
    ]
    return build(H.k, len(members), sub_edges, parent_vertices=members)


def vertex_union(H: UniformHypergraph, edge_indices: Iterable[int]) -> tuple[int, ...]:
    """Union of the vertex sets of the given edges of H, sorted."""
    verts: set[int] = set()
    for i in edge_indices:
        verts.update(H.edges[i])
    return tuple(sorted(verts))


# -- generators ------------------------------------------------------------


def loose_path(t: int, k: int) -> UniformHypergraph:
    """Loose path with t edges: consecutive edges share exactly one vertex."""
    if t < 1:
        raise ValidationError("loose_path needs t >= 1")
    edges = [
        tuple(range((i - 1) * (k - 1) + 1, (i - 1) * (k - 1) + k + 1))
        for i in range(1, t + 1)
    ]
    return build(k, t * (k - 1) + 1, edges)


def star(t: int, k: int) -> UniformHypergraph:
    """Star with t edges all sharing vertex 1, otherwise disjoint."""
    if t < 1:
        raise ValidationError("star needs t >= 1")
    edges = []
    nxt = 2
    for _ in range(t):
        edges.append((1,) + tuple(range(nxt, nxt + k - 1)))
        nxt += k - 1
    return build(k, t * (k - 1) + 1, edges)


def comb(k: int) -> UniformHypergraph:
    """The k-comb: spine edge {1..k} plus k pairwise disjoint teeth.

    Tooth i is {i, i+k, ..., i+(k-1)k}; it meets the spine in vertex i
    only.  k*k vertices, k+1 edges.
    """
    if k < 2:
        raise ValidationError("comb needs k >= 2")
    edges = [tuple(range(1, k + 1))]
    for i in range(1, k + 1):
        edges.append(tuple(i + t * k for t in range(k)))
    return build(k, k * k, edges)


def power(G: UniformHypergraph, k: int) -> UniformHypergraph:
    """k-th power: pad every edge with fresh degree-1 vertices up to size k.

    Edge count is unchanged; the vertex count grows by m*(k - G.k).
    ``power(G, G.k)`` is G itself.
    """
    if k < G.k:
        raise PowerBelowUniformity(
            f"cannot lower uniformity: k={k} < base {G.k}"
        )
    if k == G.k:
        return G
    pad = k - G.k
    nxt = G.n
    edges = []
    for e in G.edges:
        edges.append(e + tuple(range(nxt + 1, nxt + pad + 1)))
        nxt += pad
    return build(k, nxt, edges)


def power_obstruction(H: UniformHypergraph) -> int | None:
    """Index of the first edge of H with three or more vertices of
    degree >= 2, or None.

    A hypertree is a power tree exactly when it has no such edge: three
    such vertices carry three mutually disjoint neighbor edges, the
    comb-shaped obstruction (in a hypertree two neighbors through
    distinct vertices cannot meet again without closing a cycle).
    """
    deg = H.degrees()
    return next(
        (i for i, e in enumerate(H.edges) if sum(deg[v] >= 2 for v in e) >= 3),
        None,
    )


def is_power_tree(H: UniformHypergraph) -> bool:
    """True iff H is the power of some 2-uniform tree: a hypertree
    (``hypertree_walk``) without a ``power_obstruction``."""
    hypertree_walk(H)
    return power_obstruction(H) is None


def random_hypertree(
    edge_count: int, k: int, rng: random.Random
) -> UniformHypergraph:
    """Random hypertree grown by attaching pendant edges one at a time.

    Every hypertree arises this way (reverse pendant-edge deletion), so
    the generator spans the whole class, though not uniformly.
    """
    if edge_count < 1:
        raise ValidationError("random_hypertree needs edge_count >= 1")
    n = k
    edges = [tuple(range(1, k + 1))]
    for _ in range(edge_count - 1):
        anchor = rng.randint(1, n)
        edges.append((anchor,) + tuple(range(n + 1, n + k)))
        n += k - 1
    return build(k, n, edges)


# -- canonical JSON file format ---------------------------------------------


def to_json_dict(H: UniformHypergraph) -> dict:
    return {"k": H.k, "n": H.n, "edges": [list(e) for e in H.edges]}


def from_json_dict(obj: object) -> UniformHypergraph:
    """Parse the hypergraph JSON object, canonicalizing unsorted input."""
    if not isinstance(obj, dict):
        raise ValidationError("hypergraph JSON must be an object")
    try:
        k, n, edges = obj["k"], obj["n"], obj["edges"]
    except KeyError as missing:
        raise ValidationError(f"hypergraph JSON missing key {missing}") from None
    if any(isinstance(v, bool) or not isinstance(v, int) for v in (k, n)):
        raise ValidationError("hypergraph JSON: k and n must be integers")
    if not isinstance(edges, list) or not all(isinstance(e, list) for e in edges):
        raise ValidationError("hypergraph JSON: edges must be a list of lists")
    return build(k, n, edges)


def dumps(H: UniformHypergraph) -> str:
    """Canonical JSON text: fixed key order, edges sorted, one line."""
    return json.dumps(to_json_dict(H))


def loads(text: str) -> UniformHypergraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON: {exc}") from None
    return from_json_dict(obj)
