"""Seeded hypertree inputs and the benchmark's own, independent math.

Nothing here imports ``htspec``: inputs are plain edge lists that the
library receives through ``htspec.build``, and every reference quantity
below (matching counts, connected-subset counts, subset catalogs) is
computed by code written for the benchmark alone.

A host is ``(k, n, edges)`` with vertices labelled 1..n and each edge a
tuple of k vertices.  Counts are little-endian lists: ``counts[i]`` is
the number of i-matchings.
"""

from __future__ import annotations

import random


# -- generators ----------------------------------------------------------------


def path(t: int, k: int):
    """Loose path with t edges: consecutive edges share one vertex."""
    edges = [tuple(range(i * (k - 1) + 1, i * (k - 1) + k + 1)) for i in range(t)]
    return (k, t * (k - 1) + 1, edges)


def star(t: int, k: int):
    """t edges sharing vertex 1 and nothing else."""
    edges = [(1,) + tuple(range(2 + i * (k - 1), 2 + (i + 1) * (k - 1))) for i in range(t)]
    return (k, t * (k - 1) + 1, edges)


def comb(k: int):
    """Spine {1..k} plus k disjoint teeth, tooth i meeting the spine at i."""
    edges = [tuple(range(1, k + 1))]
    edges += [tuple(i + t * k for t in range(k)) for i in range(1, k + 1)]
    return (k, k * k, edges)


def random_tree(m: int, k: int, rng: random.Random):
    """Grow a hypertree by attaching each new edge at a uniformly chosen
    existing vertex."""
    n = k
    edges = [tuple(range(1, k + 1))]
    for _ in range(m - 1):
        anchor = rng.randint(1, n)
        edges.append((anchor,) + tuple(range(n + 1, n + k)))
        n += k - 1
    return (k, n, edges)


def power(host, k: int):
    """Pad every edge with fresh vertices up to size k."""
    k0, n, edges = host
    out = []
    for e in edges:
        out.append(tuple(e) + tuple(range(n + 1, n + 1 + k - k0)))
        n += k - k0
    return (k, n, out)


# -- structure -------------------------------------------------------------------


def degrees(host) -> list[int]:
    k, n, edges = host
    deg = [0] * (n + 1)
    for e in edges:
        for v in e:
            deg[v] += 1
    return deg


def is_power_shape(host) -> bool:
    """No edge holds three or more vertices of degree >= 2."""
    deg = degrees(host)
    return all(sum(1 for v in e if deg[v] >= 2) <= 2 for e in host[2])


def _rooted(edges, n):
    """Orient a hyperforest from the smallest vertex of each component.

    Returns (order, parent, child_edges, roots): ``order`` lists edge
    indices so that every edge comes after the edge above it, and
    ``parent[i]`` is the vertex through which edge i was reached.
    """
    incident = [[] for _ in range(n + 1)]
    for i, e in enumerate(edges):
        for v in e:
            incident[v].append(i)
    parent = [0] * len(edges)
    child_edges = [[] for _ in range(n + 1)]
    seen_v = [False] * (n + 1)
    seen_e = [False] * len(edges)
    order: list[int] = []
    roots: list[int] = []
    for r in range(1, n + 1):
        if seen_v[r] or not incident[r]:
            continue
        roots.append(r)
        seen_v[r] = True
        stack = [r]
        while stack:
            v = stack.pop()
            for i in incident[v]:
                if seen_e[i]:
                    continue
                seen_e[i] = True
                parent[i] = v
                child_edges[v].append(i)
                order.append(i)
                for w in edges[i]:
                    if not seen_v[w]:
                        seen_v[w] = True
                        stack.append(w)
    return order, parent, child_edges, roots


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    return [x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)]


def matching_counts(edges, n: int) -> list[int]:
    """Matching counts of a hyperforest by the free/covered tree DP.

    For each vertex v, ``free[v]`` counts matchings below v that leave v
    uncovered and ``cov[v]`` those covering v by one of its child edges.
    Iterative, so deep paths need no recursion.
    """
    order, parent, child_edges, roots = _rooted(edges, n)
    free = [[1] for _ in range(n + 1)]
    cov = [[0] for _ in range(n + 1)]
    for i in reversed(order):
        kids = [c for c in edges[i] if c != parent[i]]
        unused, used = [1], [0, 1]
        for c in kids:
            unused = _mul(unused, _add(free[c], cov[c]))
            used = _mul(used, free[c])
        v = parent[i]
        # attach e at v: v stays free only if e is unused
        cov[v] = _add(_mul(cov[v], unused), _mul(free[v], used))
        free[v] = _mul(free[v], unused)
    total = [1]
    for r in roots:
        total = _mul(total, _add(free[r], cov[r]))
    while len(total) > 1 and total[-1] == 0:
        total.pop()
    return total


def alpha_coeffs(counts: list[int]) -> tuple[int, ...]:
    """Little-endian alpha polynomial: coefficient of alpha^(m-i) is
    (-1)^i counts[i]."""
    m = len(counts) - 1
    cs = [0] * (m + 1)
    for i, c in enumerate(counts):
        cs[m - i] = -c if i % 2 else c
    return tuple(cs)


def subset_poly(host, subset) -> tuple[int, ...]:
    """Alpha polynomial of the sub-hyperforest carried by an edge subset."""
    k, n, edges = host
    return alpha_coeffs(matching_counts([edges[i] for i in subset], n))


def _edge_adjacency(edges) -> list[int]:
    at: dict[int, int] = {}
    for i, e in enumerate(edges):
        for v in e:
            at[v] = at.get(v, 0) | (1 << i)
    adj = []
    for i, e in enumerate(edges):
        mask = 0
        for v in e:
            mask |= at[v]
        adj.append(mask & ~(1 << i))
    return adj


def connected_subset_count(host) -> int:
    """Number of nonempty connected edge subsets, by a rooted DP.

    Every connected subset has a unique vertex nearest the root; at that
    vertex it takes a nonempty set of child edges, each extended
    downwards independently.
    """
    k, n, edges = host
    order, parent, child_edges, roots = _rooted(edges, n)
    down = [0] * len(edges)  # subsets whose top edge is e
    for i in reversed(order):
        prod = 1
        for c in edges[i]:
            if c != parent[i]:
                for j in child_edges[c]:
                    prod *= 1 + down[j]
        down[i] = prod
    total = 0
    for v in range(1, n + 1):
        if child_edges[v]:
            prod = 1
            for j in child_edges[v]:
                prod *= 1 + down[j]
            total += prod - 1
    return total


def connected_subsets(host) -> list[int]:
    """Every nonempty connected edge subset as a bitmask, grown one
    adjacent edge at a time with a seen-set (slow but plainly right)."""
    adj = _edge_adjacency(host[2])
    level = {1 << i for i in range(len(adj))}
    out: list[int] = []
    while level:
        out.extend(level)
        nxt = set()
        for s in level:
            frontier = 0
            rest = s
            while rest:
                bit = rest & -rest
                rest ^= bit
                frontier |= adj[bit.bit_length() - 1]
            frontier &= ~s
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                nxt.add(s | bit)
        level = nxt
    return out


def mask_indices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        bit = mask & -mask
        mask ^= bit
        out.append(bit.bit_length() - 1)
    return tuple(out)


def catalog_polys(host) -> set[tuple[int, ...]]:
    """Distinct alpha polynomials over all connected edge subsets."""
    return {subset_poly(host, mask_indices(s)) for s in connected_subsets(host)}


def is_connected_subset(host, subset) -> bool:
    k, n, edges = host
    if not subset:
        return False
    adj = _edge_adjacency([edges[i] for i in subset])
    seen, stack = 1, [0]
    while stack:
        i = stack.pop()
        fresh = adj[i] & ~seen
        seen |= fresh
        stack.extend(mask_indices(fresh))
    return seen == (1 << len(subset)) - 1
