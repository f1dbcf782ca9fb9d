"""Shared test utilities: random instance generators, brute-force
cross-checks that stay independent of the library code paths they test,
and the polynomial algebra, closed forms and structural references that
only tests call."""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations

from htspec import (
    AlphaPolynomial,
    EdgeSubset,
    UniformHypergraph,
    alpha_poly,
    build,
    comb,
    loose_path,
    power,
    random_hypertree,
    star,
    subtree_hypergraph,
)
from htspec import _ratpoly, core, fixtures, spectra
from htspec.core import vertex_union
from htspec.errors import ValidationError
from htspec.fixtures import hypergraph
from htspec.matching import _sturm_counts, convolve


# -- polynomial algebra, closed forms and structural references -------------

ONE = alpha_poly([1])
ZERO = alpha_poly([])


def poly_sub(p: AlphaPolynomial, q: AlphaPolynomial) -> AlphaPolynomial:
    return AlphaPolynomial(tuple(_ratpoly.sub(p.coeffs, q.coeffs)))


def poly_mul(p: AlphaPolynomial, q: AlphaPolynomial) -> AlphaPolynomial:
    """Exact convolution; realizes multiplicativity over disjoint unions."""
    if not p.coeffs or not q.coeffs:
        return ZERO
    return alpha_poly(convolve(p.coeffs, q.coeffs))


def poly_pow(p: AlphaPolynomial, e: int) -> AlphaPolynomial:
    if e < 0:
        raise ValidationError("negative polynomial power")
    acc = ONE
    base = p
    while e:
        if e & 1:
            acc = poly_mul(acc, base)
        base = poly_mul(base, base)
        e >>= 1
    return acc


def comb_formula(k: int) -> AlphaPolynomial:
    """Closed-form matching polynomial of the k-comb: (alpha-1)^k - alpha^(k-1).

    The comb has binomial(k, i) tooth-only i-matchings plus the lone
    spine 1-matching; the spine meets every tooth, which subtracts the
    alpha^(k-1) term.
    """
    if k < 2:
        raise ValidationError("comb_formula needs k >= 2")
    spine_term = alpha_poly([0] * (k - 1) + [1])
    return poly_sub(poly_pow(alpha_poly([-1, 1]), k), spine_term)


def count_real_comb_roots(k: int) -> int:
    """Distinct real roots of the k-comb matching polynomial in alpha."""
    if k < 3:
        raise ValidationError("count_real_comb_roots needs k >= 3")
    return _sturm_counts(comb_formula(k))[0]


def pendant_edges(H: UniformHypergraph) -> list[tuple[int, ...]]:
    """Edges with exactly k-1 vertices of degree 1.

    An isolated edge has k such vertices and is therefore not pendant.
    """
    deg = H.degrees()
    return [
        e for e in H.edges if sum(1 for v in e if deg[v] == 1) == H.k - 1
    ]


def disjoint_union(*graphs: UniformHypergraph) -> UniformHypergraph:
    """Disjoint union with vertex labels shifted into consecutive blocks."""
    if not graphs:
        raise ValidationError("disjoint_union needs at least one hypergraph")
    k = graphs[0].k
    if any(g.k != k for g in graphs):
        raise ValidationError("disjoint_union requires equal uniformity")
    edges: list[tuple[int, ...]] = []
    offset = 0
    for g in graphs:
        edges.extend(tuple(v + offset for v in e) for e in g.edges)
        offset += g.n
    return build(k, offset, edges)


def induced_closure_holds(H: UniformHypergraph, F: EdgeSubset) -> bool:
    """True iff the subgraph induced on F's vertex union has edge set F."""
    inside = set(vertex_union(H, F.indices))
    induced_edges = {
        i for i, e in enumerate(H.edges) if inside.issuperset(e)
    }
    return induced_edges == set(F.indices)


# -- test utilities ------------------------------------------------------------


class Budget:
    """Context manager asserting that its block ran within ``seconds``."""

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} took {elapsed:.2f}s, budget {self.seconds}s"
            )
            print(f"PASS {self.name} ({elapsed:.2f}s)")
        return False


def within(z, v, tol) -> bool:
    """abs(z - v) <= tol; False where abs raises OverflowError, as
    |z - v| is then past the largest float, so past tol."""
    try:
        return abs(z - v) <= tol
    except OverflowError:
        return False


def linear_contains(values, tol, z) -> bool:
    """Membership by a scan of every value: the reference that
    SpectrumSet.contains must agree with on every probe."""
    return any(within(z, v, tol) for v in values)


def scan_distinct_lifts(lifts, tol, kept):
    """Dedup by a scan of every kept value: append to kept, in order,
    each (value, tag) of lifts farther than tol from every value kept
    before it.  The reference that spectra._distinct_lifts must agree
    with, value for value and tag for tag."""
    for lam, tag in lifts:
        if not any(within(lam, v, tol) for v, _ in kept):
            kept.append((lam, tag))
    return kept


def count_walks(monkeypatch) -> list[UniformHypergraph]:
    """Patch ``core._walk``, the walk under each host's memo, so that
    each host it walks is appended to the returned list."""
    walked = []
    real = core._walk

    def counted(H):
        walked.append(H)
        return real(H)

    monkeypatch.setattr(core, "_walk", counted)
    return walked


def clear_root_memos() -> None:
    """Empty the memos of ``alpha_roots`` and ``_sturm_counts``, so that
    the next call on any polynomial solves it again: a test that patches
    a root solver must reach the patch, whatever ran before it."""
    spectra._alpha_roots.cache_clear()
    _sturm_counts.cache_clear()


def upper_half_plane_roots(coeffs, rng) -> list[complex]:
    """Stand-in for the root refiner whose roots all lie above the real
    axis, so they contradict any Sturm count below the degree."""
    return [complex(j, 1) for j in range(len(coeffs) - 1)]


def random_nonpower_hypertree(
    total_edges: int, k: int, rng: random.Random
) -> UniformHypergraph:
    """Hypertree guaranteed not to be a power tree: one edge is forced to
    carry three vertices of degree >= 2 by hanging three fresh edges off
    three distinct vertices of the first edge."""
    if total_edges < 4:
        raise ValueError("need at least 4 edges to force a non-power tree")
    base = random_hypertree(total_edges - 3, k, rng)
    edges = [list(e) for e in base.edges]
    n = base.n
    for anchor in rng.sample(base.edges[0], 3):
        edges.append([anchor] + list(range(n + 1, n + k)))
        n += k - 1
    return build(k, n, edges)


def obstruction_subtree(H: UniformHypergraph, edge: int) -> UniformHypergraph:
    """The 4-edge subtree of a ``power_obstruction`` edge and the first
    other edge at each of its first three vertices of degree >= 2: the
    subtree whose polynomial makes is_cyclotomic_spectrum False."""
    picked = [edge]
    for v in H.edges[edge]:
        if len(picked) == 4:
            break
        picked += [j for j, e in enumerate(H.edges) if j != edge and v in e][:1]
    return subtree_hypergraph(H, EdgeSubset(tuple(sorted(picked))))


def first_subtrees(
    catalog,
) -> dict[AlphaPolynomial, tuple[UniformHypergraph, tuple[int, ...]]]:
    """Each distinct polynomial of a subtree catalog, with the subtree of
    the first subset, in (size, indices) order, that has it, and the
    host labels of that subtree's vertices 1..n (``vertex_union``)."""
    first = {}
    for F, j in zip(catalog.subsets, catalog.poly_of_subset):
        first.setdefault(catalog.polys[j], F)
    H = catalog.host
    return {
        p: (subtree_hypergraph(H, F), vertex_union(H, F.indices))
        for p, F in first.items()
    }


def tamper_h1(monkeypatch) -> None:
    """Replace H1 by its factorization with the last base dropped."""
    bad = fixtures.CharPolyFactorization(
        name="H1",
        k=3,
        n=9,
        x_power=567,
        factors=fixtures.fixture("H1").factors[:-1],  # drop a base
    )
    monkeypatch.setitem(fixtures._FIXTURES, "H1", bad)


def catalog_cyclotomic_verdict(catalog) -> bool:
    """The cyclotomic verdict read from a full subtree catalog: every
    distinct polynomial's Sturm count of real roots equals its number of
    distinct roots.  The reference that is_cyclotomic_spectrum, which
    answers false from one subtree and true from the distinct-state DP,
    must agree with."""
    return all(real == distinct for real, distinct in map(_sturm_counts, catalog.polys))


def fraction_above_radius(order, children, alpha: Fraction) -> bool:
    """Whether alpha > rho^k, from the leaf-to-root labels
    u_v = (1/alpha) sum_{child e} prod_{c in e, c != v} 1/(1 - u_c) in
    Fractions over a ``hypertree_walk``: every 1 - u_c > 0 and
    u_root < 1.  The reference that spectra._above_radius, which runs
    the same labels on integer pairs without a gcd, must agree with."""
    u = [Fraction(0)] * len(children)
    for v in reversed(order):
        total = Fraction(0)
        for _, kids in children[v]:
            prod = Fraction(1)
            for c in kids:
                d = 1 - u[c]
                if d <= 0:
                    return False
                prod /= d
            total += prod
        u[v] = total / alpha
    return u[order[0]] < 1


def ladder_hosts():
    """(name, host) of the comparison ladder: H1-H3, combs k = 3..5, k = 3
    loose paths and stars, random_hypertree(m, k, Random(10m + k)) for
    m = 10..24 and k = 3, 4, and k = 3 powers of random 2-trees; then
    seeded hosts that the ladder lacks: small and k = 5 random hosts,
    short and k = 4 paths, k = 4, 5 stars and k = 4, 5 powers."""
    for name in ("H1", "H2", "H3"):
        yield name, hypergraph(name)
    for k in (3, 4, 5):
        yield f"comb-{k}", comb(k)
    for t in (10, 30, 60, 200):
        yield f"path-{t}", loose_path(t, 3)
    for t in (10, 16, 40):
        yield f"star-{t}", star(t, 3)
    for m in range(10, 25):
        for k in (3, 4):
            yield f"random-{m}-{k}", random_hypertree(m, k, random.Random(10 * m + k))
    for m in (6, 10, 14, 18):
        yield f"power-{m}", power(random_hypertree(m, 2, random.Random(m)), 3)
    rng = random.Random(211)
    for j in range(40):
        m, k = rng.randint(1, 20), rng.randint(3, 5)
        yield f"seeded-random-{j}", random_hypertree(m, k, rng)
    for t, k in ((1, 3), (2, 3), (7, 3), (33, 3), (25, 4)):
        yield f"seeded-path-{t}-{k}", loose_path(t, k)
    for t, k in ((1, 3), (5, 4), (12, 3), (9, 5)):
        yield f"seeded-star-{t}-{k}", star(t, k)
    for j in range(8):
        base = random_hypertree(rng.randint(1, 16), 2, rng)
        yield f"seeded-power-{j}", power(base, rng.randint(3, 5))


def random_hyperforest(
    component_edge_counts: list[int], k: int, rng: random.Random
) -> tuple[UniformHypergraph, list[UniformHypergraph]]:
    parts = [random_hypertree(m, k, rng) for m in component_edge_counts]
    return disjoint_union(*parts), parts


def union_find_roots(H: UniformHypergraph) -> list[int]:
    """Union-find representative of every vertex (entry 0 is a dummy)."""
    parent = list(range(H.n + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e in H.edges:
        r = find(e[0])
        for v in e[1:]:
            parent[find(v)] = r
    return [find(v) for v in range(H.n + 1)]


def union_find_structure(H: UniformHypergraph) -> tuple[bool, bool, bool]:
    """(connected, hyperforest, hypertree) by union-find and per-component
    counts, with no traversal: the reference that the walk-based
    is_connected, is_hyperforest and is_hypertree must agree with.  A
    component is a hypertree iff its vertices number edges * (k-1) + 1.
    """
    root = union_find_roots(H)
    vertices: dict[int, int] = {}
    edges: dict[int, int] = {}
    for v in range(1, H.n + 1):
        vertices[root[v]] = vertices.get(root[v], 0) + 1
    for e in H.edges:
        edges[root[e[0]]] = edges.get(root[e[0]], 0) + 1
    connected = len(vertices) == 1
    forest = all(vertices[r] == edges.get(r, 0) * (H.k - 1) + 1 for r in vertices)
    return connected, forest, connected and forest


def random_structure_host(rng: random.Random) -> UniformHypergraph:
    """A small random hypergraph, k = 2..4: a random hyperforest of one to
    three components, then up to two extra edges on random vertex sets
    (closing cycles or joining components) and up to two isolated
    vertices."""
    k = rng.choice([2, 3, 4])
    forest, _ = random_hyperforest(
        [rng.randint(1, 4) for _ in range(rng.randint(1, 3))], k, rng
    )
    n = forest.n + rng.choice([0, 0, 1, 2])
    edges = set(forest.edges)
    for _ in range(rng.choice([0, 1, 1, 2])):
        edges.add(tuple(sorted(rng.sample(range(1, n + 1), k))))
    return build(k, n, sorted(edges))


def brute_matching_counts(H: UniformHypergraph) -> tuple[int, ...]:
    """Oracle reimplementation: scan all edge subsets with itertools."""
    sets = [frozenset(e) for e in H.edges]
    counts = [1]
    for size in range(1, H.m + 1):
        total = 0
        for combo in combinations(range(H.m), size):
            union: set[int] = set()
            ok = True
            for i in combo:
                if union & sets[i]:
                    ok = False
                    break
                union |= sets[i]
            if ok:
                total += 1
        if total == 0:
            break
        counts.append(total)
    return tuple(counts)


def brute_connected_edge_masks(H: UniformHypergraph) -> set[int]:
    """All nonempty edge subsets forming a connected sub-hypergraph,
    checked with a scan over all 2^m subsets and union-find."""
    sets = [frozenset(e) for e in H.edges]
    out: set[int] = set()
    for mask in range(1, 1 << H.m):
        members = [i for i in range(H.m) if mask >> i & 1]
        parent = {i: i for i in members}

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for a, b in combinations(members, 2):
            if sets[a] & sets[b]:
                parent[find(a)] = find(b)
        if len({find(i) for i in members}) == 1:
            out.add(mask)
    return out


def brute_connected_vertex_subsets(H: UniformHypergraph) -> set[tuple[int, ...]]:
    """All U subseteq V whose induced subgraph is connected (2^n scan)."""
    out: set[tuple[int, ...]] = set()
    for mask in range(1, 1 << H.n):
        members = [v for v in range(1, H.n + 1) if mask >> (v - 1) & 1]
        inside = set(members)
        index = {v: i for i, v in enumerate(members)}
        parent = list(range(len(members)))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for e in H.edges:
            if inside.issuperset(e):
                r = find(index[e[0]])
                for v in e[1:]:
                    parent[find(index[v])] = r
                    r = find(r)
        if len({find(i) for i in range(len(members))}) == 1:
            out.add(tuple(members))
    return out
