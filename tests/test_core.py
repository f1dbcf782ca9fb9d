"""Hypergraph representation, validation, generators and transforms."""

import cmath
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import disjoint_union, pendant_edges
from htspec import (
    build,
    comb,
    distinct_matching_polynomials,
    find_totally_nonzero_eigenvector,
    induced,
    is_connected,
    is_cyclotomic_spectrum,
    is_hyperforest,
    is_hypertree,
    is_power_tree,
    loose_path,
    matching_counts_tree,
    matching_polynomial,
    power,
    random_hypertree,
    rotate_eigenpair,
    set_spectrum,
    spectral_radius,
    star,
)
from htspec.core import (
    dumps,
    hypertree_walk,
    loads,
    power_obstruction,
    rooted_walk,
)
from htspec.errors import (
    DuplicateEdge,
    NonUniformEdge,
    NotAHyperforest,
    NotAHypertree,
    PowerBelowUniformity,
    ValidationError,
    VertexOutOfRange,
)

H3_EDGES = [[1, 2, 3], [1, 4, 7], [2, 5, 8], [3, 6, 9], [1, 10, 11]]


def h3():
    return build(3, 11, H3_EDGES)


def test_build_single_edge():
    H = build(3, 3, [[1, 2, 3]])
    assert H.edges == ((1, 2, 3),)
    assert is_hypertree(H)


def test_build_canonicalizes():
    H = build(3, 11, [list(reversed(e)) for e in reversed(H3_EDGES)])
    assert H == h3()
    assert H.edges == tuple(tuple(e) for e in sorted(map(sorted, H3_EDGES)))


def test_build_rejects_repeated_vertex():
    with pytest.raises(NonUniformEdge):
        build(3, 3, [[1, 2, 2]])


def test_build_rejects_wrong_size():
    with pytest.raises(NonUniformEdge):
        build(3, 4, [[1, 2, 3, 4]])


def test_build_rejects_out_of_range():
    with pytest.raises(VertexOutOfRange):
        build(3, 3, [[1, 2, 4]])
    with pytest.raises(VertexOutOfRange):
        build(2, 3, [[0, 1]])


def test_build_rejects_duplicate_edge():
    with pytest.raises(DuplicateEdge):
        build(3, 4, [[1, 2, 3], [3, 2, 1]])


def test_build_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        build(1, 3, [])
    with pytest.raises(ValidationError):
        build(3, 0, [])


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_canonical_form_is_permutation_invariant(rng):
    H = random_hypertree(rng.randint(1, 7), rng.choice([2, 3, 4]), rng)
    shuffled = [list(e) for e in H.edges]
    rng.shuffle(shuffled)
    for e in shuffled:
        rng.shuffle(e)
    assert build(H.k, H.n, shuffled) == H


def test_is_connected():
    assert is_connected(build(3, 3, [[1, 2, 3]]))
    assert is_connected(h3())
    assert not is_connected(build(3, 6, [[1, 2, 3]]))  # vertices 4-6 isolated


def test_is_hypertree():
    assert is_hypertree(comb(3))
    assert is_hypertree(h3())  # n=11, m=5, k=3: 5*2+1 = 11
    assert not is_hypertree(build(3, 4, [[1, 2, 3], [1, 2, 4]]))


def test_is_hyperforest():
    two = disjoint_union(loose_path(2, 3), star(2, 3))
    assert is_hyperforest(two)
    assert not is_hypertree(two)
    assert not is_hyperforest(build(3, 4, [[1, 2, 3], [1, 2, 4]]))


# a 3-cycle of edges; vertex 4 lies only on the edge that closes it
CYCLE = build(3, 6, [[1, 2, 3], [3, 4, 5], [5, 6, 1]])


def test_cycle_closing_edge_still_reaches_its_other_vertices():
    assert is_connected(CYCLE)
    assert not is_hyperforest(CYCLE)
    assert not is_hypertree(CYCLE)
    with pytest.raises(NotAHyperforest, match=r"edge \[3, 4, 5\] closes a cycle"):
        rooted_walk(CYCLE)
    with pytest.raises(NotAHyperforest, match="hyperforest"):
        matching_counts_tree(CYCLE)


def test_structural_predicates_match_union_find():
    rng = random.Random(15)
    seen = set()
    for _ in range(300):
        H = helpers.random_structure_host(rng)
        expected = helpers.union_find_structure(H)
        assert (is_connected(H), is_hyperforest(H), is_hypertree(H)) == expected, H
        seen.add(expected[:2])
    # connected or not, cyclic or not: every pairing was drawn
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_rooted_walk_children_carry_their_edge_index():
    for H in (h3(), comb(4), disjoint_union(loose_path(3, 3), star(2, 3))):
        order, children = rooted_walk(H)
        assert sorted(order) == list(range(1, H.n + 1))
        pos = {v: j for j, v in enumerate(order)}
        taken = []
        for v in order:
            for i, kids in children[v]:
                assert H.edges[i] == tuple(sorted((v, *kids)))
                assert all(pos[c] > pos[v] for c in kids)
                taken.append(i)
        assert sorted(taken) == list(range(H.m))


def test_induced_h3_on_first_nine_is_comb3():
    sub = induced(h3(), range(1, 10))
    assert sub == comb(3)
    assert sub.parent_vertices == tuple(range(1, 10))


def test_induced_identity_and_singleton():
    H = h3()
    assert induced(H, range(1, H.n + 1)) == H
    point = induced(H, [1])
    assert point.n == 1 and point.m == 0


def test_induced_rejects_foreign_vertices():
    with pytest.raises(VertexOutOfRange):
        induced(h3(), [1, 99])


def test_pendant_edges_comb3():
    assert pendant_edges(comb(3)) == [(1, 4, 7), (2, 5, 8), (3, 6, 9)]


def test_pendant_edges_single_edge_has_none():
    # an isolated edge has k vertices of degree 1, not k-1
    assert pendant_edges(build(3, 3, [[1, 2, 3]])) == []


def test_pendant_edges_h3_matches_degree_oracle():
    H = h3()
    deg = {}
    for e in H.edges:
        for v in e:
            deg[v] = deg.get(v, 0) + 1
    expected = [
        e for e in H.edges if sum(1 for v in e if deg[v] == 1) == 2
    ]
    assert pendant_edges(H) == expected
    assert set(expected) == {(1, 4, 7), (1, 10, 11), (2, 5, 8), (3, 6, 9)}


def test_loose_path_and_star_shapes():
    assert loose_path(1, 3) == star(1, 3) == build(3, 3, [[1, 2, 3]])
    p3 = loose_path(3, 3)
    assert (p3.n, p3.m) == (7, 3)
    s3 = star(3, 3)
    assert (s3.n, s3.m) == (7, 3)
    deg = s3.degrees()
    assert deg[1] == 3 and all(deg[v] == 1 for v in range(2, 8))


def test_comb_shapes():
    assert comb(3) == build(3, 9, [[1, 2, 3], [1, 4, 7], [2, 5, 8], [3, 6, 9]])
    c2 = comb(2)
    assert (c2.n, c2.m) == (4, 3)
    assert is_hypertree(c2)
    c4 = comb(4)
    assert (c4.n, c4.m) == (16, 5)
    # teeth pairwise disjoint, spine meets each tooth once
    spine = set(range(1, 5))
    teeth = [set(e) for e in c4.edges if set(e) != spine]
    for i, t in enumerate(teeth):
        assert len(t & spine) == 1
        for u in teeth[i + 1:]:
            assert not (t & u)


def test_power_identity_and_growth():
    G = loose_path(3, 3)
    assert power(G, 3) == G
    P = power(G, 5)
    assert P.k == 5 and P.m == G.m and P.n == G.n + G.m * 2
    deg = P.degrees()
    assert all(deg[v] == 1 for v in range(G.n + 1, P.n + 1))
    assert is_hypertree(P)
    with pytest.raises(PowerBelowUniformity):
        power(G, 2)


def test_power_of_two_uniform_star_is_three_star():
    base = star(3, 2)
    lifted = power(base, 3)
    s3 = star(3, 3)
    assert (lifted.n, lifted.m, lifted.k) == (s3.n, s3.m, s3.k)
    assert sorted(lifted.degrees()[1:]) == sorted(s3.degrees()[1:])


def test_is_power_tree_verdicts():
    assert not is_power_tree(comb(3))  # spine has 3 vertices of degree 2
    assert power_obstruction(comb(3)) == 0
    # the first edge is a pendant; edge 1, [3, 4, 5], is the obstruction
    H = build(3, 9, [[1, 2, 3], [3, 4, 5], [4, 6, 7], [5, 8, 9]])
    assert power_obstruction(H) == 1 and not is_power_tree(H)
    assert is_power_tree(comb(2))
    assert is_power_tree(build(3, 3, [[1, 2, 3]]))
    H2 = build(3, 9, [[1, 2, 3], [1, 4, 6], [3, 5, 7], [1, 8, 9]])
    deg = H2.degrees()
    assert all(sum(1 for v in e if deg[v] >= 2) <= 2 for e in H2.edges)
    assert power_obstruction(H2) is None
    assert is_power_tree(H2)
    with pytest.raises(NotAHypertree):
        is_power_tree(build(3, 6, [[1, 2, 3]]))


def test_power_trees_pass_structural_test():
    rng = random.Random(7)
    for _ in range(20):
        T = random_hypertree(rng.randint(1, 7), 2, rng)
        assert is_power_tree(power(T, rng.choice([3, 4, 5])))


def test_comb_power_tree_boundary():
    # combs are hypertrees for every k, and the minimal non-power shape
    # from uniformity 3 on
    for k in range(2, 7):
        assert is_hypertree(comb(k))
        assert is_power_tree(comb(k)) == (k == 2)


def test_hypertree_count_identity_on_generators():
    rng = random.Random(3)
    graphs = [comb(4), loose_path(5, 4), star(4, 5)]
    graphs += [random_hypertree(rng.randint(1, 9), k, rng) for k in (3, 4, 5)]
    graphs += [power(random_hypertree(4, 2, rng), 4)]
    for H in graphs:
        assert H.n == H.m * (H.k - 1) + 1
        assert is_hypertree(H)


def test_hypertree_edges_intersect_in_at_most_one_vertex():
    rng = random.Random(11)
    for _ in range(25):
        H = random_hypertree(rng.randint(2, 9), rng.choice([3, 4]), rng)
        for i in range(H.m):
            for j in range(i + 1, H.m):
                assert len(set(H.edges[i]) & set(H.edges[j])) <= 1


def test_json_round_trip_and_canonical_output():
    H = h3()
    assert loads(dumps(H)) == H
    messy = '{"edges": [[7,4,1],[3,2,1],[8,5,2],[9,6,3],[11,10,1]], "n": 11, "k": 3}'
    assert loads(messy) == H
    assert dumps(H) == (
        '{"k": 3, "n": 11, "edges": [[1, 2, 3], [1, 4, 7], [1, 10, 11], '
        '[2, 5, 8], [3, 6, 9]]}'
    )


def test_json_rejects_malformed_payloads():
    with pytest.raises(ValidationError):
        loads("[1, 2]")
    with pytest.raises(ValidationError):
        loads('{"k": 3, "n": 3}')
    with pytest.raises(ValidationError):
        loads('{"k": "3", "n": 3, "edges": []}')
    with pytest.raises(ValidationError):
        loads("{nope")


# -- the walk memo: one walk per host object -----------------------------------


def _walk_readers(lam, pair, turned):
    """(name, call on a host) for every call that reads the host's walk;
    the eigenpair calls look for lam and rotate pair to turned."""
    return [
        ("spectral_radius", spectral_radius),
        ("eigenvector", lambda H: find_totally_nonzero_eigenvector(H, lam)),
        ("rotate_eigenpair", lambda H: rotate_eigenpair(H, pair, turned)),
        ("set_spectrum", set_spectrum),
        ("is_cyclotomic_spectrum", is_cyclotomic_spectrum),
        ("distinct_matching_polynomials", distinct_matching_polynomials),
        ("matching_polynomial", matching_polynomial),
        ("is_power_tree", is_power_tree),
        ("rooted_walk", rooted_walk),
        ("hypertree_walk", hypertree_walk),
        ("is_connected", is_connected),
        ("is_hyperforest", is_hyperforest),
        ("is_hypertree", is_hypertree),
    ]


@pytest.mark.parametrize(
    "edges",
    [comb(3).edges, power(random_hypertree(7, 2, random.Random(5)), 4).edges],
    ids=["comb-3", "power-7-k4"],
)
def test_one_host_answers_every_walk_reader_in_either_order(monkeypatch, edges):
    k = len(edges[0])
    n = len(edges) * (k - 1) + 1

    def fresh():
        return build(k, n, edges)

    lam = spectral_radius(fresh())
    pair = find_totally_nonzero_eigenvector(fresh(), lam)
    turned = lam * cmath.exp(2j * cmath.pi / k)
    readers = _walk_readers(lam, pair, turned)
    want = {name: call(fresh()) for name, call in readers}
    walked = helpers.count_walks(monkeypatch)
    for calls in (readers, readers[::-1]):
        host = fresh()
        for name, call in calls:
            assert call(host) == want[name], name
        assert sum(h is host for h in walked) == 1


def test_a_cyclic_or_split_host_is_refused_on_every_call(monkeypatch):
    one_edge = build(3, 3, [[1, 2, 3]])
    pair = find_totally_nonzero_eigenvector(one_edge, 1 + 0j)
    readers = _walk_readers(1 + 0j, pair, 1 + 0j)[:10]  # the ones that refuse
    forest_readers = ("matching_polynomial", "rooted_walk")
    walked = helpers.count_walks(monkeypatch)
    cyclic = build(CYCLE.k, CYCLE.n, CYCLE.edges)
    for name, call in readers:
        error = NotAHyperforest if name in forest_readers else NotAHypertree
        for _ in range(2):
            with pytest.raises(error, match=r"edge \[3, 4, 5\] closes a cycle"):
                call(cyclic)
    split = disjoint_union(loose_path(2, 3), star(2, 3))
    for name, call in readers:
        if name in forest_readers:
            assert call(split) == call(build(3, split.n, split.edges)), name
            continue
        for _ in range(2):
            with pytest.raises(NotAHypertree, match="2 components"):
                call(split)
    assert sum(h is cyclic for h in walked) == sum(h is split for h in walked) == 1


def test_the_walk_memo_is_not_part_of_the_value(monkeypatch):
    makers = [h3, lambda: induced(h3(), range(1, 10)), lambda: build(3, 6, CYCLE.edges)]
    for make in makers:
        cold, warm = make(), make()
        is_hyperforest(warm)
        assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
        assert pickle.dumps(warm) == pickle.dumps(cold)
        back = pickle.loads(pickle.dumps(warm))
        assert back == warm and back.parent_vertices == warm.parent_vertices
        walked = helpers.count_walks(monkeypatch)
        assert is_hyperforest(back) == is_hyperforest(warm)
        assert len(walked) == 1 and walked[0] is back


def test_the_shared_walk_is_read_only():
    H = h3()
    order, children = rooted_walk(H)
    assert type(order) is tuple and type(children) is tuple
    assert all(type(row) is tuple for row in children)
    again = hypertree_walk(H)
    assert again[0] is order and again[1] is children
