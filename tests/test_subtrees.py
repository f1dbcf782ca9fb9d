"""Connected edge-subset enumeration and the subtree polynomial catalog."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import induced_closure_holds, pendant_edges
from htspec import (
    alpha_poly,
    build,
    comb,
    distinct_matching_polynomials,
    induced,
    is_cyclotomic_spectrum,
    is_hypertree,
    loose_path,
    matching_counts_tree,
    power,
    random_hypertree,
    set_spectrum,
    star,
    subtree_hypergraph,
    to_alpha_poly,
)
from htspec import subtrees
from htspec.core import vertex_union
from htspec.errors import CatalogTooLarge, NotAHypertree, ValidationError
from htspec.fixtures import hypergraph
from htspec.subtrees import EdgeSubset


def test_single_edge_catalog():
    H = build(3, 3, [[1, 2, 3]])
    catalog = distinct_matching_polynomials(H)
    assert [s.indices for s in catalog.subsets] == [(0,)]
    assert catalog.polys == (alpha_poly([-1, 1]),)


def test_loose_path_two_edges():
    subsets = distinct_matching_polynomials(loose_path(2, 3)).subsets
    assert [s.indices for s in subsets] == [(0,), (1,), (0, 1)]


def test_comb3_subsets():
    H = comb(3)  # edge 0 is the spine after canonical sort
    subsets = {s.indices for s in distinct_matching_polynomials(H).subsets}
    assert len(subsets) == 11
    spine_containing = {s for s in subsets if 0 in s}
    assert len(spine_containing) == 8  # spine plus any tooth subset
    assert {s for s in subsets if 0 not in s} == {(1,), (2,), (3,)}


def _mask(F):
    return sum(1 << i for i in F.indices)


def test_enumeration_matches_bruteforce_masks():
    rng = random.Random(41)
    for _ in range(20):
        H = random_hypertree(rng.randint(1, 7), rng.choice([2, 3, 4]), rng)
        masks = {_mask(s) for s in distinct_matching_polynomials(H).subsets}
        assert masks == helpers.brute_connected_edge_masks(H)


def test_catalog_size_of_combs():
    # k single teeth plus spine together with any tooth subset
    for k in range(2, 6):
        subsets = distinct_matching_polynomials(comb(k)).subsets
        assert len(subsets) == k + 2**k
        assert {_mask(s) for s in subsets} == helpers.brute_connected_edge_masks(
            comb(k)
        )
    # a loose path's connected subsets are its contiguous runs; at 70
    # edges their masks are wider than a machine word
    runs = [
        tuple(range(i, i + size)) for size in range(1, 71) for i in range(71 - size)
    ]
    assert len(runs) == 2485
    subsets = distinct_matching_polynomials(loose_path(70, 3)).subsets
    assert [s.indices for s in subsets] == runs


def test_catalog_order_is_size_then_indices_where_natural_masks_disagree():
    # by natural masks (edge e at bit e) {1, 2} is 6 and precedes {0, 3},
    # 9; the catalog lists subsets of one size by their sorted indices
    listed = [s.indices for s in distinct_matching_polynomials(star(4, 3)).subsets]
    assert listed.index((0, 3)) < listed.index((1, 2))
    rng = random.Random(67)
    hosts = [star(4, 3), comb(4)]
    hosts += [random_hypertree(rng.randint(8, 12), k, rng) for k in (3, 4)]
    hosts += [power(random_hypertree(9, 2, rng), 3)]
    for H in hosts:
        listed = [s.indices for s in distinct_matching_polynomials(H).subsets]
        assert listed == sorted(listed, key=lambda t: (len(t), t))
        # the host tells the two orders apart
        natural = sorted(listed, key=lambda t: (len(t), sum(1 << i for i in t)))
        assert natural != listed


def _listed(H):
    return [s.indices for s in distinct_matching_polynomials(H).subsets]


def test_catalog_decode_at_byte_boundaries():
    # masks of 1, 7, 8 and 9 edges, and of 15, 16 and 17, fill a byte,
    # or spill one edge past it, from either side
    rng = random.Random(71)
    for m in (1, 7, 8, 9):
        H = random_hypertree(m, 3, rng)
        brute = [
            tuple(e for e in range(m) if mask >> e & 1)
            for mask in helpers.brute_connected_edge_masks(H)
        ]
        assert _listed(H) == sorted(brute, key=lambda t: (len(t), t))
    for m in (15, 16, 17):
        # every edge subset of a star is connected
        assert _listed(star(m, 3)) == [
            c for r in range(1, m + 1) for c in itertools.combinations(range(m), r)
        ]
        # and those of a loose path are its index intervals
        assert _listed(loose_path(m, 3)) == [
            tuple(range(i, i + size))
            for size in range(1, m + 1)
            for i in range(m + 1 - size)
        ]


@pytest.mark.parametrize("cap", [True, 0, -1, 2.5, "6", None])
@pytest.mark.parametrize(
    "entry",
    [
        lambda H, cap: distinct_matching_polynomials(H, max_subsets=cap),
        lambda H, cap: set_spectrum(H, max_subsets=cap),
        lambda H, cap: is_cyclotomic_spectrum(H, cap),
    ],
    ids=["catalog", "set_spectrum", "is_cyclotomic_spectrum"],
)
def test_max_subsets_must_be_a_positive_int(entry, cap):
    # comb(3) is no power tree: its obstruction edge decides is_cyclotomic_spectrum
    for H in (loose_path(3, 3), comb(3)):
        with pytest.raises(ValidationError, match=f"got {re.escape(repr(cap))}$"):
            entry(H, cap)


def test_subset_cap():
    with pytest.raises(CatalogTooLarge):
        distinct_matching_polynomials(comb(4), max_subsets=10)
    # the cap is exact: S subsets pass a cap of S and raise below it
    rng = random.Random(61)
    hosts = [comb(4), loose_path(10, 3), star(8, 3), random_hypertree(9, 3, rng)]
    for H in hosts:
        size = len(distinct_matching_polynomials(H).subsets)
        assert len(distinct_matching_polynomials(H, max_subsets=size).subsets) == size
        with pytest.raises(CatalogTooLarge, match=f"the host has {size}$"):
            distinct_matching_polynomials(H, max_subsets=size - 1)


def test_oversized_catalog_raises_before_building_anything():
    # 2^40 - 1 subsets: the up-front count refuses them at once
    with helpers.Budget("star(40, 3) catalog refusal", 0.5):
        with pytest.raises(CatalogTooLarge, match="1099511627775"):
            distinct_matching_polynomials(star(40, 3))


def test_edge_subset_has_no_instance_dict():
    s = EdgeSubset((0, 2))
    assert not hasattr(s, "__dict__")
    assert s.indices == (0, 2) and len(s) == 2


def test_requires_hypertree():
    with pytest.raises(NotAHypertree):
        distinct_matching_polynomials(build(3, 4, [[1, 2, 3], [1, 2, 4]]))


def test_every_subset_is_an_induced_hypertree():
    rng = random.Random(43)
    for _ in range(10):
        H = random_hypertree(rng.randint(1, 6), rng.choice([3, 4]), rng)
        for F in distinct_matching_polynomials(H).subsets:
            assert induced_closure_holds(H, F)
            assert is_hypertree(subtree_hypergraph(H, F))


def test_closure_examples():
    H = comb(3)
    assert induced_closure_holds(H, EdgeSubset((0,)))  # spine alone
    H3 = hypergraph("H3")
    assert induced_closure_holds(H3, EdgeSubset(tuple(range(5))))


def test_enumeration_completeness_against_vertex_scan():
    rng = random.Random(47)
    hosts = [comb(3), hypergraph("H3")]
    hosts += [random_hypertree(rng.randint(2, 6), 3, rng) for _ in range(3)]
    hosts += [random_hypertree(7, 3, rng)]  # n = 15
    for H in hosts:
        from_edges = {
            vertex_union(H, F.indices)
            for F in distinct_matching_polynomials(H).subsets
        }
        singletons = {(v,) for v in range(1, H.n + 1)}
        assert from_edges | singletons == helpers.brute_connected_vertex_subsets(H)


def test_pendant_deletion_reachability():
    rng = random.Random(53)
    for _ in range(8):
        H = random_hypertree(rng.randint(2, 6), rng.choice([3, 4]), rng)
        for F in distinct_matching_polynomials(H).subsets:
            target = set(F.indices)
            current = set(range(H.m))
            while current != target:
                labels = vertex_union(H, current)
                sub = induced(H, labels)
                pend = pendant_edges(sub)
                # map pendant edges of the sub back to host indices
                back = dict(zip(range(1, sub.n + 1), labels))
                host_pendants = {
                    tuple(sorted(back[v] for v in e)) for e in pend
                }
                candidates = [
                    i
                    for i in current - target
                    if H.edges[i] in host_pendants
                ]
                assert candidates, "no pendant deletion available"
                current.remove(min(candidates))


def test_catalog_h3_polynomials():
    catalog = distinct_matching_polynomials(hypergraph("H3"))
    expected = {
        (-1, 1),
        (-2, 1),
        (1, -3, 1),
        (-3, 1),
        (-1, 3, -4, 1),
        (2, -4, 1),
        (-2, 5, -5, 1),
    }
    assert {p.coeffs for p in catalog.polys} == expected
    assert len(catalog.polys) == 7


def test_catalog_comb3_polynomials():
    catalog = distinct_matching_polynomials(comb(3))
    assert {p.coeffs for p in catalog.polys} == {
        (-1, 1),
        (-2, 1),
        (1, -3, 1),
        (-1, 3, -4, 1),
    }
    assert len(catalog.subsets) == 11


def test_catalog_polys_match_per_subset_dp():
    rng = random.Random(59)
    hosts = [random_hypertree(6, 3, rng)]
    hosts += [random_hypertree(rng.randint(7, 10), k, rng) for k in (3, 4, 3, 4)]
    hosts += [star(12, 3), power(random_hypertree(9, 2, rng), 3)]
    # 820 subsets with 41-bit slots, and a k = 5 host
    hosts += [loose_path(40, 3), random_hypertree(10, 5, rng)]
    for H in hosts:
        catalog = distinct_matching_polynomials(H)
        for F, idx in zip(catalog.subsets, catalog.poly_of_subset):
            sub = subtree_hypergraph(H, F)
            assert to_alpha_poly(matching_counts_tree(sub)) == catalog.polys[idx]
        # every distinct polynomial has a subset
        assert sorted(set(catalog.poly_of_subset)) == list(range(len(catalog.polys)))


def test_catalog_converts_each_distinct_count_tuple_once(monkeypatch):
    # packed count lists become polynomials in _ranked_polys, one
    # AlphaPolynomial each
    calls = []
    convert = subtrees.AlphaPolynomial

    def counted(coeffs):
        calls.append(coeffs)
        return convert(coeffs)

    monkeypatch.setattr(subtrees, "AlphaPolynomial", counted)
    catalog = distinct_matching_polynomials(star(12, 3))
    assert len(catalog.subsets) == 4095
    assert len(catalog.polys) == 12
    assert len(calls) == 12 == len(set(calls))


def test_masked_fold_builds_each_subset_once():
    # the masked fold keeps its states in lists, so no set would hide a
    # subset built twice
    hosts = [(name, H) for name, H in helpers.ladder_hosts() if H.m <= 14]
    assert len(hosts) >= 30
    for name, H in hosts:
        fold = subtrees._fold(H, subtrees.DEFAULT_MAX_SUBSETS, True)
        masks = [mask for top in fold for _, _, mask in top if mask]
        assert len(masks) == len(set(masks)), name
        # the up-front count, read from its refusal
        with pytest.raises(CatalogTooLarge, match=f"the host has {len(masks)}$"):
            subtrees._subtree_counts(H, 0)
        # edge e holds bit m - 1 - e
        natural = {int(f"{mask:0{H.m}b}"[::-1], 2) for mask in masks}
        assert natural == helpers.brute_connected_edge_masks(H), name


def _packed(slots, w):
    return sum(c << (i * w) for i, c in enumerate(slots))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ranked_polys_order_is_degree_then_coefficients(data):
    w = data.draw(st.integers(1, 8), label="w")
    full = (1 << w) - 1
    # the extremes of a slot, often, so that leading slots tie
    value = st.one_of(st.sampled_from([0, full]), st.integers(0, full))
    lists = data.draw(
        st.lists(
            st.tuples(st.lists(value, max_size=5), st.integers(1, full)),
            min_size=1,
            max_size=12,
        ),
        label="middle and top slots",
    )
    # slot 0 holds 1, and the top slot is nonzero
    packed = {_packed([1, *middle, top], w) for middle, top in lists}

    def coeffs(a):
        slots = []
        while a:
            slots.append(a & full)
            a >>= w
        d = len(slots) - 1
        return tuple((-1) ** (d - j) * slots[d - j] for j in range(d + 1))

    want = sorted(packed, key=lambda a: (len(coeffs(a)), coeffs(a)))
    ranked = subtrees._ranked_polys(packed, w)
    assert [a for a, _ in ranked] == want
    assert [p.coeffs for _, p in ranked] == [coeffs(a) for a in want]
    bad = data.draw(st.integers(0, full).filter(lambda c: c != 1), label="slot 0")
    with pytest.raises(ValidationError, match="counts\\[0\\] = 1"):
        subtrees._ranked_polys(packed | {_packed([bad, 1], w)}, w)


def test_catalog_json_shape():
    blob = distinct_matching_polynomials(loose_path(2, 3)).to_json_dict()
    assert blob["subtrees"] == [
        {"edges": [0], "phi_alpha": ["-1", "1"]},
        {"edges": [1], "phi_alpha": ["-1", "1"]},
        {"edges": [0, 1], "phi_alpha": ["-2", "1"]},
    ]
    assert blob["distinct_polys"] == [["-2", "1"], ["-1", "1"]]
