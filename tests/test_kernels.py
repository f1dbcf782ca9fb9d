"""Bitmask kernels match naive enumeration."""

import random

import pytest

import helpers
from htspec import kernels, random_hypertree
from htspec.core import edge_adjacency_masks


def _random_masks(rng, m, density=0.4):
    masks = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < density:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks


def test_count_matchings_against_itertools():
    rng = random.Random(103)
    for _ in range(10):
        H = random_hypertree(rng.randint(1, 6), 3, rng)
        conf = edge_adjacency_masks(H)
        counts = kernels.count_matchings(conf)
        while len(counts) > 1 and counts[-1] == 0:
            counts.pop()
        assert tuple(counts) == helpers.brute_matching_counts(H)


def test_connected_subsets_cover_all_connected_sets():
    # against a direct 2^m reachability scan on arbitrary adjacency
    rng = random.Random(109)
    for _ in range(10):
        m = rng.randint(1, 8)
        adj = _random_masks(rng, m, density=0.35)
        expected = set()
        for mask in range(1, 1 << m):
            members = [i for i in range(m) if mask >> i & 1]
            reached = {members[0]}
            frontier = [members[0]]
            while frontier:
                v = frontier.pop()
                for w in members:
                    if w not in reached and adj[v] >> w & 1:
                        reached.add(w)
                        frontier.append(w)
            if len(reached) == len(members):
                expected.add(mask)
        assert set(kernels.connected_subset_masks(adj, 10**6)) == expected


def test_cap_overflow():
    adj = _random_masks(random.Random(1), 8, density=1.0)
    with pytest.raises(OverflowError):
        kernels.connected_subset_masks(adj, 5)


def test_python_fallback_handles_many_edges():
    # masks wider than a machine word; all-pairwise-conflicting edges
    # keep the matching enumeration tiny
    m = 70
    full = (1 << m) - 1
    conf = [full & ~(1 << i) for i in range(m)]
    counts = kernels.count_matchings(conf)
    assert counts[0] == 1 and counts[1] == m
    assert all(c == 0 for c in counts[2:])
    # path-shaped adjacency: connected subsets are the contiguous runs
    adj = [0] * m
    for i in range(m - 1):
        adj[i] |= 1 << (i + 1)
        adj[i + 1] |= 1 << i
    masks = kernels.connected_subset_masks(adj, 10**6)
    assert len(masks) == m * (m + 1) // 2
