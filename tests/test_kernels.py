"""The bitmask matching oracle matches naive enumeration."""

import random

import helpers
from htspec import kernels, random_hypertree
from htspec.core import edge_adjacency_masks


def test_count_matchings_against_itertools():
    rng = random.Random(103)
    for _ in range(10):
        H = random_hypertree(rng.randint(1, 6), 3, rng)
        conf = edge_adjacency_masks(H)
        counts = kernels.count_matchings(conf)
        while len(counts) > 1 and counts[-1] == 0:
            counts.pop()
        assert tuple(counts) == helpers.brute_matching_counts(H)


def test_python_fallback_handles_many_edges():
    # masks wider than a machine word; all-pairwise-conflicting edges
    # keep the matching enumeration tiny
    m = 70
    full = (1 << m) - 1
    conf = [full & ~(1 << i) for i in range(m)]
    counts = kernels.count_matchings(conf)
    assert counts[0] == 1 and counts[1] == m
    assert all(c == 0 for c in counts[2:])
