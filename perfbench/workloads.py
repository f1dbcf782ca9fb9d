"""The four workloads as seeded op lists.

An op is a dict with an ``id`` (unique in its workload, stable across
seeds for the fixed part), a ``kind`` and, except for ``paper``, a
``host`` edge list from :mod:`hosts`.  Each workload has a fixed part,
the same for every seed, that holds its largest single op, and a seeded
part drawn from ``--seed``.  Hosts in the seeded part are kept small
enough that the workload's total cost varies little from seed to seed.

Kinds and the library calls they time:

- ``matchpoly``: ``matching_polynomial(H)``
- ``catalog``: ``distinct_matching_polynomials(H)``
- ``spectrum``: ``set_spectrum(H)``, then two reads on the built set:
  ``contains`` probes and ``rotation_symmetric()``
- ``cyclotomic``: ``is_cyclotomic_spectrum(H)``
- ``radius``: ``spectral_radius(H)``, then
  ``find_totally_nonzero_eigenvector(H, radius)``
- ``paper``: ``htspec.cli.main(["check-paper", "--format", "json"])``
"""

from __future__ import annotations

import random

import hosts

WORKLOADS = ("catalog", "spectrum", "radius", "paper")

# Seed of the fixed "anchor" hosts; it is part of the workload's
# definition and never derived from --seed.
ANCHOR_SEED = 1

# Ops that fail on the code this benchmark was written against, with the
# failure seen there.  They are counted in ``failed`` like any other
# failure; a failure of an op not listed here marks the run incorrect.
KNOWN_FAILURES = {
    "catalog": {
        "matchpoly/path-1000-k3": "RecursionError in the pendant-edge recursion",
        "matchpoly/star-1000-k3": "RecursionError in the pendant-edge recursion",
    },
    "spectrum": {
        "cyclotomic/path-30-k3": "verdict false: Aberth leaves non-real alpha roots",
        "cyclotomic/path-40-k3": "verdict false: Aberth leaves non-real alpha roots",
        "cyclotomic/path-60-k3": "DidNotConverge: residual target missed",
    },
    "radius": {
        "radius/anchor-m60-k3": "wrong radius: the largest real root is lost",
        "eigvec/anchor-m60-k3": "NoConvergence at the wrong radius",
        **{
            f"radius/path-{t}-k{k}": "wrong radius: the largest real root is lost"
            for t in (30, 40)
            for k in (3, 4)
        },
        **{
            f"eigvec/path-{t}-k{k}": "NoConvergence at the wrong radius"
            for t in (30, 40)
            for k in (3, 4)
        },
        **{
            f"{op}/path-{t}-k{k}": "OverflowError in the Aberth start radius"
            + ("" if op == "radius" else " (no radius to start from)")
            for op in ("radius", "eigvec")
            for t in (60, 100)
            for k in (3, 4)
        },
    },
    "paper": {},
}


def _op(kind: str, name: str, host=None) -> dict:
    return {"id": f"{kind}/{name}", "kind": kind, "host": host}


def _random_hosts(rng, count, m_range, ks):
    out = []
    for j in range(count):
        m = rng.randint(*m_range)
        k = ks[j % len(ks)]
        out.append((f"random-{j}-m{m}-k{k}", hosts.random_tree(m, k, rng)))
    return out


def _power_hosts(rng, count, m_range, ks):
    out = []
    for j in range(count):
        m = rng.randint(*m_range)
        k = ks[j % len(ks)]
        base = hosts.random_tree(m, 2, rng)
        out.append((f"power-{j}-m{m}-k{k}", hosts.power(base, k)))
    return out


def _catalog(rng: random.Random) -> list[dict]:
    anchor = hosts.random_tree(24, 3, random.Random(ANCHOR_SEED))
    ops = [_op("catalog", "anchor-m24-k3", anchor)]
    for t in (200, 500, 1000):
        ops.append(_op("matchpoly", f"path-{t}-k3", hosts.path(t, 3)))
        ops.append(_op("matchpoly", f"star-{t}-k3", hosts.star(t, 3)))
    for name, h in _random_hosts(rng, 10, (16, 18), (3,)):
        ops.append(_op("catalog", name, h))
    for name, h in _random_hosts(rng, 8, (35, 38), (3,)):
        ops.append(_op("matchpoly", name, h))
    return ops


def _spectrum(rng: random.Random) -> list[dict]:
    anchor = hosts.random_tree(15, 3, random.Random(ANCHOR_SEED))
    ops = [_op("spectrum", "anchor-m15-k3", anchor)]
    for t in (10, 30, 40, 60):
        ops.append(_op("cyclotomic", f"path-{t}-k3", hosts.path(t, 3)))
    for name, h in _random_hosts(rng, 10, (10, 11), (3, 3, 4)):
        ops.append(_op("spectrum", name, h))
    for name, h in _power_hosts(rng, 6, (8, 12), (3, 4)):
        ops.append(_op("cyclotomic", name, h))
    # random hosts that are not powers of a 2-tree: verdict false
    for name, h in _random_hosts(rng, 3, (8, 10), (3,)):
        ops.append(_op("cyclotomic", name, h))
    return ops


def _radius(rng: random.Random) -> list[dict]:
    anchor = hosts.random_tree(60, 3, random.Random(ANCHOR_SEED))
    ops = [_op("radius", "anchor-m60-k3", anchor)]
    for k in (3, 4):
        for t in (10, 20, 30, 40, 60, 100):
            ops.append(_op("radius", f"path-{t}-k{k}", hosts.path(t, k)))
        for t in (10, 100, 500):
            ops.append(_op("radius", f"star-{t}-k{k}", hosts.star(t, k)))
    for k in (3, 4, 5, 6):
        ops.append(_op("radius", f"comb-k{k}", hosts.comb(k)))
    for name, h in _power_hosts(rng, 6, (10, 40), (3, 4)):
        ops.append(_op("radius", name, h))
    for name, h in _random_hosts(rng, 8, (20, 40), (3, 4)):
        ops.append(_op("radius", name, h))
    return ops


def _paper(rng: random.Random) -> list[dict]:
    return [_op("paper", "check-paper")]


def build_ops(workload: str, seed: int) -> list[dict]:
    """The op list of one workload; the same seed gives the same list."""
    make = {"catalog": _catalog, "spectrum": _spectrum, "radius": _radius, "paper": _paper}
    return make[workload](random.Random(seed))
