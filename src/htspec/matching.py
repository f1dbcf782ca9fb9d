"""Exact matching counts and the induced polynomial in alpha = x^k.

A hypergraph with matching number m has counts[i] = number of
i-matchings (sets of i pairwise disjoint edges).  The associated signed
polynomial

    p(alpha) = sum_{i=0..m} (-1)^i counts[i] alpha^(m-i)

is stored little-endian over arbitrary-precision integers; substituting
alpha = x^k recovers the usual x-form whose exponents are all multiples
of k.  Keeping the alpha form makes powering a hypergraph a no-op on
coefficients and keeps degrees equal to matching numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from . import _ratpoly as _rp
from . import kernels
from .core import UniformHypergraph, edge_adjacency_masks, rooted_walk
from .errors import TooManyEdgesForOracle, ValidationError

DEFAULT_ORACLE_EDGE_LIMIT = 24


@dataclass(frozen=True)
class MatchingCounts:
    """counts[i] = number of i-matchings; length is matching number + 1."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if not self.counts or self.counts[0] != 1:
            raise ValidationError("matching counts must start with counts[0] = 1")
        if len(self.counts) > 1 and self.counts[-1] < 1:
            raise ValidationError("trailing matching count must be positive")

    @property
    def matching_number(self) -> int:
        return len(self.counts) - 1


@dataclass(frozen=True)
class AlphaPolynomial:
    """Integer polynomial in alpha, little-endian, no trailing zeros."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValidationError("alpha polynomial not normalized")

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __call__(self, z):
        """Evaluate by Horner; works for exact and complex arguments."""
        return horner(self.coeffs, z)


def horner(coeffs: Sequence, z):
    """Little-endian coeffs at z by Horner, in the arithmetic of z."""
    acc = 0 * z
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def alpha_poly(coeffs: Iterable[int]) -> AlphaPolynomial:
    """Normalize a little-endian coefficient sequence."""
    return AlphaPolynomial(tuple(_rp.trim(list(coeffs))))


def to_alpha_poly(c: MatchingCounts) -> AlphaPolynomial:
    """Signed polynomial: coefficient of alpha^(m-i) is (-1)^i counts[i]."""
    m = c.matching_number
    cs = [0] * (m + 1)
    for i, v in enumerate(c.counts):
        cs[m - i] = -v if i % 2 else v
    return alpha_poly(cs)


def convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two nonempty little-endian integer coefficient lists."""
    if len(a) == 1 and a[0] == 1:
        return list(b)
    if len(b) == 1 and b[0] == 1:
        return list(a)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def expand_to_x(p: AlphaPolynomial, k: int) -> dict[int, int]:
    """Substitute alpha = x^k; sparse exponent -> coefficient map."""
    if k < 2:
        raise ValidationError("expand_to_x needs k >= 2")
    return {d * k: c for d, c in enumerate(p.coeffs) if c}


# -- text and JSON forms -----------------------------------------------------


def _terms_str(items: Sequence[tuple[int, int]], var: str) -> str:
    # items: (exponent, coefficient), descending exponent, coefficients nonzero
    if not items:
        return "0"
    parts = []
    for idx, (d, c) in enumerate(items):
        mag = abs(c)
        if d == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else str(mag)
            body = f"{head}{var}" if d == 1 else f"{head}{var}^{d}"
        if idx == 0:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def alpha_str(p: AlphaPolynomial) -> str:
    """Human form in alpha, e.g. ``α^3 - 4α^2 + 3α - 1``."""
    items = [(d, c) for d, c in enumerate(p.coeffs) if c][::-1]
    return _terms_str(items, "α")


def x_str(p: AlphaPolynomial, k: int) -> str:
    """Human form after alpha = x^k, e.g. ``x^9 - 4x^6 + 3x^3 - 1``."""
    items = sorted(expand_to_x(p, k).items(), reverse=True)
    return _terms_str(items, "x")


def poly_to_json(p: AlphaPolynomial) -> list[str]:
    """JSON form: little-endian decimal strings."""
    return [str(c) for c in p.coeffs]


# -- matching count computation ----------------------------------------------


def matching_counts_bruteforce(
    H: UniformHypergraph, limit: int = DEFAULT_ORACLE_EDGE_LIMIT
) -> MatchingCounts:
    """Oracle: count i-matchings by backtracking over edge subsets.

    Exponential in the worst case, hence the edge limit; serves as the
    independent check for the tree recurrence.
    """
    if H.m > limit:
        raise TooManyEdgesForOracle(
            f"{H.m} edges exceeds the oracle limit {limit}"
        )
    counts = kernels.count_matchings(edge_adjacency_masks(H))
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return MatchingCounts(tuple(counts))


def matching_counts_tree(H: UniformHypergraph) -> MatchingCounts:
    """Exact matching counts of a hyperforest by a leaf-to-root recurrence.

    Each component is rooted at its smallest vertex.  Vertex v keeps two
    count lists over its subtree, A_v counting all matchings and B_v
    those leaving v uncovered.  With pa and pb the products of a child
    edge's children's A and B lists, folding in that edge is

        A_v <- A_v * pa + x * B_v * pb
        B_v <- B_v * pa

    and the forest's counts are the product of the roots' A.  Vertices
    are visited in reverse ``rooted_walk`` order, so there is no
    recursion, and the walk raises NotAHyperforest on a cycle.  Merging
    two parts costs the product of their list lengths, so the total is
    O(m^2) coefficient operations at most, reached on long loose paths.
    The lists are not packed into ints as in ``subtrees._fold``: the
    coefficients range over hundreds of bits on long paths, so uniform
    slots waste most of each product (2x slower on loose_path(1000, 3)).
    """
    order, children = rooted_walk(H)
    A: list = [None] * (H.n + 1)
    B: list = [None] * (H.n + 1)
    for v in reversed(order):
        a = b = [1]
        for _, kids in children[v]:
            pa = pb = [1]
            for c in kids:
                pa = convolve(pa, A[c])
                pb = convolve(pb, B[c])
                # freed at once: a long path would otherwise keep
                # O(m^2) big coefficients alive
                A[c] = B[c] = None
            a = convolve(a, pa)
            a += [0] * (len(b) + len(pb) - len(a))
            for j, y in enumerate(convolve(b, pb), 1):
                a[j] += y
            b = convolve(b, pa)
        A[v], B[v] = a, b
    total = [1]
    for a in A:  # only the roots' counts are left
        if a is not None:
            total = convolve(total, a)
    return MatchingCounts(tuple(total))


def matching_polynomial(H: UniformHypergraph) -> AlphaPolynomial:
    """Convenience: alpha-form matching polynomial of a hyperforest."""
    return to_alpha_poly(matching_counts_tree(H))


# -- exact real-root count (Sturm) ---------------------------------------------


@lru_cache(maxsize=4096)
def _sturm_counts(p: AlphaPolynomial) -> tuple[int, int]:
    """(distinct real roots, distinct roots) of p from one Sturm chain.

    The chain starts p, p' and continues with negated primitive
    pseudo-remainders; each is a positive multiple of the rational one,
    so the sign variations are those of the classical chain.  Its last
    entry g is gcd(p, p') up to a constant, and every entry is a
    multiple of g: dividing the chain by g changes every sign at +-inf
    alike, so the variations count the distinct real roots without
    making p squarefree first, and p has deg p - deg g distinct roots.
    A fixed-size LRU memo keyed by p computes each distinct p once
    while it stays among the 4096 most recently asked for.
    """
    if p.degree < 1:
        return 0, 0
    chain = _rp.sturm_chain(p.coeffs)
    return _rp.real_root_count(chain), p.degree - len(chain[-1]) + 1

