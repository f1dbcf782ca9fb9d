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
from typing import Iterable, Sequence

from . import _ratpoly as _rp
from . import kernels
from .core import UniformHypergraph, edge_adjacency_masks, is_hyperforest
from .errors import NotAHyperforest, TooManyEdgesForOracle, ValidationError

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
        acc = 0 * z
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1


def alpha_poly(coeffs: Iterable[int]) -> AlphaPolynomial:
    """Normalize a little-endian coefficient sequence."""
    return AlphaPolynomial(tuple(_rp.trim(list(coeffs))))


ONE = alpha_poly([1])
ZERO = alpha_poly([])


def to_alpha_poly(c: MatchingCounts) -> AlphaPolynomial:
    """Signed polynomial: coefficient of alpha^(m-i) is (-1)^i counts[i]."""
    m = c.matching_number
    cs = [0] * (m + 1)
    for i, v in enumerate(c.counts):
        cs[m - i] = -v if i % 2 else v
    return alpha_poly(cs)


def poly_sub(p: AlphaPolynomial, q: AlphaPolynomial) -> AlphaPolynomial:
    return AlphaPolynomial(tuple(_rp.sub(p.coeffs, q.coeffs)))


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


def poly_divmod(p: AlphaPolynomial, q: AlphaPolynomial):
    """Exact division over the integers; q must be monic."""
    if not q.is_monic():
        raise ValidationError("divisor must be monic")
    quo, rem = _rp.divide(p.coeffs, q.coeffs)
    return AlphaPolynomial(tuple(quo)), AlphaPolynomial(tuple(rem))


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


def poly_to_json(p: AlphaPolynomial) -> dict:
    """JSON form: little-endian decimal strings."""
    return {"alpha_coeffs": [str(c) for c in p.coeffs]}


def poly_from_json(obj: dict) -> AlphaPolynomial:
    try:
        return alpha_poly(int(s) for s in obj["alpha_coeffs"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad polynomial JSON: {exc}") from None


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


def add_shifted(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Counts ``a + x*b``: matchings of ``b`` gain one edge."""
    out = list(a) + [0] * (len(b) + 1 - len(a))
    for i, c in enumerate(b):
        out[i + 1] += c
    return out


def matching_counts_tree(H: UniformHypergraph) -> MatchingCounts:
    """Exact matching counts of a hyperforest by a leaf-to-root recurrence.

    Each component is rooted at its smallest vertex.  Vertex v keeps two
    count lists over its subtree: A_v for all matchings and B_v for
    those leaving v uncovered.  Folding in a child edge e whose other
    vertices are the children c gives

        A_v <- A_v * prod A_c + x * B_v * prod B_c
        B_v <- B_v * prod A_c

    and the forest's counts are the product of the roots' A.  Vertices
    are visited in reverse depth-first order from an explicit stack,
    so there is no recursion.  Merging two parts costs the product of
    their list lengths, so the total is O(m^2) coefficient operations
    at most, reached on long loose paths.
    """
    if not is_hyperforest(H):
        raise NotAHyperforest("matching_counts_tree requires a hyperforest")
    incident: list[list[int]] = [[] for _ in range(H.n + 1)]
    for i, e in enumerate(H.edges):
        for v in e:
            incident[v].append(i)
    up = [-1] * (H.n + 1)  # edge towards the root; -1 at roots
    order = []
    for root in range(1, H.n + 1):
        if up[root] >= 0:  # reached from an earlier root
            continue
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for i in incident[v]:
                if i != up[v]:
                    for c in H.edges[i]:
                        if c != v:
                            up[c] = i
                            stack.append(c)
    A: list = [None] * (H.n + 1)
    B: list = [None] * (H.n + 1)
    total = [1]
    for v in reversed(order):
        a = b = [1]
        for i in incident[v]:
            if i == up[v]:
                continue
            pa = pb = [1]
            for c in H.edges[i]:
                if c != v:
                    pa = convolve(pa, A[c])
                    pb = convolve(pb, B[c])
                    # freed at once: a long path would otherwise keep
                    # O(m^2) big coefficients alive
                    A[c] = B[c] = None
            a, b = add_shifted(convolve(a, pa), convolve(b, pb)), convolve(b, pa)
        if up[v] < 0:
            total = convolve(total, a)
        else:
            A[v], B[v] = a, b
    return MatchingCounts(tuple(total))


def matching_polynomial(H: UniformHypergraph) -> AlphaPolynomial:
    """Convenience: alpha-form matching polynomial of a hyperforest."""
    return to_alpha_poly(matching_counts_tree(H))


# -- comb closed form ----------------------------------------------------------


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


# -- exact real-root count (Sturm) ---------------------------------------------


def count_distinct_real_roots(p: AlphaPolynomial) -> int:
    """Number of distinct real roots, by a Sturm chain of primitive
    pseudo-remainders; each is a positive multiple of the rational one,
    so the sign variations are those of the classical chain."""
    if p.degree < 1:
        return 0
    f = list(p.coeffs)
    g = _rp.gcd(f, _rp.deriv(f))
    if len(g) > 1:
        f = _rp.div_exact(f, g)
    chain = [f, _rp.deriv(f)]
    while len(chain[-1]) > 1:
        rem = _rp.rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])

    def variations(at_plus_infinity: bool) -> int:
        signs = []
        for poly in chain:
            if not poly:
                continue
            s = 1 if poly[-1] > 0 else -1
            if not at_plus_infinity and (len(poly) - 1) % 2 == 1:
                s = -s
            signs.append(s)
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return variations(False) - variations(True)


def count_real_comb_roots(k: int) -> int:
    """Distinct real roots of the k-comb matching polynomial in alpha."""
    if k < 3:
        raise ValidationError("count_real_comb_roots needs k >= 3")
    return count_distinct_real_roots(comb_formula(k))
