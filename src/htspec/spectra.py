"""Numerical spectrum operations for k-uniform hypertrees, k >= 3.

The set spectrum of a hypertree is {0} together with every k-th root of
every root (in alpha = x^k) of every connected induced subtree's
matching polynomial.  This module finds those alpha roots, lifts them,
assembles the tolerance-aware spectrum set, and constructs totally
nonzero eigenvectors certifying membership.

Eigen-equation convention: one summand per incident edge,

    sum_{e : j in e} prod_{v in e, v != j} x_v  =  lambda * x_j^(k-1),

the normalization under which a single k-edge has eigenvalue 1.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import repeat

from . import _ratpoly as _rp
from .core import UniformHypergraph, VertexSet, hypertree_walk, power_obstruction
from .errors import (
    DidNotConverge,
    DimensionMismatch,
    NoConvergence,
    UniformityTwoUnsupported,
    ValidationError,
)
from .matching import (
    AlphaPolynomial,
    _sturm_counts,
    alpha_poly,
    alpha_str,
    count_distinct_real_roots,
    horner,
    matching_polynomial,
)
from .subtrees import (
    DEFAULT_MAX_SUBSETS,
    EdgeSubset,
    SubtreeCatalog,
    _distinct_polys,
    subtree_hypergraph,
)

DEFAULT_SET_TOL = 1e-8
ROOT_TOL = 1e-12  # the relative residual target of alpha_roots
DEFAULT_SEED = 24301


# -- squarefree decomposition (exact) ------------------------------------------


def squarefree_decomposition(
    p: AlphaPolynomial,
) -> list[tuple[AlphaPolynomial, int]]:
    """Yun decomposition: pairwise coprime squarefree factors (q_i, i)
    with prod q_i^i equal to p up to a constant.

    A squarefree p comes back as [(p, 1)]; otherwise each q_i is
    primitive with positive lead.  Exact integer arithmetic, so multiple
    roots are resolved before any floating-point refinement happens.
    """
    if p.degree < 1:
        return []
    f = list(p.coeffs)
    g = _rp.gcd(f, _rp.deriv(f))
    if len(g) <= 1:
        return [(p, 1)]
    out: list[tuple[AlphaPolynomial, int]] = []
    b = _rp.div_exact(f, g)
    d = _rp.sub(_rp.div_exact(_rp.deriv(f), g), _rp.deriv(b))
    i = 1
    while len(b) > 1:
        a = _rp.gcd(b, d)
        if len(a) > 1:
            out.append((alpha_poly(a), i))
            b = _rp.div_exact(b, a)
            d = _rp.div_exact(d, a)
        d = _rp.sub(d, _rp.deriv(b))
        i += 1
    return out


# -- simultaneous root refinement ------------------------------------------------


def _aberth(
    coeffs: list[float],
    rng: random.Random,
    max_iter: int = 600,
) -> list[complex]:
    """All roots of a squarefree real polynomial, simultaneous iteration.

    Starts from a perturbed circle around the root centroid; corrections
    are applied in place (Gauss-Seidel flavor), which converges a little
    faster than the parallel update.  Raises DidNotConverge when the
    per-root residual target is still unmet after ``max_iter`` sweeps.
    """
    deg = len(coeffs) - 1
    maxc = max(abs(c) for c in coeffs)
    if deg == 1:
        return [complex(-coeffs[0] / coeffs[1])]
    if deg == 2:
        a, b, c = coeffs[2], coeffs[1], coeffs[0]
        disc = cmath.sqrt(b * b - 4 * a * c)
        if abs(-b + disc) < abs(-b - disc):
            disc = -disc
        r1 = (-b + disc) / (2 * a)
        r2 = c / (a * r1) if r1 != 0 else -b / a - r1
        return [r1, r2]

    deriv = [i * coeffs[i] for i in range(1, deg + 1)]
    radius = 1.0 + max(abs(c / coeffs[-1]) for c in coeffs[:-1])
    center = -coeffs[-2] / (deg * coeffs[-1])
    z = [
        center
        + 0.65
        * radius
        * cmath.exp(2j * cmath.pi * ((j + 0.354) / deg + 0.01 * rng.random()))
        for j in range(deg)
    ]

    def target(w: complex) -> float:
        return ROOT_TOL * maxc * max(1.0, abs(w)) ** deg

    for _ in range(max_iter):
        converged = True
        for i in range(deg):
            pv = horner(coeffs, z[i])
            if abs(pv) <= 0.01 * target(z[i]):
                continue
            converged = False
            dv = horner(deriv, z[i])
            if dv == 0:
                z[i] += (1e-6 + 1e-6j) * (1.0 + abs(z[i]))
                continue
            newton = pv / dv
            repel = 0j
            for j in range(deg):
                if j != i:
                    diff = z[i] - z[j]
                    if diff == 0:
                        diff = (1e-12 + 1e-12j) * (1.0 + abs(z[i]))
                    repel += 1.0 / diff
            denom = 1.0 - newton * repel
            if denom == 0:
                z[i] -= newton
            else:
                z[i] -= newton / denom
        if converged:
            break
    else:
        raise DidNotConverge(
            f"root refinement stalled on degree {deg} polynomial"
        )
    # final Newton polish tightens to machine precision
    for i in range(deg):
        for _ in range(3):
            dv = horner(deriv, z[i])
            if dv == 0:
                break
            z[i] -= horner(coeffs, z[i]) / dv
    return z


def _split_roots(roots: list[complex], n_real: int) -> list[complex]:
    """Put the n_real roots nearest the real axis onto it and average
    the rest into exact conjugate pairs, each upper root with the
    nearest conjugate of a lower one.

    n_real is the exact Sturm count of a squarefree real polynomial;
    DidNotConverge when the other roots do not fall into as many upper
    as lower half-plane roots.
    """
    nearest = sorted(roots, key=lambda z: abs(z.imag) / max(1.0, abs(z)))
    out = [complex(z.real, 0.0) for z in nearest[:n_real]]
    upper = [z for z in nearest[n_real:] if z.imag > 0]
    lower = [z for z in nearest[n_real:] if z.imag < 0]
    if len(upper) != len(lower) or 2 * len(upper) != len(roots) - n_real:
        raise DidNotConverge(
            f"degree {len(roots)} roots do not split into {n_real} real "
            "roots and conjugate pairs"
        )
    for z in upper:
        w = min(lower, key=lambda w: abs(z - w.conjugate()))
        lower.remove(w)
        mean = (z + w.conjugate()) / 2
        out.extend([mean, mean.conjugate()])
    return out


def alpha_roots(p: AlphaPolynomial) -> list[tuple[complex, int]]:
    """All alpha roots of p with multiplicities, sorted by (re, im).

    Multiple roots are separated exactly (squarefree decomposition over
    the integers) before refinement, so each numeric solve sees only
    simple roots, and each factor's Sturm count says how many of them
    are real: those come back with imaginary part exactly 0, the others
    as exact conjugate pairs.  The refinement target is
    ``|p(r)| <= ROOT_TOL * max|coeff| * max(1, |r|)^deg``.  Raises
    DidNotConverge when that target is missed or overflows floats, or
    when the refined roots cannot be split as the Sturm count says.
    Aberth's starts are perturbed by a fixed seed, so every call gives
    the same roots.
    """
    if p.degree < 0:
        raise ValidationError("the zero polynomial has no root set")
    if p.degree == 0:
        return []
    rng = random.Random(DEFAULT_SEED)
    # alpha = 0 roots come straight off the trailing zero coefficients
    zero_mult = next(i for i, c in enumerate(p.coeffs) if c)
    reduced = alpha_poly(p.coeffs[zero_mult:])
    out: list[tuple[complex, int]] = []
    if zero_mult:
        out.append((0j, zero_mult))
    maxc = max(abs(c) for c in p.coeffs)

    try:
        for factor, mult in squarefree_decomposition(reduced):
            roots = _aberth([float(c) for c in factor.coeffs], rng)
            for z in _split_roots(roots, count_distinct_real_roots(factor)):
                out.append((z, mult))

        for z, _ in out:
            bound = ROOT_TOL * maxc * max(1.0, abs(z)) ** p.degree
            if abs(p(z)) > bound:
                raise DidNotConverge(
                    f"root {z} of {alpha_str(p)} misses residual target"
                )
    except OverflowError:
        raise DidNotConverge(
            f"root refinement overflowed floats on degree {p.degree} polynomial"
        ) from None
    out.sort(key=lambda item: (item[0].real, item[0].imag))
    return out


def lift_to_x(alpha_root: complex, k: int) -> list[complex]:
    """The k values lambda with lambda^k = alpha_root (all 0 for root 0)."""
    if k < 2:
        raise ValidationError("lift_to_x needs k >= 2")
    if alpha_root == 0:
        return [0j] * k
    r = abs(alpha_root) ** (1.0 / k)
    theta = cmath.phase(alpha_root)
    return [
        r * cmath.exp(1j * (theta + 2 * cmath.pi * j) / k) for j in range(k)
    ]


# -- spectrum sets ----------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumSource:
    """Which catalog polynomial and alpha root produced a spectrum value."""

    poly: AlphaPolynomial
    alpha: complex


class _TolGrid:
    """Values filed in square cells of side 2*tol.  A value within tol of
    z lies in z's cell or one of its eight neighbours, so ``near`` gives
    the answer of ``any(abs(z - v) <= tol for v in values)`` from nine
    cells: O(1) expected when the values lie more than tol apart.
    """

    __slots__ = ("tol", "cells")

    def __init__(self, tol: float, values):
        self.tol = tol
        self.cells: dict[tuple[float, float], list[complex]] = {}
        for v in values:
            self.add(v)

    def _cell(self, z: complex) -> tuple[float, float]:
        side = 2 * self.tol
        return z.real // side, z.imag // side

    def add(self, v: complex) -> None:
        self.cells.setdefault(self._cell(v), []).append(v)

    def near(self, z: complex) -> bool:
        tol, cells = self.tol, self.cells
        re, im = self._cell(z)
        for dre in (-1, 0, 1):
            for dim in (-1, 0, 1):
                for v in cells.get((re + dre, im + dim), ()):
                    if abs(z - v) <= tol:
                        return True
        return False


@dataclass(frozen=True)
class SpectrumSet:
    """Deduplicated eigenvalue set with the tolerances that shaped it.

    ``sources`` gives each value's provenance, or is empty for none.
    ``tol`` must be finite and > 0.  The first read builds a grid index
    over the values in O(V), the same index ``set_spectrum`` dedups
    with.  On values more than ``tol`` apart, as ``set_spectrum`` keeps
    them, ``contains`` then costs O(1) and ``rotation_symmetric`` O(kV).
    """

    values: tuple[complex, ...]
    tol: float
    k: int
    sources: tuple[SpectrumSource | None, ...] = ()

    def __post_init__(self):
        _require_tol(self.tol)
        if self.sources and len(self.sources) != len(self.values):
            raise ValidationError(
                f"{len(self.sources)} sources for {len(self.values)} values"
            )

    def _sourced(self):
        return zip(self.values, self.sources or repeat(None))

    @cached_property
    def _grid(self) -> _TolGrid:
        # The cache sits in the instance __dict__, not in a field, so ==,
        # hash and repr ignore it.
        return _TolGrid(self.tol, self.values)

    def contains(self, z: complex) -> bool:
        """Whether some value lies within ``tol`` of z."""
        return self._grid.near(z)

    def rotation_symmetric(self) -> bool:
        """Invariance under multiplication by every k-th root of unity."""
        for j in range(1, self.k):
            zeta = cmath.exp(2j * cmath.pi * j / self.k)
            if not all(self.contains(v * zeta) for v in self.values):
                return False
        return True

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "tol": self.tol,
            "root_tol": ROOT_TOL,
            "values": [
                {
                    "re": v.real,
                    "im": v.imag,
                    "source_poly": alpha_str(s.poly) if s else None,
                    "alpha_re": s.alpha.real if s else None,
                    "alpha_im": s.alpha.imag if s else None,
                }
                for v, s in self._sourced()
            ],
        }

    def csv_rows(self) -> list[list[str]]:
        """Rows for the root-scatter CSV (header included)."""
        rows = [["re", "im", "source_poly", "alpha_re", "alpha_im"]]
        for v, s in self._sourced():
            rows.append(
                [
                    repr(v.real),
                    repr(v.imag),
                    alpha_str(s.poly) if s else "",
                    repr(s.alpha.real) if s else "",
                    repr(s.alpha.imag) if s else "",
                ]
            )
        return rows


def _require_tol(tol: float) -> None:
    if not 0 < tol < math.inf:
        raise ValidationError(f"tol must be finite and > 0, got {tol!r}")


def _require_finite_lam(lam: complex) -> None:
    if not cmath.isfinite(lam):
        raise ValidationError(f"lambda must be finite, got {lam!r}")


def _require_nonzero_lam(lam: complex, tol: float) -> None:
    if abs(lam) <= tol:
        raise ValidationError(
            "a totally nonzero eigenpair requires a nonzero eigenvalue"
        )


def _require_spectrum_input(H: UniformHypergraph):
    """k >= 3, then ``hypertree_walk``, whose (order, children) a
    caller folds over without walking twice."""
    if H.k == 2:
        raise UniformityTwoUnsupported(
            "set-spectrum assembly from subtrees holds only for k >= 3"
        )
    return hypertree_walk(H)


def _lifts(polys, k):
    """Each k-th root lift of each alpha root of each of polys, in that
    order, paired with its source."""
    for poly in polys:
        for a, _mult in alpha_roots(poly):
            source = SpectrumSource(poly, a)
            for lam in lift_to_x(a, k):
                yield lam, source


def _distinct_lifts(lifts, tol, kept):
    """Append to kept, in order, each (value, source) of lifts whose
    value lies farther than tol from every value kept before it (the
    first accepted wins); return kept.

    The kept values are filed in the ``_TolGrid`` that ``SpectrumSet``
    reads, so each test costs O(1) expected and V lifts O(V), with the
    decisions of a scan of every kept value.
    """
    grid = _TolGrid(tol, (v for v, _ in kept))
    for lam, source in lifts:
        if not grid.near(lam):
            grid.add(lam)
            kept.append((lam, source))
    return kept


def set_spectrum(
    H: UniformHypergraph,
    tol: float = DEFAULT_SET_TOL,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
    catalog: SubtreeCatalog | None = None,
) -> SpectrumSet:
    """The eigenvalue set of H: {0} plus k-th-root lifts of every alpha
    root of every distinct connected subtree polynomial, deduplicated at
    ``tol``.

    The polynomials are ``catalog.polys`` when a catalog is passed, and
    otherwise come from the distinct-state DP ``subtrees._distinct_polys``
    over the walk that checks H, in the same (degree, coefficients)
    order; ``max_subsets`` then caps the DP's states, not subsets.
    Lifts are taken in that order, and one within ``tol`` of a value
    already kept is dropped, so the first accepted wins and keeps its
    source.  The dedup runs on the grid index ``SpectrumSet.contains``
    reads: O(V) expected over the lifts, after the root solves.  The
    result is closed under multiplication by k-th roots of unity
    because lifts always arrive in complete families.
    """
    _require_tol(tol)
    walk = _require_spectrum_input(H)
    polys = (
        _distinct_polys(H, walk, max_subsets) if catalog is None else catalog.polys
    )
    kept = _distinct_lifts(_lifts(polys, H.k), tol, [(0j, None)])
    kept.sort(key=lambda item: (item[0].real, item[0].imag))
    return SpectrumSet(
        values=tuple(v for v, _ in kept),
        tol=tol,
        k=H.k,
        sources=tuple(src for _, src in kept),
    )


def _bisect(above, lo: float, hi: float) -> tuple[float, float]:
    """Narrow lo < hi, where not above(lo) and above(hi), to adjacent
    floats with the same property."""
    while math.nextafter(lo, hi) < hi:
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if above(mid) else (mid, hi)
    return lo, hi


def _radius_guess(above) -> float:
    """The float where the monotone test ``above`` turns true, searched
    by doubling from 1 and then bisection; spectral_radius runs it on
    float labels for a starting point only."""
    lo, hi = 0.0, 1.0
    while not above(hi):
        lo, hi = hi, 2 * hi
    return _bisect(above, lo, hi)[1]


def spectral_radius(H: UniformHypergraph) -> float:
    """rho(H) rounded to the nearest float; rho^k is the largest real
    alpha root of H's matching polynomial.

    Exact test: r > rho iff the leaf-to-root labels u of ``_labels``
    at alpha = r^k, in Fractions, keep every 1 - u_c > 0 and end with
    u_root < 1 (the alpha-normal labeling of Lu and Man, Linear Algebra
    Appl. 509, 2016); O(mk) per test.  The same test on float labels
    gives a guess, which only picks where the exact search starts:
    from it, exact tests gallop outwards (steps of 1, 2, 4, ... ulps)
    until lo <= rho < hi, bisect that bracket down to adjacent floats
    and test their midpoint to pick one.  A guess within an ulp of rho,
    the usual case, costs 3 exact tests; one d ulps away costs about
    2 log2(d) more.  Every returned bit is decided by exact tests.
    """
    order, children = _require_spectrum_input(H)
    if H.m == 0:
        raise ValidationError("spectral radius needs at least one edge")

    def above(r, num=Fraction) -> bool:
        u = _labels(order, children, num(r) ** H.k, lambda d: d <= 0)
        return u is not None and u[order[0]] < 1

    guess = _radius_guess(lambda r: above(r, float))
    if not 0 < guess < math.inf:
        guess = 1.0
    step = math.ulp(guess)
    if above(guess):
        # rho > 0, so 0 bounds it from below without a test
        lo, hi = guess - step, guess
        while lo > 0 and above(lo):
            hi, step = lo, 2 * step
            lo = hi - step
        lo = max(lo, 0.0)
    else:
        lo, hi = guess, guess + step
        while not above(hi):
            lo, step = hi, 2 * step
            hi = lo + step
    lo, hi = _bisect(above, lo, hi)
    return lo if above((Fraction(lo) + Fraction(hi)) / 2) else hi


def is_cyclotomic_spectrum(
    H: UniformHypergraph,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
) -> bool:
    """True iff every nonzero eigenvalue lambda has lambda^k real, i.e.
    lies on a ray of argument pi*j/k.

    Equivalently, every connected subtree polynomial has only real alpha
    roots; that is decided exactly, by comparing a polynomial's Sturm
    count of distinct real roots with its number of distinct roots.

    False from one subtree first: a ``power_obstruction`` edge, with one
    further edge at each of its three vertices of degree >= 2, is a
    connected, so induced, 4-edge subtree.  Its outer edges are pairwise
    disjoint and each meets the middle one, so for every k >= 3 its
    counts are (1, 4, 3, 1) and its polynomial a^3 - 4a^2 + 3a - 1 has
    1 real root of 3 (discriminant -31).  Both numbers are computed, by
    ``matching_polynomial`` and ``_sturm_counts``, in O(mk).  Otherwise
    every distinct polynomial of ``subtrees._distinct_polys`` over the
    walk that checks H is tested, with ``max_subsets`` capping its
    states.
    """
    walk = _require_spectrum_input(H)
    edge = power_obstruction(H)
    if edge is not None:
        real, distinct = _sturm_counts(_obstruction_poly(H, edge))
        if real != distinct:
            return False
    polys = _distinct_polys(H, walk, max_subsets)
    return all(real == distinct for real, distinct in map(_sturm_counts, polys))


def _obstruction_poly(H: UniformHypergraph, edge: int) -> AlphaPolynomial:
    """Matching polynomial of the subtree of ``edge`` and the first other
    edge at each of its first three vertices of degree >= 2."""
    picked = [edge]
    for v in H.edges[edge]:
        if len(picked) == 4:
            break
        picked += [j for j, e in enumerate(H.edges) if j != edge and v in e][:1]
    sub = subtree_hypergraph(H, EdgeSubset(tuple(sorted(picked))))
    return matching_polynomial(sub)


# -- eigenpairs -----------------------------------------------------------------


@dataclass(frozen=True)
class Eigenpair:
    """Candidate eigenpair with its verified residual and support."""

    lam: complex
    x: tuple[complex, ...]
    residual: float
    support: VertexSet
    totally_nonzero: bool


def eigen_residual(
    H: UniformHypergraph, lam: complex, x: list[complex] | tuple[complex, ...]
) -> float:
    """Max over vertices of |sum of incident edge products - lam x_j^(k-1)|;
    nan as soon as one vertex gives nan."""
    if len(x) != H.n:
        raise DimensionMismatch(f"vector length {len(x)} != n = {H.n}")
    worst = 0.0
    sums = [0j] * (H.n + 1)
    for e in H.edges:
        for j in e:
            prod = 1 + 0j
            for v in e:
                if v != j:
                    prod *= x[v - 1]
            sums[j] += prod
    for j in range(1, H.n + 1):
        r = abs(sums[j] - lam * x[j - 1] ** (H.k - 1))
        if math.isnan(r):
            return r
        if r > worst:
            worst = r
    return worst


def _labels(order, children, alpha, pole):
    """Leaf-to-root labels u_v = (1/alpha) sum_{child e}
    prod_{c in e, c != v} 1/(1 - u_c), or None as soon as pole(1 - u_c)
    holds; order and children come from ``hypertree_walk``.  A child with
    u_c = 0 (a leaf) is skipped, which is exact.
    """
    u = [0] * len(children)
    for v in reversed(order):
        total = 0
        for _, kids in children[v]:
            prod = 1
            for c in kids:
                if not u[c]:
                    continue
                d = 1 - u[c]
                if pole(d):
                    return None
                prod /= d
            total += prod
        if total:
            u[v] = total / alpha
    return u


def _leaf_to_root_eigenvector(order, children, k, lam) -> list[complex] | None:
    """Direct construction on the tree, or None when a pole degenerates.

    With y_e the product of x over e, each vertex relation reads
    sum_{e at j} y_e = lam x_j^k.  Writing u_j for the fraction of that
    sum contributed by j's child edges gives a leaf-to-root recursion
        u_j = (1/alpha) * sum_{child e} prod_{child c of e} 1/(1 - u_c),
    and the root satisfies u_root = 1 exactly when alpha = lam^k is a
    root of the matching polynomial.  Vertex values are then recovered
    top-down from the y_e.
    """
    u = _labels(order, children, lam**k, lambda d: abs(d) < 1e-9)
    if u is None:
        return None
    x: list[complex | None] = [None] * len(children)
    x[order[0]] = 1 + 0j
    lam_km1 = lam ** (k - 1)
    for p in order:
        for _, kids in children[p]:
            denom = lam_km1
            for c in kids:
                denom *= 1 - u[c]
            if abs(denom) < 1e-14:
                return None
            y = x[p] ** k / denom
            partial = x[p]
            for c in kids[:-1]:
                val = y / (lam * (1 - u[c]))
                if abs(val) < 1e-14:
                    return None
                x[c] = val ** (1.0 / k)
                partial *= x[c]
            if abs(partial) < 1e-14:
                return None
            x[kids[-1]] = y / partial
    return x[1:]


def zero_extend(
    x_sub: list[complex] | tuple[complex, ...],
    original_labels: tuple[int, ...] | VertexSet,
    host_n: int,
) -> list[complex]:
    """Place a subtree eigenvector into the host, zeros elsewhere."""
    labels = (
        original_labels.members
        if isinstance(original_labels, VertexSet)
        else tuple(original_labels)
    )
    out = [0j] * host_n
    for label, value in zip(labels, x_sub):
        out[label - 1] = value
    return out


def find_totally_nonzero_eigenvector(
    H: UniformHypergraph,
    lam: complex,
    tol: float = DEFAULT_SET_TOL,
) -> Eigenpair:
    """Eigenvector for lam with every coordinate nonzero, normalized so
    vertex 1 carries 1.

    One leaf-to-root elimination builds it: the construction of Zhang,
    Kang, Shan and Bai ("The spectra of uniform hypertrees", Linear
    Algebra Appl. 533, 2017) that the set-spectrum theorem extends to
    subtrees.  NoConvergence, naming which, when the elimination meets a
    pole or when its vector has residual above tol or an entry of
    modulus <= tol; a lam that is not a root of the matching polynomial
    ends in one of the two.  ValidationError unless tol and lam are
    finite and tol > 0.
    """
    _require_tol(tol)
    _require_finite_lam(lam)
    order, children = _require_spectrum_input(H)
    _require_nonzero_lam(lam, tol)
    raw = _leaf_to_root_eigenvector(order, children, H.k, lam)
    if raw is None:
        raise NoConvergence(
            f"the leaf-to-root elimination meets a pole at lambda = {lam}"
        )
    # raw[0] is 1 already; dividing by it turns each -0.0 part into 0.0
    return _checked(H, lam, [v / raw[0] for v in raw], tol)


def rotate_eigenpair(
    H: UniformHypergraph,
    pair: Eigenpair,
    lam: complex,
    tol: float = DEFAULT_SET_TOL,
) -> Eigenpair:
    """pair rotated to lam = pair.lam * zeta^b (up to rounding, zeta =
    e^(2 pi i/k)) and checked there as find_totally_nonzero_eigenvector
    checks.  On long paths an elimination a few ulps off a root already
    misses tol, so rotating the pair of the real spectral radius beats
    eliminating at its other branches.

    Vertex v is multiplied by zeta^(b s(v)): s is 0 at the root, and in
    each child edge the first child takes (1 - s(parent)) mod k and the
    others 0.  Every edge then sums to 1 mod k, which makes the vector
    an eigenvector for pair.lam * zeta^b.  ValidationError unless tol
    and lam are finite, tol > 0, |pair.lam| > tol and H a hypertree.
    """
    _require_tol(tol)
    _require_finite_lam(lam)
    order, children = _require_spectrum_input(H)
    _require_nonzero_lam(pair.lam, tol)
    k = H.k
    b = round(k * cmath.phase(lam / pair.lam) / (2 * math.pi)) % k
    s = [0] * len(children)
    for p in order:
        for _, kids in children[p]:
            s[kids[0]] = (1 - s[p]) % k
    turn = [cmath.exp(2j * cmath.pi * (b * t % k) / k) for t in range(k)]
    return _checked(H, lam, [v * turn[t] for t, v in zip(s[1:], pair.x)], tol)


def _checked(H, lam, x, tol) -> Eigenpair:
    """The totally nonzero eigenpair (lam, x), or NoConvergence when x
    has residual above tol or an entry of modulus <= tol."""
    residual = eigen_residual(H, lam, x)
    if not (residual <= tol and all(abs(v) > tol for v in x)):
        raise NoConvergence(
            f"the eliminated vector at lambda = {lam} misses tol {tol:g}: "
            f"residual {residual:.3e}, smallest entry "
            f"{min(abs(v) for v in x):.3e}"
        )
    return Eigenpair(
        lam=lam,
        x=tuple(x),
        residual=residual,
        support=VertexSet.of(range(1, H.n + 1)),
        totally_nonzero=True,
    )
