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
import random
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import _ratpoly as _rp
from .core import UniformHypergraph, VertexSet, is_hypertree
from .errors import (
    DidNotConverge,
    DimensionMismatch,
    NoConvergence,
    NotAHypertree,
    UniformityTwoUnsupported,
    ValidationError,
)
from .matching import (
    AlphaPolynomial,
    alpha_poly,
    alpha_str,
    matching_polynomial,
)
from .subtrees import DEFAULT_MAX_SUBSETS, SubtreeCatalog, distinct_matching_polynomials

DEFAULT_SET_TOL = 1e-8
DEFAULT_ROOT_TOL = 1e-12
DEFAULT_SEED = 24301
_CLUSTER_TOL = 1e-8


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


def _horner(coeffs: list[complex], z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _aberth(
    coeffs: list[float],
    root_tol: float,
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
        return root_tol * maxc * max(1.0, abs(w)) ** deg

    for _ in range(max_iter):
        converged = True
        for i in range(deg):
            pv = _horner(coeffs, z[i])
            if abs(pv) <= 0.01 * target(z[i]):
                continue
            converged = False
            dv = _horner(deriv, z[i])
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
            dv = _horner(deriv, z[i])
            if dv == 0:
                break
            z[i] -= _horner(coeffs, z[i]) / dv
    return z


def _symmetrize_real_coeff_roots(roots: list[complex]) -> list[complex]:
    """Snap near-real roots onto the axis and pair conjugates exactly."""
    snapped = [
        complex(z.real, 0.0) if abs(z.imag) <= 1e-9 * max(1.0, abs(z)) else z
        for z in roots
    ]
    upper = [z for z in snapped if z.imag > 0]
    lower = [z for z in snapped if z.imag < 0]
    real = [z for z in snapped if z.imag == 0]
    out = real[:]
    used = [False] * len(lower)
    for z in upper:
        best, best_d = -1, float("inf")
        for j, w in enumerate(lower):
            if used[j]:
                continue
            d = abs(z - w.conjugate())
            if d < best_d:
                best, best_d = j, d
        if best >= 0 and best_d <= 1e-6 * max(1.0, abs(z)):
            used[best] = True
            mean = (z + lower[best].conjugate()) / 2
            out.extend([mean, mean.conjugate()])
        else:
            out.append(z)
    out.extend(w for j, w in enumerate(lower) if not used[j])
    return out


def _cluster(roots: list[complex], rel_tol: float) -> list[tuple[complex, int]]:
    pending = sorted(roots, key=lambda z: (z.real, z.imag))
    clusters: list[tuple[complex, int]] = []
    for z in pending:
        for idx, (w, count) in enumerate(clusters):
            if abs(z - w) <= rel_tol * max(1.0, abs(z), abs(w)):
                clusters[idx] = ((w * count + z) / (count + 1), count + 1)
                break
        else:
            clusters.append((z, 1))
    return clusters


def alpha_roots(
    p: AlphaPolynomial,
    root_tol: float = DEFAULT_ROOT_TOL,
    seed: int = DEFAULT_SEED,
) -> list[tuple[complex, int]]:
    """All alpha roots of p with multiplicities, sorted by (re, im).

    Multiple roots are separated exactly (squarefree decomposition over
    the rationals) before refinement, so each numeric solve sees only
    simple roots; the refinement target is
    ``|p(r)| <= root_tol * max|coeff| * max(1, |r|)^deg``.  Raises
    DidNotConverge when that target is missed or overflows floats.
    """
    if p.degree < 0:
        raise ValidationError("the zero polynomial has no root set")
    if p.degree == 0:
        return []
    rng = random.Random(seed)
    # alpha = 0 roots come straight off the trailing zero coefficients
    zero_mult = 0
    cs = list(p.coeffs)
    while cs and cs[0] == 0:
        cs.pop(0)
        zero_mult += 1
    reduced = alpha_poly(cs)
    out: list[tuple[complex, int]] = []
    if zero_mult:
        out.append((0j, zero_mult))
    maxc = max(abs(c) for c in p.coeffs)

    try:
        for factor, mult in squarefree_decomposition(reduced):
            if factor.degree < 1:
                continue
            roots = _aberth([float(c) for c in factor.coeffs], root_tol, rng)
            roots = _symmetrize_real_coeff_roots(roots)
            for z, times in _cluster(roots, _CLUSTER_TOL):
                out.append((z, mult * times))

        for z, _ in out:
            bound = root_tol * maxc * max(1.0, abs(z)) ** p.degree
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


@dataclass(frozen=True)
class SpectrumSet:
    """Deduplicated eigenvalue set with the tolerances that shaped it."""

    values: tuple[complex, ...]
    tol: float
    k: int
    root_tol: float = DEFAULT_ROOT_TOL
    sources: tuple[SpectrumSource | None, ...] = ()

    def contains(self, z: complex) -> bool:
        return any(abs(z - v) <= self.tol for v in self.values)

    def nonzero_values(self) -> tuple[complex, ...]:
        return tuple(v for v in self.values if abs(v) > self.tol)

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
            "root_tol": self.root_tol,
            "values": [
                {
                    "re": v.real,
                    "im": v.imag,
                    "source_poly": alpha_str(s.poly) if s else None,
                    "alpha_re": s.alpha.real if s else None,
                    "alpha_im": s.alpha.imag if s else None,
                }
                for v, s in zip(self.values, self.sources)
            ],
        }

    def csv_rows(self) -> list[list[str]]:
        """Rows for the root-scatter CSV (header included)."""
        rows = [["re", "im", "source_poly", "alpha_re", "alpha_im"]]
        for v, s in zip(self.values, self.sources):
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


def _require_spectrum_input(H: UniformHypergraph) -> None:
    if H.k == 2:
        raise UniformityTwoUnsupported(
            "set-spectrum assembly from subtrees holds only for k >= 3"
        )
    if not is_hypertree(H):
        raise NotAHypertree("spectrum operations require a hypertree")


def set_spectrum(
    H: UniformHypergraph,
    tol: float = DEFAULT_SET_TOL,
    root_tol: float = DEFAULT_ROOT_TOL,
    seed: int = DEFAULT_SEED,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
    catalog: SubtreeCatalog | None = None,
) -> SpectrumSet:
    """The eigenvalue set of H: {0} plus k-th-root lifts of every alpha
    root of every cataloged subtree polynomial, deduplicated at ``tol``.

    The result is closed under multiplication by k-th roots of unity
    because lifts always arrive in complete families.
    """
    _require_spectrum_input(H)
    if catalog is None:
        catalog = distinct_matching_polynomials(H, max_subsets)
    accepted: list[complex] = [0j]
    srcs: list[SpectrumSource | None] = [None]
    for poly in catalog.polys:
        for a, _mult in alpha_roots(poly, root_tol, seed):
            for lam in lift_to_x(a, H.k):
                if not any(abs(lam - v) <= tol for v in accepted):
                    accepted.append(lam)
                    srcs.append(SpectrumSource(poly, a))
    order = sorted(
        range(len(accepted)), key=lambda i: (accepted[i].real, accepted[i].imag)
    )
    return SpectrumSet(
        values=tuple(accepted[i] for i in order),
        tol=tol,
        k=H.k,
        root_tol=root_tol,
        sources=tuple(srcs[i] for i in order),
    )


def spectral_radius(
    H: UniformHypergraph,
    root_tol: float = DEFAULT_ROOT_TOL,
    seed: int = DEFAULT_SEED,
) -> float:
    """k-th root of the largest real alpha root of H's matching polynomial."""
    _require_spectrum_input(H)
    if H.m == 0:
        raise ValidationError("spectral radius needs at least one edge")
    phi = matching_polynomial(H)
    reals = [
        z.real for z, _ in alpha_roots(phi, root_tol, seed) if z.imag == 0.0
    ]
    if not reals or max(reals) <= 0:
        raise DidNotConverge(
            "no positive real root found for the matching polynomial"
        )
    return max(reals) ** (1.0 / H.k)


def is_cyclotomic_spectrum(
    H: UniformHypergraph,
    tol: float = DEFAULT_SET_TOL,
    root_tol: float = DEFAULT_ROOT_TOL,
    seed: int = DEFAULT_SEED,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
) -> bool:
    """True iff every nonzero eigenvalue lambda has lambda^k real
    (within ``tol`` relative), i.e. lies on a ray of argument pi*j/k.

    Equivalently, every cataloged subtree polynomial has only real alpha
    roots.
    """
    spectrum = set_spectrum(H, tol, root_tol, seed, max_subsets)
    for v in spectrum.nonzero_values():
        w = v**H.k
        if abs(w.imag) > tol * abs(v) ** H.k:
            return False
    return True


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
    """Max over vertices of |sum of incident edge products - lam x_j^(k-1)|."""
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
        if r > worst:
            worst = r
    return worst


def _orient(H: UniformHypergraph):
    """BFS orientation from vertex 1: each edge gets the parent vertex it
    was discovered through; vertices get their child edges."""
    incident: list[list[int]] = [[] for _ in range(H.n + 1)]
    for i, e in enumerate(H.edges):
        for v in e:
            incident[v].append(i)
    edge_parent = [0] * H.m
    child_edges: list[list[int]] = [[] for _ in range(H.n + 1)]
    seen_v = [False] * (H.n + 1)
    seen_e = [False] * H.m
    edge_order: list[int] = []
    vertex_order: list[int] = [1]
    seen_v[1] = True
    queue = deque([1])
    while queue:
        v = queue.popleft()
        for i in incident[v]:
            if seen_e[i]:
                continue
            seen_e[i] = True
            edge_parent[i] = v
            child_edges[v].append(i)
            edge_order.append(i)
            for w in H.edges[i]:
                if not seen_v[w]:
                    seen_v[w] = True
                    vertex_order.append(w)
                    queue.append(w)
    return edge_parent, child_edges, edge_order, vertex_order


def _leaf_to_root_eigenvector(
    H: UniformHypergraph, lam: complex
) -> list[complex] | None:
    """Direct construction on the tree, or None when a pole degenerates.

    With y_e the product of x over e, each vertex relation reads
    sum_{e at j} y_e = lam x_j^k.  Writing u_j for the fraction of that
    sum contributed by j's child edges gives a leaf-to-root recursion
        u_j = (1/alpha) * sum_{child e} prod_{child c of e} 1/(1 - u_c),
    and the root satisfies u_root = 1 exactly when alpha = lam^k is a
    root of the matching polynomial.  Vertex values are then recovered
    top-down from the y_e.
    """
    k = H.k
    alpha = lam**k
    edge_parent, child_edges, edge_order, vertex_order = _orient(H)
    u = [0j] * (H.n + 1)
    for v in reversed(vertex_order):
        if not child_edges[v]:
            continue
        total = 0j
        for i in child_edges[v]:
            prod = 1 + 0j
            for c in H.edges[i]:
                if c == edge_parent[i]:
                    continue
                d = 1 - u[c]
                if abs(d) < 1e-9:
                    return None
                prod /= d
            total += prod
        u[v] = total / alpha
    x: list[complex | None] = [None] * (H.n + 1)
    x[1] = 1 + 0j
    lam_km1 = lam ** (k - 1)
    for i in edge_order:
        p = edge_parent[i]
        children = [c for c in H.edges[i] if c != p]
        denom = lam_km1
        for c in children:
            denom *= 1 - u[c]
        if abs(denom) < 1e-14:
            return None
        y = x[p] ** k / denom
        partial = x[p]
        for c in children[:-1]:
            val = y / (lam * (1 - u[c]))
            if abs(val) < 1e-14:
                return None
            xc = val ** (1.0 / k)
            x[c] = xc
            partial *= xc
        if abs(partial) < 1e-14:
            return None
        x[children[-1]] = y / partial
    return [x[v] for v in range(1, H.n + 1)]


def _newton_eigenvector(
    H: UniformHypergraph, lam: complex, rng: random.Random, iters: int = 80
) -> list[complex] | None:
    """Damped Newton on the full eigen-system with x_1 = 1 pinned."""
    n, k = H.n, H.k
    incident: list[list[int]] = [[] for _ in range(n + 1)]
    for i, e in enumerate(H.edges):
        for v in e:
            incident[v].append(i)

    def equations(x: np.ndarray) -> np.ndarray:
        out = np.zeros(n, dtype=complex)
        for j in range(1, n + 1):
            s = 0j
            for i in incident[j]:
                prod = 1 + 0j
                for v in H.edges[i]:
                    if v != j:
                        prod *= x[v - 1]
                s += prod
            out[j - 1] = s - lam * x[j - 1] ** (k - 1)
        return out

    def jacobian(x: np.ndarray) -> np.ndarray:
        # rows: equations for vertices 2..n; cols: unknowns x_2..x_n
        jac = np.zeros((n - 1, n - 1), dtype=complex)
        for j in range(2, n + 1):
            for i in incident[j]:
                for w in H.edges[i]:
                    if w == j or w == 1:
                        continue
                    prod = 1 + 0j
                    for v in H.edges[i]:
                        if v != j and v != w:
                            prod *= x[v - 1]
                    jac[j - 2, w - 2] += prod
            jac[j - 2, j - 2] += -lam * (k - 1) * x[j - 1] ** (k - 2)
        return jac

    x = np.ones(n, dtype=complex)
    for j in range(1, n):
        r = 0.4 + 1.2 * rng.random()
        x[j] = r * cmath.exp(2j * cmath.pi * rng.random())
    for _ in range(iters):
        f = equations(x)
        norm = float(np.linalg.norm(f[1:]))
        if norm < 1e-13 * max(1.0, abs(lam)) ** k:
            break
        try:
            step = np.linalg.solve(jacobian(x), -f[1:])
        except np.linalg.LinAlgError:
            return None
        t = 1.0
        while t > 1e-4:
            trial = x.copy()
            trial[1:] += t * step
            if float(np.linalg.norm(equations(trial)[1:])) < (1 - 0.25 * t) * norm:
                x = trial
                break
            t /= 2
        else:
            return None
    return [complex(v) for v in x]


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
    seed: int = DEFAULT_SEED,
    max_restarts: int = 32,
) -> Eigenpair:
    """Eigenvector for lam with every coordinate nonzero, normalized so
    the minimum-index vertex carries 1.

    Tries the leaf-to-root tree elimination first and falls back to
    damped Newton from seeded random starts.  NoConvergence after the
    restart budget signals either a numerically defective lam or a lam
    that is not actually a root of the matching polynomial.
    """
    _require_spectrum_input(H)
    if abs(lam) <= tol:
        raise ValidationError(
            "a totally nonzero eigenpair requires a nonzero eigenvalue"
        )

    def finalize(raw: list[complex] | None) -> Eigenpair | None:
        if raw is None or any(v is None for v in raw):
            return None
        pivot = raw[0]
        if abs(pivot) < 1e-300:
            return None
        x = [v / pivot for v in raw]
        residual = eigen_residual(H, lam, x)
        support = VertexSet.of(
            j + 1 for j, v in enumerate(x) if abs(v) > tol
        )
        if residual > tol or len(support) != H.n:
            return None
        return Eigenpair(
            lam=lam,
            x=tuple(x),
            residual=residual,
            support=support,
            totally_nonzero=True,
        )

    pair = finalize(_leaf_to_root_eigenvector(H, lam))
    if pair is not None:
        return pair
    rng = random.Random(seed)
    for _ in range(max_restarts):
        pair = finalize(_newton_eigenvector(H, lam, rng))
        if pair is not None:
            return pair
    raise NoConvergence(
        f"no totally nonzero eigenvector found for lambda = {lam}"
    )
