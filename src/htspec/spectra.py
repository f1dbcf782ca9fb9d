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
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat

from . import _ratpoly as _rp
from .core import UniformHypergraph, hypertree_walk, power_obstruction
from .errors import (
    DidNotConverge,
    DimensionMismatch,
    NoConvergence,
    UniformityTwoUnsupported,
    ValidationError,
    VertexOutOfRange,
)
from .matching import (
    AlphaPolynomial,
    _sturm_counts,
    alpha_poly,
    alpha_str,
    horner,
)
from .subtrees import DEFAULT_MAX_SUBSETS, _distinct_polys, _require_max_subsets

DEFAULT_SET_TOL = 1e-8
ROOT_TOL = 1e-12  # the relative residual target of alpha_roots' Aberth roots
DEFAULT_SEED = 24301
_FLOAT_MAX = sys.float_info.max
# q + _ROUND - _ROUND rounds a float q with |q| < 2**51 to the nearest
# integer; every result from -2**51 up is an integer, some below it are not
_ROUND = 1.5 * 2.0**52
_INT_KEYS_FROM = -(2.0**51)


# -- squarefree decomposition (exact) ------------------------------------------


def _yun(f: list[int], g: list[int]) -> list[tuple[AlphaPolynomial, int]]:
    """Yun's squarefree decomposition of a non-constant f, given
    g = gcd(f, f') primitive with positive lead: pairwise coprime
    squarefree factors (q_i, i), each primitive with positive lead, with
    prod q_i^i equal to f up to a constant (a squarefree f, g = 1, comes
    back as its primitive part).  Exact integer arithmetic, so multiple
    roots are resolved before any floating-point refinement happens."""
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


# -- certified real roots ---------------------------------------------------------


def _root_bounds(f: list[int]) -> tuple[float, float]:
    """Floats lo < hi with every root of f in (lo, hi), when every root
    is real: by Laguerre-Samuelson, each root lies within
    w = sqrt((d - 1) / d * sum (r - mean)^2) of the mean of the d roots,
    and both come from f's top three coefficients.  Their quotients are
    correctly rounded from exact integers, so a margin of 1% of
    |mean| + w covers every rounding in between."""
    d, (a, b, c) = len(f) - 1, f[-3:]
    mean = -b / (d * c)
    w = math.sqrt((d - 1) * ((d - 1) * b * b - 2 * d * a * c) / (d * d * c * c))
    margin = 0.01 * (abs(mean) + w)
    if abs(mean) + w > 2.0**1000:
        raise DidNotConverge(
            f"roots of a degree {d} factor may lie beyond float range"
        )
    return mean - w - margin, mean + w + margin


def _laguerre(f: list[int], start: float) -> list[float]:
    """Float approximations of the roots of f, ascending, when every
    root is real and all exceed ``start``.

    Laguerre's iteration, started there, climbs monotonically to the
    smallest root; the factor is deflated by it, and the next climb
    starts there.  A climb stops once a step is below 1e-12 relative:
    convergence is cubic, so the next step would not show in floats.
    Each approximation then takes one ``_newton`` step on the
    undeflated f, whose exact values land it next to its root even
    where float evaluation of f has no correct digit.  Nothing here is
    trusted: ``_real_roots`` checks every approximation exactly, and
    float trouble (overflow, nan, a division by zero) surfaces as an
    exception or as a value that check rejects.
    """
    a = [float(c) for c in f]
    x, out = start, []
    while len(a) > 2:
        n = len(a) - 1
        for _ in range(50):
            p, dp, d2p = a[-1], 0.0, 0.0  # d2p is p''/2
            for c in a[-2::-1]:
                d2p = d2p * x + dp
                dp = dp * x + p
                p = p * x + c
            if p == 0:
                break
            g = dp / p
            root = math.sqrt(max((n - 1) * (n * (g * g - 2 * d2p / p) - g * g), 0.0))
            step = n / (g + root if g >= 0 else g - root)
            x -= step
            if abs(step) <= 1e-12 * abs(x):
                break
        out.append(x)
        carry, q = 0.0, [0.0] * n
        for j in range(n, 0, -1):
            carry = a[j] + x * carry
            q[j - 1] = carry
        a = q
    out.append(-a[0] / a[1])
    df = _rp.deriv(f)
    return sorted(_newton(f, df, x)[1] for x in out)


def _newton(f: list[int], df: list[int], x: float) -> tuple[int, float]:
    """(p(x) * den^d, x - p(x) / p'(x)) for x = num/den, p = f and
    p' = df: one Newton step on exact values, so only the quotient and
    the step are rounded; x itself when p(x) or p'(x) is 0."""
    num, den = x.as_integer_ratio()
    value = _rp.scaled_value(f, num, den)
    slope = _rp.scaled_value(df, num, den) if value else 0
    return value, (x - value / (slope * den) if slope else x)


def _halfway(x: float, y: float) -> tuple[int, int]:
    """(num, den) with num/den exactly halfway between the floats x and y."""
    (a, b), (c, e) = x.as_integer_ratio(), y.as_integer_ratio()
    return a * e + c * b, 2 * b * e


def _nearest_float(above, lo: float, hi: float) -> float:
    """The float nearest the point t where the exact monotone test
    ``above(num, den)`` on rationals num/den turns true, given that
    that float lies in [lo, hi], as it does when the test is false just
    above lo and true at hi.

    Bisection in floats down to adjacent floats with the same property,
    then one test at their midpoint picks the nearer.  A t that is a
    float comes back as itself; one exactly halfway between two floats,
    as the lower when ``above`` holds at t and as the upper otherwise."""
    while math.nextafter(lo, hi) < hi:
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if above(*mid.as_integer_ratio()) else (mid, hi)
    return lo if above(*_halfway(lo, hi)) else hi


def _gallop(above, r: float, lo_bound: float, hi_bound: float) -> float | None:
    """The float nearest the point where the exact monotone test
    ``above(num, den)`` turns true, searched from its approximation r,
    when the turn shows strictly inside (lo_bound, hi_bound); else None.

    The test at r says on which side of r the turn lies; one within
    half an ulp of r returns r after one more test, at that half-ulp
    point.  Beyond it, steps of 1, 2, 4, ... ulps away from r find a
    point past the turn, and ``_nearest_float`` finishes the bracket,
    which starts at r's neighbour when the first step crosses: the
    half-ulp test already ruled r out.  A first step to that neighbour
    is the answer itself.  No rational is tested twice.
    """
    side = above(*r.as_integer_ratio())
    ahead = -1.0 if side else 1.0
    nxt = math.nextafter(r, ahead * math.inf)
    if above(*_halfway(r, nxt)) != side:
        return r
    inner = math.nextafter(hi_bound if ahead > 0 else lo_bound, -ahead * math.inf)
    step, prev = math.ulp(r), r
    while True:
        x = r + ahead * step
        if ahead * (x - inner) >= 0:
            x = inner
        if ahead * (x - prev) <= 0:
            return None
        if above(*x.as_integer_ratio()) != side:
            if x == nxt:
                return x
            # past the halfway point tested above, nxt is nearer than r
            near = nxt if prev == r else prev
            return _nearest_float(above, min(near, x), max(near, x))
        if x == inner:
            return None
        prev, step = x, 2 * step


def _crossed(f: list[int], left: int):
    """The exact monotone test of ``_gallop`` and ``_nearest_float`` for
    a root of f that f has the sign ``left`` just left of: whether
    num/den is at or past it."""
    return lambda num, den: _rp.sign_at(f, num, den) != left


def _refine(f: list[int], lo: float, hi: float, left: int) -> float:
    """The float nearest the one root of f in (lo, hi], where f has the
    sign ``left`` on (lo, root) and the opposite sign on (root, hi].

    ``_newton`` steps from the midpoint, each of whose exact values
    also narrows (lo, hi), with a bisection wherever Newton would leave
    it; once a step no longer moves, ``_gallop`` brackets the root next
    to where it stopped.  ``_nearest_float`` bisects what is left when
    it cannot, or when (lo, hi) closes first.  Neither evaluates f at
    lo or hi, which may be a root of a neighbouring interval.
    """
    df, crossed = _rp.deriv(f), _crossed(f, left)
    x = (lo + hi) / 2
    while lo < x < hi:
        value, step_to = _newton(f, df, x)
        if value == 0:
            return x
        if (value > 0) == (left > 0):
            lo = x
        else:
            hi = x
        if step_to == x:
            root = _gallop(crossed, x, lo, hi)
            return _nearest_float(crossed, lo, hi) if root is None else root
        x = step_to if lo < step_to < hi else (lo + hi) / 2
    return _nearest_float(crossed, lo, hi)


def _isolate(
    f: list[int], chain: list[list[int]], lo: float, hi: float
) -> list[tuple[float, float]]:
    """Sturm isolation: intervals (a, b] with float ends, ascending,
    each holding exactly one root of the squarefree f, whose chain is
    ``chain`` and whose deg f roots are all real and lie in (lo, hi).

    The roots in (a, b] number V(a) - V(b), V the chain's sign
    variations (exact signs at floats); an interval with more than one
    root is halved.  Raises DidNotConverge when two roots lie between
    adjacent floats."""
    # V(hi) is V(+inf), and the d roots in (lo, hi) make V(lo) = V(hi) + d
    v_hi = _rp.variations(chain, 1, 0)
    todo = [(lo, hi, v_hi + len(f) - 1, v_hi)]
    out = []
    while todo:
        a, b, v_a, v_b = todo.pop()
        if v_a - v_b == 1:
            out.append((a, b))
        elif v_a > v_b:
            mid = (a + b) / 2
            if mid == a or mid == b:
                raise DidNotConverge(
                    f"{v_a - v_b} roots of a degree {len(f) - 1} factor "
                    "lie between adjacent floats"
                )
            v_mid = _rp.variations(chain, *mid.as_integer_ratio())
            todo += [(mid, b, v_mid, v_b), (a, mid, v_a, v_mid)]
    return sorted(out)


def _real_roots(f: list[int], chain: list[list[int]]) -> list[float]:
    """The roots of a squarefree f all of whose deg f = d roots are real
    (its Sturm count, from ``chain``), ascending; each is the float
    nearest its root, fixed by exact signs.

    With every root real and simple, f has the sign
    sign(lead) * (-1)^(d - i) just left of its i-th root (from 0), so an
    exact sign at any float says on which side of that root it lies.
    ``_laguerre``'s approximations, split at the midpoints between
    neighbours, give d disjoint intervals; ``_gallop`` brackets one root
    in each between adjacent floats.  d disjoint sign changes of a
    degree d polynomial are all its roots, one apiece, so the brackets
    certify themselves.  When an approximation is not usable (float
    trouble, a missing sign change: ill-conditioned factors such as
    those of long loose paths), ``_isolate`` isolates the roots from the
    chain instead, and ``_refine`` takes each to its nearest float.  A
    degree 1 factor's root is the correctly rounded quotient of its
    coefficients.
    """
    d = len(f) - 1
    if d == 1:
        return [-f[0] / f[1]]
    lead = 1 if f[-1] > 0 else -1
    lefts = [lead if (d - i) % 2 == 0 else -lead for i in range(d)]
    lo, hi = _root_bounds(f)
    try:
        approx = _laguerre(f, lo)
    except (OverflowError, ValueError, ZeroDivisionError):
        approx = []
    cuts = [(r + s) / 2 for r, s in zip(approx, approx[1:])]
    if (
        len(approx) == d
        and all(r < c < s for r, c, s in zip(approx, cuts, approx[1:]))
        and lo < approx[0]
        and approx[-1] < hi
    ):
        roots = [
            _gallop(_crossed(f, left), r, below, above)
            for r, left, below, above in zip(approx, lefts, [lo, *cuts], [*cuts, hi])
        ]
        if None not in roots:
            return roots
    return [
        _refine(f, below, above, left)
        for (below, above), left in zip(_isolate(f, chain, lo, hi), lefts)
    ]


def alpha_roots(p: AlphaPolynomial) -> list[tuple[complex, int]]:
    """All alpha roots of p with multiplicities, sorted by (re, im).

    One Sturm chain of p (without its alpha = 0 roots) gives
    gcd(p, p'); a squarefree p is its own factor, and otherwise Yun's
    squarefree decomposition over the integers separates multiple roots
    first, so each factor has simple roots.  A factor's Sturm count says
    how many of its roots are real.

    - Every root real (the count equals the degree; Heilmann-Lieb makes
      this the case for every polynomial of a power tree): certified by
      ``_real_roots``.  Each root comes back as the float nearest it,
      with imaginary part exactly 0, bracketed between adjacent floats
      by exact integer signs; a root that is a float comes back exact.
      No float residual is involved, so no ``ROOT_TOL`` either.
    - Some root nonreal: Aberth's iteration, whose starts are perturbed
      by a fixed seed so that every call gives the same roots.  The
      count's real roots come back with imaginary part exactly 0, the
      others as exact conjugate pairs, and each must meet
      ``|p(r)| <= ROOT_TOL * max|coeff| * max(1, |r|)^deg``: a target,
      not a distance to the root.

    Raises DidNotConverge when Aberth misses that target, stalls or
    overflows floats, when its roots cannot be split as the Sturm count
    says, or when a real root cannot be told apart in floats.

    Each distinct p is solved once while it stays among the 4096
    polynomials most recently asked for: a fixed-size LRU memo keyed by
    p holds the roots, and each call returns a fresh list of them.  The
    roots are the same either way, since the solve is deterministic and
    Aberth's generator is seeded per solve.  Errors are not memoized.
    """
    return list(_alpha_roots(p))


# fixed: room for all 2,351 distinct subtree polynomials of a random
# 20-edge host, and a bound on what a long-lived process keeps
@lru_cache(maxsize=4096)
def _alpha_roots(p: AlphaPolynomial) -> tuple[tuple[complex, int], ...]:
    """The roots of ``alpha_roots``, solved on each miss of its memo."""
    if p.degree < 0:
        raise ValidationError("the zero polynomial has no root set")
    if p.degree == 0:
        return ()
    rng = None
    # alpha = 0 roots come straight off the trailing zero coefficients
    zero_mult = next(i for i, c in enumerate(p.coeffs) if c)
    reduced = list(p.coeffs[zero_mult:])
    out: list[tuple[complex, int]] = []
    if zero_mult:
        out.append((0j, zero_mult))
    if len(reduced) == 1:
        return tuple(out)
    chain = _rp.sturm_chain(reduced)
    if len(chain[-1]) == 1:
        factors = [(reduced, 1, chain)]
    else:
        # the chain ends in gcd(p, p') up to a constant factor
        factors = [
            (list(q.coeffs), mult, _rp.sturm_chain(q.coeffs))
            for q, mult in _yun(reduced, _rp.positive_primitive(chain[-1]))
        ]
    maxc = max(abs(c) for c in p.coeffs)
    try:
        for f, mult, chain in factors:
            n_real = _rp.real_root_count(chain)
            if n_real == len(f) - 1:
                out += [(complex(r, 0.0), mult) for r in _real_roots(f, chain)]
                continue
            rng = rng or random.Random(DEFAULT_SEED)
            roots = _aberth([float(c) for c in f], rng)
            for z in _split_roots(roots, n_real):
                bound = ROOT_TOL * maxc * max(1.0, abs(z)) ** p.degree
                if abs(p(z)) > bound:
                    raise DidNotConverge(
                        f"root {z} of {alpha_str(p)} misses residual target"
                    )
                out.append((z, mult))
    except OverflowError:
        raise DidNotConverge(
            f"root refinement overflowed floats on degree {p.degree} polynomial"
        ) from None
    out.sort(key=lambda item: (item[0].real, item[0].imag))
    return tuple(out)


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
    """Values filed in square cells of side 4*tol, so that ``near(z)``
    reads z's own cell only and answers
    ``any(abs(z - v) <= tol for v in values)``.

    A float x has key x / side + _ROUND - _ROUND: the nearest integer to
    q = x / side where |q| < 2**51, infinite where q is, and nan only
    where q is.  A key of -2**51 or more is an integer, as the sum it
    comes from is a float of 2**52 or more; a key below that need not be
    (for q in [-2**52, -2**51) the sum lies where floats are 0.5 apart).
    Each of the three rounded operations is monotone, so the key is a
    monotone function of the finite x, a side of inf included.  A cell
    is a pair of keys.  On each axis, with lo and hi the rounded
    x - reach and x + reach clamped to the finite floats, a value whose
    part there is x is filed under every key of a float in [lo, hi]:
    lo's when it equals hi's, both when they are adjacent integers of
    -2**51 or more, as every key between them would be an integer too,
    and else the key of each float from lo to hi.  That last case needs
    a rounding error of about a cell in the quotients, or a quotient
    beyond 2**51 in size, which happens only where floats near x lie
    about tol apart or more, so it visits a handful of floats, and none
    for a nan or infinite x.  (A value with such a part, filed under an
    infinite key or none, lies within tol of nothing.)

    ``reach``, the float after tol, is the filing margin, and it makes
    ``near`` exact for every z.  If abs(z - v) <= tol, then on each axis
    the rounded difference of the parts is at most tol, as abs (a hypot)
    is never below either part's magnitude; so the exact difference
    exceeds tol by at most half the gap above it, and is below reach.
    Rounding is monotone, so z's part, a finite float, lies in the
    [lo, hi] of v's part, its key is one of v's, and v is filed in z's
    cell.  ``near`` tests every value there as the scan does, so it says
    True exactly when the scan would.  Where abs raises OverflowError,
    |z - v| is past the largest float and so past tol: that v is not
    near z.  (Within one cell this takes tol above about a tenth of the
    largest float.)

    A value's [lo, hi] is about 2*tol wide, half a cell, so it meets one
    or two keys per axis and about 2.25 cells on average; a real value
    meets one on the imaginary axis.  Reads cost O(1) expected when the
    values lie more than tol apart.  The 25,924 values of
    ``set_spectrum(random_hypertree(20, 3, Random(1)))`` make 53,526
    filings and take 11.4 MiB of grid (tracemalloc), where three
    filings per value in cells of side 2*tol, read three cells at a
    time, took 15.4 MiB, and one cell per value 5.9 MiB.
    """

    __slots__ = ("tol", "side", "reach", "cells")

    def __init__(self, tol: float, values):
        self.tol = tol
        self.side = 4 * tol
        self.reach = math.nextafter(tol, math.inf)
        self.cells: dict[tuple[float, float], list[complex]] = {}
        for v in values:
            self.add(v)

    def _keys(self, x: float):
        """The keys, on one axis, of the cells that a value whose part
        on that axis is x is filed in."""
        side, reach = self.side, self.reach
        lo, hi = x - reach, x + reach
        if lo < -_FLOAT_MAX:
            lo = -_FLOAT_MAX
        if hi > _FLOAT_MAX:
            hi = _FLOAT_MAX
        a = lo / side + _ROUND - _ROUND
        b = hi / side + _ROUND - _ROUND
        if a == b:
            return (a,)
        if b == a + 1 and a >= _INT_KEYS_FROM:
            return (a, b)
        keys = set()
        while lo <= hi:  # false at once for a nan or infinite x
            keys.add(lo / side + _ROUND - _ROUND)
            lo = math.nextafter(lo, math.inf)
        return keys

    def add(self, v: complex) -> None:
        cells = self.cells
        ims = self._keys(v.imag)
        for re in self._keys(v.real):
            for im in ims:
                cells.setdefault((re, im), []).append(v)

    def near(self, z: complex) -> bool:
        tol, side = self.tol, self.side
        key = (z.real / side + _ROUND - _ROUND, z.imag / side + _ROUND - _ROUND)
        for v in self.cells.get(key, ()):
            try:
                if abs(z - v) <= tol:
                    return True
            except OverflowError:  # |z - v| is past every float, so past tol
                pass
        return False


@dataclass(frozen=True)
class SpectrumSet:
    """Deduplicated eigenvalue set with the tolerances that shaped it.

    ``sources`` gives each value's provenance, or is empty for none.
    ``tol`` must be finite and > 0, and ``k`` an int >= 2 (not a bool).
    Reads go through a ``_TolGrid`` over the values: a set from
    ``set_spectrum`` reads the grid it was deduplicated with, and any
    other set builds one on its first read, in O(V).  Each probe reads
    one grid cell, so on values more than ``tol`` apart, as
    ``set_spectrum`` keeps them, ``contains`` costs O(1) and
    ``rotation_symmetric``, one probe per rotated value, O(kV).
    """

    values: tuple[complex, ...]
    tol: float
    k: int
    sources: tuple[SpectrumSource | None, ...] = ()

    def __post_init__(self):
        _require_tol(self.tol)
        if isinstance(self.k, bool) or not isinstance(self.k, int) or self.k < 2:
            raise ValidationError(f"k must be an int >= 2, got {self.k!r}")
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
            "a totally nonzero eigenpair requires a nonzero eigenvalue, "
            f"|lambda| > tol {tol:g}"
        )


def _require_spectrum_input(H: UniformHypergraph) -> None:
    """k >= 3, then H a hypertree (``hypertree_walk``)."""
    if H.k == 2:
        raise UniformityTwoUnsupported(
            "set-spectrum assembly from subtrees holds only for k >= 3"
        )
    hypertree_walk(H)


def _lifts(polys, k):
    """Each k-th root lift of each alpha root of each of polys, in that
    order, paired with its source; an alpha root equal to one already
    lifted is skipped.

    The skip changes no decision of ``_distinct_lifts``: ``lift_to_x``
    reads an alpha only through its modulus and phase, so a repeated
    alpha's lifts equal lifts tested before them.  Each of those was
    kept, and the repeat lies within 0 of it, or was dropped within tol
    of a kept value, which the repeat lies within tol of as well.  The
    one way equal complex numbers differ, a zero part's sign, does not
    show: ``alpha_roots`` gives each real root imaginary part +0.0 and
    each other root a nonzero one, so equal roots have equal phases
    (the phase of -1 - 0j is -pi, that of -1 + 0j is pi).
    """
    lifted = set()
    for poly in polys:
        for a, _mult in alpha_roots(poly):
            if a in lifted:
                continue
            lifted.add(a)
            source = SpectrumSource(poly, a)
            for lam in lift_to_x(a, k):
                yield lam, source


def _distinct_lifts(lifts, tol, kept):
    """Append to kept, in order, each (value, source) of lifts whose
    value lies farther than tol from every value kept before it (the
    first accepted wins); return kept.

    The kept values are filed in a ``_TolGrid``, returned with kept for
    ``SpectrumSet`` to read, so each test costs O(1) expected and V
    lifts O(V), with the decisions of a scan of every kept value.
    """
    grid = _TolGrid(tol, (v for v, _ in kept))
    for lam, source in lifts:
        if not grid.near(lam):
            grid.add(lam)
            kept.append((lam, source))
    return kept, grid


def set_spectrum(
    H: UniformHypergraph,
    tol: float = DEFAULT_SET_TOL,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
) -> SpectrumSet:
    """The eigenvalue set of H: {0} plus k-th-root lifts of every alpha
    root of every distinct connected subtree polynomial, deduplicated at
    ``tol``.

    The polynomials come from the distinct-state DP
    ``subtrees._distinct_polys``, in the (degree, coefficients) order of
    ``distinct_matching_polynomials``; ``max_subsets`` caps the DP's
    states, not subsets, and must be an int >= 1 (ValidationError).
    Lifts are taken in that order, and one within ``tol`` of a value
    already kept is dropped, so the first accepted wins and keeps its
    source.  An alpha root equal to one already lifted, as subtrees
    that share a factor give, is not lifted again: its lifts would all
    be dropped (see ``_lifts``).  The dedup tests and files each lift
    with one read of a grid index that the returned set keeps for its
    reads: O(V) expected over the lifts, after the root solves, which
    ``alpha_roots`` memoizes across calls.  The result is closed under
    multiplication by k-th roots of unity because lifts always arrive
    in complete families.
    """
    _require_tol(tol)
    _require_max_subsets(max_subsets)
    _require_spectrum_input(H)
    lifts = _lifts(_distinct_polys(H, max_subsets), H.k)
    kept, grid = _distinct_lifts(lifts, tol, [(0j, None)])
    kept.sort(key=lambda item: (item[0].real, item[0].imag))
    spec = SpectrumSet(
        values=tuple(v for v, _ in kept),
        tol=tol,
        k=H.k,
        sources=tuple(src for _, src in kept),
    )
    # the grid files exactly these values; the cached property reads
    # the instance dict, so the set never builds a second one
    vars(spec)["_grid"] = grid
    return spec


def _matching_number(order, children) -> int:
    """nu, the most edges in a matching of the hypertree whose
    ``hypertree_walk`` is (order, children), by greedy matching: leaf to
    root, a vertex takes its first child edge none of whose kids took an
    edge of their own.  As for trees, such an edge can replace whatever
    edge a maximum matching uses at the vertex.  O(mk), with no counts."""
    taken = [False] * len(children)
    for v in reversed(order):
        taken[v] = any(
            not any(taken[c] for c in kids) for _, kids in children[v]
        )
    return sum(taken)


def _log_slope(order, children, alpha: float, nu: int) -> float | None:
    """phi'/phi at alpha for the host's matching polynomial phi, from
    one float pass of the ``_labels`` recursion that carries each
    label's derivative u_v' along; None at a pole, where some
    1 - u_v <= 0, the root's included: that is, unless alpha > rho^k.

    phi(alpha) = alpha^nu prod_v (1 - u_v), so
    phi'/phi = nu/alpha - sum_v u_v' / (1 - u_v); nu is
    ``_matching_number``.
    """
    u = [0.0] * len(children)
    du = [0.0] * len(children)
    slope = nu / alpha
    for v in reversed(order):
        total = dtotal = 0.0
        for _, kids in children[v]:
            prod, dlog = 1.0, 0.0
            for c in kids:
                if u[c]:
                    d = 1 - u[c]
                    if d <= 0:
                        return None
                    prod /= d
                    dlog += du[c] / d
            total += prod
            dtotal += prod * dlog
            slope -= dlog
        if total:
            u[v] = total / alpha
            du[v] = (dtotal - u[v]) / alpha
    d = 1 - u[order[0]]
    return None if d <= 0 else slope - du[order[0]] / d


def _radius_guess(order, children, k: int) -> float:
    """A float near rho, for ``_gallop`` to start from, by Newton's
    method on phi from above (see ``spectral_radius``).

    r doubles from 1 until ``_log_slope`` finds alpha = r^k above
    rho^k, which brackets rho^k in [lo, hi).  Each pass at an alpha
    above rho^k also gives the Newton iterate alpha - phi/phi'(alpha),
    which never passes rho^k.  The bracket is bisected in floats while
    the Newton step from hi covers less than half of it, as it does
    while roots crowd just below rho^k (long loose paths); then Newton
    runs from hi until an iterate stops falling or is no longer above
    rho^k in floats.
    """
    nu = _matching_number(order, children)

    def newton(alpha: float) -> float | None:
        slope = _log_slope(order, children, alpha, nu)
        return None if slope is None else alpha - 1 / slope

    lo, hi = 0.0, 1.0
    nxt = newton(hi)
    while nxt is None:
        lo, hi = hi, 2**k * hi
        nxt = newton(hi)
    while 0 < 2 * (hi - nxt) < hi - lo:
        mid = (lo + hi) / 2
        step = newton(mid)
        if step is None:
            lo = mid
        else:
            hi, nxt = mid, step
    while nxt < hi:
        step = newton(nxt)
        if step is None:
            break
        hi, nxt = nxt, step
    return nxt ** (1 / k)


def _above_radius(order, children, num: int, den: int) -> bool:
    """Whether alpha = num/den (num, den > 0) lies above rho^k, exactly:
    whether every 1 - u_v of the ``_labels`` recursion at alpha is > 0.

    The labels run as integer pairs 1 - u_v = A_v/B_v, the matching
    DP's count polynomials of v's subtree at t = -1/alpha
    (``matching.matching_counts_tree``), each scaled by num to its degree:
    A_v(t) num^a, B_v(t) num^b.  The degrees a >= b are the matching
    numbers of v's subtree with and without v, and a - b = 1 exactly
    when ``_matching_number``'s rule takes an edge at v.  So the pairs
    stay integers with no gcd and no division, B_v > 0 as long as every
    A below is, and each sign is one integer compare.  A leaf's pair
    (1, 1) is never stored, and each pair is dropped once its parent
    has read it.
    """
    pairs = {}
    for v in reversed(order):
        a = b = 1
        taken = False
        for _, kids in children[v]:
            pa = pb = 1
            # the scaled degrees of a * pa and of t * b * pb differ by gap
            gap = taken - 1
            for c in kids:
                pair = pairs.pop(c, None)
                if pair is not None:
                    pa *= pair[0]
                    pb *= pair[1]
                    gap += pair[2]
            if gap < 0:
                a, taken = num * a * pa - den * b * pb, True
            else:
                a = a * pa - den * num**gap * b * pb
            b *= pa
        if children[v]:
            if a <= 0:
                return False
            pairs[v] = a, b, taken
    return True


def spectral_radius(H: UniformHypergraph) -> float:
    """rho(H) rounded to the nearest float; rho^k is the largest real
    alpha root of H's matching polynomial phi.

    Exact test: r > rho iff the leaf-to-root labels u of ``_labels`` at
    alpha = r^k keep every 1 - u_c > 0 and end with u_root < 1 (the
    alpha-normal labeling of Lu and Man, Linear Algebra Appl. 509,
    2016).  ``_above_radius`` runs it on integer pairs, O(mk) big-int
    steps per test.  Every returned bit is decided by it: ``_gallop``,
    the search that also brackets real alpha roots, runs it from a float
    guess.  A guess that is already the nearest float, the usual case,
    costs 2 exact tests (at the guess and half an ulp towards rho); one
    d ulps away costs about 2 log2(d) more.

    The guess is Newton's method on phi from above.  The labels are the
    matching DP's A_v/B_v = 1 - u_v at t = -1/alpha, so
    phi(alpha) = alpha^nu prod_v (1 - u_v) with nu the matching number,
    and one float pass (``_log_slope``) gives phi'/phi.  Every root z of
    phi is lambda^k for an eigenvalue lambda, so |z| <= rho^k and
    Re z <= rho^k.  At alpha > rho^k each 1/(alpha - z) then has a
    positive real part, and phi'/phi(alpha) = sum_z 1/(alpha - z) is at
    least the term 1/(alpha - rho^k); the Newton step 1/(phi'/phi) is
    at most alpha - rho^k, so no iterate passes rho^k.
    """
    _require_spectrum_input(H)
    if H.m == 0:
        raise ValidationError("spectral radius needs at least one edge")
    k = H.k
    order, children = hypertree_walk(H)
    guess = _radius_guess(order, children, k)
    if not 0 < guess < math.inf:
        guess = 1.0
    # 1 <= rho < inf (one edge alone has rho = 1), so the search finds
    # rho strictly inside (0, inf) and never tests alpha = 0
    return _gallop(
        lambda num, den: _above_radius(order, children, num**k, den**k),
        guess,
        0.0,
        math.inf,
    )


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
    1 real root of 3 (discriminant -31), so the verdict is False as soon
    as ``power_obstruction`` finds such an edge, in O(mk), with no
    polynomial built.  Otherwise every distinct polynomial of
    ``subtrees._distinct_polys`` is tested, with ``max_subsets`` capping
    its states; it must be an int >= 1 (ValidationError), even where
    the obstruction answers first.
    """
    _require_max_subsets(max_subsets)
    _require_spectrum_input(H)
    if power_obstruction(H) is not None:
        return False
    polys = _distinct_polys(H, max_subsets)
    return all(real == distinct for real, distinct in map(_sturm_counts, polys))


# -- eigenpairs -----------------------------------------------------------------


@dataclass(frozen=True)
class Eigenpair:
    """An eigenpair with its verified residual.  Every entry of x has
    modulus above the tol it was checked at, so x is totally nonzero."""

    lam: complex
    x: tuple[complex, ...]
    residual: float


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


def _labels(order, children, alpha):
    """Leaf-to-root labels u_v = (1/alpha) sum_{child e}
    prod_{c in e, c != v} 1/(1 - u_c), or None as soon as a
    |1 - u_c| < 1e-9 makes a pole; order and children come from
    ``hypertree_walk``.  A child with u_c = 0 (a leaf) is skipped, which
    is exact.
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
                if abs(d) < 1e-9:
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
    u = _labels(order, children, lam**k)
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
    labels: tuple[int, ...],
    host_n: int,
) -> list[complex]:
    """Place a subtree eigenvector into the host, zeros elsewhere: entry
    i of x_sub goes to host vertex labels[i], as in a subtree's
    ``parent_vertices``.  DimensionMismatch unless x_sub and labels have
    the same length, VertexOutOfRange for a label outside 1..host_n."""
    if len(x_sub) != len(labels):
        raise DimensionMismatch(
            f"{len(x_sub)} entries for {len(labels)} vertex labels"
        )
    out = [0j] * host_n
    for label, value in zip(labels, x_sub):
        if not 1 <= label <= host_n:
            raise VertexOutOfRange(f"vertex {label} outside 1..{host_n}")
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
    _require_spectrum_input(H)
    _require_nonzero_lam(lam, tol)
    raw = _leaf_to_root_eigenvector(*hypertree_walk(H), H.k, lam)
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
    _require_spectrum_input(H)
    _require_nonzero_lam(pair.lam, tol)
    order, children = hypertree_walk(H)
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
    return Eigenpair(lam=lam, x=tuple(x), residual=residual)
