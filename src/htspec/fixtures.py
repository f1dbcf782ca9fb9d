"""Built-in reference data: three 3-uniform hypertrees whose full
characteristic polynomials are known in factored form, plus the
cross-validation run by ``htspec check-paper``.

H1 is the 3-comb on 9 vertices, H2 a 9-vertex power tree, and H3 the
11-vertex hypertree obtained by overlaying the two.  Each factorization
is stored as an x-power prefactor plus (alpha-form base, multiplicity)
pairs, and nothing is ever expanded: the H3 product has x-degree 11264.
The factored data is exactly what ``spectrum_crosscheck`` validates the
library against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import _ratpoly as _rp
from .core import UniformHypergraph, build
from .errors import ConvergenceError, UnknownFixture, ValidationError
from .matching import AlphaPolynomial, alpha_poly, alpha_str, x_str
from .spectra import (
    DEFAULT_SET_TOL,
    _lifts,
    _require_tol,
    eigen_residual,
    find_totally_nonzero_eigenvector,
    zero_extend,
)
from .subtrees import distinct_matching_polynomials, subtree_hypergraph

FIXTURE_NAMES = ("H1", "H2", "H3")


@dataclass(frozen=True)
class CharPolyFactorization:
    """Factored characteristic polynomial of one reference hypertree.

    Total x-degree must equal n(k-1)^(n-1); each base is stored in
    alpha = x^k form, so its x-degree is k times its alpha degree.
    """

    name: str
    k: int
    n: int
    x_power: int
    factors: tuple[tuple[AlphaPolynomial, int], ...]

    def total_x_degree(self) -> int:
        return self.x_power + sum(
            self.k * base.degree * mult for base, mult in self.factors
        )

    def multiplicities(self, phis) -> list[int]:
        """For each of phis, how many times it divides the product of the
        bases with multiplicity (x^power left out); the product is never
        formed.  The bases and every phi factor over one coprime base
        (``_ratpoly.coprime_base``), up to sign and content, so phi^n
        divides the product exactly when, for every base element s,
        n * e_s(phi) <= sum of mult * e_s(base), where e_s is
        ``_ratpoly.valuation``.  Each answer is the smallest quotient over
        the s with e_s(phi) > 0.  ValidationError for a constant phi.
        """
        if any(phi.degree < 1 for phi in phis):
            raise ValidationError("multiplicity needs a non-constant divisor")
        qs = [list(phi.coeffs) for phi in phis]
        bases = [(list(base.coeffs), mult) for base, mult in self.factors]
        base = _rp.coprime_base([*qs, *(b for b, _ in bases)])
        have = [sum(mult * _rp.valuation(s, b) for b, mult in bases) for s in base]
        out = []
        for q in qs:
            need = [_rp.valuation(s, q) for s in base]
            out.append(min(h // e for h, e in zip(have, need) if e))
        return out


_FIXTURES = {
    "H1": CharPolyFactorization(
        name="H1",
        k=3,
        n=9,
        x_power=567,
        factors=(
            (alpha_poly([-1, 3, -4, 1]), 81),
            (alpha_poly([1, -3, 1]), 81),
            (alpha_poly([-2, 1]), 27),
            (alpha_poly([-1, 1]), 147),
        ),
    ),
    "H2": CharPolyFactorization(
        name="H2",
        k=3,
        n=9,
        x_power=999,
        factors=(
            (alpha_poly([2, -4, 1]), 81),
            (alpha_poly([1, -3, 1]), 54),
            (alpha_poly([-3, 1]), 27),
            (alpha_poly([-2, 1]), 63),
            (alpha_poly([-1, 1]), 75),
        ),
    ),
    "H3": CharPolyFactorization(
        name="H3",
        k=3,
        n=11,
        x_power=3767,
        factors=(
            (alpha_poly([-2, 5, -5, 1]), 243),
            (alpha_poly([-1, 3, -4, 1]), 162),
            (alpha_poly([2, -4, 1]), 162),
            (alpha_poly([1, -3, 1]), 135),
            (alpha_poly([-3, 1]), 27),
            (alpha_poly([-2, 1]), 180),
            (alpha_poly([-1, 1]), 483),
        ),
    ),
}


def fixture(name: str) -> CharPolyFactorization:
    """Look up a reference factorization by name (H1, H2 or H3)."""
    try:
        return _FIXTURES[name.upper()]
    except KeyError:
        raise UnknownFixture(
            f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}"
        ) from None


# The edges of each fixture's hypertree.  H1 is comb(3); H3 is H1 with
# one more edge at vertex 1.  H2 is encoded on its 9 actual vertices (the
# conventional display uses labels up to 11 with two gaps), so counts and
# degrees line up with the factorization's total degree 9 * 2^8.
_EDGES = {
    "H1": ((1, 2, 3), (1, 4, 7), (2, 5, 8), (3, 6, 9)),
    "H2": ((1, 2, 3), (1, 4, 6), (3, 5, 7), (1, 8, 9)),
    "H3": ((1, 2, 3), (1, 4, 7), (2, 5, 8), (3, 6, 9), (1, 10, 11)),
}


@lru_cache(maxsize=None)
def hypergraph(name: str) -> UniformHypergraph:
    """The hypertree a fixture describes, on the fixture's k and n."""
    f = fixture(name)
    return build(f.k, f.n, _EDGES[f.name])


def degree_check(f: CharPolyFactorization) -> bool:
    """Total degree must equal n(k-1)^(n-1)."""
    return f.total_x_degree() == f.n * (f.k - 1) ** (f.n - 1)


@dataclass(frozen=True)
class FixtureReport:
    """What ``spectrum_crosscheck`` found for one fixture: a flag per
    check, the multiplicity of each subtree polynomial (x form, in
    catalog order) in the factored characteristic polynomial, and a
    one-line detail, the failures or else a summary."""

    name: str
    degree_ok: bool
    bases_ok: bool
    spectrum_ok: bool
    multiplicities: dict[str, int]
    detail: str

    @property
    def divides_ok(self) -> bool:
        return all(mult >= 1 for mult in self.multiplicities.values())

    @property
    def ok(self) -> bool:
        return self.degree_ok and self.bases_ok and self.spectrum_ok and self.divides_ok


def spectrum_crosscheck(name: str, tol: float = DEFAULT_SET_TOL) -> FixtureReport:
    """Check a fixture four ways against one subtree catalog of its
    hypertree, ``distinct_matching_polynomials``.

    (a) degree: ``degree_check``.
    (b) bases: the catalog's distinct polynomials must equal the
        fixture's nontrivial factor bases exactly (integer coefficients).
    (c) spectrum: every lift lambda (lambda^k = alpha) of every distinct
        alpha root of the catalog's polynomials, in the order of
        ``spectra._lifts``, must have a host witness: the first subtree,
        in (size, indices) order, whose polynomial is lambda's source
        gets an eigenvector at lambda by the leaf-to-root elimination of
        ``find_totally_nonzero_eigenvector``, and its zero extension to
        the host must have residual <= ``tol`` there.  The extension is
        an eigenvector because k >= 3: an edge outside the subtree meets
        it in at most one vertex, so every product over such an edge
        keeps a zero factor.  No value is deduplicated, so ``tol`` bounds
        only the residual and the entries, never which values are
        checked.  The first lambda with a pole, a miss, or a modulus
        <= tol fails the check, naming lambda and the cause.
    (d) divisibility: every catalog polynomial must divide the factored
        characteristic polynomial, by the exact multiplicities of
        ``CharPolyFactorization.multiplicities``.  The x^power prefactor
        is coprime to every divisor (subtree polynomials have nonzero
        constant term), so the alpha-form product decides it.

    Every base of H1-H3 is irreducible, so each witness subtree is a
    minimal one for its lambda, as the theorem's proof uses.  Each check
    runs whatever the others find, and a failure is reported in the
    flags and the detail, never raised.  ValidationError, before any
    catalog is built, unless tol is finite and > 0.
    """
    _require_tol(tol)
    f = fixture(name)
    H = hypergraph(f.name)
    catalog = distinct_matching_polynomials(H)
    problems = []
    bases = sorted(
        (base for base, _ in f.factors), key=lambda p: (p.degree, p.coeffs)
    )
    bases_ok = tuple(bases) == catalog.polys
    if not bases_ok:
        problems.append(
            f"factor bases {[alpha_str(p) for p in bases]} differ from subtree "
            f"matching polynomials {[alpha_str(p) for p in catalog.polys]}"
        )
    first = {}
    for F, j in zip(catalog.subsets, catalog.poly_of_subset):
        first.setdefault(j, F)
    witness = {catalog.polys[j]: subtree_hypergraph(H, F) for j, F in first.items()}
    lifts, worst, failure = 0, 0.0, None
    for lam, source in _lifts(catalog.polys, H.k):
        lifts += 1
        sub = witness[source.poly]
        try:
            pair = find_totally_nonzero_eigenvector(sub, lam, tol)
        except (ConvergenceError, ValidationError) as exc:
            failure = f"no witness for lambda = {lam}: {exc}"
            break
        residual = eigen_residual(H, lam, zero_extend(pair.x, sub.parent_vertices, H.n))
        if not residual <= tol:
            failure = (
                f"the witness for lambda = {lam} has host residual "
                f"{residual:.3e} > tol {tol:g}"
            )
            break
        worst = max(worst, residual)
    if failure:
        problems.append(failure)
    mults = f.multiplicities(catalog.polys)
    if problems:
        detail = f"{f.name}: " + "; ".join(problems)
    else:
        detail = (
            f"{len(bases)} bases, {1 + lifts} spectrum values, "
            f"max witness residual {worst:.2e}"
        )
    return FixtureReport(
        name=f.name,
        degree_ok=degree_check(f),
        bases_ok=bases_ok,
        spectrum_ok=failure is None,
        multiplicities={x_str(p, f.k): m for p, m in zip(catalog.polys, mults)},
        detail=detail,
    )
