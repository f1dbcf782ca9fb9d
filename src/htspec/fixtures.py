"""Built-in reference data: three 3-uniform hypertrees whose full
characteristic polynomials are known in factored form, plus the
cross-validation probes run by ``htspec check-paper``.

H1 is the 3-comb on 9 vertices, H2 a 9-vertex power tree, and H3 the
11-vertex hypertree obtained by overlaying the two.  Each factorization
is stored as an x-power prefactor plus (alpha-form base, multiplicity)
pairs, and nothing is ever expanded: the H3 product has x-degree 11264.
The factored data is exactly what the divisibility and spectrum probes
validate the library against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import _ratpoly as _rp
from .core import UniformHypergraph, build
from .errors import (
    ConvergenceError,
    MismatchReport,
    NoHostWitness,
    UnknownFixture,
    ValidationError,
)
from .matching import AlphaPolynomial, alpha_poly, alpha_str, x_str
from .spectra import (
    DEFAULT_SET_TOL,
    _require_tol,
    eigen_residual,
    find_totally_nonzero_eigenvector,
    set_spectrum,
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
class CrosscheckReport:
    """Outcome of matching a fixture against freshly computed data."""

    name: str
    bases: tuple[AlphaPolynomial, ...]
    catalog_polys: tuple[AlphaPolynomial, ...]
    spectrum_size: int
    max_witness_residual: float


def spectrum_crosscheck(name: str, tol: float = DEFAULT_SET_TOL) -> CrosscheckReport:
    """Validate a fixture two ways, raising MismatchReport on failure.

    (a) The distinct matching polynomials of the hypertree's connected
        induced subtrees must equal the fixture's nontrivial factor
        bases exactly (integer coefficients).
    (b) Every nonzero value lambda of the set spectrum must have a host
        witness: the first subtree, in (size, indices) order, whose
        polynomial is lambda's source polynomial gets an eigenvector at
        lambda by the leaf-to-root elimination of
        ``find_totally_nonzero_eigenvector``, and its zero extension to
        the host must have residual <= ``tol`` there.  The extension is
        an eigenvector because k >= 3: an edge outside the subtree meets
        it in at most one vertex, so every product over such an edge
        keeps a zero factor.  A pole or a miss raises ``NoHostWitness``
        naming lambda.

    Every base of H1-H3 is irreducible, so that subtree is a minimal one
    for lambda, as the theorem's proof uses.  ValidationError, before
    any catalog is built, unless tol is finite and > 0.
    """
    _require_tol(tol)
    f = fixture(name)
    H = hypergraph(name)
    catalog = distinct_matching_polynomials(H)
    bases = sorted(
        (base for base, _ in f.factors), key=lambda p: (p.degree, p.coeffs)
    )
    if tuple(bases) != catalog.polys:
        raise MismatchReport(
            name,
            "factor bases differ from subtree matching polynomials",
            expected=[alpha_str(p) for p in bases],
            got=[alpha_str(p) for p in catalog.polys],
        )
    spectrum = set_spectrum(H, tol)
    first_subtree = {
        p: subtree_hypergraph(H, catalog.subsets[catalog.witnesses(i)[0]])
        for i, p in enumerate(catalog.polys)
    }
    worst = 0.0
    for lam, source in zip(spectrum.values, spectrum.sources):
        if source is None:
            continue
        sub = first_subtree[source.poly]
        try:
            pair = find_totally_nonzero_eigenvector(sub, lam, tol)
        except ConvergenceError as exc:
            raise NoHostWitness(
                name, f"no witness for lambda = {lam}: {exc}"
            ) from exc
        x = zero_extend(pair.x, sub.parent_vertices, H.n)
        residual = eigen_residual(H, lam, x)
        if not residual <= tol:
            raise NoHostWitness(
                name,
                f"the witness for lambda = {lam} has host residual "
                f"{residual:.3e} > tol {tol:g}",
            )
        worst = max(worst, residual)
    return CrosscheckReport(
        name=name,
        bases=tuple(bases),
        catalog_polys=catalog.polys,
        spectrum_size=len(spectrum.values),
        max_witness_residual=worst,
    )


@dataclass(frozen=True)
class DivisibilityRow:
    poly_x: str
    divides: bool
    observed_multiplicity: int


@dataclass(frozen=True)
class DivisibilityReport:
    name: str
    rows: tuple[DivisibilityRow, ...]

    def all_divide(self) -> bool:
        return all(row.divides for row in self.rows)


def divisibility_probe(name: str) -> DivisibilityReport:
    """Multiplicity of every cataloged subtree matching polynomial in the
    fixture's characteristic polynomial.

    The x^power prefactor is coprime to every divisor (subtree
    polynomials have nonzero constant term), so divisibility in x is
    decided on the factored alpha-form product by
    ``CharPolyFactorization.multiplicities``, over one coprime base of
    the bases and all the divisors.  Failures are reported per row,
    never raised.
    """
    f = fixture(name)
    phis = distinct_matching_polynomials(hypergraph(name)).polys
    rows = tuple(
        DivisibilityRow(
            poly_x=x_str(phi, f.k), divides=mult >= 1, observed_multiplicity=mult
        )
        for phi, mult in zip(phis, f.multiplicities(phis))
    )
    return DivisibilityReport(name=name, rows=rows)
