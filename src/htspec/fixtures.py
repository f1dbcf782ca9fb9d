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
from .core import UniformHypergraph, build, comb
from .errors import MismatchReport, UnknownFixture, ValidationError
from .matching import AlphaPolynomial, alpha_poly, alpha_str, x_str
from .spectra import (
    DEFAULT_SET_TOL,
    _distinct_lifts,
    _lifts,
    _require_tol,
    set_spectrum,
)
from .subtrees import distinct_matching_polynomials

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

    def multiplicity(self, phi: AlphaPolynomial) -> int:
        """How many times phi divides the product of the bases with
        multiplicity (x^power left out); the product is never formed.

        Each round divides one copy of phi out of the product.  It walks
        the [base, copies] entries and, one copy at a time, moves
        g = gcd(q, base) from the base into the divisor: q becomes q / g
        and base / g stays behind as a new one-copy entry.  What is left
        of phi always divides what is left of the product, and base / g
        is coprime to q / g, so a round that ends with q non-constant
        proves that phi divides no further.  Every gcd is primitive, so
        every quotient is integral (Gauss's lemma).
        """
        if phi.degree < 1:
            raise ValidationError("multiplicity needs a non-constant divisor")
        entries = [[list(base.coeffs), mult] for base, mult in self.factors]
        count = 0
        while True:
            q = list(phi.coeffs)
            for entry in entries:
                base = entry[0]
                while len(q) > 1 and entry[1]:
                    g = _rp.gcd(q, base)
                    if len(g) == 1:
                        break
                    q = _rp.div_exact(q, g)
                    entry[1] -= 1
                    rest = _rp.div_exact(base, g)
                    if len(rest) > 1:
                        entries.append([rest, 1])
            if len(q) > 1:
                return count
            count += 1


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


@lru_cache(maxsize=None)
def hypergraph(name: str) -> UniformHypergraph:
    """The hypertree a fixture describes.

    H2 is encoded on its 9 actual vertices (the conventional display
    uses labels up to 11 with two gaps), so counts and degrees line up
    with the factorization's total degree 9 * 2^8.
    """
    key = name.upper()
    if key == "H1":
        return comb(3)
    if key == "H2":
        return build(3, 9, [[1, 2, 3], [1, 4, 6], [3, 5, 7], [1, 8, 9]])
    if key == "H3":
        return build(
            3,
            11,
            [[1, 2, 3], [1, 4, 7], [2, 5, 8], [3, 6, 9], [1, 10, 11]],
        )
    raise UnknownFixture(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}")


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
    max_root_deviation: float


def spectrum_crosscheck(name: str, tol: float = DEFAULT_SET_TOL) -> CrosscheckReport:
    """Validate a fixture two ways, raising MismatchReport on failure.

    (a) The distinct matching polynomials of the hypertree's connected
        induced subtrees must equal the fixture's nontrivial factor
        bases exactly (integer coefficients).
    (b) The nonzero roots of the factored polynomial must equal the
        computed set spectrum minus 0, within ``tol``.

    ValidationError, before any catalog is built, unless tol is finite
    and > 0.
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
    spectrum = set_spectrum(H, tol, catalog=catalog)
    kept = _distinct_lifts(_lifts((b for b, _ in f.factors), f.k), tol, [])
    fixture_roots = [lam for lam, _ in kept]
    computed = list(spectrum.nonzero_values())
    worst = 0.0
    if len(fixture_roots) != len(computed):
        raise MismatchReport(
            name,
            f"{len(fixture_roots)} fixture roots vs "
            f"{len(computed)} computed nonzero spectrum values",
            expected=sorted((z.real, z.imag) for z in fixture_roots),
            got=sorted((z.real, z.imag) for z in computed),
        )
    for z in fixture_roots:
        d = min(abs(z - w) for w in computed)
        worst = max(worst, d)
        if d > tol:
            raise MismatchReport(
                name,
                f"fixture root {z} missing from computed spectrum "
                f"(nearest at distance {d:.3e})",
                expected=sorted((w.real, w.imag) for w in fixture_roots),
                got=sorted((w.real, w.imag) for w in computed),
            )
    return CrosscheckReport(
        name=name,
        bases=tuple(bases),
        catalog_polys=catalog.polys,
        spectrum_size=len(spectrum.values),
        max_root_deviation=worst,
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
    ``CharPolyFactorization.multiplicity``.  Failures are reported per
    row, never raised.
    """
    f = fixture(name)
    rows = []
    for phi in distinct_matching_polynomials(hypergraph(name)).polys:
        mult = f.multiplicity(phi)
        rows.append(
            DivisibilityRow(
                poly_x=x_str(phi, f.k),
                divides=mult >= 1,
                observed_multiplicity=mult,
            )
        )
    return DivisibilityReport(name=name, rows=tuple(rows))
