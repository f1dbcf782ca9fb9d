"""Built-in reference factorizations and the validation probes."""

import math
import random

import pytest

import helpers
from helpers import poly_mul, poly_pow
from htspec import _ratpoly, alpha_poly, alpha_str, comb, is_hypertree, is_power_tree
from htspec.errors import UnknownFixture, ValidationError
from htspec.fixtures import (
    FIXTURE_NAMES,
    CharPolyFactorization,
    degree_check,
    fixture,
    hypergraph,
    spectrum_crosscheck,
)
from htspec.subtrees import distinct_matching_polynomials


def test_fixture_lookup():
    assert fixture("H1").x_power == 567
    assert fixture("h3").x_power == 3767
    with pytest.raises(UnknownFixture):
        fixture("H4")
    with pytest.raises(UnknownFixture):
        hypergraph("nope")
    assert hypergraph("H1") == hypergraph("h1") == comb(3)


def test_fixture_shapes():
    assert len(fixture("H1").factors) == 4
    assert len(fixture("H2").factors) == 5
    assert len(fixture("H3").factors) == 7
    assert (alpha_poly([-3, 1]), 27) in fixture("H2").factors


def test_degree_checks():
    totals = {"H1": 2304, "H2": 2304, "H3": 11264}
    for name in FIXTURE_NAMES:
        f = fixture(name)
        assert degree_check(f)
        assert f.total_x_degree() == totals[name]
        assert totals[name] == f.n * (f.k - 1) ** (f.n - 1)


def test_fixture_hypergraphs_are_hypertrees():
    for name in FIXTURE_NAMES:
        H = hypergraph(name)
        assert is_hypertree(H)
        assert H.n == fixture(name).n
    assert is_power_tree(hypergraph("H2"))
    assert not is_power_tree(hypergraph("H1"))
    assert not is_power_tree(hypergraph("H3"))


def test_factor_bases_pairwise_coprime():
    for name in FIXTURE_NAMES:
        bases = [base.coeffs for base, _ in fixture(name).factors]
        for i in range(len(bases)):
            for j in range(i + 1, len(bases)):
                assert _ratpoly.gcd(bases[i], bases[j]) == [1], (name, i, j)


def test_spectrum_crosscheck_passes():
    for name in FIXTURE_NAMES:
        report = spectrum_crosscheck(name, tol=1e-8)
        assert report.name == name and report.ok
        assert report.degree_ok and report.bases_ok and report.spectrum_ok
        assert report.divides_ok
        # "... max witness residual 1.23e-15"
        assert float(report.detail.rsplit(" ", 1)[1]) <= 1e-8


@pytest.mark.parametrize("tol", [0.0, -1.0, -0.0, math.nan, math.inf, -math.inf])
def test_crosscheck_checks_tol_before_the_catalog(monkeypatch, tol):
    import htspec.fixtures as fx

    def no_catalog(*args):
        raise AssertionError("catalog built before tol was checked")

    monkeypatch.setattr(fx, "distinct_matching_polynomials", no_catalog)
    with pytest.raises(ValidationError, match="tol"):
        spectrum_crosscheck("H1", tol=tol)


def test_crosscheck_names_a_value_without_witness(monkeypatch):
    import htspec.fixtures as fx

    real = fx._lifts
    nudged = []

    def nudge_one(polys, k):
        lifts = real(polys, k)
        lam, source = next(lifts)
        nudged.append(lam + 1e-3)
        yield nudged[0], source
        yield from lifts

    monkeypatch.setattr(fx, "_lifts", nudge_one)
    report = spectrum_crosscheck("H2", tol=1e-8)
    assert report.bases_ok and report.divides_ok
    assert not report.spectrum_ok and not report.ok
    assert report.detail.startswith("H2: ") and str(nudged[0]) in report.detail


@pytest.mark.parametrize("tol", [1e-12, 1e-8, 0.5])
def test_crosscheck_witnesses_every_lift_at_any_passing_tol(tol):
    # every lift is witnessed, so the count does not depend on tol
    for name, values in (("H1", 22), ("H2", 22), ("H3", 40)):
        report = spectrum_crosscheck(name, tol=tol)
        assert report.spectrum_ok and report.ok, report.detail
        assert f" {values} spectrum values, " in report.detail


def test_crosscheck_reports_tampered_data(monkeypatch):
    helpers.tamper_h1(monkeypatch)
    report = spectrum_crosscheck("H1")
    # the same catalog still gives every value a witness
    assert not report.bases_ok and report.spectrum_ok
    assert not report.degree_ok and not report.ok
    # the dropped base alpha - 1 is named on the catalog's side only
    dropped = repr(alpha_str(alpha_poly([-1, 1])))
    assert report.detail.startswith("H1: factor bases")
    bases, polys = report.detail.split("differ")
    assert dropped not in bases and dropped in polys


def test_divisibility_probe_reports_a_dropped_base(monkeypatch):
    helpers.tamper_h1(monkeypatch)
    report = spectrum_crosscheck("H1")
    assert not report.divides_ok
    assert list(report.multiplicities.items()) == [
        ("x^3 - 2", 27),
        ("x^3 - 1", 0),
        ("x^6 - 3x^3 + 1", 81),
        ("x^9 - 4x^6 + 3x^3 - 1", 81),
    ]


def test_multiplicity_by_hand():
    # (α-1)^5 (α-2)^3, stored with a shared and a repeated factor
    a1, a2 = alpha_poly([-1, 1]), alpha_poly([-2, 1])
    f = CharPolyFactorization(
        name="T", k=3, n=1, x_power=0, factors=((poly_mul(a1, a2), 3), (a1, 2))
    )
    assert f.multiplicities([poly_mul(a1, a1)]) == [2]
    assert f.multiplicities([poly_mul(a1, a2)]) == [3]
    assert f.multiplicities([poly_mul(a2, a2)]) == [1]
    assert f.multiplicities([alpha_poly([-3, 1])]) == [0]
    with pytest.raises(ValidationError):
        f.multiplicities([alpha_poly([1])])
    # one copy of (α-1)^3 (α-2): what a round leaves of a base is reused
    g = CharPolyFactorization(
        name="T", k=3, n=1, x_power=0, factors=((poly_mul(poly_pow(a1, 3), a2), 1),)
    )
    assert g.multiplicities([a1]) == [3]
    assert g.multiplicities([poly_mul(a1, a1)]) == [1]
    assert g.multiplicities([poly_mul(a1, a2)]) == [1]


def test_multiplicity_matches_expand_and_divide():
    rng = random.Random(7)
    pool = [
        alpha_poly(c)
        for c in ([-1, 1], [1, 1], [-2, 1], [0, 1], [2, 0, 1], [-2, 0, 1], [1, -3, 1])
    ]

    def product(parts):
        p = alpha_poly([1])
        for part in parts:
            p = poly_mul(p, part)
        return p

    for _ in range(60):
        factors = tuple(
            (product(rng.sample(pool, rng.randint(1, 3))), rng.randint(1, 3))
            for _ in range(rng.randint(1, 3))
        )
        phi = product(rng.choices(pool, k=rng.randint(1, 2)))
        expanded = product(poly_pow(base, mult) for base, mult in factors)
        expected, rest = 0, list(expanded.coeffs)
        while True:
            quotient, remainder = _ratpoly.divide(rest, phi.coeffs)
            if remainder:
                break
            expected, rest = expected + 1, quotient
        f = CharPolyFactorization(name="T", k=3, n=1, x_power=0, factors=factors)
        assert f.multiplicities([phi]) == [expected], (factors, phi)


def test_divisibility_probe_h1():
    report = spectrum_crosscheck("H1")
    assert report.divides_ok
    # in catalog order, (degree, coefficients)
    assert list(report.multiplicities.items()) == [
        ("x^3 - 2", 27),
        ("x^3 - 1", 147),
        ("x^6 - 3x^3 + 1", 81),
        ("x^9 - 4x^6 + 3x^3 - 1", 81),
    ]


def test_divisibility_probe_h2():
    report = spectrum_crosscheck("H2")
    assert report.divides_ok
    assert report.multiplicities["x^3 - 3"] == 27
    assert report.multiplicities["x^6 - 4x^3 + 2"] == 81


def test_coprime_base_factors_every_input():
    rng = random.Random(11)
    pool = [
        alpha_poly(c)
        for c in ([-1, 1], [1, 1], [-2, 1], [0, 1], [2, 0, 1], [-2, 0, 1], [1, -3, 1])
    ]
    for _ in range(60):
        inputs = [
            poly_mul(*rng.choices(pool, k=2)) if rng.random() < 0.5
            else poly_pow(rng.choice(pool), rng.randint(1, 3))
            for _ in range(rng.randint(1, 4))
        ]
        inputs.append(alpha_poly([-c for c in inputs[0].coeffs]))
        inputs.append(rng.choice(inputs))  # the same input again
        base = _ratpoly.coprime_base([p.coeffs for p in inputs])
        for i, s in enumerate(base):
            assert len(s) > 1 and s[-1] > 0 and math.gcd(*s) == 1, s
            for t in base[i + 1 :]:
                assert _ratpoly.gcd(s, t) == [1], (s, t)
        for p in inputs:
            product = alpha_poly([1])
            for s in base:
                product = poly_mul(
                    product, poly_pow(alpha_poly(s), _ratpoly.valuation(s, p.coeffs))
                )
            assert product.coeffs in (p.coeffs, tuple(-c for c in p.coeffs)), p


def test_divisibility_probes_take_few_gcds(monkeypatch):
    phis = {
        name: distinct_matching_polynomials(hypergraph(name)).polys
        for name in FIXTURE_NAMES
    }
    calls = []
    real = _ratpoly.gcd

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(_ratpoly, "gcd", counted)
    for name in FIXTURE_NAMES:
        assert min(fixture(name).multiplicities(phis[name])) >= 1
    # one copy of phi divided out per round took 8,072, and the base
    # before equal inputs were merged 156
    assert 0 < len(calls) <= 37


def test_divisibility_probe_builds_one_coprime_base(monkeypatch):
    bases = []
    real = _ratpoly.coprime_base

    def counted(polys):
        bases.append(1)
        return real(polys)

    monkeypatch.setattr(_ratpoly, "coprime_base", counted)
    for name in FIXTURE_NAMES:
        spectrum_crosscheck(name)
    assert len(bases) == len(FIXTURE_NAMES)


def test_multiplicities_equal_one_divisor_calls():
    a = alpha_poly([-1, 1])  # alpha - 1 divides every fixture
    extra = [alpha_poly([-5, 1]), poly_mul(a, a), poly_pow(alpha_poly([1, -3, 1]), 4)]
    for name in FIXTURE_NAMES:
        f = fixture(name)
        phis = [*distinct_matching_polynomials(hypergraph(name)).polys, *extra]
        got = f.multiplicities(phis)
        assert got == [f.multiplicities([phi])[0] for phi in phis]
        assert got[-3] == 0 and got[-2] == f.multiplicities([a])[0] // 2
    with pytest.raises(ValidationError):
        fixture("H1").multiplicities([a, alpha_poly([2])])
