"""Root finding, spectrum assembly, and eigenvector construction."""

import cmath
import dataclasses
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import Budget, comb_formula, count_real_comb_roots, poly_mul, poly_pow
from htspec import (
    SpectrumSet,
    alpha_poly,
    alpha_roots,
    build,
    comb,
    eigen_residual,
    find_totally_nonzero_eigenvector,
    is_cyclotomic_spectrum,
    is_power_tree,
    lift_to_x,
    loose_path,
    matching_polynomial,
    power,
    random_hypertree,
    rotate_eigenpair,
    set_spectrum,
    spectral_radius,
    star,
)
from htspec import _ratpoly, spectra
from htspec.core import hypertree_walk, power_obstruction
from htspec.errors import (
    CatalogTooLarge,
    DimensionMismatch,
    NotAHypertree,
    UniformityTwoUnsupported,
    ValidationError,
    VertexOutOfRange,
)
from htspec.fixtures import hypergraph
from htspec.matching import matching_counts_tree
from htspec.spectra import zero_extend
from htspec.subtrees import (
    DEFAULT_MAX_SUBSETS,
    _distinct_polys,
    distinct_matching_polynomials,
    subtree_hypergraph,
)


def test_alpha_roots_linear():
    assert alpha_roots(alpha_poly([-1, 1])) == [((1 + 0j), 1)]


def test_alpha_roots_quadratic_matches_formula():
    roots = alpha_roots(alpha_poly([1, -3, 1]))
    values = sorted(z.real for z, _ in roots)
    assert all(z.imag == 0 for z, _ in roots)
    assert values == pytest.approx(
        [(3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2], abs=1e-12
    )


def test_alpha_roots_comb_cubic():
    # one real root bracketed by a sign change, one conjugate pair
    p = comb_formula(3)
    assert p(3) * p(3.2) < 0  # sign change brackets the real root
    roots = alpha_roots(p)
    reals = [z for z, _ in roots if z.imag == 0]
    complexes = [z for z, _ in roots if z.imag != 0]
    assert len(reals) == count_real_comb_roots(3) == 1
    assert 3 < reals[0].real < 3.2
    assert len(complexes) == 2
    assert complexes[0] == complexes[1].conjugate()


def test_alpha_roots_resolves_multiplicity():
    # (a-1)^2 (a-4): exact squarefree split keeps the double root real
    p = poly_mul(poly_pow(alpha_poly([-1, 1]), 2), alpha_poly([-4, 1]))
    roots = alpha_roots(p)
    assert ((1 + 0j), 2) in roots and ((4 + 0j), 1) in roots
    p5 = poly_mul(poly_pow(alpha_poly([-1, 1]), 3), poly_pow(alpha_poly([1, 1]), 2))
    assert alpha_roots(p5) == [((-1 + 0j), 2), ((1 + 0j), 3)]


def test_alpha_roots_puts_close_real_roots_on_the_axis():
    # a^3 - 2(1000a - 1)^2 has three distinct real roots, two of them
    # about 4.5e-8 apart near 1e-3; refinement alone meets its residual
    # target there with a conjugate pair
    roots = alpha_roots(alpha_poly([-2, 4000, -2000000, 1]))
    assert [m for _, m in roots] == [1, 1, 1]
    assert all(z.imag == 0 for z, _ in roots)
    assert len({z for z, _ in roots}) == 3


def test_alpha_roots_returns_float_roots_exactly(monkeypatch):
    # squarefree, real-rooted factors whose roots are all floats, such as
    # (a - 1)(a - 2)(a - 3)(2a - 1); isolating them from the Sturm chain
    # alone must land on them too
    cases = [(1, 2, 3, 0.5), (-3, -0.5, 0.25, 1, 2, 3, 6), (-1, 1, 1.5, 2, 2.5, 3)]
    polys = []
    for roots in cases:
        p = alpha_poly([1])
        for r in roots:
            num, den = r.as_integer_ratio()
            p = poly_mul(p, alpha_poly([-num, den]))
        polys.append((p, [(complex(r), 1) for r in sorted(roots)]))
    for p, expected in polys:
        assert alpha_roots(p) == expected

    def no_approximations(f, start):
        raise OverflowError

    helpers.clear_root_memos()
    monkeypatch.setattr(spectra, "_laguerre", no_approximations)
    for p, expected in polys:
        assert alpha_roots(p) == expected


@pytest.mark.parametrize("t, k", [(28, 3), (40, 3), (57, 3), (40, 4)])
def test_alpha_roots_of_long_loose_paths_match_the_closed_form(t, k):
    # roots 4cos^2(j pi / (t + 2)), j = 1..ceil(t/2): ill-conditioned
    # enough that float evaluation of the polynomial has no correct digit
    # near the top roots, and Aberth overflowed floats from 57 edges on
    roots = alpha_roots(matching_polynomial(loose_path(t, k)))
    expected = sorted(
        4 * math.cos(j * math.pi / (t + 2)) ** 2 for j in range(1, (t + 3) // 2)
    )
    assert [m for _, m in roots] == [1] * len(expected)
    assert all(z.imag == 0 for z, _ in roots)
    assert [z.real for z, _ in roots] == pytest.approx(expected, abs=1e-13, rel=0)


def _yun(p):
    """``spectra._yun`` of p, handed gcd(p, p') as it asks."""
    f = list(p.coeffs)
    return spectra._yun(f, _ratpoly.gcd(f, _ratpoly.deriv(f)))


def _rational_value(coeffs, x):
    return sum(c * x**i for i, c in enumerate(coeffs))


def test_real_roots_are_nearest_floats_on_random_catalogs(monkeypatch):
    """Every real alpha root of a factor with only real roots is the
    float nearest its root: the factor vanishes there or changes sign
    within half an ulp of it, checked in Fractions.  Isolating the
    roots from the Sturm chain alone gives the same floats."""
    rng = random.Random(1717)
    hosts = [random_hypertree(rng.randint(8, 13), 3 + j % 2, rng) for j in range(6)]
    hosts += [power(random_hypertree(rng.randint(8, 14), 2, rng), 3) for _ in range(3)]
    checked, factors = 0, []
    for H in hosts:
        for p in _distinct_polys(H, DEFAULT_MAX_SUBSETS):
            for q, _ in _yun(p):
                if spectra._sturm_counts(q)[0] == q.degree:
                    factors.append(q)
    assert len(factors) > 400
    found = [alpha_roots(q) for q in factors]
    for q, roots in zip(factors, found):
        for a, _ in roots:
            assert a.imag == 0
            x = Fraction(a.real)
            here = _rational_value(q.coeffs, x)
            halfway = [
                _rational_value(q.coeffs, (x + Fraction(math.nextafter(a.real, to))) / 2)
                for to in (-math.inf, math.inf)
            ]
            assert here == 0 or any(here * h <= 0 for h in halfway), (q, a)
            checked += 1
    assert checked > 1200

    def no_approximations(f, start):
        raise OverflowError

    helpers.clear_root_memos()
    monkeypatch.setattr(spectra, "_laguerre", no_approximations)
    assert [alpha_roots(q) for q in factors] == found


def test_real_rooted_factors_never_reach_aberth(monkeypatch):
    def refuse(coeffs, rng):
        raise AssertionError(f"Aberth called on {coeffs}")

    helpers.clear_root_memos()
    monkeypatch.setattr(spectra, "_aberth", refuse)
    assert len(alpha_roots(matching_polynomial(loose_path(40, 3)))) == 20
    rng = random.Random(23)
    for m in (6, 10, 14):
        H = power(random_hypertree(m, 2, rng), 3)
        assert set_spectrum(H).rotation_symmetric()
    assert len(set_spectrum(star(40, 3)).values) == 121


def test_roots_that_contradict_the_sturm_count_raise(monkeypatch):
    from htspec import spectra
    from htspec.errors import DidNotConverge

    # comb_formula(3) has one real root; three upper half-plane roots
    # leave two that cannot pair as conjugates
    helpers.clear_root_memos()
    monkeypatch.setattr(spectra, "_aberth", helpers.upper_half_plane_roots)
    with pytest.raises(DidNotConverge, match="conjugate pairs"):
        alpha_roots(comb_formula(3))


def test_alpha_roots_zero_roots_and_validation():
    p = alpha_poly([0, 0, -1, 1])  # a^2 (a - 1)
    assert alpha_roots(p) == [(0j, 2), ((1 + 0j), 1)]
    with pytest.raises(ValidationError):
        alpha_roots(alpha_poly([]))
    assert alpha_roots(alpha_poly([7])) == []


def _small_ladder_hosts():
    """The 78 ladder hosts with at most 60 edges and 500 distinct subtree
    polynomials.  With the other 26, a cold and a warm spectrum of every
    host take about three minutes on a 2-core machine."""
    for name, H in helpers.ladder_hosts():
        if H.m <= 60:
            polys = _distinct_polys(H, DEFAULT_MAX_SUBSETS)
            if len(polys) <= 500:
                yield name, H


def test_set_spectrum_does_not_depend_on_what_the_root_memo_holds():
    hosts = list(_small_ladder_hosts())
    assert len(hosts) == 78
    cold = {}
    for name, H in hosts:
        helpers.clear_root_memos()
        cold[name] = set_spectrum(H)
    helpers.clear_root_memos()
    for name, H in reversed(hosts):
        s = set_spectrum(H)
        assert (s.values, s.sources) == (cold[name].values, cold[name].sources), name


def test_alpha_roots_returns_a_fresh_list_each_call():
    p = comb_formula(3)
    roots = alpha_roots(p)
    want = list(roots)
    roots[0] = (9j, 1)
    roots.append((7j, 2))
    assert alpha_roots(p) == want
    assert alpha_roots(p) is not alpha_roots(p)


def test_a_failed_root_solve_is_not_memoized(monkeypatch):
    from htspec.errors import DidNotConverge

    p = comb_formula(3)
    helpers.clear_root_memos()
    with monkeypatch.context() as patch:
        patch.setattr(spectra, "_aberth", helpers.upper_half_plane_roots)
        with pytest.raises(DidNotConverge):
            alpha_roots(p)
    roots = alpha_roots(p)
    assert len(roots) == 3
    assert sum(z.imag == 0 for z, _ in roots) == 1


def test_squarefree_reconstruction():
    rng = random.Random(61)
    for _ in range(10):
        factors = [
            (alpha_poly([rng.randint(-3, 3), 1]), rng.randint(1, 3))
            for _ in range(rng.randint(1, 3))
        ]
        p = alpha_poly([1])
        for base, mult in factors:
            p = poly_mul(p, poly_pow(base, mult))
        rebuilt = alpha_poly([1])
        for base, mult in _yun(p):
            rebuilt = poly_mul(rebuilt, poly_pow(base, mult))
        assert rebuilt == p
    # non-monic rational roots times quadratics, under non-unit and
    # negative constants: factors come back primitive with positive lead
    lin_a, lin_b, lin_c = alpha_poly([-1, 2]), alpha_poly([1, 3]), alpha_poly([-3, 5])
    quad_1, quad_2, quad_3 = (alpha_poly([c, 0, 1]) for c in (1, 2, 3))
    cases = [
        (
            [alpha_poly([-5]), poly_pow(lin_a, 2), lin_b, quad_2],
            [((2, 6, 1, 3), 1), ((-1, 2), 2)],
        ),
        (
            [alpha_poly([-7]), poly_pow(lin_b, 3), poly_pow(quad_1, 2), lin_a],
            [((-1, 2), 1), ((1, 0, 1), 2), ((1, 3), 3)],
        ),
        (
            [alpha_poly([4]), poly_pow(lin_c, 2), poly_pow(quad_3, 2)],
            [((-9, 15, -3, 5), 2)],
        ),
    ]
    for parts, expected in cases:
        p = alpha_poly([1])
        for part in parts:
            p = poly_mul(p, part)
        got = [(q.coeffs, mult) for q, mult in _yun(p)]
        assert got == expected


def test_lift_to_x():
    cubes = lift_to_x(1 + 0j, 3)
    assert sorted((round(z.real, 9), round(z.imag, 9)) for z in cubes) == sorted(
        (round(z.real, 9), round(z.imag, 9))
        for z in (1, cmath.exp(2j * cmath.pi / 3), cmath.exp(4j * cmath.pi / 3))
    )
    for lam in lift_to_x(2 + 0j, 3):
        assert abs(lam**3 - 2) < 1e-12
        assert abs(abs(lam) - 2 ** (1 / 3)) < 1e-12
    assert lift_to_x(0j, 3) == [0j, 0j, 0j]


def test_set_spectrum_single_edge():
    H = build(3, 3, [[1, 2, 3]])
    s = set_spectrum(H)
    assert len(s.values) == 4  # 0 and the three cube roots of 1
    assert s.contains(0j)
    for j in range(3):
        assert s.contains(cmath.exp(2j * cmath.pi * j / 3))
    # 0 really is an eigenvalue: a unit vector kills every term
    assert eigen_residual(H, 0j, [1, 0, 0]) == 0


def test_set_spectrum_h1_matches_fixture_roots():
    H1 = hypergraph("H1")
    s = set_spectrum(H1)
    expected = {0j}
    for coeffs in [(-1, 1), (-2, 1), (1, -3, 1), (-1, 3, -4, 1)]:
        for a, _ in alpha_roots(alpha_poly(coeffs)):
            expected.update(lift_to_x(a, 3))
    assert len(s.values) == len(expected)
    for z in expected:
        assert s.contains(z)


def test_set_spectrum_rejects_graphs_and_non_trees():
    with pytest.raises(UniformityTwoUnsupported):
        set_spectrum(loose_path(3, 2))
    with pytest.raises(NotAHypertree):
        set_spectrum(build(3, 6, [[1, 2, 3]]))


def test_spectrum_set_without_sources_keeps_its_values():
    s = SpectrumSet(values=(0j, 1 + 0j), tol=1e-8, k=3)
    assert [(v["re"], v["source_poly"]) for v in s.to_json_dict()["values"]] == [
        (0.0, None),
        (1.0, None),
    ]
    assert s.csv_rows()[1:] == [
        ["0.0", "0.0", "", "", ""],
        ["1.0", "0.0", "", "", ""],
    ]
    with pytest.raises(ValidationError, match="1 sources for 2 values"):
        SpectrumSet(values=(0j, 1 + 0j), tol=1e-8, k=3, sources=(None,))


@pytest.mark.parametrize("tol", [0.0, -1.0, -0.0, math.nan, math.inf, -math.inf])
def test_tol_must_be_finite_and_positive(monkeypatch, tol):
    with pytest.raises(ValidationError, match="tol"):
        SpectrumSet(values=(0j, 1 + 0j), tol=tol, k=3)

    def no_polys(*args):
        raise AssertionError("polynomials built before tol was checked")

    monkeypatch.setattr(spectra, "_distinct_polys", no_polys)
    with pytest.raises(ValidationError, match="tol"):
        set_spectrum(build(3, 3, [[1, 2, 3]]), tol=tol)


@pytest.mark.parametrize("k", [0, 1, -3, 2.5, True, False, "3", None])
def test_spectrum_set_k_must_be_an_int_of_at_least_two(k):
    with pytest.raises(ValidationError, match=f"k must be an int >= 2, got {k!r}"):
        SpectrumSet((1 + 0j,), 1e-8, k)
    assert SpectrumSet((1 + 0j,), 1e-8, 2).rotation_symmetric() is False


EDGE = 2.0**-52


@pytest.mark.parametrize("tol", [1e-300, 1e-12, 1e-8, 1e-3, 10.0])
@settings(max_examples=60, deadline=None)
@given(
    scale=st.sampled_from(["tol", 1.0, 1e10]),
    points=st.lists(
        st.tuples(st.floats(-3, 3), st.floats(-3, 3)), min_size=1, max_size=25
    ),
    k=st.integers(3, 5),
    angles=st.lists(st.floats(0, 2 * math.pi), min_size=1, max_size=4),
)
def test_contains_agrees_with_the_linear_scan(tol, scale, points, k, angles):
    size = tol if scale == "tol" else scale
    values = tuple(complex(a, b) * size for a, b in points)
    s = SpectrumSet(values=values, tol=tol, k=k)
    centres = [
        v * cmath.exp(2j * cmath.pi * j / k) for v in values for j in range(k)
    ]
    probes = list(centres)
    for c in centres:
        for theta in [0.0, math.pi / 2, math.pi, 3 * math.pi / 2, *angles]:
            for r in (1 - EDGE, 1.0, 1 + EDGE, 2.0):
                probes.append(c + tol * r * cmath.exp(1j * theta))
    for z in probes:
        assert s.contains(z) == helpers.linear_contains(values, tol, z), z
    inf, nan = math.inf, math.nan
    for re, im in ((nan, 0), (0, nan), (nan, nan), (inf, 0), (0, -inf), (-inf, inf)):
        assert s.contains(complex(re, im)) is False


@pytest.mark.parametrize("tol", [1e-8, 1e-3, 0.3])
def test_contains_on_a_set_spectrum_reads_its_dedup_grid(tol):
    s = set_spectrum(random_hypertree(9, 3, random.Random(5)), tol=tol)
    grid = vars(s)["_grid"]  # handed over by set_spectrum, not built here
    probes = [
        v * cmath.exp(2j * cmath.pi * j / 3) + tol * r * cmath.exp(1j * theta)
        for v in s.values
        for j in range(3)
        for r in (0.0, 1 - EDGE, 1 + EDGE, 2.0)
        for theta in (0.0, math.pi / 2, 0.7, math.pi, 4.0)
    ]
    for z in probes:
        assert s.contains(z) == helpers.linear_contains(s.values, tol, z), z
    assert s.rotation_symmetric()
    assert vars(s)["_grid"] is grid


def test_rotation_symmetric_fails_on_a_missing_or_moved_copy():
    tol = 1e-8
    assert SpectrumSet((0j, 1 + 0j), tol, 3).rotation_symmetric() is False
    values = [0j, *lift_to_x(1 + 0j, 3), *lift_to_x(-2 + 1j, 3)]
    assert SpectrumSet(tuple(values), tol, 3).rotation_symmetric() is True
    for shift, symmetric in ((1.5 * tol, False), (0.5 * tol, True)):
        moved = list(values)
        moved[-1] += shift
        assert SpectrumSet(tuple(moved), tol, 3).rotation_symmetric() is symmetric


def test_spectrum_reads_within_budget():
    s = set_spectrum(random_hypertree(14, 3, random.Random(1)))
    assert len(s.values) == 1546
    rng = random.Random(2)
    zeta = cmath.exp(2j * cmath.pi / 3)
    probes = [
        rng.choice(s.values) * zeta ** rng.randrange(3)
        + 2 * s.tol * rng.random() * cmath.exp(2j * cmath.pi * rng.random())
        for _ in range(10_000)
    ]
    with helpers.Budget("rotation_symmetric + 10,000 contains, 1,546 values", 0.5):
        symmetric = s.rotation_symmetric()
        answers = [s.contains(z) for z in probes]
    assert symmetric
    for z, got in list(zip(probes, answers))[::20]:
        assert got == helpers.linear_contains(s.values, s.tol, z)


@pytest.mark.parametrize("tol", [1e-300, 1e-8, 10.0])
@settings(max_examples=60, deadline=None)
@given(
    scale=st.sampled_from(["tol", 1.0, 1e10]),
    centres=st.lists(
        st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.booleans()),
        min_size=1,
        max_size=6,
    ),
    steps=st.lists(
        st.sampled_from([1 - EDGE, 1.0, 1 + EDGE]), min_size=2, max_size=3
    ),
    angles=st.lists(st.floats(0, 2 * math.pi), min_size=1, max_size=2),
    order=st.randoms(use_true_random=False),
)
def test_distinct_lifts_agrees_with_the_scan(tol, scale, centres, steps, angles, order):
    size = tol if scale == "tol" else scale
    side = 2 * tol
    values = []
    for a, b, snap in centres:
        c = complex(a, b) * size
        if snap and math.isfinite(c.real // side) and math.isfinite(c.imag // side):
            # a cell corner, so the copies around it fall into four cells
            c = complex(c.real // side * side, c.imag // side * side)
        values.append(c)
        for theta in [0.0, math.pi / 2, math.pi, 3 * math.pi / 2, *angles]:
            for r in (1 - EDGE, 1.0, 1 + EDGE):
                values.append(c + tol * r * cmath.exp(1j * theta))
        # a chain: each link within tol of the next, the ends farther apart
        u, link = cmath.exp(1j * angles[0]), c
        for r in steps:
            link += tol * r * u
            values.append(link)
    order.shuffle(values)
    lifts = [(v, i) for i, v in enumerate(values)]
    start = [(0j, None)]
    got, _ = spectra._distinct_lifts(iter(lifts), tol, list(start))
    assert got == helpers.scan_distinct_lifts(lifts, tol, list(start))


def test_a_value_past_every_float_from_the_probe_is_not_near():
    # |z - v| overflows abs here, and at tol 1e308 every value shares
    # one cell: the distance is past the largest float, so past tol
    far = complex(1.5e308, 1.5e308)
    assert not SpectrumSet((far,), 1e308, 3).contains(0j)
    # far - 5e307 lies past every float from 0j and within tol of far
    lifts = [(far, 1), (-far, 2), (far - 5e307, 3)]
    got, _ = spectra._distinct_lifts(iter(lifts), 1e308, [(0j, None)])
    assert got == [(0j, None), (far, 1), (-far, 2)]


@pytest.mark.parametrize(
    "tol", [5e-324, 1e-320, 1e-8, 1.0, 1e307, 1e308, sys.float_info.max]
)
def test_grid_edge_cases_agree_with_the_scan(tol):
    side = 4 * tol  # inf for the two largest tols
    corners = [0j]
    if math.isfinite(side):
        # keys round x / side, so cells meet at odd multiples of side / 2
        corners += [complex(i + 0.5, j + 0.5) * side for i in (-2, 0, 1) for j in (-1, 0)]
    # keys below -2**51 need not be integers: x / side in [-2**52, -2**51)
    # gives half-integer keys, and near -1.5 * 2**52 finer ones still
    far = [
        complex(-(2**53 + 2) * tol, 0),
        complex(0, -(2**53 + 2) * tol),
        complex(-1.5 * 2**54 * tol, 2**53 * tol),
        complex(2**60 * tol, -(2**60) * tol),
    ]
    far = [c for c in far if cmath.isfinite(c)]
    for c in far:
        assert SpectrumSet((c,), tol, 3).contains(c), c
    centres = [*corners, *far, 1 + 0j, 1e10 - 3e10j, -2.5 + 0.5j]
    rng = random.Random(7)
    values = []
    for c in centres:
        # a value on the corner, and values within tol of it and across it
        for shift in (0.0, 0.5, 1.0, -0.5, -1.0):
            values.append(c + complex(shift * tol, -shift * tol))
            for u in (1, 1j, -1, -1j, cmath.exp(0.7j), cmath.exp(rng.uniform(0, 7) * 1j)):
                for r in (1 - EDGE, 1.0, 1 + EDGE):
                    values.append(c + complex(shift * tol, 0) + tol * r * u)
    values += [complex(math.inf, 0), complex(0, math.nan), complex(-math.inf, math.inf)]
    assert len(values) > 150
    rng.shuffle(values)
    s = SpectrumSet(values=tuple(values[::2]), tol=tol, k=3)
    for z in values:
        for r in (0.0, 1 - EDGE, 1 + EDGE):
            for probe in (z, z + tol * r, z - tol * r * 1j):
                want = helpers.linear_contains(s.values, tol, probe)
                assert s.contains(probe) == want, probe
    lifts = [(v, i) for i, v in enumerate(values)]
    got, _ = spectra._distinct_lifts(iter(lifts), tol, [(0j, None)])
    assert got == helpers.scan_distinct_lifts(lifts, tol, [(0j, None)])


def test_spectrum_assembly_within_budget():
    H = random_hypertree(18, 3, random.Random(1))
    with helpers.Budget("set_spectrum, random m = 18, 10,534 values", 3.0):
        s = set_spectrum(H)
    assert len(s.values) == 10534


def _uncut_scan_hosts():
    for name in ("H1", "H2", "H3"):
        yield name, hypergraph(name)
    for k in (3, 4, 5):
        yield f"comb-{k}", comb(k)
    for m in range(8, 16):
        for k in (3, 4):
            yield f"random-{m}-{k}", random_hypertree(m, k, random.Random(m))


@pytest.mark.parametrize("name, H", list(_uncut_scan_hosts()))
def test_set_spectrum_matches_an_uncut_scan_of_every_lift(name, H):
    """Every lift of every alpha root, repeated roots included, through
    the scan of every kept value: set_spectrum skips repeated roots and
    reads a grid, and keeps the same values with the same sources."""
    lifts = [
        (lam, spectra.SpectrumSource(p, a))
        for p in distinct_matching_polynomials(H).polys
        for a, _ in alpha_roots(p)
        for lam in lift_to_x(a, H.k)
    ]
    kept = helpers.scan_distinct_lifts(lifts, spectra.DEFAULT_SET_TOL, [(0j, None)])
    kept.sort(key=lambda item: (item[0].real, item[0].imag))
    s = set_spectrum(H)
    assert s.values == tuple(v for v, _ in kept)
    assert s.sources == tuple(src for _, src in kept)


def test_rotation_symmetry_of_spectra():
    rng = random.Random(67)
    hosts = [hypergraph(n) for n in ("H1", "H2", "H3")]
    hosts += [random_hypertree(rng.randint(1, 6), k, rng) for k in (3, 4, 5)]
    for H in hosts:
        assert set_spectrum(H).rotation_symmetric()


def test_spectral_radius_examples():
    assert spectral_radius(loose_path(1, 3)) == pytest.approx(1.0, abs=1e-12)
    assert spectral_radius(loose_path(2, 3)) == pytest.approx(
        2 ** (1 / 3), abs=1e-12
    )
    rho = spectral_radius(hypergraph("H1"))
    assert 3 ** (1 / 3) < rho < 3.2 ** (1 / 3)
    # loose paths, where rho^k = 4 cos^2(pi / (t + 2))
    for t in (30, 60, 100):
        for k in (3, 4):
            want = (4 * math.cos(math.pi / (t + 2)) ** 2) ** (1 / k)
            assert spectral_radius(loose_path(t, k)) == pytest.approx(
                want, rel=1e-12
            ), (t, k)
    H = random_hypertree(60, 3, random.Random(1))
    alpha = _mpmath_largest_real_root(matching_polynomial(H).coeffs)
    want = float(alpha ** (mpmath.mpf(1) / 3))
    assert want == pytest.approx(2.0776144075911084, rel=1e-15)
    assert spectral_radius(H) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "wrong",
    [
        lambda g: g + 1000 * math.ulp(g),
        lambda g: g - 1000 * math.ulp(g),
        lambda g: 1.0,
        lambda g: 2 * g,
        lambda g: 0.0,
        lambda g: math.inf,
        lambda g: math.nan,
    ],
    ids=["1000-ulps-up", "1000-ulps-down", "one", "above", "zero", "inf", "nan"],
)
def test_spectral_radius_float_guess_is_only_a_hint(monkeypatch, wrong):
    from htspec import spectra

    hosts = [loose_path(t, k) for t in (1, 2, 30) for k in (3, 4)]
    hosts += [loose_path(100, 3), star(8, 3), star(5, 4)]
    hosts.append(random_hypertree(60, 3, random.Random(1)))
    # rho = 2 exactly on star(8, 3); rho^k = t on star(t, k)
    assert spectral_radius(hosts[-3]) == 2.0
    want = [spectral_radius(H) for H in hosts]
    assert want[-1] == pytest.approx(2.0776144075911084, rel=1e-15)
    guess = spectra._radius_guess
    monkeypatch.setattr(spectra, "_radius_guess", lambda *walk: wrong(guess(*walk)))
    assert [spectral_radius(H) for H in hosts] == want


@pytest.mark.parametrize(
    "H",
    [star(8, 3), loose_path(30, 3), loose_path(100, 3)],
    ids=["star-8", "path-30", "path-100"],
)
def test_spectral_radius_from_the_nearest_float_takes_two_exact_tests(monkeypatch, H):
    # one test at the guess, one half an ulp towards rho; rho = 2 exactly
    # on star(8, 3), where the test at the guess is at rho itself
    rho = spectral_radius(H)
    exact = []
    above_radius = spectra._above_radius

    def counted(order, children, num, den):
        exact.append((num, den))
        return above_radius(order, children, num, den)

    monkeypatch.setattr(spectra, "_radius_guess", lambda *walk: rho)
    monkeypatch.setattr(spectra, "_above_radius", counted)
    assert spectral_radius(H) == rho
    assert len(exact) <= 2


@pytest.mark.parametrize("r", [1.0, 2.0, 3.0, 0.7, 2.0**-3])
def test_gallop_tests_no_rational_twice(r):
    # turns f ulps from r on either side; below a power of two the floats
    # lie half an ulp apart, so a first step of one ulp down skips one
    for f in (-5.3, -1.3, -0.7, -0.35, -0.1, 0.0, 0.1, 0.35, 0.7, 1.3, 5.3):
        turn = Fraction(r) + Fraction(f) * Fraction(math.ulp(r))
        tested = []

        def above(num, den):
            tested.append((num, den))
            return Fraction(num, den) >= turn

        assert spectra._gallop(above, r, 0.0, math.inf) == float(turn), f
        assert len(tested) == len(set(tested)), f


def test_spectral_radius_tests_no_rational_twice(monkeypatch):
    # its float guess lies one ulp from rho, so the first step crosses
    H = random_hypertree(500, 3, random.Random(1))
    rho = spectral_radius(H)
    exact = []
    above_radius = spectra._above_radius

    def counted(order, children, num, den):
        exact.append((num, den))
        return above_radius(order, children, num, den)

    monkeypatch.setattr(spectra, "_above_radius", counted)
    assert spectral_radius(H) == rho
    assert len(exact) == len(set(exact)) == 3


def _radius_oracle_hosts():
    yield from helpers.ladder_hosts()
    for t, k in ((50, 3), (100, 3), (40, 4), (30, 5)):
        yield f"path-{t}-{k}", loose_path(t, k)
    for t, k in ((100, 3), (60, 4), (20, 6)):
        yield f"star-{t}-{k}", star(t, k)


def test_integer_radius_test_agrees_with_fraction_labels():
    # at rho, at its two neighbouring floats and at seeded rationals
    # around it, whose numerators and denominators are not powers of 2
    rng = random.Random(19)
    seen = set()
    for name, H in _radius_oracle_hosts():
        order, children = hypertree_walk(H)
        rho = spectral_radius(H)
        points = [Fraction(math.nextafter(rho, to)) for to in (0, math.inf)]
        points.append(Fraction(rho))
        for _ in range(4):
            scale = Fraction(rng.randint(-10**6, 10**6), 10**6 + rng.randint(1, 999))
            points.append(Fraction(rho) * (1 + scale / rng.choice([2, 10**3, 10**9])))
        got = [
            spectra._above_radius(order, children, x.numerator**H.k, x.denominator**H.k)
            for x in points
        ]
        want = [helpers.fraction_above_radius(order, children, x**H.k) for x in points]
        assert got == want, name
        assert got[:2] == [False, True], name
        seen.update(got[3:])
    assert seen == {False, True}


def test_radius_then_eigenvector_walk_the_host_once(monkeypatch):
    H = random_hypertree(20, 3, random.Random(1))
    walked = helpers.count_walks(monkeypatch)
    find_totally_nonzero_eigenvector(H, spectral_radius(H))
    assert len(walked) == 1 and walked[0] is H


def test_greedy_matching_number_is_the_top_count_index():
    for name, H in _radius_oracle_hosts():
        nu = spectra._matching_number(*hypertree_walk(H))
        assert nu == len(matching_counts_tree(H).counts) - 1, name


@pytest.mark.parametrize(
    "H, want",
    [
        (loose_path(2000, 3), (4 * math.cos(math.pi / 2002) ** 2) ** (1 / 3)),
        (star(2000, 4), 2000 ** (1 / 4)),
        (random_hypertree(2000, 3, random.Random(1)), None),
    ],
    ids=["path-2000", "star-2000", "random-2000"],
)
def test_radius_guess_takes_at_most_30_float_passes(monkeypatch, H, want):
    # bisecting the float guess down to adjacent floats took 54-56
    passes = []
    log_slope = spectra._log_slope

    def counted(*args):
        passes.append(args)
        return log_slope(*args)

    monkeypatch.setattr(spectra, "_log_slope", counted)
    rho = spectral_radius(H)
    assert len(passes) <= 30
    if want is not None:
        assert rho == pytest.approx(want, rel=1e-13)


def test_spectral_radius_of_a_500_edge_path_within_budget():
    H = loose_path(500, 3)
    with helpers.Budget("spectral radius: 500-edge path, k = 3", 0.75):
        rho = spectral_radius(H)
    want = (4 * math.cos(math.pi / 502) ** 2) ** (1 / 3)
    assert rho == pytest.approx(want, rel=1e-12)


def _mpmath_largest_real_root(coeffs):
    """Newton at 50 digits from numpy's largest real root; the Perron
    root of a connected tree is simple, so Newton converges to it."""
    import numpy as np

    big_endian = list(reversed(coeffs))
    start = max(
        z.real for z in np.roots([float(c) for c in big_endian]) if abs(z.imag) < 1e-6
    )
    with mpmath.workdps(50):
        return mpmath.findroot(
            lambda a: mpmath.polyval(big_endian, a),
            mpmath.mpf(start),
            solver="newton",
            verify=False,
        )


def test_spectral_radius_dominates_subtrees():
    H3 = hypergraph("H3")
    rho = spectral_radius(H3)
    catalog = distinct_matching_polynomials(H3)
    for F in catalog.subsets:
        sub = subtree_hypergraph(H3, F)
        assert spectral_radius(sub) <= rho + 1e-12


def test_spectral_radius_is_max_spectrum_modulus():
    H = hypergraph("H2")
    rho = spectral_radius(H)
    s = set_spectrum(H)
    assert max(abs(v) for v in s.values) == pytest.approx(rho, abs=1e-10)


def test_max_spectrum_modulus_of_a_40_edge_path_is_its_radius():
    # Aberth put the largest alpha root at 4.3095, where every root is
    # below 4: the spectrum's largest modulus read 1.628855, rho 1.584441
    H = loose_path(40, 3)
    rho = spectral_radius(H)
    assert max(abs(v) for v in set_spectrum(H).values) == pytest.approx(rho, rel=1e-14)


def test_cyclotomic_verdicts():
    assert is_cyclotomic_spectrum(hypergraph("H2"))
    assert not is_cyclotomic_spectrum(hypergraph("H1"))
    assert is_cyclotomic_spectrum(build(3, 3, [[1, 2, 3]]))
    # long loose paths are power trees; float root refinement alone
    # leaves some of their real alpha roots off the axis
    for t in (30, 40, 60):
        for k in (3, 4):
            assert is_cyclotomic_spectrum(loose_path(t, k))


def test_spider_power_with_double_root_stays_cyclotomic():
    # the equal-leg spider has matching polynomial (a-1)^2 (a-4); its
    # double root must come out exactly real, and the exact cyclotomic
    # test must count it once, not misclassify this power tree
    spider = build(2, 7, [[1, 2], [2, 3], [1, 4], [4, 5], [1, 6], [6, 7]])
    phi = matching_polynomial(spider)
    assert phi.coeffs == (-4, 9, -6, 1)
    assert alpha_roots(phi) == [((1 + 0j), 2), ((4 + 0j), 1)]
    for k in (3, 4):
        P = power(spider, k)
        assert is_power_tree(P)
        assert is_cyclotomic_spectrum(P)
        s = set_spectrum(P)
        for lam in lift_to_x(1 + 0j, k) + lift_to_x(4 + 0j, k):
            assert s.contains(lam)


def test_every_spectrum_value_has_a_subtree_witness():
    # the defining property of the assembly, end to end on random hosts
    rng = random.Random(73)
    for _ in range(5):
        H = random_hypertree(rng.randint(1, 5), rng.choice([3, 4]), rng)
        witness = helpers.first_subtrees(distinct_matching_polynomials(H))
        s = set_spectrum(H)
        for lam, source in zip(s.values, s.sources):
            if source is None:
                continue
            sub = witness[source.poly]
            pair = find_totally_nonzero_eigenvector(sub, lam, tol=1e-8)
            extended = zero_extend(pair.x, sub.parent_vertices, H.n)
            assert eigen_residual(H, lam, extended) <= 1e-8


def test_distinct_polys_and_cyclotomic_verdict_match_the_catalog_on_the_ladder():
    refused = []
    for name, H in helpers.ladder_hosts():
        try:
            catalog = distinct_matching_polynomials(H)
        except CatalogTooLarge:
            refused.append(name)
            continue
        assert _distinct_polys(H, DEFAULT_MAX_SUBSETS) == catalog.polys, name
        verdict = helpers.catalog_cyclotomic_verdict(catalog)
        assert is_cyclotomic_spectrum(H) == verdict == is_power_tree(H), name
    assert refused == ["star-40"]


def test_cyclotomic_false_from_one_subtree(monkeypatch):
    # the obstruction's 4-edge subtree has counts (1, 4, 3, 1) for every
    # k >= 3: one real alpha root of three
    for k in (3, 4, 5):
        H = comb(k)
        poly = matching_polynomial(helpers.obstruction_subtree(H, power_obstruction(H)))
        assert poly.coeffs == (-1, 3, -4, 1)
        assert spectra._sturm_counts(poly) == (1, 3)

    def no_polys(*args):
        raise AssertionError("a non-power host reached the DP")

    monkeypatch.setattr(spectra, "_distinct_polys", no_polys)
    rng = random.Random(17)
    for _ in range(6):
        H = helpers.random_nonpower_hypertree(rng.randint(4, 30), rng.randint(3, 5), rng)
        assert not is_cyclotomic_spectrum(H)
    # the full catalog took 9 s to say false here
    H = random_hypertree(30, 3, random.Random(3))
    with Budget("cyclotomic verdict of random_hypertree(30, 3)", 0.05):
        assert not is_cyclotomic_spectrum(H)


def test_set_spectrum_of_a_star_beyond_the_subset_cap():
    # 2^40 - 1 subsets but 40 distinct (A, B) states: the j-edge stars
    with Budget("set_spectrum(star(40, 3))", 0.5):
        s = set_spectrum(star(40, 3))
    assert len(s.values) == 121
    assert all(s.contains(complex(j ** (1 / 3))) for j in range(1, 41))


def test_spectrum_calls_cap_distinct_states():
    # star(8, 3) has 8 nonempty states, the j-edge stars at its centre; a
    # loose path's 55 subpaths on 10 edges all give distinct states
    calls = [
        lambda H, cap: set_spectrum(H, max_subsets=cap),
        lambda H, cap: is_cyclotomic_spectrum(H, cap),
    ]
    for H, states in ((star(8, 3), 8), (loose_path(10, 3), 55)):
        for call in calls:
            call(H, states)
            with pytest.raises(CatalogTooLarge, match=f"{states - 1} distinct"):
                call(H, states - 1)


def test_state_cap_bounds_the_memory_of_one_fold():
    # on these hosts one fold, of edge [1, 4, 5], multiplies a large set
    # of states by a large set of options: 1.6 million states at m = 45
    # if the cap is checked only once the fold is done
    for m in (40, 45):
        H = random_hypertree(m, 3, random.Random(1))
        tracemalloc.start()
        try:
            with Budget(f"state cap refusal on random_hypertree({m}, 3)", 0.5):
                with pytest.raises(CatalogTooLarge, match="more than 1000 distinct .* states"):
                    set_spectrum(H, max_subsets=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"m = {m}: {peak / 2**20:.1f} MB traced"


def test_power_tree_dual_characterization_sample():
    rng = random.Random(71)
    for _ in range(6):
        T = random_hypertree(rng.randint(1, 5), 2, rng)
        P = power(T, rng.choice([3, 4]))
        assert is_power_tree(P) and is_cyclotomic_spectrum(P)
    for _ in range(6):
        H = helpers.random_nonpower_hypertree(rng.randint(4, 6), 3, rng)
        assert not is_power_tree(H) and not is_cyclotomic_spectrum(H)


def test_eigen_residual_closed_forms():
    H = build(3, 3, [[1, 2, 3]])
    assert eigen_residual(H, 1 + 0j, [1, 1, 1]) == 0
    # zero eigenvalue with a unit vector: exact for k >= 3
    H3 = hypergraph("H3")
    e1 = [1] + [0] * 10
    assert eigen_residual(H3, 0j, e1) == 0
    lam = 2 ** (1 / 3)
    P2 = loose_path(2, 3)
    assert eigen_residual(P2, complex(lam), [1, 1, lam, 1, 1]) == 0
    with pytest.raises(DimensionMismatch):
        eigen_residual(P2, 0j, [1, 2, 3])


@pytest.mark.parametrize("x_sub", [[1j], [1j, 2j, 3j]])
def test_zero_extend_rejects_a_length_mismatch(x_sub):
    with pytest.raises(DimensionMismatch):
        zero_extend(x_sub, (1, 2), 3)


@pytest.mark.parametrize("labels", [(0, 1), (1, 4)])
def test_zero_extend_rejects_a_label_outside_the_host(labels):
    # a label of 0 would otherwise index the host's last vertex
    with pytest.raises(VertexOutOfRange):
        zero_extend([1j, 2j], labels, 3)


def test_find_eigenvector_single_edge():
    H = build(3, 3, [[1, 2, 3]])
    pair = find_totally_nonzero_eigenvector(H, 1 + 0j)
    assert pair.x == (1 + 0j, 1 + 0j, 1 + 0j)
    assert pair.residual == 0
    assert len(pair.x) == H.n and all(abs(v) > 1e-8 for v in pair.x)


def test_find_eigenvector_star_and_path():
    lam = complex(3 ** (1 / 3))
    pair = find_totally_nonzero_eigenvector(star(3, 3), lam)
    # center (vertex 1) over leaf ratio equals lambda
    assert pair.x[0] / pair.x[1] == pytest.approx(lam, abs=1e-10)
    assert pair.residual <= 1e-10
    lam = complex(2 ** (1 / 3))
    pair = find_totally_nonzero_eigenvector(loose_path(2, 3), lam)
    expected = [1, 1, lam, 1, 1]
    for got, want in zip(pair.x, expected):
        assert got == pytest.approx(want, abs=1e-10)


def test_find_eigenvector_complex_lambda():
    H1 = hypergraph("H1")
    # a genuinely non-real eigenvalue: lift of a complex alpha root
    alpha = next(
        z for z, _ in alpha_roots(comb_formula(3)) if z.imag > 0
    )
    lam = lift_to_x(alpha, 3)[0]
    pair = find_totally_nonzero_eigenvector(H1, lam)
    assert pair.residual <= 1e-8
    assert min(abs(v) for v in pair.x) > 1e-8


def test_find_eigenvector_rejects_zero():
    with pytest.raises(ValidationError, match="nonzero eigenvalue"):
        find_totally_nonzero_eigenvector(comb(3), 0j)
    # nor can a pair at lambda = 0 be rotated
    H = build(3, 3, [[1, 2, 3]])
    pair = find_totally_nonzero_eigenvector(H, 1 + 0j)
    zero = dataclasses.replace(pair, lam=0j)
    with pytest.raises(ValidationError, match="nonzero eigenvalue"):
        rotate_eigenpair(H, zero, lift_to_x(1 + 0j, 3)[1])


@pytest.mark.parametrize("tol", [0.0, -1.0, -0.0, math.nan, math.inf, -math.inf])
def test_eigenpair_calls_check_tol_first(monkeypatch, tol):
    H = build(3, 3, [[1, 2, 3]])
    pair = find_totally_nonzero_eigenvector(H, 1 + 0j)

    def no_walk(*args):
        raise AssertionError("tree walked before tol was checked")

    monkeypatch.setattr(spectra, "hypertree_walk", no_walk)
    with pytest.raises(ValidationError, match="tol"):
        find_totally_nonzero_eigenvector(H, 1 + 0j, tol=tol)
    with pytest.raises(ValidationError, match="tol"):
        rotate_eigenpair(H, pair, lift_to_x(1 + 0j, 3)[1], tol=tol)


def test_nan_residual_is_not_zero():
    H = comb(3)
    assert math.isnan(eigen_residual(H, 1 + 0j, [math.nan] * 9))
    assert math.isnan(eigen_residual(H, complex(math.nan), [1] * 9))
    # one nan vertex among finite ones, whichever comes first
    for j in (0, 8):
        x = [1.0] * 9
        x[j] = math.nan
        assert math.isnan(eigen_residual(H, 1 + 0j, x))


@pytest.mark.parametrize(
    "lam",
    [complex(math.nan, 0), complex(0, math.nan), complex(math.inf, 0),
     complex(1, -math.inf)],
)
def test_eigenpair_calls_reject_a_non_finite_lambda_first(monkeypatch, lam):
    H = build(3, 3, [[1, 2, 3]])
    pair = find_totally_nonzero_eigenvector(H, 1 + 0j)

    def no_walk(*args):
        raise AssertionError("tree walked before lambda was checked")

    monkeypatch.setattr(spectra, "hypertree_walk", no_walk)
    with pytest.raises(ValidationError, match="lambda must be finite"):
        find_totally_nonzero_eigenvector(H, lam)
    with pytest.raises(ValidationError, match="lambda must be finite"):
        rotate_eigenpair(H, pair, lam)


def test_find_eigenvector_fails_for_non_eigenvalue():
    from htspec.errors import NoConvergence

    # 1.7 is no root of x^3 - 2, so no eigenvector can exist
    with pytest.raises(NoConvergence):
        find_totally_nonzero_eigenvector(loose_path(2, 3), complex(1.7))


def test_pole_raises_instead_of_a_near_zero_witness():
    from htspec.errors import NoConvergence

    # alpha = 1 is a root of this host's matching polynomial, but the
    # elimination meets 1 - u_c = 0 on the way, so no witness comes out
    H = random_hypertree(5, 4, random.Random(105))
    with pytest.raises(NoConvergence, match="pole"):
        find_totally_nonzero_eigenvector(H, 1 + 0j)


def test_root_refinement_budget_is_enforced():
    from htspec.errors import DidNotConverge
    from htspec.spectra import _aberth

    with pytest.raises(DidNotConverge):
        _aberth([-1.0, 3.0, -4.0, 1.0], random.Random(1), max_iter=1)


def test_witness_extension_into_host():
    H3 = hypergraph("H3")
    s = set_spectrum(H3)
    lam, source = next(
        (v, src)
        for v, src in zip(s.values, s.sources)
        if src is not None and abs(v) > 1e-8
    )
    sub = helpers.first_subtrees(distinct_matching_polynomials(H3))[source.poly]
    pair = find_totally_nonzero_eigenvector(sub, lam)
    extended = zero_extend(pair.x, sub.parent_vertices, H3.n)
    assert eigen_residual(H3, lam, extended) <= 1e-8


CYCLE = build(3, 6, [[1, 2, 3], [3, 4, 5], [5, 6, 1]])
# with an isolated vertex the cycle has n = m(k - 1) + 1, a hypertree's count
CYCLE_PLUS_VERTEX = build(3, 7, CYCLE.edges)


def test_rotate_eigenpair_refuses_a_cycle_at_once():
    pair = find_totally_nonzero_eigenvector(build(3, 3, [[1, 2, 3]]), 1 + 0j)
    zeta = cmath.exp(2j * cmath.pi / 3)
    with Budget("rotate_eigenpair on a cycle", 0.5):
        with pytest.raises(NotAHypertree):
            rotate_eigenpair(CYCLE, pair, zeta)
    with pytest.raises(UniformityTwoUnsupported):
        rotate_eigenpair(loose_path(2, 2), pair, zeta)


@pytest.mark.parametrize("H", [CYCLE, CYCLE_PLUS_VERTEX])
def test_tree_algorithms_refuse_a_cycle(H):
    calls = [
        set_spectrum,
        spectral_radius,
        is_cyclotomic_spectrum,
        distinct_matching_polynomials,
        lambda H: find_totally_nonzero_eigenvector(H, 1 + 0j),
    ]
    for call in calls:
        with pytest.raises(NotAHypertree):
            call(H)
