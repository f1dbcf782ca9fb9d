"""Root finding, spectrum assembly, and eigenvector construction."""

import cmath
import math
import random

import pytest

import helpers
from htspec import (
    alpha_poly,
    alpha_roots,
    build,
    comb,
    comb_formula,
    count_real_comb_roots,
    eigen_residual,
    find_totally_nonzero_eigenvector,
    is_cyclotomic_spectrum,
    is_power_tree,
    lift_to_x,
    loose_path,
    matching_polynomial,
    poly_mul,
    power,
    random_hypertree,
    set_spectrum,
    spectral_radius,
    star,
)
from htspec.errors import (
    DimensionMismatch,
    NotAHypertree,
    UniformityTwoUnsupported,
    ValidationError,
)
from htspec.fixtures import hypergraph
from htspec.matching import poly_pow
from htspec.spectra import (
    squarefree_decomposition,
    zero_extend,
)
from htspec.subtrees import distinct_matching_polynomials, subtree_hypergraph


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


def test_alpha_roots_zero_roots_and_validation():
    p = alpha_poly([0, 0, -1, 1])  # a^2 (a - 1)
    assert alpha_roots(p) == [(0j, 2), ((1 + 0j), 1)]
    with pytest.raises(ValidationError):
        alpha_roots(alpha_poly([]))
    assert alpha_roots(alpha_poly([7])) == []


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
        for base, mult in squarefree_decomposition(p):
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
        got = [(q.coeffs, mult) for q, mult in squarefree_decomposition(p)]
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


def test_cyclotomic_verdicts():
    assert is_cyclotomic_spectrum(hypergraph("H2"))
    assert not is_cyclotomic_spectrum(hypergraph("H1"))
    assert is_cyclotomic_spectrum(build(3, 3, [[1, 2, 3]]))


def test_spider_power_with_double_root_stays_cyclotomic():
    # the equal-leg spider has matching polynomial (a-1)^2 (a-4); its
    # double root must come out exactly real or the cyclotomic test at
    # 1e-8 would misclassify this power tree
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
        catalog = distinct_matching_polynomials(H)
        s = set_spectrum(H, catalog=catalog)
        for lam, source in zip(s.values, s.sources):
            if source is None:
                continue
            poly_idx = catalog.polys.index(source.poly)
            subset = catalog.subsets[catalog.witnesses(poly_idx)[0]]
            sub = subtree_hypergraph(H, subset)
            pair = find_totally_nonzero_eigenvector(sub, lam, tol=1e-8)
            extended = zero_extend(pair.x, sub.parent_vertices, H.n)
            assert eigen_residual(H, lam, extended) <= 1e-8


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


def test_find_eigenvector_single_edge():
    H = build(3, 3, [[1, 2, 3]])
    pair = find_totally_nonzero_eigenvector(H, 1 + 0j)
    assert pair.x == (1 + 0j, 1 + 0j, 1 + 0j)
    assert pair.residual == 0
    assert pair.totally_nonzero


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
    with pytest.raises(ValidationError):
        find_totally_nonzero_eigenvector(comb(3), 0j)


def test_find_eigenvector_fails_for_non_eigenvalue():
    from htspec.errors import NoConvergence

    # 1.7 is no root of x^3 - 2, so no eigenvector can exist
    with pytest.raises(NoConvergence):
        find_totally_nonzero_eigenvector(
            loose_path(2, 3), complex(1.7), max_restarts=4
        )


def test_root_refinement_budget_is_enforced():
    from htspec.errors import DidNotConverge
    from htspec.spectra import _aberth

    with pytest.raises(DidNotConverge):
        _aberth([-1.0, 3.0, -4.0, 1.0], 1e-12, random.Random(1), max_iter=1)


def test_witness_extension_into_host():
    H3 = hypergraph("H3")
    catalog = distinct_matching_polynomials(H3)
    s = set_spectrum(H3, catalog=catalog)
    lam, source = next(
        (v, src)
        for v, src in zip(s.values, s.sources)
        if src is not None and abs(v) > 1e-8
    )
    poly_idx = catalog.polys.index(source.poly)
    subset = catalog.subsets[catalog.witnesses(poly_idx)[0]]
    sub = subtree_hypergraph(H3, subset)
    pair = find_totally_nonzero_eigenvector(sub, lam)
    extended = zero_extend(pair.x, sub.parent_vertices, H3.n)
    assert eigen_residual(H3, lam, extended) <= 1e-8
