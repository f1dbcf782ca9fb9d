"""Acceptance suite: end-to-end criteria at pinned tolerances and budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion including its runtime.
"""

import random

import helpers
from helpers import Budget, comb_formula, count_real_comb_roots, poly_mul
from htspec import (
    alpha_roots,
    build,
    comb,
    eigen_residual,
    expand_to_x,
    find_totally_nonzero_eigenvector,
    is_cyclotomic_spectrum,
    is_power_tree,
    lift_to_x,
    loose_path,
    matching_counts_bruteforce,
    matching_counts_tree,
    power,
    random_hypertree,
    set_spectrum,
    star,
    to_alpha_poly,
)
from htspec.fixtures import (
    FIXTURE_NAMES,
    degree_check,
    fixture,
    hypergraph,
    spectrum_crosscheck,
)
from htspec.spectra import zero_extend
from htspec.subtrees import distinct_matching_polynomials

SET_TOL = 1e-8


def test_criterion_1_golden_matching_polynomials():
    """Tree recurrence reproduces the published table exactly."""
    table = {
        "P1": (loose_path(1, 3), {3: 1, 0: -1}),
        "P2": (loose_path(2, 3), {3: 1, 0: -2}),
        "P3": (loose_path(3, 3), {6: 1, 3: -3, 0: 1}),
        "S3": (star(3, 3), {3: 1, 0: -3}),
        "H1": (hypergraph("H1"), {9: 1, 6: -4, 3: 3, 0: -1}),
        "H2": (hypergraph("H2"), {6: 1, 3: -4, 0: 2}),
        "H3": (hypergraph("H3"), {9: 1, 6: -5, 3: 5, 0: -2}),
    }
    with Budget("criterion 1: golden matching polynomials", 1.0):
        for name, (H, expected) in table.items():
            phi = to_alpha_poly(matching_counts_tree(H))
            assert expand_to_x(phi, 3) == expected, name


def test_criterion_2_spectrum_assembly_matches_fixtures():
    """Subtree polynomials match the published factorizations exactly,
    and every nonzero value has a host witness within 1e-8."""
    with Budget("criterion 2: fixture spectrum assembly", 10.0):
        for name in FIXTURE_NAMES:
            report = spectrum_crosscheck(name, tol=SET_TOL)
            assert report.bases_ok and report.spectrum_ok, report.detail


def test_criterion_3_oracle_equivalence_and_multiplicativity():
    """200 random hypertrees: tree recurrence equals brute force exactly;
    100 random 2-3 component hyperforests: polynomial multiplicativity."""
    rng = random.Random(2024)
    with Budget("criterion 3: oracle equivalence + multiplicativity", 30.0):
        for i in range(200):
            k = (3, 4, 5)[i % 3]
            H = random_hypertree(rng.randint(1, 10), k, rng)
            assert (
                matching_counts_tree(H).counts
                == matching_counts_bruteforce(H).counts
            )
        for i in range(100):
            k = (3, 4, 5)[i % 3]
            sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 3))]
            forest, parts = helpers.random_hyperforest(sizes, k, rng)
            product = to_alpha_poly(matching_counts_tree(parts[0]))
            for part in parts[1:]:
                product = poly_mul(
                    product, to_alpha_poly(matching_counts_tree(part))
                )
            assert product == to_alpha_poly(matching_counts_tree(forest))


def test_criterion_4_comb_closed_form_and_real_root_counts():
    """Closed form equals the recursion for k = 2..7; the real alpha-root
    count is 1 for odd k and 2 for even k."""
    with Budget("criterion 4: comb closed form + real-root counts", 5.0):
        for k in range(2, 8):
            assert comb_formula(k) == to_alpha_poly(matching_counts_tree(comb(k)))
        for k in (3, 5, 7):
            assert count_real_comb_roots(k) == 1
        for k in (4, 6):
            assert count_real_comb_roots(k) == 2


def test_criterion_5_power_tree_dual_recognition():
    """Structural and spectral power-tree tests agree on 50 random power
    trees and 50 random forced non-power hypertrees."""
    rng = random.Random(5150)
    with Budget("criterion 5: dual power-tree recognition", 60.0):
        agreements = 0
        for i in range(50):
            k = (3, 4, 5)[i % 3]
            T = random_hypertree(rng.randint(1, 8), 2, rng)
            H = power(T, k)
            structural = is_power_tree(H)
            spectral = is_cyclotomic_spectrum(H)
            assert structural is True
            assert structural == spectral
            agreements += 1
        for i in range(50):
            k = (3, 4, 5)[i % 3]
            H = helpers.random_nonpower_hypertree(rng.randint(4, 8), k, rng)
            structural = is_power_tree(H)
            spectral = is_cyclotomic_spectrum(H)
            assert structural is False
            assert structural == spectral
            agreements += 1
        assert agreements == 100


def test_criterion_6_power_lift_containment():
    """For 2-uniform trees T, every nonzero root mu of a subtree matching
    polynomial yields lambda with lambda^k = mu^2 inside the spectrum of
    the k-th power, within 1e-8."""
    rng = random.Random(66)
    with Budget("criterion 6: power lift containment", 60.0):
        for case in range(20):
            T = random_hypertree(rng.randint(1, 7), 2, rng)
            catalog = distinct_matching_polynomials(T)
            for k in (3, 4):
                spectrum = set_spectrum(power(T, k), tol=SET_TOL)
                for phi in catalog.polys:
                    for a, _ in alpha_roots(phi):
                        if abs(a) <= SET_TOL:
                            continue
                        # mu^2 = a for the two x-roots mu of alpha - a
                        for lam in lift_to_x(a, k):
                            assert spectrum.contains(lam), (case, k, a, lam)


def test_criterion_7_eigenpair_witnesses_on_h3():
    """Every nonzero spectrum value of H3 is certified by a subtree
    eigenvector with full support and residual <= 1e-8 whose
    zero-extension has residual <= 1e-8 on H3."""
    H3 = hypergraph("H3")
    witness = helpers.first_subtrees(distinct_matching_polynomials(H3))
    spectrum = set_spectrum(H3, tol=SET_TOL)
    with Budget("criterion 7: eigenpair witnesses", 120.0):
        checked = 0
        for lam, source in zip(spectrum.values, spectrum.sources):
            if source is None or abs(lam) <= SET_TOL:
                continue
            sub, labels = witness[source.poly]
            pair = find_totally_nonzero_eigenvector(sub, lam, tol=SET_TOL)
            assert len(pair.x) == sub.n
            assert all(abs(v) > SET_TOL for v in pair.x)
            assert pair.residual <= SET_TOL
            extended = zero_extend(pair.x, labels, H3.n)
            assert eigen_residual(H3, lam, extended) <= SET_TOL
            checked += 1
        assert checked == 39  # 13 alpha roots, three lifts each


def test_criterion_8_divisibility_and_degree_checks():
    """Exact divisibility: every cataloged subtree polynomial divides the
    factored characteristic polynomial; degree checks pass."""
    with Budget("criterion 8: divisibility + degree checks", 120.0):
        totals = {"H1": 2304, "H2": 2304, "H3": 11264}
        for name in FIXTURE_NAMES:
            f = fixture(name)
            assert degree_check(f)
            assert f.total_x_degree() == totals[name]
            report = spectrum_crosscheck(name)
            assert report.degree_ok and report.divides_ok, name


def test_criterion_9_rotation_symmetry():
    """Every emitted spectrum set is invariant under multiplication by
    e^(2 pi i / k), within 1e-8."""
    rng = random.Random(99)
    with Budget("criterion 9: root-of-unity symmetry", 60.0):
        hosts = [hypergraph(name) for name in FIXTURE_NAMES]
        hosts.append(build(3, 3, [[1, 2, 3]]))
        hosts += [random_hypertree(rng.randint(1, 6), k, rng) for k in (3, 4, 5)]
        hosts.append(power(random_hypertree(4, 2, rng), 4))
        hosts.append(helpers.random_nonpower_hypertree(5, 3, rng))
        for H in hosts:
            assert set_spectrum(H, tol=SET_TOL).rotation_symmetric()
