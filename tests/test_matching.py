"""Matching counts, the alpha polynomial, and the comb closed form."""

import random
from math import comb as binomial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import Budget
from htspec import (
    alpha_poly,
    alpha_str,
    build,
    comb,
    comb_formula,
    count_real_comb_roots,
    disjoint_union,
    expand_to_x,
    loose_path,
    matching_counts_bruteforce,
    matching_counts_tree,
    matching_polynomial,
    power,
    random_hypertree,
    star,
    to_alpha_poly,
    poly_mul,
    x_str,
)
from htspec.fixtures import hypergraph
from htspec.matching import (
    MatchingCounts,
    count_distinct_real_roots,
    poly_divmod,
    poly_from_json,
    poly_pow,
    poly_to_json,
)
from htspec.errors import (
    NotAHyperforest,
    TooManyEdgesForOracle,
    ValidationError,
)


def test_bruteforce_examples():
    assert matching_counts_bruteforce(build(3, 3, [[1, 2, 3]])).counts == (1, 1)
    assert matching_counts_bruteforce(comb(3)).counts == (1, 4, 3, 1)
    assert matching_counts_bruteforce(hypergraph("H3")).counts == (1, 5, 5, 2)


def test_bruteforce_matches_itertools_oracle():
    rng = random.Random(5)
    for _ in range(25):
        H = random_hypertree(rng.randint(1, 7), rng.choice([2, 3, 4]), rng)
        assert matching_counts_bruteforce(H).counts == helpers.brute_matching_counts(H)


def test_bruteforce_edge_limit():
    H = loose_path(5, 3)
    with pytest.raises(TooManyEdgesForOracle):
        matching_counts_bruteforce(H, limit=4)


def test_tree_dp_examples():
    assert matching_counts_tree(hypergraph("H2")).counts == (1, 4, 2)
    assert matching_counts_tree(loose_path(3, 3)).counts == (1, 3, 1)
    assert matching_counts_tree(star(3, 3)).counts == (1, 3)


def test_tree_dp_rejects_cycles():
    with pytest.raises(NotAHyperforest):
        matching_counts_tree(build(3, 4, [[1, 2, 3], [1, 2, 4]]))


def test_tree_dp_handles_forests():
    F = disjoint_union(loose_path(2, 3), star(3, 3), build(3, 3, [[1, 2, 3]]))
    assert (
        matching_counts_tree(F).counts
        == matching_counts_bruteforce(F).counts
        == helpers.brute_matching_counts(F)
    )


def test_matching_polynomial_of_long_path_and_star():
    m = 1000
    path_counts = tuple(binomial(m + 1 - i, i) for i in range((m + 1) // 2 + 1))
    assert matching_polynomial(loose_path(m, 3)) == to_alpha_poly(
        MatchingCounts(path_counts)
    )
    assert matching_polynomial(star(m, 3)) == to_alpha_poly(MatchingCounts((1, m)))


def test_tree_dp_on_large_hosts_within_budget():
    H = random_hypertree(200, 3, random.Random(61))
    # two edges of a hypertree meet in at most one vertex
    meeting_pairs = sum(binomial(d, 2) for d in H.degrees())
    with Budget("tree DP: 5000-edge path, random 200-edge tree", 10.0):
        assert matching_counts_tree(loose_path(5000, 3)).matching_number == 2500
        counts = matching_counts_tree(H).counts
    assert counts[1] == 200
    assert counts[2] == binomial(200, 2) - meeting_pairs


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_tree_dp_agrees_with_bruteforce(rng):
    H = random_hypertree(rng.randint(1, 8), rng.choice([3, 4, 5]), rng)
    assert matching_counts_tree(H).counts == matching_counts_bruteforce(H).counts


def test_power_of_star_and_comb_polynomials():
    # padding a 2-uniform 3-star to uniformity 3 gives the 3-star shape
    lifted = power(star(3, 2), 3)
    assert to_alpha_poly(matching_counts_tree(lifted)).coeffs == (-3, 1)
    # powers of combs keep the comb closed form
    assert (
        to_alpha_poly(matching_counts_tree(power(comb(3), 5)))
        == comb_formula(3)
    )


def test_power_invariance_of_counts():
    rng = random.Random(23)
    for _ in range(15):
        T = random_hypertree(rng.randint(1, 6), 2, rng)
        k = rng.choice([3, 4, 5])
        assert (
            matching_counts_tree(power(T, k)).counts
            == matching_counts_tree(T).counts
        )


def test_to_alpha_poly_examples():
    assert to_alpha_poly(MatchingCounts((1, 1))).coeffs == (-1, 1)
    assert to_alpha_poly(MatchingCounts((1, 4, 3, 1))).coeffs == (-1, 3, -4, 1)
    assert to_alpha_poly(MatchingCounts((1, 4, 2))).coeffs == (2, -4, 1)


def test_alternating_sign_pattern():
    rng = random.Random(29)
    for _ in range(20):
        H = random_hypertree(rng.randint(1, 8), rng.choice([3, 4]), rng)
        coeffs = to_alpha_poly(matching_counts_tree(H)).coeffs
        assert coeffs[-1] == 1
        for d, c in enumerate(coeffs):
            expected_sign = 1 if (len(coeffs) - 1 - d) % 2 == 0 else -1
            assert c * expected_sign > 0


def test_poly_mul_identity_and_quadratic():
    p1 = alpha_poly([-1, 1])
    assert poly_mul(p1, alpha_poly([1])) == p1
    prod = poly_mul(p1, alpha_poly([-2, 1]))
    assert prod.coeffs == (2, -3, 1)
    union = disjoint_union(loose_path(1, 3), loose_path(2, 3))
    assert to_alpha_poly(matching_counts_bruteforce(union)) == prod


def test_poly_mul_matches_union_oracle():
    H1 = comb(3)
    P1 = loose_path(1, 3)
    union = disjoint_union(H1, P1)
    lhs = poly_mul(
        to_alpha_poly(matching_counts_tree(H1)),
        to_alpha_poly(matching_counts_tree(P1)),
    )
    assert lhs == to_alpha_poly(matching_counts_bruteforce(union))


def test_multiplicativity_on_random_forests():
    rng = random.Random(31)
    for _ in range(20):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 3))]
        forest, parts = helpers.random_hyperforest(sizes, rng.choice([3, 4]), rng)
        product = alpha_poly([1])
        for part in parts:
            product = poly_mul(product, to_alpha_poly(matching_counts_tree(part)))
        assert product == to_alpha_poly(matching_counts_tree(forest))


def test_expand_to_x():
    assert expand_to_x(alpha_poly([-1, 1]), 3) == {0: -1, 3: 1}
    assert expand_to_x(alpha_poly([1, -3, 1]), 3) == {0: 1, 3: -3, 6: 1}
    assert expand_to_x(alpha_poly([1]), 5) == {0: 1}


def test_text_forms():
    h1 = to_alpha_poly(MatchingCounts((1, 4, 3, 1)))
    assert alpha_str(h1) == "α^3 - 4α^2 + 3α - 1"
    assert x_str(h1, 3) == "x^9 - 4x^6 + 3x^3 - 1"
    assert alpha_str(alpha_poly([-1, 1])) == "α - 1"
    assert x_str(alpha_poly([-1, 1]), 3) == "x^3 - 1"
    assert alpha_str(alpha_poly([1])) == "1"
    assert alpha_str(alpha_poly([])) == "0"


def test_json_form_round_trip():
    p = to_alpha_poly(MatchingCounts((1, 4, 3, 1)))
    blob = poly_to_json(p)
    assert blob == {"alpha_coeffs": ["-1", "3", "-4", "1"]}
    assert poly_from_json(blob) == p


def test_comb_formula_matches_dp():
    for k in range(2, 8):
        assert comb_formula(k) == to_alpha_poly(matching_counts_tree(comb(k)))


def test_comb_formula_small_cases():
    assert comb_formula(3).coeffs == (-1, 3, -4, 1)
    # k=2: the 3-edge 2-uniform path has counts [1, 3, 1]
    assert comb_formula(2) == to_alpha_poly(matching_counts_bruteforce(comb(2)))
    assert comb_formula(2).coeffs == (1, -3, 1)
    from htspec.matching import poly_sub

    expected4 = poly_sub(poly_pow(alpha_poly([-1, 1]), 4), alpha_poly([0, 0, 0, 1]))
    assert comb_formula(4) == expected4
    assert expected4 == to_alpha_poly(matching_counts_bruteforce(comb(4)))


def test_count_real_comb_roots():
    assert count_real_comb_roots(3) == 1
    assert count_real_comb_roots(4) == 2
    assert count_real_comb_roots(5) == 1
    with pytest.raises(ValidationError):
        count_real_comb_roots(2)


def test_sturm_on_known_polynomials():
    # (a-1)(a-2)(a-3) has 3 distinct real roots
    p = poly_mul(poly_mul(alpha_poly([-1, 1]), alpha_poly([-2, 1])), alpha_poly([-3, 1]))
    assert count_distinct_real_roots(p) == 3
    # (a^2+1)(a-1) has 1
    assert count_distinct_real_roots(poly_mul(alpha_poly([1, 0, 1]), alpha_poly([-1, 1]))) == 1
    # (a-1)^2 counts once (distinct roots)
    assert count_distinct_real_roots(poly_pow(alpha_poly([-1, 1]), 2)) == 1
    # linear factors with rational roots times quadratics a^2 + c, under
    # non-unit and negative leading constants
    lin_a, lin_b, lin_c = alpha_poly([-1, 2]), alpha_poly([1, 3]), alpha_poly([-3, 5])
    quad_1, quad_2, quad_3 = (alpha_poly([c, 0, 1]) for c in (1, 2, 3))
    cases = [
        ([alpha_poly([-5]), poly_pow(lin_a, 2), lin_b, quad_2], 2),
        ([alpha_poly([-7]), poly_pow(lin_b, 3), poly_pow(quad_1, 2), lin_a], 2),
        ([alpha_poly([4]), poly_pow(lin_c, 2), poly_pow(quad_3, 2)], 1),
        ([alpha_poly([-1]), lin_a, lin_b, lin_c, quad_2], 3),
        # the Sturm chain's remainders are -17a - 26 and -1; the first
        # divides a cubic, so scaling by lc^3 in place of |lc|^3 would
        # flip the sign of the second
        ([alpha_poly([-5]), alpha_poly([-2, 1]), alpha_poly([2, 3]), quad_2], 2),
        ([quad_2], 0),
    ]
    for parts, expected in cases:
        p = alpha_poly([1])
        for part in parts:
            p = poly_mul(p, part)
        assert count_distinct_real_roots(p) == expected


def test_poly_divmod_exact():
    h3 = alpha_poly([-2, 5, -5, 1])
    q, r = poly_divmod(poly_mul(h3, alpha_poly([-1, 1])), h3)
    assert q == alpha_poly([-1, 1]) and r.coeffs == ()
    q, r = poly_divmod(alpha_poly([1, 1]), alpha_poly([-1, 1]))
    assert r.coeffs == (2,)
    with pytest.raises(ValidationError):
        poly_divmod(alpha_poly([1, 1]), alpha_poly([1, 2]))


def test_matching_counts_validation():
    with pytest.raises(ValidationError):
        MatchingCounts((2, 1))
    with pytest.raises(ValidationError):
        MatchingCounts((1, 0))
    assert MatchingCounts((1,)).matching_number == 0
