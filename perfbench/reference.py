"""Reference answers and the checks that compare the library against them.

References come from closed forms, from the benchmark's own tree DP and
subset enumeration (:mod:`hosts`), from sympy (real-root isolation,
irreducible factors) and mpmath (residuals), and from the paper's
published factorizations transcribed below.  None of them calls
``htspec``.  They are computed once per run, before any timed pass.

``reference(op)`` returns a JSON-able dict; ``check(op, ref, answer)``
returns ``None`` when the answer is right and a one-line reason when it
is not.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import mpmath
import sympy

import hosts

# The library's default set tolerance (``DEFAULT_SET_TOL``): the
# documented distance at which two spectrum values count as one.
SET_TOL = 1e-8
# |phi(lambda^k)| <= RESIDUAL_TOL * max|c| * max(1, |lambda^k|)^deg
RESIDUAL_TOL = 1e-8
# Distance at which a rotated spectrum value must find a partner.
ROTATION_TOL = 1e-7
RADIUS_REL_TOL = 1e-9
# Eigen-equation residual relative to max|x|^(k-1) * max(1, |lambda|) * maxdeg.
EIGVEC_REL_TOL = 1e-6

_ALPHA = sympy.Symbol("alpha")
_X = sympy.Symbol("x")

# Characteristic polynomials of the paper's H1-H3 (3-uniform), as
# (alpha-form base, little-endian, multiplicity) pairs.
PAPER_FACTORS = {
    "H1": {(-1, 3, -4, 1): 81, (1, -3, 1): 81, (-2, 1): 27, (-1, 1): 147},
    "H2": {(2, -4, 1): 81, (1, -3, 1): 54, (-3, 1): 27, (-2, 1): 63, (-1, 1): 75},
    "H3": {
        (-2, 5, -5, 1): 243,
        (-1, 3, -4, 1): 162,
        (2, -4, 1): 162,
        (1, -3, 1): 135,
        (-3, 1): 27,
        (-2, 1): 180,
        (-1, 1): 483,
    },
}
PAPER_K = 3


def _name(op) -> str:
    return op["id"].split("/", 1)[1]


def _closed_form_radius(op):
    name, host = _name(op), op["host"]
    k = host[0]
    if name.startswith("path-"):
        t = len(host[2])
        return (4 * math.cos(math.pi / (t + 2)) ** 2) ** (1 / k)
    if name.startswith("star-"):
        return len(host[2]) ** (1 / k)
    return None


def _largest_real_root(coeffs) -> float:
    poly = sympy.Poly(list(reversed(coeffs)), _ALPHA)
    lo, hi = poly.intervals()[-1][0]
    lo, hi = poly.refine_root(lo, hi, eps=Fraction(1, 10**20))
    return float((lo + hi) / 2)


def _distinct_root_count(polys) -> int:
    """Sum of degrees over the distinct irreducible factors."""
    factors = set()
    for cs in polys:
        for f, _ in sympy.Poly(list(reversed(cs)), _ALPHA).factor_list()[1]:
            factors.add(tuple(f.all_coeffs()))
    return sum(len(f) - 1 for f in factors)


def reference(op) -> dict:
    kind, host = op["kind"], op["host"]
    if kind == "matchpoly":
        name = _name(op)
        m = len(host[2])
        if name.startswith("path-"):
            counts = [math.comb(m + 1 - i, i) for i in range((m + 1) // 2 + 1)]
        elif name.startswith("star-"):
            counts = [1, m]
        else:
            counts = hosts.matching_counts(host[2], host[1])
        return {"coeffs": list(hosts.alpha_coeffs(counts))}
    if kind == "catalog":
        return {"subsets": hosts.connected_subset_count(host)}
    if kind == "spectrum":
        polys = sorted(hosts.catalog_polys(host))
        return {"polys": [list(p) for p in polys], "values": 1 + host[0] * _distinct_root_count(polys)}
    if kind == "cyclotomic":
        return {"answer": hosts.is_power_shape(host)}
    if kind == "radius":
        rho = _closed_form_radius(op)
        if rho is None:
            counts = hosts.matching_counts(host[2], host[1])
            rho = _largest_real_root(hosts.alpha_coeffs(counts)) ** (1 / host[0])
        return {"radius": rho}
    if kind == "paper":
        return {}
    raise ValueError(f"unknown op kind {kind!r}")


# -- checks ----------------------------------------------------------------------


def _check_catalog(op, ref, ans):
    host = op["host"]
    index = {tuple(e): i for i, e in enumerate(host[2])}
    if ans["subsets"] != ref["subsets"]:
        return f"{ans['subsets']} subsets, expected {ref['subsets']}"
    polys = [tuple(p) for p in ans["polys"]]
    if len(set(polys)) != len(polys):
        return "catalog polynomials are not distinct"
    for j, witness in ans["witness"]:
        poly = polys[j]
        subset = tuple(index[tuple(e)] for e in witness)
        if not hosts.is_connected_subset(host, subset):
            return f"witness {witness} is not a connected edge subset"
        if hosts.subset_poly(host, subset) != poly:
            return f"witness {witness} has another matching polynomial"
    for edges, j in ans["sample"]:
        subset = tuple(index[tuple(e)] for e in edges)
        if hosts.subset_poly(host, subset) != polys[j]:
            return f"subset {edges} assigned the wrong polynomial"
    return None


def _grid(values, cell):
    grid: dict[tuple[int, int], list[complex]] = {}
    for v in values:
        grid.setdefault((math.floor(v.real / cell), math.floor(v.imag / cell)), []).append(v)
    return grid


def _near(grid, cell, z, tol) -> bool:
    cx, cy = math.floor(z.real / cell), math.floor(z.imag / cell)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for v in grid.get((cx + dx, cy + dy), ()):
                if abs(z - v) <= tol:
                    return True
    return False


def _check_spectrum(op, ref, ans):
    k = op["host"][0]
    values = [complex(re, im) for re, im in ans["values"]]
    if len(values) != ref["values"]:
        return f"{len(values)} spectrum values, expected {ref['values']}"
    known = {tuple(p) for p in ref["polys"]}
    table = [tuple(p) for p in ans["source_polys"]]
    mpmath.mp.dps = 30
    for lam, src in zip(values, ans["sources"]):
        if src is None:
            if abs(lam) > SET_TOL:
                return f"nonzero value {lam} has no source polynomial"
            continue
        cs = table[src]
        if cs not in known:
            return f"source polynomial {cs} is not in the subtree catalog"
        w = mpmath.mpc(lam.real, lam.imag) ** k
        scale = max(abs(c) for c in cs) * max(1, abs(w)) ** (len(cs) - 1)
        if abs(mpmath.polyval(list(reversed(cs)), w)) > RESIDUAL_TOL * scale:
            return f"value {lam} misses |phi(lambda^k)| tolerance for {cs}"
    grid = _grid(values, 10 * ROTATION_TOL)
    for j in range(1, k):
        zeta = cmath.exp(2j * cmath.pi * j / k)
        for v in values:
            if not _near(grid, 10 * ROTATION_TOL, v * zeta, ROTATION_TOL):
                return f"value {v} rotated by 2pi*{j}/{k} has no partner"
    return None


def _check_contains(values, ans):
    grid = _grid([complex(re, im) for re, im in values], 10 * SET_TOL)
    for (re, im), got in zip(ans["probes"], ans["answers"]):
        want = _near(grid, 10 * SET_TOL, complex(re, im), SET_TOL)
        if got != want:
            return f"contains({complex(re, im)}) gave {got}, expected {want}"
    return None


def _check_eigvec(op, ans):
    k, n, edges = op["host"]
    lam = complex(*ans["lam"])
    x = [complex(re, im) for re, im in ans["x"]]
    if len(x) != n:
        return f"vector length {len(x)} != {n}"
    top = max(abs(v) for v in x)
    if min(abs(v) for v in x) <= 1e-12 * top:
        return "eigenvector has a zero coordinate"
    sums = [0j] * (n + 1)
    for e in edges:
        for j in e:
            prod = 1 + 0j
            for v in e:
                if v != j:
                    prod *= x[v - 1]
            sums[j] += prod
    maxdeg = max(hosts.degrees(op["host"]))
    scale = top ** (k - 1) * max(1.0, abs(lam)) * maxdeg
    worst = max(abs(sums[j] - lam * x[j - 1] ** (k - 1)) for j in range(1, n + 1))
    if worst > EIGVEC_REL_TOL * scale:
        return f"eigen-equation residual {worst:.3e} above {EIGVEC_REL_TOL:g} * {scale:.3e}"
    return None


def _alpha_of_x_string(text: str) -> tuple[int, ...]:
    """Parse the library's x-form (``x^9 - 4x^6 + 3x^3 - 1``) back to alpha."""
    expr = sympy.parse_expr(
        text.replace("^", "**"),
        local_dict={"x": _X},
        transformations=sympy.parsing.sympy_parser.standard_transformations
        + (sympy.parsing.sympy_parser.implicit_multiplication,),
    )
    poly = sympy.Poly(expr, _X)
    coeffs = [0] * (poly.degree() // PAPER_K + 1)
    for (d,), c in poly.terms():
        if d % PAPER_K:
            raise ValueError(f"{text}: exponent {d} not a multiple of {PAPER_K}")
        coeffs[d // PAPER_K] = int(c)
    return tuple(coeffs)


def _check_paper(ans):
    import json

    if ans["exit"] != 0:
        return f"check-paper exited {ans['exit']}"
    report = json.loads(ans["stdout"])
    if not report.get("ok"):
        return "check-paper reported ok = false"
    seen = set()
    for fx in report["fixtures"]:
        name = fx["fixture"]
        got = {_alpha_of_x_string(s): m for s, m in fx["multiplicities"].items()}
        if got != PAPER_FACTORS[name]:
            return f"{name}: multiplicities {got} differ from the paper's"
        seen.add(name)
    if seen != set(PAPER_FACTORS):
        return f"fixtures reported: {sorted(seen)}"
    return None


def check(op, ref, ans, built=None):
    """None if ``ans`` is right, else the reason.  ``built`` is the answer
    of the op's first step, which its reads depend on (the built set)."""
    kind = ans["kind"]
    if kind == "matchpoly":
        return None if ans["coeffs"] == ref["coeffs"] else "matching polynomial differs"
    if kind == "catalog":
        return _check_catalog(op, ref, ans)
    if kind == "spectrum":
        return _check_spectrum(op, ref, ans)
    if kind == "contains":
        return _check_contains(built["values"], ans)
    if kind == "rotation":
        return None if ans["answer"] is True else "rotation_symmetric() returned False"
    if kind == "cyclotomic":
        want = ref["answer"]
        return None if ans["answer"] == want else f"verdict {ans['answer']}, expected {want}"
    if kind == "radius":
        want = ref["radius"]
        if abs(ans["answer"] - want) > RADIUS_REL_TOL * want:
            return f"radius {ans['answer']!r}, expected {want!r}"
        return None
    if kind == "eigvec":
        return _check_eigvec(op, ans)
    if kind == "paper":
        return _check_paper(ans)
    raise ValueError(f"unknown answer kind {kind!r}")
