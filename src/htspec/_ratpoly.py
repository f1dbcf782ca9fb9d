"""Exact polynomial arithmetic over the integers (little-endian lists).

The one polynomial stack of the package: the ``AlphaPolynomial`` ops in
``matching``, the squarefree decomposition, the Sturm chains that count
and isolate real roots, and the exact signs that bracket them all run on
these plain ``list[int]`` helpers.  ``sign_at`` gives the exact sign at
a rational, ``variations`` a Sturm chain's sign changes there or at
±inf, and ``real_root_count`` the chain's count of distinct real roots;
they are the only sign and Sturm counting code.  Remainders are
primitive pseudo-remainders: a is scaled by |lc(b)|^(deg a - deg b + 1)
so every quotient step divides exactly, and the remainder is divided by
its positive content.  Both factors are positive, so each remainder has
the sign of the rational one, which keeps Sturm sign variations exact,
and coefficients stay as small as the gcd chain allows (Brown 1971).

The name ``_ratpoly`` is older than the integer arithmetic.  It stays
because ``perfbench/spans.py`` imports this module by name and wraps
``gcd``, ``rem`` and ``div_exact`` in timing spans; callers therefore
reach those three through the module, never through a local binding.
"""

from __future__ import annotations

from math import gcd as _int_gcd
from typing import Sequence


def trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def deriv(p: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(p) if i]


def sub(a: Sequence[int], b: Sequence[int]) -> list[int]:
    size = max(len(a), len(b))
    return trim(
        [
            (a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
            for i in range(size)
        ]
    )


def divide(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b (b nonzero, trimmed).

    The caller guarantees that every quotient coefficient is an integer:
    b is monic, b is primitive and divides a, or a was pre-scaled as in
    ``rem``.
    """
    r = list(a)
    db, lead = len(b) - 1, b[-1]
    q = [0] * (len(r) - db)
    for top in range(len(r) - 1, db - 1, -1):
        c = r[top]
        if c:
            c //= lead
            q[top - db] = c
            shift = top - db
            for j, bc in enumerate(b):
                r[shift + j] -= c * bc
    return trim(q), trim(r)


def primitive(p: list[int]) -> list[int]:
    """p divided by its positive content; the sign is kept."""
    g = _int_gcd(*p)
    return [c // g for c in p] if g > 1 else p


def positive_primitive(p: Sequence[int]) -> list[int]:
    """p (nonzero) divided by its content, signed so that its lead is
    positive."""
    p = primitive(list(p))
    return [-c for c in p] if p[-1] < 0 else p


def rem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Primitive pseudo-remainder: a positive multiple of a mod b."""
    lead = abs(b[-1])
    if lead != 1 and len(a) >= len(b):
        scale = lead ** (len(a) - len(b) + 1)
        a = [scale * c for c in a]
    return primitive(divide(a, b)[1])


def gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Polynomial gcd over the rationals by the primitive remainder
    sequence, normalized to be primitive with positive lead."""
    while b:
        a, b = b, rem(a, b)
    return positive_primitive(a) if a else []


def sturm_chain(p: Sequence[int]) -> list[list[int]]:
    """p, p' and then negated primitive pseudo-remainders, down to the
    last nonzero one, which is gcd(p, p') up to a constant.

    Each entry is a positive multiple of the classical Sturm chain's, so
    the two have the same signs everywhere (p non-constant)."""
    chain = [list(p), deriv(p)]
    while len(chain[-1]) > 1:
        r = rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return chain


def scaled_value(p: Sequence[int], num: int, den: int) -> int:
    """p(num/den) * den^deg p, exactly, for integers num and den > 0.

    The homogenized Horner sum of c_i num^i den^(d - i), over the
    integers: no rounding and no overflow.  A float x, a dyadic
    rational, is passed as ``*x.as_integer_ratio()``."""
    acc, scale = 0, 1
    for c in reversed(p):
        acc = acc * num + c * scale
        scale *= den
    return acc


def sign_at(p: Sequence[int], num: int, den: int) -> int:
    """The sign (-1, 0 or 1) of p(num/den), from ``scaled_value``."""
    v = scaled_value(p, num, den)
    return (v > 0) - (v < 0)


def variations(chain: Sequence[Sequence[int]], num: int, den: int) -> int:
    """Sign changes along the nonzero polynomials of chain at num/den,
    zeros skipped.  den = 0 stands for +inf (num > 0) or -inf (num < 0),
    where each sign is read off the leading coefficient: no Horner sum
    of leading powers."""
    count, last = 0, 0
    for p in chain:
        if den:
            s = sign_at(p, num, den)
        else:
            s = 1 if (p[-1] > 0) == (num > 0 or len(p) % 2 == 1) else -1
        if s:
            count += last == -s
            last = s
    return count


def real_root_count(chain: Sequence[Sequence[int]]) -> int:
    """Distinct real roots of chain[0], from its ``sturm_chain``: the
    chain's sign variations at -inf minus those at +inf."""
    return variations(chain, -1, 0) - variations(chain, 1, 0)


def div_exact(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Quotient of a by b; caller guarantees that b divides a and that
    b is primitive, so the quotient is integral (Gauss's lemma)."""
    return divide(a, b)[0]


def valuation(s: Sequence[int], p: Sequence[int]) -> int:
    """The largest e with s^e dividing p (s primitive and non-constant,
    p nonzero), by exact division.  ``divide`` leaves a zero remainder
    only when the quotient it built times s is p, so a wrong quotient
    digit on a non-divisor cannot pass for a division."""
    e = 0
    while len(p) >= len(s):
        q, r = divide(p, s)
        if r:
            break
        e, p = e + 1, q
    return e


def coprime_base(polys) -> list[list[int]]:
    """A pairwise coprime base of the non-constant polys: primitive,
    positive lead, non-constant, such that each primitive input p is
    ± the product of s^valuation(s, p) over the base.

    While some pending a shares g = gcd(a, b) with a kept b, both are
    replaced by g, a/g and b/g (constants dropped).  That lowers the
    total degree, so the loop ends; each element is kept only once it
    is coprime to every element kept before, and kept ones never change.
    This is the gcd refinement of Bernstein, "Factoring into coprimes
    in essentially linear time" (2005), run naively: O(B^2) gcds for B
    base elements.  Inputs equal after ``positive_primitive`` enter the
    loop once, as a repeat would only split off itself again.
    """
    distinct = dict.fromkeys(tuple(positive_primitive(p)) for p in polys if len(p) > 1)
    todo = [list(p) for p in distinct]
    base: list[list[int]] = []
    while todo:
        a = todo.pop()
        for i, b in enumerate(base):
            g = gcd(a, b)
            if len(g) > 1:
                del base[i]
                todo += [
                    q for q in (g, div_exact(a, g), div_exact(b, g)) if len(q) > 1
                ]
                break
        else:
            base.append(a)
    return base
