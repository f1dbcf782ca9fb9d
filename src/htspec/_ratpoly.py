"""Exact polynomial arithmetic over the integers (little-endian lists).

The one polynomial stack of the package: the ``AlphaPolynomial`` ops in
``matching``, the squarefree decomposition and the Sturm-chain real-root
counter all run on these plain ``list[int]`` helpers.  Remainders are
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
    a = primitive(list(a))
    return [-c for c in a] if a and a[-1] < 0 else a


def div_exact(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Quotient of a by b; caller guarantees that b divides a and that
    b is primitive, so the quotient is integral (Gauss's lemma)."""
    return divide(a, b)[0]
