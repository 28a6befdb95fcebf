"""Exact scalar helpers: generalized binomials, one at a time or as a row.

All exact arithmetic in this package runs on ``fractions.Fraction``; complex
floats are a separate numeric layer and conversions are always explicit.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


def to_rational(x) -> Fraction:
    """Coerce ints/Fractions (and exact strings like '2/3') to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def binom(beta, j: int) -> Fraction:
    """Generalized binomial coefficient beta*(beta-1)*...*(beta-j+1)/j!.

    Defined for any rational beta and nonnegative integer j; equals 1 at j=0.
    With beta = p/q it is the integer prod_k (p - k q) over q^j j!, reduced
    once.
    """
    if j < 0:
        raise ValueError("binom needs j >= 0")
    beta = to_rational(beta)
    p, q = beta.numerator, beta.denominator
    num = 1
    for k in range(j):
        num *= p - k * q
    return Fraction(num, q ** j * factorial(j))


def binomials(beta, jmax: int) -> list:
    """[binom(beta, 0), ..., binom(beta, jmax)], empty for jmax < 0, by the
    ratio recurrence binom(beta, k + 1) = binom(beta, k) * (beta - k) / (k + 1)."""
    if jmax < 0:
        return []
    beta = to_rational(beta)
    b = Fraction(1)
    row = [b]
    for k in range(jmax):
        b = b * (beta - k) / (k + 1)
        row.append(b)
    return row
