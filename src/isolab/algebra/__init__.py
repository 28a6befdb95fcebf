"""Exact arithmetic kernel: rationals, sparse polynomials, rational functions."""

from fractions import Fraction

from .scalars import Rational, binom, binomials, pochhammer, to_rational
from .multipoly import MultiPoly, parse_poly, poly_gcd, prove_zero
from .ratfunc import RatFunc, parse_fraction, parse_ratfunc
from .factored import FactoredFrac

__all__ = [
    "Fraction", "Rational", "binom", "binomials", "pochhammer",
    "to_rational",
    "MultiPoly", "parse_poly", "poly_gcd", "prove_zero", "RatFunc", "parse_fraction",
    "parse_ratfunc",
    "FactoredFrac",
]
