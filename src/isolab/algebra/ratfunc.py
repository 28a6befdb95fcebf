"""Reduced rational functions: the canonical form of exact fractions.

Normalization contract: gcd(num, den) = 1, the denominator's leading
coefficient (graded lex) is 1, and zero is 0/1. Equality is therefore plain
structural comparison, which the identity checks in the rest of the package
rely on, and the text form is unique.

RatFunc holds no arithmetic of its own: each operator converts its operands
to FactoredFrac, computes there, and returns the result in this canonical
form. A chain of operations is cheaper done in FactoredFrac throughout, with
one to_ratfunc() at the end.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .multipoly import MultiPoly, parse_poly, poly_gcd


def _factored(x):
    from .factored import FactoredFrac  # factored imports this module
    return FactoredFrac._coerce(x)


def _lifted(op):
    """The RatFunc operator that computes op(self, other) in FactoredFrac and
    returns the canonical form; NotImplemented for an operand that is not an
    int, Fraction, MultiPoly or RatFunc."""
    def method(self, other):
        if not isinstance(other, (RatFunc, MultiPoly, int, Fraction)):
            return NotImplemented
        return op(_factored(self), _factored(other)).to_ratfunc()
    return method


class RatFunc:
    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly = None, _normalized=False):
        if den is None:
            den = MultiPoly.const(1)
        if _normalized:
            self.num = num
            self.den = den
            return
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num = MultiPoly.zero()
            self.den = MultiPoly.const(1)
            return
        g = poly_gcd(num, den)
        if not (g.is_constant()):
            num = num.divexact(g)
            den = den.divexact(g)
        # make the denominator monic in graded lex
        _, lc = den.leading()
        if lc != 1:
            num = num * (1 / lc)
            den = den * (1 / lc)
        self.num = num
        self.den = den

    # ---------------- constructors ----------------

    @classmethod
    def zero(cls):
        return cls(MultiPoly.zero(), MultiPoly.const(1), _normalized=True)

    @classmethod
    def one(cls):
        return cls(MultiPoly.const(1), MultiPoly.const(1), _normalized=True)

    @classmethod
    def const(cls, q):
        return cls(MultiPoly.const(q), MultiPoly.const(1), _normalized=True)

    @classmethod
    def var(cls, name: str):
        return cls(MultiPoly.var(name), MultiPoly.const(1), _normalized=True)

    @classmethod
    def from_poly(cls, p: MultiPoly):
        return cls(p, MultiPoly.const(1), _normalized=True)

    @staticmethod
    def _coerce(x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, MultiPoly):
            return RatFunc.from_poly(x)
        if isinstance(x, (int, Fraction)):
            return RatFunc.const(x)
        return None

    # ---------------- predicates ----------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den.is_constant()

    def __eq__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # ---------------- arithmetic ----------------

    def __neg__(self):
        return RatFunc(-self.num, self.den, _normalized=True)

    __add__ = __radd__ = _lifted(operator.add)
    __sub__ = _lifted(operator.sub)
    __rsub__ = _lifted(lambda a, b: b - a)
    __mul__ = __rmul__ = _lifted(operator.mul)
    __truediv__ = _lifted(operator.truediv)
    __rtruediv__ = _lifted(lambda a, b: b / a)

    def __pow__(self, n: int):
        return (_factored(self) ** n).to_ratfunc()

    def partial(self, name: str) -> "RatFunc":
        """Formal partial derivative, reduced."""
        return _factored(self).partial(name).to_ratfunc()

    # ---------------- substitution / evaluation ----------------

    def substitute(self, name: str, value) -> "RatFunc":
        den = self.den.substitute(name, value)
        if den.is_zero():
            raise ZeroDivisionError(
                f"substitution {name} -> {value} kills the denominator")
        return RatFunc._coerce(self.num.substitute(name, value)) / den

    def evaluate(self, assignment: dict):
        den = self.den.evaluate(assignment)
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at the given point")
        return self.num.evaluate(assignment) / den

    @property
    def variables(self):
        return tuple(sorted(set(self.num.vars) | set(self.den.vars)))

    # ---------------- text form ----------------

    def to_text(self) -> str:
        if self.den == MultiPoly.const(1):
            return self.num.to_text()
        return f"({self.num.to_text()})/({self.den.to_text()})"

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"RatFunc({self.to_text()!r})"


def parse_fraction(text: str):
    """Numerator and denominator of the canonical '(num)/(den)' or bare
    polynomial form, exactly as written: no gcd, no normalization."""
    s = text.strip()
    if s.startswith("(") and ")/(" in s and s.endswith(")"):
        cut = s.index(")/(")
        return parse_poly(s[1:cut]), parse_poly(s[cut + 3:-1])
    return parse_poly(s), MultiPoly.const(1)


def parse_ratfunc(text: str) -> RatFunc:
    """Parse the canonical '(num)/(den)' or bare polynomial form."""
    num, den = parse_fraction(text)
    if den == MultiPoly.const(1):
        return RatFunc.from_poly(num)
    return RatFunc(num, den)
