"""Reduced rational functions: fractions of MultiPoly.

Normalization contract: gcd(num, den) = 1, the denominator's leading
coefficient (graded lex) is 1, and zero is 0/1. Equality is therefore plain
structural comparison, which the identity checks in the rest of the package
rely on.
"""

from __future__ import annotations

from fractions import Fraction

from .multipoly import MultiPoly, parse_poly, poly_gcd


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

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Fraction:
        return self.num.constant_value() / self.den.constant_value()

    def __eq__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # ---------------- arithmetic ----------------

    def __add__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den, _normalized=True)

    def __sub__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return RatFunc.zero()
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = RatFunc._coerce(other)
        return other / self

    def __pow__(self, n: int):
        if n == 0:
            return RatFunc.one()
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError
            return RatFunc(self.den ** (-n), self.num ** (-n))
        return RatFunc(self.num ** n, self.den ** n)

    def partial(self, name: str) -> "RatFunc":
        """Formal partial derivative (quotient rule, reduced)."""
        dn = self.num.partial(name)
        dd = self.den.partial(name)
        if dd.is_zero():
            return RatFunc(dn, self.den)
        return RatFunc(dn * self.den - self.num * dd, self.den * self.den)

    # ---------------- substitution / evaluation ----------------

    def substitute(self, name: str, value) -> "RatFunc":
        num = self.num.substitute(name, value)
        den = self.den.substitute(name, value)
        num = RatFunc._coerce(num)
        den = RatFunc._coerce(den)
        if den.is_zero():
            raise ZeroDivisionError(
                f"substitution {name} -> {value} kills the denominator")
        return num / den

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
