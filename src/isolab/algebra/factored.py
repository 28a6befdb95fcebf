"""Exact fractions with factored denominators.

The big identity checks (Schlesinger residuals, PVI residuals) produce
fractions whose denominators are huge when expanded but are products of a
handful of known factors. FactoredFrac keeps the denominator as a
{primitive poly: exponent} bag, so sums only ever multiply numerators by small
deficit products, and the final zero test is a zero test on one numerator.
Values are exact. This is the package's one implementation of
rational-function arithmetic: RatFunc's operators compute here, and
to_ratfunc() gives the canonical reduced form for output and equality.
"""

from __future__ import annotations

from fractions import Fraction

from .multipoly import MultiPoly
from .ratfunc import RatFunc


def _as_factor(p: MultiPoly):
    """Split p into (primitive positive-leading factor, rational content)."""
    prim, c = p.split_content()
    if c == 0:
        raise ZeroDivisionError("zero factor in a denominator")
    return prim, c


class FactoredFrac:
    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: dict = None):
        self.num = num
        self.den = den or {}

    # ---------------- constructors ----------------

    @classmethod
    def from_poly(cls, p: MultiPoly):
        return cls(p, {})

    @classmethod
    def const(cls, q):
        return cls(MultiPoly.const(q), {})

    @classmethod
    def var(cls, name):
        return cls(MultiPoly.var(name), {})

    @classmethod
    def zero(cls):
        return cls(MultiPoly.zero(), {})

    @classmethod
    def from_ratfunc(cls, r: RatFunc):
        if r.den.is_constant():  # a canonical constant denominator is 1
            return cls(r.num, {})
        prim, c = _as_factor(r.den)
        return cls(r.num * (1 / c), {prim: 1})

    @classmethod
    def quotient(cls, num: MultiPoly, den: MultiPoly, power: int = 1):
        prim, c = _as_factor(den)
        d = {} if prim.is_constant() else {prim: power}
        return cls(num * (Fraction(1) / c ** power), d)

    @staticmethod
    def _coerce(x):
        if isinstance(x, FactoredFrac):
            return x
        if isinstance(x, MultiPoly):
            return FactoredFrac.from_poly(x)
        if isinstance(x, (int, Fraction)):
            return FactoredFrac.const(x)
        if isinstance(x, RatFunc):
            return FactoredFrac.from_ratfunc(x)
        return None

    # ---------------- predicates ----------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        other = FactoredFrac._coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).is_zero()

    # ---------------- arithmetic ----------------

    def __neg__(self):
        return FactoredFrac(-self.num, self.den)

    def __add__(self, other):
        other = FactoredFrac._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        keys = set(self.den) | set(other.den)
        den = {f: max(self.den.get(f, 0), other.den.get(f, 0)) for f in keys}
        n1 = self.num * _expanded_deficit(den, self.den)
        n2 = other.num * _expanded_deficit(den, other.den)
        return FactoredFrac(n1 + n2, den)

    __radd__ = __add__

    def __sub__(self, other):
        other = FactoredFrac._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = FactoredFrac._coerce(other)
        if other is None:
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        other = FactoredFrac._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return FactoredFrac.zero()
        den = dict(self.den)
        for f, e in other.den.items():
            den[f] = den.get(f, 0) + e
        return FactoredFrac(self.num * other.num, den)

    __rmul__ = __mul__

    def reciprocal(self) -> "FactoredFrac":
        return 1 / self

    def __truediv__(self, other):
        """self / other; each factor shared by the two denominators leaves
        both sides at its smaller exponent instead of being multiplied in."""
        other = FactoredFrac._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero fraction")
        if self.is_zero():
            return FactoredFrac.zero()
        prim, c = _as_factor(other.num)
        num = self.num * (1 / c)
        den = dict(self.den)
        for f, e in other.den.items():
            have = den.pop(f, 0)
            if have > e:
                den[f] = have - e
            elif e > have:
                num = num * f ** (e - have)
        if not prim.is_constant():
            den[prim] = den.get(prim, 0) + 1
        return FactoredFrac(num, den)

    def __rtruediv__(self, other):
        other = FactoredFrac._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if n < 0:
            return self.reciprocal() ** (-n)
        if n == 0:
            return FactoredFrac.const(1)
        if self.is_zero():
            return FactoredFrac.zero()
        return FactoredFrac(self.num ** n,
                            {f: e * n for f, e in self.den.items()})

    def partial(self, name: str) -> "FactoredFrac":
        """Quotient rule without expanding the denominator powers."""
        live = [(f, e) for f, e in self.den.items() if name in f.vars]
        dn = self.num.partial(name)
        if not live:
            return FactoredFrac(dn, dict(self.den))
        # d(n / prod f^e) = [n' prod f  -  n sum e_k f_k' prod_{j != k} f_j] / prod f^(e+1)
        prod_all = MultiPoly.const(1)
        for f, _ in live:
            prod_all = prod_all * f
        acc = dn * prod_all
        for k, (f, e) in enumerate(live):
            part = self.num * (e * f.partial(name))
            for j, (g, _) in enumerate(live):
                if j != k:
                    part = part * g
            acc = acc - part
        den = dict(self.den)
        for f, e in live:
            den[f] = e + 1
        return FactoredFrac(acc, den)

    # ---------------- simplification / export ----------------

    def cancel(self) -> "FactoredFrac":
        """Cheap cleanup: divide numerator by denominator factors when exact."""
        if self.is_zero():
            return FactoredFrac.zero()
        num = self.num
        den = {}
        for f, e in self.den.items():
            while e > 0:
                q = num.divexact(f)
                if q is None:
                    break
                num = q
                e -= 1
            if e:
                den[f] = e
        return FactoredFrac(num, den)

    def den_expanded(self) -> MultiPoly:
        out = MultiPoly.const(1)
        for f, e in self.den.items():
            out = out * f ** e
        return out

    def to_ratfunc(self) -> RatFunc:
        """The canonical reduced form. Linear factors are irreducible, so
        once cancel() has divided out every one that divides the numerator,
        the fraction is reduced and needs no gcd."""
        if not self.den:
            return RatFunc.from_poly(self.num)
        if self.is_zero():
            return RatFunc.zero()
        if any(f.total_degree() != 1 for f in self.den):
            return RatFunc(self.num, self.den_expanded())
        reduced = self.cancel()
        den = reduced.den_expanded()
        scale = 1 / den.leading()[1]
        return RatFunc(reduced.num * scale, den * scale, _normalized=True)

    def evaluate(self, assignment: dict):
        val = self.num.evaluate(assignment)
        for f, e in self.den.items():
            val = val / f.evaluate(assignment) ** e
        return val

    def __repr__(self):
        dens = " * ".join(f"({f})^{e}" for f, e in self.den.items())
        return f"FactoredFrac(({self.num}) / {dens or '1'})"


def _expanded_deficit(target: dict, have: dict) -> MultiPoly:
    out = MultiPoly.const(1)
    for f, e in target.items():
        d = e - have.get(f, 0)
        if d:
            out = out * f ** d
    return out
