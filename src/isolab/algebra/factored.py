"""Exact fractions with factored denominators.

The big identity checks (Schlesinger residuals, PVI residuals) produce
fractions whose denominators are huge when expanded but are products of a
handful of known factors. FactoredFrac keeps the denominator as a
{primitive poly: exponent} bag, so sums only ever multiply numerators by small
deficit products, and the final zero test is a zero test on one numerator.
Values are exact.

A one-term factor is a monomial: the shifted Schlesinger frame's gaps
D_h = a_nu - a_h, and a Garnier gap a_i - 0. A sum multiplies each side's
numerator by its deficit powers: the non-monomial ones, then the product of
the monomial ones, which is one key shift in MultiPoly's product (see
multipoly). A derivative whose live factors are all monomials is one pass
over the numerator's terms (see partial).

Term order. MultiPoly.evaluate sums the terms in dict order, so a float
value can depend on it. A sum keeps the term order of the expanded product:
the theorem 11 b_i behind the Garnier P_M coefficients are such sums, and
their floats read that order. A derivative promises no term order.

This is the package's one implementation of rational-function arithmetic:
RatFunc's operators compute here, and to_ratfunc() gives the canonical
reduced form for output and equality.
"""

from __future__ import annotations

from fractions import Fraction

from .multipoly import MultiPoly, _FIELD, _MAX_EXP, _SLOTS, _checked, \
    _renormalized
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
        d1, d2 = self.den, other.den
        keys = set(d1) | set(d2)
        den = {f: max(d1.get(f, 0), d2.get(f, 0)) for f in keys}
        if d1 == d2:
            return FactoredFrac(self.num + other.num, den)
        return FactoredFrac(_lifted(self.num, d1, den)
                            + _lifted(other.num, d2, den), den)

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
        if isinstance(other, (int, Fraction, MultiPoly)):
            # a polynomial factor scales the numerator and keeps the den
            if self.is_zero() or not other:
                return FactoredFrac.zero()
            return FactoredFrac(self.num * other, self.den)
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

    def partial(self, *names) -> "FactoredFrac":
        """The sum of the partial derivatives in `names` (one name: the
        partial derivative), without expanding the denominator powers.

        If every live factor (one holding a name) is a monomial, write the
        fraction as n / (M R) with M the product of the live powers and
        A_x = deg_x M. Then d/dx gives (x dn/dx - A_x n) / (M R x), whose
        numerator has the keys of n and coefficients (alpha_x - A_x) c: one
        pass over n's terms. Over the common den M R prod_{A_y > 0} y of
        several names each name's part is shifted by the other y. Otherwise
        the quotient rule runs, name by name. The result promises no term
        order (see the module docstring)."""
        wanted = set(names)
        live = [(f, e) for f, e in self.den.items()
                if not wanted.isdisjoint(f.vars)]
        if all(len(f._terms) == 1 for f, _ in live):
            return self._monomial_partial(names, live)
        if len(names) > 1:
            out = FactoredFrac.zero()
            for name in names:
                out = out + self.partial(name)
            return out
        name, = names
        dn = self.num.partial(name)
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

    def _monomial_partial(self, names, live) -> "FactoredFrac":
        num = self.num
        den = dict(self.den)
        parts = []      # (field offset, A_x = deg_x M) per name
        lifted = 0      # the packed key of prod_{A_y > 0} y
        grown = 0       # the number of such y
        for name in names:
            off = _SLOTS.get(name)
            if off is None:     # a name no polynomial has used
                continue
            total = sum(e * ((next(iter(f._terms)) >> off) & _FIELD)
                        for f, e in live)
            if total:
                lifted += 1 << off
                y = MultiPoly.var(name)
                den[y] = den.get(y, 0) + 1
                grown += 1
            parts.append((off, total))
        out = {}
        get = out.get
        for off, total in parts:
            shift = lifted - (1 << off)
            for k, v in num._terms.items():
                c = ((k >> off) & _FIELD) - total
                if c:
                    w = get(k + shift, 0) + c * v
                    if w:
                        out[k + shift] = w
                    else:
                        del out[k + shift]
        if not out:
            return FactoredFrac(MultiPoly.zero(), den)
        deg = num._deg + max(grown - 1, 0)
        if deg > _MAX_EXP:
            deg = _checked(num.total_degree() + grown - 1)
        return FactoredFrac(_renormalized(out, num._content, deg), den)

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
        return self.cancel()._reduced_ratfunc()

    def _reduced_ratfunc(self) -> RatFunc:
        """The canonical form of a fraction known to be reduced: the
        expanded den made monic in graded lex, with no gcd. Graded lex is a
        monomial order, so the den's leading coefficient is the product of
        its factors' leading coefficients."""
        scale = Fraction(1)
        for f, e in self.den.items():
            scale /= f.leading()[1] ** e
        return RatFunc(self.num * scale, self.den_expanded() * scale,
                       _normalized=True)

    def evaluate(self, assignment: dict):
        val = self.num.evaluate(assignment)
        for f, e in self.den.items():
            val = val / f.evaluate(assignment) ** e
        return val

    def __repr__(self):
        dens = " * ".join(f"({f})^{e}" for f, e in self.den.items())
        return f"FactoredFrac(({self.num}) / {dens or '1'})"


def _lifted(num: MultiPoly, have: dict, den: dict) -> MultiPoly:
    """num times the deficit prod f^(den[f] - have[f]) of a denominator
    `have` below `den`: first the non-monomial powers, multiplied in den
    order, then the product of the monomial ones. That product is one
    monomial, and MultiPoly's product by a one-term operand adds its key to
    every key of num, in num's order, with the degree check of any product
    (see the module docstring for why the order matters)."""
    rest = mono = None
    for f, e in den.items():
        d = e - have.get(f, 0)
        if d:
            p = f if d == 1 else f ** d
            if len(f._terms) == 1:     # primitive, so the monomial itself
                mono = p if mono is None else mono * p
            else:
                rest = p if rest is None else rest * p
    if rest is not None:
        num = num * rest
    return num if mono is None else num * mono
