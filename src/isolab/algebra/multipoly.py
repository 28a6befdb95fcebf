"""Sparse multivariate polynomials over exact rationals.

A MultiPoly is immutable. It is stored as a primitive integer-coefficient
term dict together with a rational content, so that hot loops (products, big
cancelling sums) run on ints and Fractions only appear at the boundary.

Packed monomials (Monagan & Pearce, ISSAC 2009). Every variable name gets a
fixed bit field of `_W` bits in one process-wide slot table, the first time
any polynomial uses it, and a monomial is the int sum of exponent << offset.
All polynomials share the table, so operands never need aligning: the
monomial of a product is `e1 + e2`, a power of a one-term polynomial is
`n * e`, and dividing monomials is a subtraction.

Overflow rule. A field must never carry into the next one. Each polynomial
keeps an upper bound on its total degree (exact for products of exact
bounds, the maximum for sums), which bounds every exponent in it. Every
product and power checks the bound of its result, and raises
ExponentOverflowError before any exponent could pass `_MAX_EXP`; the top
bit of each field therefore stays clear, which divexact uses as a borrow
guard. A tuple-keyed construction checks the same limit.

The table is append-only and nothing the public view shows depends on the
order of its slots. Packed keys mean something only within one process, so
a pickled MultiPoly carries its tuple-keyed form.

Canonical form: the primitive part has a positive coefficient at its
largest packed key (lex order with later slots more significant, a monomial
order, so products of canonical parts are canonical by Gauss's lemma), and
the content carries the sign. The public view does not depend on the slot
order: `vars` is the sorted tuple of used names; `terms()`, `leading()`,
`coefficient()` and `to_text()` use graded lex over the alphabetically
sorted names; `content()` and `primitive()` make the graded-lex leading
coefficient of the primitive part positive.
"""

from __future__ import annotations

import re
import sys
import threading
from fractions import Fraction
from math import frexp, ldexp, gcd as _igcd, lcm as _ilcm


class ExponentOverflowError(OverflowError, ValueError):
    """An exponent would not fit its packed field."""


_W = 16                         # bits per exponent field
_FIELD = (1 << _W) - 1
_MAX_EXP = (1 << (_W - 1)) - 1  # the top bit of every field stays clear
_SLOTS = {}                     # name -> bit offset of its field
_NAMES = []                     # field index -> name
_GUARD = 0                      # the top bit of every allocated field
_ALLOCATING = threading.Lock()
_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)
_TINY = sys.float_info.min      # below this a float has lost precision


def _offset(name: str) -> int:
    """Bit offset of name's field, allocated on first use."""
    global _GUARD
    off = _SLOTS.get(name)
    if off is None:
        with _ALLOCATING:
            off = _SLOTS.get(name)
            if off is None:
                off = _W * len(_NAMES)
                _NAMES.append(name)
                _GUARD |= 1 << (off + _W - 1)
                _SLOTS[name] = off
    return off


def _degree_of(e: int) -> int:
    """Total degree of a packed monomial."""
    d = 0
    while e:
        d += e & _FIELD
        e >>= _W
    return d


def _names_of(terms) -> tuple:
    mask = 0
    for e in terms:
        mask |= e
    names = []
    k = 0
    while mask:
        if mask & _FIELD:
            names.append(_NAMES[k])
        mask >>= _W
        k += 1
    return tuple(sorted(names))


def _grlex(names):
    """Sort key of packed monomials: graded lex over the given sorted names."""
    offs = [_SLOTS[n] for n in names]

    def key(e):
        exps = tuple((e >> o) & _FIELD for o in offs)
        return sum(exps), exps
    return key


def _checked(deg: int) -> int:
    if deg > _MAX_EXP:
        raise ExponentOverflowError(
            f"total degree {deg} exceeds the packed exponent limit {_MAX_EXP}")
    return deg


def _content_of(ints):
    g = 0
    for v in ints:
        g = _igcd(g, v)
        if g == 1:
            return 1
    return g


def _new(terms: dict, content: Fraction, deg: int) -> "MultiPoly":
    """Trusted constructor: primitive ints with a positive coefficient at
    the largest key, the sign in content, deg >= the total degree."""
    p = object.__new__(MultiPoly)
    p._terms = terms
    p._content = content
    p._deg = deg
    p._hash = None
    p._vars = None
    p._plan = None
    return p


def _renormalized(int_terms: dict, content: Fraction, deg: int):
    """The canonical (primitive ints, signed content) split after an
    operation that may leave shared integer factors or a negative lead."""
    g = _content_of(int_terms.values())
    if int_terms[max(int_terms)] < 0:
        g = -g
    if g == 1:
        return _new(int_terms, content, deg)
    return _new({e: v // g for e, v in int_terms.items()}, content * g, deg)


def _scaled(c: Fraction, x, e: int = 0):
    """c * x * 2**e for a float or complex x. A content c outside the float
    range is applied as m * 2**k, |m| in (1/2, 2), so that a representable
    product neither overflows nor flushes to zero on the way."""
    n, d = c.numerator, c.denominator
    k = n.bit_length() - d.bit_length()
    if not e and -1000 < k < 1000:
        return float(c) * x
    m = n / (d << k) if k > 0 else (n << -k) / d
    if isinstance(x, complex):
        return complex(_ldexp_mul(m, x.real, k + e),
                       _ldexp_mul(m, x.imag, k + e))
    return _ldexp_mul(m, x, k + e)


def _ldexp_mul(m: float, x: float, e: int) -> float:
    xm, xe = frexp(x)
    return ldexp(m * xm, xe + e)


def _split(x):
    """x = m * 2**k with the larger part of m of magnitude in [1/2, 1)."""
    if isinstance(x, complex):
        k = frexp(max(abs(x.real), abs(x.imag)))[1]
        return complex(ldexp(x.real, -k), ldexp(x.imag, -k)), k
    return frexp(x)


def _power_split(x, p: int):
    """x**p as (m, k) with x**p = m * 2**k, by squaring on normalised
    mantissas, so that neither underflow nor overflow can occur."""
    m, k = 1.0, 0
    xm, xk = _split(x)
    while p:
        if p & 1:
            m, j = _split(m * xm)
            k += xk + j
        p >>= 1
        if p:
            xm, j = _split(xm * xm)
            xk = 2 * xk + j
    return m, k


class _Underflow(Exception):
    """A float monomial of nonzero inputs came out 0.0 or subnormal."""


class MultiPoly:
    __slots__ = ("_terms", "_content", "_deg", "_hash", "_vars", "_plan")

    def __init__(self, variables, terms):
        """Build from {exponent tuple over variables: coefficient}."""
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"repeated variable name in {variables}")
        offs = [_offset(v) for v in variables]
        clean = {}
        for exps, c in terms.items():
            c = c if isinstance(c, Fraction) else Fraction(c)
            if c:
                if len(exps) != len(offs):
                    raise ValueError(f"exponent tuple {exps} does not match "
                                     f"the variables {variables}")
                e = 0
                for o, p in zip(offs, exps):
                    if p:
                        if p < 0:
                            raise ValueError(f"negative exponent in {exps}")
                        if p > _MAX_EXP:
                            raise ExponentOverflowError(
                                f"exponent {p} exceeds the packed exponent "
                                f"limit {_MAX_EXP}")
                        e += p << o
                clean[e] = clean.get(e, 0) + c
        clean = {e: c for e, c in clean.items() if c}
        self._hash = None
        self._vars = None
        self._plan = None
        if not clean:
            self._terms = {}
            self._content = _ONE
            self._deg = 0
            return
        self._deg = _checked(max(map(_degree_of, clean)))
        den = 1
        for c in clean.values():
            den = _ilcm(den, c.denominator)
        ints = {e: int(c * den) for e, c in clean.items()}
        g = _content_of(ints.values())
        if ints[max(ints)] < 0:
            g = -g
        self._terms = {e: v // g for e, v in ints.items()}
        self._content = Fraction(g, den)

    # ---------------- constructors ----------------

    @classmethod
    def zero(cls):
        return _ZERO

    @classmethod
    def const(cls, q):
        if q == 1:
            return _UNIT
        q = q if isinstance(q, Fraction) else Fraction(q)
        if not q:
            return _ZERO
        return _new({0: 1}, q, 0)

    @classmethod
    def var(cls, name: str):
        p = _VARS.get(name)
        if p is None:
            p = _VARS[name] = _new({1 << _offset(name): 1}, _ONE, 1)
        return p

    @classmethod
    def monomial(cls, coeff, var_powers: dict):
        """coeff * prod(var^e) from a {name: exponent} mapping."""
        names = tuple(var_powers)
        return cls(names, {tuple(var_powers[v] for v in names): coeff})

    # ---------------- basics ----------------

    @property
    def vars(self) -> tuple:
        """The sorted names of the variables that occur."""
        if self._vars is None:
            self._vars = _names_of(self._terms)
        return self._vars

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def is_constant(self) -> bool:
        t = self._terms
        return not t or (len(t) == 1 and 0 in t)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self._content * self._terms[0]

    def total_degree(self) -> int:
        return max(map(_degree_of, self._terms), default=0)

    def degree_in(self, name: str) -> int:
        off = _SLOTS.get(name)
        if off is None:
            return 0
        return max(((e >> off) & _FIELD for e in self._terms), default=0)

    def terms(self):
        """Iterate (exponent tuple, Fraction coefficient), graded-lex descending."""
        key = _grlex(self.vars)
        for (_, exps), v in sorted(((key(e), v) for e, v in self._terms.items()),
                                   reverse=True):
            yield exps, self._content * v

    def _leading_key(self) -> int:
        """The packed graded-lex leading monomial."""
        t = self._terms
        if len(t) == 1:
            return next(iter(t))
        return max(t, key=_grlex(self.vars))

    def leading(self):
        """Leading (exponents, coefficient) in graded lex."""
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        e = self._leading_key()
        return _grlex(self.vars)(e)[1], self._content * self._terms[e]

    def coefficient(self, exps) -> Fraction:
        names = self.vars
        if len(exps) != len(names) or not all(0 <= p <= _MAX_EXP for p in exps):
            return Fraction(0)
        e = sum(p << _SLOTS[n] for n, p in zip(names, exps) if p)
        return self._content * self._terms.get(e, 0)

    def _sign(self) -> int:
        """Sign of the graded-lex leading coefficient of the primitive part."""
        return 1 if self._terms[self._leading_key()] > 0 else -1

    def content(self) -> Fraction:
        """Rational content (signed); zero polynomial reports 0."""
        if not self._terms:
            return Fraction(0)
        return self._content if self._sign() > 0 else -self._content

    def primitive(self) -> "MultiPoly":
        """Integer-primitive part with positive leading coefficient."""
        if self.is_zero():
            return self
        return _new(self._terms, _ONE if self._sign() > 0 else _MINUS_ONE,
                    self._deg)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._terms == other._terms and (
            self._content is other._content or self._content == other._content)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._content,
                               frozenset(self._terms.items())))
        return self._hash

    # ---------------- arithmetic ----------------

    def __neg__(self):
        if self.is_zero():
            return self
        return _new(self._terms, -self._content, self._deg)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        elif not isinstance(other, MultiPoly):
            return NotImplemented
        t1, t2 = self._terms, other._terms
        if not t1:
            return other
        if not t2:
            return self
        c1, c2 = self._content, other._content
        # scale both contents by g = gcd(numerators)/lcm(denominators), so
        # that c1/g and c2/g are the integers m1, m2
        n1, d1 = c1.numerator, c1.denominator
        n2, d2 = c2.numerator, c2.denominator
        gn = _igcd(n1, n2)
        gl = d1 if d1 == d2 else d1 * d2 // _igcd(d1, d2)
        m1 = n1 // gn * (gl // d1)
        m2 = n2 // gn * (gl // d2)
        out = dict(t1) if m1 == 1 else {e: m1 * v for e, v in t1.items()}
        get = out.get
        for e, v in t2.items():
            w = get(e, 0) + m2 * v
            if w:
                out[e] = w
            else:
                del out[e]
        if not out:
            return _ZERO
        gg = _content_of(out.values())
        if out[max(out)] < 0:
            gg = -gg
        if gg != 1:
            out = {e: v // gg for e, v in out.items()}
        gn *= gg
        content = _ONE if gn == 1 and gl == 1 else Fraction(gn, gl)
        return _new(out, content, max(self._deg, other._deg))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other or not self._terms:
                return _ZERO
            if other == 1:
                return self
            return _new(self._terms, self._content * other, self._deg)
        t1, t2 = self._terms, other._terms
        if not t1 or not t2:
            return _ZERO
        deg = self._deg + other._deg
        if deg > _MAX_EXP:  # the bounds may be loose: check the exact degrees
            deg = _checked(self.total_degree() + other.total_degree())
        c1, c2 = self._content, other._content
        c = c2 if c1 is _ONE else c1 if c2 is _ONE else c1 * c2
        if len(t1) > len(t2):
            t1, t2 = t2, t1
        if len(t1) == 1:
            # a one-term primitive part is the monomial itself (coefficient 1)
            e1 = next(iter(t1))
            out = t2 if not e1 else {e1 + e: v for e, v in t2.items()}
            return _new(out, c, deg)
        out = {}
        get = out.get
        for e1, v1 in t1.items():
            for e2, v2 in t2.items():
                e = e1 + e2
                w = get(e, 0) + v1 * v2
                if w:
                    out[e] = w
                else:
                    del out[e]
        # product of primitive parts is primitive (Gauss), skip re-extraction
        return _new(out, c, deg)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return _UNIT
        t = self._terms
        if len(t) == 1:
            e = next(iter(t))
            deg = _checked(n * _degree_of(e))
            c = self._content
            return _new({n * e: 1}, c if c is _ONE else c ** n, deg)
        out = MultiPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def partial(self, name: str) -> "MultiPoly":
        """Formal partial derivative."""
        off = _SLOTS.get(name)
        if off is None:
            return _ZERO
        unit = 1 << off
        out = {}
        for e, v in self._terms.items():
            p = (e >> off) & _FIELD
            if p:
                out[e - unit] = v * p
        if not out:
            return _ZERO
        return _renormalized(out, self._content, self._deg - 1)

    # ---------------- substitution / evaluation ----------------

    def as_univariate(self, name: str) -> dict:
        """View as {power of name: MultiPoly in the remaining variables}."""
        if name not in self.vars:
            return {0: self} if self._terms else {}
        off = _SLOTS[name]
        buckets = {}
        for e, v in self._terms.items():
            p = (e >> off) & _FIELD
            buckets.setdefault(p, {})[e - (p << off)] = v
        return {k: _renormalized(t, self._content, self._deg - k)
                for k, t in buckets.items()}

    def substitute(self, name: str, value):
        """Replace a variable. Polynomial/rational values give a MultiPoly;
        a RatFunc value gives a reduced RatFunc."""
        from .ratfunc import RatFunc
        if name not in self.vars:
            return self
        parts = self.as_univariate(name)
        dmax = max(parts)
        if isinstance(value, RatFunc):
            out = RatFunc.zero()
            vp = RatFunc.one()
            for k in range(dmax + 1):
                if k in parts:
                    out = out + RatFunc.from_poly(parts[k]) * vp
                if k < dmax:
                    vp = vp * value
            return out
        if isinstance(value, (int, Fraction)):
            value = MultiPoly.const(value)
        out = MultiPoly.zero()
        vp = MultiPoly.const(1)
        for k in range(dmax + 1):
            if k in parts:
                out = out + parts[k] * vp
            if k < dmax:
                vp = vp * value
        return out

    def _evaluation_plan(self):
        """Per term: (primitive coefficient, ((index into vars, power), ...)),
        built once; evaluation at many points reuses it."""
        if self._plan is None:
            offs = [_SLOTS[n] for n in self.vars]
            self._plan = [(v, tuple((i, (e >> o) & _FIELD)
                                    for i, o in enumerate(offs)
                                    if (e >> o) & _FIELD))
                          for e, v in self._terms.items()]
        return self._plan

    def evaluate(self, assignment: dict):
        """Numeric/exact evaluation with every variable assigned."""
        if not self._terms:
            return Fraction(0)
        xs = [assignment[n] for n in self.vars]
        floats = False
        for x in xs:
            if isinstance(x, (float, complex)):
                floats = True
                break
        plan = self._evaluation_plan()
        try:
            out = None
            for v, powers in plan:
                t = v
                for i, p in powers:
                    t = t * xs[i] ** p
                if floats and abs(t) < _TINY and all(xs[i] for i, _ in powers):
                    raise _Underflow  # a monomial of nonzero inputs was lost
                out = t if out is None else out + t
        except (OverflowError, _Underflow):
            # a coefficient, monomial or partial sum beyond the float range
            return self._evaluate_scaled(xs, plan)
        c = self._content
        if isinstance(out, (float, complex)):
            return _scaled(c, out)
        return c * out

    def _evaluate_scaled(self, xs, plan):
        """Float evaluation that keeps each float monomial as m * 2**k and
        applies the term's exact coefficient to it, so that no coefficient
        is converted whole and no monomial underflows or overflows."""
        out = 0.0
        for v, powers in plan:
            cv = self._content * v
            m, k = 1.0, 0
            for i, p in powers:
                x = xs[i]
                if isinstance(x, (float, complex)):
                    xm, xk = _power_split(x, p)
                    m, j = _split(m * xm)
                    k += xk + j
                else:
                    cv = cv * x ** p
            out += _scaled(cv, m, k)
        return out

    # ---------------- exact division and gcd ----------------

    def divexact(self, other: "MultiPoly"):
        """Return self/other if the division is exact, else None.

        Runs on the primitive integer parts: if the division is exact over Q,
        the quotient of two primitive parts is itself an integer polynomial
        (Gauss), so a leading-term step that leaves a remainder proves the
        division inexact. The leading terms are the largest packed keys (a
        monomial order); a monomial divides another when subtracting it
        borrows from no field, which the guard bits show. An exact division
        only meets monomials of q * other, whose exponents are those of
        self at most, so a remainder monomial with a guard bit set proves
        the division inexact, before any field could carry."""
        t2 = other._terms
        if not t2:
            raise ZeroDivisionError("polynomial division by zero")
        if not self._terms:
            return self
        rem = dict(self._terms)
        lt2 = max(t2)
        lc2 = t2[lt2]
        guard = _GUARD
        quot = {}
        while rem:
            lt1 = max(rem)
            if ((lt1 | guard) - lt2) & guard != guard:
                return None
            qc, r = divmod(rem[lt1], lc2)
            if r:
                return None
            qe = lt1 - lt2
            quot[qe] = qc
            get = rem.get
            for e2, v2 in t2.items():
                e = qe + e2
                if e & guard:
                    return None
                w = get(e, 0) - qc * v2
                if w:
                    rem[e] = w
                else:
                    del rem[e]
        # primitive over primitive: the quotient is primitive, its largest
        # key has a positive coefficient; its terms go in graded-lex
        # descending order, the order evaluate sums them in
        if len(quot) > 1:
            quot = {e: quot[e] for e in sorted(quot, key=_grlex(_names_of(quot)),
                                                reverse=True)}
        return _new(quot, self._content / other._content,
                    max(0, self._deg - _degree_of(lt2)))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                raise ZeroDivisionError
            return self * (1 / q)
        return NotImplemented

    # ---------------- text form ----------------

    def to_text(self) -> str:
        """Canonical text: graded-lex descending, exact integer/fraction coefficients."""
        if self.is_zero():
            return "0"
        pieces = []
        for e, c in self.terms():
            mono = "*".join(
                v if p == 1 else f"{v}^{p}"
                for v, p in zip(self.vars, e) if p)
            mag = abs(c)
            if mono:
                body = mono if mag == 1 else f"{mag}*{mono}"
            else:
                body = str(mag)
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(("+ " if c > 0 else "- ") + body)
        return " ".join(pieces)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"MultiPoly({self.to_text()!r})"

    def __reduce__(self):
        return MultiPoly, (self.vars, dict(self.terms()))


_ZERO = _new({}, _ONE, 0)
_UNIT = _new({0: 1}, _ONE, 0)
_VARS = {}


_TOKEN = re.compile(r"\s*(?:(\d+/\d+|\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\^|\*|\+|\-|\(|\)|/))")


def parse_poly(text: str) -> MultiPoly:
    """Parse the canonical text form (also accepts '+ -c' style)."""
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"bad polynomial text at {text[pos:]!r}")
        if m.group(1):
            tokens.append(("num", m.group(1)))
        elif m.group(2):
            tokens.append(("var", m.group(2)))
        else:
            tokens.append(("op", m.group(3)))
        pos = m.end()
    monomials = []
    i = 0
    sign = 1

    def take_term(i):
        coeff = Fraction(1)
        powers = {}
        expect_factor = True
        while i < len(tokens):
            kind, val = tokens[i]
            if kind == "op" and val in "+-" and not expect_factor:
                break
            if kind == "num":
                coeff *= Fraction(val)
                i += 1
            elif kind == "var":
                name = val
                p = 1
                i += 1
                if i < len(tokens) and tokens[i] == ("op", "^"):
                    i += 1
                    if i >= len(tokens) or tokens[i][0] != "num":
                        raise ValueError("exponent expected")
                    p = int(tokens[i][1])
                    i += 1
                powers[name] = powers.get(name, 0) + p
            elif kind == "op" and val == "*":
                i += 1
                expect_factor = True
                continue
            elif kind == "op" and val == "-" and expect_factor:
                coeff = -coeff
                i += 1
                continue
            elif kind == "op" and val == "+" and expect_factor:
                i += 1
                continue
            else:
                raise ValueError(f"unexpected token {val!r}")
            expect_factor = False
        return coeff, powers, i

    while i < len(tokens):
        kind, val = tokens[i]
        if kind == "op" and val == "+":
            sign = 1
            i += 1
            continue
        if kind == "op" and val == "-":
            sign = -sign
            i += 1
            continue
        coeff, powers, i = take_term(i)
        monomials.append((sign * coeff, powers))
        sign = 1
    # one construction instead of one sum per term
    names = sorted({v for _, powers in monomials for v in powers})
    terms = {}
    for coeff, powers in monomials:
        e = tuple(powers.get(v, 0) for v in names)
        terms[e] = terms.get(e, 0) + coeff
    return MultiPoly(names, terms)


# ---------------- gcd machinery ----------------

def _dense_coeffs(p: MultiPoly, var: str):
    """Integer coefficient list (ascending) of the primitive part."""
    off = _SLOTS[var]
    out = [0] * (p.degree_in(var) + 1)
    for e, v in p._terms.items():
        out[(e >> off) & _FIELD] = v
    return out


def _int_list_content(A):
    g = 0
    for v in A:
        g = _igcd(g, v)
        if g == 1:
            return 1
    return g or 1


def _univ_prem(A, B):
    """Pseudo-remainder of dense int lists (ascending coefficients)."""
    A = list(A)
    db = len(B) - 1
    lb = B[-1]
    while len(A) - 1 >= db and any(A):
        while A and A[-1] == 0:
            A.pop()
        if len(A) - 1 < db:
            break
        da = len(A) - 1
        la = A[-1]
        A = [v * lb for v in A]
        shift = da - db
        for k, bv in enumerate(B):
            A[k + shift] -= la * bv
        while A and A[-1] == 0:
            A.pop()
    return A


def _univ_gcd_int(A, B):
    """Primitive PRS gcd of dense int lists; returns a primitive list."""
    A = [v // _int_list_content(A) for v in A]
    B = [v // _int_list_content(B) for v in B]
    if len(A) < len(B):
        A, B = B, A
    while B and any(B):
        R = _univ_prem(A, B)
        if R and any(R):
            c = _int_list_content(R)
            R = [v // c for v in R]
        A, B = B, R
    c = _int_list_content(A)
    A = [v // c for v in A]
    if A and A[-1] < 0:
        A = [-v for v in A]
    return A


def _from_dense(coeffs, var: str) -> MultiPoly:
    return MultiPoly((var,), {(k,): c for k, c in enumerate(coeffs) if c})


def _coprime_by_evaluation(f: MultiPoly, g: MultiPoly, x: str) -> bool:
    """True if specializing all variables but x at random integers proves
    gcd(f, g) has degree zero in x. Keeps the leading x-coefficients nonzero
    so the degree inequality deg gcd(specialized) >= deg_x gcd(f, g) applies."""
    import random
    rng = random.Random(0x5eed)
    others = sorted((set(f.vars) | set(g.vars)) - {x})
    if not others:
        return False
    Fu = f.as_univariate(x)
    Gu = g.as_univariate(x)
    lf = Fu[max(Fu)]
    lg = Gu[max(Gu)]
    for _ in range(6):
        point = {v: Fraction(rng.randint(-19, 19)) for v in others}
        if lf.evaluate(point) == 0 or lg.evaluate(point) == 0:
            continue
        fa = [Fu.get(k, MultiPoly.zero()).evaluate(point) for k in range(max(Fu) + 1)]
        ga = [Gu.get(k, MultiPoly.zero()).evaluate(point) for k in range(max(Gu) + 1)]
        den = 1
        for v in fa + ga:
            den = _ilcm(den, v.denominator)
        fi = [int(v * den) for v in fa]
        gi = [int(v * den) for v in ga]
        h = _univ_gcd_int(fi, gi)
        return len(h) <= 1
    return False


def _upoly_content(coeffs: dict) -> MultiPoly:
    g = MultiPoly.zero()
    for c in coeffs.values():
        g = poly_gcd(g, c)
        if g.is_constant() and not g.is_zero():
            return MultiPoly.const(1)
    return g


def _upoly_divexact(coeffs: dict, d: MultiPoly) -> dict:
    return {k: c.divexact(d) for k, c in coeffs.items()}


def _upoly_pseudo_rem(F: dict, G: dict):
    """Pseudo remainder of univariate polys with MultiPoly coefficients."""
    dF = max(F)
    dG = max(G)
    lcG = G[dG]
    R = dict(F)
    while R and max(R) >= dG:
        dR = max(R)
        lcR = R[dR]
        shift = dR - dG
        newR = {}
        for k, c in R.items():
            newR[k] = c * lcG
        for k, c in G.items():
            kk = k + shift
            w = newR.get(kk, MultiPoly.zero()) - c * lcR
            if w.is_zero():
                newR.pop(kk, None)
            else:
                newR[kk] = w
        R = newR
    return R


def poly_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Primitive gcd over Q via content extraction + primitive PRS.

    The result is integer-primitive with positive leading coefficient
    (a constant gcd is returned as 1).
    """
    if f.is_zero():
        return g.primitive()
    if g.is_zero():
        return f.primitive()
    f = f.primitive()
    g = g.primitive()
    common = [v for v in f.vars if v in g.vars]
    if not common:
        return MultiPoly.const(1)
    if len(f.vars) == 1 and len(g.vars) == 1:
        x = common[0]
        h = _univ_gcd_int(_dense_coeffs(f, x), _dense_coeffs(g, x))
        return _from_dense(h, x)
    # main variable: smallest worst-case degree keeps the PRS short
    x = min(common, key=lambda v: min(f.degree_in(v), g.degree_in(v)))
    if _coprime_by_evaluation(f, g, x):
        # gcd carries no x; it divides the contents, handled below with pp = 1
        Fu = f.as_univariate(x)
        Gu = g.as_univariate(x)
        return poly_gcd(_upoly_content(Fu), _upoly_content(Gu))
    F = f.as_univariate(x)
    G = g.as_univariate(x)
    cf = _upoly_content(F)
    cg = _upoly_content(G)
    F = _upoly_divexact(F, cf)
    G = _upoly_divexact(G, cg)
    c = poly_gcd(cf, cg)
    if max(F) < max(G):
        F, G = G, F
    while G:
        if max(G) == 0:
            G = {}
            F = {0: MultiPoly.const(1)}
            break
        R = _upoly_pseudo_rem(F, G)
        if R:
            cr = _upoly_content(R)
            R = _upoly_divexact(R, cr)
        F, G = G, R
    xv = MultiPoly.var(x)
    out = MultiPoly.zero()
    for k, cpoly in F.items():
        out = out + cpoly * xv ** k
    out = out * c
    return out.primitive()
