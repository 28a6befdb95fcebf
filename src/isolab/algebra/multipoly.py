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
guard. A tuple-keyed construction and parse_poly check the same limit.

Division. divexact, the gcd's divisibility check and FactoredFrac.cancel
run `_quotient` on the integer terms, which keeps the remainder's keys in a
heap of negated packed keys (Monagan & Pearce, "Sparse polynomial division
using a heap", JSC 46, 2011): each quotient term costs a heap step, not a
scan of the remainder. A borrow into a guard bit or a coefficient remainder
proves a division inexact. A linear gap x - y is divided out by
`gap_power`, which tests divisibility by evaluation at x = y and divides by
synthetic division, and a monomial by `var_power`, a shift of every key.
Text is printed and read on the packed keys (`to_text`, `parse_poly`).

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

gcd: GCDHEU (Char, Geddes & Gonnet, JSC 7, 1989; Liao & Fateman, ISSAC
1995) on the packed integer terms. With the integer contents out, a
variable x of both inputs a, b is set to an integer
xi >= 2 min(|a|, |b|) + 2 (max norms), the gcd of the two images is taken
the same way (math.gcd once no variable is left), and its symmetric xi-adic
digits are read back as the coefficients of a polynomial in x. Its
primitive part is accepted when it divides a and b exactly, which for such
xi makes it the gcd (CGG); else xi grows. This ends with no cap or
fallback. Write a = G A, b = G B: the images' gcd is G(xi) d, where
d = gcd(A(xi), B(xi)) divides a fixed nonzero R free of x in the ideal
(A, B), the resultant in x (or whichever of A, B is free of x). A
nonconstant irreducible factor of R divides A(xi) and B(xi) for finitely
many xi only, or else it would divide A and B. Past those xi and the roots
of a and b, d is an integer, the digits of G(xi) d are those of G d once
xi > 2 |G d|, and the primitive part G passes the check.

Kronecker images (Kronecker 1882; Fateman 2005; Harvey, JSC 44, 2009).
`kronecker(names, degrees, bits)` maps an integer polynomial to one
integer: names[i] becomes X^s_i with X = 2^bits and mixed-radix strides
s_1 = 1, s_(i+1) = s_i (degrees[i] + 1), so each monomial of the box
e_i <= degrees[i] owns one base-2^bits digit. The map is a ring
homomorphism, so a polynomial identity can be evaluated on big integers,
whose products Python multiplies by Karatsuba. `from_kronecker` reads the
balanced digits back. For a result whose degrees fit the box and whose
coefficients are below 2^(bits-1) in absolute value the digits are exactly
its coefficients, so its image is 0 iff it is zero. `prove_zero` derives
those two bounds: it runs the `+ - *` formula once on `_Bound` values (a
1-norm and a degree per variable; abstract interpretation, Cousot & Cousot,
POPL 1977), so the box and the digit width come from the formula itself and
grow with it (painleve.pvi_residual is the one user).

Evaluation at floats: `evaluate` sums the terms in float and applies the
content as float(c) * sum. If that overflows, loses a monomial of nonzero
inputs below the normal range, meets a content outside the float range or
ends not finite at finite inputs, one exact fallback reads each float as the
dyadic rational it is (a complex one as a pair), sums exactly and rounds once
per component (Goldberg, ACM Comput. Surv. 23, 1991), raising OverflowError
beyond the float range. A non-finite input never enters the fallback.

Truncated products: each printed closed form is one coefficient of a
product of polynomials in t given as coefficient lists; `grade` gives one
coefficient, `truncated_product` grades 0..r, for every family builder.
"""

from __future__ import annotations

import re
import sys
import threading
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from heapq import heapify, heappop, heappush
from cmath import isfinite
from math import nan, gcd as _igcd, lcm as _ilcm


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


def _quotient(t1: dict, t2: dict):
    """t1 / t2 of nonzero packed integer term dicts if it is an integer
    polynomial, else None. A leading-term step that leaves a remainder
    proves the division inexact. The leading terms are the largest packed
    keys (a monomial order); a monomial divides another when subtracting it
    borrows from no field, which the guard bits show. An exact division
    only meets monomials of q * t2, whose exponents are those of t1 at most,
    so a remainder monomial with a guard bit set proves the division
    inexact, before any field could carry.

    The remainder's keys wait in a heap of negated keys (after Monagan &
    Pearce, "Sparse polynomial division using a heap", JSC 46, 2011), so
    each step finds the leading term without a scan of the remainder. A key
    enters the heap when it enters the remainder; one that cancels stays in
    the heap and is skipped when it surfaces (lazy deletion). Every key a
    step adds is below the step's leading key, so a skipped key never
    returns above the current lead."""
    rem = dict(t1)
    heap = [-e for e in rem]
    heapify(heap)
    lt2 = max(t2)
    lc2 = t2[lt2]
    rest = [(e2, v2) for e2, v2 in t2.items() if e2 != lt2]
    guard = _GUARD
    quot = {}
    while heap:
        lt1 = -heappop(heap)
        c1 = rem.pop(lt1, 0)
        if not c1:
            continue
        if ((lt1 | guard) - lt2) & guard != guard:
            return None
        qc, r = divmod(c1, lc2)
        if r:
            return None
        qe = lt1 - lt2
        quot[qe] = qc
        get = rem.get
        for e2, v2 in rest:
            e = qe + e2
            if e & guard:
                return None
            w = get(e)
            if w is None:
                rem[e] = -qc * v2
                heappush(heap, -e)
            else:
                w -= qc * v2
                if w:
                    rem[e] = w
                else:
                    del rem[e]
    return quot


class _OutOfRange(Exception):
    """A monomial of nonzero float inputs, or the content, is out of range."""


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
            c = c if isinstance(c, (int, Fraction)) else Fraction(c)
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

    def term_count(self) -> int:
        return len(self._terms)

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
        names = self.vars
        if len(names) == 1:     # one field: graded lex is the packed order
            return max(t)
        return max(t, key=_grlex(names))

    def leading(self):
        """Leading (exponents, coefficient) in graded lex."""
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        e = self._leading_key()
        return _grlex(self.vars)(e)[1], self._content * self._terms[e]

    def _sign(self) -> int:
        """Sign of the graded-lex leading coefficient of the primitive part."""
        return 1 if self._terms[self._leading_key()] > 0 else -1

    def split_content(self):
        """(primitive(), content()) with one leading-term search."""
        if not self._terms:
            return self, Fraction(0)
        if self._sign() > 0:
            return _new(self._terms, _ONE, self._deg), self._content
        return _new(self._terms, _MINUS_ONE, self._deg), -self._content

    def content(self) -> Fraction:
        """Rational content (signed); zero polynomial reports 0."""
        return self.split_content()[1]

    def primitive(self) -> "MultiPoly":
        """Integer-primitive part with positive leading coefficient."""
        return self.split_content()[0]

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
        from .factored import FactoredFrac
        from .ratfunc import RatFunc
        if name not in self.vars:
            return self
        parts = self.as_univariate(name)
        dmax = max(parts)
        rational = isinstance(value, RatFunc)
        if rational:
            value = FactoredFrac.from_ratfunc(value)
        elif isinstance(value, (int, Fraction)):
            value = MultiPoly.const(value)
        out = MultiPoly.zero()
        vp = MultiPoly.const(1)
        for k in range(dmax + 1):
            if k in parts:
                out = out + parts[k] * vp
            if k < dmax:
                vp = vp * value
        return out.to_ratfunc() if rational else out

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
        """Numeric/exact evaluation with every variable assigned; float
        inputs take the float path or its exact fallback (module docstring)."""
        if not self._terms:
            return Fraction(0)
        xs = [assignment[n] for n in self.vars]
        floats = False
        for x in xs:
            if isinstance(x, (float, complex)):
                floats = True
                break
        plan = self._evaluation_plan()
        c = self._content
        try:
            out = None
            for v, powers in plan:
                t = v
                for i, p in powers:
                    t = t * xs[i] ** p
                if floats and abs(t) < _TINY and all(xs[i] for i, _ in powers):
                    raise _OutOfRange  # a monomial of nonzero inputs was lost
                out = t if out is None else out + t
            if not floats:
                return c * out
            n, d = c.numerator, c.denominator
            if abs(n.bit_length() - d.bit_length()) >= 1000:
                raise _OutOfRange  # the content is outside the float range
            out = float(c) * out
            if isfinite(out):
                return out
        except (OverflowError, _OutOfRange):
            out = None
        return self._evaluate_exact(xs, plan, out)

    def _evaluate_exact(self, xs, plan, out):
        """evaluate's exact fallback; out is the float value, None if none."""
        if any(isinstance(x, (float, complex)) and not isfinite(x) for x in xs):
            return nan if out is None else out
        zs = [(Fraction(x.real), Fraction(x.imag)) for x in xs]
        real = imag = 0
        for v, powers in plan:
            a, b = v, 0
            for i, p in powers:
                zr, zi = zs[i]
                for _ in range(p):
                    a, b = a * zr - b * zi, a * zi + b * zr
            real, imag = real + a, imag + b
        c = self._content
        if any(isinstance(x, complex) for x in xs):
            return complex(float(c * real), float(c * imag))
        return float(c * real)

    # ---------------- Kronecker images ----------------

    def kronecker(self, names, degrees, bits: int) -> int:
        """The integer self(X^s_1, ..., X^s_k) at X = 2**bits, with
        s_1 = 1 and s_(i+1) = s_i (degrees[i] + 1): the monomial with
        exponents e over names lands on the base-2**bits digit at place
        sum_i e_i s_i of a mixed-radix box. Every variable must be in names
        with e_i <= degrees[i], and the coefficients must be integers; else
        ValueError.

        The map is a ring homomorphism from Z[names] to Z, so the image of a
        product or sum is the product or sum of the images. On polynomials
        whose exponents stay in the box and whose coefficients r satisfy
        |r| < 2**(bits - 1) it is injective, since balanced base-2**bits
        digits are unique; from_kronecker is its inverse there. Such a
        polynomial is zero iff its image is 0; prove_zero computes a box
        and bits for which that holds."""
        c = self._content
        if c.denominator != 1:
            raise ValueError("a Kronecker image needs integer coefficients")
        places = []
        stride = 1
        for name, d in zip(names, degrees):
            places.append((_SLOTS.get(name), stride, d, name))
            stride *= d + 1
        out = 0
        for e, v in self._terms.items():
            k = 0
            for off, s, d, name in places:
                if off is None:
                    continue
                p = (e >> off) & _FIELD
                if p:
                    if p > d:
                        raise ValueError(f"degree {p} in {name} exceeds the "
                                         f"Kronecker box bound {d}")
                    k += p * s
                    e -= p << off
            if e:
                raise ValueError(f"a variable of {self.vars} is not in {names}")
            out += v << (bits * k)
        return c.numerator * out

    @classmethod
    def from_kronecker(cls, value: int, names, degrees, bits: int):
        """The polynomial whose kronecker(names, degrees, bits) is value,
        read as balanced base-2**bits digits r_k in [-2**(bits-1),
        2**(bits-1)): the digit at place k is the coefficient of the
        monomial whose exponents are k's mixed-radix digits, e_i =
        (k // s_i) mod (degrees[i] + 1). A value outside the box is a
        ValueError.

        Adding h = 2**(bits-1) to every digit, that is the constant
        sum_k h 2**(bits k), moves every digit into [0, 2**bits) without a
        carry, so the digits are plain bit fields of the sum."""
        if not value:
            return _ZERO
        size = 1
        for d in degrees:
            size *= d + 1
        half = 1 << (bits - 1)
        width = bits * size
        u = value + ((1 << width) - 1) // ((1 << bits) - 1) * half
        if u < 0 or u.bit_length() > width:
            raise ValueError("value is not the Kronecker image of a "
                             "polynomial in the box")
        radix = [(_offset(name), d + 1) for name, d in zip(names, degrees)]
        text = format(u, "b").zfill(width)
        terms = {}
        for k in range(size):
            r = int(text[width - bits * (k + 1):width - bits * k], 2) - half
            if r:
                e, q = 0, k
                for off, base in radix:
                    q, p = divmod(q, base)
                    if p > _MAX_EXP:
                        raise ExponentOverflowError(
                            f"exponent {p} exceeds the packed exponent "
                            f"limit {_MAX_EXP}")
                    e += p << off
                terms[e] = r
        return _renormalized(terms, _ONE, _checked(max(map(_degree_of, terms))))

    # ---------------- exact division and gcd ----------------

    def divexact(self, other: "MultiPoly"):
        """Return self/other if the division is exact, else None. If it is
        exact over Q, the primitive parts divide over Z (Gauss)."""
        t2 = other._terms
        if not t2:
            raise ZeroDivisionError("polynomial division by zero")
        if not self._terms:
            return self
        quot = _quotient(self._terms, t2)
        if quot is None:
            return None
        # primitive over primitive: the quotient is primitive, its largest
        # key has a positive coefficient; its terms go in graded-lex
        # descending order, the order evaluate sums them in
        if len(quot) > 1:
            quot = {e: quot[e] for e in sorted(quot, key=_grlex(_names_of(quot)),
                                                reverse=True)}
        return _new(quot, self._content / other._content,
                    max(0, self._deg - _degree_of(max(t2))))

    def gap_power(self, x: str, y: str):
        """(k, q) with self = (x - y)^k q and x - y not dividing q, for two
        names x != y (k = 0 for the zero polynomial).

        Let u - w be x - y or y - x, whichever has its positive term at the
        larger packed key. Moving each key's w exponent j onto u sorts the
        terms into diagonals, each a polynomial in j. By the factor theorem
        u - w divides self exactly when self vanishes at u = w, which is
        when each diagonal's coefficients sum to zero: one pass over the
        packed keys (no field can carry, the sum is at most the total
        degree), and a failed test proves non-divisibility. Dividing a
        diagonal by u - w takes its prefix sums (synthetic division), so
        the k divisions run on dense rows of the diagonals, and the
        quotient's terms are formed once. Like self's, its integer terms are
        primitive (Gauss) and positive at the largest key, since u - w is."""
        ox, oy = _SLOTS.get(x), _SLOTS.get(y)
        if ox is None or oy is None or not self._terms:
            return 0, self
        ou, ow = (ox, oy) if ox > oy else (oy, ox)
        uu, step = 1 << ou, (1 << ow) - (1 << ou)
        diagonals = {}
        get = diagonals.get
        for e, v in self._terms.items():
            j = (e >> ow) & _FIELD
            d = e - j * step
            row = get(d)
            if row is None:
                diagonals[d] = {j: v}
            else:
                row[j] = v
        if any(sum(row.values()) for row in diagonals.values()):
            return 0, self
        rows = []
        for d, row in diagonals.items():
            lo = min(row)
            dense = [0] * (max(row) - lo + 1)
            for j, v in row.items():
                dense[j - lo] = v
            rows.append((d + lo * step, dense))
        k = 0
        while not any(sum(row) for _, row in rows):
            rows = [(d, list(accumulate(row))[:-1]) for d, row in rows]
            k += 1
        q = {}
        for e, row in rows:
            e -= k * uu
            for v in row:
                if v:
                    q[e] = v
                e += step
        c = self._content
        return k, _new(q, -c if ox < oy and k % 2 else c, self._deg - k)

    def var_power(self, name: str, limit: int):
        """(k, self / name^k) for the largest k <= limit with name^k dividing
        self: k is the least exponent of name over the terms, and the
        quotient shifts every key down, keeping the term order."""
        off = _SLOTS.get(name)
        if off is None or not self._terms:
            return 0, self
        k = min(limit, min((e >> off) & _FIELD for e in self._terms))
        if not k:
            return 0, self
        shift = k << off
        return k, _new({e - shift: v for e, v in self._terms.items()},
                       self._content, self._deg - k)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                raise ZeroDivisionError
            return self * (1 / q)
        return NotImplemented

    # ---------------- text form ----------------

    def to_text(self) -> str:
        """Canonical text: graded-lex descending, exact integer/fraction
        coefficients. The integer terms are sorted once, each on one int
        key read from its packed monomial (the total degree above the
        exponents in name order, _W bits each), and each coefficient is
        printed from the content's numerator and denominator with int
        arithmetic."""
        t = self._terms
        if not t:
            return "0"
        fields = [(n, _SLOTS[n]) for n in self.vars]
        top = _W * len(fields)
        rows = []
        for e, v in t.items():
            key = deg = 0
            mono = []
            for n, o in fields:
                p = (e >> o) & _FIELD
                key = key << _W | p
                if p:
                    deg += p
                    mono.append(n if p == 1 else f"{n}^{p}")
            rows.append((deg << top | key, "*".join(mono), v))
        rows.sort(reverse=True)
        n, d = self._content.numerator, self._content.denominator
        pieces = []
        for _, mono, v in rows:
            g = _igcd(v, d) if d != 1 else 1
            num, den = v // g * n, d // g
            mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
            if mono:
                body = mono if mag == "1" else f"{mag}*{mono}"
            else:
                body = mag
            if not pieces:
                pieces.append(body if num > 0 else f"-{body}")
            else:
                pieces.append(("+ " if num > 0 else "- ") + body)
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


# ---------------- bounded Kronecker proofs ----------------

def _lcm(a: int, b: int) -> int:
    """The lcm of two packed monomials, their fieldwise maximum, by the
    guard bits: the guard of a field survives (a | guard) - b exactly where
    a's field is at least b's, and is spread into a mask over that field."""
    ge = ((a | _GUARD) - b) & _GUARD
    mask = (ge >> (_W - 1)) * _FIELD
    return (a & mask) | (b & ~mask)


class _Bound:
    """A bound on an integer polynomial: `norm` >= its 1-norm, the sum of
    the absolute values of its coefficients, and the packed monomial
    `degrees` >= each of its monomials, field by field. ||f +- g|| <=
    ||f|| + ||g|| with the fieldwise maximum of the degrees, ||f g|| <=
    ||f|| ||g|| with their sum, and an int scalar counts by its absolute
    value, with degree 0. So a + - * formula run on the bounds of its inputs
    bounds its result."""

    __slots__ = ("norm", "degrees")

    def __init__(self, norm: int, degrees: int):
        self.norm = norm
        self.degrees = degrees

    @classmethod
    def of(cls, p: MultiPoly) -> "_Bound":
        """p's 1-norm, rounded up, and the lcm of its monomials."""
        c, terms = p._content, p._terms
        norm = -(-abs(c.numerator) * sum(map(abs, terms.values()))
                 // c.denominator)
        return cls(norm, reduce(_lcm, terms) if terms else 0)

    def __add__(self, other):
        if type(other) is _Bound:
            return _Bound(self.norm + other.norm,
                          _lcm(self.degrees, other.degrees))
        return _Bound(self.norm + abs(other), self.degrees)

    def __mul__(self, other):
        if type(other) is _Bound:
            e = self.degrees + other.degrees
            if e & _GUARD:
                raise ExponentOverflowError(
                    f"a degree bound exceeds the packed exponent limit "
                    f"{_MAX_EXP}")
            return _Bound(self.norm * other.norm, e)
        return _Bound(self.norm * abs(other), self.degrees)

    __radd__ = __sub__ = __rsub__ = __add__
    __rmul__ = __mul__

    def __neg__(self):
        return self


def _box(formula, polys, scalars):
    """(names, degrees, bits) of the Kronecker box that holds
    formula(*polys, *scalars) and every input: the formula run on _Bound
    values gives the degrees and the norm, and bits = norm bits + 2 keeps
    every coefficient below 2**(bits - 2) in absolute value."""
    bounds = [_Bound.of(p) for p in polys]
    out = formula(*bounds, *scalars)
    box = reduce(_lcm, (b.degrees for b in bounds), out.degrees)
    names = _names_of((box,))
    return (names, [(box >> _SLOTS[v]) & _FIELD for v in names],
            out.norm.bit_length() + 2)


def prove_zero(formula, polys, scalars=()) -> MultiPoly:
    """formula(*polys, *scalars), for a formula written with + - * only over
    integer polynomials polys and int scalars, computed as one Kronecker
    image: the formula runs once on the inputs' images (MultiPoly.kronecker)
    in the box of _box. Inside that box the image is injective, so a zero
    image proves the result zero (MultiPoly.zero(), with no read-back); a
    nonzero one is read back exactly (MultiPoly.from_kronecker)."""
    names, degrees, bits = _box(formula, polys, scalars)
    value = formula(*(p.kronecker(names, degrees, bits) for p in polys), *scalars)
    if not value:
        return _ZERO
    return MultiPoly.from_kronecker(value, names, degrees, bits)


# ---------------- truncated products of polynomials in t ----------------

def grade(acc, row, r: int) -> MultiPoly:
    """The t^r coefficient of acc * row, polynomials in t as coefficient
    lists of any length (row's may be exact scalars): the products
    acc[i] row[r - i], zero ones skipped, summed in one integer dict over
    the lcm of their content denominators. Terms enter in increasing i, and
    one that cancels leaves and re-enters at the end, as in a chain of `+`:
    evaluate sums in dict order, so float results stay those of that chain."""
    lo = max(0, r - len(row) + 1)
    prods = [a * b for a, b in zip(acc[lo:r + 1], row[r - lo::-1]) if a and b]
    if len(prods) < 2:
        return prods[0] if prods else _ZERO
    den = reduce(_ilcm, (p._content.denominator for p in prods), 1)
    out = {}
    get = out.get
    for p in prods:
        m = p._content.numerator * (den // p._content.denominator)
        for e, v in p._terms.items():
            w = get(e, 0) + m * v
            if w:
                out[e] = w
            else:
                del out[e]
    if not out:
        return _ZERO
    return _renormalized(out, _ONE if den == 1 else Fraction(1, den),
                         max(p._deg for p in prods))


def truncated_product(rows, r: int) -> list:
    """Grades 0..r of the product of `rows`, polynomials in t as lists of
    MultiPoly coefficients; the empty product is [1, 0, ..., 0]."""
    acc = [_UNIT] + [_ZERO] * r
    for row in rows:
        acc = [grade(acc, row, k) for k in range(r + 1)]
    return acc


_SIGNS = re.compile(r"([+-][\s+-]*)")
_FACTOR = re.compile(r"\s*(?:([0-9]+)(?:/([0-9]+))?"
                     r"|([A-Za-z_][A-Za-z_0-9]*)(?:\^([0-9]+))?)\s*")


def parse_poly(text: str) -> MultiPoly:
    """Parse a sum of terms joined by runs of signs ('x - - y' is x + y),
    each term a '*'-product of factors in any order: an integer, p/q, or a
    name with an optional ^exponent (ASCII only). Anything else, such as an
    implicit product, a dangling sign or text with no term, is a ValueError,
    and a term of total degree above the packed limit an
    ExponentOverflowError.

    Each distinct factor text is matched once. The terms are packed
    straight into integer numerators over one denominator, keyed in the
    order their monomials first appear (evaluate sums in that order), and
    canonicalised once; names new to the slot table take their slots in
    sorted order."""
    parts = _SIGNS.split(text)      # [term, signs, term, signs, term, ...]
    if parts[0].strip():
        parts.insert(0, "")
    else:
        del parts[0]
    if not parts:
        raise ValueError("polynomial text has no term; write 0 for zero")
    monomials = []
    den = 1
    seen = {}   # factor text -> (name, exponent) or (numerator, denominator)
    for signs, term in zip(parts[::2], parts[1::2]):
        num, d, powers = -1 if signs.count("-") & 1 else 1, 1, []
        for factor in term.split("*"):
            f = seen.get(factor)
            if f is None:
                m = _FACTOR.fullmatch(factor)
                if m is None:
                    raise ValueError(f"bad factor {factor.strip()!r} in "
                                     f"polynomial term {(signs + term).strip()!r}")
                n, q, name, exp = m.groups()
                f = seen[factor] = ((name, int(exp or 1)) if name
                                    else (int(n), int(q or 1)))
            if isinstance(f[0], str):
                powers.append(f)
            else:
                num *= f[0]
                d *= f[1]
        if not d:
            raise ValueError(f"zero denominator in polynomial term "
                             f"{(signs + term).strip()!r}")
        monomials.append((num, d, powers))
        den = _ilcm(den, d)
    for name in sorted({f[0] for f in seen.values() if isinstance(f[0], str)}):
        _offset(name)
    terms = {}
    get = terms.get
    top = 0
    for num, d, powers in monomials:
        e = deg = 0
        for name, p in powers:
            e += p << _SLOTS[name]
            deg += p
        top = max(top, deg)
        terms[e] = get(e, 0) + num * (den // d)
    # a field above the limit makes its term's degree pass it too, so the
    # one degree check also refuses every key that a field overflowed
    _checked(top)
    terms = {e: v for e, v in terms.items() if v}
    if not terms:
        return _ZERO
    return _renormalized(terms, Fraction(1, den), top)


# ---------------- heuristic gcd ----------------

def poly_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Primitive gcd over Q by GCDHEU (see the module docstring), with a
    positive graded-lex leading coefficient; a constant gcd is returned as
    1, and gcd(0, g) is the primitive part of g."""
    if f.is_zero():
        return g.primitive()
    if g.is_zero():
        return f.primitive()
    h = _heu_gcd(f._terms, g._terms)
    if len(h) == 1 and 0 in h:
        return _UNIT
    return _renormalized(h, _ONE, min(f._deg, g._deg)).primitive()


def _heu_gcd(a: dict, b: dict) -> dict:
    """A gcd over Z, up to sign, of two nonzero packed integer term dicts."""
    ca, cb = _content_of(a.values()), _content_of(b.values())
    c = _igcd(ca, cb)
    ma = mb = 0
    for e in a:
        ma |= e
    for e in b:
        mb |= e
    off = 0  # the first variable that both inputs use
    while not ((ma >> off) & _FIELD and (mb >> off) & _FIELD):
        off += _W
        if not (ma >> off and mb >> off):
            return {0: c}  # no common variable: only integers divide both
    if ca != 1:
        a = {e: v // ca for e, v in a.items()}
    if cb != 1:
        b = {e: v // cb for e, v in b.items()}
    da = max((e >> off) & _FIELD for e in a)
    db = max((e >> off) & _FIELD for e in b)
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 2
    while True:
        ia, ib = _at(a, off, xi), _at(b, off, xi)
        h = ia and ib and _digits(_heu_gcd(ia, ib), off, xi, min(da, db))
        if h:
            if len(h) == 1 and 0 in h:
                return {0: c}
            ch = _content_of(h.values())
            if ch != 1:
                h = {e: v // ch for e, v in h.items()}
            if _quotient(a, h) is not None and _quotient(b, h) is not None:
                return h if c == 1 else {e: c * v for e, v in h.items()}
        xi = 2 * xi + 1


def _at(t: dict, off: int, xi: int) -> dict:
    """t with the variable at bit offset off set to xi. Only the powers of
    xi that occur are formed, in increasing order, each from the one
    before."""
    powers = {}
    xp, prev = 1, 0
    for p in sorted({(e >> off) & _FIELD for e in t}):
        xp *= xi ** (p - prev)
        powers[p] = xp
        prev = p
    out = {}
    get = out.get
    for e, v in t.items():
        p = (e >> off) & _FIELD
        r = e - (p << off)
        out[r] = get(r, 0) + v * powers[p]
    return {e: v for e, v in out.items() if v}


def _digits(gamma: dict, off: int, xi: int, deg: int):
    """The polynomial in the variable at offset off whose coefficients are
    the symmetric xi-adic digits of gamma's, or None past degree deg."""
    half = xi // 2
    h = {}
    for e, v in gamma.items():
        i = 0
        while v:
            if i > deg:
                return None
            d = v % xi
            if d > half:
                d -= xi
            if d:
                h[e + (i << off)] = d
            v = (v - d) // xi
            i += 1
    return h
