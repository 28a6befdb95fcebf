"""Sparse multivariate polynomials over exact rationals.

A MultiPoly is immutable. Internally it is stored as a primitive
integer-coefficient term dict together with a rational content, so that hot
loops (products, big cancelling sums) run on machine/long ints and Fractions
only appear at the boundary. The term order is graded lexicographic over the
alphabetically sorted variable names; unused variables are pruned, which makes
structural equality meaningful.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import frexp, ldexp, gcd as _igcd


def _content_of(ints):
    g = 0
    for v in ints:
        g = _igcd(g, v)
        if g == 1:
            return 1
    return g


def _renormalized(variables, int_terms, content):
    """Rebuild the canonical (primitive ints, signed content) split after an
    operation that may leave shared integer factors behind."""
    g = _content_of(int_terms.values())
    lead = max(int_terms, key=lambda e: (sum(e), e))
    if int_terms[lead] < 0:
        g = -g
    out = MultiPoly(variables, {e: v // g for e, v in int_terms.items()},
                    _content=content * g)
    if any(not any(e[i] for e in out._terms) for i in range(len(out.vars))):
        # unused variable slipped through (e.g. the main var of a bucket)
        return MultiPoly(out.vars, {e: Fraction(c) * out._content
                                    for e, c in out._terms.items()})
    return out


def _scaled(c: Fraction, x):
    """c * x for a float or complex x. A content c outside the float range is
    applied as m * 2**e, |m| in (1/2, 2), so that a representable product
    neither overflows nor flushes to zero on the way."""
    n, d = c.numerator, c.denominator
    e = n.bit_length() - d.bit_length()
    if -1000 < e < 1000:
        return float(c) * x
    m = n / (d << e) if e > 0 else (n << -e) / d
    if isinstance(x, complex):
        return complex(_ldexp_mul(m, x.real, e), _ldexp_mul(m, x.imag, e))
    return _ldexp_mul(m, x, e)


def _ldexp_mul(m: float, x: float, e: int) -> float:
    xm, xe = frexp(x)
    return ldexp(m * xm, xe + e)


class MultiPoly:
    __slots__ = ("vars", "_terms", "_content", "_hash")

    def __init__(self, variables, terms, _content=None):
        """Build from {exponent tuple: coefficient}; prefer the classmethods."""
        variables = tuple(variables)
        if _content is not None:
            # trusted path: terms are primitive ints, content carries sign
            self.vars = variables
            self._terms = terms
            self._content = _content
            self._hash = None
            return
        clean = {}
        for exps, c in terms.items():
            c = c if isinstance(c, Fraction) else Fraction(c)
            if c:
                clean[tuple(exps)] = clean.get(tuple(exps), Fraction(0)) + c
        clean = {e: c for e, c in clean.items() if c}
        if not clean:
            self.vars = ()
            self._terms = {}
            self._content = Fraction(1)
            self._hash = None
            return
        # prune unused variables
        used = [i for i in range(len(variables)) if any(e[i] for e in clean)]
        if len(used) != len(variables):
            variables = tuple(variables[i] for i in used)
            clean = {tuple(e[i] for i in used): c for e, c in clean.items()}
        # sort variables alphabetically for a canonical order
        order = sorted(range(len(variables)), key=lambda i: variables[i])
        if order != list(range(len(variables))):
            variables = tuple(variables[i] for i in order)
            clean = {tuple(e[i] for i in order): c for e, c in clean.items()}
        # extract rational content; primitive part has positive leading coeff
        from math import lcm
        den = 1
        for c in clean.values():
            den = lcm(den, c.denominator)
        ints = {e: int(c * den) for e, c in clean.items()}
        g = _content_of(ints.values())
        lead = max(ints, key=lambda e: (sum(e), e))
        sign = 1 if ints[lead] > 0 else -1
        g *= sign
        self.vars = variables
        self._terms = {e: v // g for e, v in ints.items()}
        self._content = Fraction(g, den)
        self._hash = None

    # ---------------- constructors ----------------

    @classmethod
    def zero(cls):
        return cls((), {}, _content=Fraction(1))

    @classmethod
    def const(cls, q):
        q = q if isinstance(q, Fraction) else Fraction(q)
        if not q:
            return cls.zero()
        return cls((), {(): 1}, _content=q)

    @classmethod
    def var(cls, name: str):
        return cls((name,), {(1,): 1}, _content=Fraction(1))

    @classmethod
    def monomial(cls, coeff, var_powers: dict):
        """coeff * prod(var^e) from a {name: exponent} mapping."""
        names = tuple(sorted(var_powers))
        exps = tuple(var_powers[v] for v in names)
        return cls(names, {exps: coeff})

    # ---------------- basics ----------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def is_constant(self) -> bool:
        return not self.vars or all(not any(e) for e in self._terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self._content * next(iter(self._terms.values()))

    def total_degree(self) -> int:
        return max((sum(e) for e in self._terms), default=0)

    def degree_in(self, name: str) -> int:
        if name not in self.vars:
            return 0
        i = self.vars.index(name)
        return max((e[i] for e in self._terms), default=0)

    def terms(self):
        """Iterate (exponent tuple, Fraction coefficient), graded-lex descending."""
        for e in sorted(self._terms, key=lambda e: (sum(e), e), reverse=True):
            yield e, self._content * self._terms[e]

    def leading(self):
        """Leading (exponents, coefficient) in graded lex."""
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        e = max(self._terms, key=lambda t: (sum(t), t))
        return e, self._content * self._terms[e]

    def coefficient(self, exps) -> Fraction:
        return self._content * self._terms.get(tuple(exps), 0)

    def content(self) -> Fraction:
        """Rational content (signed); zero polynomial reports 0."""
        return self._content if self._terms else Fraction(0)

    def primitive(self) -> "MultiPoly":
        """Integer-primitive part with positive leading coefficient."""
        if self.is_zero():
            return self
        return MultiPoly(self.vars, dict(self._terms), _content=Fraction(1))

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.vars == other.vars and self._content == other._content
                and self._terms == other._terms)

    def __hash__(self):
        if self._hash is None:
            key = (self.vars, self._content,
                   tuple(sorted(self._terms.items())))
            self._hash = hash(key)
        return self._hash

    # ---------------- variable alignment ----------------

    def _aligned(self, other):
        if self.vars == other.vars:
            return self.vars, self._terms, other._terms
        allv = tuple(sorted(set(self.vars) | set(other.vars)))
        return allv, self._remap(allv), other._remap(allv)

    def _remap(self, allv):
        idx = [allv.index(v) for v in self.vars]
        n = len(allv)
        out = {}
        for e, c in self._terms.items():
            ne = [0] * n
            for i, p in zip(idx, e):
                ne[i] = p
            out[tuple(ne)] = c
        return out

    # ---------------- arithmetic ----------------

    def __neg__(self):
        if self.is_zero():
            return self
        return MultiPoly(self.vars, dict(self._terms), _content=-self._content)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        allv, t1, t2 = self._aligned(other)
        c1, c2 = self._content, other._content
        # scale both contents by a common rational so coefficients stay ints
        gn = _igcd(c1.numerator, c2.numerator)
        gl = c1.denominator * c2.denominator // _igcd(c1.denominator, c2.denominator)
        g = Fraction(gn, gl)
        m1 = int(c1 / g)
        m2 = int(c2 / g)
        out = {e: m1 * v for e, v in t1.items()}
        for e, v in t2.items():
            w = out.get(e, 0) + m2 * v
            if w:
                out[e] = w
            elif e in out:
                del out[e]
        if not out:
            return MultiPoly.zero()
        gg = _content_of(out.values())
        lead = max(out, key=lambda e: (sum(e), e))
        if out[lead] < 0:
            gg = -gg
        return MultiPoly(allv, {e: v // gg for e, v in out.items()},
                         _content=g * gg)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q or self.is_zero():
                return MultiPoly.zero()
            return MultiPoly(self.vars, dict(self._terms), _content=self._content * q)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return MultiPoly.zero()
        allv, t1, t2 = self._aligned(other)
        out = {}
        if len(t1) > len(t2):
            t1, t2 = t2, t1
        for e1, v1 in t1.items():
            for e2, v2 in t2.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                w = out.get(e, 0) + v1 * v2
                if w:
                    out[e] = w
                elif e in out:
                    del out[e]
        if not out:  # cannot happen over an integral domain, but be safe
            return MultiPoly.zero()
        # product of primitive parts is primitive (Gauss), skip re-extraction
        return MultiPoly(allv, out, _content=self._content * other._content)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
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
        if name not in self.vars:
            return MultiPoly.zero()
        i = self.vars.index(name)
        out = {}
        for e, v in self._terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                out[tuple(ne)] = v * e[i]
        if not out:
            return MultiPoly.zero()
        return _renormalized(self.vars, out, self._content)

    # ---------------- substitution / evaluation ----------------

    def as_univariate(self, name: str) -> dict:
        """View as {power of name: MultiPoly in the remaining variables}."""
        if name not in self.vars:
            return {0: self} if self._terms else {}
        i = self.vars.index(name)
        rest = self.vars[:i] + self.vars[i + 1:]
        buckets = {}
        for e, v in self._terms.items():
            re_ = e[:i] + e[i + 1:]
            buckets.setdefault(e[i], {})[re_] = v
        return {k: _renormalized(rest, t, self._content)
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

    def evaluate(self, assignment: dict):
        """Numeric/exact evaluation with every variable assigned."""
        try:
            out = None
            for e, v in self._terms.items():
                t = v
                for name, p in zip(self.vars, e):
                    if p:
                        t = t * assignment[name] ** p
                out = t if out is None else out + t
        except OverflowError:
            # an integer coefficient (or a partial sum) beyond the float range
            return self._evaluate_scaled(assignment)
        if out is None:
            return Fraction(0)
        c = self._content
        if isinstance(out, complex) or isinstance(out, float):
            return _scaled(c, out)
        return c * out

    def _evaluate_scaled(self, assignment: dict):
        """Float evaluation that applies each term's exact coefficient to its
        monomial as m * 2**e, so that no coefficient is converted whole."""
        out = 0.0
        for e, v in self._terms.items():
            t = 1
            for name, p in zip(self.vars, e):
                if p:
                    t = t * assignment[name] ** p
            cv = self._content * v
            out += (_scaled(cv, t) if isinstance(t, (float, complex))
                    else _scaled(cv * t, 1.0))
        return out

    # ---------------- exact division and gcd ----------------

    def divexact(self, other: "MultiPoly"):
        """Return self/other if the division is exact, else None.

        Runs on the primitive integer parts: if the division is exact over Q,
        the quotient of two primitive parts is itself an integer polynomial
        (Gauss), so a leading-term step that leaves a remainder proves the
        division inexact."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return self
        allv, t1, t2 = self._aligned(other)
        rem = dict(t1)
        lt2 = max(t2, key=lambda e: (sum(e), e))
        lc2 = t2[lt2]
        quot = {}
        while rem:
            lt1 = max(rem, key=lambda e: (sum(e), e))
            qe = tuple(a - b for a, b in zip(lt1, lt2))
            if any(p < 0 for p in qe):
                return None
            qc, r = divmod(rem[lt1], lc2)
            if r:
                return None
            quot[qe] = qc
            for e2, v2 in t2.items():
                e = tuple(a + b for a, b in zip(qe, e2))
                w = rem.get(e, 0) - qc * v2
                if w:
                    rem[e] = w
                elif e in rem:
                    del rem[e]
        used = [i for i in range(len(allv)) if any(e[i] for e in quot)]
        if len(used) != len(allv):
            allv = tuple(allv[i] for i in used)
            quot = {tuple(e[i] for i in used): c for e, c in quot.items()}
        # primitive over primitive: the quotient is primitive, leading coeff > 0
        return MultiPoly(allv, quot, _content=self._content / other._content)

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
    i = p.vars.index(var)
    deg = max(e[i] for e in p._terms)
    out = [0] * (deg + 1)
    for e, v in p._terms.items():
        out[e[i]] = v
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
        from math import lcm
        for v in fa + ga:
            den = lcm(den, v.denominator)
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
