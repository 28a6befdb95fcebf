from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from isolab.algebra import (MultiPoly, RatFunc, FactoredFrac, binom, pochhammer,
                            parse_poly, parse_ratfunc, poly_gcd)

x = MultiPoly.var("x")
y = MultiPoly.var("y")


class TestScalars:
    def test_binom_examples(self):
        assert binom(F(7, 3), 0) == 1
        assert binom(F(1, 2), 1) == F(1, 2)
        assert binom(F(1, 3), 2) == F(-1, 9)

    def test_pochhammer_examples(self):
        assert pochhammer(F(5, 3), 0) == 1
        assert pochhammer(2, 3) == 24
        assert pochhammer(-3, 5) == 0

    @given(st.integers(-9, 9), st.integers(1, 9), st.integers(0, 8))
    def test_binom_falling_factorial(self, num, den, j):
        beta = F(num, den)
        fall = F(1)
        for k in range(j):
            fall *= beta - k
        fact = 1
        for k in range(2, j + 1):
            fact *= k
        assert binom(beta, j) * fact == fall


class TestMultiPoly:
    def test_partial(self):
        assert (x ** 2 * y).partial("x") == 2 * x * y
        assert (x ** 2 * y).partial("z").is_zero()

    def test_mul(self):
        assert (x + 1) * (x - 1) == x ** 2 - 1

    def test_substitute_ratfunc(self):
        t = MultiPoly.var("t")
        got = (x ** 2).substitute("x", RatFunc(MultiPoly.const(1), 1 - t))
        assert got == RatFunc(MultiPoly.const(1), (1 - t) ** 2)

    def test_divexact(self):
        assert (x ** 2 - 1).divexact(x - 1) == x + 1
        assert (x ** 2 + 1).divexact(x - 1) is None

    def test_divexact_integer_steps(self):
        # (x + 1)/(2x + 1) leaves the remainder 1/2: not exact over Q
        assert (x + 1).divexact(2 * x + 1) is None
        assert (2 * x + 2).divexact(x + 1) == MultiPoly.const(2)
        assert (F(2, 3) * x + F(2, 3)).divexact(3 * x + 3) == MultiPoly.const(F(2, 9))

    def test_divexact_seeded_product(self):
        import random
        rng = random.Random(20261018)
        z = MultiPoly.var("z")
        names = (x, y, z)

        def rand_poly(nterms):
            out = MultiPoly.zero()
            for _ in range(nterms):
                mono = MultiPoly.const(F(rng.randint(-9, 9), rng.randint(1, 5)))
                for v in names:
                    mono = mono * v ** rng.randint(0, 3)
                out = out + mono
            return out

        for _ in range(5):
            f, g = rand_poly(6), rand_poly(4)
            if f.is_zero() or g.is_zero():
                continue
            assert (f * g).divexact(g) == f
            assert (f * g).divexact(f) == g
            q = (f * g + 1).divexact(g)
            assert q is None or g.is_constant()

    def test_unused_variable_pruned(self):
        p = MultiPoly(("x", "y"), {(1, 0): F(1)})
        assert p == x and p.vars == ("x",)

    def test_gcd(self):
        f = (x + 1) ** 3 * (x - y)
        g = (x + 1) * (x - y) ** 2
        assert poly_gcd(f, g) == (x + 1) * (x - y)
        assert poly_gcd(x + 1, x - 1) == MultiPoly.const(1)

    def test_evaluate(self):
        p = x ** 2 * y - 2
        assert p.evaluate({"x": F(3), "y": F(2)}) == 16
        assert abs(p.evaluate({"x": 1j, "y": 2.0}) - (-4 + 0j)) < 1e-14

    def test_evaluate_huge_content_at_tiny_point(self):
        # the content 10**400 overflows a float, the value 1e100 does not
        p = 10 ** 400 * x
        assert p.evaluate({"x": 1e-300}) == pytest.approx(1e100, rel=1e-15)
        z = p.evaluate({"x": 1e-300j})
        assert z.real == 0 and z.imag == pytest.approx(1e100, rel=1e-15)

    def test_evaluate_huge_coefficient_at_tiny_point(self):
        # the primitive coefficient 10**400 overflows a float, 1e100 does not
        p = 10 ** 400 * x + 1
        assert p.evaluate({"x": 1e-300}) == pytest.approx(1e100, rel=1e-15)
        z = p.evaluate({"x": 1e-300j})
        assert z.real == 1 and z.imag == pytest.approx(1e100, rel=1e-15)
        # a tiny content over huge coefficients: the value is about 1
        q = (10 ** 400 + x) * F(1, 10 ** 400)
        assert q.evaluate({"x": 2.0}) == pytest.approx(1.0, rel=1e-15)
        assert p.evaluate({"x": F(1, 10 ** 300)}) == 10 ** 100 + 1

    def test_evaluate_tiny_content_at_huge_point(self):
        # the content 10**-400 flushes to 0.0 as a float, the value does not
        p = F(1, 10 ** 400) * x
        assert p.evaluate({"x": 1e300}) == pytest.approx(1e-100, rel=1e-15)
        z = p.evaluate({"x": -1e300 + 2e300j})
        assert z == pytest.approx(-1e-100 + 2e-100j, rel=1e-15)


@st.composite
def small_polys(draw, names=("x", "y")):
    nterms = draw(st.integers(0, 4))
    p = MultiPoly.zero()
    for _ in range(nterms):
        coeff = F(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
        exps = {n: draw(st.integers(0, 3)) for n in names}
        p = p + MultiPoly.monomial(coeff, exps)
    return p


@st.composite
def small_ratfuncs(draw):
    num = draw(small_polys())
    den = draw(small_polys())
    if den.is_zero():
        den = MultiPoly.const(1)
    return RatFunc(num, den)


class TestRatFunc:
    def test_normalize_examples(self):
        assert RatFunc(x ** 2 - 1, x - 1) == RatFunc.from_poly(x + 1)
        assert RatFunc(MultiPoly.zero(), x).is_zero()
        r = RatFunc(2 * x, MultiPoly.const(4))
        assert r.den == MultiPoly.const(1) and r.num == x * F(1, 2)

    def test_den_monic(self):
        r = RatFunc(x + 1, 3 * x - 6)
        _, lc = r.den.leading()
        assert lc == 1

    @settings(max_examples=60, deadline=None)
    @given(small_ratfuncs(), small_ratfuncs(), small_ratfuncs())
    def test_field_axioms(self, f, g, h):
        assert (f + g) * h == f * h + g * h
        if not f.is_zero():
            assert f * (RatFunc.one() / f) == RatFunc.one()

    @settings(max_examples=60, deadline=None)
    @given(small_polys(), small_polys())
    def test_partial_product_rule(self, p, q):
        lhs = (p * q).partial("x")
        rhs = p.partial("x") * q + p * q.partial("x")
        assert lhs == rhs

    @settings(max_examples=40, deadline=None)
    @given(small_polys(), small_polys(), st.integers(1, 7), st.integers(1, 5))
    def test_normalize_scaling_stable(self, num, den, a_num, a_den):
        if den.is_zero():
            den = MultiPoly.const(1)
        a = F(a_num, a_den)
        assert RatFunc(num * a, den * a) == RatFunc(num, den)

    def test_normalize_idempotent(self):
        r = RatFunc((x + 1) * (x - 2), (x - 2) * (x + 3))
        again = RatFunc(r.num, r.den)
        assert again == r


class TestGcdProperties:
    @settings(max_examples=40, deadline=None)
    @given(small_polys(), small_polys(), small_polys())
    def test_common_factor_recovered(self, f, g, h):
        if h.is_zero() or h.is_constant():
            h = MultiPoly.var("x") + 1
        d = poly_gcd(f * h, g * h)
        if f.is_zero() and g.is_zero():
            return
        # gcd(fh, gh) is divisible by h
        assert d.divexact(h.primitive()) is not None

    @settings(max_examples=40, deadline=None)
    @given(small_polys(), small_polys())
    def test_gcd_divides_both(self, f, g):
        d = poly_gcd(f, g)
        if not f.is_zero():
            assert f.divexact(d) is not None
        if not g.is_zero():
            assert g.divexact(d) is not None


class TestTextRoundTrip:
    def test_examples(self):
        p = 3 * x ** 2 * y - 2 * x + MultiPoly.const(F(1, 2))
        assert parse_poly(p.to_text()) == p
        assert parse_poly("0").is_zero()
        r = RatFunc(x ** 2 + 2 * x + 1, 2 * x + 2)
        assert parse_ratfunc(r.to_text()) == r

    @settings(max_examples=80, deadline=None)
    @given(small_polys())
    def test_poly_round_trip(self, p):
        assert parse_poly(p.to_text()) == p

    @settings(max_examples=60, deadline=None)
    @given(small_ratfuncs())
    def test_ratfunc_round_trip(self, r):
        assert parse_ratfunc(r.to_text()) == r


class TestFactoredFrac:
    def test_telescoping_sum(self):
        f1 = FactoredFrac.quotient(x + 1, x, 2)
        f2 = FactoredFrac.quotient(MultiPoly.const(-1), x, 1)
        f3 = FactoredFrac.quotient(MultiPoly.const(-1), x, 2)
        assert (f1 + f2 + f3).is_zero()

    def test_partial_matches_ratfunc(self):
        f = FactoredFrac.quotient(2 * x * (x - 1), x ** 2 + 5, 1)
        assert f.partial("x").to_ratfunc() == RatFunc(2 * x * (x - 1),
                                                      x ** 2 + 5).partial("x")

    @settings(max_examples=40, deadline=None)
    @given(small_polys(), st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                                             st.integers(-2, 2), st.integers(1, 3)),
                                   max_size=3),
           st.integers(0, 2))
    def test_linear_factors_reduce_without_gcd(self, num, facs, shared):
        # the gcd-free reduction must give the canonical form RatFunc gives
        den = {}
        for a, b, c, e in facs:
            if a or b:
                fac = a * x + b * y + c
                num = num * fac ** min(shared, e)
                den[fac] = den.get(fac, 0) + e
        f = FactoredFrac(num, den)
        assert f.to_ratfunc() == RatFunc(f.num, f.den_expanded())

    def test_reciprocal_and_cancel(self):
        f = FactoredFrac.quotient(x ** 2 - 1, x - 1, 1)
        g = f.cancel()
        assert not g.den and g.num == x + 1
        assert (f * f.reciprocal() - 1).is_zero()

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            FactoredFrac.quotient(x, MultiPoly.zero(), 1)
