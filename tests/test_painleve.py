from contextlib import contextmanager
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from isolab.algebra import (FactoredFrac, MultiPoly, RatFunc, binom,
                            parse_ratfunc, prove_zero)
from isolab.algebra.multipoly import _Bound, _box
from isolab.painleve import _binomial_sum, _pvi_numerator
from isolab.painleve import (PVIParams, ThetaTuple, admissible_thm8_triples,
                             coefficient_list, conjugate_momentum,
                             degenerate_parameter_check,
                             hamiltonian_system_residual, hypergeom_residual,
                             is_palindromic, linear_system_residual,
                             polynomial_triple, polynomial_zeros, pq_polynomials,
                             pvi_params, pvi_residual, rational_sextet,
                             thm5_solution, thm6_family, thm7_b1, thm7_b3,
                             thm7_solution, thm8_b_functions, thm8_family,
                             y_from_b)

x = MultiPoly.var("x")
c = MultiPoly.var("c")


def reference_pvi_residual(y, params):
    """PVI transcribed term by term in FactoredFrac: the reference for the
    fraction-free pvi_residual."""
    xf = FactoredFrac.var("x")
    yf = FactoredFrac.from_ratfunc(y)
    y1 = yf.partial("x")
    y2 = y1.partial("x")
    ym1 = yf - 1
    ymx = yf - xf
    inv_y = yf.reciprocal()
    inv_ym1 = ym1.reciprocal()
    inv_ymx = ymx.reciprocal()
    inv_x = xf.reciprocal()
    inv_xm1 = (xf - 1).reciprocal()
    A = (inv_y + inv_ym1 + inv_ymx) * F(1, 2)
    B = inv_x + inv_xm1 + inv_ymx
    lead = yf * ym1 * ymx * (inv_x * inv_xm1) ** 2
    bracket = (FactoredFrac.const(params.alpha)
               + params.beta * xf * inv_y * inv_y
               + params.gamma * (xf - 1) * inv_ym1 * inv_ym1
               + params.delta * xf * (xf - 1) * inv_ymx * inv_ymx)
    return (y2 - A * (y1 * y1) + B * y1 - lead * bracket).to_ratfunc()


def fraction_free_reference(y, params):
    """The fraction-free R = 0 identity of pvi_residual's docstring as
    MultiPoly products on y's own N and D and Fraction parameters, with no
    Kronecker image: the reference for the image route."""
    N, D = y.num, y.den
    Dx = D.partial("x")
    W = N.partial("x") * D - N * Dx
    V = W.partial("x") * D - 2 * W * Dx
    M1 = N - D
    Mx = N - x * D
    t = x * (x - 1)
    NM1, NMx, M1Mx = N * M1, N * Mx, M1 * Mx
    DD = D * D
    R = (NM1 * (2 * t * (t * Mx * V + D * W * ((2 * x - 1) * Mx + t * D))
                - 2 * (params.alpha * NM1 * Mx * Mx
                       + params.delta * t * DD * NM1))
         - t * t * W * W * (M1Mx + NMx + NM1)
         - 2 * DD * (params.beta * x * M1Mx * M1Mx
                     + params.gamma * (x - 1) * NMx * NMx))
    if R.is_zero():
        return RatFunc.zero()
    return RatFunc(R, 2 * D * DD * t * t * NM1 * Mx)


@st.composite
def small_polys_in(draw, names):
    """A sum of at most four integer monomials of degree <= 2 per variable."""
    out = MultiPoly.zero()
    for _ in range(draw(st.integers(1, 4))):
        powers = {v: draw(st.integers(0, 2)) for v in names}
        out = out + MultiPoly.monomial(draw(st.integers(-3, 3)), powers)
    return out


RATIONALS = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
NONZERO = st.integers(-5, 5).filter(bool)


@st.composite
def pvi_candidates(draw):
    """(y, params): a random small y = N/D in x or in x and c with random
    rational params, or a theorem 5-8 solution, maybe shifted by a monomial."""
    rationals = RATIONALS
    if draw(st.booleans()):
        fam = draw(st.sampled_from((
            lambda: thm5_solution(1), lambda: thm5_solution(2),
            lambda: thm6_family(-1), lambda: thm7_solution(1, F(1, 2), F(1, 3)),
            lambda: thm8_family(*admissible_thm8_triples(5)[0]))))()
        y, params = fam.y, fam.params
        if draw(st.booleans()):
            y = y + MultiPoly.monomial(draw(rationals), {"x": draw(st.integers(0, 2))})
    else:
        names = draw(st.sampled_from((("x",), ("c", "x"))))
        num, den = draw(small_polys_in(names)), draw(small_polys_in(names))
        assume(not den.is_zero())
        y = RatFunc(num, den)
        params = PVIParams(*(draw(rationals) for _ in range(4)))
    assume(y not in (RatFunc.zero(), RatFunc.one(), RatFunc.var("x")))
    return y, params


@st.composite
def dense_candidates(draw):
    """(y, params) with N and D of full support: a nonzero coefficient at
    every x^i c^j with i <= deg_x <= 8 and j <= deg_c <= 2."""
    dx, dc = draw(st.integers(0, 8)), draw(st.integers(0, 2))

    def full():
        return MultiPoly(("c", "x"), {(j, i): draw(NONZERO)
                                      for i in range(dx + 1)
                                      for j in range(dc + 1)})
    y = RatFunc(full(), full())
    assume(y.num.term_count() == y.den.term_count() == (dx + 1) * (dc + 1))
    assume(y not in (RatFunc.one(), RatFunc.var("x")))
    return y, PVIParams(*(draw(RATIONALS) for _ in range(4)))


@st.composite
def sparse_candidates(draw):
    """(y, params) with y = N/(x - 1), N two monomials of total degree
    20 to 24 in x and c."""
    def monomial():
        i = draw(st.integers(0, 24))
        j = draw(st.integers(max(0, 20 - i), 24 - i))
        return MultiPoly.monomial(draw(NONZERO), {"x": i, "c": j})
    y = RatFunc(monomial() + monomial(), x - 1)
    assume(y.num.term_count() == 2)
    return y, PVIParams(*(draw(RATIONALS) for _ in range(4)))


@contextmanager
def counted_images():
    """Count the MultiPoly.kronecker and MultiPoly.from_kronecker calls made
    inside the block: they show which route pvi_residual took."""
    calls = {"kronecker": 0, "from_kronecker": 0}
    kronecker, from_kronecker = MultiPoly.kronecker, MultiPoly.from_kronecker

    def counted_kronecker(self, *args):
        calls["kronecker"] += 1
        return kronecker(self, *args)

    def counted_from_kronecker(cls, *args):
        calls["from_kronecker"] += 1
        return from_kronecker(*args)
    MultiPoly.kronecker = counted_kronecker
    MultiPoly.from_kronecker = classmethod(counted_from_kronecker)
    try:
        yield calls
    finally:
        MultiPoly.kronecker = kronecker
        MultiPoly.from_kronecker = classmethod(from_kronecker.__func__)


class TestParameterMap:
    def test_examples(self):
        assert pvi_params(ThetaTuple.of(F(1, 6), F(1, 6), F(1, 6), F(-1, 2))) == \
            PVIParams(F(2), F(-1, 18), F(1, 18), F(4, 9))
        assert pvi_params(ThetaTuple.of(0, 0, 0, 0)) == \
            PVIParams(F(1, 2), F(0), F(0), F(1, 2))
        assert pvi_params(ThetaTuple.of(F(-1, 2), F(-1, 2), F(-1, 2), F(3, 2))) == \
            PVIParams(F(2), F(-1, 2), F(1, 2), F(0))


class TestYFromB:
    def test_worked_triple(self):
        got = y_from_b(RatFunc.from_poly((x + 1) * F(1, 3)),
                       RatFunc.from_poly((-2 * x + 1) * F(1, 3)))
        assert got == RatFunc(x * (x + 1), 2 * (x ** 2 - x + 1))

    def test_constant_pair(self):
        got = y_from_b(RatFunc.one(), RatFunc.one())
        assert got == RatFunc(x, 2 - x)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            y_from_b(RatFunc.from_poly(x - 1), RatFunc.one())


class TestLinearAndHypergeometric:
    def test_polynomial_triple_n1(self):
        th = ThetaTuple.of(F(1, 6), F(1, 6), F(1, 6), F(-1, 2))
        b1, b2, b3 = polynomial_triple(1)
        r1, r2 = linear_system_residual(b1, b2, th)
        assert r1.is_zero() and r2.is_zero()
        assert hypergeom_residual(b1, 1, th).is_zero()
        assert hypergeom_residual(b2, 2, th).is_zero()

    def test_zero_pair(self):
        th = ThetaTuple.of(F(1, 2), F(1, 3), F(1, 5), F(-31, 30))
        r1, r2 = linear_system_residual(RatFunc.zero(), RatFunc.zero(), th)
        assert r1.is_zero() and r2.is_zero()

    def test_rational_pair(self):
        th = ThetaTuple.of(F(-1, 2), F(-1, 2), F(-1, 2), F(3, 2))
        s = rational_sextet(-1)
        r1, r2 = linear_system_residual(s["b1"], s["b2"], th)
        assert r1.is_zero() and r2.is_zero()
        assert hypergeom_residual(s["tb1"], 1, th).is_zero()
        assert not hypergeom_residual(RatFunc.one(), 1,
                                      ThetaTuple.of(F(1, 6), F(1, 6), F(1, 6),
                                                    F(-1, 2))).is_zero()


class TestIsolatedFamily:
    def test_printed_triples(self):
        want = {
            1: ((x + 1) * F(1, 3), (x - 2) * F(1, 3), (-2 * x + 1) * F(1, 3)),
            2: ((x ** 2 - 4 * x + 1) * F(1, 9), (x ** 2 + 2 * x - 2) * F(1, 9),
                (-2 * x ** 2 + 2 * x + 1) * F(1, 9)),
            4: ((5 * x ** 4 - 16 * x ** 3 + 12 * x ** 2 - 16 * x + 5) * F(-1, 243),
                (5 * x ** 4 - 4 * x ** 3 - 6 * x ** 2 + 20 * x - 10) * F(-1, 243),
                (-10 * x ** 4 + 20 * x ** 3 - 6 * x ** 2 - 4 * x + 5) * F(-1, 243)),
        }
        for n, (w1, w2, w3) in want.items():
            b1, b2, b3 = polynomial_triple(n)
            assert (b1, b2, b3) == (w1, w2, w3)
            assert (b1 + b2 + b3).is_zero()   # b3 = -b1 - b2

    def test_printed_y(self):
        f1 = thm5_solution(1)
        assert f1.y == RatFunc(x * (x + 1), 2 * (x ** 2 - x + 1))
        assert f1.params == PVIParams(F(2), F(-1, 18), F(1, 18), F(4, 9))
        f2 = thm5_solution(2)
        assert f2.y == RatFunc(x * (x ** 2 - 4 * x + 1),
                               2 * x ** 3 - 3 * x ** 2 - 3 * x + 2)
        f4 = thm5_solution(4)
        assert f4.y == RatFunc(
            x * (5 * x ** 4 - 16 * x ** 3 + 12 * x ** 2 - 16 * x + 5),
            10 * x ** 5 - 25 * x ** 4 + 10 * x ** 3 + 10 * x ** 2 - 25 * x + 10)

    def test_rejects_multiples_of_three(self):
        for bad in (3, 6, -1, 0):
            with pytest.raises(ValueError):
                thm5_solution(bad)

    def test_residuals(self):
        for n in (1, 2, 4, 5):
            f = thm5_solution(n)
            assert pvi_residual(f.y, f.params).is_zero()
            assert f.theta.triangular_sum() == 0
            assert f.theta.beta_inf == F(-n, 2)


class TestOneParameterFamily:
    def test_printed_sextet(self):
        s = rational_sextet(-1)
        assert s["b1"] == parse_ratfunc("(x + 1)/(x^2)")
        assert s["b2"] == parse_ratfunc("(-1)/(x)")
        assert s["b3"] == parse_ratfunc("(-1)/(x^2)")
        assert s["tb1"] == RatFunc(MultiPoly.const(1), 1 - x)
        assert s["tb2"] == RatFunc(x - 2, (1 - x) ** 2)
        assert s["tb3"] == RatFunc(MultiPoly.const(1), (1 - x) ** 2)
        s2 = rational_sextet(-2)
        assert s2["b1"] == RatFunc(3 + 4 * x + 3 * x ** 2, x ** 4)
        assert s2["tb2"] == RatFunc(10 - 10 * x + 3 * x ** 2, (1 - x) ** 4)

    def test_printed_families(self):
        want = {
            -1: RatFunc((1 - c) * x ** 2 + c, 2 * ((1 - c) * x + c)),
            -2: RatFunc((1 - c) * x ** 4 * (3 * x - 5) + c * (3 - 5 * x),
                        5 * ((1 - c) * x ** 3 * (x - 2) + c * (1 - 2 * x))),
            -3: RatFunc((1 - c) * x ** 6 * (14 - 16 * x + 5 * x ** 2)
                        + c * (5 - 16 * x + 14 * x ** 2),
                        4 * ((1 - c) * x ** 5 * (7 - 7 * x + 2 * x ** 2)
                             + c * (2 - 7 * x + 7 * x ** 2))),
        }
        for n, w in want.items():
            fam = thm6_family(n)
            assert fam.y == w
            assert fam.params.alpha == F((3 * n + 1) ** 2, 2)

    def test_family_residual_symbolic_and_sampled(self):
        fam = thm6_family(-1)
        assert pvi_residual(fam.y, fam.params).is_zero()
        for cv in (F(1, 2), F(3), F(-2)):
            assert pvi_residual(fam.specialize(cv), fam.params).is_zero()


class TestBinomialSums:
    def test_against_term_by_term_sums(self):
        cases = [(F(1, 3), F(-2, 3), 5), (-3, -4, 3), (2, -1, 4), (F(5, 2), 0, 0),
                 (-1, F(7, 4), 6), (3, 3, -1)]
        for alpha, beta, top in cases:
            for t in (x, 1 - x):
                want = MultiPoly.zero()
                for j in range(top + 1):
                    want = want + t ** j * (binom(alpha, j) * binom(beta, top - j))
                got = _binomial_sum(alpha, beta, top, shifted=t is not x)
                assert got == want, (alpha, beta, top, t)

    def test_pq_is_the_theorem7_pair(self):
        for n in (1, 2, 4, 5, 7, 8, 10, 11, 13):
            q = F(n, 3)
            P, Q = pq_polynomials(n)
            assert P.total_degree() == Q.total_degree() == n + 1
            assert thm7_solution(n, -q, 1 - 2 * q).y == RatFunc(P, Q)


class TestParametrizedPolynomialFamily:
    def test_specializes_to_isolated(self):
        assert thm7_solution(1, F(-1, 3), F(1, 3)).y == thm5_solution(1).y

    def test_degenerate_linear_case(self):
        b1 = thm7_b1(1, F(0), F(2))
        b3 = thm7_b3(1, F(0), F(2))
        assert b1 == MultiPoly.const(2) and b3.is_zero()
        y = y_from_b(RatFunc.from_poly(b1), b3)
        assert y == RatFunc.var("x")
        fam = thm7_solution(1, F(0), F(2))
        assert fam.params.delta == F(1, 2)
        assert degenerate_parameter_check("x", fam.params)

    def test_excluded_parameters(self):
        with pytest.raises(ValueError):
            thm7_solution(3, F(1, 2), F(-2))
        with pytest.raises(ValueError):
            thm7_solution(2, F(1, 3), F(4, 3))  # c = b + 1

    def test_reciprocity_when_constraint_holds(self):
        # c + n - 1 = -b makes b1 and Q palindromic
        n, b = 4, F(2, 5)
        cpar = 1 - n - b
        fam = thm7_solution(n, b, cpar)
        assert is_palindromic(coefficient_list(thm7_b1(n, b, cpar)))
        assert is_palindromic(coefficient_list(fam.y.den))

    def test_residual(self):
        f = thm7_solution(3, F(2, 7), F(1, 2))
        assert pvi_residual(f.y, f.params).is_zero()


class TestIntegerRationalFamily:
    def test_inequality_rejections(self):
        with pytest.raises(ValueError):
            thm8_family(2, 1, 2)      # a > c fails
        with pytest.raises(ValueError):
            thm8_family(4, 1, 2)      # b < c - 1 fails (printed example defect)
        with pytest.raises(ValueError):
            thm8_family(4, 0, 3)      # b >= 1 fails

    def test_eq_level_specialization(self):
        b1, b3, tb1, tb3 = thm8_b_functions(3, 1, 3)
        cpar = RatFunc.var("c")
        y8 = y_from_b(cpar * b1 + tb1, cpar * b3 + tb3)
        flip = y8.substitute("c", RatFunc(-c, MultiPoly.const(1)))
        assert flip == thm6_family(-1).y

    def test_thm6_by_the_thm8_route(self):
        # theorem 6 at n = -k is theorem 8 at (3k, k, 2k + 1) with c -> s c,
        # s = (-1)^k; theorem 8 derives b3 from b1, so each printed b3 sum
        # of the sextet is checked against b1 by the first-order relation
        cpar = FactoredFrac.var("c")
        for n in range(-1, -8, -1):
            k = -n
            b1, b3, tb1, tb3 = thm8_b_functions(3 * k, k, 2 * k + 1)
            s = (-1) ** k
            fam = thm6_family(n)
            assert fam.y == y_from_b(s * cpar * b1 + tb1, s * cpar * b3 + tb3), n
            if k >= 2:
                assert fam.theta == thm8_family(3 * k, k, 2 * k + 1).theta, n

    def test_smallest_admissible(self):
        assert min(admissible_thm8_triples(8)) == (4, 1, 3)
        fam = thm8_family(4, 1, 3)
        assert fam.params == PVIParams(F(9, 2), F(-1, 2), F(2), F(0))
        assert pvi_residual(fam.y, fam.params).is_zero()
        for cv in (F(0), F(1), F(2)):
            yc = fam.specialize(cv)
            assert pvi_residual(yc, fam.params).is_zero()


def reference_b3_from_b1(b1, b, c):
    """b3 = -(x b1' + b b1)/(1 + b - c), canonicalised: the reference for
    the factored _b3_from_b1."""
    b1 = FactoredFrac._coerce(b1)
    xf = FactoredFrac.var("x")
    return (-(xf * b1.partial("x") + b * b1) / (1 + b - c)).to_ratfunc()


def reference_sextet(n):
    """The theorem 6 sextet with each block a RatFunc reduced by a gcd."""
    k = -n
    sign = F((-1) ** k)

    def pair(alpha, beta, top, pole):
        return (RatFunc(_binomial_sum(alpha, beta, top) * sign, x ** pole),
                RatFunc(_binomial_sum(alpha, beta, top, shifted=True),
                        (1 - x) ** pole))

    b1, tb2 = pair(-k, -k, k, 2 * k)
    b2, tb1 = pair(-k - 1, -k, k - 1, 2 * k - 1)
    b3, tb3 = pair(-k, -k - 1, k - 1, 2 * k)
    return {"b1": b1, "b2": b2, "b3": b3, "tb1": tb1, "tb2": tb2, "tb3": tb3}


def reference_thm8_b_functions(a, b, c):
    """The theorem 8 blocks (b1, b3, tb1, tb3) as RatFuncs reduced by a gcd."""
    b1 = RatFunc(_binomial_sum(c - a - 1, -b, c - b - 1), x ** (c - 1))
    tb1 = RatFunc(_binomial_sum(b - c, -b, a - c, shifted=True),
                  (1 - x) ** (a + b - c))
    return (b1, reference_b3_from_b1(b1, b, c), tb1,
            reference_b3_from_b1(tb1, b, c))


class TestFactoredBlocks:
    """The PVI blocks are factored over x and x - 1; a family is
    canonicalised once, at y."""

    def test_one_normalisation_per_family(self, monkeypatch):
        calls = []
        init = RatFunc.__init__

        def counting(self, num, den=None, _normalized=False):
            if not _normalized:
                calls.append(1)
            init(self, num, den, _normalized)
        monkeypatch.setattr(RatFunc, "__init__", counting)
        families = [thm6_family(n) for n in range(-1, -6, -1)]
        families += [thm8_family(*t) for t in admissible_thm8_triples(7)]
        assert len(families) == 25
        assert len(calls) == 25

    def test_thm6_matches_the_reference(self):
        cf = FactoredFrac.var("c")
        for n in range(-1, -8, -1):
            ref = reference_sextet(n)
            assert rational_sextet(n) == ref, n
            y = y_from_b(cf * ref["b1"] + ref["tb1"], cf * ref["b3"] + ref["tb3"])
            assert thm6_family(n).y.to_text() == y.to_text(), n

    def test_thm8_matches_the_reference(self):
        cf = FactoredFrac.var("c")
        for a, b, cc in admissible_thm8_triples(9):
            ref = reference_thm8_b_functions(a, b, cc)
            got = thm8_b_functions(a, b, cc)
            assert list(got) == list(ref), (a, b, cc)
            b1, b3, tb1, tb3 = ref
            y = y_from_b(cf * b1 + tb1, cf * b3 + tb3)
            assert thm8_family(a, b, cc).y.to_text() == y.to_text(), (a, b, cc)

    def test_thm7_b3_matches_the_reference(self):
        for n, b, cc in [(1, F(0), F(2)), (2, F(1, 3), F(1, 2)),
                         (4, F(-2, 5), F(3)), (5, F(2, 7), F(-7, 3))]:
            want = reference_b3_from_b1(RatFunc.from_poly(thm7_b1(n, b, cc)),
                                        b, cc)
            assert thm7_b3(n, b, cc) == want, (n, b, cc)


class TestResidualGuards:
    def test_degenerate_candidates_rejected(self):
        p = PVIParams(F(1, 2), F(0), F(0), F(1, 2))
        for bad in (RatFunc.zero(), RatFunc.one(), RatFunc.var("x")):
            with pytest.raises(ValueError):
                pvi_residual(bad, p)

    def test_degenerate_table(self):
        assert degenerate_parameter_check("x", PVIParams(F(1), F(0), F(0), F(1, 2)))
        assert not degenerate_parameter_check("0", PVIParams(F(1), F(1), F(0), F(0)))
        with pytest.raises(ValueError):
            degenerate_parameter_check("q", PVIParams(F(1), F(0), F(0), F(0)))

    def test_nonsolution_detected(self):
        f = thm5_solution(1)
        wrong = PVIParams(f.params.alpha + 1, f.params.beta, f.params.gamma,
                          f.params.delta)
        assert not pvi_residual(f.y, wrong).is_zero()

    @settings(max_examples=60, deadline=None)
    @given(pvi_candidates())
    def test_matches_factored_transcription(self, case):
        y, params = case
        got = pvi_residual(y, params).to_text()
        assert got == reference_pvi_residual(y, params).to_text()
        assert got == fraction_free_reference(y, params).to_text()


class TestKroneckerImage:
    """pvi_residual's Kronecker route: which inputs take it, and that its
    bounds hold."""

    @settings(max_examples=30, deadline=None)
    @given(dense_candidates())
    def test_dense_candidates_take_the_image(self, case):
        y, params = case
        with counted_images() as calls:
            got = pvi_residual(y, params)
        assert calls["kronecker"] > 0
        assert calls["from_kronecker"] == (0 if got.is_zero() else 1)
        assert got.to_text() == fraction_free_reference(y, params).to_text()

    @settings(max_examples=15, deadline=None)
    @given(sparse_candidates())
    def test_sparse_candidates_keep_the_polynomial_route(self, case):
        y, params = case
        with counted_images() as calls:
            got = pvi_residual(y, params)
        assert calls == {"kronecker": 0, "from_kronecker": 0}
        assert got.to_text() == fraction_free_reference(y, params).to_text()

    def test_families_take_the_image(self):
        fams = [thm5_solution(1), thm5_solution(7), thm6_family(-3),
                thm7_solution(4, F(2, 7), F(1, 2)), thm8_family(7, 1, 3)]
        for fam in fams:
            for y in (fam.y, fam.specialize(F(-5, 3))):
                with counted_images() as calls:
                    assert pvi_residual(y, fam.params).is_zero()
                assert calls["kronecker"] > 0 and calls["from_kronecker"] == 0
            with counted_images() as calls:
                shifted = pvi_residual(fam.y + x ** 2, fam.params)
            assert calls["from_kronecker"] == 1
            assert shifted.to_text() == \
                fraction_free_reference(fam.y + x ** 2, fam.params).to_text()

    @settings(max_examples=60, deadline=None)
    @given(small_polys_in(("c", "x")), small_polys_in(("c", "x")),
           st.lists(RATIONALS, min_size=4, max_size=4), st.integers(1, 10 ** 6))
    def test_norm_bound_covers_every_coefficient(self, N, D, ps, scale):
        # L R on integer N and D, and the same formula on 1-norm bounds
        N, D = N * scale, D + 7 * scale * x
        assume(not N.is_zero() and not D.is_zero())
        L = lcm(*(p.denominator for p in ps))
        A, B, G, E = (int(p * L) for p in ps)
        polys = [N, N.partial("x"), N.partial("x").partial("x"),
                 D, D.partial("x"), D.partial("x").partial("x")]
        R = _pvi_numerator(*polys, x, x - 1, x * (x - 1), 2 * x - 1,
                           L, A, B, G, E)
        bound = _pvi_numerator(*map(_Bound.of, polys), _Bound.of(x),
                               _Bound.of(x - 1), _Bound.of(x * (x - 1)),
                               _Bound.of(2 * x - 1), L, A, B, G, E)
        assert type(bound) is _Bound
        norm1 = sum(abs(c) for _, c in R.terms())
        assert max((abs(c) for _, c in R.terms()), default=0) <= norm1 \
            <= bound.norm

    @settings(max_examples=60, deadline=None)
    @given(small_polys_in(("c", "x")), small_polys_in(("c", "x")),
           st.lists(RATIONALS, min_size=4, max_size=4))
    def test_box_holds_every_degree(self, N, D, ps):
        # the box that prove_zero computes from _pvi_numerator holds L R in
        # every variable, and the image read back is L R itself
        assume(not N.is_zero() and not D.is_zero())
        L = lcm(*(p.denominator for p in ps))
        scalars = (L, *(int(p * L) for p in ps))
        polys = (N, N.partial("x"), N.partial("x").partial("x"),
                 D, D.partial("x"), D.partial("x").partial("x"),
                 x, x - 1, x * (x - 1), 2 * x - 1)
        R = _pvi_numerator(*polys, *scalars)
        names, degrees, _ = _box(_pvi_numerator, polys, scalars)
        assert set(R.vars) <= set(names)
        for v, d in zip(names, degrees):
            assert R.degree_in(v) <= d, (v, d)
        assert prove_zero(_pvi_numerator, polys, scalars) == R

    def test_huge_contents(self):
        big = F(10 ** 40, 7)
        fam = thm6_family(-2)
        y = fam.specialize(big)
        assert y.num.content().denominator > 10 ** 39
        with counted_images() as calls:
            assert pvi_residual(y, fam.params).is_zero()
        assert calls["kronecker"] > 0
        y = RatFunc(big * (x ** 3 - 2 * x + 5), x ** 2 + x / big - 3)
        assert (y.num.content(), y.den.content()) == (big, 1 / big / 7)
        params = PVIParams(F(1, 3), F(-2, 7), big, F(1, 2))
        with counted_images() as calls:
            got = pvi_residual(y, params).to_text()
        assert calls["from_kronecker"] == 1
        assert got == reference_pvi_residual(y, params).to_text()
        assert got == fraction_free_reference(y, params).to_text()


class TestMomentum:
    def test_hamiltonian_consistency(self):
        fam = thm5_solution(2)
        p = conjugate_momentum(fam.y, fam.theta)
        r1, r2 = hamiltonian_system_residual(fam.y, p, fam.theta)
        assert r1.is_zero() and r2.is_zero()

    def test_y_equals_x_cancellation(self):
        theta = ThetaTuple.of(F(1, 3), F(1, 4), F(0), F(-7, 12))
        p = conjugate_momentum(RatFunc.var("x"), theta)
        xr = RatFunc.var("x")
        assert p == theta.beta1 / xr + theta.beta2 / (xr - 1)


class TestHamiltonianCrossRoute:
    """The first-order system is an independent formulation; every family
    must satisfy it with the momentum solved from its first equation."""

    def test_parametrized_polynomial_family(self):
        fam = thm7_solution(2, F(-1, 3), F(3, 4))
        p = conjugate_momentum(fam.y, fam.theta)
        r1, r2 = hamiltonian_system_residual(fam.y, p, fam.theta)
        assert r1.is_zero() and r2.is_zero()

    def test_integer_rational_family_symbolic_c(self):
        fam = thm8_family(5, 2, 4)
        p = conjugate_momentum(fam.y, fam.theta)
        r1, r2 = hamiltonian_system_residual(fam.y, p, fam.theta)
        assert r1.is_zero() and r2.is_zero()

    def test_one_parameter_family_symbolic_c(self):
        fam = thm6_family(-2)
        p = conjugate_momentum(fam.y, fam.theta)
        r1, r2 = hamiltonian_system_residual(fam.y, p, fam.theta)
        assert r1.is_zero() and r2.is_zero()


class TestZeros:
    def test_q2_roots_on_unit_circle(self):
        _, Q2 = pq_polynomials(1)
        rep = polynomial_zeros(Q2)
        assert rep.degree == 2
        import math
        want = [complex(math.cos(math.pi / 3), -math.sin(math.pi / 3)),
                complex(math.cos(math.pi / 3), math.sin(math.pi / 3))]
        for got, w in zip(rep.roots, want):
            assert abs(got - w) < 1e-10
        assert all(abs(abs(z) - 1) < 1e-10 for z in rep.roots)

    def test_p2_roots(self):
        P2, _ = pq_polynomials(1)
        rep = polynomial_zeros(P2)
        assert sorted([round(z.real) for z in rep.roots]) == [-1, 0]

    def test_palindromes_small(self):
        for n in (1, 2, 4, 5, 7, 8):
            b1, _, _ = polynomial_triple(n)
            _, Q = pq_polynomials(n)
            assert is_palindromic(coefficient_list(b1))
            assert is_palindromic(coefficient_list(Q))

    def test_symmetry_reports(self):
        P, Q = pq_polynomials(7)
        for poly in (P, Q):
            rep = polynomial_zeros(poly)
            assert rep.all_conj_paired()
            assert rep.all_inversion_paired()

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            polynomial_zeros(MultiPoly.zero())


def reference_zeros(p, tol=1e-8):
    """The scalar polish and pairing loop that polynomial_zeros replaced:
    (roots, conj_paired, inversion_paired)."""
    import numpy as np
    coeffs = coefficient_list(p)
    while coeffs[-1] == 0:
        coeffs.pop()
    arr = np.array([float(c) for c in reversed(coeffs)], dtype=float)
    dp = np.polyder(arr)
    polished = []
    for r in np.roots(arr):
        fr = np.polyval(arr, r)
        fpr = np.polyval(dp, r)
        if fpr != 0:
            r = r - fr / fpr
        polished.append(complex(r))
    polished.sort(key=lambda z: (z.real, z.imag))
    conj_ok = []
    inv_ok = []
    for z in polished:
        conj_ok.append(min(abs(w - z.conjugate()) for w in polished) < tol)
        if abs(z) < tol:
            inv_ok.append(True)
        else:
            target = 1 / z.conjugate()
            inv_ok.append(min(abs(w - target) for w in polished)
                          < tol * max(1.0, abs(target)))
    return polished, conj_ok, inv_ok


def _zeros_cases():
    from isolab.painleve import _thm7_check_params, _thm7_pq
    for n in range(1, 81):
        if n % 3:
            P, Q = pq_polynomials(n)
            yield f"thm5 P n={n}", P
            yield f"thm5 Q n={n}", Q
    for n, b, c in ((9, F(1, 3), F(1, 4)), (9, F(-2, 5), F(3, 7)),
                    (9, F(5, 2), F(-1, 3)), (2, F(-3), F(-3))):
        P, Q = _thm7_pq(n, *_thm7_check_params(n, b, c))
        yield f"thm7 P n={n} b={b} c={c}", P
        yield f"thm7 Q n={n} b={b} c={c}", Q


class TestZerosAgainstScalarLoop:
    """The array polish and n x n pairing give the scalar loop's roots bit
    for bit and its pairing flags, double roots and lost pairings included."""

    def test_bit_identical(self):
        for label, poly in _zeros_cases():
            rep = polynomial_zeros(poly)
            roots, conj_ok, inv_ok = reference_zeros(poly)
            assert [repr(z) for z in rep.roots] == [repr(z) for z in roots], label
            assert rep.conj_paired == conj_ok, label
            assert rep.inversion_paired == inv_ok, label
            assert all(type(f) is bool for f in rep.conj_paired
                       + rep.inversion_paired), label
