from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from isolab.algebra import FactoredFrac, MultiPoly, RatFunc, binom, parse_ratfunc
from isolab.painleve import _binomial_sum
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


@st.composite
def small_polys_in(draw, names):
    """A sum of at most four integer monomials of degree <= 2 per variable."""
    out = MultiPoly.zero()
    for _ in range(draw(st.integers(1, 4))):
        powers = {v: draw(st.integers(0, 2)) for v in names}
        out = out + MultiPoly.monomial(draw(st.integers(-3, 3)), powers)
    return out


@st.composite
def pvi_candidates(draw):
    """(y, params): a random small y = N/D in x or in x and c with random
    rational params, or a theorem 5-8 solution, maybe shifted by a monomial."""
    rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
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

    def test_smallest_admissible(self):
        assert min(admissible_thm8_triples(8)) == (4, 1, 3)
        fam = thm8_family(4, 1, 3)
        assert fam.params == PVIParams(F(9, 2), F(-1, 2), F(2), F(0))
        assert pvi_residual(fam.y, fam.params).is_zero()
        for cv in (F(0), F(1), F(2)):
            yc = fam.specialize(cv)
            assert pvi_residual(yc, fam.params).is_zero()


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
        assert pvi_residual(y, params).to_text() == \
            reference_pvi_residual(y, params).to_text()


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
