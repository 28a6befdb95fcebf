import itertools
import random
import re
from fractions import Fraction as F
from math import isfinite

import pytest
from hypothesis import given, settings, strategies as st

from isolab.algebra import FactoredFrac, MultiPoly, RatFunc
from isolab.schlesinger import build_polynomial_solution, build_rational_solution
from isolab.garnier import (GarnierAlgebraicSolution, GarnierSpec, HypothesisError,
                            check_m2_inputs, garnier_residual_m2, pm_polynomial,
                            residue_basis_vector, theta_from_eps, thm10_solution,
                            thm11_family, u_roots, v_momenta)

a1 = MultiPoly.var("a1")
a2 = MultiPoly.var("a2")


class TestPmPolynomial:
    def test_structure_matches_display(self):
        s = thm10_solution(2, 2, 1)
        pm = s.pm_coefficients()
        ra1, ra2 = RatFunc.var("a1"), RatFunc.var("a2")
        b = s.b
        assert len(pm) == 3
        assert pm[2] == b[3] + ra1 * b[0] + ra2 * b[1]
        assert pm[1] == (ra1 * ra2 * (b[2] + b[3]) + ra1 * (b[1] + b[2])
                         + ra2 * (b[0] + b[2]))
        assert pm[0] == -ra1 * ra2 * b[2]

    def test_zero_vector(self):
        out = pm_polynomial([RatFunc.zero()] * 4,
                            [RatFunc.var("a1"), RatFunc.var("a2"),
                             RatFunc.const(0), RatFunc.const(1)])
        assert all(c.is_zero() for c in out)

    def test_sum_violation_rejected(self):
        with pytest.raises(ValueError):
            pm_polynomial([RatFunc.one()] * 4,
                          [RatFunc.var("a1"), RatFunc.var("a2"),
                           RatFunc.const(0), RatFunc.const(1)])


class TestPmCache:
    def test_built_once_per_solution(self, monkeypatch):
        import isolab.garnier as garnier
        calls = []

        def counting(b, poles):
            calls.append(1)
            return pm_polynomial(b, poles)
        monkeypatch.setattr(garnier, "pm_polynomial", counting)
        s = thm10_solution(2, 2, 1)
        for eps in itertools.product((1, -1), repeat=4):
            assert garnier_residual_m2(s, (2.0, 3.5), eps) < 1e-6
        assert len(calls) == 1

    def test_returned_list_is_a_copy(self):
        s = thm10_solution(2, 4, 1)
        first = s.pm_coefficients()
        want = list(first)
        first[0] = RatFunc.const(99)
        first.append(RatFunc.one())
        assert s.pm_coefficients() == want

    def test_rational_family_golden_text(self):
        den = ("a1^3*a2^2 - a1^2*a2^3 - a1^3*a2 + a1*a2^3 + a1^2*a2"
               " - a1*a2^2")
        want = [
            f"(a1^3*a2^2 - a1^2*a2^3 - 2*a1^3 - a2^3 + 2*a1^2 + a2^2)/({den})",
            f"(-2*a1^3*a2 + 2*a1*a2^3 + 4*a1^3 + 2*a2^3 - 4*a1 - 2*a2)/({den})",
            f"(3*a1^2*a2 - 3*a1*a2^2 - 6*a1^2 - 3*a2^2 + 6*a1 + 3*a2)/({den})",
        ]
        fam = thm11_family(2, -1, [F(2), F(-1)])
        assert [c.to_text() for c in fam.pm_coefficients()] == want

    def test_rational_pole_rejected(self):
        ra1 = RatFunc.var("a1")
        with pytest.raises(ValueError):
            pm_polynomial([RatFunc.zero()] * 4,
                          [1 / ra1, RatFunc.var("a2"), RatFunc.const(0),
                           RatFunc.const(1)])


class TestPolynomialSolutions:
    def test_case1_printed(self):
        s = thm10_solution(2, 2, 1)
        printed = [3 * a1 ** 2 - 2 * a1 * a2 - a2 ** 2 - 2 * a1 + 2 * a2 - 1,
                   3 * a2 ** 2 - 2 * a1 * a2 - a1 ** 2 + 2 * a1 - 2 * a2 - 1,
                   -a1 ** 2 + 2 * a1 * a2 - a2 ** 2 + 2 * a1 + 2 * a2 - 1,
                   -a1 ** 2 + 2 * a1 * a2 - a2 ** 2 - 2 * a1 - 2 * a2 + 3]
        for bi, pi in zip(s.b, printed):
            assert bi == RatFunc.from_poly(pi) * F(1, 8)
        assert s.sum_b().is_zero()

    def test_case2_printed(self):
        s = thm10_solution(2, 4, 1)
        printed = [-3 * a1 + a2 + 1, a1 - 3 * a2 + 1, a1 + a2 + 1, a1 + a2 - 3]
        for bi, pi in zip(s.b, printed):
            assert bi == RatFunc.from_poly(pi) * F(1, 4)

    def test_divisibility_rejected(self):
        with pytest.raises(HypothesisError):
            thm10_solution(2, 3, 1)

    def test_degree_in_a(self):
        # entries have total degree M1 * n
        for (M, m, n) in [(2, 2, 1), (2, 4, 1), (4, 2, 1), (4, 3, 1), (3, 5, 2)]:
            s = thm10_solution(M, m, n)
            M1 = (M + 2) // m
            assert s.b[0].num.total_degree() == M1 * n
            assert s.sum_b().is_zero()

    def test_schlesinger_class_entry_at_zero_and_one(self):
        # b_i is the 2 x 2 polynomial-family entry with N = M + 2 poles,
        # the last two put at 0 and 1
        for (M, m, n) in [(2, 2, 1), (2, 4, 1), (2, 2, 3), (2, 4, 3),
                          (1, 3, 2), (4, 3, 1), (3, 5, 2)]:
            sol = build_polynomial_solution(2, M + 2, m, n)
            last = sol.frame.variables[M:]
            for i, bi in enumerate(thm10_solution(M, m, n).b, 1):
                entry = sol.entry_ratfunc(i, 1, 2)
                assert entry.substitute(last[0], F(0)).substitute(
                    last[1], F(1)) == bi, (M, m, n, i)


class TestRationalSolutions:
    def test_basis_vectors_printed(self):
        ra1, ra2 = RatFunc.var("a1"), RatFunc.var("a2")
        v1 = residue_basis_vector(2, -1, 1)
        assert v1[1] == 1 / ((ra1 - ra2) ** 2 * ra1 * (ra1 - 1))
        assert v1[2] == 1 / ((ra1 - ra2) * ra1 ** 2 * (ra1 - 1))
        assert v1[3] == 1 / ((ra1 - ra2) * ra1 * (ra1 - 1) ** 2)
        assert v1[0] == -(v1[1] + v1[2] + v1[3])
        v3 = residue_basis_vector(2, -1, 3)
        assert v3[0] == 1 / (ra1 ** 2 * ra2)
        assert v3[1] == 1 / (ra2 ** 2 * ra1)
        assert v3[2] == RatFunc(-(a1 * a2 + a1 + a2), a1 ** 2 * a2 ** 2)
        assert v3[3] == 1 / (ra1 * ra2)

    def test_each_basis_vector_sums_to_zero(self):
        for j in (1, 2, 3):
            vec = residue_basis_vector(2, -1, j)
            total = RatFunc.zero()
            for r in vec:
                total = total + r
            assert total.is_zero()

    def test_family_combination(self):
        fam = thm11_family(2, -1, [F(2), F(-1)])
        assert fam.sum_b().is_zero()
        basis = [residue_basis_vector(2, -1, j) for j in (1, 2, 3)]
        assert fam.b[1] == 2 * basis[0][1] - basis[1][1] + basis[2][1]


def reference_residue_basis_vector(M, n, j):
    """The basis vector through the Schlesinger solution: the 2 x 2 rational
    family with M + 2 poles around pole j, each entry converted to
    a_1..a_{M+2} and the last two poles put at 0 and 1."""
    sol = build_rational_solution(2, M + 2, 1, n, nu=j)
    names = sol.frame.variables
    return [sol.entry_ratfunc(i, 1, 2).substitute(names[M], F(0))
            .substitute(names[M + 1], F(1)) for i in range(1, M + 3)]


def reference_thm11_family(M, n, coefficients):
    """thm11_family's combination of the reference basis vectors."""
    basis = [reference_residue_basis_vector(M, n, j) for j in range(1, M + 2)]
    b = []
    for i in range(M + 2):
        acc = FactoredFrac._coerce(basis[M][i])
        for c, vec in zip(coefficients, basis[:M]):
            acc = acc + c * vec[i]
        b.append(acc.to_ratfunc())
    fam = thm11_family(M, n, coefficients)
    return GarnierAlgebraicSolution(M=M, b=b, betas=fam.betas,
                                    beta_inf=fam.beta_inf)


def reference_sum_b(b):
    """sum_i b_i summed in FactoredFrac, one factor per denominator."""
    out = FactoredFrac.zero()
    for bi in b:
        out = out + bi
    return out.to_ratfunc()


class TestAgainstReference:
    def test_basis_vectors(self):
        cases = 0
        for M in (1, 2, 3):
            for n in (-1, -2, -3):
                for j in range(1, M + 2):
                    got = residue_basis_vector(M, n, j)
                    want = reference_residue_basis_vector(M, n, j)
                    assert len(got) == len(want) == M + 2
                    for g, w in zip(got, want):
                        assert g.num == w.num and g.den == w.den, (M, n, j)
                        cases += 1
        assert cases == 114

    def test_sum_b(self):
        fams = [thm10_solution(2, 2, 1), thm10_solution(4, 3, 1),
                thm11_family(2, -1, [F(2), F(-1)]),
                thm11_family(2, -2, [F(1), F(1)]),
                thm11_family(3, -1, [F(1), F(2), F(-1)])]
        bumps = [RatFunc.var("a1"), 1 / (RatFunc.var("a1") - 3),
                 RatFunc.var("a2") / (RatFunc.var("a1") - 1) ** 2]
        for fam in fams:
            for b in [fam.b] + [[fam.b[0] + e] + fam.b[1:] for e in bumps]:
                got = GarnierAlgebraicSolution(
                    M=fam.M, b=b, betas=fam.betas, beta_inf=fam.beta_inf).sum_b()
                want = reference_sum_b(b)
                assert got.num == want.num and got.den == want.den
                assert got.is_zero() == (b is fam.b)

    def test_float_order(self):
        # the Garnier floats read the term order of P_M: the benchmark's
        # theorem 11 families give the same reprs from either basis
        points = [(2.0, 3.5), (-1.5, 2.25), (1.3, 2.1), (2.5, -1.25),
                  (-0.8 + 0.3j, 1.7 - 0.2j)]
        for n, cs in ((-1, [F(1), F(1)]), (-1, [F(2), F(-1)]),
                      (-2, [F(1), F(1)])):
            fam = thm11_family(2, n, cs)
            ref = reference_thm11_family(2, n, cs)
            assert fam.b == ref.b
            for a in points:
                for eps in itertools.product((1, -1), repeat=4):
                    assert (repr(garnier_residual_m2(fam, a, eps))
                            == repr(garnier_residual_m2(ref, a, eps))), (n, cs, a)


class TestSpec:
    def test_theta_from_eps(self):
        spec = theta_from_eps([F(1, 2)] * 4, (1, 1, 1, 1), F(-2))
        assert spec.theta == (F(1), F(1), F(1), F(1))
        assert spec.theta_inf == F(-5)

    def test_thm11_spec(self):
        fam = thm11_family(2, -1, [F(1), F(1)])
        spec = fam.spec_for((1, -1, 1, -1))
        assert spec.theta == (F(-1), F(1), F(-1), F(1))
        assert spec.theta_inf == F(3)

    def test_single_flip_changes_one_entry(self):
        base = theta_from_eps([F(1, 4)] * 4, (1, 1, 1, 1), F(-1))
        flipped = theta_from_eps([F(1, 4)] * 4, (1, -1, 1, 1), F(-1))
        diffs = [i for i in range(4) if base.theta[i] != flipped.theta[i]]
        assert diffs == [1]
        assert flipped.theta[1] == -base.theta[1]

    def test_bad_eps_rejected(self):
        with pytest.raises(ValueError):
            GarnierSpec(2, (F(1),) * 4, F(3), (1, 2, 1, 1))


class TestRoots:
    def test_simple_quadratic(self):
        rr = u_roots([RatFunc.const(-1), RatFunc.const(0), RatFunc.const(1)], ())
        assert [round(z.real) for z in rr.roots] == [-1, 1]
        assert not rr.degree_dropped and not rr.multiple

    def test_double_root_flagged(self):
        rr = u_roots([RatFunc.const(1), RatFunc.const(-2), RatFunc.const(1)], ())
        assert rr.multiple and len(rr.roots) == 1

    def test_degree_drop_flagged(self):
        s = thm10_solution(2, 2, 1)
        rr = u_roots(s.pm_coefficients(), (2.0, 3.0))
        assert rr.degree_dropped and len(rr.roots) == 1

    def test_newton_polish_agreement(self):
        s = thm10_solution(2, 2, 1)
        pm = s.pm_coefficients()
        rr = u_roots(pm, (2.0, 3.5))
        coeffs = [complex(cc.evaluate({"a1": 2.0 + 0j, "a2": 3.5 + 0j}))
                  for cc in pm]
        for z in rr.roots:
            # polished Newton refinement oracle
            r = z
            for _ in range(50):
                f = coeffs[0] + coeffs[1] * r + coeffs[2] * r * r
                fp = coeffs[1] + 2 * coeffs[2] * r
                r = r - f / fp
            assert abs(r - z) < 1e-12

    def test_tracking_continuity_along_path(self):
        # no spikes while sliding a from (2,3) to (2.5,3.5); use the m = 4
        # solution, for which (2,3) is generic
        s = thm10_solution(2, 4, 1)
        pm = s.pm_coefficients()
        prev = None
        for k in range(101):
            t = k / 100
            a = (2.0 + 0.5 * t, 3.0 + 0.5 * t)
            rr = u_roots(pm, a)
            assert len(rr.roots) == 2
            u = rr.roots
            if prev is not None:
                d_keep = abs(u[0] - prev[0]) + abs(u[1] - prev[1])
                d_swap = abs(u[0] - prev[1]) + abs(u[1] - prev[0])
                if d_swap < d_keep:
                    u = [u[1], u[0]]
                assert abs(u[0] - prev[0]) + abs(u[1] - prev[1]) < 0.2
            prev = u


class TestMomenta:
    def test_all_minus_gives_zero(self):
        v = v_momenta([0.3 + 0.1j, 2.5], [F(1, 4)] * 4, (-1, -1, -1, -1),
                      (2.0, 3.5))
        assert all(abs(z) < 1e-15 for z in v)

    def test_displayed_formula(self):
        u = [0.4 + 0.2j, 2.2 - 0.1j]
        a = (2.0, 3.5)
        v = v_momenta(u, [F(1, 4)] * 4, (1, 1, 1, 1), a)
        for uj, vj in zip(u, v):
            want = 0.5 * (1 / (uj - 2.0) + 1 / (uj - 3.5) + 1 / uj + 1 / (uj - 1))
            assert abs(vj - want) < 1e-14

    def test_eps_linearity(self):
        u = [0.4 + 0.2j, 2.2 - 0.1j]
        a = (2.0, 3.5)
        betas = [F(1, 4)] * 4
        v_pp = v_momenta(u, betas, (1, 1, 1, 1), a)
        v_pm = v_momenta(u, betas, (1, -1, 1, 1), a)
        for uj, d1, d2 in zip(u, v_pp, v_pm):
            assert abs((d1 - d2) - 2 * 0.25 / (uj - 3.5)) < 1e-14

    def test_pole_collision_rejected(self):
        with pytest.raises(ZeroDivisionError):
            v_momenta([2.0], [F(1, 4)] * 4, (1, 1, 1, 1), (2.0, 3.5))


class TestHamiltonianResidual:
    def test_polynomial_solutions(self):
        s1 = thm10_solution(2, 2, 1)
        s2 = thm10_solution(2, 4, 1)
        assert garnier_residual_m2(s1, (2.0, 3.5), (1, 1, 1, 1)) < 1e-6
        assert garnier_residual_m2(s2, (2.0, 3.0), (1, -1, 1, -1)) < 1e-6

    def test_rational_family(self):
        fam = thm11_family(2, -1, [F(1), F(1)])
        assert garnier_residual_m2(fam, (2.0, 3.5), (-1, 1, 1, -1)) < 1e-6

    def test_eps_sweep(self):
        s1 = thm10_solution(2, 2, 1)
        worst = max(garnier_residual_m2(s1, (-1.5, 2.25), eps)
                    for eps in itertools.product((1, -1), repeat=4))
        assert worst < 1e-6

    def test_perturbation_detected(self):
        s1 = thm10_solution(2, 2, 1)
        delta = RatFunc.from_poly(a1 * a1) * F(1, 10)
        pert = GarnierAlgebraicSolution(
            M=2, b=[s1.b[0] + delta, s1.b[1] - delta, s1.b[2], s1.b[3]],
            betas=s1.betas, beta_inf=s1.beta_inf)
        assert pert.sum_b().is_zero()
        assert garnier_residual_m2(pert, (2.0, 3.5), (1, 1, 1, 1)) > 1e-2

    def test_degenerate_point_flagged(self):
        s1 = thm10_solution(2, 2, 1)
        with pytest.raises(ValueError):
            garnier_residual_m2(s1, (2.0, 3.0), (1, 1, 1, 1))

    def test_non_finite_residual_raises(self):
        # max() drops NaN: unchecked, a NaN residual comes back as 0.0
        s1 = thm10_solution(2, 2, 1)
        with pytest.raises(ArithmeticError, match="not finite"):
            garnier_residual_m2(s1, (float("nan"), 3.5), (1, 1, 1, 1))

    @pytest.mark.parametrize("eps, message", [
        ((1, 0, 1, 1), "eps entries must be +-1"),
        ((1, 1, 1), "need M + 2 thetas and signs")])
    def test_bad_eps_rejected(self, eps, message, monkeypatch):
        # the check comes before P_2 is built or evaluated
        s1 = thm10_solution(2, 2, 1)
        monkeypatch.setattr(GarnierAlgebraicSolution, "pm_coefficients",
                            lambda self: pytest.fail("P_2 evaluated"))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            garnier_residual_m2(s1, (2.0, 3.5), eps)

    @pytest.mark.parametrize("a_point", [(2.0,), (2.0, 3.5, 4.0)])
    def test_a_point_of_wrong_length_rejected(self, a_point, monkeypatch):
        # the check comes before P_2 is built or evaluated
        s1 = thm10_solution(2, 2, 1)
        monkeypatch.setattr(GarnierAlgebraicSolution, "pm_coefficients",
                            lambda self: pytest.fail("P_2 evaluated"))
        with pytest.raises(ValueError,
                           match=f"M = 2 needs an a-point with 2 coordinates, "
                                 f"got {len(a_point)}"):
            garnier_residual_m2(s1, a_point, (1, 1, 1, 1))

    def test_b_with_a_foreign_variable_rejected(self):
        x = RatFunc.var("x")
        with pytest.raises(ValueError, match="^garnier-algebraic document's b "
                                             "names x, outside a1..a2$"):
            GarnierAlgebraicSolution(M=2, b=[x, -x, RatFunc.zero(), RatFunc.zero()],
                                     betas=[F(1, 4)] * 4, beta_inf=F(-1))

    def test_higher_m_exact_layer_only(self):
        s = thm10_solution(4, 2, 1)
        assert s.sum_b().is_zero()
        assert len(s.pm_coefficients()) == 5
        with pytest.raises(ValueError):
            garnier_residual_m2(s, (2.0, 3.0), (1,) * 6)


class TestRootRecord:
    """The roots of P_2 do not depend on eps: the sign vectors at one
    a-point share one u_roots call per stencil point."""

    def counted_roots(self, monkeypatch):
        import isolab.garnier as garnier
        calls = []

        def counting(pm, a):
            calls.append(tuple(a))
            return u_roots(pm, a)
        monkeypatch.setattr(garnier, "u_roots", counting)
        return calls

    def test_one_solve_per_stencil_point(self, monkeypatch):
        calls = self.counted_roots(monkeypatch)
        s = thm10_solution(2, 4, 1)
        for eps in itertools.product((1, -1), repeat=4):
            garnier_residual_m2(s, (-1.41 - 1.4j, 1.21 - 1.71j), eps)
        assert len(calls) == len(set(calls)) == 5

    @pytest.mark.parametrize("build, a", [
        (lambda: thm10_solution(2, 2, 1), (-1.5, 2.25)),
        (lambda: thm10_solution(2, 4, 1), (3.81 - 1.81j, 2.87 - 0.84j)),
        (lambda: thm11_family(2, -1, [F(2), F(-1)]), (-0.8, 1.7))])
    def test_residuals_equal_fresh_solutions(self, build, a):
        shared = build()
        for eps in itertools.product((1, -1), repeat=4):
            got = garnier_residual_m2(shared, a, eps)
            assert repr(got) == repr(garnier_residual_m2(build(), a, eps)), eps

    # an overflow is no solve and is not recorded; a degree drop is a solve
    # with one root, recorded and refused again on the next call
    @pytest.mark.parametrize("a, message, solves", [
        ((1e200, 3), "P_2 overflows float64 at a = ", 2),
        ((2, 3), "P_2 degenerates at a = ", 1)])
    def test_failed_points_raise_on_every_call(self, a, message, solves,
                                               monkeypatch):
        calls = self.counted_roots(monkeypatch)
        s = thm10_solution(2, 2, 1)
        for eps in ((1, 1, 1, 1), (1, -1, 1, -1)):
            with pytest.raises(ValueError, match=message):
                garnier_residual_m2(s, a, eps)
        assert len(calls) == solves


def reference_v_momenta(u, betas, eps, a_numeric):
    """v_j = sum_i (1 + eps_i) beta_i / (u_j - a_i), one float(beta) a term."""
    poles = [complex(x) for x in a_numeric] + [0j, 1 + 0j]
    out = []
    for uj in u:
        val = 0j
        for pi, beta, e in zip(poles, betas, eps):
            gap = uj - pi
            if abs(gap) < 1e-12:
                raise ZeroDivisionError(f"root {uj} collides with pole {pi}")
            val += (1 + e) * float(beta) / gap
        out.append(val)
    return out


def reference_hamiltonian_m2(which, a, u, v, th, kappa):
    """H_{which + 1} from scratch: no part shared between calls."""
    a = [complex(x) for x in a]
    u = [complex(x) for x in u]
    v = [complex(x) for x in v]
    ak = a[which]
    a1, a2 = a
    tp = (4 * ak ** 3 + 3 * -(1 + a1 + a2) * ak ** 2
          + 2 * (a1 + a2 + a1 * a2) * ak + -a1 * a2)
    pref = -((ak - u[0]) * (ak - u[1])) / tp
    total = 0j
    for j in (0, 1):
        uj = u[j]
        lamp = uj - u[1 - j]
        theta_terms = ((th[0] - (1 if which == 0 else 0)) / (uj - a[0])
                       + (th[1] - (1 if which == 1 else 0)) / (uj - a[1])
                       + th[2] / uj + th[3] / (uj - 1))
        bracket = v[j] ** 2 - theta_terms * v[j] + kappa / (uj * (uj - 1))
        t = uj * (uj - 1) * (uj - a[0]) * (uj - a[1])
        total += t / ((uj - ak) * lamp) * bracket
    return pref * total


def reference_garnier_residual_m2(solution, a_numeric, eps):
    """The Hamilton check worked out whole on every call: an exact
    GarnierSpec per sign vector, float(beta) per momentum term, every H_k
    from scratch and a fresh u_roots solve per stencil point."""
    check_m2_inputs(solution.M, a_numeric)
    a0 = [complex(x) for x in a_numeric]
    spec = solution.spec_for(eps)
    th = [float(t) for t in spec.theta]
    kappa = ((sum(th) - 1) ** 2 - float(spec.theta_inf) ** 2) / 4
    pm = solution.pm_coefficients()
    h = 1e-5

    def uv(a, base=None):
        try:
            u = u_roots(pm, a).roots
        except OverflowError:
            if base is not None:
                raise
            raise ValueError(f"P_2 overflows float64 at a = {a}") from None
        if len(u) < 2:
            if base is not None:
                raise ArithmeticError(f"root collision near a = {a}")
            raise ValueError(f"P_2 degenerates at a = {a}; pick a generic point")
        if base is not None and not (abs(u[0] - base[0]) + abs(u[1] - base[1])
                                     <= abs(u[1] - base[0]) + abs(u[0] - base[1])):
            u = [u[1], u[0]]
        return u, reference_v_momenta(u, solution.betas, spec.eps, a)

    def replace(seq, i, val):
        out = list(seq)
        out[i] = val
        return out

    def fd(f, z0):
        return (f(z0 + h) - f(z0 - h)) / (2 * h)

    u0, v0 = uv(a0)
    worst = 0.0
    for k in (0, 1):
        ap = list(a0); ap[k] += h
        am = list(a0); am[k] -= h
        up, vp = uv(ap, u0)
        um, vm = uv(am, u0)
        du = [(up[i] - um[i]) / (2 * h) for i in (0, 1)]
        dv = [(vp[i] - vm[i]) / (2 * h) for i in (0, 1)]
        for i in (0, 1):
            dH_dv = fd(lambda vv: reference_hamiltonian_m2(
                k, a0, u0, replace(v0, i, vv), th, kappa), v0[i])
            dH_du = fd(lambda uu: reference_hamiltonian_m2(
                k, a0, replace(u0, i, uu), v0, th, kappa), u0[i])
            res = (abs(du[i] - dH_dv), abs(dv[i] + dH_du))
            if not (isfinite(res[0]) and isfinite(res[1])):
                raise ArithmeticError(
                    f"Hamilton residual is not finite at a = {a_numeric}")
            worst = max(worst, *res)
    return worst


def outcome(check, solution, a, eps):
    """repr of the residual, or the type and message of what was raised."""
    try:
        return repr(check(solution, a, eps))
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


EPS_ALL = list(itertools.product((1, -1), repeat=4))
# the four solutions the numeric benchmark checks, at the acceptance a-points
REFERENCE_CASES = {
    "thm10 m=2": (lambda: thm10_solution(2, 2, 1),
                  [(2.0, 3.5), (-1.5, 2.25), (2.5, -1.25), (1.3, 2.1)]),
    "thm10 m=4": (lambda: thm10_solution(2, 4, 1),
                  [(-1.41 - 1.4j, 1.21 - 1.71j), (-3.7 - 0.27j, -3.44 - 1.64j),
                   (3.81 - 1.81j, 2.87 - 0.84j), (2.0 + 0.5j, 3.5 - 0.5j)]),
    "thm11 (1,1)": (lambda: thm11_family(2, -1, [F(1), F(1)]),
                    [(-1.5, 2.25), (1.3, 2.1), (2.5, -1.25)]),
    "thm11 (2,-1)": (lambda: thm11_family(2, -1, [F(2), F(-1)]),
                     [(2.0, 3.5), (-0.8, 1.7), (1.3, 2.1)]),
}
SOLUTIONS = {label: build() for label, (build, _) in REFERENCE_CASES.items()}
# no solution, but every float rule shows: a zero beta, betas and a theta_inf
# that float rounds, weights that are not powers of two
SOLUTIONS["odd betas"] = GarnierAlgebraicSolution(
    M=2, b=SOLUTIONS["thm10 m=2"].b, betas=[F(1, 3), F(0), F(-1, 5), F(2, 7)],
    beta_inf=F(-3, 7))


class TestAgainstReferenceResidual:
    """garnier_residual_m2 shares its float constants and the parts of H_k;
    every residual and every raise is the whole-per-call reference's."""

    @pytest.mark.parametrize("label", sorted(REFERENCE_CASES))
    def test_jittered_acceptance_points(self, label):
        rng = random.Random(label)
        sol = SOLUTIONS[label]
        for a in REFERENCE_CASES[label][1]:
            for _ in range(2):  # jitters of at most 0.05, as the benchmark's
                pt = tuple(complex(z) + complex(round(rng.uniform(-0.05, 0.05), 3),
                                                round(rng.uniform(-0.05, 0.05), 3))
                           for z in a)
                for eps in EPS_ALL:
                    got = outcome(garnier_residual_m2, sol, pt, eps)
                    assert isinstance(got, str), (pt, eps, got)
                    assert got == outcome(reference_garnier_residual_m2, sol,
                                          pt, eps), (label, pt, eps)

    @settings(max_examples=60, deadline=None)
    @given(label=st.sampled_from(sorted(SOLUTIONS)),
           parts=st.lists(st.floats(-4, 4, allow_nan=False), min_size=4,
                          max_size=4),
           eps=st.sampled_from(EPS_ALL))
    def test_swept_a_points(self, label, parts, eps):
        pt = (complex(parts[0], parts[1]), complex(parts[2], parts[3]))
        sol = SOLUTIONS[label]
        assert (outcome(garnier_residual_m2, sol, pt, eps)
                == outcome(reference_garnier_residual_m2, sol, pt, eps))

    @pytest.mark.parametrize("a, raised", [
        ((2, 3), ValueError), ((1e200, 3), ValueError),
        ((float("nan"), 3.5), ArithmeticError),
        ((2.25, 0.25), ZeroDivisionError)])  # P_2 has the root 0 there
    def test_same_raises(self, a, raised):
        sol = thm10_solution(2, 2, 1)
        for eps in ((1, 1, 1, 1), (-1, 1, -1, 1)):
            got = outcome(garnier_residual_m2, sol, a, eps)
            assert got[0] is raised, got
            assert got == outcome(reference_garnier_residual_m2, sol, a, eps)
