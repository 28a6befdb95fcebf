from dataclasses import astuple
from fractions import Fraction as F

import numpy as np
import pytest
import scipy.integrate

from isolab.liouville import (FD1_STEP, FD2_STEP, LiouvillianFamily,
                              LiouvillianSample, liouvillian_eval)

# (n, b, c) and sample points; the second case repeats its points off the grid
REFERENCE_CASES = [
    ((1, F(-1, 3), F(1, 3)), [2, 3, 5]),
    ((2, F(-2, 3), F(-1, 3)), [2, 3, 5, 2.07, 3.1, 4.93]),
    ((3, F(1, 4), F(5, 7)), [2.5, 4.0]),
]


def reference_samples(fam, x):
    """The four separate evaluations b1L, b3L, Wronskian error and ODE
    residual, each with its own quadrature of I(x) and its own stencil."""
    from scipy.integrate import quad

    def stencil(h, width):
        iv = {0: fam.integral(x)}
        for k in range(1, width + 1):
            iv[k] = iv[k - 1] + quad(fam.integrand, x + (k - 1) * h, x + k * h,
                                     epsabs=1e-14, epsrel=1e-13, limit=60)[0]
            iv[-k] = iv[-(k - 1)] - quad(fam.integrand, x - k * h, x - (k - 1) * h,
                                         epsabs=1e-14, epsrel=1e-13, limit=60)[0]
        return [fam.b1p(x + k * h) * iv[k] for k in range(-width, width + 1)]

    b1l = fam.b1p(x) * fam.integral(x)
    fm, f0, fp = stencil(FD1_STEP, 1)
    d = (fp - fm) / (2 * FD1_STEP)
    b3l = -(x * d + float(fam.b) * f0) / float(1 + fam.b - fam.c)
    fm, f0, fp = stencil(FD1_STEP, 1)
    d = (fp - fm) / (2 * FD1_STEP)
    w = fam.b1p(x) * d - float(np.polyval(np.polyder(fam._b1p), x)) * f0
    target = (x ** fam.exp_x) * ((x - 1.0) ** fam.exp_xm1)
    h = FD2_STEP
    f2m, fm, f0, fp, f2p = stencil(h, 2)
    d1 = (-f2p + 8 * fp - 8 * fm + f2m) / (12 * h)
    d2 = (-f2p + 16 * fp - 30 * f0 + 16 * fm - f2m) / (12 * h * h)
    xx = x * (x - 1.0)
    lin = (float(fam.b - fam.n + 1) * x - float(fam.c)) / xx
    const = -float(fam.n * fam.b) / xx
    return LiouvillianSample(x, b1l, b3l, abs(w - target) / abs(target),
                             d2 + lin * d1 + const * f0)


class TestIntegrand:
    def test_case1_matches_display(self):
        # x^{-c}(x-1)^{c-b+n-1}/b1P^2 = 9 (x-1)^{2/3} / (x^{1/3}(x+1)^2)
        fam = LiouvillianFamily(1, F(-1, 3), F(1, 3))
        for xv in (2.0, 3.0, 5.5):
            display = (xv - 1) ** (2 / 3) / (xv ** (1 / 3) * (xv + 1) ** 2)
            assert abs(fam.integrand(xv) / display - 9) < 1e-12

    def test_case2_matches_display(self):
        # 81 * x^{1/3}(x-1)^{4/3}/(x^2-4x+1)^2 (b1P carries 1/9 here)
        fam = LiouvillianFamily(2, F(-2, 3), F(-1, 3))
        for xv in (2.0, 5.0):
            display = xv ** (1 / 3) * (xv - 1) ** (4 / 3) / (xv ** 2 - 4 * xv + 1) ** 2
            assert abs(fam.integrand(xv) / display - 81) < 1e-10


class TestChecks:
    def test_case1(self):
        rep = liouvillian_eval(1, F(-1, 3), F(1, 3), [2, 3, 5])
        assert rep.max_wronskian_err() < 1e-8
        assert rep.max_ode_residual() < 1e-6

    def test_case2(self):
        rep = liouvillian_eval(2, F(-2, 3), F(-1, 3), [2, 3, 5])
        assert rep.max_wronskian_err() < 1e-8
        assert rep.max_ode_residual() < 1e-6

    def test_generic_parameters(self):
        rep = liouvillian_eval(3, F(1, 4), F(5, 7), [2.5, 4.0])
        assert rep.max_wronskian_err() < 1e-8
        assert rep.max_ode_residual() < 1e-6

    def test_base_points_avoid_singularities(self):
        fam = LiouvillianFamily(2, F(-2, 3), F(-1, 3))
        # b1P has a real root at 2 + sqrt(3) ~ 3.73 between samples 3 and 5
        assert fam.base_point(5.0) > 3.74
        assert fam.base_point(3.0) < 3.73


class TestOneQuadraturePerPoint:
    @pytest.mark.parametrize("case, xs", REFERENCE_CASES)
    def test_samples_equal_reference(self, case, xs):
        fam = LiouvillianFamily(*case)
        got = liouvillian_eval(*case, xs).samples
        want = [reference_samples(fam, float(x)) for x in xs]
        assert [tuple(map(repr, astuple(s))) for s in got] == \
               [tuple(map(repr, astuple(s))) for s in want]

    @pytest.mark.parametrize("case, xs", REFERENCE_CASES)
    def test_seven_quad_calls_per_point(self, case, xs, monkeypatch):
        calls = []
        quad = scipy.integrate.quad

        def counting(*args, **kwargs):
            calls.append(1)
            return quad(*args, **kwargs)

        monkeypatch.setattr(scipy.integrate, "quad", counting)
        liouvillian_eval(*case, xs)
        assert len(calls) == 7 * len(xs)
        fam = LiouvillianFamily(*case)
        calls.clear()
        reference_samples(fam, float(xs[0]))
        assert len(calls) == 12


class TestGuards:
    def test_sample_in_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            liouvillian_eval(1, F(-1, 3), F(1, 3), [0.5])

    def test_sample_at_polynomial_zero_rejected(self):
        import math
        root = 2 + math.sqrt(3)   # zero of b1P for the (2, -2/3, -1/3) case
        with pytest.raises(ValueError):
            liouvillian_eval(2, F(-2, 3), F(-1, 3), [root])
