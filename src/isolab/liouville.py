"""Numeric evaluation of the Liouvillian second solutions.

The hypergeometric equation with a degree-n polynomial solution b1P has a
second basic solution obtained by one quadrature,

    b1L(x) = b1P(x) * I(x),   I(x) = int x^{-c} (x-1)^{c-b+n-1} / b1P(x)^2 dx,

with b3L derived by the same first-order relation as in the polynomial case.
Everything here is numeric on the real interval (1, inf). Each sample point
costs one adaptive Gauss-Kronrod quadrature for I(x) and two finite-difference
stencils built on it: a 3-point one at FD1_STEP for b1L, b3L and the Wronskian,
and a 5-point one at FD2_STEP for the ODE residual.
The base point of I is chosen per sample point on the same side of every
singularity (zeros of b1P are removable for the product b1P * I but not for
the bare integral).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import to_rational
from .painleve import thm7_b1, coefficient_list

QUAD_TOL = 1e-10
FD1_STEP = 1e-5
FD2_STEP = 4e-4  # 5-point stencil: rounding ~eps|f|/h^2 and h^4 truncation both < 1e-7


@dataclass
class LiouvillianSample:
    x: float
    b1L: float
    b3L: float
    wronskian_rel_err: float
    ode_residual: float


@dataclass
class LiouvillianReport:
    n: int
    b: Fraction
    c: Fraction
    samples: list

    def max_wronskian_err(self) -> float:
        return max(s.wronskian_rel_err for s in self.samples)

    def max_ode_residual(self) -> float:
        return max(abs(s.ode_residual) for s in self.samples)


class LiouvillianFamily:
    """b1L, b3L and their checks for given (n, b, c), built on the
    polynomial b1P."""

    def __init__(self, n: int, b, c):
        self.n = n
        self.b = to_rational(b)
        self.c = to_rational(c)
        self.b1p_poly = thm7_b1(n, self.b, self.c)
        coeffs = coefficient_list(self.b1p_poly)
        self._b1p = np.array([float(v) for v in reversed(coeffs)])
        self._b1p_d = np.polyder(self._b1p)
        self.exp_x = float(-self.c)
        self.exp_xm1 = float(self.c - self.b + n - 1)
        roots = np.roots(self._b1p) if len(self._b1p) > 1 else np.array([])
        self._real_roots = sorted(float(r.real) for r in roots
                                  if abs(r.imag) < 1e-9 and r.real > 1.0)

    def b1p(self, x: float) -> float:
        return float(np.polyval(self._b1p, x))

    def integrand(self, x: float) -> float:
        """x^{-c} (x-1)^{c-b+n-1} / b1P(x)^2; this is the Wronskian over b1P^2."""
        return (x ** self.exp_x) * ((x - 1.0) ** self.exp_xm1) / self.b1p(x) ** 2

    def base_point(self, x: float) -> float:
        """A quadrature base on the same side of every singularity as x."""
        sings = [1.0] + self._real_roots
        left = max((s for s in sings if s < x), default=1.0)
        right = min((s for s in sings if s > x), default=None)
        lo = x - 0.45 * (x - left)
        if right is not None:
            lo = max(lo, x - 0.45 * (right - x))
        return lo

    def integral(self, x: float) -> float:
        from scipy.integrate import quad
        if abs(self.b1p(x)) < 1e-9:
            raise ValueError(f"sample point {x} is a zero of the polynomial solution")
        val, err = quad(self.integrand, self.base_point(x), x,
                        epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=400)
        if not np.isfinite(val) or err > max(1e-6, 100 * QUAD_TOL * abs(val)):
            raise ArithmeticError(f"quadrature did not converge at x = {x}")
        return val

    def _stencil(self, x: float, ix: float, h: float, width: int):
        """b1L on the grid x + k*h, |k| <= width, from I(x) = ix plus tiny
        increments, so the dominant quadrature error cancels in finite
        differences."""
        from scipy.integrate import quad
        iv = {0: ix}
        for k in range(1, width + 1):
            iv[k] = iv[k - 1] + quad(self.integrand, x + (k - 1) * h, x + k * h,
                                     epsabs=1e-14, epsrel=1e-13, limit=60)[0]
            iv[-k] = iv[-(k - 1)] - quad(self.integrand, x - k * h, x - (k - 1) * h,
                                         epsabs=1e-14, epsrel=1e-13, limit=60)[0]
        return [self.b1p(x + k * h) * iv[k] for k in range(-width, width + 1)]

    def sample(self, x: float) -> LiouvillianSample:
        """b1L, b3L and both checks at x from one I(x) and two stencils.

        The width-1 stencil at FD1_STEP gives b1L (its centre), b3L =
        -(x b1L' + b b1L)/(1 + b - c) and the Wronskian error
        |b1P b1L' - b1P' b1L - x^{-c}(x-1)^{c-b+n-1}| / |target|; the 5-point
        stencil at FD2_STEP gives the residual of
        b'' + ((b-n+1)x - c)/(x(x-1)) b' - n b /(x(x-1)) b = 0."""
        ix = self.integral(x)
        fm, f0, fp = self._stencil(x, ix, FD1_STEP, 1)
        d = (fp - fm) / (2 * FD1_STEP)
        b3l = -(x * d + float(self.b) * f0) / float(1 + self.b - self.c)
        w = self.b1p(x) * d - float(np.polyval(self._b1p_d, x)) * f0
        target = (x ** self.exp_x) * ((x - 1.0) ** self.exp_xm1)
        h = FD2_STEP
        g2m, gm, g0, gp, g2p = self._stencil(x, ix, h, 2)
        d1 = (-g2p + 8 * gp - 8 * gm + g2m) / (12 * h)
        d2 = (-g2p + 16 * gp - 30 * g0 + 16 * gm - g2m) / (12 * h * h)
        xx = x * (x - 1.0)
        lin = (float(self.b - self.n + 1) * x - float(self.c)) / xx
        const = -float(self.n * self.b) / xx
        return LiouvillianSample(x=x, b1L=f0, b3L=b3l,
                                 wronskian_rel_err=abs(w - target) / abs(target),
                                 ode_residual=d2 + lin * d1 + const * g0)


def liouvillian_eval(n: int, b, c, sample_points) -> LiouvillianReport:
    """Evaluate b1L, b3L at the sample points and report the Wronskian and
    ODE residual checks. Points must avoid zeros of b1P and x = 0, 1."""
    fam = LiouvillianFamily(n, b, c)
    samples = []
    for x in sample_points:
        x = float(x)
        if x <= 1.0:
            raise ValueError("sample points must lie in (1, inf)")
        samples.append(fam.sample(x))
    return LiouvillianReport(n=n, b=fam.b, c=fam.c, samples=samples)
