"""Superelliptic curves w^m = (z-a_1)...(z-a_N): invariants and local charts.

The charts implement the two parametrizations the period/residue machinery
needs: at the s = gcd(m, N) points above z = infinity and at the finite
ramification points (a_nu, 0). Fractional powers only ever enter through
binomial series of (1 + u)^(e/m) in the principal branch. The series at the
k-th point over z = infinity differ from those at the first only by a root
of unity, which residue_series_oracle returns as an exact phase tag (p, q)
meaning exp(2*pi*i*p/q).

residue_series_oracle computes residues purely by truncated-series
multiplication; it is the independent cross-check for the closed-form residue
expressions used by the Schlesinger solution builders.

A curve is immutable after construction and keeps the charts the oracle asks
for, one per (chart class, pole, truncation order). Each chart keeps the series
w^e dz once per power e, so the residues for i = 1..N at one pole share one
product and differ only in the factor 1/(z - a_i); of that last product only
the t^-1 coefficient is summed. The reuse lives as long as
the curve object and no longer: there is no module-level or value-keyed cache.
Nothing of this is shared with the builders, which the oracle still checks
independently.

Every series the oracle reads from a chart (w^e, dz and 1/(z - a_i)) is
known to the same relative depth, the chart's truncation order K: K
coefficients past its leading exponent. Their products are then known to
relative depth K as well, so no factor carries coefficients that a
product's truncation would drop. The oracle reads each residue from one
chart at one order, never retried: the least K at which the t^-1
coefficient is known, or a deeper order the caller asks for (see
residue_series_oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .algebra import MultiPoly, FactoredFrac, binom


class TruncationError(Exception):
    """A required series coefficient lies beyond the computed range."""


def _czero(c) -> bool:
    if hasattr(c, "is_zero"):
        return c.is_zero()
    return c == 0


class TruncatedSeries:
    """Laurent series sum_{k>=v} c_{k} t^k known for exponents < order."""

    __slots__ = ("leading", "coeffs", "order")

    def __init__(self, leading: int, coeffs, order: int):
        while coeffs and _czero(coeffs[0]):
            coeffs = coeffs[1:]
            leading += 1
        self.leading = leading
        self.coeffs = list(coeffs[:max(0, order - leading)])
        self.order = order

    @classmethod
    def monomial(cls, coeff, exponent, order):
        return cls(exponent, [coeff], order)

    def coefficient(self, k: int):
        """Coefficient of t^k; raises TruncationError past the known range."""
        if k >= self.order:
            raise TruncationError(
                f"coefficient of t^{k} requested, series known below t^{self.order}")
        if k < self.leading or k - self.leading >= len(self.coeffs):
            return 0
        return self.coeffs[k - self.leading]

    def __add__(self, other):
        order = min(self.order, other.order)
        lead = min(self.leading, other.leading)
        out = [0] * max(0, order - lead)
        for src in (self, other):
            for i, c in enumerate(src.coeffs):
                k = src.leading + i - lead
                if 0 <= k < len(out):
                    out[k] = out[k] + c
        return TruncatedSeries(lead, out, order)

    def __neg__(self):
        return TruncatedSeries(self.leading, [-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            order = min(self.leading + other.order, other.leading + self.order)
            lead = self.leading + other.leading
            return TruncatedSeries(lead, [self.product_coefficient(other, k)
                                          for k in range(lead, order)], order)
        # scalar
        return TruncatedSeries(self.leading, [c * other for c in self.coeffs],
                               self.order)

    __rmul__ = __mul__

    def shift(self, k: int):
        """Multiply by t^k."""
        return TruncatedSeries(self.leading + k, self.coeffs, self.order + k)

    def derivative(self):
        out = []
        for i, c in enumerate(self.coeffs):
            k = self.leading + i
            out.append(c * k)
        return TruncatedSeries(self.leading - 1, out, self.order - 1)

    def product_coefficient(self, other, k: int):
        """Coefficient of t^k in self * other, without forming the product;
        __mul__ forms the product from these coefficients.

        Raises TruncationError at or past the product's order. The terms are
        added in the order of self's exponents, skipping zero factors."""
        order = min(self.leading + other.order, other.leading + self.order)
        if k >= order:
            raise TruncationError(
                f"coefficient of t^{k} requested, series known below t^{order}")
        t = k - self.leading - other.leading
        out = 0
        for i, ci in enumerate(self.coeffs[:max(t + 1, 0)]):
            cj = other.coeffs[t - i] if t - i < len(other.coeffs) else 0
            if not _czero(ci) and not _czero(cj):
                out = out + ci * cj
        return out

    def is_zero(self) -> bool:
        return all(_czero(c) for c in self.coeffs)

    def to_text(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if _czero(c):
                continue
            parts.append(f"({c})*t^{self.leading + i}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(t^{self.order})"

    def __repr__(self):
        return f"TruncatedSeries({self.to_text()})"


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurveInvariants:
    s: int
    N1: int
    m1: int
    genus: int


def curve_invariants(m: int, N: int) -> CurveInvariants:
    """s = gcd(m,N), N1, m1 and genus of w^m = prod(z - a_i); s is also the
    number of points over z = infinity."""
    if m < 1 or N < 2:
        raise ValueError("need m >= 1 and N >= 2")
    s = gcd(m, N)
    genus2 = (m - 1) * (N - 1) - s + 1
    return CurveInvariants(s=s, N1=N // s, m1=m // s, genus=genus2 // 2)


def cycle_count(m: int, N: int, n: int) -> int:
    """Number of independent integration contours for the sign of n."""
    inv = curve_invariants(m, N)
    if n > 0:
        return (m - 1) * (N - 1)
    return 2 * inv.genus + N - 1


class SuperellipticCurve:
    """Curve data (m, branch points a_1..a_N, differential exponent n).

    Branch points may be exact rationals, complex numbers, or variable names
    (strings); any variable makes the curve symbolic. A symbolic curve, or
    one whose points are all ints or Fractions, is exact: its charts produce
    exact MultiPoly/FactoredFrac coefficients.

    The curve is treated as immutable after construction: `chart` caches the
    local charts, and their series, on the instance.
    """

    def __init__(self, m: int, branch_points, n: int):
        if m < 1:
            raise ValueError("m must be >= 1")
        if n == 0:
            raise ValueError("n must be nonzero")
        if gcd(abs(n), m) != 1:
            raise ValueError("n and m must be coprime")
        if n > 0 and m == 1:
            raise ValueError("m = 1 with n > 0 gives constant diagonal matrices")
        pts = tuple(branch_points)
        if len(pts) < 2:
            raise ValueError("need at least two branch points")
        self.m = m
        self.n = n
        self.branch_points = pts
        self.symbolic = any(isinstance(a, (str, MultiPoly)) for a in pts)
        if not self.symbolic:
            vals = [complex(a) for a in pts]
            for i in range(len(vals)):
                for j in range(i + 1, len(vals)):
                    if abs(vals[i] - vals[j]) < 1e-12:
                        raise ValueError(f"branch points {i+1} and {j+1} coincide")
        self.exact = self.symbolic or all(
            isinstance(a, (int, Fraction)) for a in pts)
        self._charts = {}

    @property
    def N(self) -> int:
        return len(self.branch_points)

    def invariants(self) -> CurveInvariants:
        return curve_invariants(self.m, self.N)

    def cycle_count(self) -> int:
        return cycle_count(self.m, self.N, self.n)

    def chart(self, kind, order: int, nu: int = None):
        """The InfinityChart, or the BranchChart at branch point `nu`,
        truncated at `order`, built on first use and kept for the life of
        the curve. Every point over infinity reads the one InfinityChart."""
        key = (kind, order, nu)
        chart = self._charts.get(key)
        if chart is None:
            chart = self._charts[key] = (kind(self, order) if nu is None
                                         else kind(self, nu, order))
        return chart

    def point(self, i: int):
        """Branch point a_i (1-based) as MultiPoly (exact) or complex."""
        a = self.branch_points[i - 1]
        if isinstance(a, MultiPoly):
            return a
        if isinstance(a, str):
            return MultiPoly.var(a)
        if isinstance(a, (int, Fraction)):
            return MultiPoly.const(a) if self.exact else complex(a)
        return complex(a)

    def point_numeric(self, i: int) -> complex:
        a = self.branch_points[i - 1]
        if isinstance(a, (str, MultiPoly)):
            raise ValueError("symbolic branch point has no numeric value")
        return complex(a)

    def poly_at(self, z: complex) -> complex:
        out = 1.0 + 0j
        for i in range(1, self.N + 1):
            out *= z - self.point_numeric(i)
        return out

    def __repr__(self):
        return f"SuperellipticCurve(m={self.m}, n={self.n}, a={self.branch_points})"


# ---------------------------------------------------------------------------
# local charts


def _binomial_factor_series(base, exponent: Fraction, step: int,
                            order: int, exact: bool):
    """(1 + base * t^step)^exponent as a truncated series.

    base is an exact MultiPoly or FactoredFrac, or a complex number. Each
    binomial comes from `binom` on its own, so the oracle built on this
    shares no code with the closed-form builders it cross-checks.
    """
    kmax = (order - 1) // step if order > 0 else 0
    coeffs = [0] * (kmax * step + 1)
    for k in range(kmax + 1):
        b = binom(exponent, k)
        coeffs[k * step] = base ** k * (b if exact else complex(b))
    return TruncatedSeries(0, coeffs, order)


class _Chart:
    """What both charts share: Omega_i^{(j)} from one w^e dz series per e.

    w_power, dz_series and one_over_z_minus are each known to relative depth
    `order` past their leading exponents, so their products are too; a
    deeper factor would only form coefficients the products drop."""

    def __init__(self, curve: SuperellipticCurve, order: int):
        if order < 1:
            raise ValueError("order must be >= 1")
        if order > 4000:
            raise TruncationError("truncation order beyond the internal cap")
        self.curve = curve
        self.order = order
        self.exact = curve.exact
        self.one = MultiPoly.const(1) if self.exact else 1.0 + 0j
        self._w_dz = {}

    def omega_residue(self, i: int, j: int):
        """Residue of Omega_i^{(j)} = w^{jn} dz / (z - a_i) in the chart's
        series: only the t^-1 coefficient of the product is summed."""
        e = j * self.curve.n
        w_dz = self._w_dz.get(e)
        if w_dz is None:
            w_dz = self._w_dz[e] = self.w_power(e) * self.dz_series()
        return w_dz.product_coefficient(self.one_over_z_minus(i), -1)


class InfinityChart(_Chart):
    """Chart at the points over z = infinity: z = 1/t^{m1}. Its series are
    those of the first point; w_power says what the k-th point changes."""

    def __init__(self, curve: SuperellipticCurve, order: int):
        super().__init__(curve, order)
        self.inv = curve.invariants()

    def dz_series(self) -> TruncatedSeries:
        m1 = self.inv.m1
        c = MultiPoly.const(Fraction(-m1)) if self.exact else complex(-m1)
        return TruncatedSeries.monomial(c, -m1 - 1, self.order - m1 - 1)

    def w_power(self, e: int) -> TruncatedSeries:
        """Series of w^e on the sheet of the first point over infinity. At
        the k-th point w^e is this series times e^{2 pi i (k-1) e / s}, a
        factor that residue_series_oracle returns as its phase tag."""
        inv = self.inv
        out = TruncatedSeries.monomial(self.one, 0, self.order)
        for i in range(1, self.curve.N + 1):
            out = out * _binomial_factor_series(
                -self.curve.point(i), Fraction(e, self.curve.m), inv.m1,
                self.order, self.exact)
        return out.shift(-e * inv.N1)

    def one_over_z_minus(self, i: int) -> TruncatedSeries:
        """1/(z - a_i) = t^{m1} * sum_q (a_i t^{m1})^q."""
        m1 = self.inv.m1
        a = self.curve.point(i)
        coeffs = [0] * ((self.order - 1) // m1 * m1 + 1)
        apow = self.one
        for q in range(0, len(coeffs), m1):
            if q:
                apow = apow * a
            coeffs[q] = apow
        return TruncatedSeries(m1, coeffs, self.order + m1)


class BranchChart(_Chart):
    """Chart at the finite ramification point (a_nu, 0): z = a_nu + t^m."""

    def __init__(self, curve: SuperellipticCurve, nu: int, order: int):
        if not (1 <= nu <= curve.N):
            raise ValueError("branch point index out of range")
        super().__init__(curve, order)
        self.nu = nu

    def _inv_gap(self, h: int, exact: bool):
        """1/(a_nu - a_h): a FactoredFrac, or a complex from the numeric
        points (which an exact curve of ints and Fractions also has)."""
        if exact:
            return FactoredFrac.quotient(
                self.one, self.curve.point(self.nu) - self.curve.point(h), 1)
        return 1.0 / self._numeric_gap(h)

    def _numeric_gap(self, h: int) -> complex:
        return complex(self.curve.point_numeric(self.nu)
                       - self.curve.point_numeric(h))

    def dz_series(self) -> TruncatedSeries:
        m = self.curve.m
        c = MultiPoly.const(m) if self.exact else complex(m)
        return TruncatedSeries.monomial(c, m - 1, self.order + m - 1)

    def w_power(self, e: int) -> TruncatedSeries:
        """Series of w^e = t^e prod_{h != nu} (a_nu - a_h + t^m)^{e/m}.

        Exact only when m divides e (integer powers of the factors);
        otherwise requires numeric branch points and uses principal branches.
        """
        m = self.curve.m
        exact = self.exact and e % m == 0
        if self.curve.symbolic and e % m != 0:
            raise ValueError(
                "fractional w-power at a branch point needs numeric branch points")
        out = TruncatedSeries.monomial(self.one if exact else 1.0 + 0j, 0,
                                       self.order)
        for h in range(1, self.curve.N + 1):
            if h == self.nu:
                continue
            inv = self._inv_gap(h, exact)
            lead = inv ** (-e // m) if exact else self._numeric_gap(h) ** (e / m)
            fac = _binomial_factor_series(inv, Fraction(e, m), m, self.order,
                                          exact)
            out = out * fac * TruncatedSeries.monomial(lead, 0, self.order)
        return out.shift(e)

    def one_over_z_minus(self, i: int) -> TruncatedSeries:
        """1/(z - a_i) around (a_nu, 0)."""
        m = self.curve.m
        if i == self.nu:
            return TruncatedSeries.monomial(self.one, -m, self.order - m)
        inv = self._inv_gap(i, self.exact)
        ser = _binomial_factor_series(inv, Fraction(-1), m, self.order,
                                      self.exact)
        return ser * TruncatedSeries.monomial(inv, 0, self.order)


def residue_series_oracle(curve: SuperellipticCurve, i: int, j: int, pole: int,
                          order: int = 1):
    """Residue of Omega_i^{(j)} = w^{jn} dz/(z - a_i) at the given pole,
    computed purely from truncated local series.

    Returns (value, phase). For n > 0 the pole is the infinity-point index
    k in 1..s and the value is a polynomial in the branch points; the
    residue is value * e^{2 pi i p/q}, where (p, q) = phase is (k - 1) j n
    mod s over s in lowest terms. For n < 0 the pole is a branch-point index,
    the value is a rational function and phase is (0, 1).

    The residue is read from one chart, truncated at max(order, K), where K
    is the least order at which the t^-1 coefficient is known. With e = jn,
    each factor known to relative depth K:

    - infinity chart (z = t^-m1): w^e leads at -e N1, dz at -m1 - 1 and
      1/(z - a_i) at m1, so the product leads at -e N1 - 1 and is known
      below t^(K - e N1 - 1); t^-1 is known when K > e N1 = j n N1;
    - branch chart (z = a_nu + t^m): w^e leads at e = -j|n|, dz at m - 1 and
      1/(z - a_i) at 0 for i != nu, -m for i = nu; the worst case, i = nu,
      leads at -j|n| - 1, so t^-1 is known when K > j|n|.

    Hence K = j n N1 + 1 or j|n| + 1. An `order` below K (any order < 1
    included) is raised to K; a deeper one only adds coefficients that the
    t^-1 term does not read, so the value does not change. Should K ever be
    short, the TruncationError bound of TruncatedSeries stops the read past
    the known coefficients: the oracle raises, it never returns a wrong value.

    The charts come from `curve.chart`, so calls on one curve object for
    different i (and the same j, order and branch-point pole, or any point
    over infinity) build the w^{jn} dz series once. Against 1/(z - a_i)
    only the t^-1 coefficient of the product is summed, by the
    product_coefficient that full products are built from.
    """
    n = curve.n
    phase = (0, 1)
    if n > 0:
        inv = curve.invariants()
        if not (1 <= pole <= inv.s):
            raise ValueError(f"infinity point index must be in 1..{inv.s}")
        chart = curve.chart(InfinityChart, max(order, j * n * inv.N1 + 1))
        turn = Fraction((pole - 1) * j * n % inv.s, inv.s)
        phase = (turn.numerator, turn.denominator)
    elif (j * abs(n)) % curve.m != 0:
        return _oracle_zero(curve), phase
    else:
        chart = curve.chart(BranchChart, max(order, j * abs(n) + 1), pole)
    val = chart.omega_residue(i, j)
    if isinstance(val, int) and val == 0:
        val = _oracle_zero(curve)
    return val, phase


def _oracle_zero(curve):
    return MultiPoly.zero() if curve.exact else 0j
