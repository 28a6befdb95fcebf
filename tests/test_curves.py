import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from isolab.algebra import MultiPoly, RatFunc, binom
from isolab.curves import (SuperellipticCurve, TruncatedSeries, TruncationError,
                           curve_invariants, cycle_count, residue_series_oracle,
                           InfinityChart, BranchChart)


class TestInvariants:
    def test_worked_values(self):
        inv = curve_invariants(3, 3)
        assert (inv.s, inv.genus) == (3, 1)
        assert curve_invariants(2, 3).genus == 1
        assert curve_invariants(3, 5).genus == 4

    def test_cycle_counts(self):
        assert cycle_count(3, 3, 1) == 4
        assert cycle_count(1, 3, -1) == 2

    def test_genus_relation_grid(self):
        for m in range(1, 7):
            for N in range(2, 9):
                inv = curve_invariants(m, N)
                s = gcd(m, N)
                if s == 1:
                    assert 2 * inv.genus == (m - 1) * (N - 1)
                else:
                    assert 2 * inv.genus + s - 1 == (m - 1) * (N - 1)
                assert cycle_count(m, N, 1) == (m - 1) * (N - 1)
                assert cycle_count(m, N, -1) == 2 * inv.genus + N - 1


class TestCurveValidation:
    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            SuperellipticCurve(2, [0.0, 0.0, 1.0], 1)

    def test_m1_positive_n_rejected(self):
        with pytest.raises(ValueError):
            SuperellipticCurve(1, [0, 1, 2], 1)

    def test_noncoprime_rejected(self):
        with pytest.raises(ValueError):
            SuperellipticCurve(4, [0, 1, 2], 2)


class TestCharts:
    def test_infinity_leading_exponents(self):
        # z = t^-m1 and w ~ t^-N1: m1 = N1 = 1 for (3, 3), 2 and 3 for (2, 3)
        c33 = SuperellipticCurve(3, [0, 1, "x"], 1)
        assert c33.invariants().m1 == 1
        assert InfinityChart(c33, 4).w_power(1).leading == -1
        c23 = SuperellipticCurve(2, [0.0, 1.0, 2.0 + 1.0j], 1)
        assert c23.invariants().m1 == 2
        assert InfinityChart(c23, 3).w_power(1).leading == -3

    def test_infinity_third_order_vs_brute_force(self):
        # brute force: multiply the three binomial series for (1 - a_i t)^{1/3}
        c = SuperellipticCurve(3, [F(0), F(1), "x"], 1)
        w = InfinityChart(c, 5).w_power(1)
        xv = MultiPoly.var("x")
        third = F(1, 3)
        series = {0: MultiPoly.const(1)}
        for a in (MultiPoly.zero(), MultiPoly.const(1), xv):
            fac = {k: MultiPoly.const(binom(third, k)) * (-a) ** k
                   for k in range(5)}
            new = {}
            for i, ci in series.items():
                for j, cj in fac.items():
                    if i + j < 5:
                        new[i + j] = new.get(i + j, MultiPoly.zero()) + ci * cj
            series = new
        for k in range(4):
            assert w.coefficient(-1 + k) == series[k]

    def test_branch_point_leading_term(self):
        # leading coefficient of w is prod (a_nu - a_h)^{1/m} (principal branch)
        # z = a_2 + t^3
        c = SuperellipticCurve(3, [0.0, 1.0, 2.5 + 0.5j], -1)
        w = BranchChart(c, 2, 4).w_power(1)
        lead = w.coefficient(1)
        want = ((1.0 - 0.0) ** (1 / 3)) * complex(1.0 - (2.5 + 0.5j)) ** (1 / 3)
        assert abs(lead - want) < 1e-12

    def test_branch_point_square_root_series(self):
        c = SuperellipticCurve(2, [0.0, 1.0], -1)
        w = BranchChart(c, 1, 5).w_power(1)
        # z = t^2, w = t(t^2 - 1)^{1/2} = i(t - t^3/2 - ...) in the principal
        # branch
        assert abs(w.coefficient(1) - 1j) < 1e-13
        assert abs(w.coefficient(3) + 0.5j) < 1e-13
        assert w.coefficient(2) == 0

    def test_truncation_error(self):
        s = TruncatedSeries(0, [1, 2, 3], 3)
        with pytest.raises(TruncationError):
            s.coefficient(5)

    def test_product_coefficient_matches_full_product(self):
        # bit-equal to the coefficient read off the whole product, with its
        # TruncationError bound; zero below the product's leading exponent
        rng = random.Random(5)
        for _ in range(60):
            a, b = (TruncatedSeries(
                rng.randint(-4, 2),
                [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))]
                + [rng.choice((0j, complex(rng.gauss(0, 1), rng.gauss(0, 1))))
                   for _ in range(rng.randint(0, 6))],
                rng.randint(3, 10)) for _ in range(2))
            full = a * b
            for k in range(a.leading + b.leading - 3, full.order + 2):
                if k >= full.order:
                    with pytest.raises(TruncationError):
                        a.product_coefficient(b, k)
                else:
                    assert repr(a.product_coefficient(b, k)) == repr(
                        full.coefficient(k))


def reference_mul(a, b):
    """Series product by the nested loop over both coefficient lists: each
    nonzero coefficient of a against each nonzero one of b, added in the
    order of a's exponents."""
    def is_zero(c):
        return c.is_zero() if hasattr(c, "is_zero") else c == 0
    order = min(a.leading + b.order, b.leading + a.order)
    lead = a.leading + b.leading
    out = [0] * max(0, order - lead)
    for i, ci in enumerate(a.coeffs):
        if is_zero(ci):
            continue
        for j, cj in enumerate(b.coeffs):
            k = i + j
            if k >= len(out):
                break
            if is_zero(cj):
                continue
            out[k] = out[k] + ci * cj
    return TruncatedSeries(lead, out, order)


_X, _Y = MultiPoly.var("x"), MultiPoly.var("y")
_COEFFS = {
    "fraction": st.fractions(min_value=-4, max_value=4, max_denominator=5),
    "multipoly": st.builds(lambda c, x, y: c + _X * x + _Y ** 2 * y,
                           st.integers(-3, 3), st.integers(-2, 2),
                           st.fractions(-2, 2, max_denominator=3)),
    # thirds and sevenths are not dyadic, so the order of the additions
    # shows in the last bits
    "complex": st.builds(lambda u, v, d: complex(u, v) / d,
                         st.integers(-99, 99), st.integers(-99, 99),
                         st.sampled_from((3, 7))),
}


@st.composite
def _series_pair(draw):
    kind = draw(st.sampled_from(sorted(_COEFFS)))
    zero = MultiPoly.zero() if kind == "multipoly" else 0
    coeff = st.one_of(st.just(zero), _COEFFS[kind])

    def series():
        coeffs = draw(st.lists(coeff, max_size=8))
        lead = draw(st.integers(-5, 3))
        order = lead + draw(st.integers(-2, 10))
        return TruncatedSeries(lead, coeffs, order)
    return series(), series()


def _series_key(s):
    return s.leading, s.order, [repr(c) for c in s.coeffs]


@settings(max_examples=300, deadline=None)
@given(_series_pair())
def test_mul_matches_reference_mul(pair):
    # __mul__ builds each coefficient with product_coefficient; the values,
    # floats bit for bit, are those of the nested loop
    a, b = pair
    assert _series_key(a * b) == _series_key(reference_mul(a, b))


class TestResidueOracle:
    def test_polynomial_case_matches_worked_values(self):
        c = SuperellipticCurve(3, [F(0), F(1), "x"], 1)
        xv = MultiPoly.var("x")
        val, phase = residue_series_oracle(c, 1, 1, 1)
        assert val == (xv + 1) * F(1, 3)
        assert phase == (0, 1)

    def test_vanishing_residue_s1(self):
        c = SuperellipticCurve(2, [F(0), F(1), "x"], 1)
        val, _ = residue_series_oracle(c, 1, 1, 1)
        assert val.is_zero()

    def test_rational_case_matches_closed_form(self):
        c = SuperellipticCurve(1, [F(0), F(1), "x"], -1)
        xv = RatFunc.var("x")
        for i, want in [(1, (1 + xv) / xv ** 2), (2, -1 / xv), (3, -1 / xv ** 2)]:
            val, _ = residue_series_oracle(c, i, 1, 1)
            assert val.to_ratfunc() == want

    def test_phase_tags(self):
        c = SuperellipticCurve(3, [F(0), F(1), "x"], 1)
        _, p1 = residue_series_oracle(c, 1, 1, 1)
        _, p2 = residue_series_oracle(c, 1, 1, 2)
        assert p1 == (0, 1) and p2 == (1, 3)

    def test_zero_when_m_does_not_divide(self):
        c = SuperellipticCurve(2, [0.0, 1.0, 2.0], -1)
        val, _ = residue_series_oracle(c, 1, 1, 1)   # j|n| = 1 not divisible by 2
        assert val == 0 or (hasattr(val, "is_zero") and val.is_zero())


D2, D3, D4 = (MultiPoly.var(f"d{h}") for h in (2, 3, 4))

# (m, branch points, n, j values): theorem 3 and theorem 4 shapes (the latter
# with FactoredFrac values), numeric-exact curves and float curves
SHARING_CURVES = [
    (2, ["a1", "a2", "a3", "a4"], 1, (1, 2, 3)),
    (3, ["a1", "a2", "a3"], 2, (1, 2)),
    (1, [MultiPoly.zero(), -D2, -D3], -2, (1, 2)),
    (2, [MultiPoly.zero(), -D2, -D3, -D4], -1, (2, 4)),
    (3, [F(0), F(1), F(5, 2)], 1, (1, 2)),
    (2, [0, 1, 3, -2], -1, (1, 2)),
    (3, [0.0, 1.0, 2.0 + 1.0j], 1, (1, 2, 3)),
    (2, [0.0, 1.0, 2.0 + 1.0j, 3.0 - 1.0j], -1, (2, 4)),
]


def _poles(curve):
    return range(1, (curve.invariants().s if curve.n > 0 else curve.N) + 1)


def _exact_key(val, phase):
    # repr is exact for MultiPoly/FactoredFrac and bit-exact for floats
    return type(val).__name__, repr(val), phase


class TestOracleSharing:
    """Residues from one curve object, whose charts keep the w^e dz series,
    equal those from a fresh curve per call."""

    @pytest.mark.parametrize("m, pts, n, js", SHARING_CURVES)
    def test_shared_curve_equals_fresh_curves(self, m, pts, n, js):
        shared = SuperellipticCurve(m, pts, n)
        first = []
        for j in js:
            for pole in _poles(shared):
                for i in range(1, shared.N + 1):
                    got = residue_series_oracle(shared, i, j, pole)
                    want = residue_series_oracle(SuperellipticCurve(m, pts, n),
                                                 i, j, pole)
                    assert _exact_key(*got) == _exact_key(*want), (i, j, pole)
                    first.append((got, _exact_key(*got)))
        # later calls for other i, j and poles left earlier values untouched
        for got, key in first:
            assert _exact_key(*got) == key

    @pytest.mark.parametrize("m, pts, n, js", SHARING_CURVES)
    def test_doubling_from_small_order(self, m, pts, n, js):
        shared = SuperellipticCurve(m, pts, n)
        for j in js:
            for i in range(1, shared.N + 1):
                default = residue_series_oracle(shared, i, j, 1)
                doubled = residue_series_oracle(shared, i, j, 1, order=1)
                fresh = residue_series_oracle(SuperellipticCurve(m, pts, n),
                                              i, j, 1, order=1)
                assert _exact_key(*doubled) == _exact_key(*fresh)
                # a coefficient's products do not depend on the truncation,
                # so even the float values agree exactly
                assert doubled == default

    def test_w_power_built_once_per_chart_and_power(self, monkeypatch):
        calls = []
        orig = InfinityChart.w_power

        def counted(chart, e):
            calls.append((chart.order, e))
            return orig(chart, e)
        monkeypatch.setattr(InfinityChart, "w_power", counted)
        curve = SuperellipticCurve(2, ["a1", "a2", "a3", "a4"], 1)
        for j in (1, 2):
            for pole in (1, 2):  # both points over infinity read one chart
                for i in range(1, 5):
                    residue_series_oracle(curve, i, j, pole)
        assert len(calls) == len(set(calls)) == 2
        assert curve.chart(InfinityChart, 8) is curve.chart(InfinityChart, 8)


def _criterion5_cases():
    """(m, branch points, n, js) of the criterion 5 grids: theorem 3 at the
    classes it checks, theorem 4 with a_1 = 0 at the classes m divides."""
    for p in (2, 3, 4):
        for N in (2, 3, 4, 5):
            names = [f"a{i}" for i in range(1, N + 1)]
            gaps = [MultiPoly.zero()] + [-MultiPoly.var(f"d{h}")
                                         for h in range(2, N + 1)]
            for m in (2, 3, 4):
                s = gcd(m, N)
                js = tuple(L for L in range(1, p) if s * L % m == 0 and L % m)
                for n in (1, 2):
                    if gcd(n, m) == 1 and s > 1 and js:
                        yield m, names, n, js
            for m in (1, 2):
                for n in (-1, -2, -3):
                    js = tuple(range(m, p, m))
                    if gcd(-n, m) == 1 and js:
                        yield m, gaps, n, js


# criterion 5 reads the first pole; the sharing curves are read at all poles
ORACLE_CASES = ([(*case, (1,)) for case in _criterion5_cases()]
                + [(*case, None) for case in SHARING_CURVES])


def _least_order(curve, j):
    inv = curve.invariants()
    if curve.n > 0:
        return j * curve.n * inv.N1 + 1
    return j * abs(curve.n) + 1


def _chart_orders(curve, pole):
    # the orders of the charts that serve `pole`: every point over infinity
    # reads the one InfinityChart (nu None), a branch point its BranchChart
    return {order for (_, order, nu) in curve._charts if nu in (None, pole)}


class TestOracleTruncation:
    """The default order is the least at which the t^-1 coefficient is
    known; the residues equal those at the deeper orders j n N1 + 2 m1 and
    j|n| + 2m."""

    @pytest.mark.parametrize("m, pts, n, js, poles", ORACLE_CASES)
    def test_least_order_equals_deeper_order(self, m, pts, n, js, poles):
        for j in js:
            curve = SuperellipticCurve(m, pts, n)
            inv = curve.invariants()
            deeper = (j * n * inv.N1 + 2 * inv.m1 if n > 0
                      else j * abs(n) + 2 * m)
            poles = poles or _poles(curve)
            cases = [(i, pole) for pole in poles
                     for i in range(1, curve.N + 1)]
            got = [residue_series_oracle(curve, i, j, pole)
                   for i, pole in cases]
            # each chart built at the least order, none at a doubled one
            for pole in poles:
                assert _chart_orders(curve, pole) <= {_least_order(curve, j)}
            for (i, pole), val in zip(cases, got):
                want = residue_series_oracle(curve, i, j, pole, order=deeper)
                assert _exact_key(*val) == _exact_key(*want), (i, j, pole)

    @pytest.mark.parametrize("m, pts, n, js, poles", ORACLE_CASES)
    def test_one_less_needs_one_doubling(self, m, pts, n, js, poles):
        """One less than the least order, which used to cost a doubling, is
        raised to the least order: one chart, and the default residue."""
        for j in js:
            if n < 0 and j * n % m:
                continue    # the residue is 0 without a chart
            want = SuperellipticCurve(m, pts, n)
            least = _least_order(want, j)
            for i in range(1, want.N + 1):
                curve = SuperellipticCurve(m, pts, n)
                got = residue_series_oracle(curve, i, j, 1, order=least - 1)
                assert _chart_orders(curve, 1) == {least}, (i, j)
                assert _exact_key(*got) == _exact_key(
                    *residue_series_oracle(want, i, j, 1)), (i, j)

    def test_any_short_order_gives_the_default_residue(self):
        # K = j n N1 + 1 = 46 here; five doublings of order 1 stopped at 32
        pts = [0, 1, 2, 3, 5, 7]
        want = residue_series_oracle(SuperellipticCurve(2, pts, 5), 1, 3, 1)
        for order in (1, 0, -1):
            curve = SuperellipticCurve(2, pts, 5)
            got = residue_series_oracle(curve, 1, 3, 1, order=order)
            assert _exact_key(*got) == _exact_key(*want), order
            assert _chart_orders(curve, 1) == {46}

    def test_infinity_point_index_out_of_range(self):
        curve = SuperellipticCurve(2, ["a1", "a2", "a3", "a4"], 1)  # s = 2
        for pole in (0, 3):
            with pytest.raises(ValueError, match=r"must be in 1\.\.2"):
                residue_series_oracle(curve, 1, 1, pole)
        assert not curve._charts

    def test_order_past_the_cap_raises(self):
        curve = SuperellipticCurve(2, ["a1", "a2", "a3", "a4"], 1)
        with pytest.raises(TruncationError, match="internal cap"):
            residue_series_oracle(curve, 1, 1, 1, order=5000)


class TestDwIdentity:
    """m w^{m-1} dw = sum_i P(z, a)/(z - a_i) dz, checked as truncated series
    sharing one fractional prefactor per chart."""

    def _check(self, chart, N):
        m = chart.curve.m
        w1 = chart.w_power(1)
        lhs = w1.derivative() * chart.w_power(m - 1) * m
        dz = chart.dz_series()
        wm = chart.w_power(m)
        rhs = None
        for i in range(1, N + 1):
            term = wm * chart.one_over_z_minus(i) * dz
            rhs = term if rhs is None else rhs + term
        diff = lhs - rhs
        assert diff.is_zero()

    def test_infinity_chart_symbolic(self):
        c = SuperellipticCurve(3, [F(0), F(1), "x"], 1)
        self._check(InfinityChart(c, 6), 3)

    def test_infinity_chart_numeric(self):
        c = SuperellipticCurve(2, [0.0, 1.0, 2.0 + 1.0j], 1)
        chart = InfinityChart(c, 8)
        m = 2
        lhs = chart.w_power(1).derivative() * chart.w_power(1) * m
        dz = chart.dz_series()
        wm = chart.w_power(2)
        rhs = None
        for i in (1, 2, 3):
            term = wm * chart.one_over_z_minus(i) * dz
            rhs = term if rhs is None else rhs + term
        diff = (lhs - rhs)
        assert all(abs(complex(v)) < 1e-10 for v in diff.coeffs)

    def test_branch_chart_numeric(self):
        c = SuperellipticCurve(2, [0.0, 1.0, 3.0], -1)
        chart = BranchChart(c, 1, 8)
        m = 2
        lhs = chart.w_power(1).derivative() * chart.w_power(1) * m
        dz = chart.dz_series()
        wm = chart.w_power(2)
        rhs = None
        for i in (1, 2, 3):
            term = wm * chart.one_over_z_minus(i) * dz
            rhs = term if rhs is None else rhs + term
        diff = lhs - rhs
        assert all(abs(complex(v)) < 1e-10 for v in diff.coeffs)
