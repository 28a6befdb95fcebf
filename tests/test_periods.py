import cmath
import json
import math
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from isolab.curves import SuperellipticCurve, residue_series_oracle
from isolab.periods import (ArcSegment, BranchTracker, ContinuationError,
                            LineSegment, PathSpec, QuadratureStats,
                            build_cycle_basis, clearance_radius, continue_w,
                            double_loop, infinity_loop, integrate_omega,
                            isomonodromy_fd_check, period_matrix, puncture_loop,
                            rank_check)

CURVE_23 = SuperellipticCurve(2, [0.0, 1.0, 2.0 + 1.0j], 1)
CURVE_33 = SuperellipticCurve(3, [0.0, 1.0, 2.0 + 1.0j], 1)
DATA = Path(__file__).parent / "data"


class TestContinuation:
    def test_single_loop_monodromy(self):
        path = PathSpec((ArcSegment(0j, 0.3, 0.0, 2 * math.pi),), 0)
        samples = continue_w(CURVE_23, path, steps=64)
        w0, w1 = samples[0][1], samples[-1][1]
        assert abs(w1 + w0) < 1e-10 * abs(w0)

    def test_full_loop_monodromy(self):
        path = PathSpec((ArcSegment(0j, 20.0, 0.0, 2 * math.pi),), 0)
        samples = continue_w(CURVE_23, path, steps=256)
        w0, w1 = samples[0][1], samples[-1][1]
        assert abs(w1 - w0 * cmath.exp(2j * math.pi * 3 / 2)) < 1e-9 * abs(w0)

    def test_empty_loop_returns_exactly(self):
        path = PathSpec((ArcSegment(5 + 5j, 0.5, 0.0, 2 * math.pi),), 0)
        samples = continue_w(CURVE_23, path, steps=64)
        assert abs(samples[-1][1] - samples[0][1]) < 1e-12 * abs(samples[0][1])

    def test_monodromy_composition(self):
        # consecutive counterclockwise loops around a_1 then a_2 compose:
        # total phase e^{2 pi i * 2/m}
        tr = BranchTracker(CURVE_33, -2.0 + 0j, 0)
        w_start = tr.w
        for center in (0j, 1 + 0j):
            radius = abs(-2.0 - center)
            base_ang = cmath.phase(-2.0 - center)
            for k in range(1, 65):
                ang = base_ang + 2 * math.pi * k / 64
                tr.advance(center + radius * cmath.exp(1j * ang))
            tr.advance(-2.0 + 0j)
        assert abs(tr.w - w_start * cmath.exp(2j * math.pi * 2 / 3)) < 1e-8


class TestCycles:
    def test_counts(self):
        assert len(build_cycle_basis(CURVE_23)) == 2
        assert len(build_cycle_basis(CURVE_33)) == 4
        neg = SuperellipticCurve(1, [0.0, 1.0, 2.0 + 1.0j], -1)
        assert len(build_cycle_basis(neg)) == 2
        neg2 = SuperellipticCurve(2, [0.0, 1.0, 2.0 + 1.0j], -1)
        assert len(build_cycle_basis(neg2)) == 4

    def test_cycles_are_closed(self):
        for cyc in build_cycle_basis(CURVE_33):
            assert cyc.is_closed()

    def test_clearance_check(self):
        seg = LineSegment(-1 + 0j, 3 + 0j)  # runs straight through 0 and 1
        path = PathSpec((seg,), 0)
        with pytest.raises(ValueError):
            path.check_clearance(CURVE_23, clearance_radius(CURVE_23))
        for cyc in build_cycle_basis(CURVE_23):
            cyc.check_clearance(CURVE_23, 1e-6)


class TestIntegration:
    def test_infinity_loop_residue_bridge(self):
        val, _ = residue_series_oracle(CURVE_33, 1, 1, 1)
        per = integrate_omega(CURVE_33, 1, 1, infinity_loop(CURVE_33, 1))
        assert abs(per - (-2j * math.pi * val)) < 1e-8 * abs(val)

    def test_puncture_loop_residue_bridge(self):
        cneg = SuperellipticCurve(2, [0.0, 1.0, 2.0 + 1.0j], -1)
        val, _ = residue_series_oracle(cneg, 2, 2, 1)
        per = integrate_omega(cneg, 2, 2, puncture_loop(cneg, 1))
        assert abs(per - 2j * math.pi * val) < 1e-8 * abs(val)

    def test_zero_sum_over_i(self):
        loop = infinity_loop(CURVE_33, 1)
        tot = sum(integrate_omega(CURVE_33, i, 1, loop) for i in (1, 2, 3))
        assert abs(tot) < 1e-9

    def test_cycle_enclosing_no_singularity(self):
        path = PathSpec((ArcSegment(5 + 5j, 0.5, 0.0, 2 * math.pi),), 0)
        assert abs(integrate_omega(CURVE_23, 1, 1, path)) < 1e-10


class TestPeriodMatrix:
    def test_rank_n_minus_one_coprime(self):
        B = period_matrix(CURVE_23, 1, build_cycle_basis(CURVE_23))
        assert rank_check(B) == 2
        assert np.abs(B.entries.sum(axis=0)).max() < 1e-9

    def test_rank_n_minus_one_case_b(self):
        B = period_matrix(CURVE_33, 1, build_cycle_basis(CURVE_33))
        assert rank_check(B) == 2

    def test_rank_negative_n(self):
        cneg = SuperellipticCurve(1, [0.0, 1.0, 2.0 + 1.0j], -1)
        B = period_matrix(cneg, 1, build_cycle_basis(cneg))
        assert rank_check(B) == 2

    def test_exact_differential_columns_vanish(self):
        B = period_matrix(CURVE_33, 3, build_cycle_basis(CURVE_33)[:2])
        assert np.abs(B.entries).max() < 1e-8

    def test_zero_matrix_rank(self):
        assert rank_check(np.zeros((3, 4), dtype=complex)) == 0

    def test_rank_stable_under_recombination(self):
        B = period_matrix(CURVE_33, 1, build_cycle_basis(CURVE_33))
        rng = np.random.default_rng(11)
        for _ in range(3):
            T = rng.integers(-3, 4, size=(B.cols, B.cols)).astype(complex)
            while abs(np.linalg.det(T)) < 0.5:
                T = rng.integers(-3, 4, size=(B.cols, B.cols)).astype(complex)
            assert rank_check(B.entries @ T) == 2

    def test_residue_columns_match_closed_forms(self):
        # small loops around (0,0) and (1,0) for m=1, n=-1 reproduce the
        # printed rational solutions at the numeric x
        xval = 2.0 + 1.0j
        cneg = SuperellipticCurve(1, [0.0, 1.0, xval], -1)
        twopii = 2j * math.pi
        per = integrate_omega(cneg, 1, 1, puncture_loop(cneg, 1))
        want = twopii * (1 + xval) / xval ** 2          # b1 = (1+x)/x^2
        assert abs(per - want) < 1e-8 * abs(want)
        per2 = integrate_omega(cneg, 2, 1, puncture_loop(cneg, 2))
        want2 = twopii * (xval - 2) / (1 - xval) ** 2   # tb2 = (x-2)/(1-x)^2
        assert abs(per2 - want2) < 1e-8 * abs(want2)


class TestPainleveBridge:
    def test_period_entries_reproduce_pvi_solution(self):
        # periods of w^n dz/(z - a_i) over a residue cycle at numeric x give
        # the same y = x b1/(b1 + (1-x) b3) as the exact polynomial family
        from isolab.painleve import thm5_solution
        xval = 2.0 + 1.0j
        curve = SuperellipticCurve(3, [0.0, 1.0, xval], 1)
        loop = infinity_loop(curve, 1)
        b = [integrate_omega(curve, i, 1, loop) for i in (1, 2, 3)]
        y_num = xval * b[0] / (b[0] + (1 - xval) * b[2])
        y_exact = thm5_solution(1).y.evaluate({"x": xval})
        assert abs(y_num - complex(y_exact)) < 1e-9


class TestIsomonodromy:
    def test_double_loop_flow(self):
        cyc = build_cycle_basis(CURVE_23)[0]
        err = isomonodromy_fd_check(CURVE_23, 1, 1, cyc, vary=3, h=1e-4)
        assert err < 1e-6

    def test_residue_cycle_matches_symbolic_derivative(self):
        # d b_1 / d a_3 for the polynomial solution via periods around P_1
        xv = 2.0 + 1.0j
        h = 1e-4
        vals = {}
        for delta in (h, -h):
            c = SuperellipticCurve(3, [0.0, 1.0, xv + delta], 1)
            vals[delta] = integrate_omega(c, 1, 1, infinity_loop(
                SuperellipticCurve(3, [0.0, 1.0, xv], 1), 1))
        fd = (vals[h] - vals[-h]) / (2 * h)
        # b1 = -2 pi i (x+1)/3 along this cycle, so d/dx = -2 pi i /3
        want = -2j * math.pi / 3
        assert abs(fd - want) < 1e-6

    def test_exact_class_both_sides_zero(self):
        cyc = build_cycle_basis(CURVE_33)[0]
        err = isomonodromy_fd_check(CURVE_33, 1, 3, cyc, vary=2, h=1e-4)
        assert err < 1e-8


def _scalar_integral(curve, i, j, cycle, tol=1e-10):
    """Reference quadrature: one row, node by node through
    BranchTracker.advance, every panel and half recomputed."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    ai = curve.point_numeric(i)
    tracker = BranchTracker(curve, cycle.start(), cycle.start_branch)
    total = 0j

    def gl(seg, t0, t1):
        half, mid, val = 0.5 * (t1 - t0), 0.5 * (t0 + t1), 0j
        for node, weight in zip(nodes, weights):
            t = mid + half * node
            z = seg.at(t)
            val += weight * (tracker.advance(z) ** (j * curve.n) / (z - ai)) \
                * seg.velocity(t)
        tracker.advance(seg.at(t1))
        return val * half

    def panel(seg, t0, t1):
        nonlocal total
        start = tracker.state()
        val1 = gl(seg, t0, t1)
        tracker.restore(start)
        tm = 0.5 * (t0 + t1)
        val2 = gl(seg, t0, tm) + gl(seg, tm, t1)
        if abs(val1 - val2) <= max(tol, tol * abs(val2)):
            total += val2
            return
        tracker.restore(start)
        panel(seg, t0, tm)
        panel(seg, tm, t1)

    for seg in cycle.segments:
        npanels = 4
        if isinstance(seg, ArcSegment):
            npanels = max(4, int(8 * abs(seg.angle1 - seg.angle0) / (2 * math.pi)))
        for k in range(npanels):
            panel(seg, k / npanels, (k + 1) / npanels)
    return total


def _line_beside_a1(offset):
    """A line passing `offset` above the branch point a_1 = 0."""
    return PathSpec((LineSegment(-1 + offset * 1j, 0.6 + offset * 1j),), 0)


class TestBatchedQuadrature:
    def test_golden_period_matrices(self):
        # recorded with the node-by-node scalar quadrature, before panels
        # were evaluated in one numpy pass for all rows of a cycle
        golden = json.loads((DATA / "period_matrices.json").read_text())

        def curve(rec):
            return SuperellipticCurve(rec["m"], [complex(*a) for a in rec["a"]],
                                      rec["n"])

        assert len(golden["matrices"]) == 17
        for rec in golden["matrices"]:
            c = curve(rec)
            B = period_matrix(c, rec["j"], build_cycle_basis(c)[:rec["cycles"]])
            want = np.array([[complex(*v) for v in row] for row in rec["entries"]])
            scale = max(1.0, np.abs(want).max())
            assert np.abs(B.entries - want).max() <= 1e-12 * scale, rec
        for rec in golden["integrals"]:
            c = curve(rec)
            kind, idx = rec["loop"].split(":")
            loop = (infinity_loop if kind == "infinity" else puncture_loop)(c, int(idx))
            want = complex(*rec["value"])
            got = integrate_omega(c, rec["i"], rec["j"], loop)
            assert abs(got - want) <= 1e-12 * abs(want), rec
        for rec in golden["isomonodromy"]:
            c = curve(rec)
            cyc = build_cycle_basis(c)[rec["cycle"]]
            got = isomonodromy_fd_check(c, rec["i"], rec["j"], cyc,
                                        vary=rec["vary"], h=1e-4)
            assert abs(got - rec["value"]) <= 1e-12, rec

    def test_rows_refine_independently(self):
        # 0.1 above a_1: rows 1 and 2 halve their panels, row 3 never does
        path = _line_beside_a1(0.1)
        depths, single = [], []
        for i in (1, 2, 3):
            st = QuadratureStats()
            single.append(integrate_omega(CURVE_23, i, 1, path, stats=st))
            depths.append(st.max_depth)
        assert depths[2] == 0 and min(depths[:2]) >= 1
        st = QuadratureStats()
        batched = integrate_omega(CURVE_23, [1, 2, 3], 1, path, stats=st)
        assert st.max_depth == max(depths)
        for got, want in zip(batched, single):
            assert abs(got - want) <= 1e-13 * abs(want)
        for i, got in zip((1, 2, 3), batched):
            want = _scalar_integral(CURVE_23, i, 1, path)
            assert abs(got - want) <= 1e-13 * abs(want)

    def test_coarse_panel_beside_branch_point_falls_back(self):
        path = _line_beside_a1(0.005)
        for curve in (CURVE_23, CURVE_33):
            st = QuadratureStats()
            got = integrate_omega(curve, [1, 2, 3], 1, path, stats=st)
            assert st.fallback_steps > 0 and st.max_depth >= 3
            for i, val in zip((1, 2, 3), got):
                want = _scalar_integral(curve, i, 1, path)
                assert abs(val - want) <= 1e-13 * abs(want)

    def test_exponents_match_scalar_route(self):
        # j n = 0 (w^0 = 1), negative and larger powers of w
        loop = build_cycle_basis(CURVE_33)[1]
        for j, n in ((0, 1), (1, -1), (2, -1), (5, 1)):
            curve = SuperellipticCurve(3, [0.0, 1.0, 2.0 + 1.0j], n)
            got = integrate_omega(curve, [1, 2, 3], j, loop)
            for i, val in zip((1, 2, 3), got):
                want = _scalar_integral(curve, i, j, loop)
                assert abs(val - want) <= 1e-13 * max(1.0, abs(want))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_path_through_branch_point_raises(self):
        for z0, z1 in ((-1.0, 1.0), (-0.5, 0.7)):
            path = PathSpec((LineSegment(complex(z0), complex(z1)),), 0)
            for curve in (CURVE_23, CURVE_33):
                with pytest.raises(ContinuationError):
                    integrate_omega(curve, [1, 2, 3], 1, path)
        # m = 1: w = P vanishes at a node and w^{-1} has a pole there
        cneg = SuperellipticCurve(1, [0.0, 1.0, 2.0 + 1.0j], -1)
        with pytest.raises(ArithmeticError):
            integrate_omega(cneg, 2, 1, PathSpec((LineSegment(-1 + 0j, 1 + 0j),), 0))

    def test_period_matrix_reports_effort(self):
        cycles = build_cycle_basis(CURVE_33)
        B = period_matrix(CURVE_33, 1, cycles, tol=1e-11)
        assert len(B.stats) == B.cols
        for st, cyc in zip(B.stats, cycles):
            # at least 4 panels per segment, none of them halved
            assert st.tol == 1e-11 and st.panels >= 4 * len(cyc.segments)
            assert st.max_depth == 0 and st.fallback_steps == 0
            assert 0 < st.max_error <= st.tol * max(1.0, np.abs(B.entries).max())
        st = QuadratureStats()
        integrate_omega(CURVE_23, 1, 1, _line_beside_a1(0.005), stats=st)
        assert st.max_depth >= 3 and st.fallback_steps > 0
        # accepted where |val1 - val2| <= max(tol, tol |val2|); no panel
        # of this line is worth 10
        assert st.panels > 4 and 0 < st.max_error <= 10 * st.tol
