import cmath
import json
import math
import numbers
import random
import warnings
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from isolab import periods
from isolab.curves import SuperellipticCurve, residue_series_oracle
from isolab.periods import (ArcSegment, BranchTracker, ContinuationError,
                            LineSegment, PathOverflowError, PathSpec,
                            QuadratureStats, build_cycle_basis, continue_w,
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
            assert abs(cyc.start() - cyc.end()) < 1e-9

    @pytest.mark.parametrize("points", [(0, 10, 10.1 + 2j), (0, 1, 1 + 0.01j)])
    @pytest.mark.parametrize("m", [2, 3])
    def test_close_third_point_stays_outside_the_loops(self, points, m):
        # a circle of radius |a_i - a_j|/4 around 10 (or 1) would swallow the
        # third branch point, and the columns would no longer sum to zero
        curve = SuperellipticCurve(m, list(points), 1)
        B = period_matrix(curve, 1, build_cycle_basis(curve))
        scale = np.abs(B.entries).max()
        assert np.abs(B.entries.sum(axis=0)).max() < 1e-9 * max(scale, 1.0)
        assert rank_check(B) == curve.N - 1

    def test_double_loops_clear_every_other_branch_point(self):
        rng = random.Random(24)
        for _ in range(200):
            pts = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                   for _ in range(rng.randint(3, 6))]
            curve = SuperellipticCurve(rng.choice((2, 3)), pts, 1)
            for cyc in build_cycle_basis(curve):
                arcs = [s for s in cyc.segments if isinstance(s, ArcSegment)]
                centres = {arc.center for arc in arcs}
                assert len(arcs) == 2 and len(centres) == 2
                for arc in arcs:
                    for a in pts:
                        if a not in centres:
                            assert abs(a - arc.center) >= 2 * arc.radius


class TestIntegration:
    def test_infinity_loop_residue_bridge(self):
        val, _ = residue_series_oracle(CURVE_33, 1, 1, 1)
        per = integrate_omega(CURVE_33, 1, 1, infinity_loop(CURVE_33, 1))
        assert abs(per - (-2j * math.pi * val)) < 1e-8 * abs(val)

    # s = m = N points over infinity; j = 2 on w^2 would integrate a
    # polynomial, whose residue is 0
    @pytest.mark.parametrize("m, pts, js", [
        (2, [0.0, 1.0, 2.0 + 1.0j, -1.0 + 0.5j], (1,)),
        (4, [0.0, 1.0, 2.0 + 1.0j, -1.0 + 0.5j], (1, 2)),
        (6, [0.0, 1.0, 2.0 + 1.0j, -1.0 + 0.5j, 0.5 - 1.5j, 3.0], (1, 2))])
    def test_phase_tag_at_every_infinity_point(self, m, pts, js):
        # the residue at the k-th point is the oracle's value times
        # e^{2 pi i p/q}, (p, q) its tag for (k - 1) j n / s
        curve = SuperellipticCurve(m, pts, 1)
        assert curve.invariants().s == m
        for k in range(1, m + 1):
            for j in js:
                got = integrate_omega(curve, [1, 2], j, infinity_loop(curve, k))
                for i, per in zip((1, 2), got):
                    val, (p, q) = residue_series_oracle(curve, i, j, k)
                    want = -2j * math.pi * val * cmath.exp(2j * math.pi * p / q)
                    assert abs(per - want) < 1e-8 * abs(want), (k, i, j)

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

    def test_rounding_noise_has_rank_zero(self):
        # N = m = 2, n = -1: both w^-1 dz/(z - a_i) are exact (their sum is
        # -2 d(1/w)), so every period is rounding noise; it once read rank 1
        curve = SuperellipticCurve(2, [0.3 + 0.1j, 1.7 - 0.4j], -1)
        B = period_matrix(curve, 1, build_cycle_basis(curve))
        assert np.abs(B.entries).max() < 1e-12
        assert rank_check(B) == 0

    def test_rank_floor_follows_the_scale_of_the_curve(self):
        # entries of 1e-16 are periods, not noise, on a curve this small,
        # and a loose tol moves no floor: the rank stays N - 1
        pts = [0.0, 0.05, 0.1 + 0.05j, 0.04 - 0.03j, 0.07 + 0.08j]
        curve = SuperellipticCurve(2, pts, 5)
        for tol in (1e-10, 1e-3):
            B = period_matrix(curve, 1, build_cycle_basis(curve), tol)
            assert np.abs(B.entries).max() < 1e-15
            assert rank_check(B) == 4
        # the noise of the exact pair stays noise at any scale
        for scale in (1e-3, 1.0, 1e3):
            curve = SuperellipticCurve(2, [scale * (0.3 + 0.1j),
                                           scale * (1.7 - 0.4j)], -1)
            assert rank_check(period_matrix(curve, 1, build_cycle_basis(curve),
                                            1e-3)) == 0

    def test_rank_n_minus_two_where_m_divides_n(self):
        # n < 0, j n not divisible by m and m | N: one exact relation more,
        # for m = 2, N = 4, n = -1
        # sum_i (a_i^2 - (S/2) a_i) omega_i = d((S z - 2 z^2)/w), S = sum a_i
        pts = [0.0, 1.0, 2.4 + 0.8j, 3.6 - 0.9j]
        curve = SuperellipticCurve(2, pts, -1)
        B = period_matrix(curve, 1, build_cycle_basis(curve))
        assert rank_check(B) == 2
        a = np.array(pts, dtype=complex)
        relation = (a ** 2 - a.sum() / 2 * a) @ B.entries
        assert np.abs(relation).max() < 1e-12 * np.abs(B.entries).max()
        curve = SuperellipticCurve(3, [0.0, 1.0, 2.0 + 1.0j], -1)
        assert rank_check(period_matrix(curve, 1, build_cycle_basis(curve))) == 1

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
                * complex(seg.velocity_array(np.asarray(t)))
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

    def test_full_turn_arc_gets_eight_panels(self):
        # on the arc around a_3 the turn count rounds to 0.9999999999999999;
        # four lines of 4 panels and two full-turn arcs of 8, none halved
        curve = SuperellipticCurve(2, [0.0, 1.0, 2.0 + 1.0j], -1)
        for shift in (0, 1):
            loop = double_loop(curve, 2, 3, shift)
            st = QuadratureStats()
            integrate_omega(curve, [1, 2, 3], 1, loop, stats=st)
            assert st.max_depth == 0 and st.panels == 32, loop.label


def reference_integrate_omega(curve, i, j, cycle, tol=1e-10, stats=None):
    """integrate_omega as it was before the initial panels of a cycle shared
    one pass: one tracked numpy pass per panel, in path order, each panel and
    its halves walked by BranchTracker.advance when a step is ambiguous."""
    single = isinstance(i, numbers.Integral)
    rows = [i] if single else list(i)
    poles = np.array([curve.point_numeric(r) for r in rows])[:, None, None]
    e = j * curve.n
    m = curve.m
    tracker = BranchTracker(curve, cycle.start(), cycle.start_branch)
    totals = np.zeros(len(rows), dtype=complex)
    if stats is None:
        stats = QuadratureStats()
    stats.tol = tol

    def follow_roots(P, starts):
        r = np.array([x ** (1.0 / m) for x in np.hypot(P.real, P.imag).tolist()])
        base = np.array(list(map(math.atan2, P.imag.tolist(), P.real.tolist()))) / m
        prev_r = np.concatenate(([0.0], r[:-1]))
        prev_base = np.concatenate(([0.0], base[:-1]))
        prev_r[list(starts)] = abs(tracker.w)
        prev_base[list(starts)] = cmath.phase(tracker.w)
        x = (prev_base - base) * (m / (2 * math.pi))
        steps = np.rint(x)
        h0 = np.abs(x - steps) * (math.pi / m)
        dr2 = (r - prev_r) ** 2
        rr4 = 4.0 * r * prev_r
        d0 = dr2 + rr4 * np.sin(h0) ** 2
        d1 = dr2 + rr4 * np.sin(math.pi / m - h0) ** 2
        if np.any(4.0 * d0 > d1 * periods._GAP_MARGIN):
            return None
        turns = np.cumsum(steps)
        for s in starts[1:]:
            turns[s:] -= turns[s - 1]
        ell = turns.astype(np.int64) % m
        unit = np.exp(1j * (base + 2 * math.pi * ell / m))
        return periods._join(r * unit.real, r * unit.imag)

    def follow(z, starts):
        P = periods._poly_at(curve, z)
        w = P if m == 1 else follow_roots(P, starts) if P.all() else None
        if w is None:
            start = tracker.state()
            w = np.empty(len(z), dtype=complex)
            bounds = list(starts) + [len(z)]
            for lo, hi in zip(bounds, bounds[1:]):
                tracker.restore(start)
                for k in range(lo, hi):
                    w[k] = tracker.advance(complex(z[k]))
            return w, len(z)
        tracker.z, tracker.w = complex(z[-1]), complex(w[-1])
        return w, 0

    def halves(seg, t0, t1, active, whole):
        tm = 0.5 * (t0 + t1)
        lo = np.array([t0, t0, tm] if whole else [t0, tm])
        hi = np.array([t1, tm, t1] if whole else [tm, t1])
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        t = np.empty((len(lo), 17))
        t[:, :16] = mid[:, None] + half[:, None] * periods._GL_NODES
        t[:, 16] = hi
        t = t.ravel()
        z = seg.at_array(t)
        w, scalar_steps = follow(z, (0, 17) if whole else (0,))
        stats.fallback_steps += scalar_steps
        z, w = z.reshape(-1, 17), w.reshape(-1, 17)
        vel = seg.velocity_array(t).reshape(-1, 17)[:, :16]
        zn, pa = z[:, :16], poles[active]
        f = periods._div(periods._pow((w.real[:, :16], w.imag[:, :16]), e),
                         (zn.real - pa.real, zn.imag - pa.imag))
        terms = periods._mul((periods._GL_WEIGHTS * f[0], periods._GL_WEIGHTS * f[1]),
                             (vel.real, vel.imag))
        vals = periods._join(*(part.cumsum(axis=2)[:, :, -1] * half
                               for part in terms))
        if not np.isfinite(vals).all():
            raise ZeroDivisionError("integrand is singular on the path")
        sizes = (np.abs(terms[0]) + np.abs(terms[1])).sum(axis=2) * half
        return vals, sizes[:, -2] + sizes[:, -1], w[-2, 16]

    def panel(seg, t0, t1, depth, active, val1):
        start = tracker.state()
        vals, sizes, w_mid = halves(seg, t0, t1, active, val1 is None)
        if val1 is None:
            val1 = vals[:, 0]
        left, right = vals[:, -2], vals[:, -1]
        val2 = left + right
        err = periods._abs(val1 - val2)
        size = periods._abs(val2)
        ok = err <= np.maximum(tol, tol * size)
        if depth >= periods._MAX_DEPTH:
            if np.any(err > 1e-6 * np.maximum(1.0, size)):
                raise ArithmeticError("quadrature failed to converge on a panel")
            ok[:] = True
        stats.panels += 1
        stats.max_depth = max(stats.max_depth, depth)
        if ok.any():
            stats.max_error = max(stats.max_error, float(err[ok].max()))
            stats.abs_integral += float(sizes[ok].sum())
            totals[active[ok]] += val2[ok]
        if ok.all():
            return
        w_end = tracker.w
        tracker.restore(start)
        redo = ~ok
        tm = 0.5 * (t0 + t1)
        panel(seg, t0, tm, depth + 1, active[redo], left[redo])
        same = periods._same_sheet(tracker.w, w_mid)
        panel(seg, tm, t1, depth + 1, active[redo], right[redo] if same else None)
        if ok.any() and not periods._same_sheet(tracker.w, w_end):
            raise ContinuationError("refining a panel changed its end sheet")

    everyone = np.arange(len(rows))
    for seg in cycle.segments:
        npanels = 4
        if isinstance(seg, ArcSegment):
            turns = abs(seg.angle1 - seg.angle0) / (2 * math.pi)
            npanels = max(4, int(8 * turns + 1e-9))
        for k in range(npanels):
            panel(seg, k / npanels, (k + 1) / npanels, 0, everyone, None)
    return complex(totals[0]) if single else totals


TRIANGLE = (0.0, 1.0, 2.0 + 1.0j)
QUADRANGLE = (0.0, 1.0, 2.4 + 0.8j, 3.6 - 0.9j)
# (m, branch points, n, j) of the period matrices of the numeric benchmark
PERIOD_GRID = [(2, TRIANGLE, 1, 1), (3, TRIANGLE, 1, 1), (3, TRIANGLE, 1, 2),
               (2, QUADRANGLE, 1, 1), (4, TRIANGLE, 1, 1), (1, TRIANGLE, -1, 1),
               (2, TRIANGLE, -1, 2), (1, QUADRANGLE, -1, 1)]


def _reference_cases():
    """(curve, rows, j, cycle): the jittered period grid with its infinity
    and puncture loops, lines that refine or fall back to `advance`, and the
    exponents of test_exponents_match_scalar_route."""
    rng = random.Random(20)
    for m, pts, n, j in PERIOD_GRID:
        pts = [complex(z) + complex(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
               for z in pts]
        curve = SuperellipticCurve(m, pts, n)
        for cyc in build_cycle_basis(curve):
            yield curve, range(1, curve.N + 1), j, cyc
            yield curve, curve.N, j, cyc
        yield curve, [1, 2], j, infinity_loop(curve, 2)
        yield curve, 1, j, puncture_loop(curve, 1)
    # the first panel of the long line steps past a_1 and a_2 at once: the
    # pass leaves it to `advance`, which ends on another root than the pass
    # assumed, so the panels after it take a second pass
    long_line = PathSpec((LineSegment(-9.5 - 0.006j, 74.5 - 0.006j),), 0)
    for path in (_line_beside_a1(0.1), _line_beside_a1(0.005), long_line):
        for curve in (CURVE_23, CURVE_33):
            yield curve, [1, 2, 3], 1, path
            yield curve, 2, 1, path
    loop = build_cycle_basis(CURVE_33)[1]
    for j, n in ((0, 1), (1, -1), (2, -1), (5, 1)):
        yield SuperellipticCurve(3, [0.0, 1.0, 2.0 + 1.0j], n), [1, 2, 3], j, loop


class TestOnePassPerCycle:
    def test_bit_identical_to_one_pass_per_panel(self, monkeypatch):
        follow, passes = BranchTracker.follow, []

        def counted(tracker, z):
            passes[-1] += len(z) > 1
            return follow(tracker, z)

        monkeypatch.setattr(BranchTracker, "follow", counted)
        kinds = set()
        for curve, rows, j, cyc in _reference_cases():
            got_st, want_st = QuadratureStats(), QuadratureStats()
            passes.append(0)
            got = integrate_omega(curve, rows, j, cyc, stats=got_st)
            want = reference_integrate_omega(curve, rows, j, cyc, stats=want_st)
            case = (curve.m, curve.n, j, cyc.label, rows)
            assert type(got) is type(want), case
            assert list(map(repr, np.atleast_1d(got))) == \
                list(map(repr, np.atleast_1d(want))), case
            assert got_st == want_st, case
            kinds.add((got_st.max_depth > 0, got_st.fallback_steps > 0))
        # panels accepted whole, refined, and walked by `advance`; cycles of
        # one pass and of more
        assert kinds == {(False, False), (True, False), (True, True)}
        assert set(passes) == {1, 2}

    def test_tol_below_float_resolution_is_refused(self):
        for tol in (1e-30, 1e-17, math.nan):
            with pytest.raises(ValueError, match="below the float resolution"):
                integrate_omega(CURVE_23, 1, 1, build_cycle_basis(CURVE_23)[0], tol)

    @pytest.mark.parametrize("points", [(0, 1, 1e200), (0, 1, 1e120), (0, 1e160, 2)])
    def test_overflowing_polynomial_is_named(self, points):
        curve = SuperellipticCurve(2, [complex(a) for a in points], 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PathOverflowError, match="overflows") as info:
                period_matrix(curve, 1, build_cycle_basis(curve))
        assert isinstance(info.value, ArithmeticError)

    def test_overflowing_integrand_is_named(self):
        # P ~ 1e90 stays finite, w^15 does not
        curve = SuperellipticCurve(2, [0j, 1 + 0j, 1e30 + 0j], 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PathOverflowError, match="integrand overflows"):
                period_matrix(curve, 3, build_cycle_basis(curve))
