"""Numeric periods of w^{jn} dz/(z - a_i) on superelliptic curves.

Paths live in the z-plane as line/arc segments with a chosen starting sheet;
the w-branch is tracked by nearest-root continuation with adaptive
sub-stepping (steps are halved whenever the two closest m-th roots come
within a factor-2 ambiguity margin).

Quadrature runs in adaptive 16-point Gauss-Legendre panels. Every initial
panel of a cycle is evaluated in one numpy pass, for all requested rows i at
once: every node and endpoint of each panel and of its two halves. The
halves of consecutive panels form one chain, along which the branch index is
a cumulative sum of rounded angle changes, and the same angular gaps give
the factor-2 test for every step; each whole panel is a chain from the end
of the previous panel. The accepted panels' values are added in path order.
A panel with a row that fails the tolerance is refined by passes of its
halves; a panel with an ambiguous step, or with P = 0 on it, is redone alone
from its start state, and a lone panel like that is walked by the scalar
`BranchTracker.advance`, halving and all. The same pass function serves the
cycle, the refinement and the redone panels. Each row keeps its own
refinement decision, and a refined half reuses its value from the parent
panel. P(z) or an integrand that overflows float64 on the path raises
PathOverflowError.

Cycles are concrete contours:

* double loops: around a_i counterclockwise then a_{i+1} clockwise, closed on
  the curve for every starting sheet. Both circles have radius
  r = min(|a_i - a_{i+1}|, 2d)/4, d the distance from a_i or a_{i+1} to the
  nearest other branch point, so every other branch point lies at least 2r
  from both centres and neither circle encloses it. The lines from the
  midpoint run along the segment a_i a_{i+1}, which holds no other branch
  point: the pair is consecutive in (real, imag) order,
* puncture loops: an m-fold circle around a branch point (one chart loop),
* infinity loops: an m1-fold large circle, the starting sheet selecting which
  of the s points above z = infinity is encircled.

Orientation bookkeeping: a puncture loop equals +2*pi*i times the residue in
the local chart; an infinity loop (counterclockwise in z) equals -2*pi*i
times the chart residue, because z = 1/t^{m1} reverses orientation.
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .curves import SuperellipticCurve

DEFAULT_TOL = 1e-10
RANK_TOL = 1e-8
# BranchTracker.follow leaves steps within this factor of the factor-2
# threshold to `advance`, so rounding never picks a branch differently
_GAP_MARGIN = 1.0 - 1e-9


class ContinuationError(RuntimeError):
    """Branch tracking became ambiguous (step too coarse near a branch point)."""


class PathOverflowError(OverflowError, ValueError):
    """P(z), or the integrand where P(z) != 0, is not finite in float64
    somewhere on the path."""


# ---------------------------------------------------------------------------
# paths


@dataclass(frozen=True)
class LineSegment:
    z0: complex
    z1: complex

    def at(self, t: float) -> complex:
        return self.z0 + (self.z1 - self.z0) * t

    at_array = at  # the same expression maps an array of t

    def velocity_array(self, t: np.ndarray) -> np.ndarray:
        return np.full(t.shape, self.z1 - self.z0)


@dataclass(frozen=True)
class ArcSegment:
    center: complex
    radius: float
    angle0: float
    angle1: float  # may span many turns

    def at(self, t: float) -> complex:
        ang = self.angle0 + (self.angle1 - self.angle0) * t
        return self.center + self.radius * cmath.exp(1j * ang)

    def at_array(self, t: np.ndarray) -> np.ndarray:
        ang = self.angle0 + (self.angle1 - self.angle0) * t
        return self.center + self.radius * np.exp(1j * ang)

    def velocity_array(self, t: np.ndarray) -> np.ndarray:
        ang = self.angle0 + (self.angle1 - self.angle0) * t
        return (self.angle1 - self.angle0) * 1j * self.radius * np.exp(1j * ang)


@dataclass(frozen=True)
class PathSpec:
    segments: tuple
    start_branch: int = 0
    label: str = ""

    def start(self) -> complex:
        return self.segments[0].at(0.0)

    def end(self) -> complex:
        return self.segments[-1].at(1.0)


# ---------------------------------------------------------------------------
# branch tracking


def mth_roots(value: complex, m: int):
    """The m complex m-th roots, index ell = principal * e^{2 pi i ell/m}."""
    if value == 0:
        return [0j] * m
    r = abs(value) ** (1.0 / m)
    base = cmath.phase(value) / m
    return [r * cmath.exp(1j * (base + 2 * math.pi * ell / m))
            for ell in range(m)]


class BranchTracker:
    """Carries (z, w) with w^m = P(z) along a path by nearest-root steps."""

    def __init__(self, curve: SuperellipticCurve, z0: complex, branch: int):
        self.curve = curve
        self.z = complex(z0)
        roots = mth_roots(curve.poly_at(self.z), curve.m)
        self.w = roots[branch % curve.m]

    def state(self):
        return (self.z, self.w)

    def restore(self, state):
        self.z, self.w = state

    def advance(self, z1: complex, depth: int = 0):
        """Move to z1, halving the step while root selection is ambiguous."""
        if depth > 48:
            raise ContinuationError(
                f"branch tracking failed between {self.z} and {z1}")
        m = self.curve.m
        if m == 1:
            self.z = z1
            self.w = self.curve.poly_at(z1)
            return self.w
        roots = mth_roots(self.curve.poly_at(z1), m)
        dists = sorted(range(m), key=lambda k: abs(roots[k] - self.w))
        d0 = abs(roots[dists[0]] - self.w)
        d1 = abs(roots[dists[1]] - self.w) if m > 1 else math.inf
        if d0 * 2.0 > d1:
            mid = 0.5 * (self.z + z1)
            self.advance(mid, depth + 1)
            return self.advance(z1, depth + 1)
        self.z = z1
        self.w = roots[dists[0]]
        return self.w

    def follow(self, z: np.ndarray):
        """Nearest-root w over consecutive panels in one numpy pass, from the
        current state, which does not move.

        z has shape (K, parts, 17): per panel its whole (when parts is 3)
        and its two halves, each as 16 nodes then its endpoint. The halves of
        all K panels form one chain; each whole panel is a chain from the end
        of the previous panel's halves. A step's branch increment is
        rint((theta_prev - theta) m / 2 pi) over the principal root angles,
        so the branch index is a cumulative sum, and the same angular gaps
        give the distances of the factor-2 test of `advance`. Returns w and,
        per panel, whether P != 0 and every step passed that test there.
        Raises PathOverflowError where P(z) is not finite."""
        m = self.curve.m
        with np.errstate(over="ignore", invalid="ignore"):
            P = _poly_at(self.curve, z)
        if not np.isfinite(P).all():
            far = complex(z.flat[np.argmin(np.isfinite(P))])
            raise PathOverflowError(
                f"P(z) overflows float64 on the path, near z = {far:.3g}")
        if m == 1:
            return P, np.ones(len(z), dtype=bool)
        # abs, phase and the m-th root as mth_roots takes them (numpy's
        # vectorised atan2 and pow can differ from libm in the last bit)
        flat = P.ravel()
        r = np.fromiter(map(math.pow, _abs(flat).tolist(), itertools.repeat(1.0 / m)),
                        float, flat.size).reshape(P.shape)
        base = np.fromiter(map(math.atan2, flat.imag.tolist(), flat.real.tolist()),
                           float, flat.size).reshape(P.shape) / m
        prev = []
        for v, start in ((r, abs(self.w)), (base, cmath.phase(self.w))):
            pv = np.empty_like(v)
            pv[:, :, 1:] = v[:, :, :-1]
            pv[:, -1, 0] = v[:, -2, 16]  # the right half follows the left
            pv[1:, :-1, 0] = v[:-1, -1, 16, None]  # from the previous panel's end
            pv[0, :-1, 0] = start
            prev.append(pv)
        steps, ok = _steps(m, r, base, *prev)
        # turns at the end of each part, along the halves chain; a whole
        # panel branches off where the previous panel's halves end
        turns = np.cumsum(steps, axis=2)
        ends = np.cumsum(turns[:, -2:, 16])
        offset = np.empty(turns.shape[:2])
        offset[:, :-1] = np.concatenate(([0.0], ends[1:-1:2]))[:, None]
        offset[:, -1] = ends[::2]
        ell = (turns + offset[:, :, None]).astype(np.int64) % m
        unit = np.exp(1j * (base + 2 * math.pi * ell / m))
        w = _join(r * unit.real, r * unit.imag)
        if len(z) > 1:
            # a step from a panel's end takes |w| and arg w there, as the
            # state of the tracker, for the factor-2 test
            ends_w = w[:-1, -1, 16].tolist()
            ok[1:, :-1, 0] = _steps(
                m, r[1:, :-1, 0], base[1:, :-1, 0],
                np.array([abs(v) for v in ends_w])[:, None],
                np.array([cmath.phase(v) for v in ends_w])[:, None])[1]
        return w, ok.all(axis=(1, 2)) & P.all(axis=(1, 2))

    def walk(self, z: np.ndarray):
        """w along one panel's chains by `advance`: its whole panel (when z
        has three parts), then its halves, each from the current state. The
        tracker ends where the halves end."""
        start = self.state()
        zs, w = z.ravel().tolist(), np.empty(z.size, dtype=complex)
        whole = z[0].size if len(z) == 3 else 0
        for lo, hi in ((0, whole), (whole, z.size)):
            self.restore(start)
            for k in range(lo, hi):
                w[k] = self.advance(zs[k])
        return w.reshape(z.shape)


def _steps(m: int, r, base, prev_r, prev_base):
    """Branch increments of the steps from (prev_r, prev_base) to (r, base)
    in polar form, and whether each step passes the factor-2 test."""
    x = (prev_base - base) * (m / (2 * math.pi))
    steps = np.rint(x)
    # half the angular gaps to the nearest and the second-nearest root;
    # |r e^{2i h} - r'|^2 = (r - r')^2 + 4 r r' sin^2 h
    h0 = np.abs(x - steps) * (math.pi / m)
    dr2 = (r - prev_r) ** 2
    rr4 = 4.0 * r * prev_r
    d0 = dr2 + rr4 * np.sin(h0) ** 2
    d1 = dr2 + rr4 * np.sin(math.pi / m - h0) ** 2
    return steps, ~(4.0 * d0 > d1 * _GAP_MARGIN)


# Complex arithmetic on (re, im) pairs of float arrays, rounded operation for
# operation as CPython rounds complex numbers: numpy's complex loops may fuse
# a multiply-add or divide through a reciprocal. This keeps the batched
# quadrature bit for bit equal to the scalar route.


def _abs(z):
    return np.hypot(z.real, z.imag)


def _join(re, im):
    out = re.astype(complex)
    out.imag = im
    return out


def _mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _div(a, b):
    """a / b by Smith's rule, on CPython's branch |Re b| >= |Im b|."""
    flip = np.abs(b[0]) < np.abs(b[1])
    big, small = np.where(flip, b[1], b[0]), np.where(flip, b[0], b[1])
    x, y = np.where(flip, a[1], a[0]), np.where(flip, a[0], a[1])
    ratio = small / big
    denom = big + small * ratio
    im = (y - x * ratio) / denom
    return (x + y * ratio) / denom, np.where(flip, -im, im)


def _pow(a, e: int):
    """a ** e by CPython's binary powering; 1 / a ** -e for e < 0."""
    r, p, n = None, a, abs(e)
    while n:
        if n & 1:
            r = p if r is None else _mul(r, p)  # CPython's 1 * p is p
        n >>= 1
        if n:
            p = _mul(p, p)
    if r is None:
        return np.ones_like(a[0]), np.zeros_like(a[1])
    return _div((1.0, 0.0), r) if e < 0 else r


def _poly_at(curve: SuperellipticCurve, z: np.ndarray) -> np.ndarray:
    """curve.poly_at over an array, with the same rounding."""
    zr, zi = z.real, z.imag
    out = (1.0, 0.0)
    for i in range(1, curve.N + 1):
        a = curve.point_numeric(i)
        out = _mul(out, (zr - a.real, zi - a.imag))
    return _join(*out)


def continue_w(curve: SuperellipticCurve, path: PathSpec, steps: int = 256):
    """Sample w along the path (nearest-root continuation); returns the list
    of (z, w) including both endpoints."""
    tracker = BranchTracker(curve, path.start(), path.start_branch)
    out = [tracker.state()]
    for seg in path.segments:
        # scale sampling with arc length in turns
        n = steps
        if isinstance(seg, ArcSegment):
            turns = abs(seg.angle1 - seg.angle0) / (2 * math.pi)
            n = max(steps, int(steps * turns))
        for k in range(1, n + 1):
            tracker.advance(seg.at(k / n))
            out.append(tracker.state())
    return out


# ---------------------------------------------------------------------------
# cycle construction


def _nearest_other(curve: SuperellipticCurve, *centres: int) -> float:
    """Distance from the branch points `centres` to the nearest branch point
    that is not one of them; inf when there is none."""
    pts = [curve.point_numeric(c) for c in centres]
    return min((abs(a - curve.point_numeric(k)) for a in pts
                for k in range(1, curve.N + 1) if k not in centres),
               default=math.inf)


def puncture_loop(curve: SuperellipticCurve, nu: int) -> PathSpec:
    """Closed loop on the curve around the ramification point (a_nu, 0):
    the z-circle of radius a quarter of the distance to the nearest other
    branch point, traversed m times, counterclockwise."""
    a = curve.point_numeric(nu)
    arc = ArcSegment(a, 0.25 * _nearest_other(curve, nu), 0.0,
                     2 * math.pi * curve.m)
    return PathSpec((arc,), 0, label=f"puncture:{nu}")


def infinity_loop(curve: SuperellipticCurve, k: int) -> PathSpec:
    """Closed loop around the k-th point over z = infinity: an m1-fold circle
    of radius 10 max|a_i| + 10 whose starting sheet selects the point."""
    inv = curve.invariants()
    radius = 10 * max(abs(curve.point_numeric(i))
                      for i in range(1, curve.N + 1)) + 10
    arc = ArcSegment(0j, radius, 0.0, 2 * math.pi * inv.m1)
    branch = ((k - 1) * inv.m1) % curve.m
    return PathSpec((arc,), branch, label=f"infinity:{k}")


def double_loop(curve: SuperellipticCurve, i: int, j: int,
                shift: int) -> PathSpec:
    """Pochhammer-style cycle: circle a_i counterclockwise, then a_j
    clockwise, connected through the midpoint, starting on sheet `shift`.
    The net monodromy is trivial, so the path closes on the curve.

    Both circles have radius r = min(|a_i - a_j|, 2d)/4, d the distance from
    a_i or a_j to the nearest other branch point, so every other branch
    point lies at least 2r from both centres: each circle encloses its own
    branch point and no other."""
    ai = curve.point_numeric(i)
    aj = curve.point_numeric(j)
    sep = abs(ai - aj)
    r = 0.25 * min(sep, 2 * _nearest_other(curve, i, j))
    u = (aj - ai) / sep  # unit vector i -> j
    base = 0.5 * (ai + aj)
    pi_ = math.pi
    ang_i = cmath.phase(base - ai)
    ang_j = cmath.phase(base - aj)
    segs = (
        LineSegment(base, ai + r * u),
        ArcSegment(ai, r, ang_i, ang_i + 2 * pi_),
        LineSegment(ai + r * u, base),
        LineSegment(base, aj - r * u),
        ArcSegment(aj, r, ang_j, ang_j - 2 * pi_),
        LineSegment(aj - r * u, base),
    )
    return PathSpec(segs, shift, label=f"double:{i},{j};{shift}")


def build_cycle_basis(curve: SuperellipticCurve):
    """A concrete generating family of integration cycles.

    n > 0: (m-1)(N-1) double loops over consecutive branch-point pairs with
    sheet shifts. n < 0: the same double loops plus N - s puncture loops,
    2g + N - 1 cycles in total.
    """
    order = sorted(range(1, curve.N + 1),
                   key=lambda i: (curve.point_numeric(i).real,
                                  curve.point_numeric(i).imag))
    cycles = []
    for idx in range(len(order) - 1):
        for shift in range(curve.m - 1):
            cycles.append(double_loop(curve, order[idx], order[idx + 1], shift))
    if curve.n < 0:
        s = curve.invariants().s
        for nu in order[:curve.N - s]:
            cycles.append(puncture_loop(curve, nu))
    return cycles


# ---------------------------------------------------------------------------
# quadrature along paths


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_MAX_DEPTH = 24


@dataclass
class QuadratureStats:
    """Effort and achieved error of the adaptive quadrature along one cycle."""
    tol: float = DEFAULT_TOL
    panels: int = 0          # panels evaluated (whole and both halves, or halves)
    max_depth: int = 0       # deepest panel halving
    fallback_steps: int = 0  # points walked by the scalar BranchTracker.advance
    max_error: float = 0.0   # largest accepted |val1 - val2|, next to tol
    abs_integral: float = 0.0  # integral of |integrand dz| summed over rows


def _panel_count(seg) -> int:
    if isinstance(seg, ArcSegment):
        turns = abs(seg.angle1 - seg.angle0) / (2 * math.pi)
        # a full turn may come out as 0.9999999999999999
        return max(4, int(8 * turns + 1e-9))
    return 4


def integrate_omega(curve: SuperellipticCurve, i, j: int, cycle: PathSpec,
                    tol: float = DEFAULT_TOL, stats: QuadratureStats = None):
    """Integral of w^{jn}/(z - a_i) dz along the cycle, adaptive panels.

    `i` is one row (returns a complex) or a sequence of rows (returns an
    array): the rows share every tracked pass, so the branch is tracked
    once, and each row is refined only where its own panel fails
    |val1 - val2| <= max(tol, tol |val2|). A tol below the float resolution
    raises ValueError. `stats`, if given, accumulates the effort and the
    achieved error."""
    if not tol >= sys.float_info.epsilon:
        raise ValueError(f"tol {tol!r} is below the float resolution "
                         f"{sys.float_info.epsilon!r}")
    single = isinstance(i, numbers.Integral)
    rows = [i] if single else list(i)
    poles = np.array([curve.point_numeric(r) for r in rows])[:, None, None]
    e = j * curve.n
    tracker = BranchTracker(curve, cycle.start(), cycle.start_branch)
    totals = np.zeros(len(rows), dtype=complex)
    if stats is None:
        stats = QuadratureStats()
    stats.tol = tol

    def evaluate(panels, active, val1):
        """One tracked pass over consecutive panels (seg, t0, t1) from the
        tracker's state, which does not move: the 16-point values of both
        halves of every panel, and of the whole panel when val1 is None, for
        the rows `active`. A pass of one panel that numpy cannot track is
        walked by `advance`; a longer pass only reports such panels. Returns
        the (rows, K, parts) values, z and w at every point, and per panel
        whether its w stands."""
        parts = 3 if val1 is None else 2
        t0 = np.array([p[1] for p in panels])
        t1 = np.array([p[2] for p in panels])
        tm = 0.5 * (t0 + t1)
        lo = np.stack([t0, t0, tm] if parts == 3 else [t0, tm], axis=1)
        hi = np.stack([t1, tm, t1] if parts == 3 else [tm, t1], axis=1)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        t = np.empty(lo.shape + (17,))
        t[..., :16] = mid[..., None] + half[..., None] * _GL_NODES
        t[..., 16] = hi
        z = np.empty(t.shape, dtype=complex)
        vel = np.empty(t.shape, dtype=complex)
        k = 0
        for seg, run in itertools.groupby(panels, key=lambda p: p[0]):
            sl = slice(k, k + sum(1 for _ in run))
            z[sl], vel[sl] = seg.at_array(t[sl]), seg.velocity_array(t[sl])
            k = sl.stop
        w, tracked = tracker.follow(z)
        if len(panels) == 1 and not tracked[0]:
            start = tracker.state()
            w = tracker.walk(z[0])[None]
            tracker.restore(start)
            stats.fallback_steps += z.size
            tracked[0] = True
        zn, vel = z[..., :16], vel[..., :16]
        pa = poles[active][:, None]
        # an integrand that overflows is named by `settle`
        with np.errstate(over="ignore", invalid="ignore"):
            f = _div(_pow((w.real[..., :16], w.imag[..., :16]), e),
                     (zn.real - pa.real, zn.imag - pa.imag))
            terms = _mul((_GL_WEIGHTS * f[0], _GL_WEIGHTS * f[1]),
                         (vel.real, vel.imag))
            # summed node by node, as the scalar loop adds them
            vals = _join(*(part.cumsum(axis=-1)[..., -1] * half
                           for part in terms))
            # sum |term| over both halves, which bounds the rounding of val2
            sizes = (np.abs(terms[0]) + np.abs(terms[1])).sum(axis=-1) * half
        return vals, sizes[..., -2] + sizes[..., -1], z, w, tracked

    def judge(val1, left, right):
        """val2, |val1 - val2| and which of them pass the tolerance test."""
        val2 = left + right
        err = _abs(val1 - val2)
        return val2, err, err <= np.maximum(tol, tol * _abs(val2))

    def panel(seg, t0, t1, depth, active, val1):
        start = tracker.state()
        vals, sizes, z, w, _ = evaluate([(seg, t0, t1)], active, val1)
        settle(seg, t0, t1, depth, active, val1, start, vals[:, 0], sizes[:, 0],
               z[0], w[0])

    def settle(seg, t0, t1, depth, active, val1, start, vals, sizes, z, w):
        """Accept the rows of one evaluated panel that pass the test, and
        refine the others from `start`, the state its pass started from."""
        if not np.isfinite(vals).all():  # NaN would fail every halving
            if (w[:, :16] != 0).all():  # P != 0 at every node
                raise PathOverflowError(
                    "the integrand overflows float64 on the path, near "
                    f"z = {seg.at(t0):.3g}")
            raise ZeroDivisionError("integrand is singular on the path")
        if val1 is None:
            val1 = vals[:, 0]
        left, right = vals[:, -2], vals[:, -1]
        w_mid, w_end = complex(w[-2, 16]), complex(w[-1, 16])
        tracker.restore((complex(z[-1, 16]), w_end))
        val2, err, ok = judge(val1, left, right)
        if depth >= _MAX_DEPTH:
            if np.any(err > 1e-6 * np.maximum(1.0, _abs(val2))):
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
        tracker.restore(start)
        redo = ~ok
        tm = 0.5 * (t0 + t1)
        panel(seg, t0, tm, depth + 1, active[redo], left[redo])
        # the right half's value holds if the refined left half ends on the
        # same sheet as this pass did
        same = _same_sheet(tracker.w, w_mid)
        panel(seg, tm, t1, depth + 1, active[redo], right[redo] if same else None)
        if ok.any() and not _same_sheet(tracker.w, w_end):
            raise ContinuationError(
                f"refining the panel {seg.at(t0)} -> {seg.at(t1)} changed "
                "the sheet its end lands on")

    everyone = np.arange(len(rows))
    todo = [(seg, k / n, (k + 1) / n) for seg in cycle.segments
            for n in (_panel_count(seg),) for k in range(n)]
    while todo:
        # one pass for every panel still to do, which stands for each panel
        # as long as the tracker ends where the pass assumed: a panel that
        # fails the tolerance is refined, one it cannot track is redone alone
        vals, sizes, z, w, tracked = evaluate(todo, everyone, None)
        val2, err, ok = judge(*vals.transpose(2, 0, 1))
        settled = (tracked & ok.all(axis=0)).tolist()
        worst = err.max(axis=0).tolist()
        ends = list(zip(z[:, -1, 16].tolist(), w[:, -1, 16].tolist()))
        for k, (seg, t0, t1) in enumerate(todo):
            start = tracker.state()
            if settled[k]:
                stats.panels += 1
                stats.max_error = max(stats.max_error, worst[k])
                stats.abs_integral += float(sizes[:, k].sum())
                totals += val2[:, k]
                tracker.restore(ends[k])
            elif tracked[k]:
                settle(seg, t0, t1, 0, everyone, None, start, vals[:, k],
                       sizes[:, k], z[k], w[k])
            else:
                panel(seg, t0, t1, 0, everyone, None)
            if tracker.state() != ends[k]:
                todo = todo[k + 1:]
                break
        else:
            todo = []
    return complex(totals[0]) if single else totals


def _same_sheet(w1: complex, w2: complex) -> bool:
    """Two w over (nearly) one z: different m-th roots are far apart."""
    return abs(w1 - w2) <= 1e-6 * abs(w2)


# ---------------------------------------------------------------------------
# period matrices


@dataclass
class PeriodMatrix:
    rows: int
    cols: int
    entries: np.ndarray
    cycles: list = field(default_factory=list)
    stats: list = field(default_factory=list)  # one QuadratureStats per cycle

    def to_csv_rows(self):
        out = [["i", "cycle", "label", "re", "im"]]
        for i in range(self.rows):
            for k in range(self.cols):
                label = self.cycles[k].label if self.cycles else ""
                v = complex(self.entries[i, k])
                out.append([i + 1, k + 1, label, repr(v.real), repr(v.imag)])
        return out


def continuation_trace_rows(curve: SuperellipticCurve, path: PathSpec):
    """CSV rows (header + samples) of a w-continuation along the path at
    continue_w's default sampling, for debugging branch tracking."""
    rows = [["index", "z_re", "z_im", "w_re", "w_im"]]
    for k, (z, w) in enumerate(continue_w(curve, path)):
        rows.append([k, repr(z.real), repr(z.imag), repr(w.real), repr(w.imag)])
    return rows


def period_matrix(curve: SuperellipticCurve, j: int, cycles,
                  tol: float = DEFAULT_TOL) -> PeriodMatrix:
    """B[i][k] = integral of Omega_i^{(j)} over cycle k."""
    ents = np.zeros((curve.N, len(cycles)), dtype=complex)
    stats = [QuadratureStats() for _ in cycles]
    for k, cyc in enumerate(cycles):
        ents[:, k] = integrate_omega(curve, range(1, curve.N + 1), j, cyc, tol,
                                     stats[k])
    return PeriodMatrix(curve.N, len(cycles), ents, list(cycles), stats)


def rank_check(B) -> int:
    """Numerical rank: the singular values above RANK_TOL * the largest.

    For a PeriodMatrix with stats they must also exceed the rounding bound
    of its entries: a sum of n terms rounds by at most n eps sum |term|, and
    each cycle adds 16 nodes a panel and then its panels, so column k is off
    by at most (16 + panels_k) eps abs_integral_k, and the 2-norm of these
    column bounds bounds the noise's largest singular value. A matrix of
    rounding noise thus has rank 0, at any scale of the curve. A raw array
    keeps the relative rule alone.

    The rank of a period matrix is N - 1 for many curves, not all. Measured
    with the cycle basis of build_cycle_basis, it is N - 2 where n < 0, j n
    is not divisible by m and m divides N: at (m, N, n, j) = (2, 4, -1, 1),
    (2, 4, -3, 1), (2, 6, -1, 1), (3, 3, -1, 1), (3, 6, -1, 1), (3, 6, -2, 1),
    (3, 6, -1, 2), (4, 4, -1, 1), (4, 8, -1, 1) and (6, 6, -1, 1). It is
    N - 1 at (4, 6, -1, 1), (6, 4, -1, 1), (2, 5, -1, 1), (2, 4, -1, 2) and
    (3, 3, -1, 3). For m = 2, N = 4, n = -1 the extra relation is exact:
    sum_i (a_i^2 - (S/2) a_i) omega_i = d((S z - 2 z^2)/w), S = sum_i a_i."""
    ents = B.entries if isinstance(B, PeriodMatrix) else np.asarray(B)
    if ents.size == 0:
        return 0
    sv = np.linalg.svd(ents, compute_uv=False)
    floor = RANK_TOL * sv[0]
    if isinstance(B, PeriodMatrix) and B.stats:
        floor = max(floor, math.hypot(*(
            (16 + s.panels) * sys.float_info.epsilon * s.abs_integral
            for s in B.stats)))
    return int(np.sum(sv > floor))


def isomonodromy_fd_check(curve: SuperellipticCurve, i: int, j: int,
                          cycle: PathSpec, vary: int, h: float = 1e-4) -> float:
    """Central-difference check of the reduced flow on a fixed cycle:

        d b_i / d a_k  =  -(j n / m) (b_i - b_k)/(a_i - a_k),   k != i,

    moving only the branch point a_k and keeping the z-plane contour fixed.
    Returns |lhs - rhs|."""
    if vary == i:
        raise ValueError("vary must differ from i")
    pts = list(curve.branch_points)

    def shifted(delta):
        moved = list(pts)
        moved[vary - 1] = complex(moved[vary - 1]) + delta
        return SuperellipticCurve(curve.m, moved, curve.n)

    bp = integrate_omega(shifted(+h), i, j, cycle)
    bm = integrate_omega(shifted(-h), i, j, cycle)
    lhs = (bp - bm) / (2 * h)
    bi, bk = integrate_omega(curve, (i, vary), j, cycle)
    gap = curve.point_numeric(i) - curve.point_numeric(vary)
    rhs = -(j * curve.n / curve.m) * (bi - bk) / gap
    return abs(lhs - rhs)
