"""Numeric periods of w^{jn} dz/(z - a_i) on superelliptic curves.

Paths live in the z-plane as line/arc segments with a chosen starting sheet;
the w-branch is tracked by nearest-root continuation with adaptive
sub-stepping (steps are halved whenever the two closest m-th roots come
within a factor-2 ambiguity margin).

Quadrature runs in adaptive 16-point Gauss-Legendre panels. One panel pass
evaluates every node and endpoint of the panel and of its two halves in one
numpy pass, for all requested rows i at once: the branch index along the
node sequence is a cumulative sum of rounded angle changes, and the same
angular gaps give the factor-2 test for every step. A pass with an
ambiguous step, or with P = 0 on it, is walked by the scalar
`BranchTracker.advance` instead, halving and all. Each row keeps its own
refinement decision, and a refined half reuses its value from the parent
panel. Cycles are concrete contours:

* double loops: around a_i counterclockwise then a_{i+1} clockwise, closed on
  the curve for every starting sheet,
* puncture loops: an m-fold circle around a branch point (one chart loop),
* infinity loops: an m1-fold large circle, the starting sheet selecting which
  of the s points above z = infinity is encircled.

Orientation bookkeeping: a puncture loop equals +2*pi*i times the residue in
the local chart; an infinity loop (counterclockwise in z) equals -2*pi*i
times the chart residue, because z = 1/t^{m1} reverses orientation.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .curves import SuperellipticCurve

DEFAULT_TOL = 1e-10
RANK_TOL = 1e-8
CLEARANCE_FACTOR = 0.05
# BranchTracker.follow leaves steps within this factor of the factor-2
# threshold to `advance`, so rounding never picks a branch differently
_GAP_MARGIN = 1.0 - 1e-9


class ContinuationError(RuntimeError):
    """Branch tracking became ambiguous (step too coarse near a branch point)."""


# ---------------------------------------------------------------------------
# paths


@dataclass(frozen=True)
class LineSegment:
    z0: complex
    z1: complex

    def at(self, t: float) -> complex:
        return self.z0 + (self.z1 - self.z0) * t

    def velocity(self, t: float) -> complex:
        return self.z1 - self.z0

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

    def velocity(self, t: float) -> complex:
        ang = self.angle0 + (self.angle1 - self.angle0) * t
        return (self.angle1 - self.angle0) * 1j * self.radius * cmath.exp(1j * ang)

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

    def is_closed(self, tol: float = 1e-9) -> bool:
        return abs(self.start() - self.end()) < tol

    def check_clearance(self, curve: SuperellipticCurve, radius: float):
        """Every segment must keep `radius` distance from branch points it
        does not deliberately encircle."""
        for seg in self.segments:
            for i in range(1, curve.N + 1):
                a = curve.point_numeric(i)
                if isinstance(seg, ArcSegment) and abs(seg.center - a) < 1e-12:
                    continue  # the circle around a itself
                d = _segment_distance(seg, a)
                if d < radius:
                    raise ValueError(
                        f"path comes within {d:.3g} of branch point {i} "
                        f"(clearance {radius:.3g})")


def _segment_distance(seg, a: complex) -> float:
    if isinstance(seg, LineSegment):
        dz = seg.z1 - seg.z0
        L2 = abs(dz) ** 2
        if L2 == 0:
            return abs(seg.z0 - a)
        rel = a - seg.z0
        t = max(0.0, min(1.0, (rel.real * dz.real + rel.imag * dz.imag) / L2))
        return abs(seg.at(t) - a)
    d_center = abs(a - seg.center)
    return abs(d_center - seg.radius)


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

    def follow(self, z: np.ndarray, starts=(0,)):
        """Nearest-root w at every point of z, in one numpy pass.

        z holds chains z[starts[c]:starts[c + 1]], each continuing from the
        current state; the tracker ends at the last point. A step's branch
        increment is rint((theta_prev - theta) m / 2 pi) over the principal
        root angles, so the branch index is a cumulative sum, and the same
        angular gaps give the distances of the factor-2 test of `advance`.
        If any step fails that test, or P vanishes, the chains are walked by
        `advance` instead. Returns (w, points walked by `advance`)."""
        m = self.curve.m
        P = _poly_at(self.curve, z)
        if m == 1:
            w = P
        elif P.all():
            w = self._follow_roots(P, starts)
        else:
            w = None
        if w is None:
            return self._follow_scalar(z, starts), len(z)
        self.z, self.w = complex(z[-1]), complex(w[-1])
        return w, 0

    def _follow_roots(self, P, starts):
        m = self.curve.m
        # abs, phase and the m-th root as mth_roots takes them (numpy's
        # vectorised atan2 and pow can differ from libm in the last bit)
        r = np.array([x ** (1.0 / m) for x in np.hypot(P.real, P.imag).tolist()])
        base = np.array(list(map(math.atan2, P.imag.tolist(), P.real.tolist()))) / m
        prev_r = np.concatenate(([0.0], r[:-1]))
        prev_base = np.concatenate(([0.0], base[:-1]))
        prev_r[list(starts)] = abs(self.w)
        prev_base[list(starts)] = cmath.phase(self.w)
        x = (prev_base - base) * (m / (2 * math.pi))
        steps = np.rint(x)
        # half the angular gaps to the nearest and the second-nearest root;
        # |r e^{2i h} - r'|^2 = (r - r')^2 + 4 r r' sin^2 h
        h0 = np.abs(x - steps) * (math.pi / m)
        dr2 = (r - prev_r) ** 2
        rr4 = 4.0 * r * prev_r
        d0 = dr2 + rr4 * np.sin(h0) ** 2
        d1 = dr2 + rr4 * np.sin(math.pi / m - h0) ** 2
        if np.any(4.0 * d0 > d1 * _GAP_MARGIN):
            return None
        turns = np.cumsum(steps)
        for s in starts[1:]:
            turns[s:] -= turns[s - 1]
        ell = turns.astype(np.int64) % m
        unit = np.exp(1j * (base + 2 * math.pi * ell / m))
        return _join(r * unit.real, r * unit.imag)

    def _follow_scalar(self, z, starts):
        start = self.state()
        w = np.empty(len(z), dtype=complex)
        bounds = list(starts) + [len(z)]
        for lo, hi in zip(bounds, bounds[1:]):
            self.restore(start)
            for k in range(lo, hi):
                w[k] = self.advance(complex(z[k]))
        return w


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


def _min_separation(curve) -> float:
    pts = [curve.point_numeric(i) for i in range(1, curve.N + 1)]
    return min(abs(p - q) for i, p in enumerate(pts)
               for q in pts[i + 1:])


def clearance_radius(curve) -> float:
    return CLEARANCE_FACTOR * _min_separation(curve)


def puncture_loop(curve: SuperellipticCurve, nu: int,
                  radius: float = None) -> PathSpec:
    """Closed loop on the curve around the ramification point (a_nu, 0):
    the z-circle traversed m times, counterclockwise."""
    a = curve.point_numeric(nu)
    if radius is None:
        dist = min(abs(a - curve.point_numeric(j))
                   for j in range(1, curve.N + 1) if j != nu)
        radius = 0.25 * dist
    arc = ArcSegment(a, radius, 0.0, 2 * math.pi * curve.m)
    return PathSpec((arc,), 0, label=f"puncture:{nu}")


def infinity_loop(curve: SuperellipticCurve, k: int,
                  radius: float = None) -> PathSpec:
    """Closed loop around the k-th point over z = infinity: an m1-fold large
    circle whose starting sheet selects the point."""
    inv = curve.invariants()
    if radius is None:
        radius = 10 * max(abs(curve.point_numeric(i))
                          for i in range(1, curve.N + 1)) + 10
    arc = ArcSegment(0j, radius, 0.0, 2 * math.pi * inv.m1)
    branch = ((k - 1) * inv.m1) % curve.m
    return PathSpec((arc,), branch, label=f"infinity:{k}")


def double_loop(curve: SuperellipticCurve, i: int, j: int, shift: int,
                radius_factor: float = 0.25) -> PathSpec:
    """Pochhammer-style cycle: circle a_i counterclockwise, then a_j
    clockwise, connected through the midpoint, starting on sheet `shift`.
    The net monodromy is trivial, so the path closes on the curve."""
    ai = curve.point_numeric(i)
    aj = curve.point_numeric(j)
    sep = abs(ai - aj)
    r = radius_factor * sep
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
    panels: int = 0          # panel passes (each tracks the branch once)
    max_depth: int = 0       # deepest panel halving
    fallback_steps: int = 0  # points walked by the scalar BranchTracker.advance
    max_error: float = 0.0   # largest accepted |val1 - val2|, next to tol


def integrate_omega(curve: SuperellipticCurve, i, j: int, cycle: PathSpec,
                    tol: float = DEFAULT_TOL, stats: QuadratureStats = None):
    """Integral of w^{jn}/(z - a_i) dz along the cycle, adaptive panels.

    `i` is one row (returns a complex) or a sequence of rows (returns an
    array): the rows share every panel pass, so the branch is tracked once,
    and each row is refined only where its own panel fails
    |val1 - val2| <= max(tol, tol |val2|). `stats`, if given, accumulates
    the effort and the achieved error."""
    single = isinstance(i, numbers.Integral)
    rows = [i] if single else list(i)
    poles = np.array([curve.point_numeric(r) for r in rows])[:, None, None]
    e = j * curve.n
    tracker = BranchTracker(curve, cycle.start(), cycle.start_branch)
    totals = np.zeros(len(rows), dtype=complex)
    if stats is None:
        stats = QuadratureStats()
    stats.tol = tol

    def halves(seg, t0, t1, active, whole):
        """One tracked pass: the 16-point values of both halves of [t0, t1]
        (first the whole panel when `whole`) for the rows `active`, each
        part's nodes followed by its endpoint. The whole panel is its own
        chain; the halves continue the tracker to seg.at(t1). Returns the
        (rows, parts) values and w at the midpoint."""
        tm = 0.5 * (t0 + t1)
        lo = np.array([t0, t0, tm] if whole else [t0, tm])
        hi = np.array([t1, tm, t1] if whole else [tm, t1])
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        t = np.empty((len(lo), 17))
        t[:, :16] = mid[:, None] + half[:, None] * _GL_NODES
        t[:, 16] = hi
        t = t.ravel()
        z = seg.at_array(t)
        w, scalar_steps = tracker.follow(z, (0, 17) if whole else (0,))
        stats.fallback_steps += scalar_steps
        z, w = z.reshape(-1, 17), w.reshape(-1, 17)
        vel = seg.velocity_array(t).reshape(-1, 17)[:, :16]
        zn, pa = z[:, :16], poles[active]
        f = _div(_pow((w.real[:, :16], w.imag[:, :16]), e),
                 (zn.real - pa.real, zn.imag - pa.imag))
        terms = _mul((_GL_WEIGHTS * f[0], _GL_WEIGHTS * f[1]), (vel.real, vel.imag))
        # summed node by node, as the scalar loop adds them
        vals = _join(*(part.cumsum(axis=2)[:, :, -1] * half for part in terms))
        if not np.isfinite(vals).all():  # NaN would fail every halving
            raise ZeroDivisionError("integrand is singular on the path")
        return vals, w[-2, 16]

    def panel(seg, t0, t1, depth, active, val1):
        start = tracker.state()
        vals, w_mid = halves(seg, t0, t1, active, val1 is None)
        if val1 is None:
            val1 = vals[:, 0]
        left, right = vals[:, -2], vals[:, -1]
        val2 = left + right
        err = _abs(val1 - val2)
        size = _abs(val2)
        ok = err <= np.maximum(tol, tol * size)
        if depth >= _MAX_DEPTH:
            if np.any(err > 1e-6 * np.maximum(1.0, size)):
                raise ArithmeticError("quadrature failed to converge on a panel")
            ok[:] = True
        stats.panels += 1
        stats.max_depth = max(stats.max_depth, depth)
        if ok.any():
            stats.max_error = max(stats.max_error, float(err[ok].max()))
            totals[active[ok]] += val2[ok]
        if ok.all():
            return
        w_end = tracker.w
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
    for seg in cycle.segments:
        npanels = 4
        if isinstance(seg, ArcSegment):
            turns = abs(seg.angle1 - seg.angle0) / (2 * math.pi)
            npanels = max(4, int(8 * turns))
        for k in range(npanels):
            panel(seg, k / npanels, (k + 1) / npanels, 0, everyone, None)
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


def continuation_trace_rows(curve: SuperellipticCurve, path: PathSpec,
                            steps: int = 256):
    """CSV rows (header + samples) of a w-continuation along the path,
    for debugging branch tracking."""
    rows = [["index", "z_re", "z_im", "w_re", "w_im"]]
    for k, (z, w) in enumerate(continue_w(curve, path, steps)):
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


def rank_check(B, rank_tol: float = RANK_TOL) -> int:
    """Numerical rank: singular values above rank_tol * largest."""
    ents = B.entries if isinstance(B, PeriodMatrix) else np.asarray(B)
    if ents.size == 0:
        return 0
    sv = np.linalg.svd(ents, compute_uv=False)
    if sv[0] == 0:
        return 0
    return int(np.sum(sv > rank_tol * sv[0]))


def isomonodromy_fd_check(curve: SuperellipticCurve, i: int, j: int,
                          cycle: PathSpec, vary: int, h: float = 1e-4,
                          tol: float = DEFAULT_TOL) -> float:
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

    bp = integrate_omega(shifted(+h), i, j, cycle, tol)
    bm = integrate_omega(shifted(-h), i, j, cycle, tol)
    lhs = (bp - bm) / (2 * h)
    bi, bk = integrate_omega(curve, (i, vary), j, cycle, tol)
    gap = curve.point_numeric(i) - curve.point_numeric(vary)
    rhs = -(j * curve.n / curve.m) * (bi - bk) / gap
    return abs(lhs - rhs)
