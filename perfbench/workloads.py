"""Seeded job lists of the three workloads.

A job is one verdict. Its expected answer comes from the construction, never
from the code under test:

* positives are the paper's families and must verify;
* negatives are seeded copies with one Schlesinger entry, or the PVI y,
  shifted by a non-constant monomial, and must fail;
* `zeros` exports must show every root conjugate-paired and
  inversion-paired, because the special polynomials are palindromic with
  real coefficients.

The seed draws values only (rational parameters, family constants, jitters
of the acceptance-suite points, perturbation monomials), never sizes, so
every seed gives jobs of the same shapes.
"""

import cmath
import csv
import json
import math
import os
import random
from fractions import Fraction as F
from math import gcd

# Functions are looked up on their modules at call time, so that the tracer's
# wrappers see the benchmark's own calls too.
from isolab import cli, curves, garnier, liouville, painleve, periods, schlesinger
from isolab.algebra import FactoredFrac, MultiPoly, RatFunc
from isolab.curves import SuperellipticCurve


class Job:
    __slots__ = ("name", "run", "expect", "known_defect")

    def __init__(self, name, run, expect=True, known_defect=None):
        self.name = name
        self.run = run              # run(ctx) -> bool verdict
        self.expect = expect
        self.known_defect = known_defect


# ---------------------------------------------------------------------------
# seeded values


def _rational(rng, lo, hi):
    """A non-integer p/q in (lo, hi) with 2 <= q <= 9."""
    while True:
        q = rng.randint(2, 9)
        v = F(rng.randint(math.ceil(lo * q), math.floor(hi * q)), q)
        if v.denominator > 1 and lo < v < hi:
            return v


def _jitter(rng, z, scale=0.05):
    return complex(z) + complex(round(rng.uniform(-scale, scale), 3),
                                round(rng.uniform(-scale, scale), 3))


def _x_monomial(rng):
    """q * x^e with a seeded rational q and e in {1, 2}."""
    return RatFunc.from_poly(MultiPoly.monomial(_rational(rng, -3, 3),
                                                {"x": rng.choice((1, 2))}))


# ---------------------------------------------------------------------------
# acceptance-suite grids (criteria 3-5, 7, 8, 10, 11)


def theorem3_grid():
    for p in (2, 3, 4):
        for N in (2, 3, 4, 5):
            for m in (2, 3, 4):
                for n in (1, 2):
                    s = gcd(m, N)
                    if gcd(n, m) == 1 and s > 1 and any(
                            (s * j) % m == 0 and j % m for j in range(1, p)):
                        yield p, N, m, n


def theorem4_grid():
    for p in (2, 3, 4):
        for N in (2, 3, 4, 5):
            for m in (1, 2):
                for n in (-1, -2, -3):
                    if gcd(-n, m) == 1 and any(j % m == 0 for j in range(1, p)):
                        yield p, N, m, n


THM5_N = (1, 2, 4, 5, 7, 8, 10, 11)
THM6_N = (-1, -2, -3, -4, -5)
THM7_N = (1, 2, 2, 3, 3, 4, 1, 2, 4, 5)
THM7_SWEEP = 50

# Left out of exact-inmemory only for run length, with their times on a
# 2-core box: the theorem 8 triples with a = 8 (15 families, 1.9 s); the
# Schlesinger residual of theorem 4 (4,5,1,-3) 2.2 s, (4,5,1,-2) 0.65 s,
# (3,5,1,-3) 0.45 s and (4,4,1,-3) 0.45 s; the oracle comparison of
# (4,5,1,-3) 3.7 s, (4,5,1,-2) 1.1 s, (3,5,1,-3) 0.95 s, (4,4,1,-3) 0.84 s,
# (4,4,1,-2) 0.4 s, (3,5,1,-2) 0.35 s and (4,5,1,-1) 0.27 s.
THM8_A_MAX = 7
RESIDUAL_SKIP = {(4, 5, 1, -3), (4, 5, 1, -2), (3, 5, 1, -3), (4, 4, 1, -3)}
ORACLE_SKIP = {(4, 5, 1, -3), (4, 5, 1, -2), (3, 5, 1, -3), (4, 4, 1, -3),
               (4, 4, 1, -2), (3, 5, 1, -2), (4, 5, 1, -1)}


# ---------------------------------------------------------------------------
# exact-inmemory


def _pvi_ok(fam, cvals=()):
    if not painleve.pvi_residual(fam.y, fam.params).is_zero():
        return False
    for cv in cvals:
        yc = fam.specialize(cv)
        kind = painleve._pvi_degenerate_kind(yc)
        if kind is None:
            if not painleve.pvi_residual(yc, fam.params).is_zero():
                return False
        elif not painleve.degenerate_parameter_check(kind, fam.params):
            return False
    return True


def _schlesinger_ok(sol):
    if not schlesinger.residual_is_zero(sol):
        return False
    if not all(v.is_zero() for v in schlesinger.sum_constraint(sol).values()):
        return False
    if sol.p >= 3:
        for i in range(1, sol.N + 1):
            for j in range(1, sol.N + 1):
                for k in range(1, sol.p + 1):
                    for l in range(k + 2, sol.p + 1):
                        if i != j and not schlesinger.cross_terms(
                                sol, i, j, k, l).is_zero():
                            return False
    return True


def _oracle_poly_ok(g, consts):
    p, N, m, n = g
    sol = schlesinger.build_polynomial_solution(p, N, m, n, constants=consts)
    curve = SuperellipticCurve(m, list(sol.frame.variables), n)
    inv = curve.invariants()
    for L in range(1, p):
        if (inv.s * L) % m or L % m == 0:
            continue
        d = L * n * inv.s // m
        const = F(-inv.m1) * (-1) ** (inv.N1 * d)
        for i in range(1, N + 1):
            val, phase = curves.residue_series_oracle(curve, i, L, 1)
            if phase != (0, 1) or (RatFunc.from_poly(val) * consts[L - 1]
                                   != sol.entry_ratfunc(i, 1, 1 + L) * const):
                return False
    return True


def _oracle_rational_ok(g, consts):
    p, N, m, n = g
    sol = schlesinger.build_rational_solution(p, N, m, n, constants=consts,
                                              nu=1)
    pts = [MultiPoly.zero() if h == 1 else -sol.frame.dvar(h)
           for h in range(1, N + 1)]
    curve = SuperellipticCurve(m, pts, n)
    for L in range(m, p, m):
        for i in range(1, N + 1):
            val, phase = curves.residue_series_oracle(curve, i, L, 1)
            if not isinstance(val, FactoredFrac):
                val = FactoredFrac.from_poly(val)
            if phase != (0, 1) or not (
                    val * consts[L - 1] - sol.entry(i, 1, 1 + L) * m).is_zero():
                return False
    return True


def _perturbation(rng, N):
    """Seeded (entry index i, variable index, exponent, coefficient)."""
    return (rng.randint(1, N), rng.randrange(N), rng.choice((1, 2)),
            _rational(rng, -3, 3))


def _perturbed_schlesinger(sol, spec):
    """The solution with entry (i, 1, 2) shifted by a non-constant monomial
    in the solution's own frame variables."""
    i, v, e, q = spec
    frame = sol.frame
    if isinstance(frame, schlesinger.ShiftedFrame):
        names = sorted(frame.dvars.values())
    else:
        names = list(frame.variables)
    shift = MultiPoly.monomial(q, {names[v % len(names)]: e})
    return sol.with_entry(i, 1, 2, sol.entry(i, 1, 2) + FactoredFrac.from_poly(shift))


NEG_SCHLESINGER = (("poly", (2, 2, 2, 1)), ("poly", (3, 3, 3, 1)),
                   ("poly", (2, 4, 2, 1)), ("rational", (2, 3, 1, -1)),
                   ("rational", (3, 3, 1, -1)), ("rational", (2, 4, 1, -2)))


def _build(kind, g, consts=None):
    if kind == "poly":
        return schlesinger.build_polynomial_solution(*g, constants=consts)
    return schlesinger.build_rational_solution(*g, constants=consts, nu=1)


def exact_inmemory(rng, ctx):
    jobs = []
    for n in THM5_N:
        jobs.append(Job(f"pvi-thm5 n={n}",
                        lambda c, n=n: _pvi_ok(painleve.thm5_solution(n))))
    for n in THM6_N:
        cvals = [_rational(rng, -3, 3) for _ in range(3)]
        jobs.append(Job(f"pvi-thm6 n={n} c={cvals}",
                        lambda c, n=n, cv=cvals: _pvi_ok(painleve.thm6_family(n), cv)))
    for n in THM7_N:
        b, cc = _thm7_params(rng)
        jobs.append(Job(f"pvi-thm7 n={n} b={b} c={cc}",
                        lambda c, n=n, b=b, cc=cc: _pvi_ok(
                            painleve.thm7_solution(n, b, cc))))
    for tri in painleve.admissible_thm8_triples(THM8_A_MAX):
        cvals = [_rational(rng, -3, 3) for _ in range(3)]
        jobs.append(Job(f"pvi-thm8 {tri} c={cvals}",
                        lambda c, t=tri, cv=cvals: _pvi_ok(painleve.thm8_family(*t), cv)))
    for kind, grid, skip in (("poly", theorem3_grid(), set()),
                             ("rational", theorem4_grid(), RESIDUAL_SKIP)):
        for g in grid:
            consts = [_rational(rng, -3, 3) for _ in range(g[0] - 1)]
            if g not in skip:
                jobs.append(Job(f"schlesinger-{kind} {g} residual",
                                lambda c, k=kind, g=g, cs=consts: _schlesinger_ok(
                                    _build(k, g, cs))))
    for g in theorem3_grid():
        consts = [_rational(rng, -3, 3) for _ in range(g[0] - 1)]
        jobs.append(Job(f"oracle-poly {g}",
                        lambda c, g=g, cs=consts: _oracle_poly_ok(g, cs)))
    for g in theorem4_grid():
        consts = [_rational(rng, -3, 3) for _ in range(g[0] - 1)]
        if g not in ORACLE_SKIP:
            jobs.append(Job(f"oracle-rational {g}",
                            lambda c, g=g, cs=consts: _oracle_rational_ok(g, cs)))
    for kind, g in NEG_SCHLESINGER:
        spec = _perturbation(rng, g[1])
        jobs.append(Job(f"negative schlesinger-{kind} {g} {spec}", expect=False,
                        run=lambda c, k=kind, g=g, sp=spec: schlesinger.residual_is_zero(
                            _perturbed_schlesinger(_build(k, g), sp))))
    for label, make in _pvi_negatives(rng):
        shift = _x_monomial(rng)
        jobs.append(Job(f"negative {label} shift={shift}", expect=False,
                        run=lambda c, mk=make, s=shift: _pvi_shift_ok(mk(), s)))
    return jobs


def _thm7_params(rng):
    while True:
        b, c = _rational(rng, -1, 3), _rational(rng, -1, 3)
        if c != b + 1:
            return b, c


def _pvi_negatives(rng):
    """Parameter-free families only: a perturbed one-parameter family makes
    the nonzero residual's gcds cost seconds and vary with the seed."""
    b, c = _thm7_params(rng)
    return [("pvi-thm5 n=2", lambda: painleve.thm5_solution(2)),
            (f"pvi-thm7 n=2 b={b} c={c}", lambda: painleve.thm7_solution(2, b, c)),
            ("pvi-thm5 n=4", lambda: painleve.thm5_solution(4)),
            ("pvi-thm5 n=7", lambda: painleve.thm5_solution(7))]


def _pvi_shift_ok(fam, shift):
    return painleve.pvi_residual(fam.y + shift, fam.params).is_zero()


# ---------------------------------------------------------------------------
# cli-documents

# Document-path instances of theorem 4: every grid instance whose generate +
# verify takes under about 1.5 s on a 2-core box, plus (3,5,2,-1) at 3.4 s.
# The other 27 are left out only for run length: (2,5,1,-1) takes 4.5 s,
# (3,3,1,-3) 4.7 s, (2,4,1,-2) 7.6 s, (4,3,1,-2) 7.6 s, and the rest over
# 12 s each; (3,4,2,-3) takes about 65 s and (4,4,2,-3) about 172 s.
CLI_THM4 = ((2, 2, 1, -1), (2, 2, 1, -2), (2, 2, 1, -3), (2, 3, 1, -1),
            (2, 3, 1, -2), (2, 3, 1, -3), (2, 4, 1, -1), (3, 2, 1, -1),
            (3, 2, 1, -2), (3, 2, 1, -3), (3, 2, 2, -1), (3, 2, 2, -3),
            (3, 3, 1, -1), (3, 3, 1, -2), (3, 3, 2, -1), (3, 3, 2, -3),
            (3, 4, 2, -1), (3, 5, 2, -1), (4, 2, 1, -1), (4, 2, 1, -2),
            (4, 2, 1, -3), (4, 2, 2, -1), (4, 2, 2, -3), (4, 3, 1, -1),
            (4, 3, 2, -1), (4, 3, 2, -3), (4, 4, 2, -1))


def _cli_check(ctx, doc_path):
    report = ctx.path("report.json")
    rc = cli.main(["verify", "--input", doc_path, "--out", report])
    with open(report) as fh:
        passed = json.load(fh)["pass"]
    if rc != (0 if passed else 1):
        raise RuntimeError(f"verify exit code {rc} disagrees with its report")
    return passed


def _generate_and_verify(ctx, argv):
    doc = ctx.path("doc.json")
    rc = cli.main(["generate", *argv, "--out", doc])
    if rc != 0:
        raise RuntimeError(f"generate {argv} exited {rc}")
    ctx.note("cli.doc_bytes", os.path.getsize(doc))
    return _cli_check(ctx, doc)


def _write_doc(path, doc):
    # the same layout cmd_generate writes
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cli_documents(rng, ctx):
    jobs = []

    def add(name, argv):
        jobs.append(Job(f"cli {name}", lambda c, a=argv: _generate_and_verify(c, a)))

    for n in THM5_N:
        add(f"thm5 n={n}", ["--theorem", "5", f"--n={n}"])
    for n in THM6_N:
        add(f"thm6 n={n}", ["--theorem", "6", f"--n={n}"])
    # THM7_N, then a seeded (b, c) sweep at n = 3: small documents of one
    # shape, enough of them that the median job falls inside one cluster of
    # costs instead of on a sparse stretch of the latency distribution
    for n in THM7_N + (3,) * THM7_SWEEP:
        b, c = _thm7_params(rng)
        add(f"thm7 n={n} b={b} c={c}",
            ["--theorem", "7", f"--n={n}", f"--b={b}", f"--c={c}"])
    for a, b, c in painleve.admissible_thm8_triples(THM8_A_MAX):
        add(f"thm8 {(a, b, c)}",
            ["--theorem", "8", f"--a={a}", f"--b={b}", f"--c={c}"])
    for p, N, m, n in theorem3_grid():
        add(f"thm3 {(p, N, m, n)}", ["--theorem", "3", f"--p={p}", f"--N={N}",
                                     f"--m={m}", f"--n={n}"])
    for p, N, m, n in CLI_THM4:
        add(f"thm4 {(p, N, m, n)}", ["--theorem", "4", f"--p={p}", f"--N={N}",
                                     f"--m={m}", f"--n={n}"])
    for m, n in ((2, 1), (4, 1), (2, 3), (4, 3)):
        add(f"thm10 M=2 m={m} n={n}",
            ["--theorem", "10", "--M=2", f"--m={m}", f"--n={n}"])
    for n, cs in ((-1, "1,1"), (-1, "2,-1"), (-2, "1,1")):
        add(f"thm11 M=2 n={n} c={cs}", ["--theorem", "11", "--M=2", f"--n={n}",
                                        f"--c={cs}"])
    # negatives: documents made at set-up from perturbed in-memory families
    negatives = []
    for label, make in _pvi_negatives(rng)[:3]:
        fam = make()
        doc = cli._pvi_family_doc(fam)
        doc["y"] = (fam.y + _x_monomial(rng)).to_text()
        negatives.append((label, doc))
    for kind, g in NEG_SCHLESINGER[:2] + NEG_SCHLESINGER[3:5]:
        negatives.append((f"schlesinger-{kind} {g}",
                          _perturbed_schlesinger(_build(kind, g), _perturbation(
                              rng, g[1])).to_json_dict()))
    for k, (label, doc) in enumerate(negatives):
        ctx.job = k
        path = ctx.path("negative.json")
        _write_doc(path, doc)
        jobs.append(Job(f"cli negative {label}", expect=False,
                        run=lambda c, p=path: _cli_check(c, p)))
    return jobs


# ---------------------------------------------------------------------------
# numeric

# The acceptance-suite a-points, jittered by the seed. The theorem 10 checks
# take about 4 ms, so they get a fourth point; (2, -1) of theorem 11 takes
# 250 ms per check and keeps two, for run length. With these counts the p50
# job falls inside the theorem 10 cluster and the p90 job inside the (2, -1)
# cluster, not on a gap between clusters.
GARNIER_POINTS = {
    "thm10 m=2": [(2.0, 3.5), (-1.5, 2.25), (2.5, -1.25), (1.3, 2.1)],
    "thm10 m=4": [(-1.41 - 1.4j, 1.21 - 1.71j), (-3.7 - 0.27j, -3.44 - 1.64j),
                  (3.81 - 1.81j, 2.87 - 0.84j), (2.0 + 0.5j, 3.5 - 0.5j)],
    "thm11 (1,1)": [(-1.5, 2.25), (1.3, 2.1), (2.5, -1.25)],
    "thm11 (2,-1)": [(2.0, 3.5), (-0.8, 1.7)],
}
# The theorem 11 coefficients stay at the acceptance values: the P_M rebuild
# cost grows steeply with coefficient height, so seeding them would make the
# workload's cost depend on the seed.
GARNIER_BUILDERS = {
    "thm10 m=2": lambda: garnier.thm10_solution(2, 2, 1),
    "thm10 m=4": lambda: garnier.thm10_solution(2, 4, 1),
    "thm11 (1,1)": lambda: garnier.thm11_family(2, -1, [F(1), F(1)]),
    "thm11 (2,-1)": lambda: garnier.thm11_family(2, -1, [F(2), F(-1)]),
}
SIGNS = [tuple(1 if (k >> b) & 1 == 0 else -1 for b in range(4))
         for k in range(16)]
TRIANGLE = (0.0, 1.0, 2.0 + 1.0j)
QUADRANGLE = (0.0, 1.0, 2.4 + 0.8j, 3.6 - 0.9j)
PERIOD_GRID = [(2, TRIANGLE, 1, 1), (3, TRIANGLE, 1, 1), (3, TRIANGLE, 1, 2),
               (2, QUADRANGLE, 1, 1), (4, TRIANGLE, 1, 1), (1, TRIANGLE, -1, 1),
               (2, TRIANGLE, -1, 2), (1, QUADRANGLE, -1, 1)]
# Both sides of n = 49. The n >= 49 exports flag roots that are not paired
# (ROADMAP item 5); they stay in the list and count as wrong verdicts.
ZEROS_N = (20, 25, 28, 32, 40, 49, 52, 55, 61)
ZEROS_DEFECT = "float64 np.roots roots lose their pairing at large n (ROADMAP item 5)"


def _garnier_build_ok(ctx, label):
    sol = GARNIER_BUILDERS[label]()
    ctx.state[label] = sol
    return sol.sum_b().is_zero()


def _period_ok(m, pts, n, j):
    curve = SuperellipticCurve(m, pts, n)
    B = periods.period_matrix(curve, j, periods.build_cycle_basis(curve))
    scale = max(abs(v) for v in B.entries.flat)
    colsum = max(abs(v) for v in B.entries.sum(axis=0))
    return colsum < 1e-9 * max(scale, 1.0) and periods.rank_check(B) == curve.N - 1


def _bridge_infinity_ok(pts, k):
    """Period over the k-th infinity loop against the closed form of the
    polynomial family (m = N = 3, n = 1): -2 pi i * b_1^{12}(a) * e^{2 pi i (k-1)/3}."""
    sol = schlesinger.build_polynomial_solution(2, 3, 3, 1)
    val = sol.entry(1, 1, 2).evaluate({f"a{h + 1}": z for h, z in enumerate(pts)})
    want = -2j * math.pi * val * cmath.exp(2j * math.pi * (k - 1) / 3)
    curve = SuperellipticCurve(3, pts, 1)
    got = periods.integrate_omega(curve, 1, 1, periods.infinity_loop(curve, k))
    return abs(got - want) < 1e-8 * abs(want)


def _bridge_puncture_ok(pts):
    """Period of Omega_2^{(2)} over the puncture loop at a_1 (m = 2, n = -1)
    against the rational family: 2 pi i * m * b_2^{13}(D), D_h = a_1 - a_h."""
    sol = schlesinger.build_rational_solution(3, 3, 2, -1, nu=1)
    val = 2 * sol.entry(2, 1, 3).evaluate(
        {name: pts[0] - pts[h - 1] for h, name in sol.frame.dvars.items()})
    want = 2j * math.pi * val
    curve = SuperellipticCurve(2, pts, -1)
    got = periods.integrate_omega(curve, 2, 2, periods.puncture_loop(curve, 1))
    return abs(got - want) < 1e-8 * abs(want)


def _continuation_ok(m, pts, cycle):
    """Nearest-root tracking of w along a double loop with 3 samples per
    segment, so the tracker must halve its steps. The loop has trivial
    monodromy: w returns to its start, and every sample lies on the curve."""
    curve = SuperellipticCurve(m, pts, 1)
    trace = periods.continue_w(curve, periods.build_cycle_basis(curve)[cycle],
                               steps=3)
    (_, w0), (_, w1) = trace[0], trace[-1]
    return abs(w1 - w0) <= 1e-9 * abs(w0) and all(
        abs(w ** m - curve.poly_at(z)) <= 1e-9 * max(1.0, abs(curve.poly_at(z)))
        for z, w in trace)


def _isomonodromy_ok(m, pts, i, j, cycle):
    curve = SuperellipticCurve(m, pts, 1)
    cyc = periods.build_cycle_basis(curve)[cycle]
    return periods.isomonodromy_fd_check(curve, i, j, cyc, vary=3, h=1e-4) < 1e-6


def _liouville_ok(n, b, c, xs):
    rep = liouville.liouvillian_eval(n, b, c, xs)
    return rep.max_wronskian_err() < 1e-8 and rep.max_ode_residual() < 1e-6


def _zeros_ok(ctx, n):
    out = ctx.path("zeros.csv")
    if cli.main(["zeros", f"--n={n}", "--out", out]) != 0:
        raise RuntimeError(f"zeros --n {n} failed")
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    per_poly = {r[0]: 0 for r in rows}
    for r in rows:
        per_poly[r[0]] += 1
    return (sorted(per_poly.values()) == [n + 1, n + 1]
            and all(r[4] == "True" and r[5] == "True" for r in rows))


def numeric(rng, ctx):
    jobs = []
    for label, points in GARNIER_POINTS.items():
        jobs.append(Job(f"garnier build {label}",
                        lambda c, lb=label: _garnier_build_ok(c, lb)))
        for a in points:
            a = tuple(_jitter(rng, z) for z in a)
            for eps in SIGNS:
                jobs.append(Job(f"garnier {label} a={a} eps={eps}",
                                lambda c, lb=label, a=a, e=eps:
                                garnier.garnier_residual_m2(c.state[lb], a, e) < 1e-6))
    for m, pts, n, j in PERIOD_GRID:
        pts = [_jitter(rng, z) for z in pts]
        jobs.append(Job(f"periods m={m} n={n} j={j} a={pts}",
                        lambda c, a=(m, pts, n, j): _period_ok(*a)))
    for m, pts in ((2, TRIANGLE), (3, TRIANGLE), (2, QUADRANGLE), (4, TRIANGLE)):
        pts = [_jitter(rng, z) for z in pts]
        for cycle in range((m - 1) * (len(pts) - 1)):
            jobs.append(Job(f"continuation m={m} cycle={cycle} a={pts}",
                            lambda c, a=(m, pts, cycle): _continuation_ok(*a)))
    c33 = [_jitter(rng, z) for z in TRIANGLE]
    for k in (1, 2, 3):
        jobs.append(Job(f"bridge infinity k={k} a={c33}",
                        lambda c, k=k: _bridge_infinity_ok(c33, k)))
    cneg = [_jitter(rng, z) for z in TRIANGLE]
    jobs.append(Job(f"bridge puncture a={cneg}", lambda c: _bridge_puncture_ok(cneg)))
    for m, i, j, cycle in ((2, 1, 1, 0), (3, 2, 1, 1)):
        pts = [_jitter(rng, z) for z in TRIANGLE]
        jobs.append(Job(f"isomonodromy m={m} a={pts}",
                        lambda c, a=(m, pts, i, j, cycle): _isomonodromy_ok(*a)))
    for n, b, cc in ((1, F(-1, 3), F(1, 3)), (2, F(-2, 3), F(-1, 3))):
        xs = [round(x + rng.uniform(-0.1, 0.1), 3) for x in (2, 3, 5)]
        jobs.append(Job(f"liouville n={n} x={xs}",
                        lambda c, a=(n, b, cc, xs): _liouville_ok(*a)))
    for n in ZEROS_N:
        jobs.append(Job(f"zeros n={n}", lambda c, n=n: _zeros_ok(c, n),
                        known_defect=ZEROS_DEFECT if n >= 49 else None))
    return jobs


WORKLOADS = {"exact-inmemory": exact_inmemory, "cli-documents": cli_documents,
             "numeric": numeric}


def make_jobs(workload, seed, ctx):
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), ctx)
