"""Command-line front end: generate families, verify them, export data.

Subcommands
-----------
generate   build a solution family (--theorem 3,4,5,6,7,8,10,11) as JSON
verify     run the matching exact/numeric verification suite
zeros      CSV of special-polynomial roots with symmetry columns
periods    CSV of a numeric period matrix plus its rank
reproduce  check a named worked example against embedded golden values

Exit codes: 0 pass, 1 verification failure, 2 usage/parameter error.
JSON output is deterministic (sorted keys, canonical expression text).
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import itertools
import json
import math
import os
import sys
from fractions import Fraction

from .schlesinger import SCHEMA_VERSION, check_keys


class ParameterError(ValueError):
    """A usage error: main prints its message and exits 2."""


def _frac(text) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise ParameterError(f"bad rational {text!r}: {e}")


def _parse_eps(text: str):
    table = {"+": 1, "-": -1}
    try:
        return tuple(table[ch] for ch in text)
    except KeyError:
        raise ParameterError(f"bad sign vector {text!r}; use e.g. ++-+")


def _tol(text, default: float) -> float:
    """--tol as a finite float > 0, or the default when it is not given."""
    if not text:
        return default
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0 < tol < math.inf:
        raise ParameterError(f"bad --tol {text!r}: need a finite number > 0")
    return tol


def _parse_points(text: str):
    out = []
    for part in text.split(","):
        part = part.strip()
        try:
            z = complex(part.replace("i", "j"))
        except ValueError:
            z = None
        if z is None or not cmath.isfinite(z):
            raise ParameterError(f"bad coordinate {part!r}: need a finite "
                                 f"number like 2 or 2+1i")
        out.append(z)
    return out


# ---------------------------------------------------------------------------
# generate


def _pvi_family_doc(fam) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "pvi-family",
        "provenance": {k: str(v) for k, v in fam.provenance.items()},
        "theta": [str(fam.theta.beta1), str(fam.theta.beta2),
                  str(fam.theta.beta3), str(fam.theta.beta_inf)],
        "params": [str(fam.params.alpha), str(fam.params.beta),
                   str(fam.params.gamma), str(fam.params.delta)],
        "parameter": fam.param,
        "y": fam.y.to_text(),
    }


# the family options of each theorem: those it needs, then those it may take;
# an option is named by its attribute on the parsed arguments
_THEOREM_OPTIONS = {
    3: (("p", "N", "m", "n"), ()),
    4: (("p", "N", "m", "n"), ("nu",)),
    5: (("n",), ()),
    6: (("n",), ()),
    7: (("n", "b", "c"), ()),
    8: (("a", "b", "c"), ()),
    10: (("M", "m", "n"), ()),
    11: (("M", "n"), ("c",)),
}
_FAMILY_OPTIONS = ("theorem", "p", "N", "M", "m", "n", "nu", "a", "b", "c")


def _check_family(args):
    """ParameterError for a family option the request lacks or does not
    read: a theorem request needs and takes the options of its theorem, a
    document (--input) takes none. --a is read by theorem 8, and by the
    numeric checks when --numeric is given. A missing option is reported
    first."""
    if getattr(args, "input", None):
        request, needs, takes = "--input", (), ()
    else:
        if args.theorem not in _THEOREM_OPTIONS:
            raise ParameterError(f"unknown theorem {args.theorem}")
        request = f"--theorem {args.theorem}"
        needs, takes = _THEOREM_OPTIONS[args.theorem]
        if any(getattr(args, o) is None for o in needs):
            raise ParameterError(f"{request} needs "
                                 + ", ".join(f"--{o}" for o in needs))
        takes = ("theorem", *needs, *takes)
    if getattr(args, "numeric", False):
        takes = (*takes, "a")
    unread = [f"--{o}" for o in _FAMILY_OPTIONS
              if getattr(args, o) is not None and o not in takes]
    if unread:
        raise ParameterError(f"{request} does not read {', '.join(unread)}")


def _generate_doc(args) -> dict:
    """The document of a theorem request that _check_family passed."""
    from . import painleve, garnier, schlesinger
    t = args.theorem
    if t == 5:
        return _pvi_family_doc(painleve.thm5_solution(int(args.n)))
    if t == 6:
        return _pvi_family_doc(painleve.thm6_family(int(args.n)))
    if t == 7:
        return _pvi_family_doc(painleve.thm7_solution(
            int(args.n), _frac(args.b), _frac(args.c)))
    if t == 8:
        return _pvi_family_doc(painleve.thm8_family(
            int(args.a), int(args.b), int(args.c)))
    if t in (3, 4):
        pNmn = int(args.p), int(args.N), int(args.m), int(args.n)
        sol = (schlesinger.build_polynomial_solution(*pNmn) if t == 3 else
               schlesinger.build_rational_solution(*pNmn, nu=int(args.nu or 1)))
        return sol.to_json_dict()
    if t == 10:
        return garnier.thm10_solution(int(args.M), int(args.m),
                                      int(args.n)).to_json_dict()
    coeff = [_frac(x) for x in (args.c or "1,1").split(",")]
    return garnier.thm11_family(int(args.M), int(args.n), coeff).to_json_dict()


def cmd_generate(args) -> int:
    _check_family(args)
    doc = _generate_doc(args)
    _emit(args, json.dumps(doc, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# verify


def _check_doc(doc) -> str:
    """Kind of a verifiable document; ValueError if it is malformed."""
    if not isinstance(doc, dict):
        raise ParameterError("document must be a JSON object")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ParameterError(f"cannot verify schema_version {version!r}")
    check_keys(doc, doc.get("kind"))
    return doc["kind"]


def _verify_pvi_doc(doc) -> list:
    from .algebra import parse_ratfunc
    from . import painleve
    if len(doc["theta"]) != 4 or len(doc["params"]) != 4:
        raise ParameterError("pvi-family document needs 4 theta and 4 params")
    cname = doc.get("parameter")
    if cname is not None and not isinstance(cname, str):
        raise ParameterError("pvi-family document has a malformed 'parameter'")
    y = parse_ratfunc(doc["y"])
    if cname is not None and cname not in y.variables:
        raise ParameterError(f"pvi-family document's 'parameter' {cname!r} "
                             "names no variable of y")
    theta = painleve.ThetaTuple.of(*[Fraction(s) for s in doc["theta"]])
    params = painleve.PVIParams(*[Fraction(s) for s in doc["params"]])

    def verdict(yc, member):
        """(pass, detail) of y or a member yc: a degenerate y in {0, 1, x,
        inf} (yc None is inf) meets the parameter table, any other y has
        zero residual. A member's nonzero residual is not printed."""
        kind = "inf" if yc is None else painleve._pvi_degenerate_kind(yc)
        if kind is not None:
            return (painleve.degenerate_parameter_check(kind, params),
                    f"degenerate {'member y' if member else 'y'} = {kind}")
        r = painleve.pvi_residual(yc, params)
        if r.is_zero():
            return True, "0"
        return False, "nonzero" if member else r.to_text()[:200]

    checks = [("pvi-residual-symbolic", *verdict(y, False))]
    if cname is not None:
        samples = [Fraction(0), Fraction(1), Fraction(2), Fraction(-1, 2)]

        def one(cv):
            try:
                yc = y.substitute(cname, cv)
            except ZeroDivisionError:  # y is reduced: this member is y = inf
                yc = None
            return (f"pvi-residual-{cname}={cv}", *verdict(yc, True))
        checks.extend(sorted(map(one, samples)))
    checks.append(("theta-sum-zero", theta.triangular_sum() == 0,
                   str(theta.triangular_sum())))
    return checks


def _verify_triangular_doc(doc) -> list:
    from . import schlesinger
    sol = schlesinger.TriangularSolution.from_json_dict(doc)
    res = schlesinger.schlesinger_residual(sol)
    bad = [k for k, v in res.items() if not v.is_zero()]
    checks = [("schlesinger-residual", not bad,
               "all zero" if not bad else f"nonzero at {bad[:4]}")]
    sums = schlesinger.sum_constraint(sol)
    badsum = [k for k, v in sums.items() if not v.is_zero()]
    checks.append(("sum-constraint", not badsum,
                   "all zero" if not badsum else f"nonzero at {badsum}"))
    return checks


def _verify_garnier_doc(doc, args, tol) -> list:
    from .algebra import parse_ratfunc
    from . import garnier
    M = doc["M"]
    if M < 1 or len(doc["b"]) != M + 2 or len(doc["betas"]) != M + 2:
        raise ParameterError("garnier-algebraic document needs M >= 1 and "
                             "M + 2 entries in b and betas")
    if args and args.numeric:  # usage errors come first, whatever b holds
        if not args.a:
            raise ParameterError("--numeric needs --a a1,a2")
        apt = _parse_points(args.a)
        eps_list = [_parse_eps(args.eps)] if args.eps else []
        garnier.check_m2_inputs(M, apt, eps_list)  # before M sizes the product
        eps_list = eps_list or list(itertools.product((1, -1), repeat=M + 2))
        taken = {0: "the pole 0", 1: "the pole 1"}  # exact equality only
        for k, (z, text) in enumerate(zip(apt, args.a.split(",")), 1):
            if z in taken:
                raise ParameterError(f"a-point coordinate a{k} = {text.strip()} "
                                     f"collides with {taken[z]}")
            taken[z] = f"a{k}"
    b = [parse_ratfunc(t) for t in doc["b"]]
    betas = [Fraction(s) for s in doc["betas"]]
    sol = garnier.GarnierAlgebraicSolution(  # refuses a b outside a1..aM
        M=M, b=b, betas=betas, beta_inf=Fraction(doc["beta_inf"]))
    s = sol.sum_b()
    built = s.is_zero()  # P_M exists only when the b_i sum to zero
    unbuilt = "P_M not built: sum of b_i is nonzero"
    pm = sol.pm_coefficients() if built else []
    top = max((k for k, c in enumerate(pm) if not c.is_zero()), default=None)
    # the numeric checks read P_M only at its full degree M; `why` says why not
    if not built:
        degree = why = unbuilt
    elif top is None:
        degree = why = "P_M is 0"
    else:
        degree = str(top)
        why = None if top == M else f"P_M has degree {top} < M = {M}"
    checks = [("sum-b-zero", built, "0" if built else s.to_text()),
              ("pm-degree", top == M, degree)]
    if "pm_coefficients" in doc:
        texts = doc["pm_coefficients"]
        if not (isinstance(texts, list) and len(texts) == M + 1
                and all(isinstance(t, str) for t in texts)):
            raise ParameterError("garnier-algebraic document needs M + 1 "
                                 "strings in pm_coefficients")
        if not built:
            checks.append(("pm-matches-b", False, unbuilt))
        else:
            bad = [f"z^{k}" for k, (t, c) in enumerate(zip(texts, pm))
                   if parse_ratfunc(t) != c]
            checks.append(("pm-matches-b", not bad, "all equal" if not bad
                           else f"differs at {', '.join(bad)}"))
    if args and args.numeric:
        def one(eps):
            r = 0 if why else float(garnier.garnier_residual_m2(sol, apt, eps))
            return (f"garnier-m2-eps{''.join('+' if e > 0 else '-' for e in eps)}",
                    not why and bool(r < tol), why or f"{r:.3e}")
        checks.extend(sorted(map(one, eps_list)))
    return checks


def cmd_verify(args) -> int:
    # numeric options that no check would read are refused before any
    # family is built or document parsed beyond its kind
    if not args.numeric and (args.eps, args.tol) != (None, None):
        raise ParameterError("--eps and --tol need --numeric")
    tol = _tol(args.tol, 1e-6)
    if args.input:
        try:
            with open(args.input) as fh:
                doc = json.load(fh)
        except OSError as e:
            raise ParameterError(f"cannot read {args.input}: {e.strerror}")
        kind = doc.get("kind") if isinstance(doc, dict) else None
        exact = kind in ("pvi-family", "triangular-schlesinger") and \
            f"a {kind} document"
    else:
        exact = args.theorem in range(3, 9) and f"theorem {args.theorem}"
    if args.numeric and exact:
        raise ParameterError(f"--numeric checks only Garnier documents "
                             f"(theorems 10, 11), not {exact}")
    _check_family(args)
    if not args.input:
        doc = _generate_doc(args)
    kind = _check_doc(doc)
    if kind == "pvi-family":
        checks = _verify_pvi_doc(doc)
    elif kind == "triangular-schlesinger":
        checks = _verify_triangular_doc(doc)
    else:
        checks = _verify_garnier_doc(doc, args, tol)
    ok = all(p for _, p, _ in checks)
    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": "verification-report",
        "pass": ok,
        "checks": [{"name": n, "pass": p, "detail": d} for n, p, d in checks],
    }
    _emit(args, json.dumps(report, indent=2, sort_keys=True))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# zeros


def cmd_zeros(args) -> int:
    from . import painleve
    if args.n is None:
        raise ParameterError("zeros needs --n")
    n = int(args.n)
    if args.b is not None or args.c is not None:
        if None in (args.b, args.c):
            raise ParameterError("zeros with parameters needs both --b and --c")
        P, Q = painleve._thm7_pq(n, *painleve._thm7_check_params(
            n, _frac(args.b), _frac(args.c)))
    else:
        P, Q = painleve.pq_polynomials(n)
    names = [f"P{n + 1}", f"Q{n + 1}"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["poly_id", "degree", "re", "im",
                     "conj_paired", "inversion_paired"])
    for name, poly in zip(names, (P, Q)):
        rep = painleve.polynomial_zeros(poly)
        for z, cj, inv in zip(rep.roots, rep.conj_paired, rep.inversion_paired):
            writer.writerow([name, rep.degree, repr(z.real), repr(z.imag),
                             cj, inv])
    _emit(args, buf.getvalue().rstrip("\n"))
    return 0


# ---------------------------------------------------------------------------
# periods


def cmd_periods(args) -> int:
    from .curves import SuperellipticCurve
    from . import periods
    if None in (args.m, args.n) or not args.a:
        raise ParameterError("periods needs --m, --n and --a")
    unread = [f"--{o}" for o in ("j", "tol") if getattr(args, o) is not None]
    if args.trace is not None and unread:
        raise ParameterError(f"--trace does not read {', '.join(unread)}")
    tol = _tol(args.tol, periods.DEFAULT_TOL)
    curve = SuperellipticCurve(int(args.m), _parse_points(args.a), int(args.n))
    j = int(args.j or 1)
    cycles = periods.build_cycle_basis(curve)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if args.trace is not None:
        idx = int(args.trace)
        if not (0 <= idx < len(cycles)):
            raise ParameterError(f"--trace index out of range 0..{len(cycles) - 1}")
        writer.writerows(periods.continuation_trace_rows(curve, cycles[idx]))
        _emit(args, buf.getvalue().rstrip("\n"))
        return 0
    B = periods.period_matrix(curve, j, cycles, tol)
    rank = periods.rank_check(B)
    writer.writerows(B.to_csv_rows())
    writer.writerow(["rank", rank, "", "", ""])
    _emit(args, buf.getvalue().rstrip("\n"))
    return 0


# ---------------------------------------------------------------------------
# reproduce (golden worked examples)


def _golden_example_1():
    from . import painleve
    from .algebra import parse_poly, parse_ratfunc
    frozen = {
        1: ("1/3*x + 1/3", "1/3*x - 2/3", "-2/3*x + 1/3",
            "(1/2*x^2 + 1/2*x)/(x^2 - 1*x + 1)"),
        2: ("1/9*x^2 - 4/9*x + 1/9", "1/9*x^2 + 2/9*x - 2/9",
            "-2/9*x^2 + 2/9*x + 1/9",
            "(1/2*x^3 - 2*x^2 + 1/2*x)/(x^3 - 3/2*x^2 - 3/2*x + 1)"),
        4: ("-5/243*x^4 + 16/243*x^3 - 4/81*x^2 + 16/243*x - 5/243",
            "-5/243*x^4 + 4/243*x^3 + 2/81*x^2 - 20/243*x + 10/243",
            "10/243*x^4 - 20/243*x^3 + 2/81*x^2 + 4/243*x - 5/243",
            "(1/2*x^5 - 8/5*x^4 + 6/5*x^3 - 8/5*x^2 + 1/2*x)"
            "/(x^5 - 5/2*x^4 + x^3 + x^2 - 5/2*x + 1)"),
    }
    for n, (t1, t2, t3, ty) in frozen.items():
        b1, b2, b3 = painleve.polynomial_triple(n)
        if (b1, b2, b3) != (parse_poly(t1), parse_poly(t2), parse_poly(t3)):
            return False, f"triple mismatch at n={n}"
        if painleve.thm5_solution(n).y != parse_ratfunc(ty):
            return False, f"y mismatch at n={n}"
    return True, "triples and y for n=1,2,4 bit-exact"


def _golden_example_2():
    from . import painleve
    from .algebra import MultiPoly, RatFunc
    x = MultiPoly.var("x")
    c = MultiPoly.var("c")
    printed = {
        -1: RatFunc((1 - c) * x ** 2 + c, 2 * ((1 - c) * x + c)),
        -2: RatFunc((1 - c) * x ** 4 * (3 * x - 5) + c * (3 - 5 * x),
                    5 * ((1 - c) * x ** 3 * (x - 2) + c * (1 - 2 * x))),
        -3: RatFunc((1 - c) * x ** 6 * (14 - 16 * x + 5 * x ** 2)
                    + c * (5 - 16 * x + 14 * x ** 2),
                    4 * ((1 - c) * x ** 5 * (7 - 7 * x + 2 * x ** 2)
                         + c * (2 - 7 * x + 7 * x ** 2))),
    }
    for n, want in printed.items():
        if painleve.thm6_family(n).y != want:
            return False, f"family mismatch at n={n}"
    s = painleve.rational_sextet(-1)
    if s["b1"] != RatFunc(x + 1, x ** 2) or s["tb2"] != RatFunc(x - 2, (1 - x) ** 2):
        return False, "sextet mismatch at n=-1"
    return True, "families for n=-1,-2,-3 bit-exact"


def _golden_example_3():
    from . import okamoto, painleve
    from .algebra import MultiPoly, RatFunc
    x = MultiPoly.var("x")
    c = MultiPoly.var("c")
    b = okamoto.OkamotoCoords.of(-1, 1, 0, 1)
    p = RatFunc(2 * x * (x - 1), x ** 2 + c)
    if not okamoto.riccati_residual(p, b).is_zero():
        return False, "riccati residual nonzero"
    yw, pw = okamoto.degenerate_prolongation(p, b.b1, b.b3)
    if yw != RatFunc((x ** 2 + c) * Fraction(1, 2), x + c):
        return False, "y_w mismatch"
    if pw != (p - 2) / (p - 1):
        return False, "p_w mismatch"
    params = painleve.pvi_params(okamoto.apply_word("w1w2w1", b).theta())
    if params != painleve.PVIParams(Fraction(2), Fraction(-1, 2),
                                    Fraction(1, 2), Fraction(0)):
        return False, "image parameters mismatch"
    if not painleve.pvi_residual(yw, params).is_zero():
        return False, "image family fails PVI"
    return True, "prolongation, Riccati, momentum and image PVI all exact"


def _golden_example_4():
    from . import liouville
    rep1 = liouville.liouvillian_eval(1, Fraction(-1, 3), Fraction(1, 3), [2, 3, 5])
    rep2 = liouville.liouvillian_eval(2, Fraction(-2, 3), Fraction(-1, 3), [2, 3, 5])
    ok = (rep1.max_wronskian_err() < 1e-8 and rep1.max_ode_residual() < 1e-6
          and rep2.max_wronskian_err() < 1e-8 and rep2.max_ode_residual() < 1e-6)
    detail = (f"wronskian {max(rep1.max_wronskian_err(), rep2.max_wronskian_err()):.2e}, "
              f"ode {max(rep1.max_ode_residual(), rep2.max_ode_residual()):.2e}")
    return ok, detail


def _golden_example_8():
    from . import garnier
    from .algebra import MultiPoly, RatFunc
    a1, a2 = MultiPoly.var("a1"), MultiPoly.var("a2")
    s1 = garnier.thm10_solution(2, 2, 1)
    printed1 = [3 * a1 ** 2 - 2 * a1 * a2 - a2 ** 2 - 2 * a1 + 2 * a2 - 1,
                3 * a2 ** 2 - 2 * a1 * a2 - a1 ** 2 + 2 * a1 - 2 * a2 - 1,
                -a1 ** 2 + 2 * a1 * a2 - a2 ** 2 + 2 * a1 + 2 * a2 - 1,
                -a1 ** 2 + 2 * a1 * a2 - a2 ** 2 - 2 * a1 - 2 * a2 + 3]
    s2 = garnier.thm10_solution(2, 4, 1)
    printed2 = [-3 * a1 + a2 + 1, a1 - 3 * a2 + 1, a1 + a2 + 1, a1 + a2 - 3]
    for case, s, printed, q in ((1, s1, printed1, 8), (2, s2, printed2, 4)):
        if s.b != [RatFunc.from_poly(pi) * Fraction(1, q) for pi in printed]:
            return False, f"case {case} coefficients mismatch"
    r1 = garnier.garnier_residual_m2(s1, (2.0, 3.5), (1, 1, 1, 1))
    r2 = garnier.garnier_residual_m2(s2, (2.0, 3.0), (1, 1, 1, 1))
    if max(r1, r2) >= 1e-6:
        return False, f"numeric residual too large: {max(r1, r2):.2e}"
    return True, f"coefficients bit-exact (prefactors 1/8, 1/4); residuals < {max(r1, r2):.1e}"


def _golden_example_9():
    from . import garnier
    from .algebra import RatFunc
    a1, a2 = RatFunc.var("a1"), RatFunc.var("a2")
    printed = {(1, 2): 1 / ((a1 - a2) ** 2 * a1 * (a1 - 1)),
               (1, 3): 1 / ((a1 - a2) * a1 ** 2 * (a1 - 1)),
               (1, 4): 1 / ((a1 - a2) * a1 * (a1 - 1) ** 2),
               (3, 1): 1 / (a1 ** 2 * a2),
               (3, 3): -(a1 * a2 + a1 + a2) / (a1 ** 2 * a2 ** 2)}
    vecs = {j: garnier.residue_basis_vector(2, -1, j) for j in (1, 3)}
    for (j, i), want in printed.items():
        if vecs[j][i - 1] != want:
            return False, f"b{i}^({j}) mismatch"
    fam = garnier.thm11_family(2, -1, [Fraction(1), Fraction(1)])
    r = garnier.garnier_residual_m2(fam, (2.0, 3.5), (1, 1, 1, 1))
    if r >= 1e-6:
        return False, f"numeric residual {r:.2e}"
    return True, f"basis vectors bit-exact; residual {r:.1e}"


GOLDEN = {
    "example-1": _golden_example_1,
    "example-2": _golden_example_2,
    "example-3": _golden_example_3,
    "example-4": _golden_example_4,
    "example-8": _golden_example_8,
    "example-9": _golden_example_9,
}


def cmd_reproduce(args) -> int:
    ids = sorted(GOLDEN) if args.example_id == "all" else [args.example_id]
    bad = [i for i in ids if i not in GOLDEN]
    if bad:
        raise ParameterError(f"unknown example id(s) {bad}; "
                             f"known: {', '.join(sorted(GOLDEN))} or 'all'")
    results = [(eid, *GOLDEN[eid]()) for eid in ids]
    _emit(args, "\n".join(f"{eid}: {'PASS' if ok else 'FAIL'} ({detail})"
                          for eid, ok, detail in results))
    return 0 if all(ok for _, ok, _ in results) else 1


# ---------------------------------------------------------------------------


def _emit(args, text: str):
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="isolab",
        description="exact/numeric solution families of triangular "
                    "Schlesinger, Painleve VI and Garnier systems")
    sub = ap.add_subparsers(dest="command", required=True)
    options = {
        "--theorem": dict(type=int, help="family builder: 3,4 (Schlesinger), "
                                         "5,6,7,8 (PVI), 10,11 (Garnier)"),
        "--n": dict(help="integer index n of the family"),
        "--m": dict(help="root order m of the curve"),
        "--M": dict(help="number of Garnier variables"),
        "--p": dict(help="matrix size (Schlesinger)"),
        "--N": dict(help="pole count (Schlesinger)"),
        "--nu": dict(help="pole choice for rational families"),
        "--b": dict(help="rational parameter b"),
        "--c": dict(help="rational parameter c (or Garnier c1,c2,..)"),
        "--out": dict(help="write output to this path"),
    }

    def add(p, *names):
        for name in names:
            p.add_argument(name, **options[name])
    family = ("--theorem", "--n", "--m", "--M", "--p", "--N", "--nu", "--b",
              "--c", "--out")

    g = sub.add_parser("generate", help="build a family, print JSON")
    add(g, *family)
    g.add_argument("--a", help="integer parameter a (theorem 8)")

    v = sub.add_parser("verify", help="verify a generated or supplied document")
    add(v, *family)
    v.add_argument("--input", help="path to a generated JSON document")
    v.add_argument("--numeric", action="store_true",
                   help="run the numeric (Garnier) checks as well")
    v.add_argument("--a", help="comma-separated a-point, e.g. 2,3.5")
    v.add_argument("--eps", help="sign vector like ++-+ (default: all)")
    v.add_argument("--tol", help="numeric tolerance (default 1e-6)")

    z = sub.add_parser("zeros", help="CSV of P/Q roots with symmetry columns")
    add(z, "--n", "--b", "--c", "--out")

    pe = sub.add_parser("periods", help="CSV of a numeric period matrix")
    add(pe, "--m", "--n", "--out")
    pe.add_argument("--a", help="branch points, e.g. 0,1,2+1i")
    pe.add_argument("--j", help="differential index (default 1)")
    pe.add_argument("--tol", help="quadrature tolerance")
    pe.add_argument("--trace", help="dump the w-continuation trace of the "
                                    "given cycle index instead")

    r = sub.add_parser("reproduce", help="check a worked example id")
    r.add_argument("example_id", help="example-1, example-2, ..., or 'all'")
    add(r, "--out")
    return ap


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    # looked up at call time, so that a wrapper put on a cmd_* name of this
    # module sees the call
    command = globals()[f"cmd_{args.command}"]
    try:
        code = command(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so that the
        # interpreter's final flush stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, ZeroDivisionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ArithmeticError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
