import random
from fractions import Fraction as F
from math import gcd, prod

import pytest

from isolab.algebra import (MultiPoly, RatFunc, FactoredFrac, binomials,
                            parse_ratfunc)
from isolab.curves import SuperellipticCurve, residue_series_oracle
from isolab.schlesinger import (ExponentGrid, HypothesisError, IdentityFrame,
                                ShiftedFrame, TriangularSolution,
                                build_polynomial_solution, build_rational_solution,
                                commutator_entry, cross_terms, residual_is_zero,
                                schlesinger_residual, sum_constraint, tau_exponents,
                                default_variables, _rational_class_entries)

x = MultiPoly.var("x")


def at_unit_triple(r: RatFunc) -> RatFunc:
    """Specialize (a1, a2, a3) -> (0, 1, x)."""
    return (r.substitute("a1", F(0)).substitute("a2", F(1))
             .substitute("a3", MultiPoly.var("x")))


class TestExponentGrid:
    def test_traceless(self):
        g = ExponentGrid.traceless(2, 3, 3, 1)
        assert g.beta[0] == (F(1, 6), F(-1, 6))
        assert {r[0] - r[1] for r in g.beta} == {F(1, 3)}

    def test_bad_progression_rejected(self):
        with pytest.raises(ValueError):
            ExponentGrid(2, 2, ((F(0), F(1)), (F(0), F(2))))

    def test_tau_exponents(self):
        zero = ExponentGrid(1, 2, ((F(0),), (F(0),)))
        assert tau_exponents(zero) == [[F(0), F(0)], [F(0), F(0)]]
        g = ExponentGrid.traceless(2, 3, 3, 1)
        alpha = tau_exponents(g)
        assert alpha[0][1] == F(1, 18)
        g2 = ExponentGrid.traceless(2, 4, 2, 1)
        assert tau_exponents(g2)[0][1] == F(1, 8)  # n^2/(2 m^2)


class TestPolynomialFamily:
    def test_three_pole_linear_entries(self):
        sol = build_polynomial_solution(2, 3, 3, 1)
        assert at_unit_triple(sol.entry_ratfunc(1, 1, 2)) == RatFunc.from_poly(
            (x + 1) * F(1, 3))
        assert at_unit_triple(sol.entry_ratfunc(2, 1, 2)) == RatFunc.from_poly(
            (x - 2) * F(1, 3))
        assert at_unit_triple(sol.entry_ratfunc(3, 1, 2)) == RatFunc.from_poly(
            (-2 * x + 1) * F(1, 3))

    def test_hypothesis_rejections(self):
        with pytest.raises(HypothesisError):
            build_polynomial_solution(2, 3, 2, 1)   # s = 1
        with pytest.raises(HypothesisError):
            build_polynomial_solution(2, 3, 3, -1)  # n < 0
        with pytest.raises(HypothesisError):
            build_polynomial_solution(2, 2, 4, 1)   # no admissible class j

    def test_four_pole_quadratic_entry(self):
        a1, a2 = MultiPoly.var("a1"), MultiPoly.var("a2")
        sol = build_polynomial_solution(2, 4, 2, 1)
        got = (sol.entry_ratfunc(1, 1, 2).substitute("a3", F(0))
               .substitute("a4", F(1)))
        printed = 3 * a1 ** 2 - 2 * a1 * a2 - a2 ** 2 - 2 * a1 + 2 * a2 - 1
        assert got == RatFunc.from_poly(printed) * F(1, 8)

    def test_degree_law(self):
        for (p, N, m, n) in [(2, 3, 3, 1), (2, 3, 3, 2), (4, 4, 2, 1)]:
            sol = build_polynomial_solution(p, N, m, n)
            for (i, k, l), e in sol.entries.items():
                if e.is_zero():
                    continue
                assert e.num.total_degree() == (l - k) * n * N // m

    def test_zero_classes_present(self):
        sol = build_polynomial_solution(4, 4, 2, 1)   # class 2 must be zero
        assert sol.entry(1, 1, 3).is_zero()
        assert not sol.entry(1, 1, 2).is_zero()
        assert not sol.entry(1, 1, 4).is_zero()

    def test_constants_scale_entries(self):
        base = build_polynomial_solution(2, 3, 3, 1)
        scaled = build_polynomial_solution(2, 3, 3, 1, constants=[F(7)])
        assert scaled.entry_ratfunc(1, 1, 2) == base.entry_ratfunc(1, 1, 2) * 7


class TestRationalFamily:
    def test_three_pole_entries_nu1(self):
        sol = build_rational_solution(2, 3, 1, -1, nu=1)
        want = {1: "(x + 1)/(x^2)", 2: "(-1)/(x)", 3: "(-1)/(x^2)"}
        for i, text in want.items():
            assert at_unit_triple(sol.entry_ratfunc(i, 1, 2)) == parse_ratfunc(text)

    def test_three_pole_entries_nu2(self):
        sol = build_rational_solution(2, 3, 1, -1, nu=2)
        xm1 = MultiPoly.var("x") - 1
        want = {1: RatFunc(MultiPoly.const(-1), xm1),
                2: RatFunc(x - 2, xm1 ** 2),
                3: RatFunc(MultiPoly.const(1), xm1 ** 2)}
        for i, r in want.items():
            assert at_unit_triple(sol.entry_ratfunc(i, 1, 2)) == r

    def test_five_pole_entry(self):
        a1, a2 = RatFunc.var("a1"), RatFunc.var("a2")
        sol = build_rational_solution(2, 4, 1, -1, nu=1)
        got = (sol.entry_ratfunc(2, 1, 2).substitute("a3", F(0))
               .substitute("a4", F(1)))
        assert got == 1 / ((a1 - a2) ** 2 * a1 * (a1 - 1))

    def test_hypothesis_rejections(self):
        with pytest.raises(HypothesisError):
            build_rational_solution(2, 3, 2, -1)    # needs j = 2 <= p-1
        with pytest.raises(HypothesisError):
            build_rational_solution(2, 3, 1, 1)     # n > 0
        with pytest.raises(HypothesisError):
            build_rational_solution(3, 3, 2, -2)    # gcd(2,2) != 1

    @pytest.mark.parametrize("N", [1, 0, -1])
    def test_fewer_than_two_poles_rejected(self, N):
        # a ValueError naming the hypothesis, not a runaway recursion
        with pytest.raises(ValueError, match="hypothesis N >= 2 fails"):
            build_rational_solution(2, N, 1, -1)

    def test_class_entries_match_reference(self):
        # the product-of-rows builder against the composition transcription
        # of the printed sums, at every pole choice nu and every entry i
        for N in range(2, 8):
            for d in range(1, 10):
                for nu in range(1, N + 1):
                    frame = ShiftedFrame(default_variables(N), nu)
                    got, = _rational_class_entries(
                        {h: frame.dvar(h) for h in frame.dvars}, [d], nu)
                    assert len(got) == N
                    for i in range(1, N + 1):
                        want = reference_rational_class_entry(frame, i, d, N, nu)
                        assert got[i - 1].num == want.num, (N, d, nu, i)
                        assert got[i - 1].den == want.den, (N, d, nu, i)


    def test_class_entries_at_points(self):
        # gaps that are no variables: the points (a1, a2, 0, 1), so that the
        # pole 0 meets the constant gap 0 - 1 and gaps such as 0 - a1 and
        # a1 - a2 have a negative leading coefficient
        points = [MultiPoly.var("a1"), MultiPoly.var("a2"), MultiPoly.zero(),
                  MultiPoly.const(1)]
        for nu in (1, 2, 3, 4):
            frame = ShiftedFrame(default_variables(4), nu)
            gaps = {h: points[nu - 1] - a for h, a in enumerate(points, 1)
                    if h != nu}
            for d in (1, 2, 3):
                got, = _rational_class_entries(gaps, [d], nu)
                for i in range(1, 5):
                    # the reference in the D_h, with D_h -> gaps[h]
                    want = reference_rational_class_entry(frame, i, d, 4, nu)
                    num, den = want.num, MultiPoly.const(1)
                    for h, name in frame.dvars.items():
                        num = num.substitute(name, gaps[h])
                        den = den * gaps[h] ** want.den[frame.dvar(h)]
                    assert got[i - 1].to_ratfunc() == RatFunc(num, den), (nu, d, i)
                    # keys are primitive gaps with positive leading
                    # coefficient; a constant gap is no key
                    for f in got[i - 1].den:
                        assert f.total_degree() == 1 and f.content() == 1


def _compositions(total, slots):
    """Tuples of `slots` nonnegative integers that sum to `total`."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def reference_rational_class_entry(frame, i, d, N, nu) -> FactoredFrac:
    """The printed residue sums at (a_nu, 0) term by term, summed over
    compositions of the binomial indices: a transcription independent of
    the product-of-rows builder."""
    others = [h for h in range(1, N + 1) if h != nu]
    names = [frame.dvars[h] for h in others]
    row = [int(b) for b in binomials(-d, d)]
    terms = {}
    if i == nu:
        den = {frame.dvar(h): 2 * d for h in others}
        for comp in _compositions(d, len(others)):
            terms[tuple(d - kh for kh in comp)] = prod(row[kh] for kh in comp)
        return FactoredFrac(MultiPoly(names, terms), den)
    den = {frame.dvar(h): (d - 1) + d for h in others}
    den[frame.dvar(i)] = den[frame.dvar(i)] + d
    at_i = others.index(i)
    for knu, *comp in _compositions(d - 1, len(others) + 1):
        c = (-1) ** knu * prod(row[kh] for kh in comp)
        exps = [(d - 1) - kh for kh in comp]
        exps[at_i] += d - 1 - knu
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + c
    return FactoredFrac(MultiPoly(names, terms), den)


class TestResiduals:
    def test_valid_solutions_are_exact(self):
        for sol in (build_polynomial_solution(2, 3, 3, 1),
                    build_polynomial_solution(3, 3, 3, 2),
                    build_rational_solution(2, 3, 1, -1, nu=1),
                    build_rational_solution(3, 4, 2, -1, nu=2)):
            assert residual_is_zero(sol)
            assert all(v.is_zero() for v in sum_constraint(sol).values())

    def test_diagonal_only_solution(self):
        grid = ExponentGrid.traceless(2, 3, 3, 1)
        entries = {(i, 1, 2): FactoredFrac.zero() for i in (1, 2, 3)}
        sol = TriangularSolution(grid, entries,
                                 frame=__import__("isolab.schlesinger",
                                                  fromlist=["IdentityFrame"])
                                 .IdentityFrame(("a1", "a2", "a3")))
        assert residual_is_zero(sol)
        assert all(v.is_zero() for v in sum_constraint(sol).values())

    def test_perturbation_detected(self):
        sol = build_polynomial_solution(2, 3, 3, 1)
        pert = sol.with_entry(1, 1, 2, sol.entry_ratfunc(1, 1, 2) + 1)
        res = schlesinger_residual(pert)
        assert any(not v.is_zero() for v in res.values())

    def test_sum_constraint_in_the_frame(self, monkeypatch):
        sol = build_rational_solution(3, 3, 1, -1, nu=2)
        pert = sol.with_entry(1, 1, 2, sol.entry(1, 1, 2) + 1)
        monkeypatch.setattr(sol.frame, "to_a",
                            lambda f: pytest.fail("sum converted to a_1..a_N"))
        assert all(isinstance(v, FactoredFrac) and v.is_zero()
                   for v in sum_constraint(sol).values())
        sums = sum_constraint(pert)
        assert [kl for kl, v in sums.items() if not v.is_zero()] == [(1, 2)]
        assert sums[(1, 2)] == 1

    def test_sum_constraint_worked_triple(self):
        vals = [(x + 1) * F(1, 3), (x - 2) * F(1, 3), (-2 * x + 1) * F(1, 3)]
        assert sum(vals[1:], vals[0]).is_zero()

    def test_entry_coincidence_and_vanishing_cross_terms(self):
        sol = build_polynomial_solution(4, 3, 3, 1)
        for i in (1, 2, 3):
            assert sol.entry(i, 1, 2) == sol.entry(i, 2, 3) == sol.entry(i, 3, 4)
            assert sol.entry(i, 1, 3) == sol.entry(i, 2, 4)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                if i == j:
                    continue
                for (k, l) in [(1, 3), (2, 4), (1, 4)]:
                    assert cross_terms(sol, i, j, k, l).is_zero()


class TestOracleAgreement:
    def test_polynomial_family(self):
        # oracle = -m1 (-1)^{N1 d} * entry for unit constants
        sol = build_polynomial_solution(2, 4, 2, 1)
        curve = SuperellipticCurve(2, ["a1", "a2", "a3", "a4"], 1)
        m1, N1, d = 1, 2, 1
        const = F(-m1) * (-1) ** (N1 * d)
        for i in (1, 2, 3, 4):
            val, phase = residue_series_oracle(curve, i, 1, 1)
            assert phase == (0, 1)
            assert RatFunc.from_poly(val) == sol.entry_ratfunc(i, 1, 2) * const

    def test_rational_family(self):
        # oracle carries the extra chart factor m
        m, n, nu = 2, -1, 1
        sol = build_rational_solution(3, 3, m, n, nu=nu)
        pts = [(0 if h + 1 == nu else
                -MultiPoly.var(sol.frame.dvars[h + 1])) for h in range(3)]
        curve = SuperellipticCurve(m, pts, n)
        for i in (1, 2, 3):
            val, _ = residue_series_oracle(curve, i, 2, nu)
            entry = sol.entry(i, 1, 3)
            assert (FactoredFrac._coerce(val) - entry * m).is_zero()


class TestSerialization:
    def test_json_round_trip(self):
        sol = build_rational_solution(2, 3, 1, -1, nu=1)
        doc = sol.to_json_dict()
        back = TriangularSolution.from_json_dict(doc)
        for key in sol.entries:
            assert back.entry_ratfunc(*key) == sol.entry_ratfunc(*key)
        assert residual_is_zero(back)
        assert doc["schema_version"] == 1

    @pytest.mark.parametrize("sol", [build_rational_solution(4, 3, 1, -1, nu=2),
                                     build_polynomial_solution(4, 4, 2, 1)])
    def test_each_entry_object_converted_once(self, sol, monkeypatch):
        # equal-class entries are one object, converted and printed once
        calls = []
        real = sol.frame.to_a
        monkeypatch.setattr(sol.frame, "to_a",
                            lambda f: calls.append(id(f)) or real(f))
        doc = sol.to_json_dict()
        objects = {id(v) for v in sol.entries.values()}
        assert sorted(calls) == sorted(objects)
        assert len(objects) < len(sol.entries) == len(doc["entries"])
        for (i, k, l), v in sol.entries.items():
            assert doc["entries"][f"{i},{k},{l}"] == real(v).to_text()


class TestFromJsonDict:
    """from_json_dict refuses a malformed key with the ValueError that
    verify --input gives for the same document."""

    @pytest.mark.parametrize("key, value, message", [
        ("p", "2", "has a malformed 'p'"),
        ("entries", ["x"], "has a malformed 'entries'"),
        ("N", None, "lacks key 'N'"),
        ("variables", "a1", "has a malformed 'variables'")])
    def test_malformed_key_is_a_value_error(self, key, value, message):
        # these once raised TypeError, AttributeError and KeyError, and "a1"
        # was read as the two variables a and 1
        from isolab import cli
        doc = build_rational_solution(2, 2, 1, -1).to_json_dict()
        if value is None:
            del doc[key]
        else:
            doc[key] = value
        with pytest.raises(ValueError) as got:
            TriangularSolution.from_json_dict(doc)
        with pytest.raises(ValueError) as want:
            cli._check_doc(doc)
        assert str(got.value) == str(want.value) == (
            f"triangular-schlesinger document {message}")


def reference_factored(frame, num, den):
    """IdentityFrame.factored by trial division: every gap divided while
    divexact succeeds."""
    rest = den
    gaps = {}
    N = len(frame.variables)
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            g = frame.gap(i, j).primitive()
            q = rest.divexact(g)
            while q is not None:
                gaps[g] = gaps.get(g, 0) + 1
                rest = q
                q = rest.divexact(g)
    out = FactoredFrac.quotient(num, rest)
    return FactoredFrac(out.num, {**out.den, **gaps})


def reference_to_a(frame, f):
    """ShiftedFrame.to_a as substitution then to_ratfunc's trial divisions."""
    subs = {name: (MultiPoly.var(frame.variables[frame.nu - 1])
                   - MultiPoly.var(frame.variables[h - 1]))
            for h, name in frame.dvars.items()}

    def in_a(poly):
        for name, val in subs.items():
            poly = poly.substitute(name, val)
        return poly

    out = FactoredFrac.from_poly(in_a(f.num))
    for fac, e in f.den.items():
        out = out * FactoredFrac.quotient(MultiPoly.const(1), in_a(fac), e)
    return out.to_ratfunc()


class TestDocumentPath:
    """Parsed documents carry their denominators as powers of the gaps."""

    INSTANCES = [((2, 3, 1, -1), 1), ((2, 3, 1, -1), 2), ((3, 3, 2, -1), 1),
                 ((3, 4, 2, -1), 1), ((4, 3, 2, -3), 1), ((2, 2, 1, -2), 1)]

    def test_dens_split_into_gaps(self):
        for g, nu in self.INSTANCES:
            sol = build_rational_solution(*g, nu=nu)
            back = TriangularSolution.from_json_dict(sol.to_json_dict())
            N = sol.N
            gaps = {back.frame.gap(i, j).primitive()
                    for i in range(1, N + 1) for j in range(i + 1, N + 1)}
            for key, entry in back.entries.items():
                assert set(entry.den) <= gaps, (g, key, entry)
                assert back.entry_ratfunc(*key) == sol.entry_ratfunc(*key)
            assert residual_is_zero(back), g

    def test_non_gap_factor_kept_exactly(self):
        texts = {"1,1,2": "(1)/(a1^3 - a1^2*a2 + a1 - a2)",  # (a1-a2)(a1^2+1)
                 "2,1,2": "(a3)/(a1^2 + 1)",
                 "3,1,2": "(1)/(a2 - a3)"}
        doc = {"p": 2, "N": 3, "variables": ["a1", "a2", "a3"],
               "exponents": [["1/2", "-1/2"]] * 3, "entries": texts}
        back = TriangularSolution.from_json_dict(doc)
        a1, a2 = MultiPoly.var("a1"), MultiPoly.var("a2")
        assert back.entry(1, 1, 2).den == {a1 - a2: 1, a1 ** 2 + 1: 1}
        for key, text in texts.items():
            i, k, l = (int(t) for t in key.split(","))
            assert back.entry_ratfunc(i, k, l) == parse_ratfunc(text)
        # the same verdicts as one expanded denominator per entry
        whole = TriangularSolution(
            back.grid, {key: FactoredFrac.from_ratfunc(back.entry_ratfunc(*key))
                        for key in back.entries}, back.frame)
        got = schlesinger_residual(back)
        want = schlesinger_residual(whole)
        assert got.keys() == want.keys()
        assert [k for k, v in got.items() if v.is_zero()] == \
            [k for k, v in want.items() if v.is_zero()]
        assert any(not v.is_zero() for v in got.values())

    def test_factored_value_is_exact(self):
        frame = IdentityFrame(("a1", "a2", "a3"))
        for text in ("(a1 + 3)/(2*a1^2 - 4*a1*a2 + 2*a2^2)", "a2^2 - 1",
                     "(1)/(3*a2 - 3*a3)", "(a3)/(a1^2*a3 - a2^2*a3 + 5)"):
            r = parse_ratfunc(text)
            f = frame.factored(r.num, r.den)
            assert f.to_ratfunc() == r
            assert all(fac.content() == 1 for fac in f.den)

    @pytest.mark.parametrize("variables", [("a1", "a2", "a3"),
                                           ("a3", "a1", "a2")])
    @pytest.mark.parametrize("fraction", [
        # a non-gap cofactor
        lambda a1, a2, a3: (a3 + 1, (a1 + a2) * (a1 - a2) ** 2 * (a2 - a3)),
        # a reversed gap
        lambda a1, a2, a3: (a1, (a2 - a1) ** 3),
        # a content of -3/2
        lambda a1, a2, a3: (a2 ** 2 - 1, (a1 - a3) ** 2 * (a2 - a3) * F(-3, 2)),
        # a gap that divides the numerator as well
        lambda a1, a2, a3: ((a1 - a2) * (a3 + 2), (a1 - a2) ** 2 * (a1 - a3)),
        lambda a1, a2, a3: (MultiPoly.const(5),
                            (a1 - a3) * (a1 ** 2 + a2 ** 2 + 1)),
    ])
    def test_factored_matches_trial_division(self, variables, fraction):
        frame = IdentityFrame(variables)
        num, den = fraction(*(MultiPoly.var(n) for n in ("a1", "a2", "a3")))
        got = frame.factored(num, den)
        want = reference_factored(frame, num, den)
        assert list(got.den.items()) == list(want.den.items())
        assert got.num == want.num
        assert got.to_ratfunc() == want.to_ratfunc()

    def test_shifted_to_a_matches_the_substituted_quotient(self):
        sol = build_rational_solution(3, 3, 1, -1, nu=2)
        frame = sol.frame
        d1, d3 = frame.dvar(1), frame.dvar(3)
        f = sol.entry(1, 1, 2)
        assert set(f.den) == {d1, d3}
        cases = [f,
                 FactoredFrac(f.num * d1 ** 2 * (d1 + d3), f.den),  # D_1 divides
                 f + FactoredFrac.from_poly(F(2, 3) * d3),          # perturbed
                 FactoredFrac(d1 ** 5, {d1: 2}),                    # all of D_1
                 f * FactoredFrac.quotient(d1 ** 2, d1 - d3),       # non-monomial
                 FactoredFrac.zero()]
        for g in cases:
            got, want = frame.to_a(g), reference_to_a(frame, g)
            assert got == want and got.to_text() == want.to_text(), g


# ---------------------------------------------------------------------------
# the identity-keyed residual against the per-key loop


def _reference_diff(frame, f, j):
    if isinstance(frame, ShiftedFrame):
        if j != frame.nu:
            return -f.partial(frame.dvars[j])
        out = FactoredFrac.zero()
        for h in frame.dvars.values():
            out = out + f.partial(h)
        return out
    return f.partial(frame.variables[j - 1])


def reference_schlesinger_residual(sol):
    """Every (i, j, k, l) row from scratch: the loop the identity-keyed
    residual must agree with, key by key."""
    frame, g = sol.frame, sol.grid
    N, p = sol.N, sol.p
    out = {}
    pairs = [(k, l) for k in range(1, p + 1) for l in range(k + 1, p + 1)]
    for i in range(1, N + 1):
        own = {kl: _reference_diff(frame, sol.entry(i, *kl), i) for kl in pairs}
        for j in range(1, N + 1):
            if j == i:
                continue
            inv_gap = FactoredFrac.quotient(MultiPoly.const(1), frame.gap(i, j), 1)
            for (k, l) in pairs:
                comm = (sol.entry(j, k, l) * (g.value(i, k) - g.value(i, l))
                        - sol.entry(i, k, l) * (g.value(j, k) - g.value(j, l)))
                for s in range(k + 1, l):
                    comm = comm + sol.entry(i, k, s) * sol.entry(j, s, l)
                    comm = comm - sol.entry(j, k, s) * sol.entry(i, s, l)
                comm = comm * inv_gap
                out[(i, j, k, l)] = _reference_diff(frame, sol.entry(i, k, l), j) - comm
                own[(k, l)] = own[(k, l)] + comm
        for (k, l) in pairs:
            out[(i, i, k, l)] = own[(k, l)]
    return out


def assert_same_residual(sol):
    got, want = schlesinger_residual(sol), reference_schlesinger_residual(sol)
    assert list(got) == list(want)
    for key, v in want.items():
        assert got[key].is_zero() == v.is_zero(), key
        if not v.is_zero():
            assert sol.frame.to_a(got[key]) == sol.frame.to_a(v), key
    return got


def _theorem3_grid():
    for p in (2, 3, 4):
        for N in (2, 3, 4, 5):
            for m in (2, 3, 4):
                for n in (1, 2):
                    s = gcd(m, N)
                    if gcd(n, m) == 1 and s > 1 and any(
                            (s * j) % m == 0 and j % m for j in range(1, p)):
                        yield p, N, m, n


def _theorem4_grid():
    for p in (2, 3, 4):
        for N in (2, 3, 4, 5):
            for m in (1, 2):
                for n in (-1, -2, -3):
                    if gcd(-n, m) == 1 and any(j % m == 0 for j in range(1, p)):
                        yield p, N, m, n


def _constants(rng, p):
    return [F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
            for _ in range(p - 1)]


def _perturbed(sol, i, k, l):
    """sol with entry (i, k, l) shifted by a monomial in the frame's own
    variables (a_i, or D_h for the shifted frame)."""
    frame = sol.frame
    if isinstance(frame, ShiftedFrame):
        name = sorted(frame.dvars.values())[(i + k) % (sol.N - 1)]
    else:
        name = frame.variables[(i + l) % sol.N]
    shift = MultiPoly.monomial(F(k - l - i, 2), {name: 1 + (k + l) % 2})
    return sol.with_entry(i, k, l, sol.entry(i, k, l) + FactoredFrac.from_poly(shift))


def _distinct_copy(sol):
    """The same values, with every entry a distinct object."""
    return TriangularSolution(
        sol.grid, {key: FactoredFrac(e.num, dict(e.den))
                   for key, e in sol.entries.items()}, sol.frame)


P4_FAMILIES = [build_polynomial_solution(4, 2, 2, 1, constants=[F(2), F(-1, 3), F(5)]),
               build_rational_solution(4, 3, 1, -1, constants=[F(1, 2), F(-3), F(2)],
                                       nu=2)]


class TestIdentityKeyedResidual:
    def test_grid_families_match_reference(self):
        rng = random.Random(12)
        for g in _theorem3_grid():
            assert_same_residual(build_polynomial_solution(
                *g, constants=_constants(rng, g[0])))
        for g in _theorem4_grid():
            assert_same_residual(build_rational_solution(
                *g, constants=_constants(rng, g[0]), nu=rng.randint(1, g[1])))

    @pytest.mark.parametrize("family", [0, 1])
    def test_every_single_entry_perturbation(self, family):
        sol = P4_FAMILIES[family]
        assert set(sol.entries) >= {(1, 2, 3), (1, 1, 3)}
        for (i, k, l) in sorted(sol.entries):
            res = assert_same_residual(_perturbed(sol, i, k, l))
            assert any(not v.is_zero() for v in res.values()), (i, k, l)

    @pytest.mark.parametrize("family", [0, 1])
    def test_distinct_equal_entries(self, family, monkeypatch):
        sol = _distinct_copy(P4_FAMILIES[family])
        assert all(v.is_zero() for v in assert_same_residual(sol).values())
        products = []
        mul = FactoredFrac.__mul__

        def counted(f, h):
            products.append((f, h))
            return mul(f, h)
        monkeypatch.setattr(FactoredFrac, "__mul__", counted)
        for i in range(1, sol.N + 1):
            for j in range(1, sol.N + 1):
                if i != j:
                    for (k, l) in [(1, 3), (2, 4), (1, 4)]:
                        assert cross_terms(sol, i, j, k, l).is_zero()
        assert products  # the zeros were multiplied out, not cancelled
        monkeypatch.undo()
        for i in range(1, sol.N + 1):
            pert = _perturbed(sol, i, 1, 2)
            j = 1 + i % sol.N
            assert not cross_terms(pert, i, j, 1, 3).is_zero()
            assert not cross_terms(pert, j, i, 1, 3).is_zero()

    def test_parsed_entries_share_objects(self):
        sol = build_rational_solution(4, 3, 1, -1, nu=1)
        back = TriangularSolution.from_json_dict(sol.to_json_dict())
        for i in range(1, 4):
            assert back.entry(i, 1, 2) is back.entry(i, 2, 3) is back.entry(i, 3, 4)
            assert back.entry(i, 1, 3) is back.entry(i, 2, 4)
        assert all(v.is_zero() for v in assert_same_residual(back).values())
        pert = TriangularSolution.from_json_dict(
            _perturbed(sol, 2, 2, 3).to_json_dict())
        assert any(not v.is_zero() for v in assert_same_residual(pert).values())

    def test_commutator_is_antisymmetric(self):
        sol = _perturbed(P4_FAMILIES[1], 1, 1, 2)
        for (k, l) in [(1, 2), (1, 3), (1, 4), (2, 4)]:
            assert (commutator_entry(sol, 1, 2, k, l)
                    + commutator_entry(sol, 2, 1, k, l)).is_zero()


# The benchmark's negative families: entry (i, 1, 2) of each is shifted by a
# seeded monomial in the frame's own variables.
NEG_FAMILIES = (("poly", (2, 2, 2, 1)), ("poly", (3, 3, 3, 1)),
                ("poly", (2, 4, 2, 1)), ("rational", (2, 3, 1, -1)),
                ("rational", (3, 3, 1, -1)), ("rational", (2, 4, 1, -2)))


def _seeded_negative(kind, g, rng):
    sol = (build_polynomial_solution(*g) if kind == "poly"
           else build_rational_solution(*g, nu=1))
    frame = sol.frame
    names = (sorted(frame.dvars.values()) if isinstance(frame, ShiftedFrame)
             else list(frame.variables))
    shift = MultiPoly.monomial(F(rng.randint(-8, 8) or 1, rng.randint(2, 5)),
                               {rng.choice(names): rng.choice((1, 2))})
    i = rng.randint(1, g[1])
    return sol.with_entry(i, 1, 2, sol.entry(i, 1, 2) + FactoredFrac.from_poly(shift))


def _parses_quickly(g):
    """Grid points whose documents parse in well under a second: parsing
    splits every den into gap powers, whose cost grows steeply with the
    class degree (N - 1) |n| / m."""
    p, N, m, n = g
    return (N - 1) * -n <= 4 * m


class TestResidualCoverage:
    """The residual that multiplies each row through by its gap, against
    the per-key loop, on every kind of solution the verifier meets."""

    def test_theorem4_grid_at_both_end_poles(self):
        rng = random.Random(29)
        for g in _theorem4_grid():
            for nu in (1, g[1]):
                assert all(v.is_zero() for v in assert_same_residual(
                    build_rational_solution(*g, constants=_constants(rng, g[0]),
                                            nu=nu)).values())

    def test_largest_rational_family(self):
        sol = build_rational_solution(4, 5, 1, -3, nu=1)
        assert all(v.is_zero() for v in assert_same_residual(sol).values())

    def test_parsed_grid_documents(self):
        rng = random.Random(30)
        sols = [build_polynomial_solution(*g, constants=_constants(rng, g[0]))
                for g in _theorem3_grid()]
        sols += [build_rational_solution(*g, constants=_constants(rng, g[0]))
                 for g in _theorem4_grid() if _parses_quickly(g)]
        assert len(sols) > 40
        for sol in sols:
            back = TriangularSolution.from_json_dict(sol.to_json_dict())
            assert isinstance(back.frame, IdentityFrame)
            assert all(v.is_zero() for v in assert_same_residual(back).values())

    @pytest.mark.parametrize("seed", [3, 7, 13])
    def test_seeded_negatives_in_memory_and_parsed(self, seed):
        rng = random.Random(seed)
        for kind, g in NEG_FAMILIES:
            sol = _seeded_negative(kind, g, rng)
            for s in (sol, TriangularSolution.from_json_dict(sol.to_json_dict())):
                res = assert_same_residual(s)
                assert any(not v.is_zero() for v in res.values()), (kind, g)
                assert not residual_is_zero(s)


class TestShiftedFrameDerivatives:
    @pytest.mark.parametrize("nu", [1, 4])
    def test_no_unread_derivative(self, nu, monkeypatch):
        # row (i, i) comes from the translation identity, so no row of pole
        # i reads db_i/da_i: d/dD_i alone for i != nu, and the sum over all
        # N - 1 names for i = nu
        sol = build_rational_solution(3, 4, 1, -2, nu=nu)
        pole = {id(f): i for (i, _, _), f in sol.entries.items()}
        calls = []
        partial = FactoredFrac.partial

        def recorded(f, *names):
            calls.append((pole.get(id(f)), names))
            return partial(f, *names)
        monkeypatch.setattr(FactoredFrac, "partial", recorded)
        schlesinger_residual(sol)
        monkeypatch.undo()
        assert calls and all(i is not None for i, _ in calls)
        for i, names in calls:
            if i == nu:
                assert len(names) < sol.N - 1, (i, names)
            else:
                assert names != (sol.frame.dvars[i],), (i, names)
        assert all(v.is_zero() for v in assert_same_residual(sol).values())
