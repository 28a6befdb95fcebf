import itertools
import math
import operator
import os
import pickle
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from isolab.algebra import (MultiPoly, RatFunc, FactoredFrac, binom, binomials,
                            grade, parse_poly, parse_ratfunc,
                            poly_gcd, prove_zero, truncated_product)
from isolab.algebra import multipoly as mp
from isolab.algebra.multipoly import ExponentOverflowError, _W, _box

x = MultiPoly.var("x")
y = MultiPoly.var("y")
z = MultiPoly.var("z")


class TestScalars:
    def test_binom_examples(self):
        assert binom(F(7, 3), 0) == 1
        assert binom(F(1, 2), 1) == F(1, 2)
        assert binom(F(1, 3), 2) == F(-1, 9)

    @given(st.integers(-9, 9), st.integers(1, 9), st.integers(0, 8))
    def test_binom_falling_factorial(self, num, den, j):
        beta = F(num, den)
        fall = F(1)
        for k in range(j):
            fall *= beta - k
        fact = 1
        for k in range(2, j + 1):
            fact *= k
        assert binom(beta, j) * fact == fall

    @given(st.integers(-30, 30), st.integers(1, 12), st.integers(0, 25))
    def test_binomials_row(self, num, den, jmax):
        # negative, non-integer and nonnegative-integer beta (where the row
        # ends in zeros); jmax = 0 gives the single entry 1
        beta = F(num, den)
        assert binomials(beta, jmax) == [binom(beta, k) for k in range(jmax + 1)]

    def test_binomials_edges(self):
        assert binomials(F(-7, 2), 0) == [1]
        assert binomials(3, -1) == []
        assert binomials(2, 4) == [1, 2, 1, 0, 0]


class TestMultiPoly:
    def test_partial(self):
        assert (x ** 2 * y).partial("x") == 2 * x * y
        assert (x ** 2 * y).partial("z").is_zero()

    def test_mul(self):
        assert (x + 1) * (x - 1) == x ** 2 - 1

    def test_substitute_ratfunc(self):
        t = MultiPoly.var("t")
        got = (x ** 2).substitute("x", RatFunc(MultiPoly.const(1), 1 - t))
        assert got == RatFunc(MultiPoly.const(1), (1 - t) ** 2)

    def test_divexact(self):
        assert (x ** 2 - 1).divexact(x - 1) == x + 1
        assert (x ** 2 + 1).divexact(x - 1) is None

    def test_divexact_integer_steps(self):
        # (x + 1)/(2x + 1) leaves the remainder 1/2: not exact over Q
        assert (x + 1).divexact(2 * x + 1) is None
        assert (2 * x + 2).divexact(x + 1) == MultiPoly.const(2)
        assert (F(2, 3) * x + F(2, 3)).divexact(3 * x + 3) == MultiPoly.const(F(2, 9))

    def test_divexact_seeded_product(self):
        import random
        rng = random.Random(20261018)
        names = (x, y, z)

        def rand_poly(nterms):
            out = MultiPoly.zero()
            for _ in range(nterms):
                mono = MultiPoly.const(F(rng.randint(-9, 9), rng.randint(1, 5)))
                for v in names:
                    mono = mono * v ** rng.randint(0, 3)
                out = out + mono
            return out

        for _ in range(5):
            f, g = rand_poly(6), rand_poly(4)
            if f.is_zero() or g.is_zero():
                continue
            assert (f * g).divexact(g) == f
            assert (f * g).divexact(f) == g
            q = (f * g + 1).divexact(g)
            assert q is None or g.is_constant()

    def test_unused_variable_pruned(self):
        p = MultiPoly(("x", "y"), {(1, 0): F(1)})
        assert p == x and p.vars == ("x",)

    def test_gcd(self):
        f = (x + 1) ** 3 * (x - y)
        g = (x + 1) * (x - y) ** 2
        assert poly_gcd(f, g) == (x + 1) * (x - y)
        assert poly_gcd(x + 1, x - 1) == MultiPoly.const(1)

    def test_kronecker_round_trip_at_the_digit_limits(self):
        # digits at +-(2^(bits-1) - 1) and small negative ones, in a box
        # larger than the polynomial, with an unused name in it
        bits = 12
        h = (1 << (bits - 1)) - 1
        names, degrees = ("x", "y", "z"), (5, 2, 1)
        p = MultiPoly(("x", "y"), {(0, 0): h, (3, 2): -h, (0, 1): -1,
                                   (5, 0): 7, (5, 2): h, (2, 1): -h})
        v = p.kronecker(names, degrees, bits)
        # x -> X, y -> X^6 (stride 5 + 1), z -> X^18
        X = 1 << bits
        assert v == p.evaluate({"x": X, "y": X ** 6})
        assert MultiPoly.from_kronecker(v, names, degrees, bits) == p
        assert MultiPoly.from_kronecker(-v, names, degrees, bits) == -p
        assert MultiPoly.from_kronecker(0, names, degrees, bits).is_zero()
        # the image of a product is the product of the images
        q = x * y - 2
        assert (p * q).kronecker(names, (7, 4, 1), 40) == (
            p.kronecker(names, (7, 4, 1), 40) * q.kronecker(names, (7, 4, 1), 40))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 40), st.data())
    def test_kronecker_round_trip_random(self, bits, data):
        h = (1 << (bits - 1)) - 1
        dx, dy = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 3))
        coeffs = data.draw(st.dictionaries(
            st.tuples(st.integers(0, dx), st.integers(0, dy)),
            st.sampled_from((h, -h, 1, -1, h // 2 + 1)), max_size=12))
        p = MultiPoly(("x", "y"), coeffs)
        v = p.kronecker(("x", "y"), (dx, dy), bits)
        assert MultiPoly.from_kronecker(v, ("x", "y"), (dx, dy), bits) == p

    def test_kronecker_rejects_what_it_cannot_encode(self):
        with pytest.raises(ValueError):
            (x ** 3).kronecker(("x",), (2,), 8)       # outside the box
        with pytest.raises(ValueError):
            (x * y).kronecker(("x",), (2,), 8)        # y has no place
        with pytest.raises(ValueError):
            (x / 2).kronecker(("x",), (2,), 8)        # not an integer poly
        with pytest.raises(ValueError):
            MultiPoly.from_kronecker(1 << 30, ("x",), (2,), 8)

    def test_box_grows_with_a_degree_raising_factor(self):
        # the box is the formula's own degree bound: one more factor
        # x^3 y in the formula widens it by exactly (3, 1)
        f, g = parse_poly("3*x^2*y - y + 5"), parse_poly("x - 2*y^3")
        names, base, bits = _box(lambda f, g, k: f * g - k, (f, g), (7,))
        # ||f g - 7|| <= 9 * 3 + 7
        assert (names, base, bits) == (("x", "y"), [3, 4], (34).bit_length() + 2)
        raised = _box(lambda f, g, m, k: (f * g - k) * m,
                      (f, g, x ** 3 * y), (7,))
        assert raised == (names, [6, 5], bits)
        # an input the formula does not use still fits the box
        assert _box(lambda f, g: f * f, (f, y ** 9), ())[1] == [4, 9]

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.tuples(*[st.integers(0, 10000)] * 3),
                           st.integers(-9, 9), min_size=1, max_size=6))
    def test_box_of_one_input_is_its_degrees(self, terms):
        p = MultiPoly(("x", "y", "z"), terms)
        names, degrees, bits = _box(lambda p: p, (p,), ())
        assert names == p.vars
        assert degrees == [p.degree_in(v) for v in names]
        assert bits == int(sum(abs(c) for _, c in p.terms())).bit_length() + 2

    def test_box_past_the_exponent_limit_is_refused(self):
        with pytest.raises(ExponentOverflowError):
            _box(lambda p: p * p, (x ** (1 << (_W - 2)) * y,), ())

    def test_prove_zero(self):
        f, g = parse_poly("3*x^2*y - y + 5"), parse_poly("x - 2*y^3")

        def identity(f, g, k):
            return (f + k * g) * (f - k * g) - (f * f - k * k * g * g)

        def square(f, g, k):
            return (f - k * g) * (f - k * g)
        assert prove_zero(identity, (f, g), (4,)) is MultiPoly.zero()
        assert prove_zero(square, (f, g), (4,)) == square(f, g, 4)
        assert prove_zero(square, (-f, g), (-10 ** 30,)) == square(-f, g, -10 ** 30)

    def test_evaluate(self):
        p = x ** 2 * y - 2
        assert p.evaluate({"x": F(3), "y": F(2)}) == 16
        assert abs(p.evaluate({"x": 1j, "y": 2.0}) - (-4 + 0j)) < 1e-14

    def test_evaluate_huge_content_at_tiny_point(self):
        # the content 10**400 overflows a float, the value 1e100 does not
        p = 10 ** 400 * x
        assert p.evaluate({"x": 1e-300}) == pytest.approx(1e100, rel=1e-15)
        z = p.evaluate({"x": 1e-300j})
        assert z.real == 0 and z.imag == pytest.approx(1e100, rel=1e-15)

    def test_evaluate_huge_coefficient_on_underflowing_monomial(self):
        # x**2 at 1e-200 is 0.0 as a float; the coefficient brings it back
        p = 10 ** 400 * x ** 2 + 1
        assert p.evaluate({"x": 1e-200}) == pytest.approx(2.0, rel=1e-15)
        assert p.evaluate({"x": 1e-200j}) == pytest.approx(0.0, abs=1e-15)
        q = 10 ** 300 * x ** 2 * y
        assert q.evaluate({"x": 1e-200, "y": 3.0}) == pytest.approx(
            3e-100, rel=1e-15)
        # a zero input still gives an exact zero term
        assert (x ** 2 * y + 1).evaluate({"x": 0.0, "y": 1e-300}) == 1.0

    def test_evaluate_huge_coefficient_at_tiny_point(self):
        # the primitive coefficient 10**400 overflows a float, 1e100 does not
        p = 10 ** 400 * x + 1
        assert p.evaluate({"x": 1e-300}) == pytest.approx(1e100, rel=1e-15)
        z = p.evaluate({"x": 1e-300j})
        assert z.real == 1 and z.imag == pytest.approx(1e100, rel=1e-15)
        # a tiny content over huge coefficients: the value is about 1
        q = (10 ** 400 + x) * F(1, 10 ** 400)
        assert q.evaluate({"x": 2.0}) == pytest.approx(1.0, rel=1e-15)
        assert p.evaluate({"x": F(1, 10 ** 300)}) == 10 ** 100 + 1

    def test_evaluate_tiny_content_at_huge_point(self):
        # the content 10**-400 flushes to 0.0 as a float, the value does not
        p = F(1, 10 ** 400) * x
        assert p.evaluate({"x": 1e300}) == pytest.approx(1e-100, rel=1e-15)
        z = p.evaluate({"x": -1e300 + 2e300j})
        assert z == pytest.approx(-1e-100 + 2e-100j, rel=1e-15)

    def test_evaluate_float_product_past_the_range(self):
        # 1e200 * 1e200 is inf in float and raises nothing; the value is not
        p = F(1, 10 ** 400) * x * y
        assert p.evaluate({"x": 1e200, "y": 1e200}) == 0.9999999999999999
        assert p.evaluate({"x": 1e200j, "y": 1e200}) == 0.9999999999999999j

    def test_evaluate_fallback_is_correctly_rounded(self, monkeypatch):
        # whenever the exact fallback runs, each component is the value at
        # the dyadic rationals the inputs are, rounded once, or the call
        # raises OverflowError where that value does not fit a float
        import random
        rng = random.Random(20261019)
        ran = []
        fallback = MultiPoly._evaluate_exact

        def spy(self, *args):
            ran.append(self)
            return fallback(self, *args)
        monkeypatch.setattr(MultiPoly, "_evaluate_exact", spy)

        def rand_float():
            e = rng.choice((rng.randint(-20, 20), rng.randint(-1070, -300),
                            rng.randint(300, 1020)))
            return rng.choice((-1, 1)) * math.ldexp(rng.uniform(0.5, 1), e)

        def exact(p, point):
            zs = [(F(point[n].real), F(point[n].imag)) for n in p.vars]
            re = im = F(0)
            for exps, c in p.terms():
                a, b = c, F(0)
                for (zr, zi), e in zip(zs, exps):
                    for _ in range(e):
                        a, b = a * zr - b * zi, a * zi + b * zr
                re, im = re + a, im + b
            return re, im

        def correctly_rounded(r, value):
            near = (math.nextafter(r, math.inf), math.nextafter(r, -math.inf))
            return math.isfinite(r) and all(
                abs(F(r) - value) <= abs(F(s) - value)
                for s in near if math.isfinite(s))

        too_big = F(2 ** 1024 - 2 ** 970)  # rounds to inf
        for _ in range(400):
            p = MultiPoly.zero()
            for _ in range(rng.randint(1, 4)):
                coeff = rng.choice((-9, 9)) * 10 ** rng.choice((0, 0, 100, 310, 400))
                p = p + MultiPoly.monomial(coeff, {"x": rng.randint(0, 3),
                                                   "y": rng.randint(0, 3)})
            p = p * F(10 ** rng.choice((0, 200, 400)), 10 ** rng.choice((0, 200, 400)))
            point = {n: rand_float() for n in ("x", "y")}
            if rng.random() < 0.3:
                point["x"] = complex(point["x"], rand_float())
            before = len(ran)
            try:
                got = p.evaluate(point)
            except OverflowError:
                got = None
            if len(ran) == before:
                continue
            re, im = exact(p, point)
            if abs(re) >= too_big or abs(im) >= too_big:
                assert got is None, (p, point)
            else:
                assert isinstance(got, complex) == any(
                    isinstance(point[n], complex) for n in p.vars)
                assert correctly_rounded(got.real, re), (p, point)
                assert correctly_rounded(got.imag, im), (p, point)
        assert len(ran) >= 100

    def test_evaluate_non_finite_inputs(self):
        # a non-finite input keeps the float path's inf or nan
        inf, nan = float("inf"), float("nan")
        assert math.isnan((x * y).evaluate({"x": nan, "y": 1.0}))
        assert (x + 1).evaluate({"x": inf}) == inf
        assert (x ** 2 - 3 * y).evaluate({"x": 2.0, "y": inf}) == -inf
        assert math.isnan((x * y).evaluate({"x": inf, "y": 0.0}))
        assert math.isnan((x - y).evaluate({"x": inf, "y": inf}))
        z = (x * y + 1).evaluate({"x": complex(nan, 1), "y": 2j})
        assert math.isnan(z.real) and math.isnan(z.imag)
        # where the float path raised it has no value to keep
        assert math.isnan((x ** 2 + y).evaluate({"x": 1e-200, "y": inf}))


@st.composite
def small_polys(draw, names=("x", "y")):
    nterms = draw(st.integers(0, 4))
    p = MultiPoly.zero()
    for _ in range(nterms):
        coeff = F(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
        exps = {n: draw(st.integers(0, 3)) for n in names}
        p = p + MultiPoly.monomial(coeff, exps)
    return p


def in_t(row):
    """The polynomial sum_k row[k] t^k."""
    t = MultiPoly.var("t")
    return sum((c * t ** k for k, c in enumerate(row)), MultiPoly.zero())


def t_coefficient(p, k):
    return p.as_univariate("t").get(k, MultiPoly.zero())


# rows of zero to five coefficients, zeros among them
t_rows = st.lists(st.one_of(st.just(MultiPoly.zero()), small_polys()),
                  max_size=5)


class TestTruncatedProduct:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(t_rows, max_size=3), st.integers(0, 5))
    def test_grades_of_the_expanded_product(self, rows, r):
        got = truncated_product(rows, r)
        assert len(got) == r + 1
        whole = MultiPoly.const(1)
        for row in rows:
            whole = whole * in_t(row)
        assert got == [t_coefficient(whole, k) for k in range(r + 1)]

    @settings(max_examples=60, deadline=None)
    @given(t_rows, t_rows, st.integers(0, 8))
    def test_grade_is_one_coefficient(self, acc, row, r):
        assert grade(acc, row, r) == t_coefficient(in_t(acc) * in_t(row), r)

    @settings(max_examples=60, deadline=None)
    @given(t_rows, t_rows, st.integers(0, 8))
    def test_grade_keeps_the_term_order_of_a_chain_of_additions(self, acc, row, r):
        # evaluate sums in dict order, so float results depend on this order
        chain = MultiPoly.zero()
        for i in range(r + 1):
            if i < len(acc) and r - i < len(row):
                chain = chain + acc[i] * row[r - i]
        got = grade(acc, row, r)
        assert list(got._terms.items()) == list(chain._terms.items())
        assert got._content == chain._content

    def test_empty_product_and_scalar_row(self):
        assert truncated_product([], 2) == [MultiPoly.const(1), MultiPoly.zero(),
                                            MultiPoly.zero()]
        assert truncated_product([[x, y]], 0) == [x]
        assert grade([x, y], [F(1, 2), 0, 3], 2) == 3 * x
        assert grade([], [x], 0) == MultiPoly.zero()
        # x cancels, then re-enters after y, as in the chain (x + y) - x + x
        got = grade([x + y, -x, x], [1, 1, 1], 2)
        assert list(got._terms) == list(((x + y) - x + x)._terms)
        assert list(got._terms) == list((y + x)._terms)


# ---------------------------------------------------------------------------
# the packed kernel against a plain tuple-keyed Fraction reference

NAMES = ("x", "y", "z", "a1", "_D2")
LIMIT = 2 ** (_W - 1) - 1  # the largest exponent a packed field may hold


@st.composite
def ref_polys(draw):
    """{exponent tuple over NAMES: nonzero Fraction} on a drawn subset of NAMES."""
    used = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3,
                         unique=True))
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        exps = tuple(draw(st.integers(0, 3)) if n in used else 0
                     for n in NAMES)
        c = F(draw(st.integers(-9, 9)), draw(st.integers(1, 4)))
        terms[exps] = terms.get(exps, 0) + c
    return {e: c for e, c in terms.items() if c}


def ref_add(f, g):
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def ref_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def from_ref(ref, order=NAMES):
    """The polynomial of a reference dict, built over the names in order."""
    pos = [NAMES.index(n) for n in order]
    return MultiPoly(order, {tuple(e[i] for i in pos): c for e, c in ref.items()})


def to_ref(p):
    out = {}
    for exps, c in p.terms():
        powers = dict(zip(p.vars, exps))
        out[tuple(powers.get(n, 0) for n in NAMES)] = c
    return out


def used_names(ref):
    return tuple(sorted(n for i, n in enumerate(NAMES)
                        if any(e[i] for e in ref)))


class TestPackedKernel:
    @settings(max_examples=80, deadline=None)
    @given(ref_polys(), ref_polys(), ref_polys())
    def test_ring_laws_match_reference(self, rf, rg, rh):
        f, g, h = from_ref(rf), from_ref(rg), from_ref(rh)
        assert to_ref(f + g) == ref_add(rf, rg)
        assert to_ref(f * g) == ref_mul(rf, rg)
        assert to_ref(f - f) == {}
        assert f + g == g + f and f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f * MultiPoly.const(1) == f and f + MultiPoly.zero() == f
        assert (f * g).vars == used_names(ref_mul(rf, rg))
        assert to_ref(f ** 2) == ref_mul(rf, rf)

    @settings(max_examples=60, deadline=None)
    @given(ref_polys(), ref_polys())
    def test_divexact_recovers_factor(self, rf, rg):
        f, g = from_ref(rf), from_ref(rg)
        if g.is_zero():
            return
        assert (f * g).divexact(g) == f
        q = (f * g + MultiPoly.var("x") ** 4).divexact(g)
        assert q is None or q * g == f * g + MultiPoly.var("x") ** 4

    def test_inexact_division_stays_inside_the_fields(self):
        # one of the two runs leads with the x (or y) term, and its
        # remainder powers of the other variable grow past the field limit
        for u, v in ((x, y), (y, x)):
            assert (u ** 5).divexact(u - v ** 10000) is None
            assert (u ** 5 * v).divexact(u * v - v ** 9000) is None
            f = (u ** 3 + 7) * (u - v ** 10000)
            assert f.divexact(u - v ** 10000) == u ** 3 + 7

    def test_pickle_across_slot_tables(self):
        # another process allocates the slots in another order
        p = 3 * x ** 2 * y - MultiPoly.var("a1") * F(1, 2)
        code = ("import pickle, sys; from isolab.algebra import MultiPoly; "
                "MultiPoly.var('zz'); MultiPoly.var('y'); "
                "print(pickle.loads(sys.stdin.buffer.read()).to_text())")
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run([sys.executable, "-c", code],
                              input=pickle.dumps(p), capture_output=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert done.stdout.decode().strip() == p.to_text(), done.stderr

    def test_threads_share_the_slot_table(self):
        names = [f"t{k}" for k in range(40)]
        errors = []

        def work(shift):
            try:
                for k in range(len(names)):
                    n = names[(k + shift) % len(names)]
                    p = (MultiPoly.var(n) + x) ** 2
                    assert p.to_text() == sorted_square(n), p.to_text()
            except AssertionError as exc:
                errors.append(exc)

        def sorted_square(n):
            a, b = sorted((n, "x"))
            return f"{a}^2 + 2*{a}*{b} + {b}^2"

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(7 * k,))
                       for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[0]

    @settings(max_examples=60, deadline=None)
    @given(ref_polys())
    def test_text_round_trip(self, rf):
        f = from_ref(rf)
        assert parse_poly(f.to_text()) == f

    @settings(max_examples=60, deadline=None)
    @given(ref_polys(), st.permutations(NAMES), st.randoms(use_true_random=False))
    def test_value_independent_of_construction_order(self, rf, order, rng):
        f = from_ref(rf)
        g = from_ref(rf, tuple(order))
        items = list(rf.items())
        rng.shuffle(items)
        h = MultiPoly.zero()
        for e, c in items:
            h = h + MultiPoly.monomial(c, {n: p for n, p in zip(NAMES, e) if p})
        assert f == g == h
        assert hash(f) == hash(g) == hash(h)
        assert f.vars == g.vars == h.vars == used_names(rf)
        if rf:
            lead = max(rf, key=lambda e: (sum(e), [e[NAMES.index(n)]
                                                   for n in sorted(NAMES)]))
            exps, c = f.leading()
            assert c == rf[lead]
            assert dict(zip(f.vars, exps)) == {
                n: p for n, p in zip(NAMES, lead) if n in f.vars}

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(st.integers(LIMIT - 3, LIMIT + 3),
                     st.integers(2 ** _W - 3, 2 ** _W + 3),
                     st.integers(0, 2 ** (_W + 1))),
           st.integers(0, 2 ** _W + 3), st.sampled_from(NAMES),
           st.sampled_from(NAMES))
    def test_exponent_limit_never_wraps(self, a, b, u, v):
        want = {u: a}
        want[v] = want.get(v, 0) + b
        want = {n: p for n, p in want.items() if p}
        try:
            p = MultiPoly.var(u) ** a * MultiPoly.var(v) ** b
        except ExponentOverflowError:
            assert a + b > LIMIT
        else:
            assert a + b <= LIMIT
            exps, c = p.leading()
            assert c == 1 and len(list(p.terms())) == 1
            assert p.vars == tuple(sorted(want))
            assert dict(zip(p.vars, exps)) == want
            assert p.divexact(MultiPoly.var(v) ** b) == MultiPoly.var(u) ** a
        # a sum with a second term: the product is exact or raises
        try:
            q = (MultiPoly.var(u) ** a + 1) * (MultiPoly.var(v) ** b - 1)
        except ExponentOverflowError:
            assert a + b > LIMIT
        else:
            one = (0,) * len(NAMES)
            ra = ref_add({tuple(a if n == u else 0 for n in NAMES): F(1)},
                         {one: F(1)})
            rb = ref_add({tuple(b if n == v else 0 for n in NAMES): F(1)},
                         {one: F(-1)})
            assert to_ref(q) == ref_mul(ra, rb)
        try:
            r = MultiPoly((u,), {(a,): 3})
        except ExponentOverflowError:
            assert a > LIMIT
        else:
            assert r.degree_in(u) == a and r.total_degree() == a


BIVARIATE_SUM = (
    '(-1/12*x^5*y^9 + 1/24*x^7*y^6 + 1/32*x^5*y^8 + 1/8*x^7*y^5 + '
    '1/24*x^6*y^6 + 1/16*x^5*y^7 - 7/4*x^4*y^8 - 1/16*x^9*y^2 - '
    '1/48*x^8*y^3 - 5/64*x^7*y^4 + 55/64*x^6*y^5 - 3/128*x^5*y^6 + '
    '59/96*x^4*y^7 - 1/48*x^7*y^3 + 1/8*x^5*y^5 + 41/96*x^4*y^6 + '
    '1/2*x^3*y^7 + 1/8*x*y^9 + 1/96*x^9 - 7/128*x^7*y^2 - 15/64*x^6*y^3 '
    '- 53/192*x^5*y^4 - 33/256*x^4*y^5 - 1/24*x^3*y^6 - 3/64*x*y^8 + '
    '1/24*x^8 + 1/32*x^6*y^2 - 13/24*x^5*y^3 - 1/4*x^4*y^4 - '
    '25/32*x^3*y^5 + 11/96*x^6*y + 3/16*x^5*y^2 + 5/32*x^4*y^3 + '
    '17/48*x^3*y^4 + 1/2*x^2*y^5 + 1/16*y^7 - 1/24*x^5*y - 1/8*x^4*y^2 + '
    '43/96*x^2*y^4 - 1/8*x^3*y^2 - 3/16*x^2*y^3 - 1/2*x*y^4 + 1/4*x^3*y '
    '+ 5/16*x*y^3 - 1/4*y^2)/(x^7*y^7 - 1/2*x^8*y^4 - 11/12*x^7*y^5 - '
    '3/8*x^5*y^7 - 1/12*x^4*y^8 - 13/6*x^6*y^5 + 1/12*x^8*y^2 + '
    '1/8*x^7*y^3 + 3/16*x^6*y^4 + 37/96*x^5*y^5 + 1/16*x^4*y^6 + '
    '1/32*x^2*y^8 + 13/12*x^7*y^2 + 15/8*x^6*y^3 - x^5*y^4 + 1/4*x^4*y^5 '
    '+ 1/8*x^3*y^6 - 1/32*x^6*y^2 + 61/64*x^5*y^3 - 1/64*x^3*y^5 - '
    '3/128*x^2*y^6 - 1/8*x^7 - 3/16*x^6*y + 1/24*x^5*y^2 - 1/4*x^4*y^3 + '
    '9/32*x^3*y^4 + 1/12*x^2*y^5 - 1/2*x^6 - 3/4*x^5*y + 13/6*x^4*y^2 - '
    '1/16*x^3*y^2 - 1/32*y^5 - 1/4*x^4 - 1/4*x^2*y^2 - 1/8*x*y^3 - x^3)'
)


@st.composite
def small_ratfuncs(draw):
    num = draw(small_polys())
    den = draw(small_polys())
    if den.is_zero():
        den = MultiPoly.const(1)
    return RatFunc(num, den)


@st.composite
def ratfunc_operands(draw):
    """An int, Fraction, MultiPoly or RatFunc operand."""
    kind = draw(st.sampled_from(("int", "fraction", "poly", "ratfunc")))
    if kind == "int":
        return draw(st.integers(-4, 4))
    if kind == "fraction":
        return F(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
    if kind == "poly":
        return draw(small_polys())
    return draw(small_ratfuncs())


def fraction_parts(v):
    """(numerator, denominator) polynomials of an operand."""
    if isinstance(v, RatFunc):
        return v.num, v.den
    if isinstance(v, MultiPoly):
        return v, MultiPoly.const(1)
    return MultiPoly.const(v), MultiPoly.const(1)


class TestRatFunc:
    def test_normalize_examples(self):
        assert RatFunc(x ** 2 - 1, x - 1) == RatFunc.from_poly(x + 1)
        assert RatFunc(MultiPoly.zero(), x).is_zero()
        r = RatFunc(2 * x, MultiPoly.const(4))
        assert r.den == MultiPoly.const(1) and r.num == x * F(1, 2)

    def test_den_monic(self):
        r = RatFunc(x + 1, 3 * x - 6)
        _, lc = r.den.leading()
        assert lc == 1

    @settings(max_examples=60, deadline=None)
    @given(small_ratfuncs(), small_ratfuncs(), small_ratfuncs())
    def test_field_axioms(self, f, g, h):
        assert (f + g) * h == f * h + g * h
        if not f.is_zero():
            assert f * (RatFunc.one() / f) == RatFunc.one()

    @settings(max_examples=60, deadline=None)
    @given(small_polys(), small_polys())
    def test_partial_product_rule(self, p, q):
        lhs = (p * q).partial("x")
        rhs = p.partial("x") * q + p * q.partial("x")
        assert lhs == rhs

    @settings(max_examples=40, deadline=None)
    @given(small_polys(), small_polys(), st.integers(1, 7), st.integers(1, 5))
    def test_normalize_scaling_stable(self, num, den, a_num, a_den):
        if den.is_zero():
            den = MultiPoly.const(1)
        a = F(a_num, a_den)
        assert RatFunc(num * a, den * a) == RatFunc(num, den)

    def test_normalize_idempotent(self):
        r = RatFunc((x + 1) * (x - 2), (x - 2) * (x + 3))
        again = RatFunc(r.num, r.den)
        assert again == r

    def test_bivariate_sum_stays_small(self):
        # took about 47 s with a primitive-PRS gcd; result recorded from it
        f = parse_ratfunc("(-1/12*x^2*y^3 - 1/4*x*y^2 + 1/2*y)/"
                          "(x^3*y^2 - 1/6*x^3 - 1/12*y^3 - 2/3*x^2)")
        g = parse_ratfunc("(1/8*x^3 - 3/2*y^3)/(x^2*y^3 - 1/2*x^3 - 3/4*x^2*y - 1)")
        h = parse_ratfunc("(x*y^3 - 1/2*x^3 - 3/8*x*y^2 + 1/2*y)/"
                          "(x^2*y^2 - 3/8*y^2 - 3/2*x)")
        t0 = time.perf_counter()
        got = f * h + g * h
        assert time.perf_counter() - t0 < 1.0
        assert got.to_text() == BIVARIATE_SUM

    @settings(max_examples=80, deadline=None)
    @given(small_ratfuncs(), ratfunc_operands(), st.integers(-3, 3))
    def test_operators_match_textbook_formulas(self, f, g, n):
        # the reference is the gcd-per-operation arithmetic RatFunc had
        # before it computed in FactoredFrac: one constructor call per result
        a, b = f.num, f.den
        c, d = fraction_parts(g)
        want = [(f + g, a * d + c * b, b * d), (g + f, c * b + a * d, d * b),
                (f - g, a * d - c * b, b * d), (g - f, c * b - a * d, d * b),
                (f * g, a * c, b * d), (g * f, c * a, d * b),
                (f.partial("x"), a.partial("x") * b - a * b.partial("x"), b * b)]
        if not c.is_zero():
            want.append((f / g, a * d, b * c))
        if not a.is_zero():
            want.append((g / f, c * b, d * a))
        if n >= 0:
            want.append((f ** n, a ** n, b ** n))
        elif not a.is_zero():
            want.append((f ** n, b ** -n, a ** -n))
        for got, num, den in want:
            assert isinstance(got, RatFunc)
            assert got.to_text() == RatFunc(num, den).to_text()

    @pytest.mark.parametrize("value", [RatFunc.var("x"), FactoredFrac.var("x")])
    @pytest.mark.parametrize("other", [1.5, 2j])
    def test_float_and_complex_operands_raise_type_error(self, value, other):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            for lhs, rhs in ((other, value), (value, other)):
                with pytest.raises(TypeError, match=type(other).__name__):
                    op(lhs, rhs)


# pairwise-coprime irreducibles over Q in x, y, z
GCD_POOL = (x, y + 2, x - y, x * z + 1, x ** 2 + y * z - 3,
            2 * x + 3 * y * z ** 2 + 5, z ** 2 - 2, x ** 2 + x + 2)


class TestGcdProperties:
    @settings(max_examples=40, deadline=None)
    @given(small_polys(), small_polys(), small_polys())
    def test_common_factor_recovered(self, f, g, h):
        if h.is_zero() or h.is_constant():
            h = MultiPoly.var("x") + 1
        d = poly_gcd(f * h, g * h)
        if f.is_zero() and g.is_zero():
            return
        # gcd(fh, gh) is divisible by h
        assert d.divexact(h.primitive()) is not None

    @settings(max_examples=40, deadline=None)
    @given(small_polys(), small_polys())
    def test_gcd_divides_both(self, f, g):
        d = poly_gcd(f, g)
        if not f.is_zero():
            assert f.divexact(d) is not None
        if not g.is_zero():
            assert g.divexact(d) is not None

    def test_xi_cases(self):
        one = MultiPoly.const(1)
        assert poly_gcd(x, x + 2) == one
        # x^2 + x is even at every integer: both images share a factor 2
        assert poly_gcd(x ** 2 + x, x ** 2 + x + 2) == one
        assert poly_gcd(MultiPoly.zero(), -2 * x - 4) == x + 2
        assert poly_gcd(-2 * x - 4, MultiPoly.zero()) == x + 2
        assert poly_gcd(MultiPoly.const(6), 4 * x + 2) == one
        assert poly_gcd(MultiPoly.const(F(-1, 2)), MultiPoly.const(3)) == one
        assert poly_gcd(2 * x + 2, 4 * y + 4) == one
        assert poly_gcd(x * y + x, x ** 2 + x) == x
        assert poly_gcd((x + 1) * (y + 2), -3 * (x + 1) * (z - 3)) == x + 1
        # the first xi is 4, a root of the input with the larger norm
        assert poly_gcd(x ** 2 - 4 * x, x) == x
        assert poly_gcd(x - 4, x + 1) == one
        # below the 2 min(|f|, |g|) + 2 start these would accept a proper divisor
        assert poly_gcd(-4 * x + 20, 4 * x - 20) == x - 5
        assert poly_gcd(273 * x - 546, 208 * x ** 2 - 156 * x - 520) == x - 2
        assert poly_gcd(x ** 3 - 3 * x ** 2 + x,
                        -2 * x ** 3 + 6 * x ** 2 - 2 * x) == x ** 3 - 3 * x ** 2 + x

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 2), min_size=len(GCD_POOL), max_size=len(GCD_POOL)),
           st.lists(st.integers(0, 2), min_size=len(GCD_POOL), max_size=len(GCD_POOL)),
           st.integers(-12, 12).filter(bool), st.integers(-12, 12).filter(bool))
    def test_greatest_common_divisor(self, ef, eg, cf, cg):
        # f and g are products of pairwise-coprime irreducibles, so the gcd
        # is the product at the smaller multiplicities
        f, g, want = (MultiPoly.const(cf), MultiPoly.const(cg),
                      MultiPoly.const(1))
        for p, a, b in zip(GCD_POOL, ef, eg):
            f = f * p ** a
            g = g * p ** b
            want = want * p ** min(a, b)
        assert poly_gcd(f, g) == want.primitive()


class TestTextRoundTrip:
    def test_examples(self):
        p = 3 * x ** 2 * y - 2 * x + MultiPoly.const(F(1, 2))
        assert parse_poly(p.to_text()) == p
        assert parse_poly("0").is_zero()
        r = RatFunc(x ** 2 + 2 * x + 1, 2 * x + 2)
        assert parse_ratfunc(r.to_text()) == r

    @pytest.mark.parametrize("text, value", [
        ("+ -3*x", -3 * x),
        ("x - - y", x + y),
        ("x - + y", x - y),
        ("x^2*3", 3 * x ** 2),
        ("x*x", x ** 2),
        ("2*3*x*1/4", F(3, 2) * x),
        ("  -1/2  ", MultiPoly.const(F(-1, 2))),
    ])
    def test_non_canonical_forms(self, text, value):
        p = parse_poly(text)
        assert p == value and p.to_text() == value.to_text()

    @pytest.mark.parametrize("text", [
        "2 3*x", "x y", "2x", "1e5*x", "x +", "-", "x^", "x^-1", "(x)*y",
        "2*-x", "x*", "*x", "1/0*x", "1.5*x", "\u0663*x", "x\u00b2", "x % y",
        "", "  \t"])
    def test_malformed_text_rejected(self, text):
        with pytest.raises(ValueError):
            parse_poly(text)

    @settings(max_examples=80, deadline=None)
    @given(small_polys())
    def test_poly_round_trip(self, p):
        assert parse_poly(p.to_text()) == p

    @settings(max_examples=60, deadline=None)
    @given(small_ratfuncs())
    def test_ratfunc_round_trip(self, r):
        assert parse_ratfunc(r.to_text()) == r


class TestFactoredFrac:
    def test_telescoping_sum(self):
        f1 = FactoredFrac.quotient(x + 1, x, 2)
        f2 = FactoredFrac.quotient(MultiPoly.const(-1), x, 1)
        f3 = FactoredFrac.quotient(MultiPoly.const(-1), x, 2)
        assert (f1 + f2 + f3).is_zero()

    def test_partial_matches_ratfunc(self):
        f = FactoredFrac.quotient(2 * x * (x - 1), x ** 2 + 5, 1)
        assert f.partial("x").to_ratfunc() == RatFunc(2 * x * (x - 1),
                                                      x ** 2 + 5).partial("x")

    @settings(max_examples=40, deadline=None)
    @given(small_polys(), st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                                             st.integers(-2, 2), st.integers(1, 3)),
                                   max_size=3),
           st.integers(0, 2))
    def test_linear_factors_reduce_without_gcd(self, num, facs, shared):
        # the gcd-free reduction must give the canonical form RatFunc gives
        den = {}
        for a, b, c, e in facs:
            if a or b:
                fac = a * x + b * y + c
                num = num * fac ** min(shared, e)
                den[fac] = den.get(fac, 0) + e
        f = FactoredFrac(num, den)
        assert f.to_ratfunc() == RatFunc(f.num, f.den_expanded())

    @settings(max_examples=60, deadline=None)
    @given(small_polys(), st.lists(st.tuples(small_polys(), st.integers(1, 2)),
                                   max_size=2),
           st.integers(-3, 4))
    def test_power_matches_repeated_multiplication(self, num, facs, n):
        f = FactoredFrac.from_poly(num)
        for den, e in facs:
            if not den.is_constant():
                f = f * FactoredFrac.quotient(MultiPoly.const(1), den, e)
        if n < 0 and f.is_zero():
            with pytest.raises(ZeroDivisionError):
                f ** n
            return
        base = f.reciprocal() if n < 0 else f
        want = FactoredFrac.const(1)
        for _ in range(abs(n)):
            want = want * base
        got = f ** n
        assert got == want
        assert got.to_ratfunc().to_text() == want.to_ratfunc().to_text()

    @settings(max_examples=60, deadline=None)
    @given(small_polys(), small_polys(),
           st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                              st.integers(-2, 2), st.integers(0, 3),
                              st.integers(0, 3)), max_size=3))
    def test_division_cancels_shared_denominator_factors(self, nf, ng, facs):
        if ng.is_zero():
            ng = MultiPoly.const(1)
        den_f, den_g = {}, {}
        for a, b, c, ef, eg in facs:
            if a or b:
                fac = (a * x + b * y + c).primitive()
                for den, e in ((den_f, ef), (den_g, eg)):
                    if e:
                        den[fac] = den.get(fac, 0) + e
        f = FactoredFrac(nf, den_f)
        g = FactoredFrac(ng, den_g)
        got = f / g
        assert got == f * g.reciprocal()
        if f.is_zero():
            return
        # a factor of both denominators stays at its excess in f alone, and
        # is multiplied into the numerator only for its excess in g
        num = nf * (1 / ng.content())
        for fac in set(den_f) | set(den_g):
            ef, eg = den_f.get(fac, 0), den_g.get(fac, 0)
            assert got.den.get(fac, 0) == max(ef - eg, 0) + (
                1 if fac == ng.primitive() else 0)
            num = num * fac ** max(eg - ef, 0)
        assert got.num == num

    def test_reciprocal_and_cancel(self):
        f = FactoredFrac.quotient(x ** 2 - 1, x - 1, 1)
        g = f.cancel()
        assert not g.den and g.num == x + 1
        assert (f * f.reciprocal() - 1).is_zero()

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            FactoredFrac.quotient(x, MultiPoly.zero(), 1)


# ---------------------------------------------------------------------------
# FactoredFrac's monomial paths against the expanded-product forms


def _reference_deficit(target: dict, have: dict) -> MultiPoly:
    out = MultiPoly.const(1)
    for f, e in target.items():
        d = e - have.get(f, 0)
        if d:
            out = out * f ** d
    return out


def reference_add(a: FactoredFrac, b: FactoredFrac) -> FactoredFrac:
    """Every deficit expanded into one product, then multiplied in."""
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    keys = set(a.den) | set(b.den)
    den = {f: max(a.den.get(f, 0), b.den.get(f, 0)) for f in keys}
    return FactoredFrac(a.num * _reference_deficit(den, a.den)
                        + b.num * _reference_deficit(den, b.den), den)


def reference_partial(f: FactoredFrac, name: str) -> FactoredFrac:
    """The quotient rule with every live factor, monomial or not."""
    live = [(g, e) for g, e in f.den.items() if name in g.vars]
    dn = f.num.partial(name)
    if not live:
        return FactoredFrac(dn, dict(f.den))
    prod_all = MultiPoly.const(1)
    for g, _ in live:
        prod_all = prod_all * g
    acc = dn * prod_all
    for k, (g, e) in enumerate(live):
        part = f.num * (e * g.partial(name))
        for j, (h, _) in enumerate(live):
            if j != k:
                part = part * h
        acc = acc - part
    den = dict(f.den)
    for g, e in live:
        den[g] = e + 1
    return FactoredFrac(acc, den)


def reference_scalar_mul(f: FactoredFrac, q) -> FactoredFrac:
    """Through a constant FactoredFrac."""
    other = FactoredFrac.const(q)
    if f.is_zero() or other.is_zero():
        return FactoredFrac.zero()
    return FactoredFrac(f.num * other.num, dict(f.den))


_MIXED_FACTORS = [x, y, x * y, (x - y).primitive(), x + 1]


@st.composite
def mixed_fracs(draw):
    """A fraction whose den mixes the monomials x, y, x y with x - y and
    x + 1."""
    den = {}
    for _ in range(draw(st.integers(0, 4))):
        f = _MIXED_FACTORS[draw(st.integers(0, len(_MIXED_FACTORS) - 1))]
        den[f] = den.get(f, 0) + draw(st.integers(1, 3))
    return FactoredFrac(draw(small_polys()), den)


def _unshifted(p: MultiPoly):
    """p's content and its {key - min key: coefficient} map: a shift by a
    monomial leaves this unchanged, and the term order does not enter it."""
    low = min(p._terms, default=0)
    return p.content(), {k - low: v for k, v in p._terms.items()}


class TestFactoredFracAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(mixed_fracs(), mixed_fracs())
    def test_sum_and_difference_term_for_term(self, a, b):
        for got, want in ((a + b, reference_add(a, b)),
                          (a - b, reference_add(a, -b))):
            assert list(got.num._terms.items()) == list(want.num._terms.items())
            assert got.num == want.num
            assert got.den == want.den

    @settings(max_examples=300, deadline=None)
    @given(mixed_fracs(), st.sampled_from(["x", "y"]))
    def test_partial_value_and_term_order(self, f, name):
        got, want = f.partial(name), reference_partial(f, name)
        assert got.to_ratfunc() == want.to_ratfunc()
        if not want.is_zero():
            # the reference keeps each live factor at its power + 1; a
            # monomial path puts the extra x over its own numerator instead,
            # which shifts every key by one monomial; a derivative promises
            # no term order
            assert _unshifted(got.num) == _unshifted(want.num)

    @settings(max_examples=200, deadline=None)
    @given(mixed_fracs())
    def test_sum_of_partials(self, f):
        want = reference_add(reference_partial(f, "x"), reference_partial(f, "y"))
        assert f.partial("x", "y").to_ratfunc() == want.to_ratfunc()
        assert f.partial("y", "x").to_ratfunc() == want.to_ratfunc()

    @settings(max_examples=100, deadline=None)
    @given(mixed_fracs(), st.sampled_from([0, 1, -1, 3, F(0), F(-2, 3), F(5, 7)]))
    def test_scalar_product(self, f, q):
        for got in (f * q, q * f):
            want = reference_scalar_mul(f, q)
            assert got.num == want.num and got.den == want.den

    def test_monomial_shift_past_the_exponent_limit(self):
        a = FactoredFrac(y ** 15000, {x: 1})
        b = FactoredFrac(MultiPoly.const(1), {y: 20000})
        with pytest.raises(ExponentOverflowError):
            reference_add(a, b)
        with pytest.raises(ExponentOverflowError):
            a + b


# ---------------------------------------------------------------------------
# heap division against the max() loop it replaced

def reference_quotient(t1: dict, t2: dict):
    """The division loop before the heap: one max() over the remainder per
    quotient term."""
    rem = dict(t1)
    lt2 = max(t2)
    lc2 = t2[lt2]
    guard = mp._GUARD
    quot = {}
    while rem:
        lt1 = max(rem)
        if ((lt1 | guard) - lt2) & guard != guard:
            return None
        qc, r = divmod(rem[lt1], lc2)
        if r:
            return None
        qe = lt1 - lt2
        quot[qe] = qc
        get = rem.get
        for e2, v2 in t2.items():
            e = qe + e2
            if e & guard:
                return None
            w = get(e, 0) - qc * v2
            if w:
                rem[e] = w
            else:
                del rem[e]
    return quot


for _name in NAMES:
    MultiPoly.var(_name)
# allocated after every name of NAMES, so its field is above all of theirs
WIDE = MultiPoly.var("_wide_top")
# the packed monomials of degree at most 4 in each of x, y and a1
PACKED_BOX = [sum(p << mp._SLOTS[n] for n, p in zip(("x", "y", "a1"), exps))
              for exps in itertools.product(range(5), repeat=3)]


@st.composite
def packed_terms(draw, max_terms=20):
    """The primitive integer terms of a nonzero polynomial over up to three
    names of NAMES, exponents up to 6."""
    used = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3,
                         unique=True))
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        exps = tuple(draw(st.integers(0, 6)) if n in used else 0
                     for n in NAMES)
        terms[exps] = draw(st.integers(-9, 9).filter(bool))
    p = MultiPoly(NAMES, terms)
    return p._terms if p else {0: 1}


def quotient_agrees(t1, t2):
    got, want = mp._quotient(t1, t2), reference_quotient(t1, t2)
    assert got == want
    if got is not None:
        assert list(got.items()) == list(want.items())
    return got


class TestHeapDivision:
    @settings(max_examples=80, deadline=None)
    @given(packed_terms(), packed_terms())
    def test_exact_products(self, q, g):
        t1 = (mp._new(q, F(1), 0) * mp._new(g, F(1), 0))._terms
        assert quotient_agrees(t1, g) == q

    def test_products_of_a_few_hundred_terms(self):
        rng = random.Random(7)
        for _ in range(5):
            q = {e: rng.choice((-3, -1, 1, 2, 5))
                 for e in rng.sample(PACKED_BOX, 20)}
            g = {e: rng.choice((-2, 1, 4)) for e in rng.sample(PACKED_BOX, 20)}
            t1 = (mp._new(q, F(1), 0) * mp._new(g, F(1), 0))._terms
            assert len(t1) > 200
            assert quotient_agrees(t1, g) == q

    @settings(max_examples=60, deadline=None)
    @given(packed_terms(), packed_terms())
    def test_leading_coefficient_that_does_not_divide(self, q, g):
        t1 = dict((mp._new(q, F(1), 0) * mp._new(g, F(1), 0))._terms)
        t2 = {e: 2 * v for e, v in g.items()}
        t1[max(t1)] = 6 * t2[max(t2)] + 1
        assert quotient_agrees(t1, t2) is None

    @settings(max_examples=60, deadline=None)
    @given(packed_terms(), packed_terms())
    def test_remainder(self, q, g):
        if len(g) == 1 and 0 in g:
            g = {1 << mp._SLOTS["x"]: 1, 0: 1}
        t1 = (mp._new(q, F(1), 0) * mp._new(g, F(1), 0) + 1)._terms
        assert quotient_agrees(t1, g) is None

    @settings(max_examples=60, deadline=None)
    @given(packed_terms(), packed_terms())
    def test_monomial_that_borrows_across_a_field(self, q, g):
        if len(g) == 1 and 0 in g:
            g = {1 << mp._SLOTS["y"]: 1, 0: 1}
        # WIDE^3 leads and lacks a variable of g's leading monomial
        t1 = (mp._new(q, F(1), 0) * mp._new(g, F(1), 0) + WIDE ** 3)._terms
        assert max(t1) == 3 << mp._SLOTS["_wide_top"]
        assert quotient_agrees(t1, g) is None

    @settings(max_examples=60, deadline=None)
    @given(packed_terms(max_terms=8), st.integers(0, 4),
           st.sampled_from([("x", "y"), ("y", "x"), ("a1", "_D2"), ("z", "x")]))
    def test_gap_power_against_trial_division(self, f, k, names):
        u, w = (MultiPoly.var(n) for n in names)
        p = mp._new(f, F(-3, 2), 0) * (u - w) ** k
        want, rest = 0, p
        while (q := rest.divexact(u - w)) is not None:
            want, rest = want + 1, q
        got, quo = p.gap_power(*names)
        assert got == want >= k
        assert quo == rest and (u - w) ** got * quo == p


# ---------------------------------------------------------------------------
# text on packed keys against the tuple-keyed text and parse they replaced

def reference_to_text(p: MultiPoly) -> str:
    """to_text before packed keys: graded lex through terms() Fractions."""
    if p.is_zero():
        return "0"
    pieces = []
    for e, c in p.terms():
        mono = "*".join(
            v if q == 1 else f"{v}^{q}"
            for v, q in zip(p.vars, e) if q)
        mag = abs(c)
        if mono:
            body = mono if mag == 1 else f"{mag}*{mono}"
        else:
            body = str(mag)
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(("+ " if c > 0 else "- ") + body)
    return " ".join(pieces)


def reference_parse_poly(text: str) -> MultiPoly:
    """parse_poly before packed keys: one tuple-keyed construction."""
    parts = mp._SIGNS.split(text)
    if parts[0].strip():
        parts.insert(0, "")
    else:
        del parts[0]
    if not parts:
        raise ValueError("polynomial text has no term; write 0 for zero")
    monomials = []
    den = 1
    for signs, term in zip(parts[::2], parts[1::2]):
        num, d, powers = (-1) ** signs.count("-"), 1, {}
        for factor in term.split("*"):
            m = mp._FACTOR.fullmatch(factor)
            if m is None:
                raise ValueError(f"bad factor {factor.strip()!r} in "
                                 f"polynomial term {(signs + term).strip()!r}")
            n, q, name, exp = m.groups()
            if name:
                powers[name] = powers.get(name, 0) + int(exp or 1)
            else:
                num *= int(n)
                d *= int(q or 1)
        if not d:
            raise ValueError(f"zero denominator in polynomial term "
                             f"{(signs + term).strip()!r}")
        monomials.append((num, d, powers))
        den = math.lcm(den, d)
    names = sorted({v for _, _, powers in monomials for v in powers})
    terms = {}
    for num, d, powers in monomials:
        e = tuple(powers.get(v, 0) for v in names)
        terms[e] = terms.get(e, 0) + num * (den // d)
    p = MultiPoly(names, terms)
    return mp._new(p._terms, p._content / den, p._deg) if p._terms else p


# first allocated out of alphabetical order: slot order tz, tb10, ta, tb2
TEXT_NAMES = ("tz", "tb10", "ta", "tb2")
for _name in TEXT_NAMES:
    MultiPoly.var(_name)


@st.composite
def text_polys(draw):
    """A polynomial over TEXT_NAMES with a Fraction content, of either sign
    at its leading term."""
    terms = {}
    for _ in range(draw(st.integers(0, 8))):
        exps = tuple(draw(st.integers(0, 3)) for _ in TEXT_NAMES)
        terms[exps] = F(draw(st.integers(-20, 20)), draw(st.integers(1, 12)))
    return MultiPoly(TEXT_NAMES, terms) * draw(st.sampled_from(
        (1, -1, F(-3, 4), F(7, 6))))


@st.composite
def term_texts(draw):
    """A sum written out of canonical order: shuffled names, repeated and
    cancelling monomials, zero and unit coefficients."""
    pieces = []
    for _ in range(draw(st.integers(1, 8))):
        c = F(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        names = draw(st.lists(st.sampled_from(TEXT_NAMES), max_size=3))
        factors = [f"{n}^{draw(st.integers(1, 3))}" for n in names]
        factors.insert(draw(st.integers(0, len(factors))), str(abs(c)))
        pieces.append(("- " if c < 0 else "+ ") + "*".join(factors))
    return " ".join(pieces)


def parse_agrees(text):
    got, want = parse_poly(text), reference_parse_poly(text)
    assert got == want and got._content == want._content
    assert list(got._terms) == list(want._terms)
    return got


class TestPackedText:
    @settings(max_examples=150, deadline=None)
    @given(text_polys())
    def test_text_and_parse_match_reference(self, p):
        text = p.to_text()
        assert text == reference_to_text(p)
        assert parse_agrees(text) == p

    @settings(max_examples=150, deadline=None)
    @given(term_texts())
    def test_parse_keeps_first_appearance_order(self, text):
        p = parse_agrees(text)
        assert p.to_text() == reference_to_text(p)

    def test_order_of_first_appearance(self):
        p = parse_agrees("tb2 + 1/2*tz - 3 + 0*ta + tz*tb10 - tb2")
        assert list(p._terms) == [1 << mp._SLOTS["tz"], 0,
                                  (1 << mp._SLOTS["tz"]) + (1 << mp._SLOTS["tb10"])]
        assert p.to_text() == "tb10*tz + 1/2*tz - 3"

    def test_degree_past_the_limit_is_refused(self):
        limit = 2 ** (_W - 1) - 1
        assert parse_poly(f"tz^{limit}").degree_in("tz") == limit
        for text in (f"tz^{limit + 1}", f"tz^{limit}*tz", f"ta^{limit}*tb2",
                     f"tz^{2 ** _W + 1}*ta^0"):
            with pytest.raises(ExponentOverflowError):
                parse_poly(text)
