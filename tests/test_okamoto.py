from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from isolab.algebra import MultiPoly, RatFunc
from isolab.okamoto import (DegenerateTransform, OkamotoCoords, apply_word,
                            degenerate_prolongation, h_polynomial,
                            okamoto_apply, riccati_residual)
from isolab.painleve import (PVIParams, conjugate_momentum,
                             hamiltonian_system_residual, pvi_params,
                             pvi_residual, thm5_solution, thm6_family,
                             thm7_solution, thm8_family)

x = MultiPoly.var("x")
c = MultiPoly.var("c")


def from_theta(t):
    """Okamoto's b of a ThetaTuple, the inverse of OkamotoCoords.theta."""
    return OkamotoCoords(t.beta1 + t.beta2, t.beta1 - t.beta2,
                         t.beta3 + t.beta_inf - 1, t.beta3 - t.beta_inf)

# Okamoto's generators on b as printed, the reference for apply_word.
REFERENCE_GENERATORS = {
    "w0": lambda b: (b[0], b[1], -b[3] - 1, -b[2] - 1),
    "w1": lambda b: (b[1], b[0], b[2], b[3]),
    "w2": lambda b: (b[0], b[2], b[1], b[3]),
    "w3": lambda b: (b[0], b[1], b[3], b[2]),
    "w4": lambda b: (-b[1], -b[0], b[2], b[3]),
}

FAMILIES = {
    "thm5 n=1": lambda: thm5_solution(1),
    "thm5 n=2": lambda: thm5_solution(2),
    "thm6 n=-1": lambda: thm6_family(-1),
    "thm6 n=-2": lambda: thm6_family(-2),
    "thm7 (2, 1/3, 1/5)": lambda: thm7_solution(2, F(1, 3), F(1, 5)),
    "thm8 (5, 1, 3)": lambda: thm8_family(5, 1, 3),
}


@lru_cache(maxsize=None)
def trajectory(name):
    """(y, p, b) of a named PVI family, p its Hamiltonian momentum."""
    fam = FAMILIES[name]()
    return (fam.y, conjugate_momentum(fam.y, fam.theta),
            from_theta(fam.theta))


# The reflection s_i as w-letters: s0, s1, s3, s4 are w0, w3, w1, w4, and s2
# is w2 conjugated by w4 w3.
S_LETTERS = {"0": "w0", "1": "w3", "2": "w4w3w2w3w4", "3": "w1", "4": "w4"}


def s_word(indices: str) -> str:
    return "".join(S_LETTERS[i] for i in indices.split())


class TestCoordinates:
    def test_round_trip(self):
        b = OkamotoCoords.of(-1, 1, 0, 1)
        th = b.theta()
        assert (th.beta1, th.beta2, th.beta3, th.beta_inf) == (F(0), F(-1),
                                                               F(1), F(0))
        assert from_theta(th) == b

    def test_words(self):
        b = OkamotoCoords.of(1, 2, 3, 4)
        assert apply_word("w1w2w1", b) == OkamotoCoords.of(3, 2, 1, 4)
        assert apply_word("w3", b) == OkamotoCoords.of(1, 2, 4, 3)
        assert apply_word("w0", b) == OkamotoCoords.of(1, 2, -5, -4)
        assert apply_word("w4", b) == OkamotoCoords.of(-2, -1, 3, 4)
        with pytest.raises(ValueError):
            apply_word("w5", b)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(sorted(REFERENCE_GENERATORS)), max_size=6),
           st.lists(st.fractions(-50, 50, max_denominator=12), min_size=4,
                    max_size=4))
    def test_words_match_the_printed_generators(self, letters, b):
        t = tuple(b)
        for gen in letters:
            t = REFERENCE_GENERATORS[gen](t)
        assert apply_word("".join(letters), OkamotoCoords(*b)) == \
            OkamotoCoords(*t)


class TestGeneratorsOnTrajectories:
    def setup_method(self):
        self.fam = thm5_solution(2)
        self.y = self.fam.y
        self.p = conjugate_momentum(self.y, self.fam.theta)
        self.b = from_theta(self.fam.theta)

    def test_w3_is_identity(self):
        yw, pw, _ = okamoto_apply("w3", self.y, self.p, self.b)
        assert yw == self.y and pw == self.p

    def test_w1_fixes_y(self):
        yw, pw, _ = okamoto_apply("w1", self.y, self.p, self.b)
        assert yw == self.y
        assert pw == self.p + (self.b.b2 - self.b.b1) / (self.y - 1)

    def test_w4_fixes_y(self):
        yw, pw, _ = okamoto_apply("w4", self.y, self.p, self.b)
        assert yw == self.y
        assert pw == self.p - (self.b.b1 + self.b.b2) / self.y


@pytest.mark.parametrize("word", ["w0", "w1", "w2", "w3", "w4", "w0w3",
                                  "w3w0", "w1w2w1"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_generator_images_solve_the_hamiltonian_system(family, word):
    y, p, b = trajectory(family)
    yw, pw, bw = okamoto_apply(word, y, p, b)
    r1, r2 = hamiltonian_system_residual(yw, pw, bw.theta())
    assert r1.is_zero() and r2.is_zero()
    if word.startswith("w0"):
        assert yw == y


class TestOrbits:
    """Translation words in s0..s4 step along the printed rational sequences."""

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_thm5_steps_by_three(self, n):
        fam, target = thm5_solution(n), thm5_solution(n + 3)
        yw, _, bw = okamoto_apply(
            s_word("0 1 2 3 2 0 4 2 0 3 1 2 4 1 2 3 0 2"), fam.y,
            conjugate_momentum(fam.y, fam.theta),
            from_theta(fam.theta))
        assert yw == target.y
        assert bw == from_theta(target.theta)

    @pytest.mark.parametrize("n", [-1, -2])
    def test_thm6_steps_down_by_one(self, n):
        fam, target = thm6_family(n), thm6_family(n - 1)
        yw, _, bw = okamoto_apply(
            s_word("2 0 3 2 1 4 2 0 1 3 2 4 0 2 3 2 1 0"), fam.y,
            conjugate_momentum(fam.y, fam.theta),
            from_theta(fam.theta))
        assert yw == target.y
        assert bw == from_theta(target.theta)


class TestSandwichOnFormalVariables:
    def test_matches_prolongation_at_y0(self):
        Y, P = RatFunc.var("Y"), RatFunc.var("P")
        b = OkamotoCoords.of(-2, 2, F(1, 2), 3)   # b1 = -b2
        yw, pw, _ = okamoto_apply("w1w2w1", Y, P, b)
        # general closed form from the derivation
        assert yw == Y + (b.b3 - b.b1) * (Y - 1) / (-(Y - 1) * P + 2 * b.b1)
        y0 = yw.substitute("Y", F(0))
        p0 = pw.substitute("Y", F(0))
        ywf, pwf = degenerate_prolongation(RatFunc.var("P"), b.b1, b.b3)
        assert y0 == ywf and p0 == pwf

    @pytest.mark.parametrize("b", [(-1, 1, 0, 1), (-1, 1, 1, 0),
                                   (-2, 2, F(1, 2), 3)])
    def test_y0_under_w1w2w1_is_the_prolongation(self, b):
        b = OkamotoCoords.of(*b)
        P = RatFunc.var("P")
        yw, pw, bw = okamoto_apply("w1w2w1", RatFunc.zero(), P, b)
        assert (yw, pw) == degenerate_prolongation(P, b.b1, b.b3)
        assert bw == apply_word("w1w2w1", b)

    def test_y0_under_w4_needs_beta1_zero(self):
        b = OkamotoCoords.of(-2, 3, F(1, 2), 3)   # b1 + b2 != 0
        with pytest.raises(DegenerateTransform):
            okamoto_apply("w4", RatFunc.zero(), RatFunc.var("P"), b)


class TestWorkedPipeline:
    """The degenerate y = 0 solution maps to the printed one-parameter family."""

    def setup_method(self):
        self.b = OkamotoCoords.of(-1, 1, 0, 1)
        self.p = RatFunc(2 * x * (x - 1), x ** 2 + c)

    def test_source_parameters(self):
        params = pvi_params(self.b.theta())
        assert params == PVIParams(F(1, 2), F(0), F(2), F(-3, 2))
        assert params.beta == 0   # y = 0 is a valid degenerate solution

    def test_riccati(self):
        assert riccati_residual(self.p, self.b).is_zero()
        assert riccati_residual(RatFunc.zero(),
                                OkamotoCoords.of(1, 2, -1, 3)).is_zero()
        assert not riccati_residual(RatFunc.one(),
                                    OkamotoCoords.of(1, 2, 3, 4)).is_zero()

    def test_prolongation_and_momentum(self):
        yw, pw = degenerate_prolongation(self.p, self.b.b1, self.b.b3)
        assert yw == RatFunc((x ** 2 + c) * F(1, 2), x + c)
        assert pw == (self.p - 2) / (self.p - 1)

    def test_image_family_solves_pvi(self):
        yw, _ = degenerate_prolongation(self.p, self.b.b1, self.b.b3)
        bw = apply_word("w1w2w1", self.b)
        params = pvi_params(bw.theta())
        assert params == PVIParams(F(2), F(-1, 2), F(1, 2), F(0))
        assert pvi_residual(yw, params).is_zero()

    def test_zero_numerator_case(self):
        # b1 = b3 makes y_w identically zero
        p = RatFunc.from_poly(x) + 5
        yw, pw = degenerate_prolongation(p, F(1, 2), F(1, 2))
        assert yw.is_zero()

    def test_prolongation_pole_guard(self):
        with pytest.raises(ZeroDivisionError):
            degenerate_prolongation(RatFunc.const(-2), F(1), F(0))

    def test_image_momentum_consistency(self):
        # the image family's Hamiltonian momentum equals the prolongation's p_w
        yw, pw = degenerate_prolongation(self.p, self.b.b1, self.b.b3)
        bw = apply_word("w1w2w1", self.b)
        assert conjugate_momentum(yw, bw.theta()) == pw

    def test_second_prolongation_instance(self):
        # b = (-1, 1, 1, 0) obeys the same Riccati equation; its image solves
        # the transformed equation as well
        b = OkamotoCoords.of(-1, 1, 1, 0)
        assert riccati_residual(self.p, b).is_zero()
        yw, _ = degenerate_prolongation(self.p, b.b1, b.b3)
        params = pvi_params(apply_word("w1w2w1", b).theta())
        assert pvi_residual(yw, params).is_zero()

    def test_h_polynomial_invariance_under_w4(self):
        Y, P = RatFunc.var("Y"), RatFunc.var("P")
        b = OkamotoCoords.of(F(2, 3), F(1, 5), F(-5, 3), F(4, 3))
        bw = apply_word("w4", b)
        shifted = P - (b.b1 + b.b2) / Y
        assert h_polynomial(Y, P, b) == h_polynomial(Y, shifted, bw)
