"""Okamoto's birational canonical transformations of the PVI system.

Implements the five generators w0..w4 acting on the parameter vector
(b1, b2, b3, b4) and the induced birational maps on (y, p) through the
2-vector identity

    F[b] (y, y(y-1)p)^T + g[b] = F[w(b)] (y_w, y_w(y_w-1)p_w)^T + g[w(b)],

solved exactly over rational functions. The corrected conventions are used
throughout: w4 flips and swaps the first two coordinates, and g[b] carries
the 1/2 factors (the original reference misprints both; see module tests).
Degenerate starting pairs (y identically 0) are handled by the explicit
prolongation formula instead, since det F[w(b)] vanishes there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import FactoredFrac, RatFunc, to_rational
from .painleve import ThetaTuple, X


@dataclass(frozen=True)
class OkamotoCoords:
    b1: Fraction
    b2: Fraction
    b3: Fraction
    b4: Fraction

    @classmethod
    def of(cls, b1, b2, b3, b4):
        return cls(to_rational(b1), to_rational(b2), to_rational(b3),
                   to_rational(b4))

    @classmethod
    def from_theta(cls, t: ThetaTuple) -> "OkamotoCoords":
        return cls(t.beta1 + t.beta2, t.beta1 - t.beta2,
                   t.beta3 + t.beta_inf - 1, t.beta3 - t.beta_inf)

    def theta(self) -> ThetaTuple:
        return ThetaTuple(
            beta1=(self.b1 + self.b2) / 2,
            beta2=(self.b1 - self.b2) / 2,
            beta3=(self.b3 + self.b4 + 1) / 2,
            beta_inf=(self.b3 - self.b4 + 1) / 2,
        )

    def as_tuple(self):
        return (self.b1, self.b2, self.b3, self.b4)


_GENERATORS = {
    "w0": lambda b: (b[0], b[1], -b[3] - 1, -b[2] - 1),
    "w1": lambda b: (b[1], b[0], b[2], b[3]),
    "w2": lambda b: (b[0], b[2], b[1], b[3]),
    "w3": lambda b: (b[0], b[1], b[3], b[2]),
    "w4": lambda b: (-b[1], -b[0], b[2], b[3]),
}


def apply_word(word: str, b: OkamotoCoords) -> OkamotoCoords:
    """Apply a composition like 'w1w2w1' to the parameter vector,
    generators acting left to right."""
    t = b.as_tuple()
    i = 0
    while i < len(word):
        if word[i] != "w" or i + 1 >= len(word) or not word[i + 1].isdigit():
            raise ValueError(f"bad transformation word {word!r}")
        gen = word[i:i + 2]
        if gen not in _GENERATORS:
            raise ValueError(f"unknown generator {gen!r}")
        t = _GENERATORS[gen](t)
        i += 2
    return OkamotoCoords(*t)


def h_polynomial(y, p, b: OkamotoCoords) -> RatFunc:
    """h = -y(y-1)p^2 + (2 b1 y - (b1+b2)) p - b1^2."""
    y = FactoredFrac._coerce(y)
    p = FactoredFrac._coerce(p)
    return (-y * (y - 1) * p ** 2 + (2 * b.b1 * y - (b.b1 + b.b2)) * p
            - b.b1 ** 2).to_ratfunc()


def _sigma(vals, k):
    from itertools import combinations
    out = Fraction(0)
    for comb in combinations(vals, k):
        prod = Fraction(1)
        for v in comb:
            prod *= v
        out += prod
    return out


def _F_matrix(b: OkamotoCoords, h: FactoredFrac):
    s1 = _sigma((b.b1, b.b3, b.b4), 1)
    s2 = _sigma((b.b1, b.b3, b.b4), 2)
    s3 = _sigma((b.b1, b.b3, b.b4), 3)
    return [[-h + s2, FactoredFrac.const(-b.b3 - b.b4)],
            [s1 * h - s3, -h + b.b3 * b.b4]]


def _g_vector(b: OkamotoCoords, h: FactoredFrac):
    vals = b.as_tuple()
    return [FactoredFrac.const(-Fraction(1, 2) * _sigma(vals, 2)),
            -Fraction(1, 2) * _sigma(vals, 1) * h
            + Fraction(1, 2) * _sigma(vals, 3)]


class DegenerateTransform(ValueError):
    """det F[w(b)] vanishes identically on the given pair."""


def okamoto_apply(word: str, y, p, b: OkamotoCoords):
    """Image (y_w, p_w, b_w) of (y, p) under the transformation word.

    y and p may be rational functions of x (and extra parameters), or formal
    variables for identity work. Raises DegenerateTransform when the linear
    solve degenerates (e.g. y identically 0 under w1w2w1); use
    degenerate_prolongation for that case.
    """
    y = FactoredFrac._coerce(y)
    p = FactoredFrac._coerce(p)
    bw = apply_word(word, b)
    h = FactoredFrac._coerce(h_polynomial(y, p, b))
    F = _F_matrix(b, h)
    g = _g_vector(b, h)
    Fw = _F_matrix(bw, h)
    gw = _g_vector(bw, h)
    v = [y, y * (y - 1) * p]
    rhs = [F[0][0] * v[0] + F[0][1] * v[1] + g[0] - gw[0],
           F[1][0] * v[0] + F[1][1] * v[1] + g[1] - gw[1]]
    det = Fw[0][0] * Fw[1][1] - Fw[0][1] * Fw[1][0]
    if det.is_zero():
        raise DegenerateTransform(
            "det F[w(b)] vanishes identically; use degenerate_prolongation")
    yw = (rhs[0] * Fw[1][1] - rhs[1] * Fw[0][1]) / det
    vw2 = (rhs[1] * Fw[0][0] - rhs[0] * Fw[1][0]) / det
    den = yw * (yw - 1)
    if den.is_zero():
        return yw.to_ratfunc(), None, bw
    return yw.to_ratfunc(), (vw2 / den).to_ratfunc(), bw


def degenerate_prolongation(p, b1, b3):
    """Prolongation of the w1w2w1 transformation to the degenerate solution
    y = 0 (valid when beta1 = 0, i.e. b1 = -b2):

        y_w = (b1 - b3)/(p + 2 b1),
        p_w = -(b1 + b3)(p + 2 b1)/(p + b1 + b3).
    """
    p = FactoredFrac._coerce(p)
    b1 = to_rational(b1)
    b3 = to_rational(b3)
    den = p + 2 * b1
    if den.is_zero():
        raise ZeroDivisionError("p + 2 b1 is identically zero")
    yw = (b1 - b3) / den
    pw = -(b1 + b3) * den / (p + b1 + b3)
    return yw.to_ratfunc(), pw.to_ratfunc()


def riccati_residual(p, b: OkamotoCoords) -> RatFunc:
    """Exact residual of the Riccati equation for the momentum of y = 0:
    -x(x-1) p' = x p^2 + (2 b1 x + b3 + b4) p + (b1+b3)(b1+b4)."""
    p = FactoredFrac._coerce(p)
    x = FactoredFrac.var(X)
    return (-x * (x - 1) * p.partial(X)
            - (x * p ** 2 + (2 * b.b1 * x + b.b3 + b.b4) * p
               + (b.b1 + b.b3) * (b.b1 + b.b4))).to_ratfunc()
