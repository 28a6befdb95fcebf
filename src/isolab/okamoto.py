"""Okamoto's birational canonical transformations of the PVI system.

The affine Weyl group of type D4^(1) acts on PVI by five reflections s0..s4
(Okamoto, Ann. Mat. Pura Appl. 148, 1987; Noumi, Painleve Equations through
Symmetry, 2004). In the Noumi-Yamada roots

    alpha = (2 beta3, 1 - 2 beta_inf, beta_inf - beta1 - beta2 - beta3,
             2 beta2, 2 beta1)

node 2 is the centre of the diagram, and s_i negates alpha_i and adds it to
each neighbour. On the pair (y, p) of the Hamiltonian system
(painleve.hamiltonian_system_residual), s0, s3 and s4 fix y and send
p -> p - alpha_i/(y - c_i) with c = (x, 1, 0); s1 fixes (y, p); s2 sends
y -> y + alpha2/p. A reflection whose root is zero fixes (y, p), so the
degenerate solution y = 0 passes through s4 exactly when beta1 = 0.

Okamoto's letters w0..w4 act on b = (b1, b2, b3, b4) = (beta1 + beta2,
beta1 - beta2, beta3 + beta_inf - 1, beta3 - beta_inf): w0, w1, w3 and w4
are s0, s3, s1 and s4, and w2 (which swaps b2 and b3) is s4 s1 s2 s1 s4.
Words act left to right, and each image is reduced after every reflection.
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

    def theta(self) -> ThetaTuple:
        return ThetaTuple(
            beta1=(self.b1 + self.b2) / 2,
            beta2=(self.b1 - self.b2) / 2,
            beta3=(self.b3 + self.b4 + 1) / 2,
            beta_inf=(self.b3 - self.b4 + 1) / 2,
        )

    def as_tuple(self):
        return (self.b1, self.b2, self.b3, self.b4)


# The reflections s0..s4: the neighbours of node i, and the pole c_i of the
# momentum shift p -> p - alpha_i/(y - c_i) (None: s1 fixes (y, p) and s2
# moves y).
_REFLECTIONS = (((2,), RatFunc.var(X)), ((2,), None),
                ((0, 1, 3, 4), None), ((2,), 1), ((2,), 0))
_LETTERS = {"w0": (0,), "w1": (3,), "w2": (4, 1, 2, 1, 4), "w3": (1,),
            "w4": (4,)}


def _roots(b: OkamotoCoords) -> list:
    b1, b2, b3, b4 = map(to_rational, b.as_tuple())
    return [b3 + b4 + 1, b4 - b3, -b1 - b4, b1 - b2, b1 + b2]


def _coords(a) -> OkamotoCoords:
    return OkamotoCoords((a[3] + a[4]) / 2, (a[4] - a[3]) / 2,
                         (a[0] - a[1] - 1) / 2, (a[0] + a[1] - 1) / 2)


def _reflect(i: int, a: list) -> list:
    a = list(a)
    for j in _REFLECTIONS[i][0]:
        a[j] += a[i]
    a[i] = -a[i]
    return a


def _reflections(word: str) -> list:
    """The s_i indices spelled by a word like 'w1w2w1', in order."""
    out = []
    for i in range(0, len(word), 2):
        if word[i] != "w" or i + 1 >= len(word) or not word[i + 1].isdigit():
            raise ValueError(f"bad transformation word {word!r}")
        gen = word[i:i + 2]
        if gen not in _LETTERS:
            raise ValueError(f"unknown generator {gen!r}")
        out.extend(_LETTERS[gen])
    return out


def apply_word(word: str, b: OkamotoCoords) -> OkamotoCoords:
    """Apply a composition like 'w1w2w1' to the parameter vector,
    generators acting left to right."""
    a = _roots(b)
    for i in _reflections(word):
        a = _reflect(i, a)
    return _coords(a)


def h_polynomial(y, p, b: OkamotoCoords) -> RatFunc:
    """h = -y(y-1)p^2 + (2 b1 y - (b1+b2)) p - b1^2."""
    y = FactoredFrac._coerce(y)
    p = FactoredFrac._coerce(p)
    return (-y * (y - 1) * p ** 2 + (2 * b.b1 * y - (b.b1 + b.b2)) * p
            - b.b1 ** 2).to_ratfunc()


class DegenerateTransform(ValueError):
    """A reflection with a nonzero root meets its pole: y = c_i identically,
    or p = 0 identically for s2."""


def okamoto_apply(word: str, y, p, b: OkamotoCoords):
    """Image (y_w, p_w, b_w) of (y, p) under the transformation word.

    y and p may be rational functions of x (and extra parameters), or formal
    variables for identity work. Raises DegenerateTransform when a letter
    divides by zero (e.g. y identically 0 under w4 with b1 + b2 != 0).
    """
    y, p = (FactoredFrac._coerce(v).to_ratfunc() for v in (y, p))
    a = _roots(b)
    for i in _reflections(word):
        pole = _REFLECTIONS[i][1]
        if a[i] and i == 2:
            if p.is_zero():
                raise DegenerateTransform("s2 meets p = 0 identically")
            y = y + a[2] / p
        elif a[i] and pole is not None:
            if y == pole:
                raise DegenerateTransform(f"s{i} meets y = {pole} identically")
            p = p - a[i] / (y - pole)
        a = _reflect(i, a)
    return y, p, _coords(a)


def degenerate_prolongation(p, b1, b3):
    """Prolongation of the w1w2w1 transformation to the degenerate solution
    y = 0 (valid when beta1 = 0, i.e. b1 = -b2; okamoto_apply gives the same
    pair there):

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
