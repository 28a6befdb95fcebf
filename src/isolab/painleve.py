"""Painleve VI rational families and exact verification.

Solution families come from polynomial/rational solutions of the
hypergeometric equations attached to the traceless 2x2 triangular Schlesinger
system with three poles (0, 1, x); each printed sum is one grade of two
binomial rows (algebra.grade). The blocks are FactoredFracs over x and x - 1,
canonicalised once per family, at y. The verifiers substitute candidate
solutions into PVI, the first-order Hamiltonian system, the linear 2x2 system
and the hypergeometric ODEs with exact rational-function arithmetic; a
residual is identically zero iff the candidate solves the equation.

The PVI residual is fraction-free. With y = N/D, PVI times its common
denominator 2 D^3 x^2 (x-1)^2 N (N - D) (N - xD) is one polynomial identity
R = 0 in N, D and their x-derivatives (see pvi_residual); a bivariate
y(x, c) is checked the same way. For a dense y, R is computed as one
integer, its Kronecker image at X = 2^bits, by algebra.prove_zero: the
degree and coefficient bounds that make a zero image a proof that R = 0
come from running R's own formula on bounds of its inputs; other inputs
build R from MultiPoly products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

from .algebra import (MultiPoly, RatFunc, FactoredFrac, binomials, grade,
                      prove_zero, to_rational)

X = "x"
C = "c"


@dataclass(frozen=True)
class ThetaTuple:
    beta1: Fraction
    beta2: Fraction
    beta3: Fraction
    beta_inf: Fraction

    @classmethod
    def of(cls, b1, b2, b3, binf):
        return cls(to_rational(b1), to_rational(b2), to_rational(b3),
                   to_rational(binf))

    def triangular_sum(self) -> Fraction:
        return self.beta1 + self.beta2 + self.beta3 + self.beta_inf


@dataclass(frozen=True)
class PVIParams:
    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction


def pvi_params(theta: ThetaTuple) -> PVIParams:
    """(alpha, beta, gamma, delta) from the matrix eigenvalues +-beta_i."""
    return PVIParams(
        alpha=(2 * theta.beta_inf - 1) ** 2 / 2,
        beta=-2 * theta.beta1 ** 2,
        gamma=2 * theta.beta2 ** 2,
        delta=Fraction(1, 2) - 2 * theta.beta3 ** 2,
    )


@dataclass
class PVISolutionFamily:
    y: RatFunc                 # in x, and in the parameter c if param is set
    theta: ThetaTuple
    params: PVIParams
    provenance: dict
    param: str = None          # name of the free family parameter, if any

    def specialize(self, c_value) -> RatFunc:
        if self.param is None:
            return self.y
        return self.y.substitute(self.param, to_rational(c_value))


# ---------------------------------------------------------------------------
# building blocks


def y_from_b(b1, b3) -> RatFunc:
    """y = x b1 / (b1 + (1 - x) b3), reduced: a family's one canonicalisation.

    Built in FactoredFrac, so the b-denominators shared by the two sides of
    the quotient cancel structurally instead of through a large gcd."""
    f1 = FactoredFrac._coerce(b1)
    f3 = FactoredFrac._coerce(b3)
    x = FactoredFrac.var(X)
    den = f1 + (1 - x) * f3
    if den.is_zero():
        raise ZeroDivisionError("b1 + (1 - x) b3 is identically zero")
    return (x * f1 / den).to_ratfunc()


def linear_system_residual(b1, b2, theta: ThetaTuple):
    """Residuals of the first-order system tying b1 and b2 together:
    b1' = (2/x)((beta1+beta3) b1 + beta1 b2),
    b2' = (2/(x-1))(beta2 b1 + (beta2+beta3) b2)."""
    b1 = FactoredFrac._coerce(b1)
    b2 = FactoredFrac._coerce(b2)
    x = FactoredFrac.var(X)
    r1 = b1.partial(X) - 2 / x * ((theta.beta1 + theta.beta3) * b1
                                  + theta.beta1 * b2)
    r2 = b2.partial(X) - 2 / (x - 1) * (theta.beta2 * b1
                                        + (theta.beta2 + theta.beta3) * b2)
    return r1.to_ratfunc(), r2.to_ratfunc()


def hypergeom_residual(b, which: int, theta: ThetaTuple) -> RatFunc:
    """Exact residual of the second-order hypergeometric ODE satisfied by
    b1 (which=1) or b2 (which=2)."""
    b = FactoredFrac._coerce(b)
    t = theta
    x = FactoredFrac.var(X)
    shift = -1 if which == 1 else 0
    lin = ((2 * t.beta1 + 2 * t.beta3 + shift)
           + (1 - 2 * t.beta1 - 2 * t.beta2 - 4 * t.beta3) * x)
    const = 4 * t.beta3 * (t.beta1 + t.beta2 + t.beta3)
    xx = x * (x - 1)
    db = b.partial(X)
    return (db.partial(X) + lin / xx * db + const / xx * b).to_ratfunc()


# ---------------------------------------------------------------------------
# the PVI residual


def _pvi_degenerate_kind(y: RatFunc):
    if y.is_zero():
        return "0"
    if y == RatFunc.one():
        return "1"
    if y == RatFunc.var(X):
        return "x"
    return None


# the x-polynomials x, xm1, t and t1 that _pvi_numerator takes
_x = MultiPoly.var(X)
_X_FACTORS = (_x, _x - 1, _x * (_x - 1), 2 * _x - 1)


def _pvi_numerator(N, N1, N2, D, D1, D2, x, xm1, t, t1, L, A, B, G, E):
    """L times the numerator R of pvi_residual, from y = N/D, the first and
    second x-derivatives N1, N2, D1, D2, x, xm1 = x - 1, t = x (x-1),
    t1 = 2x - 1 and L, A = L alpha, B = L beta, G = L gamma, E = L delta.

    Only + - * occur, so the same formula runs on MultiPoly and, through
    algebra.prove_zero, on bounds and on Kronecker images (ints).
    W' = N2 D - N D2: the N1 D1 terms cancel, so no product is
    differentiated."""
    W = N1 * D - N * D1
    V = (N2 * D - N * D2) * D - 2 * W * D1
    M1 = N - D
    Mx = N - x * D
    NM1, NMx, M1Mx = N * M1, N * Mx, M1 * Mx
    DD = D * D
    # the docstring's R, with N M1 and D^2 taken out of the terms sharing them
    return (NM1 * (2 * L * t * (t * Mx * V + D * W * (t1 * Mx + t * D))
                   - 2 * (A * NM1 * Mx * Mx + E * t * DD * NM1))
            - L * t * t * W * W * (M1Mx + NMx + NM1)
            - 2 * DD * (B * x * M1Mx * M1Mx + G * xm1 * NMx * NMx))


def pvi_residual(y: RatFunc, params: PVIParams) -> RatFunc:
    """Exact residual of PVI(alpha, beta, gamma, delta) at y(x).

    y may carry extra parameter variables (a whole one-parameter family is
    checked at once). Degenerate candidates y in {0, 1, x} are rejected here;
    use degenerate_parameter_check for those.

    Cleared of denominators: write y = N/D, W = N'D - ND', V = W'D - 2WD',
    M1 = N - D and Mx = N - xD, so that y' = W/D^2, y'' = V/D^3,
    y - 1 = M1/D and y - x = Mx/D (' is d/dx). Over the common denominator
    2 D^3 x^2 (x-1)^2 N M1 Mx the residual's numerator is

        R = 2 x^2 (x-1)^2 N M1 Mx V
            - x^2 (x-1)^2 W^2 (M1 Mx + N Mx + N M1)
            + 2 x (x-1) D N M1 W ((2x - 1) Mx + x (x-1) D)
            - 2 [alpha N^2 M1^2 Mx^2 + D^2 (beta x M1^2 Mx^2
                 + gamma (x-1) N^2 Mx^2 + delta x (x-1) N^2 M1^2)].

    That denominator is nonzero once y is not 0, 1 or x, so R = 0 as a
    polynomial is the proof that y solves PVI; otherwise R over it, reduced,
    is the canonical residual. R and the denominator are homogeneous of
    degree 6 in (N, D), so N and D are first given integer contents with
    the same ratio, and the parameters are scaled by L, the lcm of their
    denominators: L R then has integer coefficients (_pvi_numerator).

    L R is computed by algebra.prove_zero, as one integer, its Kronecker
    image at X = 2^bits. The prover runs _pvi_numerator once on degree and
    1-norm bounds of its inputs to get the box and bits in which the image
    is injective, so a zero image is a proof that R = 0, not a sample, and a
    nonzero one is read back exactly. The image is used when the box of the
    inputs is no larger than the square of the input size, prod_v (d_v + 1)
    <= (terms of N + terms of D)^2 with d_v the larger degree of N and D in
    v, so a sparse y of high degree never builds a dense box; other inputs
    run the same formula on MultiPoly.
    """
    kind = _pvi_degenerate_kind(y)
    if kind is not None:
        raise ValueError(f"degenerate candidate y = {kind}; "
                         "use degenerate_parameter_check")
    N, cN = y.num.split_content()
    D, cD = y.den.split_content()
    q = cN / cD
    N, D = N * q.numerator, D * q.denominator
    scalars = (params.alpha, params.beta, params.gamma, params.delta)
    L = lcm(*(p.denominator for p in scalars))
    A, B, G, E = (p.numerator * (L // p.denominator) for p in scalars)
    N1, D1 = N.partial(X), D.partial(X)
    polys = (N, N1, N1.partial(X), D, D1, D1.partial(X), *_X_FACTORS)
    size = prod(max(N.degree_in(v), D.degree_in(v)) + 1
                for v in {X, *N.vars, *D.vars})
    if size <= (N.term_count() + D.term_count()) ** 2:
        R = prove_zero(_pvi_numerator, polys, (L, A, B, G, E))
    else:
        R = _pvi_numerator(*polys, L, A, B, G, E)
    if R.is_zero():
        return RatFunc.zero()
    x, _, t, _ = _X_FACTORS
    return RatFunc(R / L, 2 * D ** 3 * t * t * N * (N - D) * (N - x * D))


def degenerate_parameter_check(kind: str, params: PVIParams) -> bool:
    """Validity test for the constant/degenerate solutions:
    y=inf needs alpha=0, y=0 needs beta=0, y=1 needs gamma=0, y=x needs delta=1/2."""
    table = {
        "inf": params.alpha == 0,
        "0": params.beta == 0,
        "1": params.gamma == 0,
        "x": params.delta == Fraction(1, 2),
    }
    if kind not in table:
        raise ValueError(f"unknown degenerate kind {kind!r}")
    return table[kind]


def conjugate_momentum(y: RatFunc, theta: ThetaTuple) -> RatFunc:
    """p(x) solved from the first Hamiltonian equation.

    The (y - x)-pole terms are combined before dividing, so candidates whose
    combination cancels (e.g. y = x with beta3 = 0) still get a finite p.
    """
    y = FactoredFrac._coerce(y)
    x = FactoredFrac.var(X)
    num = x * (x - 1) * y.partial(X) + (2 * theta.beta3 - 1) * y * (y - 1)
    if num.is_zero():
        main = FactoredFrac.zero()
    else:
        den = 2 * y * (y - 1) * (y - x)
        if den.is_zero():
            raise ZeroDivisionError("degenerate y: momentum is a Riccati family")
        main = num / den
    if y.is_zero() or (y - 1).is_zero():
        raise ZeroDivisionError("degenerate y: momentum is a Riccati family")
    return (main + theta.beta1 / y + theta.beta2 / (y - 1)).to_ratfunc()


def hamiltonian_system_residual(y: RatFunc, p: RatFunc, theta: ThetaTuple):
    """Residuals of the first-order system equivalent to PVI (both equations)."""
    y = FactoredFrac._coerce(y)
    p = FactoredFrac._coerce(p)
    t = theta
    x = FactoredFrac.var(X)
    xx = x * (x - 1)
    r1 = y.partial(X) - (2 * p * y * (y - 1) * (y - x)
                         - (2 * t.beta3 - 1) * y * (y - 1)
                         - 2 * t.beta1 * (y - 1) * (y - x)
                         - 2 * t.beta2 * y * (y - x)) / xx
    kappa = ((t.beta1 + t.beta2 + t.beta3 - t.beta_inf)
             * (t.beta1 + t.beta2 + t.beta3 + t.beta_inf - 1))
    quad = (3 * y ** 2 - 2 * (x + 1) * y + x) * p ** 2
    lin = (((2 - 4 * t.beta1 - 4 * t.beta2 - 4 * t.beta3) * y
            + 2 * t.beta1 + 2 * t.beta3 - 1 + (2 * t.beta1 + 2 * t.beta2) * x)
           * p)
    r2 = p.partial(X) + (quad + lin + kappa) / xx
    return r1.to_ratfunc(), r2.to_ratfunc()


# ---------------------------------------------------------------------------
# the solution families


def _binomial_sum(alpha, beta, top: int, shifted: bool = False) -> MultiPoly:
    """sum_{j=0}^{top} binom(alpha, j) binom(beta, top - j) t^j with t = x,
    or t = 1 - x when shifted: the shape of every printed sum below, as
    grade top of the rows [binom(alpha, j) t^j] and [binom(beta, j)]."""
    t = 1 - _x if shifted else _x
    return grade([t ** j * b for j, b in enumerate(binomials(alpha, top))],
                 binomials(beta, top), top)


def _b3_from_b1(b1: FactoredFrac, b, c) -> FactoredFrac:
    """b3 = -(x b1' + b b1)/(1 + b - c), shared by theorems 7 and 8."""
    return -(FactoredFrac.var(X) * b1.partial(X) + b * b1) / (1 + b - c)


def polynomial_triple(n: int):
    """Degree-n polynomial solutions (b1, b2, b3) of the hypergeometric pair
    for beta_i = n/6, exactly as printed (including the (-1)^(n+1) factor)."""
    if n <= 0 or n % 3 == 0:
        raise ValueError("need a positive n not divisible by 3")
    q = Fraction(n, 3)
    sign = Fraction((-1) ** (n + 1))
    return (_binomial_sum(q, q, n) * sign, _binomial_sum(q, q - 1, n) * sign,
            _binomial_sum(q - 1, q, n) * sign)


def pq_polynomials(n: int):
    """P_{n+1} and Q_{n+1} with y = P/Q (positive n, 3 does not divide n):
    the theorem 7 pair at (b, c) = (-n/3, 1 - 2n/3)."""
    if n <= 0 or n % 3 == 0:
        raise ValueError("need a positive n not divisible by 3")
    q = Fraction(n, 3)
    return _thm7_pq(n, -q, 1 - 2 * q)


def thm5_solution(n: int) -> PVISolutionFamily:
    """The isolated rational solution y = P_{n+1}/Q_{n+1} for positive n,
    3 not dividing n."""
    P, Q = pq_polynomials(n)
    theta = ThetaTuple.of(Fraction(n, 6), Fraction(n, 6), Fraction(n, 6),
                          Fraction(-n, 2))
    return PVISolutionFamily(
        y=RatFunc(P, Q), theta=theta, params=pvi_params(theta),
        provenance={"family": "polynomial", "n": n})


def _sextet(n: int) -> dict:
    """The rational_sextet blocks, factored over x and x - 1."""
    if n >= 0:
        raise ValueError("need negative n")
    k = -n
    sign = Fraction((-1) ** k)

    def pair(alpha, beta, top, pole):
        q = FactoredFrac.quotient
        return (q(_binomial_sum(alpha, beta, top) * sign, _x, pole),
                q(_binomial_sum(alpha, beta, top, shifted=True), 1 - _x, pole))

    b1, tb2 = pair(-k, -k, k, 2 * k)
    b2, tb1 = pair(-k - 1, -k, k - 1, 2 * k - 1)
    b3, tb3 = pair(-k, -k - 1, k - 1, 2 * k)
    return {"b1": b1, "b2": b2, "b3": b3, "tb1": tb1, "tb2": tb2, "tb3": tb3}


def rational_sextet(n: int):
    """The six rational hypergeometric solutions for negative n, as printed:
    keys b1, b2, b3 (poles at x = 0) and tb1, tb2, tb3 (poles at x = 1).
    The reflection x -> 1 - x takes the sums of b1, b2, b3 to those of
    tb2, tb1, tb3; the factored blocks reach canonical form without a gcd."""
    return {key: f.to_ratfunc() for key, f in _sextet(n).items()}


def thm6_family(n: int) -> PVISolutionFamily:
    """One-parameter rational family for negative n:
    y = x (c b1 + tb1) / (c b1 + tb1 + (1-x)(c b3 + tb3))."""
    s = _sextet(n)
    c = FactoredFrac.var(C)
    b1 = c * s["b1"] + s["tb1"]
    b3 = c * s["b3"] + s["tb3"]
    theta = ThetaTuple.of(Fraction(n, 2), Fraction(n, 2), Fraction(n, 2),
                          Fraction(-3 * n, 2))
    return PVISolutionFamily(
        y=y_from_b(b1, b3), theta=theta, params=pvi_params(theta),
        provenance={"family": "rational-one-parameter", "n": n}, param=C)


def thm7_b1(n: int, b, c) -> MultiPoly:
    """Degree-n polynomial hypergeometric solution with parameters (b, c)."""
    return _binomial_sum(-to_rational(b), to_rational(c) + n - 1, n)


def _thm7_check_params(n, b, c):
    if n <= 0:
        raise ValueError("need positive n")
    b = to_rational(b)
    c = to_rational(c)
    if c in {Fraction(k) for k in range(-n + 1, 0)}:
        raise ValueError(f"c = {c} is an excluded integer in (-n, 0)")
    if c == b + 1:
        raise ValueError("c = b + 1 makes the b3 formula singular")
    return b, c


def _thm7_pq(n: int, b: Fraction, c: Fraction):
    """P_{n+1} = x b1 and Q_{n+1} of the (b, c) family, not reduced."""
    P = MultiPoly.var(X) * thm7_b1(n, b, c)
    Q = _binomial_sum(-b, c + n - 1, n + 1) * (Fraction(-(n + 1)) / (1 + b - c))
    return P, Q


def thm7_solution(n: int, b, c) -> PVISolutionFamily:
    """Generalized isolated rational solution with parameters (b, c)."""
    b, c = _thm7_check_params(n, b, c)
    P, Q = _thm7_pq(n, b, c)
    theta = ThetaTuple.of((1 + b - c) / 2, (n + c - 1) / 2, -b / 2,
                          Fraction(-n, 2))
    return PVISolutionFamily(
        y=RatFunc(P, Q), theta=theta, params=pvi_params(theta),
        provenance={"family": "polynomial-bc", "n": n, "b": str(b), "c": str(c)})


def thm7_b3(n: int, b, c) -> RatFunc:
    """b3 = -x b1'/(1+b-c) - b b1/(1+b-c) for the (b, c) polynomial family."""
    b, c = _thm7_check_params(n, b, c)
    return _b3_from_b1(FactoredFrac.from_poly(thm7_b1(n, b, c)), b, c).to_ratfunc()


def thm8_b_functions(a: int, b: int, c: int):
    """The four blocks (b1, b3, tb1, tb3), factored over x and x - 1, for integer
    hypergeometric data, with no admissibility gating beyond 1+b-c != 0."""
    if 1 + b - c == 0:
        raise ValueError("c = b + 1 makes the b3 formulas singular")
    # x^{1-c} F(b-c+1, a-c+1, 2-c, x) and (1-x)^{c-a-b} F(c-a, c-b, 1-a-b+c, 1-x)
    # in binomial form; the degree-(c-b-1) and degree-(a-c) sums pair
    # binom(-b, .) with the top power, matching the n < 0 special case.
    b1 = FactoredFrac.quotient(_binomial_sum(c - a - 1, -b, c - b - 1), _x, c - 1)
    tb1 = FactoredFrac.quotient(_binomial_sum(b - c, -b, a - c, shifted=True),
                                1 - _x, a + b - c)
    return b1, _b3_from_b1(b1, b, c), tb1, _b3_from_b1(tb1, b, c)


def thm8_family(a: int, b: int, c: int) -> PVISolutionFamily:
    """One-parameter rational family from integer hypergeometric data.

    Needs integers c > 1, b >= 1, a > c and c - a < b < c - 1."""
    for name, v in (("a", a), ("b", b), ("c", c)):
        if not isinstance(v, int):
            raise ValueError(f"{name} must be an integer")
    if not c > 1:
        raise ValueError("hypothesis c > 1 fails")
    if not b >= 1:
        raise ValueError("hypothesis b >= 1 fails")
    if not a > c:
        raise ValueError("hypothesis a > c fails")
    if not (c - a < b < c - 1):
        raise ValueError("hypothesis c - a < b < c - 1 fails")
    b1, b3, tb1, tb3 = thm8_b_functions(a, b, c)
    cpar = FactoredFrac.var(C)
    theta = ThetaTuple.of(Fraction(1 + b - c, 2), Fraction(c - a - 1, 2),
                          Fraction(-b, 2), Fraction(a, 2))
    return PVISolutionFamily(
        y=y_from_b(cpar * b1 + tb1, cpar * b3 + tb3),
        theta=theta, params=pvi_params(theta),
        provenance={"family": "rational-abc", "a": a, "b": b, "c": c}, param=C)


def admissible_thm8_triples(a_max: int):
    """All (a, b, c) satisfying the inequalities with a <= a_max."""
    out = []
    for c in range(2, a_max):
        for a in range(c + 1, a_max + 1):
            for b in range(max(1, c - a + 1), c - 1):
                out.append((a, b, c))
    return out


# ---------------------------------------------------------------------------
# zeros of the special polynomials


@dataclass
class ZerosReport:
    degree: int
    roots: list            # complex, sorted by (re, im)
    conj_paired: list      # bool per root
    inversion_paired: list # bool per root (pairs z with 1/conj(z); 0 exempt)
    palindromic: bool

    def all_conj_paired(self) -> bool:
        return all(self.conj_paired)

    def all_inversion_paired(self) -> bool:
        return all(self.inversion_paired)


def coefficient_list(p: MultiPoly):
    """Ascending coefficients of a univariate polynomial in x, exact."""
    parts = p.as_univariate(X)
    deg = max(parts) if parts else 0
    out = []
    for k in range(deg + 1):
        if k in parts:
            if not parts[k].is_constant():
                raise ValueError("polynomial is not univariate")
            out.append(parts[k].constant_value())
        else:
            out.append(Fraction(0))
    return out


def is_palindromic(coeffs) -> bool:
    return list(coeffs) == list(reversed(list(coeffs)))


def polynomial_zeros(p: MultiPoly, tol: float = 1e-8) -> ZerosReport:
    """All complex roots (companion-matrix eigenvalues + one Newton step)
    with the two symmetry reports used for the zero-distribution export.

    The Newton step is one array pass: f and f' at every root by one
    np.polyval each, stepped where f' != 0. A root is conjugate-paired
    (inversion-paired) when the least distance from conj(z) (1/conj(z)) to
    a root, read from one n x n distance array, is below tol (tol scaled
    by max(1, |1/conj(z)|))."""
    import numpy as np
    coeffs = coefficient_list(p)
    if all(c == 0 for c in coeffs):
        raise ValueError("zero polynomial")
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    deg = len(coeffs) - 1
    if deg < 1:
        raise ValueError("need degree >= 1")
    arr = np.array([float(c) for c in reversed(coeffs)], dtype=float)
    roots = np.roots(arr)  # float64 when every root is real, else complex128
    fr = np.polyval(arr, roots)
    fpr = np.polyval(np.polyder(arr), roots)
    step = fpr != 0
    roots[step] -= fr[step] / fpr[step]
    polished = sorted(map(complex, roots.tolist()),
                      key=lambda z: (z.real, z.imag))
    zs = np.array(polished)
    conj_ok = np.abs(zs[None, :] - zs.conj()[:, None]).min(axis=1) < tol
    small = np.abs(zs) < tol
    # 1/conj(z) by Python's complex division, which rounds unlike numpy's
    target = np.array([0j if s else 1 / z.conjugate()
                       for z, s in zip(polished, small)])
    near = np.abs(zs[None, :] - target[:, None]).min(axis=1)
    inv_ok = small | (near < tol * np.maximum(1.0, np.abs(target)))
    return ZerosReport(degree=deg, roots=polished, conj_paired=conj_ok.tolist(),
                       inversion_paired=inv_ok.tolist(),
                       palindromic=is_palindromic(coeffs))
