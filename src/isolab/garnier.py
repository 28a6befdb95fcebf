"""Algebraic Garnier solutions from triangular 2x2 Schlesinger data.

A traceless triangular solution with M + 2 poles (a_1..a_M, 0, 1) determines

    P_M(z, a) = prod_i (z - a_i) * sum_i b_i(a)/(z - a_i),

a degree-M polynomial in z whose roots u_1..u_M, together with the momenta
v_j built from a sign vector eps, solve the M-variable Garnier system. The
b_i layer is exact: both b-vectors are Schlesinger class entries at these
poles. The (u, v) layer and the Hamiltonian verification are numeric, since
the roots are algebraic in a. The M = 2 Hamiltonians are implemented
explicitly; for larger M only the exact layers are built and checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isfinite

import numpy as np

from .algebra import (MultiPoly, RatFunc, poly_gcd, to_rational,
                      truncated_product)
from .schlesinger import (SCHEMA_VERSION, HypothesisError, default_variables,
                          _check, _poly_class_entries, _rational_class_entries)

__all__ = ["GarnierSpec", "GarnierAlgebraicSolution", "HypothesisError",
           "pm_polynomial", "thm10_solution", "thm11_family",
           "residue_basis_vector", "u_roots", "v_momenta", "theta_from_eps",
           "garnier_residual_m2", "check_m2_inputs"]


@dataclass(frozen=True)
class GarnierSpec:
    """Garnier system label G_M(theta_1..theta_{M+2}, theta_inf)."""
    M: int
    theta: tuple
    theta_inf: Fraction
    eps: tuple

    def __post_init__(self):
        _check_lengths(self.M, self.theta, self.eps)
        _check_signs(self.eps)


def theta_from_eps(betas, eps, beta_inf) -> GarnierSpec:
    """theta_i = 2 eps_i beta_i, theta_inf = 2 beta_inf - 1."""
    betas = [to_rational(b) for b in betas]
    eps = tuple(int(e) for e in eps)
    theta = tuple(2 * e * b for e, b in zip(eps, betas))
    return GarnierSpec(M=len(betas) - 2, theta=theta,
                       theta_inf=2 * to_rational(beta_inf) - 1, eps=eps)


@dataclass
class GarnierAlgebraicSolution:
    """Exact b-vector plus the data needed for numeric verification.

    The b-vector is treated as immutable after construction: b over its lcm
    and P_M are built from it once and kept on the instance, and so are the
    float beta_i and theta_inf and the roots of P_M at each a-point where
    garnier_residual_m2 solved it. A b that names a variable outside
    a_1..a_M raises ValueError."""
    M: int
    b: list                    # M + 2 entries, RatFunc in a_1..a_M
    betas: list                # the M + 2 eigenvalues beta_i
    beta_inf: Fraction
    provenance: dict = field(default_factory=dict)
    _pm: list = field(default=None, init=False, repr=False, compare=False)
    _floats: tuple = field(default=None, init=False, repr=False, compare=False)
    _roots: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)  # a-point tuple -> roots of P_M

    def __post_init__(self):
        b = [RatFunc._coerce(bi) for bi in self.b]
        foreign = sorted({v for bi in b for v in bi.variables}
                         - set(default_variables(self.M)))
        if foreign:
            raise ValueError(f"garnier-algebraic document's b names "
                             f"{', '.join(foreign)}, outside a1..a{self.M}")
        self._lcm = _over_lcm(b)

    def sum_b(self) -> RatFunc:
        nums, L = self._lcm
        return RatFunc(sum(nums, MultiPoly.zero()), L)

    def pm_coefficients(self) -> list:
        """Coefficients of P_M, ascending in z; built on the first call.

        Returns a fresh list each time, so callers cannot alter the cache."""
        if self._pm is None:
            self._pm = pm_polynomial(self._lcm, _points(self.M))
        return list(self._pm)

    def _float_constants(self) -> tuple:
        """(float beta_i, float theta_inf), taken once from the exact values.

        The theta_i = 2 eps_i beta_i are then exact in float: scaling a
        correctly rounded float by +-2 rounds nothing."""
        if self._floats is None:
            _check_lengths(self.M, self.betas)
            self._floats = (tuple(float(to_rational(b)) for b in self.betas),
                            float(2 * to_rational(self.beta_inf) - 1))
        return self._floats

    def spec_for(self, eps) -> GarnierSpec:
        return theta_from_eps(self.betas, eps, self.beta_inf)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "garnier-algebraic",
            "provenance": {k: str(v) for k, v in self.provenance.items()},
            "M": self.M,
            "betas": [str(b) for b in self.betas],
            "beta_inf": str(self.beta_inf),
            "b": [bi.to_text() for bi in self.b],
            "pm_coefficients": [c.to_text() for c in self.pm_coefficients()],
        }


def _over_lcm(b):
    """(num_i, L): b_i = num_i / L over the lcm L; sum_b and P_M sum these."""
    b = [RatFunc._coerce(bi) for bi in b]
    L = MultiPoly.const(1)
    for bi in b:
        if not bi.is_zero():
            L = L * bi.den.divexact(poly_gcd(L, bi.den))
    return [bi.num * L.divexact(bi.den) for bi in b], L


def pm_polynomial(b, poles) -> list:
    """Coefficients (ascending in z) of prod_i (z - a_i) sum_i b_i/(z - a_i).

    b is the list of the b_i or their (num_i, L) from _over_lcm. Requires
    sum_i b_i = 0 exactly, otherwise the degree-(M+1) term leaks. The poles
    must be polynomials. Fraction-free: the numerators over the lcm L are
    accumulated and each coefficient is reduced once, as num_k / L."""
    poles = [RatFunc._coerce(p) for p in poles]
    if not all(p.is_poly() for p in poles):
        raise ValueError("poles must be polynomials in a")
    poles = [p.num for p in poles]  # a reduced polynomial RatFunc has den 1
    nums, L = b if isinstance(b, tuple) else _over_lcm(b)
    if not sum(nums, MultiPoly.zero()).is_zero():
        raise ValueError("sum of b_i must vanish identically")
    npoles = len(poles)
    coeffs = [MultiPoly.zero()] * (npoles - 1)  # the z^(npoles-1) term is the sum
    for i, ni in enumerate(nums):
        if ni.is_zero():
            continue
        # prod_{j != i} (z - a_j), expanded in z
        prod = truncated_product([[-aj, MultiPoly.const(1)] for j, aj
                                  in enumerate(poles) if j != i], npoles - 1)
        for k in range(npoles - 1):
            coeffs[k] = coeffs[k] + ni * prod[k]
    return [RatFunc(c, L) for c in coeffs]


# ---------------------------------------------------------------------------
# builders


def thm10_solution(M: int, m: int, n: int) -> GarnierAlgebraicSolution:
    """Polynomial b-vector for n > 0, m > 1 dividing M + 2 (residues at the
    m points over z = infinity); beta_i = n/(2m). It is the 2 x 2
    Schlesinger class entry at the poles (a_1..a_M, 0, 1)."""
    _check(M >= 1, "hypothesis M >= 1 fails")
    _check(n > 0, "hypothesis n > 0 fails")
    _check(m > 1, "hypothesis m > 1 fails")
    _check(gcd(n, m) == 1, "hypothesis gcd(n, m) = 1 fails")
    _check((M + 2) % m == 0, f"hypothesis fails: m = {m} does not divide M + 2 = {M + 2}")
    b = [RatFunc.from_poly(e) for e in
         _poly_class_entries(_points(M), (M + 2) // m * n, Fraction(n, m))]
    betas = [Fraction(n, 2 * m)] * (M + 2)
    beta_inf = -Fraction((M + 2) * n, 2 * m)
    return GarnierAlgebraicSolution(M=M, b=b, betas=betas, beta_inf=beta_inf,
                                    provenance={"theorem": "garnier-polynomial",
                                                "M": M, "m": m, "n": n})


def _points(M: int) -> list:
    """The poles (a_1..a_M, 0, 1)."""
    return ([MultiPoly.var(v) for v in default_variables(M)]
            + [MultiPoly.zero(), MultiPoly.const(1)])


def _residue_basis(M: int, n: int, j: int) -> list:
    """The rational class entry (d = -n) at the pole (a_j, 0) of the points
    (a_1..a_M, 0, 1), factored over the linear gaps a_j - a_h."""
    _check(n < 0, "hypothesis n < 0 fails")
    _check(1 <= j <= M + 1, "basis pole index out of range")
    points = _points(M)
    gaps = {h: points[j - 1] - a for h, a in enumerate(points, 1) if h != j}
    return _rational_class_entries(gaps, [-n], j)[0]


def residue_basis_vector(M: int, n: int, j: int) -> list:
    """The M + 2 residues of the rational family at the pole (a_j, 0) for
    m = 1, n < 0, with a_{M+1} = 0, a_{M+2} = 1, as reduced RatFuncs."""
    return [e.to_ratfunc() for e in _residue_basis(M, n, j)]


def thm11_family(M: int, n: int, coefficients) -> GarnierAlgebraicSolution:
    """M-parameter rational b-vector for n < 0 (m = 1):
    b = sum_j c_j b^{(j)} + b^{(M+1)}, the b^{(j)} being the residue vectors
    at the punctures (a_1, 0)..(a_M, 0) and (0, 0)."""
    _check(M >= 1, "hypothesis M >= 1 fails")
    _check(n < 0, "hypothesis n < 0 fails")
    coefficients = [to_rational(c) for c in coefficients]
    _check(len(coefficients) == M, "need M coefficients")
    basis = [_residue_basis(M, n, j) for j in range(1, M + 2)]
    # summed over the linear gap factors, each b_i canonicalised once
    b = [sum((c * vec[i] for c, vec in zip(coefficients, basis)),
             basis[M][i]).to_ratfunc() for i in range(M + 2)]
    betas = [Fraction(n, 2)] * (M + 2)
    beta_inf = -Fraction((M + 2) * n, 2)
    return GarnierAlgebraicSolution(M=M, b=b, betas=betas, beta_inf=beta_inf,
                                    provenance={"theorem": "garnier-rational",
                                                "M": M, "n": n,
                                                "coefficients": coefficients})


# ---------------------------------------------------------------------------
# numeric layer


@dataclass
class RootResult:
    roots: list
    degree_dropped: bool
    multiple: bool


def u_roots(pm_coeffs, a_numeric) -> RootResult:
    """Roots of P_M(z, a) at a numeric a-point, deterministically ordered.

    M = 2 uses the quadratic formula; higher degrees use the companion
    matrix. A vanishing leading coefficient is reported (degree drop) and the
    lower-degree roots are returned flagged."""
    vals = [complex(c.evaluate({f"a{k+1}": complex(x)
                                for k, x in enumerate(a_numeric)}))
            if isinstance(c, RatFunc) else complex(c)
            for c in pm_coeffs]
    while len(vals) > 1 and abs(vals[-1]) < 1e-10:
        vals.pop()
    dropped = len(vals) != len(pm_coeffs)
    deg = len(vals) - 1
    if deg == 0:
        return RootResult([], dropped, False)
    if deg == 1:
        roots = [-vals[0] / vals[1]]
    elif deg == 2:
        c0, c1, c2 = vals
        disc = c1 * c1 - 4 * c2 * c0
        sq = complex(np.sqrt(complex(disc)))
        # the numerically stable split
        if abs(-c1 + sq) >= abs(-c1 - sq):
            r1 = (-c1 + sq) / (2 * c2)
        else:
            r1 = (-c1 - sq) / (2 * c2)
        roots = ([complex(r1), complex(c0 / (c2 * r1))] if abs(r1) > 1e-10
                 else [complex(r1), complex(-c1 / c2 - r1)])
    else:
        roots = [complex(r) for r in np.roots([v for v in reversed(vals)])]
    roots.sort(key=lambda z: (round(z.real, 12), round(z.imag, 12)))
    multiple = any(abs(roots[i] - roots[i + 1]) < 1e-9
                   for i in range(len(roots) - 1))
    if multiple:
        kept = []
        for r in roots:
            if not kept or abs(r - kept[-1]) >= 1e-9:
                kept.append(r)
        roots = kept
    return RootResult(roots, dropped, multiple)


def v_momenta(u, betas, eps, a_numeric) -> list:
    """v_j = sum_i (1 + eps_i) beta_i / (u_j - a_i) over the M + 2 poles
    (a_1..a_M, 0, 1); each weight (1 + eps_i) beta_i is formed in float."""
    poles = [complex(x) for x in a_numeric] + [0j, 1 + 0j]
    weights = [(1 + e) * float(beta) for beta, e in zip(betas, eps)]
    out = []
    for uj in u:
        val = 0j
        for pi, w in zip(poles, weights):
            gap = uj - pi
            if abs(gap) < 1e-12:
                raise ZeroDivisionError(f"root {uj} collides with pole {pi}")
            val += w / gap
        out.append(val)
    return out


# -- the M = 2 Hamiltonians (explicit) --------------------------------------
#
#   H_k = -lam(a_k)/T'(a_k) * sum_j T(u_j)/((u_j - a_k) lam'(u_j))
#                               * (v_j^2 - S_kj v_j + kappa/(u_j (u_j - 1))),
#   S_kj = sum_i (theta_i - delta_ik)/(u_j - a_i),
#
# with lam(x) = (x - u_1)(x - u_2) and T(x) = x(x - 1)(x - a_1)(x - a_2).
# H_k is quadratic in v with coefficients that depend on u only, so it is
# split into its u-dependent parts (_u_parts) and their value at v (_at_v).


def _lam(x, u):
    return (x - u[0]) * (x - u[1])


def _T(x, a):
    return x * (x - 1) * (x - a[0]) * (x - a[1])


def _T_prime(x, a):
    # derivative of x(x-1)(x-a1)(x-a2)
    a1, a2 = a
    # T = x^4 - (1+a1+a2)x^3 + (a1+a2+a1a2)x^2 - a1a2 x
    c3 = -(1 + a1 + a2)
    c2 = a1 + a2 + a1 * a2
    c1 = -a1 * a2
    return 4 * x ** 3 + 3 * c3 * x ** 2 + 2 * c2 * x + c1


def _k_constants(which: int, a, th) -> tuple:
    """What H_{which + 1} takes from neither u nor v: a_k, T'(a_k) and the
    thetas less delta_ik."""
    ak = a[which]
    shifted = (th[0] - (1 if which == 0 else 0),
               th[1] - (1 if which == 1 else 0), th[2], th[3])
    return ak, _T_prime(ak, a), shifted


def _u_parts(kc, a, u, kappa) -> tuple:
    """The prefactor of H_k and, per j, T(u_j)/((u_j - a_k) lam'(u_j)), S_kj
    and kappa/(u_j (u_j - 1))."""
    ak, tp, th = kc
    terms = []
    for j in (0, 1):
        uj = u[j]
        lamp = uj - u[1 - j]
        s = (th[0] / (uj - a[0]) + th[1] / (uj - a[1]) + th[2] / uj
             + th[3] / (uj - 1))
        terms.append((_T(uj, a) / ((uj - ak) * lamp), s,
                      kappa / (uj * (uj - 1))))
    return -_lam(ak, u) / tp, terms


def _at_v(parts, v) -> complex:
    pref, terms = parts
    total = 0j
    for (c, s, q), vj in zip(terms, v):
        total += c * (vj ** 2 - s * vj + q)
    return pref * total


def _hamiltonian_m2(kc, a, u, v, kappa) -> complex:
    """H_k at complex a, u and v, given _k_constants(k - 1, a, theta)."""
    return _at_v(_u_parts(kc, a, u, kappa), v)


def _check_lengths(M: int, *vectors):
    if any(len(v) != M + 2 for v in vectors):
        raise ValueError("need M + 2 thetas and signs")


def _check_signs(*eps_vectors):
    if any(e not in (1, -1) for eps in eps_vectors for e in eps):
        raise ValueError("eps entries must be +-1")


def check_m2_inputs(M: int, a_point, eps_vectors=()):
    """The input rules of garnier_residual_m2, each a ValueError: M = 2, an
    a-point of two coordinates and sign vectors of M + 2 entries +-1."""
    if M != 2:
        raise ValueError("explicit Hamiltonians are implemented for M = 2 only")
    if len(a_point) != 2:
        raise ValueError(f"M = 2 needs an a-point with 2 coordinates, "
                         f"got {len(a_point)}")
    _check_lengths(M, *eps_vectors)
    _check_signs(*eps_vectors)


def garnier_residual_m2(solution: GarnierAlgebraicSolution, a_numeric,
                        eps) -> float:
    """Max absolute residual of the 8 Hamilton equations at an a-point.

    du_i/da_k and dv_i/da_k come from central differences with nearest-root
    tracking; dH_k/du_i and dH_k/dv_i from central differences of the
    explicit Hamiltonians. A residual that is not finite raises
    ArithmeticError: max() would drop a NaN and read it as a pass. Inputs
    that break check_m2_inputs raise ValueError before P_2 is evaluated, an
    a-point at which P_2 has fewer than two roots or overflows float64 too.

    The roots u do not depend on eps, so the sign vectors at one a-point
    share one u_roots call per point of the stencil (a0 and a0 +- h e_k):
    the solution records each successful solve under the exact a-tuple.
    The momenta v, the matching to the roots at a0 and every raise are
    still worked out on each call. The float thetas equal float(2 eps_i
    beta_i), and the dH_k/dv_i differences share the parts of H_k at u0."""
    check_m2_inputs(solution.M, a_numeric, [eps])
    a0 = [complex(x) for x in a_numeric]
    eps = [int(e) for e in eps]
    betas, theta_inf = solution._float_constants()
    th = [2 * e * b + 0.0 for e, b in zip(eps, betas)]  # as float(0), not -0.0
    kappa = ((sum(th) - 1) ** 2 - theta_inf ** 2) / 4
    pm = solution.pm_coefficients()
    h = 1e-5  # the central-difference step

    def uv(a, base=None):  # at a0, or beside it matched to the base roots
        key = tuple(a)
        u = solution._roots.get(key)
        if u is None:
            try:
                u = u_roots(pm, a).roots
            except OverflowError:
                if base is not None:
                    raise
                raise ValueError(f"P_2 overflows float64 at a = {a}") from None
            solution._roots[key] = u
        if len(u) < 2:  # also where P_2 drops degree
            if base is not None:
                raise ArithmeticError(f"root collision near a = {a}")
            raise ValueError(f"P_2 degenerates at a = {a}; pick a generic point")
        if base is not None and not (abs(u[0] - base[0]) + abs(u[1] - base[1])
                                     <= abs(u[1] - base[0]) + abs(u[0] - base[1])):
            u = [u[1], u[0]]
        return u, v_momenta(u, betas, eps, a)

    u0, v0 = uv(a0)
    worst = 0.0
    for k in (0, 1):
        ap = list(a0); ap[k] += h
        am = list(a0); am[k] -= h
        up, vp = uv(ap, u0)
        um, vm = uv(am, u0)
        du = [(up[i] - um[i]) / (2 * h) for i in (0, 1)]
        dv = [(vp[i] - vm[i]) / (2 * h) for i in (0, 1)]
        kc = _k_constants(k, a0, th)
        at_u0 = _u_parts(kc, a0, u0, kappa)
        for i in (0, 1):
            dH_dv = _fd_partial(lambda vv, i=i: _at_v(
                at_u0, _replace(v0, i, vv)), v0[i], h)
            dH_du = _fd_partial(lambda uu, i=i: _hamiltonian_m2(
                kc, a0, _replace(u0, i, uu), v0, kappa), u0[i], h)
            res = (abs(du[i] - dH_dv), abs(dv[i] + dH_du))
            if not (isfinite(res[0]) and isfinite(res[1])):
                raise ArithmeticError(
                    f"Hamilton residual is not finite at a = {a_numeric}")
            worst = max(worst, *res)
    return worst


def _replace(seq, i, val):
    out = list(seq)
    out[i] = val
    return out


def _fd_partial(f, z0, h):
    return (f(z0 + h) - f(z0 - h)) / (2 * h)
