"""Triangular Schlesinger solutions and their exact verification.

The builders implement the closed-form residue expressions for the two
solution families (polynomial entries for n > 0 with gcd(m, N) > 1, rational
entries for n < 0), exactly as printed, scaled by caller constants per
off-diagonal class l - k; the entries of a class are grades of one shared
product of binomial rows in t (algebra.truncated_product) times each pole's
geometric row (algebra.grade). The residual checker verifies the full PDE system

    dB_i/da_j = [B_i, B_j]/(a_i - a_j)   (j != i),
    dB_i/da_i = -sum_{j != i} [B_i, B_j]/(a_i - a_j),

including the bilinear cross terms feeding the inhomogeneity of each
off-diagonal layer, as exact rational-function identities.

The check shares work by object identity. In the families, entry b_i^{kl}
depends only on the class l - k, and equal-class entries are one object.
The rows of (k, l) read only the entries b_i^{kl}, b_i^{ks}, b_i^{sl}
(k < s < l) and the steps beta_i^k - beta_i^l, so pairs (k, l) that read
the same objects get one shared block of rows; within a block each
commutator is formed once per unordered pair of poles, and each derivative
of an entry at most once. Cross terms with the same two factors and opposite
signs cancel before any product is formed. This is sound for any solution,
perturbed or parsed: the same object has the same value, and a changed
entry is a new object with its own rows. The memos live for one call.

Each row (i, j) is multiplied through by its gap g = a_min(i,j) - a_max(i,j)
before any sum: db_i/da_j g - [B_min, B_max] has no gap in its den, and a
row is divided by g only if it is nonzero. Row (i, i) comes from the
translation identity: it is sum_h db_i/da_h - sum_{j != i} row (i, j),
exactly, and sum_h d/da_h is zero on every entry of the shifted frame
below, so a solution whose off-diagonal rows vanish there needs no
diagonal work at all, and no row of pole i there reads db_i/da_i.

Solutions built around a single pole nu keep their entries in shifted
coordinates D_h = a_nu - a_h, where every denominator is a monomial; this is
only a representation choice (the map is a ring embedding), and entries are
converted back to rational functions of a_1..a_N once each, when printed.
With the rows multiplied through by their gaps, every den the shifted
frame's residual meets is a monomial, which FactoredFrac sums and
differentiates by shifting packed keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .algebra import (MultiPoly, RatFunc, FactoredFrac, binomials, grade,
                       to_rational, truncated_product)

SCHEMA_VERSION = 1  # of every JSON document isolab writes or reads


class HypothesisError(ValueError):
    """A theorem hypothesis is violated; the message names it."""


def default_variables(N: int):
    return tuple(f"a{i}" for i in range(1, N + 1))


# ---------------------------------------------------------------------------
# exponent grids


@dataclass(frozen=True)
class ExponentGrid:
    """Eigenvalue table beta[i-1][k-1] = beta_i^k with a common rational step."""

    p: int
    N: int
    beta: tuple

    def __post_init__(self):
        if len(self.beta) != self.N or any(len(row) != self.p for row in self.beta):
            raise ValueError("beta table must be N rows of p eigenvalues")
        steps = {row[k] - row[k + 1] for row in self.beta for k in range(self.p - 1)}
        if self.p > 1 and len(steps) != 1:
            raise ValueError("eigenvalues must form arithmetic progressions "
                             "with one common difference")

    @classmethod
    def traceless(cls, p: int, N: int, m: int, n: int) -> "ExponentGrid":
        """beta_i^k = ((p+1)/2 - k) * n/m, the trace-free progression."""
        q = Fraction(n, m)
        row = tuple((Fraction(p + 1, 2) - k) * q for k in range(1, p + 1))
        return cls(p, N, tuple(row for _ in range(N)))

    def value(self, i: int, k: int) -> Fraction:
        return self.beta[i - 1][k - 1]


def tau_exponents(grid: ExponentGrid):
    """alpha_{ij} = sum_k beta_i^k beta_j^k; tau(a) = prod (a_i-a_j)^alpha_{ij}."""
    N = grid.N
    return [[sum((grid.beta[i][k] * grid.beta[j][k] for k in range(grid.p)),
                 Fraction(0))
             for j in range(N)] for i in range(N)]


# ---------------------------------------------------------------------------
# coordinate frames


class IdentityFrame:
    """Entries are rational functions of the pole positions themselves."""

    def __init__(self, variables):
        self.variables = tuple(variables)

    def derivative(self, f: FactoredFrac, h: int) -> FactoredFrac:
        """df/da_h."""
        return f.partial(self.variables[h - 1])

    def drift(self, f: FactoredFrac, derivative) -> FactoredFrac:
        """sum_h df/da_h, the derivative of f when every pole moves by the
        same amount, summed from derivative(f, h) (a caller's memo)."""
        return sum((derivative(f, h) for h in range(1, len(self.variables) + 1)),
                   FactoredFrac.zero())

    def gap(self, i: int, j: int) -> MultiPoly:
        return MultiPoly.var(self.variables[i - 1]) - MultiPoly.var(self.variables[j - 1])

    def to_a(self, f: FactoredFrac) -> RatFunc:
        return f.to_ratfunc()

    def factored(self, num: MultiPoly, den: MultiPoly) -> FactoredFrac:
        """num/den with den split into powers of the gaps a_i - a_j.

        The factors are the primitive gaps that the residual's 1/(a_i - a_j)
        uses, so parsed entries take part in sums by small deficits only. A
        cofactor that is no product of gaps stays behind as one more factor;
        the value is num/den exactly in every case, reduced or not."""
        if den.is_zero():
            raise ZeroDivisionError("entry with zero denominator")
        rest = den
        gaps = {}
        N = len(self.variables)
        for i in range(1, N + 1):
            for j in range(i + 1, N + 1):
                g = self.gap(i, j).primitive()
                q = rest.divexact(g)
                while q is not None:
                    gaps[g] = gaps.get(g, 0) + 1
                    rest = q
                    q = rest.divexact(g)
        out = FactoredFrac.quotient(num, rest)
        return FactoredFrac(out.num, {**out.den, **gaps})


class ShiftedFrame:
    """Entries are rational functions of D_h = a_nu - a_h (h != nu)."""

    def __init__(self, variables, nu: int):
        self.variables = tuple(variables)
        self.nu = nu
        self.dvars = {h + 1: f"_D{h + 1}" for h in range(len(variables)) if h + 1 != nu}

    def dvar(self, h: int) -> MultiPoly:
        return MultiPoly.var(self.dvars[h])

    def derivative(self, f: FactoredFrac, h: int) -> FactoredFrac:
        """df/da_h. d/da_h = -d/dD_h for h != nu, and every D_h holds a_nu
        with coefficient +1, so d/da_nu is the sum of the N - 1 partials
        d/dD_h (one pass when the dens are monomials)."""
        if h != self.nu:
            return -f.partial(self.dvars[h])
        return f.partial(*self.dvars.values())

    def drift(self, f: FactoredFrac, derivative) -> FactoredFrac:
        """sum_h df/da_h, zero: every entry is a function of the differences
        D_h, which a common move of all poles leaves fixed."""
        return FactoredFrac.zero()

    def gap(self, i: int, j: int) -> MultiPoly:
        if i == self.nu:
            return self.dvar(j)
        if j == self.nu:
            return -self.dvar(i)
        return self.dvar(j) - self.dvar(i)

    def to_a(self, f: FactoredFrac) -> RatFunc:
        subs = {name: (MultiPoly.var(self.variables[self.nu - 1])
                       - MultiPoly.var(self.variables[h - 1]))
                for h, name in self.dvars.items()}

        def in_a(poly):
            for name, val in subs.items():
                poly = poly.substitute(name, val)
            return poly

        out = FactoredFrac.from_poly(in_a(f.num))
        for fac, e in f.den.items():
            out = out * FactoredFrac.quotient(MultiPoly.const(1), in_a(fac), e)
        return out.to_ratfunc()


# ---------------------------------------------------------------------------
# the solution container


class TriangularSolution:
    """N upper-triangular p x p matrices with constant diagonal exponents."""

    def __init__(self, grid: ExponentGrid, entries: dict, frame,
                 provenance: dict = None):
        self.grid = grid
        self.p = grid.p
        self.N = grid.N
        self.entries = entries  # (i, k, l) -> FactoredFrac
        self.frame = frame
        self.provenance = provenance or {}

    def entry(self, i: int, k: int, l: int) -> FactoredFrac:
        if not (1 <= k < l <= self.p):
            raise ValueError("need 1 <= k < l <= p")
        return self.entries[(i, k, l)]

    def entry_ratfunc(self, i: int, k: int, l: int) -> RatFunc:
        """Entry as a reduced rational function of a_1..a_N."""
        return self.frame.to_a(self.entry(i, k, l))

    def with_entry(self, i: int, k: int, l: int, value) -> "TriangularSolution":
        entries = dict(self.entries)
        entries[(i, k, l)] = FactoredFrac._coerce(value)
        prov = dict(self.provenance)
        prov["perturbed"] = (i, k, l)
        return TriangularSolution(self.grid, entries, self.frame, prov)

    def to_json_dict(self) -> dict:
        texts = {id(v): v for v in self.entries.values()}  # one per object
        texts = {k: self.frame.to_a(v).to_text() for k, v in texts.items()}
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "triangular-schlesinger",
            "provenance": {k: str(v) for k, v in self.provenance.items()},
            "p": self.p,
            "N": self.N,
            "variables": list(self.frame.variables),
            "exponents": [[str(b) for b in row] for row in self.grid.beta],
            "entries": {f"{i},{k},{l}": texts[id(v)]
                        for (i, k, l), v in sorted(self.entries.items())},
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TriangularSolution":
        """Parse a document; ValueError names what is malformed. Entries are
        split into gap powers (IdentityFrame.factored) on the way in, with
        no gcd: the residual needs only their exact values. Each distinct
        entry text is parsed once, so equal texts become one object and
        share their residual rows."""
        from .algebra import parse_fraction
        p, N, variables = doc["p"], doc["N"], doc["variables"]
        if p < 1 or N < 1:
            raise ValueError("triangular-schlesinger document needs p >= 1 "
                             "and N >= 1")
        if len(variables) != N or len(set(variables)) != N:
            raise ValueError(f"triangular-schlesinger document needs {N} "
                             f"distinct variable names, got {variables}")
        grid = ExponentGrid(p, N, tuple(tuple(Fraction(b) for b in row)
                                        for row in doc["exponents"]))
        frame = IdentityFrame(variables)
        entries, parsed = {}, {}
        for key, text in doc["entries"].items():
            parts = key.split(",")
            ikl = tuple(int(t) for t in parts if t.isdecimal())
            if len(parts) != 3 or len(ikl) != 3 or not (
                    1 <= ikl[0] <= N and 1 <= ikl[1] < ikl[2] <= p):
                raise ValueError(f"bad entry key {key!r}: want i,k,l with "
                                 f"1 <= i <= {N} and 1 <= k < l <= {p}")
            if ikl in entries:
                raise ValueError(f"entry {key!r} is given twice")
            if text not in parsed:
                parsed[text] = frame.factored(*parse_fraction(text))
            entries[ikl] = parsed[text]
        # the first missing key, without listing all N p (p - 1) / 2 of them
        missing = next(((i, k, l) for i in range(1, N + 1)
                        for k in range(1, p + 1) for l in range(k + 1, p + 1)
                        if (i, k, l) not in entries), None)
        if missing:
            raise ValueError(f"triangular-schlesinger document lacks entry "
                             f"'{','.join(map(str, missing))}'")
        provenance = doc.get("provenance", {})
        if not isinstance(provenance, dict):
            raise ValueError("triangular-schlesinger document's provenance "
                             "must be a JSON object")
        return cls(grid, entries, frame, dict(provenance))


# ---------------------------------------------------------------------------
# builders


def _check(cond: bool, message: str):
    if not cond:
        raise HypothesisError(message)


def _class_entries(p: int, N: int, constants, class_values):
    """(entries, constants as a list) of a family whose b_i^{kl} depends
    only on i and the class L = l - k: class_values(L) is the N unscaled
    entries of class L, or None for a zero class; the caller's constants
    (all 1 by default) scale each class, and equal-class entries are one
    object."""
    constants = list(constants or [Fraction(1)] * (p - 1))
    _check(len(constants) == p - 1, "need one constant per off-diagonal class")
    entries = {}
    for L in range(1, p):
        vals = class_values(L)
        if vals is None:
            vals = [FactoredFrac.zero() for _ in range(N)]
        else:
            const = to_rational(constants[L - 1])
            vals = vals if const == 1 else [v * const for v in vals]
        for k in range(1, p - L + 1):
            for i in range(1, N + 1):
                entries[(i, k, k + L)] = vals[i - 1]
    return entries, constants


def build_polynomial_solution(p: int, N: int, m: int, n: int,
                              constants=None) -> TriangularSolution:
    """Polynomial triangular family for n > 0 (residues at infinity points).

    Nonzero classes are those l - k with (l-k)s/m integer and (l-k)/m not;
    each entry is the printed combinatorial sum of degree (l-k)(n/m)N, scaled
    by the caller's per-class constant.
    """
    from math import gcd
    _check(n > 0, "hypothesis n > 0 fails")
    _check(m > 1, "hypothesis m > 1 fails")
    _check(gcd(n, m) == 1, "hypothesis gcd(n, m) = 1 fails")
    s = gcd(m, N)
    _check(s > 1, f"hypothesis s = gcd(m, N) > 1 fails (s = {s})")
    _check(any((s * j) % m == 0 and j % m != 0 for j in range(1, p)),
           "hypothesis fails: no class j <= p-1 with sj/m integer and j/m not")
    variables = default_variables(N)
    points = [MultiPoly.var(v) for v in variables]
    entries, constants = _class_entries(
        p, N, constants, lambda L: None if (s * L) % m or L % m == 0 else
        [FactoredFrac.from_poly(q) for q in _poly_class_entries(
            points, N // s * (L * n * s // m), Fraction(L * n, m))])
    return TriangularSolution(ExponentGrid.traceless(p, N, m, n), entries,
                              IdentityFrame(variables),
                              {"theorem": "polynomial-family", "p": p, "N": N,
                               "m": m, "n": n, "constants": constants})


def _poly_class_entries(points, r, exponent) -> list:
    """The class entries at every pole a_i of `points`:

        sum_{k_1+..+k_N+q = r} (-1)^q binom(exponent, k_1)...binom(exponent, k_N)
            a_1^{k_1}...a_N^{k_N} a_i^q,

    the t^r coefficient of prod_h (1 + a_h t)^exponent / (1 + a_i t). The
    N-fold product is formed once, truncated at grade r, from one binomial
    row; each entry is then grade r of it times the geometric row
    sum_q (-a_i)^q t^q. The points are polynomials: variables, or constants
    such as the poles 0 and 1 of the Garnier b-vector."""
    row = binomials(exponent, r)
    acc = truncated_product([[a ** k * b for k, b in enumerate(row)]
                             for a in points], r)
    return [grade(acc, [(-a) ** q for q in range(r + 1)], r) for a in points]


def build_rational_solution(p: int, N: int, m: int, n: int,
                            constants=None, nu: int = 1) -> TriangularSolution:
    """Rational triangular family for n < 0 (residues at the branch point nu).

    Nonzero classes are those with m | (l-k); entries follow the printed
    residue sums and live in shifted coordinates D_h = a_nu - a_h internally.
    """
    from math import gcd
    _check(n < 0, "hypothesis n < 0 fails")
    _check(N >= 2, "hypothesis N >= 2 fails")
    _check(m >= 1, "hypothesis m > 0 fails")
    _check(gcd(-n, m) == 1, "hypothesis gcd(n, m) = 1 fails")
    _check(any(j % m == 0 for j in range(1, p)),
           f"hypothesis fails: no class j <= p-1 divisible by m = {m}")
    _check(1 <= nu <= N, "pole choice nu out of range")
    frame = ShiftedFrame(default_variables(N), nu)
    ds = {L: L * (-n) // m for L in range(m, p, m)}  # the nonzero classes
    classes = dict(zip(ds, _rational_class_entries(
        {h: frame.dvar(h) for h in frame.dvars}, ds.values(), nu)))
    entries, constants = _class_entries(p, N, constants, classes.get)
    return TriangularSolution(ExponentGrid.traceless(p, N, m, n), entries,
                              frame,
                              {"theorem": "rational-family", "p": p, "N": N,
                               "m": m, "n": n, "nu": nu, "constants": constants})


def _rational_class_entries(gaps: dict, ds, nu: int) -> list:
    """For each d in ds, the N = len(gaps) + 1 printed residue sums of its
    class at (a_nu, 0) over powers of the polynomial gaps {h: a_nu - a_h}
    (D_h variables, or differences of Garnier poles). With R_h = sum_k
    binom(-d, k) D_h^{d-k} t^k, entry nu is grade d of prod_{h != nu} R_h
    over prod D_h^{2d}; entry i != nu is grade d - 1 of the shared product
    of the R_h / D_h times sum_q (-1)^q D_i^{d-1-q} t^q, over
    prod D_h^{2d-1} D_i^d. A gap's primitive part is its factor; its content
    (all of a constant gap such as 0 - 1) scales the numerator."""
    others = sorted(gaps)
    split = {h: gaps[h].split_content() for h in others}
    # a primitive gap stays its own key, as the shifted frame's D_h do
    keys = {h: gaps[h] if c == 1 else f for h, (f, c) in split.items()
            if not f.is_constant()}
    contents = {h: c for h, (_, c) in split.items() if c != 1}
    C = prod(contents.values())

    def over(num, d, i):
        # num / (prod_h D_h^e D_i^d), e = 2d for i = nu and 2d - 1 otherwise
        e = 2 * d - (i != nu)
        scale = C ** e * contents.get(i, 1) ** d
        return FactoredFrac(num if scale == 1 else num * (1 / scale),
                            {f: e + d * (h == i) for h, f in keys.items()})

    out = []
    for d in ds:
        row = binomials(-d, d)  # (-1)^k comb(d + k - 1, k)
        R = [[gaps[h] ** (d - k) * b for k, b in enumerate(row)] for h in others]
        entry_nu = over(grade(truncated_product(R[1:], d), R[0], d), d, nu)
        shared = truncated_product([[gaps[h] ** (d - 1 - k) * b
                                     for k, b in enumerate(row[:d])]
                                    for h in others], d - 1)
        out.append([entry_nu if i == nu else
                    over(grade(shared, [gaps[i] ** (d - 1 - q) * (-1) ** q
                                        for q in range(d)], d - 1), d, i)
                    for i in range(1, len(gaps) + 2)])
    return out


# ---------------------------------------------------------------------------
# verification


def commutator_entry(sol: TriangularSolution, i: int, j: int, k: int,
                     l: int) -> FactoredFrac:
    """[B_i, B_j]_{kl} for k < l, with constant diagonals beta. Its diagonal
    part b_j^{kl} (beta_i^k - beta_i^l) - b_i^{kl} (beta_j^k - beta_j^l) is
    (b_j^{kl} - b_i^{kl}) (beta_i^k - beta_i^l): every row of the grid steps
    by the same difference."""
    g = sol.grid
    out = ((sol.entry(j, k, l) - sol.entry(i, k, l))
           * (g.value(i, k) - g.value(i, l)))
    return out + cross_terms(sol, i, j, k, l)


def cross_terms(sol: TriangularSolution, i: int, j: int, k: int,
                l: int) -> FactoredFrac:
    """sum_{k<s<l} (b_i^{ks} b_j^{sl} - b_j^{ks} b_i^{sl}); this is the
    bilinear source of the inhomogeneity for the (k, l) layer and must vanish
    identically for families whose equal-(l-k) entries coincide.

    The signed products are collected on the unordered pair of ids of their
    factors, and only pairs whose signs do not sum to zero are multiplied.
    f*g = g*f exactly, so the pairs skipped contribute zero whatever the
    values: this is formal cancellation, not an assumption about the
    solution. In the paper's families equal-class entries are one object,
    so term s cancels term k + l - s before any product is formed; entries
    that are equal in value but distinct objects are multiplied and summed."""
    signs = {}
    for s in range(k + 1, l):
        for f, h, sign in ((sol.entry(i, k, s), sol.entry(j, s, l), 1),
                           (sol.entry(j, k, s), sol.entry(i, s, l), -1)):
            if f.is_zero() or h.is_zero():
                continue
            key = (id(f), id(h)) if id(f) <= id(h) else (id(h), id(f))
            signs[key] = (signs.get(key, (0,))[0] + sign, f, h)
    out = FactoredFrac.zero()
    for c, f, h in signs.values():
        if c:
            fh = f * h
            out = out + (fh if c == 1 else -fh if c == -1 else fh * c)
    return out


def schlesinger_residual(sol: TriangularSolution) -> dict:
    """Exact residuals of the full PDE system, as FactoredFrac values in the
    solution's frame (frame.to_a gives the canonical form in a_1..a_N).

    Keys (i, j, k, l) with j != i hold d b_i^{kl}/da_j - [B_i,B_j]_{kl}/(a_i-a_j);
    keys (i, i, k, l) hold d b_i^{kl}/da_i + sum_{j != i} [B_i,B_j]_{kl}/(a_i-a_j).
    All values are identically zero exactly when the solution satisfies the
    system.

    The signature of (k, l) is, for each i, id(b_i^{kl}), beta_i^k - beta_i^l
    and the ids of (b_i^{ks}, b_i^{sl}) for k < s < l: everything its rows
    read. Pairs with equal signatures share one block of rows (see the
    module docstring). [B_j,B_i]/(a_j-a_i) equals [B_i,B_j]/(a_i-a_j), so
    with g = a_min - a_max and C = [B_min, B_max]_{kl} formed once per
    unordered pair, row (i, j) times g is d b_i^{kl}/da_j g - C: no gap in
    any den, so over the shifted frame every den stays a monomial. A row is
    divided by g only when it is nonzero. Row (i, i) is
    sum_h d b_i^{kl}/da_h - sum_{j != i} row (i, j), and the frame's drift
    gives the first sum (zero on the shifted frame, which so forms no
    db_i/da_i). Each derivative is memoised on (entry id, pole); the memos
    hold ids of entries that sol.entries keeps alive for the whole call.
    """
    frame, grid = sol.frame, sol.grid
    N, p = sol.N, sol.p
    poles = range(1, N + 1)
    pairs = [(k, l) for k in range(1, p + 1) for l in range(k + 1, p + 1)]
    gaps = {(i, j): frame.gap(i, j) for i in poles for j in poles if i < j}
    derivatives, blocks = {}, {}

    def derivative(f, h):
        if (id(f), h) not in derivatives:
            derivatives[(id(f), h)] = frame.derivative(f, h)
        return derivatives[(id(f), h)]

    def block(k, l):
        comm = {ij: commutator_entry(sol, *ij, k, l) for ij in gaps}
        rows = {}
        for i in poles:
            f = sol.entry(i, k, l)
            own = frame.drift(f, derivative)
            for j in poles:
                if j != i:
                    ij = (min(i, j), max(i, j))
                    g = gaps[ij]
                    row = derivative(f, j) * g - comm[ij]
                    if not row.is_zero():
                        row = row * FactoredFrac.quotient(MultiPoly.const(1), g)
                        own = own - row
                    rows[(i, j)] = row
            rows[(i, i)] = own
        return rows

    rows = {}
    for (k, l) in pairs:
        sig = tuple((id(sol.entry(i, k, l)), grid.value(i, k) - grid.value(i, l),
                     tuple((id(sol.entry(i, k, s)), id(sol.entry(i, s, l)))
                           for s in range(k + 1, l)))
                    for i in poles)
        if sig not in blocks:
            blocks[sig] = block(k, l)
        rows[(k, l)] = blocks[sig]
    out = {}
    for i in poles:
        for j in poles:
            if j != i:
                for kl in pairs:
                    out[(i, j) + kl] = rows[kl][(i, j)]
        for kl in pairs:
            out[(i, i) + kl] = rows[kl][(i, i)]
    return out


def residual_is_zero(sol: TriangularSolution) -> bool:
    res = schlesinger_residual(sol)
    return all(v.is_zero() for v in res.values())


def sum_constraint(sol: TriangularSolution) -> dict:
    """sum_i b_i^{kl} per (k, l), as FactoredFrac values in the solution's
    frame; constant for solutions, zero for the residue-built families."""
    out = {}
    for k in range(1, sol.p + 1):
        for l in range(k + 1, sol.p + 1):
            tot = FactoredFrac.zero()
            for i in range(1, sol.N + 1):
                tot = tot + sol.entry(i, k, l)
            out[(k, l)] = tot
    return out
