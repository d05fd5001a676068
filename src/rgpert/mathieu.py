"""Parametric-resonance analysis of y'' + y + eps*(g + 2 cos t)*y = 0.

The detuning is carried as a series g = g1 + g2*eps + g3*eps^2 + ...;
the amplitude equation is linear, its square is a scalar matrix -omega^2,
and solving omega^2 = 0 order by order yields the two stability-band
edges a = 1 + eps*g of the conventional coupling a.
"""

from dataclasses import dataclass

from .algebra import (GaussianRational, ParamPolynomial, EpsilonSeries,
                      Rat, rat_sqrt, ZERO)
from .errors import (NotLinear, NotScalar, Underdetermined,
                     NonRationalRoot, RootNotBracketed)
from .potential import Potential
from .perturbation import expand
from .rg import derive_rg

_ZP = ParamPolynomial.zero()


def mathieu_potential(n_params):
    """V = -(g + 2 cos t) y with g = g1 + g2*eps + ... + g_J*eps^(J-1)."""
    params = tuple(f"g{j}" for j in range(1, n_params + 1))
    coeffs = {(1, 1, 0, 0): ParamPolynomial.const(-1),
              (-1, 1, 0, 0): ParamPolynomial.const(-1)}
    for j, name in enumerate(params, start=1):
        coeffs[(0, 1, 0, j - 1)] = -ParamPolynomial.var(name)
    return Potential(coeffs, params)


def linear_matrix(rgsys):
    """2x2 matrix M with d/dt (Ar, Br) = M (Ar, Br); NotLinear otherwise."""
    out = []
    for rhs in (rgsys.rhs_A, rgsys.rhs_B):
        row = [[], []]
        for c in rhs.coeffs:
            for amp, slot in (("Ar", 0), ("Br", 1)):
                row[slot].append(c.coefficient(amp, 1))
            leftover = (c - c.coefficient("Ar", 1) * ParamPolynomial.var("Ar")
                        - c.coefficient("Br", 1) * ParamPolynomial.var("Br"))
            if not leftover.is_zero():
                raise NotLinear("amplitude equation is not linear")
        out.append([EpsilonSeries(rhs.cap, row[0]),
                    EpsilonSeries(rhs.cap, row[1])])
    return out


def _mat_square(M):
    """M @ M with cap lifted by one (exact: M has no eps^0 part)."""
    cap = M[0][0].cap + 1
    for row in M:
        for entry in row:
            if not entry.coeffs[0].is_zero():
                raise NotScalar("amplitude matrix has an eps^0 part")
    E = [[entry.extend(cap) for entry in row] for row in M]
    return [[E[i][0] * E[0][j] + E[i][1] * E[1][j] for j in range(2)]
            for i in range(2)]


def omega_squared(Y):
    """-omega^2 is the scalar of M^2; asserts scalarness exactly.

    The returned series has cap Y.cap + 1 (exact because the amplitude
    matrix carries an explicit eps factor).
    """
    M = linear_matrix(derive_rg(Y))
    M2 = _mat_square(M)
    if not M2[0][1].is_zero() or not M2[1][0].is_zero():
        raise NotScalar("M^2 has nonzero off-diagonal entries")
    if M2[0][0] != M2[1][1]:
        raise NotScalar("M^2 diagonal entries differ")
    return -M2[0][0]


@dataclass(frozen=True)
class Branch:
    """One stability-boundary branch a = 1 + eps*g."""
    label: str
    g_values: dict          # parameter name -> Rat
    a_coeffs: tuple         # a = sum a_coeffs[j] * eps^j

    def a_series_str(self):
        parts = ["1"]
        for j, c in enumerate(self.a_coeffs):
            if j == 0 or not c:
                continue
            term = f"{abs(c)}*eps" if j == 1 else f"{abs(c)}*eps^{j}"
            parts.append(("- " if c < 0 else "+ ") + term)
        return " ".join(parts)

    def a_value(self, eps):
        return sum(float(c) * eps ** j for j, c in enumerate(self.a_coeffs))


def stability_boundaries(omega2, n_unknowns):
    """Solve omega^2 = 0 order by order for g1, g2, ...; returns the
    branches as a = 1 + eps*(g1 + g2*eps + ...)."""
    partials = [{}]
    unknowns = [f"g{j}" for j in range(1, n_unknowns + 1)]
    for order in range(omega2.cap + 1):
        coeff = omega2.coeffs[order]
        new_partials = []
        for assignment in partials:
            c = coeff.subs({k: GaussianRational(v)
                            for k, v in assignment.items()}).compact()
            if c.is_zero():
                new_partials.append(assignment)
                continue
            free = [v for v in unknowns
                    if v in c.vars and v not in assignment]
            if not free:
                raise Underdetermined(
                    f"order eps^{order} gives the nonzero constraint {c}")
            var = free[0]
            if any(v in c.vars and v != var for v in free[1:]):
                raise Underdetermined(
                    f"order eps^{order} couples several new unknowns: {c}")
            for root in _solve_univariate(c, var, order):
                new_assignment = dict(assignment)
                new_assignment[var] = root
                new_partials.append(new_assignment)
        partials = new_partials

    branches = []
    for assignment in partials:
        a_coeffs = [Rat(1)] + [assignment.get(v, None) for v in unknowns]
        # drop trailing unresolved orders
        while a_coeffs and a_coeffs[-1] is None:
            a_coeffs.pop()
        if any(c is None for c in a_coeffs):
            raise Underdetermined("gap in the resolved parameter sequence")
        branches.append(tuple(a_coeffs))
    branches = sorted(set(branches))
    if len(branches) == 1:
        labels = ["0"]
    elif len(branches) == 2:
        labels = ["-", "+"]
    else:
        labels = [str(i) for i in range(len(branches))]
    out = []
    for label, a_coeffs in zip(labels, branches):
        g_values = {v: a_coeffs[j]
                    for j, v in enumerate(unknowns, start=1)
                    if j < len(a_coeffs)}
        out.append(Branch(label, g_values, a_coeffs))
    return out


def _solve_univariate(c, var, order):
    """Rational roots of a degree<=2 polynomial constraint."""
    i = c.vars.index(var)
    deg = max(e[i] for e in c.terms)
    coef = [ZERO, ZERO, ZERO]
    for exps, v in c.items():
        if any(e for j, e in enumerate(exps) if j != i):
            raise Underdetermined(f"constraint {c} is not univariate in {var}")
        if exps[i] > 2:
            raise NonRationalRoot(
                f"constraint of degree {exps[i]} in {var}: {c}")
        if not v.is_real:
            raise NonRationalRoot(f"non-real constraint {c}")
        coef[exps[i]] = coef[exps[i]] + v
    c0, c1, c2 = (x.re for x in coef)
    if deg == 1:
        return [-c0 / c1]
    disc = c1 * c1 - 4 * c2 * c0
    r = rat_sqrt(disc)
    if r is None:
        raise NonRationalRoot(
            f"quadratic {c2}*{var}^2 + {c1}*{var} + {c0} = 0 "
            "has irrational roots")
    roots = {(-c1 + r) / (2 * c2), (-c1 - r) / (2 * c2)}
    return sorted(roots)


# ---------------------------------------------------------------------------
# Hill / Jacobi determinants
# ---------------------------------------------------------------------------

def hill_determinant(eps, a, N, branch):
    """N x N truncation of the tridiagonal determinant Delta^{branch}.

    branch '-': diagonal a-j^2, j = 1..N.
    branch '+': diagonal a/2, then a-j^2, j = 1..N-1.
    Evaluated by the stable three-term recurrence.
    """
    if N < 3:
        raise ValueError("N must be >= 3")
    if branch == "-":
        diag = [a - j * j for j in range(1, N + 1)]
    elif branch == "+":
        diag = [a / 2.0] + [a - j * j for j in range(1, N)]
    else:
        raise ValueError("branch must be '+' or '-'")
    e2 = eps * eps
    d_prev, d = 1.0, diag[0]
    for j in range(1, N):
        d_prev, d = d, diag[j] * d - e2 * d_prev
    return d


def find_boundary_root(eps, N, branch, bracket=(0.5, 1.5), grid=400):
    """Bisection root of Delta^{branch}(eps, a) = 0 near a = 1."""
    lo, hi = bracket
    xs = [lo + (hi - lo) * i / grid for i in range(grid + 1)]
    fs = [hill_determinant(eps, x, N, branch) for x in xs]
    seg = None
    for i in range(grid):
        if fs[i] == 0.0:
            return xs[i]
        if fs[i] * fs[i + 1] < 0:
            seg = (xs[i], xs[i + 1])
            break
    if seg is None:
        raise RootNotBracketed(
            f"no sign change of Delta^{branch} in {bracket}")
    lo, hi = seg
    flo = hill_determinant(eps, lo, N, branch)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = hill_determinant(eps, mid, N, branch)
        if fm == 0.0:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
        if hi - lo < 1e-14:
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class CrosscheckRow:
    eps: float
    branch: str
    a_series: float
    a_determinant: float

    @property
    def deviation(self):
        return abs(self.a_series - self.a_determinant)


def boundary_crosscheck(branches, eps_list, N=12):
    """Compare the series band edges with determinant zeros."""
    rows = []
    for eps in eps_list:
        for branch in branches:
            a_series = sum(float(c) * eps ** j
                           for j, c in enumerate(branch.a_coeffs))
            if eps == 0.0:
                a_det = 1.0
            else:
                a_det = find_boundary_root(eps, N, branch.label)
            rows.append(CrosscheckRow(eps, branch.label, a_series, a_det))
    return rows


def analyze(K=5):
    """Full pipeline: expansion, omega^2 and branches at cap K."""
    V = mathieu_potential(K)
    Y = expand(V, K)
    w2 = omega_squared(Y)
    branches = stability_boundaries(w2, K)
    return Y, w2, branches
