"""Parametric-resonance analysis of y'' + y + eps*(g + 2 cos t)*y = 0.

The detuning is carried as a series g = g1 + g2*eps + g3*eps^2 + ...;
the amplitude equation is linear, its square is a scalar matrix -omega^2,
and solving omega^2 = 0 order by order yields the two stability-band
edges a = 1 + eps*g of the conventional coupling a.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import GaussianRational, ParamPolynomial, EpsilonSeries, Rat
from .errors import (BudgetExceeded, NotLinear, NotScalar, Underdetermined,
                     NonRationalRoot, RootNotBracketed, SeriesOverflow)
from .potential import Potential
from .rg import normal_form, rational_roots

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


def omega_squared(rgsys):
    """-omega^2 is the scalar of M^2; asserts scalarness exactly.

    The returned series has cap rgsys.cap + 1 (exact because the amplitude
    matrix carries an explicit eps factor).
    """
    M = linear_matrix(rgsys)
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
        try:
            return sum(float(c) * eps ** j
                       for j, c in enumerate(self.a_coeffs))
        except OverflowError:
            raise SeriesOverflow(f"band edge a{self.label} overflows a "
                                 f"float at eps = {eps!r}") from None


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
                            for k, v in assignment.items()})
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
            for root in _solve_univariate(c, var):
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


def _solve_univariate(c, var):
    """Rational roots of a degree <= 2 polynomial constraint in var."""
    deg = c.degree_in(var)
    if deg > 2:
        raise NonRationalRoot(f"constraint of degree {deg} in {var}: {c}")
    roots = rational_roots(c, var)
    if roots is None:
        raise NonRationalRoot(f"non-real constraint {c}")
    if not roots:
        raise NonRationalRoot(f"constraint {c} = 0 has irrational roots "
                              f"in {var}")
    return roots


# ---------------------------------------------------------------------------
# Hill / Jacobi determinants
# ---------------------------------------------------------------------------

#: Largest truncation N of a Hill determinant: 25x the N = 40 of the
#: largest crosscheck in the tests, demos and benchmark.  Each N costs
#: one array step per determinant evaluation, and the truncation has
#: long converged.
MAX_HILL_N = 1000


def check_hill_order(N):
    """BudgetExceeded if N is above MAX_HILL_N."""
    if N > MAX_HILL_N:
        raise BudgetExceeded(f"Hill determinant order N = {N} exceeds the "
                             f"budget of {MAX_HILL_N}")


def hill_determinant(eps, a, N, branch):
    """N x N truncation of the tridiagonal determinant Delta^{branch}.

    branch '-': diagonal a-j^2, j = 1..N.
    branch '+': diagonal a/2, then a-j^2, j = 1..N-1.
    Evaluated by the stable three-term recurrence, elementwise on floats
    or broadcast numpy arrays of eps and a.
    """
    if N < 3:
        raise ValueError("N must be >= 3")
    if branch == "-":
        d, js = a - 1, range(2, N + 1)
    elif branch == "+":
        d, js = a / 2.0, range(1, N)
    else:
        raise ValueError("branch must be '+' or '-'")
    e2 = eps * eps
    d_prev = 1.0
    for j in js:
        d_prev, d = d, (a - j * j) * d - e2 * d_prev
    return d


def find_boundary_roots(eps, N, branch, bracket=(0.5, 1.5), grid=400):
    """Bisection roots of Delta^{branch}(eps_i, a) = 0 near a = 1, one per
    value of the 1-D array ``eps``, all lanes in lockstep.

    Each lane brackets the first grid cell with an exact zero at its left
    end or a sign change, then halves it until it hits an exact zero, is
    narrower than 1e-14 or has taken 200 steps.  Overflow gives inf or
    nan as float arithmetic does, without warnings.  The first lane
    without a bracket raises RootNotBracketed, or SeriesOverflow if its
    determinant is finite nowhere on the grid.
    """
    check_hill_order(N)
    eps = np.asarray(eps, dtype=float)
    lo, hi = bracket
    xs = np.array([lo + (hi - lo) * i / grid for i in range(grid + 1)])
    with np.errstate(all="ignore"):
        fs = hill_determinant(eps[:, None], xs, N, branch)
        zero = fs[:, :-1] == 0.0
        hit = zero | (fs[:, :-1] * fs[:, 1:] < 0)
        missing = ~hit.any(axis=1)
        if missing.any():
            lane = missing.argmax()
            at = float(eps[lane])
            if not np.isfinite(fs[lane]).any():
                raise SeriesOverflow(f"Delta^{branch} is not finite anywhere "
                                     f"in {bracket} at eps = {at!r}")
            raise RootNotBracketed(f"no sign change of Delta^{branch} in "
                                   f"{bracket} at eps = {at!r}")
        first = hit.argmax(axis=1)
        # a lane that meets an exact zero closes its interval on it
        live = ~zero[np.arange(len(eps)), first]
        lo = xs[first]
        hi = np.where(live, xs[first + 1], lo)
        flo = hill_determinant(eps, lo, N, branch)
        for _ in range(200):
            if not live.any():
                break
            mid = 0.5 * (lo + hi)
            fm = hill_determinant(eps, mid, N, branch)
            down = flo * fm < 0
            hi = np.where(live & (down | (fm == 0.0)), mid, hi)
            up = live & ~down
            lo = np.where(up, mid, lo)
            flo = np.where(up, fm, flo)
            live &= ~(hi - lo < 1e-14)
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
    """Compare the series band edges with determinant zeros; below order
    3 the branch is '0', which has no determinant: Underdetermined."""
    labels = [branch.label for branch in branches]
    if not set(labels) <= {"+", "-"}:
        raise Underdetermined(f"the crosscheck needs the band edges + and "
                              f"-, got the branches {labels}")
    series = [[branch.a_value(eps) for branch in branches]
              for eps in eps_list]
    nonzero = [eps for eps in eps_list if eps != 0.0]
    roots = [iter(find_boundary_roots(nonzero, N, branch.label).tolist())
             for branch in branches]
    rows = []
    for eps, a_row in zip(eps_list, series):
        for branch, a_series, det in zip(branches, a_row, roots):
            a_det = next(det) if eps != 0.0 else 1.0
            rows.append(CrosscheckRow(eps, branch.label, a_series, a_det))
    return rows


def analyze(K=5):
    """Full pipeline: omega^2 and the branches at cap K."""
    w2 = omega_squared(normal_form(mathieu_potential(K), K))
    return w2, stability_boundaries(w2, K)
