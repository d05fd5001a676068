"""Parametric-resonance analysis of y'' + y + eps*(g + 2 cos t)*y = 0.

The amplitude equation of the registry's potential is linear in one
detuning g, and its matrix M is trace-free, so omega^2 = det M.  The
band edges are the roots g(eps) of omega^2(g) = 0, each simple root of
the leading order lifted one eps-order at a time; with g = g1 + g2*eps
+ ... they are the two stability-band edges a = 1 + eps*g of the
conventional coupling a.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import (ParamPolynomial, EpsilonSeries, Rat, substitute,
                      series_solve_root)
from .algebra.rationals import eps_power, signed_sum
from .errors import (BudgetExceeded, NotLinear, NotScalar, Underdetermined,
                     NonRationalRoot, RootNotBracketed, SeriesOverflow)
from .registry import get_example
from .rg import lead_roots, normal_form

_ZP = ParamPolynomial.zero()
_G = ParamPolynomial.var("g")


def linear_matrix(rgsys):
    """2x2 matrix M with d/dt (Ar, Br) = M (Ar, Br); NotLinear otherwise.

    Each eps-order of X_A and X_B is split once over (Ar, Br), and every
    part must be that of Ar^1*Br^0 or of Ar^0*Br^1."""
    rows = [[c.split(("Ar", "Br")) for c in rhs.coeffs]
            for rhs in (rgsys.rhs_A, rgsys.rhs_B)]
    if any(parts.keys() - {(1, 0), (0, 1)} for row in rows for parts in row):
        raise NotLinear("amplitude equation is not linear")
    return [[EpsilonSeries(rgsys.cap, [parts.get(e, _ZP) for parts in row])
             for e in ((1, 0), (0, 1))] for row in rows]


def omega_squared(rgsys):
    """omega^2 = det M, where M must be trace-free with no eps^0 part, so
    that M^2 is the scalar -omega^2; NotScalar otherwise.

    The returned series has cap rgsys.cap + 1 (exact because the amplitude
    matrix carries an explicit eps factor).
    """
    (a, b), (c, d) = linear_matrix(rgsys)
    if any(entry.coeffs[0] for entry in (a, b, c, d)):
        raise NotScalar("amplitude matrix has an eps^0 part")
    if not (a + d).is_zero():
        raise NotScalar("amplitude matrix is not trace-free")
    a, b, c, d = (entry.extend(rgsys.cap + 1) for entry in (a, b, c, d))
    return a * d - b * c


@dataclass(frozen=True)
class Branch:
    """One stability-boundary branch a = 1 + eps*g."""
    label: str
    a_coeffs: tuple         # a = sum a_coeffs[j] * eps^j; g_j = a_coeffs[j]

    def a_series_str(self):
        return signed_sum(["1", *(f"{c}*{eps_power(j)}" for j, c in
                                  enumerate(self.a_coeffs) if j and c)])

    def a_value(self, eps):
        try:
            return sum(float(c) * eps ** j
                       for j, c in enumerate(self.a_coeffs))
        except OverflowError:
            raise SeriesOverflow(f"band edge a{self.label} overflows a "
                                 f"float at eps = {eps!r}") from None


def stability_boundaries(omega2):
    """The branches a = 1 + eps*g(eps) of omega^2(g) = 0, for omega^2 a
    series in the one detuning g; g(eps) = g1 + g2*eps + ... to the
    order that omega^2's cap determines."""
    branches = sorted(set((Rat(1), *g) for g in _series_roots(omega2)))
    labels = ({1: "0", 2: "-+"}.get(len(branches))
              or map(str, range(len(branches))))
    return [Branch(label, a_coeffs)
            for label, a_coeffs in zip(labels, branches)]


def _series_roots(W):
    """The coefficient lists of the roots g(eps) of W(g) = 0.

    Each simple root r of lead_roots is lifted by series_solve_root, and
    a multiple one continues in W(r + eps*g), whose valuation is higher;
    the zero series ends a root."""
    v = W.valuation()
    if v is None:
        return [()]
    lead = W.coeffs[v]
    if "g" not in lead.vars:
        raise Underdetermined(f"order eps^{v} gives the nonzero "
                              f"constraint {lead}")
    seeds = lead_roots(lead, "g")
    if not seeds:
        raise NonRationalRoot(f"{lead} = 0 has no rational root in g")
    roots = []
    for r, simple in seeds:
        if simple:
            u = [c.as_constant() for c in
                 series_solve_root(W, "g", r).coeffs]
            if not all(c.is_real for c in u):
                raise NonRationalRoot(f"non-real root {u} of {W}")
            roots.append(tuple(c.re for c in u))
        else:
            shift = EpsilonSeries.from_poly(_G, W.cap, 1) + r
            roots.extend((r.re, *rest) for rest in
                         _series_roots(substitute(W, {"g": shift})))
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
    """Full pipeline: omega^2 and the branches at cap K, both solved for
    the registry's potential -(g + 2 cos t) y in one g.  in_parameters
    gives the printed form of omega^2; the crosscheck reads only the
    branches."""
    w2 = omega_squared(normal_form(get_example("mathieu").potential(), K,
                                   expansion=False))
    return w2, stability_boundaries(w2)


def in_parameters(w2):
    """omega^2 in g1, ..., gK, K = w2.cap - 1, as mathieu prints it: the
    substitution phi: g -> G = g1 + g2*eps + ... + gK*eps^(K-1) in the
    omega^2 of analyze.  That equals the solve of V(G) with K
    parameters:

    - phi is a ring map that never lowers an eps-order;
    - the normalised solve is unique and polynomial in V's coefficients,
      so phi carries X for V(g) to X for V(G) mod eps^(K+1);
    - omega^2 = det M to cap K+1 reads M only to order K, as M has no
      eps^0 part.
    """
    K = w2.cap - 1
    G = [ParamPolynomial.var(f"g{j}") for j in range(1, K + 1)]
    return substitute(w2, {"g": EpsilonSeries(K + 1, G + [_ZP] * 2)})
