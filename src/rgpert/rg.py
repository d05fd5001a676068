"""Renormalized amplitudes: RG equation, polar form, limit cycle.

The amplitude equation is read off the resonant corrections Q_{+-1}:

    d/dt (Ar, Br) = eps * dQ_{+-1}/dt (eps, 0, Ar, Br),

and the secular-free expansion is the harmonic table of the
P_n(eps, 0, Ar, Br), one EpsilonSeries in z = e^{it}.  normal_form
computes both without t; perturbation.expand transports its solve to
the naive table, and derive_rg reads both back off that table.
The polar form substitutes Ar = R*w, Br = R/w with w = e^{i*theta} kept
as an exact Laurent variable.
"""

from math import lcm

from .algebra import (GaussianRational, ParamPolynomial, EpsilonSeries,
                      substitute, series_solve_root, grq, Rat)
from .errors import (NotPolarizable, ThetaDependent, DegenerateRoot,
                     NonRationalRoot, Underdetermined)
from .potential import HARMONIC, OnlinePotential, dt, source_harmonics

_RENAME = {"A": "Ar", "B": "Br"}
_ZP = ParamPolynomial.zero()
_HALF_OVER_I = grq(0, 1, -1, 2)  # 1/(2i)

#: Laurent phase variable standing for e^{i*theta}.
PHASE = "w"


class RGSystem:
    """Right-hand sides of the amplitude equation plus the secular-free
    expansion sum_n P_n(eps, 0, Ar, Br) e^{n i t}, a harmonic table (see
    potential) in the renormalized amplitudes Ar, Br."""

    __slots__ = ("cap", "rhs_A", "rhs_B", "expansion", "potential")

    def __init__(self, cap, rhs_A, rhs_B, expansion, potential=None):
        self.cap = cap
        self.rhs_A = rhs_A
        self.rhs_B = rhs_B
        self.expansion = expansion
        self.potential = potential

    def __repr__(self):
        return f"<RGSystem cap={self.cap}>"


class PolarRG:
    """Polar form: d log R/dt, d theta/dt and the expansion, a harmonic
    table in R and the phase variable w = e^{i*theta}."""

    __slots__ = ("cap", "dlogR_dt", "dtheta_dt", "expansion", "potential")

    def __init__(self, cap, dlogR_dt, dtheta_dt, expansion, potential=None):
        self.cap = cap
        self.dlogR_dt = dlogR_dt
        self.dtheta_dt = dtheta_dt
        self.expansion = expansion
        self.potential = potential

    def theta_free(self):
        return (not self.dlogR_dt.uses_var(PHASE) and
                not self.dtheta_dt.uses_var(PHASE))

    def __repr__(self):
        return f"<PolarRG cap={self.cap} theta_free={self.theta_free()}>"


def derive_rg(Y):
    """RG/amplitude equation and renormalized expansion from a naive series."""
    x_a, x_b, h = (s.rename(_RENAME) for s in Y.at_zero())
    return RGSystem(Y.cap, x_a, x_b, h, Y.potential)


def normal_form(V, K):
    """The RGSystem of y'' + y = eps*V to eps^K, solved without t.

    Write y = h(A, B, z) with z = e^{it} and (A, B)' = (X_A, X_B) = O(eps),
    so d/dt is D = i z d_z + L with L = X_A d_A + X_B d_B, and the ODE is
    D^2 h + h = eps*V(h, Dh).  At eps^k, with L_m the eps^m part of L,

        (1 - n^2) h_{k,n} + 2i X_{A,k} [n = 1] - 2i X_{B,k} [n = -1]
            = S_{k,n},
        S_k = [eps^(k-1)] V(h, Dh) - i z d_z R_k - sum_{m<k} L_m (Dh)_{k-m},
        R_k = sum_{m<k} L_m h_{k-m},   (Dh)_k = i z d_z h_k + R_k + L_k h_0.

    The normalisation h_{k,+-1} = 0 is f_{+-1,k}(0) = 0 of the naive
    series: the naive table is h transported along the flow of X,
    P_n(t) = exp(tL) h_n, which is how perturbation.expand builds it.
    This is RG as normal form (DeVille, Harkin, Holzer, Josic, Kaper,
    Physica D 2008; Chiba, SIAM J. Appl. Dyn. Syst. 2008).
    """
    x_a, x_b, h = (s.rename(_RENAME) for s in _homological_solve(V, K))
    return RGSystem(K, x_a, x_b, h, V)


def _homological_solve(V, K):
    """(X_A, X_B, h) of normal_form as EpsilonSeries in the naive
    amplitudes A, B."""
    support_bound = 1 + K * V.support_growth_rate()
    h = [ParamPolynomial.var("A") * ParamPolynomial.var(HARMONIC) +
         ParamPolynomial.var("B") * ParamPolynomial.var(HARMONIC, -1)]
    dh = [dt(h[0])]
    x_a, x_b = [_ZP], [_ZP]

    def lie(m, p):
        """L_m p."""
        return x_a[m] * p.diff("A") + x_b[m] * p.diff("B")

    v_of_y = OnlinePotential(V)
    for k in range(1, K + 1):
        r = _ZP
        source = v_of_y.feed(h[k - 1], dh[k - 1])
        for m in range(1, k):
            if x_a[m] or x_b[m]:
                r = r + lie(m, h[k - m])
                source = source - lie(m, dh[k - m])
        source = source - dt(r)
        h_k, a_k, b_k = _ZP, _ZP, _ZP
        for n, s in source_harmonics(source, k, support_bound):
            if n == 1:
                a_k = s.scaled(_HALF_OVER_I)
            elif n == -1:
                b_k = -s.scaled(_HALF_OVER_I)
            else:
                h_k = h_k + (s.scaled(grq(1, 1 - n * n)) *
                             ParamPolynomial.var(HARMONIC, n))
        x_a.append(a_k)
        x_b.append(b_k)
        h.append(h_k)
        dh.append(dt(h_k) + r + lie(k, h[0]))
    return tuple(EpsilonSeries(K, c) for c in (x_a, x_b, h))


def to_polar(rgsys):
    """Substitute Ar -> R*w, Br -> R*w^-1 and divide out the radius."""
    w = ParamPolynomial.var(PHASE)
    w_inv = ParamPolynomial.var(PHASE, -1)
    polar_sub = {"Ar": ParamPolynomial.var("R") * w,
                 "Br": ParamPolynomial.var("R") * w_inv}

    rhs_a = rgsys.rhs_A.subs_poly(polar_sub)
    rhs_b = rgsys.rhs_B.subs_poly(polar_sub)

    def divide_R(series, what):
        coeffs = []
        for c in series.coeffs:
            if c.min_degree_in("R") < 1 and not c.is_zero():
                raise NotPolarizable(
                    f"{what} keeps negative powers of R after division")
            coeffs.append(c.divide_by_var("R") if not c.is_zero() else c)
        return EpsilonSeries(series.cap, coeffs)

    half = grq(1, 2)
    dlogR = divide_R(rhs_a * w_inv + rhs_b * w, "d log R/dt") * half
    dtheta = divide_R(rhs_a * w_inv - rhs_b * w, "d theta/dt") * _HALF_OVER_I
    return PolarRG(rgsys.cap, dlogR, dtheta,
                   rgsys.expansion.subs_poly(polar_sub), rgsys.potential)


def rational_roots(poly, var):
    """Sorted distinct rational roots of a polynomial in ``var`` alone.

    Returns None if the coefficients are not all real rational, and
    raises Underdetermined if ``poly`` has variables besides ``var``.
    With the coefficients cleared to integers c_0 != 0, ..., c_n, every
    rational root is y/c_n for an integer root y of the monic integer
    polynomial c_n^(n-1) * f(y/c_n) (rational root theorem);
    _integer_roots finds those in time polynomial in n and the
    coefficients' bit length.
    """
    extra = [v for v in poly.vars if v != var]
    if extra:
        raise Underdetermined(f"{poly} = 0 has variables other than "
                              f"{var}: {', '.join(extra)}")
    coeffs = {}
    for exps, c in poly.items():
        if not c.is_real:
            return None
        coeffs[exps[0] if exps else 0] = c.re
    if not coeffs or max(coeffs) == 0:
        return []
    den = lcm(*(int(q.denominator) for q in coeffs.values()))
    ic = {e: int(q * den) for e, q in coeffs.items() if q}
    low = min(ic)
    roots = [Rat(0)] if low > 0 else []
    ic = {e - low: c for e, c in ic.items()}
    deg = max(ic)
    if deg == 0:
        return roots
    lead = ic[deg]
    monic = [ic.get(k, 0) * lead ** (deg - 1 - k) for k in range(deg)] + [1]
    roots.extend(Rat(y, lead) for y in _integer_roots(monic))
    return sorted(roots)


def _integer_roots(g):
    """Integer roots of a monic integer polynomial, coefficients low first.

    A Sturm sequence counts the distinct real roots between two
    half-integers, which are never roots of g.  Bisecting the Cauchy
    bound interval down to unit width leaves at most one integer per
    interval holding a root, and that integer is checked exactly.
    """
    seq = _sturm_sequence(g)

    def sign_changes(u):
        # signs at x = u/2 of each 2^deg * p(u/2), an integer
        changes, last = 0, 0
        for p in seq:
            d = len(p) - 1
            v = 0
            for k in range(d, -1, -1):
                v = v * u + (p[k] << (d - k))
            if v:
                if last and (v > 0) != (last > 0):
                    changes += 1
                last = v
        return changes

    bound = 1 + max(abs(c) for c in g[:-1])   # every root has |y| < bound
    # intervals (lo/2, hi/2) with odd lo < hi, and their sign changes
    lo, hi = -2 * bound - 1, 2 * bound + 1
    stack = [(lo, hi, sign_changes(lo), sign_changes(hi))]
    out = []
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        if vlo == vhi:
            continue
        if hi - lo == 2:
            y = (lo + 1) // 2
            if _horner(g, y) == 0:
                out.append(y)
            continue
        mid = lo + 2 * ((hi - lo) // 4)
        vmid = sign_changes(mid)
        stack.append((lo, mid, vlo, vmid))
        stack.append((mid, hi, vmid, vhi))
    return out


def _sturm_sequence(g):
    """g, g', then negated remainders; each scaled to integers."""
    seq = [[Rat(c) for c in g],
           [Rat(k * c) for k, c in enumerate(g)][1:]]
    while len(seq[-1]) > 1:
        r = _poly_rem(seq[-2], seq[-1])
        if not r:
            break
        seq.append([-c for c in r])
    out = []
    for p in seq:
        den = lcm(*(int(c.denominator) for c in p))
        out.append([int(c * den) for c in p])
    return out


def _poly_rem(a, b):
    """Remainder of a by b (coefficient lists, low first, b[-1] != 0)."""
    a = list(a)
    while len(a) >= len(b):
        q = a[-1] / b[-1]
        shift = len(a) - len(b)
        for k, c in enumerate(b):
            a[shift + k] -= q * c
        a.pop()
    while a and not a[-1]:
        a.pop()
    return a


def _horner(p, x):
    v = 0
    for c in reversed(p):
        v = v * x + c
    return v


def limit_cycle(polar):
    """Solve d log R/dt = 0 for the radius series and the phase drift.

    The seed is the smallest positive simple rational root of the
    leading radial equation.  Returns (R_c, dtheta_dt_c) as
    EpsilonSeries with rational constant coefficients.
    """
    G = polar.dlogR_dt
    if G.uses_var(PHASE):
        raise ThetaDependent(
            "radial equation mixes theta; no phase-free limit cycle")
    v = G.valuation()
    if v is None:
        raise DegenerateRoot("radial equation is identically zero")
    lead = G.coeffs[v]
    roots = rational_roots(lead, "R")
    if roots is None:
        raise NonRationalRoot("leading radial equation has complex "
                              "coefficients")
    dlead = lead.diff("R")
    seeds = [r for r in roots if r > 0 and
             dlead.subs({"R": GaussianRational(r)}).as_constant()]
    if not seeds:
        raise DegenerateRoot(
            "leading radial equation has no simple positive rational root")
    R_c = series_solve_root(G, "R", GaussianRational(seeds[0]))
    dtheta_c = substitute(polar.dtheta_dt.truncate(R_c.cap), {"R": R_c})
    return R_c, dtheta_c
