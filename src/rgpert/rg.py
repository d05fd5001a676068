"""Renormalized amplitudes: RG equation, polar form, limit cycle.

The amplitude equation is read off the resonant corrections Q_{+-1}:

    d/dt (Ar, Br) = eps * dQ_{+-1}/dt (eps, 0, Ar, Br),

and the secular-free expansion stores P_n(eps, 0, Ar, Br) per harmonic.
The polar form substitutes Ar = R*w, Br = R/w with w = e^{i*theta} kept
as an exact Laurent variable.
"""

from math import lcm

from .algebra import (GaussianRational, ParamPolynomial, EpsilonSeries,
                      substitute, series_solve_root, series_sqrt,
                      P, grq, ZERO, ONE, Rat, order_vars)
from .errors import (NotPolarizable, ThetaDependent, DegenerateRoot,
                     NonRationalRoot)

_ZP = ParamPolynomial.zero()
_RENAME = {"A": "Ar", "B": "Br"}

#: Laurent phase variable standing for e^{i*theta}.
PHASE = "w"


class RGSystem:
    """Right-hand sides of the amplitude equation plus the secular-free
    expansion coefficients, all in the renormalized amplitudes Ar, Br."""

    __slots__ = ("cap", "rhs_A", "rhs_B", "coeff_table", "potential")

    def __init__(self, cap, rhs_A, rhs_B, coeff_table, potential=None):
        self.cap = cap
        self.rhs_A = rhs_A
        self.rhs_B = rhs_B
        self.coeff_table = coeff_table
        self.potential = potential

    def harmonics(self):
        return sorted(self.coeff_table)

    def __repr__(self):
        return f"<RGSystem cap={self.cap} harmonics={self.harmonics()}>"


class PolarRG:
    """Polar form: d log R/dt, d theta/dt and the expansion coefficients
    as Laurent polynomials in the phase variable w = e^{i*theta}."""

    __slots__ = ("cap", "dlogR_dt", "dtheta_dt", "coeff_table", "potential")

    def __init__(self, cap, dlogR_dt, dtheta_dt, coeff_table, potential=None):
        self.cap = cap
        self.dlogR_dt = dlogR_dt
        self.dtheta_dt = dtheta_dt
        self.coeff_table = coeff_table
        self.potential = potential

    def theta_free(self):
        return (not self.dlogR_dt.uses_var(PHASE) and
                not self.dtheta_dt.uses_var(PHASE))

    def __repr__(self):
        return f"<PolarRG cap={self.cap} theta_free={self.theta_free()}>"


def derive_rg(Y):
    """RG/amplitude equation and renormalized expansion from a naive series."""
    K = Y.cap

    def rhs(n):
        coeffs = [_ZP]
        for k in range(1, K + 1):
            coeffs.append(
                Y.table.entry(n, k).diff("t")
                .subs({"t": ZERO}).rename(_RENAME))
        return EpsilonSeries(K, coeffs)

    table = {}
    for n in Y.harmonics():
        pn0 = Y.secular_coefficient(n).subs_poly({"t": ZERO}).rename(_RENAME)
        if not pn0.is_zero():
            table[n] = pn0
    return RGSystem(K, rhs(1), rhs(-1), table, Y.potential)


def renormalization_constants(Y):
    """Closed-form (Z_a, Z_b): Z_a = 1 + eps*Q_1(eps,-t,Ar,Br)/Ar etc."""
    K = Y.cap
    neg_t = {"t": -P("t")}

    def z(n, amp):
        coeffs = [ParamPolynomial.const(ONE)]
        for k in range(1, K + 1):
            f = Y.table.entry(n, k).subs(neg_t)
            coeffs.append(f.divide_by_var(amp).rename(_RENAME))
        return EpsilonSeries(K, coeffs)

    return z(1, "A"), z(-1, "B")


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
    half_over_i = grq(0, 1, -1, 2)  # 1/(2i)
    dlogR = divide_R(rhs_a * w_inv + rhs_b * w, "d log R/dt") * half
    dtheta = divide_R(rhs_a * w_inv - rhs_b * w, "d theta/dt") * half_over_i

    table = {n: p.subs_poly(polar_sub)
             for n, p in rgsys.coeff_table.items()}
    return PolarRG(rgsys.cap, dlogR, dtheta, table, rgsys.potential)


def _rational_roots(poly_u, var):
    """Rational roots of a univariate rational-coefficient polynomial.

    Returns None if the coefficients are not all real rational.  With the
    coefficients cleared to integers c_0 != 0, ..., c_n, every rational
    root is y/c_n for an integer root y of the monic integer polynomial
    c_n^(n-1) * f(y/c_n) (rational root theorem); _integer_roots finds
    those in time polynomial in n and the coefficients' bit length.
    """
    poly_u = poly_u.compact()
    coeffs = {}
    vi = poly_u.vars.index(var) if var in poly_u.vars else None
    for exps, c in poly_u.items():
        if not c.is_real:
            return None
        coeffs[exps[vi] if vi is not None else 0] = c.re
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
    return roots


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
    return sorted(out)


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

    Returns (R_c, dtheta_dt_c) as EpsilonSeries with rational constant
    coefficients.
    """
    if polar.dlogR_dt.uses_var(PHASE):
        raise ThetaDependent(
            "radial equation mixes theta; no phase-free limit cycle")
    dlog = polar.dlogR_dt
    even = True
    for c in dlog.coeffs:
        c = c.compact()
        if "R" not in c.vars:
            continue
        i = c.vars.index("R")
        if any(exps[i] % 2 for exps in c.terms):
            even = False
            break
    if even:
        G = dlog.map_coeffs(_even_to_u)
    else:
        G = dlog.map_coeffs(lambda c: c.rename({"R": "u"}))

    v = G.valuation()
    if v is None:
        raise DegenerateRoot("radial equation is identically zero")
    lead = G.coeffs[v]
    roots = _rational_roots(lead, "u")
    if roots is None:
        raise NonRationalRoot("leading radial equation has complex "
                              "coefficients")
    candidates = []
    dlead = lead.diff("u")
    for r in roots:
        if r <= 0:
            continue
        d = dlead.subs({"u": GaussianRational(r)}).as_constant()
        if d is not None and d:
            candidates.append(r)
    if not candidates:
        raise DegenerateRoot(
            "leading radial equation has no simple positive rational root")
    u0 = GaussianRational(min(candidates))
    u = series_solve_root(G, "u", u0)
    if even:
        R_c = series_sqrt(u)
        dtheta_c = substitute(
            polar.dtheta_dt.truncate(u.cap).map_coeffs(_even_to_u),
            {"u": u})
    else:
        R_c = u
        dtheta_c = substitute(
            polar.dtheta_dt.truncate(u.cap).map_coeffs(
                lambda c: c.rename({"R": "u"})), {"u": u})
    return R_c, dtheta_c


def _even_to_u(c):
    c = c.compact()
    if "R" not in c.vars:
        return c
    i = c.vars.index("R")
    vars = c.vars[:i] + ("u",) + c.vars[i + 1:]
    terms = {}
    for exps, coeff in c.items():
        key = exps[:i] + (exps[i] // 2,) + exps[i + 1:]
        terms[key] = coeff
    return ParamPolynomial(vars, terms).reindexed(order_vars(vars))
