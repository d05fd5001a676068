"""Renormalized amplitudes: RG equation, polar form, limit cycle.

The amplitude equation is read off the resonant corrections Q_{+-1}:

    d/dt (Ar, Br) = eps * dQ_{+-1}/dt (eps, 0, Ar, Br),

and the secular-free expansion is the harmonic table of the
P_n(eps, 0, Ar, Br), one EpsilonSeries in z = e^{it}.  normal_form
computes both without t; perturbation.expand transports its solve to
the naive table, and derive_rg reads both back off that table.
The polar form of the amplitude equation is the exponent map
Ar^a Br^b -> R^(a+b) w^(a-b) of Ar = R*w, Br = R/w, with w = e^{i*theta}
kept as an exact Laurent variable; no polynomial is substituted.

limit_cycle solves on the cycle, not the flow.  There A = R w and
B = R/w with R = R_0 + R_1 eps + ... constant, so d/dt is D = P + L,
P = i z d_z and L = X_w d_w, X_w = i w Omega with Omega = sum_{k>=1}
Omega_k eps^k the drift d theta/dt.  Every eps-coefficient of y is a
Laurent polynomial in (z, w) with O(k) terms, where h_k in (A, B) has
O(k^2), and its z^{+-1} part is R_k (z w)^{+-1}.  At order k,

    (1 - n^2) y_{k,n,m} = [z^n w^m] S_k,
    S_k = [eps^(k-1)] V(y, Dy) - P T_k - sum_{a<k} L_a (Dy)_{k-a},
    T_k = sum_{a<k} L_a y_{k-a},   (Dy)_k = P y_k + T_k + L_k y_0,

with V(y, Dy) fed one order at a time through Potential.composition().
The z^{+-1} parts of S_k over +-2i are X_A and X_B of order k on the
cycle, so with X_A/A + X_B/B read as in to_polar,

    R_0 [eps^k] d log R/dt = (X_A w^-1 + X_B w)/2,
    R_0 [eps^k] d theta/dt = (X_A w^-1 - X_B w)/(2i).

The first order v where the radial one is nonzero gives the leading
radial equation in R_0, and the order v + j gives R_j, in which it is
affine; the phase one gives Omega_k.  A radial term w^m with m != 0,
that is a z^1 w^(m+1) or z^-1 w^(m-1) term of S_k, is a flow that
depends on theta: ThetaDependent.  It is decided on the terms of each
order's source, with R_0 free up to order v: the flow in (R, w), which
is the normal form at A = R w, B = R/w, has the same recurrence with
L = X_R d_R + X_w d_w, X_R = R d log R/dt.  A phase that depends on
theta stays in Omega, as in the polar flow.
"""

from math import lcm

from .algebra import (GaussianRational, ParamPolynomial, EpsilonSeries,
                      dot, grq, Rat, I)
from .errors import (NotPolarizable, ThetaDependent, DegenerateRoot,
                     NonRationalRoot, Underdetermined)
from .potential import HARMONIC, iz_dz, lie_sum, partials

_RENAME = {"A": "Ar", "B": "Br"}
_ZP = ParamPolynomial.zero()
_HALF = grq(1, 2)
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
    """Polar form of the amplitude flow only: d log R/dt and d theta/dt,
    series in R and the phase variable w = e^{i*theta}."""

    __slots__ = ("cap", "dlogR_dt", "dtheta_dt")

    def __init__(self, cap, dlogR_dt, dtheta_dt):
        self.cap = cap
        self.dlogR_dt = dlogR_dt
        self.dtheta_dt = dtheta_dt

    def theta_free(self):
        return (not self.dlogR_dt.uses_var(PHASE) and
                not self.dtheta_dt.uses_var(PHASE))

    def __repr__(self):
        return f"<PolarRG cap={self.cap} theta_free={self.theta_free()}>"


def derive_rg(Y):
    """RG/amplitude equation and renormalized expansion from a naive series."""
    x_a, x_b, h = (s.rename(_RENAME) for s in Y.at_zero())
    return RGSystem(Y.cap, x_a, x_b, h, Y.potential)


def normal_form(V, K, expansion=True):
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

    A caller that reads only the flow passes ``expansion=False``: the
    solve then forms only the harmonics that reach X_A and X_B, and the
    RGSystem's expansion is None.
    """
    x_a, x_b, h = _homological_solve(V, K, ("Ar", "Br"),
                                     flow_only=not expansion)
    return RGSystem(K, x_a, x_b, h, V)


def _homological_solve(V, K, names, flow_only=False):
    """(X_A, X_B, h) of normal_form as EpsilonSeries in the amplitudes
    ``names``, A and B for perturbation.expand and Ar and Br for
    normal_form.

    R_k and sum_{m<k} L_m (Dh)_{k-m} are one potential.lie_sum each, on
    partials d_A and d_B made once per polynomial, on first use.
    X_A,k, X_B,k and h_k are read off S_k in one term map keyed by the
    z exponent, and so is i z d_z.

    With ``flow_only`` h is None, and every product of eps-order j is
    formed only in the harmonic band |n| <= W(j) = 1 + M (K - j), M the
    support growth rate: an h_j term at harmonic n reaches X_K only
    through |n| <= W(j).  That holds because every term
    C z^k y^l y'^m eps^n of V has |k| + l + m <= 1 + (n + 1) M, which
    Potential.support_growth_rate guarantees by construction."""
    M = V.support_growth_rate()

    def band(j):
        return (HARMONIC, 1 + M * (K - j)) if flow_only else None

    a, b = (ParamPolynomial.var(name) for name in names)
    h = [a * ParamPolynomial.var(HARMONIC) +
         b * ParamPolynomial.var(HARMONIC, -1)]
    dh = [iz_dz(h[0])]
    d_h, d_dh = partials(h), partials(dh)
    x_a, x_b = [_ZP], [_ZP]
    xs = ((x_a, names[0]), (x_b, names[1]))
    v_of_y = V.composition()
    for k in range(1, K + 1):
        r = lie_sum(xs, d_h, k, band(k))
        source = (v_of_y.feed(h[k - 1], dh[k - 1], band=band(k - 1),
                              out_band=band(k)) -
                  lie_sum(xs, d_dh, k, band(k)) - iz_dz(r))
        a_k, b_k, h_k = source.term_map(
            HARMONIC, _homological_rule, (-1, 1, 0))
        x_a.append(a_k)
        x_b.append(b_k)
        h.append(h_k)
        if k < K:       # (Dh)_K is not read
            dh.append(iz_dz(h_k) + r + dot(
                ((a_k, d_h(0, names[0])), (b_k, d_h(0, names[1]))),
                band=band(k)))
    return (EpsilonSeries(K, x_a), EpsilonSeries(K, x_b),
            None if flow_only else EpsilonSeries(K, h))


def _homological_rule(n):
    """The term rule for ParamPolynomial.term_map: the z^{+-1} terms of
    S_k, over +-2i and without z, are X_A,k and X_B,k; every other z^n
    term, over 1 - n^2, is one of h_k."""
    if n == 1:
        return 0, 0, -1, 2      # 1/(2i)
    if n == -1:
        return 1, 0, 1, 2       # -1/(2i)
    # 1/(1 - n^2), over a positive denominator
    return (2, 1, 0, 1) if n == 0 else (2, -1, 0, n * n - 1)


def to_polar(rgsys):
    """The flow in R and w as the exponent map c*Ar^a*Br^b ->
    c*R^(a+b)*w^(a-b) of Ar = R*w, Br = R/w:

        d log R/dt = (X_A/Ar + X_B/Br)/2,
        d theta/dt = (X_A/Ar - X_B/Br)/(2i),

    where a term over Ar maps to c*R^(a+b-1)*w^(a-b-1) and over Br to
    c*R^(a+b-1)*w^(a-b+1).  Each eps-order splits X_A and X_B once and
    makes both sums as two dot calls over the same pairs; a term with
    a + b = 0 raises NotPolarizable.  The expansion is not read."""
    dlogR, dtheta = [], []
    for k, (x_a, x_b) in enumerate(zip(rgsys.rhs_A.coeffs,
                                       rgsys.rhs_B.coeffs)):
        pairs, signs = [], []
        # (equation, w-step, theta sign) of X_A/Ar and of X_B/Br
        for x, name, step, sign in ((x_a, "dAr/dt", -1, 1),
                                    (x_b, "dBr/dt", 1, -1)):
            for (a, b), part in x.split(("Ar", "Br")).items():
                if a + b == 0:
                    raise NotPolarizable(
                        f"{name} has the term {part} with no Ar or Br at "
                        f"eps^{k}: no polar form")
                pairs.append((part, ParamPolynomial.monomial(
                    1, **{"R": a + b - 1, PHASE: a - b + step})))
                signs.append(sign)
        dlogR.append(dot(pairs).scaled(_HALF))
        dtheta.append(dot(pairs, signs).scaled(_HALF_OVER_I))
    return PolarRG(rgsys.cap, EpsilonSeries(rgsys.cap, dlogR),
                   EpsilonSeries(rgsys.cap, dtheta))


def rational_roots(poly, var):
    """Sorted distinct rational roots of a polynomial in ``var`` alone.

    Raises NonRationalRoot if the coefficients are not all real
    rational, and Underdetermined if ``poly`` has variables besides
    ``var``.
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
            raise NonRationalRoot(f"{poly} = 0 has complex coefficients")
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


def lead_roots(G, var):
    """(r, simple) for each rational root r, a GaussianRational, of the
    leading coefficient of the nonzero series G in ``var``, in increasing
    order; simple when the derivative in ``var`` does not vanish at r.
    These are the seeds of series_solve_root."""
    lead = G.coeffs[G.valuation()]
    dlead = lead.diff(var)
    return [(r, bool(dlead.subs({var: r}).as_constant()))
            for r in map(GaussianRational, rational_roots(lead, var))]


#: The first harmonic z*w + 1/(z*w) of y on the cycle A = R w, B = R/w.
_FIRST = (ParamPolynomial.monomial(1, **{HARMONIC: 1, PHASE: 1}) +
          ParamPolynomial.monomial(1, **{HARMONIC: -1, PHASE: -1}))
_IW = ParamPolynomial.var(PHASE, 1, I)
_W, _W_INV = ParamPolynomial.var(PHASE), ParamPolynomial.var(PHASE, -1)


def _radius(j):
    """The name of the free radius R_j of the cycle solve, j >= 1: a name
    no DSL parameter can spell."""
    return f"R[{j}]"


def limit_cycle(V, K):
    """The limit cycle of y'' + y = eps*V, solved on the cycle: (R_c,
    dtheta_c), EpsilonSeries with cap K - v, v the order of the leading
    radial equation.  See the module docstring for the recurrence.

    The solve with R free runs to the leading radial equation, whose
    smallest positive simple root of lead_roots is the seed R_0; the
    solve on the cycle starts from it.  If the seed fails, the solve
    with R free runs on to order K first, as a theta-dependent radial
    equation comes before a failed seed.
    """
    if any(not (l or m) for _, l, m, _ in V.coeffs):
        _check_polarizable(V, K)
    v, lead = _cycle_solve(V, K)
    if v is None:
        raise DegenerateRoot("radial equation is identically zero")
    try:
        r0 = _seed(lead)
    except (DegenerateRoot, NonRationalRoot, Underdetermined):
        _cycle_solve(V, K, v)
        raise
    return _cycle_solve(V, K, v, r0)


def _cycle_solve(V, K, v=None, r0=None):
    """D^2 y + y = eps*V(y, Dy) with D = P + X_R d_R + X_w d_w, solved
    as normal_form solves it in (A, B), with X_R = R d log R/dt and
    X_w = i w d theta/dt read off as in the module docstring.  A radial
    equation that depends on theta raises ThetaDependent.

    Without ``r0``, R is free and y_k has no first harmonic for k >= 1:
    this is the flow in (R, w).  It returns (v, the leading radial
    equation) at its first order v, or, with ``v`` given or none found,
    runs to order K and returns (v, None).

    With ``r0``, y_0 = R_0 (z w + 1/(z w)) and X_R = 0: the cycle.  The
    first harmonic of y_j is R_j (z w)^{+-1}, R_j free until order
    v + j, where the radial equation is affine in it; R_j is then
    substituted in every coefficient made so far, the power lists of
    V(y) too.  It returns (R_c, dtheta_c).

    Every product of eps-order j is formed only in the harmonic band
    |n| <= 1 + M (K - j) of normal_form: only the z^{+-1} part of the
    last order is read.
    """
    M = V.support_growth_rate()

    def band(j):
        return HARMONIC, 1 + M * (K - j)

    y = [(ParamPolynomial.var("R") if r0 is None
          else ParamPolynomial.const(r0)) * _FIRST]
    dy = [iz_dz(y[0])]
    d_y, d_dy = partials(y), partials(dy)
    x_r, x_w = [_ZP], [_ZP]
    xs = ((x_r, "R"), (x_w, PHASE)) if r0 is None else ((x_w, PHASE),)
    radii = [ParamPolynomial.const(r0)] if r0 is not None else None
    v_of_y = V.composition()
    for k in range(1, K + 1):
        r = lie_sum(xs, d_y, k, band(k))
        source = (v_of_y.feed(y[k - 1], dy[k - 1], band=band(k - 1),
                              out_band=band(k)) -
                  lie_sum(xs, d_dy, k, band(k)) - iz_dz(r))
        x_a, x_b, y_k = source.term_map(
            HARMONIC, _homological_rule, (-1, 1, 0))
        # R_0 times [eps^k] of d log R/dt and of d theta/dt
        pairs = ((x_a, _W_INV), (x_b, _W))
        radial = dot(pairs).scaled(_HALF)
        phase = dot(pairs, (1, -1)).scaled(_HALF_OVER_I)
        if radial.exponents(PHASE) - {0}:
            raise ThetaDependent(
                "radial equation mixes theta; no phase-free limit cycle")
        if r0 is None:
            if radial and v is None:
                return k, _over_radius(radial, None)
            x_r.append(radial)
        elif k > v:
            # radial is affine in R_j, with a constant slope
            j = k - v
            parts = radial.split((_radius(j),))
            radii.append(parts.get((0,), _ZP).scaled(
                -parts[1, ].as_constant().inverse()))
            bindings = {_radius(j): radii[j]}
            for seq in (y, dy, x_w):
                seq[j:] = [c.subs(bindings) for c in seq[j:]]
            v_of_y.subs(bindings, j)
            r, phase, y_k = (c.subs(bindings) for c in (r, phase, y_k))
        if k == K:      # X_K and y_K are not read
            break
        x_w.append(_IW * _over_radius(phase, r0))
        if r0 is not None:
            y_k = y_k + ParamPolynomial.var(_radius(k)) * _FIRST
        y.append(y_k)
        dy.append(iz_dz(y_k) + r + dot(
            [(x[k], d_y(0, name)) for x, name in xs], None, band(k)))
    if r0 is None:
        return v, None
    drift = [(x * _W_INV).scaled(-I) for x in x_w[:K - v + 1]]
    return EpsilonSeries(K - v, radii), EpsilonSeries(K - v, drift)


def _over_radius(p, r0):
    """p / R_0: a term map that lowers the exponent of the free R, which
    divides every term of p; a scaling once R_0 is known."""
    if r0 is None:
        return p.term_map("R", lambda e: (0, 1, 0, 1), (-1,))[0]
    return p.scaled(r0.inverse())


def _seed(lead):
    """The smallest positive simple rational root of the leading radial
    equation ``lead`` in R."""
    seeds = [r for r, simple in lead_roots(EpsilonSeries(0, [lead]), "R")
             if simple and r.re > 0]
    if not seeds:
        raise DegenerateRoot(
            "leading radial equation has no simple positive rational root")
    return seeds[0]


def _check_polarizable(V, K):
    """NotPolarizable at the first order where the flow has a term with
    no A or B.  Those terms are the flow of the forced response, the
    solve at A = B = 0, until the first of them: there the z^{+-1} parts
    of each order's source must vanish."""
    v_of_y = V.composition()
    y = dy = _ZP
    for k in range(1, K + 1):
        x_a, x_b, y = v_of_y.feed(y, dy).term_map(
            HARMONIC, _homological_rule, (-1, 1, 0))
        for x, name in ((x_a, "dAr/dt"), (x_b, "dBr/dt")):
            if x:
                raise NotPolarizable(f"{name} has the term {x} with no Ar "
                                     f"or Br at eps^{k}: no polar form")
        dy = iz_dz(y)
