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
order's source, and up to order v, where R_0 is not yet known, on
normal_form's own (Ar, Br) orders through _polar_order, which give the
leading radial equation too.  A phase that depends on theta stays in
Omega, as in the polar flow.  One _Recurrence makes the order-k step
of every solve here: normal_form, the forced response and the cycle.
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
    solve is then banded (see _Recurrence), and the RGSystem's expansion
    is None.
    """
    x_a, x_b, h = _homological_solve(V, K, ("Ar", "Br"),
                                     banded=not expansion)
    return RGSystem(K, x_a, x_b, h, V)


def _homological_solve(V, K, names, banded=False):
    """(X_A, X_B, h) of normal_form as EpsilonSeries in the amplitudes
    ``names``, A and B for perturbation.expand and Ar and Br for
    normal_form; h is None if ``banded``."""
    rec = _Recurrence(V, K, _first_harmonic(*names), names, banded)
    for _ in rec.flow():
        pass
    (x_a, _), (x_b, _) = rec.xs
    return (EpsilonSeries(K, x_a), EpsilonSeries(K, x_b),
            None if banded else EpsilonSeries(K, rec.y))


def _first_harmonic(a, b):
    """a z + b/z, the y_0 of the solve in the amplitudes a and b."""
    return (ParamPolynomial.monomial(1, **{a: 1, HARMONIC: 1}) +
            ParamPolynomial.monomial(1, **{b: 1, HARMONIC: -1}))


class _Recurrence:
    """normal_form's order-k step from any y_0, with L = sum X_name d_name
    over ``names``.  R_k and sum_{m<k} L_m (Dy)_{k-m} are one lie_sum
    each, on partials made once per polynomial, on first use.

    With ``banded`` every product of eps-order j is formed only in the
    harmonic band |n| <= W(j) = 1 + M (K - j), M the support growth
    rate: a y_j term at harmonic n reaches X_K only through |n| <= W(j).
    That holds because every term C z^k y^l y'^m eps^n of V has
    |k| + l + m <= 1 + (n + 1) M, which Potential.support_growth_rate
    guarantees by construction."""

    def __init__(self, V, K, y0, names, banded):
        self.K = K
        self.growth = V.support_growth_rate() if banded else None
        self.xs = tuple(([_ZP], name) for name in names)
        self.y, self.dy = [y0], [iz_dz(y0)]
        self.d_y, self.d_dy = partials(self.y), partials(self.dy)
        self.v_of_y = V.composition()
        self.r = None       # R_k of the order that source made last

    def band(self, j):
        if self.growth is not None:
            return HARMONIC, 1 + self.growth * (self.K - j)

    def source(self):
        """S_k of the next order k, split by _homological_rule."""
        k, band = len(self.y), self.band
        self.r = lie_sum(self.xs, self.d_y, k, band(k))
        source = (self.v_of_y.feed(self.y[-1], self.dy[-1],
                                   band=band(k - 1), out_band=band(k)) -
                  lie_sum(self.xs, self.d_dy, k, band(k)) - iz_dz(self.r))
        return source.term_map(HARMONIC, _homological_rule, (-1, 1, 0))

    def push(self, flow, y_k):
        """Take X_k, one per name, and y_k; form (Dy)_k below order K."""
        k = len(self.y)
        for (x, _), x_k in zip(self.xs, flow):
            x.append(x_k)
        self.y.append(y_k)
        if k < self.K:      # (Dy)_K is not read
            self.dy.append(iz_dz(y_k) + self.r + dot(
                [(x[k], self.d_y(0, name)) for x, name in self.xs], None,
                self.band(k)))

    def subs(self, bindings, since):
        """Substitute ``bindings`` in every coefficient of order ``since``
        and up, in V(y)'s power lists and the pending R_k too."""
        for seq in (self.y, self.dy, *(x for x, _ in self.xs)):
            seq[since:] = [c.subs(bindings) for c in seq[since:]]
        self.v_of_y.subs(bindings, since)
        self.r = self.r.subs(bindings)

    def flow(self):
        """Yield (k, X_A,k, X_B,k) of two amplitudes for k = 1, ..., K,
        each order pushed with h_k when the next is asked for."""
        for k in range(1, self.K + 1):
            x_a, x_b, h_k = self.source()
            yield k, x_a, x_b
            self.push((x_a, x_b), h_k)


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
    """The flow in R and w, _polar_order at each eps-order.  The
    expansion is not read."""
    dlogR, dtheta = zip(*map(_polar_order, range(rgsys.cap + 1),
                             rgsys.rhs_A.coeffs, rgsys.rhs_B.coeffs))
    return PolarRG(rgsys.cap, EpsilonSeries(rgsys.cap, dlogR),
                   EpsilonSeries(rgsys.cap, dtheta))


def _polar_order(k, x_a, x_b):
    """[eps^k] of d log R/dt and of d theta/dt from X_A,k and X_B,k, as
    the exponent map c*Ar^a*Br^b -> c*R^(a+b)*w^(a-b) of Ar = R*w,
    Br = R/w:

        d log R/dt = (X_A/Ar + X_B/Br)/2,
        d theta/dt = (X_A/Ar - X_B/Br)/(2i),

    where a term over Ar maps to c*R^(a+b-1)*w^(a-b-1) and over Br to
    c*R^(a+b-1)*w^(a-b+1).  It splits X_A and X_B once and makes both
    sums as two dot calls over the same pairs; a term with a + b = 0
    raises NotPolarizable."""
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
    return dot(pairs).scaled(_HALF), dot(pairs, signs).scaled(_HALF_OVER_I)


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


def lead_roots(lead, var):
    """(r, simple) for each rational root r, a GaussianRational, of
    ``lead`` in ``var``, in increasing order; simple when the derivative
    in ``var`` does not vanish at r: the seeds of series_solve_root."""
    dlead = lead.diff(var)
    return [(r, bool(dlead.subs({var: r}).as_constant()))
            for r in map(GaussianRational, rational_roots(lead, var))]


#: The first harmonic z*w + 1/(z*w) of y on the cycle A = R w, B = R/w.
_FIRST = (ParamPolynomial.monomial(1, **{HARMONIC: 1, PHASE: 1}) +
          ParamPolynomial.monomial(1, **{HARMONIC: -1, PHASE: -1}))
_IW = ParamPolynomial.var(PHASE, 1, I)
_W, _W_INV = ParamPolynomial.var(PHASE), ParamPolynomial.var(PHASE, -1)
_MIXES_THETA = "radial equation mixes theta; no phase-free limit cycle"


def _radius(j):
    """The name of the free radius R_j of the cycle solve, j >= 1: a name
    no DSL parameter can spell."""
    return f"R[{j}]"


def limit_cycle(V, K):
    """The limit cycle of y'' + y = eps*V, solved on the cycle: (R_c,
    dtheta_c), EpsilonSeries with cap K - v, v the order of the leading
    radial equation.  See the module docstring for the recurrence.

    The errors keep the order of the polar path.  A V with a term free
    of y and y' is solved first at y_0 = 0 to order K, where every flow
    term lacks Ar and Br: NotPolarizable at the first.  The seed R_0 is
    the smallest positive simple root of the leading radial equation,
    read off normal_form's flow.  If it fails, that flow runs on to K
    for a theta-dependent radial equation, unless V has no harmonic
    z^k, k != 0: then the solve is graded by time translation, every
    term of X_A is Ar^(b+1) Br^b and of X_B Ar^a Br^(a+1), so no radial
    equation depends on theta and no flow term lacks Ar and Br.
    """
    if any(not (l or m) for _, l, m, _ in V.coeffs):
        for _ in _radial_orders(V, K, _ZP):
            pass
    radials = _radial_orders(V, K, _first_harmonic("Ar", "Br"))
    for v, lead in radials:
        if lead:
            break
    else:
        raise DegenerateRoot("radial equation is identically zero")
    try:
        r0 = _seed(lead)
    except (DegenerateRoot, NonRationalRoot, Underdetermined):
        if any(k for k, _, _, _ in V.coeffs):
            for _ in radials:
                pass
        raise
    return _cycle_solve(V, K, v, r0)


def _radial_orders(V, K, y0):
    """(k, [eps^k] d log R/dt) for k = 1, ..., K, of the banded
    normal_form solve from y_0 in (Ar, Br); ThetaDependent at the first
    radial equation that depends on theta."""
    for k, x_a, x_b in _Recurrence(V, K, y0, ("Ar", "Br"), True).flow():
        radial = _polar_order(k, x_a, x_b)[0]
        if radial.exponents(PHASE) - {0}:
            raise ThetaDependent(_MIXES_THETA)
        yield k, radial


def _cycle_solve(V, K, v, r0):
    """(R_c, dtheta_c): the banded _Recurrence from y_0 = R_0 (z w +
    1/(z w)) with L = X_w d_w, X_w = i w d theta/dt read off as in the
    module docstring; ThetaDependent for a radial equation in theta.

    The first harmonic of y_j is R_j (z w)^{+-1}, R_j free until order
    v + j, where the radial equation is affine in it; R_j is then
    substituted in every coefficient made so far (_Recurrence.subs).
    """
    rec = _Recurrence(V, K, _FIRST.scaled(r0), (PHASE,), True)
    (x_w, _), = rec.xs
    radii = [ParamPolynomial.const(r0)]
    for k in range(1, K + 1):
        x_a, x_b, y_k = rec.source()
        # R_0 times [eps^k] of d log R/dt and of d theta/dt
        pairs = ((x_a, _W_INV), (x_b, _W))
        radial = dot(pairs).scaled(_HALF)
        phase = dot(pairs, (1, -1)).scaled(_HALF_OVER_I)
        if radial.exponents(PHASE) - {0}:
            raise ThetaDependent(_MIXES_THETA)
        if k > v:
            # radial is affine in R_j, with a constant slope
            j = k - v
            parts = radial.split((_radius(j),))
            radii.append(parts.get((0,), _ZP).scaled(
                -parts[1, ].as_constant().inverse()))
            bindings = {_radius(j): radii[j]}
            rec.subs(bindings, j)
            phase, y_k = phase.subs(bindings), y_k.subs(bindings)
        if k == K:      # X_K and y_K are not read
            break
        rec.push((_IW * phase.scaled(r0.inverse()),),
                 y_k + ParamPolynomial.var(_radius(k)) * _FIRST)
    drift = [(x * _W_INV).scaled(-I) for x in x_w[:K - v + 1]]
    return EpsilonSeries(K - v, radii), EpsilonSeries(K - v, drift)


def _seed(lead):
    """The smallest positive simple rational root of the leading radial
    equation ``lead`` in R."""
    seeds = [r for r, simple in lead_roots(lead, "R") if simple and r.re > 0]
    if not seeds:
        raise DegenerateRoot(
            "leading radial equation has no simple positive rational root")
    return seeds[0]
