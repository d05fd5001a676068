"""Reference oracles of the test suite.

The naive table by the order-by-order solve in t, which
``rgpert.perturbation`` builds by transporting the normal form, with
its steps: the time derivative ``dt`` and the split ``source_harmonics``.  The
composition forms of the functional relation and of the inversion,
which ``rgpert.verify`` checks in generator form, the generator checks
with the (G) products made per harmonic, which it makes once on the
whole table, and the ODE residual on the t-dependent table, which it
checks on the t-free slice.  The root solve by formal Newton iteration,
every step at the full cap with a series inverse, where
``series_solve_root`` lifts the root one eps-order at a time.  V(y) by
whole-series powers, which ``rgpert.potential`` builds online, the
polynomial substitution as a sum of per-term products, which
``ParamPolynomial.subs`` makes as one ``dot`` over the parts of one
split, a sum of products as
one product and one addition at a time, which ``algebra.poly.dot``
accumulates into one term table, and seeded random in-class
potentials.  The polar flow and the secular-free expansion in the polar
amplitudes R and w = e^{i*theta} by substituting Ar = R*w, Br = R/w,
where ``rgpert.rg.to_polar`` and ``rgpert.numeric.evaluate_expansion``
map exponents.  Also the readouts only the tests use: the
renormalization constants, the split P_{+-1} = (A, B) + eps*Q_{+-1}, a
polynomial's constant term and the peak of a sampled trajectory.  The
Mathieu potential with the detuning series g1 + g2*eps + ... in its
table, which ``rgpert.mathieu`` substitutes after a solve in one g, and
the order-by-order solve of omega^2 = 0 for g1, g2, ..., where
``rgpert.mathieu`` finds the roots g(eps) in the one g.  The limit cycle
as the root of the polar flow's radial equation by series_solve_root,
and that of an autonomous potential by Poincare-Lindstedt in tau = w t,
where ``rgpert.rg.limit_cycle`` solves on the cycle.  And the scalar Hill
determinant and its one-root-at-a-time bisection, which
``rgpert.mathieu`` runs on arrays in lockstep.  Last, the text and JSON
forms of scalars, polynomials and series through ``items()``, one
GaussianRational per term with its own sign and unit tests and a join
loop per container, where ``rgpert.algebra`` formats the numerators
through one ``text`` and one ``signed_sum``.
"""

import random

import numpy as np

from rgpert.algebra import (ParamPolynomial, EpsilonSeries, substitute, P,
                            gr, grq, I, ZERO, Rat, GaussianRational, dot,
                            series_solve_root)
from rgpert.algebra.poly import (_HALF, _MASK, _ZERO_POLY, _as_poly,
                                 _normalized, _reader)
from rgpert.errors import (DegenerateRoot, NonRationalRoot, NotPolarizable,
                           RootNotBracketed, ThetaDependent, TrivialLinear,
                           Underdetermined)
from rgpert.mathieu import Branch
from rgpert.perturbation import NaiveSeries, particular_solution
from rgpert.potential import (HARMONIC, Potential, eval_potential, harmonic,
                              harmonics)
from rgpert.rg import PHASE, PolarRG, lead_roots, rational_roots
from rgpert.verify import _first_offense, _report


def subs_reference(p, bindings):
    """Reference oracle: ParamPolynomial.subs as the sum, term by term,
    of each term's rest times the cached powers of the bound values;
    ValueError on a negative exponent of a bound variable."""
    readers = [(name, *_reader(name)) for name in bindings]
    split = [(key, c, [(name, shift,
                        ((key + half) >> shift & _MASK) - _HALF)
                       for name, shift, half in readers])
             for key, c in p.terms.items()]
    if not any(e for *_, fields in split for *_, e in fields):
        return p
    values = {n: _as_poly(v) for n, v in bindings.items()}
    out = _ZERO_POLY
    powcache = {}
    for key, c, fields in split:
        rest = key - sum(e << shift for _, shift, e in fields)
        factor = _normalized({rest: c}, p.den, p.bound)
        for name, _, e in fields:
            if not e:
                continue
            power = powcache.get((name, e))
            if power is None:
                power = powcache[name, e] = values[name] ** e
            factor = factor * power
        out = out + factor
    return out


def dot_reference(pairs, weights=None):
    """Reference oracle: algebra.poly.dot as the sequential sum of the
    weighted products, each made and normalised on its own."""
    if weights is None:
        weights = [1] * len(pairs)
    out = _ZERO_POLY
    for (a, b), w in zip(pairs, weights):
        out = out + (a * b).scaled(w)
    return out


def polar_by_substitution(rgsys):
    """Reference oracle: rgpert.rg.to_polar by substituting Ar -> R*w,
    Br -> R/w in the flow and dividing out the radius, where to_polar
    maps exponents."""
    w = ParamPolynomial.var(PHASE)
    w_inv = ParamPolynomial.var(PHASE, -1)
    R_inv = ParamPolynomial.var("R", -1)
    polar_sub = {"Ar": ParamPolynomial.var("R") * w,
                 "Br": ParamPolynomial.var("R") * w_inv}

    rhs_a = rgsys.rhs_A.map_coeffs(lambda c: c.subs(polar_sub))
    rhs_b = rgsys.rhs_B.map_coeffs(lambda c: c.subs(polar_sub))

    def divide_R(series, what):
        coeffs = []
        for c in series.coeffs:
            if min(c.exponents("R"), default=0) < 1 and not c.is_zero():
                raise NotPolarizable(
                    f"{what} keeps negative powers of R after division")
            coeffs.append(c * R_inv)
        return EpsilonSeries(series.cap, coeffs)

    half = grq(1, 2)
    dlogR = divide_R(rhs_a * w_inv + rhs_b * w, "d log R/dt") * half
    dtheta = (divide_R(rhs_a * w_inv - rhs_b * w, "d theta/dt")
              * grq(0, 1, -1, 2))
    return PolarRG(rgsys.cap, dlogR, dtheta)


def polar_expansion(rgsys):
    """The secular-free expansion of an RGSystem at Ar = R*w, Br = R/w: a
    harmonic table in the radius R and the phase variable w."""
    R, w = ParamPolynomial.var("R"), ParamPolynomial.var(PHASE)
    w_inv = ParamPolynomial.var(PHASE, -1)
    polar_sub = {"Ar": R * w, "Br": R * w_inv}
    return rgsys.expansion.map_coeffs(lambda c: c.subs(polar_sub))


def check_residual_table(Y, at_zero=False):
    """Reference oracle: the harmonic-wise residual y'' + y - eps*V of the
    t-dependent table itself vanishes mod eps^{K+1}; with ``at_zero``,
    only its t^0 slice is checked."""
    K = Y.cap
    table = Y.table
    dtable = table.map_coeffs(dt)
    resid = dtable.map_coeffs(dt) + table
    if K >= 1:
        rhs = eval_potential(Y.potential, table, dtable, K - 1)
        resid = resid - rhs.extend(K).shift(1)
    if at_zero:
        resid = resid.map_coeffs(lambda c: c.coefficient("t", 0))
    return _report("residual", K, [_first_offense(n, harmonic(resid, n))
                                   for n in harmonics(resid)])


_IZ = ParamPolynomial.var(HARMONIC, 1, I)


class SupportBoundExceeded(Exception):
    """A harmonic of the order-by-order solve lies past the support bound
    1 + K*M of Potential.support_growth_rate."""


def dt(c):
    """d/dt + i*z*d/dz of one eps-coefficient of a harmonic table: the
    time derivative as t and z = e^{it} vary, by two derivatives, a
    product and a sum, where ``rgpert.potential.iz_dz`` maps the terms of
    a t-free one."""
    return c.diff("t") + c.diff(HARMONIC) * _IZ


def source_harmonics(source, k, bound):
    """(n, z^n coefficient) of the order-k source term for increasing n,
    from one split of the source, where ``rgpert.rg`` reads the order's
    unknowns off it in one term map; SupportBoundExceeded on a harmonic
    |n| > bound."""
    parts = source.split((HARMONIC,))
    for (n,) in sorted(parts):
        if abs(n) > bound:
            raise SupportBoundExceeded(
                f"harmonic {n} at order {k} exceeds bound {bound}; "
                "potential may be outside the class")
        yield n, parts[n,]


def naive_expand(V, K):
    """Reference oracle: the naive series of y'' + y = eps*V up to eps^K,
    one eps-order at a time.

    Each order decouples into one linear ODE per harmonic,

        p'' + 2 i n p' + (1 - n^2) p = q(t),

    whose right-hand side q is the z^n part of the eps^(k-1) coefficient
    of V(y), fed to V.composition().  The resonant harmonics n = +-1
    pick up a t-degree and their free constant is fixed by the
    normalization f_{+-1,k}(0) = 0.
    """
    support_bound = 1 + K * V.support_growth_rate()
    # the free oscillation A e^{it} + B e^{-it} at eps^0
    coeffs = [ParamPolynomial.var("A") * ParamPolynomial.var(HARMONIC) +
              ParamPolynomial.var("B") * ParamPolynomial.var(HARMONIC, -1)]
    v_of_y = V.composition()
    for k in range(1, K + 1):
        source = v_of_y.feed(coeffs[k - 1], dt(coeffs[k - 1]))
        f_k = ParamPolynomial.zero()
        for n, q in source_harmonics(source, k, support_bound):
            f_k = f_k + (particular_solution(n, q) *
                         ParamPolynomial.var(HARMONIC, n))
        coeffs.append(f_k)
    return NaiveSeries(V, K, EpsilonSeries(K, coeffs))


def check_functional_relation_finite(Y, K=None):
    """Reference oracle: P_n(eps,t,A,B) ==
    P_n(eps,t-s, P_1(eps,s,A,B), P_-1(eps,s,A,B)) as an exact identity
    mod eps^{K+1}, with symbolic s, by series composition."""
    if K is None:
        K = Y.cap
    shift = {"t": P("s")}
    p1_s, pm1_s = (Y.secular_coefficient(n).truncate(K).map_coeffs(
        lambda c: c.subs(shift)) for n in (1, -1))
    t_minus_s = P("t") - P("s")
    offenses = []
    for n in Y.harmonics():
        lhs = Y.secular_coefficient(n).truncate(K)
        rhs = substitute(lhs, {"t": t_minus_s, "A": p1_s, "B": pm1_s})
        offenses.append(_first_offense(n, lhs - rhs))
    return _report("functional_relation", K, offenses)


def check_inversion_finite(Y, K=None):
    """Reference oracle: P_{+-1}(eps,t, P_1(eps,-t,A,B), P_-1(eps,-t,A,B))
    == (A, B), by series composition."""
    if K is None:
        K = Y.cap
    neg_t = {"t": -P("t")}
    p1_neg, pm1_neg = (Y.secular_coefficient(n).truncate(K).map_coeffs(
        lambda c: c.subs(neg_t)) for n in (1, -1))
    offenses = []
    for n, target in ((1, P("A")), (-1, P("B"))):
        lhs = substitute(Y.secular_coefficient(n).truncate(K),
                         {"A": p1_neg, "B": pm1_neg})
        offenses.append(
            _first_offense(n, lhs - EpsilonSeries.from_poly(target, K)))
    return _report("inversion", K, offenses)


def generator_offenses_per_harmonic(Y, harmonics):
    """Reference oracle: the (N) and (G) offenses of rgpert.verify with
    their own readout of (X_A, X_B, h) and the (G) products made on each
    P_n in turn, not once on the whole table."""
    x_a, x_b, h = Y._read_at_zero()
    offenses = [
        _first_offense(n, harmonic(h, n) - EpsilonSeries.from_poly(v, Y.cap))
        for n, v in ((1, P("A")), (-1, P("B")))]
    for n in harmonics:
        pn = Y.secular_coefficient(n)
        flow = x_a * pn.diff("A") + x_b * pn.diff("B")
        offenses.append(_first_offense(n, pn.diff("t") - flow))
    return offenses


def check_functional_relation_per_harmonic(Y):
    """Reference oracle: check_functional_relation, (G) per harmonic."""
    return _report("functional_relation", Y.cap,
                   generator_offenses_per_harmonic(Y, Y.harmonics()))


def check_inversion_per_harmonic(Y):
    """Reference oracle: check_inversion, (N) and (G) for n = +-1 made
    on their own."""
    return _report("inversion", Y.cap,
                   generator_offenses_per_harmonic(Y, (1, -1)))


def series_inverse(s):
    """Reference oracle: the multiplicative inverse of the EpsilonSeries
    ``s``, whose eps^0 term must be a nonzero constant, for the Newton
    steps of series_solve_root_full_cap."""
    c0 = s.coeffs[0].as_constant()
    if c0 is None or not c0:
        raise ZeroDivisionError(
            "series inverse needs a nonzero constant leading coefficient")
    inv0 = c0.inverse()
    # out_k = -inv0 * sum_{j>=1} c_j out_{k-j}
    c = s.coeffs
    out = [ParamPolynomial.const(inv0)]
    for k in range(1, s.cap + 1):
        acc = dot([(c[j], out[k - j]) for j in range(1, k + 1)])
        out.append(acc.scaled(-inv0) if acc else _ZERO_POLY)
    return EpsilonSeries(s.cap, out)


def series_solve_root_full_cap(G, var, u0):
    """Reference oracle: series_solve_root by formal Newton iteration,
    every step at the full cap, enough steps to double 1 correct order
    past cap + 1."""
    v = G.valuation()
    if v is None:
        return EpsilonSeries.const(u0, G.cap)
    H = EpsilonSeries(G.cap - v, G.coeffs[v:])
    lead = H.coeffs[0]
    if lead.subs({var: u0}).as_constant() != ZERO:
        raise NonRationalRoot(
            f"{u0} is not a root of the leading-order equation")
    dlead = lead.diff(var).subs({var: u0}).as_constant()
    if dlead is None or not dlead:
        raise DegenerateRoot(
            "leading-order derivative vanishes at the seed root")
    Hp = H.diff(var)
    u = EpsilonSeries.const(u0, H.cap)
    steps = 0
    need = H.cap + 1
    while (1 << steps) < need + 1:
        steps += 1
    for _ in range(max(steps, 1)):
        gu = substitute(H, {var: u})
        if gu.is_zero():
            break
        gpu = substitute(Hp, {var: u})
        u = u - gu * series_inverse(gpu)
    residual = substitute(H, {var: u})
    if not residual.is_zero():
        raise DegenerateRoot("Newton iteration failed to converge")
    return u


def poincare_lindstedt(V, K):
    """Reference oracle: the limit cycle (R, w - 1) of an autonomous V
    by the Poincare-Lindstedt method, both with cap K - 1, where
    ``rgpert.rg.limit_cycle`` solves on the cycle in (z, w).

    In tau = w t the cycle solves w^2 y_tautau + y = eps V(y, w y_tau).
    Each y_k is a Laurent polynomial in z = e^{i tau} whose z^{+-1} part
    is exactly R_k (z + 1/z), the normalisation h_{+-1} = 0 of the
    normal form.  With D = i z d_z the eps^k equation reads

        (1 - n^2) y_{k,n} = [z^n] S_k,
        S_k = [eps^(k-1)] V(y, w D y) - sum_{a=1..k} (w^2)_a D^2 y_{k-a}.

    At n = 1 the left side vanishes.  At order 1, [z^1] S_1 is
    F(R_0) + 2 w_1 R_0: R_0 is the smallest positive simple rational
    root of Im F and w_1 = -Re F(R_0) / (2 R_0).  At order k >= 2 it is
    affine in the unknowns (R_{k-1}, w_k), named r and s: its imaginary
    part gives R_{k-1} and its real part w_k.  The other harmonics of
    y_k are [z^n] S_k over 1 - n^2.
    """
    if any(k for k, *_ in V.coeffs):
        raise ValueError("poincare_lindstedt needs an autonomous potential")
    first = ParamPolynomial.var(HARMONIC) + ParamPolynomial.var(HARMONIC, -1)
    r, s = P("r"), P("s")
    y, w, R = [r * first], [ParamPolynomial.const(1)], []
    for k in range(1, K + 1):
        Y = EpsilonSeries(k - 1, y)
        ys, dys = [Y], [EpsilonSeries(k - 1, w) * Y.map_coeffs(dt)]
        v_y = EpsilonSeries(k - 1)
        for (_, l, m, n), c in V.coeffs.items():
            term = EpsilonSeries.const(c, k - 1)
            if l:
                term = term * _power(ys, l)
            if m:
                term = term * _power(dys, m)
            v_y = v_y + term.shift(n)
        W = EpsilonSeries(k, w + [s])
        w2 = W * W
        S = v_y.coeffs[k - 1]
        for a in range(1, k + 1):
            S = S - w2.coeffs[a] * dt(dt(y[k - a]))
        # [z^1] S_k = f_0(r) + f_1(r) s
        f = S.split((HARMONIC,)).get((1,), _ZERO_POLY).split(("s",))
        f_0, f_1 = (f.get((e,), _ZERO_POLY) for e in (0, 1))
        im = (f_0 - f_0.conjugated()).scaled(grq(0, 1, -1, 2))
        roots = rational_roots(im, "r")
        if k == 1:
            slope = im.diff("r")
            roots = [x for x in roots if x > 0 and
                     slope.subs({"r": GaussianRational(x)}).as_constant()]
        root = GaussianRational(roots[0])
        R.append(root)
        a, b = (p.subs({"r": root}).as_constant() for p in (f_0, f_1))
        w_k = -a * b.inverse()
        w.append(ParamPolynomial.const(w_k))
        y[k - 1] = y[k - 1].subs({"r": root})
        y_k = r * first
        for (n,), c in S.subs({"r": root, "s": w_k}).split(
                (HARMONIC,)).items():
            if abs(n) != 1:
                y_k = y_k + c.scaled(grq(1, 1 - n * n)) * \
                    ParamPolynomial.var(HARMONIC, n)
        y.append(y_k)
    return (EpsilonSeries(K - 1, [ParamPolynomial.const(x) for x in R]),
            EpsilonSeries(K - 1, [_ZERO_POLY] + w[1:K]))


def polar_limit_cycle(polar):
    """Reference oracle: solve d log R/dt = 0 of a PolarRG for the radius
    series and the phase drift, where ``rgpert.rg.limit_cycle`` solves on
    the cycle.

    The seed is the smallest positive simple root of lead_roots, lifted
    by series_solve_root.  Returns (R_c, dtheta_dt_c) as EpsilonSeries.
    """
    G = polar.dlogR_dt
    if G.uses_var(PHASE):
        raise ThetaDependent(
            "radial equation mixes theta; no phase-free limit cycle")
    if G.is_zero():
        raise DegenerateRoot("radial equation is identically zero")
    seeds = [r for r, simple in lead_roots(G.coeffs[G.valuation()], "R")
             if simple and r.re > 0]
    if not seeds:
        raise DegenerateRoot(
            "leading radial equation has no simple positive rational root")
    R_c = series_solve_root(G, "R", seeds[0])
    dtheta_c = substitute(polar.dtheta_dt.truncate(R_c.cap), {"R": R_c})
    return R_c, dtheta_c


def eval_potential_whole(V, y, K):
    """Reference oracle: V(y) mod eps^{K+1}, every power of y and y' a
    whole truncated series, each power the previous one times the base."""
    y = y.truncate(K)
    y_powers, dy_powers = [y], []
    out = EpsilonSeries(K)
    for (k, l, m, n), c in sorted(V.coeffs.items()):
        term = EpsilonSeries.const(c * ParamPolynomial.var(HARMONIC, k), K)
        if l:
            term = term * _power(y_powers, l)
        if m:
            if not dy_powers:
                dy_powers.append(y.map_coeffs(dt))
            term = term * _power(dy_powers, m)
        out = out + term.shift(n)
    return out


def _power(powers, l):
    """base^l, where powers[j-1] is base^j; extends the list as needed."""
    while len(powers) < l:
        powers.append(powers[-1] * powers[0])
    return powers[l - 1]


_COEFF_CHOICES = (gr(1), gr(-1), gr(0, 1), gr(0, -1), grq(1, 2), grq(-1, 2))


def random_potential(seed):
    """Seeded random admissible potential: <=3 quartets, |k|<=2, l+m<=2,
    n<=1, coefficients in {+-1, +-i, +-1/2}."""
    rng = random.Random(seed)
    while True:
        coeffs = {}
        for _ in range(rng.randint(1, 3)):
            l = rng.randint(0, 2)
            m = rng.randint(0, 2 - l)
            key = (rng.randint(-2, 2), l, m, rng.randint(0, 1))
            coeffs[key] = ParamPolynomial.const(rng.choice(_COEFF_CHOICES))
        try:
            return Potential(coeffs)
        except TrivialLinear:
            continue


def renormalization_constants(Y):
    """Closed-form (Z_a, Z_b): Z_a = 1 + eps*Q_1(eps,-t,Ar,Br)/Ar etc.,
    that is P_{+-1}(eps,-t,A,B) divided by its eps^0 term A or B."""
    neg_t = {"t": -P("t")}

    def z(n, amp):
        p = Y.secular_coefficient(n).map_coeffs(lambda c: c.subs(neg_t))
        # every term carries the amplitude: the division is exact
        assert all(min(c.exponents(amp)) >= 1 for c in p.coeffs if c)
        return (p * ParamPolynomial.var(amp, -1)).rename({"A": "Ar",
                                                          "B": "Br"})

    return z(1, "A"), z(-1, "B")


def q_split(Y):
    """(Q_1, Q_-1) with P_{+-1} = (A, B) + eps*Q_{+-1}, cap-1 series."""
    if Y.cap == 0:
        raise ValueError("q_split needs cap >= 1")
    return tuple(EpsilonSeries(Y.cap - 1,
                               Y.secular_coefficient(n).coeffs[1:])
                 for n in (1, -1))


def constant_term(p):
    """The coefficient of the monomial with all exponents 0."""
    return dict(p.items()).get((0,) * len(p.vars), ZERO)


def peak_amplitude(traj, t_min):
    """Max |y| for t >= t_min with parabolic refinement at the peak."""
    y = np.abs(traj.column("y"))
    mask = traj.t >= t_min
    idx = np.argmax(y * mask)
    if idx == 0 or idx == len(y) - 1:
        return float(y[idx])
    y0, y1, y2 = y[idx - 1], y[idx], y[idx + 1]
    denom = y0 - 2 * y1 + y2
    if denom == 0:
        return float(y1)
    delta = 0.5 * (y0 - y2) / denom
    return float(y1 - 0.25 * (y0 - y2) * delta)


def mathieu_potential(n_params):
    """Reference oracle: V = -(g + 2 cos t) y with the detuning series
    g = g1 + g2*eps + ... + g_J*eps^(J-1) in the table, J = n_params."""
    params = tuple(f"g{j}" for j in range(1, n_params + 1))
    coeffs = {(1, 1, 0, 0): ParamPolynomial.const(-1),
              (-1, 1, 0, 0): ParamPolynomial.const(-1)}
    for j, name in enumerate(params, start=1):
        coeffs[(0, 1, 0, j - 1)] = -ParamPolynomial.var(name)
    return Potential(coeffs, params)


def stability_boundaries_by_order(omega2, n_unknowns):
    """Reference oracle: solve omega^2 = 0 order by order for g1, g2,
    ..., g_J, J = n_unknowns, substituting each partial assignment into
    every order; the branches as a = 1 + eps*(g1 + g2*eps + ...)."""
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
            roots = rational_roots(c, var)
            if not roots:
                raise NonRationalRoot(f"{c} = 0 has no rational root in "
                                      f"{var}")
            for root in roots:
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
    return [Branch(label, a_coeffs)
            for label, a_coeffs in zip(labels, branches)]


def hill_determinant_scalar(eps, a, N, branch):
    """Reference oracle: the N x N Hill determinant Delta^{branch} of
    float eps and a by the three-term recurrence over a list of the
    diagonal."""
    if branch == "-":
        diag = [a - j * j for j in range(1, N + 1)]
    else:
        diag = [a / 2.0] + [a - j * j for j in range(1, N)]
    e2 = eps * eps
    d_prev, d = 1.0, diag[0]
    for j in range(1, N):
        d_prev, d = d, diag[j] * d - e2 * d_prev
    return d


def find_boundary_root_scalar(eps, N, branch, bracket=(0.5, 1.5),
                              grid=400):
    """Reference oracle: bisection root of Delta^{branch}(eps, a) = 0 in
    the first grid cell of the bracket with a zero or a sign change."""
    lo, hi = bracket
    xs = [lo + (hi - lo) * i / grid for i in range(grid + 1)]
    fs = [hill_determinant_scalar(eps, x, N, branch) for x in xs]
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
    flo = hill_determinant_scalar(eps, lo, N, branch)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = hill_determinant_scalar(eps, mid, N, branch)
        if fm == 0.0:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
        if hi - lo < 1e-14:
            break
    return 0.5 * (lo + hi)


def gaussian_str(c):
    """Reference oracle: str of a GaussianRational, from its Fractions."""
    def imag(im):
        return "i" if im == 1 else "-i" if im == -1 else f"{im}*i"
    if not c.im:
        return str(c.re)
    if not c.re:
        return imag(c.im)
    sign = "+" if c.im > 0 else "-"
    return f"({c.re}{sign}{imag(abs(c.im))})"


def _sorted_items(p):
    return sorted(p.items(), key=lambda item: (sum(item[0]), item[0]),
                  reverse=True)


def _signed_join(parts):
    if not parts:
        return "0"
    out = parts[0]
    for part in parts[1:]:
        if part.startswith("-"):
            out += " - " + part[1:]
        else:
            out += " + " + part
    return out


def poly_str(p):
    """Reference oracle: str of a ParamPolynomial through items()."""
    parts = []
    for exps, c in _sorted_items(p):
        mono = "*".join((n if e == 1 else f"{n}^{e}")
                        for n, e in zip(p.vars, exps) if e)
        cs = gaussian_str(c)
        if not mono:
            parts.append(cs)
        elif cs == "1":
            parts.append(mono)
        elif cs == "-1":
            parts.append(f"-{mono}")
        else:
            parts.append(f"{cs}*{mono}")
    return _signed_join(parts)


def poly_json(p):
    """Reference oracle: ParamPolynomial.to_json through items()."""
    return {"vars": list(p.vars),
            "terms": [[list(exps), f"{c.re.numerator}/{c.re.denominator}",
                       f"{c.im.numerator}/{c.im.denominator}"]
                      for exps, c in _sorted_items(p)]}


def series_str(s):
    """Reference oracle: str of an EpsilonSeries, each coefficient by
    poly_str."""
    parts = []
    for k, c in enumerate(s.coeffs):
        if c.is_zero():
            continue
        cs = poly_str(c)
        if k == 0:
            parts.append(cs)
            continue
        epspow = "eps" if k == 1 else f"eps^{k}"
        if len(c.terms) > 1:
            cs = f"({cs})"
        if cs == "1":
            parts.append(epspow)
        elif cs == "-1":
            parts.append(f"-{epspow}")
        else:
            parts.append(f"{cs}*{epspow}")
    return _signed_join(parts)
