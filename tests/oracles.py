"""Reference oracles of the test suite.

The naive table by the order-by-order solve in t, which
``rgpert.perturbation`` builds by transporting the normal form, with
its steps: the time derivative ``dt`` and the split ``source_harmonics``.  The
composition forms of the functional relation and of the inversion,
which ``rgpert.verify`` checks in generator form, the generator checks
with the (G) products made per harmonic, which it makes once on the
whole table, and the ODE residual on the t-dependent table, which it
checks on the t-free slice.  Newton's root solve with every step at the
full cap, which ``series_solve_root`` runs at doubling caps.  V(y) by
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
polynomial's constant term and the peak of a sampled trajectory.  And the
scalar Hill determinant and its one-root-at-a-time bisection, which
``rgpert.mathieu`` runs on arrays in lockstep.
"""

import random

import numpy as np

from rgpert.algebra import (ParamPolynomial, EpsilonSeries, substitute, P,
                            gr, grq, I, ZERO)
from rgpert.algebra.poly import (_HALF, _MASK, _ZERO_POLY, _as_poly,
                                 _normalized, _reader)
from rgpert.errors import (DegenerateRoot, NonRationalRoot, NotPolarizable,
                           RootNotBracketed, SupportOverflow, TrivialLinear)
from rgpert.perturbation import NaiveSeries, particular_solution
from rgpert.potential import (HARMONIC, OnlinePotential, Potential,
                              eval_potential, harmonic, harmonics)
from rgpert.rg import PHASE, PolarRG
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


def dt(c):
    """d/dt + i*z*d/dz of one eps-coefficient of a harmonic table: the
    time derivative as t and z = e^{it} vary, by two derivatives, a
    product and a sum, where ``rgpert.potential.iz_dz`` maps the terms of
    a t-free one."""
    return c.diff("t") + c.diff(HARMONIC) * _IZ


def source_harmonics(source, k, bound):
    """(n, z^n coefficient) of the order-k source term for increasing n,
    from one split of the source, where ``rgpert.rg`` reads the order's
    unknowns off it in one term map; SupportOverflow on a harmonic
    |n| > bound."""
    parts = source.split((HARMONIC,))
    for (n,) in sorted(parts):
        if abs(n) > bound:
            raise SupportOverflow(
                f"harmonic {n} at order {k} exceeds bound {bound}; "
                "potential may be outside the class")
        yield n, parts[n,]


def naive_expand(V, K):
    """Reference oracle: the naive series of y'' + y = eps*V up to eps^K,
    one eps-order at a time.

    Each order decouples into one linear ODE per harmonic,

        p'' + 2 i n p' + (1 - n^2) p = q(t),

    whose right-hand side q is the z^n part of the eps^(k-1) coefficient
    of V(y), fed to an OnlinePotential.  The resonant harmonics n = +-1
    pick up a t-degree and their free constant is fixed by the
    normalization f_{+-1,k}(0) = 0.
    """
    support_bound = 1 + K * V.support_growth_rate()
    # the free oscillation A e^{it} + B e^{-it} at eps^0
    coeffs = [ParamPolynomial.var("A") * ParamPolynomial.var(HARMONIC) +
              ParamPolynomial.var("B") * ParamPolynomial.var(HARMONIC, -1)]
    v_of_y = OnlinePotential(V)
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


def series_solve_root_full_cap(G, var, u0):
    """Reference oracle: series_solve_root with every Newton step at the
    full cap, enough steps to double 1 correct order past cap + 1."""
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
        u = u - gu * gpu.inverse()
    residual = substitute(H, {var: u})
    if not residual.is_zero():
        raise DegenerateRoot("Newton iteration failed to converge")
    return u


def eval_potential_whole(V, y, K):
    """Reference oracle: V(y) mod eps^{K+1}, every power of y and y' a
    whole truncated series, each power the previous one times the base."""
    y = y.truncate(K)
    y_powers, dy_powers = [y], []
    out = EpsilonSeries(K)
    for (k, l, m, n), c in sorted(V.coeffs.items()):
        if n > K:
            continue
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
