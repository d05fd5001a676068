"""Reference oracles of the test suite.

The composition forms of the functional relation and of the inversion,
which ``rgpert.verify`` checks in generator form, V(y) by whole-series
powers, which ``rgpert.potential`` builds online, and seeded random
in-class potentials.
"""

import random

from rgpert.algebra import (ParamPolynomial, EpsilonSeries, substitute, P,
                            gr, grq)
from rgpert.errors import TrivialLinear
from rgpert.potential import HARMONIC, HarmonicSeries, Potential
from rgpert.verify import _first_offense, _report


def check_functional_relation_finite(Y, K=None):
    """Reference oracle: P_n(eps,t,A,B) ==
    P_n(eps,t-s, P_1(eps,s,A,B), P_-1(eps,s,A,B)) as an exact identity
    mod eps^{K+1}, with symbolic s, by series composition."""
    if K is None:
        K = Y.cap
    shift = {"t": P("s")}
    p1_s = Y.secular_coefficient(1).truncate(K).subs_poly(shift)
    pm1_s = Y.secular_coefficient(-1).truncate(K).subs_poly(shift)
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
    p1_neg = Y.secular_coefficient(1).truncate(K).subs_poly(neg_t)
    pm1_neg = Y.secular_coefficient(-1).truncate(K).subs_poly(neg_t)
    offenses = []
    for n, target in ((1, P("A")), (-1, P("B"))):
        lhs = substitute(Y.secular_coefficient(n).truncate(K),
                         {"A": p1_neg, "B": pm1_neg})
        offenses.append(
            _first_offense(n, lhs - EpsilonSeries.from_poly(target, K)))
    return _report("inversion", K, offenses)


def eval_potential_whole(V, y, K):
    """Reference oracle: V(y) mod eps^{K+1}, every power of y and y' a
    whole truncated series, each power the previous one times the base."""
    y = y.truncate(K).series
    y_powers, dy_powers = [y], []
    out = EpsilonSeries.zero(K)
    for (k, l, m, n), c in sorted(V.coeffs.items()):
        if n > K:
            continue
        term = EpsilonSeries.const(c * ParamPolynomial.var(HARMONIC, k), K)
        if l:
            term = term * _power(y_powers, l)
        if m:
            if not dy_powers:
                dy_powers.append(HarmonicSeries(y).dt().series)
            term = term * _power(dy_powers, m)
        out = out + term.shift(n)
    return HarmonicSeries(out)


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
