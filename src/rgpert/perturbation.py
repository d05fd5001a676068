"""Order-by-order construction of the naive perturbation series.

Each eps-order decouples into one linear ODE per harmonic,

    p'' + 2 i n p' + (1 - n^2) p = q(t),

with polynomial right-hand sides.  The resonant harmonics n = +-1 pick
up a t-degree and their free constant is fixed by the normalization
f_{+-1,k}(0) = 0.

The right-hand side of order k is the eps^(k-1) coefficient of V(y).  It
comes from an OnlinePotential fed f_{k-1} and dt(f_{k-1}), a Composition
of V's terms in y and y': every power of y and y' and every product of
such powers grows by one Cauchy sum per order instead of being rebuilt
as a whole series.
The residual check runs a fresh instance over the finished table
(eval_potential), independently of what expand kept.

rg.normal_form computes the t = 0 slice of this table and the amplitude
equation without t; the table stays as its independent oracle and as
the input of the identity checks.
"""

from .algebra import GaussianRational, ParamPolynomial, EpsilonSeries, Rat
from .potential import (HARMONIC, OnlinePotential, dt, harmonic, harmonics,
                        source_harmonics)

_ZP = ParamPolynomial.zero()


def particular_solution(n, q):
    """Polynomial solution of p'' + 2i*n*p' + (1-n^2)*p = q.

    For |n| != 1 the solution is the unique polynomial of deg q; for the
    resonant n = +-1 it has degree deg q + 1 and zero constant term.
    """
    if q.is_zero():
        return _ZP
    if abs(n) == 1:
        # (D + 2in) p' = q  =>  p' = sum_j (-D/(2in))^j q / (2in)
        inv = GaussianRational(0, Rat(2 * n)).inverse()
        r = _ZP
        term = q.scaled(inv)
        while not term.is_zero():
            r = r + term
            term = term.diff("t").scaled(-inv)
        return r.integrate("t")
    c_inv = GaussianRational(Rat(1, 1 - n * n))
    two_in = GaussianRational(0, Rat(2 * n))
    p = _ZP
    term = q.scaled(c_inv)
    while not term.is_zero():
        p = p + term
        term = (term.diff("t").diff("t") +
                term.diff("t") * two_in).scaled(-c_inv)
    return p


class NaiveSeries:
    """The table f_{n,k}(t) of the normalized naive solution: ``table`` is
    a harmonic table (see potential), f_{n,k} its z^n entry at eps^k."""

    __slots__ = ("potential", "cap", "table")

    def __init__(self, potential, cap, table):
        self.potential = potential
        self.cap = cap
        self.table = table

    def entry(self, n, k):
        return self.table.coeffs[k].coefficient(HARMONIC, n)

    def secular_coefficient(self, n):
        """P_n(eps, t, A, B) truncated at the cap."""
        return harmonic(self.table, n)

    def harmonics(self):
        return harmonics(self.table)

    def __repr__(self):
        return f"<NaiveSeries cap={self.cap} harmonics={self.harmonics()}>"


def expand(V, K, support_bound=None):
    """Build the naive series of y'' + y = eps*V up to eps^K."""
    M = V.support_growth_rate()
    if support_bound is None:
        support_bound = 1 + K * M
    # the free oscillation A e^{it} + B e^{-it} at eps^0
    coeffs = [ParamPolynomial.var("A") * ParamPolynomial.var(HARMONIC) +
              ParamPolynomial.var("B") * ParamPolynomial.var(HARMONIC, -1)]
    coeffs += [_ZP] * K
    v_of_y = OnlinePotential(V)
    for k in range(1, K + 1):
        # eps^{k-1} of V(y): a Laurent polynomial in z = e^{it}
        source = v_of_y.feed(coeffs[k - 1], dt(coeffs[k - 1]))
        f_k = _ZP
        for n, q in source_harmonics(source, k, support_bound):
            f_k = f_k + (particular_solution(n, q) *
                         ParamPolynomial.var(HARMONIC, n))
        coeffs[k] = f_k
    return NaiveSeries(V, K, EpsilonSeries(K, coeffs))
