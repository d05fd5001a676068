"""Order-by-order construction of the naive perturbation series.

Each eps-order decouples into one linear ODE per harmonic,

    p'' + 2 i n p' + (1 - n^2) p = q(t),

with polynomial right-hand sides.  The resonant harmonics n = +-1 pick
up a t-degree and their free constant is fixed by the normalization
f_{+-1,k}(0) = 0.
"""

from .algebra import GaussianRational, ParamPolynomial, EpsilonSeries, Rat
from .errors import SupportOverflow
from .potential import HARMONIC, HarmonicSeries, eval_potential

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
    """The table f_{n,k}(t) of the normalized naive solution."""

    __slots__ = ("potential", "cap", "table")

    def __init__(self, potential, cap, table):
        self.potential = potential
        self.cap = cap
        self.table = table

    def secular_coefficient(self, n):
        """P_n(eps, t, A, B) truncated at the cap."""
        return self.table.harmonic(n)

    def q_split(self):
        """(Q_1, Q_-1) with P_{+-1} = (A, B) + eps*Q_{+-1}, cap-1 series."""
        if self.cap == 0:
            raise ValueError("q_split needs cap >= 1")
        q1 = EpsilonSeries(
            self.cap - 1,
            [self.table.entry(1, k + 1) for k in range(self.cap)])
        qm1 = EpsilonSeries(
            self.cap - 1,
            [self.table.entry(-1, k + 1) for k in range(self.cap)])
        return q1, qm1

    def harmonics(self):
        return self.table.harmonics()

    def __repr__(self):
        return (f"<NaiveSeries cap={self.cap} "
                f"harmonics={self.table.harmonics()}>")


def expand(V, K, support_bound=None):
    """Build the naive series of y'' + y = eps*V up to eps^K."""
    M = V.support_growth_rate()
    if support_bound is None:
        support_bound = 1 + K * M
    y = HarmonicSeries.free_oscillation(K)
    for k in range(1, K + 1):
        # eps^{k-1} of V(y): a Laurent polynomial in z = e^{it}
        source = eval_potential(V, y, k - 1).series.coeffs[k - 1]
        f_k = _ZP
        for n in sorted(source.exponents(HARMONIC)):
            if abs(n) > support_bound:
                raise SupportOverflow(
                    f"harmonic {n} at order {k} exceeds bound "
                    f"{support_bound}; potential may be outside the class")
            p = particular_solution(n, source.coefficient(HARMONIC, n))
            f_k = f_k + p * ParamPolynomial.var(HARMONIC, n)
        coeffs = list(y.series.coeffs)
        coeffs[k] = f_k
        y = HarmonicSeries(EpsilonSeries(K, coeffs))
    return NaiveSeries(V, K, y)
