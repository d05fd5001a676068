"""The naive perturbation series, built from the normal form.

The naive table f_{n,k}(t) (see NaiveSeries) is the normal form (h, X)
of rg.normal_form transported along the amplitude flow,

    f = exp(tL) h = sum_j t^j/j! L^j h,   L = X_A d_A + X_B d_B.

X is free of t and z, so exp(tL) commutes with D = i z d_z + L and
d/dt f = exp(tL) D h; exp(tL) is a ring homomorphism that fixes z, so
f'' + f - eps*V(f, f') = exp(tL)(D^2 h + h - eps*V(h, Dh)) = 0.  f = h
at t = 0 gives f_{+-1,k}(0) = 0 for k >= 1: f is the one polynomial-in-t
solution so normalized, the one an order-by-order solve in t gives.
X = O(eps) makes L^j h = O(eps^j): the sum stops after K terms.
"""

from .algebra import GaussianRational, ParamPolynomial, Rat
from .potential import HARMONIC, harmonic, harmonics, lie
from .rg import _homological_solve

_ZP = ParamPolynomial.zero()


def particular_solution(n, q):
    """Polynomial solution of p'' + 2i*n*p' + (1-n^2)*p = q.

    For |n| != 1 the solution is the unique polynomial of deg q; for the
    resonant n = +-1 it has degree deg q + 1 and zero constant term.

    No caller in the package: it is the step of the test oracle
    naive_expand, and perfbench/spans.py traces it by name
    (perturbation.particular_solution) until that metric is dropped.
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
    a harmonic table (see potential), f_{n,k} its z^n entry at eps^k.

    Immutable by convention: nothing assigns to ``potential``, ``cap`` or
    ``table`` after construction, so the readouts ``at_zero`` and
    ``generator_defect`` are computed once and memoised in private
    slots, shared by rg.derive_rg and every check of verify."""

    __slots__ = ("potential", "cap", "table", "_at_zero", "_defect")

    def __init__(self, potential, cap, table):
        self.potential = potential
        self.cap = cap
        self.table = table
        self._at_zero = self._defect = None

    def row(self, k):
        """{n: f_{n,k}} over the nonzero cells of eps-order k, read in one
        pass over its terms."""
        return {n: f for (n,), f in
                self.table.coeffs[k].split((HARMONIC,)).items()}

    def secular_coefficient(self, n):
        """P_n(eps, t, A, B) truncated at the cap."""
        return harmonic(self.table, n)

    def harmonics(self):
        return harmonics(self.table)

    def at_zero(self):
        """(X_A, X_B, h), each an EpsilonSeries read off the table: the
        amplitude-equation field X = d_t P_{+-1}(eps, 0, A, B), the t^1
        coefficients of the z^{+-1} columns, and h = f(t=0), the t^0
        coefficients."""
        if self._at_zero is None:
            self._at_zero = self._read_at_zero()
        return self._at_zero

    def _read_at_zero(self):
        h = self.table.map_coeffs(lambda c: c.coefficient("t", 0))
        x_a, x_b = (self.secular_coefficient(n).map_coeffs(
            lambda c: c.coefficient("t", 1)) for n in (1, -1))
        return x_a, x_b, h

    def generator_defect(self):
        """d_t f - (X_A d_A f + X_B d_B f) on the whole table, with X from
        at_zero: a harmonic table whose z^n column is the defect of (G)
        d_t P_n = X_A d_A P_n + X_B d_B P_n.  X is free of z, so the
        column of the product is the product of the column."""
        if self._defect is None:
            self._defect = self._read_defect()
        return self._defect

    def _read_defect(self):
        x_a, x_b, _ = self.at_zero()
        f = self.table
        return f.diff("t") - lie(x_a, x_b, f)

    def __repr__(self):
        return f"<NaiveSeries cap={self.cap} harmonics={self.harmonics()}>"


def expand(V, K):
    """Build the naive series of y'' + y = eps*V up to eps^K."""
    x_a, x_b, h = _homological_solve(V, K, ("A", "B"))
    table = term = h
    for j in range(1, K + 1):
        # t^j/j! L^j h from its predecessor
        term = (lie(x_a, x_b, term) *
                ParamPolynomial.var("t", 1, GaussianRational(Rat(1, j))))
        if term.is_zero():
            break
        table = table + term
    return NaiveSeries(V, K, table)
