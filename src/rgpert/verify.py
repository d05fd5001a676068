"""Exact identities of the naive series and of its RG system, checked
in the truncated ring mod eps^{K+1}, K the cap of the series.

The group property of the naive series (``check_functional_relation``)
and its inversion corollary (``check_inversion``) are checked in
generator form: the normalisation P_{+-1}(eps,0,A,B) = (A,B) plus the
first-order PDE d_t P_n = X_A d_A P_n + X_B d_B P_n, where
X = d_t P_{+-1}(eps,0,A,B) is the amplitude-equation vector field.  That
needs only derivatives and products, made once per table: (G) is one
series expression on the whole harmonic table,
NaiveSeries.generator_defect, and each report reads the z^n columns it
needs from it, the inversion report its n = +-1 part.  The readout of
(X, h) is shared likewise (NaiveSeries.at_zero).  The series-composition
forms are reference oracles of the test suite.

perturbation.expand builds the table by transporting the normal form,
f = exp(tL) h, so (N) and (G) exercise that transport.  The residual
check is the independent certificate that the table solves the ODE.  It
evaluates V at t = 0 only, on f(0) and f'(0) read off the t^0 and t^1
slices of the table, not on polynomials in t: given (G), the ODE
residual of f is exp(tL) applied to its value at t = 0.

Every check returns an IdentityReport; a failure carries the first
offending (harmonic, eps-order, monomial) as a concrete counterexample.
"""

from dataclasses import dataclass

from .algebra import EpsilonSeries, P
from .potential import eval_potential, harmonic, harmonics, iz_dz


@dataclass(frozen=True)
class IdentityReport:
    name: str
    cap: int
    passed: bool
    counterexample: tuple | None = None

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        extra = ""
        if not self.passed and self.counterexample is not None:
            n, k, mono = self.counterexample
            extra = f"  (harmonic {n}, eps^{k}, monomial {mono})"
        return f"{self.name} @K={self.cap}: {status}{extra}"


def _term(vars, exps, coeff):
    """One term in the ``coeff*v^e*...`` counterexample format."""
    mono = "*".join(f"{v}^{e}" for v, e in zip(vars, exps) if e)
    return f"{coeff}*{mono}" if mono else str(coeff)


def _first_offense(n, diff):
    """(n, eps-order, monomial) of the first nonzero term of a series."""
    for k, c in enumerate(diff.coeffs):
        if not c.is_zero():
            exps, coeff = c.sorted_terms()[0]
            return (n, k, _term(c.vars, exps, coeff))
    return None


def _report(name, K, offenses):
    for off in offenses:
        if off is not None:
            return IdentityReport(name, K, False, off)
    return IdentityReport(name, K, True)


def _generator_offenses(Y, harmonics):
    """Offenses against the normalisation P_{+-1}(eps,0,A,B) == (A, B) and
    against d_t P_n == X_A d_A P_n + X_B d_B P_n for each given harmonic,
    with X_A = d_t P_1(eps,0,A,B) and X_B = d_t P_-1(eps,0,A,B) taken
    from Y itself rather than from the RG system being certified.  The
    (G) products are made once per table, in Y.generator_defect(); each
    call only reads the z^n columns of that defect."""
    _, _, h = Y.at_zero()
    defect = Y.generator_defect()
    return ([_first_offense(n, harmonic(h, n) -
                            EpsilonSeries.from_poly(v, Y.cap))
             for n, v in ((1, P("A")), (-1, P("B")))] +
            [_first_offense(n, harmonic(defect, n)) for n in harmonics])


def check_functional_relation(Y):
    """P_n(eps,t,A,B) == P_n(eps,t-s, P_1(eps,s,A,B), P_-1(eps,s,A,B))
    mod eps^{K+1} for every harmonic n, checked in generator form.

    Write P(t,.) = (P_1, P_-1)(eps,t,.) and X = d_t P(0,.).  The relation
    holds for all n iff
      (N) P(0,.) == id, and
      (G) d_t P_n == X_A d_A P_n + X_B d_B P_n for every n.
    Relation => (N): at t = s it reads P(s,.) == P(0,.) o P(s,.), and
    P(s,.) is formally invertible.  Relation => (G): differentiate in s
    at s = 0 and use (N).  (N) + (G) => relation, by characteristics:
    the derivation L = X_A d_A + X_B d_B commutes with d_t, so (G) gives
    d_t^j P_n = L^j P_n and Taylor's formula in t gives
    P_n(t,.) = exp(tL) P_n(0,.).  By (N), Phi_t = P(t,.) = exp(tL) id is
    the time-t flow of X, and since exp(sL) is a ring homomorphism,
    g o Phi_s = exp(sL) g for every polynomial g in A, B.  Hence
    P_n(t-s, Phi_s(.)) = exp(sL) exp((t-s)L) P_n(0,.) = P_n(t,.).
    X = O(eps), as the eps^0 part of the table is the free oscillation,
    so exp(tL) is a finite sum mod eps^{K+1}: every step is exact in the
    truncated ring, and no series is composed.
    """
    return _report("functional_relation", Y.cap,
                   _generator_offenses(Y, Y.harmonics()))


def check_inversion(Y):
    """P_{+-1}(eps,t, P_1(eps,-t,A,B), P_-1(eps,-t,A,B)) == (A, B),
    checked in generator form: (N) and the n = +-1 part of (G) of
    check_functional_relation, read off the same (G) defect of the table,
    which is made once whichever check runs first.

    Inversion is the functional relation at t = 0, s = -t, together with
    (N).  (N) + (G) for n = +-1 say that P(t,.) is the time-t flow Phi_t
    of X, so Phi_t o Phi_{-t} = Phi_0 = id.  This is stricter than the
    composition form: a table that is not a flow, e.g. one with a
    mutation odd in t at the top eps-order, can still satisfy the
    inversion by series composition.
    """
    return _report("inversion", Y.cap, _generator_offenses(Y, (1, -1)))


def check_residual(Y):
    """y'' + y - eps*V(y, y') == 0 mod eps^{K+1} for the table f, checked
    at t = 0: with f_j the t^j slice of f and i z d_z the time derivative
    of a t-free slice,

        f(0) = f_0,  f'(0) = i z d_z f_0 + f_1,
        f''(0) = (i z d_z)^2 f_0 + 2 i z d_z f_1 + 2 f_2,

    every harmonic of f''(0) + f(0) - eps*V(f(0), f'(0)) vanishes mod
    eps^{K+1}.

    Given (G) of check_functional_relation, this residual vanishes iff
    that of f does.  (G) gives d_t f = L f with L = X_A d_A + X_B d_B and
    X free of t and z, hence f = exp(tL) f(0) by Taylor's formula in t.
    L commutes with the time derivative d_t + i z d_z, so f' and f''
    satisfy (G) too: f' = exp(tL) f'(0) and f'' = exp(tL) f''(0).
    exp(tL) is a ring homomorphism that fixes z, eps and the parameters,
    and V is a polynomial in those and y, y', so the residual of f is
    exp(tL) applied to its value at t = 0, and exp(tL) is invertible,
    with inverse exp(-tL).  A failure names the harmonic, eps-order and
    monomial of the first nonzero term.
    """
    K = Y.cap
    _, _, f0 = Y.at_zero()
    f1, f2 = (Y.table.map_coeffs(lambda c, j=j: c.coefficient("t", j))
              for j in (1, 2))
    df = f0.map_coeffs(iz_dz) + f1
    resid = (df + f1).map_coeffs(iz_dz) + f2 + f2 + f0
    if K >= 1:
        rhs = eval_potential(Y.potential, f0, df, K - 1)
        resid = resid - rhs.extend(K).shift(1)
    return _report("residual", K, [_first_offense(n, harmonic(resid, n))
                                   for n in harmonics(resid)])


def check_secular_free(rgsys):
    """Every harmonic of the renormalized expansion is t-free."""
    offenses = []
    for n in harmonics(rgsys.expansion):
        for k, c in enumerate(harmonic(rgsys.expansion, n).coeffs):
            if c.degree_in("t") > 0:
                i = c.vars.index("t")
                exps, coeff = next(
                    term for term in c.sorted_terms() if term[0][i])
                offenses.append((n, k, _term(c.vars, exps, coeff)))
                break
        else:
            offenses.append(None)
    return _report("secular_free", rgsys.cap, offenses)


def run_identity_suite(Y, rgsys=None):
    """All applicable checks; list of IdentityReports."""
    out = [check_functional_relation(Y),
           check_inversion(Y),
           check_residual(Y)]
    if rgsys is not None:
        out.append(check_secular_free(rgsys))
    return out
