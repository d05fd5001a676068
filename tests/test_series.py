import pytest
from hypothesis import given, strategies as st

from rgpert.algebra import (EpsilonSeries, ParamPolynomial, GaussianRational,
                            P, gr, Rat, substitute, series_solve_root)
from rgpert.errors import CapMismatch, DegenerateRoot, NonRationalRoot


u = P("u")


def series5():
    coeffs = st.builds(lambda a, b: gr(a, b),
                       st.integers(-3, 3), st.integers(-3, 3))
    poly = st.builds(
        lambda c, e: ParamPolynomial.monomial(c, u=e),
        coeffs, st.integers(0, 2))
    return st.builds(lambda ps: EpsilonSeries(4, ps),
                     st.lists(poly, min_size=5, max_size=5))


def test_cap_discipline():
    a = EpsilonSeries.const(gr(1), 3)
    b = EpsilonSeries.const(gr(1), 4)
    with pytest.raises(CapMismatch):
        a + b
    assert a + b.truncate(3) == EpsilonSeries.const(gr(2), 3)


def test_truncated_multiplication():
    e = EpsilonSeries.eps(2)
    assert (e * e * e).is_zero()          # eps^3 drops beyond the cap
    assert (e * e).valuation() == 2


def test_inverse():
    one_minus = EpsilonSeries.const(gr(1), 4) - EpsilonSeries.eps(4)
    geom = one_minus.inverse()
    expect = EpsilonSeries(4, [ParamPolynomial.const(1)] * 5)
    assert geom == expect
    assert (one_minus * geom) == EpsilonSeries.const(gr(1), 4)


def test_shift_and_valuation():
    s = EpsilonSeries.from_poly(u, 3).shift(2)
    assert s.valuation() == 2
    assert EpsilonSeries.zero(3).valuation() is None


def test_string_rendering():
    s = EpsilonSeries.const(gr(1), 2) - EpsilonSeries.eps(2)
    assert str(s) == "1 - eps"


def test_substitute_is_composition():
    # f(eps, u) = u^2 + eps*u evaluated at u -> 1 + eps
    f = EpsilonSeries.from_poly(u ** 2, 2) + \
        EpsilonSeries.from_poly(u, 2).shift(1)
    g = EpsilonSeries.const(gr(1), 2) + EpsilonSeries.eps(2)
    out = substitute(f, {"u": g})
    # (1+eps)^2 + eps(1+eps) = 1 + 3 eps + 2 eps^2
    assert out == EpsilonSeries(2, [ParamPolynomial.const(1),
                                    ParamPolynomial.const(3),
                                    ParamPolynomial.const(2)])


def test_solve_root_geometric():
    # G(eps, u) = u - 1 - eps*u has the root u = 1/(1-eps)
    G = (EpsilonSeries.from_poly(u, 4) - EpsilonSeries.const(gr(1), 4)
         - EpsilonSeries.from_poly(u, 4).shift(1))
    root = series_solve_root(G, "u", gr(1))
    assert root == EpsilonSeries(4, [ParamPolynomial.const(1)] * 5)


def test_solve_root_degenerate():
    G = EpsilonSeries.from_poly(u ** 2, 3)  # double root at 0
    with pytest.raises(DegenerateRoot):
        series_solve_root(G, "u", gr(0))


def test_solve_root_wrong_start():
    G = EpsilonSeries.from_poly(u - 2, 3)
    with pytest.raises(NonRationalRoot):
        series_solve_root(G, "u", gr(1))


@given(series5(), series5(), series5())
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@given(series5(), series5())
def test_substitution_homomorphism(a, b):
    g = EpsilonSeries.const(gr(1), 4) + EpsilonSeries.eps(4) * gr(0, 1)
    sub = {"u": g}
    assert substitute(a * b, sub) == substitute(a, sub) * substitute(b, sub)
    assert substitute(a + b, sub) == substitute(a, sub) + substitute(b, sub)
