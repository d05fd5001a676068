import pytest
from hypothesis import given, strategies as st

from rgpert.algebra import (EpsilonSeries, ParamPolynomial, Composition, P,
                            gr, grq, substitute, series_solve_root)
from rgpert.algebra.series import cauchy, square
from rgpert.errors import CapMismatch, DegenerateRoot, NonRationalRoot

from oracles import series_inverse, series_solve_root_full_cap


u = P("u")


def eps(cap):
    """The series eps with the given cap."""
    return EpsilonSeries.from_poly(1, cap, order=1)


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
    e = eps(2)
    assert (e * e * e).is_zero()          # eps^3 drops beyond the cap
    assert (e * e).valuation() == 2


def test_inverse():
    one_minus = EpsilonSeries.const(gr(1), 4) - eps(4)
    geom = series_inverse(one_minus)
    expect = EpsilonSeries(4, [ParamPolynomial.const(1)] * 5)
    assert geom == expect
    assert (one_minus * geom) == EpsilonSeries.const(gr(1), 4)


def test_shift_and_valuation():
    s = EpsilonSeries.from_poly(u, 3).shift(2)
    assert s.valuation() == 2
    assert EpsilonSeries(3).valuation() is None


def test_shift_and_from_poly_out_of_range():
    # past the cap eps^n truncates to the zero series; a negative power
    # of eps is an error, not an index from the top
    s = EpsilonSeries(2, [u, u ** 2, u ** 3])
    for n in range(3, 7):
        assert s.shift(n) == EpsilonSeries(2)
        assert EpsilonSeries.from_poly(u, 2, n) == EpsilonSeries(2)
    assert EpsilonSeries(0, [u]).shift(2) == EpsilonSeries(0)
    assert s.shift(2) == EpsilonSeries.from_poly(u, 2, 2)
    with pytest.raises(ValueError):
        s.shift(-1)
    with pytest.raises(ValueError):
        EpsilonSeries.from_poly(u, 2, -1)


def test_string_rendering():
    s = EpsilonSeries.const(gr(1), 2) - eps(2)
    assert str(s) == "1 - eps"


def test_substitute_is_composition():
    # f(eps, u) = u^2 + eps*u evaluated at u -> 1 + eps
    f = EpsilonSeries.from_poly(u ** 2, 2) + \
        EpsilonSeries.from_poly(u, 2).shift(1)
    g = EpsilonSeries.const(gr(1), 2) + eps(2)
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


def _geometric(cap):
    """G(eps, u) = u - 1 - eps*u, whose root is u = 1/(1-eps)."""
    return (EpsilonSeries.from_poly(u, cap) - EpsilonSeries.const(gr(1), cap)
            - EpsilonSeries.from_poly(u, cap).shift(1))


def _solved(solve, G, u0):
    try:
        return solve(G, "u", u0)
    except (DegenerateRoot, NonRationalRoot) as exc:
        return type(exc), str(exc)


def _param_geometric(cap):
    """G(eps, u) = u - 1 - a*eps*u, whose root is u = 1/(1 - a*eps)."""
    return (EpsilonSeries.from_poly(u, cap) - EpsilonSeries.const(gr(1), cap)
            - EpsilonSeries.from_poly(P("a") * u, cap).shift(1))


@pytest.mark.parametrize("G,u0", [
    (_geometric(4), gr(1)),
    (EpsilonSeries.from_poly(u ** 2, 3), gr(0)),
    (EpsilonSeries.from_poly(u - 2, 3), gr(1)),
    *((_geometric(cap), gr(1)) for cap in (0, 1, 2, 3, 7, 8, 12)),
    # valuation 2, a cubic in u with the simple seed root 1
    (_geometric(9).shift(2) * EpsilonSeries.from_poly(u ** 2 + 3, 9), gr(1)),
    # a coefficient that carries the parameter a
    *((_param_geometric(cap), gr(1)) for cap in (5, 12)),
    # valuation 1, a cubic with the simple negative seed root -2
    (EpsilonSeries.from_poly((u + 2) * (u ** 2 + 1), 13, 1) +
     EpsilonSeries.from_poly(u ** 3, 13, 2), gr(-2)),
    (EpsilonSeries(5), gr(3))])
def test_solve_root_equals_the_full_cap_newton(G, u0):
    # the lift gives the root, or the error, of Newton with every step at
    # the full cap, and its root makes every order of H = G/eps^v vanish:
    # the lift checks no residual, since it solves each order exactly
    root = _solved(series_solve_root, G, u0)
    assert root == _solved(series_solve_root_full_cap, G, u0)
    if isinstance(root, EpsilonSeries):
        v = G.valuation() or 0
        H = EpsilonSeries(G.cap - v, G.coeffs[v:])
        assert substitute(H, {"u": root}).is_zero()


@given(series5(), series5(), series5())
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@given(series5(), series5())
def test_substitution_homomorphism(a, b):
    g = EpsilonSeries.const(gr(1), 4) + eps(4) * gr(0, 1)
    sub = {"u": g}
    assert substitute(a * b, sub) == substitute(a, sub) * substitute(b, sub)
    assert substitute(a + b, sub) == substitute(a, sub) + substitute(b, sub)


# -- cauchy, square and Composition against whole-polynomial products -------
#
# A series with coefficients x_0..x_K is the polynomial sum x_j e^j in a
# stand-in variable e; its products are ordinary polynomial products,
# truncated by taking the coefficient of e^j.

E = "e"


def as_poly_in_e(coeffs):
    return sum((c * ParamPolynomial.var(E, j) for j, c in enumerate(coeffs)),
               ParamPolynomial.zero())


def coefficient_lists(K, names=("u",)):
    """K+1 small polynomials in the given names, zeros included."""
    scalar = st.sampled_from([gr(0), gr(0), gr(1), gr(-2), gr(0, 1),
                              grq(1, 3)])
    poly = st.lists(st.tuples(scalar, st.sampled_from(names),
                              st.integers(0, 2)), max_size=2).map(
        lambda parts: sum((ParamPolynomial.monomial(c, **{n: e})
                           for c, n, e in parts), ParamPolynomial.zero()))
    return st.lists(poly, min_size=K + 1, max_size=K + 1)


@st.composite
def two_series(draw):
    K = draw(st.integers(0, 5))
    return K, draw(coefficient_lists(K)), draw(coefficient_lists(K, ("v",)))


@given(two_series())
def test_cauchy_and_square_are_truncated_polynomial_products(case):
    K, a, b = case
    prod = as_poly_in_e(a) * as_poly_in_e(b)
    sq = as_poly_in_e(a) ** 2
    for j in range(K + 1):
        assert cauchy(a, b, j) == prod.coefficient(E, j)
        assert square(a, j) == sq.coefficient(E, j)


@st.composite
def compositions(draw):
    """(K, three coefficient lists, terms) with mixed monomials, eps
    shifts and a pure constant term among the candidates."""
    K = draw(st.integers(0, 4))
    xs = [draw(coefficient_lists(K, ("u", "v"))) for _ in range(3)]
    term = st.tuples(st.integers(0, 2),
                     st.one_of(st.just((0, 0, 0)),
                               st.tuples(*[st.integers(0, 3)] * 3)),
                     st.sampled_from([P("w"), gr(1), grq(-1, 2), gr(0, 3)]))
    terms = draw(st.lists(term, min_size=1, max_size=5))
    return K, xs, terms


@given(compositions())
def test_composition_is_a_truncated_polynomial_evaluation(case):
    K, xs, terms = case
    X = [as_poly_in_e(x) for x in xs]
    want = ParamPolynomial.zero()
    for n, exps, c in terms:
        f = ParamPolynomial.var(E, n) * c
        for Xi, e in zip(X, exps):
            f = f * Xi ** e
        want = want + f
    used = [any(exps[i] for _, exps, _ in terms) for i in range(3)]
    composition = Composition(terms)
    for j in range(K + 1):
        # a variable F does not use is never read
        fed = [x[j] if u else None for x, u in zip(xs, used)]
        assert composition.feed(*fed) == want.coefficient(E, j), j


def test_composition_of_mixed_monomials_in_three_variables():
    # F = x*y^2*z + eps*x^3*z^2 - 2 at x = 1 + eps, y = eps, z = u
    one, e0, u_ = ParamPolynomial.const(1), ParamPolynomial.zero(), P("u")
    terms = [(0, (1, 2, 1), gr(1)), (1, (3, 0, 2), gr(1)),
             (0, (0, 0, 0), gr(-2))]
    composition = Composition(terms)
    fed = [(one, e0, u_), (one, one, e0), (e0, e0, e0), (e0, e0, e0)]
    out = [composition.feed(*x) for x in fed]
    # x*y^2*z = (eps^2 + eps^3)*u, eps*x^3*z^2 = (eps + 3eps^2 + 3eps^3)*u^2
    assert out == [ParamPolynomial.const(-2), u_ ** 2,
                   u_ + 3 * u_ ** 2, u_ + 3 * u_ ** 2]


def test_composition_rejects_negative_exponents():
    with pytest.raises(ValueError, match="negative exponent"):
        Composition([(0, (1, -1, 0), gr(1))])
    with pytest.raises(ValueError, match="negative exponent"):
        substitute(EpsilonSeries.from_poly(ParamPolynomial.var("u", -1), 2),
                   {"u": EpsilonSeries.const(gr(1), 2)})
