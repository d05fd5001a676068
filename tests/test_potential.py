import pytest

from rgpert.algebra import (ParamPolynomial, EpsilonSeries, P, gr, grq,
                            order_vars)
from rgpert.errors import ParseError, NotInClass, TrivialLinear
from rgpert.potential import (Potential, parse_potential, eval_potential,
                              HarmonicSeries, HARMONIC, RESERVED_NAMES)


one = ParamPolynomial.const(1)
z = P(HARMONIC)
z_inv = ParamPolynomial.var(HARMONIC, -1)


def test_van_der_pol_table():
    V = parse_potential("(1 - y^2)*y'")
    assert V.coeffs == {(0, 0, 1, 0): one, (0, 2, 1, 0): -one}


def test_cos_expands_to_exponentials():
    V = parse_potential("2*y*y'*cos(1t)")
    assert V.coeffs == {(1, 1, 1, 0): one, (-1, 1, 1, 0): one}


def test_sin_and_explicit_exponential():
    V = parse_potential("sin(2t)*y")
    i_half = grq(0, 1, -1, 2)
    assert V.coeffs == {(2, 1, 0, 0): i_half, (-2, 1, 0, 0): -i_half}
    W = parse_potential("y*E(3) + 2*y'*E(-1)")
    assert W.coeffs == {(3, 1, 0, 0): one, (-1, 0, 1, 0): 2 * one}


def test_symbolic_parameters():
    V = parse_potential("-y' - g*y^3", ("g",))
    assert V.params == ("g",)
    assert V.coeffs[(0, 3, 0, 0)] == -P("g")
    bound = V.bind({"g": 1})
    assert bound.params == ()
    assert bound.coeffs[(0, 3, 0, 0)] == -one


def test_eps_dependence():
    V = parse_potential("y + eps*y^2")
    assert V.coeffs == {(0, 1, 0, 0): one, (0, 2, 0, 1): one}


def test_series_round_trips_eps_terms():
    V = parse_potential("y^3 + eps*g*y*y' - 1/2*eps^2*cos(2t)*y' + eps*E(-1)",
                        ("g",))
    s = V.series()
    assert s.cap == 2
    assert s.coeffs[1] == P("g") * P("y") * P("y'") + z_inv
    # split the series back into the quartet table, as the parser does
    names = (HARMONIC, "y", "y'")
    table = {}
    for n, c in enumerate(s.coeffs):
        c = c.reindexed(order_vars(c.vars + names))
        pos = [c.vars.index(name) for name in names]
        for exps, residual in c.residuals(names):
            key = tuple(exps[i] for i in pos) + (n,)
            table[key] = table.get(key, ParamPolynomial.zero()) + residual
    assert Potential(table, V.params) == V


def test_polynomial_t_is_rejected():
    with pytest.raises(NotInClass):
        parse_potential("t*y")


def test_trivial_linear_is_rejected():
    # y'' + y = eps*y only detunes the frequency: no resonant structure
    with pytest.raises(TrivialLinear):
        parse_potential("y")
    with pytest.raises(TrivialLinear):
        parse_potential("E(1)")


def test_mathieu_is_admissible():
    # the driving e^{+-it}*y saves (g + 2cos t)*(-y) from triviality
    V = parse_potential("(g + 2*cos(1t))*(-y)", ("g",))
    assert (1, 1, 0, 0) in V.coeffs and (0, 1, 0, 0) in V.coeffs


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_potential("y +* y'")
    assert exc.value.position == 3
    with pytest.raises(ParseError):
        parse_potential("q*y")        # unknown identifier
    with pytest.raises(ParseError):
        parse_potential("(y")


def test_conjugation_symmetry():
    assert parse_potential("(1 - y^2)*y'").is_conjugation_symmetric()
    assert parse_potential("2*y*y'*cos(1t)").is_conjugation_symmetric()
    assert not parse_potential("y^2 + i*y^2").is_conjugation_symmetric()


def test_support_growth_rate():
    assert parse_potential("(1 - y^2)*y'").support_growth_rate() == 2
    assert parse_potential("2*y*y'*cos(1t)").support_growth_rate() == 2
    assert parse_potential("y' - 1/3*y'^3").support_growth_rate() == 2


def test_json_roundtrip():
    V = parse_potential("-y' - g*y^3", ("g",))
    W = Potential.from_json(V.to_json())
    assert W.coeffs == V.coeffs and W.params == V.params


def test_eval_potential_on_free_oscillation():
    # V = y' on A e^{it} + B e^{-it} gives iA e^{it} - iB e^{-it}
    V = parse_potential("y' - 1/3*y'^3")
    y = HarmonicSeries.free_oscillation(1)
    out = eval_potential(V, y, 0)
    assert out.entry(1, 0).coefficient("A", 1).constant_term() == gr(0, 1)
    assert out.entry(-1, 0).coefficient("B", 1).constant_term() == gr(0, -1)


@pytest.mark.parametrize("text,params,table", [
    # nested powers expand like the flat power
    ("((y + y')^2)^2", (),
     {(0, 4, 0, 0): 1, (0, 3, 1, 0): 4, (0, 2, 2, 0): 6, (0, 1, 3, 0): 4,
      (0, 0, 4, 0): 1}),
    ("y*cos(2t)^2", (),
     {(4, 1, 0, 0): grq(1, 4), (0, 1, 0, 0): grq(1, 2),
      (-4, 1, 0, 0): grq(1, 4)}),
    ("y'^2*sin(1t)^2", (),
     {(2, 0, 2, 0): grq(-1, 4), (0, 0, 2, 0): grq(1, 2),
      (-2, 0, 2, 0): grq(-1, 4)}),
    ("E(0)*y^2*y'", (), {(0, 2, 1, 0): 1}),
    ("cos(0t)*y^3 + sin(0t)*y", (), {(0, 3, 0, 0): 1}),
    ("E(1)^3*E(-2)*y^2", (), {(1, 2, 0, 0): 1}),
    # parameter x harmonic products, collected per quartet
    ("(g + h*E(1))*y*(a - eps*E(-2))", ("g", "h", "a"),
     {(0, 1, 0, 0): P("g") * P("a"), (-2, 1, 0, 1): -P("g"),
      (1, 1, 0, 0): P("h") * P("a"), (-1, 1, 0, 1): -P("h")}),
    ("(g + 2)*y*E(1) + 3*g^2*y*E(1)", ("g",),
     {(1, 1, 0, 0): 3 * P("g") ** 2 + P("g") + 2}),
    ("2*g*y*y'*cos(1t)", ("g",),
     {(1, 1, 1, 0): P("g"), (-1, 1, 1, 0): P("g")}),
])
def test_parser_identities(text, params, table):
    V = parse_potential(text, params)
    assert V == Potential(table, params)


@pytest.mark.parametrize("name", RESERVED_NAMES)
def test_reserved_parameter_names_are_rejected(name):
    with pytest.raises(NotInClass):
        parse_potential("(1 - y^2)*y'", (name,))
    data = {"params": [name],
            "coeffs": [[[0, 2, 1, 0], P(name).to_json()]]}
    with pytest.raises(NotInClass):
        Potential.from_json(data)


def test_free_oscillation_time_derivative():
    y = HarmonicSeries.free_oscillation(2)
    i = gr(0, 1)
    want = i * P("A") * z - i * P("B") * z_inv
    assert y.dt() == HarmonicSeries(EpsilonSeries.from_poly(want, 2))
    assert y.dt().entry(1, 0) == i * P("A")
    assert y.dt().harmonics() == [-1, 1]


def test_eval_potential_of_y_times_dy():
    # (A z + B/z)(iA z - iB/z) = iA^2 z^2 - iB^2 z^-2: the z^0 parts cancel
    V = parse_potential("y*y'")
    out = eval_potential(V, HarmonicSeries.free_oscillation(1), 0)
    assert out.harmonics() == [-2, 2]
    assert out.entry(2, 0) == gr(0, 1) * P("A") ** 2
    assert out.entry(-2, 0) == gr(0, -1) * P("B") ** 2
    assert out.entry(0, 0).is_zero()
