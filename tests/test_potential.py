import pytest

from rgpert.algebra import ParamPolynomial, EpsilonSeries, P, gr, grq
from rgpert.errors import (BudgetExceeded, CapMismatch, ParseError,
                           NotInClass, TrivialLinear)
from rgpert.perturbation import expand
from rgpert.potential import (Potential, parse_potential, eval_potential,
                              HARMONIC, MAX_DEGREE, RESERVED_NAMES,
                              harmonic, harmonics, lie)
from rgpert.registry import EXAMPLES, get_example
from rgpert.rg import _homological_solve

from oracles import (constant_term, dt, eval_potential_whole,
                     random_potential)


one = ParamPolynomial.const(1)
z = P(HARMONIC)
z_inv = ParamPolynomial.var(HARMONIC, -1)
_ZERO = ParamPolynomial.zero()


def free_oscillation(cap):
    """A e^{it} + B e^{-it} at eps^0, as a harmonic table."""
    return EpsilonSeries.from_poly(P("A") * z + P("B") * z_inv, cap)


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


def test_bind_validates_the_bound_potential():
    # g = 0 leaves the damping -y', which the parser rejects as well
    V = parse_potential("-y' - g*y^3", ("g",))
    with pytest.raises(TrivialLinear):
        V.bind({"g": 0})
    with pytest.raises(TrivialLinear):
        parse_potential("-y'")


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
    table = {exps + (n,): c for n, p in enumerate(s.coeffs)
             for exps, c in p.split((HARMONIC, "y", "y'")).items()}
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
    # an operator or ')' where a term is due is not an identifier
    for text, at in [("y +* y'", 3), ("y' + -y^3", 5), ("*y", 0),
                     ("y + )", 4), ("(^2)", 1), ("y*+y'", 2)]:
        with pytest.raises(ParseError) as exc:
            parse_potential(text)
        assert str(exc.value) == f"expected a term (at position {at})"
    with pytest.raises(ParseError):
        parse_potential("q*y")        # unknown identifier
    with pytest.raises(ParseError):
        parse_potential("(y")
    with pytest.raises(ParseError) as exc:
        parse_potential("1/0*y'")
    assert exc.value.position == 0


def test_conjugation_symmetry():
    assert parse_potential("(1 - y^2)*y'").is_conjugation_symmetric()
    assert parse_potential("2*y*y'*cos(1t)").is_conjugation_symmetric()
    assert not parse_potential("y^2 + i*y^2").is_conjugation_symmetric()


def test_support_growth_rate():
    assert parse_potential("(1 - y^2)*y'").support_growth_rate() == 2
    assert parse_potential("2*y*y'*cos(1t)").support_growth_rate() == 2
    assert parse_potential("y' - 1/3*y'^3").support_growth_rate() == 2


def test_eval_potential_on_free_oscillation():
    # V = y' on A e^{it} + B e^{-it} gives iA e^{it} - iB e^{-it}
    V = parse_potential("y' - 1/3*y'^3")
    y = free_oscillation(1)
    out = eval_potential(V, y, y.map_coeffs(dt), 0)
    assert constant_term(harmonic(out, 1).coeffs[0].coefficient(
        "A", 1)) == gr(0, 1)
    assert constant_term(harmonic(out, -1).coeffs[0].coefficient(
        "B", 1)) == gr(0, -1)


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
    with pytest.raises(NotInClass):
        Potential({(0, 2, 1, 0): P(name), (0, 0, 1, 0): one}, (name,))


def test_free_oscillation_time_derivative():
    dy = free_oscillation(2).map_coeffs(dt)
    i = gr(0, 1)
    want = i * P("A") * z - i * P("B") * z_inv
    assert dy == EpsilonSeries.from_poly(want, 2)
    assert harmonic(dy, 1).coeffs[0] == i * P("A")
    assert harmonics(dy) == [-1, 1]


def test_eval_potential_of_y_times_dy():
    # (A z + B/z)(iA z - iB/z) = iA^2 z^2 - iB^2 z^-2: the z^0 parts cancel
    V = parse_potential("y*y'")
    y = free_oscillation(1)
    out = eval_potential(V, y, y.map_coeffs(dt), 0)
    assert harmonics(out) == [-2, 2]
    assert harmonic(out, 2).coeffs[0] == gr(0, 1) * P("A") ** 2
    assert harmonic(out, -2).coeffs[0] == gr(0, -1) * P("B") ** 2
    assert harmonic(out, 0).coeffs[0].is_zero()


ONLINE_CASES = {
    "vdp": (get_example("vdp").potential(), 7),
    "rayleigh": (get_example("rayleigh").potential(), 6),
    "nonauto": (get_example("nonauto").potential(), 6),
    "duffing g=1": (get_example("duffing").potential().bind({"g": 1}), 5),
    "mathieu g=1": (get_example("mathieu").potential().bind({"g": 1}), 5),
    "duffing symbolic g": (get_example("duffing").potential(), 4),
    # higher and mixed powers, eps-shifted terms and a bare forcing term
    "mixed": (parse_potential("y^2*cos(2t) + y'^3 - 1/2*y*y'^2 + 3*y^5"),
              3),
    "eps terms": (parse_potential(
        "y^3 + eps*y*y'^2 - 1/2*eps^2*cos(3t)"), 4),
}
ONLINE_CASES.update({f"random seed {seed}": (random_potential(seed), 5)
                     for seed in range(8)})


@pytest.mark.parametrize("name", sorted(ONLINE_CASES))
def test_online_potential_matches_whole_series_oracle(name):
    # each fed coefficient of the naive table gives [eps^j] V(y) of the
    # whole-series oracle at that order
    V, K = ONLINE_CASES[name]
    table = expand(V, K).table
    want = eval_potential_whole(V, table, K).coeffs
    online = V.composition()
    for j, y_j in enumerate(table.coeffs):
        assert online.feed(y_j, dt(y_j)) == want[j], (name, j)
    assert eval_potential(V, table, table.map_coeffs(dt), K).coeffs == want


def test_online_potential_on_a_table_that_is_no_solution():
    # the routine is plain series arithmetic: any y, not only naive tables
    V = parse_potential("y^3*y' + y'^2 - y^2*E(1) + eps*E(-2)")
    t, A = P("t"), P("A")
    y = EpsilonSeries(3, [
        A * z + P("B") * z_inv, t * A * z ** 3, _ZERO, grq(1, 3) * t * z])
    want = eval_potential_whole(V, y, 3).coeffs
    online = V.composition()
    assert [online.feed(c, dt(c)) for c in y.coeffs] == list(want)


def test_online_potential_degree_budget():
    at_budget = parse_potential(f"y^{MAX_DEGREE - 1}*y' + y")
    at_budget.composition()
    with pytest.raises(BudgetExceeded, match=f"degree {MAX_DEGREE + 1}"):
        parse_potential(f"y^{MAX_DEGREE}*y' + y").composition()
    with pytest.raises(BudgetExceeded):
        expand(parse_potential(f"y'^{MAX_DEGREE + 1}"), 1)


HAND_TABLE = EpsilonSeries(3, [
    P("A") * z + P("B") * z_inv,
    P("t") * P("A") * z ** 3 - grq(1, 2) * P("g") * P("B") ** 2,
    _ZERO,
    grq(1, 3) * P("t") * z +
    gr(0, 2) * P("A") * P("B") * ParamPolynomial.var(HARMONIC, -5)])


@pytest.mark.parametrize("name", sorted(EXAMPLES) + ["not a solution"])
def test_harmonic_columns_sum_to_the_table(name):
    # sum_n harmonic(T, n) z^n == T: the columns split the table exactly
    table = (HAND_TABLE if name not in EXAMPLES else
             expand(get_example(name).potential(), 4).table)
    total = EpsilonSeries(table.cap)
    for n in harmonics(table):
        total = total + harmonic(table, n) * ParamPolynomial.var(HARMONIC, n)
    assert total == table
    # beyond the support bound 1 + K*M of every table here
    assert harmonic(table, 100).is_zero() and 100 not in harmonics(table)


def test_harmonics_of_the_hand_written_table():
    assert harmonics(HAND_TABLE) == [-5, -1, 0, 1, 3]
    assert harmonic(HAND_TABLE, 0) == EpsilonSeries.from_poly(
        -grq(1, 2) * P("g") * P("B") ** 2, 3, 1)


def test_series_lie_is_the_sum_of_series_products():
    # one multiply-accumulate per eps-order equals the whole-series form,
    # on the solve's own (X, h) and on its naive table, whose X have
    # support at several orders
    for name in ("vdp", "nonauto", "duffing"):
        x_a, x_b, h = _homological_solve(get_example(name).potential(), 5,
                                           ("A", "B"))
        table = expand(get_example(name).potential(), 5).table
        for p in (h, table, table.diff("t")):
            assert lie(x_a, x_b, p) == (x_a * p.diff("A") +
                                        x_b * p.diff("B"))
    # a hand-built X with an eps^0 part, which reaches the top
    # coefficient of p, and a zero X_B at eps^1
    x_a = EpsilonSeries(3, [P("B"), grq(1, 2) * P("A") ** 2, _ZERO,
                            gr(0, 1) * P("A") * P("g")])
    x_b = EpsilonSeries(3, [-P("A") * P("B"), _ZERO, P("B") ** 3, one])
    for p in (HAND_TABLE, HAND_TABLE.diff("t")):
        assert lie(x_a, x_b, p) == x_a * p.diff("A") + x_b * p.diff("B")
    x3, p4 = (EpsilonSeries.from_poly(P("A") * P("B"), cap, 1)
              for cap in (3, 4))
    with pytest.raises(CapMismatch):
        lie(x3, x3, p4)


def test_lie_differentiates_each_coefficient_once(monkeypatch):
    # on the solve's X, X_0 = 0: only the coefficients below the cap are
    # differentiated, each at most once per amplitude
    V = get_example("vdp").potential()
    x_a, x_b, h = _homological_solve(V, 5, ("A", "B"))
    table = expand(V, 5).table
    calls = []
    diff = ParamPolynomial.diff

    def counted(self, name):
        calls.append((id(self), name))
        return diff(self, name)

    monkeypatch.setattr(ParamPolynomial, "diff", counted)
    for p in (h, table):
        calls.clear()
        lie(x_a, x_b, p)
        below = {id(c) for c in p.coeffs[:-1]}
        assert calls and len(set(calls)) == len(calls)
        assert {c for c, _ in calls} <= below
        assert id(p.coeffs[-1]) not in below
