import warnings

import numpy as np
import pytest

from rgpert import mathieu
from rgpert.algebra import (EpsilonSeries, ParamPolynomial, P, gr, grq, Rat,
                            substitute)
from rgpert.errors import (NonRationalRoot, NotLinear, NotScalar,
                           RootNotBracketed, SeriesOverflow, Underdetermined)
from rgpert.mathieu import (linear_matrix, omega_squared,
                            stability_boundaries, hill_determinant,
                            find_boundary_roots,
                            boundary_crosscheck, analyze, in_parameters)
from rgpert.perturbation import expand
from rgpert.potential import parse_potential
from rgpert.rg import derive_rg, normal_form

from conftest import example_expansion
from oracles import (find_boundary_root_scalar, hill_determinant_scalar,
                     mathieu_potential, stability_boundaries_by_order)


g1, g2, g3, g4 = P("g1"), P("g2"), P("g3"), P("g4")
A, B, t = P("A"), P("B"), P("t")
i = gr(0, 1)


@pytest.fixture(scope="module")
def Y4():
    return expand(mathieu_potential(4), 4)


@pytest.fixture(scope="module")
def rg4():
    return normal_form(mathieu_potential(4), 4)


@pytest.fixture(scope="module")
def analysis7():
    return analyze(7)


def test_potential_shape():
    V = mathieu_potential(2)
    assert V.params == ("g1", "g2")
    assert V.coeffs[(1, 1, 0, 0)] == ParamPolynomial.const(-1)
    assert V.coeffs[(0, 1, 0, 1)] == -P("g2")


def test_registry_variant_matches(Y4):
    # the registry's single-parameter form agrees once g is expanded
    Yreg = example_expansion("mathieu", 2, {"g": 0})
    Yg = expand(mathieu_potential(2).bind({"g1": 0, "g2": 0}), 2)
    for n in Yg.harmonics():
        assert Yreg.secular_coefficient(n) == Yg.secular_coefficient(n)


def test_resonant_corrections(Y4):
    """The first three resonant table entries, written out longhand."""
    C1 = grq(1, 2) * i * t * A * g1
    C2 = (-grq(1, 8) * t ** 2 * A * g1 ** 2
          - grq(1, 24) * i * t * (8 * A + 12 * B
                                  + 3 * A * g1 ** 2 - 12 * A * g2))
    C3 = grq(1, 144) * t * (
        i * (88 * A * g1 + 72 * B * g1 + 9 * A * g1 ** 3
             - 36 * A * g1 * g2 + 72 * A * g3)
        + 3 * A * g1 * (8 + 3 * g1 ** 2 - 12 * g2) * t
        - 3 * i * A * g1 ** 3 * t ** 2)
    assert Y4.row(1)[1] == C1
    assert Y4.row(2)[1] == C2
    assert Y4.row(3)[1] == C3


def test_conjugate_resonance(Y4):
    # Q_-1(eps,t,A,B) = Q_1(eps,t,B,A) with i -> -i
    swap = {"A": "B", "B": "A"}
    for k in range(1, Y4.cap + 1):
        row = Y4.row(k)
        assert row[-1] == row[1].conjugated().rename(swap)


def test_linear_matrix_and_nonlinear_rejection(Y4):
    M = linear_matrix(derive_rg(Y4))
    assert len(M) == 2 and len(M[0]) == 2
    with pytest.raises(NotLinear):
        linear_matrix(derive_rg(example_expansion("vdp", 3)))


def test_linear_matrix_rejects_a_cubic():
    # X_A = -3/2*i*Ar^2*Br*eps is cubic, though it is Br^1 times its
    # coefficient -3/2*i*Ar^2
    with pytest.raises(NotLinear):
        linear_matrix(normal_form(parse_potential("y^3"), 1,
                                  expansion=False))


@pytest.mark.parametrize("K", [1, 2, 3])
def test_omega_squared_needs_a_trace_free_matrix(K):
    # damping makes M = -eps/2*I + ..., whose square is scalar while
    # truncated at K = 1 but whose trace is -eps
    rgsys = normal_form(parse_potential("-y' + y*cos(5t)"), K,
                        expansion=False)
    with pytest.raises(NotScalar, match="trace-free"):
        omega_squared(rgsys)


def test_omega_squared_series(rg4):
    w2 = omega_squared(rg4)
    assert w2.cap == 5
    assert w2.coeffs[0].is_zero() and w2.coeffs[1].is_zero()
    assert w2.coeffs[2] == grq(1, 4) * g1 ** 2
    assert w2.coeffs[3] == -grq(1, 24) * g1 * (8 + 3 * g1 ** 2 - 12 * g2)
    assert w2.coeffs[4] == -grq(1, 576) * (
        80 - 400 * g1 ** 2 - 45 * g1 ** 4 + 192 * g2
        + 216 * g1 ** 2 * g2 - 144 * g2 ** 2 - 288 * g1 * g3)
    assert w2.coeffs[5] == -grq(1, 3456) * (
        -840 * g1 + 3920 * g1 ** 3 + 189 * g1 ** 5
        - 4800 * g1 * g2 - 1080 * g1 ** 3 * g2 + 1296 * g1 * g2 ** 2
        + 1152 * g3 + 1296 * g1 ** 2 * g3 - 1728 * g2 * g3
        - 1728 * g1 * g4)


def test_omega_squared_driving_only(rg4):
    # g = 0: the parametric driving alone gives -80/576 eps^4 + ...
    w2 = omega_squared(rg4)
    zero = {f"g{j}": gr(0) for j in range(1, 5)}
    flat = w2.map_coeffs(lambda c: c.subs(zero))
    assert flat.coeffs[4].as_constant() == grq(-80, 576)
    assert flat.valuation() == 4


def test_omega_squared_lowest_order():
    w2 = omega_squared(normal_form(mathieu_potential(1), 1))
    assert w2.coeffs[2] == grq(1, 4) * P("g1") ** 2
    assert w2.coeffs[0].is_zero() and w2.coeffs[1].is_zero()


@pytest.mark.parametrize("K", range(10))
def test_analyze_equals_the_solve_in_K_parameters(K):
    # the one-g solve with g1 + g2*eps + ... substituted after it, against
    # the solve of the potential with that series in its table
    w2, branches = analyze(K)
    w2 = in_parameters(w2)
    want = omega_squared(normal_form(mathieu_potential(K), K,
                                     expansion=False))
    assert w2 == want and str(w2) == str(want)
    assert branches == stability_boundaries_by_order(want, K)


@pytest.mark.parametrize("K", [13, 19])
def test_analyze_branches_equal_the_order_by_order_solve(K):
    # the order-by-order solve on analyze's own omega^2 in g1, ..., gK
    w2, branches = analyze(K)
    assert branches == stability_boundaries_by_order(in_parameters(w2), K)


def _in_parameters(W):
    """W(g) with g = g1 + g2*eps + ... + g_n*eps^(n-1), n = cap + 1."""
    G = [P(f"g{j}") for j in range(1, W.cap + 2)]
    return substitute(W, {"g": EpsilonSeries(W.cap, G)})


@pytest.mark.parametrize("coeffs,want", [
    # (g - 2)^2 - eps^2: the double root 2 continues in
    # W(2 + eps*g) = eps^2*(g^2 - 1), whose simple roots are lifted
    ([(P("g") - 2) ** 2, 0, -1, 0],
     [(Rat(1), Rat(2), Rat(-1), Rat(0)), (Rat(1), Rat(2), Rat(1), Rat(0))]),
    # g^2*eps: W(eps*g) = g^2*eps^3 is zero at cap 2, which ends the root
    ([0, P("g") ** 2, 0], [(Rat(1), Rat(0))]),
    # (g - eps)^2: double roots 0, then 1 in W(eps*g) = eps^2*(g - 1)^2,
    # then W(eps*(1 + eps*g)) is zero at cap 2
    ([P("g") ** 2, -2 * P("g"), 1], [(Rat(1), Rat(0), Rat(1))]),
    # the zero series has the one empty root
    ([0, 0], [(Rat(1),)]),
])
def test_multiple_roots_continue_in_the_shifted_series(coeffs, want):
    W = EpsilonSeries(len(coeffs) - 1,
                      [ParamPolynomial.zero() + c for c in coeffs])
    branches = stability_boundaries(W)
    assert [b.a_coeffs for b in branches] == want
    assert branches == stability_boundaries_by_order(_in_parameters(W),
                                                     W.cap + 1)


def test_the_leading_equation_has_no_degree_cap():
    # a quartic leading coefficient: its simple roots -3 and 2 are lifted
    # and its double root 1 continues in W(1 + eps*g), whose leading
    # eps^2*(g - 4*g^2) has the simple roots 0 and 1/4
    g = P("g")
    W = EpsilonSeries(3, [ParamPolynomial.zero() + c for c in
                          ((g - 1) ** 2 * (g + 3) * (g - 2), g - 1, 0, 0)])
    branches = stability_boundaries(W)
    assert [b.label for b in branches] == ["0", "1", "2", "3"]
    assert [b.a_coeffs[1:3] for b in branches] == [
        (-3, Rat(-1, 20)), (1, 0), (1, Rat(1, 4)), (2, Rat(-1, 5))]
    assert branches == stability_boundaries_by_order(_in_parameters(W),
                                                     W.cap + 1)


@pytest.mark.parametrize("lead,error,message", [
    (P("x") + 1, Underdetermined,
     r"^order eps\^1 gives the nonzero constraint x \+ 1$"),
    (P("g") ** 2 - 2, NonRationalRoot,
     r"^g\^2 - 2 = 0 has no rational root in g$"),
    (P("g") ** 2 + gr(0, 1), NonRationalRoot,
     r"^g\^2 \+ i = 0 has complex coefficients$"),
])
def test_band_edge_seeds_are_typed_errors(lead, error, message):
    W = EpsilonSeries(2, [ParamPolynomial.zero(), lead, P("g")])
    with pytest.raises(error, match=message):
        stability_boundaries(W)


def test_branch_forking_details():
    _, branches = analyze(4)
    assert [b.label for b in branches] == ["-", "+"]
    minus, plus = branches
    # eps^2 order: g1^2/4 = 0 forces the double root g1 = 0; the eps^4
    # order then reads 9 g2^2 - 12 g2 - 5 = 0 with roots -1/3 and 5/3
    # (a_coeffs[j] is g_j)
    assert minus.a_coeffs[1] == 0 and plus.a_coeffs[1] == 0
    assert minus.a_coeffs[2] == Rat(-1, 3)
    assert plus.a_coeffs[2] == Rat(5, 3)
    assert minus.a_coeffs[3] == 0 and plus.a_coeffs[3] == 0


def test_branch_a_series(analysis7):
    _, branches = analysis7
    minus, plus = branches
    assert minus.a_coeffs[:5] == (Rat(1), Rat(0), Rat(-1, 3), Rat(0),
                                  Rat(5, 216))
    assert plus.a_coeffs[:5] == (Rat(1), Rat(0), Rat(5, 3), Rat(0),
                                 Rat(-763, 216))
    # only even eps powers appear
    for b in branches:
        assert all(c == 0 for c in b.a_coeffs[1::2])
    assert minus.a_series_str().startswith("1 - 1/3*eps^2 + 5/216*eps^4")


def test_branch_text_keeps_unit_coefficients():
    # a unit coefficient prints as 1*eps^j, and a negative one with its
    # sign in the join; a_coeffs[0] is the 1 of a = 1 + eps*g
    branch = mathieu.Branch("x", (Rat(1), Rat(1), Rat(-2, 3), Rat(0),
                                  Rat(-1), Rat(5, 7)))
    assert branch.a_series_str() == ("1 + 1*eps - 2/3*eps^2 - 1*eps^4 "
                                     "+ 5/7*eps^5")
    assert mathieu.Branch("0", (Rat(1),)).a_series_str() == "1"


def test_branches_annihilate_omega_squared(analysis7):
    w2, branches = analysis7
    w2 = in_parameters(w2)
    for b in branches:
        values = {f"g{j}": gr(v) for j, v in enumerate(b.a_coeffs) if j}
        resub = w2.map_coeffs(lambda c: c.subs(values))
        assert resub.is_zero(), b.label


def test_hill_determinant_basics():
    assert hill_determinant(0.0, 1.0, 8, "-") == 0.0
    # eps = 0, branch +: product of a/2 and (a - j^2)
    val = hill_determinant(0.0, 2.0, 4, "+")
    assert val == pytest.approx((2 / 2) * (2 - 1) * (2 - 4) * (2 - 9))
    with pytest.raises(ValueError):
        hill_determinant(0.1, 1.0, 2, "-")
    with pytest.raises(ValueError):
        hill_determinant(0.1, 1.0, 8, "x")


def test_boundary_root_matches_series(analysis7):
    _, branches = analysis7
    for b in branches:
        root = find_boundary_roots([0.1], 12, b.label)[0]
        assert abs(root - b.a_value(0.1)) < 1e-5, b.label


def test_boundary_root_not_bracketed():
    with pytest.raises(RootNotBracketed):
        find_boundary_roots([0.01], 12, "-", bracket=(1.5, 1.6))


def test_crosscheck_report(analysis7):
    _, branches = analysis7
    rows = boundary_crosscheck(branches, [0.0, 0.05, 0.1], N=12)
    by_key = {(r.eps, r.branch): r for r in rows}
    assert by_key[(0.0, "-")].deviation == 0.0
    assert by_key[(0.0, "+")].deviation == 0.0
    # deviation shrinks with eps (dominated by the dropped order)
    for label in "+-":
        assert by_key[(0.05, label)].deviation < \
            by_key[(0.1, label)].deviation
    assert all(r.deviation < 1e-5 for r in rows)


def test_crosscheck_converges_in_N(analysis7):
    _, branches = analysis7
    minus = branches[0]
    coarse = abs(find_boundary_roots([0.1], 4, "-")[0] - minus.a_value(0.1))
    fine = abs(find_boundary_roots([0.1], 12, "-")[0] - minus.a_value(0.1))
    assert fine < coarse


#: Negative, tiny (down to an e2 that underflows to 0) and large eps, an
#: exact eps = 0, and lanes past the band where no root is bracketed.
LANES = [-0.7, -0.3, -1e-3, -1e-12, 0.0, 1e-300, 1e-160, 1e-12, 1e-6,
         0.01, 0.1, 0.5, 0.7, 0.9, 1.2, 5.0, 1e3, 1e100, 1e200]


def _oracle(lanes, N, branch, bracket=(0.5, 1.5)):
    """{eps: root} of the bracketed lanes, by the scalar oracle."""
    roots = {}
    for eps in lanes:
        try:
            roots[eps] = find_boundary_root_scalar(eps, N, branch, bracket)
        except RootNotBracketed:
            pass
    return roots


@pytest.mark.parametrize("N", [3, 4, 12, 40])
@pytest.mark.parametrize("branch", ["-", "+"])
def test_batched_roots_equal_the_scalar_oracle(N, branch):
    a = np.linspace(0.5, 1.5, 37)
    for eps in LANES:
        with np.errstate(all="ignore"):
            batch = hill_determinant(np.full(37, eps), a, N, branch)
        scalar = [hill_determinant_scalar(eps, x, N, branch)
                  for x in a.tolist()]
        assert np.array_equal(batch, scalar, equal_nan=True)
    expected = _oracle(LANES, N, branch)
    assert 0.0 in expected and 1e3 not in expected
    roots = find_boundary_roots(list(expected), N, branch)
    assert roots.tolist() == list(expected.values())
    assert [find_boundary_roots([eps], N, branch)[0] for eps in expected] == \
        list(expected.values())


def test_exact_zero_on_the_grid():
    # eps = 0 (and an eps whose square underflows): Delta(1.0) is exactly
    # 0 at grid point 200, which is the root of those lanes
    for branch in "-+":
        assert hill_determinant(0.0, 1.0, 12, branch) == 0.0
        roots = find_boundary_roots([0.0, 0.1, 1e-300], 12, branch)
        assert roots[0] == roots[2] == 1.0
        assert roots.tolist() == [find_boundary_root_scalar(eps, 12, branch)
                                  for eps in (0.0, 0.1, 1e-300)]
        # on a one-cell grid the first bisection midpoint is the zero
        roots = find_boundary_roots([0.1, 0.0], 12, branch, grid=1)
        assert roots[1] == 1.0
        assert roots.tolist() == [
            find_boundary_root_scalar(eps, 12, branch, grid=1)
            for eps in (0.1, 0.0)]


def test_one_unbracketed_lane_raises_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for branch in "-+":
            with pytest.raises(RootNotBracketed, match="eps = 5.0"):
                find_boundary_roots([0.1, 5.0, 1e200], 12, branch)
            # the determinant of the 1e200 lane is nan or inf throughout
            with pytest.raises(SeriesOverflow, match="eps = 1e\\+200"):
                find_boundary_roots([0.1, 0.2, 1e200], 40, branch)


@pytest.mark.parametrize("branch", ["-", "+"])
def test_overflowing_lanes_match_float_arithmetic(branch):
    # a bracket of +-1e200 overflows every grid point but the middle one;
    # inf and nan flow through as in float arithmetic, silently
    bracket = (-1e200, 1e200)
    lanes = [1.0, 1e7, 1e8, 1e50]
    expected = _oracle(lanes, 3, branch, bracket)
    assert list(expected) == lanes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = find_boundary_roots(lanes, 3, branch, bracket)
    assert roots.tolist() == list(expected.values())


def test_crosscheck_calls_the_determinant_once_per_step(monkeypatch,
                                                        analysis7):
    # one grid scan, one f(lo) and the bisection steps per branch, however
    # many eps values there are
    calls = []

    def counted(*args):
        calls.append(args)
        return hill_determinant(*args)

    monkeypatch.setattr(mathieu, "hill_determinant", counted)
    _, branches = analysis7
    rows = boundary_crosscheck(branches, [0.01 * i for i in range(51)], 40)
    assert len(rows) == 102
    assert len(calls) < 2 * 60

