import warnings

import numpy as np
import pytest

from rgpert import mathieu
from rgpert.algebra import ParamPolynomial, P, gr, grq, Rat
from rgpert.errors import NotLinear, RootNotBracketed, SeriesOverflow
from rgpert.mathieu import (mathieu_potential, linear_matrix, omega_squared,
                            stability_boundaries, hill_determinant,
                            find_boundary_roots,
                            boundary_crosscheck, analyze)
from rgpert.perturbation import expand
from rgpert.rg import derive_rg, normal_form

from conftest import example_expansion
from oracles import find_boundary_root_scalar, hill_determinant_scalar


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
    assert Y4.entry(1, 1) == C1
    assert Y4.entry(1, 2) == C2
    assert Y4.entry(1, 3) == C3


def test_conjugate_resonance(Y4):
    # Q_-1(eps,t,A,B) = Q_1(eps,t,B,A) with i -> -i
    swap = {"A": "B", "B": "A"}
    for k in range(1, Y4.cap + 1):
        assert Y4.entry(-1, k) == \
            Y4.entry(1, k).conjugated().rename(swap)


def test_linear_matrix_and_nonlinear_rejection(Y4):
    M = linear_matrix(derive_rg(Y4))
    assert len(M) == 2 and len(M[0]) == 2
    with pytest.raises(NotLinear):
        linear_matrix(derive_rg(example_expansion("vdp", 3)))


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


def test_branch_forking_details(rg4):
    branches = stability_boundaries(omega_squared(rg4), 4)
    assert [b.label for b in branches] == ["-", "+"]
    minus, plus = branches
    # eps^2 order: g1^2/4 = 0 forces the double root g1 = 0; the eps^4
    # order then reads 9 g2^2 - 12 g2 - 5 = 0 with roots -1/3 and 5/3
    assert minus.g_values["g1"] == 0 and plus.g_values["g1"] == 0
    assert minus.g_values["g2"] == Rat(-1, 3)
    assert plus.g_values["g2"] == Rat(5, 3)
    assert minus.g_values["g3"] == 0 and plus.g_values["g3"] == 0


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


def test_branches_annihilate_omega_squared(analysis7):
    w2, branches = analysis7
    for b in branches:
        values = {k: gr(v) for k, v in b.g_values.items()}
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

