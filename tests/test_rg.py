import math
import time

import pytest
from hypothesis import given, strategies as st

from rgpert.algebra import (ParamPolynomial, EpsilonSeries, P, Rat, gr, grq,
                            substitute)
from rgpert.errors import (DegenerateRoot, NonRationalRoot, NotPolarizable,
                           ThetaDependent, Underdetermined)
from rgpert.perturbation import expand
from rgpert.registry import EXAMPLES, get_example
from rgpert.cli import main
from rgpert.rg import (derive_rg, normal_form, to_polar, limit_cycle,
                       lead_roots, PolarRG, RGSystem, rational_roots)
from rgpert.potential import harmonic, harmonics, parse_potential

from conftest import (example_expansion, trig, trig_mul, trig_scale, trig_add,
                      phase_poly)
from oracles import (poincare_lindstedt, polar_by_substitution,
                     polar_expansion, polar_limit_cycle,
                     renormalization_constants, series_solve_root_full_cap)


R = P("R")
VDP = get_example("vdp").potential()


@pytest.fixture(scope="module")
def vdp_rg():
    return derive_rg(example_expansion("vdp", 8))


@pytest.fixture(scope="module")
def vdp_polar(vdp_rg):
    return to_polar(vdp_rg)


@pytest.fixture(scope="module")
def duffing_rg():
    return derive_rg(example_expansion("duffing", 5, {"g": 1}))


@pytest.fixture(scope="module")
def duffing_polar(duffing_rg):
    return to_polar(duffing_rg)


@pytest.fixture(scope="module")
def rayleigh_rg():
    return derive_rg(example_expansion("rayleigh", 6))


@pytest.fixture(scope="module")
def rayleigh_polar(rayleigh_rg):
    return to_polar(rayleigh_rg)


@pytest.fixture(scope="module")
def nonauto_rg():
    return derive_rg(example_expansion("nonauto", 4))


@pytest.fixture(scope="module")
def nonauto_polar(nonauto_rg):
    return to_polar(nonauto_rg)


def assert_orders(series, expected, through):
    for k in range(through + 1):
        want = expected.get(k, ParamPolynomial.zero())
        if not isinstance(want, ParamPolynomial):
            want = ParamPolynomial.const(want)
        assert series.coeffs[k] == want, f"eps^{k}"


# ---------------------------------------------------------------------------
# Van der Pol
# ---------------------------------------------------------------------------

def test_vdp_radial_equation(vdp_polar):
    expected = {
        1: grq(1, 2) * (1 - R ** 2),
        3: -grq(1, 128) * R ** 2 * (32 - 70 * R ** 2 + 37 * R ** 4),
        5: grq(1, 36864) * R ** 4 * (-1980 + 8154 * R ** 2
                                     - 10757 * R ** 4 + 4589 * R ** 6),
        7: -grq(1, 21233664) * R ** 4 * (
            2950992 - 16173432 * R ** 2 + 28047688 * R ** 4
            - 14916436 * R ** 6 - 4396557 * R ** 8 + 4493323 * R ** 10),
    }
    assert_orders(vdp_polar.dlogR_dt, expected, 7)


def test_vdp_phase_equation(vdp_polar):
    expected = {
        2: grq(1, 16) * (-2 + 8 * R ** 2 - 7 * R ** 4),
        4: grq(1, 3072) * (-24 - 192 * R ** 2 + 1020 * R ** 4
                           - 1266 * R ** 6 + 497 * R ** 8),
        6: grq(1, 1769472) * (-1728 - 6912 * R ** 2 + 181872 * R ** 4
                              - 445608 * R ** 6 + 121432 * R ** 8
                              + 417540 * R ** 10 - 266949 * R ** 12),
    }
    assert_orders(vdp_polar.dtheta_dt, expected, 6)


def test_vdp_is_phase_free(vdp_polar):
    assert vdp_polar.theta_free()


def test_vdp_limit_cycle():
    R_c, dtheta_c = limit_cycle(VDP, 8)
    two_R_c = R_c * gr(2)
    assert_orders(two_R_c, {0: gr(2), 2: grq(1, 64), 4: grq(-23, 49152),
                            6: grq(-51619, 169869312)}, 6)
    assert_orders(dtheta_c, {2: grq(-1, 16), 4: grq(17, 3072),
                             6: grq(35, 884736)}, 6)


def test_vdp_phase_eps6_consistency(vdp_polar):
    """The eps^6 R^6 phase coefficient is pinned by the limit cycle.

    Substituting the radius series R_c into d theta/dt must reproduce the
    independently known drift -eps^2/16 + 17 eps^4/3072 + 35 eps^6/884736;
    this only balances with an R^6 coefficient of -445608/1769472.
    """
    R_c, dtheta_c = limit_cycle(VDP, 8)
    assert dtheta_c.coeffs[6].as_constant() == grq(35, 884736)
    # shifting the R^6 coefficient to -455608/1769472 breaks the balance
    wrong = vdp_polar.dtheta_dt.truncate(6) + EpsilonSeries(
        6, [ParamPolynomial.zero()] * 6 + [grq(-10000, 1769472) * R ** 6])
    drift_wrong = substitute(wrong, {"R": R_c.truncate(6)})
    assert drift_wrong.coeffs[6].as_constant() != grq(35, 884736)


def test_vdp_renormalized_expansion(vdp_rg):
    # y = 2R cos(tau) - (eps R^3/4) sin(3 tau) - ... with tau = t + theta
    def tau(kind, m):
        return trig(kind, m, m)

    terms = [
        (0, 1, trig_scale(tau("cos", 1), gr(2))),
        (1, 3, trig_scale(tau("sin", 3), grq(-1, 4))),
        (2, 3, trig_scale(tau("cos", 3), grq(-6, 96))),
        (2, 5, trig_add(trig_scale(tau("cos", 3), grq(-3, 96)),
                        trig_scale(tau("cos", 5), grq(-5, 96)))),
        (3, 3, trig_scale(tau("sin", 3), grq(-36, 2304))),
        (3, 5, trig_add(trig_scale(tau("sin", 3), grq(14 * 27, 2304)),
                        trig_scale(tau("sin", 5), grq(14 * 5, 2304)))),
        (3, 7, trig_add(trig_scale(tau("sin", 3), grq(-261, 2304)),
                        trig_scale(tau("sin", 5), grq(15, 2304)),
                        trig_scale(tau("sin", 7), grq(28, 2304)))),
    ]
    _assert_expansion(vdp_rg, terms, through=3)


def _assert_expansion(rgsys, terms, through):
    """The expansion of ``rgsys`` at Ar = R*w, Br = R/w against ``terms``
    in tau = t + theta, through eps^through."""
    table = polar_expansion(rgsys)
    expected = {}
    for k, r_pow, trig_dict in terms:
        for n, poly in phase_poly(trig_dict, r_pow).items():
            expected.setdefault(n, {})
            expected[n][k] = expected[n].get(k, ParamPolynomial.zero()) + poly
    for n, by_order in expected.items():
        assert n in harmonics(table), f"harmonic {n} missing"
        series = harmonic(table, n)
        for k in range(through + 1):
            want = by_order.get(k, ParamPolynomial.zero())
            assert series.coeffs[k] == want, (n, k)
    for n in harmonics(table):
        series = harmonic(table, n)
        if n not in expected:
            assert all(series.coeffs[k].is_zero()
                       for k in range(through + 1)), n


def test_vdp_energy_balance():
    # the leading amplitude 2 satisfies the work balance
    # integral over a period of (y^2 - 1) y'^2 for y = 2 cos t
    n = 20000
    total = 0.0
    for j in range(n):
        t = 2 * math.pi * j / n
        y = 2 * math.cos(t)
        dy = -2 * math.sin(t)
        total += (y * y - 1) * dy * dy
    assert abs(total * 2 * math.pi / n) < 1e-9


# ---------------------------------------------------------------------------
# Duffing (g = 1)
# ---------------------------------------------------------------------------

def test_duffing_radial_equation(duffing_polar):
    expected = {
        1: grq(-1, 2),
        2: grq(3, 4) * R ** 2,
        3: grq(-195, 64) * R ** 4,
        4: grq(5931, 512) * R ** 6,
        5: grq(1, 4096) * R ** 4 * (16092 - 172027 * R ** 4),
    }
    assert_orders(duffing_polar.dlogR_dt, expected, 5)


def test_duffing_phase_equation(duffing_polar):
    expected = {
        1: grq(3, 2) * R ** 2,
        2: -grq(1, 16) * (2 + 15 * R ** 4),
        3: -grq(3, 128) * R ** 2 * (8 - 41 * R ** 4),
        4: grq(1, 1024) * (-8 + 4116 * R ** 4 - 921 * R ** 8),
        5: -grq(3, 2048) * R ** 2 * (8 + 21305 * R ** 4 - 193 * R ** 8),
    }
    assert_orders(duffing_polar.dtheta_dt, expected, 5)


def test_duffing_renormalized_expansion(duffing_rg):
    def tau(kind, m):
        return trig(kind, m, m)

    terms = [
        (0, 1, trig_scale(tau("cos", 1), gr(2))),
        (1, 3, trig_scale(tau("cos", 3), grq(1, 4))),
        (2, 3, trig_scale(tau("sin", 3), grq(6, 32))),
        (2, 5, trig_add(trig_scale(tau("cos", 5), grq(1, 32)),
                        trig_scale(tau("cos", 3), grq(-21, 32)))),
        (3, 3, trig_scale(tau("cos", 3), grq(-36, 768))),
        (3, 5, trig_add(trig_scale(tau("sin", 3), grq(-2 * 567, 768)),
                        trig_scale(tau("sin", 5), grq(2 * 19, 768)))),
        (3, 7, trig_add(trig_scale(tau("cos", 3), grq(3 * 417, 768)),
                        trig_scale(tau("cos", 5), grq(-3 * 43, 768)),
                        trig_scale(tau("cos", 7), grq(3, 768)))),
    ]
    _assert_expansion(duffing_rg, terms, through=3)


def test_duffing_has_no_limit_cycle():
    # leading radial equation -1/2 = 0 has no root at all
    V = get_example("duffing").potential().bind({"g": 1})
    with pytest.raises(DegenerateRoot):
        limit_cycle(V, 5)


# ---------------------------------------------------------------------------
# Rayleigh
# ---------------------------------------------------------------------------

def test_rayleigh_radial_equation(rayleigh_polar):
    expected = {
        1: grq(1, 2) * (1 - R ** 2),
        3: grq(1, 128) * R ** 4 * (22 - 13 * R ** 2),
        5: -grq(1, 36864) * R ** 4 * (2268 - 1026 * R ** 2
                                      - 2683 * R ** 4 + 1603 * R ** 6),
    }
    assert_orders(rayleigh_polar.dlogR_dt, expected, 5)


def test_rayleigh_phase_equation(rayleigh_polar):
    expected = {
        2: grq(1, 16) * (R ** 4 - 2),
        4: grq(1, 3072) * (-24 + 156 * R ** 4 - 234 * R ** 6 + 65 * R ** 8),
        6: grq(1, 1769472) * (-1728 - 98064 * R ** 4 + 305208 * R ** 6
                              - 210728 * R ** 8 - 71388 * R ** 10
                              + 84627 * R ** 12),
    }
    assert_orders(rayleigh_polar.dtheta_dt, expected, 6)


def test_rayleigh_renormalized_expansion(rayleigh_rg):
    def tau(kind, m):
        return trig(kind, m, m)

    terms = [
        (0, 1, trig_scale(tau("cos", 1), gr(2))),
        (1, 3, trig_scale(tau("sin", 3), grq(1, 12))),
        (2, 3, trig_scale(tau("cos", 3), grq(-6, 96))),
        (2, 5, trig_add(trig_scale(tau("cos", 3), grq(9, 96)),
                        trig_scale(tau("cos", 5), grq(-1, 96)))),
        (3, 3, trig_scale(tau("sin", 3), grq(-36, 2304))),
        (3, 5, trig_add(trig_scale(tau("sin", 3), grq(-2 * 63, 2304)),
                        trig_scale(tau("sin", 5), grq(-2 * 17, 2304)))),
        (3, 7, trig_add(trig_scale(tau("sin", 3), grq(111, 2304)),
                        trig_scale(tau("sin", 5), grq(51, 2304)),
                        trig_scale(tau("sin", 7), grq(-4, 2304)))),
    ]
    _assert_expansion(rayleigh_rg, terms, through=3)


def test_rayleigh_limit_cycle_leading():
    R_c, _ = limit_cycle(get_example("rayleigh").potential(), 6)
    assert R_c.coeffs[0].as_constant() == gr(1)


def test_vdp_and_rayleigh_limit_cycles_agree_exactly():
    # u = y' of a Rayleigh solution, y'' + y = eps*(y' - y'^3/3), solves
    # van der Pol.  So the two limit cycles share the frequency
    # 1 + drift, and the first harmonic of u is 1 + drift times that of
    # y: exact identities between two independent solves, through eps^8
    (R_vdp, drift_vdp), (R_ray, drift_ray) = (
        limit_cycle(get_example(name).potential(), 9)
        for name in ("vdp", "rayleigh"))
    assert R_vdp.cap == drift_vdp.cap == 8 and drift_vdp.coeffs[8]
    assert drift_vdp == drift_ray
    assert R_vdp == (EpsilonSeries.const(1, 8) + drift_vdp) * R_ray


PL_CASES = {
    "vdp": ("(1 - y^2)*y'", 9, 0),
    "vdp K=12": ("(1 - y^2)*y'", 12, 0),
    "rayleigh": ("y' - 1/3*y'^3", 9, 0),
    "y' - y^2*y' + 1/2*y^3": ("y' - y^2*y' + 1/2*y^3", 9, grq(-3, 4)),
    "(1 - y^2)*y' - y^3 + 2*y'^2*y": ("(1 - y^2)*y' - y^3 + 2*y'^2*y", 9,
                                      grq(1, 2)),
}


@pytest.mark.parametrize("name", sorted(PL_CASES))
def test_limit_cycle_equals_poincare_lindstedt(name):
    # the same cycle solved in tau = w t with the first harmonic of y
    # held at R (z + 1/z): R is R_c and w - 1 the drift, coefficient by
    # coefficient through eps^(K-1)
    dsl, K, w_1 = PL_CASES[name]
    V = parse_potential(dsl)
    R, drift = poincare_lindstedt(V, K)
    R_c, dtheta_c = limit_cycle(V, K)
    assert R.cap == R_c.cap == K - 1
    assert R.coeffs == R_c.coeffs
    assert drift.coeffs == dtheta_c.coeffs
    assert drift.coeffs[1].as_constant() == w_1 and any(drift.coeffs[-2:])


# ---------------------------------------------------------------------------
# Nonlinear nonautonomous oscillator
# ---------------------------------------------------------------------------

def test_nonauto_radial_equation(nonauto_polar):
    expected = {
        1: phase_poly(trig_scale(trig("cos", 1), grq(1, 2)), 1)[0],
        2: phase_poly(trig_scale(trig("sin", 2), grq(-1, 4)), 2)[0],
        3: phase_poly(trig_scale(trig("cos", 1), grq(5, 16)), 3)[0],
        4: phase_poly(trig_add(trig_scale(trig("sin", 2), grq(-21, 64)),
                               trig_scale(trig("sin", 4), grq(-1, 32))),
                      4)[0],
    }
    assert_orders(nonauto_polar.dlogR_dt, expected, 4)


def test_nonauto_phase_equation(nonauto_polar):
    const = {(0, 0): gr(1)}
    expected = {
        1: phase_poly(trig_scale(trig("sin", 1), grq(1, 2)), 1)[0],
        2: phase_poly(trig_add(trig_scale(trig("cos", 2), grq(-1, 4)),
                               trig_scale(const, grq(-3, 8))), 2)[0],
        3: phase_poly(trig_scale(trig("sin", 1), grq(1, 8)), 3)[0],
        4: phase_poly(trig_add(trig_scale(trig("cos", 2), grq(9, 128)),
                               trig_scale(trig("cos", 4), grq(-4, 128)),
                               trig_scale(const, grq(-3, 128))), 4)[0],
    }
    assert_orders(nonauto_polar.dtheta_dt, expected, 4)


def test_nonauto_mixes_phase(nonauto_polar):
    assert not nonauto_polar.theta_free()
    with pytest.raises(ThetaDependent):
        limit_cycle(get_example("nonauto").potential(), 4)


def test_nonauto_renormalized_expansion(nonauto_rg):
    terms = [
        (0, 1, trig_scale(trig("cos", 1, 1), gr(2))),
        (1, 2, trig_scale(trig("sin", 2, 3), grq(1, 4))),
        (2, 3, trig_scale(
            trig_add(trig_scale(trig_mul(trig("cos", 1), trig("cos", 2, 3)),
                                gr(3)),
                     trig("cos", 3, 5)), grq(-1, 24))),
        (3, 4, trig_scale(
            trig_add(trig_scale(trig("sin", 2, 3), gr(-24)),
                     trig_scale(trig("sin", 4, 7), gr(-33)),
                     trig_scale(trig_mul(trig("sin", 1), trig("cos", 3, 5)),
                                gr(14)),
                     trig_scale(trig_mul(trig("sin", 2), trig("cos", 2, 3)),
                                gr(72)),
                     trig_scale(trig_mul(trig("cos", 2), trig("sin", 2, 3)),
                                gr(288)),
                     trig_scale(trig_mul(trig("cos", 1), trig("sin", 3, 5)),
                                gr(-146))), grq(1, 4608))),
    ]
    _assert_expansion(nonauto_rg, terms, through=3)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_expansion_columns_are_renormalized_secular_coefficients(name):
    # derive_rg substitutes t = 0 in the whole table at once; column by
    # column that is P_n(eps, 0, Ar, Br)
    Y = expand(get_example(name).potential(), 4)
    expansion = derive_rg(Y).expansion
    assert set(harmonics(expansion)) <= set(Y.harmonics())
    for n in Y.harmonics():
        want = Y.secular_coefficient(n).map_coeffs(
            lambda c: c.subs({"t": 0})).rename({"A": "Ar", "B": "Br"})
        assert harmonic(expansion, n) == want, n


@pytest.mark.parametrize("K", [1, 3, 6])
def test_to_polar_reads_only_the_flow(K):
    # the expansion is never read: a system without one maps the same
    sysc = normal_form(get_example("vdp").potential(), K)
    flow_only = RGSystem(K, sysc.rhs_A, sysc.rhs_B, None)
    want, got = to_polar(sysc), to_polar(flow_only)
    assert (got.dlogR_dt, got.dtheta_dt) == (want.dlogR_dt, want.dtheta_dt)


POLAR_CASES = {"vdp": ("vdp", None), "rayleigh": ("rayleigh", None),
               "nonauto": ("nonauto", None),
               "duffing-g1": ("duffing", {"g": gr(1)}),
               "duffing": ("duffing", None),
               "mathieu-g1": ("mathieu", {"g": gr(1)})}


@pytest.mark.parametrize("case,K", [
    *((case, K) for case in POLAR_CASES for K in range(9)), ("vdp", 12)])
def test_to_polar_maps_exponents_as_substitution_does(case, K):
    name, bindings = POLAR_CASES[case]
    V = get_example(name).potential()
    if bindings:
        V = V.bind(bindings)
    sysc = normal_form(V, K)
    got, want = to_polar(sysc), polar_by_substitution(sysc)
    assert got.cap == want.cap == K
    assert got.dlogR_dt == want.dlogR_dt
    assert got.dtheta_dt == want.dtheta_dt


def random_flow_orders():
    """(X_A,k, X_B,k) lists for k = 0..K: terms c*Ar^a*Br^b*g^m with a
    parameter g, a + b >= 1 unless ``constant``, where one order also
    gets a term free of Ar and Br.  With ``mirror``, X_B also has
    s*c*Ar^(a-1)*Br^(b+1) for each X_A term with a >= 1, which X_B/Br
    maps onto the image of that term in X_A/Ar: the pair cancels in
    d log R/dt (s = -1) or in d theta/dt (s = 1)."""
    coeff = st.builds(grq, st.integers(-3, 3).filter(bool),
                      st.integers(1, 3), st.integers(-2, 2),
                      st.integers(1, 3))
    term = st.tuples(st.integers(0, 3), st.integers(0, 3),
                     st.integers(0, 2), coeff).filter(
                         lambda abmc: abmc[0] + abmc[1] >= 1)
    side = st.lists(term, max_size=4)
    order = st.tuples(side, side, st.sampled_from([0, -1, 1]))

    def poly(terms):
        return sum((ParamPolynomial.monomial(c, Ar=a, Br=b, g=m)
                    for a, b, m, c in terms), ParamPolynomial.zero())

    def build(orders, constant):
        x_a, x_b = [], []
        for terms_a, terms_b, mirror in orders:
            x_a.append(poly(terms_a))
            x_b.append(poly(terms_b) + poly(
                [(a - 1, b + 1, m, c * mirror)
                 for a, b, m, c in terms_a if a and mirror]))
        if constant is not None:
            k, side, c = constant
            xs = (x_a, x_b)[side]
            k %= len(xs)
            xs[k] = xs[k] + ParamPolynomial.monomial(c, g=k % 2)
        return x_a, x_b

    constant = st.none() | st.tuples(st.integers(0, 4), st.integers(0, 1),
                                     coeff)
    return st.builds(build, st.lists(order, min_size=1, max_size=4),
                     constant)


@given(random_flow_orders())
def test_to_polar_equals_substitution_on_random_flows(orders):
    x_a, x_b = orders
    K = len(x_a) - 1
    sysc = RGSystem(K, EpsilonSeries(K, x_a), EpsilonSeries(K, x_b), None)
    free = [(k, name, x.subs({"Ar": 0, "Br": 0}))
            for k, (a, b) in enumerate(zip(x_a, x_b))
            for name, x in (("dAr/dt", a), ("dBr/dt", b))]
    free = [(k, name, part) for k, name, part in free if part]
    if free:
        # the first term free of Ar and Br, in X_A before X_B
        k, name, part = free[0]
        with pytest.raises(NotPolarizable) as raised:
            to_polar(sysc)
        assert str(raised.value) == (
            f"{name} has the term {part} with no Ar or Br at eps^{k}: no "
            f"polar form")
        with pytest.raises(NotPolarizable):
            polar_by_substitution(sysc)
        return
    got, want = to_polar(sysc), polar_by_substitution(sysc)
    assert got.dlogR_dt == want.dlogR_dt
    assert got.dtheta_dt == want.dtheta_dt


# ---------------------------------------------------------------------------
# Renormalization constants
# ---------------------------------------------------------------------------

def test_z_constants_leading_terms():
    Y = example_expansion("vdp", 4)
    Za, Zb = renormalization_constants(Y)
    t, Ar, Br = P("t"), P("Ar"), P("Br")
    assert Za.coeffs[0].as_constant() == gr(1)
    # f_{1,1}(-t)/A = -t/2 (1 - Ar Br)
    assert Za.coeffs[1] == -grq(1, 2) * t * (1 - Ar * Br)
    assert Zb.coeffs[1] == Za.coeffs[1].conjugated()


def test_z_constants_recover_bare_amplitudes():
    # A = Ar(t) * Za(eps, t, Ar(t), Br(t)) with Ar = P_1, Br = P_-1
    Y = example_expansion("vdp", 4)
    Za, _ = renormalization_constants(Y)
    lhs = (Za * P("Ar")).rename({"Ar": "A", "Br": "B"})
    p1 = Y.secular_coefficient(1)
    pm1 = Y.secular_coefficient(-1)
    out = substitute(lhs, {"A": p1, "B": pm1})
    assert out == EpsilonSeries.from_poly(P("A"), Y.cap)


# ---------------------------------------------------------------------------
# Rational roots of the leading radial equation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("roots,extra,lead", [
    ([Rat(2)], None, grq(1)),
    ([Rat(2), Rat(2), Rat(-3)], None, grq(-7, 3)),
    ([Rat(1, 3), Rat(-5, 2)], P("u") ** 2 + 2, grq(3, 4)),
    ([Rat(7, 12)], P("u") ** 2 - 3, grq(5)),
    ([], P("u") ** 3 - P("u") - 1, grq(2)),
    ([Rat(10 ** 20, 3)], P("u"), grq(1, 2)),
])
def test_rational_roots(roots, extra, lead):
    u = P("u")
    f = ParamPolynomial.const(lead)
    for r in roots:
        f = f * (u - grq(r.numerator, r.denominator))
    want = set(roots)
    if extra is not None:
        f = f * extra
        if extra == u:
            want.add(Rat(0))
    got = rational_roots(f, "u")
    assert len(got) == len(set(got)) and set(got) == want


def test_rational_roots_rejects_complex_coefficients():
    with pytest.raises(NonRationalRoot,
                       match=r"^u - i = 0 has complex coefficients$"):
        rational_roots(P("u") - gr(0, 1), "u")


def test_lead_roots_are_the_seeds_of_the_leading_coefficient():
    # (u - 1)^2 (2u + 1) has the simple root -1/2 and the double root 1,
    # in increasing order
    u = P("u")
    assert lead_roots((u - 1) ** 2 * (2 * u + 1), "u") == [
        (grq(-1, 2), True), (gr(1), False)]
    assert lead_roots(u ** 2 + 1, "u") == []


def test_limit_cycle_names_a_complex_leading_equation():
    with pytest.raises(NonRationalRoot, match=r"^1/2\*i\*R\^2 = 0 has "
                                              r"complex coefficients$"):
        limit_cycle(parse_potential("i*y^2*y'"), 3)


def test_rational_roots_rejects_other_variables():
    with pytest.raises(Underdetermined, match="other than u: a"):
        rational_roots(P("a") * grq(1, 2) - P("u") * grq(1, 8), "u")


def test_rational_roots_are_sorted():
    u = P("u")
    assert rational_roots(-(u - 1) * (u - 2) * (u + 3), "u") == [-3, 1, 2]
    assert rational_roots(u * (u + 1) * (u - 2), "u") == [-1, 0, 2]


_rationals = st.builds(Rat, st.integers(-30, 30), st.integers(1, 12))


@given(st.lists(st.tuples(_rationals, st.integers(1, 3)), max_size=4),
       st.builds(Rat, st.integers(1, 9), st.integers(1, 9)),
       st.booleans(), st.integers(0, 3), st.integers(0, 3))
def test_rational_roots_property(roots, lead, negate, j, irreducible):
    u = P("u")
    f = ParamPolynomial.const(grq(-lead if negate else lead)) * u ** j
    for r, mult in roots:
        f = f * (u - grq(r.numerator, r.denominator)) ** mult
    # a factor without a rational root, or none
    f = f * [ParamPolynomial.const(1), u ** 2 + 1, u ** 2 - 2,
             u ** 3 - u - 1][irreducible]
    want = {r for r, _ in roots} | ({Rat(0)} if j else set())
    assert rational_roots(f, "u") == sorted(want)


def test_limit_cycle_solves_in_the_radius():
    # the reference solve of a polar flow: d log R/dt = eps (R^2-2)
    # (R^2-4) + eps^2 R^2: the smallest positive simple rational root of
    # the leading factor is R = 2, where its derivative is 8, so R_c =
    # 2 - (4/8) eps
    dlog = EpsilonSeries(2, [ParamPolynomial.zero(),
                             (R ** 2 - 2) * (R ** 2 - 4), R ** 2])
    dtheta = EpsilonSeries.from_poly(R ** 2, 2, order=1)
    R_c, dtheta_c = polar_limit_cycle(PolarRG(2, dlog, dtheta))
    assert R_c == EpsilonSeries(1, [ParamPolynomial.const(2),
                                    ParamPolynomial.const(grq(-1, 2))])
    # d theta/dt = eps R_c^2 = 4 eps mod eps^2
    assert dtheta_c == EpsilonSeries.from_poly(ParamPolynomial.const(4), 1,
                                               order=1)


@pytest.mark.parametrize("potential,top", [
    ("vdp", 15), ("rayleigh", 9),
    ("(100000000000000000000 - y^2)*y'", 4),
    ("(8 - 40*y^2 + 16*y^4)*y'", 6)])
def test_limit_cycle_radius_equals_the_full_cap_newton(potential, top):
    # the normal form is solved order by order, so the polar form at
    # order K is that at the top order truncated to K; the cycle solve
    # at K gives the root of its radial equation
    V = (get_example(potential).potential() if potential in EXAMPLES
         else parse_potential(potential))
    pol = to_polar(normal_form(V, top))
    for K in range(1, top + 1):
        G = pol.dlogR_dt.truncate(K)
        R_c, _ = limit_cycle(V, K)
        seed = R_c.coeffs[0].as_constant()
        assert R_c == series_solve_root_full_cap(G, "R", seed), K


def test_limit_cycle_huge_coefficient_is_fast(capsys):
    start = time.perf_counter()
    code = main(["limit-cycle", "--potential",
                 "(100000000000000000000 - y^2)*y'", "--order", "2"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "R_c = 10000000000"
    assert elapsed < 2.0
