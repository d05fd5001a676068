import cmath
import contextlib
import errno
import io
import math
import os
import signal
import tempfile
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from rgpert.algebra import EpsilonSeries, ParamPolynomial, P, gr, grq
from rgpert.errors import (BudgetExceeded, ComplexPotential, Diverged,
                           NotReal, SeriesOverflow)
from rgpert.potential import HARMONIC, harmonic, harmonics, parse_potential
from rgpert.registry import get_example
from rgpert.perturbation import expand
from rgpert.rg import (PHASE, PolarRG, derive_rg, normal_form, to_polar,
                       limit_cycle)
from rgpert import numeric as nm

from conftest import assert_no_child, example_expansion, in_a_child
from oracles import peak_amplitude, polar_expansion


VDP = parse_potential("(1 - y^2)*y'")
NONAUTO = parse_potential("2*y*y'*cos(1t)")


def test_compiled_series_on_scalars_and_arrays():
    s = EpsilonSeries(1, [P("Ar") ** 2, gr(0, 1) * P("Br")])
    terms = nm._compile(s, 0.5, 1, "Ar", "Br")
    assert terms == [((2, 0), 1 + 0j), ((0, 1), 0.5j)]
    assert nm._evaluate(terms, 2j, 1.0) == -4 + 0.5j
    values = nm._evaluate(terms, np.array([2j, 1.0]), np.array([1.0, 2.0]))
    assert np.allclose(values, [-4 + 0.5j, 1 + 1j])
    # truncation at the requested order
    assert nm._evaluate(nm._compile(s, 0.5, 0, "Ar", "Br"), 2j, 1.0) == -4
    with pytest.raises(ValueError):
        nm._compile(EpsilonSeries.from_poly(P("g"), 0), 0.1, 0, "Ar", "Br")
    # three variables, one of them absent from a coefficient, and a
    # negative exponent: 3*x*z^-1 + eps^2*y^2*z^2
    s3 = EpsilonSeries(2, [3 * P("x") * ParamPolynomial.var("z", -1),
                           ParamPolynomial.zero(), P("y") ** 2 * P("z") ** 2])
    terms = nm._compile(s3, 0.5, 2, "x", "y", "z")
    assert sorted(terms) == [((0, 2, 2), 0.25 + 0j), ((1, 0, -1), 3 + 0j)]
    assert nm._evaluate(terms, 2.0, 1j, 4.0) == 1.5 - 4
    values = nm._evaluate(terms, np.array([2.0, 0.0]), np.array([1j, 2.0]),
                          np.array([4.0, 1.0]))
    assert np.allclose(values, [-2.5, 1])


def test_harmonic_oscillator_exact():
    traj = nm.integrate_ode(VDP, 1.0, 0.5, 0.0, 10.0, h=1e-3)
    exact = np.cos(traj.t) + 0.5 * np.sin(traj.t)
    assert np.max(np.abs(traj.column("y") - exact)) < 1e-8


def test_rk4_convergence_order():
    def max_err(h):
        traj = nm.integrate_ode(VDP, 1.0, 0.0, 0.0, 10.0, h=h)
        return np.max(np.abs(traj.column("y") - np.cos(traj.t)))

    ratio = max_err(0.02) / max_err(0.01)
    assert abs(ratio - 16) < 1


def test_energy_conservation_at_eps_zero():
    h = 2 * math.pi / 200
    traj = nm.integrate_ode(VDP, 1.0, 0.0, 0.0, 50.0, h=h)
    energy = traj.column("y") ** 2 + traj.column("dy") ** 2
    # the drift is bounded by the local O(h^5) error accumulated over t_max
    assert np.max(np.abs(energy - energy[0])) < h ** 4 * 50.0


def test_vdp_fixed_point_at_leading_order():
    pol = to_polar(derive_rg(example_expansion("vdp", 3)))
    amp = nm.integrate_rg(pol, 0.1, 1, 50.0, R0=1.0, theta0=0.0)
    assert np.max(np.abs(amp.column("R") - 1.0)) < 1e-12


def test_vdp_attracts_to_limit_cycle():
    pol = to_polar(derive_rg(example_expansion("vdp", 6)))
    R_c, _ = limit_cycle(VDP, 6)
    eps = 0.1
    rc = sum(float(c.as_constant().re) * eps ** k
             for k, c in enumerate(R_c.coeffs))
    amp = nm.integrate_rg(pol, eps, 3, 200.0 / eps, R0=0.5, theta0=0.0)
    assert abs(amp.column("R")[-1] - rc) < 1e-6


def test_vdp_peak_amplitude_matches_radius():
    sysc = derive_rg(example_expansion("vdp", 6))
    pol = to_polar(sysc)
    R_c, _ = limit_cycle(VDP, 6)
    eps = 0.1
    two_rc = 2 * sum(float(c.as_constant().re) * eps ** k
                     for k, c in enumerate(R_c.coeffs))
    t_max = 300.0
    amp = nm.integrate_rg(pol, eps, 5, t_max, R0=0.5, theta0=0.0)
    y = nm.evaluate_expansion(sysc, amp, eps, 5)
    traj = nm.integrate_ode(VDP, y.column("y")[0],
                            float(np.gradient(y.column("y"), y.t)[0]),
                            eps, t_max)
    assert abs(peak_amplitude(traj, 200.0) - two_rc) < 1e-3


def test_expansion_leading_term_is_circular():
    # constant amplitudes, expansion order 0: y = 2R cos(t + theta)
    sysc = derive_rg(example_expansion("vdp", 3))
    grid = np.arange(0, 201) * (2 * math.pi / 200)
    values = np.column_stack([np.full_like(grid, 0.7),
                              np.full_like(grid, 0.3)])
    amp = nm.Trajectory(grid, ("R", "theta"), values)
    y = nm.evaluate_expansion(sysc, amp, 0.2, 0)
    assert np.allclose(y.column("y"), 2 * 0.7 * np.cos(grid + 0.3),
                       atol=1e-12)


def test_initial_conditions_match_reconstruction():
    sysc = derive_rg(example_expansion("nonauto", 4))
    pol = to_polar(sysc)
    eps, R0, th0 = 0.25, 0.2, -0.1
    Ar0 = R0 * complex(math.cos(th0), math.sin(th0))
    y0, dy0 = nm.expansion_initial_conditions(sysc, eps, 2, 2,
                                              Ar0=Ar0, Br0=Ar0.conjugate())
    amp = nm.integrate_rg(pol, eps, 2, 1.0, R0=R0, theta0=th0)
    y = nm.evaluate_expansion(sysc, amp, eps, 2)
    assert abs(y.column("y")[0] - y0) < 1e-12
    # finite-difference slope agrees with the chain-rule derivative
    slope = (y.column("y")[1] - y.column("y")[0]) / (y.t[1] - y.t[0])
    assert abs(slope - dy0) < 1e-2


def test_slow_modulation_regime():
    """eps=0.25, R(0)=0.2, theta(0)=-0.1: first-order amplitude flow shows
    a visible gap to the direct solution, second order closes most of it,
    and the envelope R(t) has a single interior peak."""
    sysc = derive_rg(example_expansion("nonauto", 4))
    pol = to_polar(sysc)
    eps, R0, th0 = 0.25, 0.2, -0.1
    t_max = 25 * 2 * math.pi
    Ar0 = R0 * complex(math.cos(th0), math.sin(th0))
    y0, dy0 = nm.expansion_initial_conditions(sysc, eps, 1, 1,
                                              Ar0=Ar0, Br0=Ar0.conjugate())
    ode = nm.integrate_ode(NONAUTO, y0, dy0, eps, t_max)
    discrepancy = {}
    for order in (1, 2):
        amp = nm.integrate_rg(pol, eps, order, t_max, R0=R0, theta0=th0)
        y_rg = nm.evaluate_expansion(sysc, amp, eps, 1)
        discrepancy[order] = np.max(np.abs(ode.column("y")
                                           - y_rg.column("y")))
        if order == 1:
            # one strict interior maximum of the sampled envelope
            dR = np.diff(amp.column("R"))
            assert np.count_nonzero((dR[:-1] > 1e-12)
                                    & (dR[1:] < -1e-12)) == 1
    assert discrepancy[1] > 0
    assert discrepancy[2] < discrepancy[1] / 2


def test_comparison_metrics_are_those_of_the_columns():
    # one CSV chunk: no helper; the diff column and both metrics are
    # those of the direct ODE and the expansion, float for float
    sysc = _nonauto_system()
    text, metrics = _pipelined("compare", 1000)
    assert (text, metrics) == _whole("compare", 1000)
    assert metrics["max_abs_diff"] > 0 and metrics["rms_diff"] > 0
    # the same start on both sides: the rows agree at t = 0
    with nm.Comparison(NONAUTO, 0.2, 0.0, sysc, 0.25, 0, 1.0) as rows:
        nm.integrate_rg(to_polar(sysc), 0.25, 2, 1.0, R0=0.1, theta0=0.0,
                        each=rows.chunk)
        rows.metrics()
        nm.write_csv(io.StringIO(), rows)
        # diff is filled where a row is formatted
        assert rows.values[0].tolist() == [0.0, 0.2, 0.2, 0.0]


def test_not_real_detection():
    # the expansion of the complex potential i*y^3 is not real on real
    # amplitudes: its e^{3it} and e^{-3it} parts are not conjugate
    sysc = normal_form(parse_potential("i*y^3"), 2)
    grid = np.linspace(0, 1, 5)
    values = np.column_stack([np.full_like(grid, 1.0), np.zeros_like(grid)])
    amp = nm.Trajectory(grid, ("R", "theta"), values)
    assert nm.evaluate_expansion(sysc, amp, 0.1, 0).column("y")[0] == 2.0
    with pytest.raises(NotReal):
        nm.evaluate_expansion(sysc, amp, 0.1, 1)


BOUND_EXAMPLES = [("vdp", None), ("rayleigh", None), ("nonauto", None),
                  ("duffing", {"g": 1}), ("mathieu", {"g": 1})]


@pytest.mark.parametrize("K", [2, 4])
@pytest.mark.parametrize("name,bindings", BOUND_EXAMPLES,
                         ids=[name for name, _ in BOUND_EXAMPLES])
def test_expansion_through_exponent_map_is_bit_identical(name, bindings, K):
    # the Cartesian table at Ar = R*w, Br = R/w gives the very floats of
    # the table substituted into R and w, compiled and evaluated
    V = get_example(name).potential()
    if bindings:
        V = V.bind(bindings)
    sysc = normal_form(V, K)
    table = polar_expansion(sysc)
    grid = np.linspace(0.0, 3.0, 41)
    values = np.column_stack([0.3 + 0.25 * grid, 1.7 * grid - 0.4])
    amp = nm.Trajectory(grid, ("R", "theta"), values)
    R, w = amp.column("R"), np.exp(1j * amp.column("theta"))
    eps = 0.15
    for order in range(K + 1):
        want = np.zeros(len(grid), dtype=complex)
        powers = {}
        for n in harmonics(table):
            terms = nm._compile(harmonic(table, n), eps, order, "R", PHASE)
            if terms:
                want += (nm._evaluate(terms, R, w, powers=powers)
                         * np.exp(1j * n * grid))
        got = nm.evaluate_expansion(sysc, amp, eps, order).column("y")
        assert np.array_equal(got, want.real), order


def test_csv_emission():
    rows = np.array([[0.0, 1.0, 1.0, 0.0], [0.1, 0.9, 0.8, 0.1]])
    assert "".join(nm.csv_lines(rows)).splitlines() == [
        "0.0,1.0,1.0,0.0", "0.1,0.9,0.8,0.1"]


def test_divergence_flag():
    # y'' + y = eps * y'^3 blows up from large initial speed
    V = parse_potential("y'^3 + y^2")
    traj = nm.integrate_ode(V, 0.0, 5.0, 1.0, 200.0)
    assert traj.truncated
    assert len(traj) < 200 / nm.DEFAULT_STEP


# -- generated RK4 kernels against a reference loop -------------------------

def _reference_rk4(f, state0, grid):
    """The classical loop with one closure call per stage: the oracle the
    generated kernel must reproduce bit for bit."""
    h = grid[1] - grid[0]
    out = [state0]
    state = state0
    for t in grid[:-1]:
        k1 = f(t, state)
        k2 = f(t + h / 2, tuple(s + h / 2 * d for s, d in zip(state, k1)))
        k3 = f(t + h / 2, tuple(s + h / 2 * d for s, d in zip(state, k2)))
        k4 = f(t + h, tuple(s + h * d for s, d in zip(state, k3)))
        state = tuple(s + h / 6 * (a + 2 * b + 2 * c + d)
                      for s, a, b, c, d in zip(state, k1, k2, k3, k4))
        out.append(state)
        if any(not abs(x) <= nm.DIVERGENCE_LIMIT for x in state):
            return np.array(out), True
    return np.array(out), False


def _trig(fn, x):
    """fn(x) as the kernel computes it: nan at an infinite angle."""
    try:
        return fn(x)
    except ValueError:
        return math.nan


def _real_sum(folded, phi, *values):
    """Folded terms at the real angle ``phi`` and real ``values``, one
    operation at a time in the kernel's order: the zero part of a
    (a cos + b sin) pair is left out, and so is a power 0."""
    v = 0.0
    for mono, n, a, b in folded:
        if n:
            trig = [x * _trig(fn, n * phi)
                    for x, fn in ((a, math.cos), (b, math.sin)) if x]
            x = trig[0] if len(trig) == 1 else trig[0] + trig[1]
        else:
            x = a
        for val, p in zip(values, mono):
            if p:
                try:
                    x = x * val ** p
                except OverflowError:
                    x = x * np.float64(val) ** p
        v += x
    return v


def _reference_polar(pol, eps, order, t_max, R0, theta0,
                     h=nm.DEFAULT_STEP):
    logR = nm._fold(nm._compile(pol.dlogR_dt, eps, order, PHASE, "R"))
    dtheta = nm._fold(nm._compile(pol.dtheta_dt, eps, order, PHASE, "R"))

    def f(t, state):
        R, theta = state
        return (R * _real_sum(logR, theta, R), _real_sum(dtheta, theta, R))

    return _reference_rk4(f, (R0, theta0), nm._grid(t_max, h))


def _reference_ode(V, y0, dy0, eps, t_max, h=nm.DEFAULT_STEP):
    series = V.series()
    folded = nm._fold(nm._compile(series, eps, series.cap, HARMONIC, "y",
                                  "y'"))

    def f(t, state):
        y, yp = state
        return (yp, -y + eps * _real_sum(folded, t, y, yp))

    return _reference_rk4(f, (y0, dy0), nm._grid(t_max, h))


MATHIEU = get_example("mathieu").potential().bind({"g": gr(1)})
# odd in the harmonic (sin) and with an eps-order term
SIN_EPS = parse_potential("y'*sin(2t) - eps*y^3 + y^2*cos(1t)")


def _fold_cases():
    """(id, compiled terms with the unit phase first) for the property
    test of the fold."""
    potentials = {name: get_example(name).potential() for name in
                  ("vdp", "rayleigh", "nonauto")}
    potentials["duffing"] = get_example("duffing").potential().bind(
        {"g": gr(1)})
    potentials["mathieu"] = get_example("mathieu").potential().bind(
        {"g": "1/3"})
    potentials["MATHIEU"] = MATHIEU
    potentials["SIN_EPS"] = SIN_EPS
    cases = []
    for name, V in potentials.items():
        series = V.series()
        cases.append((f"ode-{name}", nm._compile(series, 0.3, series.cap,
                                                 HARMONIC, "y", "y'")))
    for name in ("vdp", "nonauto"):
        pol = to_polar(derive_rg(example_expansion(name, 4)))
        for order in range(5):
            for label, s in (("logR", pol.dlogR_dt),
                             ("theta", pol.dtheta_dt)):
                cases.append((f"polar-{name}-{label}-{order}",
                              nm._compile(s, 0.3, order, PHASE, "R")))
    return cases


FOLD_CASES = _fold_cases()


@pytest.mark.parametrize("terms", [c for _, c in FOLD_CASES],
                         ids=[i for i, _ in FOLD_CASES])
def test_fold_is_the_real_part(terms):
    # Re sum c e^{ik phi} m(x) at random real states and angles, with
    # no symmetry assumed: the fold is exact up to rounding
    folded = nm._fold(terms)
    assert all(n >= 0 and (a or b) and (n or not b)
               for _, n, a, b in folded)
    rng = np.random.default_rng(5)
    nvars = len(terms[0][0]) - 1 if terms else 0
    for _ in range(50):
        phi = rng.uniform(-20, 20)
        values = tuple(rng.uniform(-2, 2, nvars))
        expected = nm._evaluate(terms, cmath.exp(1j * phi), *values).real
        scale = sum(abs(c) * math.prod(abs(v) ** p for v, p in
                                        zip(values, exps[1:]))
                    for exps, c in terms)
        assert abs(_real_sum(folded, phi, *values) - expected) \
            <= 1e-13 * scale


def test_fold_merges_conjugate_harmonics_and_orders():
    # 2 cos(t) y; (1 + 2i)/2 e^{2it} y^2 - 3/2 e^{-2it} y^2, whose real
    # part is -cos(2t) y^2 - sin(2t) y^2; y^3/4; and i e^{3it} y +
    # i e^{-3it} y, whose real part is 0
    terms = [((1, 1), 1 + 0j), ((-1, 1), 1 + 0j),
             ((2, 2), (1 + 2j) * 0.5), ((-2, 2), -3 * 0.5 + 0j),
             ((0, 3), 0.25 + 0j), ((3, 1), 1j), ((-3, 1), 1j)]
    assert nm._fold(terms) == [((1,), 1, 2.0, 0.0),
                               ((2,), 2, -1.0, -1.0),
                               ((3,), 0, 0.25, 0.0)]


@pytest.mark.parametrize("steps", [1, 200])
@pytest.mark.parametrize("case", ["polar-nonauto", "ode-mathieu",
                                  "ode-nonauto", "ode-sin-eps"])
def test_kernel_matches_reference_bit_for_bit(case, steps):
    t_max = steps * nm.DEFAULT_STEP
    if case == "polar-nonauto":
        pol = to_polar(derive_rg(example_expansion("nonauto", 4)))
        traj = nm.integrate_rg(pol, 0.25, 2, t_max, R0=0.2, theta0=-0.1)
        ref, truncated = _reference_polar(pol, 0.25, 2, t_max, 0.2, -0.1)
    else:
        V = {"ode-mathieu": MATHIEU, "ode-nonauto": NONAUTO,
             "ode-sin-eps": SIN_EPS}[case]
        traj = nm.integrate_ode(V, 0.3, 0.1, 0.25, t_max)
        ref, truncated = _reference_ode(V, 0.3, 0.1, 0.25, t_max)
    assert traj.values.shape == (steps + 1, ref.shape[1])
    assert np.array_equal(traj.values, ref)
    assert traj.truncated is truncated is False


def test_kernel_matches_reference_at_another_step():
    # h/6 and h*(1/6) differ at h = 0.01; the kernel must divide
    pol = to_polar(derive_rg(example_expansion("nonauto", 4)))
    traj = nm.integrate_rg(pol, 0.25, 2, 2.0, h=0.01, R0=0.2, theta0=-0.1)
    ref, _ = _reference_polar(pol, 0.25, 2, 2.0, 0.2, -0.1, h=0.01)
    assert np.array_equal(traj.values, ref)
    traj = nm.integrate_ode(MATHIEU, 0.3, 0.1, 0.25, 2.0, h=0.01)
    ref, _ = _reference_ode(MATHIEU, 0.3, 0.1, 0.25, 2.0, h=0.01)
    assert np.array_equal(traj.values, ref)


def test_kernel_matches_reference_on_inf_coefficients():
    # a float64 eps overflows to inf in eps^2 instead of raising, so the
    # order-2 row has inf coefficients and the flow turns nan
    eps = np.float64(1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        pol = to_polar(derive_rg(example_expansion("nonauto", 4)))
        traj = nm.integrate_rg(pol, eps, 2, 1.0, R0=0.2, theta0=-0.1)
        ref, _ = _reference_polar(pol, eps, 2, 1.0, 0.2, -0.1)
        assert any(np.isinf(c) for exps, c in
                   nm._compile(pol.dtheta_dt, eps, 2, "R", PHASE))
    assert np.array_equal(traj.values, ref, equal_nan=True)
    assert np.isnan(traj.values[-1]).all()


@pytest.mark.parametrize("eps,sign", [(1e200, 1.0), (-1e200, -1.0)])
def test_overflowing_eps_power_is_a_float_inf(eps, sign):
    # a float eps^3 raises OverflowError; the compiled coefficient takes
    # the +-inf of a float64 instead, and stays a Python complex
    s = EpsilonSeries(3, [P("x"), ParamPolynomial.zero(),
                          ParamPolynomial.zero(), P("x") ** 2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        terms = nm._compile(s, eps, 3, "x")
    assert terms[0] == ((1,), 1 + 0j)
    (exps, c), = terms[1:]
    assert exps == (2,) and type(c) is complex and c.real == sign * math.inf
    # and the flow turns nan in its first step without an error
    pol = to_polar(derive_rg(example_expansion("vdp", 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = nm.integrate_rg(pol, eps, 2, 1.0, R0=0.5, theta0=0.0)
    assert traj.truncated and len(traj) == 2


def test_kernel_power_overflow_gives_inf_like_the_reference():
    # y^40 overflows inside the first step; the result is inf, not an error
    V = parse_potential("y^40")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        traj = nm.integrate_ode(V, 10.0, 0.0, 1.0, 0.2)
        ref, truncated = _reference_ode(V, 10.0, 0.0, 1.0, 0.2)
    assert np.array_equal(traj.values, ref, equal_nan=True)
    # the state turns inf in the first step, which ends the run; float
    # arithmetic has no imaginary lane where 0*inf would make it nan
    assert traj.truncated and truncated and len(traj) == 2
    assert np.isinf(traj.values[-1]).all()
    assert traj.values[-1].tolist() == [math.inf, math.inf]


def test_integrate_rg_truncates_a_diverging_flow():
    # y'' + y = eps*y'^3 pumps energy in: d log R/dt = 3/2 eps R^2
    pol = to_polar(derive_rg(expand(parse_potential("y'^3"), 2)))
    traj = nm.integrate_rg(pol, 1.0, 2, 50.0, R0=2.0, theta0=0.0)
    ref, truncated = _reference_polar(pol, 1.0, 2, 50.0, 2.0, 0.0)
    assert traj.truncated and truncated
    assert len(traj) == len(ref) < 50.0 / nm.DEFAULT_STEP
    assert np.array_equal(traj.values, ref)
    assert abs(traj.values[-1, 0]) > nm.DIVERGENCE_LIMIT


def test_one_point_grid_and_bad_steps():
    pol = to_polar(derive_rg(example_expansion("nonauto", 2)))
    traj = nm.integrate_rg(pol, 0.25, 1, 0.0, R0=0.2, theta0=-0.1)
    assert traj.values.tolist() == [[0.2, -0.1]] and traj.t.tolist() == [0.0]
    traj = nm.integrate_ode(VDP, 1.0, 0.0, 0.1, 1.0, h=5.0)
    assert traj.values.tolist() == [[1.0, 0.0]]
    for h in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            nm.integrate_rg(pol, 0.25, 1, 1.0, h=h, R0=0.2, theta0=-0.1)
        with pytest.raises(ValueError):
            nm.integrate_ode(VDP, 1.0, 0.0, 0.1, 1.0, h=h)
    for t_max in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            nm.integrate_rg(pol, 0.25, 1, t_max, R0=0.2, theta0=-0.1)


def _full_flow():
    pol = to_polar(derive_rg(expand(VDP, 2)))
    return nm.integrate_rg(pol, 0.1, 2, 10.0, R0=0.5, theta0=0.0)


def _diverging_flow():
    pol = to_polar(derive_rg(expand(parse_potential("y'^3"), 2)))
    return nm.integrate_rg(pol, 1.0, 2, 50.0, R0=2.0, theta0=0.0)


@pytest.mark.parametrize("run", [
    _full_flow,
    lambda: nm.integrate_ode(VDP, 2.0, 0.0, 0.1, 10.0),
    _diverging_flow,
    lambda: nm.integrate_ode(VDP, 1.0, 0.0, 0.1, 1.0, h=5.0),
], ids=["flow", "ode", "truncated-flow", "one-point-grid"])
def test_states_are_one_contiguous_float_array(run):
    # the kernel's flat list of floats becomes the values without a copy
    # per row, whatever the length of the run
    traj = run()
    assert traj.values.dtype == np.float64
    assert traj.values.flags.c_contiguous
    assert traj.values.shape == (len(traj.t), 2)


def test_rk4_keeps_no_object_per_step():
    # the run holds the grid (8 bytes a step) and one float64 buffer of
    # two states a step, with the slack of its growth: about 26 bytes a
    # step.  A list of Python floats, copied into an array, peaks near
    # 90; a tuple per step, in a list of tuples, near 160.  10,000 steps
    # keep each traced run near half a second.
    steps = 10_000
    pol = to_polar(derive_rg(expand(VDP, 2)))
    V = parse_potential("y^3")
    for run in (lambda t_max: nm.integrate_ode(V, 2.0, 0.0, 0.1, t_max),
                lambda t_max: nm.integrate_rg(pol, 0.1, 1, t_max, R0=0.5,
                                              theta0=0.0)):
        run(1.0)                # caches filled outside the trace
        tracemalloc.start()
        try:
            traj = run(steps * nm.DEFAULT_STEP)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traj) == steps + 1
        assert peak < 32 * steps


@pytest.mark.parametrize("t_max,h,steps", [
    (3.0, 5.0, 0),                              # simulate --dt 5 --tmax 3
    (0.02, nm.DEFAULT_STEP, 0),                 # simulate --tmax 0.02
    (5 * (2 * math.pi), nm.DEFAULT_STEP, 1000),     # 999.9999999999999
    (25 * 2 * math.pi, nm.DEFAULT_STEP, 5000),      # the CLI default
    (100 * (2 * math.pi), nm.DEFAULT_STEP, 20000),
    (200 * (2 * math.pi), nm.DEFAULT_STEP, 40000),
], ids=["dt5-tmax3", "tmax0.02", "5-periods", "25-periods", "100-periods",
        "200-periods"])
def test_grid_ends_at_the_last_step_within_t_max(t_max, h, steps):
    # the grid never passes t_max; period multiples keep every step
    grid = nm._grid(t_max, h)
    assert len(grid) == steps + 1
    assert grid[-1] <= t_max * (1 + 1e-9)


def test_grid_budget(monkeypatch):
    monkeypatch.setattr(nm, "MAX_STEPS", 100)
    assert len(nm._grid(100 * 0.5, 0.5)) == 101
    for t_max, h in ((101 * 0.5, 0.5), (1.0, 1e-320)):
        with pytest.raises(BudgetExceeded):
            nm._grid(t_max, h)


def test_integrate_ode_needs_bound_parameters():
    with pytest.raises(ValueError, match="unbound"):
        nm.integrate_ode(get_example("mathieu").potential(), 0.3, 0.1, 0.25,
                         1.0)


def test_complex_potential_is_rejected():
    # exactly, before the first step: also at rest and on a one-point grid
    V = parse_potential("E(1)*y + y'")
    for y0, dy0, t_max in ((1, 0, 1.0), (0, 0, 1.0), (1, 0, 0.0)):
        with pytest.raises(ComplexPotential, match="not real"):
            nm.integrate_ode(V, y0, dy0, 0.1, t_max)
    nm.check_real(SIN_EPS)


def test_csv_lines_match_float_repr():
    rows = np.array([[0.0, -0.0, 1e-300, 2.0 / 3],
                     [math.inf, -math.inf, math.nan, 123456789.125]])
    expected = "".join(
        ",".join(repr(float(x)) for x in row) + "\n" for row in rows)
    assert "".join(nm.csv_lines(rows)) == expected


C = nm.CSV_CHUNK_ROWS
#: float values whose repr the CSV must keep: nan, the infinities, the
#: sign of zero, the smallest subnormal, 1e16 (printed as 1e+16), 2/3
CSV_SPECIALS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 2 / 3]


def _csv_rows(n, cols):
    rng = np.random.default_rng(n * 10 + cols)
    values = rng.standard_normal(n * cols) * 10.0 ** rng.integers(-8, 9,
                                                                  n * cols)
    values[::97][:len(CSV_SPECIALS)] = CSV_SPECIALS
    values[-len(CSV_SPECIALS):] = CSV_SPECIALS
    return values.reshape(n, cols)


def _nonauto_system():
    return derive_rg(example_expansion("nonauto", 4))


#: the runs whose CSV goes through the pipeline: the direct ODE of
#: nonauto, whose kernel reads the time of each step; the van der Pol
#: amplitude flow; compare on nonauto; and random rows with the values
#: whose repr the CSV must keep, as the columns after t
KINDS = ["simulate-direct", "simulate-flow", "compare", "specials"]


def _pipelined(kind, n):
    """The CSV text of ``kind`` over ``n`` grid points, through the
    pipeline of CSVRows."""
    t_max = (n - 1) * nm.DEFAULT_STEP
    out = io.StringIO()
    if kind == "compare":
        sysc = _nonauto_system()
        with nm.Comparison(NONAUTO, 0.3, -0.1, sysc, 0.25, 2, t_max) as rows:
            nm.integrate_rg(to_polar(sysc), 0.25, 2, t_max, R0=0.2,
                            theta0=-0.1, each=rows.chunk)
            metrics = rows.metrics()
            nm.write_csv(out, rows)
        return out.getvalue(), metrics
    with nm.CSVRows(t_max, nm.DEFAULT_STEP, 3) as rows:
        if kind == "simulate-direct":
            nm.integrate_ode(NONAUTO, 0.3, -0.1, 0.25, t_max, each=rows.chunk)
        elif kind == "simulate-flow":
            nm.integrate_rg(to_polar(derive_rg(example_expansion("vdp", 4))),
                            0.1, 4, t_max, R0=0.5, theta0=0.0,
                            each=rows.chunk)
        else:
            values = _csv_rows(n, 2)
            for start in range(0, n, C):
                rows.chunk(start, values[start:start + C], False)
        nm.write_csv(out, rows, "t,a,b")
    return out.getvalue(), None


def _whole(kind, n):
    """The same text from whole arrays, integrated, evaluated and
    formatted one after the other, and compare's metrics from them."""
    t_max = (n - 1) * nm.DEFAULT_STEP
    if kind == "compare":
        sysc = _nonauto_system()
        ode = nm.integrate_ode(NONAUTO, 0.3, -0.1, 0.25, t_max)
        amp = nm.integrate_rg(to_polar(sysc), 0.25, 2, t_max, R0=0.2,
                              theta0=-0.1)
        ya, yb = ode.column("y"), nm.evaluate_expansion(sysc, amp, 0.25,
                                                        2).column("y")
        diff = ya - yb
        rows = np.column_stack([ode.t, ya, yb, diff])
        metrics = {"max_abs_diff": float(np.max(np.abs(diff))),
                   "rms_diff": float(np.sqrt(np.mean(diff ** 2)))}
        return "t,y_numeric,y_rg,diff\n" + "".join(nm.csv_lines(rows)), \
            metrics
    if kind == "simulate-direct":
        traj = nm.integrate_ode(NONAUTO, 0.3, -0.1, 0.25, t_max)
    elif kind == "simulate-flow":
        traj = nm.integrate_rg(to_polar(derive_rg(example_expansion("vdp",
                                                                    4))),
                               0.1, 4, t_max, R0=0.5, theta0=0.0)
    else:
        traj = nm.Trajectory(nm._grid(t_max, nm.DEFAULT_STEP), ("a", "b"),
                             _csv_rows(n, 2))
    rows = np.column_stack([traj.t, traj.values])
    return "t,a,b\n" + "".join(nm.csv_lines(rows)), None


@contextlib.contextmanager
def _one_cpu():
    """``os.sched_getaffinity`` patched to one CPU for the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        yield


@pytest.mark.parametrize("n", [2 * C - 1, 2 * C, 2 * C + 1, 3 * C + 7])
def test_two_process_csv_is_byte_equal(forks, capfd, n):
    # the helper formats while the rows are computed; the bytes, and
    # compare's metrics, are those of one process and of whole arrays
    for kind in KINDS:
        two = _pipelined(kind, n)
        assert_no_child()
        with _one_cpu():
            one = _pipelined(kind, n)
        assert two == one == _whole(kind, n), kind
    # one helper per run at two chunks and more, none below
    assert len(forks) == (len(KINDS) if n >= 2 * C else 0)
    # the helper wrote nowhere but its temporary file
    assert capfd.readouterr() == ("", "")


#: the amplitude flow of y'' + y = eps*y'^3 at order 1: d log R/dt =
#: 3/8 eps R^2 and d theta/dt = 0, so R grows strictly from R0
GROWTH = (to_polar(derive_rg(expand(parse_potential("y'^3"), 1))), 0.1, 1,
          (3 * C - 1) * nm.DEFAULT_STEP)


@pytest.mark.parametrize("row", [C + 100, 2 * C - 1, 2 * C],
                         ids=["inside a chunk", "last row of a chunk",
                              "first row of a chunk"])
def test_truncated_run_gives_the_same_bytes(forks, monkeypatch, capfd, row):
    # the box ends where the state of ``row`` leaves it: the run stops
    # there, and the CSV holds its rows up to that one
    def flow(**kwargs):
        return nm.integrate_rg(*GROWTH, R0=0.1, theta0=0.0, **kwargs)

    monkeypatch.setattr(nm, "DIVERGENCE_LIMIT", flow().column("R")[row - 1])
    want = flow()
    assert want.truncated and len(want) == row + 1
    texts = []
    for pin in (contextlib.nullcontext, _one_cpu):
        with pin():
            with nm.CSVRows(GROWTH[-1], nm.DEFAULT_STEP, 3) as rows:
                traj = flow(each=rows.chunk)
                out = io.StringIO()
                nm.write_csv(out, rows, "t,R,theta")
        assert_no_child()
        assert traj.truncated and len(rows) == row + 1
        texts.append(out.getvalue())
    assert texts[0] == texts[1] == "t,R,theta\n" + "".join(nm.csv_lines(
        np.column_stack([want.t, want.values])))
    assert len(forks) == 1
    assert capfd.readouterr() == ("", "")


def _killed():
    os.kill(os.getpid(), signal.SIGKILL)


def _memory_error():
    raise MemoryError


@pytest.mark.parametrize("how", [_memory_error, _killed],
                         ids=["exits 1", "killed"])
@pytest.mark.parametrize("where", ["csv_lines", "integrate_ode"])
def test_a_failed_helper_gives_the_same_bytes(forks, monkeypatch, capfd,
                                              where, how):
    # a helper that fails formatting (or, in compare, integrating the
    # direct ODE) leaves its work to this process: no error, same bytes
    monkeypatch.setattr(nm, where, in_a_child(getattr(nm, where), how))
    for kind in KINDS:
        assert _pipelined(kind, 3 * C + 7) == _whole(kind, 3 * C + 7), kind
        assert_no_child()
    assert len(forks) == len(KINDS)
    # no traceback from the helper
    assert capfd.readouterr() == ("", "")


def _no_resource(*args):
    raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))


def _csv_in_one_process():
    return _pipelined("simulate-flow", 2 * C), _whole("simulate-flow", 2 * C)


#: the van der Pol ODE over 2 CSV chunks of steps, the least that forks
VDP_TWO_CHUNKS = (get_example("vdp").potential(), 2.0, 0.0, 0.1,
                  (2 * C - 1) * nm.DEFAULT_STEP)


def _ode_in_one_process():
    return _pipelined("compare", 2 * C), _whole("compare", 2 * C)


@pytest.mark.parametrize("why,caller", [
    pytest.param(why, caller, id=why + suffix)
    for caller, suffix in ((_csv_in_one_process, ""),
                           (_ode_in_one_process, "-ode"))
    for why in ("one cpu", "no fork", "a thread", "fork fails",
                "no temporary file")])
def test_one_process_when_a_fork_is_unsafe_or_useless(forks, monkeypatch,
                                                      why, caller):
    if why == "one cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
    elif why == "no fork":
        monkeypatch.delattr(os, "fork")
    elif why == "fork fails":
        monkeypatch.setattr(os, "fork", _no_resource)
    elif why == "no temporary file":
        monkeypatch.setattr(tempfile, "TemporaryFile", _no_resource)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    if why == "a thread":
        thread.start()
    try:
        got, want = caller()
    finally:
        done.set()
        if thread.is_alive():
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert got == want
    assert forks == []


class _FullAfterHeader(io.StringIO):
    """A text file whose disk fills once the header is written."""

    def write(self, text):
        if self.tell():
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(text)


class _Full(io.StringIO):
    """A text file on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _raise_timeout(signum, frame):
    raise TimeoutError("a child was waited for, not killed")


@contextlib.contextmanager
def _within(seconds):
    """TimeoutError in the block once ``seconds`` have passed."""
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_failed_write_reraises_and_reaps_the_child(forks):
    # the helper is still running when the header fails (it waits for
    # the last chunk), and done when a chunk fails
    for out, text in ((_Full(), ""), (_FullAfterHeader(), "t,y,dy\n")):
        with _within(20):
            with pytest.raises(OSError) as info:
                with nm.CSVRows(VDP_TWO_CHUNKS[-1], nm.DEFAULT_STEP,
                                3) as rows:
                    nm.integrate_ode(*VDP_TWO_CHUNKS, each=rows.chunk)
                    nm.write_csv(out, rows, "t,y,dy")
        assert info.value.errno == errno.ENOSPC
        assert out.getvalue() == text
        assert_no_child()
    assert len(forks) == 2


def test_parent_never_holds_the_childs_half(forks, monkeypatch, tmp_path):
    # this process keeps the text of the chunks it formats itself, and
    # reads the helper's back one chunk at a time: its peak is that of
    # formatting and writing one chunk, and its own texts
    parent = os.getpid()
    own = []
    lines = nm.csv_lines

    def counted(rows):
        for text in lines(rows):
            if os.getpid() == parent:
                own.append(len(text))
            yield text

    monkeypatch.setattr(nm, "csv_lines", counted)

    def peak(n):
        values = _csv_rows(n, 3)
        with nm.CSVRows((n - 1) * nm.DEFAULT_STEP, nm.DEFAULT_STEP,
                        4) as rows:
            for start in range(0, n, C):
                rows.chunk(start, values[start:start + C], False)
            # the helper takes what it can while this process waits
            time.sleep(0.1)
            own.clear()
            with open(tmp_path / "rows.csv", "w") as fh:
                tracemalloc.start()
                try:
                    nm.write_csv(fh, rows)
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

    one_chunk = peak(C)
    assert forks == []
    three = peak(3 * C)
    assert len(forks) == 1
    assert three < 1.25 * one_chunk + sum(own)


#: the Cartesian RGSystem of van der Pol, for a Comparison that runs no
#: flow
VDP_SYSTEM = normal_form(get_example("vdp").potential(), 1)


@pytest.mark.parametrize("args,truncated", [
    (VDP_TWO_CHUNKS, False),
    ((get_example("nonauto").potential(), 0.3, -0.1, 0.25,
      (3 * C + 7) * nm.DEFAULT_STEP), False),
    # y'' + y = y^2 from y = 2 leaves the box within 100 steps
    ((parse_potential("y^2"), 2.0, 0.0, 1.0, 2 * C * nm.DEFAULT_STEP),
     True),
], ids=["vdp", "nonauto", "diverging"])
def test_ode_child_is_integrate_ode_bit_for_bit(forks, capfd, args,
                                                truncated):
    V, y0, dy0, eps, t_max = args
    with nm.Comparison(V, y0, dy0, VDP_SYSTEM, eps, 1, t_max) as rows:
        got, n = rows.report()
        y = rows.values[:n, 1].tobytes()
    assert len(forks) == 1
    want = nm.integrate_ode(*args)
    assert n == len(want)
    assert y == want.column("y").tobytes()
    assert bool(got) is want.truncated is truncated
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("error", [Diverged("the amplitude flow"),
                                   KeyboardInterrupt()],
                         ids=["diverged", "interrupt"])
def test_a_parent_that_raises_kills_and_reaps_the_ode_child(forks,
                                                            monkeypatch,
                                                            error):
    # a child that would integrate for a minute: only a kill ends it
    monkeypatch.setattr(nm, "integrate_ode", in_a_child(
        nm.integrate_ode, lambda: time.sleep(60)))
    V, y0, dy0, eps, t_max = VDP_TWO_CHUNKS
    with _within(20):
        with pytest.raises(type(error)) as info:
            with nm.Comparison(V, y0, dy0, VDP_SYSTEM, eps, 1, t_max):
                raise error
    assert info.value is error
    assert len(forks) == 1


@pytest.mark.parametrize("cpus", [2, 1])
def test_each_chunk_is_sent_as_the_flow_makes_it(forks, monkeypatch, cpus):
    # the direct ODE would take a minute in the helper: every chunk of
    # the flow is sent all the same, before the ODE is in, and leaving
    # the block kills and reaps the helper
    monkeypatch.setattr(nm, "integrate_ode", in_a_child(
        nm.integrate_ode, lambda: time.sleep(60)))
    V, y0, dy0, eps, t_max = VDP_TWO_CHUNKS
    with _within(20), _one_cpu() if cpus == 1 else contextlib.nullcontext():
        with nm.Comparison(V, y0, dy0, VDP_SYSTEM, eps, 1, t_max) as rows:
            nm.integrate_rg(to_polar(VDP_SYSTEM), eps, 1, t_max, R0=2.0,
                            theta0=0.0, each=rows.chunk)
            assert len(rows) == len(rows.grid) == 2 * C
    assert_no_child()
    assert len(forks) == (1 if cpus == 2 else 0)


def test_overflowing_expansion_is_a_typed_error_without_warnings():
    # R^39 overflows a float on a flow that stays in its box: the signal
    # is not finite, which the residue test (False for nan) would miss
    sysc = normal_form(get_example("vdp").potential(), 19)
    grid = np.linspace(0, 1, 5)
    values = np.column_stack([np.full_like(grid, 9.9e7),
                              np.zeros_like(grid)])
    amp = nm.Trajectory(grid, ("R", "theta"), values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SeriesOverflow, match="at t = 0.0$"):
            nm.evaluate_expansion(sysc, amp, 1e-300, 19)


def test_overflowing_complex_power_is_not_a_number():
    # complex ** int raises OverflowError; _evaluate takes the non-finite
    # value of a complex128 instead, and the finite powers stay exact
    z = complex(1e200, 1e100)
    with pytest.raises(OverflowError):
        z ** 3
    assert nm._evaluate([((1,), 2j)], z) == 2j * z
    assert not cmath.isfinite(nm._evaluate([((3,), 1 + 0j)], z))


def test_overflow_in_the_kernel_warns_nobody():
    # y^40 overflows in the first step; the truncation says so, numpy not
    V = parse_potential("y^40")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traj = nm.integrate_ode(V, 10.0, 0.0, 1.0, 1.0)
    assert traj.truncated
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_numeric_output_ignores_the_order_of_terms():
    # two equal polynomials in (w, R) whose terms were made in opposite
    # orders: the compiled terms, their real folding and the RK4
    # trajectory are the same, float for float
    monos = [ParamPolynomial.monomial(grq(k + 3, 7 * p, p, 11 + k),
                                      **{PHASE: k, "R": p})
             for k in range(-2, 3) for p in range(1, 4)]
    fwd = sum(monos, ParamPolynomial.zero())
    rev = sum(reversed(monos), ParamPolynomial.zero())
    assert fwd == rev and list(fwd.terms) != list(rev.terms)
    flows = []
    for p in (fwd, rev):
        series = EpsilonSeries(2, [ParamPolynomial.zero(), p,
                                   p * P("R") * grq(1, 3)])
        terms = nm._compile(series, 0.1, 2, PHASE, "R")
        flows.append((terms, nm._fold(terms), nm.integrate_rg(
            PolarRG(2, series, series), 0.1, 2, 5.0, R0=0.3, theta0=0.7)))
    (terms, folded, traj), (terms2, folded2, traj2) = flows
    assert terms == terms2 and folded == folded2
    assert np.array_equal(traj.values, traj2.values)
