import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from rgpert.algebra import EpsilonSeries, ParamPolynomial, P, gr, grq
from rgpert.errors import (BudgetExceeded, ComplexPotential, GridMismatch,
                           NotReal)
from rgpert.potential import HARMONIC, harmonic, harmonics, parse_potential
from rgpert.registry import get_example
from rgpert.perturbation import expand
from rgpert.rg import (PHASE, PolarRG, derive_rg, normal_form, to_polar,
                       limit_cycle)
from rgpert import numeric as nm

from conftest import example_expansion
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
        metrics, _ = nm.compare(ode, y_rg)
        discrepancy[order] = metrics["max_abs_diff"]
        if order == 1:
            # one strict interior maximum of the sampled envelope
            dR = np.diff(amp.column("R"))
            assert np.count_nonzero((dR[:-1] > 1e-12)
                                    & (dR[1:] < -1e-12)) == 1
    assert discrepancy[1] > 0
    assert discrepancy[2] < discrepancy[1] / 2


def test_compare_identical_and_mismatch():
    grid = np.linspace(0, 1, 11)
    a = nm.Trajectory(grid, ("y",), np.sin(grid).reshape(-1, 1))
    metrics, rows = nm.compare(a, a)
    assert metrics["max_abs_diff"] == 0.0 and metrics["rms_diff"] == 0.0
    assert rows.shape == (11, 4)
    b = nm.Trajectory(grid[:-1], ("y",), np.sin(grid[:-1]).reshape(-1, 1))
    with pytest.raises(GridMismatch):
        nm.compare(a, b)


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


def test_csv_emission(tmp_path):
    rows = np.array([[0.0, 1.0, 1.0, 0.0], [0.1, 0.9, 0.8, 0.1]])
    csv = tmp_path / "out.csv"
    with open(csv, "w") as fh:
        nm.write_csv(fh, rows)
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,y_numeric,y_rg,diff"
    assert len(lines) == 3


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


def test_csv_lines_match_float_repr(tmp_path):
    rows = np.array([[0.0, -0.0, 1e-300, 2.0 / 3],
                     [math.inf, -math.inf, math.nan, 123456789.125]])
    path = tmp_path / "rows.csv"
    with open(path, "w") as fh:
        nm.write_csv(fh, rows, "a,b,c,d")
    expected = "a,b,c,d\n" + "".join(
        ",".join(repr(float(x)) for x in row) + "\n" for row in rows)
    assert path.read_text() == expected


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
