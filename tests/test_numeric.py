import math

import numpy as np
import pytest

from rgpert.algebra import EpsilonSeries, P, gr
from rgpert.errors import GridMismatch, NotReal
from rgpert.potential import parse_potential
from rgpert.registry import example_expansion
from rgpert.rg import derive_rg, to_polar, limit_cycle
from rgpert import numeric as nm


VDP = parse_potential("(1 - y^2)*y'")
NONAUTO = parse_potential("2*y*y'*cos(1t)")


def test_compiled_series_on_scalars_and_arrays():
    s = EpsilonSeries(1, [P("Ar") ** 2, gr(0, 1) * P("Br")])
    rows = nm._compile(s, 0.5, 1, "Ar", "Br")
    assert nm._evaluate(rows, 2j, 1.0) == -4 + 0.5j
    values = nm._evaluate(rows, np.array([2j, 1.0]), np.array([1.0, 2.0]))
    assert np.allclose(values, [-4 + 0.5j, 1 + 1j])
    # truncation at the requested order
    assert nm._evaluate(nm._compile(s, 0.5, 0, "Ar", "Br"), 2j, 1.0) == -4
    with pytest.raises(ValueError):
        nm._compile(EpsilonSeries.from_poly(P("g"), 0), 0.1, 0, "Ar", "Br")


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
    R_c, _ = limit_cycle(pol)
    eps = 0.1
    rc = sum(float(c.as_constant().re) * eps ** k
             for k, c in enumerate(R_c.coeffs))
    amp = nm.integrate_rg(pol, eps, 3, 200.0 / eps, R0=0.5, theta0=0.0)
    assert abs(amp.column("R")[-1] - rc) < 1e-6


def test_vdp_peak_amplitude_matches_radius():
    pol = to_polar(derive_rg(example_expansion("vdp", 6)))
    R_c, _ = limit_cycle(pol)
    eps = 0.1
    two_rc = 2 * sum(float(c.as_constant().re) * eps ** k
                     for k, c in enumerate(R_c.coeffs))
    t_max = 300.0
    amp = nm.integrate_rg(pol, eps, 5, t_max, R0=0.5, theta0=0.0)
    y = nm.evaluate_expansion(pol, amp, eps, 5)
    traj = nm.integrate_ode(VDP, y.column("y")[0],
                            float(np.gradient(y.column("y"), y.t)[0]),
                            eps, t_max)
    assert abs(nm.peak_amplitude(traj, 200.0) - two_rc) < 1e-3


def test_expansion_leading_term_is_circular():
    # constant amplitudes, expansion order 0: y = 2R cos(t + theta)
    pol = to_polar(derive_rg(example_expansion("vdp", 3)))
    grid = np.arange(0, 201) * (2 * math.pi / 200)
    values = np.column_stack([np.full_like(grid, 0.7),
                              np.full_like(grid, 0.3)])
    amp = nm.Trajectory(grid, ("R", "theta"), values)
    y = nm.evaluate_expansion(pol, amp, 0.2, 0)
    assert np.allclose(y.column("y"), 2 * 0.7 * np.cos(grid + 0.3),
                       atol=1e-12)


def test_polar_and_cartesian_agree():
    Y = example_expansion("nonauto", 4)
    sysc = derive_rg(Y)
    pol = to_polar(sysc)
    eps, R0, th0 = 0.25, 0.2, -0.1
    t_max = 40.0
    amp_p = nm.integrate_rg(pol, eps, 3, t_max, R0=R0, theta0=th0)
    Ar0 = R0 * complex(math.cos(th0), math.sin(th0))
    amp_c = nm.integrate_rg(sysc, eps, 3, t_max,
                            Ar0=Ar0, Br0=Ar0.conjugate())
    y_p = nm.evaluate_expansion(pol, amp_p, eps, 2)
    y_c = nm.evaluate_expansion(sysc, amp_c, eps, 2)
    assert np.max(np.abs(y_p.column("y") - y_c.column("y"))) < 1e-10


def test_initial_conditions_match_reconstruction():
    sysc = derive_rg(example_expansion("nonauto", 4))
    pol = to_polar(sysc)
    eps, R0, th0 = 0.25, 0.2, -0.1
    Ar0 = R0 * complex(math.cos(th0), math.sin(th0))
    y0, dy0 = nm.expansion_initial_conditions(sysc, eps, 2, 2,
                                              Ar0=Ar0, Br0=Ar0.conjugate())
    amp = nm.integrate_rg(pol, eps, 2, 1.0, R0=R0, theta0=th0)
    y = nm.evaluate_expansion(pol, amp, eps, 2)
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
        y_rg = nm.evaluate_expansion(pol, amp, eps, 1)
        metrics, _ = nm.compare(ode, y_rg)
        discrepancy[order] = metrics["max_abs_diff"]
        if order == 1:
            assert nm.count_envelope_peaks(amp.column("R")) == 1
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
    # feeding a polar system a non-conjugate cartesian state leaves an
    # imaginary residue in the reconstruction
    sysc = derive_rg(example_expansion("vdp", 3))
    grid = np.linspace(0, 1, 5)
    values = np.column_stack([np.full_like(grid, 1.0),   # Ar = 1
                              np.zeros_like(grid),
                              np.full_like(grid, 0.0),   # Br = 2j
                              np.full_like(grid, 2.0)])
    amp = nm.Trajectory(grid, ("Ar_re", "Ar_im", "Br_re", "Br_im"), values)
    with pytest.raises(NotReal):
        nm.evaluate_expansion(sysc, amp, 0.1, 2)


def test_csv_and_gnuplot_emission(tmp_path):
    rows = np.array([[0.0, 1.0, 1.0, 0.0], [0.1, 0.9, 0.8, 0.1]])
    csv = tmp_path / "out.csv"
    nm.write_csv(csv, rows)
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,y_numeric,y_rg,diff"
    assert len(lines) == 3
    script = tmp_path / "plot.gp"
    nm.write_gnuplot(script, csv)
    assert str(csv) in script.read_text()


def test_divergence_flag():
    # y'' + y = eps * y'^3 blows up from large initial speed
    V = parse_potential("y'^3 + y^2")
    traj = nm.integrate_ode(V, 0.0, 5.0, 1.0, 200.0)
    assert traj.truncated
    assert len(traj) < 200 / nm.DEFAULT_STEP
