"""Acceptance gate: eleven headline checks, one printed line each.

The symbolic oracles live in the sibling test modules; this file drives
them end to end with the stated truncation orders, tolerances, and
runtime budgets, and prints a pass/fail line per criterion.
"""

import math
import time

import numpy as np

from rgpert.algebra import EpsilonSeries, ParamPolynomial, P, gr, grq, Rat
from rgpert.cli import main as cli_main
from rgpert.mathieu import analyze, boundary_crosscheck
from rgpert.perturbation import expand
from rgpert.rg import derive_rg, normal_form, to_polar, limit_cycle
from rgpert.verify import run_identity_suite
from rgpert import numeric as nm

from conftest import example_expansion
from oracles import (check_functional_relation_finite,
                     check_inversion_finite, peak_amplitude,
                     random_potential)
import test_rg
import test_mathieu
from test_perturbation import harmonic_table


#: filled during the run; conftest prints it in the terminal summary
RESULTS = []


def report(number, title, ok):
    line = f"criterion {number:2d} ({title}): {'pass' if ok else 'FAIL'}"
    RESULTS.append(line)
    print(line, flush=True)
    assert ok, line


def test_criterion_01_table_reproduction(capsys):
    start = time.perf_counter()
    Y = example_expansion("vdp", 3)
    ok = all(Y.row(k).get(n) == cell
             for (n, k), cell in harmonic_table().items())
    code = cli_main(["expand", "--example", "vdp", "--order", "3"])
    capsys.readouterr()
    elapsed = time.perf_counter() - start
    report(1, "naive table, third order", ok and code == 0 and elapsed < 1.0)


def test_criterion_02_fifth_harmonic():
    A, C = P("A"), P("A") * P("B")
    i = gr(0, 1)
    p5 = example_expansion("vdp", 3).secular_coefficient(5)
    expected = EpsilonSeries(3, [
        ParamPolynomial.zero(), ParamPolynomial.zero(),
        -(A ** 5) * grq(5, 192),
        A ** 5 * grq(5, 4608) * (-14 * i - 3 * i * C - 60 * P("t")
                                 + 60 * C * P("t"))])
    report(2, "fifth-harmonic series", p5 == expected)


def test_criterion_03_vdp_rg_series():
    start = time.perf_counter()
    pol = to_polar(derive_rg(example_expansion("vdp", 8)))
    ok = True
    try:
        test_rg.test_vdp_radial_equation(pol)
        test_rg.test_vdp_phase_equation(pol)
    except AssertionError:
        ok = False
    elapsed = time.perf_counter() - start
    report(3, "van der Pol amplitude equation", ok and elapsed < 60.0)


def test_criterion_04_limit_cycle():
    ok = True
    try:
        test_rg.test_vdp_limit_cycle()
    except AssertionError:
        ok = False
    report(4, "limit-cycle radius and drift", ok)


def test_criterion_05_mathieu_series():
    rgsys = normal_form(test_mathieu.mathieu_potential(4), 4)
    ok = True
    try:
        test_mathieu.test_omega_squared_series(rgsys)  # asserts M trace-free
        _, branches = analyze(5)     # the eps^6 order resolves g4
        assert branches[0].a_coeffs == (Rat(1), Rat(0), Rat(-1, 3), Rat(0),
                                        Rat(5, 216))
        assert branches[1].a_coeffs == (Rat(1), Rat(0), Rat(5, 3), Rat(0),
                                        Rat(-763, 216))
    except AssertionError:
        ok = False
    report(5, "parametric-resonance series", ok)


def test_criterion_06_hill_crosscheck():
    _, branches = analyze(7)
    rows = boundary_crosscheck(branches, [0.1], N=12)
    worst = max(r.deviation for r in rows)
    report(6, "tridiagonal-determinant crosscheck", worst < 1e-5)


def test_criterion_07_duffing_rayleigh():
    duf_sys = derive_rg(example_expansion("duffing", 5, {"g": 1}))
    ray_sys = derive_rg(example_expansion("rayleigh", 6))
    duf, ray = to_polar(duf_sys), to_polar(ray_sys)
    ok = True
    try:
        test_rg.test_duffing_radial_equation(duf)
        test_rg.test_duffing_phase_equation(duf)
        test_rg.test_duffing_renormalized_expansion(duf_sys)
        test_rg.test_rayleigh_radial_equation(ray)
        test_rg.test_rayleigh_phase_equation(ray)
        test_rg.test_rayleigh_renormalized_expansion(ray_sys)
    except AssertionError:
        ok = False
    report(7, "Duffing and Rayleigh series", ok)


def test_criterion_08_nonautonomous():
    sysc = derive_rg(example_expansion("nonauto", 4))
    pol = to_polar(sysc)
    ok = True
    try:
        test_rg.test_nonauto_radial_equation(pol)
        test_rg.test_nonauto_phase_equation(pol)
        test_rg.test_nonauto_renormalized_expansion(sysc)
    except AssertionError:
        ok = False
    report(8, "nonautonomous example", ok)


def test_criterion_09_identity_suite():
    start = time.perf_counter()
    ok = True
    finite = (check_functional_relation_finite, check_inversion_finite)
    for name in ("vdp", "mathieu", "duffing", "rayleigh", "nonauto"):
        bindings = {"g": 1} if name in ("mathieu", "duffing") else None
        Y = example_expansion(name, 4, bindings)
        ok &= all(r.passed for r in run_identity_suite(Y, derive_rg(Y)))
        ok &= all(check(Y).passed for check in finite)
    for seed in range(20):
        Y = expand(random_potential(seed), 3)
        ok &= all(r.passed for r in run_identity_suite(Y, derive_rg(Y)))
        ok &= all(check(Y).passed for check in finite)
    elapsed = time.perf_counter() - start
    report(9, "exact-identity suite", ok and elapsed < 120.0)


def test_criterion_10_modulation_regime():
    start = time.perf_counter()
    sysc = derive_rg(example_expansion("nonauto", 4))
    pol = to_polar(sysc)
    eps, R0, th0 = 0.25, 0.2, -0.1
    t_max = 25 * 2 * math.pi
    Ar0 = R0 * complex(math.cos(th0), math.sin(th0))
    y0, dy0 = nm.expansion_initial_conditions(sysc, eps, 1, 1,
                                              Ar0=Ar0, Br0=Ar0.conjugate())
    ode = nm.integrate_ode(sysc.potential, y0, dy0, eps, t_max)
    diffs = {}
    peaks = None
    for order in (1, 2):
        amp = nm.integrate_rg(pol, eps, order, t_max, R0=R0, theta0=th0)
        y_rg = nm.evaluate_expansion(sysc, amp, eps, 1)
        diffs[order] = np.max(np.abs(ode.column("y") - y_rg.column("y")))
        if order == 1:
            # strict interior maxima of the sampled envelope
            dR = np.diff(amp.column("R"))
            peaks = np.count_nonzero((dR[:-1] > 1e-12) & (dR[1:] < -1e-12))
    d1, d2 = diffs[1], diffs[2]
    elapsed = time.perf_counter() - start
    report(10, "slow-modulation comparison",
           d1 > 0 and d2 < d1 / 2 and peaks == 1 and elapsed < 5.0)


def test_criterion_11_numeric_sanity():
    sysc = derive_rg(example_expansion("vdp", 6))
    pol = to_polar(sysc)
    R_c, _ = limit_cycle(sysc.potential, 6)
    eps = 0.1
    two_rc = 2 * sum(float(c.as_constant().re) * eps ** k
                     for k, c in enumerate(R_c.coeffs))
    t_max = 300.0
    amp = nm.integrate_rg(pol, eps, 5, t_max, R0=0.5, theta0=0.0)
    y = nm.evaluate_expansion(sysc, amp, eps, 5)
    traj = nm.integrate_ode(sysc.potential, y.column("y")[0],
                            float(np.gradient(y.column("y"), y.t)[0]),
                            eps, t_max)
    amplitude_ok = abs(peak_amplitude(traj, 200.0) - two_rc) < 1e-3

    def max_err(h):
        t = nm.integrate_ode(sysc.potential, 1.0, 0.0, 0.0, 10.0, h=h)
        return np.max(np.abs(t.column("y") - np.cos(t.t)))

    ratio = max_err(0.02) / max_err(0.01)
    report(11, "numeric sanity", amplitude_ok and abs(ratio - 16) < 1)
