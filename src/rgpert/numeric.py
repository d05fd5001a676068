"""Fixed-step RK4 integration and the numeric-vs-RG comparison.

Everything is deliberately deterministic: fixed step, no adaptivity, both
systems sampled on the same uniform grid so comparisons never interpolate.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ComplexPotential, NotReal, GridMismatch
from .rg import PolarRG, RGSystem, PHASE

DEFAULT_STEP = 2 * math.pi / 200
DIVERGENCE_LIMIT = 1e8
IMAG_TOL_POTENTIAL = 1e-12
IMAG_TOL_EXPANSION = 1e-10


@dataclass
class Trajectory:
    """Uniformly sampled numeric solution."""
    t: np.ndarray
    columns: tuple
    values: np.ndarray          # shape (len(t), len(columns))
    meta: dict = field(default_factory=dict)
    truncated: bool = False

    def column(self, name):
        return self.values[:, self.columns.index(name)]

    def __len__(self):
        return len(self.t)


def _grid(t_max, h):
    n = int(round(t_max / h))
    return np.arange(n + 1) * h


def _rk4(f, state0, grid):
    """Classical RK4 over a uniform grid; state is a tuple of floats."""
    h = grid[1] - grid[0]
    out = [state0]
    state = state0
    for i in range(len(grid) - 1):
        t = grid[i]
        k1 = f(t, state)
        k2 = f(t + h / 2, _axpy(state, k1, h / 2))
        k3 = f(t + h / 2, _axpy(state, k2, h / 2))
        k4 = f(t + h, _axpy(state, k3, h))
        state = tuple(s + h / 6 * (a + 2 * b + 2 * c + d)
                      for s, a, b, c, d in zip(state, k1, k2, k3, k4))
        out.append(state)
        if any(abs(x) > DIVERGENCE_LIMIT for x in state):
            return out, True
    return out, False


def _axpy(state, deriv, a):
    return tuple(s + a * d for s, d in zip(state, deriv))


def _compile_potential(V, eps):
    """[(k, l, m, complex coefficient incl. eps^n factor)] for numeric use."""
    if V.params:
        raise ValueError(
            f"unbound parameters {V.params}; bind them to numbers first")
    out = []
    for (k, l, m, n), c in V.coeffs.items():
        cval = c.as_constant()
        out.append((k, l, m, cval.to_complex() * eps ** n))
    return out


def integrate_ode(V, y0, dy0, eps, t_max, h=DEFAULT_STEP):
    """RK4 on y'' + y = eps*V for real initial data."""
    if h <= 0:
        raise ValueError("step must be positive")
    terms = _compile_potential(V, eps)

    def f(t, state):
        y, yp = state
        v = 0j
        for k, l, m, c in terms:
            v += c * cmath.exp(1j * k * t) * (y ** l) * (yp ** m)
        if abs(v.imag) > IMAG_TOL_POTENTIAL * max(1.0, abs(v.real)):
            raise ComplexPotential(
                f"potential is not real on real states at t={t}: {v}")
        return (yp, -y + eps * v.real)

    grid = _grid(t_max, h)
    states, truncated = _rk4(f, (float(y0), float(dy0)), grid)
    values = np.array(states)
    return Trajectory(grid[:len(values)], ("y", "dy"), values,
                      meta={"eps": eps, "h": h, "kind": "ode"},
                      truncated=truncated)


def _compile(series, eps, order, x, y):
    """[(eps^k, [(x-exponent, y-exponent, complex coefficient)])] for the
    eps-orders k <= order of a series in the two variables x and y."""
    rows = []
    for k in range(min(order, series.cap) + 1):
        c = series.coeffs[k].compact()
        unbound = set(c.vars) - {x, y}
        if unbound:
            raise ValueError(f"unbound variables {sorted(unbound)}; "
                             "bind them to numbers first")
        terms = [(p, q, coeff.to_complex())
                 for (p, q), coeff in c.reindexed((x, y)).items()]
        if terms:
            rows.append((eps ** k, terms))
    return rows


def _evaluate(rows, x, y):
    """Value of compiled rows at x, y: complex scalars or numpy arrays."""
    out = 0j
    for epsk, terms in rows:
        acc = 0j
        for p, q, c in terms:
            acc += c * x ** p * y ** q
        out += epsk * acc
    return out


def integrate_rg(system, eps, order, t_max, h=DEFAULT_STEP,
                 R0=None, theta0=None, Ar0=None, Br0=None):
    """RK4 on the truncated amplitude equation.

    Polar systems take (R0, theta0); Cartesian systems take a complex
    conjugate pair (Ar0, Br0).
    """
    if isinstance(system, PolarRG):
        if R0 is None or theta0 is None:
            raise ValueError("polar integration needs R0 and theta0")
        rows_logR, rows_theta = (_compile(s, eps, order, "R", PHASE)
                                 for s in (system.dlogR_dt, system.dtheta_dt))

        def f(t, state):
            R, theta = state
            w = cmath.exp(1j * theta)
            return (R * _evaluate(rows_logR, R, w).real,
                    _evaluate(rows_theta, R, w).real)

        state0 = (float(R0), float(theta0))
        columns, kind = ("R", "theta"), "rg-polar"
    elif isinstance(system, RGSystem):
        if Ar0 is None or Br0 is None:
            raise ValueError("cartesian integration needs Ar0 and Br0")
        rows_a, rows_b = (_compile(s, eps, order, "Ar", "Br")
                          for s in (system.rhs_A, system.rhs_B))

        def f(t, state):
            A = complex(state[0], state[1])
            B = complex(state[2], state[3])
            va = _evaluate(rows_a, A, B)
            vb = _evaluate(rows_b, A, B)
            return (va.real, va.imag, vb.real, vb.imag)

        A0, B0 = complex(Ar0), complex(Br0)
        state0 = (A0.real, A0.imag, B0.real, B0.imag)
        columns, kind = ("Ar_re", "Ar_im", "Br_re", "Br_im"), "rg-cartesian"
    else:
        raise TypeError("system must be a PolarRG or RGSystem")
    grid = _grid(t_max, h)
    states, truncated = _rk4(f, state0, grid)
    values = np.array(states)
    return Trajectory(grid[:len(values)], columns, values,
                      meta={"eps": eps, "order": order, "h": h,
                            "kind": kind},
                      truncated=truncated)


def evaluate_expansion(system, amplitudes, eps, expansion_order):
    """y_RG(t) from the secular-free expansion along the amplitude flow."""
    t = amplitudes.t
    if isinstance(system, PolarRG):
        names = ("R", PHASE)
        x = amplitudes.column("R")
        y = np.exp(1j * amplitudes.column("theta"))
    else:
        names = ("Ar", "Br")
        x = amplitudes.column("Ar_re") + 1j * amplitudes.column("Ar_im")
        y = amplitudes.column("Br_re") + 1j * amplitudes.column("Br_im")
    signal = np.zeros(len(t), dtype=complex)
    for n, series in sorted(system.coeff_table.items()):
        rows = _compile(series, eps, expansion_order, *names)
        if rows:
            signal += _evaluate(rows, x, y) * np.exp(1j * n * t)
    resid = np.max(np.abs(signal.imag)) if len(signal) else 0.0
    if resid > IMAG_TOL_EXPANSION * max(1.0, np.max(np.abs(signal.real))):
        raise NotReal(f"imaginary residue {resid} in reconstructed signal")
    return Trajectory(t, ("y",), signal.real.reshape(-1, 1),
                      meta={"eps": eps, "expansion_order": expansion_order,
                            "kind": "rg-expansion"})


def expansion_initial_conditions(system, eps, rhs_order, expansion_order,
                                 Ar0, Br0):
    """(y(0), y'(0)) of the truncated expansion, including amplitude drift.

    ``system`` is the Cartesian RGSystem and (Ar0, Br0) the amplitudes at
    t = 0.  Lets the direct ODE integration start from exactly the same
    state as the RG reconstruction.
    """
    Ar, Br = complex(Ar0), complex(Br0)

    def num(series, order):
        return _evaluate(_compile(series, eps, order, "Ar", "Br"), Ar, Br)

    rhs_a = num(system.rhs_A, rhs_order)
    rhs_b = num(system.rhs_B, rhs_order)
    y = 0j
    dy = 0j
    for n, series in sorted(system.coeff_table.items()):
        pn = num(series, expansion_order)
        dpn = sum(num(series.map_coeffs(lambda c: c.diff(name)),
                      expansion_order) * rhs
                  for name, rhs in (("Ar", rhs_a), ("Br", rhs_b)))
        y += pn
        dy += dpn + 1j * n * pn
    return y.real, dy.real


def compare(a, b):
    """Metrics and CSV rows for two trajectories on the same grid."""
    if len(a.t) != len(b.t) or not np.allclose(a.t, b.t, rtol=0, atol=1e-12):
        raise GridMismatch("trajectories use different time grids")
    ya = a.values[:, 0]
    yb = b.values[:, 0]
    diff = ya - yb
    metrics = {"max_abs_diff": float(np.max(np.abs(diff))),
               "rms_diff": float(np.sqrt(np.mean(diff ** 2)))}
    return metrics, np.column_stack([a.t, ya, yb, diff])


def write_csv(path, rows, header="t,y_numeric,y_rg,diff"):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def write_gnuplot(path, csv_path):
    """Minimal gnuplot script plotting the comparison CSV."""
    with open(path, "w") as fh:
        fh.write(
            "set datafile separator ','\n"
            "set key autotitle columnhead\n"
            f"plot '{csv_path}' using 1:2 with lines, "
            f"'{csv_path}' using 1:3 with lines\n")


def count_envelope_peaks(R, tol=1e-12):
    """Strict interior local maxima of a sampled envelope."""
    peaks = 0
    for i in range(1, len(R) - 1):
        if R[i] - R[i - 1] > tol and R[i] - R[i + 1] > tol:
            peaks += 1
    return peaks


def peak_amplitude(traj, t_min):
    """Max |y| for t >= t_min with parabolic refinement at the peak."""
    y = np.abs(traj.column("y"))
    mask = traj.t >= t_min
    idx = np.argmax(y * mask)
    if idx == 0 or idx == len(y) - 1:
        return float(y[idx])
    y0, y1, y2 = y[idx - 1], y[idx], y[idx + 1]
    denom = y0 - 2 * y1 + y2
    if denom == 0:
        return float(y1)
    delta = 0.5 * (y0 - y2) / denom
    return float(y1 - 0.25 * (y0 - y2) * delta)
