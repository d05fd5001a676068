"""Shared oracle-building helpers for the test suite."""

import os

import pytest


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance pass/fail lines after the run."""
    try:
        import test_acceptance
    except ImportError:
        return
    if test_acceptance.RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in test_acceptance.RESULTS:
            terminalreporter.write_line(line)

from rgpert.algebra import ParamPolynomial, EpsilonSeries, P, grq
from rgpert.perturbation import expand
from rgpert.registry import get_example
from rgpert.rg import PHASE

#: Naive series of the registry examples, expanded once per test session.
_EXPANSIONS = {}


def example_expansion(name, order, bindings=None):
    """Naive series of a registry example with its parameters bound as
    given, from the session cache."""
    key = (name, order, tuple(sorted((bindings or {}).items())))
    if key not in _EXPANSIONS:
        V = get_example(name).potential()
        if bindings:
            V = V.bind(bindings)
        _EXPANSIONS[key] = expand(V, order)
    return _EXPANSIONS[key]


def rq(*args):
    """Rational-or-Gaussian shorthand: rq(n), rq(n, d), rq(n, d, m, e)."""
    return grq(*args) if len(args) > 2 else (grq(args[0], args[1])
                                             if len(args) == 2
                                             else grq(args[0], 1))


def trig(kind, q_theta, n_t=None):
    """cos/sin of (q*theta + n*t) as {(w-exp, harmonic): coefficient}.

    The phase variable w stands for e^{i*theta}, so cos(q*theta + n*t)
    splits into the harmonics +-n with w-exponents +-q.
    """
    if n_t is None:
        n_t = 0
    half = grq(1, 2)
    half_i = grq(0, 1, -1, 2)      # 1/(2i)
    if kind == "cos":
        return {(q_theta, n_t): half, (-q_theta, -n_t): half}
    if kind == "sin":
        return {(q_theta, n_t): half_i, (-q_theta, -n_t): -half_i}
    raise ValueError(kind)


def trig_mul(a, b):
    out = {}
    for (qa, na), ca in a.items():
        for (qb, nb), cb in b.items():
            key = (qa + qb, na + nb)
            out[key] = out.get(key, grq(0)) + ca * cb
    return {k: v for k, v in out.items() if v}


def trig_scale(a, c):
    return {k: c * v for k, v in a.items()}


def trig_add(*parts):
    out = {}
    for a in parts:
        for k, v in a.items():
            s = out.get(k, grq(0)) + v
            if s:
                out[k] = s
            elif k in out:
                del out[k]
    return out


def phase_poly(trig_dict, r_power):
    """{harmonic: ParamPolynomial in R, w} from a trig dictionary."""
    out = {}
    R = P("R")
    w = ParamPolynomial.var(PHASE)
    w_inv = ParamPolynomial.var(PHASE, -1)
    for (q, n), c in trig_dict.items():
        wq = (w ** q if q >= 0 else w_inv ** (-q))
        out[n] = out.get(n, ParamPolynomial.zero()) + \
            R ** r_power * wq * c
    return out


def r_series(cap, terms):
    """EpsilonSeries in R from {eps-order: ParamPolynomial or scalar}."""
    coeffs = [ParamPolynomial.zero()] * (cap + 1)
    for k, p in terms.items():
        if not isinstance(p, ParamPolynomial):
            p = ParamPolynomial.const(p)
        coeffs[k] = p
    return EpsilonSeries(cap, coeffs)


@pytest.fixture(scope="session")
def vdp_Y5():
    return example_expansion("vdp", 5)


@pytest.fixture(scope="session")
def nonauto_Y4():
    return example_expansion("nonauto", 4)


@pytest.fixture
def forks(monkeypatch):
    """The children that rgpert forks, counted; two CPUs whatever the
    host has, so the two-process paths run; no child left after the
    test."""
    calls = []
    fork = os.fork

    def counting_fork():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    yield calls
    assert_no_child()


def assert_no_child():
    """No child of this process runs or waits to be reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def in_a_child(f, act):
    """``f``, except that a forked child calls ``act()`` first."""
    parent = os.getpid()

    def wrapped(*args, **kwargs):
        if os.getpid() != parent:
            act()
        return f(*args, **kwargs)

    return wrapped
