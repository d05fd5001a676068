"""limit-cycle solved on the cycle against the reference: the flow-only
normal form, its polar form and a root lift of d log R/dt = 0
(``oracles.polar_limit_cycle``), through ``main``, in text and JSON.

The reference's flow is solved once per potential at the sweep's top
order: the solve is order by order, so the flow at order K is the top
one truncated to K.
"""

import json

import pytest

from rgpert import cli
from rgpert.algebra import Composition
from rgpert.cli import main
from rgpert.errors import RgpertError, ThetaDependent
from rgpert.potential import parse_potential
from rgpert.rg import RGSystem, limit_cycle, normal_form, to_polar

from oracles import polar_limit_cycle, random_potential


_FLOWS = {}


def reference(V, K, top=None):
    """The reference limit cycle at order K, from one flow at ``top`` >=
    K, by default K."""
    key = repr(V), top or K
    if key not in _FLOWS:
        _FLOWS[key] = normal_form(V, key[1], expansion=False)
    flow = _FLOWS[key]
    return polar_limit_cycle(to_polar(RGSystem(
        K, flow.rhs_A.truncate(K), flow.rhs_B.truncate(K), None)))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


LARGE = "(100000000000000 - y^2)*y'"

#: (options, orders): every input class that limit-cycle accepts.
SWEEP = [
    (["--example", "vdp"], range(16)),
    (["--example", "rayleigh"], range(16)),
    # the radial equation first appears at eps^2
    (["--potential", "eps*(1-y^2)*y' + y^3"], range(9)),
    # a theta-free flow of a nonautonomous potential, up to K = 5
    (["--potential", "(1-y^2)*y' + y'*sin(5t)"], range(9)),
    (["--example", "nonauto"], range(5)),
    (["--potential", "y^3"], range(8)),
    (["--example", "duffing", "--bind", "g=1"], range(6)),
    (["--potential", "(1-y^2)^2*y'"], range(6)),
    (["--potential", "i*y^2*y'"], range(4)),
    (["--potential", "y^3 + eps*cos(1t)"], range(5)),
    (["--potential", LARGE], range(4)),
    # a cycle up to K = 2, then NotPolarizable at eps^3, past the seed
    # order v = 1: only the solve at y_0 = 0 sees it
    (["--potential", "(1-y^2)*y' + eps^2*cos(1t)"], range(6)),
    # oracles.random_potential(6): the seed fails up to K = 3, and from
    # K = 4 the flow run on past the seed order finds a theta-dependent
    # radial equation, which comes first
    (["--potential", "y' - i*E(-2)*y*y'*eps - 1/2*E(2)*y'^2*eps"],
     range(7)),
]


@pytest.mark.parametrize("options,orders", SWEEP,
                         ids=[" ".join(o) for o, _ in SWEEP])
def test_main_prints_what_the_reference_prints(capsys, monkeypatch,
                                               options, orders):
    for K in orders:
        for fmt in ("text", "json"):
            argv = ["limit-cycle", *options, "--order", str(K),
                    "--format", fmt]
            got = run(capsys, argv)
            with monkeypatch.context() as m:
                m.setattr(cli, "limit_cycle",
                          lambda V, K: reference(V, K, orders[-1]))
                want = run(capsys, argv)
            assert got == want, (K, fmt)
            if fmt == "json" and got[0] == 0:
                # every coefficient is a constant
                for series in json.loads(got[1]).values():
                    assert all(c["vars"] == []
                               for c in series["coeffs"]), K


@pytest.mark.parametrize("options,K,message", [
    (["--potential", "eps*(1-y^2)*y' + y^3"], 1,
     "error: radial equation is identically zero\n"),
    (["--potential", "(1-y^2)*y' + y'*sin(5t)"], 6,
     "error: radial equation mixes theta; no phase-free limit cycle\n"),
    (["--potential", "i*y^2*y'"], 3,
     "error: 1/2*i*R^2 = 0 has complex coefficients\n"),
    (["--potential", "y^3 + eps*cos(1t)"], 2,
     "error: dAr/dt has the term -1/4*i with no Ar or Br at eps^2: no "
     "polar form\n"),
])
def test_error_messages(capsys, options, K, message):
    code, out, err = run(capsys, ["limit-cycle", *options, "--order",
                                  str(K)])
    assert (code, out, err) == (1, "", message)


@pytest.mark.parametrize("options", [
    ["--potential", "(1-y^2)^2*y'"],
    ["--example", "duffing", "--bind", "g=1"],
])
def test_failed_seed_of_an_autonomous_potential_stops_at_the_seed(
        capsys, monkeypatch, options):
    # an autonomous flow has no theta-dependent radial equation and no
    # term free of Ar and Br: the seed's error is raised at its order
    # v = 1, with one order of V(y) fed, not K = 40.  A feed past it
    # fails at once, not after the solve to K
    fed = []
    feed = Composition.feed

    def counted(self, *xs, **bands):
        fed.append(self.order)
        assert self.order == 0, "fed past the seed order"
        return feed(self, *xs, **bands)

    monkeypatch.setattr(Composition, "feed", counted)
    assert run(capsys, ["limit-cycle", *options, "--order", "40"]) == (
        1, "", "error: leading radial equation has no simple positive "
        "rational root\n")
    assert fed == [0]


def test_drift_at_the_leading_order_of_a_later_radial_equation(capsys):
    code, out, _ = run(capsys, ["limit-cycle", "--potential",
                                "eps*(1-y^2)*y' + y^3", "--order", "2"])
    assert code == 0
    assert out.splitlines()[-1] == "(d theta/dt)_c = 0"


def test_theta_free_forced_flow_is_solved_to_order_5(capsys):
    code, out, _ = run(capsys, ["limit-cycle", "--potential",
                                "(1-y^2)*y' + y'*sin(5t)", "--order", "5"])
    assert code == 0
    assert out.startswith("R_c = 1 + 10097/1411200*eps^2 + ")


def _outcome(solve, V, K):
    try:
        return [str(s) for s in solve(V, K)]
    except RgpertError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("seed", range(24))
def test_seeded_potentials_give_the_reference_outcome(seed):
    # the seeds include failed seeds of the leading radial equation with
    # a theta-dependent radial equation at a later order, where the
    # theta-dependence is reported, as the reference does
    V = random_potential(seed)
    for K in range(10):
        assert (_outcome(limit_cycle, V, K) ==
                _outcome(lambda V, K: reference(V, K, 9), V, K)), K


#: A potential whose eps^2 radial equation, 3/2*i*(1 - R^2)*w^-2, depends
#: on theta only off the cycle R_0 = 1.
VANISHING_AT_R0 = "(1-y^2)*y' + eps*E(2)*(-6*y + y^3 + i*y'^3)"


def test_theta_dependence_that_vanishes_at_the_seed():
    # the cycle solve reads the source at R_0 = 1, where the eps^2
    # theta-dependence vanishes; the reference rejects any R-polynomial
    # with w in it.  At K = 3 the theta-dependence no longer vanishes
    V = parse_potential(VANISHING_AT_R0)
    assert [str(s) for s in limit_cycle(V, 2)] == ["1", "0"]
    with pytest.raises(ThetaDependent):
        reference(V, 2)
    for K in (3, 4):
        with pytest.raises(ThetaDependent):
            limit_cycle(V, K)
