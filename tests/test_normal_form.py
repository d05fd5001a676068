"""The t-free amplitude equation of rg.normal_form, and the naive table
that perturbation.expand transports from it.

Three independent views of one result: exact equality with
derive_rg(naive_expand(V, K)), the order-by-order solve in t of the
oracles, the homological equation D^2 h + h = eps*V(h, Dh) recomputed
from the finished (h, X) by whole series products, and the conjugation
symmetry of real potentials.  The transported table of expand is
checked against the same oracle; derive_rg(expand(V, K)) ==
normal_form(V, K) holds by construction and proves nothing.
"""

import pytest

from rgpert.algebra import EpsilonSeries, ParamPolynomial, P, gr, grq
from rgpert.errors import SupportOverflow
from rgpert.mathieu import mathieu_potential
from rgpert.perturbation import expand
from rgpert.potential import (HARMONIC, OnlinePotential, Potential,
                              harmonic, harmonics, iz_dz, parse_potential)
from rgpert.registry import EXAMPLES, get_example
from rgpert.rg import derive_rg, normal_form

from oracles import dt, naive_expand, random_potential


DSL_CASES = {
    "complex E(1)*y^2": (parse_potential("E(1)*y^2"), 6),
    "parametric": (parse_potential("-y' - g*y^3 + k*y^2*y'", ("g", "k")),
                   5),
    "10^14 coefficient": (parse_potential("(100000000000000 - y^2)*y'"), 5),
    "eps terms": (parse_potential("y*y'^2 - 1/2*y^3*cos(2t) + eps*y'"), 6),
}
RANDOM_SEEDS = range(24)


def _fields(rgsys):
    return rgsys.cap, rgsys.rhs_A, rgsys.rhs_B, rgsys.expansion


def _truncated(rgsys, K):
    return (K, rgsys.rhs_A.truncate(K), rgsys.rhs_B.truncate(K),
            rgsys.expansion.truncate(K))


# ---------------------------------------------------------------------------
# Exactness against the naive table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_equals_derive_rg_on_the_examples(name):
    # the oracle is order by order, so its K = 9 table truncated to K is
    # naive_expand(V, K)
    V = get_example(name).potential()
    oracle = derive_rg(naive_expand(V, 9))
    for K in range(10):
        assert _fields(normal_form(V, K)) == _truncated(oracle, K), K


def test_equals_derive_rg_on_mathieu_potential():
    V = mathieu_potential(8)
    assert _fields(normal_form(V, 8)) == _fields(derive_rg(naive_expand(V, 8)))


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_equals_derive_rg_on_random_potentials(seed):
    V = random_potential(seed)
    assert _fields(normal_form(V, 5)) == _fields(derive_rg(naive_expand(V, 5)))


@pytest.mark.parametrize("name", sorted(DSL_CASES))
def test_equals_derive_rg_on_dsl_potentials(name):
    V, K = DSL_CASES[name]
    assert _fields(normal_form(V, K)) == _fields(derive_rg(naive_expand(V, K)))


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_expand_equals_the_oracle_on_the_examples(name):
    V = get_example(name).potential()
    oracle = naive_expand(V, 9).table
    for K in range(10):
        assert expand(V, K).table == oracle.truncate(K), K


def test_expand_equals_the_oracle_on_vdp_at_order_12():
    V = get_example("vdp").potential()
    assert expand(V, 12).table == naive_expand(V, 12).table


def test_expand_equals_the_oracle_on_mathieu_potential():
    V = mathieu_potential(8)
    assert expand(V, 8).table == naive_expand(V, 8).table


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_expand_equals_the_oracle_on_random_potentials(seed):
    V = random_potential(seed)
    assert expand(V, 5).table == naive_expand(V, 5).table


@pytest.mark.parametrize("name", sorted(DSL_CASES))
def test_expand_equals_the_oracle_on_dsl_potentials(name):
    V, K = DSL_CASES[name]
    assert expand(V, K).table == naive_expand(V, K).table


def test_keeps_the_potential_and_the_cap():
    V = get_example("vdp").potential()
    rgsys = normal_form(V, 3)
    assert rgsys.potential is V
    assert rgsys.cap == rgsys.rhs_A.cap == rgsys.expansion.cap == 3


def test_support_overflow_guard_matches_expand(monkeypatch):
    # a growth rate below the true one puts harmonic -3 of the order-1
    # source past the bound 1 + 3*0
    monkeypatch.setattr(Potential, "support_growth_rate", lambda self: 0)
    # source past the bound 1 + 3*0; the order-by-order oracle meets it
    # at the same harmonic and order
    V = parse_potential("(1 - y^2)*y'")
    messages = []
    for solve in (naive_expand, expand, normal_form):
        with pytest.raises(SupportOverflow) as raised:
            solve(V, 3)
        messages.append(str(raised.value))
    assert len(set(messages)) == 1
    assert messages[0].startswith("harmonic -3 at order 1 exceeds bound 1;")


# ---------------------------------------------------------------------------
# The work of one solve
# ---------------------------------------------------------------------------

def test_each_partial_is_made_once(monkeypatch):
    # d_A and d_B of each h_j and each (Dh)_j, on first use: at most four
    # derivatives per order, none made twice.  Made again at every later
    # order, as R_k and the L_m (Dh)_{k-m} sum need them, they would
    # number 286 at K = 12
    made = []
    diff = ParamPolynomial.diff

    def counted(self, name):
        made.append((self, name))   # keeps each id unique
        return diff(self, name)

    V = get_example("vdp").potential()
    monkeypatch.setattr(ParamPolynomial, "diff", counted)
    K = 12
    normal_form(V, K)
    assert len(made) <= 4 * (K + 1)
    assert len({(id(p), name) for p, name in made}) == len(made)


@pytest.mark.parametrize("name", ["vdp", "nonauto"])
def test_the_solve_splits_nothing(monkeypatch, name):
    # each order's unknowns are read off S_k in one term map
    V = get_example(name).potential()     # parsing splits
    calls = []
    split = ParamPolynomial.split

    def counted(self, names):
        calls.append(names)
        return split(self, names)

    monkeypatch.setattr(ParamPolynomial, "split", counted)
    normal_form(V, 8)
    assert calls == []


def test_iz_dz_is_the_time_derivative_without_t():
    z, t, A, B = P(HARMONIC), P("t"), P("A"), P("B")
    z_inv = ParamPolynomial.var(HARMONIC, -1)
    cases = [
        A * z + B * z_inv,
        # d_t t z = z cancels i z d_z (i z) = -z
        t * z + gr(0, 1) * z,
        grq(1, 2) * A ** 2 * z ** 3 - t ** 2 * B * z_inv ** 2 + 5 * A * B + t,
        # only z^0 terms: the image is the zero polynomial
        A * B - t * gr(0, 3),
        # i n over a denominator: the image is made canonical again
        grq(1, 2) * z ** 2 + grq(1, 3) * z ** 3 * A + grq(1, 6) * t * z_inv,
        ParamPolynomial.zero(),
    ]
    for c in cases:
        assert c.diff("t") + iz_dz(c) == dt(c), c
        t_free = c.coefficient("t", 0)
        assert iz_dz(t_free) == dt(t_free), c
    assert iz_dz(cases[1]) == gr(0, 1) * t * z - z
    assert iz_dz(cases[3]).is_zero()


# ---------------------------------------------------------------------------
# The homological equation, recomputed
# ---------------------------------------------------------------------------

def homological_residual(rgsys):
    """D^2 h + h - eps*V(h, Dh) mod eps^{K+1} for the finished system, with
    D = i z d_z + X_A d_Ar + X_B d_Br applied by whole-series products and
    V fed to a fresh OnlinePotential."""
    K, x_a, x_b, h = _fields(rgsys)

    def D(s):
        return (s.map_coeffs(dt) + x_a * s.diff("Ar") +
                x_b * s.diff("Br"))

    dh = D(h)
    online = OnlinePotential(rgsys.potential)
    v = [online.feed(y_j, dy_j) for y_j, dy_j in zip(h.coeffs, dh.coeffs)]
    return D(dh) + h - EpsilonSeries(K, [ParamPolynomial.zero()] + v[:K])


def _check_solution(rgsys):
    assert homological_residual(rgsys).is_zero()
    # normalisation: the resonant harmonics are the bare amplitudes
    for n, amp in ((1, P("Ar")), (-1, P("Br"))):
        assert harmonic(rgsys.expansion, n) == \
            EpsilonSeries.from_poly(amp, rgsys.cap), n


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_solves_the_homological_equation_on_the_examples(name):
    _check_solution(normal_form(get_example(name).potential(), 8))


@pytest.mark.parametrize("seed", range(8))
def test_solves_the_homological_equation_on_random_potentials(seed):
    _check_solution(normal_form(random_potential(seed), 5))


@pytest.mark.parametrize("name", sorted(DSL_CASES))
def test_solves_the_homological_equation_on_dsl_potentials(name):
    _check_solution(normal_form(*DSL_CASES[name]))


def test_residual_sees_a_wrong_amplitude_equation():
    rgsys = normal_form(get_example("vdp").potential(), 5)
    coeffs = list(rgsys.rhs_A.coeffs)
    coeffs[5] = coeffs[5] + P("Ar") ** 3 * P("Br") ** 2
    rgsys.rhs_A = EpsilonSeries(5, coeffs)
    residual = homological_residual(rgsys)
    assert [c.is_zero() for c in residual.coeffs] == [True] * 5 + [False]


# ---------------------------------------------------------------------------
# Conjugation symmetry of real potentials
# ---------------------------------------------------------------------------

_SWAP = {"Ar": "Br", "Br": "Ar"}


def _sigma(series):
    """Conjugate the coefficients and swap Ar with Br; z -> 1/z is taken
    care of by comparing the harmonic n with the harmonic -n."""
    return series.map_coeffs(lambda c: c.conjugated().rename(_SWAP))


def _conjugation_symmetric(rgsys):
    table = rgsys.expansion
    return (rgsys.rhs_B == _sigma(rgsys.rhs_A) and
            all(harmonic(table, -n) == _sigma(harmonic(table, n))
                for n in harmonics(table)))


SYMMETRIC_CASES = {
    **{name: (get_example(name).potential(), 8) for name in EXAMPLES},
    "mathieu potential": (mathieu_potential(6), 6),
    "eps terms": DSL_CASES["eps terms"],
    "sin forcing": (parse_potential("y^2*sin(2t) - y'^3"), 5),
    **{f"random seed {seed}": (random_potential(seed), 5)
       for seed in range(40)
       if random_potential(seed).is_conjugation_symmetric()},
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC_CASES))
def test_real_potentials_are_conjugation_symmetric(name):
    V, K = SYMMETRIC_CASES[name]
    assert V.is_conjugation_symmetric()
    assert _conjugation_symmetric(normal_form(V, K))


def test_complex_potential_breaks_the_symmetry():
    V, K = DSL_CASES["complex E(1)*y^2"]
    assert not V.is_conjugation_symmetric()
    assert not _conjugation_symmetric(normal_form(V, K))
