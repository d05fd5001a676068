import pytest

from rgpert.algebra import P, EpsilonSeries
from rgpert.perturbation import expand
from rgpert.registry import EXAMPLES, example_expansion
from rgpert.rg import derive_rg, RGSystem
from rgpert.verify import (check_functional_relation, check_inversion,
                           check_functional_relation_finite,
                           check_inversion_finite,
                           check_residual, check_secular_free,
                           run_identity_suite, random_potential)


MATHIEU_BIND = {"g": 1}


def _example_Y(name, order):
    bindings = MATHIEU_BIND if EXAMPLES[name].params else None
    return example_expansion(name, order, bindings)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_examples_full_suite(name):
    Y = _example_Y(name, 4)
    reports = run_identity_suite(Y, derive_rg(Y))
    assert [r.name for r in reports] == [
        "functional_relation", "inversion", "residual", "secular_free"]
    for r in reports:
        assert r.passed, str(r)


@pytest.mark.parametrize("seed", range(20))
def test_random_potentials(seed):
    Y = expand(random_potential(seed), 3)
    for r in run_identity_suite(Y, derive_rg(Y)):
        assert r.passed, str(r)


@pytest.mark.parametrize("name,seed", [(name, None) for name in sorted(
    EXAMPLES)] + [(None, seed) for seed in range(20)])
def test_finite_oracles_agree(name, seed):
    # the composition forms pass wherever the generator forms pass
    if name is not None:
        Y = _example_Y(name, 4)
    else:
        Y = expand(random_potential(seed), 3)
    for generator, finite in ((check_functional_relation,
                               check_functional_relation_finite),
                              (check_inversion, check_inversion_finite)):
        gen, fin = generator(Y), finite(Y)
        assert gen.name == fin.name and gen.cap == fin.cap
        assert gen.passed, str(gen)
        assert fin.passed, str(fin)


def _mutated(Y, n, k, mono):
    table = Y.table.with_entry(n, k, Y.table.entry(n, k) + mono)
    return type(Y)(Y.potential, Y.cap, table)


MUTATIONS = {"A": P("A"), "t*A": P("t") * P("A"),
             "t^2*B": P("t") ** 2 * P("B"), "t^3*B": P("t") ** 3 * P("B")}


def test_mutation_grid():
    # one added monomial per table entry: the generator functional
    # relation agrees with the composition form entry by entry, the
    # generator inversion is at least as strict, and so is the suite
    Y = _example_Y("rayleigh", 2)
    for n in Y.harmonics():
        for k in range(Y.cap + 1):
            for label, mono in MUTATIONS.items():
                Yb = _mutated(Y, n, k, mono)
                where = (n, k, label)
                relation = check_functional_relation_finite(Yb).passed
                inversion = check_inversion_finite(Yb).passed
                assert check_functional_relation(Yb).passed == relation, \
                    where
                assert inversion or not check_inversion(Yb).passed, where
                suite = all(r.passed for r in run_identity_suite(Yb))
                assert suite == (relation and inversion and
                                 check_residual(Yb).passed), where


@pytest.mark.parametrize("n,k,label", [(1, 2, "A"), (3, 2, "t*A")])
def test_named_mutations_fail_both_forms(n, k, label):
    # f[1,2] + A breaks the normalisation P_1(eps,0,A,B) == A
    Yb = _mutated(_example_Y("rayleigh", 3), n, k, MUTATIONS[label])
    for check in (check_functional_relation,
                  check_functional_relation_finite):
        report = check(Yb)
        assert not report.passed and report.counterexample is not None


@pytest.mark.parametrize("n", [-7, -3])
def test_secular_free_names_the_secular_term(n):
    # harmonic -7 has no eps^1 part; harmonic -3 has t-free eps^1 terms
    # that sort before the added t*Ar
    s = derive_rg(_example_Y("rayleigh", 3))
    table = dict(s.coeff_table)
    table[n] = table[n] + EpsilonSeries.from_poly(
        P("t") * P("Ar"), s.cap, 1)
    report = check_secular_free(
        RGSystem(s.cap, s.rhs_A, s.rhs_B, table, s.potential))
    assert report.counterexample == (n, 1, "1*t^1*Ar^1")
    assert str(report).endswith(
        f"(harmonic {n}, eps^1, monomial 1*t^1*Ar^1)")


def test_functional_relation_specialized_shift():
    # the symbolic-s identity specializes correctly at s = t (full
    # renormalization): P_n(eps,t,A,B) = P_n(eps,0,Ar(t),Br(t))
    from rgpert.algebra import substitute, gr
    Y = _example_Y("vdp", 4)
    p1_t = Y.secular_coefficient(1)
    pm1_t = Y.secular_coefficient(-1)
    for n in Y.harmonics():
        lhs = Y.secular_coefficient(n)
        rhs = substitute(lhs.subs_poly({"t": gr(0)}),
                         {"A": p1_t, "B": pm1_t})
        assert lhs == rhs, n


def test_counterexample_reporting():
    # corrupt one table entry and watch the residual check locate it
    Y = _example_Y("rayleigh", 3)
    broken = Y.table.with_entry(3, 2, Y.table.entry(3, 2) + P("A"))
    Y_broken = type(Y)(Y.potential, Y.cap, broken)
    report = check_residual(Y_broken)
    assert not report.passed
    assert report.counterexample is not None
    n, k, mono = report.counterexample
    assert "FAIL" in str(report)


def test_random_potential_determinism():
    a = random_potential(7)
    b = random_potential(7)
    assert a.coeffs == b.coeffs
