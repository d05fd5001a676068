import pytest

from rgpert.algebra import P, EpsilonSeries, ParamPolynomial
from rgpert.perturbation import NaiveSeries, expand
from rgpert.potential import HARMONIC
from rgpert.registry import EXAMPLES
from rgpert.rg import derive_rg, RGSystem
from rgpert.verify import (check_functional_relation, check_inversion,
                           check_residual, check_secular_free,
                           run_identity_suite)

from rgpert import verify

from conftest import example_expansion
from oracles import (check_functional_relation_finite,
                     check_functional_relation_per_harmonic,
                     check_inversion_finite, check_inversion_per_harmonic,
                     check_residual_table, random_potential)


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
    """Y with ``mono`` added to the table entry f[n,k]."""
    coeffs = list(Y.table.coeffs)
    coeffs[k] = coeffs[k] + mono * ParamPolynomial.var(HARMONIC, n)
    table = EpsilonSeries(Y.cap, coeffs)
    return type(Y)(Y.potential, Y.cap, table)


MUTATIONS = {"A": P("A"), "t*A": P("t") * P("A"),
             "t^2*B": P("t") ** 2 * P("B"), "t^3*B": P("t") ** 3 * P("B")}


def test_mutation_grid():
    # one added monomial per table entry: the generator functional
    # relation agrees with the composition form entry by entry, the
    # generator inversion is at least as strict, and so is the suite;
    # every report equals that of (G) made per harmonic, and the
    # residual report that of the t-dependent table's residual at t = 0
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
                assert check_residual(Yb) == \
                    check_residual_table(Yb, at_zero=True), where
                _assert_reports_equal_the_per_harmonic_oracle(Yb)


def _assert_reports_equal_the_per_harmonic_oracle(Y):
    # each check on a fresh copy of Y, so that no readout is shared with
    # another: the suite, the checks after the suite, and the oracle
    def fresh():
        return NaiveSeries(Y.potential, Y.cap, Y.table)

    want = [check_functional_relation_per_harmonic(fresh()),
            check_inversion_per_harmonic(fresh()), check_residual(fresh())]
    Z = fresh()
    assert run_identity_suite(Z) == want
    assert [check_functional_relation(Z), check_inversion(Z)] == want[:2]
    Z = fresh()
    assert [check_inversion(Z), check_functional_relation(Z)] == \
        want[1::-1]


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_generator_reports_equal_the_per_harmonic_oracle(name):
    # (G) on the whole table reads, column by column, the (G) products
    # of each P_n
    Y = _example_Y(name, 6)
    for K in range(Y.cap + 1):
        _assert_reports_equal_the_per_harmonic_oracle(
            NaiveSeries(Y.potential, K, Y.table.truncate(K)))


def test_one_suite_reads_the_table_and_makes_the_defect_once(monkeypatch):
    # derive_rg and the (N), (G) and residual checks share one readout of
    # (X_A, X_B, h) and one (G) defect of the table
    calls = {"_read_at_zero": 0, "_read_defect": 0}
    for name in calls:
        def counted(self, name=name, original=getattr(NaiveSeries, name)):
            calls[name] += 1
            return original(self)

        monkeypatch.setattr(NaiveSeries, name, counted)
    Y = expand(EXAMPLES["vdp"].potential(), 4)
    reports = run_identity_suite(Y, derive_rg(Y))
    assert all(r.passed for r in reports)
    assert calls == {"_read_at_zero": 1, "_read_defect": 1}


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
    expansion = s.expansion + EpsilonSeries.from_poly(
        P("t") * P("Ar") * ParamPolynomial.var(HARMONIC, n), s.cap, 1)
    report = check_secular_free(
        RGSystem(s.cap, s.rhs_A, s.rhs_B, expansion, s.potential))
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
        rhs = substitute(lhs.map_coeffs(lambda c: c.subs({"t": gr(0)})),
                         {"A": p1_t, "B": pm1_t})
        assert lhs == rhs, n


def test_counterexample_reporting():
    # corrupt one table entry and watch the residual check locate it
    Y_broken = _mutated(_example_Y("rayleigh", 3), 3, 2, P("A"))
    report = check_residual(Y_broken)
    assert not report.passed
    assert report.counterexample is not None
    n, k, mono = report.counterexample
    assert "FAIL" in str(report)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_t_free_residual_agrees_with_the_table_residual(name):
    # the K=6 table truncated to eps^K is the table at K
    Y = _example_Y(name, 6)
    for K in range(Y.cap + 1):
        YK = NaiveSeries(Y.potential, K, Y.table.truncate(K))
        report = check_residual(YK)
        assert report == check_residual_table(YK)
        assert report == check_residual_table(YK, at_zero=True)
        assert report.passed, str(report)


@pytest.mark.parametrize("n,k,mono,want", [
    # a wrong h_2: a t-free term added to f[3,2]
    (3, 2, P("A"), (1, 3, "-3*i*A^1*B^2")),
    # a wrong X_{A,2}: t*A added to f[1,2] adds A to d_t P_1(eps,0,A,B)
    (1, 2, P("t") * P("A"), (-1, 3, "-1*A^1*B^2"))])
def test_residual_names_a_wrong_h_or_x(n, k, mono, want):
    Y = _example_Y("rayleigh", 3)
    assert check_residual(Y).passed
    Yb = _mutated(Y, n, k, mono)
    report = check_residual(Yb)
    assert report.counterexample == want
    assert not check_residual_table(Yb).passed


def test_residual_names_a_dropped_eps_order_of_v(monkeypatch):
    # V(h, Dh) with its eps^j coefficient dropped fails at eps^(j+1)
    Y = _example_Y("rayleigh", 3)
    evaluate = verify.eval_potential
    want = [(-3, 1, "-1/3*i*B^3"), (-5, 2, "1/8*B^5"),
            (-7, 3, "1/24*i*B^7")]
    for j, counterexample in enumerate(want):
        def dropped(V, y, dy, K, j=j):
            coeffs = list(evaluate(V, y, dy, K).coeffs)
            coeffs[j] = ParamPolynomial.zero()
            return EpsilonSeries(K, coeffs)

        monkeypatch.setattr(verify, "eval_potential", dropped)
        assert check_residual(Y).counterexample == counterexample, j


def test_random_potential_determinism():
    a = random_potential(7)
    b = random_potential(7)
    assert a.coeffs == b.coeffs
