import itertools
import json
from math import gcd

import pytest
from hypothesis import given, strategies as st

from rgpert.algebra import (EpsilonSeries, GaussianRational, ParamPolynomial,
                            P, Rat, gr, grq, order_vars, poly)
from rgpert.algebra.poly import W, dot
from rgpert.errors import BudgetExceeded

from oracles import (dot_reference, poly_json, poly_str, series_str,
                     subs_reference)


A, B, t = P("A"), P("B"), P("t")


def small_polys():
    coeffs = st.builds(lambda a, b: gr(a, b),
                       st.integers(-4, 4), st.integers(-4, 4))
    mono = st.builds(
        lambda c, et, ea, eb: ParamPolynomial.monomial(c, t=et, A=ea, B=eb),
        coeffs, st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
    return st.lists(mono, min_size=0, max_size=4).map(
        lambda ms: sum(ms, ParamPolynomial.zero()))


def test_variable_precedence():
    assert order_vars(("B", "t", "zeta", "Ar", "A")) == \
        ("t", "A", "B", "Ar", "zeta")


def test_basic_arithmetic():
    p = (A + B) * (A - B)
    assert p == A ** 2 - B ** 2
    assert (A + 1) * (A - 1) == A ** 2 - 1
    assert 2 * A == A + A


def test_calculus_inverse_pair():
    p = t ** 3 * A + t * B
    assert p.diff("t").integrate("t") == p
    assert p.integrate("t").diff("t") == p
    assert P("x").diff("y").is_zero()


def test_substitution_homomorphism():
    p = A ** 2 * B + t
    q = A - B
    sub = {"A": t + 1, "B": gr(2)}
    assert (p * q).subs(sub) == p.subs(sub) * q.subs(sub)
    assert (p + q).subs(sub) == p.subs(sub) + q.subs(sub)


def test_substitution_with_inverse_monomial():
    w_inv = ParamPolynomial.var("w", -1)
    p = A * B
    out = p.subs({"A": P("R") * P("w"), "B": P("R") * w_inv})
    assert out == P("R") ** 2


def test_rename_and_coefficient():
    p = A ** 2 * B + 3 * A
    q = p.rename({"A": "Ar", "B": "Br"})
    assert q == P("Ar") ** 2 * P("Br") + 3 * P("Ar")
    assert p.coefficient("A", 2) == B
    assert p.coefficient("A", 1) == ParamPolynomial.const(3)
    assert p.degree_in("A") == 2


def test_conjugation():
    p = grq(0, 1, 1, 2) * A + gr(3)
    q = p.conjugated()
    assert q == grq(0, 1, -1, 2) * A + gr(3)


def test_string_is_graded_lex_descending():
    p = A + A ** 2 * B + t * A
    assert str(p) == "A^2*B + t*A + A"
    assert str(ParamPolynomial.zero()) == "0"
    assert str(-A) == "-A"


def test_json_roundtrip():
    # the exported JSON names every term exactly: rebuilt from monomials
    p = grq(1, 2) * A ** 2 * B - gr(0, 3) * t
    data = p.to_json()
    assert data["vars"] == ["t", "A", "B"]
    rebuilt = sum((ParamPolynomial.monomial(
        GaussianRational(Rat(re), Rat(im)), **dict(zip(data["vars"], exps)))
        for exps, re, im in data["terms"]), ParamPolynomial.zero())
    assert rebuilt == p


@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)


@given(small_polys(), small_polys())
def test_diff_is_a_derivation(p, q):
    lhs = (p * q).diff("t")
    rhs = p.diff("t") * q + p * q.diff("t")
    assert lhs == rhs


# ---------------------------------------------------------------------------
# The fraction-free kernel against a reference over GaussianRational
# ---------------------------------------------------------------------------
#
# The reference keeps a polynomial as {((var, exp), ...): GaussianRational}
# with only the nonzero exponents in the key, so it needs no alignment of
# variable tuples.

REF_VARS = ("t", "A", "B")
MIXED = (grq(1, 2), grq(1, 3), grq(2, 5), grq(0, 1, 3, 4), gr(1), gr(-2),
         grq(5, 6, -1, 10))


def mixed_polys():
    coeffs = st.builds(lambda c, k: c * gr(k),
                       st.sampled_from(MIXED), st.integers(-3, 3))
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
    return st.dictionaries(exps, coeffs, max_size=4).map(
        lambda d: sum((ParamPolynomial.monomial(c, **dict(zip(REF_VARS, e)))
                       for e, c in d.items()), ParamPolynomial.zero()))


def ref_of(p):
    out = {}
    for exps, c in p.items():
        key = tuple(sorted((n, e) for n, e in zip(p.vars, exps) if e))
        out[key] = out.get(key, gr(0)) + c
    return {k: c for k, c in out.items() if c}


def ref_add(x, y):
    out = dict(x)
    for k, c in y.items():
        out[k] = out.get(k, gr(0)) + c
    return {k: c for k, c in out.items() if c}


def ref_scaled(x, c):
    return {k: v * c for k, v in x.items() if v * c}


def ref_mul(x, y):
    out = {}
    for ka, ca in x.items():
        for kb, cb in y.items():
            exps = dict(ka)
            for n, e in kb:
                exps[n] = exps.get(n, 0) + e
            key = tuple(sorted((n, e) for n, e in exps.items() if e))
            out = ref_add(out, {key: ca * cb})
    return out


def ref_map_var(x, name, fn):
    """Apply fn(exp, coeff) -> (exp, coeff) to the exponent of ``name``."""
    out = {}
    for key, c in x.items():
        exps = dict(key)
        e, c = fn(exps.get(name, 0), c)
        exps[name] = e
        out = ref_add(out, {tuple(sorted((n, v) for n, v in exps.items()
                                         if v)): c})
    return out


def ref_diff(x, name):
    return ref_map_var(x, name, lambda e, c: (e - 1, c * gr(e)))


def ref_integrate(x, name):
    return ref_map_var(x, name, lambda e, c: (e + 1, c * grq(1, e + 1)))


def ref_subs(x, name, y):
    out = {}
    for key, c in x.items():
        exps = dict(key)
        e = exps.pop(name, 0)
        term = {tuple(sorted(exps.items())): c}
        for _ in range(e):
            term = ref_mul(term, y)
        out = ref_add(out, term)
    return out


def assert_canonical(p):
    assert type(p.terms) is dict
    assert type(p.den) is int and p.den > 0
    for key, (re, im) in p.terms.items():
        assert type(key) is int
        assert type(re) is int and type(im) is int
        assert re or im
    nums = [x for pair in p.terms.values() for x in pair]
    assert gcd(p.den, *nums) == 1
    if not p.terms:
        assert p.den == 1


def checked(p, ref):
    assert_canonical(p)
    assert ref_of(p) == ref
    return p


@given(mixed_polys(), mixed_polys(), st.sampled_from(MIXED))
def test_kernel_matches_reference(p, q, c):
    rp, rq = ref_of(p), ref_of(q)
    checked(p, rp)
    checked(p * q, ref_mul(rp, rq))
    checked(p + q, ref_add(rp, rq))
    checked(p - q, ref_add(rp, ref_scaled(rq, gr(-1))))
    checked(-p, ref_scaled(rp, gr(-1)))
    checked(p.scaled(c), ref_scaled(rp, c))
    checked(p * c, ref_scaled(rp, c))
    checked(p.conjugated(), {k: v.conjugate() for k, v in rp.items()})
    for name in ("t", "A"):
        checked(p.diff(name), ref_diff(rp, name))
        checked(p.integrate(name), ref_integrate(rp, name))
    checked(p.subs({"A": q}), ref_subs(rp, "A", rq))
    checked(p.coefficient("B", 1),
            {tuple(x for x in k if x[0] != "B"): v
             for k, v in rp.items() if dict(k).get("B", 0) == 1})


@given(mixed_polys(), mixed_polys())
def test_equal_polynomials_compare_and_hash_equal(p, q):
    lhs = p.scaled(grq(1, 6)) + p.scaled(grq(1, 3))
    rhs = p.scaled(grq(1, 2))
    assert lhs == rhs and hash(lhs) == hash(rhs)
    assert p * q == q * p and hash(p * q) == hash(q * p)
    lhs = (p + q) * (p - q)
    rhs = p * p - q * q
    assert lhs == rhs and hash(lhs) == hash(rhs)


def test_common_denominator_layout():
    sixth, third, half = grq(1, 6), grq(1, 3), grq(1, 2)
    lhs, rhs = A.scaled(sixth) + A.scaled(third), A.scaled(half)
    assert lhs == rhs and hash(lhs) == hash(rhs)
    a, b = next(iter(A.terms)), next(iter(B.terms))
    assert lhs.terms == {a: (1, 0)} and lhs.den == 2
    p = A.scaled(half) + B.scaled(third)
    assert p.terms == {a: (3, 0), b: (2, 0)} and p.den == 6
    q = A.scaled(grq(0, 1, 3, 4))
    assert q.terms == {a: (0, 3)} and q.den == 4


@given(mixed_polys(), mixed_polys())
def test_cancelling_products_are_canonical_zero(p, q):
    for z in (p * q - q * p, p * (q - q), (p - p) * q,
              (p * q).scaled(gr(0, 1)) + (q * p).scaled(gr(0, -1))):
        assert z.is_zero() and z == ParamPolynomial.zero()
        assert_canonical(z)
    z = (A.scaled(grq(1, 3)) - B.scaled(grq(1, 3))).subs({"A": B})
    assert z.is_zero()
    assert_canonical(z)


# ---------------------------------------------------------------------------
# Packed monomials: Laurent exponents, operands over different variables,
# names the layout first sees in the middle of a test
# ---------------------------------------------------------------------------

_FRESH = itertools.count()


def laurent_terms(names):
    """[(exponent dict, coefficient)] over ``names``, exponents -3..3."""
    coeffs = st.builds(lambda c, k: c * gr(k),
                       st.sampled_from(MIXED), st.integers(-3, 3))
    exps = st.dictionaries(st.sampled_from(names), st.integers(-3, 3))
    return st.lists(st.tuples(exps, coeffs), max_size=4)


def ref_key(exps):
    return tuple(sorted((n, e) for n, e in exps.items() if e))


def built(terms):
    """The polynomial of ``terms`` and its reference."""
    p, ref = ParamPolynomial.zero(), {}
    for exps, c in terms:
        p = p + ParamPolynomial.monomial(c, **exps)
        ref = ref_add(ref, {ref_key(exps): c})
    return p, ref


def ref_rename(x, mapping):
    return {ref_key({mapping.get(n, n): e for n, e in key}): c
            for key, c in x.items()}


@given(laurent_terms(("t", "A", "z")), laurent_terms(("A", "w", "z")),
       st.integers(-3, 3).filter(bool))
def test_laurent_kernel_matches_reference(pt, qt, e):
    p, rp = built(pt)
    q, rq = built(qt)
    before = p.items()
    # a name no polynomial has used: registering it moves no other key
    fresh = f"fresh{next(_FRESH)}"
    r = ParamPolynomial.var(fresh, e, grq(1, 2))
    rr = {((fresh, e),): grq(1, 2)}
    assert p.items() == before
    checked(p, rp)
    checked(p * q, ref_mul(rp, rq))
    checked(p + q, ref_add(rp, rq))
    checked(p - q, ref_add(rp, ref_scaled(rq, gr(-1))))
    checked(p * q * r, ref_mul(ref_mul(rp, rq), rr))
    checked((p + r) * (q - r), ref_mul(ref_add(rp, rr),
                                       ref_add(rq, ref_scaled(rr, gr(-1)))))
    for name in ("z", "w", fresh):
        checked(q.diff(name), ref_diff(rq, name))
        checked((p * r).diff(name), ref_diff(ref_mul(rp, rr), name))
    if any(dict(k).get("t") == -1 for k in rp):
        with pytest.raises(ValueError):
            p.integrate("t")
    else:
        checked(p.integrate("t"), ref_integrate(rp, "t"))
    zs = {dict(k).get("z", 0) for k in ref_mul(rp, rq)}
    assert (p * q).exponents("z") == zs
    for n in zs:
        checked((p * q).coefficient("z", n),
                {tuple(x for x in k if x[0] != "z"): v
                 for k, v in ref_mul(rp, rq).items()
                 if dict(k).get("z", 0) == n})
    swap = {"z": "w", "w": "z", fresh: "t2"}
    checked((q * r).rename(swap), ref_rename(ref_mul(rq, rr), swap))


def test_exponent_field_guard_at_its_width():
    top = 2 ** (W - 1) - 1
    for sign in (1, -1):
        x = ParamPolynomial.var("x", sign * top)
        assert x.items() == [((sign * top,), gr(1))]
        assert (x * ParamPolynomial.var("x", -sign)).items() == \
            [((sign * (top - 1),), gr(1))]
        with pytest.raises(BudgetExceeded):
            x * ParamPolynomial.var("x", sign)
        with pytest.raises(BudgetExceeded):
            ParamPolynomial.var("x", sign * (top + 1))
        with pytest.raises(BudgetExceeded):
            ParamPolynomial.monomial(1, x=sign * (top + 1))
    with pytest.raises(BudgetExceeded):
        ParamPolynomial.var("x", -top).diff("x")
    with pytest.raises(BudgetExceeded):
        ParamPolynomial.var("x", top).integrate("x")


def test_loose_bounds_are_measured_before_refusing():
    # z^k * z^-k stores the bound 2k for the exponent 0; its square would
    # store 4k > 2^(W-1), so the exponents are measured instead
    k = 2 ** (W - 2) - 1
    p = ParamPolynomial.var("z", k) * ParamPolynomial.var("z", -k)
    assert p == ParamPolynomial.const(1) and p.bound == 2 * k
    assert p * p == p and (p * p).bound == 0
    assert (p.scaled(gr(3)) * P("z") * p).diff("z") == ParamPolynomial.const(3)
    # the measured ranges keep both signs: z^-(2^(W-1)) still overflows
    top = 2 ** (W - 1) - 1
    low = ParamPolynomial.var("z", -top) + 1
    with pytest.raises(BudgetExceeded):
        low * (P("z").diff("z") + ParamPolynomial.var("z", -1))


def test_items_keep_insertion_order():
    monos = [{"B": 1}, {"t": 2, "A": -1}, {}, {"z": 3}, {"A": 1, "z": -2}]
    p = ParamPolynomial.zero()
    for i, exps in enumerate(monos):
        p = p + ParamPolynomial.monomial(gr(i + 1), **exps)
    assert p.vars == ("t", "A", "B", "z")
    assert p.items() == [(tuple(exps.get(n, 0) for n in p.vars), gr(i + 1))
                         for i, exps in enumerate(monos)]
    # split keeps the order too, one term per exponent tuple here
    names = ("z", "A", "B")
    assert list(p.split(names)) == [tuple(exps.get(n, 0) for n in names)
                                    for exps in monos]
    # a product lists its terms in the order of the nested loop
    q = (A + B) * (t + P("z"))
    assert [e for e, _ in q.items()] == [(1, 1, 0, 0), (0, 1, 0, 1),
                                         (1, 0, 1, 0), (0, 0, 1, 1)]


def test_split_sums_the_rest_per_exponent_tuple():
    z = P("z")
    p = 3 * A * z - t * z + gr(0, 2) * A ** 2 + grq(1, 2) * B * z + 5
    names = ("z", "A", "y")
    parts = p.split(names)
    # first-occurrence order; y occurs nowhere and reads 0
    assert list(parts) == [(1, 1, 0), (1, 0, 0), (0, 2, 0), (0, 0, 0)]
    assert parts[1, 1, 0] == ParamPolynomial.const(3)
    assert parts[1, 0, 0] == grq(1, 2) * B - t
    assert parts[0, 2, 0] == ParamPolynomial.const(gr(0, 2))
    assert parts[0, 0, 0] == ParamPolynomial.const(5)
    assert sum((rest * ParamPolynomial.monomial(1, **dict(zip(names, e)))
                for e, rest in parts.items()), ParamPolynomial.zero()) == p
    assert p.split(()) == {(): p}
    assert ParamPolynomial.zero().split(names) == {}
    # negative exponents split like positive ones
    q = ParamPolynomial.var("z", -2, gr(3)) * A + A
    assert q.split(("z",)) == {(-2,): 3 * A, (0,): A}


def _parity_rule(e):
    """Drops z^0; odd e to part 0 times (e + i)/3, even e to part 1 times
    -1/e^2."""
    if e == 0:
        return None
    if e % 2:
        return 0, e, 1, 3
    return 1, -1, 0, e * e


@given(laurent_terms(("z", "A", "t")))
def test_term_map_is_the_sum_over_exponents(terms):
    p, _ = built(terms)
    steps = (-1, 2)
    want = [ParamPolynomial.zero()] * 2
    for e in sorted(p.exponents("z")):
        rule = _parity_rule(e)
        if rule is not None:
            i, re, im, d = rule
            want[i] = want[i] + p.coefficient("z", e) * ParamPolynomial.var(
                "z", e + steps[i], grq(re, d, im, d))
    seen = []

    def rule(e):
        seen.append(e)
        return _parity_rule(e)

    assert p.term_map("z", rule, steps) == want
    # once per distinct exponent, in increasing order
    assert seen == sorted(p.exponents("z"))


def binding_values():
    """Zero, constant, monomial and multi-term substitution values."""
    coeffs = st.builds(lambda c, k: c * gr(k),
                       st.sampled_from(MIXED), st.integers(-3, 3))
    monomials = st.builds(
        lambda c, exps: ParamPolynomial.monomial(c, **exps), coeffs,
        st.dictionaries(st.sampled_from(("t", "A", "w", "z")),
                        st.integers(-2, 2)))
    return st.one_of(st.just(0), st.just(ParamPolynomial.zero()), coeffs,
                     monomials, mixed_polys())


@given(laurent_terms(("w", "z")), mixed_polys(),
       st.dictionaries(st.sampled_from(("A", "B", "t")), binding_values(),
                       max_size=3))
def test_subs_matches_the_term_by_term_reference(pt, q, bindings):
    p = built(pt)[0] * q
    got, want = p.subs(bindings), subs_reference(p, bindings)
    assert_canonical(got)
    assert got.den == want.den
    # split + dot lists the terms per exponent tuple; no output depends
    # on their order
    assert got.terms == want.terms


def test_subs_refuses_negative_powers_and_field_overflow():
    for value in (0, gr(2), t * B, A + 1):
        with pytest.raises(ValueError):
            (ParamPolynomial.var("A", -1) + B).subs({"A": value})
    x, y = P("x"), P("y")
    with pytest.raises(BudgetExceeded):
        (x ** 2).subs({"x": y ** 20000})
    # the bound value and the rest overflow the field of y together
    with pytest.raises(BudgetExceeded):
        (x ** 2 * y ** 20000).subs({"x": y ** 10000})
    # a loose stored bound is measured before refusing
    inv = ParamPolynomial.var("y", -20000)
    assert (x ** 2 * inv).subs({"x": y ** 10000}) == ParamPolynomial.const(1)


# ---------------------------------------------------------------------------
# The multiply-accumulate kernel
# ---------------------------------------------------------------------------

def dot_cases():
    """(pairs, weights, cancel): mixed denominators and Gaussian
    coefficients, zero operands, zero and negative weights, the empty
    list, and, when ``cancel`` is drawn, every pair again with a negated
    factor, so that the products cancel to the canonical zero."""
    operand = st.one_of(st.just(ParamPolynomial.zero()), mixed_polys())
    pairs = st.lists(st.tuples(operand, operand), max_size=5)
    weights = st.one_of(st.none(), st.integers(-2, 3))

    def build(draw_pairs, w, cancel):
        if cancel:
            draw_pairs = draw_pairs + [(a, -b) for a, b in draw_pairs]
        return (draw_pairs, None if w is None else [w] * len(draw_pairs),
                cancel)

    return st.builds(build, pairs, weights, st.booleans())


@given(dot_cases())
def test_dot_equals_the_sequential_sum_of_products(case):
    pairs, weights, cancel = case
    got, want = dot(pairs, weights), dot_reference(pairs, weights)
    assert_canonical(got)
    assert got.den == want.den and got.terms == want.terms
    if cancel or not pairs:
        assert got.is_zero() and got.bound == 0


def banded_dot_cases():
    """(pairs, weights) over Laurent operands in z, A and t drawn from a
    pool of up to three, so that one operand can sit in several pairs and
    on both sides of one; with ``cancel``, every pair again with a
    negated factor."""
    operand = st.one_of(st.just(ParamPolynomial.zero()),
                        laurent_terms(("z", "A", "t")).map(
                            lambda terms: built(terms)[0]))
    indices = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                       max_size=5)
    weights = st.one_of(st.none(), st.integers(-2, 3))

    def build(pool, index_pairs, w, cancel):
        pairs = [(pool[i % len(pool)], pool[j % len(pool)])
                 for i, j in index_pairs]
        if cancel:
            pairs += [(a, -b) for a, b in pairs]
        return pairs, None if w is None else [w] * len(pairs)

    return st.builds(build, st.lists(operand, min_size=1, max_size=3),
                     indices, weights, st.booleans())


@given(banded_dot_cases(), st.integers(0, 5))
def test_banded_dot_drops_the_terms_past_the_band(case, width):
    pairs, weights = case
    full = dot(pairs, weights)
    # z, A, then z again: the operands' kept groups are of another
    # variable, then of the same one
    for name in ("z", "A", "z"):
        want = ParamPolynomial.zero()
        for e in full.exponents(name):
            if abs(e) <= width:
                want = want + full.coefficient(name, e) * (
                    ParamPolynomial.var(name, e))
        got = dot(pairs, weights, (name, width))
        assert_canonical(got)
        assert got.den == want.den and got.terms == want.terms
        assert got == want


@given(mixed_polys(), mixed_polys())
def test_one_pair_dot_is_the_product(p, q):
    one, product = dot([(p, q)]), p * q
    assert one.den == product.den
    assert list(one.terms.items()) == list(product.terms.items())


def test_dot_cancels_to_the_canonical_zero():
    p = A.scaled(grq(1, 3)) + B.scaled(grq(0, 1, 2, 5))
    q = t.scaled(grq(5, 6, -1, 10)) + 1
    z = dot([(p, q), (q, p)], [1, -1])
    assert z.is_zero() and z.den == 1 and z.bound == 0
    assert_canonical(z)
    assert dot([(p, ParamPolynomial.zero()), (q, p)], [1, 0]).is_zero()


def test_dot_keeps_the_exponent_budget_of_each_product():
    x, y = P("x"), P("y")
    big = y ** 20000
    with pytest.raises(BudgetExceeded):
        dot([(x, y), (big, big)])
    # a loose stored bound is measured before refusing, as for a * b
    loose = ParamPolynomial.var("y", 10000) * ParamPolynomial.var("y", -10000)
    assert loose == 1 and loose.bound == 20000
    assert dot([(loose, big), (x, y)]) == big + x * y


def test_power_squares_no_further_than_the_target(monkeypatch):
    p = 1 + A + B
    mul = ParamPolynomial.__mul__
    degrees = []

    def spy(self, other):
        out = mul(self, other)
        if isinstance(out, ParamPolynomial) and out:
            degrees.append(out.degree_in("A"))
        return out

    monkeypatch.setattr(ParamPolynomial, "__mul__", spy)
    # p ** 1 forms no product (test_power_starts_from_the_base)
    for n in (2, 5, 16):
        degrees.clear()
        power = p ** n
        assert power.degree_in("A") == n
        assert max(degrees) == n
    monkeypatch.undo()
    assert p ** 0 == ParamPolynomial.const(1)
    assert p ** 1 == p
    assert p ** 5 == p * p * p * p * p


def test_power_starts_from_the_base(monkeypatch):
    p = 1 + A + grq(1, 2) * B
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return dot(*args, **kwargs)

    monkeypatch.setattr(poly, "dot", counting)
    assert p ** 1 is p and not calls
    for n, products in ((2, 1), (3, 2)):
        calls.clear()
        p ** n
        assert len(calls) == products
    monkeypatch.undo()
    assert p ** 3 == p * p * p


# ---------------------------------------------------------------------------
# The text and JSON forms against the items()-based reference
# ---------------------------------------------------------------------------

TEXT_VARS = ("t", "A", "Br", "R", "w", "g1", "z")
UNITS = (gr(1), gr(-1), gr(0, 1), gr(0, -1), gr(0), grq(1, 2, -1, 1))


def text_polys():
    """Polynomials whose terms have complex, unit, negative or zero
    coefficients and Laurent exponents."""
    coeffs = st.one_of(
        st.sampled_from(UNITS),
        st.builds(grq, st.integers(-3, 3), st.integers(1, 4),
                  st.integers(-3, 3), st.integers(1, 4)))
    exps = st.dictionaries(st.sampled_from(TEXT_VARS), st.integers(-2, 3))
    return st.lists(st.tuples(exps, coeffs), max_size=4).map(
        lambda terms: sum((ParamPolynomial.monomial(c, **e)
                           for e, c in terms), ParamPolynomial.zero()))


def text_series():
    """Series with zero, single-term and multi-term coefficients at
    every order, the zero series among them."""
    return st.integers(0, 3).flatmap(lambda cap: st.lists(
        st.one_of(st.just(ParamPolynomial.zero()), text_polys()),
        min_size=cap + 1, max_size=cap + 1).map(
            lambda coeffs: EpsilonSeries(cap, coeffs)))


@given(text_polys())
def test_text_and_json_equal_the_items_reference(p):
    assert str(p) == poly_str(p)
    assert json.dumps(p.to_json()) == json.dumps(poly_json(p))


@given(text_series())
def test_series_text_and_json_equal_the_items_reference(s):
    assert str(s) == series_str(s)
    assert json.dumps(s.to_json()) == json.dumps(
        {"cap": s.cap, "coeffs": [poly_json(c) for c in s.coeffs]})


def test_text_and_json_build_no_scalar(monkeypatch):
    p = (grq(1, 2, -3, 4) * A ** 2 * t - B + gr(0, 1)
         + ParamPolynomial.var("w", -1, 2))
    s = EpsilonSeries(2, [p, -A, p])
    want = str(p), p.to_json(), str(s), s.to_json()

    def refuse(*args):
        raise AssertionError("a scalar was built per term")

    monkeypatch.setattr(poly, "_scalar", refuse)
    assert (str(p), p.to_json(), str(s), s.to_json()) == want
    assert str(EpsilonSeries(3)) == "0"
