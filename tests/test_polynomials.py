from math import gcd

import pytest
from hypothesis import given, strategies as st

from rgpert.algebra import ParamPolynomial, P, gr, grq, order_vars
from rgpert.errors import NotDivisible


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
    assert p.degree_in("A") == 2 and p.min_degree_in("A") == 1


def test_divide_by_var():
    p = A ** 2 * B + A
    assert p.divide_by_var("A") == A * B + 1
    with pytest.raises(NotDivisible):
        (A + B).divide_by_var("A")


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
    p = grq(1, 2) * A ** 2 * B - gr(0, 3) * t
    assert ParamPolynomial.from_json(p.to_json()) == p


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
        lambda d: ParamPolynomial(REF_VARS, d))


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
    for exps, (re, im) in p.terms.items():
        assert len(exps) == len(p.vars)
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
    assert lhs.terms == {(1,): (1, 0)} and lhs.den == 2
    p = A.scaled(half) + B.scaled(third)
    assert p.terms == {(1, 0): (3, 0), (0, 1): (2, 0)} and p.den == 6
    q = A.scaled(grq(0, 1, 3, 4))
    assert q.terms == {(1,): (0, 3)} and q.den == 4


@given(mixed_polys(), mixed_polys())
def test_cancelling_products_are_canonical_zero(p, q):
    for z in (p * q - q * p, p * (q - q), (p - p) * q,
              (p * q).scaled(gr(0, 1)) + (q * p).scaled(gr(0, -1))):
        assert z.is_zero() and z == ParamPolynomial.zero()
        assert_canonical(z)
    z = (A.scaled(grq(1, 3)) - B.scaled(grq(1, 3))).subs({"A": B})
    assert z.is_zero()
    assert_canonical(z)


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
    for n in (1, 2, 5, 16):
        degrees.clear()
        power = p ** n
        assert power.degree_in("A") == n
        assert max(degrees) == n
    monkeypatch.undo()
    assert p ** 0 == ParamPolynomial.const(1)
    assert p ** 1 == p
    assert p ** 5 == p * p * p * p * p
