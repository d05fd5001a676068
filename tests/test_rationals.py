import pytest
from hypothesis import given, strategies as st

from rgpert.algebra import GaussianRational, Rat, gr, grq, ONE, I
from rgpert.algebra.rationals import ratio, text
from rgpert.errors import BudgetExceeded

from oracles import gaussian_str


small = st.integers(-20, 20)
nonzero = st.integers(-20, 20).filter(bool)
pos = st.integers(1, 20)


def gaussians():
    return st.builds(lambda a, b, c, d: grq(a, b, c, d),
                     small, pos, small, pos)


def test_construction_and_parts():
    z = grq(3, 4, -1, 2)
    assert z.re == Rat(3, 4)
    assert z.im == Rat(-1, 2)
    assert gr(5) == GaussianRational(5)
    assert gr(0, 1) == I


def test_field_identities():
    z = grq(2, 3, -5, 7)
    assert z * z.inverse() == ONE
    assert z + (-z) == gr(0)
    assert I * I == gr(-1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        gr(0).inverse()


def test_conjugate_and_norm():
    z = grq(1, 2, 3, 4)
    n = z * z.conjugate()
    assert n.is_real and n.re == Rat(1, 4) + Rat(9, 16)


def test_ordering_free_hash_equality():
    assert hash(gr(2)) == hash(gr(2))
    assert gr(2) != gr(0, 2)
    assert bool(gr(0)) is False and bool(I) is True


def test_string_forms():
    assert str(gr(1)) == "1"
    assert str(grq(-1, 2)) == "-1/2"
    assert str(I) == "i"
    assert str(gr(0)) == "0"


def test_to_complex():
    z = grq(1, 2, -3, 4)
    assert z.to_complex() == complex(0.5, -0.75)


@given(gaussians(), gaussians(), gaussians())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@given(gaussians())
def test_inverse_roundtrip(z):
    if z:
        assert z.inverse().inverse() == z
        assert (z * z.inverse()) == ONE


@given(gaussians(), gaussians())
def test_conjugation_is_a_homomorphism(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


@given(small, small, pos)
def test_text_of_unreduced_numerators(re, im, den):
    c = GaussianRational(Rat(re, den), Rat(im, den))
    assert text(re, im, den) == str(c) == gaussian_str(c)


def test_text_reduces_each_part():
    assert text(2, -4, 4) == "(1/2-i)"
    assert text(0, 6, 3) == "2*i"
    assert text(-3, 3, 3) == "(-1+i)"
    assert text(0, -5, 5) == "-i"
    assert text(4, 0, 6) == "2/3"


@pytest.mark.parametrize("n,digits", [(10 ** 5000, 5001),
                                      (10 ** 5000 - 1, 5000),
                                      (-(2 ** 20000), 6021)],
                         ids=["10^5000", "10^5000-1", "-2^20000"])
def test_too_long_to_print_names_its_digits(n, digits):
    # past the interpreter's int-to-str limit a coefficient is a budget
    # error naming its digit count and the limit, in text and JSON, as a
    # numerator and as a denominator
    message = (f"an exact number of {digits} digits exceeds the "
               "interpreter's limit of 4300 digits for printing an integer")
    for make in (lambda: text(n, 0, 1), lambda: text(1, n, 3),
                 lambda: ratio(n, 7), lambda: ratio(3, abs(n))):
        with pytest.raises(BudgetExceeded) as exc:
            make()
        assert str(exc.value) == message
