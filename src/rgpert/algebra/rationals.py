"""Exact Gaussian-rational coefficients.

All series coefficients in the package live in Q(i): complex numbers with
arbitrary-precision rational real and imaginary parts.  Arithmetic never
rounds.  The rational type is the stdlib fractions.Fraction.
GaussianRational is the scalar type at the edges of the polynomial
kernel, whose inner loops work on integer numerators (see poly.py).
The exact text form is made here, from those numerators.
"""

from fractions import Fraction as Rat
from math import gcd, lcm

_RAT_ZERO = Rat(0)


class GaussianRational:
    """Element of Q(i): exact sums, products, inverse and conjugate."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is type(_RAT_ZERO) else Rat(re)
        self.im = im if type(im) is type(_RAT_ZERO) else Rat(im)

    @classmethod
    def _raw(cls, re, im):
        obj = object.__new__(cls)
        obj.re = re
        obj.im = im
        return obj

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return GaussianRational._raw(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return GaussianRational._raw(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GaussianRational._raw(-self.re, -self.im)

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        return GaussianRational._raw(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational._raw(self.re / n, -self.im / n)

    def conjugate(self):
        return GaussianRational._raw(self.re, -self.im)

    # -- predicates -------------------------------------------------------

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    @property
    def is_real(self):
        return not self.im

    def to_complex(self):
        return complex(self.re) + 1j * complex(self.im)

    # -- rendering --------------------------------------------------------

    def __str__(self):
        return text(*_parts(self))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _parts(c):
    """(re, im, den) with c == (re + im*i)/den, den > 0, in lowest terms."""
    if isinstance(c, int):
        return c, 0, 1
    if type(c) is not GaussianRational:
        c = GaussianRational(c)
    re, im = c.re, c.im
    den = lcm(re.denominator, im.denominator)
    return (re.numerator * (den // re.denominator),
            im.numerator * (den // im.denominator), den)


# -- text form ------------------------------------------------------------

def ratio(n, d):
    """n/d, d > 0, as 'p/q' in lowest terms: a part of a JSON scalar."""
    g = gcd(n, d)
    return f"{n // g}/{d // g}"


def _rational(n, d):
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def text(re, im, den):
    """(re + im*i)/den, den > 0, as text: p/q (p if q = 1), b*i, i, -i,
    (a+b*i) or (a-b*i), every rational in lowest terms."""
    if not im:
        return _rational(re, den)
    b = "i" if abs(im) == den else _rational(abs(im), den) + "*i"
    if not re:
        return b if im > 0 else "-" + b
    return f"({_rational(re, den)}{'+' if im > 0 else '-'}{b})"


def times(c, factor):
    """The term c*factor from their texts: c for no factor, and a unit c
    elided, factor for 1 and -factor for -1."""
    if factor and c in ("1", "-1"):
        return c[:-1] + factor
    return f"{c}*{factor}" if factor else c


def eps_power(k):
    """The text of eps^k: '' for k = 0, 'eps' for k = 1."""
    return "" if k == 0 else "eps" if k == 1 else f"eps^{k}"


def signed_sum(terms):
    """The text terms as a sum, '0' for none, with ' + -' as ' - '.  A
    term holds no ' + -' of its own; a sum made here has none."""
    return " + ".join(terms).replace(" + -", " - ") or "0"


def _coerce(x):
    if isinstance(x, int):
        return GaussianRational._raw(Rat(x), _RAT_ZERO)
    if type(x) is type(_RAT_ZERO):
        return GaussianRational._raw(x, _RAT_ZERO)
    return NotImplemented


def gr(re=0, im=0):
    """Shorthand constructor: gr(1, 2) == 1 + 2i."""
    return GaussianRational(re, im)


def grq(re_num, re_den=1, im_num=0, im_den=1):
    """Rational-pair constructor: grq(1, 2, -3, 4) == 1/2 - (3/4)i."""
    return GaussianRational(Rat(re_num, re_den), Rat(im_num, im_den))


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
