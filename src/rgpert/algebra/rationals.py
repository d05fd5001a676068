"""Exact Gaussian-rational coefficients.

All series coefficients in the package live in Q(i): complex numbers with
arbitrary-precision rational real and imaginary parts.  Arithmetic never
rounds.  The rational type is the stdlib fractions.Fraction.
GaussianRational is the scalar type at the edges of the polynomial
kernel, whose inner loops work on integer numerators (see poly.py).
"""

from fractions import Fraction as Rat

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
        if not self.im:
            return str(self.re)
        if not self.re:
            return _imag_str(self.im)
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{_imag_str(abs(self.im))})"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def json_parts(self):
        """('p/q', 'r/s') strings for the JSON rendering of a term."""
        return (f"{self.re.numerator}/{self.re.denominator}",
                f"{self.im.numerator}/{self.im.denominator}")


def _imag_str(im):
    if im == 1:
        return "i"
    if im == -1:
        return "-i"
    return f"{im}*i"


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
