"""Truncated formal power series in eps with polynomial coefficients.

A series knows its truncation cap K and stores exactly K+1 polynomial
coefficients.  Mixed-cap arithmetic raises CapMismatch; callers equalize
caps explicitly with truncate()/extend().

Every product of series goes through one truncated Cauchy sum
(``cauchy``, and ``square`` for a square), each coefficient one call of
the polynomial multiply-accumulate kernel ``poly.dot`` over its pairs of
coefficients.  ``Composition`` evaluates a polynomial at series one
eps-order at a time on top of them, the naive form of online ("relaxed")
multiplication (van der Hoeven, J. Symb. Comp. 2002), and sums the terms
of each order with one more ``dot``; ``substitute``, the potential's
V(y) and the root lift ``series_solve_root`` use it.
"""

from ..errors import CapMismatch, DegenerateRoot, NonRationalRoot
from .poly import ParamPolynomial, _as_poly, dot
from .rationals import GaussianRational, ZERO, eps_power, signed_sum, times

_ZP = ParamPolynomial.zero()
_ONE = ParamPolynomial.const(1)


class EpsilonSeries:
    __slots__ = ("cap", "coeffs")

    def __init__(self, cap, coeffs=None):
        if cap < 0:
            raise ValueError("cap must be >= 0")
        self.cap = cap
        if coeffs is None:
            self.coeffs = (_ZP,) * (cap + 1)
        else:
            coeffs = tuple(coeffs)
            if len(coeffs) != cap + 1:
                raise ValueError("coefficient count does not match cap")
            self.coeffs = coeffs

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_poly(cls, p, cap, order=0):
        """p * eps^order as a series with the given cap (see shift)."""
        return cls(cap, (_as_poly(p),) + (_ZP,) * cap).shift(order)

    @classmethod
    def const(cls, c, cap):
        return cls.from_poly(_as_poly(c), cap)

    # -- cap management ---------------------------------------------------

    def _check(self, other):
        if self.cap != other.cap:
            raise CapMismatch(
                f"series caps differ: {self.cap} vs {other.cap}")

    def truncate(self, cap):
        if cap > self.cap:
            raise ValueError("truncate cannot raise the cap")
        return EpsilonSeries(cap, self.coeffs[:cap + 1])

    def extend(self, cap):
        """Zero-pad to a higher cap.

        Only exact when the padded orders are known to vanish (e.g. an
        explicit eps factor guarantees them); the caller owns that proof.
        """
        if cap < self.cap:
            raise ValueError("extend cannot lower the cap")
        return EpsilonSeries(cap, self.coeffs + (_ZP,) * (cap - self.cap))

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        other = _as_series_like(other, self.cap)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        return EpsilonSeries(
            self.cap, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return EpsilonSeries(self.cap, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = _as_series_like(other, self.cap)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        return EpsilonSeries(
            self.cap, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if isinstance(other, (ParamPolynomial, GaussianRational, int)):
            p = _as_poly(other)
            return EpsilonSeries(self.cap, [c * p for c in self.coeffs])
        if not isinstance(other, EpsilonSeries):
            return NotImplemented
        self._check(other)
        a, b = self.coeffs, other.coeffs
        return EpsilonSeries(self.cap,
                             [cauchy(a, b, j) for j in range(self.cap + 1)])

    __rmul__ = __mul__

    def shift(self, n):
        """Multiply by eps^n, n >= 0, truncating at the cap: the zero
        series once n > cap."""
        if n < 0:
            raise ValueError(f"eps^{n}: negative power of eps")
        if n == 0:
            return self
        return EpsilonSeries(self.cap,
                             ((_ZP,) * n + self.coeffs)[:self.cap + 1])

    # -- structure --------------------------------------------------------

    def valuation(self):
        """Least order with nonzero coefficient, or None for the zero series."""
        for k, c in enumerate(self.coeffs):
            if not c.is_zero():
                return k
        return None

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def map_coeffs(self, fn):
        return EpsilonSeries(self.cap, [fn(c) for c in self.coeffs])

    def diff(self, name):
        return self.map_coeffs(lambda c: c.diff(name))

    def rename(self, mapping):
        return self.map_coeffs(lambda c: c.rename(mapping))

    def uses_var(self, name):
        return any(name in c.vars for c in self.coeffs)

    def __eq__(self, other):
        if isinstance(other, EpsilonSeries):
            return (self.cap == other.cap and
                    all(a == b for a, b in zip(self.coeffs, other.coeffs)))
        return NotImplemented

    # -- rendering --------------------------------------------------------

    def __str__(self):
        return signed_sum([
            times(f"({c})" if k and len(c.terms) > 1 else str(c),
                  eps_power(k))
            for k, c in enumerate(self.coeffs) if c])

    def __repr__(self):
        return f"<EpsilonSeries cap={self.cap}: {self}>"

    def to_json(self):
        return {"cap": self.cap,
                "coeffs": [c.to_json() for c in self.coeffs]}


def _as_series_like(x, cap):
    if isinstance(x, EpsilonSeries):
        return x
    p = _as_poly(x)
    if p is NotImplemented:
        return NotImplemented
    return EpsilonSeries.from_poly(p, cap)


def cauchy(a, b, j, band=None):
    """[eps^j] of the product of the series with coefficients a and b, in
    the ``band`` of ``dot``."""
    return dot([(a[i], b[j - i]) for i in range(j + 1)], None, band)


def square(a, j, band=None):
    """[eps^j] of the square of the series with coefficients a, in the
    ``band`` of ``dot``; each product a_i*a_{j-i} with i < j-i is made
    once, with weight 2."""
    pairs = [(a[i], a[j - i]) for i in range((j + 1) // 2)]
    weights = [2] * len(pairs)
    if j % 2 == 0:
        pairs.append((a[j // 2], a[j // 2]))
        weights.append(1)
    return dot(pairs, weights, band)


class Composition:
    """F(x_1, ..., x_m) one eps-order at a time, for the polynomial

        F = sum c * eps^n * x_1^e_1 * ... * x_m^e_m

    given as ``(n, (e_1, ..., e_m), c)`` terms.  ``feed(x_1j, ..., x_mj)``
    takes the next coefficient of every x_i and returns [eps^j] F.

    Each power or product of powers that F needs keeps one coefficient
    list, extended by one Cauchy sum per feed: x^2 is square(x), x^e for
    e >= 3 is x^(e-1) times x, and a mixed monomial is its prefix over
    the earlier variables times the power of its last variable.  K orders
    cost O(K^2) coefficient products per list instead of the O(K^3) of
    rebuilding the powers as whole series at each order.  A variable that
    F does not use is never read, so it may be fed None.
    """

    __slots__ = ("terms", "bases", "products", "lists", "order")

    def __init__(self, terms):
        self.terms = tuple((n, exps, _as_poly(c)) for n, exps, c in terms)
        if any(e < 0 for _, exps, _ in self.terms for e in exps):
            raise ValueError("negative exponent of a composed variable")
        top = [max(col) for col in zip(*(exps for _, exps, _ in self.terms))]

        def unit(i, e):
            return (0,) * i + (e,) + (0,) * (len(top) - i - 1)

        # bases maps the key of x_i to i, whose fed coefficients are its
        # list; products[key] = (a, b) makes the list of key that of a
        # times that of b, a square when a == b, and lists every factor
        # before its product
        self.bases = {unit(i, 1): i for i, e in enumerate(top) if e}
        products = {}
        for i, e_top in enumerate(top):
            for e in range(2, e_top + 1):
                products[unit(i, e)] = (unit(i, e - 1), unit(i, 1))
        for _, exps, _ in self.terms:
            prefix = None
            for i, e in enumerate(exps):
                if e and prefix is None:
                    prefix = unit(i, e)
                elif e:
                    key = prefix[:i] + (e,) + prefix[i + 1:]
                    products.setdefault(key, (prefix, unit(i, e)))
                    prefix = key
        self.products = products
        self.lists = {key: [] for key in [*self.bases, *products]}
        self.order = 0

    def feed(self, *xs, band=None, out_band=None):
        """[eps^j] F, given x_ij after x_i0, ..., x_i(j-1) for every i.

        ``band`` and ``out_band`` are the bands of ``dot`` in which the
        new coefficients of the power lists and [eps^j] F are formed."""
        j = self.order
        self.order += 1
        lists = self.lists
        for key, i in self.bases.items():
            lists[key].append(xs[i])
        for key, (a, b) in self.products.items():
            lists[key].append(square(lists[a], j, band) if a == b
                              else cauchy(lists[a], lists[b], j, band))
        pairs = []
        for n, exps, c in self.terms:
            if not any(exps):
                if n == j:
                    pairs.append((c, _ONE))
            elif n <= j:
                pairs.append((c, lists[exps][j - n]))
        return dot(pairs, None, out_band)

    def subs(self, bindings, since=0):
        """Substitute ``bindings`` in every list coefficient of order
        ``since`` and up: a variable in the fed coefficients that is
        bound later."""
        for coeffs in self.lists.values():
            coeffs[since:] = [c.subs(bindings) for c in coeffs[since:]]


def substitute(obj, bindings):
    """Composition with truncation: the EpsilonSeries ``obj`` with each
    variable named in ``bindings`` replaced by its value.

    Binding values may be GaussianRationals, ParamPolynomials or
    EpsilonSeries.  The result cap is the minimum of all participating
    caps.  Unbound variables pass through.
    """
    K = min([obj.cap] + [v.cap for v in bindings.values()
                         if isinstance(v, EpsilonSeries)])
    xs = [_as_series_like(v, K).coeffs for v in bindings.values()]
    # the terms of obj, summed per (eps-order, exponents of the bound
    # variables) into a polynomial in the unbound ones
    composition = Composition(
        (n, exps, c) for n in range(K + 1)
        for exps, c in obj.coeffs[n].split(bindings).items())
    return EpsilonSeries(K, [composition.feed(*(x[j] for x in xs))
                             for j in range(K + 1)])


def series_solve_root(G, var, u0):
    """The root u(eps) of G(u(eps), eps) = 0 mod eps^(cap+1) that starts
    at u0, lifted one eps-order at a time.

    ``G`` is an EpsilonSeries whose coefficients are polynomials in the
    unknown ``var``.  Write v for its valuation (its lowest nonvanishing
    eps-order) and H = G / eps^v.  ``u0`` must be a root of the
    leading-order equation H_0(u) = 0, else NonRationalRoot, and a simple
    one, with H_0'(u0) a nonzero constant, else DegenerateRoot.  Returns
    u(eps) with cap = G.cap - v, unique given u0.

    One Composition of H is fed u0, then ``var`` itself as u_j, where
    [eps^j] H(u) = H_0'(u0) u_j + (terms in u_0, ..., u_(j-1)) is affine;
    u_j is solved and substituted back (Composition.subs), so H(u) = 0
    holds at every order by construction and no residual is checked.
    """
    v = G.valuation()
    if v is None:
        return EpsilonSeries.const(u0, G.cap)
    H = G.coeffs[v:]
    if H[0].subs({var: u0}).as_constant() != ZERO:
        raise NonRationalRoot(
            f"{u0} is not a root of the leading-order equation")
    dlead = H[0].diff(var).subs({var: u0}).as_constant()
    if dlead is None or not dlead:
        raise DegenerateRoot(
            "leading-order derivative vanishes at the seed root")
    composition = Composition((n, exps, c) for n, h in enumerate(H)
                              for exps, c in h.split((var,)).items())
    u = [ParamPolynomial.const(u0)]
    composition.feed(u[0])
    unknown = ParamPolynomial.var(var)
    for j in range(1, len(H)):
        rest = composition.feed(unknown).split((var,)).get((0,), _ZP)
        u.append(rest.scaled(-dlead.inverse()))
        composition.subs({var: u[j]}, j)
    return EpsilonSeries(len(H) - 1, u)
