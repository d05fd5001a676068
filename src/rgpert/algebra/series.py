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
of each order with one more ``dot``; ``substitute`` and the potential's
V(y) both use it.
"""

from ..errors import CapMismatch, DegenerateRoot, NonRationalRoot
from .poly import ParamPolynomial, _as_poly, dot
from .rationals import GaussianRational, ZERO

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
        """p * eps^order as a series with the given cap."""
        p = _as_poly(p)
        coeffs = [_ZP] * (cap + 1)
        if order <= cap:
            coeffs[order] = p
        return cls(cap, coeffs)

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
        """Multiply by eps^n (truncating at the cap)."""
        if n == 0:
            return self
        coeffs = (_ZP,) * n + self.coeffs[:self.cap + 1 - n]
        return EpsilonSeries(self.cap, coeffs)

    def inverse(self):
        """Multiplicative inverse; the eps^0 term must be a nonzero constant."""
        c0 = self.coeffs[0].as_constant()
        if c0 is None or not c0:
            raise ZeroDivisionError(
                "series inverse needs a nonzero constant leading coefficient")
        inv0 = c0.inverse()
        # out_k = -inv0 * sum_{j>=1} c_j out_{k-j}
        c = self.coeffs
        out = [ParamPolynomial.const(inv0)]
        for k in range(1, self.cap + 1):
            acc = dot([(c[j], out[k - j]) for j in range(1, k + 1)])
            out.append(acc.scaled(-inv0) if acc else _ZP)
        return EpsilonSeries(self.cap, out)

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
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            cs = str(c)
            if k == 0:
                parts.append(cs)
            else:
                epspow = "eps" if k == 1 else f"eps^{k}"
                if len(c.terms) > 1:
                    cs = f"({cs})"
                if cs == "1":
                    parts.append(epspow)
                elif cs == "-1":
                    parts.append(f"-{epspow}")
                else:
                    parts.append(f"{cs}*{epspow}")
        if not parts:
            return "0"
        out = parts[0]
        for part in parts[1:]:
            if part.startswith("-"):
                out += " - " + part[1:]
            else:
                out += " + " + part
        return out

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


def cauchy(a, b, j):
    """[eps^j] of the product of the series with coefficients a and b."""
    return dot([(a[i], b[j - i]) for i in range(j + 1)])


def square(a, j):
    """[eps^j] of the square of the series with coefficients a; each
    product a_i*a_{j-i} with i < j-i is made once, with weight 2."""
    pairs = [(a[i], a[j - i]) for i in range((j + 1) // 2)]
    weights = [2] * len(pairs)
    if j % 2 == 0:
        pairs.append((a[j // 2], a[j // 2]))
        weights.append(1)
    return dot(pairs, weights)


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

    def feed(self, *xs):
        """[eps^j] F, given x_ij after x_i0, ..., x_i(j-1) for every i."""
        j = self.order
        self.order += 1
        lists = self.lists
        for key, i in self.bases.items():
            lists[key].append(xs[i])
        for key, (a, b) in self.products.items():
            lists[key].append(square(lists[a], j) if a == b
                              else cauchy(lists[a], lists[b], j))
        pairs = []
        for n, exps, c in self.terms:
            if not any(exps):
                if n == j:
                    pairs.append((c, _ONE))
            elif n <= j:
                pairs.append((c, lists[exps][j - n]))
        return dot(pairs)


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
    at u0, by formal Newton iteration.

    ``G`` is an EpsilonSeries whose coefficients are polynomials in the
    unknown ``var``.  Write v for its valuation (its lowest nonvanishing
    eps-order) and H = G / eps^v.  ``u0`` must be a root of the
    leading-order equation H_0(u) = 0, else NonRationalRoot, and a simple
    one, with H_0'(u0) a nonzero constant, else DegenerateRoot.  Returns
    u(eps) with cap = G.cap - v, unique given u0.
    """
    v = G.valuation()
    if v is None:
        return EpsilonSeries.const(u0, G.cap)
    H = EpsilonSeries(G.cap - v, G.coeffs[v:])
    lead = H.coeffs[0]
    if lead.subs({var: u0}).as_constant() != ZERO:
        raise NonRationalRoot(
            f"{u0} is not a root of the leading-order equation")
    dlead = lead.diff(var).subs({var: u0}).as_constant()
    if dlead is None or not dlead:
        raise DegenerateRoot(
            "leading-order derivative vanishes at the seed root")
    Hp = H.diff(var)
    # A Newton step from u correct mod eps^(c//2+1) gives u correct mod
    # eps^(c+1), so each step works to its cap c only, with H, H' and u
    # truncated to it: caps 1, ..., K//2, K, from the smallest up.
    caps = [H.cap]
    while caps[-1] > 1:
        caps.append(caps[-1] // 2)
    u = EpsilonSeries.const(u0, 0)
    for cap in reversed(caps):
        u = u.extend(cap)
        gu = substitute(H.truncate(cap), {var: u})
        if not gu.is_zero():
            gpu = substitute(Hp.truncate(cap), {var: u})
            u = u - gu * gpu.inverse()
    residual = substitute(H, {var: u})
    if not residual.is_zero():
        raise DegenerateRoot("Newton iteration failed to converge")
    return u
