"""Truncated formal power series in eps with polynomial coefficients.

A series knows its truncation cap K and stores exactly K+1 polynomial
coefficients.  Mixed-cap arithmetic raises CapMismatch; callers equalize
caps explicitly with truncate()/extend().
"""

from ..errors import CapMismatch, DegenerateRoot, NonRationalRoot
from .poly import ParamPolynomial, _as_poly
from .rationals import GaussianRational, Rat, ZERO, ONE, rat_sqrt

_ZP = ParamPolynomial.zero()


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
    def zero(cls, cap):
        return cls(cap)

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

    @classmethod
    def eps(cls, cap):
        return cls.from_poly(ParamPolynomial.const(ONE), cap, order=1)

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

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (ParamPolynomial, GaussianRational, int)):
            p = _as_poly(other)
            return EpsilonSeries(self.cap, [c * p for c in self.coeffs])
        if not isinstance(other, EpsilonSeries):
            return NotImplemented
        self._check(other)
        out = [_ZP] * (self.cap + 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j in range(self.cap + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return EpsilonSeries(self.cap, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative series power; use inverse()")
        out = EpsilonSeries.const(ONE, self.cap)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

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
        out = [ParamPolynomial.const(inv0)]
        for k in range(1, self.cap + 1):
            acc = _ZP
            for j in range(1, k + 1):
                cj = self.coeffs[j]
                if not cj.is_zero():
                    acc = acc + cj * out[k - j]
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

    def rename(self, mapping):
        return self.map_coeffs(lambda c: c.rename(mapping))

    def subs_poly(self, bindings):
        """Polynomial-level substitution applied to every coefficient."""
        return self.map_coeffs(lambda c: c.subs(bindings))

    def uses_var(self, name):
        return any(name in c.compact().vars for c in self.coeffs)

    def __eq__(self, other):
        if isinstance(other, EpsilonSeries):
            return (self.cap == other.cap and
                    all(a == b for a, b in zip(self.coeffs, other.coeffs)))
        return NotImplemented

    def __hash__(self):
        return hash((self.cap, self.coeffs))

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
                if len(c.compact().terms) > 1:
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


def substitute(obj, bindings, cap=None):
    """Full composition with truncation.

    ``obj`` is a ParamPolynomial or EpsilonSeries; binding values may be
    GaussianRationals, ParamPolynomials or EpsilonSeries.  The result cap
    is the minimum of all participating caps (or ``cap`` when given).
    Unbound variables pass through.
    """
    caps = [cap] if cap is not None else []
    if isinstance(obj, EpsilonSeries):
        caps.append(obj.cap)
    for v in bindings.values():
        if isinstance(v, EpsilonSeries):
            caps.append(v.cap)
    if not caps:
        # purely polynomial composition; keep it exact at cap 0
        return EpsilonSeries.from_poly(obj.subs(bindings), 0)
    K = min(caps)

    series_bindings = {}
    for name, v in bindings.items():
        if isinstance(v, EpsilonSeries):
            series_bindings[name] = v.truncate(K)
        else:
            series_bindings[name] = _as_series_like(v, K)

    powcache = {}

    def subst_poly(p):
        p = p.compact()
        active = [n for n in p.vars if n in series_bindings]
        if not active:
            return EpsilonSeries.from_poly(p, K)
        out = EpsilonSeries.zero(K)
        idx = {n: p.vars.index(n) for n in active}
        for exps, residual in p.residuals(series_bindings):
            factor = EpsilonSeries.from_poly(residual, K)
            for name, i in idx.items():
                e = exps[i]
                if not e:
                    continue
                if e < 0:
                    raise ValueError(
                        f"negative exponent of bound variable {name}")
                key = (name, e)
                s = powcache.get(key)
                if s is None:
                    s = series_bindings[name] ** e
                    powcache[key] = s
                factor = factor * s
            out = out + factor
        return out

    if isinstance(obj, ParamPolynomial):
        return subst_poly(obj)
    out = EpsilonSeries.zero(K)
    for k in range(K + 1):
        c = obj.coeffs[k]
        if not c.is_zero():
            out = out + subst_poly(c).shift(k)
    return out


def series_solve_root(G, var, u0):
    """Formal Newton iteration for G(u(eps), eps) = 0 mod eps^(cap+1).

    ``G`` is an EpsilonSeries whose coefficients are polynomials in the
    unknown ``var`` (rational coefficients in that unknown).  ``u0`` must
    be a simple root of the leading-order (lowest nonvanishing eps order)
    equation.  Returns u(eps) with cap = G.cap - valuation(G).
    """
    if isinstance(u0, int):
        u0 = GaussianRational(u0)
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
    Hp = H.map_coeffs(lambda c: c.diff(var))
    u = EpsilonSeries.const(u0, H.cap)
    # Newton doubles the number of correct orders per step.
    steps = 0
    need = H.cap + 1
    while (1 << steps) < need + 1:
        steps += 1
    for _ in range(max(steps, 1)):
        gu = substitute(H, {var: u})
        if gu.is_zero():
            break
        gpu = substitute(Hp, {var: u})
        u = u - gu * gpu.inverse()
    residual = substitute(H, {var: u})
    if not residual.is_zero():
        raise DegenerateRoot("Newton iteration failed to converge")
    return u


def series_sqrt(s):
    """Square root of a series whose leading constant is a rational square."""
    c0 = s.coeffs[0].as_constant()
    if c0 is None or not c0.is_real:
        raise NonRationalRoot("series sqrt needs a rational constant lead")
    r0 = rat_sqrt(c0.re)
    if r0 is None or not r0:
        raise NonRationalRoot(f"{c0} is not a positive rational square")
    inv2r0 = GaussianRational(Rat(1, 2) / r0)
    out = [ParamPolynomial.const(GaussianRational(r0))]
    for k in range(1, s.cap + 1):
        acc = s.coeffs[k]
        for j in range(1, k):
            acc = acc - out[j] * out[k - j]
        out.append(acc * inv2r0)
    return EpsilonSeries(s.cap, out)
