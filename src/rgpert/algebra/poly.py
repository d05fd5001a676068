"""Sparse multivariate polynomials over Gaussian rationals.

Variables are named strings.  Each polynomial carries its own ordered
variable tuple; arithmetic on mismatched tuples unions them.  Exponents
are integers and may be negative (Laurent monomials in the polar phase
variable), although most of the engine only ever produces ordinary
polynomials.

Coefficients are stored fraction-free, as in FLINT's ``fmpq_poly``: every
term holds a Gaussian-integer numerator ``(re, im)`` of Python ints, and
the polynomial holds one positive common denominator ``den``.  The inner
loops of multiplication and addition therefore do integer arithmetic
only, and each result is normalised with one gcd sweep.  The form is
canonical (no zero numerators, ``gcd(den, all numerators) == 1``, and the
zero polynomial has ``den == 1``), so equal polynomials over the same
variables have equal ``terms`` and ``den``.  ``GaussianRational`` remains
the scalar type at the interface: constructors, ``items()``, rendering
and JSON.

Term order is graded lexicographic with the fixed variable precedence

    t < A < B < Ar < Br < R < (everything else, alphabetically)

which makes every text rendering deterministic.
"""

from math import gcd, lcm
from operator import add

from .rationals import GaussianRational, ZERO, Rat

_CORE_PRECEDENCE = {"t": 0, "A": 1, "B": 2, "Ar": 3, "Br": 4, "R": 5}


def var_sort_key(name):
    if name in _CORE_PRECEDENCE:
        return (0, _CORE_PRECEDENCE[name], "")
    return (1, 0, name)


def order_vars(names):
    return tuple(sorted(set(names), key=var_sort_key))


class ParamPolynomial:
    """Immutable sparse polynomial: exponent tuple -> (re, im) over den.

    The coefficient of the monomial with exponents ``e`` is
    ``(re + im*i) / den`` where ``terms[e] == (re, im)``.
    """

    __slots__ = ("vars", "terms", "den")

    def __init__(self, vars=(), terms=None):
        """Polynomial from a dict exponent tuple -> scalar coefficient.

        Scalars are GaussianRationals, rationals or ints; zeros are
        dropped.
        """
        self.vars = tuple(vars)
        parts = [(e, _parts(c)) for e, c in terms.items() if c] \
            if terms else []
        den = lcm(*(d for _, (_, _, d) in parts)) if parts else 1
        # Each scalar is in lowest terms, so over the lcm of their
        # denominators the numerators share no factor with it.
        self.terms = {e: (re * (den // d), im * (den // d))
                      for e, (re, im, d) in parts}
        self.den = den

    # -- constructors -----------------------------------------------------

    @classmethod
    def _raw(cls, vars, terms, den=1):
        obj = object.__new__(cls)
        obj.vars = vars
        obj.terms = terms
        obj.den = den
        return obj

    @classmethod
    def zero(cls):
        return _ZERO_POLY

    @classmethod
    def const(cls, c):
        if not c:
            return _ZERO_POLY
        re, im, den = _parts(c)
        return cls._raw((), {(): (re, im)}, den)

    @classmethod
    def var(cls, name, exp=1, coeff=1):
        if not coeff:
            return _ZERO_POLY
        if exp == 0:
            return cls.const(coeff)
        re, im, den = _parts(coeff)
        return cls._raw((name,), {(exp,): (re, im)}, den)

    @classmethod
    def monomial(cls, coeff, **exps):
        """monomial(gr(1,2), A=2, t=1) == (1+2i) * A^2 * t."""
        if not coeff:
            return _ZERO_POLY
        names = order_vars(n for n, e in exps.items() if e)
        key = tuple(exps[n] for n in names)
        re, im, den = _parts(coeff)
        return cls._raw(names, {key: (re, im)}, den)

    # -- alignment --------------------------------------------------------

    def reindexed(self, vars):
        """Same polynomial over the (super)set ``vars``."""
        if vars == self.vars:
            return self
        pos = {n: i for i, n in enumerate(vars)}
        width = len(vars)
        own = [pos[n] for n in self.vars]
        terms = {}
        for exps, c in self.terms.items():
            key = [0] * width
            for i, e in zip(own, exps):
                key[i] = e
            terms[tuple(key)] = c
        return ParamPolynomial._raw(tuple(vars), terms, self.den)

    def _aligned(self, other):
        if self.vars == other.vars:
            return self, other
        union = order_vars(self.vars + other.vars)
        return self.reindexed(union), other.reindexed(union)

    def compact(self):
        """Drop variables that no longer occur."""
        if not self.terms:
            return _ZERO_POLY
        used = [i for i in range(len(self.vars))
                if any(exps[i] for exps in self.terms)]
        if len(used) == len(self.vars):
            return self
        vars = tuple(self.vars[i] for i in used)
        # only all-zero exponent columns go, so keys stay distinct
        terms = {tuple(exps[i] for i in used): c
                 for exps, c in self.terms.items()}
        return ParamPolynomial._raw(vars, terms, self.den)

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._aligned(other)
        if not a.terms:
            return b
        if not b.terms:
            return a
        da, db = a.den, b.den
        if da == db:
            terms = dict(a.terms)
            fb = 1
        else:
            g = gcd(da, db)
            fa, fb = db // g, da // g
            da *= fa
            terms = {e: (re * fa, im * fa)
                     for e, (re, im) in a.terms.items()}
        get = terms.get
        for exps, (re, im) in b.terms.items():
            if fb != 1:
                re *= fb
                im *= fb
            s = get(exps)
            if s is None:
                terms[exps] = (re, im)
            else:
                re += s[0]
                im += s[1]
                if re or im:
                    terms[exps] = (re, im)
                else:
                    del terms[exps]
        return _normalized(a.vars, terms, da)

    __radd__ = __add__

    def __neg__(self):
        return ParamPolynomial._raw(
            self.vars, {e: (-re, -im) for e, (re, im) in self.terms.items()},
            self.den)

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is GaussianRational:
            return self.scaled(other)
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._aligned(other)
        terms = {}
        get = terms.get
        bt = list(b.terms.items())
        for ea, (ar, ai) in a.terms.items():
            for eb, (br, bi) in bt:
                key = tuple(map(add, ea, eb))
                re = ar * br - ai * bi
                im = ar * bi + ai * br
                s = get(key)
                if s is None:
                    terms[key] = (re, im)
                else:
                    re += s[0]
                    im += s[1]
                    if re or im:
                        terms[key] = (re, im)
                    else:
                        del terms[key]
        return _normalized(a.vars, terms, a.den * b.den)

    __rmul__ = __mul__

    def scaled(self, c):
        if not c:
            return _ZERO_POLY
        cr, ci, cd = _parts(c)
        if ci:
            terms = {e: (re * cr - im * ci, re * ci + im * cr)
                     for e, (re, im) in self.terms.items()}
        else:
            terms = {e: (re * cr, im * cr)
                     for e, (re, im) in self.terms.items()}
        return _normalized(self.vars, terms, self.den * cd)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = _ONE_POLY
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # -- calculus in one variable ----------------------------------------

    def diff(self, name):
        if name not in self.vars:
            return _ZERO_POLY
        i = self.vars.index(name)
        terms = {}
        for exps, (re, im) in self.terms.items():
            e = exps[i]
            if e:
                terms[exps[:i] + (e - 1,) + exps[i + 1:]] = (re * e, im * e)
        return _normalized(self.vars, terms, self.den)

    def integrate(self, name):
        """Antiderivative in ``name`` with zero constant term."""
        p = self if name in self.vars else self.reindexed(
            order_vars(self.vars + (name,)))
        i = p.vars.index(name)
        scale = 1
        for exps in p.terms:
            if exps[i] == -1:
                raise ValueError("cannot integrate 1/x term")
            scale = lcm(scale, exps[i] + 1)
        terms = {}
        for exps, (re, im) in p.terms.items():
            e = exps[i] + 1
            f = scale // e
            terms[exps[:i] + (e,) + exps[i + 1:]] = (re * f, im * f)
        return _normalized(p.vars, terms, p.den * scale)

    # -- substitution and extraction -------------------------------------

    def subs(self, bindings):
        """Substitute variables by polynomials/GaussianRationals/ints.

        A bound variable with a negative exponent raises ValueError.
        """
        bindings = {n: _as_poly(v) for n, v in bindings.items()
                    if n in self.vars}
        if not bindings:
            return self
        idx = {n: self.vars.index(n) for n in bindings}
        out = _ZERO_POLY
        powcache = {}
        for exps, factor in self.residuals(bindings):
            for name, i in idx.items():
                e = exps[i]
                if not e:
                    continue
                key = (name, e)
                p = powcache.get(key)
                if p is None:
                    p = bindings[name] ** e
                    powcache[key] = p
                factor = factor * p
            out = out + factor
        return out.compact()

    def residuals(self, names):
        """(exps, residual) for every term, where the residual is that term
        with the variables in ``names`` dropped: its coefficient times its
        monomial in the remaining variables."""
        keep = [i for i, n in enumerate(self.vars) if n not in names]
        keep_vars = tuple(self.vars[i] for i in keep)
        den = self.den
        for exps, c in self.terms.items():
            yield exps, _normalized(
                keep_vars, {tuple(exps[i] for i in keep): c}, den)

    def rename(self, mapping):
        """Rename variables (bijective on the occurring names)."""
        vars = tuple(mapping.get(n, n) for n in self.vars)
        renamed = ParamPolynomial._raw(vars, dict(self.terms), self.den)
        order = order_vars(vars)
        return renamed.reindexed(order) if vars != order else renamed

    def coefficient(self, name, power):
        """Polynomial coefficient of name**power (name removed)."""
        if name not in self.vars:
            return self if power == 0 else _ZERO_POLY
        i = self.vars.index(name)
        rest = self.vars[:i] + self.vars[i + 1:]
        terms = {exps[:i] + exps[i + 1:]: c
                 for exps, c in self.terms.items() if exps[i] == power}
        return _normalized(rest, terms, self.den).compact()

    def exponents(self, name):
        """The distinct exponents of ``name`` over the terms."""
        if name not in self.vars:
            return {0} if self.terms else set()
        i = self.vars.index(name)
        return {e[i] for e in self.terms}

    def degree_in(self, name):
        return max(self.exponents(name), default=0)

    def min_degree_in(self, name):
        return min(self.exponents(name), default=0)

    def divide_by_var(self, name, power=1):
        """Exact division by name**power; every term must carry it."""
        if self.is_zero():
            return self
        p = self if name in self.vars else None
        if p is None or p.min_degree_in(name) < power:
            from ..errors import NotDivisible
            raise NotDivisible(f"not divisible by {name}^{power}")
        i = p.vars.index(name)
        terms = {e[:i] + (e[i] - power,) + e[i + 1:]: c
                 for e, c in p.terms.items()}
        return ParamPolynomial._raw(p.vars, terms, p.den).compact()

    def conjugated(self):
        """Conjugate every coefficient (variables are treated as real)."""
        return ParamPolynomial._raw(
            self.vars, {e: (re, -im) for e, (re, im) in self.terms.items()},
            self.den)

    def items(self):
        """(exponent tuple, GaussianRational coefficient) for every term."""
        den = self.den
        return [(exps, _scalar(re, im, den))
                for exps, (re, im) in self.terms.items()]

    def as_constant(self):
        """The value of a constant polynomial, or None."""
        p = self.compact()
        if not p.terms:
            return ZERO
        if p.vars:
            return None
        return _scalar(*p.terms[()], p.den)

    # -- predicates and hashing ------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.compact(), other.compact()
        return a.vars == b.vars and a.den == b.den and a.terms == b.terms

    def __hash__(self):
        p = self.compact()
        return hash((p.vars, p.den, frozenset(p.terms.items())))

    # -- rendering --------------------------------------------------------

    def sorted_terms(self):
        """Terms as in items(), in descending graded-lex order."""
        def key(item):
            exps = item[0]
            return (sum(exps), exps)
        return sorted(self.items(), key=key, reverse=True)

    def __str__(self):
        p = self.compact()
        if not p.terms:
            return "0"
        parts = []
        for exps, c in p.sorted_terms():
            mono = "*".join(
                (n if e == 1 else f"{n}^{e}")
                for n, e in zip(p.vars, exps) if e)
            cs = str(c)
            if mono:
                if cs == "1":
                    body = mono
                elif cs == "-1":
                    body = f"-{mono}"
                else:
                    body = f"{cs}*{mono}"
            else:
                body = cs
            parts.append(body)
        out = parts[0]
        for part in parts[1:]:
            if part.startswith("-"):
                out += " - " + part[1:]
            else:
                out += " + " + part
        return out

    def __repr__(self):
        return f"<ParamPolynomial {self}>"

    def to_json(self):
        p = self.compact()
        return {
            "vars": list(p.vars),
            "terms": [[list(exps), *c.json_parts()]
                      for exps, c in p.sorted_terms()],
        }

    @classmethod
    def from_json(cls, data):
        vars = tuple(data["vars"])
        terms = {}
        for exps, re_s, im_s in data["terms"]:
            rn, rd = re_s.split("/")
            im, imd = im_s.split("/")
            terms[tuple(exps)] = GaussianRational(
                Rat(int(rn), int(rd)), Rat(int(im), int(imd)))
        return cls(vars, terms).compact()


def _parts(c):
    """(re, im, den) with c == (re + im*i)/den, den > 0, in lowest terms."""
    if isinstance(c, int):
        return c, 0, 1
    if type(c) is not GaussianRational:
        c = GaussianRational(c)
    re, im = c.re, c.im
    rd, idn = int(re.denominator), int(im.denominator)
    den = lcm(rd, idn)
    return (int(re.numerator) * (den // rd),
            int(im.numerator) * (den // idn), den)


def _scalar(re, im, den):
    return GaussianRational(Rat(re, den), Rat(im, den))


def _normalized(vars, terms, den):
    """Canonical polynomial from nonzero numerators over ``den``."""
    if not terms:
        return ParamPolynomial._raw(vars, terms, 1)
    if den != 1:
        g = den
        for re, im in terms.values():
            g = gcd(g, re, im)
            if g == 1:
                break
        else:
            den //= g
            terms = {e: (re // g, im // g) for e, (re, im) in terms.items()}
    return ParamPolynomial._raw(vars, terms, den)


def _as_poly(x):
    if type(x) is ParamPolynomial:
        return x
    if isinstance(x, (int, GaussianRational)):
        return ParamPolynomial.const(x)
    if type(x) is type(Rat(0)):
        return ParamPolynomial.const(GaussianRational(x))
    return NotImplemented


_ZERO_POLY = ParamPolynomial._raw((), {}, 1)
_ONE_POLY = ParamPolynomial._raw((), {(): (1, 0)}, 1)


def P(name):
    """Variable shorthand: P('A') is the polynomial A."""
    return ParamPolynomial.var(name)
