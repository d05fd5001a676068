"""Sparse multivariate polynomials over Gaussian rationals.

Variables are named strings.  Exponents are integers and may be negative
(Laurent monomials in the harmonic and phase variables).

Monomials are packed exponent vectors (Monagan and Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors",
CASC 2007).  A module-level registry gives every variable name a fixed
field of ``W`` bits the first time it is seen, and ``prod x_i^e_i`` is
the int ``sum(e_i << W*slot(x_i))``.  The fields are signed and
unbiased, so the map is linear: the key of a product is the sum of the
keys, the empty monomial is 0, and registering a name never changes an
existing key.  Every polynomial shares the one layout, so no operation
aligns variables.  ``bound`` bounds the largest ``|e|`` of a
polynomial; an operation whose exponents would reach ``2^(W-1)`` raises
BudgetExceeded, so a field never wraps into its neighbour.

Coefficients are stored fraction-free, as in FLINT's ``fmpq_poly``: every
term holds a Gaussian-integer numerator ``(re, im)`` of Python ints, and
the polynomial holds one positive common denominator ``den``.  The inner
loops of multiplication and addition therefore do integer arithmetic
only, and each result is normalised with one gcd sweep.  Products run
on one multiply-accumulate kernel, ``dot``: a sum of products, such as a
Cauchy sum or a Lie derivative, goes into one term table over one
denominator, and a lone ``a * b`` is its one-pair case; ``subs`` is
one call over the parts of one split.  ``term_map`` scales the terms
by a scalar per exponent of one variable and sorts them into several
results in one pass, with no split and no product.  The form is
canonical (no zero numerators, ``gcd(den, all numerators) == 1``, and the
zero polynomial has ``den == 1``), so equal polynomials have equal
``terms`` and ``den``.  ``GaussianRational`` remains the scalar type at
the interface: constructors, ``items()`` and ``as_constant``; text and
JSON are formatted from the numerators (``rationals.text``).

At that interface a monomial is an exponent tuple over ``vars``, the
variables that occur, in the fixed precedence

    t < A < B < Ar < Br < R < (everything else, alphabetically)

which also makes every text rendering deterministic (graded lex).
"""

from bisect import bisect_left, bisect_right
from itertools import repeat
from math import gcd, lcm

from ..errors import BudgetExceeded
from .rationals import (GaussianRational, ZERO, Rat, _parts, ratio,
                        signed_sum, text, times)

_CORE_PRECEDENCE = {"t": 0, "A": 1, "B": 2, "Ar": 3, "Br": 4, "R": 5}

#: Bits per exponent field of a packed monomial; every |e| stays below
#: 2^(W-1).
W = 16
_MASK = (1 << W) - 1
_HALF = 1 << (W - 1)

_SLOT = {}          # name -> field index
_NAMES = []         # field index -> name
_HALF_UPTO = []     # field index i -> sum of _HALF << W*j over j <= i


def var_sort_key(name):
    if name in _CORE_PRECEDENCE:
        return (0, _CORE_PRECEDENCE[name], "")
    return (1, 0, name)


def order_vars(names):
    return tuple(sorted(set(names), key=var_sort_key))


def _slot(name):
    """The field index of ``name``, registered on first sight."""
    i = _SLOT.get(name)
    if i is None:
        i = len(_NAMES)
        _SLOT[name] = i
        _NAMES.append(name)
        _HALF_UPTO.append((_HALF_UPTO[-1] if i else 0) + (_HALF << W * i))
    return i


def _reader(name):
    """(shift, offset) that read the field of ``name`` from a key as
    ``((key + offset) >> shift & _MASK) - _HALF``: the offset lifts every
    field up to it to a non-negative digit, so no borrow reaches it."""
    i = _slot(name)
    return W * i, _HALF_UPTO[i]


def _checked(bound):
    if bound >= _HALF:
        raise BudgetExceeded(
            f"exponent bound {bound} exceeds the budget |e| < {_HALF} of "
            f"a {W}-bit packed monomial field")
    return bound


def _pack(names, exps):
    return sum(e << W * _slot(n) for n, e in zip(names, exps))


def _occurring(terms):
    """The variables with a nonzero exponent in some key, in precedence
    order."""
    if not terms:
        return ()
    # no field lies above the top bit of the largest |key|
    top = min(max(map(abs, terms)).bit_length() // W, len(_NAMES) - 1)
    half = _HALF_UPTO[top]
    nonzero = 0
    for key in terms:
        nonzero |= (key + half) ^ half
    return order_vars(_NAMES[i] for i in range(top + 1)
                      if nonzero >> W * i & _MASK)


def _remeasured(*factors):
    """The largest |e| that a product of ``factors`` can have, from their
    exponent ranges field by field.  Stored bounds only grow, and may
    exceed the exponents they bound; they are measured again before a
    field overflow is reported."""
    half, n = _HALF_UPTO[-1], len(_NAMES)
    lo, hi = [0] * n, [0] * n
    for p in factors:
        exps = [[((key + half) >> W * i & _MASK) - _HALF for i in range(n)]
                for key in p.terms]
        for i, col in enumerate(zip(*exps)):
            lo[i] += min(col)
            hi[i] += max(col)
    return _checked(max(map(abs, lo + hi)))


class ParamPolynomial:
    """Immutable sparse polynomial: packed monomial -> (re, im) over den.

    The coefficient of the monomial with key ``k`` is
    ``(re + im*i) / den`` where ``terms[k] == (re, im)``.  ``_groups``,
    set by the first banded ``dot`` that reads the polynomial, keeps its
    terms grouped by the banded exponent.
    """

    __slots__ = ("terms", "den", "bound", "_groups")

    # -- constructors -----------------------------------------------------

    @classmethod
    def _raw(cls, terms, den=1, bound=0):
        obj = object.__new__(cls)
        obj.terms = terms
        obj.den = den
        obj.bound = bound
        return obj

    @classmethod
    def zero(cls):
        return _ZERO_POLY

    @classmethod
    def const(cls, c):
        if not c:
            return _ZERO_POLY
        re, im, den = _parts(c)
        return cls._raw({0: (re, im)}, den)

    @classmethod
    def var(cls, name, exp=1, coeff=1):
        if not coeff:
            return _ZERO_POLY
        if exp == 0:
            return cls.const(coeff)
        re, im, den = _parts(coeff)
        return cls._raw({exp << W * _slot(name): (re, im)}, den,
                        _checked(abs(exp)))

    @classmethod
    def monomial(cls, coeff, **exps):
        """monomial(gr(1,2), A=2, t=1) == (1+2i) * A^2 * t."""
        if not coeff:
            return _ZERO_POLY
        re, im, den = _parts(coeff)
        return cls._raw({_pack(exps, exps.values()): (re, im)}, den,
                        _checked(max(map(abs, exps.values()), default=0)))

    # -- layout at the edge -----------------------------------------------

    @property
    def vars(self):
        """The variables that ``items()`` unpacks: those that occur, in
        precedence order."""
        return _occurring(self.terms)

    def _shifted_bound(self, name, step):
        """The bound after adding ``step`` to the exponents of ``name``."""
        bound = self.bound + abs(step)
        if bound < _HALF:
            return bound
        return _remeasured(self, ParamPolynomial.var(name, step))

    def _unpacker(self):
        """key -> exponent tuple over ``vars``."""
        shifts, half = [W * _slot(n) for n in self.vars], _HALF_UPTO[-1]
        return lambda key: tuple(((key + half) >> s & _MASK) - _HALF
                                 for s in shifts)

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self, other
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
        for key, (re, im) in b.terms.items():
            if fb != 1:
                re *= fb
                im *= fb
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
        return _normalized(terms, da, max(a.bound, b.bound))

    __radd__ = __add__

    def __neg__(self):
        return ParamPolynomial._raw(
            {e: (-re, -im) for e, (re, im) in self.terms.items()},
            self.den, self.bound)

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
        return dot(((self, other),))

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
        return _normalized(terms, self.den * cd, self.bound)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = _ONE_POLY
        base = self
        while n:
            if n & 1:
                out = base if out is _ONE_POLY else out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # -- calculus in one variable ----------------------------------------

    def diff(self, name):
        shift, half = _reader(name)
        unit = 1 << shift
        terms = {}
        for key, (re, im) in self.terms.items():
            e = ((key + half) >> shift & _MASK) - _HALF
            if e:
                terms[key - unit] = (re * e, im * e)
        return _normalized(terms, self.den, self._shifted_bound(name, -1))

    def integrate(self, name):
        """Antiderivative in ``name`` with zero constant term."""
        shift, half = _reader(name)
        unit = 1 << shift
        exps = [((key + half) >> shift & _MASK) - _HALF for key in self.terms]
        scale = 1
        for e in exps:
            if e == -1:
                raise ValueError("cannot integrate 1/x term")
            scale = lcm(scale, e + 1)
        terms = {}
        for e, (key, (re, im)) in zip(exps, self.terms.items()):
            f = scale // (e + 1)
            terms[key + unit] = (re * f, im * f)
        return _normalized(terms, self.den * scale,
                           self._shifted_bound(name, 1))

    def term_map(self, name, rule, steps=(0,)):
        """``len(steps)`` polynomials made in one pass over the terms, by
        the exponent e of ``name`` in each.  ``rule(e)`` is called once
        per distinct e, in increasing order.  It gives None, which drops
        the terms, or ``(i, re, im, d)`` with integers and d > 0: each
        term times (re + im*i)/d, with e moved by ``steps[i]``, goes to
        polynomial i.  Each part moves all its terms alike, so no two of
        them meet."""
        shift, half = _reader(name)
        exps = [((key + half) >> shift & _MASK) - _HALF for key in self.terms]
        rules, scale = {}, [1] * len(steps)
        for e in sorted(set(exps)):
            r = rule(e)
            if r is not None:
                rules[e] = r
                scale[r[0]] = lcm(scale[r[0]], r[3])
        parts = [{} for _ in steps]
        moves = {}
        for e, (i, cr, ci, d) in rules.items():
            f = scale[i] // d
            moves[e] = parts[i], steps[i] << shift, cr * f, ci * f
        for e, (key, (re, im)) in zip(exps, self.terms.items()):
            move = moves.get(e)
            if move is not None:
                out, off, cr, ci = move
                out[key + off] = (re * cr - im * ci, re * ci + im * cr)
        return [_normalized(terms, self.den * s,
                            self._shifted_bound(name, step) if step
                            else self.bound)
                for terms, s, step in zip(parts, scale, steps)]

    # -- substitution and extraction -------------------------------------

    def subs(self, bindings):
        """Substitute variables by polynomials/GaussianRationals/ints.

        A bound variable with a negative exponent raises ValueError.

        One ``dot`` over the parts of ``split(bindings)``, each times the
        product of the bound values' powers for its exponent tuple; each
        power is made once.
        """
        parts = self.split(bindings)
        if not any(map(any, parts)):
            return self
        values = [_as_poly(v) for v in bindings.values()]
        powers = {}

        def image(exps):
            out = _ONE_POLY
            for i, e in enumerate(exps):
                if e:
                    p = powers.get((i, e))
                    if p is None:
                        p = powers[i, e] = values[i] ** e
                    out = p if out is _ONE_POLY else out * p
            return out

        return dot([(part, image(exps)) for exps, part in parts.items()])

    def split(self, names):
        """{exponent tuple over ``names``: polynomial in the other
        variables}, the terms summed per tuple, in order of first
        occurrence."""
        readers = [_reader(n) for n in names]
        groups = {}
        for key, c in self.terms.items():
            exps = tuple(((key + half) >> shift & _MASK) - _HALF
                         for shift, half in readers)
            rest = key - sum(e << shift
                             for e, (shift, _) in zip(exps, readers))
            groups.setdefault(exps, {})[rest] = c
        return {exps: _normalized(terms, self.den, self.bound)
                for exps, terms in groups.items()}

    def rename(self, mapping):
        """Rename variables (bijective on the occurring names)."""
        vars = self.vars
        moves = [(_reader(old), W * _slot(new))
                 for old, new in mapping.items() if old != new and old in vars]
        terms = {}
        for key, c in self.terms.items():
            new = key
            for (shift, half), to in moves:
                e = ((key + half) >> shift & _MASK) - _HALF
                new += (e << to) - (e << shift)
            terms[new] = c
        return ParamPolynomial._raw(terms, self.den, self.bound)

    def coefficient(self, name, power):
        """Polynomial coefficient of name**power (name removed)."""
        shift, half = _reader(name)
        off = power << shift
        terms = {key - off: c for key, c in self.terms.items()
                 if ((key + half) >> shift & _MASK) - _HALF == power}
        return _normalized(terms, self.den, self.bound)

    def exponents(self, name):
        """The distinct exponents of ``name`` over the terms."""
        shift, half = _reader(name)
        return {((key + half) >> shift & _MASK) - _HALF for key in self.terms}

    def degree_in(self, name):
        return max(self.exponents(name), default=0)

    def conjugated(self):
        """Conjugate every coefficient (variables are treated as real)."""
        return ParamPolynomial._raw(
            {e: (re, -im) for e, (re, im) in self.terms.items()},
            self.den, self.bound)

    def as_constant(self):
        """The value of a constant polynomial, or None."""
        if not self.terms:
            return ZERO
        c = self.terms.get(0)
        if c is None or len(self.terms) > 1:
            return None
        return _scalar(*c, self.den)

    # -- predicates and hashing ------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.den == other.den and self.terms == other.terms

    def __hash__(self):
        return hash((self.den, frozenset(self.terms.items())))

    # -- rendering --------------------------------------------------------

    def sorted_terms(self):
        """(exponent tuple over ``vars``, (re, im)) for every term, the
        numerators over ``den``, in descending graded-lex order."""
        unpack = self._unpacker()
        return sorted(((unpack(key), c) for key, c in self.terms.items()),
                      key=lambda term: (sum(term[0]), term[0]), reverse=True)

    def __str__(self):
        vars, den = self.vars, self.den
        return signed_sum([
            times(text(re, im, den), "*".join(
                n if e == 1 else f"{n}^{e}" for n, e in zip(vars, exps) if e))
            for exps, (re, im) in self.sorted_terms()])

    def __repr__(self):
        return f"<ParamPolynomial {self}>"

    def to_json(self):
        den = self.den
        return {
            "vars": list(self.vars),
            "terms": [[list(exps), ratio(re, den), ratio(im, den)]
                      for exps, (re, im) in self.sorted_terms()],
        }


def _scalar(re, im, den):
    return GaussianRational(Rat(re, den), Rat(im, den))


def _normalized(terms, den, bound):
    """Canonical polynomial from nonzero numerators over ``den``."""
    if not terms:
        return ParamPolynomial._raw(terms, 1, 0)
    if den != 1:
        g = den
        for re, im in terms.values():
            g = gcd(g, re, im)
            if g == 1:
                break
        else:
            den //= g
            terms = {e: (re // g, im // g) for e, (re, im) in terms.items()}
    return ParamPolynomial._raw(terms, den, bound)


def dot(pairs, weights=None, band=None):
    """sum(w * a * b) over the polynomial ``pairs`` (a, b) and the integer
    ``weights`` w, all 1 by default: the multiply-accumulate kernel of
    ``*`` and of every sum of products.

    The products go into one dict over one denominator, the lcm of the
    ``a.den * b.den``, with each a's numerators scaled once per pair; no
    polynomial is built per product, and one gcd sweep normalises the
    sum.  A pair with a zero operand or weight is skipped.  Each pair's
    exponent bound is checked as a lone product's is, so BudgetExceeded
    is raised exactly when one of the products alone would raise it.
    Terms land in the order of the nested loops, pair by pair, a's terms
    outside b's: a one-pair call lists those of ``a * b``.

    ``band = (name, w)`` forms only the products whose exponent n of
    ``name`` has |n| <= w, which gives the sum with its terms past the
    band dropped.  Each operand's terms are grouped by n once, and the
    groups are kept on it; the loop then runs over the group pairs that
    land in the band.  Grouping costs more than it saves on the few
    terms of most calls, so a call with no band keeps the plain loop.
    """
    live, den, bound = [], 1, 0
    for (a, b), w in zip(pairs, repeat(1) if weights is None else weights):
        if a.terms and b.terms and w:
            d = a.den * b.den
            den = lcm(den, d)
            pb = a.bound + b.bound
            if pb >= _HALF:
                pb = _remeasured(a, b)
            if pb > bound:
                bound = pb
            live.append((a.terms, b.terms, d, w) if band is None
                        else (a, b, d, w))
    if band is not None:
        live = _band_blocks(live, *band)
    terms = {}
    get = terms.get
    for at, bt, d, w in live:
        f = den // d * w
        bt = list(bt.items())
        for ka, (ar, ai) in at.items():
            if f != 1:
                ar *= f
                ai *= f
            for kb, (br, bi) in bt:
                key = ka + kb
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
    return _normalized(terms, den, bound)


def _band_blocks(live, name, width):
    """The pairs ``live`` of dot as pairs of term groups by the exponent
    of ``name``, only those whose products land in [-width, width]."""
    shift, half = _reader(name)
    blocks = []
    for a, b, d, w in live:
        exps_b, groups_b = _grouped(b, shift, half)
        for na, at in zip(*_grouped(a, shift, half)):
            lo = bisect_left(exps_b, -width - na)
            hi = bisect_right(exps_b, width - na)
            blocks += [(at, bt, d, w) for bt in groups_b[lo:hi]]
    return blocks


def _grouped(p, shift, half):
    """(sorted exponents, the terms of each) of the field at ``shift``,
    made once per polynomial and field and kept on it."""
    g = getattr(p, "_groups", None)
    if g is None or g[0] != shift:
        by = {}
        for key, c in p.terms.items():
            e = ((key + half) >> shift & _MASK) - _HALF
            group = by.get(e)
            if group is None:
                by[e] = {key: c}
            else:
                group[key] = c
        exps = sorted(by)
        g = p._groups = shift, exps, [by[e] for e in exps]
    return g[1:]


def _as_poly(x):
    if type(x) is ParamPolynomial:
        return x
    if isinstance(x, (int, GaussianRational)):
        return ParamPolynomial.const(x)
    if type(x) is type(Rat(0)):
        return ParamPolynomial.const(GaussianRational(x))
    return NotImplemented


# the engine's own variables take the first fields
for _name in _CORE_PRECEDENCE:
    _slot(_name)

_ZERO_POLY = ParamPolynomial._raw({}, 1)
_ONE_POLY = ParamPolynomial._raw({0: (1, 0)}, 1)


def P(name):
    """Variable shorthand: P('A') is the polynomial A."""
    return ParamPolynomial.var(name)
