"""The admissible potential class and its evaluation on harmonic tables.

A potential is a finite table C[(k, l, m, n)] -> coefficient, meaning

    V = sum C_klmn * eps^n * e^{k i t} * y^l * (dy/dt)^m,

with coefficients that are polynomials in the declared symbolic
parameters only.  The DSL (see parse_potential) evaluates to one
polynomial in E = e^{it} (Laurent), y, y', eps and the parameters, which
is split into this table.
"""

import re as _re

from .algebra import (GaussianRational, ParamPolynomial, EpsilonSeries,
                      Composition, I, Rat, dot, grq)
from .errors import ParseError, NotInClass, TrivialLinear, BudgetExceeded

_ZP = ParamPolynomial.zero()

#: Laurent variable standing for e^{it} in a harmonic table.
HARMONIC = "z"

#: Names a parameter may not take.  The engine's variables (time, the
#: amplitudes A, B and their renormalized forms Ar, Br, the polar radius
#: R and phase w, the harmonic variable) would silently be identified
#: with the parameter; the DSL's own words are read before parameter
#: names, so the parameter would silently vanish.
RESERVED_NAMES = ("t", "A", "B", "Ar", "Br", "R", "w", HARMONIC,
                  "E", "eps", "i", "y", "cos", "sin")

# DSL variables that index the quartet table (k, l, m, n).
_QUARTET = ("E", "y", "y'", "eps")

#: Largest total degree l + m in (y, y') that the symbolic solvers take:
#: 12x the degree 5 of the largest potential that the tests, demos,
#: README and benchmark expand.  The lists of powers and products of
#: Potential.composition grow with it.
MAX_DEGREE = 64


class Potential:
    """Validated finite quartet table of an admissible potential."""

    __slots__ = ("coeffs", "params")

    def __init__(self, coeffs, params=()):
        self.params = tuple(params)
        clean = {}
        for key, c in coeffs.items():
            if isinstance(c, (int, GaussianRational)):
                c = ParamPolynomial.const(c)
            if not c.is_zero():
                clean[key] = c
        self.coeffs = clean
        for name in self.params:
            if name in RESERVED_NAMES:
                raise NotInClass(f"parameter name {name!r} is reserved for "
                                 "an engine variable")
        for (k, l, m, n) in self.coeffs:
            if l < 0 or m < 0 or n < 0:
                raise NotInClass("negative power of y, y' or eps")
        if not any(l + m >= 1 and abs(k) >= max(2 - l - m, 0)
                   for (k, l, m, n) in self.coeffs):
            raise TrivialLinear(
                "potential reduces to the removable linear/driving form")

    def is_conjugation_symmetric(self):
        """C_klmn == conj(C_{-k,l,m,n}) with parameters treated as real."""
        for (k, l, m, n), c in self.coeffs.items():
            mirror = self.coeffs.get((-k, l, m, n), _ZP)
            if mirror.conjugated() != c:
                return False
        return True

    def series(self):
        """V as an eps-series of polynomials in z = e^{it}, y, y' and the
        parameters."""
        cap = max((n for *_, n in self.coeffs), default=0)
        pairs = [[] for _ in range(cap + 1)]
        for (k, l, m, n), c in self.coeffs.items():
            pairs[n].append((c, ParamPolynomial.monomial(
                1, **{HARMONIC: k, "y": l, "y'": m})))
        return EpsilonSeries(cap, [dot(p) for p in pairs])

    def composition(self):
        """V(y) one eps-order at a time: a Composition of V's terms in y
        and y', BudgetExceeded above MAX_DEGREE.

        Its ``feed(y_j, dy_j)`` takes the next coefficients of y and y'
        and returns [eps^j] V(y).  The caller owns y': i z d_z f_0 + f_1
        at t = 0 in verify.check_residual, (Dh)_j for the t-free
        expansion of rg.normal_form.
        """
        degree = max((l + m for _, l, m, _ in self.coeffs), default=0)
        if degree > MAX_DEGREE:
            raise BudgetExceeded(f"potential of degree {degree} in (y, y') "
                                 f"exceeds the budget of {MAX_DEGREE}")
        # sum_k C_klmn z^k, collected per (l, m, n)
        pairs = {}
        for (k, l, m, n), c in sorted(self.coeffs.items()):
            pairs.setdefault((l, m, n), []).append(
                (c, ParamPolynomial.var(HARMONIC, k)))
        return Composition(
            (n, (l, m), dot(p)) for (l, m, n), p in pairs.items())

    def support_growth_rate(self):
        """M = max(|k|+l+m-1, 1) over the support; harmonic support at
        eps-order j is contained in |n| <= 1 + j*M.  The term
        C z^k y^l y'^m eps^n first acts at order n + 1, on h_0 and
        (Dh)_0, within |n| <= |k| + l + m; the band of rg's flow-only
        solve needs |k| + l + m <= 1 + (n + 1) M for every term.  That
        holds by construction, so no solve checks it:
        |k| + l + m <= M + 1 <= 1 + (n + 1) M, as n >= 0."""
        M = 1
        for (k, l, m, n) in self.coeffs:
            M = max(M, abs(k) + l + m - 1)
        return M

    def bind(self, values):
        """Substitute numeric/rational values for (some) parameters; the
        result is validated like any other potential."""
        bindings = {}
        for name, v in values.items():
            if name not in self.params:
                raise KeyError(f"unknown parameter {name!r}")
            if isinstance(v, (int, GaussianRational)):
                bindings[name] = v
            else:
                bindings[name] = GaussianRational(Rat(v))
        coeffs = {key: c.subs(bindings) for key, c in self.coeffs.items()}
        remaining = tuple(p for p in self.params if p not in bindings)
        return Potential(coeffs, remaining)

    def __eq__(self, other):
        if not isinstance(other, Potential):
            return NotImplemented
        return self.coeffs == other.coeffs and self.params == other.params

    def __repr__(self):
        entries = ", ".join(
            f"{key}: {c}" for key, c in sorted(self.coeffs.items()))
        return f"<Potential {{{entries}}}>"


# ---------------------------------------------------------------------------
# DSL parser
#
# expr   := ["-"] term (("+"|"-") term)*
# term   := factor ("*" factor)*
# factor := atom ("^" uint)?
# atom   := rational | "i" | "eps" | "y" | "y'" | "E(" int ")"
#         | "cos(" int "t)" | "sin(" int "t)" | ident | "(" expr ")"
# ---------------------------------------------------------------------------

_TOKEN_RE = _re.compile(r"\s*(\d+/\d+|\d+|[A-Za-z_][A-Za-z_0-9]*'?|[-+*^()])")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            break
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, params, text_len):
        self.tokens = tokens
        self.params = params
        self.pos = 0
        self.text_len = text_len

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def here(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][1]
        return self.text_len

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, want):
        if self.peek() != want:
            raise ParseError(f"expected {want!r}", self.here())
        return self.advance()

    def parse(self):
        value = self.expr()
        if self.pos != len(self.tokens):
            raise ParseError(f"trailing input {self.peek()!r}", self.here())
        return value

    def expr(self):
        if self.peek() == "-":
            self.advance()
            value = -self.term()
        else:
            value = self.term()
        while self.peek() in ("+", "-"):
            op, _ = self.advance()
            rhs = self.term()
            value = value - rhs if op == "-" else value + rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek() == "*":
            self.advance()
            value = value * self.factor()
        return value

    def factor(self):
        value = self.atom()
        if self.peek() == "^":
            self.advance()
            tok, at = self.advance() if self.peek() else (None, self.here())
            if tok is None or not tok.isdigit():
                raise ParseError("expected a nonnegative integer exponent", at)
            value = value ** int(tok)
        return value

    def _int(self):
        sign = 1
        if self.peek() == "-":
            self.advance()
            sign = -1
        elif self.peek() == "+":
            self.advance()
        tok, at = (self.advance() if self.peek() is not None
                   else (None, self.here()))
        if tok is None or not tok.isdigit():
            raise ParseError("expected an integer", at)
        return sign * int(tok)

    def atom(self):
        tok = self.peek()
        at = self.here()
        if tok is None:
            raise ParseError("unexpected end of input", at)
        if tok in ("+", "-", "*", "^", ")"):
            raise ParseError("expected a term", at)
        if tok == "(":
            self.advance()
            value = self.expr()
            self.expect(")")
            return value
        if tok[0].isdigit():
            self.advance()
            if "/" in tok:
                num, den = tok.split("/")
                if not int(den):
                    raise ParseError("zero denominator", at)
                c = GaussianRational(Rat(int(num), int(den)))
            else:
                c = GaussianRational(int(tok))
            return ParamPolynomial.const(c)
        if tok == "i":
            self.advance()
            return ParamPolynomial.const(I)
        if tok in ("eps", "y", "y'"):
            self.advance()
            return ParamPolynomial.var(tok)
        if tok == "E":
            self.advance()
            self.expect("(")
            k = self._int()
            self.expect(")")
            return ParamPolynomial.var("E", k)
        if tok in ("cos", "sin"):
            self.advance()
            self.expect("(")
            k = self._int()
            tname, tat = (self.advance() if self.peek() is not None
                          else (None, self.here()))
            if tname != "t":
                raise ParseError("expected 't' inside cos(..)/sin(..)", tat)
            self.expect(")")
            # cos = (E(k) + E(-k))/2, sin = -i/2*E(k) + i/2*E(-k)
            c = grq(1, 2) if tok == "cos" else grq(0, 1, -1, 2)
            c_mirror = c if tok == "cos" else -c
            return (ParamPolynomial.var("E", k, c) +
                    ParamPolynomial.var("E", -k, c_mirror))
        if tok == "t":
            raise NotInClass(
                "bare polynomial t-dependence is outside the class")
        if tok in self.params:
            self.advance()
            return ParamPolynomial.var(tok)
        raise ParseError(f"unknown identifier {tok!r}", at)


def parse_potential(text, params=()):
    """Parse the DSL into a validated quartet table."""
    value = _Parser(_tokenize(text), tuple(params), len(text)).parse()
    return Potential(value.split(_QUARTET), params)


# ---------------------------------------------------------------------------
# Harmonic tables
#
# A harmonic table sum_k eps^k sum_n f_{n,k}(t) e^{n i t} is one
# EpsilonSeries whose coefficients are Laurent polynomials in z = e^{it}
# (the variable HARMONIC), t, A, B and parameters: f_{n,k} is the
# coefficient of z^n in eps-order k.
# ---------------------------------------------------------------------------

def harmonic(table, n):
    """The z^n column of a harmonic table, as an EpsilonSeries."""
    return table.map_coeffs(lambda c: c.coefficient(HARMONIC, n))


def harmonics(table):
    """The sorted z exponents occurring in a harmonic table."""
    out = set()
    for c in table.coeffs:
        out.update(c.exponents(HARMONIC))
    return sorted(out)


def _times_in(n):
    """The term rule of iz_dz: z^n terms times i*n, z^0 terms dropped."""
    return (0, 0, n, 1) if n else None


def iz_dz(c):
    """i*z*d/dz of one eps-coefficient of a harmonic table, its time
    derivative where it is free of t: one term map, c_n z^n -> i n c_n
    z^n."""
    return c.term_map(HARMONIC, _times_in)[0]


def partials(p):
    """partial(j, name): d_name p[j], made on first use and kept while
    p[j] is the same polynomial."""
    made = {}

    def partial(j, name):
        d = made.get((j, name))
        if d is None or d[0] is not p[j]:
            d = made[j, name] = p[j], p[j].diff(name)
        return d[1]
    return partial


def lie_sum(xs, partial, k, band=None):
    """[eps^k] L p = sum_{m<=k} X_m d p_{k-m} in one multiply-accumulate
    in ``band``, with ``xs`` the pairs (X, name) of L = X_A d_A + X_B d_B,
    each X the list of its orders given so far, and ``partial`` the
    partials of p.  A zero X_m is skipped: the partials only it would
    multiply are never made."""
    return dot([(x[m], partial(k - m, name)) for m in range(k + 1)
                for x, name in xs if m < len(x) and x[m]], None, band)


def lie(x_a, x_b, p):
    """L p = X_A d_A p + X_B d_B p for a series p: one lie_sum per
    eps-order, which never differentiates p's top order if X_0 = 0."""
    x_a._check(p)
    x_b._check(p)
    xs = ((x_a.coeffs, "A"), (x_b.coeffs, "B"))
    partial = partials(p.coeffs)
    return EpsilonSeries(p.cap, [lie_sum(xs, partial, k)
                                 for k in range(p.cap + 1)])


class HarmonicSeries:
    """Shell of a harmonic table with a product and nothing else.

    No caller in the package: perfbench/spans.py traces
    ``HarmonicSeries.mul`` by name (potential.harmonic_mul) until that
    metric is dropped.
    """

    __slots__ = ("series",)

    def __init__(self, series):
        self.series = series

    def mul(self, other):
        return HarmonicSeries(self.series * other.series)


def eval_potential(V, y, dy, K):
    """Expand V(eps, e^{it}, e^{-it}, y, y') mod eps^{K+1} for a harmonic
    table y and the table dy that stands for y'.

    Feeds the coefficients of y and dy to a fresh V.composition()."""
    v_of_y = V.composition()
    return EpsilonSeries(K, [v_of_y.feed(c, d) for c, d in
                             zip(y.truncate(K).coeffs, dy.truncate(K).coeffs)])
