"""The admissible potential class and its evaluation on harmonic series.

A potential is a finite table C[(k, l, m, n)] -> coefficient, meaning

    V = sum C_klmn * eps^n * e^{k i t} * y^l * (dy/dt)^m,

with coefficients that are polynomials in the declared symbolic
parameters only.  The concrete DSL (see parse_potential) expands sugar
like cos(kt) into this table at parse time.
"""

import json
import re as _re

from .algebra import (GaussianRational, ParamPolynomial, EpsilonSeries,
                      ZERO, ONE, I, Rat, grq)
from .errors import ParseError, NotInClass, TrivialLinear, SupportOverflow

_ZP = ParamPolynomial.zero()


class Potential:
    """Validated finite quartet table of an admissible potential."""

    __slots__ = ("coeffs", "params")

    def __init__(self, coeffs, params=(), validate=True):
        self.params = tuple(params)
        clean = {}
        for key, c in coeffs.items():
            if isinstance(c, (int, GaussianRational)):
                c = ParamPolynomial.const(c)
            c = c.compact()
            if not c.is_zero():
                clean[key] = c
        self.coeffs = clean
        if validate:
            self.validate()

    def validate(self):
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

    def support_growth_rate(self):
        """M = max(|k|+l+m-1, 1) over the support; harmonic support at
        eps-order j is contained in |n| <= 1 + j*M."""
        M = 1
        for (k, l, m, n) in self.coeffs:
            M = max(M, abs(k) + l + m - 1)
        return M

    def bind(self, values):
        """Substitute numeric/rational values for (some) parameters."""
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
        return Potential(coeffs, remaining, validate=False)

    def __eq__(self, other):
        if not isinstance(other, Potential):
            return NotImplemented
        return self.coeffs == other.coeffs and self.params == other.params

    def __repr__(self):
        entries = ", ".join(
            f"{key}: {c}" for key, c in sorted(self.coeffs.items()))
        return f"<Potential {{{entries}}}>"

    def to_json(self):
        return {
            "params": list(self.params),
            "coeffs": [[list(key), c.to_json()]
                       for key, c in sorted(self.coeffs.items())],
        }

    @classmethod
    def from_json(cls, data):
        if isinstance(data, str):
            data = json.loads(data)
        coeffs = {tuple(key): ParamPolynomial.from_json(cj)
                  for key, cj in data["coeffs"]}
        return cls(coeffs, tuple(data["params"]))


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


class _Table(dict):
    """Intermediate parse value: quartet table with ring operations."""

    def padd(self, other):
        out = _Table(self)
        for key, c in other.items():
            s = out.get(key, _ZP) + c
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        return out

    def pneg(self):
        return _Table({k: -c for k, c in self.items()})

    def pmul(self, other):
        out = _Table()
        for (k1, l1, m1, n1), c1 in self.items():
            for (k2, l2, m2, n2), c2 in other.items():
                key = (k1 + k2, l1 + l2, m1 + m2, n1 + n2)
                s = out.get(key, _ZP) + c1 * c2
                if s.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = s
        return out

    def ppow(self, n):
        out = _Table({(0, 0, 0, 0): ParamPolynomial.const(ONE)})
        for _ in range(n):
            out = out.pmul(self)
        return out


def _single(key, coeff):
    return _Table({key: ParamPolynomial.const(coeff)
                   if isinstance(coeff, (int, GaussianRational)) else coeff})


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
            value = self.term().pneg()
        else:
            value = self.term()
        while self.peek() in ("+", "-"):
            op, _ = self.advance()
            rhs = self.term()
            value = value.padd(rhs.pneg() if op == "-" else rhs)
        return value

    def term(self):
        value = self.factor()
        while self.peek() == "*":
            self.advance()
            value = value.pmul(self.factor())
        return value

    def factor(self):
        value = self.atom()
        if self.peek() == "^":
            self.advance()
            tok, at = self.advance() if self.peek() else (None, self.here())
            if tok is None or not tok.isdigit():
                raise ParseError("expected a nonnegative integer exponent", at)
            value = value.ppow(int(tok))
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
        if tok == "(":
            self.advance()
            value = self.expr()
            self.expect(")")
            return value
        if tok[0].isdigit():
            self.advance()
            if "/" in tok:
                num, den = tok.split("/")
                c = GaussianRational(Rat(int(num), int(den)))
            else:
                c = GaussianRational(int(tok))
            return _single((0, 0, 0, 0), c)
        if tok == "i":
            self.advance()
            return _single((0, 0, 0, 0), I)
        if tok == "eps":
            self.advance()
            return _single((0, 0, 0, 1), ONE)
        if tok == "y":
            self.advance()
            return _single((0, 1, 0, 0), ONE)
        if tok == "y'":
            self.advance()
            return _single((0, 0, 1, 0), ONE)
        if tok == "E":
            self.advance()
            self.expect("(")
            k = self._int()
            self.expect(")")
            return _single((k, 0, 0, 0), ONE)
        if tok in ("cos", "sin"):
            self.advance()
            self.expect("(")
            k = self._int()
            tname, tat = (self.advance() if self.peek() is not None
                          else (None, self.here()))
            if tname != "t":
                raise ParseError("expected 't' inside cos(..)/sin(..)", tat)
            self.expect(")")
            if tok == "cos":
                half = grq(1, 2)
                return _single((k, 0, 0, 0), half).padd(
                    _single((-k, 0, 0, 0), half))
            halfi = grq(0, 1, -1, 2)  # -i/2
            return _single((k, 0, 0, 0), halfi).padd(
                _single((-k, 0, 0, 0), grq(0, 1, 1, 2)))
        if tok == "t":
            raise NotInClass(
                "bare polynomial t-dependence is outside the class")
        if tok in self.params:
            self.advance()
            return _single((0, 0, 0, 0), ParamPolynomial.var(tok))
        raise ParseError(f"unknown identifier {tok!r}", at)


def parse_potential(text, params=()):
    """Parse the DSL into a validated quartet table."""
    tokens = _tokenize(text)
    table = _Parser(tokens, tuple(params), len(text)).parse()
    return Potential(dict(table), params)


# ---------------------------------------------------------------------------
# Harmonic series
# ---------------------------------------------------------------------------

class HarmonicSeries:
    """Double expansion sum_k eps^k sum_n f_{n,k}(t) e^{n i t}.

    ``orders[k]`` maps harmonic n to the polynomial f_{n,k} (in t, A, B
    and parameters); absent keys are zero.  Finite support per order.
    """

    __slots__ = ("cap", "orders")

    def __init__(self, cap, orders=None):
        self.cap = cap
        if orders is None:
            self.orders = tuple({} for _ in range(cap + 1))
        else:
            orders = [dict((n, p) for n, p in d.items() if not p.is_zero())
                      for d in orders]
            if len(orders) != cap + 1:
                raise ValueError("order count does not match cap")
            self.orders = tuple(orders)

    @classmethod
    def zero(cls, cap):
        return cls(cap)

    @classmethod
    def free_oscillation(cls, cap):
        """A e^{it} + B e^{-it} at eps^0."""
        orders = [{} for _ in range(cap + 1)]
        orders[0] = {1: ParamPolynomial.var("A"),
                     -1: ParamPolynomial.var("B")}
        return cls(cap, orders)

    def truncate(self, cap):
        if cap > self.cap:
            raise ValueError("truncate cannot raise the cap")
        return HarmonicSeries(cap, [dict(d) for d in self.orders[:cap + 1]])

    def with_entry(self, n, k, p):
        orders = [dict(d) for d in self.orders]
        orders[k][n] = p
        return HarmonicSeries(self.cap, orders)

    def entry(self, n, k):
        return self.orders[k].get(n, _ZP)

    def eps_coefficient(self, k):
        return dict(self.orders[k])

    def harmonic(self, n):
        """P_n as an EpsilonSeries."""
        return EpsilonSeries(
            self.cap, [self.orders[k].get(n, _ZP)
                       for k in range(self.cap + 1)])

    def harmonics(self):
        out = set()
        for d in self.orders:
            out.update(d)
        return sorted(out)

    # -- arithmetic -------------------------------------------------------

    def add(self, other):
        cap = min(self.cap, other.cap)
        orders = []
        for k in range(cap + 1):
            d = dict(self.orders[k])
            for n, p in other.orders[k].items():
                s = d.get(n, _ZP) + p
                if s.is_zero():
                    d.pop(n, None)
                else:
                    d[n] = s
            orders.append(d)
        return HarmonicSeries(cap, orders)

    def mul(self, other, cap=None):
        if cap is None:
            cap = min(self.cap, other.cap)
        orders = [{} for _ in range(cap + 1)]
        flat_other = [(k2, n2, p2)
                      for k2 in range(min(cap, other.cap) + 1)
                      for n2, p2 in other.orders[k2].items()]
        for k1 in range(min(cap, self.cap) + 1):
            for n1, p1 in self.orders[k1].items():
                for k2, n2, p2 in flat_other:
                    k = k1 + k2
                    if k > cap:
                        continue
                    n = n1 + n2
                    d = orders[k]
                    s = d.get(n)
                    if s is None:
                        d[n] = p1 * p2
                    else:
                        s = s + p1 * p2
                        if s.is_zero():
                            del d[n]
                        else:
                            d[n] = s
        return HarmonicSeries(cap, orders)

    def scale(self, c):
        """Multiply by a GaussianRational or parameter polynomial."""
        orders = [{n: p * c for n, p in d.items()} for d in self.orders]
        return HarmonicSeries(self.cap, orders)

    def shift_harmonic(self, k0):
        orders = [{n + k0: p for n, p in d.items()} for d in self.orders]
        return HarmonicSeries(self.cap, orders)

    def shift_eps(self, n0):
        orders = [{} for _ in range(self.cap + 1)]
        for k in range(self.cap + 1 - n0):
            orders[k + n0] = dict(self.orders[k])
        return HarmonicSeries(self.cap, orders)

    def dt(self):
        """Time derivative, harmonic-wise: f' + i*n*f per harmonic."""
        orders = []
        for d in self.orders:
            nd = {}
            for n, p in d.items():
                q = p.diff("t") + p * GaussianRational(0, Rat(n))
                if not q.is_zero():
                    nd[n] = q
            orders.append(nd)
        return HarmonicSeries(self.cap, orders)

    def __eq__(self, other):
        if not isinstance(other, HarmonicSeries):
            return NotImplemented
        return self.cap == other.cap and self.orders == other.orders

    def __repr__(self):
        return f"<HarmonicSeries cap={self.cap} harmonics={self.harmonics()}>"


def eval_potential(V, y, K):
    """Expand V(eps, e^{it}, e^{-it}, y, dy/dt) into harmonics, mod eps^{K+1}."""
    yp = None
    powers_y = {0: None}
    powers_yp = {0: None}

    def ypow(cache, base, l):
        if l in cache:
            return cache[l]
        p = ypow(cache, base, l - 1)
        out = base.truncate(K) if p is None else p.mul(base, cap=K)
        cache[l] = out
        return out

    out = HarmonicSeries.zero(K)
    for (k, l, m, n), c in sorted(V.coeffs.items()):
        if n > K:
            continue
        if m and yp is None:
            yp = y.dt()
        if l and m:
            term = ypow(powers_y, y, l).mul(ypow(powers_yp, yp, m), cap=K)
        elif l:
            term = ypow(powers_y, y, l)
        elif m:
            term = ypow(powers_yp, yp, m)
        else:
            term = HarmonicSeries(
                K, [{0: ParamPolynomial.const(ONE)}] + [{}] * K)
        term = term.scale(c).shift_harmonic(k)
        if n:
            term = term.shift_eps(n)
        out = out.add(term)
    return out
