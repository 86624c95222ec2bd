"""Canonical text form for field elements and polynomials, plus the parser.

Syntax: terms joined by + or -, factors joined by *, powers with ^, parentheses
allowed, g is the extension field generator. Printing always emits the canonical
ascending term order and round-trips through the parser. The parser evaluates
inside one ring: ``parse_poly`` in the untruncated ``poly_ring``, whose
products PARSE_PRODUCT_BUDGET guards, and ``parse_trunc`` in a truncated ring,
where every product truncates.
"""

from __future__ import annotations

import re

from .errors import ResourceGuard, UnknownVariable
from .gf import FqContext, FqScalar
from .poly import FqDomain, MultiPoly, RationalFunc, poly_ring, power, sorted_terms

# term pairs (|f| * |g|) one untruncated product of the parser may take.
# Over GF(65521) on a 2-vCPU Xeon host, (x1 + x2 + 1)^60 * (x1 + 2*x2 + 3)^60,
# whose last product takes 3.6M pairs, parses in 0.9 s without this bound,
# and one product of 1.38M pairs takes 0.21 s at d = 1, 0.28 s at d = 2 and
# 0.36 s over GF(251^4). The bound stops a power's square-and-multiply
# chain before such products pile up: (x1 + x2 + 1)^116 * (x1 + 2*x2 + 3)^116
# is refused at its 3.07M-pair product in under 0.2 s, where it parsed in
# about 14 s under the dense-table budget. The shipped configs and the benchmark
# streams (seeds 1-10) take at most 6 pairs.
PARSE_PRODUCT_BUDGET = 1_500_000

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9_]*)|([()^*+/-]))")


def format_scalar(s: FqScalar) -> str:
    """Standalone form: a digit for d=1, a descending polynomial in g otherwise."""
    if s.ctx.d == 1:
        return str(s.digits[0])
    parts = []
    for k in range(s.ctx.d - 1, -1, -1):
        dig = s.digits[k]
        if not dig:
            continue
        if k == 0:
            parts.append(str(dig))
        else:
            gp = "g" if k == 1 else f"g^{k}"
            parts.append(gp if dig == 1 else f"{dig}*{gp}")
    return " + ".join(parts) if parts else "0"


def _scalar_factor(s: FqScalar) -> str:
    """Factor form: parenthesized unless a single g-power term."""
    text = format_scalar(s)
    return f"({text})" if " + " in text else text


def _monomial_str(vars, exps) -> str:
    parts = []
    for v, e in zip(vars, exps):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "*".join(parts)


def _format_terms(vars, terms, dom) -> str:
    if not terms:
        return "0"
    one = dom.one
    chunks = []
    for exps, c in sorted_terms(terms):
        mono = _monomial_str(vars, exps)
        if not mono:
            chunks.append(_coeff_standalone(c, dom))
        elif c == one:
            chunks.append(mono)
        else:
            chunks.append(f"{_coeff_factor(c, dom)}*{mono}")
    return " + ".join(chunks)


def _coeff_standalone(c, dom) -> str:
    if isinstance(dom, FqDomain):
        return format_scalar(FqScalar(dom.ctx, c))
    return format_ratfunc(c)


def _coeff_factor(c, dom) -> str:
    if isinstance(dom, FqDomain):
        return _scalar_factor(FqScalar(dom.ctx, c))
    if isinstance(c, RationalFunc) and len(c.num.terms) == 1 and c.den == 1:
        (exps, raw), = c.num.terms.items()
        mono = _monomial_str(c.num.vars, exps)
        if not mono:
            return _scalar_factor(FqScalar(c.ctx, raw))
        if raw == 1:
            return mono
        return f"{_scalar_factor(FqScalar(c.ctx, raw))}*{mono}"
    return f"({format_ratfunc(c)})"


def format_poly(f: MultiPoly) -> str:
    return _format_terms(f.ring.vars, f.terms, f.ring.dom)


def format_trunc(f) -> str:
    return _format_terms(f.ring.vars, f.terms, f.ring.dom)


def format_ratfunc(f: RationalFunc) -> str:
    num = format_poly(f.num)
    if f.den == 1:
        return num
    return f"({num}) / ({format_poly(f.den)})"


class _Parser:
    """Recursive descent building elements of a ring over the field; in a
    truncated ring every product truncates.

    A product of the untruncated ring does not, so before each one (a power
    is poly.power's square-and-multiply chain, product by product)
    ResourceGuard is raised when the product of the two term counts exceeds
    PARSE_PRODUCT_BUDGET."""

    def __init__(self, ring, text: str):
        self.ctx = ring.ctx
        self.vars = ring.vars
        self.ring = ring
        self.tokens: list[str] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                rest = text[pos:].strip()
                if not rest:
                    break
                raise ValueError(f"cannot tokenize near {rest[:20]!r}")
            self.tokens.append(m.group(0).strip())
            pos = m.end()
        self.tokens = [t for t in self.tokens if t]
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        t = self.peek()
        self.i += 1
        return t

    def expect(self, t):
        got = self.take()
        if got != t:
            raise ValueError(f"expected {t!r}, got {got!r}")

    def parse(self):
        out = self.expression()
        if self.peek() is not None:
            raise ValueError(f"trailing input at {self.peek()!r}")
        return out

    def expression(self):
        neg = False
        if self.peek() in ("+", "-"):
            neg = self.take() == "-"
        out = self.term()
        if neg:
            out = -out
        while self.peek() in ("+", "-"):
            op = self.take()
            t = self.term()
            out = out - t if op == "-" else out + t
        return out

    def term(self):
        """Factors joined by *. Numbers, g and variables, each with an
        optional power, multiply into one pending monomial: coefficients
        by ctx.reduce and ctx.pow, exponents by addition. A polynomial is
        made only for a parenthesised factor, which first takes the pending
        monomial into the product so far, and for the term's value. A
        product by a monomial keeps its other factor's key order and never
        meets the guard, so the terms, their order and the guard points are
        those of multiplying factor by factor."""
        reduce = self.ctx.reduce
        out, coef, exps, pending = None, 1, [0] * len(self.vars), False
        while True:
            if self.peek() == "(":
                f = self.factor()
                if pending:
                    out = self._times(out, self._monomial(coef, exps))
                    coef, exps, pending = 1, [0] * len(self.vars), False
                out = self._times(out, f)
            else:
                c, i, k = self._simple_factor()
                if i is None:
                    coef = reduce(coef * self.ctx.pow(c, k))
                else:
                    exps[i] += k
                pending = True
            if self.peek() != "*":
                break
            self.take()
        return self._times(out, self._monomial(coef, exps)) if pending else out

    def _times(self, out, f):
        """The product so far times f; f itself for the first factor."""
        return f if out is None else self._mul(out, f)

    def _simple_factor(self):
        """A number, g or variable, with its power: (raw value, None, k) for
        a constant, (None, variable index, k) for a variable."""
        t = self.take()
        if t is None:
            raise ValueError("unexpected end of input")
        if t.isdigit():
            out = (self.ctx.raw(int(t)), None)
        elif t == "g":
            if self.ctx.d == 1:
                raise UnknownVariable("g is not available over a prime field")
            out = (self.ctx.gen.raw, None)
        elif re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", t):
            if t not in self.vars:
                raise UnknownVariable(f"unknown variable {t!r}")
            out = (None, self.vars.index(t))
        else:
            raise ValueError(f"unexpected token {t!r}")
        k = self._exponent()
        return out + (1 if k is None else k,)

    def _exponent(self):
        """The power after ^, or None without one."""
        if self.peek() != "^":
            return None
        self.take()
        e = self.take()
        if e is None or not e.isdigit():
            raise ValueError("exponent must be a nonnegative integer")
        return int(e)

    def _monomial(self, coef: int, exps):
        exps = tuple(exps)
        if coef and self.ring.in_bounds(exps):
            return self.ring.element({exps: coef})
        return self.ring.zero

    def factor(self):
        """A parenthesised expression with its power."""
        self.expect("(")
        base = self.expression()
        self.expect(")")
        k = self._exponent()
        if k is None:
            return base
        return power(self.ring.one, base, k, self._mul)

    def _mul(self, f, g):
        if self.ring.filter is None and len(f.terms) * len(g.terms) > PARSE_PRODUCT_BUDGET:
            raise ResourceGuard(
                f"product of {len(f.terms)} and {len(g.terms)} terms exceeds "
                f"the budget of {PARSE_PRODUCT_BUDGET} term pairs"
            )
        return f * g


def parse_poly(ctx: FqContext, vars, text: str) -> MultiPoly:
    return _Parser(poly_ring(ctx, tuple(vars)), text).parse()


def parse_scalar(ctx: FqContext, text) -> FqScalar:
    if isinstance(text, int):
        return ctx.scalar(text)
    f = parse_poly(ctx, (), str(text))
    return f.coeff(())


def parse_trunc(ring, text: str):
    """Parse into a truncated ring with field coefficients, evaluating in
    the ring so no value outgrows its box. Truncation is a ring map, so this
    is parse_poly's polynomial truncated."""
    if not isinstance(ring.dom, FqDomain):
        raise ValueError("parse_trunc needs a field coefficient domain")
    return _Parser(ring, text).parse()


def _split_top_slash(text: str):
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            return text[:i], text[i + 1 :]
    return text, None


def parse_ratfunc(ctx: FqContext, vars, text: str) -> RationalFunc:
    num_t, den_t = _split_top_slash(text)
    num = parse_poly(ctx, vars, num_t)
    if den_t is None:
        return RationalFunc.from_poly(num)
    return RationalFunc(num, parse_poly(ctx, vars, den_t))
