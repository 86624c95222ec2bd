"""Canonical text form for field elements and polynomials, plus the parser.

Syntax: terms joined by + or -, factors joined by *, powers with ^, parentheses
allowed, g is the extension field generator. Printing always emits the canonical
ascending term order and round-trips through the parser.
"""

from __future__ import annotations

import re

from .artinian import TABLE_BUDGET
from .errors import ResourceGuard, UnknownVariable
from .gf import FqContext, FqScalar
from .poly import FqDomain, MultiPoly, RationalFunc, power, sorted_terms

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
    return _format_terms(f.vars, f.terms, FqDomain(f.ctx))


def format_trunc(f) -> str:
    return _format_terms(f.ring.vars, f.terms, f.ring.dom)


def format_ratfunc(f: RationalFunc) -> str:
    num = format_poly(f.num)
    if f.den == 1:
        return num
    return f"({num}) / ({format_poly(f.den)})"


class _Parser:
    """Recursive descent building MultiPoly values in vars, or, given a
    truncated ring on vars, the ring's elements: every product truncates.

    A MultiPoly product does not truncate, so before each one (a power is
    poly.power's square-and-multiply chain, product by product)
    ResourceGuard is raised when the two term counts times d exceed
    TABLE_BUDGET."""

    def __init__(self, ctx: FqContext, vars: tuple[str, ...], text: str, ring):
        self.ctx = ctx
        self.vars = tuple(vars)
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
        out = self.factor()
        while self.peek() == "*":
            self.take()
            out = self._mul(out, self.factor())
        return out

    def factor(self):
        base = self.primary()
        if self.peek() == "^":
            self.take()
            e = self.take()
            if e is None or not e.isdigit():
                raise ValueError("exponent must be a nonnegative integer")
            if self.ring is None:
                base = power(self._const(1), base, int(e), self._mul)
            else:
                base = base ** int(e)
        return base

    def _mul(self, f, g):
        if self.ring is None:
            cost = len(f.terms) * len(g.terms) * self.ctx.d
            if cost > TABLE_BUDGET:
                raise ResourceGuard(
                    f"product of {len(f.terms)} and {len(g.terms)} terms exceeds "
                    f"the budget of {TABLE_BUDGET} digits"
                )
        return f * g

    def _const(self, c):
        if self.ring is None:
            return MultiPoly.const(self.ctx, self.vars, c)
        return self.ring.const(c)

    def primary(self):
        t = self.take()
        if t is None:
            raise ValueError("unexpected end of input")
        if t.isdigit():
            return self._const(int(t))
        if t == "(":
            inner = self.expression()
            self.expect(")")
            return inner
        if t == "g":
            if self.ctx.d == 1:
                raise UnknownVariable("g is not available over a prime field")
            return self._const(self.ctx.gen)
        if re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", t):
            if t not in self.vars:
                raise UnknownVariable(f"unknown variable {t!r}")
            if self.ring is None:
                return MultiPoly.var(self.ctx, self.vars, t)
            return self.ring.var(t)
        raise ValueError(f"unexpected token {t!r}")


def parse_poly(ctx: FqContext, vars, text: str) -> MultiPoly:
    return _Parser(ctx, tuple(vars), text, None).parse()


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
    return _Parser(ring.ctx, ring.vars, text, ring).parse()


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
