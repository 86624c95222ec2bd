"""Truncated polynomial rings: named variable blocks modulo per-block power bounds.

A ring with block (vars, n) satisfies v^n = 0 for each v in the block. Terms with
any exponent at or above its bound are dropped on construction, which is exactly
reduction in the quotient ring. Coefficients come from a pluggable domain (field
scalars or rational functions), so the same ring machinery serves both the
artinian model and the rational function field model.
"""

from __future__ import annotations

from .errors import (
    ContextMismatch,
    FractionalExponent,
    NonNilpotentImage,
    NotAUnit,
    UnknownVariable,
)
from .gf import FqContext
from .poly import FqDomain, sorted_terms


class TruncatedRing:
    """Immutable ring descriptor: coefficient domain plus ordered variable blocks."""

    def __init__(self, ctx: FqContext, blocks, dom=None):
        self.ctx = ctx
        self.dom = dom if dom is not None else FqDomain(ctx)
        self.blocks = tuple((tuple(names), int(bound)) for names, bound in blocks)
        vars: list[str] = []
        bounds: list[int] = []
        for names, bound in self.blocks:
            if bound < 1:
                raise ValueError("block bound must be >= 1")
            vars.extend(names)
            bounds.extend([bound] * len(names))
        if len(set(vars)) != len(vars):
            raise ValueError("duplicate variable names across blocks")
        self.vars = tuple(vars)
        self.bounds = tuple(bounds)
        self._index = {v: i for i, v in enumerate(vars)}

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedRing)
            and self.ctx == other.ctx
            and self.dom == other.dom
            and self.vars == other.vars
            and self.bounds == other.bounds
        )

    def __hash__(self):
        return hash((self.ctx, self.dom, self.vars, self.bounds))

    def __repr__(self):
        parts = ", ".join(f"{'/'.join(n)}^<{b}" for n, b in self.blocks)
        return f"TruncatedRing({parts})"

    def var_index(self, name: str) -> int:
        i = self._index.get(name)
        if i is None:
            raise UnknownVariable(f"variable {name!r} not in ring {self!r}")
        return i

    def in_bounds(self, exps) -> bool:
        return all(e < b for e, b in zip(exps, self.bounds))

    @property
    def zero(self) -> "TruncatedPoly":
        return TruncatedPoly(self, {})

    @property
    def one(self) -> "TruncatedPoly":
        return TruncatedPoly(self, {(0,) * len(self.vars): self.dom.one})

    def const(self, c) -> "TruncatedPoly":
        return TruncatedPoly(self, {(0,) * len(self.vars): self.dom.coerce(c)})

    def var(self, name: str, exp: int = 1) -> "TruncatedPoly":
        i = self.var_index(name)
        e = tuple(exp if j == i else 0 for j in range(len(self.vars)))
        return TruncatedPoly(self, {e: self.dom.one})

    def monomial(self, exps, c=1) -> "TruncatedPoly":
        return TruncatedPoly(self, {tuple(exps): self.dom.coerce(c)})


class TruncatedPoly:
    """Element of a TruncatedRing; terms hold no zero coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: TruncatedRing, terms: dict):
        self.ring = ring
        dom = ring.dom
        self.terms = {
            e: c
            for e, c in terms.items()
            if not dom.is_zero(c) and ring.in_bounds(e)
        }

    def _coerce(self, other):
        if isinstance(other, TruncatedPoly):
            if other.ring != self.ring:
                raise ContextMismatch("elements of different truncated rings")
            return other
        return self.ring.const(other)

    def __add__(self, other):
        o = self._coerce(other)
        out = dict(self.terms)
        for e, c in o.terms.items():
            s = out.get(e)
            out[e] = c if s is None else s + c
        return TruncatedPoly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        bounds = self.ring.bounds
        out: dict = {}
        # iterate the sparser factor outside
        a, b = (self.terms, o.terms)
        if len(a) > len(b):
            a, b = b, a
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                if all(x < bb for x, bb in zip(e, bounds)):
                    c = c1 * c2
                    s = out.get(e)
                    out[e] = c if s is None else s + c
        return TruncatedPoly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power in a truncated ring")
        out = self.ring.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def scale(self, c) -> "TruncatedPoly":
        c = self.ring.dom.coerce(c)
        return TruncatedPoly(self.ring, {e: v * c for e, v in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, TruncatedPoly):
            return self.ring == other.ring and self.terms == other.terms
        try:
            o = self._coerce(other)
        except (ContextMismatch, TypeError):
            return NotImplemented
        return self.terms == o.terms

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, exps):
        return self.terms.get(tuple(exps), self.ring.dom.zero)

    def constant_term(self):
        return self.coeff((0,) * len(self.ring.vars))

    def sorted_terms(self):
        return sorted_terms(self.terms)

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __repr__(self):
        from .textform import format_trunc

        return format_trunc(self)


def rename(f: TruncatedPoly, target: TruncatedRing, mapping: dict) -> TruncatedPoly:
    """Move f into target, renaming variables by mapping; overflow terms drop.

    f's ring may name variables target lacks, as long as no term of f uses
    them; a term that does raises UnknownVariable. Coefficients pass through
    unchanged; the domains are not compared.
    """
    names = [mapping.get(v, v) for v in f.ring.vars]
    pos = [target._index.get(v) for v in names]
    width = len(target.vars)
    out: dict = {}
    for e, c in f.terms.items():
        ne = [0] * width
        for v, p_i, x in zip(names, pos, e):
            if x:
                if p_i is None:
                    raise UnknownVariable(f"variable {v!r} not in ring {target!r}")
                ne[p_i] = x
        ne = tuple(ne)
        s = out.get(ne)
        out[ne] = c if s is None else s + c
    return TruncatedPoly(target, out)


def convert(f: TruncatedPoly, target: TruncatedRing) -> TruncatedPoly:
    """Move f into a ring that names every variable f uses; overflow terms drop.

    Coefficients pass through unchanged, so the domains must agree.
    """
    if f.ring.dom != target.dom:
        raise ContextMismatch("coefficient domains differ")
    return rename(f, target, {})


class PowerLadder:
    """Powers of one image, each computed once, on first use.

    ladder[k] is image^k for k >= 1. A ladder built without an image stands
    for a variable with no value yet: asking it for a power raises
    UnknownVariable, so a term that needs the variable is never read as zero.
    """

    __slots__ = ("name", "pows")

    def __init__(self, name: str, image: TruncatedPoly | None):
        self.name = name
        self.pows = None if image is None else [image]

    def __getitem__(self, k: int) -> TruncatedPoly:
        pows = self.pows
        if pows is None:
            raise UnknownVariable(f"no image given for variable {self.name!r}")
        while len(pows) < k:
            pows.append(pows[-1] * pows[0])
        return pows[k - 1]


def evaluate(terms: dict, ladders, target: TruncatedRing) -> TruncatedPoly:
    """Sum of c * prod_i ladders[i][e_i] over terms {e: c}, inside target.

    Plain evaluation: images may have constant terms. Each term is summed
    into one dict in place, and a key is deleted the moment its sum cancels,
    so keys come out in the order of a term-by-term sum of TruncatedPolys.
    """
    dom = target.dom
    out: dict = {}
    for e, c in terms.items():
        term = target.const(c)
        for lad, x in zip(ladders, e):
            if x:
                term = term * lad[x]
        for k, v in term.terms.items():
            s = out.get(k)
            if s is not None:
                v = s + v
                if dom.is_zero(v):
                    del out[k]
                    continue
            out[k] = v
    return TruncatedPoly(target, out)


def substitute(
    f: TruncatedPoly, images: dict[str, TruncatedPoly], target: TruncatedRing
) -> TruncatedPoly:
    """Apply the ring map sending each variable to its image inside target.

    Every variable of f's ring needs an image. Images of bound variables must
    have zero constant term, otherwise powers would not respect the source
    truncation; violations raise NonNilpotentImage.
    """
    for v in f.ring.vars:
        if v not in images:
            raise UnknownVariable(f"no image given for variable {v!r}")
    ladders = []
    for v in f.ring.vars:
        img = images[v]
        if img.ring != target:
            raise ContextMismatch(f"image of {v!r} lives in a different ring")
        if not target.dom.is_zero(img.constant_term()):
            raise NonNilpotentImage(f"image of {v!r} has a nonzero constant term")
        ladders.append(PowerLadder(v, img))
    return evaluate(f.terms, ladders, target)


def invert_unit(f: TruncatedPoly) -> TruncatedPoly:
    """Inverse of a unit via the geometric series on its nilpotent part."""
    c0 = f.constant_term()
    dom = f.ring.dom
    if dom.is_zero(c0):
        raise NotAUnit("constant term is zero")
    c0_inv = dom.inverse(c0)
    # f = c0 * (1 - n) with n nilpotent; 1/f = c0^-1 * sum n^k
    n = f.ring.one - f.scale(c0_inv)
    out = f.ring.one
    p = n
    while p:
        out = out + p
        p = p * n
    return out.scale(c0_inv)


def frobenius_root(f: TruncatedPoly) -> TruncatedPoly:
    """The unique r with r^p = f, when all exponents are divisible by p.

    Coefficients map through the inverse Frobenius; exponents divide by p. An
    exponent not divisible by p raises FractionalExponent.
    """
    p = f.ring.ctx.p
    dom = f.ring.dom
    if not hasattr(dom, "frobenius_inv"):
        raise ContextMismatch("coefficient domain has no Frobenius inverse")
    out: dict = {}
    for e, c in f.terms.items():
        if any(x % p for x in e):
            raise FractionalExponent(f"exponents {e} are not all divisible by p={p}")
        out[tuple(x // p for x in e)] = dom.frobenius_inv(c)
    return TruncatedPoly(f.ring, out)
