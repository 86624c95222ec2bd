"""Truncated polynomial rings: named variable blocks modulo per-block power bounds.

A ring with block (vars, n) satisfies v^n = 0 for each v in the block. Terms with
any exponent at or above its bound are dropped on construction, which is exactly
reduction in the quotient ring. Coefficients are values of a pluggable domain
(raw field values as in MultiPoly, or rational functions), so the same ring
machinery serves both the artinian model and the rational function field
model. A product is poly.product_terms with the ring's bounds as its filter.
"""

from __future__ import annotations

from operator import lt

from .errors import (
    ContextMismatch,
    NonNilpotentImage,
    NotAUnit,
    ResourceGuard,
    UnknownVariable,
)
from .gf import FqContext
from .poly import FqDomain, power, product_terms, sorted_terms

# Bounds on invert_unit's series, counted in polynomial terms of numerators
# and denominators. SERIES_BUDGET: what the partial sum and the current term
# may hold together. SERIES_PRODUCT_BUDGET: the current term's count times
# the nilpotent part's, the monomial products of the coefficient products
# that make the next term. The shipped configs and the fields benchmark
# streams (seeds 1-10) reach at most 20 and 18. In a witt2 (p = 5)
# Wronskian the denominator x1 + x2^2 + 1 reaches 3167 and 39842 (a 0.2 s
# product); x1^2 + x2 + 1 holds 6796 at its third term, whose product alone
# takes seconds, and x1^2 + x1*x2 + x2^2 + 1 would spend 0.8 s on a
# product of 106330 to make its third term.
SERIES_BUDGET = 5_000
SERIES_PRODUCT_BUDGET = 50_000


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
        return all(map(lt, exps, self.bounds))

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
    """Element of a TruncatedRing; terms map exponents to nonzero values of
    ring.dom, taken as given (public field elements go through ring.const)."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: TruncatedRing, terms: dict):
        self.ring = ring
        dom = ring.dom
        self.terms = {
            e: c
            for e, c in terms.items()
            if not dom.is_zero(c) and ring.in_bounds(e)
        }

    @classmethod
    def from_clean(cls, ring: TruncatedRing, terms: dict) -> "TruncatedPoly":
        """Element holding terms as they are, for a producer whose terms are
        already nonzero and inside the ring's bounds; the constructor
        filters, this does not."""
        f = cls.__new__(cls)
        f.ring = ring
        f.terms = terms
        return f

    def _coerce(self, other):
        if isinstance(other, TruncatedPoly):
            if other.ring != self.ring:
                raise ContextMismatch("elements of different truncated rings")
            return other
        return self.ring.const(other)

    def __add__(self, other):
        o = self._coerce(other)
        reduce = self.ring.dom.reduce
        out = dict(self.terms)
        for e, c in o.terms.items():
            s = out.get(e)
            out[e] = c if s is None else reduce(s + c)
        return TruncatedPoly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        neg = self.ring.dom.neg
        return TruncatedPoly.from_clean(self.ring, {e: neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        ring, dom = self.ring, self.ring.dom
        # iterate the sparser factor outside
        a, b = (self.terms, o.terms)
        if len(a) > len(b):
            a, b = b, a
        return TruncatedPoly.from_clean(
            ring, product_terms(a, b, dom.reduce, dom.lazy, ring.bounds))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power in a truncated ring")
        return power(self.ring.one, self, n)

    def scale(self, c) -> "TruncatedPoly":
        """Product with a domain value, taken as given (over the field, raw)."""
        dom = self.ring.dom
        if dom.is_zero(c):
            return self.ring.zero
        # a product of nonzero values of a field is nonzero
        reduce = dom.reduce
        return TruncatedPoly.from_clean(
            self.ring, {e: reduce(v * c) for e, v in self.terms.items()})

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
        out[ne] = c if s is None else f.ring.dom.reduce(s + c)
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

    The c are raw field values, made constants by target.dom.from_raw.
    Plain evaluation: images may have constant terms. Each term is summed
    into one dict in place, and a key is deleted the moment its sum cancels,
    so keys come out in the order of a term-by-term sum of TruncatedPolys.
    """
    dom = target.dom
    origin = (0,) * len(target.vars)
    out: dict = {}
    for e, c in terms.items():
        term = TruncatedPoly(target, {origin: dom.from_raw(c)})
        for lad, x in zip(ladders, e):
            if x:
                term = term * lad[x]
        for k, v in term.terms.items():
            s = out.get(k)
            if s is not None:
                v = dom.reduce(s + v)
                if dom.is_zero(v):
                    del out[k]
                    continue
            out[k] = v
    return TruncatedPoly(target, out)


def _is_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def substitute(
    f: TruncatedPoly, images: dict[str, TruncatedPoly], target: TruncatedRing
) -> TruncatedPoly:
    """Apply the ring map sending each variable to its image inside target.

    Every variable of f's ring needs an image. The map respects the source
    truncation v^B = 0 only if each image has zero constant term and its B-th
    power vanishes in target; NonNilpotentImage otherwise. When B is a power
    of p and no target bound exceeds B, the Frobenius sends every term c*y^a
    of an image without constant term to c^B*y^(Ba) = 0, so that power is
    not computed.
    """
    for v in f.ring.vars:
        if v not in images:
            raise UnknownVariable(f"no image given for variable {v!r}")
    p, top = target.ctx.p, max(target.bounds, default=0)
    ladders = []
    for v, bound in zip(f.ring.vars, f.ring.bounds):
        img = images[v]
        if img.ring != target:
            raise ContextMismatch(f"image of {v!r} lives in a different ring")
        if not target.dom.is_zero(img.constant_term()):
            raise NonNilpotentImage(f"image of {v!r} has a nonzero constant term")
        if not (top <= bound and _is_power(bound, p)) and img**bound:
            raise NonNilpotentImage(
                f"image of {v!r} does not vanish at the source bound {bound}"
            )
        ladders.append(PowerLadder(v, img))
    return evaluate(f.terms, ladders, target)


def invert_unit(f: TruncatedPoly) -> TruncatedPoly:
    """Inverse of a unit via the geometric series on its nilpotent part.

    Over rational coefficients, which are added without a gcd, each term
    of the series can multiply the size of the denominators, and the next
    term costs more than everything before it. So before each term is added,
    the partial sum and the term must hold at most SERIES_BUDGET polynomial
    terms together (``dom.poly_terms``: numerators and denominators), and
    before the next term is made, the term's count times the nilpotent
    part's must be at most SERIES_PRODUCT_BUDGET; ResourceGuard otherwise.
    Field values count nothing: over F_q the series never holds more than
    twice the ring's own terms.
    """
    c0 = f.constant_term()
    dom = f.ring.dom
    if dom.is_zero(c0):
        raise NotAUnit("constant term is zero")
    c0_inv = dom.inverse(c0)
    # f = c0 * (1 - n) with n nilpotent; 1/f = c0^-1 * sum n^k
    n = f.ring.one - f.scale(c0_inv)
    out = f.ring.one
    p = n
    n_terms = sum(map(dom.poly_terms, n.terms.values()))
    while p:
        p_terms = sum(map(dom.poly_terms, p.terms.values()))
        held = sum(map(dom.poly_terms, out.terms.values())) + p_terms
        if held > SERIES_BUDGET:
            raise ResourceGuard(
                f"inverse series holds {held} terms, past the budget of {SERIES_BUDGET}")
        out = out + p
        if p_terms * n_terms > SERIES_PRODUCT_BUDGET:
            raise ResourceGuard(
                f"inverse series term would take {p_terms * n_terms} products, "
                f"past the budget of {SERIES_PRODUCT_BUDGET}")
        p = p * n
    return out.scale(c0_inv)

