"""Sparse polynomials over F_{p^d}, truncated or not, and rational functions.

One arithmetic serves every polynomial. A ``TruncatedRing`` is a
coefficient domain and ordered variable blocks, each with a power bound
(v^bound = 0) or ``NO_BOUND``; a ``TruncatedPoly`` maps exponent tuples
inside the bounds to nonzero domain values. ``poly_ring(ctx, vars)`` is the
untruncated ring over the field, and its elements are ``MultiPoly``: the
same arithmetic, with ``FqScalar`` coefficients at the boundary (``coeff``)
and the helpers of the rational function field.

Over the field a coefficient is the raw value: one int with digit i at bit
offset ``ctx.width * i`` (for d = 1 the int in [0, p) itself). A product
f*g sums the unreduced coefficient products for each exponent and reduces
once per output term. An output term collects at most one product per term
of f, and a plain sum of a reduced value and up to ``ctx.lazy`` products is
exact, so the sums are also reduced after every ``ctx.lazy`` terms of f
(never over a prime field, whose ``lazy`` is unbounded). That loop,
``product_terms``, takes the ring's bounds as its filter. ``product`` adds
its shortcuts: when both factors have at least PACKED_MIN_TERMS terms, each
exponent tuple is packed into one int, wide enough per variable for the
largest exponent sum, so adding exponents is one int addition. A factor
with one term needs no sums: the product moves and scales each term of the
other factor, in its key order, as ``product_terms`` would (a field has no
zero divisors, so no term vanishes); a factor one returns the other, and a
zero factor gives zero. A MultiPoly product keeps its own terms outermost,
a TruncatedPoly product the sparser factor's. Sums, differences and every
other summing loop go through ``add_terms``.

A rational function keeps its denominator monic in its leading term. The
constructor finds that term and scales by its inverse; sums, products and
negations do not search for it, because the canonical order is graded and
invariant under adding an exponent (a < b implies a + c < b + c), so the
leading term of a product is the product of the leading terms and a
product of monic polynomials is monic. A sum with a zero operand is the
other operand, and a zero numerator gets denominator one.

The canonical term order used everywhere (printing, leading terms, matrix
bases) is ascending total degree with ties broken by descending lexicographic
exponent comparison, so within a degree the variable declared first carries
the highest power first.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import chain
from operator import add, lshift, lt, mul, neg, sub

from .errors import ContextMismatch, DivisionByZero, UnknownVariable
from .gf import FqContext, FqScalar

# a product whose factors both have at least this many terms adds exponents
# packed into ints: an output term then tends to collect several products,
# and the cheaper sum per pair repays packing each input exponent and
# unpacking each output one; with a smaller factor the tuple sums win
PACKED_MIN_TERMS = 8

# the bound of a variable that is not truncated: no exponent reaches it
NO_BOUND = sys.maxsize


def term_key(exps: tuple[int, ...]):
    """Sort key of the canonical term order."""
    return (sum(exps), tuple(map(neg, exps)))


def sorted_terms(terms: dict):
    return sorted(terms.items(), key=lambda kv: term_key(kv[0]))


def add_terms(out: dict, items, plus, minus=None) -> dict:
    """Sum (exponent, value) items into the term dict out, in place, and
    return it: an existing value becomes plus(value, item), and a key whose
    sum cancels is deleted at once, so keys come out in the order of a
    term-by-term sum. With minus the items are subtracted: plus is then
    the difference, and a new key takes minus(item)."""
    get = out.get
    for e, c in items:
        s = get(e)
        if s is None:
            out[e] = c if minus is None else minus(c)
        elif c := plus(s, c):
            out[e] = c
        else:
            del out[e]
    return out


def product_terms(left: dict, right: dict, reduce, lazy: int, bounds=None) -> dict:
    """Nonzero reduced terms of the product of two term dicts, left's terms
    outermost: each output term sums its products in order, reduced after
    every lazy rows and at the end. With bounds, exponents past them drop."""
    out: dict = {}
    get = out.get
    right = right.items()
    rows = 0
    for e1, c1 in left.items():
        if rows == lazy:
            for e, c in out.items():
                out[e] = reduce(c)
            rows = 0
        rows += 1
        if bounds is None:
            for e2, c2 in right:
                e = tuple(map(add, e1, e2))
                s = get(e)
                out[e] = c1 * c2 if s is None else s + c1 * c2
        else:
            for e2, c2 in right:
                e = tuple(map(add, e1, e2))
                if all(map(lt, e, bounds)):
                    s = get(e)
                    out[e] = c1 * c2 if s is None else s + c1 * c2
    return {e: v for e, c in out.items() if (v := reduce(c))}


def _packed_terms(left: dict, right: dict, reduce, lazy: int, bounds=None) -> dict:
    """product_terms with each exponent tuple packed into one int, `width`
    bits per variable, so an exponent sum is one int addition. Same
    products in the same order, so the same terms in the same order; the
    bounds filter the unpacked exponents."""
    top = max(chain.from_iterable(left)) + max(chain.from_iterable(right))
    width = top.bit_length()
    shifts = [width * i for i in range(len(next(iter(left))))]
    out: dict = {}
    get = out.get
    right = [(sum(map(lshift, e, shifts)), c) for e, c in right.items()]
    rows = 0
    for e1, c1 in left.items():
        if rows == lazy:
            for k, c in out.items():
                out[k] = reduce(c)
            rows = 0
        rows += 1
        k1 = sum(map(lshift, e1, shifts))
        for k2, c2 in right:
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    mask = (1 << width) - 1
    terms = zip(zip(*[[k >> s & mask for k in out] for s in shifts]), out.values())
    if bounds is not None:
        terms = [(e, c) for e, c in terms if all(map(lt, e, bounds))]
    return {e: v for e, c in terms if (v := reduce(c))}


def product(f: "TruncatedPoly", g: "TruncatedPoly") -> "TruncatedPoly":
    """f * g for two elements of one ring, f's terms outermost: the terms,
    in order, of product_terms with the ring's bounds as its filter, by the
    shortcuts of the module docstring."""
    ring = f.ring
    a, b = f.terms, g.terms
    dom = ring.dom
    if len(a) > 1 and len(b) > 1:
        terms = _packed_terms if min(len(a), len(b)) >= PACKED_MIN_TERMS else product_terms
        return ring.element(terms(a, b, dom.reduce, dom.lazy, ring.filter))
    if not a:
        return f
    if not b:
        return g
    # a single-term factor moves and scales each term of the other factor,
    # keeping its key order and product_terms' order of each coefficient
    # product; a field has no zero divisors, so no term vanishes
    if len(b) == 1:
        (e2, c2), = b.items()
        if dom.is_one(c2) and not any(e2):
            return f
        pairs = [(tuple(map(add, e1, e2)), c1 * c2) for e1, c1 in a.items()]
    else:
        (e1, c1), = a.items()
        if dom.is_one(c1) and not any(e1):
            # one: the denominator of every polynomial entry of a rational
            # function
            return g
        pairs = [(tuple(map(add, e1, e2)), c1 * c2) for e2, c2 in b.items()]
    reduce, bounds = dom.reduce, ring.filter
    if bounds is not None:
        pairs = [(e, c) for e, c in pairs if all(map(lt, e, bounds))]
    return ring.element({e: reduce(c) for e, c in pairs})


def power(one, base, n: int, times=mul):
    """base**n for n >= 0 by square and multiply, starting from one; every
    product is times(a, b)."""
    out = one
    while n:
        if n & 1:
            out = times(out, base)
        if n > 1:
            base = times(base, base)
        n >>= 1
    return out


class FqDomain:
    """Coefficient domain of raw field values; ``coerce`` takes the public
    ones, of the types in ``consts``."""

    zero, one = 0, 1
    consts = (int, FqScalar)

    def __init__(self, ctx: FqContext):
        self.ctx = ctx
        self.reduce, self.lazy = ctx.reduce, ctx.lazy
        self.add, self.sub = ctx.add, ctx.sub
        self.neg, self.inverse = ctx.neg, ctx.inv

    def __eq__(self, other):
        return isinstance(other, FqDomain) and self.ctx == other.ctx

    def __hash__(self):
        return hash(("FqDomain", self.ctx))

    def coerce(self, v) -> int:
        return self.ctx.raw(v)

    @staticmethod
    def from_raw(x: int) -> int:
        return x

    @staticmethod
    def is_one(c) -> bool:
        return c == 1

    @staticmethod
    def poly_terms(c) -> int:
        """Polynomial terms a coefficient holds: none, it is a field value."""
        return 0


class TruncatedRing:
    """Immutable ring descriptor: coefficient domain plus ordered variable
    blocks, each variable v of a block with v^bound = 0 (no relation for
    NO_BOUND). Terms at or above a bound are dropped, which is exactly
    reduction in the quotient ring."""

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
        # the products' filter, None where no variable is truncated; such a
        # ring over the field holds MultiPoly elements
        self.filter = None if min(bounds, default=NO_BOUND) == NO_BOUND else self.bounds
        self.element_class = (
            MultiPoly if self.filter is None and isinstance(self.dom, FqDomain)
            else TruncatedPoly)

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
        parts = ", ".join("/".join(n) + ("" if b == NO_BOUND else f"^<{b}")
                          for n, b in self.blocks)
        return f"TruncatedRing({parts})"

    def var_index(self, name: str) -> int:
        i = self._index.get(name)
        if i is None:
            raise UnknownVariable(f"variable {name!r} not in ring {self!r}")
        return i

    def in_bounds(self, exps) -> bool:
        return self.filter is None or all(map(lt, exps, self.filter))

    def element(self, terms: dict) -> "TruncatedPoly":
        """The element holding terms as they are, for a producer whose terms
        are already nonzero and inside the bounds; TruncatedPoly's
        constructor filters, this does not."""
        f = object.__new__(self.element_class)
        f.ring = self
        f.terms = terms
        return f

    @property
    def zero(self) -> "TruncatedPoly":
        return self.element({})

    @property
    def one(self) -> "TruncatedPoly":
        return self.element({(0,) * len(self.vars): self.dom.one})

    def const(self, c) -> "TruncatedPoly":
        return self.monomial((0,) * len(self.vars), c)

    def var(self, name: str, exp: int = 1) -> "TruncatedPoly":
        i = self.var_index(name)
        return self.monomial(tuple(exp if j == i else 0 for j in range(len(self.vars))))

    def monomial(self, exps, c=1) -> "TruncatedPoly":
        v, exps = self.dom.coerce(c), tuple(exps)
        return self.element({exps: v} if v and self.in_bounds(exps) else {})


class TruncatedPoly:
    """Element of a TruncatedRing; terms map exponents to nonzero values of
    ring.dom, taken as given (public field elements go through ring.const).

    An operand is an element of the same ring or a constant of a type in
    ring.dom.consts; any other operand gives NotImplemented, and an element
    of another ring raises ContextMismatch (equality: False) unless this
    polynomial is a constant of that ring, whose reflected method then
    takes it."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: TruncatedRing, terms: dict):
        self.ring = ring
        in_bounds = ring.in_bounds
        self.terms = {e: c for e, c in terms.items() if c and in_bounds(e)}

    def _coerce(self, other):
        """other as an element of this ring, or None for an operand of no
        supported type."""
        ring = self.ring
        if isinstance(other, TruncatedPoly):
            if other.ring is ring or other.ring == ring:
                return other
            if not isinstance(other, ring.dom.consts):
                if isinstance(self, other.ring.dom.consts):
                    return None
                raise ContextMismatch("elements of different rings")
        elif not isinstance(other, ring.dom.consts):
            return None
        return ring.const(other)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ring = self.ring
        return ring.element(add_terms(dict(self.terms), o.terms.items(), ring.dom.add))

    __radd__ = __add__

    def __neg__(self):
        neg = self.ring.dom.neg
        return self.ring.element({e: neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ring, dom = self.ring, self.ring.dom
        return ring.element(add_terms(dict(self.terms), o.terms.items(), dom.sub, dom.neg))

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # the sparser factor outermost
        return product(o, self) if len(o.terms) < len(self.terms) else product(self, o)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return power(self.ring.one, self, n)

    def scale(self, c) -> "TruncatedPoly":
        """Product with a domain value, taken as given (over the field, raw)."""
        ring = self.ring
        if not c:
            return ring.zero
        # a product of nonzero values of a field is nonzero
        reduce = ring.dom.reduce
        return ring.element({e: reduce(v * c) for e, v in self.terms.items()})

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except ContextMismatch:
            return False
        return NotImplemented if o is None else self.terms == o.terms

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


class MultiPoly(TruncatedPoly):
    """Polynomial in named variables over the field: an element of
    poly_ring(ctx, vars). Its product keeps its own terms outermost, and
    ``coeff`` gives FqScalar values."""

    __slots__ = ()

    def __init__(self, ctx: FqContext, vars: tuple[str, ...], terms: dict):
        """terms maps exponent tuples to nonzero reduced raw values (see
        gf); field elements in other forms go through ctx.raw first."""
        self.ring = poly_ring(ctx, tuple(vars))
        self.terms = terms

    @classmethod
    def zero(cls, ctx, vars) -> "MultiPoly":
        return poly_ring(ctx, tuple(vars)).zero

    @classmethod
    def one(cls, ctx, vars) -> "MultiPoly":
        return poly_ring(ctx, tuple(vars)).one

    @classmethod
    def const(cls, ctx, vars, c) -> "MultiPoly":
        """Constant polynomial of a field element: FqScalar, int or digits."""
        return poly_ring(ctx, tuple(vars)).const(c)

    @classmethod
    def var(cls, ctx, vars, name: str, exp: int = 1) -> "MultiPoly":
        return poly_ring(ctx, tuple(vars)).var(name, exp)

    @property
    def ctx(self) -> FqContext:
        return self.ring.ctx

    @property
    def vars(self) -> tuple[str, ...]:
        return self.ring.vars

    def __mul__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else product(self, o)

    __rmul__ = __mul__

    def _is_one(self) -> bool:
        terms = self.terms
        return len(terms) == 1 and terms.get((0,) * len(self.ring.vars)) == 1

    def coeff(self, exps: tuple[int, ...]) -> FqScalar:
        return FqScalar(self.ring.ctx, self.terms.get(tuple(exps), 0))

    def monomial_content(self) -> tuple[int, ...]:
        """Componentwise minimum exponent over all terms (zero poly gives zeros)."""
        if not self.terms:
            return (0,) * len(self.ring.vars)
        mins = None
        for e in self.terms:
            mins = e if mins is None else tuple(map(min, mins, e))
        return mins

    def shift_down(self, shift: tuple[int, ...]) -> "MultiPoly":
        """Divide by the monomial with the given exponents."""
        out = {}
        for e, c in self.terms.items():
            ne = tuple(a - b for a, b in zip(e, shift))
            if any(x < 0 for x in ne):
                raise ValueError("monomial shift is not exact")
            out[ne] = c
        return self.ring.element(out)


@lru_cache(maxsize=None)
def poly_ring(ctx: FqContext, vars: tuple[str, ...]) -> TruncatedRing:
    """The untruncated ring F_q[vars], one per field and variable tuple;
    its elements are MultiPoly."""
    return TruncatedRing(ctx, [(vars, NO_BOUND)])


def _same_ring(f: TruncatedPoly, g: TruncatedPoly) -> None:
    if g.ring is not f.ring and g.ring != f.ring:
        raise ContextMismatch("polynomials from different rings")


class RationalFunc:
    """Quotient of MultiPoly values; denominator kept monic in its last term
    in canonical order, and one for a zero numerator.

    The constructor normalises: it finds the denominator's leading term and
    scales both sides by the inverse of its coefficient. Sums, products,
    negations and ``from_poly`` skip that search. The canonical order is
    graded and invariant under adding an exponent, so the leading term of
    a product is the product of the leading terms, and a product of monic
    denominators is monic: ``_monic`` takes such a pair as it is. A sum
    with a zero operand is the other operand. ``inverse`` and
    ``textform.parse_ratfunc``, whose denominators are not monic products,
    keep the normalising constructor.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        _same_ring(num, den)
        if not den:
            raise DivisionByZero("zero denominator")
        if not num:
            den = num.ring.one
        else:
            lc = den.terms[max(den.terms, key=term_key)]
            if lc != 1:
                inv = num.ring.ctx.inv(lc)
                num = num.scale(inv)
                den = den.scale(inv)
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, num: MultiPoly) -> "RationalFunc":
        return cls._monic(num, num.ring.one)

    @classmethod
    def _monic(cls, num: MultiPoly, den: MultiPoly) -> "RationalFunc":
        """num / den for a monic den of the same ring, taken as given; a zero
        numerator gets denominator one."""
        f = cls.__new__(cls)
        f.num = num
        f.den = den if num.terms else num.ring.one
        return f

    @property
    def ctx(self):
        return self.num.ring.ctx

    @property
    def vars(self):
        return self.num.ring.vars

    def _coerce(self, other):
        if isinstance(other, RationalFunc):
            _same_ring(self.num, other.num)
            return other
        if isinstance(other, MultiPoly):
            return RationalFunc.from_poly(other)
        if isinstance(other, (int, FqScalar)):
            return RationalFunc.from_poly(self.num.ring.const(other))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not o.num:
            return self
        if not self.num:
            return o
        return RationalFunc._monic(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunc._monic(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RationalFunc._monic(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def inverse(self) -> "RationalFunc":
        if not self.num:
            raise DivisionByZero("inverse of the zero rational function")
        return RationalFunc(self.den, self.num)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return power(RationalFunc.from_poly(self.num.ring.one), self, n)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.num * o.den == o.num * self.den

    def __bool__(self):
        return bool(self.num)

    def is_zero(self) -> bool:
        return not self.num

    def __repr__(self):
        from .textform import format_ratfunc

        return format_ratfunc(self)


class RatFuncDomain:
    """Coefficient domain of rational functions in fixed variables (exact)."""

    lazy = sys.maxsize
    reduce = staticmethod(lambda c: c)
    add, sub, neg = staticmethod(add), staticmethod(sub), staticmethod(neg)
    consts = (int, FqScalar, RationalFunc, MultiPoly)

    def __init__(self, ctx: FqContext, vars: tuple[str, ...]):
        self.ctx = ctx
        self.vars = tuple(vars)
        self.ring = poly_ring(ctx, self.vars)

    def __eq__(self, other):
        return (
            isinstance(other, RatFuncDomain)
            and self.ctx == other.ctx
            and self.vars == other.vars
        )

    def __hash__(self):
        return hash(("RatFuncDomain", self.ctx, self.vars))

    @property
    def zero(self):
        return RationalFunc.from_poly(self.ring.zero)

    @property
    def one(self):
        return RationalFunc.from_poly(self.ring.one)

    def coerce(self, v):
        if isinstance(v, RationalFunc):
            if v.ctx != self.ctx or v.vars != self.vars:
                raise ContextMismatch("rational function from a different ring")
            return v
        if isinstance(v, MultiPoly):
            return RationalFunc.from_poly(v)
        return RationalFunc.from_poly(self.ring.const(v))

    def from_raw(self, x: int) -> "RationalFunc":
        return RationalFunc.from_poly(self.ring.element({(0,) * len(self.vars): x} if x else {}))

    @staticmethod
    def is_one(c) -> bool:
        """Whether c is one as held, 1/1: x/x is not, and a product by it
        keeps its (num, den) pairs."""
        return c.num._is_one() and c.den._is_one()

    @staticmethod
    def inverse(c):
        return c.inverse()

    @staticmethod
    def poly_terms(c) -> int:
        """Polynomial terms a coefficient holds: its numerator's and its
        denominator's."""
        return len(c.num.terms) + len(c.den.terms)
