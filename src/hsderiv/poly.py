"""Sparse multivariate polynomials and rational functions over F_{p^d}.

Terms map exponent tuples to nonzero coefficients, each held as the field's
raw value: one int with digit i at bit offset ``ctx.width * i`` (for d = 1
the int in [0, p) itself). A product f*g sums the unreduced coefficient
products for each exponent and reduces once per output term. An output
term collects at most one product per term of f, and a plain sum of a
reduced value and up to ``ctx.lazy`` products is exact, so the sums are
also reduced after every ``ctx.lazy`` terms of f (never over a prime
field, whose ``lazy`` is unbounded). That loop, ``product_terms``, is
also the truncated rings' product. When both factors have at least
PACKED_MIN_TERMS terms, each exponent tuple is packed into one int, wide
enough per variable for the largest exponent sum, so adding exponents is
one int addition. A factor with one term needs no sums: the product moves
and scales each term of the other factor, in its key order, as
``product_terms`` would (a field has no zero divisors, so no term
vanishes); a factor one returns the other, and a zero factor gives zero.
FqScalar views are made only at the boundary (``coeff``, and each printed
coefficient in textform).

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
from itertools import chain
from operator import add, lshift, lt, mul, neg

from .errors import ContextMismatch, DivisionByZero
from .gf import FqContext, FqScalar

# a product whose factors both have at least this many terms adds exponents
# packed into ints: an output term then tends to collect several products,
# and the cheaper sum per pair repays packing each input exponent and
# unpacking each output one; with a smaller factor the tuple sums win
PACKED_MIN_TERMS = 8

def term_key(exps: tuple[int, ...]):
    """Sort key of the canonical term order."""
    return (sum(exps), tuple(map(neg, exps)))


def sorted_terms(terms: dict):
    return sorted(terms.items(), key=lambda kv: term_key(kv[0]))


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
    """Coefficient domain of raw field values; ``coerce`` takes public ones."""

    zero, one = 0, 1

    def __init__(self, ctx: FqContext):
        self.ctx = ctx
        self.reduce, self.lazy = ctx.reduce, ctx.lazy
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
    def is_zero(c) -> bool:
        return not c

    @staticmethod
    def poly_terms(c) -> int:
        """Polynomial terms a coefficient holds: none, it is a field value."""
        return 0


class RatFuncDomain:
    """Coefficient domain of rational functions in fixed variables (exact)."""

    lazy = sys.maxsize
    reduce = staticmethod(lambda c: c)
    neg = staticmethod(neg)

    def __init__(self, ctx: FqContext, vars: tuple[str, ...]):
        self.ctx = ctx
        self.vars = tuple(vars)

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
        return RationalFunc.from_poly(MultiPoly.zero(self.ctx, self.vars))

    @property
    def one(self):
        return RationalFunc.from_poly(MultiPoly.one(self.ctx, self.vars))

    def coerce(self, v):
        if isinstance(v, RationalFunc):
            if v.ctx != self.ctx or v.vars != self.vars:
                raise ContextMismatch("rational function from a different ring")
            return v
        if isinstance(v, MultiPoly):
            return RationalFunc.from_poly(v)
        return RationalFunc.from_poly(MultiPoly.const(self.ctx, self.vars, v))

    def from_raw(self, x: int) -> "RationalFunc":
        return RationalFunc.from_poly(
            MultiPoly(self.ctx, self.vars, {(0,) * len(self.vars): x} if x else {}))

    @staticmethod
    def is_zero(c) -> bool:
        return not c

    @staticmethod
    def inverse(c):
        return c.inverse()

    @staticmethod
    def poly_terms(c) -> int:
        """Polynomial terms a coefficient holds: its numerator's and its
        denominator's."""
        return len(c.num.terms) + len(c.den.terms)


class MultiPoly:
    """Polynomial in named variables; terms hold no zero coefficients."""

    __slots__ = ("ctx", "vars", "terms")

    def __init__(self, ctx: FqContext, vars: tuple[str, ...], terms: dict):
        """terms maps exponent tuples to nonzero reduced raw values (see
        gf); field elements in other forms go through ctx.raw first."""
        self.ctx = ctx
        self.vars = tuple(vars)
        self.terms = terms

    @classmethod
    def zero(cls, ctx, vars) -> "MultiPoly":
        return cls(ctx, vars, {})

    @classmethod
    def one(cls, ctx, vars) -> "MultiPoly":
        vars = tuple(vars)
        return cls(ctx, vars, {(0,) * len(vars): 1})

    @classmethod
    def const(cls, ctx, vars, c) -> "MultiPoly":
        """Constant polynomial of a field element: FqScalar, int or digits."""
        vars = tuple(vars)
        v = ctx.raw(c)
        return cls(ctx, vars, {(0,) * len(vars): v} if v else {})

    @classmethod
    def var(cls, ctx, vars, name: str, exp: int = 1) -> "MultiPoly":
        vars = tuple(vars)
        i = vars.index(name)
        e = tuple(exp if j == i else 0 for j in range(len(vars)))
        return cls(ctx, vars, {e: 1})

    def _check(self, other: "MultiPoly"):
        if (other.ctx is not self.ctx and other.ctx != self.ctx) or other.vars != self.vars:
            raise ContextMismatch("polynomials from different rings")

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            self._check(other)
            return other
        if isinstance(other, (int, FqScalar)):
            return MultiPoly.const(self.ctx, self.vars, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        reduce = self.ctx.reduce
        out = dict(self.terms)
        for e, c in o.terms.items():
            s = out.get(e)
            out[e] = c if s is None else reduce(s + c)
        return MultiPoly(self.ctx, self.vars, {e: c for e, c in out.items() if c})

    __radd__ = __add__

    def __neg__(self):
        neg = self.ctx.neg
        return MultiPoly(
            self.ctx, self.vars, {e: neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is MultiPoly and other.ctx is self.ctx and other.vars == self.vars:
            o = other
        else:
            o = self._coerce(other)
            if o is NotImplemented:
                return NotImplemented
        ctx, a, b = self.ctx, self.terms, o.terms
        if len(a) > 1 and len(b) > 1:
            if min(len(a), len(b)) >= PACKED_MIN_TERMS:
                return self._mul_packed(o)
            return MultiPoly(ctx, self.vars, product_terms(a, b, ctx.reduce, ctx.lazy))
        if not a or not b:
            return MultiPoly(ctx, self.vars, {})
        # a single-term factor moves and scales each term of the other
        # factor, keeping its key order as product_terms would; a field has
        # no zero divisors, so no term vanishes
        single, f = (b, self) if len(b) == 1 else (a, o)
        (e, c), = single.items()
        if c == 1 and not any(e):
            # one: the denominator of every polynomial entry of a rational
            # function
            return f
        reduce = ctx.reduce
        return MultiPoly(
            ctx, self.vars, {tuple(map(add, e1, e)): reduce(c1 * c) for e1, c1 in f.terms.items()})

    __rmul__ = __mul__

    def _mul_packed(self, o: "MultiPoly") -> "MultiPoly":
        """__mul__ with each exponent tuple packed into one int, `width`
        bits per variable, so an exponent sum is one int addition. Same
        products in the same order, so the same terms in the same order."""
        ctx = self.ctx
        reduce, lazy = ctx.reduce, ctx.lazy
        top = max(chain.from_iterable(self.terms)) + max(chain.from_iterable(o.terms))
        width = top.bit_length()
        shifts = [width * i for i in range(len(self.vars))]
        out: dict = {}
        get = out.get
        right = [(sum(map(lshift, e, shifts)), c) for e, c in o.terms.items()]
        rows = 0
        for e1, c1 in self.terms.items():
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
        cols = [[k >> s & mask for k in out] for s in shifts]
        return MultiPoly(
            ctx, self.vars, {e: v for e, c in zip(zip(*cols), out.values()) if (v := reduce(c))})

    def _is_one(self) -> bool:
        terms = self.terms
        return len(terms) == 1 and terms.get((0,) * len(self.vars)) == 1

    def scale(self, c: int) -> "MultiPoly":
        """Product with a nonzero raw value."""
        reduce = self.ctx.reduce
        return MultiPoly(
            self.ctx, self.vars, {e: reduce(v * c) for e, v in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return power(MultiPoly.one(self.ctx, self.vars), self, n)

    def __eq__(self, other):
        if isinstance(other, (int, FqScalar)):
            other = MultiPoly.const(self.ctx, self.vars, other)
        return (
            isinstance(other, MultiPoly)
            and self.ctx == other.ctx
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, exps: tuple[int, ...]) -> FqScalar:
        return FqScalar(self.ctx, self.terms.get(tuple(exps), 0))

    def monomial_content(self) -> tuple[int, ...]:
        """Componentwise minimum exponent over all terms (zero poly gives zeros)."""
        if not self.terms:
            return (0,) * len(self.vars)
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
        return MultiPoly(self.ctx, self.vars, out)

    def __repr__(self):
        from .textform import format_poly

        return format_poly(self)


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
        num._check(den)
        if not den:
            raise DivisionByZero("zero denominator")
        if not num:
            den = MultiPoly.one(num.ctx, num.vars)
        else:
            lc = den.terms[max(den.terms, key=term_key)]
            if lc != 1:
                inv = num.ctx.inv(lc)
                num = num.scale(inv)
                den = den.scale(inv)
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, num: MultiPoly) -> "RationalFunc":
        return cls._monic(num, MultiPoly.one(num.ctx, num.vars))

    @classmethod
    def _monic(cls, num: MultiPoly, den: MultiPoly) -> "RationalFunc":
        """num / den for a monic den of the same ring, taken as given; a zero
        numerator gets denominator one."""
        f = cls.__new__(cls)
        f.num = num
        f.den = den if num.terms else MultiPoly.one(num.ctx, num.vars)
        return f

    @property
    def ctx(self):
        return self.num.ctx

    @property
    def vars(self):
        return self.num.vars

    def _coerce(self, other):
        if isinstance(other, RationalFunc):
            self.num._check(other.num)
            return other
        if isinstance(other, MultiPoly):
            return RationalFunc.from_poly(other)
        if isinstance(other, (int, FqScalar)):
            return RationalFunc.from_poly(MultiPoly.const(self.ctx, self.vars, other))
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
        one = RationalFunc.from_poly(MultiPoly.one(self.ctx, self.vars))
        return power(one, self, n)

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
