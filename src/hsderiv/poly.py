"""Sparse multivariate polynomials and rational functions over F_{p^d}.

Terms map exponent tuples to nonzero coefficients. The canonical term order used
everywhere (printing, leading terms, matrix bases) is ascending total degree with
ties broken by descending lexicographic exponent comparison, so within a degree
the variable declared first carries the highest power first.
"""

from __future__ import annotations

from .errors import ContextMismatch, DivisionByZero
from .gf import FqContext, FqScalar


def term_key(exps: tuple[int, ...]):
    """Sort key of the canonical term order."""
    return (sum(exps), tuple(-e for e in exps))


def sorted_terms(terms: dict):
    return sorted(terms.items(), key=lambda kv: term_key(kv[0]))


class FqDomain:
    """Coefficient domain adapter for plain field scalars."""

    def __init__(self, ctx: FqContext):
        self.ctx = ctx

    def __eq__(self, other):
        return isinstance(other, FqDomain) and self.ctx == other.ctx

    def __hash__(self):
        return hash(("FqDomain", self.ctx))

    @property
    def zero(self):
        return self.ctx.zero

    @property
    def one(self):
        return self.ctx.one

    def coerce(self, v):
        return self.ctx.scalar(v)

    @staticmethod
    def is_zero(c) -> bool:
        return not c

    @staticmethod
    def inverse(c):
        return c.inverse()


class RatFuncDomain:
    """Coefficient domain adapter for rational functions in fixed variables."""

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
        return RationalFunc.from_poly(
            MultiPoly.const(self.ctx, self.vars, self.ctx.scalar(v))
        )

    @staticmethod
    def is_zero(c) -> bool:
        return not c

    @staticmethod
    def inverse(c):
        return c.inverse()


class MultiPoly:
    """Polynomial in named variables; terms hold no zero coefficients."""

    __slots__ = ("ctx", "vars", "terms")

    def __init__(self, ctx: FqContext, vars: tuple[str, ...], terms: dict):
        self.ctx = ctx
        self.vars = tuple(vars)
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def zero(cls, ctx, vars) -> "MultiPoly":
        return cls(ctx, vars, {})

    @classmethod
    def one(cls, ctx, vars) -> "MultiPoly":
        return cls.const(ctx, vars, ctx.one)

    @classmethod
    def const(cls, ctx, vars, c: FqScalar) -> "MultiPoly":
        vars = tuple(vars)
        return cls(ctx, vars, {(0,) * len(vars): c})

    @classmethod
    def var(cls, ctx, vars, name: str, exp: int = 1) -> "MultiPoly":
        vars = tuple(vars)
        i = vars.index(name)
        e = tuple(exp if j == i else 0 for j in range(len(vars)))
        return cls(ctx, vars, {e: ctx.one})

    def _check(self, other: "MultiPoly"):
        if self.ctx != other.ctx or self.vars != other.vars:
            raise ContextMismatch("polynomials from different rings")

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            self._check(other)
            return other
        if isinstance(other, (int, FqScalar)):
            return MultiPoly.const(self.ctx, self.vars, self.ctx.scalar(other))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in o.terms.items():
            s = out.get(e)
            out[e] = c if s is None else s + c
        return MultiPoly(self.ctx, self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.ctx, self.vars, {e: -c for e, c in self.terms.items()})

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
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = out.get(e)
                out[e] = c if s is None else s + c
        return MultiPoly(self.ctx, self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = MultiPoly.one(self.ctx, self.vars)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, FqScalar)):
            other = MultiPoly.const(self.ctx, self.vars, self.ctx.scalar(other))
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
        return self.terms.get(tuple(exps), self.ctx.zero)

    def leading(self) -> tuple[tuple[int, ...], FqScalar]:
        """Final term in canonical order; only defined for nonzero polynomials."""
        if not self.terms:
            raise DivisionByZero("leading term of the zero polynomial")
        e = max(self.terms, key=term_key)
        return e, self.terms[e]

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
    """Quotient of MultiPoly values; denominator kept monic in the leading term."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        num._check(den)
        if not den:
            raise DivisionByZero("zero denominator")
        if not num:
            den = MultiPoly.one(num.ctx, num.vars)
        else:
            _, lc = den.leading()
            if lc != num.ctx.one:
                inv = lc.inverse()
                num = num * inv
                den = den * inv
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, num: MultiPoly) -> "RationalFunc":
        return cls(num, MultiPoly.one(num.ctx, num.vars))

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
            return RationalFunc.from_poly(
                MultiPoly.const(self.ctx, self.vars, self.ctx.scalar(other))
            )
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RationalFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunc(-self.num, self.den)

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
        return RationalFunc(self.num * o.num, self.den * o.den)

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
        out = RationalFunc.from_poly(MultiPoly.one(self.ctx, self.vars))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

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
