"""Arithmetic in F_{p^d}: scalar arithmetic on raw values, digit-vector numpy
kernels, the multinomial and carry coefficients mod p.

An element is d digits in [0, p), the coefficients (ascending) of a
polynomial in g reduced by a fixed monic irreducible modulus of degree d.
Its raw value is one Python int holding digit i at bit offset W*i, W =
``FqContext.width``; for d = 1 it is the int in [0, p) itself. The product
of two raw values is the digit convolution at the same offsets, so a plain
sum of one reduced value and up to LAZY_PRODUCTS such products stays exact
(W is sized for it from p and d), and ``FqContext.reduce`` folds it back to
a reduced raw value once. FqScalar is a view of one raw value.

All numpy arrays carrying field elements use a trailing axis of length d
holding the digits; every kernel is exact integer arithmetic reduced mod p.
The one place floats enter is the matrix product (``FqContext.mat_mul``):
a large product runs on float64 BLAS while every partial sum stays below
2^53, where float64 holds integers exactly, and is cast back to int64
before it is reduced. A product past that bound, or too small to repay
the casts, stays on int64.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np

from .errors import ContextMismatch, DivisionByZero, ResourceGuard

# unreduced products a lazy sum over an extension field may hold before it
# is reduced (FqContext.width is sized for it)
LAZY_PRODUCTS = 128

# temporary entries (float64 operand and result, int64 quotient) one row
# block of a float64 product may hold
FLOAT_BLOCK = 1 << 16

# the least n*m*(k+8)*d^2 of a product that goes to float64 BLAS: numpy's
# int64 product costs about a multiply-add per unit, the k+8 counting each
# output's own overhead, against a fixed cost of the casts and calls
FLOAT_MIN_WORK = 1 << 15


def exact_in_float64(k: int, p: int) -> bool:
    """Whether a float64 matrix product with inner dimension k of integers in
    [0, p) is exact: every partial sum stays below 2^53."""
    return k * (p - 1) ** 2 < 2**53


def float_pays(n: int, k: int, m: int, d: int) -> bool:
    """Whether an n x k by k x m product of F_{p^d} matrices (n counting the
    rows of a whole stack) is large enough for float64 BLAS to repay the
    casts. Vectors and rank-1 products never are. Set from per-shape
    timings; the table is in CHANGES.md."""
    return n > 1 and k > 1 and m > 1 and n * m * (k + 8) * d * d >= FLOAT_MIN_WORK


# Miller-Rabin to the prime bases up to 41 decides primality exactly below
# 3.3e24 (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether n is prime, by Miller-Rabin to the bases above, O(log n)
    products each. Past the exact range a base that proves n composite still
    answers False, and a strong probable prime raises ResourceGuard rather
    than a guess: no guard admits a p that large."""
    if n < 2 or n in _MR_BASES or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2^s exactly divides n - 1
    for b in _MR_BASES:
        x = pow(b, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    if n >= _MR_EXACT_BELOW:
        raise ResourceGuard(f"primality is decided only below {_MR_EXACT_BELOW}; got {n}")
    return True


def multinomial_mod_p(parts: tuple[int, ...], p: int) -> int:
    """(sum parts)! / prod(parts_i!) computed as an exact integer, then mod p."""
    total = sum(parts)
    val = math.factorial(total)
    for a in parts:
        val //= math.factorial(a)
    return val % p


@lru_cache(maxsize=None)
def lambda_coeffs(p: int) -> tuple[int, ...]:
    """Coefficients (lambda_1 .. lambda_{p-1}) with lambda_i = C(p,i)/p mod p.

    These are the coefficients of the degree-p carry polynomial
    sum_i lambda_i x^i y^{p-i} = ((x+y)^p - x^p - y^p)/p taken mod p.
    """
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    return tuple((math.comb(p, i) // p) % p for i in range(1, p))


def _poly_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a by monic b, coefficients ascending, over F_p."""
    a = [c % p for c in a]
    db = len(b) - 1
    while len(a) > db:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - db
            for i in range(db + 1):
                a[shift + i] = (a[shift + i] - lead * b[i]) % p
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_mod(out, f, p)


def _poly_is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Rabin's test for monic f of degree d: f divides x^(p^d) - x and is
    coprime to x^(p^(d/q)) - x for every prime q dividing d."""
    f = list(coeffs)
    d = len(f) - 1
    frob = [_poly_mod([0, 1], f, p)]  # frob[k] = x^(p^k) mod f
    for _ in range(d):
        out, base, n = [1], frob[-1], p
        while n:
            if n & 1:
                out = _poly_mulmod(out, base, f, p)
            base = _poly_mulmod(base, base, f, p)
            n >>= 1
        frob.append(out)
    for q in range(2, d + 1):
        if d % q == 0 and is_prime(q):
            h = frob[d // q] + [0, 0]
            h[1] -= 1
            a, b = f, _poly_mod(h, f, p)
            while b:  # Euclid, each divisor made monic
                inv = pow(b[-1], p - 2, p)
                b = [c * inv % p for c in b]
                a, b = b, _poly_mod(a, b, p)
            if len(a) > 1:
                return False
    return frob[d] == frob[0]


def default_modulus(p: int, d: int) -> tuple[int, ...]:
    """First monic irreducible of degree d, constant coefficient varying fastest."""
    for n in range(p**d):
        low = []
        t = n
        for _ in range(d):
            low.append(t % p)
            t //= p
        cand = tuple(low) + (1,)
        if _poly_is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found")


class FqContext:
    """The field F_{p^d} with a fixed modulus; owns the scalar arithmetic on
    raw packed values and all digit-vector kernels."""

    def __init__(self, p: int, d: int = 1, modulus: tuple[int, ...] | None = None):
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if d < 1:
            raise ValueError("d must be >= 1")
        if d > 4:
            raise ValueError("extension degree d > 4 is not supported")
        if d * (p - 1) ** 2 > 2**62 - p:
            # one unreduced rank-1 update in linalg._eliminate adds up to
            # d*(p-1)^2 to an entry in [0, p), which must stay below 2^62
            raise ResourceGuard(
                f"p = {p}, d = {d}: d*(p-1)^2 exceeds 2^62 - p, past the int64 kernels")
        if modulus is None:
            modulus = default_modulus(p, d)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != d + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree d")
        if not _poly_is_irreducible(modulus, p):
            raise ValueError("modulus is reducible")
        self.p = p
        self.d = d
        self.q = p**d
        self.modulus = modulus
        # gpow[k] = digits of g^k mod modulus, for k up to 2d-2 (conv overflow range)
        gpow = [[0] * d for _ in range(2 * d - 1)]
        cur = [1] + [0] * (d - 1)
        for k in range(2 * d - 1):
            gpow[k] = list(cur)
            nxt = [0] + cur[: d - 1]
            if cur[d - 1]:
                lead = cur[d - 1]
                for i in range(d):
                    nxt[i] = (nxt[i] - lead * modulus[i]) % p
            cur = nxt
        self._fold = tuple(tuple(row) for row in gpow[d:])
        # red[r, s, t]: digits of g^r * g^s
        red = np.zeros((d, d, d), dtype=np.int64)
        for r in range(d):
            for s in range(d):
                red[r, s] = gpow[r + s]
        # _red_planes[s, r*d + t] = digit t of g^r * g^s
        self._red_planes = red.transpose(1, 0, 2).reshape(d, d * d)
        # a product of reduced values puts at most d*(p-1)^2 in each of its
        # 2d-1 convolution digits; a prime field has one digit, which no
        # sum overflows
        self.width = ((LAZY_PRODUCTS + 1) * d * (p - 1) ** 2).bit_length()
        self.lazy = LAZY_PRODUCTS if d > 1 else sys.maxsize
        if d == 1:
            # a prime field's raw value is the int in [0, p) itself, so its
            # reduction is one remainder; this closure shadows the method,
            # which folds digits. (p.__rmod__ would not do: it returns
            # NotImplemented for a numpy integer.)
            self.reduce = lambda x: x % p
        self._mask = (1 << self.width) - 1
        self._neg_base = self.pack((p,) * d)
        self._mulmat_cache: dict[tuple[int, ...], np.ndarray] = {}
        # the reduced sum and difference of two reduced values; p in every
        # digit keeps each digit of x - y nonnegative
        reduce, neg_base = self.reduce, self._neg_base
        self.add = lambda x, y: reduce(x + y)
        self.sub = lambda x, y: reduce(x + neg_base - y)

    def __eq__(self, other):
        return other is self or (
            isinstance(other, FqContext)
            and (self.p, self.d, self.modulus) == (other.p, other.d, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.d, self.modulus))

    def __repr__(self):
        return f"FqContext(p={self.p}, d={self.d})"

    def check_same(self, other: "FqContext") -> None:
        if other is not self and self != other:
            raise ContextMismatch(f"field contexts differ: {self} vs {other}")

    # scalar arithmetic on raw values

    def pack(self, digits) -> int:
        """Raw value of d digits in [0, p)."""
        out = 0
        for v in reversed(tuple(digits)):
            out = (out << self.width) | int(v)
        return out

    def unpack(self, x: int) -> tuple[int, ...]:
        """The d digits of a reduced raw value."""
        w, mask = self.width, self._mask
        return tuple((x >> (w * i)) & mask for i in range(self.d))

    def reduce(self, x: int) -> int:
        """Reduced raw value of a plain sum of products of reduced values
        (see ``lazy``): each digit mod p, the digits at g^d .. g^(2d-2)
        folded back through the modulus. Over a prime field the instance
        holds ``x % p`` in its place (see ``__init__``)."""
        p, d = self.p, self.d
        w, mask = self.width, self._mask
        out = [(x >> (w * t)) & mask for t in range(d)]
        x >>= w * d
        for row in self._fold:
            if not x:
                break
            c = x & mask
            if c:
                for t in range(d):
                    out[t] += c * row[t]
            x >>= w
        r = 0
        for v in reversed(out):
            r = (r << w) | (v % p)
        return r

    def neg(self, x: int) -> int:
        return self.reduce(self._neg_base - x)

    def pow(self, x: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(x), -n)
        if self.d == 1:
            return pow(x, n, self.p)
        out = 1
        while n:
            if n & 1:
                out = self.reduce(out * x)
            x = self.reduce(x * x)
            n >>= 1
        return out

    def inv(self, x: int) -> int:
        if not x:
            raise DivisionByZero("inverse of zero")
        return self.pow(x, self.q - 2)

    def raw(self, v) -> int:
        """Raw value of a field element given as an FqScalar, an integer
        (taken mod p) or a sequence of d digits."""
        if isinstance(v, FqScalar):
            self.check_same(v.ctx)
            return v.raw
        if isinstance(v, int):
            return v % self.p
        return self.pack(int(x) % self.p for x in v)

    def mul_matrix(self, c: tuple[int, ...]) -> np.ndarray:
        """d x d matrix M with (c*x)_digits = M @ x_digits."""
        key = tuple(c)
        m = self._mulmat_cache.get(key)
        if m is None:
            x = self.pack(key)
            cols = [self.unpack(self.reduce(x << (self.width * i))) for i in range(self.d)]
            m = np.array(cols, dtype=np.int64).T
            self._mulmat_cache[key] = m
        return m

    # numpy digit-array kernels; trailing axis has length d

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(tuple(shape) + (self.d,), dtype=np.int64)

    def arr_add(self, a, b):
        return (a + b) % self.p

    def arr_neg(self, a):
        return (-a) % self.p

    def arr_scale(self, c: tuple[int, ...], a: np.ndarray) -> np.ndarray:
        out = a * c[0] if self.d == 1 else a @ self.mul_matrix(c).T
        return np.remainder(out, self.p, out=out)

    def mat_mul(self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Field matrix product, a (..., n, k, d) @ b (k, m, d) -> (..., n, m, d),
        or a (n, k, d) @ b (..., k, m, d) -> (..., n, m, d).

        The one product kernel: every reduced field matrix product in the
        package goes through it. (The rank-1 updates inside
        ``linalg._eliminate`` stay unreduced; they use the fold, ``_folded``,
        directly.) Contract: every digit of a and b is an int64 in
        [0, p), and at most one of them is a stack. The result's digits
        are in [0, p).

        It is one matrix product of plain numbers. The d digit planes of a
        stand side by side, n x (d*k); b's planes are folded through the
        modulus into one (d*k) x (d*m) matrix whose block (r, t) is
        sum_s b_s * (digit t of g^r * g^s) mod p. Their product holds the
        d digits of the field product side by side, each a sum of d*k
        terms below (p-1)^2, and one reduction mod p finishes it. The
        result goes into out when it is given: a C-contiguous int64 array
        of the result's shape that overlaps neither operand.

        That product runs on float64 BLAS where it is exact, that is while
        every partial sum stays below 2^53: d*k*(p-1)^2 < 2^53
        (``exact_in_float64``; FFLAS-FFPACK, Dumas, Giorgi, Pernet, ACM
        TOMS 2008). Under the CLI's guards that always holds. It also has to
        be large enough to repay the casts (``float_pays``). The float
        result is cast to int64 before it is reduced, since reducing
        float64 costs several times the product itself. The stacked or
        taller operand goes through in row blocks written into the
        preallocated result, so the float copies never span a whole
        operand. Otherwise, for products that are too small or too long for
        float64, the same product runs on int64 with one plain ``@``: numpy
        hands int64 to no BLAS, and it is exact while d*k*(p-1)^2 < 2^63.
        There the fold, d^3 steps per entry, goes to the operand with fewer
        entries, which for a row vector is a: a b = (b^T a^T)^T, since the
        field is commutative. Past that bound (only for p near 2^31) the
        inner dimension is split into chunks of (2^63 - 1) // (d*(p-1)^2),
        and each chunk's product is reduced before the next is added.
        """
        if a.ndim > 3 and b.ndim > 3:
            raise ValueError("mat_mul takes at most one stack of matrices")
        p, d = self.p, self.d
        n, k = a.shape[-3], a.shape[-2]
        m = b.shape[-2]
        lead = a.shape[:-3] or b.shape[:-3]
        stack = math.prod(lead)
        if not (float_pays(stack * n, k, m, d) and exact_in_float64(d * k, p)):
            step = (2**63 - 1) // (d * (p - 1) ** 2)
            if k > step:
                out = self.mat_mul(a[..., :step, :], b[..., :step, :, :], out)
                for s in range(step, k, step):
                    out += self.mat_mul(a[..., s : s + step, :], b[..., s : s + step, :, :])
                    np.remainder(out, p, out=out)
                return out
            if d == 1:
                c = a[..., 0] @ b[..., 0]
                if out is None:
                    return (c % p)[..., None]
                np.remainder(c, p, out=out[..., 0])
                return out
            if a.size < b.size:
                # fold the operand with fewer entries: a b = (b^T a^T)^T
                c = self._planes(b.swapaxes(-2, -3)) @ self._folded(a.swapaxes(-2, -3))
                c = np.moveaxis(c.reshape(c.shape[:-1] + (d, n)), -1, -3)
            else:
                c = self._planes(a) @ self._folded(b)
                c = c.reshape(c.shape[:-1] + (d, m)).swapaxes(-1, -2)
            if out is None:
                out = np.empty(c.shape, dtype=np.int64)
            return np.remainder(c, p, out=out)
        if out is None:
            out = np.empty(lead + (n, m, d), dtype=np.int64)
        if b.ndim == 3:
            # the rows of a against one matrix b
            rows = stack * n
            self._blocks(a.reshape(rows, 1, k, d), b, out.reshape(rows, 1, m, d))
        else:
            # one matrix a against a stack: the transposed product, whose
            # rows are the columns of b, in blocks along the stack
            left = b.reshape(stack, k, m, d).swapaxes(1, 2)
            self._blocks(left, a.swapaxes(0, 1), out.reshape(stack, n, m, d).swapaxes(1, 2))
        return out

    def _blocks(self, left: np.ndarray, right: np.ndarray, out: np.ndarray) -> None:
        """out = left @ right on float64, for left (N, r, k, d), right
        (k, m, d) and out (N, r, m, d), in blocks along the first axis of
        about FLOAT_BLOCK temporary entries each."""
        p, d = self.p, self.d
        r, k = left.shape[1], left.shape[2]
        m = right.shape[1]
        step = max(1, FLOAT_BLOCK // (r * d * (k + 2 * m)))
        rhs = self._folded(right).astype(np.float64)
        for i in range(0, left.shape[0], step):
            lhs = self._planes(left[i : i + step], np.float64)
            c = lhs.reshape(lhs.shape[0] * r, d * k) @ rhs
            o = out[i : i + step]
            np.copyto(o.swapaxes(-1, -2), c.reshape(o.shape[:-2] + (d, m)), casting="unsafe")
            q = o // p
            q *= p
            o -= q

    def _planes(self, a: np.ndarray, dtype=np.int64) -> np.ndarray:
        """a (..., n, k, d) as (..., n, d*k): its digit planes side by side."""
        x = np.ascontiguousarray(a.swapaxes(-1, -2), dtype)
        return x.reshape(a.shape[:-2] + (self.d * a.shape[-2],))

    def _folded(self, b: np.ndarray) -> np.ndarray:
        """b (..., k, m, d) as (..., d*k, d*m) whose block (r, t) is
        sum_s b_s * (digit t of g^r * g^s) mod p: the map a -> a*b on
        side-by-side digit planes."""
        d = self.d
        if d == 1:
            return b[..., 0]
        lead, (k, m) = b.shape[:-3], b.shape[-3:-1]
        f = ((b @ self._red_planes) % self.p).reshape(lead + (k, m, d, d))
        f = np.moveaxis(f, (-4, -3, -2, -1), (-3, -1, -4, -2))
        return np.ascontiguousarray(f).reshape(lead + (d * k, d * m))

    def mat_vec(self, m: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Field matrix-vector product, m (n,k,d) @ v (k,d) -> (n,d)."""
        return self.mat_mul(m, v[..., None, :])[..., 0, :]

    def mat_eye(self, n: int) -> np.ndarray:
        out = self.zeros((n, n))
        out[np.arange(n), np.arange(n), 0] = 1
        return out

    # scalar views, for text and digit boundaries

    def scalar(self, v) -> "FqScalar":
        if isinstance(v, FqScalar):
            self.check_same(v.ctx)
            return v
        return FqScalar(self, self.raw(v))

    @property
    def zero(self) -> "FqScalar":
        return FqScalar(self, 0)

    @property
    def one(self) -> "FqScalar":
        return FqScalar(self, 1)

    @property
    def gen(self) -> "FqScalar":
        if self.d == 1:
            raise ValueError("prime field has no generator symbol g")
        return FqScalar(self, 1 << self.width)


class FqScalar:
    """Immutable element of F_{p^d}: a view of one reduced raw value."""

    __slots__ = ("ctx", "raw")

    def __init__(self, ctx: FqContext, raw: int):
        self.ctx = ctx
        self.raw = raw

    @property
    def digits(self) -> tuple[int, ...]:
        return self.ctx.unpack(self.raw)

    def _coerce(self, other):
        if isinstance(other, FqScalar):
            self.ctx.check_same(other.ctx)
            return other.raw
        if isinstance(other, int):
            return other % self.ctx.p
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FqScalar(self.ctx, self.ctx.reduce(self.raw + o))

    __radd__ = __add__

    def __neg__(self):
        return FqScalar(self.ctx, self.ctx.neg(self.raw))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FqScalar(self.ctx, self.ctx.reduce(self.raw + self.ctx.neg(o)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FqScalar(self.ctx, self.ctx.reduce(self.raw * o))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FqScalar(self.ctx, self.ctx.reduce(self.raw * self.ctx.inv(o)))

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        return FqScalar(self.ctx, self.ctx.pow(self.raw, n))

    def inverse(self) -> "FqScalar":
        return FqScalar(self.ctx, self.ctx.inv(self.raw))

    def is_zero(self) -> bool:
        return not self.raw

    def __bool__(self):
        return bool(self.raw)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.raw == other % self.ctx.p
        return (
            isinstance(other, FqScalar)
            and self.ctx == other.ctx
            and self.raw == other.raw
        )

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.d, self.ctx.modulus, self.digits))

    def __repr__(self):
        from .textform import format_scalar

        return format_scalar(self)
