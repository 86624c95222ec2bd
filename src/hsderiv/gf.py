"""Arithmetic in F_{p^d}: scalar type, digit-vector numpy kernels, binomials mod p.

Scalars are vectors of d digits in [0, p) over a fixed monic irreducible modulus
(coefficients ascending, degree d). All numpy arrays carrying field elements use
a trailing axis of length d holding those digits; every kernel is exact integer
arithmetic reduced mod p. No floats anywhere.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ContextMismatch, DivisionByZero


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def binom_mod_p(n: int, k: int, p: int) -> int:
    """Binomial coefficient C(n, k) mod p by Lucas reduction on base-p digits."""
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if k < 0 or k > n:
        return 0
    out = 1
    while n or k:
        nd, kd = n % p, k % p
        if kd > nd:
            return 0
        out = out * (math.comb(nd, kd) % p) % p
        n //= p
        k //= p
    return out


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
    """The field F_{p^d} with a fixed modulus; owns all digit-vector kernels."""

    def __init__(self, p: int, d: int = 1, modulus: tuple[int, ...] | None = None):
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if d < 1:
            raise ValueError("d must be >= 1")
        if d > 4:
            raise ValueError("extension degree d > 4 is not supported")
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
        self._gpow = tuple(tuple(row) for row in gpow)
        # red[r, s, t]: digits of g^r * g^s
        red = np.zeros((d, d, d), dtype=np.int64)
        for r in range(d):
            for s in range(d):
                red[r, s] = gpow[r + s]
        self._red = red
        # Frobenius x -> x^p as an F_p-linear matrix on digits (columns frob(g^i))
        frob = np.zeros((d, d), dtype=np.int64)
        for i in range(d):
            col = self.s_pow((0,) * i + (1,) + (0,) * (d - 1 - i), p)
            frob[:, i] = col
        self._frob = frob
        inv = frob.copy()
        for _ in range(d - 2):
            inv = (inv @ frob) % p
        self._frob_inv = inv if d > 1 else frob
        self._mulmat_cache: dict[tuple[int, ...], np.ndarray] = {}

    def __eq__(self, other):
        return (
            isinstance(other, FqContext)
            and (self.p, self.d, self.modulus) == (other.p, other.d, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.d, self.modulus))

    def __repr__(self):
        return f"FqContext(p={self.p}, d={self.d})"

    def check_same(self, other: "FqContext") -> None:
        if self != other:
            raise ContextMismatch(f"field contexts differ: {self} vs {other}")

    # scalar (digit tuple) arithmetic

    def s_from_int(self, n: int) -> tuple[int, ...]:
        return (n % self.p,) + (0,) * (self.d - 1)

    def s_add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def s_neg(self, a):
        return tuple((-x) % self.p for x in a)

    def s_mul(self, a, b):
        p, d = self.p, self.d
        if d == 1:
            return ((a[0] * b[0]) % p,)
        conv = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        out = [0] * d
        for c, row in zip(conv, self._gpow):
            if c:
                for t in range(d):
                    out[t] += c * row[t]
        return tuple(v % p for v in out)

    def s_pow(self, a, n: int):
        if n < 0:
            return self.s_pow(self.s_inv(a), -n)
        out = self.s_from_int(1)
        base = tuple(a)
        while n:
            if n & 1:
                out = self.s_mul(out, base)
            base = self.s_mul(base, base)
            n >>= 1
        return out

    def s_inv(self, a):
        if not any(a):
            raise DivisionByZero("inverse of zero")
        return self.s_pow(a, self.q - 2)

    def s_frob(self, a):
        return tuple(int(v) % self.p for v in (self._frob @ np.array(a)) % self.p)

    def s_frob_inv(self, a):
        return tuple(int(v) % self.p for v in (self._frob_inv @ np.array(a)) % self.p)

    def mul_matrix(self, c: tuple[int, ...]) -> np.ndarray:
        """d x d matrix M with (c*x)_digits = M @ x_digits."""
        key = tuple(c)
        m = self._mulmat_cache.get(key)
        if m is None:
            cols = []
            for i in range(self.d):
                basis = (0,) * i + (1,) + (0,) * (self.d - 1 - i)
                cols.append(self.s_mul(key, basis))
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
        if self.d == 1:
            return (a * c[0]) % self.p
        return (a @ self.mul_matrix(c).T) % self.p

    def arr_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise field product of two digit arrays of identical shape."""
        return self.mat_mul(a[..., None, None, :], b[..., None, None, :])[..., 0, 0, :]

    def mat_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Field matrix product, a (..., n, k, d) @ b (..., k, m, d) -> (..., n, m, d).

        The one product kernel: every field matrix product in the package
        goes through it. Digits are int64 in [0, p). For d = 1 it is one
        plain ``@``. For d > 1 it is d*d plain ``@`` products of digit
        planes, a[..., r] @ b[..., s], each reduced mod p and then scaled
        by the digits of g^r * g^s (``_red``) and summed. A partial product
        adds k terms below (p-1)^2, so it is exact while k*(p-1)^2 < 2^63;
        after its reduction mod p the d*d scaled terms stay below d*d*p^2.
        """
        p, d = self.p, self.d
        if d == 1:
            return (a[..., 0] @ b[..., 0])[..., None] % p
        out = 0
        for r in range(d):
            for s in range(d):
                out = out + ((a[..., r] @ b[..., s]) % p)[..., None] * self._red[r, s]
        return out % p

    def mat_vec(self, m: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Field matrix-vector product, m (n,k,d) @ v (k,d) -> (n,d)."""
        return self.mat_mul(m, v[..., None, :])[..., 0, :]

    def mat_pow(self, m: np.ndarray, n: int) -> np.ndarray:
        out = self.mat_eye(m.shape[0])
        base = m
        while n:
            if n & 1:
                out = self.mat_mul(out, base)
            base = self.mat_mul(base, base)
            n >>= 1
        return out

    def mat_eye(self, n: int) -> np.ndarray:
        out = self.zeros((n, n))
        out[np.arange(n), np.arange(n), 0] = 1
        return out

    @staticmethod
    def arr_is_zero(a: np.ndarray) -> bool:
        return not np.any(a)

    # convenience scalar objects

    def scalar(self, v) -> "FqScalar":
        if isinstance(v, FqScalar):
            self.check_same(v.ctx)
            return v
        if isinstance(v, int):
            return FqScalar(self, self.s_from_int(v))
        return FqScalar(self, tuple(int(x) % self.p for x in v))

    @property
    def zero(self) -> "FqScalar":
        return FqScalar(self, (0,) * self.d)

    @property
    def one(self) -> "FqScalar":
        return FqScalar(self, self.s_from_int(1))

    @property
    def gen(self) -> "FqScalar":
        if self.d == 1:
            raise ValueError("prime field has no generator symbol g")
        return FqScalar(self, (0, 1) + (0,) * (self.d - 2))

    def elements(self):
        """All q field elements, iteration order fixed by digit odometer."""
        for n in range(self.q):
            digs = []
            t = n
            for _ in range(self.d):
                digs.append(t % self.p)
                t //= self.p
            yield FqScalar(self, tuple(digs))

    def random_scalar(self, rng) -> "FqScalar":
        return FqScalar(self, tuple(rng.randrange(self.p) for _ in range(self.d)))


class FqScalar:
    """Immutable element of F_{p^d}, stored as d digits in [0, p)."""

    __slots__ = ("ctx", "digits")

    def __init__(self, ctx: FqContext, digits: tuple[int, ...]):
        self.ctx = ctx
        self.digits = digits

    def _coerce(self, other) -> "FqScalar":
        if isinstance(other, FqScalar):
            self.ctx.check_same(other.ctx)
            return other
        if isinstance(other, int):
            return FqScalar(self.ctx, self.ctx.s_from_int(other))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FqScalar(self.ctx, self.ctx.s_add(self.digits, o.digits))

    __radd__ = __add__

    def __neg__(self):
        return FqScalar(self.ctx, self.ctx.s_neg(self.digits))

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
        return FqScalar(self.ctx, self.ctx.s_mul(self.digits, o.digits))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        return FqScalar(self.ctx, self.ctx.s_pow(self.digits, n))

    def inverse(self) -> "FqScalar":
        return FqScalar(self.ctx, self.ctx.s_inv(self.digits))

    def frobenius(self) -> "FqScalar":
        return FqScalar(self.ctx, self.ctx.s_frob(self.digits))

    def frobenius_inv(self) -> "FqScalar":
        return FqScalar(self.ctx, self.ctx.s_frob_inv(self.digits))

    def is_zero(self) -> bool:
        return not any(self.digits)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, int):
            return self.digits == self.ctx.s_from_int(other)
        return (
            isinstance(other, FqScalar)
            and self.ctx == other.ctx
            and self.digits == other.digits
        )

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.d, self.ctx.modulus, self.digits))

    def __repr__(self):
        from .textform import format_scalar

        return format_scalar(self)
