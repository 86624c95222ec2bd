"""Internal dense kernels for truncated polynomial arithmetic.

Elements of a truncated ring with bounds (n_1, ..., n_k) are stored as integer
digit arrays of shape (n_1, ..., n_k, d), axis order matching the variable
order, C-order flattening. Multiplication is shift-and-add over the nonzero
terms of the sparser factor, which keeps the cost proportional to sparsity.
All arithmetic is exact integers mod p.
"""

from __future__ import annotations

import numpy as np

from .gf import FqContext
from .truncated import TruncatedPoly


class DenseRing:
    """Bounds descriptor plus conversion and multiplication kernels."""

    def __init__(self, ctx: FqContext, bounds):
        self.ctx = ctx
        self.bounds = tuple(int(b) for b in bounds)
        self.size = int(np.prod(self.bounds)) if self.bounds else 1
        self.shape = self.bounds + (ctx.d,)

    def zeros(self) -> np.ndarray:
        return np.zeros(self.shape, dtype=np.int64)

    def one(self) -> np.ndarray:
        out = self.zeros()
        out[(0,) * len(self.bounds) + (0,)] = 1
        return out

    def from_trunc(self, f: TruncatedPoly) -> np.ndarray:
        if f.ring.bounds != self.bounds:
            raise ValueError("ring bounds mismatch")
        out = self.zeros()
        for e, c in f.terms.items():
            out[e] = self.ctx.unpack(c)
        return out

    def terms_of(self, arr: np.ndarray):
        """Nonzero (exponent tuple, digit tuple) pairs of a dense element."""
        flat = arr.reshape(self.size, self.ctx.d)
        for idx in np.flatnonzero(flat.any(axis=1)):
            e = np.unravel_index(int(idx), self.bounds)
            yield tuple(int(x) for x in e), tuple(int(v) for v in flat[idx])

    def nnz(self, arr: np.ndarray) -> int:
        return int(np.count_nonzero(arr.reshape(self.size, self.ctx.d).any(axis=1)))

    def mul_terms(self, a: np.ndarray, terms) -> np.ndarray:
        """Product of a dense element with a sparse term list."""
        ctx = self.ctx
        out = np.zeros(self.shape, dtype=np.int64)
        k = len(self.bounds)
        for exps, cdig in terms:
            src = tuple(slice(0, b - e) for e, b in zip(exps, self.bounds))
            dst = tuple(slice(e, b) for e, b in zip(exps, self.bounds))
            piece = a[src + (slice(None),)]
            if cdig == (1,) + (0,) * (ctx.d - 1):
                out[dst + (slice(None),)] += piece
            else:
                out[dst + (slice(None),)] += ctx.arr_scale(cdig, piece)
        return out % ctx.p

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.nnz(a) <= self.nnz(b):
            return self.mul_terms(b, self.terms_of(a))
        return self.mul_terms(a, self.terms_of(b))

    def iter_products(self, bases: list[np.ndarray], maxexps):
        """Yield (j, prod_l bases[l]^j_l) for j in C-order over maxexps ranges.

        Incremental ladder: each step costs one multiplication by a base.
        """
        e = len(bases)
        idx = [0] * e

        def rec(k: int, cur: np.ndarray):
            if k == e:
                yield tuple(idx), cur
                return
            acc = cur
            for j in range(maxexps[k]):
                idx[k] = j
                if j > 0:
                    acc = self.mul(acc, bases[k])
                yield from rec(k + 1, acc)
            idx[k] = 0

        yield from rec(0, self.one())

    def product_table(self, bases: list[np.ndarray], maxexps) -> np.ndarray:
        """Matrix (prod maxexps, size, d): flattened products in C-order."""
        total = int(np.prod(maxexps))
        out = np.zeros((total, self.size, self.ctx.d), dtype=np.int64)
        row = 0
        for _, arr in self.iter_products(bases, maxexps):
            out[row] = arr.reshape(self.size, self.ctx.d)
            row += 1
        return out
