"""Internal dense kernels for truncated polynomial arithmetic.

Elements of a truncated ring with bounds (n_1, ..., n_k) are stored as integer
digit arrays of shape (n_1, ..., n_k, d), axis order matching the variable
order, C-order flattening. One kernel multiplies: ``DenseRing.mul_terms``
shifts a dense element, or a stack of them along a leading axis, by each
term of a sparse term list, scales it and adds it in, so the cost is
proportional to the sparse side. ``mul`` takes the terms of the sparser
factor, or of the second when the first is a stack; ``product_table``
multiplies whole blocks of its rows by the Frobenius powers of its bases and
hands them on in bounded blocks.
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

    def terms_of(self, arr: np.ndarray):
        """Nonzero (exponent tuple, digit tuple) pairs of a dense element."""
        flat = arr.reshape(self.size, self.ctx.d)
        for idx in np.flatnonzero(flat.any(axis=1)):
            e = np.unravel_index(int(idx), self.bounds)
            yield tuple(int(x) for x in e), tuple(int(v) for v in flat[idx])

    def nnz(self, arr: np.ndarray) -> int:
        return int(np.count_nonzero(arr.reshape(self.size, self.ctx.d).any(axis=1)))

    def frobenius_terms(self, f: TruncatedPoly, q: int) -> list:
        """Term list of f^q for q a power of p: the ring has characteristic
        p, so f^q = sum c^q x^(q a) over the terms c x^a of f, kept where
        q a is inside the bounds."""
        ctx, bounds = self.ctx, self.bounds
        out = []
        for exps, c in f.terms.items():
            shifted = tuple(q * a for a in exps)
            if all(s < b for s, b in zip(shifted, bounds)):
                out.append((shifted, ctx.unpack(ctx.pow(c, q))))
        return out

    def mul_terms(self, a: np.ndarray, terms, out: np.ndarray | None = None) -> np.ndarray:
        """Product of a dense element with a sparse term list of (exponent
        tuple, digit tuple) pairs. a may carry one leading batch axis, a
        stack of elements each multiplied by the same terms. The product is
        added into out, zeros unless given, which is returned reduced.
        Each term's piece is reduced before it is added, so a sum of them
        stays far inside int64 for every p the field admits."""
        ctx = self.ctx
        if out is None:
            out = np.zeros(a.shape, dtype=np.int64)
        batch = (slice(None),) * (a.ndim - len(self.shape))
        one = (1,) + (0,) * (ctx.d - 1)
        for exps, cdig in terms:
            src = batch + tuple(slice(0, b - e) for e, b in zip(exps, self.bounds))
            dst = batch + tuple(slice(e, b) for e, b in zip(exps, self.bounds))
            piece = a[src]
            if cdig == one:
                out[dst] += piece
            else:
                out[dst] += ctx.arr_scale(cdig, piece)
        return np.remainder(out, ctx.p, out=out)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Product of two elements, or of each element of a stack a (one
        leading axis) with b. A stack takes its terms from b; otherwise the
        sparser factor gives them."""
        if a.ndim > len(self.shape):
            return self.mul_terms(a, self.terms_of(b))
        if self.nnz(a) <= self.nnz(b):
            return self.mul_terms(b, self.terms_of(a))
        return self.mul_terms(a, self.terms_of(b))

    def product_table(self, bases: list[TruncatedPoly], m: int, sink, block_rows: int) -> None:
        """Rows of the matrix (n^k, size, d), n = p^m and k = len(bases): row
        j, for j in C-order over [0, n)^k, is the flattened prod_l
        bases[l]^j_l. Each row goes to sink(start, rows) once, in blocks of
        consecutive rows from start, and none is kept.

        A ladder over the base-p digits of j. Row 0 is one. The digits are
        taken from the fastest-varying up: the last base's digits q = 1,
        p, .., p^(m-1), then the base before it, and so on. With the first
        B rows filled, the digit of place value B runs through t = 1..p-1,
        and rows [t B, (t+1) B) are rows [(t-1) B, t B) times base^q, one
        batched product by the short term list of base^q. So a table costs
        k m (p-1) batched products.

        Every place but the first base's top digit is filled in a scratch
        of n^k/p rows, written into itself. The top place runs in blocks of
        at most block_rows scratch rows: a block goes to the sink, then its
        p - 1 images under base^q, each made in one buffer of the block's
        size and handed on before the next overwrites the one before it.
        So the ladder holds n^k/p rows and one block beyond the sink's. A
        table of at most block_rows rows is one block: it is filled whole,
        in place, and handed on at once.
        """
        p = self.ctx.p
        total = p ** (m * len(bases))
        top = total if total <= block_rows else total // p
        scratch = np.zeros((top,) + self.shape, dtype=np.int64)
        scratch[0] = self.one()
        filled = 1
        for f in reversed(bases):
            for i in range(m):
                if filled == top:
                    break
                terms = self.frobenius_terms(f, p**i)
                for t in range(1, p):
                    self.mul_terms(scratch[(t - 1) * filled : t * filled], terms,
                                   scratch[t * filled : (t + 1) * filled])
                filled *= p
        if top == total:
            sink(0, scratch)
            return
        terms = self.frobenius_terms(bases[0], p ** (m - 1))
        step = max(1, block_rows)
        spare = np.empty((min(step, top),) + self.shape, dtype=np.int64)
        for r in range(0, top, step):
            cur, nxt = scratch[r : r + step], spare[: min(step, top - r)]
            sink(r, cur)
            for t in range(1, p):
                nxt.fill(0)
                self.mul_terms(cur, terms, nxt)
                sink(t * top + r, nxt)
                cur, nxt = nxt, cur
