"""The artinian model ring A = k[x1..xe]/(x_i^{p^m}) and its coordinate plumbing.

Public coordinates (vectors, operator matrices, subspaces) are indexed by the
monomial basis in the canonical graded order: ascending total degree, first
variable heaviest within a degree. Internal dense arrays use plain C-order
axis indexing; the permutation tables here convert at the boundary.

Every dense table in the package is checked against the one memory budget
in ArtinianModel.guard_table, at the digit count of the array about to be
allocated. Substitution tables (law power tables, derivation tables and
per-axis derivation stacks from images, twist and p-fold matrices) are built
by ArtinianModel.power_table: a ladder over the base-p digits of the
exponents (DenseRing.product_table), e*m*(p-1) batched products by the
Frobenius powers of the images. The ladder keeps 1/p of the table as
scratch and hands its rows over in blocks, each written once into graded
order, so no build holds a second table. A derivation table obtained from
matrices already in hand (a conjugated twist, a reconstructed stack) passes
the same guard. Table builds and the products on whole tables run in
blocks sized by TABLE_BLOCK, so their temporaries stay about one block
(with mat_mul's own float64 block) whatever the size of the table.
"""

from __future__ import annotations

import functools
import math
from types import MappingProxyType

import numpy as np

from .densepoly import DenseRing
from .errors import IndexRange, ResourceGuard
from .gf import FqContext
from .poly import power, term_key
from .truncated import TruncatedPoly, TruncatedRing, convert

# digits (int64 entries) one dense table may hold
TABLE_BUDGET = 50_000_000

# digits of temporaries one step of a table build may hold beyond the
# arrays it returns (and a power table's ladder scratch): builds and
# conjugations run in blocks sized to stay within it
TABLE_BLOCK = 1 << 16

# digits up to which a derivation's table costs less than its e axis stacks
# (HSDerivation._reads_table): in a twisted basis-find (witt2, and products
# with the multiplicative law; best of 15 on a 2-vCPU host), the
# table route was up to 18% faster at dims 9 and 16 (up to 8192 digits),
# and the stack route 7-10% faster at dims 25 and 27, 28% at dim 49 and 57%
# at dim 64, where each product's fixed cost no longer dominates
SMALL_TABLE = 1 << 13


class GradedIndexing:
    """Monomial enumeration for exponent boxes [0,n_1) x ... x [0,n_k).

    Read-only, so one instance per box serves every caller
    (graded_indexing)."""

    def __init__(self, bounds):
        self.bounds = tuple(int(b) for b in bounds)
        self.size = int(np.prod(self.bounds)) if self.bounds else 1
        exps = sorted(np.ndindex(*self.bounds), key=term_key) if self.bounds else [()]
        self.monomials = tuple(tuple(int(x) for x in e) for e in exps)
        self.rank = MappingProxyType({e: i for i, e in enumerate(self.monomials)})
        if self.bounds:
            flats = [
                int(np.ravel_multi_index(e, self.bounds)) for e in self.monomials
            ]
        else:
            flats = [0]
        self.flat_of_graded = np.array(flats, dtype=np.intp)
        self.flat_of_graded.flags.writeable = False
        self.graded_of_flat = np.argsort(self.flat_of_graded)
        self.graded_of_flat.flags.writeable = False


@functools.lru_cache(maxsize=64)
def graded_indexing(bounds: tuple[int, ...]) -> GradedIndexing:
    """The GradedIndexing of a box, built once per bounds tuple and shared
    by every model and law table on that box. A process uses a handful of
    boxes; the bound only keeps a long-lived one from holding them all."""
    return GradedIndexing(bounds)


@functools.lru_cache(maxsize=64)
def _graded_columns(idx: GradedIndexing, k: int, tail: tuple) -> np.ndarray:
    """Flat C-order positions, in a ring of k model boxes and then the
    tail axes, of the columns of a power table's storage: every axis
    reversed, each box in graded order. Shared, as graded_indexing is."""
    flat = np.arange(idx.size**k * math.prod(tail)).reshape((idx.size,) * k + tail)
    flat = flat.transpose(tuple(range(flat.ndim - 1, -1, -1)))
    keep = [np.arange(b) for b in reversed(tail)]
    out = flat[np.ix_(*keep, *(idx.flat_of_graded,) * k)].ravel()
    out.flags.writeable = False
    return out


class ArtinianModel:
    """Shared context: field, dimensions, rings, and vector conversions."""

    def __init__(self, ctx: FqContext, e: int, m: int):
        if e < 1 or m < 1:
            raise ValueError("need e >= 1 and m >= 1")
        self.ctx = ctx
        self.e = e
        self.m = m
        self.n = ctx.p**m
        self.bounds = (self.n,) * e
        self.dim = self.n**e
        self.xvars = tuple(f"x{i+1}" for i in range(e))
        self.vvars = tuple(f"v{i+1}" for i in range(e))
        self.ring = TruncatedRing(ctx, [(self.xvars, self.n)])
        self.ring_xv = TruncatedRing(ctx, [(self.xvars, self.n), (self.vvars, self.n)])
        self.xidx = graded_indexing(self.bounds)
        self.dense = DenseRing(ctx, self.bounds)

    def __eq__(self, other):
        return (
            isinstance(other, ArtinianModel)
            and self.ctx == other.ctx
            and (self.e, self.m) == (other.e, other.m)
        )

    def __hash__(self):
        return hash((self.ctx, self.e, self.m))

    def __repr__(self):
        return f"ArtinianModel(p={self.ctx.p}, d={self.ctx.d}, e={self.e}, m={self.m})"

    # vector <-> polynomial <-> dense cube conversions

    def vec_from_poly(self, f: TruncatedPoly) -> np.ndarray:
        """Coordinates of f; an element of another ring converts by name."""
        if f.ring != self.ring:
            f = convert(f, self.ring)
        out = self.ctx.zeros((self.dim,))
        for e, c in f.terms.items():
            out[self.xidx.rank[e]] = self.ctx.unpack(c)
        return out

    def poly_from_vec(self, vec: np.ndarray) -> TruncatedPoly:
        pack, monos = self.ctx.pack, self.xidx.monomials
        nz = np.flatnonzero(vec.any(axis=1))
        return self.ring.element({
            monos[i]: pack(row) for i, row in zip(nz.tolist(), vec[nz].tolist())})

    def mat_from_xv(self, f: TruncatedPoly) -> np.ndarray:
        """mat[b, i] = coefficient of x^b v^i in f, an element of ring_xv."""
        e, rank = self.e, self.xidx.rank
        out = self.ctx.zeros((self.dim, self.dim))
        for ex, c in f.terms.items():
            out[rank[ex[:e]], rank[ex[e:]]] = self.ctx.unpack(c)
        return out

    def xv_from_mat(self, mat: np.ndarray) -> TruncatedPoly:
        """The element of ring_xv with coefficient mat[b, i] at x^b v^i, its
        terms in the order of (b, i)."""
        dim, pack, monos = self.dim, self.ctx.pack, self.xidx.monomials
        flat = mat.reshape(dim * dim, self.ctx.d)
        nz = np.flatnonzero(flat.any(axis=1))
        terms = {}
        for pos, row in zip(nz.tolist(), flat[nz].tolist()):
            b, i = divmod(pos, dim)
            terms[monos[b] + monos[i]] = pack(row)
        return self.ring_xv.element(terms)

    def cube_from_vec(self, vec: np.ndarray) -> np.ndarray:
        """Dense cube of a coordinate vector, or of each row of a stack."""
        flat = self.ctx.zeros(vec.shape[:-1])
        flat[..., self.xidx.flat_of_graded, :] = vec
        return flat.reshape(vec.shape[:-2] + self.bounds + (self.ctx.d,))

    def vec_from_cube(self, cube: np.ndarray) -> np.ndarray:
        lead = cube.shape[: cube.ndim - self.e - 1]
        flat = cube.reshape(lead + (self.dim, self.ctx.d))
        return flat[..., self.xidx.flat_of_graded, :]

    def axis_ranks(self, l: int) -> list:
        """Graded ranks of the axis exponents j e_l, j < n."""
        e = self.e
        if not 0 <= l < e:
            raise IndexRange(f"axis {l} outside the {e} model coordinates")
        return [self.xidx.rank[tuple(j if t == l else 0 for t in range(e))]
                for j in range(self.n)]

    def guard_table(self, shape) -> None:
        """ResourceGuard unless a dense array of this shape, d digits per
        entry, fits TABLE_BUDGET. Every dense table is checked here, at its
        real size, before it is allocated."""
        digits = math.prod(shape) * self.ctx.d
        if digits > TABLE_BUDGET:
            raise ResourceGuard(
                f"dense table of {digits} digits exceeds the budget of {TABLE_BUDGET}"
            )

    def power_table(self, images, extra: int = 0) -> np.ndarray:
        """tab[a, b_1, .., b_k, c] = coefficient of x^b_1 .. x^b_k y^c in images^a.

        images holds e elements of one ring whose bounds are k copies of the
        model box followed by `extra` one-variable axes (the exponents c); a
        runs over the model box. Every box axis is in graded order. The
        result is the axis-reversed view of a C-contiguous array, so fixing
        the last index leaves one contiguous block (for a derivation table,
        each matrix_stack()[r]). ResourceGuard when the table would hold
        more than TABLE_BUDGET digits.

        The ladder (DenseRing.product_table) hands its rows over in
        blocks of at most TABLE_BLOCK / 4 digits. Each block's columns are
        put into graded order in one reused buffer, and the block is
        written once, into the a-positions of its rows. The ladder's spare
        block, that buffer and a scaled piece inside the ladder's products
        stay within one TABLE_BLOCK, so a build holds the table, the
        ladder's scratch of 1/p table and one block: (1 + 1/p) tables,
        where a ladder kept whole and then gathered into graded order held
        two.
        """
        bounds = images[0].ring.bounds
        tail = bounds[len(bounds) - extra:]
        k = (len(bounds) - extra) // self.e
        shape = (self.dim,) * (k + 1) + tail
        self.guard_table(shape)
        d = self.ctx.d
        ring = DenseRing(self.ctx, bounds)
        cols = _graded_columns(self.xidx, k, tail)
        ranks = self.xidx.graded_of_flat
        # out[c, a]: the reversed axes of the result, a fastest
        out = np.empty((ring.size, self.dim, d), dtype=np.int64)
        block_rows = TABLE_BLOCK // (4 * ring.size * d)
        graded = np.empty((min(self.dim, max(1, block_rows)), ring.size, d), dtype=np.int64)

        def sink(start, rows):
            block = graded[: len(rows)]
            np.take(rows.reshape(len(rows), ring.size, d), cols, axis=1, out=block, mode="clip")
            out[:, ranks[start : start + len(rows)]] = block.swapaxes(0, 1)

        ring.product_table(images, self.m, sink, block_rows)
        rev = tuple(range(len(shape) - 1, -1, -1)) + (len(shape),)
        return out.reshape(tuple(reversed(shape)) + (d,)).transpose(rev)

    def one_vec(self) -> np.ndarray:
        out = self.ctx.zeros((self.dim,))
        out[0, 0] = 1
        return out

    def vec_mul(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Product in A of two coordinate vectors, or of each row of a stack
        u with v."""
        cube = self.dense.mul(self.cube_from_vec(u), self.cube_from_vec(v))
        return self.vec_from_cube(cube)

    def vec_pow(self, u: np.ndarray, k: int) -> np.ndarray:
        """u^k by square and multiply."""
        return power(self.one_vec(), u, k, self.vec_mul)
