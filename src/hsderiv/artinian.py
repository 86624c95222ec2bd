"""The artinian model ring A = k[x1..xe]/(x_i^{p^m}) and its coordinate plumbing.

Public coordinates (vectors, operator matrices, subspaces) are indexed by the
monomial basis in the canonical graded order: ascending total degree, first
variable heaviest within a degree. Internal dense arrays use plain C-order
axis indexing; the permutation tables here convert at the boundary.

Every dense substitution table in the package (derivation tables, law power
tables, twist and p-fold matrices) is built, put into graded order and
checked against the one memory budget in ArtinianModel.power_table.
"""

from __future__ import annotations

import numpy as np

from .densepoly import DenseRing
from .errors import ResourceGuard
from .gf import FqContext
from .poly import term_key
from .truncated import TruncatedPoly, TruncatedRing, convert

# digits (int64 entries) one dense table may hold
TABLE_BUDGET = 50_000_000


class GradedIndexing:
    """Monomial enumeration for exponent boxes [0,n_1) x ... x [0,n_k)."""

    def __init__(self, bounds):
        self.bounds = tuple(int(b) for b in bounds)
        self.size = int(np.prod(self.bounds)) if self.bounds else 1
        exps = sorted(np.ndindex(*self.bounds), key=term_key) if self.bounds else [()]
        self.monomials = [tuple(int(x) for x in e) for e in exps]
        self.rank = {e: i for i, e in enumerate(self.monomials)}
        if self.bounds:
            flats = [
                int(np.ravel_multi_index(e, self.bounds)) for e in self.monomials
            ]
        else:
            flats = [0]
        self.flat_of_graded = np.array(flats, dtype=np.intp)
        inv = np.empty(self.size, dtype=np.intp)
        inv[self.flat_of_graded] = np.arange(self.size)
        self.graded_of_flat = inv


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
        self.xidx = GradedIndexing(self.bounds)
        self.vidx = self.xidx
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
            out[self.xidx.rank[e]] = c.digits
        return out

    def poly_from_vec(self, vec: np.ndarray) -> TruncatedPoly:
        terms = {}
        for i in np.flatnonzero(vec.any(axis=1)):
            terms[self.xidx.monomials[int(i)]] = self.ctx.scalar(
                tuple(int(v) for v in vec[int(i)])
            )
        return TruncatedPoly(self.ring, terms)

    def cube_from_vec(self, vec: np.ndarray) -> np.ndarray:
        flat = self.ctx.zeros((self.dim,))
        flat[self.xidx.flat_of_graded] = vec
        return flat.reshape(self.bounds + (self.ctx.d,))

    def vec_from_cube(self, cube: np.ndarray) -> np.ndarray:
        flat = cube.reshape(self.dim, self.ctx.d)
        return flat[self.xidx.flat_of_graded].copy()

    def power_table(self, images) -> np.ndarray:
        """tab[a, b_1, .., b_k] = coefficient of x^b_1 .. x^b_k in images^a.

        images holds e elements of one ring whose bounds are k copies of the
        model box; a runs over the model box. Every axis is in graded order.
        The result is the axis-reversed view of a C-contiguous array, so
        fixing the last index leaves one contiguous block (for a derivation
        table, each matrix_stack()[r]). ResourceGuard when the table would
        hold more than TABLE_BUDGET digits.
        """
        bounds = images[0].ring.bounds
        k = len(bounds) // self.e
        digits = self.dim ** (k + 1) * self.ctx.d
        if digits > TABLE_BUDGET:
            raise ResourceGuard(
                f"dense table of {digits} digits exceeds the budget of {TABLE_BUDGET}"
            )
        dense = DenseRing(self.ctx, bounds)
        flat = dense.product_table([dense.from_trunc(f) for f in images], self.bounds)
        rev = tuple(range(k, -1, -1)) + (k + 1,)
        cube = flat.reshape((self.dim,) * (k + 1) + (self.ctx.d,)).transpose(rev)
        perm = self.xidx.flat_of_graded
        return cube[np.ix_(*(perm,) * (k + 1))].transpose(rev)

    def one_vec(self) -> np.ndarray:
        out = self.ctx.zeros((self.dim,))
        out[0, 0] = 1
        return out

    def vec_mul(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Product in A of two coordinate vectors."""
        cube = self.dense.mul(self.cube_from_vec(u), self.cube_from_vec(v))
        return self.vec_from_cube(cube)

    def vec_pow(self, u: np.ndarray, k: int) -> np.ndarray:
        out = self.one_vec()
        for _ in range(k):
            out = self.vec_mul(out, u)
        return out
