"""Exact linear algebra over F_{p^d} on digit arrays.

Vectors are arrays (n, d), matrices (r, c, d), all integer digits mod p.
Everything is deterministic: pivoting always picks the first usable row, and
echelon bases are fully reduced, so equal subspaces have equal basis arrays.

``rref`` is blocked, after FFLAS-FFPACK (Dumas, Giorgi, Pernet, ACM TOMS
2008). It keeps a running reduced echelon basis of the rows seen so far and
takes the rows in blocks as tall as the matrix is wide, and at least
MIN_BLOCK_ROWS tall. A block x is first reduced against the basis with one
product, x - x[:, pivots] @ basis, which clears the old pivot columns.
Gauss-Jordan on the residual (``_eliminate``) gives its new pivots; it
visits only the columns that are nonzero in the residual, so the old pivot
columns and empty columns cost nothing. One more product clears the new
pivot columns from the old basis, and the rows are merged in pivot order.
Elimination stops once the rank equals the column count, so a tall stack
costs a few block products instead of a rank-1 update of the whole stack
per pivot. The block products
go through ``FqContext.mat_mul``, which runs a large product on float64
BLAS as FFLAS-FFPACK does: exact while every partial sum stays below 2^53,
and cast to int64 before the reduction mod p, since reducing float64 costs
several times the product. Small products and products past that bound
stay on int64. ``_eliminate`` delays the reduction as FFLAS-FFPACK does: its
rank-1 updates go in unreduced on int64, and the whole block is reduced
only every (2^62 - p) // (d*(p-1)^2) pivots and at the end.

The bytes do not depend on the blocking: the merged rows span the row space
of the rows seen so far and are in reduced echelon form, and that form of a
row space is unique. So ``rref`` returns the same matrix and pivot list as a
one-pivot-at-a-time elimination of the whole input.

Work inside a subspace V follows one rule: compose with V's echelon basis,
work in V's echelon coordinates, lift the result back. ``preimage_solve``
solves there and ``kernel_space`` takes kernels there: one elimination of the
composed matrix and one echelon form of the lifted rows, not an intersection.
"""

from __future__ import annotations

import numpy as np

from .errors import NoSolution, NotInvertible
from .gf import FqContext

# rref's least row-block height. A block costs one product and one
# _eliminate call whatever its height, so a tall, narrow stack is cut into
# few blocks. On the coords benchmark traffic every height from 16 rows to
# a single block timed within 2%, 64 lowest; a bounded height keeps the
# reduction of a very tall stack in block products.
MIN_BLOCK_ROWS = 64


def _eliminate(ctx: FqContext, m: np.ndarray) -> list[int]:
    """Gauss-Jordan on one block of digits in [0, p), in place; returns its
    pivot columns.

    The pivot is the first nonzero entry, column by column, among the rows
    not yet used. Rows past the rank end up zero. Only the columns nonzero
    at entry are visited, found with one ``any`` over the block: a column
    that is zero at entry stays zero under every rank-1 update, since the
    pivot row is zero there too.

    The reduction mod p is delayed, after FFLAS-FFPACK: a pivot reduces only
    the column it searches and its own row before scaling it. The rank-1
    update goes in unreduced, as one product of the column's digits with
    the row folded through the modulus, and each adds at most d*(p-1)^2 to
    an entry's magnitude. So the block is reduced whole only every
    (2^62 - p) // (d*(p-1)^2) pivots, and once at the end; ``FqContext``
    refuses a p for which that interval would be zero. The pivots, and so
    the bytes, are those of an elimination that reduces after every pivot.
    """
    p, d = ctx.p, ctx.d
    rows, cols = m.shape[0], m.shape[1]
    every = (2**62 - p) // (d * (p - 1) ** 2)
    pivots: list[int] = []
    r = 0
    for c in np.flatnonzero(m.any(axis=(0, 2))).tolist():
        if r == rows:
            break
        col = m[:, c] % p
        live = col[r:].ravel().nonzero()[0]
        if not live.size:
            continue
        hit = r + int(live[0]) // d
        if hit != r:
            m[r], m[hit] = m[hit], m[r].copy()
            col[r], col[hit] = col[hit], col[r].copy()
        row = m[r, c:] % p
        pivot = ctx.pack(col[r])
        if pivot != 1:
            row = ctx.arr_scale(ctx.unpack(ctx.inv(pivot)), row)
        m[r, c:] = row
        col[r] = 0
        update = col @ ctx._folded(row[None])
        m[:, c:] -= update.reshape(rows, d, cols - c).swapaxes(1, 2)
        pivots.append(c)
        r += 1
        if r % every == 0:
            m %= p
    m %= p
    return pivots


def rref(ctx: FqContext, mat: np.ndarray):
    """Reduced row echelon form; returns (matrix copy, pivot column list).

    The rows go in blocks of max(cols, MIN_BLOCK_ROWS), each reduced against
    the running basis and eliminated, as the module docstring describes.
    """
    p = ctx.p
    rows, cols = mat.shape[0], mat.shape[1]
    basis = mat[:0] % p
    pivots: list[int] = []
    height = max(cols, MIN_BLOCK_ROWS)
    for start in range(0, rows, height):
        if len(pivots) == cols:
            break
        x = mat[start : start + height] % p
        if pivots:
            x = (x - ctx.mat_mul(x[:, pivots], basis)) % p
        new = _eliminate(ctx, x)
        if not new:
            continue
        x = x[: len(new)]
        if pivots:
            basis = (basis - ctx.mat_mul(basis[:, new], x)) % p
        merged = pivots + new
        basis = np.concatenate([basis, x])[np.argsort(merged)]
        pivots = sorted(merged)
    m = np.zeros_like(mat)
    m[: len(pivots)] = basis
    return m, pivots


def nullspace(ctx: FqContext, mat: np.ndarray) -> np.ndarray:
    """Canonical kernel basis as rows (k, c, d)."""
    m, pivots = rref(ctx, mat)
    cols = mat.shape[1]
    taken = set(pivots)
    free = [c for c in range(cols) if c not in taken]
    out = ctx.zeros((len(free), cols))
    out[np.arange(len(free)), free, 0] = 1
    out[:, pivots] = ctx.arr_neg(m[: len(pivots), free]).transpose(1, 0, 2)
    return out


def solve(ctx: FqContext, mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Canonical solution of mat @ x = rhs (free variables zero); NoSolution if none."""
    aug = np.concatenate([mat, rhs[:, None, :]], axis=1)
    m, pivots = rref(ctx, aug)
    cols = mat.shape[1]
    if pivots and pivots[-1] == cols:
        raise NoSolution("inconsistent linear system")
    x = ctx.zeros((cols,))
    x[pivots] = m[: len(pivots), cols]
    return x


def inv_matrix(ctx: FqContext, mat: np.ndarray) -> np.ndarray:
    n = mat.shape[0]
    aug = np.concatenate([mat, ctx.mat_eye(n)], axis=1)
    m, pivots = rref(ctx, aug)
    if pivots != list(range(n)):
        raise NotInvertible("matrix is singular")
    return m[:, n:]


def _transpose(mat: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(mat.transpose(1, 0, 2))


class Subspace:
    """Subspace of F_q^n held as a reduced echelon row basis (canonical)."""

    __slots__ = ("ctx", "ambient", "basis", "pivots")

    def __init__(self, ctx: FqContext, ambient: int, basis: np.ndarray, pivots):
        self.ctx = ctx
        self.ambient = ambient
        self.basis = basis
        self.pivots = list(pivots)

    @classmethod
    def from_vectors(cls, ctx: FqContext, ambient: int, rows) -> "Subspace":
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            rows = ctx.zeros((0, ambient))
        m, pivots = rref(ctx, rows)
        return cls(ctx, ambient, m[: len(pivots)].copy(), pivots)

    @classmethod
    def full(cls, ctx: FqContext, ambient: int) -> "Subspace":
        return cls(ctx, ambient, ctx.mat_eye(ambient), range(ambient))

    @classmethod
    def zero_space(cls, ctx: FqContext, ambient: int) -> "Subspace":
        return cls(ctx, ambient, ctx.zeros((0, ambient)), [])

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ctx == other.ctx
            and self.ambient == other.ambient
            and np.array_equal(self.basis, other.basis)
        )

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"

    def reduce_mod(self, vecs: np.ndarray) -> np.ndarray:
        """Canonical coset representative of a vector, or of each row of a stack."""
        ctx = self.ctx
        v = vecs % ctx.p
        return (v - self.lift(v[..., self.pivots, :])) % ctx.p

    def contains(self, vecs: np.ndarray) -> bool:
        return not self.reduce_mod(vecs).any()

    def coords_of(self, vecs: np.ndarray) -> np.ndarray:
        """Coordinates over the echelon basis, of a vector or of each row of
        a stack; NoSolution if any of them lies outside.

        The basis is reduced, so coordinate i is the entry at pivot i.
        """
        v = vecs % self.ctx.p
        coords = v[..., self.pivots, :]
        if not np.array_equal(v, self.lift(coords)):
            raise NoSolution("vector lies outside the subspace")
        return coords

    def lift(self, coords: np.ndarray) -> np.ndarray:
        """Vector with the given basis coordinates, or one per row of a stack."""
        if coords.ndim == 3:
            return self.ctx.mat_mul(coords, self.basis)
        return self.ctx.mat_mul(coords[None], self.basis)[0]

    def is_subspace_of(self, other: "Subspace") -> bool:
        return other.contains(self.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        ctx = self.ctx
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero_space(ctx, self.ambient)
        # echelon bases are canonical, so a full side leaves the other as is
        if other.dim == other.ambient:
            return self
        if self.dim == self.ambient:
            return other
        stacked = np.concatenate(
            [_transpose(self.basis), ctx.arr_neg(_transpose(other.basis))], axis=1
        )
        null = nullspace(ctx, stacked)
        vecs = []
        for row in null:
            a = row[: self.dim]
            vecs.append(self.lift(a))
        return Subspace.from_vectors(ctx, self.ambient, np.array(vecs) if vecs else [])

    def sum_with(self, other: "Subspace") -> "Subspace":
        return Subspace.from_vectors(
            self.ctx, self.ambient, np.concatenate([self.basis, other.basis], axis=0)
        )

    def image_of(self, mat: np.ndarray) -> "Subspace":
        """Image of this subspace under the operator (columns act on vectors)."""
        if self.dim == 0:
            return Subspace.zero_space(self.ctx, self.ambient)
        rows = self.ctx.mat_mul(self.basis, _transpose(mat))
        return Subspace.from_vectors(self.ctx, self.ambient, rows)


def image_space(ctx: FqContext, mat: np.ndarray) -> Subspace:
    return Subspace.from_vectors(ctx, mat.shape[0], _transpose(mat))


def kernel_space(ctx: FqContext, mat: np.ndarray, within: Subspace | None = None) -> Subspace:
    """Kernel of mat, computed inside within, in its echelon coordinates: the
    same echelon basis as the kernel intersected with within. A full within
    takes the plain kernel; an empty one is returned as it is."""
    if within is None or within.dim == within.ambient:
        return Subspace.from_vectors(ctx, mat.shape[1], nullspace(ctx, mat))
    if within.dim == 0:
        return within
    null = nullspace(ctx, ctx.mat_mul(mat, _transpose(within.basis)))
    return Subspace.from_vectors(ctx, within.ambient, within.lift(null))


def preimage_solve(
    ctx: FqContext,
    conditions,
    within: Subspace | None = None,
) -> np.ndarray:
    """Solve T_i @ x = b_i jointly, optionally constrained to a subspace.

    conditions is a list of (matrix, target vector) pairs. The returned solution
    is canonical (echelon solve with free variables zero, composed with the
    subspace's echelon basis), so equal inputs give identical outputs.
    """
    mats = []
    rhs = []
    for t, b in conditions:
        if within is not None:
            t = ctx.mat_mul(t, _transpose(within.basis))
        mats.append(t)
        rhs.append(b)
    big = np.concatenate(mats, axis=0)
    target = np.concatenate(rhs, axis=0)
    sol = solve(ctx, big, target)
    if within is not None:
        return within.lift(sol)
    return sol
