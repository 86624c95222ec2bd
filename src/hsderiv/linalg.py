"""Exact linear algebra over F_{p^d} on digit arrays.

Vectors are arrays (n, d), matrices (r, c, d), all integer digits mod p.
Everything is deterministic: pivoting always picks the first usable row, and
echelon bases are fully reduced, so equal subspaces have equal basis arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import NoSolution, NotInvertible
from .gf import FqContext


def _eliminate(ctx: FqContext, m: np.ndarray, row: int, col: int) -> None:
    """Scale m[row] to unit pivot at col and clear the column elsewhere, in place."""
    p = ctx.p
    pivot = tuple(int(v) for v in m[row, col])
    inv = ctx.s_inv(pivot)
    m[row] = ctx.arr_scale(inv, m[row])
    factors = m[:, col].copy()
    factors[row] = 0
    if ctx.d == 1:
        update = factors[:, 0][:, None] * m[row][None, :, 0]
        m[:, :, 0] = (m[:, :, 0] - update) % p
    else:
        update = np.einsum("rs,ct,stu->rcu", factors, m[row], ctx._red)
        m[...] = (m - update) % p


def rref(ctx: FqContext, mat: np.ndarray):
    """Reduced row echelon form; returns (matrix copy, pivot column list)."""
    m = mat.copy() % ctx.p
    rows, cols = m.shape[0], m.shape[1]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hit = None
        for i in range(r, rows):
            if m[i, c].any():
                hit = i
                break
        if hit is None:
            continue
        if hit != r:
            m[[r, hit]] = m[[hit, r]]
        _eliminate(ctx, m, r, c)
        pivots.append(c)
        r += 1
    return m, pivots


def nullspace(ctx: FqContext, mat: np.ndarray) -> np.ndarray:
    """Canonical kernel basis as rows (k, c, d)."""
    m, pivots = rref(ctx, mat)
    cols = mat.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    out = ctx.zeros((len(free), cols))
    for i, f in enumerate(free):
        out[i, f, 0] = 1
        for prow, pcol in enumerate(pivots):
            out[i, pcol] = ctx.arr_neg(m[prow, f])
    return out


def solve(ctx: FqContext, mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Canonical solution of mat @ x = rhs (free variables zero); NoSolution if none."""
    aug = np.concatenate([mat, rhs[:, None, :]], axis=1)
    m, pivots = rref(ctx, aug)
    cols = mat.shape[1]
    if pivots and pivots[-1] == cols:
        raise NoSolution("inconsistent linear system")
    x = ctx.zeros((cols,))
    for prow, pcol in enumerate(pivots):
        x[pcol] = m[prow, cols]
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

    def reduce_mod(self, vec: np.ndarray) -> np.ndarray:
        """Canonical coset representative: clear the pivot coordinates."""
        ctx = self.ctx
        v = vec.copy() % ctx.p
        for i, pc in enumerate(self.pivots):
            c = tuple(int(t) for t in v[pc])
            if any(c):
                v = (v - ctx.arr_scale(c, self.basis[i])) % ctx.p
        return v

    def contains(self, vec: np.ndarray) -> bool:
        return not self.reduce_mod(vec).any()

    def coords_of(self, vec: np.ndarray) -> np.ndarray:
        """Coordinates over the echelon basis; NoSolution if vec lies outside."""
        ctx = self.ctx
        v = vec.copy() % ctx.p
        coords = ctx.zeros((self.dim,))
        for i, pc in enumerate(self.pivots):
            c = tuple(int(t) for t in v[pc])
            if any(c):
                coords[i] = v[pc]
                v = (v - ctx.arr_scale(c, self.basis[i])) % ctx.p
        if v.any():
            raise NoSolution("vector lies outside the subspace")
        return coords

    def lift(self, coords: np.ndarray) -> np.ndarray:
        """Vector with the given basis coordinates."""
        ctx = self.ctx
        if self.dim == 0:
            return ctx.zeros((self.ambient,))
        if ctx.d == 1:
            return ((coords[:, 0] @ self.basis[..., 0]) % ctx.p)[..., None]
        return np.einsum("kr,kns,rst->nt", coords, self.basis, ctx._red) % ctx.p

    def is_subspace_of(self, other: "Subspace") -> bool:
        return all(other.contains(self.basis[i]) for i in range(self.dim))

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


def kernel_space(ctx: FqContext, mat: np.ndarray) -> Subspace:
    return Subspace.from_vectors(ctx, mat.shape[1], nullspace(ctx, mat))


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
