"""Exact linear algebra over F_{p^d} on digit arrays.

Vectors are arrays (n, d), matrices (r, c, d), all integer digits mod p.
Everything is deterministic: echelon bases are fully reduced, and the
reduced echelon form of a row space is unique, so equal subspaces have
equal basis arrays whichever rows were picked as pivots.

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
stay on int64.

``_eliminate`` picks one of two eliminations for a block. Over GF(2^d) and
GF(3) it works on packed rows, as M4RI does over GF(2) (Albrecht, Bard and
Hart, ACM TOMS 2010) and bitslicing over GF(3) (Boothby and Bradshaw,
arXiv:0901.1413): a row of GF(2^d) is one Python int with a group of bits
per column, column 0 most significant, holding the column's d digits in a
power-of-two width, and adding rows is XOR; a row of GF(3) is the pair of
masks of its ones and its twos, negated by swapping them.
Each pivot then costs a few integer operations per row instead of a dozen
numpy calls. Every other field, and the tall, dense GF(3) blocks that
``_eliminate``'s docstring names with its timings, take the numpy
elimination, which delays the reduction as FFLAS-FFPACK does: its rank-1
updates go in unreduced on int64, and the whole block is reduced only
every (2^62 - p) // (d*(p-1)^2) pivots and at the end.

The bytes depend neither on the blocking nor on the elimination: the
merged rows span the row space of the rows seen so far and are in reduced
echelon form, and that form of a row space is unique. So ``rref`` returns
the same matrix and pivot list as a one-pivot-at-a-time elimination of the
whole input.

Work inside a subspace V follows one rule: compose with V's echelon basis,
work in V's echelon coordinates, lift the result back. ``preimage_solve``
solves there and ``kernel_space`` takes kernels there: one elimination of the
composed matrix and one echelon form of the lifted rows, not an intersection.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import NoSolution, NotInvertible
from .gf import FqContext

# rref's least row-block height. A block costs one product and one
# _eliminate call whatever its height, so a tall, narrow stack is cut into
# few blocks. On the coords benchmark traffic every height from 16 rows to
# a single block timed within 2%, 64 lowest; a bounded height keeps the
# reduction of a very tall stack in block products.
MIN_BLOCK_ROWS = 64


# Bits one numpy word holds. A packed row is built and read back as whole
# words, so its groups are a power of two bits wide and none straddles two.
PACK_WORD = 64

# _eliminate packs a GF(3) block of at most GF3_PACK_ROWS rows, or one with
# at most one nonzero entry in GF3_SPARSE; its docstring gives the timings.
GF3_PACK_ROWS = 32
GF3_SPARSE = 16


@lru_cache(maxsize=None)
def _group_shifts(cols: int, d: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Bit offsets (cols, d) of digit t of column j in a row of cols b-bit
    groups, b*(cols-1-j) + t, and their powers of two flattened to cols*d:
    the weights that pack a row of digits with one product. Read-only."""
    shifts = b * np.arange(cols - 1, -1, -1, dtype=np.uint64)[:, None]
    shifts = shifts + np.arange(d, dtype=np.uint64)
    weights = np.left_shift(np.uint64(1), shifts).reshape(cols * d)
    shifts.flags.writeable = weights.flags.writeable = False
    return shifts, weights


def _pack(m: np.ndarray, b: int) -> list[int]:
    """One Python int per row of m (rows, cols, d): column j is the b-bit
    group at bit b*(cols-1-j), so column 0 is the most significant, and
    digit t of the column sits at bit t of its group. A row past one word
    is padded on the left to whole words, each packed with one product."""
    rows, cols, d = m.shape
    per = PACK_WORD // b
    if cols <= per:
        flat = m.reshape(rows, cols * d).view(np.uint64)
        return (flat @ _group_shifts(cols, d, b)[1]).tolist()
    words = -(-cols // per)
    padded = np.zeros((rows, words * per, d), dtype=m.dtype)
    padded[:, words * per - cols :] = m
    flat = padded.reshape(rows, words, per * d).view(np.uint64)
    data = (flat @ _group_shifts(per, d, b)[1]).astype(">u8").tobytes()
    n = 8 * words
    return [int.from_bytes(data[i : i + n], "big") for i in range(0, rows * n, n)]


def _unpack(rows: list[int], m: np.ndarray, b: int) -> None:
    """Write the packed rows into the top of m, digit t of column j read as
    bit t of its group (the whole group when d = 1), and zero the rest."""
    k, (cols, d) = len(rows), m.shape[1:]
    mask = np.uint64(1 if d > 1 else (1 << b) - 1)
    per = PACK_WORD // b
    if cols <= per:
        m[:k] = (np.array(rows, dtype=np.uint64)[:, None, None]
                 >> _group_shifts(cols, d, b)[0]) & mask
    else:
        words = -(-cols // per)
        n = 8 * words
        data = b"".join(x.to_bytes(n, "big") for x in rows)
        flat = np.frombuffer(data, dtype=">u8").astype(np.uint64).reshape(k, words, 1, 1)
        digits = flat >> _group_shifts(per, d, b)[0]
        digits &= mask
        m[:k] = digits.reshape(k, words * per, d)[:, words * per - cols :]
    m[k:] = 0


@lru_cache(maxsize=None)
def _char2_tables(ctx: FqContext) -> tuple[tuple[int, ...], tuple[tuple, ...]]:
    """For F_{2^d}, with an element written as the d-bit group whose bit t
    is digit t: the inverse of each group value, and for each value f the
    (s, t) pairs with mul_matrix(f)[t, s] = 1, so that digit t of f*x is
    the XOR of digits s of x over its pairs."""
    d = ctx.d
    digits = [tuple((f >> t) & 1 for t in range(d)) for f in range(1 << d)]
    inverse = [0] + [
        sum(v << t for t, v in enumerate(ctx.unpack(ctx.inv(ctx.pack(digits[f])))))
        for f in range(1, 1 << d)
    ]
    pairs = tuple(
        tuple((s, t) for s in range(d) for t in range(d) if ctx.mul_matrix(digits[f])[t, s])
        for f in range(1 << d)
    )
    return tuple(inverse), pairs


def _eliminate_char2(ctx: FqContext, m: np.ndarray) -> list[int]:
    """Packed Gauss-Jordan over F_{2^d}: a row is one int of groups, each
    d digits in the low bits of b bits, b the least power of two >= d;
    adding rows is XOR, and a multiple f*y is the XOR of y's digit planes
    that mul_matrix(f) selects, shifted within their groups."""
    d = ctx.d
    b = 1 << (d - 1).bit_length()  # group width, a power of two
    cols = m.shape[1]
    qmask = (1 << d) - 1
    inverse, pairs = _char2_tables(ctx)
    # planes[s]: bit s of every group
    planes = [(((1 << b * cols) - 1) // ((1 << b) - 1)) << s for s in range(d)]

    def times(y: int, f: int) -> int:
        out = 0
        for s, t in pairs[f]:
            ys = y & planes[s]
            out ^= ys << (t - s) if t >= s else ys >> (s - t)
        return out

    done: list[int] = []
    rest = [x for x in _pack(m, b) if x]
    if not rest:  # a zero block is its own echelon form
        return []
    pivots: list[int] = []
    while rest:
        # the row whose first nonzero column comes first
        y = max(rest)
        rest.remove(y)
        sh = (y.bit_length() - 1) // b * b
        g = (y >> sh) & qmask
        if g != 1:
            y = times(y, inverse[g])
        multiples: list = [0, y] + [None] * (qmask - 1)
        out = []
        for x in done + rest:
            f = (x >> sh) & qmask
            if f:
                fy = multiples[f]
                if fy is None:
                    fy = multiples[f] = times(y, f)
                x ^= fy
                if not x:
                    continue
            out.append(x)
        done, rest = out[: len(done)] + [y], out[len(done) :]
        pivots.append(cols - 1 - sh // b)
    _unpack(done, m, b)
    return pivots


def _eliminate_gf3(m: np.ndarray) -> list[int]:
    """Packed Gauss-Jordan over F_3: a row is the pair of masks of its ones
    and its twos, column j at bit 2*(cols-1-j) of each (the low bit of its
    packed 2-bit group), kept with their union. Negating a row swaps its masks, and a sum takes
    six bitwise operations (Kawahara, Aoki and Takagi, Pairing 2008):
    t = (x1 | y2) ^ (x2 | y1), then ones (x2 | y2) ^ t and twos (x1 | y1) ^ t.
    """
    cols = m.shape[1]
    evens = ((1 << 2 * cols) - 1) // 3
    done: list[tuple] = []
    rest = []
    for x in _pack(m, 2):
        if x:
            x1, x2 = x & evens, (x >> 1) & evens
            rest.append((x1 | x2, x1, x2))
    if not rest:  # a zero block is its own echelon form
        return []
    pivots: list[int] = []
    while rest:
        # the row whose first nonzero column comes first
        y = max(rest)
        rest.remove(y)
        s, y1, y2 = y
        bit = 1 << (s.bit_length() - 1)
        if y2 & bit:
            y = (s, y2, y1)
            y1, y2 = y2, y1
        out = []
        for row in done + rest:
            s, x1, x2 = row
            if s & bit:
                if x1 & bit:  # x - y = x + (y2, y1)
                    t = (x1 | y1) ^ (x2 | y2)
                    x1, x2 = (x2 | y1) ^ t, (x1 | y2) ^ t
                else:  # x - 2y = x + y
                    t = (x1 | y2) ^ (x2 | y1)
                    x1, x2 = (x2 | y2) ^ t, (x1 | y1) ^ t
                s = x1 | x2
                if not s:
                    continue
                row = (s, x1, x2)
            out.append(row)
        done, rest = out[: len(done)] + [y], out[len(done) :]
        pivots.append(cols - 1 - (bit.bit_length() - 1) // 2)
    _unpack([x1 | x2 << 1 for _, x1, x2 in done], m, 2)
    return pivots


def _eliminate(ctx: FqContext, m: np.ndarray) -> list[int]:
    """Gauss-Jordan on one block of digits in [0, p), in place; returns its
    pivot columns. The block ends as the reduced echelon form of its row
    space, rows past the rank zero. That form is unique, so either path
    below writes the same bytes, those of an elimination one pivot at a
    time that reduces after every step.

    Packed rows (``_eliminate_char2``, ``_eliminate_gf3``): each row is
    packed into Python ints with one product of the block against powers
    of two; zero rows drop out. The next pivot row is the one with the
    largest packed value, whose first nonzero column comes first, and it
    is added into every other row that is nonzero in that column; rows
    that become zero drop out, and the loop ends when no row is left. The
    rows are unpacked once at the end. They are taken:
      - over GF(2^d), always: they took a third of numpy's time on the
        391 GF(2) and GF(4) blocks of a coords benchmark pass (seed 1), and
        were 1.05 to 20 times faster on random, half-rank and one-hot
        blocks from 4 x 4 to 256 x 256;
      - over GF(3), when the block has at most GF3_PACK_ROWS = 32 rows or
        at most one nonzero entry in GF3_SPARSE = 16. A taller, denser
        block costs the packed loop a Python step per live row per pivot,
        which lost to numpy by up to 22% from 48 x 48 to 128 x 128 with
        10% or more nonzero entries, and by 2x on random 200 x 64 stacks.
        The GF(3) blocks past 32 rows of a coords pass (seed 1, its
        once-run dim-243 tower included) are all sparse, under 1% nonzero
        from 51 x 3 to 243 x 243: packed they took 8.4 ms against 33.6 ms.

    The numpy path: the pivot is the first nonzero entry, column by column,
    among the rows not yet used. Only the columns nonzero at entry are
    visited, found with one ``any`` over the block: a column that is zero
    at entry stays zero under every rank-1 update, since the pivot row is
    zero there too. The reduction mod p is delayed, after FFLAS-FFPACK: a
    pivot reduces only the column it searches and its own row before
    scaling it. The rank-1 update goes in unreduced, as one product of the
    column's digits with the row folded through the modulus, and each adds
    at most d*(p-1)^2 to an entry's magnitude. So the block is reduced
    whole only every (2^62 - p) // (d*(p-1)^2) pivots, and once at the
    end; ``FqContext`` refuses a p for which that interval would be zero.
    """
    p, d = ctx.p, ctx.d
    rows, cols = m.shape[0], m.shape[1]
    if p == 2:
        return _eliminate_char2(ctx, m)
    if p == 3 and d == 1 and (
            rows <= GF3_PACK_ROWS or GF3_SPARSE * np.count_nonzero(m) <= rows * cols):
        return _eliminate_gf3(m)
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
