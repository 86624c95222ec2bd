"""Exact linear algebra: the blocked echelon form against a per-pivot reference."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hsderiv.errors import NoSolution, NotInvertible
from hsderiv.gf import FqContext
from hsderiv.linalg import Subspace, inv_matrix, nullspace, rref, solve

FIELDS = [(p, d) for p in (2, 3, 5, 7, 367) for d in (1, 2, 3, 4)]


@lru_cache(maxsize=None)
def _ctx(p, d):
    return FqContext(p, d)


# -- reference: Gauss-Jordan one pivot at a time over the whole matrix ------


def _ref_eliminate(ctx, m, row, col):
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


def ref_rref(ctx, mat):
    m = mat.copy() % ctx.p
    rows, cols = m.shape[0], m.shape[1]
    pivots = []
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
        _ref_eliminate(ctx, m, r, c)
        pivots.append(c)
        r += 1
    return m, pivots


def ref_nullspace(ctx, mat):
    m, pivots = ref_rref(ctx, mat)
    cols = mat.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    out = ctx.zeros((len(free), cols))
    for i, f in enumerate(free):
        out[i, f, 0] = 1
        for prow, pcol in enumerate(pivots):
            out[i, pcol] = ctx.arr_neg(m[prow, f])
    return out


def ref_solve(ctx, mat, rhs):
    aug = np.concatenate([mat, rhs[:, None, :]], axis=1)
    m, pivots = ref_rref(ctx, aug)
    cols = mat.shape[1]
    if pivots and pivots[-1] == cols:
        raise NoSolution("inconsistent linear system")
    x = ctx.zeros((cols,))
    for prow, pcol in enumerate(pivots):
        x[pcol] = m[prow, cols]
    return x


def ref_inv_matrix(ctx, mat):
    n = mat.shape[0]
    aug = np.concatenate([mat, ctx.mat_eye(n)], axis=1)
    m, pivots = ref_rref(ctx, aug)
    if pivots != list(range(n)):
        raise NotInvertible("matrix is singular")
    return m[:, n:]


# -- inputs ----------------------------------------------------------------


def _full_rank(ctx, rng, rows, cols, k):
    """A rank-k (rows x cols) product of a full-column-rank and a full-row-rank factor."""
    left = rng.integers(0, ctx.p, (rows, k, ctx.d))
    right = rng.integers(0, ctx.p, (k, cols, ctx.d))
    left[rng.permutation(rows)[:k]] = ctx.mat_eye(k)
    right[:, rng.permutation(cols)[:k]] = ctx.mat_eye(k)
    return ctx.mat_mul(left, right)


def _matrix(ctx, rng, rows, cols, kind):
    if kind == "zero" or rows == 0 or cols == 0:
        return ctx.zeros((rows, cols))
    if kind == "random":
        return rng.integers(0, ctx.p, (rows, cols, ctx.d))
    top = min(rows, cols)
    k = top if kind == "full" else int(rng.integers(1, top + 1)) // 2
    return _full_rank(ctx, rng, rows, cols, k)


KINDS = ("random", "zero", "low", "full")


@st.composite
def matrices(draw, max_rows=40, max_cols=12, square=False):
    """(ctx, rng, matrix): tall, wide and empty shapes of every rank kind."""
    ctx = _ctx(*draw(st.sampled_from(FIELDS)))
    rows = draw(st.integers(0, max_rows))
    cols = rows if square else draw(st.integers(0, max_cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return ctx, rng, _matrix(ctx, rng, rows, cols, draw(st.sampled_from(KINDS)))


# -- blocked results equal the reference -----------------------------------


@given(matrices())
def test_rref_matches_reference(case):
    ctx, _, mat = case
    m, pivots = rref(ctx, mat)
    want, want_pivots = ref_rref(ctx, mat)
    assert pivots == want_pivots
    assert m.dtype == want.dtype
    assert np.array_equal(m, want)


@given(matrices())
def test_nullspace_matches_reference(case):
    ctx, _, mat = case
    assert np.array_equal(nullspace(ctx, mat), ref_nullspace(ctx, mat))


@given(matrices(), st.booleans())
def test_solve_matches_reference(case, consistent):
    ctx, rng, mat = case
    rows, cols = mat.shape[0], mat.shape[1]
    if consistent:
        rhs = ctx.mat_vec(mat, rng.integers(0, ctx.p, (cols, ctx.d)))
    else:
        rhs = rng.integers(0, ctx.p, (rows, ctx.d))
    try:
        want = ref_solve(ctx, mat, rhs)
    except NoSolution:
        with pytest.raises(NoSolution):
            solve(ctx, mat, rhs)
        return
    assert np.array_equal(solve(ctx, mat, rhs), want)


@given(matrices(max_rows=12, square=True))
def test_inv_matrix_matches_reference(case):
    ctx, _, mat = case
    try:
        want = ref_inv_matrix(ctx, mat)
    except NotInvertible:
        with pytest.raises(NotInvertible):
            inv_matrix(ctx, mat)
        return
    assert np.array_equal(inv_matrix(ctx, mat), want)
    assert np.array_equal(ctx.mat_mul(mat, want), ctx.mat_eye(mat.shape[0]))


@given(matrices())
def test_from_vectors_ignores_row_order(case):
    ctx, rng, mat = case
    ambient = mat.shape[1]
    space = Subspace.from_vectors(ctx, ambient, mat)
    shuffled = Subspace.from_vectors(ctx, ambient, mat[rng.permutation(mat.shape[0])])
    assert shuffled == space
    assert shuffled.pivots == space.pivots


@given(matrices(), st.integers(0, 2**32 - 1))
def test_coords_and_coset_representatives(case, seed):
    ctx, rng, mat = case
    ambient = mat.shape[1]
    V = Subspace.from_vectors(ctx, ambient, mat)
    coords = np.random.default_rng(seed).integers(0, ctx.p, (V.dim, ctx.d))
    inside = V.lift(coords)
    assert np.array_equal(V.coords_of(inside), coords)
    assert not V.reduce_mod(inside).any()
    vec = rng.integers(0, ctx.p, (ambient, ctx.d))
    rep = V.reduce_mod(vec)
    assert not rep[V.pivots].any()
    assert V.contains((vec - rep) % ctx.p)
    if rep.any():
        with pytest.raises(NoSolution):
            V.coords_of(vec)


# -- the one product kernel --------------------------------------------------


def _scalar_entry(ctx, a, b, i, j):
    acc = (0,) * ctx.d
    for t in range(a.shape[1]):
        acc = ctx.s_add(acc, ctx.s_mul(tuple(a[i, t]), tuple(b[t, j])))
    return acc


def test_mat_mul_large_extension_product():
    # a (64 x 64) . (64 x 512) product over F_4, checked on sampled entries
    ctx = _ctx(2, 2)
    rng = np.random.default_rng(64)
    a = rng.integers(0, 2, (64, 64, 2))
    b = rng.integers(0, 2, (64, 512, 2))
    out = ctx.mat_mul(a, b)
    assert out.shape == (64, 512, 2)
    for i, j in zip(rng.integers(0, 64, 40), rng.integers(0, 512, 40)):
        assert tuple(out[i, j]) == _scalar_entry(ctx, a, b, i, j)
