"""Exact linear algebra: the blocked echelon form against a per-pivot reference."""

import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsderiv.errors import NoSolution, NotInvertible
from hsderiv.gf import FqContext
from hsderiv.linalg import (
    MIN_BLOCK_ROWS,
    Subspace,
    _eliminate,
    _eliminate_char2,
    _eliminate_gf3,
    inv_matrix,
    kernel_space,
    nullspace,
    preimage_solve,
    rref,
    solve,
)
from oracles import (
    digit_add,
    digit_basis_products,
    digit_eliminate,
    digit_inv,
    digit_mul,
    digit_neg,
)

FIELDS = [(p, d) for p in (2, 3, 5, 7, 367) for d in (1, 2, 3, 4)]


@lru_cache(maxsize=None)
def _ctx(p, d):
    return FqContext(p, d)


# -- reference: Gauss-Jordan one pivot at a time over the whole matrix ------


def _ref_eliminate(ctx, m, row, col):
    p = ctx.p
    pivot = tuple(int(v) for v in m[row, col])
    inv = digit_inv(ctx.p, ctx.modulus, pivot)
    m[row] = ctx.arr_scale(inv, m[row])
    factors = m[:, col].copy()
    factors[row] = 0
    if ctx.d == 1:
        update = factors[:, 0][:, None] * m[row][None, :, 0]
        m[:, :, 0] = (m[:, :, 0] - update) % p
    else:
        red = digit_basis_products(ctx.p, ctx.modulus)
        update = np.einsum("rs,ct,stu->rcu", factors, m[row], red)
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


# -- stacks taller than one row block -----------------------------------------


@st.composite
def _tall_cases(draw):
    """(ctx, matrix, V): 65 to 300 rows by 1 to 12 columns, so rref takes a
    second row block and often more, of every rank kind; V full, zero or a
    random proper subspace of the columns."""
    ctx = _ctx(*draw(st.sampled_from(FIELDS)))
    rows, cols = draw(st.integers(MIN_BLOCK_ROWS + 1, 300)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat = _matrix(ctx, rng, rows, cols, draw(st.sampled_from(KINDS)))
    side = draw(st.sampled_from(("full", "zero", "proper")))
    if side == "full":
        V = Subspace.full(ctx, cols)
    elif side == "zero" or cols == 1:
        V = Subspace.zero_space(ctx, cols)
    else:
        k = int(rng.integers(1, cols))
        V = Subspace.from_vectors(ctx, cols, _full_rank(ctx, rng, k, cols, k))
    return ctx, mat, V


@given(_tall_cases())
def test_tall_stacks_match_reference(case):
    ctx, mat, V = case
    m, pivots = rref(ctx, mat)
    want, want_pivots = ref_rref(ctx, mat)
    assert pivots == want_pivots
    assert np.array_equal(m, want)
    assert np.array_equal(nullspace(ctx, mat), ref_nullspace(ctx, mat))
    # the kernel inside V is the kernel of mat stacked with V's annihilator
    # (the vectors y with V.basis @ y = 0), in reduced echelon form
    ann = ref_nullspace(ctx, V.basis)
    joint = ref_nullspace(ctx, np.concatenate([mat, ann]))
    want, want_pivots = ref_rref(ctx, joint)
    got = kernel_space(ctx, mat, within=V)
    assert got.pivots == want_pivots
    assert got.basis.tobytes() == want[: len(want_pivots)].tobytes()


# -- kernels inside a subspace, and stacks of rows --------------------------


@st.composite
def _kernel_cases(draw):
    """(ctx, matrix, V): d = 1 or 2, matrices with zero rows among them, and
    V full, zero or proper (rank strictly between 0 and the column count)."""
    ctx = _ctx(draw(st.sampled_from((2, 3, 5))), draw(st.sampled_from((1, 2))))
    cols = draw(st.integers(2, 10))
    rows = draw(st.sampled_from((0, 1, 3, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat = _matrix(ctx, rng, rows, cols, draw(st.sampled_from(KINDS)))
    side = draw(st.sampled_from(("full", "zero", "proper")))
    if side == "full":
        V = Subspace.full(ctx, cols)
    elif side == "zero":
        V = Subspace.zero_space(ctx, cols)
    else:
        k = int(rng.integers(1, cols))
        V = Subspace.from_vectors(ctx, cols, _full_rank(ctx, rng, k, cols, k))
    return ctx, mat, V


@given(_kernel_cases())
def test_kernel_space_within_equals_the_intersection(case):
    ctx, mat, V = case
    got = kernel_space(ctx, mat, within=V)
    want = kernel_space(ctx, mat).intersect(V)
    assert got.ambient == want.ambient and got.pivots == want.pivots
    assert got.basis.dtype == want.basis.dtype and got.basis.shape == want.basis.shape
    assert got.basis.tobytes() == want.basis.tobytes()


@given(_kernel_cases(), st.integers(0, 2**32 - 1))
def test_stacks_of_rows_match_row_by_row(case, seed):
    ctx, _, V = case
    n = V.ambient
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 6))
    inside = ctx.mat_mul(rng.integers(0, ctx.p, (k, V.dim, ctx.d)), V.basis)
    coords = V.coords_of(inside)
    assert coords.shape == (k, V.dim, ctx.d)
    for r in range(k):
        assert np.array_equal(coords[r], V.coords_of(inside[r]))
    assert V.contains(inside)
    assert Subspace.from_vectors(ctx, n, inside).is_subspace_of(V)
    vecs = rng.integers(0, ctx.p, (k, n, ctx.d))
    reps = V.reduce_mod(vecs)
    for r in range(k):
        assert np.array_equal(reps[r], V.reduce_mod(vecs[r]))
    if V.dim < n:
        # a unit vector off the pivots lies outside V; put it in one row
        free = [c for c in range(n) if c not in V.pivots]
        inside[int(rng.integers(0, k))] = ctx.mat_eye(n)[free[0]]
        assert not V.contains(inside)
        with pytest.raises(NoSolution, match="vector lies outside the subspace"):
            V.coords_of(inside)


# -- preimage_solve inside an invariant subspace ----------------------------


def _restricted_solve(ctx, T, V, b):
    """Reference: solve on V's echelon coordinates with T's restriction to V."""
    cols = [V.coords_of(ctx.mat_vec(T, V.basis[r])) for r in range(V.dim)]
    rmat = np.stack(cols, axis=1) if cols else ctx.zeros((0, 0))
    return V.lift(solve(ctx, rmat, V.coords_of(b)))


@given(matrices(max_rows=10, max_cols=10), st.integers(0, 2**32 - 1),
       st.sampled_from(("image", "inside", "outside")))
def test_preimage_solve_matches_restricted_solve(case, seed, target):
    ctx, rng, mat = case
    n = mat.shape[1]
    V = Subspace.from_vectors(ctx, n, mat)
    # T maps V's basis into V and the unit vectors off V's pivots anywhere;
    # with Q holding those n vectors as columns, T = images @ Q^-1
    rng = np.random.default_rng(seed)
    free = [c for c in range(n) if c not in V.pivots]
    Q = np.concatenate([V.basis, ctx.mat_eye(n)[free]]).transpose(1, 0, 2)
    inside = ctx.mat_mul(rng.integers(0, ctx.p, (V.dim, V.dim, ctx.d)), V.basis)
    images = np.concatenate([inside, rng.integers(0, ctx.p, (len(free), n, ctx.d))])
    T = ctx.mat_mul(images.transpose(1, 0, 2), inv_matrix(ctx, Q))
    if target == "image":
        b = ctx.mat_vec(T, V.lift(rng.integers(0, ctx.p, (V.dim, ctx.d))))
    elif target == "inside":
        b = V.lift(rng.integers(0, ctx.p, (V.dim, ctx.d)))
    else:
        b = rng.integers(0, ctx.p, (n, ctx.d))
    try:
        want = _restricted_solve(ctx, T, V, b)
    except NoSolution:
        with pytest.raises(NoSolution):
            preimage_solve(ctx, [(T, b)], within=V)
        return
    assert np.array_equal(preimage_solve(ctx, [(T, b)], within=V), want)


# -- one elimination block against Python ints -----------------------------

# _eliminate reduces the whole block every (2^62 - p) // (d*(p-1)^2) pivots:
# after every pivot at p = 2^31 - 1, every 2 pivots at p = 1073741789 over
# F_{p^2}, and never within a block at the small primes. An int64 product
# of such digits can wrap, so inputs and reference stay on Python ints.
ELIMINATE_FIELDS = [(2, 1), (2, 2), (3, 1), (3, 2), (7, 3), (2, 4), (65521, 1),
                    (2147483647, 1), (1073741789, 2)]


@st.composite
def _blocks(draw):
    """(ctx, rows of digit tuples, column count): random, rank-deficient
    (rows combined from fewer rows) and zero-column blocks, wide and tall."""
    ctx = _ctx(*draw(st.sampled_from(ELIMINATE_FIELDS)))
    p, d = ctx.p, ctx.d
    nrows, ncols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    kind = draw(st.sampled_from(("random", "low", "zero-columns")))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))

    def element():
        return tuple(rnd.randrange(p) for _ in range(d))

    rows = [[element() for _ in range(ncols)] for _ in range(nrows)]
    if kind == "low" and nrows > 1:
        rank = rnd.randrange(nrows)
        for i in range(rank, nrows):
            row = [(0,) * d] * ncols
            for base in rows[:rank]:
                f = element()
                row = [digit_add(p, x, digit_mul(p, ctx.modulus, f, y))
                       for x, y in zip(row, base)]
            rows[i] = row
        rnd.shuffle(rows)
    elif kind == "zero-columns":
        for c in rnd.sample(range(ncols), rnd.randrange(ncols + 1)):
            for row in rows:
                row[c] = (0,) * d
    return ctx, rows, ncols


@given(_blocks())
def test_eliminate_matches_one_pivot_at_a_time(case):
    ctx, rows, ncols = case
    m = np.array(rows, dtype=np.int64).reshape(len(rows), ncols, ctx.d)
    pivots = _eliminate(ctx, m)
    want, want_pivots = digit_eliminate(ctx.p, ctx.modulus, rows, ncols)
    assert pivots == want_pivots
    assert m.tolist() == [[list(x) for x in row] for row in want]


@pytest.mark.parametrize("field", [(2147483647, 1), (1073741789, 2)])
def test_eliminate_reduces_on_its_interval(field):
    # an identity block beside entries (p-1, ..., p-1): the first k pivots
    # need no scaling and leave their rows as they are, so each of them adds
    # at least (p-1)^2 to the last row's entry in column k, past 2^63 after
    # k of them unless the block is reduced in between. That entry is the
    # last pivot, and column k + 1 is divided by it.
    ctx = _ctx(*field)
    p, d, k = ctx.p, ctx.d, 10
    one, zero, top = (1,) + (0,) * (d - 1), (0,) * d, (p - 1,) * d
    rows = [[one if j == i else zero for j in range(k)] + [top, one] for i in range(k)]
    rows.append([top] * k + [zero, zero])
    m = np.array(rows, dtype=np.int64)
    pivots = _eliminate(ctx, m)
    want, want_pivots = digit_eliminate(p, ctx.modulus, rows, k + 2)
    assert pivots == want_pivots == list(range(k + 1))
    assert m.tolist() == [[list(x) for x in row] for row in want]


# -- packed rows over F_{2^d} and F_3 -----------------------------------------

PACKED_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1)]


def _packed(ctx, m):
    """The packed elimination of the block's field, whatever _eliminate
    would pick for its shape."""
    return _eliminate_gf3(m) if ctx.p == 3 else _eliminate_char2(ctx, m)


def _assert_like_reference(ctx, mat, *eliminations):
    """Each elimination, on a copy of mat, gives digit_eliminate's pivots
    and whole block, zero rows included."""
    rows = [[tuple(x) for x in row] for row in mat.tolist()]
    want, want_pivots = digit_eliminate(ctx.p, ctx.modulus, rows, mat.shape[1])
    want = [[list(x) for x in row] for row in want]
    for eliminate in eliminations:
        m = mat.copy()
        assert eliminate(ctx, m) == want_pivots
        assert m.tolist() == want


@st.composite
def _packed_blocks(draw):
    """(ctx, block): 0 to 70 rows by 0 to 130 columns over a field with a
    packed elimination, with column counts at the 64- and 128-bit word
    boundaries drawn often; random, rank-deficient, zero-column and sparse
    one-hot blocks."""
    ctx = _ctx(*draw(st.sampled_from(PACKED_FIELDS)))
    rows = draw(st.integers(0, 70))
    cols = draw(st.one_of(st.integers(0, 130), st.sampled_from((*range(61, 67), 127, 128, 129))))
    kind = draw(st.sampled_from(("random", "low", "zero-columns", "one-hot")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "one-hot":
        m = ctx.zeros((rows, cols))
        if cols:
            entries = rng.integers(0, ctx.p, (rows, ctx.d))
            entries[~entries.any(axis=1), 0] = 1
            m[np.arange(rows), rng.integers(0, cols, rows)] = entries
        return ctx, m
    m = _matrix(ctx, rng, rows, cols, "low" if kind == "low" else "random")
    if kind == "zero-columns" and cols:
        m[:, rng.random(cols) < rng.random()] = 0
    return ctx, m


@settings(max_examples=60)
@given(_packed_blocks())
def test_packed_elimination_matches_one_pivot_at_a_time(case):
    ctx, mat = case
    _assert_like_reference(ctx, mat, _eliminate, _packed)


@pytest.mark.parametrize("field", PACKED_FIELDS)
@pytest.mark.parametrize("cols", [63, 64, 65, 127, 128, 129])
def test_packed_elimination_at_word_boundaries(field, cols):
    # a packed row is built and read back in 64-bit words: 64 columns over
    # GF(2), 32 over GF(4) and GF(3), 21 over GF(8), 16 over GF(16)
    ctx = _ctx(*field)
    rng = np.random.default_rng(cols)
    for kind in ("random", "low"):
        _assert_like_reference(ctx, _matrix(ctx, rng, 24, cols, kind), _packed)


@st.composite
def _tall_packed_cases(draw):
    """(ctx, matrix): GF(2) and GF(3) stacks of 65 to 300 rows and 1 to 130
    columns, every rank kind, so rref takes several packed blocks."""
    ctx = _ctx(*draw(st.sampled_from([(2, 1), (3, 1)])))
    rows = draw(st.integers(MIN_BLOCK_ROWS + 1, 300))
    cols = draw(st.one_of(st.integers(1, 130), st.integers(61, 66)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return ctx, _matrix(ctx, rng, rows, cols, draw(st.sampled_from(KINDS)))


@settings(max_examples=40)
@given(_tall_packed_cases())
def test_tall_packed_stacks_match_reference(case):
    ctx, mat = case
    m, pivots = rref(ctx, mat)
    want, want_pivots = ref_rref(ctx, mat)
    assert pivots == want_pivots
    assert np.array_equal(m, want)


def test_eliminate_picks_the_packed_path_for_small_fields(monkeypatch):
    # the numpy elimination folds its pivot row through the modulus once per
    # pivot (FqContext._folded); the packed eliminations never fold
    folds = []
    folded = FqContext._folded
    monkeypatch.setattr(FqContext, "_folded", lambda self, b: folds.append(1) or folded(self, b))
    rng = np.random.default_rng(23)

    def eliminate(field, rows, cols):
        ctx = _ctx(*field)
        m = _matrix(ctx, rng, rows, cols, "random")
        folds.clear()
        pivots = _eliminate(ctx, m)
        assert pivots
        return len(folds), len(pivots)

    for field in PACKED_FIELDS:
        assert eliminate(field, 8, 8)[0] == 0
        assert eliminate(field, 64, 64)[0] == 0 or field == (3, 1)
    # F_3 keeps packed rows while they are few or sparse
    assert eliminate((3, 1), 32, 32)[0] == 0
    sparse = _ctx(3, 1).zeros((81, 81))
    sparse[np.arange(81), rng.integers(0, 81, 81), 0] = 1
    folds.clear()
    assert _eliminate(_ctx(3, 1), sparse) and not folds
    # dense F_3 blocks past 32 rows, and every other field, take the numpy
    # path with its delayed reduction: one fold per pivot
    for field, rows, cols in [((3, 1), 64, 64), ((3, 1), 48, 24), ((3, 1), 40, 80),
                              ((3, 2), 8, 8),
                              ((5, 1), 8, 8), ((2147483647, 1), 8, 8)]:
        n_folds, n_pivots = eliminate(field, rows, cols)
        assert n_folds == n_pivots


def test_rref_of_a_tall_stack_at_the_largest_prime():
    # 140 x 5 stacks of rank 4 at p = 2^31 - 1: rref takes the rows in
    # three blocks, and takes the second and third off the basis by a
    # product whose inner dimension is the pivot count so far, up to 4,
    # where one int64 product holds only 2 terms of (p-1)^2
    ctx = _ctx(2147483647, 1)
    p = ctx.p
    rnd = random.Random(12)
    assert 2 * MIN_BLOCK_ROWS < 140
    for _ in range(10):
        base = [[(rnd.randrange(p),) for _ in range(5)] for _ in range(4)]
        rows = list(base)
        for _ in range(136):
            row = [(0,)] * 5
            for b in base:
                f = (rnd.randrange(p),)
                row = [digit_add(p, x, digit_mul(p, ctx.modulus, f, y)) for x, y in zip(row, b)]
            rows.append(row)
        rnd.shuffle(rows)
        m, pivots = rref(ctx, np.array(rows, dtype=np.int64))
        want, want_pivots = digit_eliminate(p, ctx.modulus, rows, 5)
        assert pivots == want_pivots and len(pivots) == 4
        assert m.tolist() == [[list(x) for x in row] for row in want]


# -- the one product kernel --------------------------------------------------


def _scalar_entry(ctx, a, b, i, j):
    acc = (0,) * ctx.d
    for t in range(a.shape[1]):
        prod = digit_mul(ctx.p, ctx.modulus, tuple(a[i, t]), tuple(b[t, j]))
        acc = digit_add(ctx.p, acc, prod)
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
