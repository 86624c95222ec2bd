"""Constants subspaces: kernels, towers, kernel/image checks, solvers."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hsderiv.artinian as artinian_mod
from hsderiv.artinian import ArtinianModel
from hsderiv.derivation import HSDerivation, canonical_derivation, \
    twist_by_automorphism
from hsderiv.errors import HypothesisFailure, NoSolution, ResourceGuard
from hsderiv.gf import FqContext
from hsderiv.grouplaw import make_additive, make_multiplicative, make_witt2, \
    product_law
from hsderiv.lattice import (
    ConstantsTower,
    absolute_constants,
    constants,
    divisible_restriction,
    joint_kernel,
    kernel_component,
    _zm,
    restrict_matrix,
    tower,
)
from hsderiv.linalg import Subspace, inv_matrix, kernel_space, preimage_solve
from oracles import derivation_zoo, tower_by_cumulative_stacks, zm_by_kernel_and_image


def _canon(law):
    return canonical_derivation(ArtinianModel(law.ctx, law.e, law.m), law)


def _trivial(ctx, e, m):
    model = ArtinianModel(ctx, e, m)
    law = make_additive(ctx, e, m)
    return HSDerivation(model, law, [model.ring_xv.var(v) for v in model.xvars])


def _span(model, polys):
    return Subspace.from_vectors(
        model.ctx, model.dim, [model.vec_from_poly(f) for f in polys])


def test_constants_additive_p2_m2():
    ctx = FqContext(2, 1)
    D = _canon(make_additive(ctx, 1, 2))
    V = constants(D)
    model = D.model
    assert V.dim == 2
    assert V == _span(model, [model.ring.one, model.ring.monomial((2,))])
    assert [str(model.poly_from_vec(row)) for row in V.basis] == ["1", "x1^2"]


def test_constants_witt2_p2_m1():
    ctx = FqContext(2, 1)
    D = _canon(make_witt2(ctx, 1, [1]))
    V = constants(D)
    assert V.dim == 1
    assert V == _span(D.model, [D.model.ring.one])


def test_trivial_derivation_constants_are_everything():
    D = _trivial(FqContext(3, 1), 1, 2)
    assert absolute_constants(D) == Subspace.full(D.model.ctx, D.model.dim)
    assert constants(D) == Subspace.full(D.model.ctx, D.model.dim)


def test_absolute_constants_are_smaller_for_m2():
    ctx = FqContext(2, 1)
    D = _canon(make_additive(ctx, 1, 2))
    A = absolute_constants(D)
    assert A.dim == 1 and A == _span(D.model, [D.model.ring.one])
    assert A.is_subspace_of(constants(D))


def test_kernel_component_matches_matrix_kernel():
    ctx = FqContext(3, 1)
    D = _canon(make_witt2(ctx, 1, [2]))
    for i in D.model.xidx.monomials:
        assert kernel_component(D, i) == kernel_space(ctx, D.component(i).mat)


def test_tower_additive_dims():
    for p in (2, 3):
        ctx = FqContext(p, 1)
        for m in (1, 2):
            T = tower(_canon(make_additive(ctx, 1, m)))
            assert T.dims == tuple(p**s for s in range(m, -1, -1))
            assert T.model_degrees == (p,) * m
            assert T.degree_hypothesis_ok


def test_tower_witt2_p2_m2_dims():
    ctx = FqContext(2, 1)
    T = tower(_canon(make_witt2(ctx, 2, [1, 1])))
    assert T.dims == (16, 4, 1)
    assert T.model_degrees == (4, 4)
    assert T.level(-1).dim == 16 and T.level(1).dim == 1


def test_tower_trivial_is_flagged_not_rejected():
    D = _trivial(FqContext(2, 1), 1, 2)
    T = tower(D)
    assert T.dims == (4, 4, 4)
    assert not T.degree_hypothesis_ok


def test_tower_degree_hypothesis_for_constructor_zoo():
    for p in (2, 3):
        ctx = FqContext(p, 1)
        for m in (1, 2):
            laws = [
                make_additive(ctx, 1, m),
                make_multiplicative(ctx, m),
                make_additive(ctx, 2, m),
                make_witt2(ctx, m, list(range(1, m + 1))),
                product_law(make_additive(ctx, 1, m),
                            make_multiplicative(ctx, m)),
            ]
            for law in laws:
                assert tower(_canon(law)).degree_hypothesis_ok, (p, m, law.kind)


def test_tower_by_descent_equals_cumulative_stacks():
    for D in derivation_zoo():
        got = tower(D).levels
        want = tower_by_cumulative_stacks(D)
        assert [V.pivots for V in got] == [V.pivots for V in want], D.law.kind
        assert got == tuple(want), D.law.kind


def test_tower_levels_inside_component_kernels_witt2():
    # model analog of the kernel containment: F_n kills every component
    # with both exponents below p^(n+1)
    rng = np.random.default_rng(17)
    for p in (2, 3):
        ctx = FqContext(p, 1)
        law = make_witt2(ctx, 2, [1, p - 1])
        D = _canon(law)
        xs = [D.model.ring.var(v) for v in D.model.xvars]
        Tw = twist_by_automorphism(D, [xs[0] + xs[1] ** 2, xs[1]])
        for DD in (D, Tw):
            tw = tower(DD)
            for nlvl in range(2):
                F = tw.level(nlvl)
                bound = p ** (nlvl + 1)
                for i, j in DD.model.xidx.monomials:
                    if (i, j) == (0, 0) or i >= bound or j >= bound:
                        continue
                    K = kernel_component(DD, (i, j))
                    assert F.is_subspace_of(K), (p, nlvl, (i, j))


def test_tower_rejects_non_closed_level():
    ctx = FqContext(2, 1)
    model = ArtinianModel(ctx, 1, 2)
    full = Subspace.full(ctx, model.dim)
    x_only = _span(model, [model.ring.var("x1")])
    with pytest.raises(HypothesisFailure):
        ConstantsTower(model, [full, x_only])
    ones = _span(model, [model.ring.one])
    with pytest.raises(HypothesisFailure):
        ConstantsTower(model, [full, ones, full])
    # {x, x^2}: x*x = x^2 and x^2*x^2 = 0 stay inside, so only the
    # off-diagonal product x*x^2 = x^3 leaves it
    xs = _span(model, [model.ring.var("x1"), model.ring.monomial((2,))])
    with pytest.raises(HypothesisFailure, match="level 0 is not closed"):
        ConstantsTower(model, [full, xs])


def test_zm_check_examples():
    ctx = FqContext(2, 1)
    Da = _canon(make_additive(ctx, 1, 2))
    rep = _zm(ctx, Da.component((1,)).mat)
    assert rep == {"nilpotent_p": True, "ker_im_equal": True}
    from hsderiv.derivation import OperatorMatrix
    from hsderiv.linalg import image_space
    im = image_space(ctx, Da.component((1,)).mat)
    assert im == _span(Da.model, [Da.model.ring.one,
                                  Da.model.ring.monomial((2,))])
    zero = OperatorMatrix.zero(Da.model)
    assert _zm(ctx, zero.mat) == {"nilpotent_p": True, "ker_im_equal": False}
    Dm = _canon(make_multiplicative(ctx, 2))
    assert not _zm(ctx, Dm.component((1,)).mat)["nilpotent_p"]


_ZM_CTX = {(p, d): FqContext(p, d)
           for p, d in ((2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3))}


@st.composite
def _zm_matrices(draw):
    """(ctx, T): a square matrix with random entries (n = 0..8), or Jordan
    blocks of sizes 1..p+1 in a random basis. The latter is p-nilpotent
    unless a block exceeds p, and then has ker T^(p-1) = im T exactly when
    every block has size p."""
    ctx = _ZM_CTX[draw(st.sampled_from(sorted(_ZM_CTX)))]
    p, d = ctx.p, ctx.d
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(0, 8))
        return ctx, rng.integers(0, p, (n, n, d))
    sizes = draw(st.lists(st.sampled_from((p, p, 1, p - 1, p + 1)), min_size=1, max_size=4))
    n = sum(sizes)
    jordan = ctx.zeros((n, n))
    start = 0
    for k in sizes:
        for i in range(start, start + k - 1):
            jordan[i, i + 1, 0] = 1
        start += k
    lower = rng.integers(0, p, (n, n, d)) * np.tril(np.ones((n, n), dtype=np.int64), -1)[..., None]
    upper = rng.integers(0, p, (n, n, d)) * np.triu(np.ones((n, n), dtype=np.int64), 1)[..., None]
    basis = ctx.mat_mul(ctx.arr_add(lower, ctx.mat_eye(n)), ctx.arr_add(upper, ctx.mat_eye(n)))
    return ctx, ctx.mat_mul(ctx.mat_mul(basis, jordan), inv_matrix(ctx, basis))


@settings(max_examples=150, deadline=None)
@given(_zm_matrices())
def test_zm_ranks_match_kernel_and_image(case):
    ctx, mat = case
    assert _zm(ctx, mat) == zm_by_kernel_and_image(ctx, mat)


def test_subspace_toolkit_basics():
    ctx = FqContext(2, 1)
    D = _canon(make_additive(ctx, 1, 2))
    V = constants(D)
    full = Subspace.full(ctx, D.model.dim)
    assert V.intersect(full) == V
    assert full.intersect(V) == V
    assert V.sum_with(V) == V
    x2 = D.model.vec_from_poly(D.model.ring.monomial((2,)))
    assert V.contains(x2)
    assert not V.contains(D.model.vec_from_poly(D.model.ring.var("x1")))


def test_preimage_solve_witness():
    ctx = FqContext(2, 1)
    D = _canon(make_additive(ctx, 1, 2))
    model = D.model
    T = D.component((1,))

    def witness(target, within=None):
        vec = preimage_solve(ctx, [(T.mat, model.vec_from_poly(target))], within)
        return model.poly_from_vec(vec)

    w = witness(model.ring.one)
    assert T.apply(w) == model.ring.one
    assert w == witness(model.ring.one)
    # constrained solve still succeeds inside a space containing x
    W = _span(model, [model.ring.var("x1"), model.ring.monomial((3,))])
    w2 = witness(model.ring.one, within=W)
    assert T.apply(w2) == model.ring.one
    assert W.contains(model.vec_from_poly(w2))
    with pytest.raises(NoSolution):
        witness(model.ring.var("x1"))
    with pytest.raises(NoSolution):
        witness(model.ring.one, within=constants(D))


def test_restrict_matrix():
    ctx = FqContext(2, 1)
    D = _canon(make_additive(ctx, 1, 2))
    model = D.model
    V = constants(D)
    R = restrict_matrix(D, (1,), V)
    assert R.shape == (2, 2, 1) and not R.any()
    # D_2 maps {1, x^2} to {0, 1}: nonzero restriction
    R2 = restrict_matrix(D, (2,), V)
    assert R2.any()
    with pytest.raises(HypothesisFailure, match=r"component \(1,\) does not preserve"):
        restrict_matrix(D, (1,), _span(model, [model.ring.var("x1")]))


def test_joint_kernel_within():
    ctx = FqContext(2, 1)
    D = _canon(make_additive(ctx, 1, 2))
    model = D.model
    full = Subspace.full(ctx, model.dim)
    W = _span(model, [model.ring.one, model.ring.var("x1")])
    assert joint_kernel(D, []) == full
    assert joint_kernel(D, [], W) == W
    assert joint_kernel(D, [(1,)], W) == kernel_component(D, (1,)).intersect(W)
    assert joint_kernel(D, [(1,), (2,), (3,)]) == absolute_constants(D)
    assert joint_kernel(D, [(1,)], full) == kernel_component(D, (1,))


def test_divisible_restriction_certificate():
    ctx = FqContext(2, 1)
    Da = _canon(make_additive(ctx, 1, 2))
    full = Subspace.full(ctx, Da.model.dim)
    R = divisible_restriction(Da, (1,), full)
    assert (R == restrict_matrix(Da, (1,), full)).all()
    # D_1 vanishes on the constants: nilpotent, but ker = everything != im = 0
    with pytest.raises(HypothesisFailure, match=r"balance fails for component \(1,\)"):
        divisible_restriction(Da, (1,), constants(Da))
    Dm = _canon(make_multiplicative(ctx, 2))
    with pytest.raises(HypothesisFailure, match=r"component \(1,\) is not p-nilpotent"):
        divisible_restriction(Dm, (1,), Subspace.full(ctx, Dm.model.dim))


def test_tower_is_guarded_at_the_axis_stack_size(monkeypatch):
    # additive e=2, p=3, m=1: an axis stack holds dim^2 * n = 243 digits,
    # the dim^3 table 729
    ctx = FqContext(3, 1)
    law = make_additive(ctx, 2, 1)
    dims = tower(_canon(law)).dims
    monkeypatch.setattr(artinian_mod, "TABLE_BUDGET", 500)
    assert tower(_canon(law)).dims == dims == (9, 1)
    monkeypatch.setattr(artinian_mod, "TABLE_BUDGET", 200)
    with pytest.raises(ResourceGuard):
        tower(_canon(law))


def test_tower_memory_stays_per_axis(monkeypatch):
    # additive e=5, p=3, m=1: dim 243; the dim^3 table alone is 110 MB
    ctx = FqContext(3, 1)
    D = _canon(make_additive(ctx, 5, 1))
    dim = D.model.dim
    sizes = []
    real = D._build_table

    def recording_build(axis=None):
        out = real(axis)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(D, "_build_table", recording_build)
    tracemalloc.start()
    try:
        t = tower(D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.dims == (243, 1)
    # one axis stack (1.4 MB) and its ladder at a time, plus the five kept
    # p-power matrices (0.47 MB each) and the eliminations
    assert peak < 8 * 2**20
    assert len(sizes) == 5 and max(sizes) < dim**3
