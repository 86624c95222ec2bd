"""Derivation layer: tables, iterativity, p-fold composites, twists,
reconstruction from p-power components."""

import numpy as np
import pytest

import hsderiv.artinian as artinian_mod
import hsderiv.derivation as derivation_mod
import hsderiv.linalg as linalg_mod
from hsderiv.artinian import ArtinianModel
from hsderiv.derivation import (
    HSDerivation,
    OperatorMatrix,
    canonical_derivation,
    evp_point,
    p_fold_evP,
    reconstruct_from_ppowers,
    truncate_derivation,
    twist_by_automorphism,
    witt2_pfold_expansion,
)
from hsderiv.errors import (
    ContextMismatch,
    FractionalExponent,
    IndexRange,
    LawAxiomFailure,
    NotInvertible,
    ReconstructionMismatch,
    RequiresCommutative,
    ResourceGuard,
    TruncationOrder,
)
from hsderiv.gf import FqContext, binom_mod_p, lambda_coeffs
from hsderiv.grouplaw import (
    FormalGroupLaw,
    make_additive,
    make_multiplicative,
    make_witt2,
    product_law,
    structure_constants,
    truncate_law,
)
from hsderiv.truncated import TruncatedRing, substitute
from oracles import pfold_by_repeated_composition


def _canon(law):
    return canonical_derivation(ArtinianModel(law.ctx, law.e, law.m), law)


def _random_witt2(ctx, m, rng):
    alphas = [ctx.scalar(tuple(int(rng.integers(0, ctx.p)) for _ in range(ctx.d)))
              for _ in range(m)]
    if not alphas[0]:
        alphas[0] = ctx.one
    return make_witt2(ctx, m, alphas)


def _zoo(p, m, emax=2, rng=None):
    ctx = FqContext(p, 1)
    rng = rng or np.random.default_rng(7 * p + m)
    laws = [
        make_additive(ctx, 1, m),
        make_multiplicative(ctx, m),
    ]
    if emax >= 2:
        laws.append(make_additive(ctx, 2, m))
        laws.append(_random_witt2(ctx, m, rng))
        laws.append(product_law(make_additive(ctx, 1, m),
                                make_multiplicative(ctx, m)))
    return laws


def test_canonical_additive_components_are_binomials():
    ctx = FqContext(3, 1)
    law = make_additive(ctx, 1, 2)
    D = _canon(law)
    model = D.model
    for i in range(9):
        xi = model.ring.monomial((i,))
        for nn in range(9):
            got = D.component_apply((nn,), xi)
            want = model.ring.monomial((i - nn,), binom_mod_p(i, nn, 3)) \
                if nn <= i else model.ring.zero
            assert got == want


def test_canonical_multiplicative_components():
    ctx = FqContext(2, 1)
    D = _canon(make_multiplicative(ctx, 2))
    x = D.model.ring.var("x1")
    assert D.component_apply((1,), x) == D.model.ring.one + x
    for j in range(2, 4):
        assert D.component_apply((j,), x).is_zero()


def test_canonical_witt2_component_values():
    # D_{(0,p^l)}(x1) = alpha_l * x2^((p-1)p^l), lambda_{p-1} = 1
    for p in (2, 3):
        ctx = FqContext(p, 1)
        alphas = [ctx.scalar(1), ctx.scalar(p - 1)]
        law = make_witt2(ctx, 2, alphas)
        D = _canon(law)
        model = D.model
        x1, x2 = model.ring.var("x1"), model.ring.var("x2")
        assert D.component_apply((1, 0), x1) == model.ring.one
        for l in range(2):
            got = D.component_apply((0, p**l), x1)
            want = model.ring.monomial((0, (p - 1) * p**l)).scale(alphas[l])
            assert got == want
        assert D.component_apply((0, 1), x2) == model.ring.one
        assert D.component_apply((1, 0), x2).is_zero()
        assert D.component_apply((0, 2), x2).is_zero()


def test_apply_is_multiplicative():
    rng = np.random.default_rng(41)
    ctx = FqContext(3, 1)
    law = _random_witt2(ctx, 1, rng)
    D = _canon(law)
    model = D.model
    for _ in range(8):
        f = model.poly_from_vec(rng.integers(0, 3, (model.dim, 1)))
        g = model.poly_from_vec(rng.integers(0, 3, (model.dim, 1)))
        assert D.apply(f * g) == D.apply(f) * D.apply(g)
        assert D.apply(f + g) == D.apply(f) + D.apply(g)
    one = model.ring.one
    assert D.apply(one).terms == {(0,) * 4: ctx.one}


def test_apply_commutes_with_p_power():
    rng = np.random.default_rng(42)
    ctx = FqContext(2, 2)
    law = make_multiplicative(ctx, 2)
    D = _canon(law)
    model = D.model
    for _ in range(6):
        f = model.poly_from_vec(rng.integers(0, 2, (model.dim, 2)))
        assert D.apply(f**2) == D.apply(f) ** 2


def test_first_component_matrix_additive_p2():
    ctx = FqContext(2, 1)
    D = _canon(make_additive(ctx, 1, 1))
    # basis 1, x: D_1(1) = 0, D_1(x) = 1
    assert np.array_equal(D.component((1,)).mat[..., 0], [[0, 1], [0, 0]])


def test_table_is_cached_and_guarded(monkeypatch):
    ctx = FqContext(2, 1)
    D = _canon(make_additive(ctx, 1, 2))
    assert D.table() is D.table()
    D2 = _canon(make_additive(ctx, 1, 2))
    monkeypatch.setattr(artinian_mod, "TABLE_BUDGET", 10)
    with pytest.raises(ResourceGuard):
        D2.table()


def test_law_table_shares_the_guard(monkeypatch):
    # the derivation table is built first, so the law's power table is the
    # one that trips the lowered budget
    ctx = FqContext(3, 1)
    law = make_witt2(ctx, 1, [1])
    D = _canon(law)
    D.table()
    monkeypatch.setattr(artinian_mod, "TABLE_BUDGET", 10)
    with pytest.raises(ResourceGuard):
        structure_constants(law, (1, 0), (0, 1))
    with pytest.raises(ResourceGuard):
        D.check_iterativity()


def test_twist_guard_precedes_elimination(monkeypatch):
    ctx = FqContext(3, 1)
    D = _canon(make_witt2(ctx, 1, [1]))
    xs = [D.model.ring.var(v) for v in D.model.xvars]
    rows = []
    real_rref = linalg_mod.rref

    def counting_rref(ctx, mat):
        rows.append(mat.shape[0])
        return real_rref(ctx, mat)

    monkeypatch.setattr(linalg_mod, "rref", counting_rref)
    monkeypatch.setattr(derivation_mod, "rref", counting_rref)
    # room for the dim^2 table of phi, not for the dim^3 derivation table
    monkeypatch.setattr(artinian_mod, "TABLE_BUDGET", 100)
    with pytest.raises(ResourceGuard):
        twist_by_automorphism(D, [xs[0] + xs[1] ** 2, xs[1]])
    # only the e x e linear-part check eliminated
    assert rows == [D.model.e]


def test_matrix_stack_blocks_are_contiguous():
    D = _canon(make_witt2(FqContext(3, 2), 1, [1]))
    stack = D.matrix_stack()
    assert stack.shape == (9, 9, 9, 2)
    assert all(stack[r].flags["C_CONTIGUOUS"] for r in range(9))


def test_component_index_range():
    ctx = FqContext(2, 1)
    D = _canon(make_additive(ctx, 1, 2))
    with pytest.raises(IndexRange):
        D.component((4,))
    with pytest.raises(IndexRange):
        D.component((1, 0))


def test_weight_zero_must_be_identity():
    ctx = FqContext(2, 1)
    law = make_additive(ctx, 1, 2)
    model = ArtinianModel(ctx, 1, 2)
    x, v = model.ring_xv.var("x1"), model.ring_xv.var("v1")
    with pytest.raises(LawAxiomFailure):
        HSDerivation(model, law, [x + 1 + v])
    with pytest.raises(LawAxiomFailure):
        HSDerivation(model, law, [x * x + v])
    with pytest.raises(ContextMismatch):
        HSDerivation(ArtinianModel(ctx, 1, 1), law, [x + v])


def _compose_matches_constants(D, pairs):
    ctx = D.model.ctx
    for i, j in pairs:
        sc = structure_constants(D.law, i, j)
        acc = ctx.zeros((D.model.dim, D.model.dim))
        for k, c in sc.items():
            acc = ctx.arr_add(acc, ctx.arr_scale(c.digits, D.component(k).mat))
        assert np.array_equal(D.compose(j, i).mat, acc), (i, j)


def test_compose_matches_structure_constants_small():
    for p, m, emax in ((2, 1, 2), (2, 2, 2), (3, 1, 2), (3, 2, 1)):
        for law in _zoo(p, m, emax):
            D = _canon(law)
            mons = D.model.xidx.monomials
            pairs = [(i, j) for i in mons for j in mons]
            if len(pairs) > 120:
                rng = np.random.default_rng(len(pairs))
                pairs = [pairs[k] for k in rng.choice(len(pairs), 120, False)]
            _compose_matches_constants(D, pairs)


def test_compose_identity_and_symmetry():
    ctx = FqContext(3, 1)
    law = _random_witt2(ctx, 1, np.random.default_rng(9))
    D = _canon(law)
    zero = (0, 0)
    for i in D.model.xidx.monomials:
        assert D.compose(zero, i) == D.component(i) == D.compose(i, zero)
    for i in D.model.xidx.monomials:
        for j in D.model.xidx.monomials:
            assert D.compose(j, i) == D.compose(i, j)


def test_check_iterativity_canonical_zoo():
    for p in (2, 3):
        for m in (1, 2):
            for law in _zoo(p, m, emax=2):
                assert _canon(law).check_iterativity(), (p, m, law.kind)


def test_check_iterativity_agrees_with_bruteforce():
    def brute(D):
        ctx = D.model.ctx
        for i in D.model.xidx.monomials:
            for j in D.model.xidx.monomials:
                sc = structure_constants(D.law, i, j)
                acc = ctx.zeros((D.model.dim, D.model.dim))
                for k, c in sc.items():
                    acc = ctx.arr_add(acc, ctx.arr_scale(c.digits,
                                                         D.component(k).mat))
                if not np.array_equal(D.compose(j, i).mat, acc):
                    return False
        return True

    for p in (2, 3):
        ctx = FqContext(p, 1)
        law = make_additive(ctx, 1, 2)
        model = ArtinianModel(ctx, 1, 2)
        x, v = model.ring_xv.var("x1"), model.ring_xv.var("v1")
        # x + v^2 satisfies the additive identities only in characteristic 2
        D = HSDerivation(model, law, [x + v * v])
        assert D.check_iterativity() == brute(D) == (p == 2)


def test_two_slot_composite_identity():
    # applying the packaged map twice with separate blocks expands through
    # the structure constants: coefficient of v^i w^j is D_j(D_i(r))
    cases = [
        _random_witt2(FqContext(2, 1), 2, np.random.default_rng(3)),
        make_multiplicative(FqContext(3, 1), 1),
        make_additive(FqContext(3, 1), 1, 2),
    ]
    for law in cases:
        ctx = law.ctx
        D = _canon(law)
        model = D.model
        n = model.n
        wnames = tuple(f"w{l+1}" for l in range(model.e))
        big = TruncatedRing(ctx, [(model.xvars, n), (model.vvars, n),
                                  (wnames, n)])
        outer = {}
        for l, xv in enumerate(model.xvars):
            img = {xv2: big.var(xv2) for xv2 in model.xvars}
            img.update(dict(zip(model.vvars, (big.var(w) for w in wnames))))
            outer[xv] = substitute(D.images[l], img, big)
        for t in range(model.e):
            inner = dict(outer)
            step = {v: big.var(v) for v in model.vvars}
            lhs = substitute(D.images[t], {**inner, **step}, big)
            rhs = big.zero
            vmap = dict(zip(law.vnames, (big.var(v) for v in model.vvars)))
            wmap = dict(zip(law.wnames, (big.var(w) for w in wnames)))
            for k in model.xidx.monomials:
                dk = D.component_apply(k, model.ring.var(model.xvars[t]))
                dk = substitute(dk, {xv: big.var(xv) for xv in model.xvars},
                                big)
                fk = big.one
                for l, kl in enumerate(k):
                    comp = substitute(law.components[l], {**vmap, **wmap}, big)
                    fk = fk * comp**kl
                rhs = rhs + dk * fk
            assert lhs == rhs, law.kind


def test_evp_point_closed_forms():
    ctx = FqContext(3, 1)
    for m in (1, 2):
        law = make_witt2(ctx, m, [1, 2][:m])
        g1, g2 = evp_point(law)
        want = {}
        for nn in range(m):
            want[(0, 3**nn)] = -law.alphas[nn]
        assert g2.is_zero()
        assert g1.terms == want
    gm = evp_point(make_multiplicative(ctx, 2))[0]
    assert gm == gm.ring.var("v1")
    ga = evp_point(make_additive(ctx, 2, 1))
    assert all(c.is_zero() for c in ga)
    pl = product_law(make_additive(ctx, 1, 2), make_multiplicative(ctx, 2))
    gp = evp_point(pl)
    assert gp[0].is_zero() and gp[1] == gp[1].ring.var("v2")


def test_p_fold_additive_collapses():
    for p in (2, 3):
        ctx = FqContext(p, 1)
        D = _canon(make_additive(ctx, 1, 2))
        ev = p_fold_evP(D)
        assert list(ev.keys()) == D.model.xidx.monomials
        assert np.array_equal(ev[(0,)].mat, ctx.mat_eye(D.model.dim))
        assert all(v.is_zero() for k, v in ev.items() if k != (0,))


def test_p_fold_multiplicative_repeats():
    for p in (2, 3):
        ctx = FqContext(p, 1)
        for m in (1, 2):
            D = _canon(make_multiplicative(ctx, m))
            ev = p_fold_evP(D)
            assert all(ev[i] == D.component(i)
                       for i in D.model.xidx.monomials)


def test_p_fold_witt2_row_pattern():
    rng = np.random.default_rng(11)
    for p, d in ((2, 1), (3, 1), (2, 2)):
        ctx = FqContext(p, d)
        for m in (1, 2):
            law = _random_witt2(ctx, m, rng)
            D = _canon(law)
            ev = p_fold_evP(D)
            for idx in D.model.xidx.monomials:
                a, b = idx
                if a > 0:
                    assert ev[idx].is_zero(), idx
                    continue
                want = OperatorMatrix.zero(D.model)
                for s, c in witt2_pfold_expansion(law, b).items():
                    want = want + D.component((s, 0)).scale(c)
                assert ev[idx] == want, idx


def test_witt2_pfold_expansion_leading_term():
    ctx = FqContext(3, 1)
    law = make_witt2(ctx, 2, [2, 1])
    for l in range(2):
        exp = witt2_pfold_expansion(law, 3**l)
        assert exp[1] == -law.alphas[l]
        assert all(s >= 3 for s in exp if s != 1)
    assert witt2_pfold_expansion(law, 0) == {0: ctx.one}
    with pytest.raises(IndexRange):
        witt2_pfold_expansion(law, 9)
    with pytest.raises(ContextMismatch):
        witt2_pfold_expansion(make_additive(ctx, 2, 1), 1)


def test_p_fold_matches_repeated_composition():
    rng = np.random.default_rng(23)
    cases = []
    for m in (1, 2):
        cases += _zoo(2, m, emax=2, rng=rng)
    cases += _zoo(3, 1, emax=2, rng=rng)
    cases += _zoo(3, 2, emax=1, rng=rng)
    cases.append(_random_witt2(FqContext(3, 1), 2, rng))
    cases.append(_random_witt2(FqContext(2, 2), 2, rng))
    for law in cases:
        D = _canon(law)
        ev = p_fold_evP(D)
        Do = pfold_by_repeated_composition(D)
        assert all(np.array_equal(ev[i].mat, Do.component(i).mat)
                   for i in D.model.xidx.monomials), law.kind


def test_p_fold_twisted_matches_repeated_composition():
    ctx = FqContext(2, 1)
    law = _random_witt2(ctx, 2, np.random.default_rng(5))
    D = _canon(law)
    xs = [D.model.ring.var(v) for v in D.model.xvars]
    T = twist_by_automorphism(D, [xs[0] + xs[1] * xs[1], xs[1]])
    ev = p_fold_evP(T)
    To = pfold_by_repeated_composition(T)
    assert all(np.array_equal(ev[i].mat, To.component(i).mat)
               for i in T.model.xidx.monomials)


def test_p_fold_needs_commutative_law():
    ctx = FqContext(3, 1)
    ring = TruncatedRing(ctx, [(("v1",), 3), (("w1",), 3)])
    v, w = ring.var("v1"), ring.var("w1")
    law = FormalGroupLaw(ctx, 1, 1, [v + w + v * v * w], weak=True)
    assert not law.commutative
    with pytest.raises(RequiresCommutative):
        p_fold_evP(_canon(law))


def test_p_fold_fractional_exponent():
    ctx = FqContext(3, 1)
    ring = TruncatedRing(ctx, [(("v1",), 3), (("w1",), 3)])
    v, w = ring.var("v1"), ring.var("w1")
    law = FormalGroupLaw(ctx, 1, 1, [v + w + v * v * w * w], weak=True)
    assert law.commutative
    with pytest.raises(FractionalExponent):
        p_fold_evP(_canon(law))


def test_truncate_derivation_commutes_with_canonical():
    ctx = FqContext(2, 1)
    law = make_witt2(ctx, 2, [1, 1])
    D = truncate_derivation(_canon(law), 1)
    assert D == _canon(truncate_law(law, 1))
    assert truncate_derivation(_canon(law), 2) == _canon(law)
    with pytest.raises(TruncationOrder):
        truncate_derivation(_canon(law), 0)
    with pytest.raises(TruncationOrder):
        truncate_derivation(_canon(law), 3)


def test_truncate_derivation_keeps_twists_iterative():
    ctx = FqContext(3, 1)
    law = _random_witt2(ctx, 2, np.random.default_rng(19))
    D = _canon(law)
    xs = [D.model.ring.var(v) for v in D.model.xvars]
    T = twist_by_automorphism(D, [xs[0] + xs[1] ** 2, xs[1] + xs[0] ** 3])
    small = truncate_derivation(T, 1)
    assert small.model.m == 1 and small.check_iterativity()


def test_twist_by_identity_and_involution():
    ctx = FqContext(2, 1)
    law = _random_witt2(ctx, 2, np.random.default_rng(13))
    D = _canon(law)
    xs = [D.model.ring.var(v) for v in D.model.xvars]
    assert twist_by_automorphism(D, xs) == D
    phi = [xs[0] + xs[1] * xs[1], xs[1]]
    T = twist_by_automorphism(D, phi)
    assert T != D and T.check_iterativity()
    # phi is an involution in characteristic 2
    assert twist_by_automorphism(T, phi) == D


def test_twist_defining_equation():
    # (phi tensor id) after D equals the twist after phi, on random inputs
    rng = np.random.default_rng(29)
    ctx = FqContext(3, 1)
    law = _random_witt2(ctx, 2, rng)
    D = _canon(law)
    model = D.model
    xs = [model.ring.var(v) for v in model.xvars]
    phi = [xs[0] + xs[1] ** 2 + xs[0] ** 3, xs[1] + xs[0] * xs[1]]
    T = twist_by_automorphism(D, phi)
    phimap_r = dict(zip(model.xvars, phi))
    lift = {v: model.ring_xv.var(v) for v in model.vvars}
    phimap_xv = {xv: substitute(f, {x2: model.ring_xv.var(x2)
                                    for x2 in model.xvars}, model.ring_xv)
                 for xv, f in phimap_r.items()}
    for _ in range(6):
        r = model.poly_from_vec(rng.integers(0, 3, (model.dim, 1)))
        lhs = substitute(D.apply(r), {**phimap_xv, **lift}, model.ring_xv)
        rhs = T.apply(substitute(r, phimap_r, model.ring))
        assert lhs == rhs


def test_twist_rejects_bad_maps():
    ctx = FqContext(3, 1)
    law = make_additive(ctx, 1, 2)
    D = _canon(law)
    x = D.model.ring.var("x1")
    with pytest.raises(NotInvertible):
        twist_by_automorphism(D, [x * x])
    with pytest.raises(NotInvertible):
        twist_by_automorphism(D, [x + 1])
    with pytest.raises(ContextMismatch):
        twist_by_automorphism(D, [D.model.ring_xv.var("x1")])
    with pytest.raises(ValueError):
        twist_by_automorphism(D, [x, x])


def test_reconstruct_round_trips():
    rng = np.random.default_rng(31)
    cases = [
        _canon(make_additive(FqContext(2, 1), 1, 2)),
        _canon(_random_witt2(FqContext(3, 1), 1, rng)),
        _canon(product_law(make_additive(FqContext(2, 1), 1, 2),
                           make_multiplicative(FqContext(2, 1), 2))),
    ]
    law = _random_witt2(FqContext(2, 1), 2, rng)
    D = _canon(law)
    xs = [D.model.ring.var(v) for v in D.model.xvars]
    cases.append(twist_by_automorphism(D, [xs[0], xs[1] + xs[0] ** 3]))
    for D in cases:
        R = reconstruct_from_ppowers(D)
        assert isinstance(R, HSDerivation) and R == D


def test_reconstruct_trivial_derivation():
    ctx = FqContext(3, 1)
    law = make_additive(ctx, 1, 1)
    model = ArtinianModel(ctx, 1, 1)
    D = HSDerivation(model, law, [model.ring_xv.var("x1")])
    assert reconstruct_from_ppowers(D) == D


def test_reconstruct_detects_non_iterative():
    ctx = FqContext(3, 1)
    law = make_additive(ctx, 1, 1)
    model = ArtinianModel(ctx, 1, 1)
    x, v = model.ring_xv.var("x1"), model.ring_xv.var("v1")
    D = HSDerivation(model, law, [x + x * v + x * x * v * v])
    with pytest.raises(ReconstructionMismatch):
        reconstruct_from_ppowers(D)
