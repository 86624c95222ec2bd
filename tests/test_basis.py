"""Canonical coordinate search: verification, finding, and product assembly."""

import numpy as np
import pytest

import hsderiv.basis as basis_mod
from hsderiv.artinian import ArtinianModel
from hsderiv.basis import (
    BasisCandidate,
    assemble_product_basis,
    find_x,
    find_y,
    one_dim_basis,
    verify_canonical_basis,
)
from hsderiv.derivation import (
    HSDerivation,
    canonical_derivation,
    twist_by_automorphism,
)
from hsderiv.errors import (
    ContextMismatch,
    FactorUnsupported,
    HypothesisFailure,
    NotInvertible,
    UnknownVariable,
)
from hsderiv.gf import FqContext, lambda_coeffs
from hsderiv.grouplaw import (
    FormalGroupLaw,
    make_additive,
    make_multiplicative,
    make_witt2,
    product_law,
)
from hsderiv.truncated import TruncatedRing, convert


def _canon(law):
    model = ArtinianModel(law.ctx, law.e, law.m)
    return canonical_derivation(model, law)


def _random_witt2(ctx, m, rng, allow_zero=False):
    alphas = [ctx.scalar(tuple(int(rng.integers(0, ctx.p)) for _ in range(ctx.d)))
              for _ in range(m)]
    if not allow_zero and not alphas[0]:
        alphas[0] = ctx.one
    return make_witt2(ctx, m, alphas)


def _random_twist(D, rng):
    model = D.model
    ctx, ring = model.ctx, model.ring
    xs = [ring.var(v) for v in model.xvars]
    while True:
        phi = []
        for _ in range(model.e):
            f = ring.zero
            for s in range(model.e):
                c = tuple(int(rng.integers(0, ctx.p)) for _ in range(ctx.d))
                if any(c):
                    f = f + xs[s].scale(ctx.scalar(c))
            for _ in range(int(rng.integers(0, 3))):
                exps = tuple(int(rng.integers(0, model.n)) for _ in range(model.e))
                c = tuple(int(rng.integers(0, ctx.p)) for _ in range(ctx.d))
                if sum(exps) >= 2 and any(c):
                    f = f + ring.monomial(exps, ctx.scalar(c))
            phi.append(f)
        try:
            return twist_by_automorphism(D, phi)
        except NotInvertible:
            continue


def test_verify_passes_canonical_generators():
    rng = np.random.default_rng(3)
    for p, m in ((2, 1), (2, 2), (3, 1)):
        ctx = FqContext(p, 1)
        laws = [
            make_additive(ctx, 1, m),
            make_multiplicative(ctx, m),
            _random_witt2(ctx, m, rng),
            product_law(make_additive(ctx, 1, m), make_multiplicative(ctx, m)),
        ]
        for law in laws:
            D = _canon(law)
            xs = [D.model.ring.var(v) for v in D.model.xvars]
            report = verify_canonical_basis(D, law, xs)
            assert report.passed and report.first_mismatch is None
            assert report.independence["ratio_ok"]
            assert report.independence["dim_ambient"] == D.model.dim


def test_verify_rejects_zero_family():
    ctx = FqContext(2, 1)
    law = make_additive(ctx, 2, 1)
    D = _canon(law)
    report = verify_canonical_basis(D, law, [D.model.ring.zero, D.model.ring.zero])
    assert not report.passed
    assert not report.embeddings[0]["ok"]
    gen, vexp = report.first_mismatch
    assert gen == 0 and sum(vexp) == 1


def test_verify_flags_swapped_coordinates():
    ctx = FqContext(2, 1)
    law = make_witt2(ctx, 1, [1])
    D = _canon(law)
    xs = [D.model.ring.var(v) for v in D.model.xvars]
    report = verify_canonical_basis(D, law, [xs[1], xs[0]])
    assert not report.passed and report.first_mismatch is not None


def test_find_pair_on_canonical_models():
    rng = np.random.default_rng(5)
    for p, m in ((2, 2), (3, 1)):
        ctx = FqContext(p, 1)
        law = _random_witt2(ctx, m, rng)
        D = _canon(law)
        y = find_y(D)
        assert y == D.model.ring.var("x2")
        x = find_x(D, y)
        assert x == D.model.ring.var("x1")


def test_found_pair_component_tables():
    # every component value of y and x matches the defining pattern
    rng = np.random.default_rng(11)
    for p in (2, 3):
        ctx = FqContext(p, 1)
        law = _random_witt2(ctx, 2, rng)
        D = _random_twist(_canon(law), rng)
        model = D.model
        y = find_y(D)
        x = find_x(D, y)
        lam = lambda_coeffs(p)
        one = model.ring.one
        for idx in model.xidx.monomials:
            got_y = D.component_apply(idx, y)
            if idx == (0, 0):
                assert got_y == y
            elif idx == (0, 1):
                assert got_y == one
            else:
                assert got_y.is_zero()
            got_x = D.component_apply(idx, x)
            i, j = idx
            if idx == (0, 0):
                assert got_x == x
            elif idx == (1, 0):
                assert got_x == one
            elif i == 0 and j > 0:
                l = 0
                while j % p == 0:
                    j //= p
                    l += 1
                if j < p and law.alphas[l]:
                    expect = (y ** ((p - j) * p**l)).scale(law.alphas[l] * lam[j - 1])
                    assert got_x == expect
                else:
                    assert got_x.is_zero()
            else:
                assert got_x.is_zero()


def test_find_round_trip_on_twists():
    rng = np.random.default_rng(17)
    cases = [(2, 2, False), (2, 2, True), (3, 1, False), (3, 1, True)]
    for p, m, allow_zero in cases:
        ctx = FqContext(p, 1)
        law = _random_witt2(ctx, m, rng, allow_zero=allow_zero)
        D0 = _canon(law)
        for _ in range(3):
            D = _random_twist(D0, rng)
            y = find_y(D)
            x = find_x(D, y)
            assert verify_canonical_basis(D, law, [x, y]).passed


def test_degenerate_all_zero_alphas():
    # with every carry coefficient zero the witt2 law collapses to a plain sum
    ctx = FqContext(2, 1)
    law = make_witt2(ctx, 2, [0, 0])
    D = _random_twist(_canon(law), np.random.default_rng(23))
    y = find_y(D)
    x = find_x(D, y)
    assert verify_canonical_basis(D, law, [x, y]).passed
    ring_xv = D.model.ring_xv
    assert D.apply(x) == convert(x, ring_xv) + ring_xv.var("v1")


def test_second_coordinate_powers_vanish_under_first_block():
    rng = np.random.default_rng(19)
    ctx = FqContext(3, 1)
    law = _random_witt2(ctx, 2, rng)
    D = _random_twist(_canon(law), rng)
    y = find_y(D)
    for n in range(1, D.model.n):
        for s in range(1, 3):
            assert D.component_apply((n, 0), y**s).is_zero()


def test_trivial_derivation_fails_hypotheses():
    ctx = FqContext(2, 1)
    law = make_witt2(ctx, 1, [1])
    model = ArtinianModel(ctx, 2, 1)
    trivial = HSDerivation(
        model, law, [model.ring_xv.var("x1"), model.ring_xv.var("x2")]
    )
    with pytest.raises(HypothesisFailure):
        find_y(trivial)


def test_one_dim_additive():
    ctx = FqContext(3, 1)
    law = make_additive(ctx, 1, 2)
    D = _canon(law)
    assert one_dim_basis(D) == D.model.ring.var("x1")
    T = _random_twist(D, np.random.default_rng(37))
    z = one_dim_basis(T)
    assert verify_canonical_basis(T, law, [z]).passed


def test_one_dim_multiplicative():
    ctx = FqContext(3, 1)
    law = make_multiplicative(ctx, 1)
    D = _canon(law)
    assert one_dim_basis(D) == D.model.ring.var("x1")
    x = D.model.ring.var("x1")
    T = twist_by_automorphism(D, [x + x * x])
    z = one_dim_basis(T)
    assert T.component_apply((1,), z) == T.model.ring.one + z
    assert verify_canonical_basis(T, law, [z]).passed


def test_one_dim_rejects_wrong_inputs():
    ctx = FqContext(2, 1)
    witt = make_witt2(ctx, 1, [1])
    with pytest.raises(ContextMismatch):
        one_dim_basis(_canon(witt))
    ring = TruncatedRing(ctx, [(("v1",), 2), (("w1",), 2)])
    v, w = ring.var("v1"), ring.var("w1")
    custom = FormalGroupLaw(ctx, 1, 1, [v + w], kind="custom")
    with pytest.raises(FactorUnsupported):
        one_dim_basis(_canon(custom))
    trivial_law = make_multiplicative(ctx, 1)
    model = ArtinianModel(ctx, 1, 1)
    trivial = HSDerivation(model, trivial_law, [model.ring_xv.var("x1")])
    with pytest.raises(HypothesisFailure):
        one_dim_basis(trivial)


def test_assemble_additive_pairs():
    ctx = FqContext(2, 1)
    law = product_law(make_additive(ctx, 1, 2), make_additive(ctx, 1, 2))
    D = _canon(law)
    basis = assemble_product_basis(D)
    xs = [D.model.ring.var(v) for v in D.model.xvars]
    assert list(basis) == xs
    block = make_additive(ctx, 2, 2)
    Db = _canon(block)
    assert list(assemble_product_basis(Db)) == [
        Db.model.ring.var(v) for v in Db.model.xvars
    ]


def test_assemble_mixed_and_twisted():
    rng = np.random.default_rng(41)
    ctx = FqContext(2, 1)
    mixed = product_law(make_additive(ctx, 1, 2), make_multiplicative(ctx, 2))
    D = _canon(mixed)
    assert list(assemble_product_basis(D)) == [
        D.model.ring.var(v) for v in D.model.xvars
    ]
    big = product_law(make_witt2(ctx, 1, [1]), make_multiplicative(ctx, 1))
    T = _random_twist(_canon(big), rng)
    basis = assemble_product_basis(T)
    assert len(basis) == 3
    assert verify_canonical_basis(T, big, list(basis)).passed


def test_assemble_certifies_and_stacks_once(monkeypatch):
    # the witt2 search certifies D_(1,0) on the whole model once for both
    # coordinates, and verification reuses the search's box constants
    restricts, kernels = [], []
    real_restrict = basis_mod.divisible_restriction
    real_kernel = basis_mod.joint_kernel

    def count_restrict(D, i, V):
        restricts.append((i, V.dim))
        return real_restrict(D, i, V)

    def count_kernel(D, idxs, within=None):
        kernels.append(tuple(idxs))
        return real_kernel(D, idxs, within)

    monkeypatch.setattr(basis_mod, "divisible_restriction", count_restrict)
    monkeypatch.setattr(basis_mod, "joint_kernel", count_kernel)
    D = _canon(_random_witt2(FqContext(3, 1), 2, np.random.default_rng(5)))
    assert len(assemble_product_basis(D)) == 2
    assert restricts.count(((1, 0), D.model.dim)) == 1
    box = tuple(i for i in np.ndindex(3, 3) if any(i))
    assert kernels.count(box) == 1


@pytest.mark.parametrize("m", [2, 3])
def test_assemble_takes_each_correction_space_once(monkeypatch, m):
    # the level-1 correction space (kernel of D_(2,0) inside level 0) serves
    # both the second- and the first-coordinate search
    kernels = []
    real_kernel = basis_mod.joint_kernel

    def count_kernel(D, idxs, within=None):
        kernels.append(tuple(idxs))
        return real_kernel(D, idxs, within)

    ctx = FqContext(2, 1)
    D = _canon(make_witt2(ctx, m, [1] * m))
    x1, x2 = D.model.ring.var("x1"), D.model.ring.var("x2")
    T = twist_by_automorphism(D, [x1 + x2 * x2 + x1 * x2, x2 + x1 * x1])
    monkeypatch.setattr(basis_mod, "joint_kernel", count_kernel)
    assert len(assemble_product_basis(T)) == 2
    assert kernels.count(((2, 0),)) == 1


def test_assemble_rejects_unknown_factor():
    ctx = FqContext(2, 1)
    ring = TruncatedRing(ctx, [(("v1",), 2), (("w1",), 2)])
    v, w = ring.var("v1"), ring.var("w1")
    custom = FormalGroupLaw(ctx, 1, 1, [v + w], kind="custom")
    law = product_law(custom, make_additive(ctx, 1, 1))
    with pytest.raises(FactorUnsupported):
        assemble_product_basis(_canon(law))


def test_find_y_rejects_wrong_law():
    ctx = FqContext(2, 1)
    with pytest.raises(ContextMismatch):
        find_y(_canon(make_additive(ctx, 2, 1)))


def test_find_x_shifted_twist_with_unit_alpha():
    # the level-1 defect must be absorbed inside the achieved-targets kernel,
    # not through a first-order witness: none exists once alphas[0] is a unit
    ctx = FqContext(2, 1)
    law = make_witt2(ctx, 2, [1, 1])
    D = _canon(law)
    ring = D.model.ring
    x1, x2 = ring.var("x1"), ring.var("x2")
    T = twist_by_automorphism(D, [x1 + x2 * x2, x2])
    y = find_y(T)
    assert y == x2
    x = find_x(T, y)
    assert x == x1 + x2 * x2
    assert verify_canonical_basis(T, law, [x, y]).passed


def test_elements_of_other_rings_convert_by_name():
    ctx = FqContext(2, 1)
    law = make_witt2(ctx, 2, [1, 1])
    D = _canon(law)
    model = D.model
    xv = [model.ring_xv.var(v) for v in model.xvars]
    assert (model.vec_from_poly(xv[0]) == model.vec_from_poly(model.ring.var("x1"))).all()
    report = verify_canonical_basis(D, law, xv)
    assert report.passed
    assert find_x(D, xv[1]) == model.ring.var("x1")
    other = TruncatedRing(ctx, [(("x1", "y"), model.n)])
    # a variable the model lacks is fine while no term uses it
    assert (model.vec_from_poly(other.var("x1")) == model.vec_from_poly(xv[0])).all()
    with pytest.raises(UnknownVariable):
        model.vec_from_poly(other.var("y"))
    with pytest.raises(UnknownVariable):
        verify_canonical_basis(D, law, [other.var("y"), model.ring.var("x2")])


def test_law_target_needs_every_coordinate_it_reads():
    # F_2 = v2 + w2 reads only y; F_1 reads x and y, and a missing x raises
    ctx = FqContext(2, 1)
    D = _canon(make_witt2(ctx, 1, [1]))
    view = basis_mod._witt2_view(D)
    y = D.model.ring.var("x2")
    ring = D.model.ring_xv
    assert basis_mod._law_at(view, [None, y], 1) == ring.var("x2") + ring.var("v2")
    with pytest.raises(UnknownVariable):
        basis_mod._law_at(view, [None, y], 0)
