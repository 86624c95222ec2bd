"""Canonical coordinate search: verification, finding, and product assembly."""

import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hsderiv.basis as basis_mod
from hsderiv.artinian import ArtinianModel
from hsderiv.basis import (
    BasisCandidate,
    _View,
    _inside_constants,
    assemble_product_basis,
    find_x,
    find_y,
    one_dim_basis,
    verify_canonical_basis,
)
from hsderiv.derivation import (
    HSDerivation,
    canonical_derivation,
    reconstruct_from_ppowers,
    twist_by_automorphism,
)
from hsderiv.cli import run
from hsderiv.errors import (
    AssemblyMismatch,
    ContextMismatch,
    CorrectionUnsolvable,
    FactorUnsupported,
    HsderivError,
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
from hsderiv.lattice import constants_indices, joint_kernel, ppower_indices
from hsderiv.textform import parse_trunc
from hsderiv.truncated import TruncatedRing, convert
from oracles import derivation_zoo, digit_eliminate


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
                    f = f + xs[s].scale(ctx.raw(c))
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


def test_rank_runs_only_without_a_certificate(monkeypatch):
    # canonical generators are certified by the constant terms of their
    # images; the zero family fails its embeddings and takes the rank
    ranks = []
    real = basis_mod._monomials_independent

    def counting(model, con, zs):
        ranks.append(len(zs))
        return real(model, con, zs)

    monkeypatch.setattr(basis_mod, "_monomials_independent", counting)
    for p, m in ((2, 1), (2, 2), (3, 1)):
        ctx = FqContext(p, 1)
        for law in (make_additive(ctx, 2, m), make_multiplicative(ctx, m),
                    make_witt2(ctx, m, [1] * m),
                    product_law(make_additive(ctx, 1, m), make_multiplicative(ctx, m))):
            D = _canon(law)
            xs = [D.model.ring.var(v) for v in D.model.xvars]
            assert verify_canonical_basis(D, law, xs).passed
    assert ranks == []
    D = _canon(make_additive(FqContext(2, 1), 2, 1))
    report = verify_canonical_basis(D, D.law, [D.model.ring.zero] * 2)
    assert not report.independence["monomials_ok"]
    assert ranks == [2]


@functools.lru_cache(maxsize=None)
def _zoo():
    return tuple(derivation_zoo())


def _coordinates(D) -> tuple:
    """D's found coordinates, or the model's generators where no finder
    applies (the trivial derivation)."""
    try:
        return tuple(assemble_product_basis(D))
    except HsderivError:
        return tuple(D.model.ring.var(v) for v in D.model.xvars)


@st.composite
def _families(draw):
    """(D, family): a derivation of oracles.derivation_zoo, maybe twisted
    (unipotent phi) or reconstructed, and e model elements: its coordinates
    as found, shifted by constants, with a repeated coordinate (z_2 = z_1 +
    c, a singular J), one or all replaced by random elements, or zero."""
    D = draw(st.sampled_from(_zoo()))
    model = D.model
    ctx, ring, e = model.ctx, model.ring, model.e
    scalar = st.integers(1, ctx.q - 1).map(
        lambda k: ctx.scalar(tuple(k // ctx.p**i % ctx.p for i in range(ctx.d))))
    xs = [ring.var(v) for v in model.xvars]
    step = draw(st.sampled_from(["none", "twist", "reconstruct"]))
    if step == "twist":
        phi = list(xs)
        higher = [ex for ex in model.xidx.monomials if sum(ex) >= 2]
        for t in range(e):
            if t + 1 < e and draw(st.booleans()):
                phi[t] = phi[t] + draw(scalar) * xs[t + 1]
            for _ in range(draw(st.integers(0, 2)) if higher else 0):
                phi[t] = phi[t] + ring.monomial(draw(st.sampled_from(higher)), draw(scalar))
        D = twist_by_automorphism(D, phi)
    elif step == "reconstruct":
        D = reconstruct_from_ppowers(D)

    def element():
        f = ring.zero
        for ex in draw(st.lists(st.sampled_from(model.xidx.monomials), max_size=4)):
            f = f + ring.monomial(ex, draw(scalar))
        return f

    zs = list(_coordinates(D))
    kinds = ["found", "shifted", "one-random", "random", "zero"]
    kind = draw(st.sampled_from(kinds + ["repeated"] if e > 1 else kinds))
    t = draw(st.integers(0, e - 1))
    if kind == "shifted":
        zs[t] = zs[t] + ring.const(draw(scalar))
    elif kind == "repeated":
        zs[1] = zs[0] + ring.const(draw(scalar))
    elif kind == "one-random":
        zs[t] = element()
    elif kind == "random":
        zs = [element() for _ in range(e)]
    elif kind == "zero":
        zs = [ring.zero] * e
    return D, zs


@settings(max_examples=80, deadline=None)
@given(_families())
def test_certificate_never_says_independent_where_the_rank_does_not(case):
    # the certificate is exactly its definition, J taken here through the
    # component matrices and ranked by the one-pivot reference; where it
    # holds, the rank says independent too, and the report's boolean is
    # the rank's
    D, zs = case
    model = D.model
    ctx, e = model.ctx, model.e
    view = _View(D, tuple(range(e)), D.law)
    report = basis_mod._verify(view, zs)
    con = view.box_constants()
    certified = basis_mod._p_basis_certified(model, con, report.embeddings)
    rank = basis_mod._monomials_independent(model, con, zs)
    units = [tuple(int(t == k) for t in range(e)) for k in range(e)]
    J = [[model.vec_from_poly(D.component(u).apply(z))[0] for z in zs] for u in units]
    _, pivots = digit_eliminate(ctx.p, ctx.modulus, [[tuple(int(a) for a in c) for c in row] for row in J], e)
    definition = (all(row["ok"] for row in report.embeddings) and con.dim > 0
                  and len(pivots) == e)
    assert certified == definition
    assert rank or not certified
    assert report.independence["monomials_ok"] == rank


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
            got_y = D.component(idx).apply(y)
            if idx == (0, 0):
                assert got_y == y
            elif idx == (0, 1):
                assert got_y == one
            else:
                assert got_y.is_zero()
            got_x = D.component(idx).apply(x)
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
                    expect = (y ** ((p - j) * p**l)).scale(
                        model.ctx.raw(law.alphas[l] * lam[j - 1]))
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
            assert D.component((n, 0)).apply(y**s).is_zero()


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
    assert T.component((1,)).apply(z) == T.model.ring.one + z
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
    # coordinates, and verification reuses the search's box constants;
    # D is canonical, so those are the joint kernel of its unit components
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
    assert kernels.count(((1, 0), (0, 1))) == 1


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


def test_view_levels_by_descent_equal_the_joint_kernels():
    # a view's level l is the joint kernel of the block's p-power
    # components up to p^l inside within, on whole-model views and on views
    # inside the absolute constants of the other coordinates
    for D in derivation_zoo():
        model = D.model
        whole = tuple(range(model.e))
        view = _View(D, whole, D.law)
        views = [view]
        if model.e == 2:
            views += [_inside_constants(view, (0,), None, (1,)),
                      _inside_constants(view, (1,), None, (0,))]
        for v in views:
            for l in range(model.m):
                want = joint_kernel(D, ppower_indices(model, v.coords, l + 1), v.within)
                assert v.level(l) == want, (D.law.kind, v.coords, l)
        for absolute, got in ((False, view.box_constants()), (True, view.abs_constants())):
            assert got == joint_kernel(D, constants_indices(D, whole, absolute)), D.law.kind


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


# -- finder errors: each reachable CorrectionUnsolvable message, raised by a
# derivation given by images that is not iterative for its law. The first-
# order solves of one_dim_basis and find_x always succeed once the first
# unit component is certified (1 lies in its kernel, so in its image), and no
# non-iterative input was found where find_x's kernel step cannot absorb.

_F2 = FqContext(2, 1)
_FINDER_ERRORS = {
    "y-first-order": (
        "y", make_witt2(_F2, 1, [1]), ["x1 + v1 + x1*v2 + x2*v2", "x2 + v1 + v2"],
        "no element attains the required first-order values"),
    "y-kernel-leaves": (
        "y", make_witt2(_F2, 2, [1, 1]),
        ["x1 + v1 + x2*v2 + x2^2*v2^2", "x2 + v2 + x1*x2*v1^2"],
        "the defect of component (2, 0) leaves its correction space"),
    "y-kernel-absorb": (
        "y", make_witt2(_F2, 2, [1, 0]), ["x1 + v1 + x2*v2", "x2 + v2 + x1^2*x2^2*v1^2"],
        "component (2, 0) cannot absorb its defect"),
    "additive-kernel-leaves": (
        "additive", make_additive(_F2, 1, 2), ["x1 + v1 + x1*v1^2"],
        "the defect of component (2,) leaves its correction space"),
    "additive-kernel-absorb": (
        "additive", make_additive(_F2, 1, 2), ["x1 + v1 + x1^2*v1^2"],
        "component (2,) cannot absorb its defect"),
    "x-first-level-alpha": (
        "x", make_witt2(_F2, 1, [1]), ["x1 + v1 + x2*v1 + x2*v2", "x2 + v2"],
        "the first-level defect has no preimage"),
    "x-first-level-no-alpha": (
        "x", make_witt2(_F2, 1, [0]), ["x1 + v1 + x2*v2", "x2 + v2"],
        "the first-level defect has no preimage"),
    "x-disturbed": (
        "x", make_witt2(_F2, 1, [1]), ["x1 + v1", "x2 + v2"],
        "a correction disturbed component (1, 0)"),
    "x-kernel-leaves": (
        "x", make_witt2(_F2, 2, [1, 0]),
        ["x1 + v1 + x2*v2 + x2*v1^2 + v1^2*v2^3", "x2 + v2"],
        "the defect of component (2, 0) leaves its correction space"),
    "x-step-leaves-alpha": (
        "x", make_witt2(_F2, 2, [0, 1]), ["x1 + v1 + x1*x2*v2^2 + x2^2*v2^2", "x2 + v2"],
        "the defect of component (0, 2) leaves its correction space"),
    "x-step-leaves-no-alpha": (
        "x", make_witt2(_F2, 2, [1, 0]),
        ["x1 + v1 + x2*v2 + x1^3*x2^3*v1^3*v2^3", "x2 + v2 + v2^2"],
        "the defect of component (0, 2) leaves its correction space"),
    "x-step-absorb": (
        "x", make_witt2(_F2, 2, [1, 1]), ["x1 + v1 + x2*v2", "x2 + v2"],
        "component (0, 2) cannot absorb its defect"),
}


def _from_images(law, images):
    model = ArtinianModel(law.ctx, law.e, law.m)
    return HSDerivation(model, law, [parse_trunc(model.ring_xv, s) for s in images])


@pytest.mark.parametrize("case", sorted(_FINDER_ERRORS))
def test_finder_reports_correction_unsolvable(case):
    finder, law, images, message = _FINDER_ERRORS[case]
    D = _from_images(law, images)
    assert not D.check_iterativity()
    exact = "^" + re.escape(message) + "$"
    with pytest.raises(CorrectionUnsolvable, match=exact):
        assemble_product_basis(D)
    with pytest.raises(CorrectionUnsolvable, match=exact):
        if finder == "additive":
            one_dim_basis(D)
        elif finder == "y":
            find_y(D)
        else:
            find_x(D, find_y(D))


def test_cli_reports_correction_unsolvable():
    # the derivation of the law with alphas [1, 0], run against alphas [1, 1]
    config = {"command": "basis-find", "context": {"p": 2, "m": 2},
              "law": {"type": "witt2", "alphas": [1, 1]},
              "derivation": {"type": "images", "images": ["x1 + v1 + x2*v2", "x2 + v2"]}}
    report, code = run(config)
    assert code == 1
    assert report["checks"] == [] and not report["pass"]
    assert report["errors"] == [{"kind": "CorrectionUnsolvable",
                                 "message": "component (0, 2) cannot absorb its defect"}]


def test_assembly_refuses_a_family_that_fails_verification(monkeypatch):
    # every finder checks its own defining pattern, and the p-th powers keep
    # the constants large enough for the ratio, so only a family that skips
    # the finders reaches this check
    D = _canon(make_additive(_F2, 2, 1))
    x1, x2 = (D.model.ring.var(v) for v in D.model.xvars)
    monkeypatch.setattr(basis_mod, "_assemble", lambda view: [x2, x1])
    with pytest.raises(AssemblyMismatch, match="^assembled coordinates fail verification$"):
        assemble_product_basis(D)
    report, code = run({"command": "basis-find", "context": {"p": 2, "m": 1},
                        "law": {"type": "additive", "e": 2}})
    assert code == 1
    assert report["errors"] == [{"kind": "AssemblyMismatch",
                                 "message": "assembled coordinates fail verification"}]
