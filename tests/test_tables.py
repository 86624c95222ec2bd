"""Derivation tables taken from matrices already in hand (a conjugated twist,
a reconstructed stack) against the generic product ladder, byte for byte;
per-axis stacks against the full table; the p-power shortcut for the
constants of a derivation known to be iterative; the Frobenius ladder of
every power table against one product per monomial."""

import functools
import itertools
import math
import random
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hsderiv.artinian as artinian_mod
import hsderiv.derivation as derivation_mod
import hsderiv.lattice as lattice_mod
from hsderiv.artinian import TABLE_BLOCK, ArtinianModel
from hsderiv.basis import _View, assemble_product_basis, verify_canonical_basis
from hsderiv.cli import run
from hsderiv.densepoly import DenseRing
from hsderiv.derivation import (
    HSDerivation,
    canonical_derivation,
    reconstruct_from_ppowers,
    twist_by_automorphism,
)
from hsderiv.errors import IndexRange
from hsderiv.gf import FLOAT_BLOCK, FqContext
from hsderiv.grouplaw import make_additive, make_multiplicative, make_witt2, product_law
from hsderiv.lattice import (
    AxisComponents,
    absolute_constants,
    constants,
    joint_kernel,
    ppower_indices,
    tower,
)
from hsderiv.truncated import TruncatedPoly, TruncatedRing
from oracles import (
    apply_through_the_table,
    derivation_zoo,
    power_table_by_products,
    reconstruction_images_by_columns,
    twist_images_through_the_table,
)

_CTX = {(p, d): FqContext(p, d) for p in (2, 3, 5) for d in (1, 2)}

# law name -> (dimension e, builder)
_LAWS = {
    "additive1": (1, lambda ctx, m, al: make_additive(ctx, 1, m)),
    "additive2": (2, lambda ctx, m, al: make_additive(ctx, 2, m)),
    "multiplicative": (1, lambda ctx, m, al: make_multiplicative(ctx, m)),
    "witt2": (2, lambda ctx, m, al: make_witt2(ctx, m, al)),
    "addxmult": (2, lambda ctx, m, al: product_law(
        make_additive(ctx, 1, m), make_multiplicative(ctx, m))),
}


def _assert_tables(T):
    """T's table is the ladder's, its reconstruction keeps it, T is iterative."""
    assert T.check_iterativity()
    tab = T.table()
    ladder = T.model.power_table(T.images)
    assert tab.dtype == ladder.dtype and tab.tobytes() == ladder.tobytes()
    assert reconstruct_from_ppowers(T).table().tobytes() == tab.tobytes()


@st.composite
def _twists(draw):
    """A canonical derivation of dim <= 27 and an origin-fixing twist with
    invertible linear part: rows c_t x_t (+ u x_2 on the first), maybe
    swapped, plus a few terms of degree >= 2."""
    name = draw(st.sampled_from(sorted(_LAWS)))
    e, build = _LAWS[name]
    p, d = draw(st.sampled_from(sorted(_CTX)))
    ctx = _CTX[p, d]
    m = draw(st.integers(1, max(k for k in (1, 2, 3, 4) if p ** (e * k) <= 27)))
    def digits(k):
        return ctx.scalar(tuple(k // p**i % p for i in range(d)))

    scalar = st.integers(0, p**d - 1).map(digits)
    unit = st.integers(1, p**d - 1).map(digits)
    alphas = [draw(scalar) for _ in range(m)]
    model = ArtinianModel(ctx, e, m)
    D = canonical_derivation(model, build(ctx, m, alphas))
    xs = [model.ring.var(v) for v in model.xvars]
    phi = [draw(unit) * x for x in xs]
    if e == 2:
        phi[0] = phi[0] + draw(scalar) * xs[1]
        if draw(st.booleans()):
            phi.reverse()
    higher = [ex for ex in model.xidx.monomials if sum(ex) >= 2]
    for t in range(e):
        for _ in range(draw(st.integers(0, 3)) if higher else 0):
            phi[t] = phi[t] + model.ring.monomial(draw(st.sampled_from(higher)), draw(scalar))
    return D, phi


@settings(max_examples=60)
@given(_twists())
def test_twist_table_matches_ladder(case):
    D, phi = case
    _assert_tables(twist_by_automorphism(D, phi))


def _dense_dim25():
    ctx = FqContext(5, 1)
    D = canonical_derivation(ArtinianModel(ctx, 1, 2), make_multiplicative(ctx, 2))
    x = D.model.ring.var("x1")
    return D, [x + 2 * x**3 + x**5 + 3 * x**7 + 4 * x**11]


def _near_monomial_dim125():
    ctx = FqContext(5, 1)
    D = canonical_derivation(ArtinianModel(ctx, 1, 3), make_additive(ctx, 1, 3))
    x = D.model.ring.var("x1")
    return D, [x + 3 * x**25]


def _witt2_dim64():
    # p = 2, d = 2, m = 3
    ctx = FqContext(2, 2)
    law = make_witt2(ctx, 3, [ctx.gen, ctx.one, ctx.zero])
    D = canonical_derivation(ArtinianModel(ctx, 2, 3), law)
    x1, x2 = (D.model.ring.var(v) for v in D.model.xvars)
    return D, [x1 + x2**4, ctx.gen * x2 + x1**2 * x2]


def _additive2_dim81():
    # p = 3, d = 2, m = 2
    ctx = FqContext(3, 2)
    D = canonical_derivation(ArtinianModel(ctx, 2, 2), make_additive(ctx, 2, 2))
    x1, x2 = (D.model.ring.var(v) for v in D.model.xvars)
    return D, [x1 + ctx.gen * x2**3, ctx.gen * x2 + x1**3]


@pytest.mark.parametrize("case", [_dense_dim25, _near_monomial_dim125, _witt2_dim64,
                                  _additive2_dim81], ids=lambda f: f.__name__[1:])
def test_twist_conjugates_to_the_ladder(case):
    # dense and nearly monomial images, over prime and extension fields:
    # T's table and axis stacks, D's conjugated, are the ladder's
    D, phi = case()
    T = twist_by_automorphism(D, phi)
    for l in range(T.model.e):
        assert T.axis_stack(l).tobytes() == T._axis_ladder(l).tobytes()
    _assert_tables(T)


@functools.lru_cache(maxsize=None)
def _zoo():
    return tuple(derivation_zoo())


def _unipotent(draw, model):
    """phi_t = x_t, plus maybe c x_(t+1), plus a few terms of degree >= 2,
    coefficients anywhere in F_q: a unitriangular linear part."""
    ctx = model.ctx
    scalar = st.integers(0, ctx.q - 1).map(
        lambda k: ctx.scalar(tuple(k // ctx.p**i % ctx.p for i in range(ctx.d))))
    xs = [model.ring.var(v) for v in model.xvars]
    phi = list(xs)
    for t in range(model.e - 1):
        phi[t] = phi[t] + draw(scalar) * xs[t + 1]
    higher = [ex for ex in model.xidx.monomials if sum(ex) >= 2]
    for t in range(model.e):
        for _ in range(draw(st.integers(0, 3)) if higher else 0):
            phi[t] = phi[t] + model.ring.monomial(draw(st.sampled_from(higher)), draw(scalar))
    return phi


@st.composite
def _constructions(draw):
    """(D, steps): a derivation of oracles.derivation_zoo, or a canonical one
    at p = 2, 3, m = 1, 2, d = 1, 2 of dim <= 81, and one or two steps, each
    a unipotent twist (phi) or a reconstruction (None)."""
    if draw(st.booleans()):
        D = draw(st.sampled_from(_zoo()))
    else:
        name = draw(st.sampled_from(sorted(_LAWS)))
        e, build = _LAWS[name]
        p, d, m = draw(st.sampled_from(
            [(p, d, m) for p in (2, 3) for d in (1, 2) for m in (1, 2)
             if p ** (e * m) <= 81]))
        ctx = _CTX[p, d]
        law = build(ctx, m, [ctx.one] * m)
        D = canonical_derivation(ArtinianModel(ctx, e, m), law)
    steps = []
    for _ in range(draw(st.integers(1, 2))):
        steps.append(_unipotent(draw, D.model) if draw(st.booleans()) else None)
    return D, steps


@settings(max_examples=60, deadline=None)
@given(_constructions())
def test_lazy_images_match_the_eager_constructions(case):
    # a twist's and a reconstruction's images, read off their tables by
    # apply, are Phi D(psi_t) through D's table and the stack's columns at
    # x_t, term for term and in key order; known_iterative carries over
    D, steps = case
    for phi in steps:
        if phi is None:
            want = reconstruction_images_by_columns(D)
            T = reconstruct_from_ppowers(D)
        else:
            want = twist_images_through_the_table(D, phi)
            T = twist_by_automorphism(D, phi)
        assert T.known_iterative == D.known_iterative
        assert len(T.images) == len(want) == D.model.e
        for got, ref in zip(T.images, want):
            assert list(got.terms.items()) == list(ref.terms.items())
        D = T


def test_lazy_images_are_read_once_under_threads(monkeypatch):
    # more threads than cores read a fresh twist's images at once: they go
    # through D's table, the one build, and every thread gets the one tuple
    # the first reader stored
    builds = []
    real = HSDerivation._build_table

    def recording_build(self, axis=None):
        builds.append(axis)
        return real(self, axis)

    monkeypatch.setattr(HSDerivation, "_build_table", recording_build)
    D, phi = _witt2_dim64()
    D.table()
    T = twist_by_automorphism(D, phi)
    seen = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: seen.append(T.images)) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(seen) == 8 and all(imgs is seen[0] for imgs in seen)
    assert builds == [None]  # D's table, once; T builds none
    assert T._tab is None
    assert seen[0] == twist_images_through_the_table(D, phi)


@st.composite
def _routes(draw):
    """(fresh, phi, f): fresh() makes a new canonical derivation of a law of
    _LAWS over p in {2, 3, 5}, d in {1, 2}, dim <= 27, with its own law
    object; phi is a unipotent twist and f a dense element, every
    coefficient drawn."""
    name = draw(st.sampled_from(sorted(_LAWS)))
    e, build = _LAWS[name]
    p, d = draw(st.sampled_from(sorted(_CTX)))
    ctx = _CTX[p, d]
    m = draw(st.integers(1, max(k for k in (1, 2, 3, 4) if p ** (e * k) <= 27)))
    alphas = [ctx.scalar(tuple(draw(st.integers(0, p - 1)) for _ in range(d)))
              for _ in range(m)]
    model = ArtinianModel(ctx, e, m)
    coeffs = draw(st.lists(st.integers(0, ctx.q - 1), min_size=model.dim,
                           max_size=model.dim))
    f = model.ring.element({ex: ctx.pack([k // p**i % p for i in range(d)])
                            for ex, k in zip(model.xidx.monomials, coeffs)})
    return (lambda: canonical_derivation(model, build(ctx, m, alphas)),
            _unipotent(draw, model), f)


def _same_terms(got, want):
    return list(got.terms.items()) == list(want.terms.items())


@settings(max_examples=60, deadline=None)
@given(_routes())
def test_images_route_matches_the_table(case):
    # with no table counted small, a twist's images and apply go through D
    # (Phi D(Phi^-1 f), coefficientwise in v) and D's apply evaluates f at
    # its images: term for term and in key order what the tables give, and
    # no table is built, D's, T's or the law's, except with e = 1, where
    # the axis stack is the table and both read it
    fresh, phi, f = case
    ref = fresh()
    want_images = twist_images_through_the_table(ref, phi)
    want_D = apply_through_the_table(ref, f)
    want_T = apply_through_the_table(twist_by_automorphism(ref, phi), f)
    with mock.patch.object(derivation_mod, "SMALL_TABLE", 0):
        D = fresh()
        T = twist_by_automorphism(D, phi)
        assert _same_terms(T.apply(f), want_T)
        assert all(map(_same_terms, T.images, want_images))
        assert _same_terms(D.apply(f), want_D)
    assert (T._tab is None and D._tab is None and D.law._ptable is None) == (D.model.e > 1)
    # the default routes give the same terms
    D = fresh()
    T = twist_by_automorphism(D, phi)
    assert _same_terms(T.apply(f), want_T) and _same_terms(D.apply(f), want_D)
    assert all(map(_same_terms, T.images, want_images))


def _search_case(p, d, m, name):
    ctx = _CTX[p, d]
    e, build = _LAWS[name] if name in _LAWS else (3, lambda ctx, m, al: product_law(
        make_witt2(ctx, m, al), make_multiplicative(ctx, m)))
    law = build(ctx, m, [ctx.one] * m)
    model = ArtinianModel(ctx, e, m)
    xs = [model.ring.var(v) for v in model.xvars]
    phi = [x + xs[(t + 1) % e] ** 2 for t, x in enumerate(xs)]
    phi[0] = phi[0] + xs[1]
    return law, canonical_derivation(model, law), phi


@pytest.mark.parametrize("p, d, m, name", [
    (2, 1, 3, "witt2"), (3, 1, 2, "witt2"), (5, 1, 1, "witt2"), (2, 2, 3, "witt2"),
    (5, 2, 1, "addxmult"), (3, 1, 1, "witt2xmult"), (5, 1, 1, "additive2"),
], ids=lambda v: str(v))
def test_basis_search_builds_no_table(monkeypatch, p, d, m, name):
    # past SMALL_TABLE, basis-find on a twist and basis-verify on the
    # canonical derivation read axis stacks and images only: no _tab on T
    # or D, and no power table of the law; one search, sub-views included,
    # makes each of T's axis stacks, and D's under them, at most once
    law, D, phi = _search_case(p, d, m, name)
    assert D.model.dim**3 * d > derivation_mod.SMALL_TABLE
    T = twist_by_automorphism(D, phi)
    builds = []
    real = HSDerivation._build_table

    def recording_build(self, axis=None):
        builds.append((self is T, axis))
        return real(self, axis)

    monkeypatch.setattr(HSDerivation, "_build_table", recording_build)
    found = assemble_product_basis(T)
    assert builds and len(set(builds)) == len(builds)
    assert all(axis is not None for _, axis in builds)
    assert found.report.passed
    assert verify_canonical_basis(T, law, list(found)).passed
    xs = [D.model.ring.var(v) for v in D.model.xvars]
    assert verify_canonical_basis(D, law, xs).passed
    assert T._tab is None and D._tab is None and law._ptable is None


# laws of dimension e >= 2, for the per-axis stacks
_WIDE = ("additive2", "witt2", "addxmult")
_KINDS = ("canonical", "twist", "reconstructed", "images", "images-perturbed")


def _perturbed(D, scalar, draw):
    """An images derivation: D's images plus a few terms of positive v-weight,
    so it is usually not iterative."""
    model = D.model
    ring = model.ring_xv
    vmonos = [ex for ex in model.xidx.monomials if any(ex)]
    imgs = []
    for f in D.images:
        for _ in range(draw(st.integers(0, 3))):
            xe = draw(st.sampled_from(model.xidx.monomials))
            ve = draw(st.sampled_from(vmonos))
            f = f + ring.monomial(xe + ve, draw(scalar))
        imgs.append(f)
    return HSDerivation(model, D.law, imgs)


@st.composite
def _derivations(draw):
    """(kind, factory): each call of factory makes a fresh derivation of the
    drawn kind, so one copy can build only its axis stacks and another its
    full table."""
    name = draw(st.sampled_from(_WIDE))
    e, build = _LAWS[name]
    p, d = draw(st.sampled_from(sorted(_CTX)))
    ctx = _CTX[p, d]
    m = draw(st.integers(1, max(k for k in (1, 2, 3) if p ** (e * k) <= 27)))

    def digits(k):
        return ctx.scalar(tuple(k // p**i % p for i in range(d)))

    scalar = st.integers(0, p**d - 1).map(digits)
    unit = st.integers(1, p**d - 1).map(digits)
    alphas = [draw(scalar) for _ in range(m)]
    law = build(ctx, m, alphas)
    model = ArtinianModel(ctx, e, m)
    kind = draw(st.sampled_from(_KINDS))
    xs = [model.ring.var(v) for v in model.xvars]
    phi = [draw(unit) * xs[0] + draw(scalar) * xs[1], draw(unit) * xs[1]]
    higher = [ex for ex in model.xidx.monomials if sum(ex) >= 2]
    for t in range(e):
        for _ in range(draw(st.integers(0, 3)) if higher else 0):
            phi[t] = phi[t] + model.ring.monomial(draw(st.sampled_from(higher)), draw(scalar))
    extra = _perturbed(canonical_derivation(model, law), scalar, draw)

    def factory():
        D = canonical_derivation(model, law)
        if kind == "canonical":
            return D
        if kind == "images":
            return HSDerivation(model, law, D.images)
        if kind == "images-perturbed":
            return HSDerivation(model, law, extra.images)
        T = twist_by_automorphism(D, phi)
        if kind == "reconstructed":
            return reconstruct_from_ppowers(T)
        return T

    return kind, factory


@settings(max_examples=60, deadline=None)
@given(_derivations())
def test_axis_stacks_match_the_table(case):
    kind, factory = case
    A, F = factory(), factory()
    model = A.model
    e, n = model.e, model.n
    levels = tower(A).levels
    # the tower made only axis stacks, never A's dim^3 table
    assert A._tab is None
    for l in range(e):
        stack = A.axis_stack(l)
        assert stack.shape == (n, model.dim, model.dim, model.ctx.d)
        assert stack.flags["C_CONTIGUOUS"]
        assert stack.tobytes() == A._axis_ladder(l).tobytes()
        for j in range(n):
            full = F.component(tuple(j if t == l else 0 for t in range(e))).mat
            assert stack[j].dtype == full.dtype
            assert stack[j].tobytes() == full.tobytes()
    assert levels[0].dim == model.dim
    for s, V in enumerate(levels[1:]):
        assert V == joint_kernel(F, ppower_indices(model, range(e), s + 1))
    # once F's table is built, its axis stacks are read from it
    assert F.axis_stack(e - 1).tobytes() == A.axis_stack(e - 1).tobytes()


@settings(max_examples=60, deadline=None)
@given(_derivations(), st.data())
def test_search_components_and_apply_match_the_table(case, data):
    # every kind of derivation, with no table counted small: apply gives
    # the table's terms in its order, and a search's AxisComponents the
    # table's matrices byte for byte, an on-axis list from the axis stacks
    # and a list with an index off the axes from the table
    kind, factory = case
    F = factory()
    model, ctx = F.model, F.model.ctx
    coeffs = data.draw(st.lists(st.integers(0, ctx.q - 1), min_size=model.dim,
                                max_size=model.dim))
    f = model.ring.element({ex: ctx.pack([k // ctx.p**i % ctx.p for i in range(ctx.d)])
                            for ex, k in zip(model.xidx.monomials, coeffs)})
    on_axis = [i for i in model.xidx.monomials if sum(map(bool, i)) == 1]
    off = data.draw(st.sampled_from(
        [i for i in model.xidx.monomials if sum(map(bool, i)) > 1]))
    want = apply_through_the_table(F, f)
    with mock.patch.object(derivation_mod, "SMALL_TABLE", 0):
        A = factory()
        assert _same_terms(A.apply(f), want)
        comps = AxisComponents(A)
        for idxs in (on_axis, on_axis[:1] + [off]):
            for got, i in zip(comps.mats(idxs), idxs):
                assert got.tobytes() == F.component(i).mat.tobytes()


def _full_lists(D, coords):
    """Every nonzero index on coords below p, and below n."""
    model = D.model
    off = [t for t in range(model.e) if t not in coords]
    idxs = [i for i in model.xidx.monomials if any(i) and not any(i[t] for t in off)]
    return [i for i in idxs if max(i) < model.ctx.p], idxs


@settings(max_examples=40, deadline=None)
@given(_derivations())
def test_constants_shortcut_matches_full_lists(case):
    kind, factory = case
    D = factory()
    if kind.startswith("images"):
        assert not D.known_iterative
        D.check_iterativity()
    box, every = _full_lists(D, range(D.model.e))
    assert constants(D) == joint_kernel(D, box)
    assert absolute_constants(D) == joint_kernel(D, every)
    # coordinate blocks of the law, as the basis search takes them
    blocks = [(0, 1)] if D.law.kind == "witt2" else [(0, 1), (0,), (1,)]
    for coords in blocks:
        view = _View(D, coords, None)
        box, every = _full_lists(D, coords)
        assert view.box_constants() == joint_kernel(D, box)
        assert view.abs_constants() == joint_kernel(D, every)


def test_check_iterativity_marks_known_iterative():
    ctx = FqContext(2, 1)
    D = canonical_derivation(ArtinianModel(ctx, 2, 2), make_additive(ctx, 2, 2))
    assert D.known_iterative
    images = HSDerivation(D.model, D.law, D.images)
    assert not images.known_iterative
    assert images.check_iterativity() and images.known_iterative
    ring = D.model.ring_xv
    bent = [D.images[0] + ring.monomial((1, 0, 1, 0)), D.images[1]]
    wrong = HSDerivation(D.model, D.law, bent)
    assert not wrong.check_iterativity() and not wrong.known_iterative


def test_images_derivation_keeps_the_full_index_lists(monkeypatch):
    ctx = FqContext(2, 1)
    D = canonical_derivation(ArtinianModel(ctx, 2, 2), make_additive(ctx, 2, 2))
    images = HSDerivation(D.model, D.law, D.images)
    rows = []
    real = lattice_mod.kernel_space

    def counting_kernel_space(ctx, mat, within=None):
        rows.append(mat.shape[0])
        return real(ctx, mat, within)

    monkeypatch.setattr(lattice_mod, "kernel_space", counting_kernel_space)
    dim = D.model.dim  # 16: p = 2, e = 2, m = 2
    con, abs_con = constants(images), absolute_constants(images)
    # every nonzero index below p (3), then every nonzero index (15)
    assert rows == [3 * dim, 15 * dim]
    assert images.check_iterativity()
    assert constants(images) == con and absolute_constants(images) == abs_con
    # known iterative now: the e unit components, then the e*m p-power ones
    assert rows[2:] == [2 * dim, 4 * dim]
    assert constants(D) == con and absolute_constants(D) == abs_con
    assert rows[4:] == [2 * dim, 4 * dim]


def test_axis_stack_index_range():
    ctx = FqContext(2, 1)
    D = canonical_derivation(ArtinianModel(ctx, 2, 1), make_additive(ctx, 2, 1))
    with pytest.raises(IndexRange):
        D.axis_stack(2)


# -- power tables: the Frobenius ladder against one product per monomial ---


@functools.lru_cache(maxsize=None)
def _ladder_ctx(p, d):
    return FqContext(p, d)


@st.composite
def _ladder_inputs(draw):
    """(model, images, extra) over GF(2), GF(4), GF(5), GF(9) or GF(25),
    e = 1..3 and dim <= 125: a twist-style phi on the model box, images
    with the v-block adjoined (dim <= 27), or images with one v-axis
    (extra = 1, an axis ladder). Each image is x_t plus a few terms or
    plus up to 60 (every term of a small box), its coefficients in F_p or
    anywhere in F_q."""
    p, d = draw(st.sampled_from([(2, 1), (2, 2), (5, 1), (3, 2), (5, 2)]))
    ctx = _ladder_ctx(p, d)
    kind = draw(st.sampled_from(("twist", "xv", "axis")))
    cap = 27 if kind == "xv" else 125
    e, m = draw(st.sampled_from(
        [(e, m) for e in (1, 2, 3) for m in range(1, 7) if p ** (e * m) <= cap]))
    model = ArtinianModel(ctx, e, m)
    extra = int(kind == "axis")
    ring = {"twist": model.ring, "xv": model.ring_xv,
            "axis": TruncatedRing(ctx, [(model.xvars, model.n), (("v1",), model.n)])}[kind]
    outside = draw(st.booleans())
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    box = list(itertools.product(*(range(b) for b in ring.bounds)))

    def coeff():
        if outside:
            return ctx.pack(rnd.randrange(p) for _ in range(d))
        return rnd.randrange(p)

    images = []
    for t in range(e):
        count = min(len(box), 60 if draw(st.booleans()) else rnd.randrange(4))
        terms = {ex: coeff() for ex in rnd.sample(box, count)}
        terms[tuple(int(i == t) for i in range(len(ring.bounds)))] = 1
        images.append(TruncatedPoly(ring, terms))
    return model, images, extra


@settings(max_examples=150)
@given(_ladder_inputs())
def test_power_table_matches_one_product_per_monomial(case):
    model, images, extra = case
    got = model.power_table(images, extra)
    want = power_table_by_products(model, images, extra)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60)
@given(_ladder_inputs(), st.sampled_from((1, 2, 5)))
def test_power_table_in_row_blocks_matches_one_product_per_monomial(case, rows):
    # blocks of a few rows (a quarter of TABLE_BLOCK each), the last one
    # short: the top digit place runs block by block and each block lands
    # in its graded positions
    model, images, extra = case
    row_digits = math.prod(images[0].ring.bounds) * model.ctx.d
    with mock.patch.object(artinian_mod, "TABLE_BLOCK", 4 * rows * row_digits):
        got = model.power_table(images, extra)
    want = power_table_by_products(model, images, extra)
    assert got.tobytes() == want.tobytes()


def _traced_peak(build):
    """(result, peak bytes traced above the allocations live at the start)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = build()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_power_table_peaks_at_a_table_and_a_pth():
    # the dim-81 witt2 law table (p = 3, m = 2): 81^3 digits, 4.1 MB. The
    # ladder's scratch is a third of it, and the blocks it hands over, with
    # their graded copies, stay within one TABLE_BLOCK
    law = make_witt2(_CTX[3, 1], 2, [1, 1])
    model = ArtinianModel(law.ctx, 2, 2)
    tab, peak = _traced_peak(lambda: model.power_table(law.components))
    assert tab.shape == (81, 81, 81, 1)
    assert peak <= tab.nbytes * (1 + 1 / 3) + TABLE_BLOCK * 8


def test_twist_table_holds_two_tables_and_a_block():
    # dim 64 (p = 2, m = 3): with D's table built, T's is written block by
    # block; beyond T's table a build holds one block of the conjugation
    # and mat_mul's float64 block, never the whole product with Phi^-1
    ctx = _CTX[2, 1]
    law = make_witt2(ctx, 3, [1, 1, 1])
    D = canonical_derivation(ArtinianModel(ctx, 2, 3), law)
    x1, x2 = (D.model.ring.var(v) for v in D.model.xvars)
    T = twist_by_automorphism(D, [x1 + x2**2 + x1**9, x2 + x1**8])
    D.table()
    tab, peak = _traced_peak(T.table)
    assert tab.nbytes == D.table().nbytes == 64**3 * 8
    assert peak <= tab.nbytes + (TABLE_BLOCK + FLOAT_BLOCK) * 8


def test_twisted_tower_builds_axis_stacks_only(monkeypatch):
    # additive e = 5, p = 3, m = 1: dim 243, where the dim^3 table of D or
    # of T is 110 MB. The twist conjugates D's axis stacks (1.4 MB each);
    # no table is built, D's or T's
    axes = []
    real = HSDerivation._build_table

    def recording_build(self, axis=None):
        axes.append(axis)
        return real(self, axis)

    monkeypatch.setattr(HSDerivation, "_build_table", recording_build)
    phi = ["x1 + x2^2"] + [f"x{t}" for t in range(2, 6)]
    job = {"command": "tower", "context": {"p": 3, "m": 1},
           "law": {"type": "additive", "e": 5},
           "derivation": {"type": "twist", "phi": phi}}
    (report, code), peak = _traced_peak(lambda: run(job))
    assert code == 0
    assert report["checks"][0]["detail"]["dims"] == [243, 1]
    assert peak <= 16 * 2**20
    assert None not in axes and len(axes) == 2 * 5


def test_frobenius_terms_raise_coefficients_to_q(monkeypatch):
    # over GF(4), g^2 != g: base^2 of g x + x^2 + g x^3 is g^2 x^2 inside
    # the box x^8 = 0, and a ladder that kept g there would be wrong
    ctx = _ladder_ctx(2, 2)
    model = ArtinianModel(ctx, 1, 3)
    g = ctx.pack((0, 1))
    phi = [TruncatedPoly(model.ring, {(1,): g, (2,): 1, (3,): g})]
    want = power_table_by_products(model, phi).tobytes()
    assert model.power_table(phi).tobytes() == want

    def coefficients_kept(self, f, q):
        return [(tuple(q * a for a in ex), ctx.unpack(c)) for ex, c in f.terms.items()
                if all(q * a < b for a, b in zip(ex, self.bounds))]

    monkeypatch.setattr(DenseRing, "frobenius_terms", coefficients_kept)
    assert model.power_table(phi).tobytes() != want


# -- ring products of a stack of vectors -----------------------------------


@st.composite
def _vec_stacks(draw):
    """(model, stack, v): GF(2), GF(4), GF(5) or GF(9), e = 1..3 with dim
    <= 125; 0 to 5 rows and v each dense, sparse or zero."""
    p, d = draw(st.sampled_from([(2, 1), (2, 2), (5, 1), (3, 2)]))
    ctx = _ladder_ctx(p, d)
    e, m = draw(st.sampled_from(
        [(e, m) for e in (1, 2, 3) for m in range(1, 7) if p ** (e * m) <= 125]))
    model = ArtinianModel(ctx, e, m)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def vectors(k):
        out = rng.integers(0, p, (k, model.dim, d))
        kind = draw(st.sampled_from(("dense", "sparse", "zero")))
        if kind == "sparse":
            out[:, rng.random(model.dim) < 0.9] = 0
        elif kind == "zero":
            out[:] = 0
        return out

    return model, vectors(draw(st.integers(0, 5))), vectors(1)[0]


@given(_vec_stacks(), st.integers(0, 12))
def test_vec_mul_of_a_stack_matches_row_by_row(case, k):
    model, stack, v = case
    got = model.vec_mul(stack, v)
    assert got.dtype == np.int64 and got.shape == stack.shape
    for row, want in zip(got, stack):
        assert np.array_equal(row, model.vec_mul(want, v))
        assert np.array_equal(model.vec_mul(v, want), row)
    # vec_pow squares; k products one at a time give the same bytes
    power = model.one_vec()
    for _ in range(k):
        power = model.vec_mul(power, v)
    assert model.vec_pow(v, k).tobytes() == power.tobytes()
