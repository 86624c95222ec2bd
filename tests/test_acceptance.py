"""Acceptance gate: one test per criterion, one printed verdict line each.

Every comparison is exact; there are no tolerances anywhere. Random sweeps
are seeded so a failure replays byte for byte. Each criterion carries its
wall-clock budget, enforced after the assertions.
"""

import functools
import itertools
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from oracles import pfold_by_repeated_composition, poly_of, trunc_of
from hsderiv.artinian import ArtinianModel
from hsderiv.basis import (
    assemble_product_basis,
    find_x,
    find_y,
    verify_canonical_basis,
)
from hsderiv.derivation import (
    canonical_derivation,
    p_fold_evP,
    reconstruct_from_ppowers,
    truncate_derivation,
    twist_by_automorphism,
    witt2_pfold_expansion,
)
from hsderiv.fieldmodel import (
    FieldDerivationContext,
    dependence_test,
    p_independence_test,
    wronskian_matrix,
)
from hsderiv.gf import FqContext
from hsderiv.grouplaw import (
    check_axioms,
    make_additive,
    make_multiplicative,
    make_witt2,
    n_series,
    product_law,
    structure_constants,
    truncate_law,
)
from hsderiv.lattice import tower
from hsderiv.poly import MultiPoly
from hsderiv.truncated import convert

ROOT = Path(__file__).resolve().parent.parent


def criterion(num, label, budget=None):
    """Print one verdict line per criterion, even when the body throws."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            t0 = time.perf_counter()
            done = False
            try:
                fn()
                done = True
            finally:
                dt = time.perf_counter() - t0
                timely = budget is None or dt <= budget
                word = "PASS" if done and timely else "FAIL"
                cap = "" if budget is None else f" (budget {budget}s)"
                print(f"[{word}] criterion {num} {label}: {dt:.1f}s{cap}",
                      flush=True)
            assert budget is None or dt <= budget, (
                f"criterion {num} blew its {budget}s budget: {dt:.1f}s")

        return wrapper

    return deco


def _canon(law):
    return canonical_derivation(ArtinianModel(law.ctx, law.e, law.m), law)


def _rand_scalar(ctx, rng, nonzero=False):
    digits = tuple(rng.randrange(ctx.p) for _ in range(ctx.d))
    if nonzero and not any(digits):
        digits = (1,) + digits[1:]
    return ctx.scalar(digits)


def _random_twist(D, rng):
    """Unipotent substitution: identity linear part, random shear and tail."""
    model, ctx = D.model, D.model.ctx
    p, n, e = ctx.p, model.n, model.e
    phis = []
    for t in range(e):
        terms = {tuple(1 if s == t else 0 for s in range(e)): ctx.one}
        for s in range(t + 1, e):
            if rng.random() < 0.4:
                unit = tuple(1 if u == s else 0 for u in range(e))
                terms[unit] = _rand_scalar(ctx, rng, nonzero=True)
        for _ in range(rng.randrange(3)):
            exps = tuple(rng.randrange(n) for _ in range(e))
            if sum(exps) >= 2:
                terms[exps] = _rand_scalar(ctx, rng, nonzero=True)
        phis.append(trunc_of(model.ring, terms))
    return twist_by_automorphism(D, phis)


def _constructor_laws(ctx, m, rng):
    alphas = [_rand_scalar(ctx, rng) for _ in range(m)]
    laws = [
        make_additive(ctx, 1, m),
        make_additive(ctx, 2, m),
        make_multiplicative(ctx, m),
        make_witt2(ctx, m, alphas),
    ]
    laws.append(product_law(laws[0], laws[2]))
    return laws


@criterion(1, "group-law axioms", 10)
def test_criterion_01():
    rng = random.Random(1001)
    for p, m, d in itertools.product((2, 3, 5), (1, 2), (1, 2)):
        ctx = FqContext(p, d)
        for law in _constructor_laws(ctx, m, rng):
            res = check_axioms(law)
            assert res == {"unit": True, "associative": True,
                           "commutative": True}, (p, m, d, law.kind, res)


@criterion(2, "p-series closed form", 10)
def test_criterion_02():
    rng = random.Random(1002)
    for p, m, d in itertools.product((2, 3), (1, 2), (1, 2)):
        ctx = FqContext(p, d)
        if d == 1:
            # exhaustive over the prime field
            alsets = [[ctx.scalar(a) for a in vec]
                      for vec in itertools.product(range(p), repeat=m)]
        else:
            alsets = [[_rand_scalar(ctx, rng) for _ in range(m)]
                      for _ in range(8)]
        for alphas in alsets:
            law = make_witt2(ctx, m, alphas)
            comps = n_series(law, p)
            vring = comps[0].ring
            terms = {}
            for lvl, a in enumerate(law.alphas):
                ee = p ** (lvl + 1)
                if ee < p**m and a:
                    terms[(0, ee)] = -a
            assert comps[0] == trunc_of(vring, terms), (p, m, d, alphas)
            assert comps[1] == vring.zero, (p, m, d, alphas)


@criterion(3, "p-fold composite against literal composition", 60)
def test_criterion_03():
    rng = random.Random(1003)
    for p, m in itertools.product((2, 3), (1, 2)):
        ctx = FqContext(p, 1)
        for law in _constructor_laws(ctx, m, rng):
            D = _canon(law)
            for Dv in (D, _random_twist(D, rng)):
                M = p_fold_evP(Dv)
                oracle = pfold_by_repeated_composition(Dv)
                assert len(M) == Dv.model.dim
                for idx, op in M.items():
                    assert np.array_equal(op.mat, oracle.component(idx).mat), (
                        p, m, law.kind, idx)


@criterion(4, "p-fold closed form for the two-block law", 30)
def test_criterion_04():
    for p in (2, 3):
        ctx, m = FqContext(p, 1), 2
        for avec in itertools.product(range(p), repeat=m):
            law = make_witt2(ctx, m, [ctx.scalar(a) for a in avec])
            D = _canon(law)
            dim = D.model.dim
            for (i, j), op in p_fold_evP(D).items():
                if i != 0:
                    assert not op.mat.any(), (p, avec, (i, j))
                    continue
                combo = witt2_pfold_expansion(law, j)
                acc = ctx.zeros((dim, dim))
                for s, c in combo.items():
                    acc = (acc + ctx.arr_scale(c.digits,
                                               D.component((s, 0)).mat)) % p
                assert np.array_equal(op.mat, acc), (p, avec, (0, j))
            # at a p-power index the expansion is -alpha at weight one plus
            # terms of weight p..p^j only
            for lvl in range(m):
                combo = witt2_pfold_expansion(law, p**lvl)
                assert combo.get(1, ctx.zero) == -law.alphas[lvl], (p, avec)
                assert all(s == 1 or p <= s <= p**lvl for s in combo), (
                    p, avec, sorted(combo))


def _structure_tensor(law, idxs):
    """Dense c[(i_rank * dim + j_rank), k_rank] over the prime field."""
    dim = len(idxs)
    rank = {idx: r for r, idx in enumerate(idxs)}
    C = np.zeros((dim * dim, dim), dtype=np.int64)
    for a, i in enumerate(idxs):
        for b, j in enumerate(idxs):
            for k, c in structure_constants(law, i, j).items():
                C[a * dim + b, rank[k]] = c.digits[0]
    return C


@criterion(5, "composition identities and p-power reconstruction", 60)
def test_criterion_05():
    rng = random.Random(1005)
    for p, m in itertools.product((2, 3), (1, 2)):
        ctx = FqContext(p, 1)
        laws = [
            make_multiplicative(ctx, m),
            make_witt2(ctx, m, [_rand_scalar(ctx, rng, nonzero=True)]
                       + [_rand_scalar(ctx, rng) for _ in range(m - 1)]),
            product_law(make_additive(ctx, 1, m), make_multiplicative(ctx, m)),
        ]
        for law in laws:
            D0 = _canon(law)
            idxs = list(D0.model.xidx.monomials)
            dim = D0.model.dim
            C = _structure_tensor(law, idxs).astype(np.float64)
            for Dv in (D0, _random_twist(D0, rng)):
                S = Dv.matrix_stack()[..., 0].astype(np.float64)
                right = S.transpose(1, 0, 2).reshape(dim, dim * dim)
                flat = S.reshape(dim, dim * dim)
                for jr in range(dim):
                    # exact in float64: entries < p, inner sums way below 2^53
                    # int64 % p is several times faster than float64 % p
                    lhs = ((S[jr] @ right).astype(np.int64) % p).reshape(
                        dim, dim, dim)
                    rhs = ((C[jr::dim] @ flat).astype(np.int64) % p).reshape(
                        dim, dim, dim)
                    assert np.array_equal(lhs.transpose(1, 0, 2), rhs), (
                        p, m, law.kind, idxs[jr])
                for _ in range(10):
                    i, j = rng.choice(idxs), rng.choice(idxs)
                    acc = ctx.zeros((dim, dim))
                    for k, c in structure_constants(law, i, j).items():
                        acc = (acc + ctx.arr_scale(
                            c.digits, Dv.component(k).mat)) % p
                    assert np.array_equal(Dv.compose(j, i).mat, acc), (
                        p, m, law.kind, i, j)
                R = reconstruct_from_ppowers(Dv)
                assert np.array_equal(R.table(), Dv.table()), (p, m, law.kind)


@criterion(6, "constants tower ratios and kernel containments", 30)
def test_criterion_06():
    rng = random.Random(1006)
    for p, m in itertools.product((2, 3), (1, 2)):
        ctx = FqContext(p, 1)
        for law in _constructor_laws(ctx, m, rng):
            tw = tower(_canon(law))
            want = p**law.e
            assert tw.degree_hypothesis_ok, (p, m, law.kind, tw.dims)
            assert all(a == want * b
                       for a, b in zip(tw.dims, tw.dims[1:])), (tw.dims,)
    for p in (2, 3):
        ctx, m = FqContext(p, 1), 2
        law = make_witt2(ctx, m, [ctx.one, ctx.one])
        D0 = _canon(law)
        for D in (D0, _random_twist(D0, random.Random(1060 + p))):
            tw = tower(D)
            for lvl in range(m):
                V = tw.level(lvl)
                bound = min(p ** (lvl + 1), p**m)
                for i in range(bound):
                    for j in range(bound):
                        if (i, j) == (0, 0):
                            continue
                        hit = ctx.mat_mul(
                            V.basis, D.component((i, j)).mat.swapaxes(0, 1))
                        assert not hit.any(), (p, lvl, (i, j))


@criterion(7, "canonical coordinates for twisted derivations", 300)
def test_criterion_07():
    rng = random.Random(1007)
    for p, m in itertools.product((2, 3), (1, 2)):
        ctx = FqContext(p, 1)
        # lambda recomputed from scratch: (-1)^(i-1) / i mod p
        lam = [((-1) ** (i - 1) * pow(i, p - 2, p)) % p for i in range(1, p)]
        avecs = list(itertools.product(range(p), repeat=m))
        per = -(-50 // len(avecs))
        for avec in avecs:
            law = make_witt2(ctx, m, [ctx.scalar(a) for a in avec])
            D0 = _canon(law)
            for _ in range(per):
                T = _random_twist(D0, rng)
                y = find_y(T)
                x = find_x(T, y)
                model, ring = T.model, T.model.ring_xv
                expect_y = convert(y, ring) + ring.var(model.vvars[1])
                assert T.apply(y) == expect_y, (p, m, avec)
                yim = convert(y, ring)
                expect_x = convert(x, ring) + ring.var(model.vvars[0])
                for lvl in range(m):
                    a = law.alphas[lvl]
                    if not a:
                        continue
                    for i in range(1, p):
                        mono = ring.var(model.vvars[1], (p - i) * p**lvl)
                        expect_x = expect_x + (yim ** (i * p**lvl) * mono
                                               ).scale(ctx.raw(a * lam[i - 1]))
                assert T.apply(x) == expect_x, (p, m, avec)
                assert verify_canonical_basis(T, law, [x, y]).passed, (
                    p, m, avec)


@criterion(8, "product basis assembly", 60)
def test_criterion_08():
    rng = random.Random(1008)
    ctx = FqContext(2, 1)
    for m in (1, 2):
        laws = [
            product_law(make_additive(ctx, 1, m), make_additive(ctx, 1, m)),
            product_law(make_additive(ctx, 1, m), make_multiplicative(ctx, m)),
            product_law(make_witt2(ctx, m, [ctx.one] * m),
                        make_multiplicative(ctx, m)),
        ]
        for law in laws:
            D0 = _canon(law)
            for Dv in (D0, _random_twist(D0, rng)):
                found = assemble_product_basis(Dv)
                assert len(found) == law.e
                assert verify_canonical_basis(Dv, law, list(found)).passed, (
                    m, law.kind)


def _rand_constant(fctx, rng):
    """Nonzero polynomial in the p-th power of the first generator."""
    ctx, p = fctx.ctx, fctx.ctx.p
    e = fctx.e
    terms = {}
    for k in range(2):
        if rng.random() < 0.7:
            exps = tuple(k * p if t == 0 else 0 for t in range(e))
            terms[exps] = ctx.scalar(rng.randrange(1, p))
    if not terms:
        terms[(0,) * e] = ctx.one
    return fctx.dom.coerce(poly_of(ctx, fctx.xvars, terms))


def _assert_witness(fctx, elements, witness):
    assert witness is not None and any(witness)
    for row in wronskian_matrix(fctx, elements):
        acc = fctx.dom.zero
        for w, entry in zip(witness, row):
            acc = acc + w * entry
        assert acc.is_zero(), "witness fails to annihilate a derived row"


@criterion(9, "field dependence classification", 60)
def test_criterion_09():
    rng = random.Random(1009)
    for p in (2, 3):
        ctx = FqContext(p, 1)
        fctx = FieldDerivationContext(make_additive(ctx, 1, 1))
        xx = fctx.dom.coerce(MultiPoly.var(ctx, fctx.xvars, "x1"))
        powers = [xx**k for k in range(p)]
        res = dependence_test(fctx, powers)
        assert res["independent"] and res["witness"] is None
        for _ in range(5):
            c1, c2 = _rand_constant(fctx, rng), _rand_constant(fctx, rng)
            fam = [xx, xx ** (p - 1) + fctx.dom.one]
            fam.append(c1 * fam[0] + c2 * fam[1])
            res = dependence_test(fctx, fam)
            assert not res["independent"]
            _assert_witness(fctx, fam, res["witness"])
        # p + 1 elements never fit in a p-row box
        over = powers + [xx**p]
        res = dependence_test(fctx, over)
        assert not res["independent"]
        _assert_witness(fctx, over, res["witness"])

        fctx2 = FieldDerivationContext(make_additive(ctx, 2, 1))
        gens = [fctx2.dom.coerce(MultiPoly.var(ctx, fctx2.xvars, v))
                for v in fctx2.xvars]
        assert dependence_test(fctx2, gens)["independent"]
        assert p_independence_test(fctx2, gens)
        crowd = [fctx2.dom.one]
        for k in range(p * p):
            a, b = divmod(k, p)
            crowd.append(gens[0] ** (a + 1) * gens[1] ** b + fctx2.dom.one)
        res = dependence_test(fctx2, crowd)
        assert not res["independent"]
        _assert_witness(fctx2, crowd, res["witness"])

        fctxw = FieldDerivationContext(make_witt2(ctx, 1, [1]))
        wgens = [fctxw.dom.coerce(MultiPoly.var(ctx, fctxw.xvars, v))
                 for v in fctxw.xvars]
        assert dependence_test(fctxw, wgens)["independent"]


@criterion(10, "truncation compatibility", 10)
def test_criterion_10():
    rng = random.Random(1010)
    for p in (2, 3):
        ctx = FqContext(p, 1)
        for m in (2, 3):
            for law in _constructor_laws(ctx, m, rng):
                if p ** (law.e * m) > 256:
                    continue
                D = _canon(law)
                for m2 in range(1, m):
                    lhs = truncate_derivation(D, m2)
                    small = canonical_derivation(
                        ArtinianModel(ctx, law.e, m2), truncate_law(law, m2))
                    assert lhs.law == small.law, (p, m, m2, law.kind)
                    assert np.array_equal(lhs.table(), small.table()), (
                        p, m, m2, law.kind)


@criterion(11, "batch driver determinism")
def test_criterion_11():
    def invoke(path):
        return subprocess.run(
            [sys.executable, "-m", "hsderiv", "run", str(path), "--quiet"],
            capture_output=True,
        )

    selftest = ROOT / "configs" / "selftest.json"
    first = invoke(selftest)
    assert first.returncode == 0
    assert json.loads(first.stdout)["pass"] is True
    for cfg in sorted((ROOT / "configs").glob("*.json")):
        a, b = invoke(cfg), invoke(cfg)
        assert a.returncode == 0, cfg.name
        assert a.stdout and a.stdout == b.stdout, cfg.name
