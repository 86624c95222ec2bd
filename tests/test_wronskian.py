"""Field-side derivations: component matrices, rank, dependence, p-independence."""

import random
import subprocess
import sys

import pytest

from hsderiv import fieldmodel
from hsderiv.artinian import ArtinianModel
from hsderiv.derivation import canonical_derivation
from hsderiv.errors import HypothesisFailure, TooManyElements
from hsderiv.fieldmodel import (
    FieldDerivationContext,
    dependence_test,
    p_independence_test,
    rank_over_field,
    wronskian_matrix,
)
from hsderiv.gf import FqContext
from hsderiv.grouplaw import make_additive, make_multiplicative, make_witt2
from hsderiv.lattice import constants
from hsderiv.poly import MultiPoly


def _fctx(law):
    return FieldDerivationContext(law)


def _x(fctx, t=0):
    return fctx.dom.coerce(MultiPoly.var(fctx.ctx, fctx.xvars, fctx.xvars[t]))


def _poly(fctx, coeffs):
    # coeffs maps univariate exponent -> int, in the first variable
    width = len(fctx.xvars)
    terms = {}
    for k, c in coeffs.items():
        s = fctx.ctx.scalar(c)
        if s:
            terms[(k,) + (0,) * (width - 1)] = s
    return fctx.dom.coerce(MultiPoly(fctx.ctx, fctx.xvars, terms))


def test_identity_column():
    fctx = _fctx(make_multiplicative(FqContext(3, 1), 1))
    mat = wronskian_matrix(fctx, [fctx.dom.one])
    assert len(mat) == 3 and all(len(row) == 1 for row in mat)
    assert mat[0][0] == fctx.dom.one
    assert mat[1][0].is_zero() and mat[2][0].is_zero()


def test_additive_pair_matrix():
    fctx = _fctx(make_additive(FqContext(2, 1), 1, 1))
    x = _x(fctx)
    mat = wronskian_matrix(fctx, [fctx.dom.one, x])
    assert mat[0][0] == fctx.dom.one and mat[0][1] == x
    assert mat[1][0].is_zero() and mat[1][1] == fctx.dom.one


def test_additive_pair_matrix_deeper_truncation():
    # the [p)-box rows do not depend on the truncation depth
    fctx = _fctx(make_additive(FqContext(2, 1), 1, 2))
    x = _x(fctx)
    mat = wronskian_matrix(fctx, [fctx.dom.one, x])
    assert mat[0] == [fctx.dom.one, x]
    assert mat[1][0].is_zero() and mat[1][1] == fctx.dom.one


def test_multiplicative_generator_column():
    fctx = _fctx(make_multiplicative(FqContext(3, 1), 1))
    x = _x(fctx)
    mat = wronskian_matrix(fctx, [x])
    assert mat[0][0] == x
    assert mat[1][0] == fctx.dom.one + x
    assert mat[2][0].is_zero()


def test_rank_examples():
    fctx = _fctx(make_additive(FqContext(2, 1), 1, 1))
    x = _x(fctx)
    one = fctx.dom.one
    zero = fctx.dom.zero
    assert rank_over_field([[one, x], [zero, one]]) == 2
    assert rank_over_field([[x, x], [x, x]]) == 1
    assert rank_over_field([[zero, zero], [zero, zero]]) == 0
    assert rank_over_field([]) == 0
    # fractions clear row by row
    inv = (one + x).inverse()
    assert rank_over_field([[inv, x * inv], [one, x]]) == 1


def test_scalar_multiple_dependent():
    fctx = _fctx(make_additive(FqContext(3, 1), 1, 1))
    x = _x(fctx)
    f = x * (x + fctx.dom.one).inverse()
    c = fctx.dom.coerce(2)
    res = dependence_test(fctx, [f, c * f])
    assert not res["independent"]
    assert res["rank"] == 1
    w = res["witness"]
    # the kernel of (f, c f) is spanned by (c, -1)
    assert w[0] + c * w[1] == fctx.dom.zero
    assert not w[1].is_zero()
    assert (w[0] * f + w[1] * (c * f)).is_zero()


def test_power_basis_independent():
    for p in (2, 3):
        fctx = _fctx(make_additive(FqContext(p, 1), 1, 1))
        x = _x(fctx)
        fam = [x**k for k in range(p)]
        res = dependence_test(fctx, fam)
        assert res["independent"] and res["rank"] == p


def test_pth_power_dependent():
    for p in (2, 3):
        fctx = _fctx(make_additive(FqContext(p, 1), 1, 1))
        x = _x(fctx)
        res = dependence_test(fctx, [fctx.dom.one, x**p])
        assert not res["independent"]
        assert res["rank"] == 1
        w = res["witness"]
        assert w[0] + x**p * w[1] == fctx.dom.zero


def test_box_budget_forces_dependence():
    # p^e + 1 elements can never be independent
    fctx = _fctx(make_additive(FqContext(2, 1), 1, 1))
    x = _x(fctx)
    res = dependence_test(fctx, [x, x + fctx.dom.one, x * x])
    assert not res["independent"]

    fctx2 = _fctx(make_additive(FqContext(2, 1), 2, 1))
    x1, x2 = _x(fctx2, 0), _x(fctx2, 1)
    fam = [fctx2.dom.one, x1, x2, x1 * x2, x1 + x2]
    res2 = dependence_test(fctx2, fam)
    assert not res2["independent"]
    assert res2["rank"] == 4


def test_fraction_family():
    fctx = _fctx(make_additive(FqContext(2, 1), 1, 1))
    x = _x(fctx)
    inv = (x + fctx.dom.one).inverse()
    mat = wronskian_matrix(fctx, [inv, x * inv])
    assert mat[1][0] == inv * inv
    assert mat[1][1] == inv * inv
    res = dependence_test(fctx, [inv, x * inv])
    assert res["independent"]


def test_constructed_dependent_families():
    # c1 f1 + c2 f2 with c_i constant for every box component must come out
    # dependent, with a verified witness
    rng = random.Random(20260819)
    for p, m in ((2, 1), (2, 2), (3, 1)):
        fctx = _fctx(make_additive(FqContext(p, 1), 1, m))
        for trial in range(6):
            f1 = _poly(fctx, {k: rng.randrange(p) for k in range(4)})
            f2 = _poly(fctx, {k: rng.randrange(p) for k in range(4)})
            if f1.is_zero() or f2.is_zero():
                continue
            c1 = _poly(fctx, {0: 1 + rng.randrange(p - 1), p: rng.randrange(p)})
            c2 = _poly(fctx, {0: rng.randrange(p), p: 1 + rng.randrange(p - 1)})
            f3 = c1 * f1 + c2 * f2
            res = dependence_test(fctx, [f1, f2, f3])
            assert not res["independent"]
            assert res["witness"] is not None


def test_constructed_dependent_multiplicative():
    fctx = _fctx(make_multiplicative(FqContext(3, 1), 1))
    x = _x(fctx)
    f1 = x + fctx.dom.one
    f2 = x * x + fctx.dom.coerce(2)
    c = x**3  # killed by both box components
    res = dependence_test(fctx, [f1, f2, c * f1])
    assert not res["independent"]


def test_witt2_field_context_rows():
    ctx = FqContext(2, 1)
    fctx = _fctx(make_witt2(ctx, 1, [1]))
    x1, x2 = _x(fctx, 0), _x(fctx, 1)
    img = fctx.apply(x1)
    # first coordinate follows the carry pattern, second is plain additive
    assert img.coeff((1, 0)) == fctx.dom.one
    assert img.coeff((0, 1)) == x2
    assert fctx.apply(x2).coeff((0, 1)) == fctx.dom.one
    res = dependence_test(fctx, [fctx.dom.one, x1, x2, x1 * x2])
    assert res["independent"]


def test_p_independence_generators():
    for p in (2, 3):
        fctx = _fctx(make_additive(FqContext(p, 1), 2, 1))
        assert p_independence_test(fctx, [_x(fctx, 0), _x(fctx, 1)])


def test_p_independence_pth_power_fails():
    for p in (2, 3):
        fctx = _fctx(make_additive(FqContext(p, 1), 1, 1))
        x = _x(fctx)
        assert p_independence_test(fctx, [x])
        assert not p_independence_test(fctx, [x**p])


def test_p_independence_translate_fails():
    fctx = _fctx(make_additive(FqContext(2, 1), 2, 1))
    x1 = _x(fctx, 0)
    assert not p_independence_test(fctx, [x1, x1 + fctx.dom.one])


def test_p_independence_fraction():
    fctx = _fctx(make_additive(FqContext(2, 1), 1, 1))
    x = _x(fctx)
    assert p_independence_test(fctx, [x.inverse()])
    assert not p_independence_test(fctx, [(x * x).inverse()])


def test_p_independence_too_many():
    fctx = _fctx(make_additive(FqContext(2, 1), 1, 1))
    x = _x(fctx)
    with pytest.raises(TooManyElements):
        p_independence_test(fctx, [x, x + fctx.dom.one])


def test_artinian_consistency():
    # polynomial families of degree below p^m classify the same way the
    # artinian constants subspace says they should
    for p in (2, 3):
        ctx = FqContext(p, 1)
        law = make_additive(ctx, 1, 2)
        D = canonical_derivation(ArtinianModel(ctx, 1, 2), law)
        V = constants(D)
        fctx = _fctx(law)
        x = _x(fctx)
        xp = x**p
        assert V.contains(D.model.vec_from_poly(D.model.ring.monomial((p,))))
        assert not dependence_test(fctx, [fctx.dom.one, xp])["independent"]
        assert not V.contains(D.model.vec_from_poly(D.model.ring.monomial((1,))))
        assert dependence_test(fctx, [fctx.dom.one, x])["independent"]


_WRONG_WITNESS = """
import sys
from hsderiv import fieldmodel
from hsderiv.errors import HypothesisFailure
from hsderiv.gf import FqContext
from hsderiv.grouplaw import make_additive
from hsderiv.poly import MultiPoly
fctx = fieldmodel.FieldDerivationContext(make_additive(FqContext(2, 1), 1, 1))
x = fctx.dom.coerce(MultiPoly.var(fctx.ctx, fctx.xvars, "x1"))
fieldmodel._kernel_vector = lambda mat: [fctx.dom.one, fctx.dom.zero]
try:
    fieldmodel.dependence_test(fctx, [fctx.dom.one, x * x])
except HypothesisFailure:
    sys.exit(0)
sys.exit(1)
"""


def test_dependence_witness_is_checked(monkeypatch):
    fctx = _fctx(make_additive(FqContext(2, 1), 1, 1))
    x = _x(fctx)
    monkeypatch.setattr(fieldmodel, "_kernel_vector",
                        lambda mat: [fctx.dom.one, fctx.dom.zero])
    with pytest.raises(HypothesisFailure):
        dependence_test(fctx, [fctx.dom.one, x * x])


def test_dependence_witness_is_checked_under_optimize():
    # python -O strips assert statements; the witness check must not be one
    res = subprocess.run([sys.executable, "-O", "-c", _WRONG_WITNESS], capture_output=True)
    assert res.returncode == 0, res.stderr.decode()
