"""Truncated block rings: quotient arithmetic, substitution, units, parsing."""

import random

import pytest

from hsderiv import truncated
from hsderiv.artinian import ArtinianModel
from hsderiv.errors import (
    NonNilpotentImage,
    NotAUnit,
    ResourceGuard,
    UnknownVariable,
)
from hsderiv.gf import FqContext
from hsderiv.poly import MultiPoly, RatFuncDomain
from hsderiv.truncated import (
    TruncatedPoly,
    TruncatedRing,
    convert,
    invert_unit,
    substitute,
)
from hsderiv.textform import format_trunc, parse_trunc
from oracles import all_raw, random_scalar, trunc_of


def _ring(p, d, blocks):
    return TruncatedRing(FqContext(p, d), blocks)


def _rand_elem(ring, rng, nterms=5, zero_const=False):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randrange(b) for b in ring.bounds)
        if zero_const and not any(e):
            continue
        terms[e] = random_scalar(ring.ctx, rng)
    return trunc_of(ring, terms)


def test_truncation_drops_overflow():
    r = _ring(2, 1, [(("v",), 2)])
    v = r.var("v")
    assert v * v == r.zero
    assert (1 + v) * (1 + v) == r.one
    r2 = _ring(3, 1, [(("v",), 3)])
    v2 = r2.var("v")
    assert v2**2 != r2.zero
    assert v2**3 == r2.zero


def test_ring_validation():
    with pytest.raises(ValueError):
        _ring(2, 1, [(("v", "v"), 2)])
    with pytest.raises(ValueError):
        _ring(2, 1, [(("v",), 0)])
    r = _ring(2, 1, [(("v",), 2)])
    with pytest.raises(UnknownVariable):
        r.var("w")


def test_substitute_is_square_sum_in_char_two():
    r = _ring(2, 1, [(("v",), 4)])
    target = _ring(2, 1, [(("v",), 4), (("w",), 4)])
    f = r.var("v") ** 2
    img = target.var("v") + target.var("w")
    out = substitute(f, {"v": img}, target)
    assert out == target.var("v") ** 2 + target.var("w") ** 2


def test_substitute_checks():
    r = _ring(2, 1, [(("v",), 4)])
    target = r
    with pytest.raises(NonNilpotentImage):
        substitute(r.var("v"), {"v": r.one + r.var("v")}, target)
    with pytest.raises(UnknownVariable):
        substitute(r.var("v"), {}, target)


def test_substitute_refuses_an_image_alive_at_the_source_bound():
    # x^2 = 0 in the source but y^2 != 0 in the target: no ring map
    source = _ring(3, 1, [(("x",), 2)])
    target = _ring(3, 1, [(("y",), 4)])
    x, y = source.var("x"), target.var("y")
    with pytest.raises(NonNilpotentImage):
        substitute(x * x, {"x": y}, target)
    # y^2 squares to zero, so x -> y^2 is a ring map
    assert substitute(x + x * x, {"x": y * y}, target) == y * y
    # a p-power source bound at least every target bound needs no check
    big = _ring(3, 1, [(("x",), 9)])
    assert substitute(big.var("x") ** 8, {"x": y}, target) == target.zero


def test_substitute_is_a_ring_hom_random():
    rng = random.Random(4242)
    for p in (2, 3):
        src = _ring(p, 1, [(("v1", "v2"), p**2)])
        target = _ring(p, 1, [(("v1", "v2"), p**2), (("w1",), p**2)])
        for _ in range(10):
            images = {
                "v1": _rand_elem(target, rng, zero_const=True),
                "v2": _rand_elem(target, rng, zero_const=True),
            }
            f = _rand_elem(src, rng)
            g = _rand_elem(src, rng)
            sf = substitute(f, images, target)
            sg = substitute(g, images, target)
            assert substitute(f + g, images, target) == sf + sg
            assert substitute(f * g, images, target) == sf * sg
            assert all(map(all_raw, (sf, sg, sf + sg, sf * sg, -sf)))


def test_nilpotents_vanish_at_q_power():
    rng = random.Random(77)
    for p, m, e in ((2, 2, 1), (3, 1, 2), (2, 1, 2)):
        names = tuple(f"v{i+1}" for i in range(e))
        r = _ring(p, 1, [(names, p**m)])
        for _ in range(5):
            f = _rand_elem(r, rng, zero_const=True)
            assert f ** (p**m) == r.zero


def test_invert_unit_known_values():
    r2 = _ring(2, 1, [(("v",), 2)])
    v = r2.var("v")
    assert invert_unit(r2.one + v) == r2.one + v
    r3 = _ring(3, 1, [(("v",), 3)])
    v3 = r3.var("v")
    assert invert_unit(r3.one + v3) == r3.one + 2 * v3 + v3**2
    with pytest.raises(NotAUnit):
        invert_unit(v3)


def test_invert_unit_guards_its_series_over_rational_coefficients(monkeypatch):
    # 1 / (1 + v/(x + 1)) in F_3(x)[v]/(v^3): the series is 1 + 2v/(1 + x)
    # + v^2/(1 + 2x + x^2); with the partial sum it holds 5 polynomial terms
    # before the v term is added and 9 before the v^2 term; the nilpotent
    # part -v/(x + 1) holds 3, so the products that make the v^2 and v^3
    # terms count 3*3 = 9 and 4*3 = 12
    dom = RatFuncDomain(FqContext(3, 1), ("x",))
    r = TruncatedRing(dom.ctx, [(("v",), 3)], dom)
    x = dom.coerce(MultiPoly.var(dom.ctx, ("x",), "x"))
    f = r.one + r.var("v").scale(dom.one / (x + dom.one))
    assert f * invert_unit(f) == r.one
    monkeypatch.setattr(truncated, "SERIES_BUDGET", 9)
    assert f * invert_unit(f) == r.one
    monkeypatch.setattr(truncated, "SERIES_BUDGET", 8)
    with pytest.raises(ResourceGuard, match="inverse series holds 9 terms, past the budget of 8"):
        invert_unit(f)
    monkeypatch.setattr(truncated, "SERIES_BUDGET", 9)
    monkeypatch.setattr(truncated, "SERIES_PRODUCT_BUDGET", 12)
    assert f * invert_unit(f) == r.one
    monkeypatch.setattr(truncated, "SERIES_PRODUCT_BUDGET", 11)
    with pytest.raises(ResourceGuard,
                       match="inverse series term would take 12 products, past the budget of 11"):
        invert_unit(f)
    # field values count nothing, whatever the budgets
    monkeypatch.setattr(truncated, "SERIES_BUDGET", 0)
    monkeypatch.setattr(truncated, "SERIES_PRODUCT_BUDGET", 0)
    r3 = _ring(3, 1, [(("v",), 3)])
    assert invert_unit(r3.one + r3.var("v")) == r3.one + 2 * r3.var("v") + r3.var("v") ** 2


def test_invert_unit_round_trip_random():
    rng = random.Random(909)
    for p, d in ((2, 1), (3, 1), (5, 1), (2, 2), (3, 2)):
        for m in (1, 2):
            for e in (1, 2):
                names = tuple(f"v{i+1}" for i in range(e))
                r = _ring(p, d, [(names, p**m)])
                for _ in range(6):
                    f = _rand_elem(r, rng)
                    if not f.constant_term():
                        f = f + r.one
                    inv = invert_unit(f)
                    assert f * inv == r.one
                    assert all_raw(inv)


def test_invert_unit_with_g_valued_coefficients():
    # the constant's inverse is a raw value that scale must not read as an
    # integer mod p: read so, the nilpotent part keeps a constant term and
    # the geometric series never ends
    r = _ring(2, 2, [(("x",), 4)])
    f = parse_trunc(r, "g + x")
    inv = invert_unit(f)
    assert inv == parse_trunc(r, "g + 1 + g*x + x^2 + (g + 1)*x^3")
    assert format_trunc(inv) == "g + 1 + g*x + x^2 + (g + 1)*x^3"
    assert f * inv == r.one
    assert all_raw(inv)


def test_coordinate_vectors_round_trip_g_valued_coefficients():
    model = ArtinianModel(FqContext(3, 2), 2, 1)
    ctx = model.ctx
    f = parse_trunc(model.ring, "g + (2*g + 1)*x1 + 2*g*x1*x2^2 + x2^2")
    vec = model.vec_from_poly(f)
    assert tuple(vec[model.xidx.rank[(0, 0)]]) == (0, 1)
    assert tuple(vec[model.xidx.rank[(1, 0)]]) == (1, 2)
    assert tuple(vec[model.xidx.rank[(1, 2)]]) == (0, 2)
    assert tuple(vec[model.xidx.rank[(0, 2)]]) == (1, 0)
    back = model.poly_from_vec(vec)
    assert back == f and all_raw(back)
    assert {e: ctx.unpack(c) for e, c in back.terms.items()} == {
        (0, 0): (0, 1), (1, 0): (1, 2), (1, 2): (0, 2), (0, 2): (1, 0)}


def test_convert_between_rings():
    small = _ring(2, 1, [(("x1",), 2)])
    big = _ring(2, 1, [(("x1",), 4), (("v1",), 4)])
    f = small.one + small.var("x1")
    g = convert(f, big)
    assert g == big.one + big.var("x1")
    # converting back drops nothing here, but overflow terms drop
    h = big.var("x1") ** 3
    back = convert(h, _ring(2, 1, [(("x1",), 2), (("v1",), 2)]))
    assert back.is_zero()


def test_trunc_format_parse_round_trip():
    rng = random.Random(321)
    for p, d in ((2, 1), (3, 2)):
        r = TruncatedRing(FqContext(p, d), [(("x1", "x2"), p**2), (("v1",), p**2)])
        for _ in range(15):
            f = _rand_elem(r, rng)
            assert parse_trunc(r, format_trunc(f)) == f
            assert all_raw(parse_trunc(r, format_trunc(f)))
    assert format_trunc(r.zero) == "0"
