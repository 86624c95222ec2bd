"""Sparse polynomials, rational functions, and the shared text syntax."""

import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hsderiv.errors import DivisionByZero, UnknownVariable
from hsderiv.gf import FqContext
from hsderiv.poly import MultiPoly, RationalFunc, term_key
from hsderiv.textform import (
    format_poly,
    format_ratfunc,
    format_scalar,
    format_trunc,
    parse_poly,
    parse_ratfunc,
    parse_scalar,
    parse_trunc,
)
from hsderiv.truncated import TruncatedPoly, TruncatedRing
from oracles import random_scalar


def _rand_poly(ctx, vars, rng, deg=3, nterms=5):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randrange(deg) for _ in vars)
        terms[e] = random_scalar(ctx, rng)
    return MultiPoly(ctx, vars, terms)


def test_term_order_is_degree_then_first_variable_heavy():
    assert term_key((1, 0)) < term_key((0, 1))
    assert term_key((2, 0)) < term_key((1, 1)) < term_key((0, 2))
    assert term_key((0, 0)) < term_key((1, 0))


def test_square_of_sum():
    ctx = FqContext(3, 1)
    vars = ("x", "y")
    x = MultiPoly.var(ctx, vars, "x")
    y = MultiPoly.var(ctx, vars, "y")
    f = (x + y) ** 2
    assert f == x**2 + 2 * x * y + y**2
    # char 3 kills the cross term at cube
    assert (x + y) ** 3 == x**3 + y**3


def test_format_poly_canonical_order():
    ctx = FqContext(2, 1)
    vars = ("v1", "w1")
    v = MultiPoly.var(ctx, vars, "v1")
    w = MultiPoly.var(ctx, vars, "w1")
    assert format_poly(v + w + v * w) == "v1 + w1 + v1*w1"
    assert format_poly(MultiPoly.zero(ctx, vars)) == "0"
    ctx3 = FqContext(3, 1)
    x = MultiPoly.var(ctx3, ("x", "y"), "x")
    y = MultiPoly.var(ctx3, ("x", "y"), "y")
    assert format_poly(x * y**2 + x**2 * y) == "x^2*y + x*y^2"


def test_parse_poly_round_trip_random():
    rng = random.Random(2024)
    for p, d in ((2, 1), (3, 1), (3, 2)):
        ctx = FqContext(p, d)
        vars = ("x1", "x2", "v1")
        for _ in range(25):
            f = _rand_poly(ctx, vars, rng)
            assert parse_poly(ctx, vars, format_poly(f)) == f


def test_parse_poly_syntax_features():
    ctx = FqContext(5, 1)
    vars = ("x1", "x2")
    f = parse_poly(ctx, vars, "3*x1^2*x2 + x2 - 2")
    x1 = MultiPoly.var(ctx, vars, "x1")
    x2 = MultiPoly.var(ctx, vars, "x2")
    assert f == 3 * x1**2 * x2 + x2 - 2
    assert parse_poly(ctx, vars, "-x1 + (x1 + 1)^2") == x1**2 + x1 + 1
    with pytest.raises(UnknownVariable):
        parse_poly(ctx, vars, "x3 + 1")
    with pytest.raises(UnknownVariable):
        parse_poly(ctx, vars, "g*x1")
    with pytest.raises(ValueError):
        parse_poly(ctx, vars, "x1 +")


def test_scalar_format_and_parse_extension_field():
    ctx = FqContext(3, 2)
    g = ctx.gen
    s = 2 * g + 1
    assert format_scalar(s) == "2*g + 1"
    assert parse_scalar(ctx, "2*g + 1") == s
    assert parse_scalar(ctx, "g^2") == g**2
    assert parse_scalar(ctx, 4) == ctx.scalar(1)
    rng = random.Random(5)
    for _ in range(20):
        a = random_scalar(ctx, rng)
        assert parse_scalar(ctx, format_scalar(a)) == a


def test_extension_coefficients_round_trip_in_polynomials():
    ctx = FqContext(2, 2)
    vars = ("x1",)
    g = ctx.gen
    x = MultiPoly.var(ctx, vars, "x1")
    f = MultiPoly.const(ctx, vars, g + 1) * x**2 + MultiPoly.const(ctx, vars, g) * x
    text = format_poly(f)
    assert parse_poly(ctx, vars, text) == f


def test_monomial_content_and_shift():
    ctx = FqContext(3, 1)
    vars = ("x", "y")
    x = MultiPoly.var(ctx, vars, "x")
    y = MultiPoly.var(ctx, vars, "y")
    f = x**2 * y + 2 * x * y**2
    assert f.monomial_content() == (1, 1)
    g = f.shift_down((1, 1))
    assert g == x + 2 * y


def test_ratfunc_normalization_and_equality():
    ctx = FqContext(5, 1)
    vars = ("x",)
    x = MultiPoly.var(ctx, vars, "x")
    one = MultiPoly.one(ctx, vars)
    r = RationalFunc(one, 2 * x)
    # denominator normalized monic
    assert r.den == x
    assert r.num == 3 * one  # 1/2 = 3 mod 5
    assert RationalFunc(one, x) == RationalFunc(x, x**2)
    assert RationalFunc(MultiPoly.zero(ctx, vars), x).den == one
    with pytest.raises(DivisionByZero):
        RationalFunc(one, MultiPoly.zero(ctx, vars))
    with pytest.raises(DivisionByZero):
        RationalFunc(MultiPoly.zero(ctx, vars), one).inverse()


def test_ratfunc_arithmetic():
    ctx = FqContext(3, 1)
    vars = ("x",)
    x = RationalFunc.from_poly(MultiPoly.var(ctx, vars, "x"))
    inv = 1 / x
    assert x * inv == 1
    assert (x + inv) * x == x**2 + 1
    assert x - x == 0
    assert (x**-2) * x**2 == 1
    assert bool(x) and not bool(x - x)


def test_ratfunc_format_parse_round_trip():
    ctx = FqContext(3, 1)
    vars = ("x1", "x2")
    rng = random.Random(31)
    for _ in range(20):
        num = _rand_poly(ctx, vars, rng, nterms=3)
        den = _rand_poly(ctx, vars, rng, nterms=2)
        if not den:
            continue
        r = RationalFunc(num, den)
        assert parse_ratfunc(ctx, vars, format_ratfunc(r)) == r
    assert format_ratfunc(RationalFunc.from_poly(MultiPoly.one(ctx, vars))) == "1"


_RT_CTX = {(p, d): FqContext(p, d) for p in (2, 3, 5) for d in (1, 2)}


@st.composite
def _printed_values(draw):
    """(value, parse): a MultiPoly, TruncatedPoly or RationalFunc over
    GF(p^d), d in {1, 2}, with the parser that reads its printed form."""
    p, d = draw(st.sampled_from(sorted(_RT_CTX)))
    ctx = _RT_CTX[p, d]
    kind = draw(st.sampled_from(("poly", "trunc", "ratfunc")))
    if kind == "trunc":
        ring = TruncatedRing(ctx, [(("x1", "x2"), p), (("v1",), p * p)])
        vars, top = ring.vars, p * p
    else:
        vars, top = ("x1", "x2", "y")[: draw(st.integers(1, 3))], 5

    def terms(most):
        out = {}
        for _ in range(draw(st.integers(0, most))):
            exps = tuple(draw(st.integers(0, top - 1)) for _ in vars)
            out[exps] = ctx.scalar(tuple(draw(st.integers(0, p - 1)) for _ in range(d)))
        return out

    if kind == "trunc":
        return TruncatedPoly(ring, terms(6)), lambda s: parse_trunc(ring, s)
    num = MultiPoly(ctx, vars, terms(6))
    if kind == "poly":
        return num, lambda s: parse_poly(ctx, vars, s)
    den = MultiPoly(ctx, vars, terms(3))
    if not den:
        den = MultiPoly.one(ctx, vars)
    return RationalFunc(num, den), lambda s: parse_ratfunc(ctx, vars, s)


def _format(f) -> str:
    if isinstance(f, TruncatedPoly):
        return format_trunc(f)
    if isinstance(f, RationalFunc):
        return format_ratfunc(f)
    return format_poly(f)


@given(_printed_values())
def test_format_parse_round_trip(case):
    f, parse = case
    text = _format(f)
    g = parse(text)
    assert g == f
    assert _format(g) == text


_TRUNC_CTX = {(p, d): FqContext(p, d) for p, d in ((2, 1), (3, 1), (2, 2), (3, 2))}


@st.composite
def _trunc_texts(draw):
    """(ring, text): sums of products of powers over a truncated ring, the
    powers reaching past its bounds; g appears over GF(4) and GF(9)."""
    p, d = draw(st.sampled_from(sorted(_TRUNC_CTX)))
    ring = TruncatedRing(_TRUNC_CTX[p, d], [(("x1", "x2"), p), (("v1",), p * p)])
    atoms = st.sampled_from(list(ring.vars) + ["1", str(p + 1)] + ["g"] * (d > 1))

    def factor():
        base = " + ".join(draw(st.lists(atoms, min_size=1, max_size=2)))
        return f"({base})^{draw(st.integers(0, p * p + p))}"

    def term():
        return "*".join(factor() for _ in range(draw(st.integers(1, 2))))

    text = term()
    for _ in range(draw(st.integers(0, 2))):
        text += draw(st.sampled_from((" + ", " - "))) + term()
    return ring, text


@given(_trunc_texts())
def test_parse_trunc_is_the_truncated_parse_poly(case):
    ring, text = case
    want = TruncatedPoly(ring, parse_poly(ring.ctx, ring.vars, text).terms)
    assert parse_trunc(ring, text) == want


def test_parse_trunc_truncates_as_it_goes():
    # 16806 has every base-7 digit 6: the untruncated power has about 17M
    # terms, but x^7 = 0 leaves only (x1 + x2 + 1)^6, 28 terms
    ring = TruncatedRing(FqContext(7, 1), [(("x1", "x2"), 7)])
    start = time.perf_counter()
    f = parse_trunc(ring, "(x1 + x2 + 1)^16806")
    assert time.perf_counter() - start < 1.0
    assert f == parse_trunc(ring, "(x1 + x2 + 1)^6")
    assert len(f.terms) == 28
