"""Sparse polynomials, rational functions, and the shared text syntax."""

import functools
import operator
import random
import time
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hsderiv import poly, textform
from hsderiv.errors import ContextMismatch, DivisionByZero, ResourceGuard, UnknownVariable
from hsderiv.gf import FqContext
from hsderiv.poly import MultiPoly, RatFuncDomain, RationalFunc, term_key
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
from oracles import (
    ReferenceParser,
    digit_add,
    digit_inv,
    digit_mul,
    digit_neg,
    poly_of,
    random_scalar,
    trunc_of,
)


def _rand_poly(ctx, vars, rng, deg=3, nterms=5):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randrange(deg) for _ in vars)
        terms[e] = random_scalar(ctx, rng)
    return poly_of(ctx, vars, terms)


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
    # over GF(9) the coefficients keep their digits at g^1
    ctx = FqContext(3, 2)
    x = MultiPoly.var(ctx, vars, "x")
    y = MultiPoly.var(ctx, vars, "y")
    c = MultiPoly.const(ctx, vars, ctx.gen)
    f = c * x**2 * y + (c + 1) * x * y**3
    assert f.monomial_content() == (1, 1)
    assert f.shift_down((1, 1)) == c * x + (c + 1) * y**2


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
        return trunc_of(ring, terms(6)), lambda s: parse_trunc(ring, s)
    num = poly_of(ctx, vars, terms(6))
    if kind == "poly":
        return num, lambda s: parse_poly(ctx, vars, s)
    den = poly_of(ctx, vars, terms(3))
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
    f = parse_poly(ring.ctx, ring.vars, text)
    want = trunc_of(ring, {e: f.coeff(e) for e in f.terms})
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


_PARSE_FIELDS = {(p, d): FqContext(p, d) for p in (2, 3, 5) for d in (1, 2)}


@st.composite
def _parse_cases(draw):
    """(ctx, vars, ring or None, budget, text): sums of products of numbers,
    g, variables and parenthesised sums, with powers reaching past the
    ring's bounds (and far past, on a number, g or a variable); one in four
    texts has a character dropped or a stray token put in (an unknown
    variable, or g over a prime field, among them), and the guard budget is
    sometimes a few digits."""
    p, d = draw(st.sampled_from(sorted(_PARSE_FIELDS)))
    ctx = _PARSE_FIELDS[p, d]
    names = ("x1", "x2", "v1")
    ring = None
    if draw(st.booleans()):
        ring = TruncatedRing(ctx, [(names[:2], draw(st.integers(1, 4))),
                                   (names[2:], draw(st.integers(1, 9)))])
    power = st.integers(0, 9) | st.just(10**12)

    def expression(depth):
        out = draw(st.sampled_from(("", "-", "+")))
        for i in range(draw(st.integers(1, 3))):
            if i:
                out += draw(st.sampled_from((" + ", " - ", "-")))
            factors = []
            for _ in range(draw(st.integers(1, 4))):
                kind = draw(st.sampled_from(
                    ("num", "var", "var", "paren") + ("g",) * (d > 1)))
                if kind == "paren" and depth:
                    f = f"({expression(depth - 1)})"
                    if draw(st.booleans()):
                        f += f"^{draw(st.integers(0, 5))}"
                    factors.append(f)
                    continue
                if kind == "num":
                    f = str(draw(st.integers(0, 12) | st.just(10**20 + 1)))
                elif kind == "g":
                    f = "g"
                else:
                    f = draw(st.sampled_from(names))
                if draw(st.booleans()):
                    f += f"^{draw(power)}"
                factors.append(f)
            out += "*".join(factors)
        return out

    text = expression(2)
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()) and text:
            text = text[:at] + text[at + 1:]
        else:
            stray = draw(st.sampled_from(list("()^*+-/ 0x") + ["y", "g", "*g"]))
            text = text[:at] + stray + text[at:]
    budget = draw(st.sampled_from((textform.PARSE_PRODUCT_BUDGET, 2, 12)))
    return ctx, names, ring, budget, text


def _outcome(parse):
    try:
        f = parse()
    except Exception as exc:  # the types and messages are compared
        return type(exc), str(exc)
    return list(f.terms.items())


@settings(max_examples=300, deadline=None)
@given(_parse_cases())
def test_parser_matches_the_factor_by_factor_reference(case):
    ctx, names, ring, budget, text = case
    with mock.patch.object(textform, "PARSE_PRODUCT_BUDGET", budget):
        if ring is None:
            got = _outcome(lambda: parse_poly(ctx, names, text))
        else:
            got = _outcome(lambda: parse_trunc(ring, text))
        want = _outcome(lambda: ReferenceParser(ctx, names, text, ring).parse())
    assert got == want


def test_parser_monomial_products():
    ctx = FqContext(3, 2)
    names = ("x1", "x2")
    f = parse_poly(ctx, names, "2*x1^2*g*x2*x1*5^2")
    assert list(f.terms) == [(3, 1)]
    assert f == parse_poly(ctx, names, "2*g*25*x1^3*x2")
    assert not parse_poly(ctx, names, "x1*3*x2").terms
    assert parse_poly(ctx, names, "x1^0*0^0") == parse_poly(ctx, names, "1")
    ring = TruncatedRing(ctx, [(names, 3)])
    assert not parse_trunc(ring, "x1^2*x1").terms
    assert not parse_trunc(ring, "x1^1000000000000*(1 + x2)").terms
    # a product by a monomial keeps the polynomial's key order
    f = parse_poly(ctx, names, "x2*(x2 + x1 + 1)*x1")
    assert list(f.terms) == [(1, 2), (2, 1), (1, 1)]
    with mock.patch.object(textform, "PARSE_PRODUCT_BUDGET", 5):
        # 3 terms by 2 terms is 6 pairs; a monomial product is 2
        assert parse_poly(ctx, names, "x1*x2*(x1 + x2)*x2^7")
        with pytest.raises(ResourceGuard):
            parse_poly(ctx, names, "(x1 + x2 + 1)*(x1 + 1)")


# -- polynomial and rational arithmetic against the digit-tuple reference --

RAW_FIELDS = [(p, d) for p in (2, 3, 5, 7, 251, 65521) for d in (1, 2, 3, 4)]


@functools.lru_cache(maxsize=None)
def _field(p, d):
    return FqContext(p, d)


def _digits(f):
    return {e: f.ring.ctx.unpack(c) for e, c in f.terms.items()}


def _in_ring(bound, *fs):
    """The polynomials as they are (bound None), or truncated in x, y^<bound."""
    if bound is None:
        return fs
    ring = TruncatedRing(fs[0].ctx, [(("x", "y"), bound)])
    return tuple(TruncatedPoly(ring, f.terms) for f in fs)


def _ref_add(p, a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = digit_add(p, out[e], c) if e in out else c
    return {e: c for e, c in out.items() if any(c)}


def _ref_mul(p, f, a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            c = digit_mul(p, f, c1, c2)
            out[e] = digit_add(p, out[e], c) if e in out else c
    return {e: c for e, c in out.items() if any(c)}


def _ref_scale(p, f, a, c):
    return {e: digit_mul(p, f, v, c) for e, v in a.items()}


def _ref_normal(p, f, num, den):
    """(num, den) with den's last term in canonical order made one."""
    one = (1,) + (0,) * (len(f) - 2)
    if not num:
        return {}, {(0, 0): one}
    inv = digit_inv(p, f, den[max(den, key=term_key)])
    return _ref_scale(p, f, num, inv), _ref_scale(p, f, den, inv)


@st.composite
def _poly_pair(draw):
    p, d = draw(st.sampled_from(RAW_FIELDS))
    ctx = _field(p, d)
    digit = st.tuples(*[st.integers(0, p - 1)] * d)
    # up to 12 terms, so products fall on both sides of poly.PACKED_MIN_TERMS
    terms = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), digit,
                            max_size=12)
    f, g = (poly_of(ctx, ("x", "y"), draw(terms)) for _ in range(2))
    return ctx, f, g, draw(st.integers(0, 3))


# untruncated, in x, y^<3 (the factors lose terms) and in x, y^<5 (only
# products lose terms)
BOUNDS = st.sampled_from((None, 3, 5))


@settings(max_examples=150, deadline=None)
@given(_poly_pair(), BOUNDS)
def test_poly_arithmetic_matches_digit_reference(case, bound):
    ctx, f, g, n = case
    f, g = _in_ring(bound, f, g)

    def cut(terms):
        return {e: c for e, c in terms.items() if bound is None or max(e) < bound}

    p, mod = ctx.p, ctx.modulus
    a, b = _digits(f), _digits(g)
    neg_b = {e: digit_neg(p, c) for e, c in b.items()}
    assert _digits(f + g) == _ref_add(p, a, b)
    assert _digits(-g) == neg_b
    assert _digits(f - g) == _ref_add(p, a, neg_b)
    assert _digits(f * g) == cut(_ref_mul(p, mod, a, b))
    want = {(0, 0): (1,) + (0,) * (ctx.d - 1)}
    for _ in range(n):
        want = cut(_ref_mul(p, mod, want, a))
    assert _digits(f**n) == want


@settings(max_examples=150, deadline=None)
@given(_poly_pair(), BOUNDS)
def test_packed_product_gives_the_tuple_loop_terms_in_order(case, bound):
    ctx, f, g, _ = case
    f, g = _in_ring(bound, f, g)
    packed = poly.product(f, g)
    with mock.patch.object(poly, "PACKED_MIN_TERMS", float("inf")):
        plain = poly.product(f, g)
    assert list(packed.terms.items()) == list(plain.terms.items())


@settings(max_examples=150, deadline=None)
@given(_poly_pair())
def test_ratfunc_normalisation_and_inverse_match_digit_reference(case):
    ctx, f, g, _ = case
    if not g:
        g = MultiPoly.one(ctx, g.vars)
    p, mod = ctx.p, ctx.modulus
    r = RationalFunc(f, g)
    num, den = _ref_normal(p, mod, _digits(f), _digits(g))
    assert (_digits(r.num), _digits(r.den)) == (num, den)
    if not f:
        with pytest.raises(DivisionByZero):
            r.inverse()
        return
    inv = r.inverse()
    assert (_digits(inv.num), _digits(inv.den)) == _ref_normal(p, mod, den, num)
    assert r * inv == 1


@pytest.mark.parametrize("p,d", RAW_FIELDS)
def test_square_whose_terms_collect_hundreds_of_products(p, d):
    # c*(1 + x + ... + x^k) squared: the coefficient of x^j is n_j c^2 with
    # n_j = min(j, 2k - j) + 1 products, up to k + 1 = 201 > ctx.lazy (d > 1);
    # the same square in x^<301 runs the truncated product, cut at the bound
    ctx, k, bound = _field(p, d), 200, 301
    top = (p - 1,) * d
    terms = {(j,): top for j in range(k + 1)}
    f = poly_of(ctx, ("x",), terms)
    t = trunc_of(TruncatedRing(ctx, [(("x",), bound)]), terms)
    square = digit_mul(p, ctx.modulus, top, top)
    want = {}
    for j in range(2 * k + 1):
        c = tuple((min(j, 2 * k - j) + 1) * v % p for v in square)
        if any(c):
            want[(j,)] = c
    assert _digits(f * f) == want
    got = {e: ctx.unpack(c) for e, c in (t * t).terms.items()}
    assert got == {e: c for e, c in want.items() if e[0] < bound}


# -- the product kernel's shortcuts against product_terms and the normalising
# constructor --

KERNEL_FIELDS = [(2, 1), (5, 1), (2, 2), (3, 2)]  # GF(2), GF(5), GF(4), GF(9)


def _kernel_poly(draw, ctx, nonzero=False):
    """Zero, one, a single term (coefficient one or not, constant or not) or
    2-12 terms in x, y."""
    vars = ("x", "y")
    kinds = ("one", "single", "many") if nonzero else ("zero", "one", "single", "many")
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return MultiPoly.zero(ctx, vars)
    if kind == "one":
        return MultiPoly.one(ctx, vars)
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
    digit = st.tuples(*[st.integers(0, ctx.p - 1)] * ctx.d).filter(any)
    if kind == "single":
        coeff = st.just((1,) + (0,) * (ctx.d - 1)) | digit
        return poly_of(ctx, vars, {draw(exps): draw(coeff)})
    return poly_of(ctx, vars, draw(st.dictionaries(exps, digit, min_size=2, max_size=12)))


@st.composite
def _kernel_pair(draw):
    ctx = _field(*draw(st.sampled_from(KERNEL_FIELDS)))
    return ctx, _kernel_poly(draw, ctx), _kernel_poly(draw, ctx)


@settings(max_examples=300, deadline=None)
@given(_kernel_pair(), BOUNDS)
def test_product_gives_the_product_terms_in_order(case, bound):
    # a MultiPoly product keeps its own terms outermost, a truncated one the
    # sparser factor's (the left one on a tie)
    ctx, f, g = case
    f, g = _in_ring(bound, f, g)
    for a, b in ((f, g), (g, f)):
        if bound is not None and len(b.terms) < len(a.terms):
            a, b = b, a
        want = poly.product_terms(a.terms, b.terms, ctx.reduce, ctx.lazy, a.ring.filter)
        assert list((a * b).terms.items()) == list(want.items())


def test_kv_product_by_an_unreduced_one_keeps_the_pairs():
    # x/x is one in K = F_3(x) but not as held: a product by it in K[v]
    # scales every (num, den) pair, as product_terms does
    ctx = FqContext(3, 1)
    dom = RatFuncDomain(ctx, ("x",))
    ring = TruncatedRing(ctx, [(("v",), 3)], dom)
    x, one = MultiPoly.var(ctx, ("x",), "x"), MultiPoly.one(ctx, ("x",))
    f = ring.const(1 + x) + ring.var("v") * RationalFunc(one, x + 2)
    u = ring.const(RationalFunc(x, x))
    for a, b in ((u, f), (f, u)):
        got = a * b
        assert format_trunc(got) == "(x + x^2) / (x) + ((x) / (2*x + x^2))*v"
        want = poly.product_terms(u.terms, f.terms, dom.reduce, dom.lazy, ring.bounds)
        assert ([(e, _pair_of(c)) for e, c in got.terms.items()]
                == [(e, _pair_of(c)) for e, c in want.items()])
    # a one held as 1/1 returns the other factor
    assert ring.one * f is f and f * ring.one is f


def test_one_coercion_and_equality_rule():
    ctx, other = FqContext(5), FqContext(7)
    x = MultiPoly.var(ctx, ("x",), "x")
    v = TruncatedRing(ctx, [(("v",), 3)]).var("v")
    r = RationalFunc.from_poly(x)
    assert x == r and r == x
    assert x != RationalFunc.from_poly(x + 1) and RationalFunc.from_poly(x + 1) != x
    for f in (x, v):
        # a field element of another field is no element of the ring
        assert (f == other.scalar(1)) is False and (f.ring.one == other.scalar(1)) is False
        with pytest.raises(ContextMismatch):
            f + other.scalar(1)
        assert f.ring.one == 1 and f.ring.one == ctx.scalar(6)
        for bad in ("a", 1.5, None):
            for op in (operator.add, operator.sub, operator.mul):
                with pytest.raises(TypeError):
                    op(f, bad)
                with pytest.raises(TypeError):
                    op(bad, f)
            assert f != bad
    with pytest.raises(ContextMismatch):
        x + v
    assert x != v and v != x
    # a polynomial is a constant of K[v]: either side takes it
    kv = TruncatedRing(ctx, [(("v",), 3)], RatFuncDomain(ctx, ("x",))).var("v")
    assert x * kv == kv * x and x + kv == kv + x and x - kv == -(kv - x)
    assert kv.ring.const(x) == x and x == kv.ring.const(x)
    with pytest.raises(UnknownVariable):
        MultiPoly.var(ctx, ("x",), "y")
    with pytest.raises(UnknownVariable):
        v.ring.var("y")


def _pair_of(r):
    return list(r.num.terms.items()), list(r.den.terms.items())


@st.composite
def _ratfunc_pair(draw):
    ctx = _field(*draw(st.sampled_from(KERNEL_FIELDS)))
    return ctx, *(RationalFunc(_kernel_poly(draw, ctx), _kernel_poly(draw, ctx, nonzero=True))
                  for _ in range(2))


@settings(max_examples=300, deadline=None)
@given(_ratfunc_pair())
def test_ratfunc_arithmetic_matches_the_normalising_constructor(case):
    # sums, differences and products skip the leading-term search and
    # return the other operand of a sum with zero; the normalising
    # constructor applied to the same raw products gives the same pairs
    ctx, a, b = case
    neg = RationalFunc(-b.num, b.den)
    want = [
        (a + b, RationalFunc(a.num * b.den + b.num * a.den, a.den * b.den)),
        (b + a, RationalFunc(b.num * a.den + a.num * b.den, b.den * a.den)),
        (a - b, RationalFunc(a.num * neg.den + neg.num * a.den, a.den * neg.den)),
        (-b, neg),
        (a * b, RationalFunc(a.num * b.num, a.den * b.den)),
    ]
    if b:
        inv = RationalFunc(b.den, b.num)
        want.append((a / b, RationalFunc(a.num * inv.num, a.den * inv.den)))
    for got, ref in want:
        assert _pair_of(got) == _pair_of(ref)
        den = got.den.terms
        assert den[max(den, key=term_key)] == 1
        if not got.num:
            assert got.den == 1
