"""One evaluation routine: properties against a naive reference, and golden
pins of the outputs that go through it (coordinate targets and wronskian
witnesses)."""

import functools
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsderiv.artinian import ArtinianModel
from hsderiv.basis import assemble_product_basis, verify_canonical_basis
from hsderiv.cli import render_report, run
from hsderiv.derivation import canonical_derivation, twist_by_automorphism
from hsderiv.errors import NonNilpotentImage
from hsderiv.fieldmodel import FieldDerivationContext
from hsderiv.gf import FqContext, FqScalar
from hsderiv.grouplaw import make_additive, make_multiplicative, make_witt2, product_law
from hsderiv.poly import MultiPoly, RationalFunc
from hsderiv.textform import format_ratfunc, format_trunc, parse_trunc
from hsderiv.truncated import (
    PowerLadder,
    TruncatedRing,
    evaluate,
    invert_unit,
    substitute,
)
from oracles import all_raw, field_generator_images, nested_field_apply, poly_of, trunc_of


def _reference(terms, images, target):
    """Term-by-term evaluation with fresh power ladders and `out = out + term`;
    the coefficients of terms are public field elements (FqScalar)."""
    powers = [[target.one, im] for im in images]

    def power(i, n):
        lad = powers[i]
        while len(lad) <= n:
            lad.append(lad[-1] * lad[1])
        return lad[n]

    out = target.zero
    for e, c in terms.items():
        term = target.const(c)
        for i, x in enumerate(e):
            if x:
                term = term * power(i, x)
        out = out + term
    return out


def _same(a, b):
    """Equal with the same key order and the same printed coefficients."""
    return list(a.terms) == list(b.terms) and format_trunc(a) == format_trunc(b)


def _scalars(f):
    """f's stored raw values as FqScalar views."""
    return {e: FqScalar(f.ring.ctx, c) for e, c in f.terms.items()}


FIELDS = st.sampled_from([(p, d) for p in (2, 3, 5) for d in (1, 2)])


@st.composite
def _element(draw, ring, zero_const=False, max_terms=5):
    ctx = ring.ctx
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = tuple(draw(st.integers(0, b - 1)) for b in ring.bounds)
        if zero_const and not any(e):
            continue
        terms[e] = ctx.scalar(tuple(draw(st.integers(0, ctx.p - 1)) for _ in range(ctx.d)))
    return trunc_of(ring, terms)


@st.composite
def _rings(draw):
    """(source, target): 1-3 source variables, 1-2 target variables, any
    bounds up to 5, so an image may or may not vanish at its source bound."""
    ctx = FqContext(*draw(FIELDS))
    k = draw(st.integers(1, 2))
    ys = tuple(f"y{i}" for i in range(k))
    target = TruncatedRing(ctx, [(ys, draw(st.integers(2, 5)))])
    xs = tuple(f"x{i}" for i in range(draw(st.integers(1, 3))))
    source = TruncatedRing(ctx, [(xs, draw(st.integers(1, 5)))])
    return source, target


@settings(max_examples=60)
@given(st.data())
def test_evaluate_matches_reference(data):
    source, target = data.draw(_rings())
    f = data.draw(_element(source, max_terms=8))
    # images may carry constant terms: plain evaluation allows them
    images = [data.draw(_element(target)) for _ in source.vars]
    ladders = [PowerLadder(v, im) for v, im in zip(source.vars, images)]
    got = evaluate(f.terms, ladders, target)
    assert _same(got, _reference(_scalars(f), images, target))
    assert all_raw(got)
    # a kept ladder gives the same answer again
    assert _same(evaluate(f.terms, ladders, target), got)


@settings(max_examples=60)
@given(st.data())
def test_substitute_is_a_ring_map(data):
    # a ring map when every image vanishes at its source bound, else refused
    source, target = data.draw(_rings())
    images = {v: data.draw(_element(target, zero_const=True)) for v in source.vars}
    f = data.draw(_element(source))
    g = data.draw(_element(source))
    if any(images[v] ** b for v, b in zip(source.vars, source.bounds)):
        with pytest.raises(NonNilpotentImage):
            substitute(f, images, target)
        return
    sub = lambda h: substitute(h, images, target)  # noqa: E731
    assert _same(sub(f), _reference(_scalars(f), list(images.values()), target))
    assert sub(f + g) == sub(f) + sub(g)
    assert sub(f * g) == sub(f) * sub(g)
    assert sub(source.one) == target.one
    for h in (sub(f), sub(f + g), sub(f * g), f - g, -f):
        assert all_raw(h)


_LAWS = {
    "additive1": lambda ctx, m=1: make_additive(ctx, 1, m),
    "additive2": lambda ctx, m=1: make_additive(ctx, 2, m),
    "multiplicative": lambda ctx, m=1: make_multiplicative(ctx, m),
    "witt2": lambda ctx, m=1: make_witt2(ctx, m, [1] * m),
}


@st.composite
def _multipoly(draw, ctx, vars, nonzero=False):
    terms = {}
    for _ in range(draw(st.integers(1 if nonzero else 0, 3))):
        e = tuple(draw(st.integers(0, 2)) for _ in vars)
        terms[e] = ctx.scalar(tuple(draw(st.integers(0, ctx.p - 1)) for _ in range(ctx.d)))
    f = poly_of(ctx, vars, terms)
    if nonzero and not f:
        f = MultiPoly.one(ctx, vars)
    return f


@settings(max_examples=40)
@given(st.data())
def test_field_apply_matches_reference(data):
    ctx = FqContext(*data.draw(FIELDS))
    law = _LAWS[data.draw(st.sampled_from(sorted(_LAWS)))](ctx)
    fctx = FieldDerivationContext(law)
    num = data.draw(_multipoly(ctx, fctx.xvars))
    den = data.draw(_multipoly(ctx, fctx.xvars, nonzero=True))
    images = field_generator_images(fctx)
    want = _reference({e: num.coeff(e) for e in num.terms}, images, fctx.ring)
    if den != MultiPoly.one(ctx, fctx.xvars):
        want = want * invert_unit(
            _reference({e: den.coeff(e) for e in den.terms}, images, fctx.ring))
    got = fctx.apply(RationalFunc(num, den))
    assert list(got.terms) == list(want.terms)
    assert [format_ratfunc(c) for c in got.terms.values()] == \
        [format_ratfunc(c) for c in want.terms.values()]


@functools.lru_cache(maxsize=None)
def _apply_context(p, d, name, m):
    return FieldDerivationContext(_LAWS[name](FqContext(p, d), m))


@st.composite
def _raw_poly(draw, ctx, vars, max_terms, top):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = tuple(draw(st.integers(0, top)) for _ in vars)
        terms[e] = tuple(draw(st.integers(0, ctx.p - 1)) for _ in range(ctx.d))
    return poly_of(ctx, vars, terms)


@settings(max_examples=80)
@given(st.data())
def test_field_apply_matches_nested_evaluation(data):
    # the flat evaluation lifted into K[v] against the term-by-term
    # evaluation with rational-function coefficients: the same v-keys in
    # the same order, and the same (num, den) pair in every coefficient
    p, d = data.draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]))
    fctx = _apply_context(p, d, data.draw(st.sampled_from(sorted(_LAWS))),
                          data.draw(st.integers(1, 2)))
    ctx, xvars = fctx.ctx, fctx.xvars
    num = data.draw(_raw_poly(ctx, xvars, 8, data.draw(st.sampled_from([3, fctx.n + p]))))
    den = MultiPoly.one(ctx, xvars)
    # the inverse of a denominator costs a geometric series in K[v]; keep
    # denominators to rings of at most 9 v-monomials
    if fctx.n**fctx.e <= 9:
        den = den + data.draw(_raw_poly(ctx, xvars, 3, 2))
    if not den:
        den = MultiPoly.one(ctx, xvars)
    f = RationalFunc(num, den)
    got, want = fctx.apply(f), nested_field_apply(fctx, f)
    assert list(got.terms) == list(want.terms)
    for k, c in want.terms.items():
        assert got.terms[k].num.terms == c.num.terms
        assert got.terms[k].den.terms == c.den.terms
    assert all(all_raw(c.num) and all_raw(c.den) for c in got.terms.values())


@pytest.mark.parametrize("terms", [
    {(1, 0): 1, (2, 0): 1},
    {(0, 1): 1, (1, 0): 1, (2, 0): 1},
    {(1, 1): 1, (2, 1): 1, (3, 0): 1},
])
def test_field_apply_drops_a_v_exponent_whose_terms_cancel(terms):
    # under the p = 2 Witt law of depth 2, a partial sum of these terms
    # cancels a whole v-exponent, which must leave and re-enter the key order
    # as it does in the term-by-term evaluation
    fctx = _apply_context(2, 1, "witt2", 2)
    f = RationalFunc.from_poly(MultiPoly(fctx.ctx, fctx.xvars, terms))
    got, want = fctx.apply(f), nested_field_apply(fctx, f)
    assert list(got.terms) == list(want.terms)
    assert all(got.terms[k].num.terms == c.num.terms for k, c in want.terms.items())


# -- golden pins: sha256 of every format_trunc(expected) row of
# verify_canonical_basis on the found coordinates, one digest per case

_F2, _F3 = FqContext(2, 1), FqContext(3, 1)
_SWEEP = {
    "witt2-p2-m1": lambda: make_witt2(_F2, 1, [1]),
    "witt2-p2-m2": lambda: make_witt2(_F2, 2, [1, 1]),
    "witt2-p3-m1": lambda: make_witt2(_F3, 1, [1]),
    "witt2-p3-m2": lambda: make_witt2(_F3, 2, [1, 2]),
    "witt2-p2-m3": lambda: make_witt2(_F2, 3, [1, 0, 1]),
    "additive2-p2-m2": lambda: make_additive(_F2, 2, 2),
    "additive2-p3-m1": lambda: make_additive(_F3, 2, 1),
    "mult-p2-m2": lambda: make_multiplicative(_F2, 2),
    "mult-p3-m2": lambda: make_multiplicative(_F3, 2),
    "addxmult-p2-m2": lambda: product_law(make_additive(_F2, 1, 2),
                                          make_multiplicative(_F2, 2)),
    "addxmult-p3-m1": lambda: product_law(make_additive(_F3, 1, 1),
                                          make_multiplicative(_F3, 1)),
    "witt2xmult-p2-m1": lambda: product_law(make_witt2(_F2, 1, [1]),
                                            make_multiplicative(_F2, 1)),
    "witt2xmult-p2-m2": lambda: product_law(make_witt2(_F2, 2, [1, 1]),
                                            make_multiplicative(_F2, 2)),
}

# the twist applied in the "twisted" cases, by p and law dimension
_PHI = {
    (2, 1): ["x1 + x1^2 + x1^3"],
    (2, 2): ["x1 + x2^2 + x1*x2", "x2 + x1^2"],
    (2, 3): ["x1 + x2^2", "x2 + x3^2 + x1*x3", "x3 + x1^2"],
    (3, 1): ["x1 + 2*x1^2 + x1^3"],
    (3, 2): ["x1 + 2*x2^2 + x1*x2", "2*x2 + x1^2"],
}

EXPECTED_ROWS_SHA256 = {
    ("witt2-p2-m1", "canonical"): "49623b044b6708ef47fd7a3edf15ac8f0c9f66063a28f4a6cd09073239304c13",
    ("witt2-p2-m1", "twisted"): "03aa97cbff2c76af9acab31f7749d66db2ed32984c3c91c94faa3785d0b5b651",
    ("witt2-p2-m2", "canonical"): "c594bcb18dc0aab297ab0e9627666078efcd7fc6f2a52f3a52f77b987e585f30",
    ("witt2-p2-m2", "twisted"): "3498f290523741835a9956585d1e000c5e429e772a59ae47b3e41a7d97e62f90",
    ("witt2-p3-m1", "canonical"): "796441585399e626018cbd5e8e563386582561664e5d226f8a961ac01803f249",
    ("witt2-p3-m1", "twisted"): "228826077a0af79abb31a77d3804f13621a44b84e838bfe5588df31c6dc75a72",
    ("witt2-p3-m2", "canonical"): "9a08ee5155f23a6214493f196d5b9b4060355bc852340b4e594b2a307e8a58c8",
    ("witt2-p3-m2", "twisted"): "8e7964210964562ce83a8389b68a8cfbd6af6a7e294869dd376cfd458e089839",
    ("witt2-p2-m3", "canonical"): "5be730dc74ebe1fd52ff399c1c7b58fa3d6193267f502d73b02a5a01d0ac0580",
    ("witt2-p2-m3", "twisted"): "30a939446d094f6919cd0b4c88aaea4dcaa07044484dd7718a4e1f59b8275d11",
    ("additive2-p2-m2", "canonical"): "4303c9726251e8e3976e6001dbcaf308469d666d40e12ea962deea3bcaeebd70",
    ("additive2-p2-m2", "twisted"): "2269aa539c2310280c3662ca7ceb1d0ebe24676c50b4f3f2f7d1698dffac099e",
    ("additive2-p3-m1", "canonical"): "4303c9726251e8e3976e6001dbcaf308469d666d40e12ea962deea3bcaeebd70",
    ("additive2-p3-m1", "twisted"): "a8f4ce7b846ae8e9432beb0156f25b46d5fed1db40d670d233c4a8b9a0cdc2fb",
    ("mult-p2-m2", "canonical"): "479d8a3978e345f9171bcb7f262e829b8bed820d351379c814644d32aa3bd126",
    ("mult-p2-m2", "twisted"): "236b04778eb59b06c190af6301e97ef99a5a5e93ee8e63e68b2ade3c4217490a",
    ("mult-p3-m2", "canonical"): "479d8a3978e345f9171bcb7f262e829b8bed820d351379c814644d32aa3bd126",
    ("mult-p3-m2", "twisted"): "adcaa1420dd7f7b8937c65ef89d01c07d60d4da25131e1a7570b92536bc3e3c4",
    ("addxmult-p2-m2", "canonical"): "a80b4bf88c3940568b0ec0aba51de49d198260f8bf594a540ddbddb28d6f8a9b",
    ("addxmult-p2-m2", "twisted"): "ebcbc73d4026db7989ed837af71620b26874f96a48a6830d14084d8405d8bd6b",
    ("addxmult-p3-m1", "canonical"): "a80b4bf88c3940568b0ec0aba51de49d198260f8bf594a540ddbddb28d6f8a9b",
    ("addxmult-p3-m1", "twisted"): "81aaa6e9606f96eab39af2932ea0c8342c3d8cb28ef02076856ee647674aa1ff",
    ("witt2xmult-p2-m1", "canonical"): "33f46e2d8f308c0b67f8a3c89004ba82834052f493918c0953e95a360001141f",
    ("witt2xmult-p2-m1", "twisted"): "e3ed4fa0b63f690483f0b930070372dd179d6eadc9048a3d8518be57aa1d5303",
    ("witt2xmult-p2-m2", "canonical"): "c0be6055427b1f02e8a336f1cca347d4f518bb0a6e3526c1cf11269ad3a8f3f2",
    ("witt2xmult-p2-m2", "twisted"): "f4fc145f20dfc4d93b06db219c5b87b1f26a5afd9417f31a21ee4d9ff770edd4",
}


@pytest.mark.parametrize("name,kind", sorted(EXPECTED_ROWS_SHA256))
def test_found_coordinate_targets_pinned(name, kind):
    law = _SWEEP[name]()
    model = ArtinianModel(law.ctx, law.e, law.m)
    D = canonical_derivation(model, law)
    if kind == "twisted":
        phi = _PHI[(law.ctx.p, law.e)]
        D = twist_by_automorphism(D, [parse_trunc(model.ring, s) for s in phi])
    report = verify_canonical_basis(D, law, list(assemble_product_basis(D)))
    assert report.passed
    rows = "".join(format_trunc(en["expected"]) + "\n" for en in report.embeddings)
    assert hashlib.sha256(rows.encode()).hexdigest() == EXPECTED_ROWS_SHA256[(name, kind)]


# the same pins over GF(4) and GF(9): level coefficients and twists that
# use the generator g, so extension-field digits go through every solve

_F4, _F9 = FqContext(2, 2), FqContext(3, 2)
_SWEEP_D2 = {
    "witt2-q4-m2": lambda: make_witt2(_F4, 2, [(0, 1), (1, 1)]),
    "witt2-q9-m2": lambda: make_witt2(_F9, 2, [(0, 1), (2, 1)]),
    "addxmult-q4-m2": lambda: product_law(make_additive(_F4, 1, 2),
                                          make_multiplicative(_F4, 2)),
    "addxmult-q9-m1": lambda: product_law(make_additive(_F9, 1, 1),
                                          make_multiplicative(_F9, 1)),
}

_PHI_D2 = {
    2: ["x1 + g*x2^2 + x1*x2", "x2 + (g + 1)*x1^2"],
    3: ["x1 + g*x2^2 + 2*x1*x2", "g*x2 + x1^2"],
}

EXPECTED_ROWS_SHA256_D2 = {
    ("witt2-q4-m2", "canonical"): "c448ef8418a1747c8cbdae301e8639fd944a0b930f18b228d266cd63bb8e016a",
    ("witt2-q4-m2", "twisted"): "81b1ab48ce3e4d2661f9beb33a27b0b9a758c2ed53bd6facdb47d2136d279c03",
    ("witt2-q9-m2", "canonical"): "0f515d8adfc76bb5c0c7a0c97684c7b76dfa0d8e6902bf77a4ffd1c39ccfa757",
    ("witt2-q9-m2", "twisted"): "5fc13af1d31cc4c373414161961f6951e5e4864e40491542b90dea1f22cc71b6",
    ("addxmult-q4-m2", "canonical"): "a80b4bf88c3940568b0ec0aba51de49d198260f8bf594a540ddbddb28d6f8a9b",
    ("addxmult-q4-m2", "twisted"): "82dfce6554bfbd8c84925dbd74567c3dfbced44fffdaf257daf1dc913b09ed0d",
    ("addxmult-q9-m1", "canonical"): "a80b4bf88c3940568b0ec0aba51de49d198260f8bf594a540ddbddb28d6f8a9b",
    ("addxmult-q9-m1", "twisted"): "88d10809f4105d9dbd7d808936d4388d186bf7c26f36859c9f18cf6a494ec382",
}


@pytest.mark.parametrize("name,kind", sorted(EXPECTED_ROWS_SHA256_D2))
def test_found_coordinate_targets_pinned_d2(name, kind):
    law = _SWEEP_D2[name]()
    model = ArtinianModel(law.ctx, law.e, law.m)
    D = canonical_derivation(model, law)
    if kind == "twisted":
        phi = _PHI_D2[law.ctx.p]
        D = twist_by_automorphism(D, [parse_trunc(model.ring, s) for s in phi])
    report = verify_canonical_basis(D, law, list(assemble_product_basis(D)))
    assert report.passed
    rows = "".join(format_trunc(en["expected"]) + "\n" for en in report.embeddings)
    assert hashlib.sha256(rows.encode()).hexdigest() == EXPECTED_ROWS_SHA256_D2[(name, kind)]


# the assembly hands out the report of its own verification, the same one a
# fresh verify_canonical_basis gives

@pytest.mark.parametrize("name,kind", sorted(EXPECTED_ROWS_SHA256) + sorted(EXPECTED_ROWS_SHA256_D2))
def test_found_report_matches_a_fresh_verification(name, kind):
    if name in _SWEEP:
        law = _SWEEP[name]()
        phi = _PHI[(law.ctx.p, law.e)]
    else:
        law = _SWEEP_D2[name]()
        phi = _PHI_D2[law.ctx.p]
    model = ArtinianModel(law.ctx, law.e, law.m)
    D = canonical_derivation(model, law)
    if kind == "twisted":
        D = twist_by_automorphism(D, [parse_trunc(model.ring, s) for s in phi])
    found = assemble_product_basis(D)
    fresh = verify_canonical_basis(D, D.law, list(found))
    assert found.report.embeddings == fresh.embeddings
    assert found.report.independence == fresh.independence
    assert found.report.first_mismatch == fresh.first_mismatch
    assert found.report.passed


# -- golden pins: report bytes of dependent rational families whose
# witnesses keep unreduced denominators, so summation order shows

_WRONSKIAN = [
    ({"command": "wronskian", "context": {"p": 2, "m": 2},
      "law": {"type": "multiplicative"},
      "elements": ["x1 / (x1^2 + 1)", "x1^3 / (x1^2 + 1)", "1"],
      "test": "dependence"},
     "2c344a0e546fdd90bf33fa7c3d624b430a2c20455ffb77e7cbae1ac4a257104d"),
    ({"command": "wronskian", "context": {"p": 2, "m": 1},
      "law": {"type": "witt2", "alphas": [1]},
      "elements": ["x1 / (x2 + 1)", "x2^2 / (x2^2 + 1)", "1 / (x2^2 + 1)"],
      "test": "dependence"},
     "91391157f21f21091c1d9a091167679939b34794ca9b1e0b8b0e85d1664bc006"),
    ({"command": "wronskian", "context": {"p": 5, "d": 2, "m": 1},
      "law": {"type": "additive", "e": 1},
      "elements": ["1 / (x1^5 + x1)", "x1^5 / (x1^5 + x1)", "1 / (x1^4 + 1)"],
      "test": "dependence"},
     "75ee9a6543d787838253e3000fbae3f555a0cb44dc11ff5bbfe27411d08a2cd1"),
    ({"command": "wronskian", "context": {"p": 2, "m": 2},
      "law": {"type": "product",
              "factors": [{"type": "additive"}, {"type": "multiplicative"}]},
      "elements": ["x1 / (x2 + 1)", "x1 * x2^4 / (x2 + 1)", "(x1 + x2) / (x2^4 + 1)"],
      "test": "dependence"},
     "4d70460c0679cdde80205f3fe178a8d34db72935142d1ac53d6a18414d9fa2e9"),
    # extension fields: coefficients in g, so every product folds digits
    # through the modulus
    ({"command": "wronskian", "context": {"p": 2, "d": 2, "m": 1},
      "law": {"type": "additive", "e": 1},
      "elements": ["1 / (x1^2 + g*x1)", "g*x1^2 / (x1^2 + g*x1)", "1 / (x1^2 + 1)"],
      "test": "dependence"},
     "55d500f2be92aaa3e47d6d8500fd2f27bdd8728c5800327166074759f614fa8e"),
    ({"command": "wronskian", "context": {"p": 2, "d": 3, "m": 1},
      "law": {"type": "multiplicative"},
      "elements": ["x1 / (x1^2 + g)", "(g^2 + 1)*x1^3 / (x1^2 + g)", "1 / (x1 + g)"],
      "test": "dependence"},
     "e4a7cd0b04e7408bfde66bc28f73ab36fb5975ed879953e128e1d655ea4ac693"),
    ({"command": "wronskian", "context": {"p": 3, "d": 2, "m": 1},
      "law": {"type": "additive", "e": 2},
      "elements": ["x1 / (x2 + g)", "x1 * x2^3 / (x2 + g)", "(x1 + g*x2) / (x2^3 + 1)"],
      "test": "dependence"},
     "0945fa68729ebef757f265633c557142354fef853c182474b328296751ee6b39"),
    ({"command": "wronskian", "context": {"p": 3, "d": 2, "m": 1},
      "law": {"type": "additive", "e": 2},
      "elements": ["x1 + g*x2^3", "x2 + (g + 1)*x1^3"],
      "test": "p-independence"},
     "e9db6c75b84c5a2e0e2d2cc0892ebed1b45440a2aa20bab18ad811d8077f1b38"),
    # rows with a common monomial content, which rank_over_field strips
    ({"command": "wronskian", "context": {"p": 2, "d": 2, "m": 1},
      "law": {"type": "additive", "e": 1},
      "elements": ["g*x1", "x1"],
      "test": "dependence"},
     "acb3772d5f36e6e865da25d0e085ac8906a3e876786840badaa6e5a0f8ef7f49"),
    ({"command": "wronskian", "context": {"p": 2, "d": 2, "m": 1},
      "law": {"type": "additive", "e": 2},
      "elements": ["g*x1*x2", "x1^2*x2"],
      "test": "p-independence"},
     "d5610f9d8f1b061d980750fb3f46fa29090a171464975e3b9ca389217c141002"),
]


@pytest.mark.parametrize("config,digest", _WRONSKIAN,
                         ids=["mult", "witt2", "additive-d2", "add-x-mult",
                              "additive-q4", "mult-q8", "additive2-q9",
                              "pindep-q9", "content-q4", "pindep-content-q4"])
def test_rational_witness_report_bytes(config, digest):
    report, code = run(config)
    assert code == 0
    if config["test"] == "dependence":
        assert any(" / " in w for w in report["checks"][0]["detail"]["witness"])
    assert hashlib.sha256(render_report(report).encode()).hexdigest() == digest
