"""Formal group laws: constructors, axioms, series, structure constants."""

import random

import pytest

from hsderiv.errors import ContextMismatch, LawAxiomFailure, TruncationOrder
from hsderiv.gf import FqContext, binom_mod_p
from hsderiv.grouplaw import (
    FormalGroupLaw,
    check_axioms,
    h_n,
    iterated_law,
    make_additive,
    make_multiplicative,
    make_witt2,
    n_series,
    product_law,
    structure_constants,
    truncate_law,
)
from hsderiv.poly import MultiPoly
from hsderiv.textform import format_trunc, parse_trunc
from hsderiv.truncated import TruncatedRing, substitute


def _random_witt2(ctx, m, rng):
    return make_witt2(ctx, m, [ctx.random_scalar(rng) for _ in range(m)])


def _constructor_zoo(ctx, m, rng):
    laws = [
        make_additive(ctx, 1, m),
        make_additive(ctx, 2, m),
        make_multiplicative(ctx, m),
        _random_witt2(ctx, m, rng),
    ]
    laws.append(product_law(laws[0], laws[2]))
    laws.append(product_law(laws[3], laws[2]))
    return laws


def test_multiplicative_prints_canonically():
    law = make_multiplicative(FqContext(2, 1), 1)
    assert format_trunc(law.components[0]) == "v1 + w1 + v1*w1"


def test_h_n_known_values():
    x2 = MultiPoly.var(FqContext(2, 1), ("x", "y"), "x")
    y2 = MultiPoly.var(FqContext(2, 1), ("x", "y"), "y")
    assert h_n(2, 0) == x2 * y2
    assert h_n(2, 1) == x2**2 * y2**2
    x3 = MultiPoly.var(FqContext(3, 1), ("x", "y"), "x")
    y3 = MultiPoly.var(FqContext(3, 1), ("x", "y"), "y")
    assert h_n(3, 0) == x3 * y3**2 + x3**2 * y3


def test_witt2_smallest_case():
    ctx = FqContext(2, 1)
    law = make_witt2(ctx, 1, [1])
    r = law.ring
    assert law.components[0] == r.var("v1") + r.var("w1") + r.var("v2") * r.var("w2")
    assert law.components[1] == r.var("v2") + r.var("w2")


def test_witt2_alpha_list_is_padded_and_clipped():
    ctx = FqContext(3, 1)
    law_short = make_witt2(ctx, 2, [2])
    assert law_short.alphas == (ctx.scalar(2), ctx.zero)
    law_long = make_witt2(ctx, 1, [2, 1, 1])
    assert law_long.alphas == (ctx.scalar(2),)
    assert law_long == make_witt2(ctx, 1, [2])


def test_constructor_laws_satisfy_axioms():
    rng = random.Random(42)
    for p in (2, 3, 5):
        for d in (1, 2):
            ctx = FqContext(p, d)
            for m in (1, 2):
                for law in _constructor_zoo(ctx, m, rng):
                    rep = check_axioms(law)
                    assert rep["unit"], (p, d, m, law.kind)
                    assert rep["associative"], (p, d, m, law.kind)
                    assert rep["commutative"], (p, d, m, law.kind)


def test_custom_law_associativity_failure_is_loud():
    ctx = FqContext(3, 1)
    ring = TruncatedRing(ctx, [(("v1",), 3), (("w1",), 3)])
    v, w = ring.var("v1"), ring.var("w1")
    comps = [v + w + v**2 * w]
    with pytest.raises(LawAxiomFailure):
        FormalGroupLaw(ctx, 1, 1, comps)
    weak = FormalGroupLaw(ctx, 1, 1, comps, weak=True)
    rep = check_axioms(weak)
    assert rep["unit"] and not rep["associative"] and not rep["commutative"]


def test_unit_law_failure_is_loud_even_weak():
    ctx = FqContext(2, 1)
    ring = TruncatedRing(ctx, [(("v1",), 2), (("w1",), 2)])
    comps = [ring.var("v1") + ring.var("w1") + ring.var("v1") * ring.var("w1") + ring.one * 0 + ring.var("w1")]
    with pytest.raises(LawAxiomFailure):
        FormalGroupLaw(ctx, 1, 1, comps, weak=True)


def test_n_series_small_values():
    rng = random.Random(7)
    for p in (2, 3):
        ctx = FqContext(p, 1)
        for m in (1, 2):
            for law in _constructor_zoo(ctx, m, rng):
                zero = n_series(law, 0)
                assert all(s.is_zero() for s in zero)
                one = n_series(law, 1)
                vring = one[0].ring
                assert one == tuple(vring.var(f"v{l+1}") for l in range(law.e))
                # [2] = F(v, v)
                two = n_series(law, 2)
                imgs = {}
                for l in range(law.e):
                    imgs[f"v{l+1}"] = vring.var(f"v{l+1}")
                    imgs[f"w{l+1}"] = vring.var(f"v{l+1}")
                expect = tuple(substitute(f, imgs, vring) for f in law.components)
                assert two == expect


def test_p_series_additive_and_multiplicative():
    for p in (2, 3, 5):
        ctx = FqContext(p, 1)
        add = make_additive(ctx, 1, 2)
        assert all(s.is_zero() for s in n_series(add, p))
        mul = make_multiplicative(ctx, 2)
        (s,) = n_series(mul, p)
        assert s == s.ring.var("v1") ** p


def test_p_series_witt2_formula():
    rng = random.Random(11)
    for p in (2, 3):
        for m in (1, 2):
            ctx = FqContext(p, 1)
            for _ in range(4):
                alphas = [ctx.random_scalar(rng) for _ in range(m)]
                law = make_witt2(ctx, m, alphas)
                s1, s2 = n_series(law, p)
                vring = s1.ring
                expect = vring.zero
                for n in range(m):
                    exp = p ** (n + 1)
                    if exp < p**m:
                        expect = expect - vring.var("v2").__pow__(exp).scale(
                            law.alphas[n]
                        )
                assert s1 == expect, (p, m)
                assert s2.is_zero()


def test_n_series_composition_property():
    rng = random.Random(23)
    for p in (2, 3):
        ctx = FqContext(p, 1)
        for law in _constructor_zoo(ctx, 2, rng):
            for na, nb in ((1, 2), (2, 3), (3, 2)):
                a = n_series(law, na)
                b = n_series(law, nb)
                vring = a[0].ring
                imgs = {}
                for l in range(law.e):
                    imgs[f"v{l+1}"] = a[l]
                    imgs[f"w{l+1}"] = b[l]
                combined = tuple(substitute(f, imgs, vring) for f in law.components)
                assert combined == n_series(law, na + nb), (p, law.kind, na, nb)


def test_n_series_has_period_p_to_the_m():
    # [p](v) lies in the ideal of p-th powers for every constructor law, so
    # [p^m](v) = 0 in the truncated ring and [N + p^m] = [N]
    rng = random.Random(29)
    for p, m, d in ((2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 2, 2), (5, 1, 1)):
        ctx = FqContext(p, d)
        for law in _constructor_zoo(ctx, m, rng):
            period = p**m
            assert all(c.is_zero() for c in n_series(law, period)), (p, m, law.kind)
            for N in (1, 2, period - 1):
                assert n_series(law, N + period) == n_series(law, N), (p, m, law.kind, N)


def test_truncate_law_drops_upper_levels():
    ctx = FqContext(2, 1)
    law = make_witt2(ctx, 2, [1, 1])
    low = truncate_law(law, 1)
    assert low == make_witt2(ctx, 1, [1])
    assert low.alphas == (ctx.one,)
    with pytest.raises(TruncationOrder):
        truncate_law(law, 3)
    with pytest.raises(TruncationOrder):
        truncate_law(law, 0)


def test_truncate_commutes_with_n_series():
    rng = random.Random(99)
    for p in (2, 3):
        ctx = FqContext(p, 1)
        for law in _constructor_zoo(ctx, 2, rng):
            low = truncate_law(law, 1)
            for n in (2, p):
                high_series = n_series(law, n)
                low_series = n_series(low, n)
                for l in range(law.e):
                    dropped = {
                        e: c
                        for e, c in high_series[l].terms.items()
                        if all(x < p for x in e)
                    }
                    assert dropped == low_series[l].terms, (p, law.kind, n)


def test_product_law_blocks_and_mismatch():
    ctx = FqContext(2, 1)
    add = make_additive(ctx, 1, 1)
    mul = make_multiplicative(ctx, 1)
    prod = product_law(add, mul)
    assert prod.e == 2
    r = prod.ring
    assert prod.components[0] == r.var("v1") + r.var("w1")
    assert prod.components[1] == r.var("v2") + r.var("w2") + r.var("v2") * r.var("w2")
    assert product_law(add, add) == make_additive(ctx, 2, 1)
    with pytest.raises(ContextMismatch):
        product_law(add, make_additive(FqContext(3, 1), 1, 1))
    with pytest.raises(ContextMismatch):
        product_law(add, make_additive(ctx, 1, 2))


def test_structure_constants_additive_are_binomials():
    for p in (2, 3):
        for m in (1, 2):
            ctx = FqContext(p, 1)
            law = make_additive(ctx, 1, m)
            n = p**m
            for i in range(n):
                for j in range(n):
                    sc = structure_constants(law, (i,), (j,))
                    expect = {}
                    if i + j < n:
                        c = binom_mod_p(i + j, i, p)
                        if c:
                            expect[(i + j,)] = ctx.scalar(c)
                    assert sc == expect, (p, m, i, j)


def test_structure_constants_zero_index_is_identity():
    rng = random.Random(5)
    for p in (2, 3):
        ctx = FqContext(p, 1)
        for law in _constructor_zoo(ctx, 1, rng):
            zero = (0,) * law.e
            for j_flat in range(p**law.e):
                j = []
                t = j_flat
                for _ in range(law.e):
                    j.append(t % p)
                    t //= p
                j = tuple(j)
                sc = structure_constants(law, zero, j)
                assert sc == {j: ctx.one}, (law.kind, j)


def test_structure_constants_match_plain_power_expansion():
    # independent oracle: expand F^k as an untruncated MultiPoly and read off
    rng = random.Random(13)
    ctx = FqContext(3, 1)
    law = _random_witt2(ctx, 1, rng)
    vars = law.ring.vars
    comps_mp = []
    for f in law.components:
        comps_mp.append(MultiPoly(ctx, vars, dict(f.terms)))
    for i in ((1, 0), (0, 1), (1, 2)):
        for j in ((1, 0), (0, 2), (2, 1)):
            sc = structure_constants(law, i, j)
            for k1 in range(3):
                for k2 in range(3):
                    fk = comps_mp[0] ** k1 * comps_mp[1] ** k2
                    c = fk.coeff(i + j)
                    got = sc.get((k1, k2), ctx.zero)
                    assert got == c, (i, j, k1, k2)


def test_structure_constants_top_weight_is_binomial_product():
    rng = random.Random(21)
    for p in (2, 3):
        ctx = FqContext(p, 1)
        for m in (1, 2):
            n = p**m
            for law in _constructor_zoo(ctx, m, rng):
                idxs = [
                    tuple(rng.randrange(n) for _ in range(law.e)) for _ in range(6)
                ]
                for i in idxs:
                    for j in idxs:
                        k = tuple(a + b for a, b in zip(i, j))
                        if any(x >= n for x in k):
                            continue
                        sc = structure_constants(law, i, j)
                        expect = ctx.one
                        for a, b in zip(i, j):
                            expect = expect * binom_mod_p(a + b, a, p)
                        got = sc.get(k, ctx.zero)
                        assert got == expect, (p, m, law.kind, i, j)


def test_iterated_law_base_cases():
    ctx = FqContext(2, 1)
    law = make_multiplicative(ctx, 1)
    ring1, comps1 = iterated_law(law, 1)
    assert comps1 == (ring1.var("v1_1"),)
    ring2, comps2 = iterated_law(law, 2)
    a, b = ring2.var("v1_1"), ring2.var("v1_2")
    assert comps2 == (a + b + a * b,)
    add = make_additive(FqContext(3, 1), 1, 1)
    ring3, comps3 = iterated_law(add, 3)
    assert comps3 == (
        ring3.var("v1_1") + ring3.var("v1_2") + ring3.var("v1_3"),
    )


def test_iterated_law_diagonal_matches_n_series():
    rng = random.Random(31)
    for p in (2, 3):
        ctx = FqContext(p, 1)
        for law in (make_multiplicative(ctx, 2), _random_witt2(ctx, 2, rng)):
            for n in (2, 3):
                ring, comps = iterated_law(law, n)
                series = n_series(law, n)
                vring = series[0].ring
                imgs = {}
                for t in range(1, n + 1):
                    for l in range(law.e):
                        imgs[f"v{l+1}_{t}"] = vring.var(f"v{l+1}")
                diag = tuple(substitute(f, imgs, vring) for f in comps)
                assert diag == series, (p, law.kind, n)


def test_law_components_parse_round_trip():
    ctx = FqContext(3, 1)
    law = make_witt2(ctx, 2, [1, 2])
    for f in law.components:
        assert parse_trunc(law.ring, format_trunc(f)) == f
