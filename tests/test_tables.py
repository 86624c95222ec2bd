"""Derivation tables taken from matrices already in hand (a conjugated twist,
a reconstructed stack) against the generic product ladder, byte for byte."""

from hypothesis import given, settings
from hypothesis import strategies as st

from hsderiv.artinian import ArtinianModel
from hsderiv.derivation import (
    canonical_derivation,
    reconstruct_from_ppowers,
    twist_by_automorphism,
)
from hsderiv.gf import FqContext
from hsderiv.grouplaw import make_additive, make_multiplicative, make_witt2, product_law

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


def test_dense_twist_conjugates():
    # dim 25: T's images are dense, so T's table is D's conjugated
    D = canonical_derivation(ArtinianModel(FqContext(5, 1), 1, 2),
                             make_multiplicative(FqContext(5, 1), 2))
    x = D.model.ring.var("x1")
    T = twist_by_automorphism(D, [x + 2 * x**3 + x**5 + 3 * x**7 + 4 * x**11])
    assert T._source is not None
    _assert_tables(T)


def test_near_monomial_twist_keeps_the_ladder():
    # dim 125: T's images are nearly monomials, so the ladder is cheaper
    ctx = FqContext(5, 1)
    D = canonical_derivation(ArtinianModel(ctx, 1, 3), make_additive(ctx, 1, 3))
    x = D.model.ring.var("x1")
    T = twist_by_automorphism(D, [x + 3 * x**25])
    assert T._source is None
    _assert_tables(T)
