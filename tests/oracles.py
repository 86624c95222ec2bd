"""Independent expected-value generators shared by test modules.

Everything here recomputes results along a different route than the library
(literal composition, sparse substitution), so agreement is evidence rather
than a tautology.
"""

import itertools
import math
import re

import numpy as np

from hsderiv import textform
from hsderiv.artinian import ArtinianModel
from hsderiv.densepoly import DenseRing
from hsderiv.derivation import HSDerivation, canonical_derivation, \
    twist_by_automorphism
from hsderiv.errors import ResourceGuard, UnknownVariable
from hsderiv.gf import FqContext, FqScalar, is_prime
from hsderiv.grouplaw import make_additive, make_multiplicative, make_witt2, \
    product_law
from hsderiv.linalg import Subspace, image_space, inv_matrix, kernel_space
from hsderiv.poly import MultiPoly, power, term_key
from hsderiv.truncated import PowerLadder, TruncatedPoly, evaluate, invert_unit


def binom_mod_p(n: int, k: int, p: int) -> int:
    """Binomial coefficient C(n, k) mod p by Lucas reduction on base-p digits."""
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if k < 0 or k > n:
        return 0
    out = 1
    while n or k:
        nd, kd = n % p, k % p
        if kd > nd:
            return 0
        out = out * (math.comb(nd, kd) % p) % p
        n //= p
        k //= p
    return out


def poly_of(ctx, vars, terms) -> MultiPoly:
    """MultiPoly of terms whose coefficients are field elements in any form
    ctx.raw takes (FqScalar, int, digits); zero terms are dropped."""
    return MultiPoly(ctx, vars, {e: v for e, c in terms.items() if (v := ctx.raw(c))})


def trunc_of(ring, terms) -> TruncatedPoly:
    """poly_of for a truncated ring over the field: TruncatedPoly of terms
    whose coefficients are field elements in any form ctx.raw takes."""
    ctx = ring.ctx
    return TruncatedPoly(ring, {e: v for e, c in terms.items() if (v := ctx.raw(c))})


def all_raw(f) -> bool:
    """Every stored coefficient of f, an element over the field, is a raw int."""
    return all(type(c) is int for c in f.terms.values())


def elements(ctx):
    """All q field elements, iteration order fixed by digit odometer."""
    for n in range(ctx.q):
        digs = []
        for _ in range(ctx.d):
            digs.append(n % ctx.p)
            n //= ctx.p
        yield ctx.scalar(tuple(digs))


def random_scalar(ctx, rng) -> FqScalar:
    """A uniform field element, one rng.randrange(p) per digit."""
    return ctx.scalar(tuple(rng.randrange(ctx.p) for _ in range(ctx.d)))


# -- F_{p^d} on digit tuples: schoolbook convolution, then the remainder by
# the monic modulus; shares no code with hsderiv.gf

def digit_add(p, a, b):
    return tuple((x + y) % p for x, y in zip(a, b))


def digit_neg(p, a):
    return tuple(-x % p for x in a)


def _fold_convolution(p, modulus, conv):
    """The d digits mod p of the 2d-1 convolution digits conv (ints, or
    object arrays of them) after the remainder by the monic modulus."""
    d = len(modulus) - 1
    conv = list(conv)
    for k in range(2 * d - 2, d - 1, -1):
        lead, conv[k] = conv[k], 0
        for i in range(d):
            conv[k - d + i] = conv[k - d + i] - lead * modulus[i]
    return [c % p for c in conv[:d]]


def digit_mul(p, modulus, a, b):
    d = len(modulus) - 1
    conv = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    return tuple(_fold_convolution(p, modulus, conv))


def digit_mat_mul(p, modulus, a, b):
    """Field matrix product a (..., n, k, d) @ b (..., k, m, d) on Python ints:
    object-dtype digit planes, convolved and then reduced as digit_mul
    reduces one product."""
    d = len(modulus) - 1
    pa = [a[..., r].astype(object) for r in range(d)]
    pb = [b[..., s].astype(object) for s in range(d)]
    conv = [0] * (2 * d - 1)
    for r in range(d):
        for s in range(d):
            conv[r + s] = conv[r + s] + pa[r] @ pb[s]
    return np.stack(_fold_convolution(p, modulus, conv), axis=-1).astype(np.int64)


def digit_basis_products(p, modulus):
    """red[r, s, t] = digit t of g^r * g^s, for r, s < d."""
    d = len(modulus) - 1
    unit = [tuple(int(i == r) for i in range(d)) for r in range(d)]
    return np.array(
        [[digit_mul(p, modulus, unit[r], unit[s]) for s in range(d)] for r in range(d)],
        dtype=np.int64,
    )


def digit_pow(p, modulus, a, n):
    out = (1,) + (0,) * (len(modulus) - 2)
    for _ in range(n):
        out = digit_mul(p, modulus, out, a)
    return out


def digit_inv(p, modulus, a):
    """a^(q-2) by square-and-multiply, checked to be the inverse."""
    d = len(modulus) - 1
    one = (1,) + (0,) * (d - 1)
    out, base, n = one, tuple(a), p**d - 2
    while n:
        if n & 1:
            out = digit_mul(p, modulus, out, base)
        base = digit_mul(p, modulus, base, base)
        n >>= 1
    assert digit_mul(p, modulus, out, a) == one
    return out


def digit_eliminate(p, modulus, rows, ncols):
    """Gauss-Jordan on rows of digit tuples, one pivot at a time, every
    entry reduced after every step. Each distinct x - f*y is worked out
    once by digit_mul, digit_neg and digit_add and then looked up, which
    keeps blocks of a few thousand entries over small fields quick."""
    m = [list(row) for row in rows]
    zero = (0,) * (len(modulus) - 1)
    memo = {}

    def minus(x, f, y):
        key = (x, f, y)
        out = memo.get(key)
        if out is None:
            out = memo[key] = digit_add(p, x, digit_neg(p, digit_mul(p, modulus, f, y)))
        return out

    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(m):
            break
        hit = next((i for i in range(r, len(m)) if m[i][c] != zero), None)
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        inv = digit_inv(p, modulus, m[r][c])
        m[r] = [digit_mul(p, modulus, inv, x) for x in m[r]]
        for i, row in enumerate(m):
            f = row[c]
            if i != r and f != zero:
                m[i] = [minus(x, f, y) for x, y in zip(row, m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def power_table_by_products(model, images, extra=0):
    """ArtinianModel.power_table one product at a time: a ladder over the
    model box in C-order that multiplies by one image per step
    (DenseRing.mul, one product per monomial), then every box axis put into
    graded order by sorting the box's exponents with term_key."""
    ctx = model.ctx
    bounds = images[0].ring.bounds
    dense = DenseRing(ctx, bounds)
    bases = []
    for f in images:
        base = dense.zeros()
        for ex, c in f.terms.items():
            base[ex] = ctx.unpack(c)
        bases.append(base)
    rows = []

    def ladder(l, cur):
        if l == model.e:
            rows.append(cur)
            return
        for j in range(model.n):
            if j:
                cur = dense.mul(cur, bases[l])
            ladder(l + 1, cur)

    ladder(0, dense.one())
    tail = bounds[len(bounds) - extra:]
    k = (len(bounds) - extra) // model.e
    graded = sorted(itertools.product(range(model.n), repeat=model.e), key=term_key)
    order = [int(np.ravel_multi_index(ex, model.bounds)) for ex in graded]
    flat = np.stack(rows).reshape((model.dim,) * (k + 1) + tail + (ctx.d,))
    keep = [order] * (k + 1) + [range(b) for b in tail] + [range(ctx.d)]
    return flat[np.ix_(*keep)]


def _xv_of_cube(model, cube: np.ndarray) -> TruncatedPoly:
    """The element of model.ring_xv with coefficient cube[b, i] at x^b v^i,
    b and i graded ranks; its terms in the order of (b, i)."""
    ctx, mons = model.ctx, model.xidx.monomials
    terms = {}
    for b, i in itertools.product(range(model.dim), repeat=2):
        if cube[b, i].any():
            terms[mons[b] + mons[i]] = ctx.pack(cube[b, i].tolist())
    return model.ring_xv.element(terms)


def _units(e: int) -> list:
    return [tuple(int(i == t) for i in range(e)) for t in range(e)]


def twist_images_through_the_table(D: HSDerivation, phi) -> tuple:
    """The images T(x_t) = Phi D(psi_t) of twist_by_automorphism(D, phi),
    through D's dense table: Phi by one product per monomial, psi_t its
    inverse's column at x_t, D(psi_t) = sum_a psi_t[a] D(x^a) read off the
    table, and Phi applied to each v-coefficient of it."""
    model, ctx = D.model, D.model.ctx
    dim, d = model.dim, ctx.d
    # phimat[b, a] = coefficient of x^b in phi^a
    phimat = power_table_by_products(model, phi).transpose(1, 0, 2)
    phiinv = inv_matrix(ctx, phimat)
    # by_a[b * dim + i, a] = coefficient of x^b v^i in D(x^a)
    by_a = D.table().transpose(1, 2, 0, 3).reshape(dim * dim, dim, d)
    out = []
    for u in _units(model.e):
        cube = ctx.mat_vec(by_a, phiinv[:, model.xidx.rank[u]]).reshape(dim, dim, d)
        out.append(_xv_of_cube(model, ctx.mat_mul(phimat, cube)))
    return tuple(out)


def reconstruction_images_by_columns(D: HSDerivation) -> tuple:
    """The images of reconstruct_from_ppowers(D), read off the columns at
    x_t of D's component stack: D(x_t) = sum_i D_i(x_t) v^i."""
    model = D.model
    stack = D.matrix_stack()
    return tuple(_xv_of_cube(model, stack[:, :, model.xidx.rank[u]].transpose(1, 0, 2))
                 for u in _units(model.e))


def tower_by_cumulative_stacks(D: HSDerivation) -> list:
    """The levels of lattice.tower, each from scratch: level s is the kernel
    of every p-power component p^j e_l, j <= s, stacked, taken on the whole
    model rather than inside the level above."""
    model = D.model
    p, e, m = model.ctx.p, model.e, model.m
    levels = [Subspace.full(model.ctx, model.dim)]
    mats = []
    for s in range(m):
        mats += [D.axis_stack(l)[p**s] for l in range(e)]
        levels.append(kernel_space(model.ctx, np.concatenate(mats)))
    return levels


def zm_by_kernel_and_image(ctx, mat: np.ndarray) -> dict:
    """lattice._zm by subspaces: T^p = 0, and the kernel of T^(p-1) compared
    with the image of T as echelon bases."""
    pm1 = mat
    for _ in range(ctx.p - 2):
        pm1 = ctx.mat_mul(pm1, mat)
    return {
        "nilpotent_p": not ctx.mat_mul(pm1, mat).any(),
        "ker_im_equal": kernel_space(ctx, pm1) == image_space(ctx, mat),
    }


def derivation_zoo() -> list:
    """Derivations of every kind a constants tower meets, as test inputs:
    canonical ones for additive e = 1, 2, multiplicative, witt2 and product
    laws at p = 2, 3 and m = 1, 2; a twisted witt2; d = 2; and the trivial
    derivation x -> x, which is not known to be iterative."""

    def canon(law):
        return canonical_derivation(ArtinianModel(law.ctx, law.e, law.m), law)

    out = []
    for p in (2, 3):
        ctx = FqContext(p, 1)
        for m in (1, 2):
            out += [canon(law) for law in (
                make_additive(ctx, 1, m),
                make_additive(ctx, 2, m),
                make_multiplicative(ctx, m),
                make_witt2(ctx, m, list(range(1, m + 1))),
                product_law(make_additive(ctx, 1, m), make_multiplicative(ctx, m)),
            )]
        D = canon(make_witt2(ctx, 2, [1, p - 1]))
        xs = [D.model.ring.var(v) for v in D.model.xvars]
        out.append(twist_by_automorphism(D, [xs[0] + xs[1] ** 2, xs[1]]))
    ctx = FqContext(2, 2)
    out += [canon(make_additive(ctx, 2, 1)), canon(make_witt2(ctx, 2, [1, 1])),
            canon(product_law(make_multiplicative(ctx, 1), make_additive(ctx, 1, 1)))]
    ctx = FqContext(2, 1)
    model = ArtinianModel(ctx, 2, 2)
    out.append(HSDerivation(model, make_additive(ctx, 2, 2),
                            [model.ring_xv.var(v) for v in model.xvars]))
    return out


def _mm(ctx, a, b):
    # exact float64 product for the prime field; entries < p and the inner
    # dimension keep every dot product far below 2**53
    if ctx.d == 1:
        prod = a[..., 0].astype(np.float64) @ b[..., 0].astype(np.float64)
        return (prod % ctx.p).astype(np.int64)[..., None]
    return ctx.mat_mul(a, b)


def pfold_by_repeated_composition(D: HSDerivation) -> HSDerivation:
    """Literal p-fold composite of the packaged map.

    Applies the map p times to each generator while the adjoined exponents
    accumulate (each round's new block stays inside the small cube, but the
    sums reach p times as far), then keeps the slices at p * i. Slices off
    the p-grid must cancel; that is asserted, not assumed.
    """
    model, ctx = D.model, D.model.ctx
    p, e, dim, d = ctx.p, model.e, model.dim, ctx.d
    n = model.n
    B = p * (n - 1) + 1
    bigshape = (B,) * e
    bigflat = B**e
    inv = np.argsort(model.xidx.flat_of_graded)
    tab = D.table()[inv][:, inv][:, :, inv]
    t3 = tab.transpose(2, 1, 0, 3).reshape(dim * dim, dim, d)
    offgrid = np.ones(bigshape, dtype=bool)
    offgrid[tuple(slice(0, None, p) for _ in range(e))] = False
    cexps = list(np.ndindex(*model.bounds))
    imgs = []
    for t in range(e):
        unit = tuple(1 if l == t else 0 for l in range(e))
        h = np.zeros((dim, bigflat, d), dtype=np.int64)
        h[np.ravel_multi_index(unit, model.bounds), 0] = ctx.one.digits
        for _ in range(p):
            prod = _mm(ctx, t3, h).reshape((dim, dim) + bigshape + (d,))
            nxt = np.zeros((dim,) + bigshape + (d,), dtype=np.int64)
            for iflat, iexp in enumerate(cexps):
                dst = (slice(None),) + tuple(slice(x, B) for x in iexp)
                src = (slice(None),) + tuple(slice(0, B - x) for x in iexp)
                nxt[dst] = ctx.arr_add(nxt[dst], prod[iflat][src])
            h = nxt.reshape(dim, bigflat, d)
        cube = h.reshape((dim,) + bigshape + (d,))
        assert not cube[:, offgrid].any(), "composite left the p-grid"
        keep = cube[(slice(None),) + tuple(slice(0, None, p) for _ in range(e))]
        flat = keep.reshape(dim, dim, d)
        terms = {}
        for bf in range(dim):
            for vf in range(dim):
                if flat[bf, vf].any():
                    terms[cexps[bf] + cexps[vf]] = ctx.scalar(
                        tuple(int(x) for x in flat[bf, vf])
                    )
        imgs.append(trunc_of(model.ring_xv, terms))
    return HSDerivation(model, D.law, imgs)


def field_generator_images(fctx) -> tuple:
    """Images of x_1..x_e in fctx.ring = K[v]/(v^(p^m)), the ring with
    rational-function coefficients: law component t evaluated at (x, v)."""
    ring, law = fctx.ring, fctx.law
    xs = [ring.const(MultiPoly.var(fctx.ctx, fctx.xvars, x)) for x in fctx.xvars]
    vs = [ring.var(v) for v in fctx.vvars]
    lads = [PowerLadder(n, g) for n, g in zip(law.ring.vars, xs + vs)]
    return tuple(evaluate(c.terms, lads, ring) for c in law.components)


def nested_field_apply(fctx, f) -> TruncatedPoly:
    """FieldDerivationContext.apply evaluated term by term in fctx.ring, with
    rational-function coefficients throughout: the key order and the
    (num, den) pairs the flat evaluation must reproduce."""
    ladders = [PowerLadder(x, g) for x, g in zip(fctx.xvars, field_generator_images(fctx))]
    g = fctx.dom.coerce(f)
    num = evaluate(g.num.terms, ladders, fctx.ring)
    if g.den == 1:
        return num
    return num * invert_unit(evaluate(g.den.terms, ladders, fctx.ring))


class ReferenceParser:
    """textform's parser as it multiplied factor by factor: every number,
    g and variable is a polynomial, and a term is the product of its
    factors, left to right, each product checked against the guard. The
    budget is read from textform at each product, so a patched budget
    applies here too."""

    def __init__(self, ctx: FqContext, vars, text: str, ring=None):
        self.ctx = ctx
        self.vars = tuple(vars)
        self.ring = ring
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = textform._TOKEN.match(text, pos)
            if not m or m.end() == pos:
                rest = text[pos:].strip()
                if not rest:
                    break
                raise ValueError(f"cannot tokenize near {rest[:20]!r}")
            self.tokens.append(m.group(0).strip())
            pos = m.end()
        self.tokens = [t for t in self.tokens if t]
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        t = self.peek()
        self.i += 1
        return t

    def expect(self, t):
        got = self.take()
        if got != t:
            raise ValueError(f"expected {t!r}, got {got!r}")

    def parse(self):
        out = self.expression()
        if self.peek() is not None:
            raise ValueError(f"trailing input at {self.peek()!r}")
        return out

    def expression(self):
        neg = False
        if self.peek() in ("+", "-"):
            neg = self.take() == "-"
        out = self.term()
        if neg:
            out = -out
        while self.peek() in ("+", "-"):
            op = self.take()
            t = self.term()
            out = out - t if op == "-" else out + t
        return out

    def term(self):
        out = self.factor()
        while self.peek() == "*":
            self.take()
            out = self._mul(out, self.factor())
        return out

    def factor(self):
        base = self.primary()
        if self.peek() == "^":
            self.take()
            e = self.take()
            if e is None or not e.isdigit():
                raise ValueError("exponent must be a nonnegative integer")
            if self.ring is None:
                base = power(self._const(1), base, int(e), self._mul)
            else:
                base = base ** int(e)
        return base

    def _mul(self, f, g):
        if self.ring is None:
            if len(f.terms) * len(g.terms) > textform.PARSE_PRODUCT_BUDGET:
                raise ResourceGuard(
                    f"product of {len(f.terms)} and {len(g.terms)} terms exceeds "
                    f"the budget of {textform.PARSE_PRODUCT_BUDGET} term pairs"
                )
        return f * g

    def _const(self, c):
        if self.ring is None:
            return MultiPoly.const(self.ctx, self.vars, c)
        return self.ring.const(c)

    def primary(self):
        t = self.take()
        if t is None:
            raise ValueError("unexpected end of input")
        if t.isdigit():
            return self._const(int(t))
        if t == "(":
            inner = self.expression()
            self.expect(")")
            return inner
        if t == "g":
            if self.ctx.d == 1:
                raise UnknownVariable("g is not available over a prime field")
            return self._const(self.ctx.gen)
        if re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", t):
            if t not in self.vars:
                raise UnknownVariable(f"unknown variable {t!r}")
            if self.ring is None:
                return MultiPoly.var(self.ctx, self.vars, t)
            return self.ring.var(t)
        raise ValueError(f"unexpected token {t!r}")
