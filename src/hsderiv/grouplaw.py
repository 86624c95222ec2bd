"""Truncated formal group laws: constructors, axiom checks, series, constants.

A law of dimension e at truncation order m is a tuple of e elements of
k[v1..ve, w1..we] / (v_i^{p^m}, w_i^{p^m}) satisfying F(v,0) = v, F(0,w) = w,
and associativity. Construction verifies the axioms; weak=True skips only the
associativity check for deliberately lawless experiments.
"""

from __future__ import annotations

import numpy as np

from .artinian import ArtinianModel
from .errors import ContextMismatch, LawAxiomFailure, TruncationOrder
from .gf import FqContext, FqScalar, lambda_coeffs
from .poly import MultiPoly
from .truncated import TruncatedRing, rename, substitute


def _law_ring(ctx: FqContext, e: int, m: int) -> TruncatedRing:
    n = ctx.p**m
    vnames = tuple(f"v{i+1}" for i in range(e))
    wnames = tuple(f"w{i+1}" for i in range(e))
    return TruncatedRing(ctx, [(vnames, n), (wnames, n)])


class FormalGroupLaw:
    """Immutable law object; axioms checked at construction unless weak."""

    def __init__(
        self,
        ctx: FqContext,
        e: int,
        m: int,
        components,
        kind: str = "custom",
        weak: bool = False,
        alphas=None,
        factors=None,
        check: bool = True,
    ):
        self.ctx = ctx
        self.e = e
        self.m = m
        self.ring = _law_ring(ctx, e, m)
        comps = []
        for f in components:
            if f.ring != self.ring:
                raise ContextMismatch("component lives in the wrong ring")
            comps.append(f)
        if len(comps) != e:
            raise ValueError(f"expected {e} components, got {len(comps)}")
        self.components = tuple(comps)
        self.kind = kind
        self.weak = bool(weak)
        self.alphas = tuple(alphas) if alphas is not None else None
        self.factors = tuple(factors) if factors is not None else None
        self._commutative: bool | None = None
        self._ptable = None
        if check:
            if not self._unit_ok():
                raise LawAxiomFailure("unit law fails: F(v,0) != v or F(0,w) != w")
            if not self.weak and not self._assoc_ok():
                raise LawAxiomFailure("associativity fails")

    def __eq__(self, other):
        return (
            isinstance(other, FormalGroupLaw)
            and self.ctx == other.ctx
            and (self.e, self.m) == (other.e, other.m)
            and self.components == other.components
        )

    def __repr__(self):
        return f"FormalGroupLaw(kind={self.kind}, e={self.e}, m={self.m}, p={self.ctx.p})"

    @property
    def vnames(self):
        return self.ring.vars[: self.e]

    @property
    def wnames(self):
        return self.ring.vars[self.e :]

    def _unit_ok(self) -> bool:
        r = self.ring
        imgs_w0 = {v: r.var(v) for v in self.vnames}
        imgs_w0.update({w: r.zero for w in self.wnames})
        imgs_v0 = {v: r.zero for v in self.vnames}
        imgs_v0.update({w: r.var(w) for w in self.wnames})
        for l, f in enumerate(self.components):
            if substitute(f, imgs_w0, r) != r.var(self.vnames[l]):
                return False
            if substitute(f, imgs_v0, r) != r.var(self.wnames[l]):
                return False
        return True

    def _assoc_ok(self) -> bool:
        ctx, e, n = self.ctx, self.e, self.ctx.p**self.m
        unames = tuple(f"u{i+1}" for i in range(e))
        big = TruncatedRing(
            ctx, [(unames, n), (self.vnames, n), (self.wnames, n)]
        )
        # inner laws on (u,v) and (v,w)
        f_uv = [
            rename(f, big, dict(zip(self.vnames + self.wnames, unames + self.vnames)))
            for f in self.components
        ]
        f_vw = [rename(f, big, {}) for f in self.components]
        left_imgs = {self.vnames[l]: f_uv[l] for l in range(e)}
        left_imgs.update({w: big.var(w) for w in self.wnames})
        right_imgs = {self.vnames[l]: big.var(unames[l]) for l in range(e)}
        right_imgs.update({self.wnames[l]: f_vw[l] for l in range(e)})
        for f in self.components:
            left = substitute(f, left_imgs, big)
            right = substitute(f, right_imgs, big)
            if left != right:
                return False
        return True

    @property
    def commutative(self) -> bool:
        if self._commutative is None:
            swap = dict(zip(self.vnames + self.wnames, self.wnames + self.vnames))
            self._commutative = all(
                rename(f, self.ring, swap) == f for f in self.components
            )
        return self._commutative

    def _power_table(self):
        """(tab, index): tab[k, i, j] = coefficient of v^i w^j in F^k, every
        axis in the graded order of index, the law box's GradedIndexing."""
        if self._ptable is None:
            model = ArtinianModel(self.ctx, self.e, self.m)
            self._ptable = (model.power_table(self.components), model.xidx)
        return self._ptable


def check_axioms(law: FormalGroupLaw) -> dict:
    """Re-run the axiom checks and report them, regardless of the weak flag."""
    return {
        "unit": law._unit_ok(),
        "associative": law._assoc_ok(),
        "commutative": law.commutative,
    }


def make_additive(ctx: FqContext, e: int, m: int) -> FormalGroupLaw:
    ring = _law_ring(ctx, e, m)
    comps = [ring.var(f"v{l+1}") + ring.var(f"w{l+1}") for l in range(e)]
    return FormalGroupLaw(ctx, e, m, comps, kind="additive", check=False)


def make_multiplicative(ctx: FqContext, m: int) -> FormalGroupLaw:
    ring = _law_ring(ctx, 1, m)
    v, w = ring.var("v1"), ring.var("w1")
    return FormalGroupLaw(ctx, 1, m, [v + w + v * w], kind="multiplicative", check=False)


def h_n(p: int, n: int) -> MultiPoly:
    """Carry polynomial sum_i lambda_i x^(i p^n) y^((p-i) p^n) over F_p."""
    ctx = FqContext(p, 1)
    lam = lambda_coeffs(p)
    terms = {}
    for i in range(1, p):
        terms[(i * p**n, (p - i) * p**n)] = ctx.raw(lam[i - 1])
    return MultiPoly(ctx, ("x", "y"), terms)


def make_witt2(ctx: FqContext, m: int, alphas) -> FormalGroupLaw:
    """Two-dimensional law (v1 + w1 + sum_l a_l H_l(v2, w2), v2 + w2).

    alphas holds the level coefficients a_0, a_1, ...; entries beyond index
    m-1 cannot appear in the truncated ring and are silently dropped, and
    missing entries count as zero.
    """
    p = ctx.p
    ring = _law_ring(ctx, 2, m)
    alphas = [ctx.scalar(a) for a in alphas]
    padded = tuple(alphas[l] if l < len(alphas) else ctx.zero for l in range(m))
    lam = lambda_coeffs(p)
    f1 = ring.var("v1") + ring.var("w1")
    for l in range(m):
        if not padded[l]:
            continue
        for i in range(1, p):
            mono = ring.monomial(
                (0, i * p**l, 0, (p - i) * p**l), padded[l] * lam[i - 1]
            )
            f1 = f1 + mono
    f2 = ring.var("v2") + ring.var("w2")
    return FormalGroupLaw(ctx, 2, m, [f1, f2], kind="witt2", alphas=padded, check=False)


def product_law(f: FormalGroupLaw, g: FormalGroupLaw) -> FormalGroupLaw:
    if f.ctx != g.ctx:
        raise ContextMismatch("product factors over different fields")
    if f.m != g.m:
        raise ContextMismatch("product factors at different truncation orders")
    e = f.e + g.e
    ring = _law_ring(f.ctx, e, f.m)
    comps = [rename(c, ring, {}) for c in f.components]
    shift = {}
    for l in range(g.e):
        shift[f"v{l+1}"] = f"v{f.e+l+1}"
        shift[f"w{l+1}"] = f"w{f.e+l+1}"
    comps += [rename(c, ring, shift) for c in g.components]
    return FormalGroupLaw(
        f.ctx, e, f.m, comps, kind="product", factors=(f, g), check=False
    )


def truncate_law(law: FormalGroupLaw, m2: int) -> FormalGroupLaw:
    if not 1 <= m2 <= law.m:
        raise TruncationOrder(f"cannot truncate from m={law.m} to m={m2}")
    if m2 == law.m:
        return law
    ring2 = _law_ring(law.ctx, law.e, m2)
    comps = [rename(f, ring2, {}) for f in law.components]
    factors = None
    if law.factors is not None:
        factors = tuple(truncate_law(f, m2) for f in law.factors)
    alphas = law.alphas[:m2] if law.alphas is not None else None
    return FormalGroupLaw(
        law.ctx,
        law.e,
        m2,
        comps,
        kind=law.kind,
        weak=law.weak,
        alphas=alphas,
        factors=factors,
        check=False,
    )


def n_series(law: FormalGroupLaw, n: int):
    """Components of the n-fold formal sum [n](v); [0] = 0, [1] = v.

    Each [k] = F(v, [k-1]) is kept. Once [k] = 0 for some k >= 1, [k+1] =
    F(v, 0) = [1], so [n] = [n mod k]: p^m substitutions at most for every
    law built here, since each has [p^m] = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    ctx, e = law.ctx, law.e
    bound = ctx.p**law.m
    vnames = law.vnames
    vring = TruncatedRing(ctx, [(vnames, bound)])
    seen = [(vring.zero,) * e]
    imgs = {v: vring.var(v) for v in vnames}
    for k in range(1, n + 1):
        imgs.update(zip(law.wnames, seen[-1]))
        seen.append(tuple(substitute(f, imgs, vring) for f in law.components))
        if all(c.is_zero() for c in seen[k]):
            return seen[n % k]
    return seen[n]


def iterated_law(law: FormalGroupLaw, n: int):
    """Ring and components of the n-slot combination F(v_1, F(v_2, ...)).

    Slot t variables are named v{l}_{t}. n=1 gives the identity components,
    n=2 gives the law itself up to renaming.
    """
    if n < 1:
        raise ValueError("need at least one slot")
    ctx, e = law.ctx, law.e
    bound = ctx.p**law.m

    def slot_names(t):
        return tuple(f"v{l+1}_{t}" for l in range(e))

    def make_ring(k):
        return TruncatedRing(ctx, [(slot_names(t), bound) for t in range(1, k + 1)])

    ring = make_ring(1)
    comps = [ring.var(v) for v in slot_names(1)]
    for k in range(2, n + 1):
        big = make_ring(k)
        # law applied to the last two slots
        tail_map = dict(zip(law.vnames + law.wnames, slot_names(k - 1) + slot_names(k)))
        tail = [rename(f, big, tail_map) for f in law.components]
        imgs = {}
        for t in range(1, k - 1):
            for v in slot_names(t):
                imgs[v] = big.var(v)
        for l, v in enumerate(slot_names(k - 1)):
            imgs[v] = tail[l]
        comps = [substitute(f, imgs, big) for f in comps]
        ring = big
    return ring, tuple(comps)


def structure_constants(law: FormalGroupLaw, i, j) -> dict:
    """Map k -> coefficient of v^i w^j in F^k, nonzero entries only.

    These are the constants with D_j D_i = sum_k c(k) D_k for any derivation
    iterative over the law. Keys iterate in the canonical graded order.
    """
    i = tuple(int(t) for t in i)
    j = tuple(int(t) for t in j)
    n = law.ctx.p**law.m
    if len(i) != law.e or len(j) != law.e:
        raise ValueError("index length must match the law dimension")
    if any(t < 0 or t >= n for t in i + j):
        raise ValueError("index out of range")
    table, index = law._power_table()
    col = table[:, index.rank[i], index.rank[j]]
    return {
        index.monomials[int(r)]: FqScalar(law.ctx, law.ctx.pack(col[r]))
        for r in np.flatnonzero(col.any(axis=1))
    }
