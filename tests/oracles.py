"""Independent expected-value generators shared by test modules.

Everything here recomputes results along a different route than the library
(literal composition, sparse substitution), so agreement is evidence rather
than a tautology.
"""

import math

import numpy as np

from hsderiv.derivation import HSDerivation
from hsderiv.gf import FqScalar, is_prime
from hsderiv.truncated import TruncatedPoly


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


def elements(ctx):
    """All q field elements, iteration order fixed by digit odometer."""
    for n in range(ctx.q):
        digs = []
        for _ in range(ctx.d):
            digs.append(n % ctx.p)
            n //= ctx.p
        yield FqScalar(ctx, tuple(digs))


def random_scalar(ctx, rng) -> FqScalar:
    """A uniform field element, one rng.randrange(p) per digit."""
    return FqScalar(ctx, tuple(rng.randrange(ctx.p) for _ in range(ctx.d)))


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
        imgs.append(TruncatedPoly(model.ring_xv, terms))
    return HSDerivation(model, D.law, imgs)
