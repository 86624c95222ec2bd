"""Maps between truncated polynomial rings, and units.

The rings and their arithmetic are ``poly.TruncatedRing`` and
``poly.TruncatedPoly``, imported here: a ring with block (vars, n)
satisfies v^n = 0 for each v in the block, and its coefficients are raw
field values, so the same machinery serves the artinian model and the flat
ring F_q[x, v]/(v^(p^m)) of the rational function field model. This module
moves elements between rings (``rename``, ``convert``), evaluates term
dicts at power ladders (``evaluate``, ``substitute``) and inverts units by
their geometric series (``invert_unit``).
"""

from __future__ import annotations

from .errors import ContextMismatch, NonNilpotentImage, NotAUnit, UnknownVariable
from .poly import TruncatedPoly, TruncatedRing, add_terms

def rename(f: TruncatedPoly, target: TruncatedRing, mapping: dict) -> TruncatedPoly:
    """Move f into target, renaming variables by mapping; overflow terms drop.

    f's ring may name variables target lacks, as long as no term of f uses
    them; a term that does raises UnknownVariable. Coefficients pass through
    unchanged; the fields are not compared.
    """
    names = [mapping.get(v, v) for v in f.ring.vars]
    pos = [target._index.get(v) for v in names]
    width = len(target.vars)
    moved = []
    for e, c in f.terms.items():
        ne = [0] * width
        for v, p_i, x in zip(names, pos, e):
            if x:
                if p_i is None:
                    raise UnknownVariable(f"variable {v!r} not in ring {target!r}")
                ne[p_i] = x
        moved.append((tuple(ne), c))
    return TruncatedPoly(target, add_terms({}, moved, f.ring.ctx.add))


def convert(f: TruncatedPoly, target: TruncatedRing) -> TruncatedPoly:
    """Move f into a ring that names every variable f uses; overflow terms drop.

    Coefficients pass through unchanged, so the fields must agree.
    """
    if f.ring.ctx != target.ctx:
        raise ContextMismatch("field contexts differ")
    return rename(f, target, {})


class PowerLadder:
    """Powers of one image, each computed once, on first use.

    ladder[k] is image^k for k >= 1. A ladder built without an image stands
    for a variable with no value yet: asking it for a power raises
    UnknownVariable, so a term that needs the variable is never read as zero.
    """

    __slots__ = ("name", "pows")

    def __init__(self, name: str, image: TruncatedPoly | None):
        self.name = name
        self.pows = None if image is None else [image]

    def __getitem__(self, k: int) -> TruncatedPoly:
        pows = self.pows
        if pows is None:
            raise UnknownVariable(f"no image given for variable {self.name!r}")
        while len(pows) < k:
            pows.append(pows[-1] * pows[0])
        return pows[k - 1]


def evaluate(terms: dict, ladders, target: TruncatedRing) -> TruncatedPoly:
    """Sum of c * prod_i ladders[i][e_i] over terms {e: c}, inside target.

    The c are raw field values. Plain evaluation: images may have constant
    terms. Each term is summed into one dict in place by ``poly.add_terms``,
    so keys come out in the order of a term-by-term sum of TruncatedPolys.
    """
    origin = (0,) * len(target.vars)
    out: dict = {}
    for e, c in terms.items():
        term = target.element({origin: c})
        for lad, x in zip(ladders, e):
            if x:
                term = term * lad[x]
        add_terms(out, term.terms.items(), target.ctx.add)
    return target.element(out)


def _is_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def substitute(
    f: TruncatedPoly, images: dict[str, TruncatedPoly], target: TruncatedRing
) -> TruncatedPoly:
    """Apply the ring map sending each variable to its image inside target.

    Every variable of f's ring needs an image. The map respects the source
    truncation v^B = 0 only if each image has zero constant term and its B-th
    power vanishes in target; NonNilpotentImage otherwise. When B is a power
    of p and no target bound exceeds B, the Frobenius sends every term c*y^a
    of an image without constant term to c^B*y^(Ba) = 0, so that power is
    not computed.
    """
    for v in f.ring.vars:
        if v not in images:
            raise UnknownVariable(f"no image given for variable {v!r}")
    p, top = target.ctx.p, max(target.bounds, default=0)
    ladders = []
    for v, bound in zip(f.ring.vars, f.ring.bounds):
        img = images[v]
        if img.ring != target:
            raise ContextMismatch(f"image of {v!r} lives in a different ring")
        if img.constant_term():
            raise NonNilpotentImage(f"image of {v!r} has a nonzero constant term")
        if not (top <= bound and _is_power(bound, p)) and img**bound:
            raise NonNilpotentImage(
                f"image of {v!r} does not vanish at the source bound {bound}"
            )
        ladders.append(PowerLadder(v, img))
    return evaluate(f.terms, ladders, target)


def invert_unit(f: TruncatedPoly) -> TruncatedPoly:
    """Inverse of a unit via the geometric series on its nilpotent part.

    Over F_q a partial sum holds at most the ring's own monomials, so the
    series needs no budget; the nilpotent part must not use a variable
    without a bound, or the series never ends.
    """
    c0 = f.constant_term()
    if not c0:
        raise NotAUnit("constant term is zero")
    c0_inv = f.ring.ctx.inv(c0)
    # f = c0 * (1 - n) with n nilpotent; 1/f = c0^-1 * sum n^k
    n = f.ring.one - f.scale(c0_inv)
    out = f.ring.one
    p = n
    while p:
        out = out + p
        p = p * n
    return out.scale(c0_inv)
