"""Canonical derivations on rational function fields.

The artinian model truncates everything at x_i^(p^m); here the same
derivation acts on the full fraction field K = F_q(x_1..x_e).  The packaged
map sends the generator x_t to the law component evaluated at (x, v), which
lands in K[v]/(v^(p^m)).  Every nonzero denominator maps to a unit (its
v-constant term is the denominator itself), so the map extends to all of K
and the v-coefficients of an image give the component values D_i(f).

On top of the context sit three exact linear-algebra tests: the component
matrix of a family over the [p)-box, its rank over K, and the derived
dependence and p-independence classifications.
"""

from .artinian import graded_indexing
from .errors import HypothesisFailure, IndexRange, TooManyElements
from .grouplaw import FormalGroupLaw, make_additive
from .poly import MultiPoly, RatFuncDomain, RationalFunc
from .truncated import PowerLadder, TruncatedPoly, TruncatedRing, evaluate, invert_unit


class FieldDerivationContext:
    """A formal group law acting as a derivation on F_q(x_1..x_e).

    The image of x_t is law component t evaluated at (x, v): the term
    c * v^a * w^b contributes c * x^a * v^b.  Elements evaluate at the images
    through truncated.evaluate, and the context keeps one power ladder per
    image, so repeated applications over the same context stay cheap.
    """

    def __init__(self, law: FormalGroupLaw):
        self.law = law
        self.ctx = law.ctx
        self.e = law.e
        self.m = law.m
        self.n = law.ctx.p**law.m
        self.xvars = tuple(f"x{t + 1}" for t in range(self.e))
        self.vvars = tuple(f"v{t + 1}" for t in range(self.e))
        self.dom = RatFuncDomain(self.ctx, self.xvars)
        self.ring = TruncatedRing(self.ctx, [(self.vvars, self.n)], dom=self.dom)
        self._images: tuple[TruncatedPoly, ...] | None = None
        self._ladders: list[PowerLadder] | None = None

    def __repr__(self):
        return f"FieldDerivationContext({self.law!r})"

    def generator_images(self) -> tuple[TruncatedPoly, ...]:
        """Images of x_1..x_e: law component t evaluated at (x, v), cached."""
        if self._images is None:
            ring, law = self.ring, self.law
            xs = [ring.const(MultiPoly.var(self.ctx, self.xvars, x)) for x in self.xvars]
            vs = [ring.var(v) for v in self.vvars]
            lads = [PowerLadder(n, g) for n, g in zip(law.ring.vars, xs + vs)]
            self._images = tuple(evaluate(c.terms, lads, ring) for c in law.components)
        return self._images

    def apply(self, f) -> TruncatedPoly:
        """Image of a field element: a polynomial in v with coefficients in K."""
        if self._ladders is None:
            imgs = self.generator_images()
            self._ladders = [PowerLadder(x, g) for x, g in zip(self.xvars, imgs)]
        g = self.dom.coerce(f)
        num = evaluate(g.num.terms, self._ladders, self.ring)
        if g.den == 1:
            return num
        return num * invert_unit(evaluate(g.den.terms, self._ladders, self.ring))

    def component(self, f, index) -> RationalFunc:
        """D_index(f) as a rational function."""
        i = tuple(int(a) for a in index)
        if len(i) != self.e or any(a < 0 or a >= self.n for a in i):
            raise IndexRange(f"index {i} outside [0, {self.n})^{self.e}")
        return self.apply(f).coeff(i)

    def box_indices(self) -> list[tuple[int, ...]]:
        """The [p)-box indices in graded order; these index matrix rows."""
        return list(graded_indexing((self.ctx.p,) * self.e).monomials)


def wronskian_matrix(fctx: FieldDerivationContext, elements) -> list[list[RationalFunc]]:
    """Component matrix of a family: entry (i, j) is D_i(f_j), i in [p)^e.

    Rows follow graded index order, so row zero is the family itself.
    """
    cols = [fctx.apply(f) for f in elements]
    return [[col.coeff(i) for col in cols] for i in fctx.box_indices()]


def _strip_content(row: list[MultiPoly]) -> list[MultiPoly]:
    # shared monomial factors never change the rank; dropping them keeps
    # the cross-multiplied entries from growing
    nz = [f for f in row if f]
    if not nz:
        return row
    com = nz[0].monomial_content()
    for f in nz[1:]:
        com = tuple(map(min, com, f.monomial_content()))
    if not any(com):
        return row
    return [f.shift_down(com) if f else f for f in row]


def rank_over_field(matrix) -> int:
    """Rank over K via fraction-free elimination with content stripping."""
    if not matrix or not matrix[0]:
        return 0
    ncols = len(matrix[0])
    rows = []
    for row in matrix:
        # clear denominators row by row; scaling a row by a nonzero
        # polynomial leaves the rank alone
        entries = [e if isinstance(e, RationalFunc) else RationalFunc.from_poly(e) for e in row]
        cleared = []
        for j, ent in enumerate(entries):
            f = ent.num
            for k, other in enumerate(entries):
                if k != j:
                    f = f * other.den
            cleared.append(f)
        rows.append(_strip_content(cleared))
    nrows = len(rows)
    r = 0
    for c in range(ncols):
        piv = next((k for k in range(r, nrows) if rows[k][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pr = rows[r]
        for k in range(r + 1, nrows):
            if rows[k][c]:
                a, b = pr[c], rows[k][c]
                rows[k] = _strip_content(
                    [a * rows[k][j] - b * pr[j] for j in range(ncols)]
                )
        r += 1
        if r == nrows:
            break
    return r


def _kernel_vector(matrix) -> list[RationalFunc]:
    """One kernel vector of a rank-deficient matrix, by field elimination.

    The free column is the first non-pivot column, and its witness entry is
    one; that makes the output canonical for a fixed input matrix.
    """
    rows = [list(row) for row in matrix]
    nrows, ncols = len(rows), len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((k for k in range(r, nrows) if rows[k][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [inv * x for x in rows[r]]
        for k in range(nrows):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [rows[k][j] - f * rows[r][j] for j in range(ncols)]
        pivots.append(c)
        r += 1
    free = next(c for c in range(ncols) if c not in pivots)
    one = RationalFunc.from_poly(MultiPoly.one(matrix[0][0].ctx, matrix[0][0].vars))
    zero = RationalFunc.from_poly(MultiPoly.zero(matrix[0][0].ctx, matrix[0][0].vars))
    w = [zero] * ncols
    w[free] = one
    for row_i, c in enumerate(pivots):
        w[c] = zero - rows[row_i][free]
    return w


def dependence_test(fctx: FieldDerivationContext, elements) -> dict:
    """Classify a family as independent or dependent over the constants.

    A dependent family comes with a kernel witness; the witness is checked
    against every matrix row before it is returned.
    """
    elems = [fctx.dom.coerce(f) for f in elements]
    mat = wronskian_matrix(fctx, elems)
    rank = rank_over_field(mat)
    if rank == len(elems):
        return {"independent": True, "rank": rank, "witness": None}
    w = _kernel_vector(mat)
    for row in mat:
        acc = fctx.dom.zero
        for ent, wj in zip(row, w):
            acc = acc + ent * wj
        if not acc.is_zero():
            raise HypothesisFailure("kernel vector fails a component row")
    return {"independent": False, "rank": rank, "witness": w}


def p_independence_test(fctx: FieldDerivationContext, elements) -> bool:
    """Whether the family is p-independent over K^p.

    The criterion runs over the power products f^a for a in [p)^n: the
    family is p-independent exactly when those p^n products are independent
    over the constants of the additive derivation in all e variables.  Only
    the [p)-box components enter, so a depth-one additive law suffices.
    """
    elems = [fctx.dom.coerce(f) for f in elements]
    n = len(elems)
    if n > fctx.e:
        raise TooManyElements(
            f"{n} elements of a field of degree p^{fctx.e} over its p-th powers"
        )
    base = FieldDerivationContext(make_additive(fctx.ctx, fctx.e, 1))
    fam = []
    for a in graded_indexing((fctx.ctx.p,) * n).monomials:
        g = base.dom.one
        for t, k in enumerate(a):
            if k:
                g = g * elems[t] ** k
        fam.append(g)
    mat = wronskian_matrix(base, fam)
    return rank_over_field(mat) == len(fam)
