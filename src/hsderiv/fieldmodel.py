"""Canonical derivations on rational function fields.

The artinian model truncates everything at x_i^(p^m); here the same
derivation acts on the full fraction field K = F_q(x_1..x_e).  The packaged
map sends the generator x_t to the law component evaluated at (x, v), which
lands in K[v]/(v^(p^m)).  Every nonzero denominator maps to a unit (its
v-constant term is the denominator itself), so the map extends to all of K
and the v-coefficients of an image give the component values D_i(f).

A polynomial is evaluated in one flat ring F_q[x, v]/(v^(p^m)) with raw
field values as coefficients, and the result is lifted once into K[v]/(v^(p^m)):
each v-exponent's terms become one polynomial in x over denominator one.
Only a rational element then goes through ``invert_unit`` and a product of
rational functions.

On top of the context sit three exact linear-algebra tests: the component
matrix of a family over the [p)-box, its rank over K, and the derived
dependence and p-independence classifications.  A dependence witness is
checked on polynomials: the witness and each matrix row are cleared of
their distinct denominators, and each row's cleared sum must vanish.  The
dependence test clears each row once and hands the same polynomial rows to
the rank and to the witness check.
"""

from operator import add

from .artinian import graded_indexing
from .errors import HypothesisFailure, IndexRange, TooManyElements
from .grouplaw import FormalGroupLaw, make_additive
from .poly import NO_BOUND, MultiPoly, RatFuncDomain, RationalFunc, add_terms
from .truncated import PowerLadder, TruncatedPoly, TruncatedRing, invert_unit, rename


class _Ordered:
    """A polynomial of the flat ring together with ``order``, the v-exponents
    of its nonzero terms in the key order the same product takes in
    K[v]/(v^(p^m)).

    Rational functions are summed without a gcd, so when a partial sum
    cancels, the order in which a product's terms are visited shows in the
    denominators it leaves.  The order of a product follows
    ``poly.product_terms`` on the v-exponents alone: the factor with fewer
    of them outermost, each sum at its first appearance.  The context's
    power ladders hold these pairs.
    """

    __slots__ = ("flat", "order")

    def __init__(self, flat: TruncatedPoly, order: tuple):
        self.flat = flat
        self.order = order

    def __mul__(self, other: "_Ordered") -> "_Ordered":
        flat = self.flat * other.flat
        e = len(flat.ring.blocks[0][0])
        support = {k[e:] for k in flat.terms}
        a, b = self.order, other.order
        if len(a) > len(b):
            a, b = b, a
        order = {}
        for b1 in a:
            for b2 in b:
                s = tuple(map(add, b1, b2))
                if s in support:
                    order[s] = None
        return _Ordered(flat, tuple(order))


class FieldDerivationContext:
    """A formal group law acting as a derivation on F_q(x_1..x_e).

    The image of x_t is law component t evaluated at (x, v): the term
    c * v^a * w^b contributes c * x^a * v^b.  The images live in the flat
    ring F_q[x, v]/(v^(p^m)), whose x block has no bound, and the context
    keeps one power ladder per image, so repeated applications over the
    same context stay cheap.  ``apply`` lifts each flat result into
    ``ring`` = K[v]/(v^(p^m)) with the key order of a term-by-term
    evaluation in that ring.
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
        self.flat = TruncatedRing(
            self.ctx, [(self.xvars, NO_BOUND), (self.vvars, self.n)])
        to_flat = dict(zip(law.ring.vars, self.xvars + self.vvars))
        self._ladders = []
        for x, comp in zip(self.xvars, law.components):
            img = rename(comp, self.flat, to_flat)
            # distinct terms of a component never cancel within a v-exponent
            order = tuple(dict.fromkeys(k[self.e:] for k in img.terms))
            self._ladders.append(PowerLadder(x, _Ordered(img, order)))

    def __repr__(self):
        return f"FieldDerivationContext({self.law!r})"

    def _evaluate(self, terms: dict) -> TruncatedPoly:
        """The image of the polynomial with raw terms {e: c}, in ``ring``.

        Each term is a product of ladder powers in the flat ring, summed
        into its v-exponent's x-terms by ``poly.add_terms``; a v-exponent is
        dropped the moment its terms cancel, so the v-exponents come out in
        the order of a term-by-term sum of the images in ``ring``.
        """
        e, flat = self.e, self.flat
        origin, v0 = (0,) * (2 * e), (0,) * e
        out: dict = {}
        for ex, c in terms.items():
            term = _Ordered(flat.element({origin: c}), (v0,))
            for lad, x in zip(self._ladders, ex):
                if x:
                    term = term * lad[x]
            groups: dict = {b: {} for b in term.order}
            for k, v in term.flat.terms.items():
                groups[k[e:]][k[:e]] = v
            for b, g in groups.items():
                acc = out.get(b)
                if acc is None:
                    out[b] = g
                elif not add_terms(acc, g.items(), flat.dom.add):
                    del out[b]
        xring = self.dom.ring
        return self.ring.element({
            b: RationalFunc.from_poly(xring.element(g)) for b, g in out.items()})

    def apply(self, f) -> TruncatedPoly:
        """Image of a field element: a polynomial in v with coefficients in K."""
        g = self.dom.coerce(f)
        num = self._evaluate(g.num.terms)
        if g.den._is_one():
            return num
        return num * invert_unit(self._evaluate(g.den.terms))

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


def _cleared(entries) -> list[MultiPoly]:
    """The entries over one common denominator, the product of their
    distinct denominators: entry j's numerator times the distinct
    denominators other than its own.  Each entry is scaled by the same
    nonzero polynomial, so a linear relation holds for the entries exactly
    when it holds for the cleared polynomials."""
    dens: list[MultiPoly] = []
    own = []
    for ent in entries:
        d = ent.den
        if d._is_one():
            own.append(-1)
            continue
        if d not in dens:
            dens.append(d)
        own.append(dens.index(d))
    out = []
    for ent, i in zip(entries, own):
        f = ent.num
        if f:
            for k, d in enumerate(dens):
                if k != i:
                    f = f * d
        out.append(f)
    return out


def _polynomial_rows(matrix) -> list[list[MultiPoly]]:
    """Each row as polynomials: a row of MultiPoly entries is taken as it
    is, as ``_cleared`` returns it; any other row is cleared of its
    denominators. Clearing scales a row by a nonzero polynomial, which
    changes neither the rank nor whether a vector annihilates the row."""
    return [
        row if all(type(e) is MultiPoly for e in row) else _cleared(
            [e if isinstance(e, RationalFunc) else RationalFunc.from_poly(e) for e in row])
        for row in matrix
    ]


def rank_over_field(matrix) -> int:
    """Rank over K via fraction-free elimination with content stripping.
    Entries are rational functions or polynomials; see ``_polynomial_rows``."""
    if not matrix or not matrix[0]:
        return 0
    ncols = len(matrix[0])
    rows = [_strip_content(row) for row in _polynomial_rows(matrix)]
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
    ring = matrix[0][0].num.ring
    one, zero = RationalFunc.from_poly(ring.one), RationalFunc.from_poly(ring.zero)
    w = [zero] * ncols
    w[free] = one
    for row_i, c in enumerate(pivots):
        w[c] = zero - rows[row_i][free]
    return w


def _check_witness(matrix, w) -> None:
    """Raise HypothesisFailure unless matrix · w = 0 over K.

    With u the witness cleared of its denominators (w = u / L for the
    product L of its distinct denominators) and each row cleared of its own
    (``_polynomial_rows``: a row of polynomials is taken as already
    cleared), row · w = 0 exactly when the cleared row times u is the zero
    polynomial.
    """
    u = _cleared(w)
    for row in _polynomial_rows(matrix):
        acc = w[0].num.ring.zero
        for c, uj in zip(row, u):
            if c and uj:
                acc = acc + c * uj
        if acc:
            raise HypothesisFailure("kernel vector fails a component row")


def dependence_test(fctx: FieldDerivationContext, elements) -> dict:
    """Classify a family as independent or dependent over the constants.

    A dependent family comes with a kernel witness; the witness is checked
    against every matrix row before it is returned. Each row is cleared of
    its denominators once, for the rank and for that check.
    """
    elems = [fctx.dom.coerce(f) for f in elements]
    mat = wronskian_matrix(fctx, elems)
    rows = [_cleared(row) for row in mat]
    rank = rank_over_field(rows)
    if rank == len(elems):
        return {"independent": True, "rank": rank, "witness": None}
    w = _kernel_vector(mat)
    _check_witness(rows, w)
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
