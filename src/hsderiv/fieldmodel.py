"""Canonical derivations on rational function fields.

The artinian model truncates everything at x_i^(p^m); here the same
derivation acts on the full fraction field K = F_q(x_1..x_e).  The packaged
map sends the generator x_t to the law component evaluated at (x, v), which
lands in K[v]/(v^(p^m)).  Every nonzero denominator maps to a unit (its
v-constant term is the denominator itself), so the map extends to all of K
and the v-coefficients of an image give the component values D_i(f).

An image is held over one denominator: a numerator N in the flat ring
F_q[x, v]/(v^(p^m)) and a monic delta in F_q[x].  A polynomial is evaluated
at power ladders of the images of the x_t, with delta = 1.  A denominator h
maps to H = h + M with M nilpotent; with K the largest k for which M^k is
nonzero,

    1/H = sum_{k <= K} (-M)^k * h^(K-k) / h^(K+1),

so an element g/h has N = (image of g) * S for that sum S, made from the
powers of -M and of h, and delta = h^(K+1), monic because h is.  The
products that make S and the product by it count their term pairs against
INVERSE_BUDGET, each before it is taken.  A family makes S once for each
distinct denominator, and each element's product by it counts from the
pairs that making S took.

On top of the context sit the component matrix of a family over the
[p)-box, its rank over K, and the dependence and p-independence tests.
These run on the numerator rows N_ij: column j is the component column of
f_j scaled by delta_j, which changes neither the rank nor the pivot
columns.  One fraction-free elimination gives the rank and the kernel: the
rows are cross-multiplied and stripped of monomial content (``_step``) to
echelon form, each column's pivot the remaining entry with fewest terms;
for a dependent family the same step runs upward from the last pivot to a
reduced form R.  The kernel vector u of the numerator rows is 1 at the
first non-pivot column f, -R[i][f] / R[i][c_i] (monic denominator, no
gcd) at each pivot column c_i and 0 elsewhere.  The witness is
w_j = u_j * delta_j / delta_f, held as u_j itself where delta_j = delta_f:
the one kernel vector of the component matrix over K that is 1 at f.  It
is checked through u: w_j * delta_f must equal u_j * delta_j, and u,
cleared of its denominators, must make every numerator row sum to zero.
"""

from .artinian import graded_indexing
from .errors import HypothesisFailure, IndexRange, ResourceGuard, TooManyElements
from .grouplaw import FormalGroupLaw, make_additive
from .poly import NO_BOUND, MultiPoly, RatFuncDomain, RationalFunc, add_terms
from .truncated import PowerLadder, TruncatedPoly, TruncatedRing, evaluate, rename

# term pairs (|f| * |g|) the products that invert one denominator's image
# and multiply by the inverse may take together. The fields benchmark
# streams (seeds 1-10) take at most 230 and the shipped configs 39. The
# witt2 (p = 5) Wronskian denominators x1 + x2 + 1, x1 + x2^2 + 1,
# x1^2 + x2 + 1 and x1^2 + x1*x2 + x2^2 + 1 take 918, 1095, 2974 and 9874.
# 1 / (x1 + 1) has K = p^m - 1: additive, it takes about 2 * K^2, less
# where binomials vanish mod p (3185 at p = 7, m = 2; 19,109 at p = 97);
# multiplicative, where each (-M)^k has k + 1 terms, about K^3 / 6 (65,995
# at p = 67). The additive one would take 126,755 at p = 251 and about
# 8.6e9 at p = 65521; both are refused after about 60 ms (2-vCPU Xeon host).
INVERSE_BUDGET = 80_000


def _spend(spent: int, f: TruncatedPoly, g: TruncatedPoly) -> int:
    """spent plus the term pairs of f * g; ResourceGuard past the budget."""
    spent += len(f.terms) * len(g.terms)
    if spent > INVERSE_BUDGET:
        raise ResourceGuard(
            f"inverting a denominator would take {spent} term pairs, "
            f"past the budget of {INVERSE_BUDGET}")
    return spent


class FieldDerivationContext:
    """A formal group law acting as a derivation on F_q(x_1..x_e).

    The image of x_t is law component t evaluated at (x, v): the term
    c * v^a * w^b contributes c * x^a * v^b.  The images live in the flat
    ring F_q[x, v]/(v^(p^m)), whose x block has no bound, and the context
    keeps one power ladder per image, so repeated applications over the
    same context stay cheap.
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
        self.flat = TruncatedRing(
            self.ctx, [(self.xvars, NO_BOUND), (self.vvars, self.n)])
        to_flat = dict(zip(law.ring.vars, self.xvars + self.vvars))
        self._ladders = [PowerLadder(x, rename(comp, self.flat, to_flat))
                         for x, comp in zip(self.xvars, law.components)]

    def __repr__(self):
        return f"FieldDerivationContext({self.law!r})"

    def _image(self, f: MultiPoly) -> TruncatedPoly:
        """The image of a polynomial in x, in the flat ring."""
        return evaluate(f.terms, self._ladders, self.flat)

    def _inverse(self, h: MultiPoly) -> tuple[TruncatedPoly, MultiPoly, int]:
        """The inverse of the image of h over one denominator: (S, h^(K+1))
        and the term pairs spent making them.

        S = sum_{k <= K} (-M)^k * h^(K-k), where M is the image of h less h
        and K the largest k with M^k nonzero.  The powers of -M and of h are
        made side by side, so a long series meets the budget early."""
        v0 = (0,) * self.e
        hf = self.flat.element({k + v0: c for k, c in h.terms.items()})
        neg_m = hf - self._image(h)
        negs, hpows, spent = [self.flat.one], [self.flat.one], 0
        while negs[-1]:
            spent = _spend(spent, negs[-1], neg_m)
            negs.append(negs[-1] * neg_m)
            spent = _spend(spent, hpows[-1], hf)
            hpows.append(hpows[-1] * hf)
        top = len(negs) - 2
        series: dict = {}
        for k in range(top + 1):
            spent = _spend(spent, negs[k], hpows[top - k])
            add_terms(series, (negs[k] * hpows[top - k]).terms.items(), self.ctx.add)
        delta = self.dom.ring.element({k[:self.e]: c for k, c in hpows[-1].terms.items()})
        return self.flat.element(series), delta, spent

    def apply(self, f, inverses=None) -> tuple[TruncatedPoly, MultiPoly]:
        """Image of a field element over one denominator: (N, delta), N in
        the flat ring and delta monic in F_q[x], the image being N / delta.

        inverses, a dict shared by the elements of one family, keeps each
        denominator's ``_inverse`` for the next element over it; each
        product by an inverse is budgeted on its own, from the pairs that
        inverse's making spent."""
        g = self.dom.coerce(f)
        num = self._image(g.num)
        if g.den._is_one():
            return num, g.den
        if inverses is None:
            inverses = {}
        key = frozenset(g.den.terms.items())
        if key not in inverses:
            inverses[key] = self._inverse(g.den)
        series, delta, spent = inverses[key]
        _spend(spent, num, series)
        return num * series, delta

    def component(self, f, index) -> RationalFunc:
        """D_index(f) as a rational function: N's v^index coefficient over delta."""
        i = tuple(int(a) for a in index)
        if len(i) != self.e or any(a < 0 or a >= self.n for a in i):
            raise IndexRange(f"index {i} outside [0, {self.n})^{self.e}")
        rows, dens = _numerator_rows(self, [f], [i])
        return RationalFunc._monic(rows[0][0], dens[0])

    def box_indices(self) -> list[tuple[int, ...]]:
        """The [p)-box indices in graded order; these index matrix rows."""
        return list(graded_indexing((self.ctx.p,) * self.e).monomials)


def _numerator_rows(fctx: FieldDerivationContext, elements, indices=None):
    """The numerator rows N_ij of a family, i over indices (the [p)-box by
    default), and the column denominators delta_j: D_i(f_j) = N_ij / delta_j."""
    e, xring = fctx.e, fctx.dom.ring
    cols, dens, inverses = [], [], {}
    for f in elements:
        num, den = fctx.apply(f, inverses)
        by_v: dict = {}
        for k, c in num.terms.items():
            by_v.setdefault(k[e:], {})[k[:e]] = c
        cols.append(by_v)
        dens.append(den)
    if indices is None:
        indices = fctx.box_indices()
    return [[xring.element(col.get(i, {})) for col in cols] for i in indices], dens


def wronskian_matrix(fctx: FieldDerivationContext, elements) -> list[list[RationalFunc]]:
    """Component matrix of a family: entry (i, j) is D_i(f_j), i in [p)^e.

    Rows follow graded index order, so row zero is the family itself.
    """
    rows, dens = _numerator_rows(fctx, elements)
    return [[RationalFunc._monic(f, d) for f, d in zip(row, dens)] for row in rows]


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


def _step(pivot_row, row, c):
    """row with its column c cleared by pivot_row: cross-multiplied by the
    two column-c entries, then stripped of monomial content."""
    a, b = pivot_row[c], row[c]
    return _strip_content([a * row[j] - b * pivot_row[j] for j in range(len(row))])


def _echelon(rows) -> tuple[list, list[int]]:
    """Fraction-free echelon form of polynomial rows and its pivot columns,
    as many as the rank: each step scales a row by a nonzero polynomial.
    The pivot row of a column is the first whose entry there has fewest
    terms, the cheapest factor to cross-multiply the rows below by."""
    rows = [_strip_content(row) for row in rows]
    nrows = len(rows)
    pivots: list[int] = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        nonzero = [k for k in range(r, nrows) if rows[k][c]]
        if not nonzero:
            continue
        piv = min(nonzero, key=lambda k: len(rows[k][c].terms))
        rows[r], rows[piv] = rows[piv], rows[r]
        for k in range(r + 1, nrows):
            if rows[k][c]:
                rows[k] = _step(rows[r], rows[k], c)
        pivots.append(c)
        if len(pivots) == nrows:
            break
    return rows, pivots


def rank_over_field(matrix) -> int:
    """Rank over K by fraction-free elimination with content stripping.
    Entries are rational functions or polynomials; each row is cleared of
    its denominators, which scales it by a nonzero polynomial."""
    return len(_echelon([_cleared([
        e if isinstance(e, RationalFunc) else RationalFunc.from_poly(e) for e in row])
        for row in matrix])[1])


def _witness(rows, pivots) -> tuple[list[RationalFunc], int]:
    """The kernel vector of echelon rows of rank below their width that is
    one at the first non-pivot column, and that column: the same step, run
    upward from the last pivot, leaves row i nonzero at no pivot column but
    its own."""
    rows = list(rows)
    for i in range(len(pivots) - 1, 0, -1):
        c = pivots[i]
        for k in range(i):
            if rows[k][c]:
                rows[k] = _step(rows[i], rows[k], c)
    ring = rows[0][0].ring
    u = [RationalFunc.from_poly(ring.zero)] * len(rows[0])
    free = next(c for c in range(len(u)) if c not in pivots)
    u[free] = RationalFunc.from_poly(ring.one)
    for row, c in zip(rows, pivots):
        u[c] = RationalFunc(-row[free], row[c])
    return u, free


def _check_witness(rows, dens, u, w, free) -> None:
    """Raise HypothesisFailure unless w kills the component matrix, whose
    column j is column j of the numerator rows over delta_j.  It does when
    w_j * delta_free = u_j * delta_j for every j and u, cleared of its
    denominators, makes every numerator row sum to zero."""
    if any(wj * dens[free] != uj * d for uj, wj, d in zip(u, w, dens)):
        raise HypothesisFailure("witness is not the kernel vector rescaled")
    v = _cleared(u)
    for row in rows:
        acc = u[0].num.ring.zero
        for c, vj in zip(row, v):
            if c and vj:
                acc = acc + c * vj
        if acc:
            raise HypothesisFailure("kernel vector fails a component row")


def dependence_test(fctx: FieldDerivationContext, elements) -> dict:
    """Classify a family as independent or dependent over the constants.

    A dependent family comes with a kernel witness; the witness is checked
    against every numerator row before it is returned.
    """
    elems = [fctx.dom.coerce(f) for f in elements]
    rows, dens = _numerator_rows(fctx, elems)
    echelon, pivots = _echelon(rows)
    rank = len(pivots)
    if rank == len(elems):
        return {"independent": True, "rank": rank, "witness": None}
    u, free = _witness(echelon, pivots)
    # w_j = u_j * delta_j / delta_free
    w = [uj if d == dens[free] else RationalFunc._monic(uj.num * d, uj.den * dens[free])
         for uj, d in zip(u, dens)]
    _check_witness(rows, dens, u, w, free)
    return {"independent": False, "rank": rank, "witness": w}


def p_independence_test(fctx: FieldDerivationContext, elements) -> bool:
    """Whether the family is p-independent over K^p.

    The criterion runs over the power products f^a for a in [p)^n: the
    family is p-independent exactly when those p^n products are independent
    over the constants of the additive derivation in all e variables.  Only
    the [p)-box components enter, so a depth-one additive law suffices, and
    the rank is that of the numerator rows.
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
    rows, _ = _numerator_rows(base, fam)
    return len(_echelon(rows)[1]) == len(fam)
