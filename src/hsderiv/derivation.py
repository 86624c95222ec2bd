"""Truncated iterative derivations in matrix form.

An HSDerivation is determined by the images D(x_t) = sum_i D_i(x_t) v^i of
the model generators, stored as elements of the model ring with the v-block
adjoined. One dense table D(x^a) over the whole exponent cube holds every
component D_i as a matrix on the graded monomial basis. The table comes from
matrices already in hand whenever there are any: a canonical derivation
shares its law's power table, a twist conjugates the table it twists, and a
reconstruction keeps the stack it rebuilt. Otherwise it is built from the
images by the Frobenius ladder of ArtinianModel.power_table.

A twist and a reconstruction are derivations built from their matrices
(HSDerivation._from_matrices): a table source, an axis-stack source and
whether the input was known to be iterative. Their weight-zero component
is the identity by construction, and their images are read off the table
by apply on the generators the first time they are asked for.

A reader that needs only the axis components D_{j e_l}, j < n (the
p-power and unit components among them), takes the e per-axis stacks of
axis_stack instead: dim^2 * n digits each, against dim^3 for the table.
They are read from the table when it is built, and otherwise made from the
same sources: the ladder on the images with v_k = 0 for k != l, the
conjugation of the twisted derivation's axis stack, or a slice of a
reconstructed stack. An axis stack is not kept: its reader (the tower)
copies the few matrices it needs and lets the stack go. So a twisted tower
conjugates the untwisted derivation's axis stacks and builds no table.

Iterativity over a formal group law F is the family of identities
D_j D_i = sum_k c(k) D_k where c(k) is the coefficient of v^i w^j in F^k.
The table view turns the check and the derived constructions (p-fold
composite, twist by an automorphism, reconstruction from p-power
components) into matrix work over the coefficient field.
"""

from __future__ import annotations

import threading

import numpy as np

from .artinian import TABLE_BLOCK, ArtinianModel
from .errors import (
    ContextMismatch,
    FractionalExponent,
    IndexRange,
    LawAxiomFailure,
    NotInvertible,
    ReconstructionMismatch,
    RequiresCommutative,
)
from .gf import multinomial_mod_p
from .grouplaw import (
    FormalGroupLaw,
    iterated_law,
    structure_constants,
    truncate_law,
)
from .linalg import inv_matrix
from .poly import add_terms
from .truncated import TruncatedPoly, TruncatedRing, convert, rename


class OperatorMatrix:
    """One component as a matrix acting on the graded monomial basis."""

    def __init__(self, model: ArtinianModel, mat: np.ndarray):
        self.model = model
        self.mat = mat

    @classmethod
    def zero(cls, model: ArtinianModel) -> "OperatorMatrix":
        return cls(model, model.ctx.zeros((model.dim, model.dim)))

    def __eq__(self, other):
        return (
            isinstance(other, OperatorMatrix)
            and self.model == other.model
            and np.array_equal(self.mat, other.mat)
        )

    def __repr__(self):
        return f"OperatorMatrix(dim={self.model.dim})"

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return OperatorMatrix(self.model, self.model.ctx.mat_mul(self.mat, other.mat))

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return OperatorMatrix(self.model, self.model.ctx.arr_add(self.mat, other.mat))

    def scale(self, c) -> "OperatorMatrix":
        digits = self.model.ctx.scalar(c).digits
        return OperatorMatrix(self.model, self.model.ctx.arr_scale(digits, self.mat))

    def is_zero(self) -> bool:
        return not np.any(self.mat)

    def apply_vec(self, vec: np.ndarray) -> np.ndarray:
        return self.model.ctx.mat_vec(self.mat, vec)

    def apply(self, f: TruncatedPoly) -> TruncatedPoly:
        return self.model.poly_from_vec(self.apply_vec(self.model.vec_from_poly(f)))


class HSDerivation:
    """Iterative-derivation candidate given by its generator images.

    The weight-zero component must be the identity; that much is enforced at
    construction. A derivation built from its matrices (_from_matrices: a
    twist, a reconstruction) has it by construction, and reads its images
    off its table when they are first asked for. Whether the family
    actually satisfies the iterativity identities for its law is a separate
    question answered by check_iterativity. known_iterative records that it
    does: it is set for a canonical derivation, a twist or reconstruction of
    a known-iterative one, and by a passing check_iterativity.
    """

    def __init__(self, model: ArtinianModel, law: FormalGroupLaw, images):
        if law.ctx != model.ctx:
            raise ContextMismatch("law and model over different fields")
        if law.e != model.e or law.m != model.m:
            raise ContextMismatch("law and model shapes differ")
        imgs = tuple(images)
        if any(f.ring != model.ring_xv for f in imgs):
            raise ContextMismatch("image lives outside the model ring")
        if len(imgs) != model.e:
            raise ValueError(f"expected {model.e} images, got {len(imgs)}")
        e = model.e
        for t, f in enumerate(imgs):
            vfree = {ex[:e]: c for ex, c in f.terms.items() if not any(ex[e:])}
            if vfree != {tuple(int(i == t) for i in range(e)): 1}:
                raise LawAxiomFailure("the weight-zero component must act as the identity")
        self._setup(model, law, imgs, None, None, False)

    def _setup(self, model, law, images, source, axis_source, known_iterative):
        self.model = model
        self.law = law
        # None: read off the table by apply, on first use
        self._images = images
        self.known_iterative = known_iterative
        # callables returning the table, and an axis stack, from matrices
        # already in hand; None builds them from the images
        self._source = source
        self._axis_source = axis_source
        self._tab = None
        self._tab_lock = threading.Lock()

    @classmethod
    def _from_matrices(cls, model, law, source, axis_source, known_iterative):
        """The derivation whose table is source() and whose axis stack l is
        axis_source(l). Its images are read off the table the first time
        they are asked for; its weight-zero component is the identity by
        construction, so nothing checks it."""
        D = cls.__new__(cls)
        D._setup(model, law, None, source, axis_source, known_iterative)
        return D

    @property
    def images(self) -> tuple:
        """D(x_t) for t < e, in ring_xv."""
        if self._images is None:
            # built first, so that apply under the lock finds the table and
            # does not take the lock again
            self.table()
            with self._tab_lock:
                if self._images is None:
                    self._images = tuple(self.apply(self.model.ring.var(x))
                                         for x in self.model.xvars)
        return self._images

    def __eq__(self, other):
        return (
            isinstance(other, HSDerivation)
            and self.model == other.model
            and self.law == other.law
            and self.images == other.images
        )

    def __repr__(self):
        return f"HSDerivation(kind={self.law.kind}, {self.model!r})"

    # dense table: tab[a, b, i] = coefficient of x^b v^i in D(x^a),
    # all three axes in graded order (ArtinianModel.power_table)

    def table(self) -> np.ndarray:
        if self._tab is None:
            with self._tab_lock:
                if self._tab is None:
                    self._tab = self._build_table()
                    self._source = self._axis_source = None
        return self._tab

    def _build_table(self, axis=None) -> np.ndarray:
        """The table, or for an axis l the stack of axis_stack(l).

        Every derivation table and axis stack is made here."""
        if axis is None:
            if self._source is None:
                return self.model.power_table(self.images)
            return self._source()
        if self._axis_source is None:
            return self._axis_ladder(axis)
        return self._axis_source(axis)

    def _axis_ladder(self, l: int) -> np.ndarray:
        """Axis stack l by the product ladder on the images with v_k = 0 for
        k != l, a (dim, dim, n) table on the model box and one v-axis."""
        model = self.model
        e, n = model.e, model.n
        ring = TruncatedRing(model.ctx, [(model.xvars, n), ((model.vvars[l],), n)])
        imgs = []
        for f in self.images:
            terms = {ex[:e] + (ex[e + l],): c for ex, c in f.terms.items()
                     if not any(ex[e:e + l] + ex[e + l + 1:])}
            imgs.append(TruncatedPoly(ring, terms))
        return model.power_table(imgs, extra=1).transpose(2, 1, 0, 3)

    def matrix_stack(self) -> np.ndarray:
        """C-contiguous stack[i_rank] = matrix of the component at graded rank i."""
        return self.table().transpose(2, 1, 0, 3)

    def axis_stack(self, l: int) -> np.ndarray:
        """C-contiguous stack[j] = matrix of D_{j e_l}, j < n: (n, dim, dim, d).

        The matrices are those of component(), byte for byte. They are read
        from the table when it is built; otherwise only this axis is made,
        dim^2 * n * d digits, on every call: a caller keeps what it reads.
        For e = 1 the axis stack is the table itself.
        """
        ranks = self.model.axis_ranks(l)
        if self.model.e == 1:
            return self.matrix_stack()
        tab = self._tab
        if tab is not None:
            return tab.transpose(2, 1, 0, 3)[ranks]
        return self._build_table(l)

    def component(self, i) -> OperatorMatrix:
        i = tuple(int(t) for t in i)
        if len(i) != self.model.e or any(t < 0 or t >= self.model.n for t in i):
            raise IndexRange(f"component index {i} outside the exponent cube")
        return OperatorMatrix(self.model, self.matrix_stack()[self.model.xidx.rank[i]])

    def compose(self, j, i) -> OperatorMatrix:
        """Matrix of r -> D_j(D_i(r)); the outer index comes first."""
        return self.component(j) @ self.component(i)

    def apply(self, f: TruncatedPoly) -> TruncatedPoly:
        """Image of a model element under the packaged map into ring_xv."""
        model, ctx = self.model, self.model.ctx
        dim, d = model.dim, ctx.d
        stack = self.matrix_stack().reshape(dim * dim, dim, d)
        # flat[b * dim + i] = coefficient of x^b v^i in D(f)
        flat = ctx.mat_vec(stack, model.vec_from_poly(f)).reshape(dim, dim, d)
        flat = flat.transpose(1, 0, 2).reshape(dim * dim, d)
        nz = np.flatnonzero(flat.any(axis=1))
        terms = {}
        for pos, row in zip(nz.tolist(), flat[nz].tolist()):
            b, i = divmod(pos, dim)
            terms[model.xidx.monomials[b] + model.vidx.monomials[i]] = ctx.pack(row)
        return model.ring_xv.element(terms)

    def check_iterativity(self) -> bool:
        """Test the composition identities against the law, exactly.

        Both routes below extend multiplicatively from generators: each side
        of the identity is a composite of coefficient-field algebra maps, so
        agreement on the e generator images forces agreement on every x^a.
        """
        model, ctx = self.model, self.model.ctx
        shape = (model.dim,) * 3 + (ctx.d,)
        # both stacks are C-contiguous with the last graded axis first:
        # stack[j, b, a] from D(x^a), fstack[j, i, k] = coeff of v^i w^j in F^k
        cube = self.matrix_stack()
        stack = cube.reshape(model.dim**2, model.dim, ctx.d)
        fstack = self.law._power_table()[0].transpose(2, 1, 0, 3)
        fstack = fstack.reshape(model.dim**2, model.dim, ctx.d)
        for t in range(model.e):
            unit = tuple(1 if l == t else 0 for l in range(model.e))
            # r[i, a] = coefficient of x^a v^i in D(x_t): the column at x_t
            r = cube[:, :, model.xidx.rank[unit]]
            # route 1: expand D(x_t) coefficientwise through the table
            lhs = ctx.mat_mul(stack, r.transpose(1, 0, 2)).reshape(shape)
            # route 2: pair each component of D(x_t) with the matching F^k
            rhs = ctx.mat_mul(fstack, r).reshape(shape)
            if not np.array_equal(lhs.transpose(0, 2, 1, 3), rhs):
                return False
        self.known_iterative = True
        return True


def canonical_derivation(model: ArtinianModel, law: FormalGroupLaw) -> HSDerivation:
    """The derivation with D(x_t) = F_t(x, v), iterative by associativity."""
    mapping = {}
    for l in range(law.e):
        mapping[f"v{l+1}"] = f"x{l+1}"
        mapping[f"w{l+1}"] = f"v{l+1}"
    imgs = [rename(f, model.ring_xv, mapping) for f in law.components]
    D = HSDerivation(model, law, imgs)
    D.known_iterative = True
    # tab[a, b, i] = coefficient of x^b v^i in F^a(x, v): the law's table
    D._source = lambda: law._power_table()[0]
    return D


def truncate_derivation(D: HSDerivation, m2: int) -> HSDerivation:
    """Reduce the truncation order; out-of-range exponents drop."""
    law2 = truncate_law(D.law, m2)
    model2 = ArtinianModel(D.model.ctx, D.model.e, m2)
    imgs = [convert(f, model2.ring_xv) for f in D.images]
    return HSDerivation(model2, law2, imgs)


def evp_point(law: FormalGroupLaw):
    """The point G = [p](v^(1/p)) the p-fold composite evaluates at.

    The p-series is taken slotwise: combine p copies of the variable block
    through the law, keeping each copy's exponents below the truncation
    bound, only then merge the copies. Merging adds exponents, so entries
    reach p times the bound and survive where the one-block p-series would
    truncate to zero; every surviving exponent must then be a multiple of p
    (FractionalExponent otherwise) and is divided by p. Coefficients are
    never touched. Returns one polynomial per coordinate, in a fresh ring
    on the v-variables.
    """
    ctx, e, p = law.ctx, law.e, law.ctx.p
    _, comps = iterated_law(law, p)
    ring = TruncatedRing(ctx, [(law.vnames, ctx.p**law.m)])
    out = []
    for f in comps:
        merged = add_terms({}, [
            (tuple(sum(ex[t * e + l] for t in range(p)) for l in range(e)), c)
            for ex, c in f.terms.items()], ring.dom.add)
        terms = {}
        for tot, c in merged.items():
            if any(x % p for x in tot):
                raise FractionalExponent(
                    "a p-series exponent is not divisible by the characteristic"
                )
            terms[tuple(x // p for x in tot)] = c
        out.append(TruncatedPoly(ring, terms))
    return out


def p_fold_evP(D: HSDerivation) -> dict:
    """Components of the p-fold self-composite, keyed by exponent tuple.

    Composing the packaged map with itself p times and merging the p variable
    blocks diagonally turns every v into v^(1/p) applied to the p-series, so
    the composite components come from one substitution: D^(p)(r) =
    sum_k D_k(r) G^k at the point G of evp_point. Needs a commutative law;
    FractionalExponent propagates from evp_point for custom components whose
    p-series leaves the p-grid.
    """
    model, law, ctx = D.model, D.law, D.model.ctx
    if not law.commutative:
        raise RequiresCommutative("p-fold composition needs a commutative law")
    dim = model.dim
    # new stack[k] = sum_i pg[i, k] stack[i], pg[i, k] = coefficient of
    # v^k in G^i: a product over the slowest axis of D's stack, so the
    # table is read in place and each new component is a C-contiguous
    # block. It runs in column blocks of TABLE_BLOCK digits (1/64 of the
    # columns at the largest dims, to repay each product's fixed costs),
    # each as (block^T pg)^T so that the small pg is the folded operand.
    pg = model.power_table(evp_point(law))
    src = D.matrix_stack().reshape(dim, dim * dim, ctx.d)
    out = np.empty(src.shape, dtype=np.int64)
    step = max(1, dim * dim // 64, TABLE_BLOCK // (dim * ctx.d))
    for j in range(0, dim * dim, step):
        block = ctx.mat_mul(src[:, j : j + step].swapaxes(0, 1), pg)
        out[:, j : j + step] = block.swapaxes(0, 1)
    stack = out.reshape(dim, dim, dim, ctx.d)
    return {
        idx: OperatorMatrix(model, stack[r])
        for r, idx in enumerate(model.xidx.monomials)
    }


def witt2_pfold_expansion(law: FormalGroupLaw, j: int) -> dict:
    """Predicted p-fold component at index (0, j) as a combination of the
    components at (s, 0): map s -> coefficient, from the multinomial
    expansion of the j-th coefficient of powers of the exponent-divided
    p-series first block.
    """
    if law.kind != "witt2":
        raise ContextMismatch("expansion is specific to the two-block law")
    ctx, p, m = law.ctx, law.ctx.p, law.m
    j = int(j)
    if j < 0 or j >= p**m:
        raise IndexRange(f"index {j} outside the exponent range")
    out: dict = {}

    def rec(level, rem, parts):
        if level == m:
            if rem:
                return
            s = sum(parts)
            c = ctx.scalar(multinomial_mod_p(parts, p))
            if s % 2:
                c = -c
            for n, i_n in enumerate(parts):
                if i_n:
                    c = c * law.alphas[n] ** i_n
            if c:
                out[s] = out.get(s, ctx.zero) + c
            return
        step = p**level
        for i_n in range(rem // step + 1):
            rec(level + 1, rem - i_n * step, parts + [i_n])

    rec(0, j, [])
    return {s: c for s, c in out.items() if c}


def _conjugation(model: ArtinianModel, phimat, phiinv):
    """Maps a C-contiguous stack of D's matrices S to Phi S Phi^-1, in its
    layout. The result is guarded and allocated first, then written block
    by block: a block's tall product with Phi^-1 goes into one reused
    buffer, and its batched product with Phi straight into the result.
    A block holds TABLE_BLOCK / 4 digits, so the buffer and mat_mul's
    float64 copies stay near one TABLE_BLOCK, and a conjugation holds its
    input, its result and that, never the whole product with Phi^-1. At
    dim 128 and up one matrix is past that; a block then holds dim // 64
    matrices (1/64 of the stack), enough to repay each product's fixed
    costs."""
    ctx, dim = model.ctx, model.dim
    step = max(1, dim // 64, TABLE_BLOCK // (4 * dim * dim * ctx.d))

    def conjugate(stack: np.ndarray) -> np.ndarray:
        model.guard_table(stack.shape[:-1])
        out = np.empty(stack.shape, dtype=np.int64)
        right = np.empty((min(step, len(stack)),) + stack.shape[1:], dtype=np.int64)
        for i in range(0, len(stack), step):
            block = stack[i : i + step]
            r = right[: len(block)]
            ctx.mat_mul(block.reshape(-1, dim, ctx.d), phiinv, r.reshape(-1, dim, ctx.d))
            ctx.mat_mul(phimat, r, out[i : i + step])
        return out

    return conjugate


def twist_by_automorphism(D: HSDerivation, phi) -> HSDerivation:
    """Conjugate by the algebra automorphism sending x_t to phi[t].

    phi must fix the origin and have invertible linear part; NotInvertible
    otherwise. Phi is the matrix of r -> r(phi), and one elimination,
    inv_matrix, gives Phi^-1. The twist T = phi* D psi*, psi the inverse
    automorphism, has the components T_i = Phi D_i Phi^-1, and so the
    images T(x_t) = Phi D(psi_t).

    T is built from its matrices (HSDerivation._from_matrices): T's table
    is D's table conjugated, written block by block (_conjugation), so a
    twist holds D's table and T's, not a third for the product with
    Phi^-1; T's axis stacks are Phi D_{j e_l} Phi^-1 from D's axis stacks,
    and need no table at all. Both give the bytes of the product ladder on
    T's images. T's table is admitted before any elimination on Phi, and
    nothing is built until T is read. T is known iterative when D is.
    """
    model, ctx = D.model, D.model.ctx
    e = model.e
    phi = list(phi)
    if len(phi) != e:
        raise ValueError(f"expected {e} images, got {len(phi)}")
    lin = ctx.zeros((e, e))
    units = [tuple(1 if i == l else 0 for i in range(e)) for l in range(e)]
    for t, f in enumerate(phi):
        if f.ring != model.ring:
            raise ContextMismatch("twist image lives outside the model ring")
        if f.constant_term():
            raise NotInvertible("twist must fix the origin")
        for l, unit in enumerate(units):
            lin[t, l] = ctx.unpack(f.coeff(unit))
    inv_matrix(ctx, lin)  # NotInvertible for a singular linear part
    # T's table is admitted before any elimination on Phi
    model.guard_table((model.dim,) * 3)
    # phimat[b, a] = coefficient of x^b in phi^a
    phimat = model.power_table(phi).transpose(1, 0, 2)
    conjugate = _conjugation(model, phimat, inv_matrix(ctx, phimat))
    return HSDerivation._from_matrices(
        model, D.law,
        lambda: conjugate(D.matrix_stack()).transpose(2, 1, 0, 3),
        lambda l: conjugate(D.axis_stack(l)),
        D.known_iterative)


def reconstruct_from_ppowers(D: HSDerivation) -> HSDerivation:
    """Rebuild the derivation from its components at p-power indices.

    Indices are processed in graded order. For the first nonzero coordinate
    l of j with leading base-p digit g at position s, peeling one p^s off
    j gives D_j0 D_i0 = sum_k c(k) D_k whose top-weight term is g D_j; all
    lower terms are already known, so D_j follows by division. Every rebuilt
    matrix is checked against the stored component; disagreement (possible
    when the family is not actually iterative) raises ReconstructionMismatch.
    The result is built from the rebuilt matrices alone
    (HSDerivation._from_matrices): the rebuilt stack is its table, its axis
    stacks are slices of it and its images are read off it, so it equals
    the input exactly when every check passed. It is known iterative when
    the input is.
    """
    model, law, ctx = D.model, D.law, D.model.ctx
    e, p, m, dim = model.e, model.ctx.p, model.m, model.dim
    rank = model.xidx.rank
    model.guard_table((dim,) * 3)
    # stack[rank[j]] = rebuilt matrix of D_j, the layout of matrix_stack()
    stack = ctx.zeros((dim, dim, dim))
    stack[0] = ctx.mat_eye(dim)
    known = {(0,) * e}
    for l in range(e):
        for s in range(m):
            idx = tuple(p**s if t == l else 0 for t in range(e))
            stack[rank[idx]] = D.component(idx).mat
            known.add(idx)
    for j in model.xidx.monomials:
        if j in known:
            continue
        l = next(t for t, x in enumerate(j) if x)
        s = 0
        while p ** (s + 1) <= j[l]:
            s += 1
        i0 = tuple(p**s if t == l else 0 for t in range(e))
        j0 = tuple(x - p**s if t == l else x for t, x in enumerate(j))
        sc = structure_constants(law, i0, j0)
        lead = sc.get(j)
        if lead is None:
            raise ReconstructionMismatch(
                f"leading structure constant at {j} vanished"
            )
        acc = ctx.mat_mul(stack[rank[j0]], stack[rank[i0]])
        for k, c in sc.items():
            if k == j:
                continue
            if k not in known:
                raise ReconstructionMismatch(
                    f"index {k} needed before it is available"
                )
            acc = ctx.arr_add(acc, ctx.arr_neg(ctx.arr_scale(c.digits, stack[rank[k]])))
        rebuilt = ctx.arr_scale(lead.inverse().digits, acc)
        if not np.array_equal(rebuilt, D.component(j).mat):
            raise ReconstructionMismatch(
                f"component {j} is not generated by the p-power components"
            )
        stack[rank[j]] = rebuilt
        known.add(j)
    return HSDerivation._from_matrices(
        model, law,
        lambda: stack.transpose(2, 1, 0, 3),
        lambda l: stack[model.axis_ranks(l)],
        D.known_iterative)
