"""Truncated iterative derivations in matrix form.

An HSDerivation is determined by the images D(x_t) = sum_i D_i(x_t) v^i of
the model generators, stored as elements of the model ring with the v-block
adjoined. From these one dense table D(x^a) over the whole exponent cube is
built by repeated multiplication, and every component D_i becomes a matrix
on the graded monomial basis.

Iterativity over a formal group law F is the family of identities
D_j D_i = sum_k c(k) D_k where c(k) is the coefficient of v^i w^j in F^k.
The table view turns the check and the derived constructions (p-fold
composite, twist by an automorphism, reconstruction from p-power
components) into matrix work over the coefficient field.
"""

from __future__ import annotations

import threading

import numpy as np

from .artinian import ArtinianModel
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
from .linalg import inv_matrix, rref
from .truncated import TruncatedPoly, TruncatedRing, convert, rename


class OperatorMatrix:
    """One component as a matrix acting on the graded monomial basis."""

    def __init__(self, model: ArtinianModel, mat: np.ndarray):
        self.model = model
        self.mat = mat

    @classmethod
    def identity(cls, model: ArtinianModel) -> "OperatorMatrix":
        return cls(model, model.ctx.mat_eye(model.dim))

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

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return OperatorMatrix(
            self.model,
            self.model.ctx.arr_add(self.mat, self.model.ctx.arr_neg(other.mat)),
        )

    def scale(self, c) -> "OperatorMatrix":
        digits = self.model.ctx.scalar(c).digits
        return OperatorMatrix(self.model, self.model.ctx.arr_scale(digits, self.mat))

    def power(self, k: int) -> "OperatorMatrix":
        return OperatorMatrix(self.model, self.model.ctx.mat_pow(self.mat, k))

    def is_zero(self) -> bool:
        return not np.any(self.mat)

    def apply_vec(self, vec: np.ndarray) -> np.ndarray:
        return self.model.ctx.mat_vec(self.mat, vec)

    def apply(self, f: TruncatedPoly) -> TruncatedPoly:
        return self.model.poly_from_vec(self.apply_vec(self.model.vec_from_poly(f)))


class HSDerivation:
    """Iterative-derivation candidate given by its generator images.

    The weight-zero component must be the identity; that much is enforced at
    construction. Whether the family actually satisfies the iterativity
    identities for its law is a separate question answered by
    check_iterativity.
    """

    def __init__(self, model: ArtinianModel, law: FormalGroupLaw, images):
        if law.ctx != model.ctx:
            raise ContextMismatch("law and model over different fields")
        if law.e != model.e or law.m != model.m:
            raise ContextMismatch("law and model shapes differ")
        self.model = model
        self.law = law
        imgs = []
        for f in images:
            if f.ring != model.ring_xv:
                raise ContextMismatch("image lives outside the model ring")
            imgs.append(f)
        if len(imgs) != model.e:
            raise ValueError(f"expected {model.e} images, got {len(imgs)}")
        e = model.e
        for t, f in enumerate(imgs):
            vfree = {
                ex[:e]: c for ex, c in f.terms.items() if not any(ex[e:])
            }
            unit = tuple(1 if i == t else 0 for i in range(e))
            if vfree != {unit: model.ctx.one}:
                raise LawAxiomFailure(
                    "the weight-zero component must act as the identity"
                )
        self.images = tuple(imgs)
        self._tab = None
        self._tab_lock = threading.Lock()

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
        return self._tab

    def _build_table(self) -> np.ndarray:
        return self.model.power_table(self.images)

    def matrix_stack(self) -> np.ndarray:
        """C-contiguous stack[i_rank] = matrix of the component at graded rank i."""
        return self.table().transpose(2, 1, 0, 3)

    def _check_index(self, i) -> tuple:
        i = tuple(int(t) for t in i)
        if len(i) != self.model.e or any(t < 0 or t >= self.model.n for t in i):
            raise IndexRange(f"component index {i} outside the exponent cube")
        return i

    def component(self, i) -> OperatorMatrix:
        i = self._check_index(i)
        return OperatorMatrix(self.model, self.matrix_stack()[self.model.xidx.rank[i]])

    def component_apply(self, i, f: TruncatedPoly) -> TruncatedPoly:
        return self.component(i).apply(f)

    def compose(self, j, i) -> OperatorMatrix:
        """Matrix of r -> D_j(D_i(r)); the outer index comes first."""
        return self.component(j) @ self.component(i)

    def _poly_from_bi(self, cube: np.ndarray) -> TruncatedPoly:
        model = self.model
        flat = cube.reshape(model.dim * model.dim, model.ctx.d)
        terms = {}
        for pos in np.flatnonzero(flat.any(axis=1)):
            b, i = divmod(int(pos), model.dim)
            exps = model.xidx.monomials[b] + model.vidx.monomials[i]
            terms[exps] = model.ctx.scalar(tuple(int(x) for x in flat[pos]))
        return TruncatedPoly(model.ring_xv, terms)

    def _image_matrix(self, t: int) -> np.ndarray:
        """R[i_rank, a_rank] = coefficient of x^a v^i in D(x_t)."""
        model = self.model
        e = model.e
        out = model.ctx.zeros((model.dim, model.dim))
        for ex, c in self.images[t].terms.items():
            out[model.vidx.rank[ex[e:]], model.xidx.rank[ex[:e]]] = c.digits
        return out

    def _image_cube(self, vec: np.ndarray) -> np.ndarray:
        """cube[b, i] = coefficient of x^b v^i in D(r), r given by its vector."""
        dim, ctx = self.model.dim, self.model.ctx
        stack = self.matrix_stack().reshape(dim * dim, dim, ctx.d)
        return ctx.mat_vec(stack, vec).reshape(dim, dim, ctx.d).transpose(1, 0, 2)

    def apply(self, f: TruncatedPoly) -> TruncatedPoly:
        """Image of a model element under the packaged map into ring_xv."""
        return self._poly_from_bi(self._image_cube(self.model.vec_from_poly(f)))

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
        stack = self.matrix_stack().reshape(model.dim**2, model.dim, ctx.d)
        fstack = self.law._power_table()[0].transpose(2, 1, 0, 3)
        fstack = fstack.reshape(model.dim**2, model.dim, ctx.d)
        for t in range(model.e):
            r = self._image_matrix(t)
            # route 1: expand D(x_t) coefficientwise through the table
            lhs = ctx.mat_mul(stack, r.transpose(1, 0, 2)).reshape(shape)
            # route 2: pair each component of D(x_t) with the matching F^k
            rhs = ctx.mat_mul(fstack, r).reshape(shape)
            if not np.array_equal(lhs.transpose(0, 2, 1, 3), rhs):
                return False
        return True


def canonical_derivation(model: ArtinianModel, law: FormalGroupLaw) -> HSDerivation:
    """The derivation with D(x_t) = F_t(x, v), iterative by associativity."""
    mapping = {}
    for l in range(law.e):
        mapping[f"v{l+1}"] = f"x{l+1}"
        mapping[f"w{l+1}"] = f"v{l+1}"
    imgs = [rename(f, model.ring_xv, mapping) for f in law.components]
    return HSDerivation(model, law, imgs)


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
        merged = {}
        for ex, c in f.terms.items():
            tot = tuple(sum(ex[t * e + l] for t in range(p)) for l in range(e))
            acc = merged.get(tot)
            merged[tot] = c if acc is None else acc + c
        terms = {}
        for tot, c in merged.items():
            if not c:
                continue
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
    gs = evp_point(law)
    dim = model.dim
    tab2 = D.table().reshape(dim * dim, dim, ctx.d)
    newtab = ctx.mat_mul(tab2, model.power_table(gs)).reshape(dim, dim, dim, ctx.d)
    stack = newtab.transpose(2, 1, 0, 3)
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


def twist_by_automorphism(D: HSDerivation, phi) -> HSDerivation:
    """Conjugate by the algebra automorphism sending x_t to phi[t].

    phi must fix the origin and have invertible linear part. The inverse
    psi comes from the matrix Phi of r -> r(phi): one exact elimination of
    [Phi | x_1 .. x_e] must put a pivot on every column of Phi, which proves
    r -> r(phi) bijective, and leaves psi_t = Phi^-1 x_t beside it;
    NotInvertible otherwise.
    """
    model, ctx = D.model, D.model.ctx
    e = model.e
    phi = list(phi)
    if len(phi) != e:
        raise ValueError(f"expected {e} images, got {len(phi)}")
    lin = ctx.zeros((e, e))
    for t, f in enumerate(phi):
        if f.ring != model.ring:
            raise ContextMismatch("twist image lives outside the model ring")
        if f.constant_term():
            raise NotInvertible("twist must fix the origin")
        for l in range(e):
            unit = tuple(1 if i == l else 0 for i in range(e))
            lin[t, l] = f.coeff(unit).digits
    inv_matrix(ctx, lin)  # NotInvertible for a singular linear part
    # the guard on D's table comes before any elimination on Phi
    D.table()
    # phimat[b, a] = coefficient of x^b in phi^a
    phimat = model.power_table(phi).transpose(1, 0, 2)
    xs = [model.vec_from_poly(model.ring.var(x)) for x in model.xvars]
    red, pivots = rref(ctx, np.concatenate([phimat, np.stack(xs, axis=1)], axis=1))
    if pivots != list(range(model.dim)):
        raise NotInvertible("no exact inverse; the map is not an automorphism")
    imgs = [
        D._poly_from_bi(ctx.mat_mul(phimat, D._image_cube(red[:, model.dim + t])))
        for t in range(e)
    ]
    return HSDerivation(model, D.law, imgs)


def reconstruct_from_ppowers(D: HSDerivation) -> HSDerivation:
    """Rebuild the derivation from its components at p-power indices.

    Indices are processed in graded order. For the first nonzero coordinate
    l of j with leading base-p digit g at position s, peeling one p^s off
    j gives D_j0 D_i0 = sum_k c(k) D_k whose top-weight term is g D_j; all
    lower terms are already known, so D_j follows by division. Every rebuilt
    matrix is checked against the stored component; disagreement (possible
    when the family is not actually iterative) raises ReconstructionMismatch.
    The result is reassembled from the rebuilt matrices alone, so it equals
    the input exactly when every check passed.
    """
    model, law, ctx = D.model, D.law, D.model.ctx
    e, p, m = model.e, model.ctx.p, model.m
    known = {}
    zero = (0,) * e
    known[zero] = OperatorMatrix.identity(model)
    for l in range(e):
        for s in range(m):
            idx = tuple(p**s if t == l else 0 for t in range(e))
            known[idx] = D.component(idx)
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
        acc = ctx.mat_mul(known[j0].mat, known[i0].mat)
        for k, c in sc.items():
            if k == j:
                continue
            mk = known.get(k)
            if mk is None:
                raise ReconstructionMismatch(
                    f"index {k} needed before it is available"
                )
            acc = ctx.arr_add(acc, ctx.arr_neg(ctx.arr_scale(c.digits, mk.mat)))
        rebuilt = OperatorMatrix(model, ctx.arr_scale(lead.inverse().digits, acc))
        if rebuilt != D.component(j):
            raise ReconstructionMismatch(
                f"component {j} is not generated by the p-power components"
            )
        known[j] = rebuilt
    stack = np.stack([known[idx].mat for idx in model.xidx.monomials])
    imgs = []
    for t in range(e):
        unit = tuple(1 if l == t else 0 for l in range(e))
        cube = stack[:, :, model.xidx.rank[unit]].transpose(1, 0, 2)
        imgs.append(D._poly_from_bi(cube))
    return HSDerivation(model, law, imgs)
