"""Canonical coordinate search for iterative derivations.

verify_canonical_basis checks the defining property directly: a family
z_1..z_e is canonical when the packaged map sends each z_j to the law's
j-th component evaluated at (z_1..z_e, v_1..v_e), and the z-monomials
with exponents below p stay independent over the constants. That
independence is read off a p-basis certificate, an e x e determinant, and
takes a rank only where the certificate does not hold (_verify). The finders
construct such families for additive, multiplicative, witt2, and product
laws by echelon-canonical preimage solves plus correction steps that
divide through distinguished operators. Every structural property a
division relies on (subspace invariance, nilpotency, kernel/image
balance, operator power identities) is checked at runtime right where it
is used, so inputs outside the supported envelope fail loudly instead of
returning garbage.

Component kernels, restrictions and certificates come from lattice. The
one other kernel, the unit eigenvectors of a one-dimensional
multiplicative factor (D_1 - 1 stacked with D_j, j >= 2), is taken with
linalg.kernel_space inside the block's subspace.
"""

from __future__ import annotations

import numpy as np

from .derivation import HSDerivation
from .errors import (
    AssemblyMismatch,
    ContextMismatch,
    CorrectionUnsolvable,
    FactorUnsupported,
    HypothesisFailure,
    NoSolution,
)
from .grouplaw import FormalGroupLaw, make_additive
from .lattice import constants_indices, divisible_restriction, joint_kernel, \
    restrict_matrix
from .linalg import Subspace, kernel_space, preimage_solve, rref
from .poly import term_key
from .truncated import PowerLadder, TruncatedPoly, convert, evaluate


class BasisCandidate:
    """An ordered family of model elements proposed as canonical coordinates.

    report is the BasisReport of the verification that accepted the family
    (assemble_product_basis's), or None for a family built by hand.
    """

    def __init__(self, elements, report=None):
        self.elements = tuple(elements)
        self.report = report

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __getitem__(self, j):
        return self.elements[j]

    def __repr__(self):
        return f"BasisCandidate({list(self.elements)!r})"


class BasisReport:
    """Outcome of verify_canonical_basis; passed iff every sub-check holds."""

    def __init__(self, embeddings, independence, first_mismatch):
        self.embeddings = embeddings
        self.independence = independence
        self.first_mismatch = first_mismatch

    @property
    def passed(self) -> bool:
        return (
            all(entry["ok"] for entry in self.embeddings)
            and self.independence["ratio_ok"]
            and self.independence["monomials_ok"]
        )

    def __repr__(self):
        return f"BasisReport(passed={self.passed})"


def _law_at(view: _View, zs, j) -> TruncatedPoly:
    """The block law's j-th component at (z_block, v_block), inside ring_xv.

    zs holds the block's coordinates in order; None marks one not found yet,
    and a term that needs it raises UnknownVariable. Plain evaluation, so
    images with nonzero constant terms are allowed; overflowing exponents
    truncate exactly as in the law ring.
    """
    model, law = view.model, view.law
    ring = model.ring_xv
    zl = [PowerLadder(v, None if z is None else convert(z, ring))
          for v, z in zip(law.vnames, zs)]
    vl = [PowerLadder(w, ring.var(model.vvars[c]))
          for w, c in zip(law.wnames, view.coords)]
    return evaluate(law.components[j].terms, zl + vl, ring)


def verify_canonical_basis(D: HSDerivation, law: FormalGroupLaw, elements) -> BasisReport:
    """Check a proposed coordinate family against the law's defining pattern."""
    model = D.model
    if law.ctx != model.ctx or law.e != model.e or law.m != model.m:
        raise ContextMismatch("law shape does not match the model")
    return _verify(_View(D, tuple(range(model.e)), law), elements)


def _verify(view: _View, elements) -> BasisReport:
    """verify_canonical_basis on a whole-model view, reusing its cached
    spaces and the pattern checks its finders made.

    An element that a finder on this view or one of its sub-views returned
    keeps the image D(z_j) the finder took. Its law value is reused only
    when the finder's law is the law verified here, and is taken again
    otherwise, so a product family is still checked against the full law.
    verify_canonical_basis runs no finder and reuses nothing.

    monomials_ok asks whether the z^a, a in [0, p)^e, are independent over
    the box constants C. A p-basis certificate answers it without a rank
    (Matsumura, Commutative Ring Theory, section 26):

    - D_0 is the identity and D is a ring homomorphism (a twist or a
      reconstruction has the components of one), so each D_(e_k) is a
      derivation of A. C lies in every ker D_(e_k), because level(0) and
      the joint kernel of constants_indices both include every e_k.
    - Let M = [D_(e_k)(z_j)] over A, and J its constant terms: J[k][j] is
      the coefficient of x^0 v^(e_k) in D(z_j). A is local, so M is
      invertible when J has rank e over F_q.
    - Then d_l = sum_k (M^-1)_(lk) D_(e_k) are derivations that kill C,
      with d_l z_j = delta_lj. If sum_b c_b z^b = 0 with every c_b in C,
      apply d_1^(a_1) ... d_e^(a_e) at an a of largest degree among the b
      with c_b != 0. Every other term has some b_l < a_l and vanishes, and
      a! c_a = 0 is left. a! is a unit, as every a_l < p, so c_a = 0.

    The certificate is taken when every embedding holds, C is nonzero and J
    has rank e. Otherwise _monomials_independent takes the rank; the
    boolean is the same either way.
    """
    D, model = view.D, view.model
    zs = list(elements)
    if len(zs) != model.e:
        raise ValueError(f"expected {model.e} elements, got {len(zs)}")

    embeddings = []
    first_mismatch = None
    for j, z in enumerate(zs):
        found, law, expected, actual = view.found.get(j, (None,) * 4)
        if found is not z or law is not view.law:
            expected = _law_at(view, zs, j)
        if found is not z:
            actual = D.apply(z)
        ok = expected == actual
        embeddings.append(
            {"generator": j, "expected": expected, "actual": actual, "ok": ok}
        )
        if not ok and first_mismatch is None:
            diff = expected - actual
            vexp = min((ex[model.e :] for ex in diff.terms), key=term_key)
            first_mismatch = (j, tuple(vexp))

    con = view.box_constants()
    p = model.ctx.p
    independence = {
        "dim_ambient": model.dim,
        "dim_constants": con.dim,
        "ratio_ok": con.dim * p**model.e == model.dim,
        "monomials_ok": _p_basis_certified(model, con, embeddings)
        or _monomials_independent(model, con, zs),
    }
    return BasisReport(embeddings, independence, first_mismatch)


def _p_basis_certified(model, con, embeddings) -> bool:
    """Do the embeddings certify monomials_ok? Every one holds, the
    constants are nonzero, and the constant terms J of D_(e_k)(z_j), read
    off the images, have rank e (the lemma in _verify)."""
    ctx, e = model.ctx, model.e
    if con.dim == 0 or not all(row["ok"] for row in embeddings):
        return False
    J = ctx.zeros((e, e))
    for j, row in enumerate(embeddings):
        terms = row["actual"].terms
        for k in range(e):
            c = terms.get((0,) * e + tuple(int(t == k) for t in range(e)))
            if c:
                J[k, j] = ctx.unpack(c)
    return len(rref(ctx, J)[1]) == e


def _monomials_independent(model, con, zs) -> bool:
    """Are the products z^a, a in [0,p)^e, independent over the constants?

    Tested as a rank condition on A viewed over the constants subspace: the
    vectors c_r * z^a must span a space of dimension dim(constants) * p^e.
    """
    ctx, p, e = model.ctx, model.ctx.p, model.e
    if con.dim == 0:
        return False
    vecs = [model.vec_from_poly(z) for z in zs]
    monos = {(0,) * e: model.one_vec()}
    for a in sorted(np.ndindex(*(p,) * e), key=term_key):
        a = tuple(int(t) for t in a)
        if a in monos:
            continue
        t = max(i for i in range(e) if a[i])
        prev = list(a)
        prev[t] -= 1
        monos[a] = model.vec_mul(monos[tuple(prev)], vecs[t])
    rows = [model.vec_mul(con.basis, monos[a]) for a in sorted(monos, key=term_key)]
    rank = Subspace.from_vectors(ctx, model.dim, np.concatenate(rows)).dim
    return rank == con.dim * p**e


class _View:
    """A coordinate block of a derivation, searched inside a fixed subspace.

    coords lists the model coordinates the block covers, a block of D's law
    (the whole law, a product factor or an additive coordinate); within
    constrains every solve, kernel, and correction. Indices are local to the
    block and embedded into the full exponent tuple on access.
    """

    def __init__(self, D, coords, law, within=None, found=None):
        self.D = D
        self.model = D.model
        self.ctx = D.model.ctx
        self.coords = tuple(coords)
        self.law = law
        if within is None:
            within = Subspace.full(self.ctx, self.model.dim)
        self.within = within
        # model coordinate -> (z, law, D(z), law value) of each coordinate a
        # finder checked, shared by the sub-views of one search
        self.found = {} if found is None else found
        self._mats = {}
        self._spaces = {}
        self._restricted = {}

    def embed(self, local) -> tuple:
        out = [0] * self.model.e
        for c, t in zip(self.coords, local):
            out[c] = t
        return tuple(out)

    def unit(self, slot, power) -> tuple:
        return tuple(power if t == slot else 0 for t in range(len(self.coords)))

    def mat(self, local) -> np.ndarray:
        if local not in self._mats:
            self._mats[local] = self.D.component(self.embed(local)).mat
        return self._mats[local]

    def divisible(self, local, space: Subspace) -> np.ndarray:
        """divisible_restriction of the component at local to space, certified
        once per component and space: the key is the space's echelon bytes,
        so find_y and find_x share each certificate."""
        key = (local, space.basis.tobytes())
        if key not in self._restricted:
            self._restricted[key] = divisible_restriction(
                self.D, self.embed(local), space)
        return self._restricted[key]

    def _constants(self, absolute: bool) -> Subspace:
        """The block's constants inside within, taken once. For a derivation
        known to be iterative they are level 0 (box) and level m-1
        (absolute), as constants_indices shows; otherwise the joint kernel
        of constants_indices."""
        if self.D.known_iterative:
            return self.level(self.model.m - 1 if absolute else 0)
        key = ("constants", absolute)
        if key not in self._spaces:
            idxs = constants_indices(self.D, self.coords, absolute)
            self._spaces[key] = joint_kernel(self.D, idxs, self.within)
        return self._spaces[key]

    def box_constants(self) -> Subspace:
        """Joint kernel over the nonzero indices below p, inside within."""
        return self._constants(absolute=False)

    def abs_constants(self) -> Subspace:
        """Joint kernel over every nonzero index of the block, inside within."""
        return self._constants(absolute=True)

    def level(self, l) -> Subspace:
        """Joint kernel of the unit p-power components up to exponent p^l,
        inside within, by descent: the block's p^l units inside level l-1,
        starting from within. Each level is taken once."""
        key = ("level", l)
        if key not in self._spaces:
            above = self.within if l == 0 else self.level(l - 1)
            units = [self.embed(self.unit(slot, self.ctx.p**l))
                     for slot in range(len(self.coords))]
            self._spaces[key] = joint_kernel(self.D, units, above)
        return self._spaces[key]

    def correction(self, l) -> Subspace:
        """Level l-1 cut down to the kernel of the first-direction p^l component."""
        key = ("correction", l)
        if key not in self._spaces:
            idx = self.embed(self.unit(0, self.ctx.p**l))
            self._spaces[key] = joint_kernel(self.D, [idx], self.level(l - 1))
        return self._spaces[key]

    def steps(self, l) -> list:
        """(local, space) of each level-l correction: the p^l component in
        each direction of the block, the first kept inside level l-1 and the
        second inside the correction space the first leaves."""
        pl = self.ctx.p**l
        out = [(self.unit(0, pl), self.level(l - 1))]
        if len(self.coords) == 2:
            out.append((self.unit(1, pl), self.correction(l)))
        return out

    def wspace(self, l) -> Subspace:
        """Multi-constants space for the level-l second-direction correction."""
        p = self.ctx.p
        idxs = [self.unit(1, 1), self.unit(0, p**l)]
        for u in range(1, l):
            idxs += [self.unit(0, p**u), self.unit(1, p**u)]
        return joint_kernel(self.D, [self.embed(i) for i in idxs], self.within)


def _ratio_guard(view: _View, expect: int) -> None:
    dim = view.within.dim
    con = view.box_constants().dim
    if con == 0 or con * expect != dim:
        raise HypothesisFailure(
            f"search space dimension {dim} is not {expect} times the constants dimension {con}"
        )


def _solve(view: _View, conds, space: Subspace, message: str) -> np.ndarray:
    """Canonical z in space with D_i(z) = b for every (local i, b) in conds.

    The one solve of the finders; no solution is a CorrectionUnsolvable
    with the step's message.
    """
    try:
        return preimage_solve(
            view.ctx, [(view.mat(i), b) for i, b in conds], within=space)
    except NoSolution:
        raise CorrectionUnsolvable(message) from None


def _correct(view: _View, local, z: np.ndarray, target: np.ndarray,
             space: Subspace, certify) -> np.ndarray:
    """Add to z the element of space that brings the component at local to target.

    A zero defect leaves z as it is. Otherwise the defect must lie in space,
    certify(local, space) must hold (None certifies nothing), and the
    component must reach the defect from space.
    """
    ctx = view.ctx
    delta = (target - ctx.mat_vec(view.mat(local), z)) % ctx.p
    if not delta.any():
        return z
    name = view.embed(local)
    if not space.contains(delta):
        raise CorrectionUnsolvable(
            f"the defect of component {name} leaves its correction space"
        )
    if certify is not None:
        certify(local, space)
    u = _solve(view, [(local, delta)], space, f"component {name} cannot absorb its defect")
    return (z + u) % ctx.p


def _power_identity(view: _View, l: int):
    """Certificate of the level-l second-direction step of a witt2 search
    with alpha_l != 0: on the multi-constants space, T^p = -alpha_l D_(1,0)
    for T the step's component."""
    ctx = view.ctx

    def certify(local, space) -> None:
        name = view.embed(local)
        wsp = view.wspace(l)
        rt = restrict_matrix(view.D, name, wsp)
        rm = restrict_matrix(view.D, view.embed(view.unit(0, 1)), wsp)
        rtp = rt
        for _ in range(ctx.p - 1):
            rtp = ctx.mat_mul(rtp, rt)
        scaled = ctx.arr_neg(ctx.arr_scale(view.law.alphas[l].digits, rm))
        if (rtp != scaled).any():
            raise HypothesisFailure(
                f"power identity fails for component {name} on its correction space"
            )
    return certify


def _expand(view: _View, first, levels: int) -> np.ndarray:
    """The paper's expansion: an element with the given first-order values
    whose p-power components at levels 1 .. levels-1 vanish, built level by
    level.

    first lists the (local, target) values of the unit components. The first
    unit component is certified on the search space before the solve, and
    every correction divides through a ZM-certified component.
    """
    view.divisible(view.unit(0, 1), view.within)
    z = _solve(view, first, view.within,
               "no element attains the required first-order values")
    zero = view.ctx.zeros((view.model.dim,))
    for l in range(1, levels):
        for local, space in view.steps(l):
            z = _correct(view, local, z, zero, space, view.divisible)
    return z


def _check_achieved(view: _View, vec: np.ndarray, wanted) -> None:
    for local, tgt in wanted:
        if (view.ctx.mat_vec(view.mat(local), vec) != tgt).any():
            raise CorrectionUnsolvable(
                f"a correction disturbed component {view.embed(local)}"
            )


def _check_pattern(view: _View, zs, j, what: str) -> TruncatedPoly:
    """The defining pattern of the found z_j: D(z_j) must equal the block
    law's j-th component at (z, v). Both sides are recorded in view.found
    for the verification of the assembled family."""
    z = zs[j]
    actual = view.D.apply(z)
    expected = _law_at(view, zs, j)
    if actual != expected:
        raise HypothesisFailure(f"the found {what} fails its defining pattern")
    view.found[view.coords[j]] = (z, view.law, expected, actual)
    return z


def _finish(view: _View, vec: np.ndarray, zs, j, what: str) -> TruncatedPoly:
    """Reduce vec modulo the block's absolute constants into z_j, then check
    its defining pattern."""
    zs[j] = view.model.poly_from_vec(view.abs_constants().reduce_mod(vec))
    return _check_pattern(view, zs, j, what)


def _find_y(view: _View) -> TruncatedPoly:
    model = view.model
    _ratio_guard(view, view.ctx.p ** 2)
    zero = view.ctx.zeros((model.dim,))
    first = [(view.unit(0, 1), zero), (view.unit(1, 1), model.one_vec())]
    y = _expand(view, first, model.m)
    return _finish(view, y, [None, None], 1, "second coordinate")


def _find_x(view: _View, ypoly: TruncatedPoly) -> TruncatedPoly:
    ctx, model, p = view.ctx, view.model, view.ctx.p
    _ratio_guard(view, p * p)
    alphas = view.law.alphas
    u10, u01 = view.unit(0, 1), view.unit(1, 1)
    one = model.one_vec()
    x = _expand(view, [(u10, one)], 1)
    zero = ctx.zeros((model.dim,))
    yvec = model.vec_from_poly(ypoly)

    # first-direction value 1 is set; steer the second-direction value
    t0 = ctx.arr_scale(alphas[0].digits, model.vec_pow(yvec, p - 1))
    delta = (t0 - ctx.mat_vec(view.mat(u01), x)) % p
    if delta.any():
        message = "the first-level defect has no preimage"
        if alphas[0]:
            u = _solve(view, [(u10, delta)], view.within, message)
            for _ in range(p - 1):
                u = ctx.mat_vec(view.mat(u01), u)
            u = ctx.arr_neg(ctx.arr_scale(alphas[0].inverse().digits, u))
        else:
            u = _solve(view, [(u10, zero), (u01, delta)], view.within, message)
        x = (x + u) % p
    achieved = [(u10, one), (u01, t0)]
    _check_achieved(view, x, achieved)

    for l in range(1, model.m):
        (i0, s0), (i1, s1) = view.steps(l)
        x = _correct(view, i0, x, zero, s0, view.divisible)
        tl = ctx.arr_scale(alphas[l].digits, model.vec_pow(yvec, (p - 1) * p**l))
        x = _correct(view, i1, x, tl, s1, _power_identity(view, l) if alphas[l] else None)
        achieved += [(i0, zero), (i1, tl)]
        _check_achieved(view, x, achieved)
    return _finish(view, x, [None, ypoly], 0, "first coordinate")


def _one_dim_additive(view: _View) -> TruncatedPoly:
    _ratio_guard(view, view.ctx.p)
    z = _expand(view, [(view.unit(0, 1), view.model.one_vec())], view.model.m)
    return _finish(view, z, [None], 0, "coordinate")


def _one_dim_multiplicative(view: _View) -> TruncatedPoly:
    ctx, model = view.ctx, view.model
    _ratio_guard(view, ctx.p)
    mats = [(view.mat((1,)) - ctx.mat_eye(model.dim)) % ctx.p]
    for j in range(2, model.n):
        mats.append(view.mat((j,)))
    ker = kernel_space(ctx, np.concatenate(mats, axis=0), view.within)
    if ker.dim != 1:
        raise HypothesisFailure(
            f"the unit-eigenvector space has dimension {ker.dim}, expected 1"
        )
    u = ker.basis[0]
    c = tuple(int(t) for t in u[0])
    if not any(c):
        raise HypothesisFailure("the unit eigenvector has no constant term")
    u = ctx.arr_scale(ctx.scalar(c).inverse().digits, u)
    z = (u - model.one_vec()) % ctx.p
    return _check_pattern(view, [model.poly_from_vec(z)], 0, "coordinate")


def _inside_constants(view: _View, coords, law, others) -> _View:
    """Sub-view on coords, searched inside the absolute constants of others."""
    con = _View(view.D, others, None, within=view.within).abs_constants()
    return _View(view.D, coords, law, within=con, found=view.found)


def _assemble(view: _View):
    law = view.law
    if law.kind == "product":
        f, g = law.factors
        left, right = view.coords[: f.e], view.coords[f.e :]
        sub1 = _inside_constants(view, left, f, right)
        sub2 = _inside_constants(view, right, g, left)
        return _assemble(sub1) + _assemble(sub2)
    if law.kind == "witt2":
        y = _find_y(view)
        return [_find_x(view, y), y]
    if law.kind == "multiplicative":
        return [_one_dim_multiplicative(view)]
    if law.kind == "additive":
        if len(view.coords) == 1:
            return [_one_dim_additive(view)]
        out = []
        sub_law = make_additive(view.ctx, 1, law.m)
        for s, c in enumerate(view.coords):
            others = view.coords[:s] + view.coords[s + 1 :]
            out.append(_one_dim_additive(_inside_constants(view, (c,), sub_law, others)))
        return out
    raise FactorUnsupported(f"no finder for factor kind {law.kind!r}")


def _witt2_view(D: HSDerivation) -> _View:
    if D.law.kind != "witt2" or D.model.e != 2:
        raise ContextMismatch("expected a derivation for a witt2 law")
    return _View(D, (0, 1), D.law)


def find_y(D: HSDerivation) -> TruncatedPoly:
    """Second canonical coordinate of a witt2-iterative derivation."""
    return _find_y(_witt2_view(D))


def find_x(D: HSDerivation, y: TruncatedPoly) -> TruncatedPoly:
    """First canonical coordinate, given a verified second coordinate."""
    return _find_x(_witt2_view(D), y)


def one_dim_basis(D: HSDerivation) -> TruncatedPoly:
    """Canonical coordinate for a one-dimensional additive or multiplicative law."""
    law = D.law
    if law.e != 1 or D.model.e != 1:
        raise ContextMismatch("one_dim_basis needs a one-dimensional model")
    view = _View(D, (0,), law)
    if law.kind == "additive":
        return _one_dim_additive(view)
    if law.kind == "multiplicative":
        return _one_dim_multiplicative(view)
    raise FactorUnsupported(f"no finder for law kind {law.kind!r}")


def assemble_product_basis(D: HSDerivation) -> BasisCandidate:
    """Canonical coordinates for a product law, assembled factor by factor.

    Each factor's coordinates are found inside the absolute constants of the
    other factors' components, then the concatenated family is verified
    against the full law; only a verified family is returned, carrying that
    verification's report.
    """
    view = _View(D, tuple(range(D.model.e)), D.law)
    elements = _assemble(view)
    report = _verify(view, elements)
    if not report.passed:
        raise AssemblyMismatch("assembled coordinates fail verification")
    return BasisCandidate(elements, report)
