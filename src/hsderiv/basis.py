"""Canonical coordinate search for iterative derivations.

verify_canonical_basis checks the defining property directly: a family
z_1..z_e is canonical when the packaged map sends each z_j to the law's
j-th component evaluated at (z_1..z_e, v_1..v_e), and the z-monomials
with exponents below p stay independent over the constants. The finders
construct such families for additive, multiplicative, witt2, and product
laws by echelon-canonical preimage solves plus correction steps that
divide through distinguished operators. Every structural property a
division relies on (subspace invariance, nilpotency, kernel/image
balance, operator power identities) is checked at runtime right where it
is used, so inputs outside the supported envelope fail loudly instead of
returning garbage.
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
from .lattice import divisible_restriction, joint_kernel, restrict_matrix
from .linalg import Subspace, kernel_space, preimage_solve, solve
from .poly import term_key
from .truncated import PowerLadder, TruncatedPoly, convert, evaluate


class BasisCandidate:
    """An ordered family of model elements proposed as canonical coordinates."""

    def __init__(self, elements):
        self.elements = tuple(elements)

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
    """verify_canonical_basis on a whole-model view, reusing its cached spaces."""
    D, model = view.D, view.model
    zs = list(elements)
    if len(zs) != model.e:
        raise ValueError(f"expected {model.e} elements, got {len(zs)}")

    embeddings = []
    first_mismatch = None
    for j in range(model.e):
        expected = _law_at(view, zs, j)
        actual = D.apply(zs[j])
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
        "monomials_ok": _monomials_independent(model, con, zs),
    }
    return BasisReport(embeddings, independence, first_mismatch)


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
    rows = []
    for a in sorted(monos, key=term_key):
        for r in range(con.dim):
            rows.append(model.vec_mul(con.basis[r], monos[a]))
    rank = Subspace.from_vectors(ctx, model.dim, np.array(rows)).dim
    return rank == con.dim * p**e


class _View:
    """A coordinate block of a derivation, searched inside a fixed subspace.

    coords lists the model coordinates the block covers; within constrains
    every solve, kernel, and correction. Indices are local to the block and
    embedded into the full exponent tuple on access.
    """

    def __init__(self, D, coords, law, within=None):
        self.D = D
        self.model = D.model
        self.ctx = D.model.ctx
        self.coords = tuple(coords)
        self.law = law
        if within is None:
            within = Subspace.full(self.ctx, self.model.dim)
        self.within = within
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

    def divisible(self, local) -> np.ndarray:
        """divisible_restriction of the component at local to within."""
        if local not in self._restricted:
            self._restricted[local] = divisible_restriction(
                self.D, self.embed(local), self.within)
        return self._restricted[local]

    def box_constants(self) -> Subspace:
        """Joint kernel over the nonzero indices below p, inside within."""
        if "box" not in self._spaces:
            p, k = self.ctx.p, len(self.coords)
            idxs = [self.embed(i) for i in np.ndindex(*(p,) * k) if any(i)]
            self._spaces["box"] = joint_kernel(self.D, idxs, self.within)
        return self._spaces["box"]

    def abs_constants(self) -> Subspace:
        """Joint kernel over every nonzero index of the block, inside within."""
        if "abs" not in self._spaces:
            n, k = self.model.n, len(self.coords)
            idxs = [self.embed(i) for i in np.ndindex(*(n,) * k) if any(i)]
            self._spaces["abs"] = joint_kernel(self.D, idxs, self.within)
        return self._spaces["abs"]

    def level(self, l) -> Subspace:
        """Joint kernel of the unit p-power components up to exponent p^l."""
        key = ("level", l)
        if key not in self._spaces:
            p, k = self.ctx.p, len(self.coords)
            idxs = [self.embed(self.unit(s, p**u))
                    for u in range(l + 1) for s in range(k)]
            self._spaces[key] = joint_kernel(self.D, idxs, self.within)
        return self._spaces[key]

    def correction(self, l) -> Subspace:
        """Level l-1 cut down to the kernel of the first-direction p^l component."""
        key = ("correction", l)
        if key not in self._spaces:
            idx = self.embed(self.unit(0, self.ctx.p**l))
            self._spaces[key] = joint_kernel(self.D, [idx], self.level(l - 1))
        return self._spaces[key]

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


def _kernel_correction(view: _View, local, cur: np.ndarray, space: Subspace) -> np.ndarray:
    """Remove the component's value at cur by subtracting an element of space."""
    ctx = view.ctx
    T = view.mat(local)
    defect = ctx.mat_vec(T, cur)
    if not defect.any():
        return cur
    name = view.embed(local)
    rmat = divisible_restriction(view.D, name, space)
    try:
        dc = space.coords_of(defect)
    except NoSolution:
        raise CorrectionUnsolvable(
            f"the defect of component {name} leaves its correction space"
        ) from None
    try:
        sol = solve(ctx, rmat, dc)
    except NoSolution:
        raise CorrectionUnsolvable(
            f"component {name} cannot absorb its defect"
        ) from None
    return (cur - space.lift(sol)) % ctx.p


def _corrected_solve(view: _View, t10: np.ndarray, t01: np.ndarray) -> np.ndarray:
    """Element with prescribed unit values whose higher p-power values vanish."""
    ctx, model, p = view.ctx, view.model, view.ctx.p
    conds = [(view.mat(view.unit(0, 1)), t10), (view.mat(view.unit(1, 1)), t01)]
    try:
        z = preimage_solve(ctx, conds, within=view.within)
    except NoSolution:
        raise CorrectionUnsolvable(
            "no element attains the required first-order values"
        ) from None
    for l in range(1, model.m):
        pl = p**l
        z = _kernel_correction(view, view.unit(0, pl), z, view.level(l - 1))
        z = _kernel_correction(view, view.unit(1, pl), z, view.correction(l))
    return z


def _apply_power(ctx, mat: np.ndarray, vec: np.ndarray, k: int) -> np.ndarray:
    out = vec
    for _ in range(k):
        out = ctx.mat_vec(mat, out)
    return out


def _check_achieved(view: _View, vec: np.ndarray, wanted) -> None:
    for local, tgt in wanted:
        if (view.ctx.mat_vec(view.mat(local), vec) != tgt).any():
            raise CorrectionUnsolvable(
                f"a correction disturbed component {view.embed(local)}"
            )


def _assert_embedding(view: _View, zs, j, what: str) -> None:
    """D(z_j) must equal the block law's j-th component at (z, v)."""
    if view.D.apply(zs[j]) != _law_at(view, zs, j):
        raise HypothesisFailure(f"the found {what} fails its defining pattern")


def _reduce_coset(view: _View, vec: np.ndarray) -> np.ndarray:
    """Canonical representative modulo the block's absolute constants."""
    return view.abs_constants().reduce_mod(vec)


def _find_y(view: _View) -> TruncatedPoly:
    ctx, model, p = view.ctx, view.model, view.ctx.p
    _ratio_guard(view, p * p)
    view.divisible(view.unit(0, 1))
    zero = ctx.zeros((model.dim,))
    y = _corrected_solve(view, zero, model.one_vec())
    y = _reduce_coset(view, y)
    ypoly = model.poly_from_vec(y)
    _assert_embedding(view, [None, ypoly], 1, "second coordinate")
    return ypoly


def _find_x(view: _View, ypoly: TruncatedPoly) -> TruncatedPoly:
    ctx, model, p = view.ctx, view.model, view.ctx.p
    _ratio_guard(view, p * p)
    alphas = view.law.alphas
    m10 = view.mat(view.unit(0, 1))
    m01 = view.mat(view.unit(1, 1))
    name10 = view.embed(view.unit(0, 1))
    view.divisible(view.unit(0, 1))
    one = model.one_vec()
    zero = ctx.zeros((model.dim,))
    yvec = model.vec_from_poly(ypoly)
    try:
        x = preimage_solve(ctx, [(m10, one)], within=view.within)
    except NoSolution:
        raise CorrectionUnsolvable(
            "no element attains the required first-order values"
        ) from None

    # first-direction value 1 is set; steer the second-direction value
    t0 = ctx.arr_scale(alphas[0].digits, model.vec_pow(yvec, p - 1))
    delta = (t0 - ctx.mat_vec(m01, x)) % p
    if delta.any():
        if alphas[0]:
            try:
                z = preimage_solve(ctx, [(m10, delta)], within=view.within)
            except NoSolution:
                raise CorrectionUnsolvable(
                    "the first-level defect has no preimage"
                ) from None
            u = ctx.arr_neg(
                ctx.arr_scale(
                    alphas[0].inverse().digits, _apply_power(ctx, m01, z, p - 1)
                )
            )
            x = (x + u) % p
        else:
            try:
                u = preimage_solve(
                    ctx, [(m10, zero), (m01, delta)], within=view.within
                )
            except NoSolution:
                raise CorrectionUnsolvable(
                    "the first-level defect has no preimage"
                ) from None
            x = (x + u) % p
    achieved = [(view.unit(0, 1), one), (view.unit(1, 1), t0)]
    _check_achieved(view, x, achieved)

    for l in range(1, model.m):
        pl = p**l
        x = _kernel_correction(view, view.unit(0, pl), x, view.level(l - 1))
        Tl = view.mat(view.unit(1, pl))
        tl = ctx.arr_scale(alphas[l].digits, model.vec_pow(yvec, (p - 1) * pl))
        delta = (tl - ctx.mat_vec(Tl, x)) % p
        if delta.any():
            name = view.embed(view.unit(1, pl))
            space = view.correction(l)
            if not space.contains(delta):
                raise CorrectionUnsolvable(
                    f"the defect of component {name} leaves its correction space"
                )
            if alphas[l]:
                wsp = view.wspace(l)
                rt = restrict_matrix(view.D, name, wsp)
                rm = restrict_matrix(view.D, name10, wsp)
                rtp = rt
                for _ in range(p - 1):
                    rtp = ctx.mat_mul(rtp, rt)
                scaled = ctx.arr_neg(ctx.arr_scale(alphas[l].digits, rm))
                if (rtp != scaled).any():
                    raise HypothesisFailure(
                        f"power identity fails for component {name} on its correction space"
                    )
            try:
                u = preimage_solve(ctx, [(Tl, delta)], within=space)
            except NoSolution:
                raise CorrectionUnsolvable(
                    f"component {name} cannot absorb its defect"
                ) from None
            x = (x + u) % p
        achieved += [(view.unit(0, pl), zero), (view.unit(1, pl), tl)]
        _check_achieved(view, x, achieved)

    x = _reduce_coset(view, x)
    xpoly = model.poly_from_vec(x)
    _assert_embedding(view, [xpoly, ypoly], 0, "first coordinate")
    return xpoly


def _one_dim_additive(view: _View) -> TruncatedPoly:
    ctx, model, p = view.ctx, view.model, view.ctx.p
    _ratio_guard(view, p)
    m1 = view.mat((1,))
    view.divisible((1,))
    try:
        z = preimage_solve(ctx, [(m1, model.one_vec())], within=view.within)
    except NoSolution:
        raise CorrectionUnsolvable(
            "no element attains the required first-order values"
        ) from None
    for l in range(1, model.m):
        z = _kernel_correction(view, (p**l,), z, view.level(l - 1))
    z = _reduce_coset(view, z)
    zpoly = model.poly_from_vec(z)
    _assert_embedding(view, [zpoly], 0, "coordinate")
    return zpoly


def _one_dim_multiplicative(view: _View) -> TruncatedPoly:
    ctx, model = view.ctx, view.model
    _ratio_guard(view, ctx.p)
    dim = model.dim
    eye = ctx.zeros((dim, dim))
    eye[np.arange(dim), np.arange(dim), 0] = 1
    mats = [(view.mat((1,)) - eye) % ctx.p]
    for j in range(2, model.n):
        mats.append(view.mat((j,)))
    ker = kernel_space(ctx, np.concatenate(mats, axis=0)).intersect(view.within)
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
    zpoly = model.poly_from_vec(z)
    _assert_embedding(view, [zpoly], 0, "coordinate")
    return zpoly


def _inside_constants(view: _View, coords, law, others) -> _View:
    """Sub-view on coords, searched inside the absolute constants of others."""
    con = _View(view.D, others, None, within=view.within).abs_constants()
    return _View(view.D, coords, law, within=con)


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
    against the full law; only a verified family is returned.
    """
    view = _View(D, tuple(range(D.model.e)), D.law)
    elements = _assemble(view)
    report = _verify(view, elements)
    if not report.passed:
        raise AssemblyMismatch("assembled coordinates fail verification")
    return BasisCandidate(elements)
