"""Constants subspaces of a derivation: joint component kernels, the
constants ring, the descending tower, and the restricted operators and
kernel/image checks behind the basis search. A kernel within a subspace is
computed inside within, in its echelon coordinates (linalg.kernel_space).

All subspaces live on the graded monomial basis of the model and are held in
reduced echelon form, so equal spaces compare equal as matrices. Field
degrees from the function-field picture turn into k-dimension ratios here;
reports label them model degrees.

The tower reads only p-power components, so it takes them from the e axis
stacks of HSDerivation.axis_stack and never builds the dim^3 table. It
reads each stack once and keeps copies of its m p-power matrices only, so
it holds one stack at a time. It is built by descent, as the paper expands
a derivation level by level: level s is the kernel of the component
p^s e_l inside what the component p^s e_(l-1) left, starting from level
s-1, so each elimination sees one matrix, on the coordinates of the space
above it. For a derivation known to be iterative the constants need only
p-power components too (constants_indices). The other readers
(joint_kernel, restrict_matrix, divisible_restriction, and through them
the basis search) take components through AxisComponents: an on-axis
index from an axis stack, which a search keeps and shares between its
sub-views, and the table only for a list with an index off the axes, or
where the derivation reads its table anyway (HSDerivation._reads_table).
"""

from __future__ import annotations

import numpy as np

from .artinian import ArtinianModel
from .derivation import HSDerivation
from .errors import HypothesisFailure, NoSolution
from .linalg import Subspace, kernel_space, rref
# not called here: the benchmark tracer's test checks that installing it
# rebinds this alias along with linalg.preimage_solve
from .linalg import preimage_solve as _vec_preimage_solve


class AxisComponents:
    """The component matrices a search reads from a derivation D.

    An index j e_l on an axis comes from D's axis stack l, made on first
    use and kept for the rest of the search; a search that shares this
    object between its sub-views makes each stack once. D's table serves
    instead where D reads it (HSDerivation._reads_table: it is built, it is
    small, or e = 1), and for every index of a list that holds one off the
    axes (the constants of a derivation not known to be iterative). The
    matrices are those of HSDerivation.component, byte for byte.
    """

    def __init__(self, D: HSDerivation):
        self.D = D
        self.model = D.model
        self._stacks = {}
        # index -> matrix, for the readers that take one at a time
        self._mats = {}

    def mats(self, idxs) -> list:
        D = self.D
        if not D._reads_table():
            idxs = [D._index(i) for i in idxs]
            # the axes each index lies on; the zero index is on axis 0
            axes = [[t for t, x in enumerate(i) if x] or [0] for i in idxs]
            if all(len(a) == 1 for a in axes):
                return [self._stack(l)[i[l]] for i, (l,) in zip(idxs, axes)]
        return [D.component(i).mat for i in idxs]

    def _stack(self, l: int) -> np.ndarray:
        if l not in self._stacks:
            self._stacks[l] = self.D.axis_stack(l)
        return self._stacks[l]

    def mat(self, i) -> np.ndarray:
        i = tuple(i)
        if i not in self._mats:
            self._mats[i] = self.mats([i])[0]
        return self._mats[i]


def _components(D) -> AxisComponents:
    """D itself when it is a search's AxisComponents; else one for this call."""
    return D if isinstance(D, AxisComponents) else AxisComponents(D)


def joint_kernel(D, idxs, within: Subspace | None = None) -> Subspace:
    """Joint kernel of the components at idxs, computed inside within, in
    its echelon coordinates.

    Every component kernel in the package is taken here. D is a
    derivation, or the AxisComponents of a search that keeps its matrices.
    An empty index list gives the whole model, or within.
    """
    comps = _components(D)
    return _stacked_kernel(comps.model, comps.mats(idxs), within)


def _stacked_kernel(model: ArtinianModel, mats, within: Subspace | None = None) -> Subspace:
    if mats:
        return kernel_space(model.ctx, np.concatenate(mats, axis=0), within)
    return Subspace.full(model.ctx, model.dim) if within is None else within


def kernel_component(D: HSDerivation, i) -> Subspace:
    """Kernel of one component as a subspace of the model."""
    return joint_kernel(D, [i])


def ppower_indices(model: ArtinianModel, coords, levels: int) -> list:
    """The indices p^s e_l for s < levels and l in coords, level by level."""
    p, e = model.ctx.p, model.e
    return [tuple(p**s if t == l else 0 for t in range(e))
            for s in range(levels) for l in coords]


def constants_indices(D: HSDerivation, coords, absolute: bool) -> list:
    """Indices whose joint kernel is the constants of the coordinate block.

    The box constants of the block are the joint kernel of every nonzero
    index below p supported on coords, the absolute constants that of
    every nonzero index supported on coords. For a derivation known to be
    iterative the p-power indices p^s e_l, l in coords, suffice: s = 0 for
    the box, every s < m for the absolute constants. Peel p^s off the leading
    coordinate of j as reconstruct_from_ppowers does: D_j0 D_i0 =
    sum_k c(k) D_k with c(j) a nonzero digit, and every other k has lower
    weight. F^0 has no v^i w^j term, so k is never 0; F_l^p lies in
    (v^p, w^p), so an index below p never meets one outside the box. So a
    vector killed by the p-power components is killed by each D_j in turn.
    coords must be a block of D's law: its components there involve only
    the block's variables and the others none of them (the whole law, a
    product factor, an additive coordinate); then k stays on the block.
    """
    model = D.model
    if D.known_iterative:
        return ppower_indices(model, coords, model.m if absolute else 1)
    bound = model.n if absolute else model.ctx.p
    off = [t for t in range(model.e) if t not in coords]
    return [i for i in model.xidx.monomials
            if any(i) and max(i) < bound and not any(i[t] for t in off)]


def constants(D: HSDerivation) -> Subspace:
    """Joint kernel of the components with every exponent below p."""
    return joint_kernel(D, constants_indices(D, range(D.model.e), absolute=False))


def absolute_constants(D: HSDerivation) -> Subspace:
    """Joint kernel of every component of positive weight."""
    return joint_kernel(D, constants_indices(D, range(D.model.e), absolute=True))


class ConstantsTower:
    """Descending chain ambient = F_{-1} >= F_0 >= ... >= F_{m-1}.

    Level s is the joint kernel of the components at p^j times a coordinate
    unit for all j <= s. Construction verifies the chain is descending and
    each level is closed under ring multiplication; the dimension-ratio
    hypothesis (each step has model degree p^e) is reported, not enforced,
    so degenerate inputs like the trivial derivation are flagged rather
    than rejected.
    """

    def __init__(self, model: ArtinianModel, levels):
        self.model = model
        self.levels = tuple(levels)
        prev = None
        for s, V in enumerate(self.levels):
            if prev is not None and not V.is_subspace_of(prev):
                raise HypothesisFailure("tower levels are not descending")
            if s > 0:
                self._check_closed(V, s - 1)
            prev = V

    def _check_closed(self, V: Subspace, s: int) -> None:
        """Every product of two basis vectors lies in V: one batched product
        of basis row a with the rows from a on, for each a."""
        model = self.model
        for a in range(V.dim):
            if not V.contains(model.vec_mul(V.basis[a:], V.basis[a])):
                raise HypothesisFailure(
                    f"tower level {s} is not closed under multiplication"
                )

    @property
    def dims(self) -> tuple:
        return tuple(V.dim for V in self.levels)

    @property
    def model_degrees(self) -> tuple:
        """Consecutive dimension ratios dim F_{s-1} / dim F_s, exact."""
        out = []
        for a, b in zip(self.levels, self.levels[1:]):
            out.append(a.dim // b.dim if b.dim and a.dim % b.dim == 0 else None)
        return tuple(out)

    @property
    def degree_hypothesis_ok(self) -> bool:
        """Whether every step drops by exactly p^e."""
        want = self.model.ctx.p ** self.model.e
        return all(r == want for r in self.model_degrees)

    def level(self, s: int) -> Subspace:
        """F_s, with s = -1 giving the ambient space."""
        return self.levels[s + 1]


def tower(D: HSDerivation) -> ConstantsTower:
    """The constants tower by descent, its components read from D's e axis
    stacks. Each stack is read once and only copies of its m p-power
    matrices are kept. Level s is then taken one component at a time: the
    kernel of the component at p^s e_l inside what the component before it
    left, starting from level s-1, so each elimination sees one matrix, on
    the coordinates of the space above it."""
    model = D.model
    p, e, m = model.ctx.p, model.e, model.m
    powers = [p**s for s in range(m)]
    mats = [D.axis_stack(l)[powers] for l in range(e)]
    levels = [Subspace.full(model.ctx, model.dim)]
    for s in range(m):
        V = levels[-1]
        for l in range(e):
            V = kernel_space(model.ctx, mats[l][s], V)
        levels.append(V)
    return ConstantsTower(model, levels)


def _zm(ctx, mat: np.ndarray) -> dict:
    """T^p = 0 and ker T^(p-1) = im T, with T^(p-1) built by p-2 products.

    The second is read off ranks. Given T^p = 0, im T lies inside
    ker T^(p-1), so the two are equal exactly when rank T + rank T^(p-1)
    = n; and equality itself forces T^p = T^(p-1) T = 0. So it costs one
    elimination at p = 2 and two otherwise, and none when T^p != 0."""
    pm1 = mat
    for _ in range(ctx.p - 2):
        pm1 = ctx.mat_mul(pm1, mat)
    nilpotent = not ctx.mat_mul(pm1, mat).any()
    balanced = False
    if nilpotent:
        rank = len(rref(ctx, mat)[1])
        rank_pm1 = rank if ctx.p == 2 else len(rref(ctx, pm1)[1])
        balanced = rank + rank_pm1 == mat.shape[0]
    return {"nilpotent_p": nilpotent, "ker_im_equal": balanced}


def restrict_matrix(D, i, V: Subspace) -> np.ndarray:
    """Matrix of the component D_i on V's echelon basis coordinates; D as
    in joint_kernel.

    D_i must map V into itself; a basis image escaping V is a hypothesis
    failure, not a recoverable condition, since every caller divides
    through the restricted operator.
    """
    comps = _components(D)
    ctx = comps.model.ctx
    if V.dim == 0:
        return ctx.zeros((0, 0))
    rows = ctx.mat_mul(V.basis, comps.mat(i).swapaxes(0, 1))
    try:
        coords = V.coords_of(rows)
    except NoSolution:
        raise HypothesisFailure(
            f"component {i} does not preserve its correction space"
        ) from None
    return np.ascontiguousarray(coords.swapaxes(0, 1))


def divisible_restriction(D, i, V: Subspace) -> np.ndarray:
    """restrict_matrix, certified for dividing through: T^p = 0, ker T^(p-1) = im T."""
    rmat = restrict_matrix(D, i, V)
    cert = _zm(V.ctx, rmat)
    if not cert["nilpotent_p"]:
        raise HypothesisFailure(
            f"component {i} is not p-nilpotent on its correction space"
        )
    if not cert["ker_im_equal"]:
        raise HypothesisFailure(
            f"kernel/image balance fails for component {i} on its correction space"
        )
    return rmat
