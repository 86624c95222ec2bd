"""Outside-in tracer: wraps hsderiv's public functions from the outside.

No file of the package changes. ``Tracer.install`` replaces each target
function in every hsderiv namespace that binds it (``basis`` imports
``kernel_space`` by name, ``lattice`` imports ``preimage_solve`` under an
alias), and in the class dictionaries for methods. ``uninstall`` puts the
originals back.

Each call becomes a span: name, parent span, start and end. Spans live in
flat arrays in memory and are written out once, at the end. Self time is
the span's duration minus the durations of its direct children. Counts are
taken only from arguments and return values (matrix shapes, pivot lists,
table ``nbytes``).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict


def _rref_counts(counts, args, result):
    mat = args[1]
    rows, cols, d = mat.shape
    counts["linalg.rref.cells"] += rows * cols * d
    counts["linalg.rref.rows"] += rows
    counts["linalg.rref.pivots"] += len(result[1])


def _table_counts(counts, args, result):
    counts["derivation.table_bytes.max"] = max(
        counts["derivation.table_bytes.max"], result.nbytes)


_SUBSPACE = tuple(f"Subspace.{m}" for m in (
    "from_vectors", "full", "zero_space", "reduce_mod", "contains",
    "coords_of", "lift", "is_subspace_of", "intersect", "sum_with",
    "image_of")) + ("image_space", "kernel_space")

# span name -> (module, attribute paths, count hook)
TARGETS = {
    "linalg.rref": ("hsderiv.linalg", ("rref",), _rref_counts),
    "linalg.nullspace": ("hsderiv.linalg", ("nullspace",), None),
    "linalg.solve": ("hsderiv.linalg", ("solve",), None),
    "linalg.preimage_solve": ("hsderiv.linalg", ("preimage_solve",), None),
    "linalg.subspace": ("hsderiv.linalg", _SUBSPACE, None),
    "densepoly.mul": ("hsderiv.densepoly", ("DenseRing.mul",), None),
    "densepoly.product_table": (
        "hsderiv.densepoly", ("DenseRing.product_table",), None),
    # the lazy table constructor is private; it is the only place a table is
    # made, so wrapping it counts builds exactly
    "derivation.table": (
        "hsderiv.derivation", ("HSDerivation._build_table",), _table_counts),
    "derivation.twist": ("hsderiv.derivation", ("twist_by_automorphism",), None),
    "derivation.check_iterativity": (
        "hsderiv.derivation", ("HSDerivation.check_iterativity",), None),
    "derivation.p_fold_evP": ("hsderiv.derivation", ("p_fold_evP",), None),
    "derivation.reconstruct": (
        "hsderiv.derivation", ("reconstruct_from_ppowers",), None),
    "derivation.apply": ("hsderiv.derivation", ("HSDerivation.apply",), None),
    "truncated.substitute": ("hsderiv.truncated", ("substitute",), None),
    "truncated.mul": ("hsderiv.truncated", ("TruncatedPoly.__mul__",), None),
    "gf.mat_mul": ("hsderiv.gf", ("FqContext.mat_mul",), None),
    "grouplaw.structure_constants": (
        "hsderiv.grouplaw", ("structure_constants",), None),
    "grouplaw.law_build": ("hsderiv.grouplaw", (
        "make_additive", "make_multiplicative", "make_witt2", "product_law"),
        None),
    "grouplaw.iterated_law": ("hsderiv.grouplaw", ("iterated_law",), None),
    "lattice.tower": ("hsderiv.lattice", ("tower",), None),
    "basis.assemble_product_basis": (
        "hsderiv.basis", ("assemble_product_basis",), None),
    "basis.verify_canonical_basis": (
        "hsderiv.basis", ("verify_canonical_basis",), None),
    "poly.mul": ("hsderiv.poly", ("MultiPoly.__mul__",), None),
    "fieldmodel.wronskian_matrix": (
        "hsderiv.fieldmodel", ("wronskian_matrix",), None),
    "fieldmodel.rank_over_field": (
        "hsderiv.fieldmodel", ("rank_over_field",), None),
    "cli.run": ("hsderiv.cli", ("run",), None),
    "cli.render_report": ("hsderiv.cli", ("render_report",), None),
    "textform.parse": ("hsderiv.textform", (
        "parse_poly", "parse_scalar", "parse_trunc", "parse_ratfunc"), None),
    "textform.format": ("hsderiv.textform", (
        "format_scalar", "format_poly", "format_trunc", "format_ratfunc"), None),
}

JOB_SPAN = "bench.job"


def self_times(parents, t0, t1) -> list:
    """Per-span self time: duration minus the durations of direct children."""
    out = [b - a for a, b in zip(t0, t1)]
    for i, par in enumerate(parents):
        if par >= 0:
            out[par] -= t1[i] - t0[i]
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ix: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.job_of: dict[int, int] = {}  # root span index -> job id
        self._stack = [-1]
        self.counts = defaultdict(int)
        self._undo: list = []

    def _name_ix(self, name: str) -> int:
        if name not in self._ix:
            self._ix[name] = len(self.names)
            self.names.append(name)
        return self._ix[name]

    def wrap(self, name: str, fn, hook=None):
        ix = self._name_ix(name)
        names, parents, t0s, t1s = self.name, self.parent, self.t0, self.t1
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            k = len(names)
            names.append(ix)
            parents.append(stack[-1])
            t1s.append(0.0)
            stack.append(k)
            t0s.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1s[k] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def job(self, job_id: int, fn, *args):
        """Run fn(*args) under a root span tagged with the job id."""
        self.job_of[len(self.name)] = job_id
        return self.wrap(JOB_SPAN, fn)(*args)

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        for modname, _, _ in TARGETS.values():
            importlib.import_module(modname)
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "hsderiv" or n.startswith("hsderiv."))]
        for span, (modname, paths, hook) in TARGETS.items():
            mod = sys.modules[modname]
            for path in paths:
                if "." in path:
                    self._install_method(span, getattr(mod, path.split(".")[0]),
                                         path.split(".")[1], hook)
                else:
                    self._install_function(span, modules, getattr(mod, path), hook)

    def _install_function(self, span, modules, fn, hook):
        wrapped = self.wrap(span, fn, hook)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapped)

    def _install_method(self, span, cls, attr, hook):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(span, raw.__func__, hook))
        else:
            wrapped = self.wrap(span, raw, hook)
        # aliases such as __rmul__ = __mul__ share the function object
        for name, value in list(cls.__dict__.items()):
            if value is raw:
                self._set(cls, name, wrapped)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls and summed self time in seconds."""
        selfs = self_times(self.parent, self.t0, self.t1)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for ix, s in zip(self.name, selfs):
            calls[self.names[ix]] += 1
            self_s[self.names[ix]] += s
        return {n: {"calls": calls[n], "self_s": self_s[n]} for n in self.names}

    def job_wall(self) -> float:
        return sum(self.t1[k] - self.t0[k] for k in self.job_of)

    def write(self, path):
        """Dump every span as columns: names, name index, parent, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "name": self.name.tolist(),
                "parent": self.parent.tolist(),
                "t0": self.t0.tolist(),
                "t1": self.t1.tolist(),
                "jobs": {str(k): v for k, v in self.job_of.items()},
            }, fh)
