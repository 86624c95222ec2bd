"""Seeded job streams for the three benchmark workloads.

A stream is a fixed list of job slots: each slot fixes the command, the law
shape (p, d, m, dimension) and the number of random terms. The seed only
fills in coefficients, alphas, index pairs and the squares of singular
twists, so every seed has the same cost profile. hsderiv sees nothing but
the generated configs.

Every job carries the outcome predicted by ``oracle.predict``.
"""

from __future__ import annotations

import random

from oracle import predict

WORKLOADS = ("coords", "identities", "fields")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"hsderiv-bench/{workload}/{seed}")


# -- text helpers --------------------------------------------------------

def _scalar(rng, p: int, d: int) -> str:
    """A nonzero scalar as a factor: a digit, or a parenthesised g-poly."""
    while True:
        digits = [rng.randrange(p) for _ in range(d)]
        if any(digits):
            break
    if d == 1:
        return str(digits[0])
    parts = []
    for k in range(d - 1, -1, -1):
        c = digits[k]
        if not c:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            g = "g" if k == 1 else f"g^{k}"
            parts.append(g if c == 1 else f"{c}*{g}")
    return "(" + " + ".join(parts) + ")"


def _mono(exps) -> str:
    return "*".join(f"x{i + 1}" if k == 1 else f"x{i + 1}^{k}"
                    for i, k in enumerate(exps) if k)


def unipotent_twist(rng, p: int, d: int, e: int, m: int,
                    degrees=(2, 3, 4)) -> list:
    """Images x_t + c x_{t+1} + c' m for one fixed monomial m of each degree.

    The linear part is unit upper triangular, so the map is invertible; the
    higher coefficients may lie outside the prime field when d > 1. Fixing
    the degrees fixes the cost of inverting the map, which grows as the
    lowest nonlinear degree falls; fixing the monomials keeps the cost of
    the job the same for every seed, which only draws the coefficients.
    """
    box = _box(p ** m, e)
    phi = []
    for t in range(e):
        parts = [f"x{t + 1}"]
        if t + 1 < e:
            parts.append(f"{rng.randrange(1, p)}*x{t + 2}")
        for k in degrees:
            pool = [ex for ex in box if sum(ex) == k]
            if pool:
                parts.append(f"{_scalar(rng, p, d)}*{_mono(pool[t % len(pool)])}")
        phi.append(" + ".join(parts))
    return phi


def singular_twist(rng, p: int, e: int, m: int) -> list:
    """Every image shares one linear form, so the linear part has rank one."""
    c = rng.randrange(1, p)
    lin = " + ".join(f"{c}*x{l + 1}" if l else f"x{l + 1}" for l in range(e))
    squares = [ex for ex in _box(p ** m, e) if sum(ex) == 2]
    return [f"{lin} + {rng.randrange(1, p)}*{_mono(rng.choice(squares))}"
            for _ in range(e)]


def _alphas(rng, p: int, d: int, m: int) -> list:
    """Nonzero level coefficients, so every level of the carry is present."""
    return [_scalar(rng, p, d).strip("()") if d > 1 else rng.randrange(1, p)
            for _ in range(m)]


def _witt2(rng, p, d, m):
    return {"type": "witt2", "alphas": _alphas(rng, p, d, m)}


def _product(*factors):
    return {"type": "product", "factors": list(factors)}


_MULT = {"type": "multiplicative"}
_ADD1 = {"type": "additive", "e": 1}


def _ctx(p, m, d=1):
    return {"p": p, "d": d, "m": m} if d > 1 else {"p": p, "m": m}


def _once(build):
    """Mark a slot whose job runs once per run, outside the timed passes."""
    build.once = True
    return build


# -- coords --------------------------------------------------------------

def _coords_slots():
    """(count, build) pairs; build(rng) returns one config."""

    def twisted(cmd, p, m, law="witt2", d=1):
        def build(rng):
            if law == "witt2":
                spec, e = _witt2(rng, p, d, m), 2
            elif law == "witt2xmult":
                spec, e = _product(_witt2(rng, p, d, m), _MULT), 3
            else:
                spec, e = _product(_ADD1, _MULT), 2
            # degrees from p^m up: the inverse map converges in a few
            # rounds, so the job's time goes to the constants search
            n = p ** m
            phi = unipotent_twist(rng, p, d, e, m, (n, n + 1, 2 * n - 1))
            return {"command": cmd, "context": _ctx(p, m, d), "law": spec,
                    "derivation": {"type": "twist", "phi": phi}}
        return build

    def verify(p, m):
        def build(rng):
            return {"command": "basis-verify", "context": _ctx(p, m),
                    "law": _witt2(rng, p, 1, m), "elements": ["x1", "x2"]}
        return build

    def additive_tower(p, e, m):
        def build(rng):
            return {"command": "tower", "context": _ctx(p, m),
                    "law": {"type": "additive", "e": e}}
        return build

    def singular(p, m):
        def build(rng):
            return {"command": "basis-find", "context": _ctx(p, m),
                    "law": _witt2(rng, p, 1, m), "derivation": {
                        "type": "twist", "phi": singular_twist(rng, p, 2, m)}}
        return build

    # Every timed job stays well under a second, so that a run fits many
    # passes and each job's median over them is a steady estimate; the dim-64
    # basis-find is the largest. The dim-243 tower runs once per run.
    find = "basis-find"
    return [
        (4, twisted(find, 2, 1)), (4, twisted(find, 2, 2)),
        (1, twisted(find, 2, 3)), (4, twisted(find, 3, 1)),
        (2, twisted(find, 2, 1, "witt2xmult")),
        (2, twisted(find, 2, 1, "addxmult")), (2, twisted(find, 2, 2, "addxmult")),
        (2, twisted(find, 3, 1, "addxmult")),
        (2, twisted(find, 2, 1, d=2)), (2, twisted(find, 2, 2, d=2)),
        (2, twisted(find, 3, 1, d=2)),
        (8, verify(2, 2)), (1, verify(3, 1)), (1, verify(3, 2)),
        # p = 2 leaves no choice of alphas, so these towers cost the same
        # for every seed; with the two below, the median job sits inside
        # this group rather than at its edge
        (4, twisted("tower", 2, 2)), (1, twisted("tower", 2, 3)),
        (2, twisted("tower", 3, 1)),
        (2, twisted("tower", 2, 2, "addxmult")),
        (1, _once(additive_tower(3, 5, 1))),   # dim 243: the peak-memory job
        (1, additive_tower(5, 2, 2)),   # dim 625: over the table budget
        (1, singular(2, 2)), (1, singular(3, 1)),
    ]


# -- identities ----------------------------------------------------------

def dense_twist_1d(rng, p: int, degrees) -> list:
    """x1 + sum of c_k x1^k over a fixed degree list, c_k random nonzero."""
    return [" + ".join(["x1"] + [f"{rng.randrange(1, p)}*x1^{k}" for k in degrees])]


# fixed dense degree lists for the one-dimensional twists at m = 2; the
# lowest degree sets the cost of inverting the map (tenths of a second)
_DENSE = {5: (3, 5, 7, 11), 7: (12, 18, 30, 40)}


def _identity_slots():
    def one_dim(cmd, p, law, pair=False):
        def build(rng):
            cfg = {"command": cmd, "context": _ctx(p, 2), "law": law,
                   "derivation": {"type": "twist",
                                  "phi": dense_twist_1d(rng, p, _DENSE[p])}}
            if pair:
                cfg["i"] = [rng.randrange(1, p * p)]
                cfg["j"] = [rng.randrange(1, p * p)]
            return cfg
        return build

    def law_of(rng, law, p, m):
        if law == "witt2":
            return _witt2(rng, p, 1, m), 2
        if law == "witt2xmult":
            return _product(_witt2(rng, p, 1, m), _MULT), 3
        return _product(_ADD1, _MULT), 2

    def multi_dim(cmd, p, m, law, pair=False, twist=True):
        def build(rng):
            spec, e = law_of(rng, law, p, m)
            cfg = {"command": cmd, "context": _ctx(p, m), "law": spec}
            if twist:
                n = p ** m
                cfg["derivation"] = {"type": "twist", "phi": unipotent_twist(
                    rng, p, 1, e, m, (n, n + 1, 2 * n - 1))}
            if pair:
                n = p ** m
                cfg["i"] = [rng.randrange(1, n)] + [rng.randrange(n) for _ in range(e - 1)]
                cfg["j"] = [rng.randrange(n) for _ in range(e - 1)] + [rng.randrange(1, n)]
            return cfg
        return build

    def library(op, p, m, law):
        def build(rng):
            if law == "multiplicative":
                spec, phi = _MULT, dense_twist_1d(rng, p, _DENSE[p])
            else:
                spec, e = law_of(rng, law, p, m)
                phi = unipotent_twist(rng, p, 1, e, m)
            return {"op": op, "context": _ctx(p, m), "law": spec,
                    "derivation": {"type": "twist", "phi": phi}}
        return build

    def over_budget(rng):
        return {"command": "iterativity", "context": _ctx(5, 2),
                "law": {"type": "additive", "e": 2}}

    def singular(rng):
        return {"command": "iterativity", "context": _ctx(3, 2),
                "law": _witt2(rng, 3, 1, 2),
                "derivation": {"type": "twist", "phi": singular_twist(rng, 3, 2, 2)}}

    # Six heavier jobs (p = 7, and the multiplicative law at p = 5), then
    # nine one-dimensional additive jobs of one cost: the tail job (the
    # tenth from the top) sits inside that group, not at its edge. No job
    # takes more than a few tenths of a second, so a run fits many passes.
    slots = [
        (1, one_dim("iterativity", 7, _ADD1)),
        (1, one_dim("iterativity", 5, _MULT)),
        (1, one_dim("evp-check", 5, _MULT)),
        (1, one_dim("structure-constants", 5, _MULT)),
        (1, one_dim("iterativity", 5, _ADD1)),
        (1, one_dim("evp-check", 5, _ADD1)),
        (1, one_dim("structure-constants", 5, _ADD1)),
        (6, one_dim("structure-constants", 5, _ADD1, pair=True)),
    ]
    # The dim-9 and dim-16 laws give many short jobs of steady cost, with
    # twists of degree p^m and up; with the canonical ones below, the median
    # job sits inside that group rather than at its edge with the
    # twist-heavy jobs.
    for p, m, law in ((3, 1, "witt2"), (3, 1, "addxmult"), (2, 2, "witt2"),
                      (2, 2, "addxmult")):
        slots += [
            (1, multi_dim("iterativity", p, m, law)),
            (1, multi_dim("evp-check", p, m, law)),
            (1, multi_dim("structure-constants", p, m, law)),
            (2, multi_dim("structure-constants", p, m, law, pair=True)),
        ]
    for law in ("witt2", "addxmult"):
        slots += [
            (1, multi_dim("iterativity", 2, 2, law, twist=False)),
            (1, multi_dim("evp-check", 2, 2, law, twist=False)),
            (1, multi_dim("structure-constants", 2, 2, law, twist=False)),
        ]
    slots += [
        (1, library("reconstruct", 2, 2, "witt2")),
        (1, library("reconstruct", 3, 1, "addxmult")),
        (1, library("reconstruct", 5, 2, "multiplicative")),
        (1, library("structure-constants-all", 2, 2, "witt2")),
        (1, library("structure-constants-all", 2, 2, "addxmult")),
        (1, library("structure-constants-all", 5, 2, "multiplicative")),
        (1, over_budget),   # dim 625: over the table budget
        (1, singular),
    ]
    return slots


# -- fields --------------------------------------------------------------

def _kp_element(rng, p: int, e: int) -> str:
    """Nonzero element of K^p of fixed shape: c0 + c1 x1^p (+ c2 x2^p)."""
    terms = [str(rng.randrange(1, p))] + [
        f"{rng.randrange(1, p)}*x{t + 1}^{p}" for t in range(e)]
    return "(" + " + ".join(terms) + ")"


def _poly(rng, p: int, exps) -> str:
    """Random nonzero coefficients on a fixed list of monomials."""
    return " + ".join(f"{rng.randrange(1, p)}*{_mono(ex)}" for ex in exps)


def _field_slots():
    def dependent(p, e, rational):
        # two fixed-shape elements and a K^p-combination of them
        shapes = ([(1,), (2,)], [(1,), (p + 1,)]) if e == 1 else \
            ([(1, 0), (0, 2)], [(0, 1), (2, 1)])

        def build(rng):
            a1, a2 = (_poly(rng, p, s) for s in shapes)
            c1, c2 = _kp_element(rng, p, e), _kp_element(rng, p, e)
            comb = f"{c1}*({a1}) + {c2}*({a2})"
            elems = [a1, a2, comb]
            if rational:
                den = f"x1 + {rng.randrange(1, p)}"
                elems = [f"({a}) / ({den})" for a in elems]
            return {"command": "wronskian", "context": _ctx(p, 1),
                    "law": {"type": "additive", "e": e}, "elements": elems,
                    "test": "dependence", "expect": "dependent"}
        return build

    def independent(p, e, size, rational):
        # c_a x^a over the first box monomials, c_a in K^p: independent
        picks = _box(p, e)[:size]

        def build(rng):
            elems = [f"{_kp_element(rng, p, e)}*{_mono(ex) or '1'}" for ex in picks]
            if rational:
                den = f"x1 + {rng.randrange(1, p)}"
                elems = [f"({f}) / ({den})" for f in elems]
            return {"command": "wronskian", "context": _ctx(p, 1),
                    "law": {"type": "additive", "e": e}, "elements": elems,
                    "test": "dependence", "expect": "independent"}
        return build

    def p_indep(p, expect):
        # K^p(x1 + c) = K^p(x1); x2 + c' lies outside it, c x1^k + c' inside
        def build(rng):
            f1 = f"x1 + {_kp_element(rng, p, 2)}"
            if expect:
                f2 = f"x2 + {_kp_element(rng, p, 2)}"
            else:
                k = p - 1 if p > 2 else 3
                f2 = f"{_kp_element(rng, p, 2)}*x1^{k} + {_kp_element(rng, p, 2)}"
            return {"command": "wronskian", "context": _ctx(p, 1),
                    "law": {"type": "additive", "e": 2}, "elements": [f1, f2],
                    "test": "p-independence", "expect": expect}
        return build

    slots = []
    for p in (2, 3, 5):
        for e in (1, 2):
            size = min(p ** e, 4)
            # six of the p = 5, e = 2 dependent jobs, so that the tail job
            # (the eleventh from the top) sits inside their group
            slots += [(6 if (p, e) == (5, 2) else 3, dependent(p, e, False)),
                      (3, independent(p, e, size, False))]
            # without gcd reduction rational entries grow fast, and their
            # cost swings with the coefficients: keep them to small boxes
            if p ** e <= 5:
                slots += [(2, dependent(p, e, True)),
                          (2, independent(p, e, size, True))]
    slots += [(2, p_indep(2, True)), (2, p_indep(2, False)),
              (1, p_indep(3, True)), (1, p_indep(3, False))]
    return slots


def _box(p: int, e: int):
    out = [()]
    for _ in range(e):
        out = [ex + (k,) for ex in out for k in range(p)]
    return out


_SLOTS = {
    "coords": _coords_slots,
    "identities": _identity_slots,
    "fields": _field_slots,
}


def generate(workload: str, seed: int) -> list:
    """The job list for one workload and seed, each job with its prediction."""
    rng = _rng(workload, seed)
    jobs = []
    for count, build in _SLOTS[workload]():
        for _ in range(count):
            cfg = build(rng)
            kind = "library" if "op" in cfg else "cli"
            jobs.append({"id": len(jobs), "kind": kind, "config": cfg,
                         "expect": predict(cfg),
                         "timed": not getattr(build, "once", False)})
    return jobs


def job_class(job: dict) -> str:
    """Seed-independent label: command, law shape and field size."""
    cfg = job["config"]
    ctx = cfg["context"]
    law = cfg["law"]
    shape = law["type"] if law["type"] != "product" else "x".join(
        f["type"] for f in law["factors"])
    name = cfg.get("command") or cfg["op"]
    extra = ""
    if name == "structure-constants" and "i" in cfg:
        extra = "-pair"
    if name == "wronskian":
        extra = "-" + cfg["test"] + "-" + str(cfg["expect"])
    return (f"{name}{extra}:{shape}:p{ctx['p']}:d{ctx.get('d', 1)}:"
            f"m{ctx.get('m', 1)}:e{law.get('e', '')}")
