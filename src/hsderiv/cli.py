"""Batch driver: structured job configs in, deterministic reports out.

A job is a JSON object naming one command plus the data it needs (field
context, law, derivation, command parameters).  run() never raises on
domain failures; everything lands in the report as a structured entry, and
the exit code says what happened: 0 all checks passed, 1 a check or domain
error failed, 2 the config is malformed, 3 a resource guard tripped.

Reports are byte-deterministic for a fixed config: keys are sorted, all
symbolic values print in the canonical text form, and nothing time- or
host-dependent is recorded.
"""

import argparse
import json
import sys
from functools import reduce

import numpy as np

from .artinian import ArtinianModel
from .basis import assemble_product_basis, verify_canonical_basis
from .derivation import HSDerivation, canonical_derivation, p_fold_evP, \
    truncate_derivation, twist_by_automorphism, witt2_pfold_expansion
from .errors import HsderivError, MalformedConfig, ResourceGuard
from .fieldmodel import FieldDerivationContext, dependence_test, \
    p_independence_test
from .gf import FqContext, is_prime
from .grouplaw import check_axioms, h_n, make_additive, make_multiplicative, \
    make_witt2, n_series, product_law, structure_constants, truncate_law
from .lattice import tower
from .poly import MultiPoly
from .textform import format_poly, format_ratfunc, format_trunc, parse_poly, \
    parse_ratfunc, parse_scalar, parse_trunc
from .truncated import TruncatedPoly

SCHEMA_VERSION = 1
MAX_DIM = 2**16

COMMANDS = (
    "law-check", "pseries", "hn", "iterativity", "evp-check",
    "structure-constants", "tower", "basis-verify", "basis-find",
    "wronskian", "selftest",
)


def _require(cond, msg: str):
    if not cond:
        raise MalformedConfig(msg)


def _int_value(v, name, minimum=None, below=None):
    """v as a JSON integer in [minimum, below); MalformedConfig naming the
    field otherwise. A bool, a float or a string is not an integer."""
    _require(type(v) is int, f"field {name!r} must be an integer, got {v!r}")
    if minimum is not None:
        _require(v >= minimum, f"field {name!r} must be >= {minimum}, got {v}")
    if below is not None:
        _require(v < below, f"field {name!r} must be < {below}, got {v}")
    return v


def _strings(values, name):
    """values, a list, as a list of strings; MalformedConfig naming the
    first entry that is not a JSON string."""
    for k, v in enumerate(values):
        _require(isinstance(v, str), f"field '{name}[{k}]' must be a string, got {v!r}")
    return values


def _get_int(obj, key, default=None, minimum=None):
    v = obj.get(key, default)
    _require(v is not None, f"missing integer field {key!r}")
    return _int_value(v, key, minimum)


def _context_of(config) -> FqContext:
    c = config.get("context")
    _require(isinstance(c, dict), "config needs a context object")
    p = _get_int(c, "p")
    _require(is_prime(p), f"context.p must be prime, got {p}")
    d = _get_int(c, "d", default=1, minimum=1)
    modulus = c.get("modulus")
    if modulus is not None:
        _require(isinstance(modulus, list), "context.modulus must be a list of integers")
        modulus = tuple(_int_value(a, f"context.modulus[{k}]")
                        for k, a in enumerate(modulus))
    return FqContext(p, d, modulus)


def _spec_dim(spec) -> int:
    _require(isinstance(spec, dict), "law spec must be an object")
    typ = spec.get("type")
    if typ == "additive":
        return _get_int(spec, "e", default=1, minimum=1)
    if typ == "multiplicative":
        return 1
    if typ == "witt2":
        return 2
    if typ == "product":
        factors = spec.get("factors")
        _require(isinstance(factors, list) and len(factors) >= 2,
                 "product law needs a list of at least two factors")
        return sum(_spec_dim(s) for s in factors)
    raise MalformedConfig(f"unknown law type {typ!r}")


def _build_law(spec, ctx: FqContext, m: int):
    typ = spec["type"]
    if typ == "additive":
        return make_additive(ctx, _get_int(spec, "e", default=1, minimum=1), m)
    if typ == "multiplicative":
        return make_multiplicative(ctx, m)
    if typ == "witt2":
        alphas = spec.get("alphas", [])
        _require(isinstance(alphas, list), "witt2 alphas must be a list")
        for k, a in enumerate(alphas):
            _require(isinstance(a, str) or type(a) is int,
                     f"field 'alphas[{k}]' must be an integer or a string, got {a!r}")
        return make_witt2(ctx, m, [parse_scalar(ctx, a) for a in alphas])
    return reduce(product_law, [_build_law(s, ctx, m) for s in spec["factors"]])


def _law_of(config):
    """The config's law over its context, after the resource guard has cleared."""
    ctx = _context_of(config)
    c = config["context"]
    m = _get_int(c, "m", default=1)
    spec = config.get("law")
    _require(spec is not None, f"command {config.get('command')!r} needs a law")
    e = _spec_dim(spec)
    ce = c.get("e")
    if ce is not None:
        _require(_int_value(ce, "context.e") == e,
                 f"context.e = {ce} but the law spec has dimension {e}")
    if not 1 <= m <= 3:
        raise ResourceGuard(f"m must lie in [1, 3], got {m}")
    if ctx.p ** (e * m) > MAX_DIM:
        raise ResourceGuard(
            f"model dimension p^(e*m) = {ctx.p}^{e * m} exceeds {MAX_DIM}")
    return _build_law(spec, ctx, m)


def _derivation_of(config) -> HSDerivation:
    law = _law_of(config)
    model = ArtinianModel(law.ctx, law.e, law.m)
    spec = config.get("derivation", {"type": "canonical"})
    _require(isinstance(spec, dict), "derivation spec must be an object")
    typ = spec.get("type", "canonical")
    if typ == "canonical":
        return canonical_derivation(model, law)
    if typ == "images":
        images = spec.get("images")
        _require(isinstance(images, list) and len(images) == law.e,
                 f"images derivation needs {law.e} image strings")
        return HSDerivation(model, law, [
            parse_trunc(model.ring_xv, s) for s in _strings(images, "derivation.images")])
    if typ == "twist":
        phi = spec.get("phi")
        _require(isinstance(phi, list) and len(phi) == law.e,
                 f"twist needs {law.e} substitution strings")
        D = canonical_derivation(model, law)
        return twist_by_automorphism(
            D, [parse_trunc(model.ring, s) for s in _strings(phi, "derivation.phi")])
    raise MalformedConfig(f"unknown derivation type {typ!r}")


def _check(name, ok, expected=None, actual=None, detail=None):
    return {
        "name": name,
        "pass": bool(ok),
        "expected": expected,
        "actual": actual,
        "detail": detail if detail is not None else {},
    }


def _combo_matrix(D: HSDerivation, coeffs: dict) -> np.ndarray:
    """Matrix of sum_k coeffs[k] * D_k, keyed by full index tuples k."""
    ctx = D.model.ctx
    acc = np.zeros_like(D.component((0,) * D.model.e).mat)
    for k, c in coeffs.items():
        acc = ctx.arr_add(acc, ctx.arr_scale(c.digits, D.component(k).mat))
    return acc


def _witt2_pfold_holds(D: HSDerivation, M: dict, idx) -> bool:
    """The witt2 closed form of the p-fold composite M at idx: zero off the
    second axis, sum_s c_s D_(s,0) on it."""
    if idx[0] != 0:
        return not M[idx].mat.any()
    expansion = witt2_pfold_expansion(D.law, idx[1])
    combo = _combo_matrix(D, {(s, 0): c for s, c in expansion.items()})
    return np.array_equal(M[idx].mat, combo)


def _component_table(model: ArtinianModel, image: TruncatedPoly) -> dict:
    """Nonzero component values of one element, keyed by printed index,
    read off its image D(el) in the model ring."""
    by_v: dict = {}
    for exps, c in image.terms.items():
        xe, ve = exps[: model.e], exps[model.e:]
        by_v.setdefault(ve, {})[xe] = c
    out = {}
    for ve in model.xidx.monomials:
        if ve in by_v:
            key = ",".join(str(a) for a in ve)
            out[key] = format_trunc(TruncatedPoly(model.ring, by_v[ve]))
    return out


def _basis_checks(D: HSDerivation, elements, report) -> list:
    """Checks printed from report, the BasisReport of elements."""
    checks = []
    for row in report.embeddings:
        checks.append(_check(
            f"embedding-{row['generator']}", row["ok"],
            expected=format_trunc(row["expected"]),
            actual=format_trunc(row["actual"])))
    ind = report.independence
    checks.append(_check("independence", ind["ratio_ok"] and ind["monomials_ok"], detail={
        "dim_ambient": int(ind["dim_ambient"]),
        "dim_constants": int(ind["dim_constants"]),
        "ratio_ok": bool(ind["ratio_ok"]),
        "monomials_ok": bool(ind["monomials_ok"]),
    }))
    tables = [{"element": format_trunc(el),
               "components": _component_table(D.model, row["actual"]),
               "index_count": int(D.model.dim)}
              for el, row in zip(elements, report.embeddings)]
    checks.append(_check("component-tables", True, detail={"tables": tables}))
    return checks


def _cmd_law_check(config):
    return [_check(f"axiom-{k}", v, expected="True", actual=str(bool(v)))
            for k, v in sorted(check_axioms(_law_of(config)).items())]


def _cmd_pseries(config):
    law = _law_of(config)
    p = law.ctx.p
    N = _get_int(config, "N", default=p, minimum=0)
    comps = n_series(law, N)
    printed = [format_trunc(c) for c in comps]
    checks = [_check("pseries-components", True,
                     detail={"N": N, "components": printed})]
    if law.kind == "witt2" and N == p:
        vring = comps[0].ring
        terms = {}
        for nidx, a in enumerate(law.alphas):
            expo = p ** (nidx + 1)
            if expo < p ** law.m and a:
                terms[(0, expo)] = law.ctx.raw(-a)
        expected = TruncatedPoly(vring, terms)
        ok = comps[0] == expected and comps[1] == vring.zero
        checks.append(_check(
            "pseries-closed-form", ok,
            expected=f"({format_trunc(expected)}, 0)",
            actual=f"({printed[0]}, {printed[1]})"))
    return checks


def _cmd_hn(config):
    c = config.get("context")
    _require(isinstance(c, dict), "config needs a context object")
    p = _get_int(c, "p")
    _require(is_prime(p), f"context.p must be prime, got {p}")
    n = _get_int(config, "n", minimum=0)
    # H_n enters a law only at levels n < m, so p^(n+1) <= p^m <= MAX_DIM;
    # 2^(n+1) already exceeds MAX_DIM once n + 1 reaches its bit length
    if n + 1 >= MAX_DIM.bit_length() or p ** (n + 1) > MAX_DIM:
        raise ResourceGuard(f"hn degree p^(n+1) = {p}^{n + 1} exceeds {MAX_DIM}")
    f = h_n(p, n)
    s = format_poly(f)
    ok = parse_poly(f.ctx, f.vars, s) == f
    return [_check("hn", ok, actual=s, detail={"p": p, "n": n})]


def _cmd_iterativity(config):
    return [_check("iterativity", _derivation_of(config).check_iterativity())]


def _cmd_evp_check(config):
    D = _derivation_of(config)
    law = D.law
    M = p_fold_evP(D)
    zero = (0,) * law.e
    checks = [_check("pfold-identity-at-zero",
                     np.array_equal(M[zero].mat, D.component(zero).mat))]
    failures = []
    if law.kind == "additive":
        for idx in sorted(M):
            if any(idx) and M[idx].mat.any():
                failures.append(idx)
        name = "pfold-vanishes"
    elif law.kind == "multiplicative":
        for idx in sorted(M):
            if not np.array_equal(M[idx].mat, D.component(idx).mat):
                failures.append(idx)
        name = "pfold-fixes-components"
    elif law.kind == "witt2":
        failures = [idx for idx in sorted(M) if not _witt2_pfold_holds(D, M, idx)]
        name = "pfold-closed-form"
    else:
        return checks + [_check("pfold-no-catalogued-form", True, detail={
            "note": "no closed form catalogued for this law kind"})]
    detail = {"indices": len(M),
              "failures": [",".join(str(a) for a in i) for i in failures[:10]]}
    return checks + [_check(name, not failures, detail=detail)]


def _cmd_structure_constants(config):
    D = _derivation_of(config)
    if "i" not in config and "j" not in config:
        return [_check("structure-constants-all", D.check_iterativity(), detail={
            "pairs": int(D.model.dim) ** 2})]
    i = config.get("i")
    j = config.get("j")
    _require(isinstance(i, list) and isinstance(j, list),
             "structure-constants needs index lists i and j")
    e, n = D.model.e, D.model.n
    for key, idx in (("i", i), ("j", j)):
        _require(len(idx) == e, f"field {key!r} must list {e} indices, got {idx!r}")
        for k, t in enumerate(idx):
            _int_value(t, f"{key}[{k}]", 0, n)
    sc = structure_constants(D.law, i, j)
    combo = _combo_matrix(D, sc)
    ok = np.array_equal(D.compose(tuple(j), tuple(i)).mat, combo)
    table = {",".join(str(a) for a in k): str(c) for k, c in sc.items()}
    return [_check("structure-constants-pair", ok, detail={
        "i": list(i), "j": list(j), "constants": table})]


def _admitted_derivation(config) -> HSDerivation:
    """The config's derivation, refused with ResourceGuard unless its dense
    table fits. Admission stays at the table's dim^3 * d digits, the limit
    bench/oracle.py predicts, for the commands that read only axis stacks
    and images (tower, basis-find, basis-verify): e axis stacks of
    dim^2 * n * d digits each."""
    D = _derivation_of(config)
    D.model.guard_table((D.model.dim,) * 3)
    return D


def _cmd_tower(config):
    D = _admitted_derivation(config)
    t = tower(D)
    dims = [int(V.dim) for V in t.levels]
    step = D.model.ctx.p ** D.model.e
    ratios = all(dims[s] == step * dims[s + 1] for s in range(len(dims) - 1))
    return [
        _check("tower-dims", True, detail={
            "dims": dims, "degree_hypothesis_ok": bool(t.degree_hypothesis_ok)}),
        _check("tower-ratio", ratios, expected=f"x{step} per level",
               actual=str(dims)),
    ]


def _cmd_basis_verify(config):
    D = _admitted_derivation(config)
    els = config.get("elements")
    _require(isinstance(els, list) and els, "basis-verify needs elements")
    e = D.model.e
    _require(len(els) == e, f"field 'elements' must list {e} elements, got {len(els)}")
    elements = [parse_trunc(D.model.ring, s) for s in _strings(els, "elements")]
    return _basis_checks(D, elements, verify_canonical_basis(D, D.law, elements))


def _cmd_basis_find(config):
    D = _admitted_derivation(config)
    found = assemble_product_basis(D)
    listed = _check("found-elements", True, detail={
        "elements": [format_trunc(el) for el in found]})
    return [listed] + _basis_checks(D, found, found.report)


def _cmd_wronskian(config):
    fctx = FieldDerivationContext(_law_of(config))
    els = config.get("elements")
    _require(isinstance(els, list) and els, "wronskian needs elements")
    elements = [parse_ratfunc(fctx.ctx, fctx.xvars, s) for s in _strings(els, "elements")]
    mode = config.get("test", "dependence")
    expect = config.get("expect")
    if mode == "dependence":
        _require(expect in (None, "dependent", "independent"),
                 "field 'expect' of a dependence test must be \"dependent\", "
                 f"\"independent\" or absent; got {expect!r}")
        res = dependence_test(fctx, elements)
        verdict = "independent" if res["independent"] else "dependent"
        ok = True if expect is None else (verdict == expect)
        witness = None
        if res["witness"] is not None:
            witness = [format_ratfunc(w) for w in res["witness"]]
        return [_check("wronskian-dependence", ok,
                       expected=expect, actual=verdict,
                       detail={"rank": int(res["rank"]), "witness": witness})]
    if mode == "p-independence":
        _require(expect is None or isinstance(expect, bool),
                 "field 'expect' of a p-independence test must be true, false "
                 f"or absent; got {expect!r}")
        val = p_independence_test(fctx, elements)
        ok = True if expect is None else expect == val
        return [_check("wronskian-p-independence", ok,
                       expected=None if expect is None else str(expect),
                       actual=str(val))]
    raise MalformedConfig(f"unknown wronskian test {mode!r}")


def _selftest_pair():
    """Fixed depth-2 configuration with a shear twist, rebuilt per block."""
    ctx = FqContext(2, 1)
    D = canonical_derivation(ArtinianModel(ctx, 2, 2), make_witt2(ctx, 2, [1, 1]))
    phi = [parse_trunc(D.model.ring, "x1 + x2^2"),
           parse_trunc(D.model.ring, "x2")]
    return D, twist_by_automorphism(D, phi)


def _cmd_selftest(config):
    checks = []

    def add(name, ok, expected=None, actual=None, **detail):
        checks.append(_check(name, ok, expected, actual, detail or None))

    def guard(name, fn):
        # a failure inside one block becomes one failing check, not a wipeout
        try:
            fn()
        except HsderivError as ex:
            add(name, False, actual=f"{type(ex).__name__}: {ex}")

    def axioms():
        for p, m in ((2, 1), (2, 2), (3, 1)):
            ctx = FqContext(p, 1)
            laws = [make_additive(ctx, 1, m), make_multiplicative(ctx, m),
                    make_witt2(ctx, m, [1] * m)]
            laws.append(product_law(laws[0], laws[1]))
            ok = all(all(check_axioms(l).values()) for l in laws)
            add(f"axioms-p{p}-m{m}", ok)

    def pseries():
        for p in (2, 3):
            ctx = FqContext(p, 1)
            law = make_witt2(ctx, 2, [1, 0])
            comps = n_series(law, p)
            vring = comps[0].ring
            expected = vring.monomial((0, p), -1)
            add(f"pseries-p{p}",
                comps[0] == expected and comps[1] == vring.zero,
                expected=format_trunc(expected), actual=format_trunc(comps[0]))

    def hn_value():
        f = h_n(3, 0)
        g = parse_poly(f.ctx, f.vars, "x*y^2 + x^2*y")
        add("hn-value",
            f == g and parse_poly(f.ctx, f.vars, format_poly(f)) == f,
            actual=format_poly(f))

    def iterativity():
        D, T = _selftest_pair()
        add("iterativity-canonical", D.check_iterativity())
        add("iterativity-twisted", T.check_iterativity())

    def pfold():
        _, T = _selftest_pair()
        M = p_fold_evP(T)
        add("pfold-closed-form", all(_witt2_pfold_holds(T, M, idx) for idx in sorted(M)))

    def basis():
        # the assembly verifies what it finds and raises AssemblyMismatch,
        # a failing check here, for a family that fails
        _, T = _selftest_pair()
        x, y = found = assemble_product_basis(T)
        add("basis-roundtrip", found.report.passed,
            actual=f"x = {format_trunc(x)}, y = {format_trunc(y)}")

    def tower_ratios():
        D, _ = _selftest_pair()
        dims = [int(V.dim) for V in tower(D).levels]
        add("tower-ratios",
            all(dims[s] == 4 * dims[s + 1] for s in range(len(dims) - 1)),
            actual=str(dims))

    def wronskian():
        ctx = FqContext(2, 1)
        fctx = FieldDerivationContext(make_additive(ctx, 1, 1))
        xf = fctx.dom.coerce(MultiPoly.var(ctx, fctx.xvars, "x1"))
        r1 = dependence_test(fctx, [fctx.dom.one, xf])
        r2 = dependence_test(fctx, [fctx.dom.one, xf * xf])
        ok = r1["independent"] and not r2["independent"]
        ok = ok and r2["witness"] is not None
        ok = ok and p_independence_test(fctx, [xf])
        ok = ok and not p_independence_test(fctx, [xf * xf])
        add("wronskian-examples", ok)

    def truncate():
        D, _ = _selftest_pair()
        D1 = truncate_derivation(D, 1)
        law1 = truncate_law(D.law, 1)
        D2 = canonical_derivation(ArtinianModel(D.model.ctx, 2, 1), law1)
        add("truncate-compat",
            D1.law == D2.law and np.array_equal(D1.table(), D2.table()))

    def roundtrip():
        law = _selftest_pair()[0].law
        add("print-roundtrip",
            all(parse_trunc(law.ring, format_trunc(c)) == c
                for c in law.components))

    guard("axioms", axioms)
    guard("pseries", pseries)
    guard("hn-value", hn_value)
    guard("iterativity", iterativity)
    guard("pfold-closed-form", pfold)
    guard("basis-roundtrip", basis)
    guard("tower-ratios", tower_ratios)
    guard("wronskian-examples", wronskian)
    guard("truncate-compat", truncate)
    guard("print-roundtrip", roundtrip)
    return checks


_HANDLERS = {
    "law-check": _cmd_law_check,
    "pseries": _cmd_pseries,
    "hn": _cmd_hn,
    "iterativity": _cmd_iterativity,
    "evp-check": _cmd_evp_check,
    "structure-constants": _cmd_structure_constants,
    "tower": _cmd_tower,
    "basis-verify": _cmd_basis_verify,
    "basis-find": _cmd_basis_find,
    "wronskian": _cmd_wronskian,
    "selftest": _cmd_selftest,
}


def _report(config, command=None, checks=(), error=None) -> dict:
    """The one report layout; error is (kind, message) for a job it stopped."""
    errors = [] if error is None else [{"kind": error[0], "message": error[1]}]
    return {
        "schema": SCHEMA_VERSION,
        "tool": "hsderiv",
        "command": command,
        "config": config,
        "checks": list(checks),
        "errors": errors,
        "pass": not errors and all(c["pass"] for c in checks),
    }


def run(config) -> tuple[dict, int]:
    """Execute one job; returns (report, exit_code) and never raises."""
    command = None
    try:
        _require(isinstance(config, dict), "config must be a JSON object")
        cmd = config.get("command")
        _require(cmd in COMMANDS,
                 f"command must be one of {', '.join(COMMANDS)}; got {cmd!r}")
        command = cmd
        checks = _HANDLERS[cmd](config)
    except MalformedConfig as ex:
        return _report(config, command, error=("malformed-config", str(ex))), 2
    except ResourceGuard as ex:
        return _report(config, command, error=("resource-guard", str(ex))), 3
    except HsderivError as ex:
        return _report(config, command, error=(type(ex).__name__, str(ex))), 1
    except (KeyError, TypeError, ValueError) as ex:
        message = f"{type(ex).__name__}: {ex}"
        return _report(config, command, error=("malformed-config", message)), 2
    except Exception as ex:
        message = f"{type(ex).__name__}: {ex}"
        return _report(config, command, error=("internal-error", message)), 1
    report = _report(config, command, checks)
    return report, 0 if report["pass"] else 1


def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _summarize(report: dict, code: int, out):
    print(f"command: {report['command']}", file=out)
    for c in report["checks"]:
        mark = " ok " if c["pass"] else "FAIL"
        line = f"[{mark}] {c['name']}"
        if not c["pass"] and c["expected"] is not None:
            line += f" (expected {c['expected']}, got {c['actual']})"
        print(line, file=out)
    for err in report["errors"]:
        print(f"error: {err['kind']}: {err['message']}", file=out)
    verdict = "pass" if report["pass"] else "fail"
    print(f"result: {verdict} (exit {code})", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hsderiv",
        description="exact iterative-derivation checks, driven by job configs")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    runp = sub.add_parser("run", help="execute one job config")
    runp.add_argument("config", help="path to a JSON job config")
    runp.add_argument("--report", help="also write the JSON report here")
    runp.add_argument("--quiet", action="store_true",
                      help="suppress the human-readable summary")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as ex:
        print(f"hsderiv: cannot read config: {ex}", file=sys.stderr)
        return 2
    try:
        config = json.loads(raw)
    except json.JSONDecodeError as ex:
        report = _report(None, error=(
            "malformed-config", f"invalid JSON: {ex.msg} at line {ex.lineno}"))
        code = 2
    else:
        report, code = run(config)

    text = render_report(report)
    sys.stdout.write(text)
    if args.report:
        with open(args.report, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    if not args.quiet:
        _summarize(report, code, sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
