"""Predicted outcome of a benchmark job, derived from the mathematics alone.

Nothing here imports hsderiv. A prediction names the exit code, the error
kind (or None), the report's aggregate ``pass`` and, where the theory fixes
it, a few check values:

- constructor laws (additive, multiplicative, witt2, products) are formal
  group laws, and their canonical derivations are iterative; a twist by an
  automorphism keeps iterativity, so every identity check passes;
- the constants tower of an e-dimensional law at depth m has dimensions
  p^(e*m), p^(e*(m-1)), ..., 1, and twisting does not change them;
- a substitution whose linear part is singular, or which moves the origin,
  is not an automorphism: the job fails with NotInvertible, exit 1;
- the dense derivation table needs dim^3 * d digits; past the documented
  budget the job is refused with resource-guard, exit 3, as is a model
  dimension p^(e*m) above 65536.

Wronskian jobs carry their own expectation in the config (the generator
builds each family dependent or independent by construction), so a passing
report means hsderiv agreed with the construction.
"""

from __future__ import annotations

import re

MAX_DIM = 2**16
TABLE_BUDGET = 50_000_000

# commands that build the dense derivation table
TABLE_COMMANDS = frozenset({
    "iterativity", "evp-check", "structure-constants", "tower",
    "basis-verify", "basis-find",
})
LIBRARY_OPS = frozenset({"reconstruct", "structure-constants-all"})


class Unpredictable(ValueError):
    """The job lies outside what the oracle can predict from theory."""


def law_dim(spec: dict) -> int:
    typ = spec["type"]
    if typ == "additive":
        return spec.get("e", 1)
    if typ == "multiplicative":
        return 1
    if typ == "witt2":
        return 2
    if typ == "product":
        return sum(law_dim(f) for f in spec["factors"])
    raise Unpredictable(f"law type {typ!r}")


def _split_top(text: str, sep: str) -> list:
    """Split at sep outside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        if ch == sep and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur).strip())
    return parts


_VAR = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def _linear_part(text: str, e: int):
    """Constant term and linear coefficients of a generated twist image.

    Only terms of total degree <= 1 matter, and they must carry prime-field
    coefficients; higher terms may carry any scalar and are skipped.
    """
    const = 0
    row = [0] * e
    for term in _split_top(text, "+"):
        coeff, degree, var = [], 0, None
        for factor in _split_top(term, "*"):
            m = _VAR.match(factor)
            if m:
                degree += int(m.group(2) or 1)
                var = int(m.group(1)) - 1
            else:
                coeff.append(factor)
        if degree > 1:
            continue
        if len(coeff) > 1 or (coeff and not coeff[0].isdigit()):
            raise Unpredictable(f"low-degree term {term!r}")
        c = int(coeff[0]) if coeff else 1
        if degree == 0:
            const += c
        else:
            row[var] += c
    return const, row


def _det_nonzero_mod_p(mat, p: int) -> bool:
    m = [[v % p for v in row] for row in mat]
    n = len(m)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return False
        m[c], m[piv] = m[piv], m[c]
        inv = pow(m[c][c], p - 2, p)
        for r in range(c + 1, n):
            f = m[r][c] * inv % p
            if f:
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[c])]
    return True


def twist_is_automorphism(phi, e: int, p: int) -> bool:
    consts, rows = zip(*(_linear_part(s, e) for s in phi))
    if any(c % p for c in consts):
        return False
    return _det_nonzero_mod_p(rows, p)


def tower_dims(p: int, e: int, m: int) -> list:
    return [p ** (e * (m - s)) for s in range(m + 1)]


def predict(config: dict) -> dict:
    """Expected {'exit', 'error', 'pass'} plus optional exact check values."""
    cmd = config.get("command") or config.get("op")
    ctx = config["context"]
    p, d, m = ctx["p"], ctx.get("d", 1), ctx.get("m", 1)
    if cmd == "wronskian":
        return {"exit": 0, "error": None, "pass": True}
    e = law_dim(config["law"])
    dim = p ** (e * m)
    builds_table = cmd in TABLE_COMMANDS or cmd in LIBRARY_OPS
    if not 1 <= m <= 3 or dim > MAX_DIM:
        return {"exit": 3, "error": "resource-guard", "pass": False}
    deriv = config.get("derivation", {"type": "canonical"})
    if deriv["type"] == "twist" and not twist_is_automorphism(deriv["phi"], e, p):
        return {"exit": 1, "error": "NotInvertible", "pass": False}
    if deriv["type"] not in ("canonical", "twist"):
        raise Unpredictable(f"derivation type {deriv['type']!r}")
    if builds_table and dim ** 3 * d > TABLE_BUDGET:
        return {"exit": 3, "error": "resource-guard", "pass": False}
    out = {"exit": 0, "error": None, "pass": True}
    if cmd == "tower":
        out["dims"] = tower_dims(p, e, m)
    return out


def outcome_of(report: dict, code: int) -> dict:
    """The observed counterpart of predict() for one rendered job."""
    errors = report.get("errors", [])
    out = {"exit": code, "error": errors[0]["kind"] if errors else None,
           "pass": bool(report.get("pass"))}
    for check in report.get("checks", []):
        if check["name"] == "tower-dims":
            out["dims"] = check["detail"]["dims"]
    return out


def matches(expected: dict, observed: dict) -> bool:
    """Exit code, error kind and pass must agree, and every predicted value.

    An exit 2 (malformed config) is never an accepted outcome: the generator
    writes only well-formed configs, so exit 2 means a library error that
    the CLI misfiled.
    """
    if observed["exit"] == 2:
        return False
    return all(observed.get(k) == v for k, v in expected.items())
