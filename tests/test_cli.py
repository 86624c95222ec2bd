"""End-to-end checks for the batch driver: dispatch, determinism, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hsderiv import cli
from hsderiv.cli import render_report, run
from hsderiv.poly import MultiPoly

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


def _invoke(payload, *args, env_extra=None, tmp_path=None):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(payload))
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "hsderiv", "run", str(path), *args],
        capture_output=True, env=env,
    )


def test_selftest_passes(tmp_path):
    res = _invoke({"command": "selftest"}, "--quiet", tmp_path=tmp_path)
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["pass"] is True
    assert report["errors"] == []
    assert all(c["pass"] for c in report["checks"])
    names = [c["name"] for c in report["checks"]]
    assert "basis-roundtrip" in names and "pfold-closed-form" in names


def test_repeated_runs_byte_identical(tmp_path):
    first = _invoke({"command": "selftest"}, "--quiet", tmp_path=tmp_path)
    second = _invoke({"command": "selftest"}, "--quiet", tmp_path=tmp_path)
    assert first.stdout == second.stdout
    rep1, rep2 = tmp_path / "r1.json", tmp_path / "r2.json"
    _invoke({"command": "selftest"}, "--quiet", "--report", str(rep1),
            tmp_path=tmp_path)
    _invoke({"command": "selftest"}, "--quiet", "--report", str(rep2),
            tmp_path=tmp_path)
    assert rep1.read_bytes() == rep2.read_bytes()
    assert rep1.read_bytes() == first.stdout


def test_pseries_example(tmp_path):
    payload = {"command": "pseries", "law": {"type": "witt2", "alphas": [1]},
               "context": {"p": 2, "e": 2, "m": 2}, "N": 2}
    res = _invoke(payload, "--quiet", tmp_path=tmp_path)
    assert res.returncode == 0
    report = json.loads(res.stdout)
    series = next(c for c in report["checks"] if c["name"] == "pseries-components")
    assert series["detail"]["components"] == ["v2^2", "0"]


def test_hn_example(tmp_path):
    res = _invoke({"command": "hn", "context": {"p": 3}, "n": 0},
                  "--quiet", tmp_path=tmp_path)
    assert res.returncode == 0
    report = json.loads(res.stdout)
    check = next(c for c in report["checks"] if c["name"] == "hn")
    # canonical print order; value agrees with the other spelling
    assert check["actual"] == "x^2*y + x*y^2"
    from hsderiv.gf import FqContext
    from hsderiv.grouplaw import h_n
    from hsderiv.textform import parse_poly
    f = h_n(3, 0)
    assert f == parse_poly(FqContext(3, 1), f.vars, "x*y^2 + x^2*y")
    assert f == parse_poly(FqContext(3, 1), f.vars, check["actual"])


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_shipped_configs_pass(path):
    res = subprocess.run(
        [sys.executable, "-m", "hsderiv", "run", str(path), "--quiet"],
        capture_output=True,
    )
    assert res.returncode == 0, res.stdout.decode() or res.stderr.decode()
    assert json.loads(res.stdout)["pass"] is True


# sha256 of each shipped config's rendered report: the byte contract
GOLDEN_SHA256 = {
    "basis_find_twist":
        "10b95e49cb637de3c7def9441d6191df54e1f040e965dac3558192a836e4ff40",
    "basis_verify_canonical":
        "cc2b4f12ff7ce6bb0c640e1aea8c2b57a3cd9c0306581cf37139d2b4991ca65c",
    "evp_check_witt2":
        "7baac8016216b31a3967f03cc0d1a74314787bf5d211d761cfdc379f8d36405c",
    "hn_p3":
        "1dd249c0232efdcd017527b0005d411e2263d51ad5e8f0685bf332693fda5c49",
    "iterativity_twist":
        "5d28d1f4a3bcec96f09e0b5d468a962cec46023c7b620bcf09643af66e539909",
    "law_check_witt2":
        "205c1618210f2b2809e0daaaf6c8d4beca14a0334f587405846892f6e5cafe40",
    "pseries_witt2":
        "bd4596a90cf4e2cbaaa3385687abc213b2b077030dee375d4d2335ab985f2fb0",
    "selftest":
        "a2b398f796e98fd7209da427902e59848b4bdb55fd44583e444f93172471d0d2",
    "structure_constants_pair":
        "dbf73dae2e782afefe3ab64c80052c55e9b507dbe1d933ad0a0a293c7164f223",
    "tower_product":
        "bdccaeba364623669c81c37719b3ef2ee8f457771870edfb2705a74b508ff72b",
    "wronskian_dependence":
        "340976a907d903acc01c60fdc4e3e78ae2aaaf364e839b22afd733a6293802d0",
    "wronskian_pindep":
        "5e15535dee92e62ad19b2027bdb8b6fcb7fb5d731d401a4d71eefdae2f9ef0da",
}


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_report_bytes(path):
    report, _ = run(json.loads(path.read_text()))
    digest = hashlib.sha256(render_report(report).encode("utf-8")).hexdigest()
    assert digest == GOLDEN_SHA256[path.stem]


def test_malformed_config_exit_2(tmp_path):
    res = _invoke({"command": "no-such-command"}, "--quiet", tmp_path=tmp_path)
    assert res.returncode == 2
    report = json.loads(res.stdout)
    assert report["errors"][0]["kind"] == "malformed-config"
    res = _invoke(["not", "an", "object"], "--quiet", tmp_path=tmp_path)
    assert res.returncode == 2


@pytest.mark.parametrize("test,expect", [
    ("p-independence", "false"), ("p-independence", "yes"),
    ("p-independence", "independent"), ("p-independence", 1),
    ("dependence", True), ("dependence", "yes"), ("dependence", "Dependent"),
])
def test_wronskian_expect_outside_its_values_exit_2(tmp_path, test, expect):
    # a string is never read as a bool: "false" used to pass as True
    payload = {"command": "wronskian", "context": {"p": 2, "m": 1},
               "law": {"type": "additive", "e": 2}, "elements": ["x1", "x2"],
               "test": test, "expect": expect}
    res = _invoke(payload, "--quiet", tmp_path=tmp_path)
    assert res.returncode == 2
    error = json.loads(res.stdout)["errors"][0]
    assert error["kind"] == "malformed-config" and "expect" in error["message"]


@pytest.mark.parametrize("test,expect,passed", [
    ("p-independence", True, True), ("p-independence", False, False),
    ("p-independence", None, True), ("dependence", "independent", True),
    ("dependence", "dependent", False), ("dependence", None, True),
])
def test_wronskian_expect_values(test, expect, passed):
    config = {"command": "wronskian", "context": {"p": 2, "m": 1},
              "law": {"type": "additive", "e": 2}, "elements": ["x1", "x2"],
              "test": test}
    if expect is not None:
        config["expect"] = expect
    report, code = run(config)
    assert (code, report["pass"]) == ((0, True) if passed else (1, False))


_PAIR = {"command": "structure-constants", "context": {"p": 2, "m": 2},
         "law": {"type": "witt2", "alphas": [1, 0]}, "i": [0, 1], "j": [0, 1]}


@pytest.mark.parametrize("change,field", [
    ({"i": [1.7, 0]}, "i[0]"), ({"i": [True, 0]}, "i[0]"), ({"i": ["1", 0]}, "i[0]"),
    ({"j": [0, None]}, "j[1]"), ({"i": [0]}, "'i'"), ({"j": [0, 1, 0]}, "'j'"),
    ({"i": [0, 4]}, "i[1]"), ({"j": [-1, 0]}, "j[0]"),
    ({"law": {"type": "witt2", "alphas": [True]}}, "alphas[0]"),
    ({"law": {"type": "witt2", "alphas": [1, 0.5]}}, "alphas[1]"),
    ({"context": {"p": 2, "m": 2, "d": 2, "modulus": [True, True, True]}},
     "context.modulus[0]"),
    ({"context": {"p": 2, "m": 2, "d": 2, "modulus": [1, 1.0, 1]}}, "context.modulus[1]"),
    ({"context": {"p": 2, "m": 2, "e": True}}, "context.e"),
    ({"context": {"p": 2, "m": 2, "e": 1.0}}, "context.e"),
    ({"context": {"p": 2, "m": 2, "e": 2.0}}, "context.e"),
    ({"context": {"p": 2.0, "m": 2}}, "'p'"),
    ({"context": {"p": 2, "m": True}}, "'m'"),
])
def test_integer_fields_take_only_json_integers(change, field):
    # a bool, a float or a digit string used to pass where an integer goes,
    # echoed into a passing report; each is a malformed config naming its field
    report, code = run(json.loads(json.dumps(dict(_PAIR, **change))))
    assert code == 2
    error = report["errors"][0]
    assert error["kind"] == "malformed-config" and field in error["message"]
    assert not report["checks"]


def test_integer_fields_accept_json_integers():
    report, code = run(json.loads(json.dumps(_PAIR)))
    assert code == 0 and report["checks"][0]["detail"]["i"] == [0, 1]
    ctx = {"p": 2, "m": 2, "e": 2, "d": 2, "modulus": [1, 1, 1]}
    report, code = run(dict(_PAIR, context=ctx, law={"type": "witt2", "alphas": ["g", 1]}))
    assert code == 0


_VERIFY = {"command": "basis-verify", "context": {"p": 2, "m": 1},
           "law": {"type": "witt2", "alphas": [1]}, "elements": ["x1", "x2"]}
_WRONSKIAN = {"command": "wronskian", "context": {"p": 2, "m": 1},
              "law": {"type": "additive", "e": 2}, "elements": ["x1", "x2"]}


@pytest.mark.parametrize("base,change,field", [
    (_VERIFY, {"derivation": {"type": "twist", "phi": [1, "x2"]}}, "'derivation.phi[0]'"),
    (_VERIFY, {"derivation": {"type": "twist", "phi": ["x1", None]}}, "'derivation.phi[1]'"),
    (_VERIFY, {"derivation": {"type": "images", "images": ["x1 + v1", ["x2"]]}},
     "'derivation.images[1]'"),
    (_VERIFY, {"elements": ["x1", None]}, "'elements[1]'"),
    (_VERIFY, {"elements": [2, "x2"]}, "'elements[0]'"),
    (_VERIFY, {"elements": ["x1"]}, "'elements'"),
    (_VERIFY, {"elements": ["x1", "x2", "x1"]}, "'elements'"),
    (_WRONSKIAN, {"elements": [3, "x1"]}, "'elements[0]'"),
    (_WRONSKIAN, {"elements": ["x1", None]}, "'elements[1]'"),
])
def test_string_list_fields_are_checked_entry_by_entry(base, change, field):
    # a non-string entry, or a basis-verify family of the wrong size, used to
    # reach the catch-all as a TypeError or ValueError that named no field
    report, code = run(json.loads(json.dumps(dict(base, **change))))
    assert code == 2
    error = report["errors"][0]
    assert error["kind"] == "malformed-config" and field in error["message"]
    assert not report["checks"]
    assert run(json.loads(json.dumps(base)))[1] == 0


def test_invalid_json_exit_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ command:")
    res = subprocess.run(
        [sys.executable, "-m", "hsderiv", "run", str(path), "--quiet"],
        capture_output=True,
    )
    assert res.returncode == 2
    report = json.loads(res.stdout)
    assert report["errors"][0]["kind"] == "malformed-config"


def test_resource_guard_exit_3(tmp_path):
    deep = {"command": "law-check", "context": {"p": 2, "m": 4},
            "law": {"type": "multiplicative"}}
    assert _invoke(deep, "--quiet", tmp_path=tmp_path).returncode == 3
    wide = {"command": "law-check", "context": {"p": 2, "m": 3},
            "law": {"type": "additive", "e": 6}}
    assert _invoke(wide, "--quiet", tmp_path=tmp_path).returncode == 3
    report = json.loads(_invoke(wide, "--quiet", tmp_path=tmp_path).stdout)
    assert report["errors"][0]["kind"] == "resource-guard"


@pytest.mark.parametrize(
    "path", [c for c in CONFIGS if "context" in json.loads(c.read_text())],
    ids=lambda p: p.stem)
def test_prime_past_the_int64_bound_exit_3(path):
    # p = 4294967311 is prime, and d*(p-1)^2 > 2^62 - p; the command's own
    # guard or the field context refuses it, with exit 3 either way
    config = json.loads(path.read_text())
    config["context"]["p"] = 4294967311
    report, code = run(config)
    assert code == 3 and report["errors"][0]["kind"] == "resource-guard"


def test_inverse_series_guard_exit_3(tmp_path):
    # the denominator's geometric series over F_5(x1, x2) grows its rational
    # coefficients term by term; past truncated.SERIES_BUDGET the job is
    # refused before the fourth term, which alone takes seconds, and past
    # SERIES_PRODUCT_BUDGET before a product that takes most of a second
    job = {"command": "wronskian", "context": {"p": 5, "m": 1},
           "law": {"type": "witt2", "alphas": ["1"]}, "test": "dependence",
           "elements": ["1 / (x1^2 + x2 + 1)", "x1"], "expect": "independent"}
    res = _invoke(job, "--quiet", tmp_path=tmp_path)
    assert res.returncode == 3 and not res.stderr
    error = json.loads(res.stdout)["errors"][0]
    assert error["kind"] == "resource-guard"
    assert error["message"] == "inverse series holds 6796 terms, past the budget of 5000"
    job["elements"][0] = "1 / (x1^2 + x1*x2 + x2^2 + 1)"
    report, code = run(job)
    assert code == 3 and report["errors"][0]["message"] == (
        "inverse series term would take 106330 products, past the budget of 50000")
    # a denominator whose series stays under the budget still passes
    job["elements"][0] = "1 / (x1 + x2^2 + 1)"
    assert run(job)[1] == 0


def test_tower_admission_stays_at_the_table_size(tmp_path):
    # dim 625: the tower builds axis stacks of 625^2 * 25 digits, within the
    # budget, but is admitted only when the dim^3 table would fit
    job = {"command": "tower", "context": {"p": 5, "m": 2},
           "law": {"type": "additive", "e": 2}}
    res = _invoke(job, "--quiet", tmp_path=tmp_path)
    assert res.returncode == 3
    assert json.loads(res.stdout)["errors"][0]["kind"] == "resource-guard"


def test_nonprime_p_exit_2(tmp_path):
    res = _invoke({"command": "hn", "context": {"p": 4}, "n": 0},
                  "--quiet", tmp_path=tmp_path)
    assert res.returncode == 2


def test_failed_check_exit_1(tmp_path):
    payload = {"command": "wronskian", "context": {"p": 3, "m": 1},
               "law": {"type": "additive", "e": 1},
               "elements": ["x1", "x1"], "test": "dependence",
               "expect": "independent"}
    res = _invoke(payload, "--quiet", tmp_path=tmp_path)
    assert res.returncode == 1
    report = json.loads(res.stdout)
    assert report["pass"] is False and report["errors"] == []


def test_domain_error_exit_1(tmp_path):
    payload = {"command": "basis-find", "context": {"p": 2, "m": 1},
               "law": {"type": "witt2", "alphas": [1]},
               "derivation": {"type": "twist", "phi": ["x1^2", "x2"]}}
    res = _invoke(payload, "--quiet", tmp_path=tmp_path)
    assert res.returncode == 1
    report = json.loads(res.stdout)
    assert report["pass"] is False and report["errors"]


def test_quiet_suppresses_summary(tmp_path):
    loud = _invoke({"command": "selftest"}, tmp_path=tmp_path)
    assert loud.stderr
    quiet = _invoke({"command": "selftest"}, "--quiet", tmp_path=tmp_path)
    assert not quiet.stderr
    assert loud.stdout == quiet.stdout


def test_run_api_report_shape():
    report, code = run({"command": "hn", "context": {"p": 2}, "n": 1})
    assert code == 0
    assert report["schema"] == 1 and report["tool"] == "hsderiv"
    assert report["config"] == {"command": "hn", "context": {"p": 2}, "n": 1}
    text = render_report(report)
    assert text.endswith("\n")
    assert json.loads(text) == report


def _basis_calls(monkeypatch, config):
    """Exit code of config and its calls of _verify, D.apply and _law_at."""
    from hsderiv import basis as basis_mod
    from hsderiv.derivation import HSDerivation
    calls = {"_verify": 0, "apply": 0, "_law_at": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(basis_mod, "_verify", counting("_verify", basis_mod._verify))
    monkeypatch.setattr(basis_mod, "_law_at", counting("_law_at", basis_mod._law_at))
    monkeypatch.setattr(HSDerivation, "apply", counting("apply", HSDerivation.apply))
    _, code = run(config)
    return code, calls


def test_basis_find_verifies_once(monkeypatch):
    # the assembly's verification is the report: one _verify, and D.apply and
    # the law at z once per coordinate, in each finder's own pattern check;
    # the verification reuses both
    config = json.loads((ROOT / "configs" / "basis_find_twist.json").read_text())
    assert _basis_calls(monkeypatch, config) == (0, {"_verify": 1, "apply": 2, "_law_at": 2})


def test_basis_find_checks_product_factors_against_the_full_law(monkeypatch):
    # a factor's finder checks its coordinate against the factor law; the
    # verification reuses D.apply but takes the full law at z once more
    config = BASIS_FIND_SHA256[0][0]
    assert config["law"]["type"] == "product"
    assert _basis_calls(monkeypatch, config) == (0, {"_verify": 1, "apply": 3, "_law_at": 6})


# sha256 of basis-find reports beyond the shipped config: a product with a
# multiplicative factor (witt2 and additive), twisted, and witt2 over GF(4)
BASIS_FIND_SHA256 = [
    ({"command": "basis-find", "context": {"p": 2, "m": 2},
      "law": {"type": "product", "factors": [
          {"type": "witt2", "alphas": [1, 1]}, {"type": "multiplicative"}]},
      "derivation": {"type": "twist",
                     "phi": ["x1 + x2^2", "x2 + x3^2 + x1*x3", "x3 + x1^2"]}},
     "15c6b096ff09f3436a545671a6eda46e22a97ec51d082228e7e00d1e93da0cd4"),
    ({"command": "basis-find", "context": {"p": 3, "m": 1},
      "law": {"type": "product", "factors": [
          {"type": "additive"}, {"type": "multiplicative"}]},
      "derivation": {"type": "twist", "phi": ["x1 + 2*x2^2 + x1*x2", "2*x2 + x1^2"]}},
     "9ca2a17d9e3e177e67428d63859b0b154b8392d19c629e7122d24174a6f420c3"),
    ({"command": "basis-find", "context": {"p": 2, "d": 2, "m": 2},
      "law": {"type": "witt2", "alphas": ["g", "g + 1"]},
      "derivation": {"type": "twist",
                     "phi": ["x1 + g*x2^2 + x1*x2", "x2 + (g + 1)*x1^2"]}},
     "4dd57e2c2da3c5c155bdf52784b620679a9299e691ffa8fb36aad93ca7ff0ec2"),
]


@pytest.mark.parametrize("config,digest", BASIS_FIND_SHA256,
                         ids=["witt2xmult-twisted", "addxmult-twisted", "witt2-gf4"])
def test_basis_find_report_bytes(config, digest):
    report, code = run(config)
    assert code == 0
    assert hashlib.sha256(render_report(report).encode()).hexdigest() == digest


def test_pseries_reads_n_modulo_the_period(tmp_path):
    # [p^m](v) = 0 in the truncated ring, so N = 10^9 costs what N mod 27 does
    law = {"type": "witt2", "alphas": [1, 2, 1]}
    job = {"command": "pseries", "law": law, "context": {"p": 3, "m": 3}}
    big, code = run(dict(job, N=10**9))
    small, _ = run(dict(job, N=10**9 % 27))
    assert code == 0
    detail = big["checks"][0]["detail"]
    assert detail["N"] == 10**9
    assert detail["components"] == small["checks"][0]["detail"]["components"]
    res = _invoke(dict(job, N=10**9), "--quiet", tmp_path=tmp_path)
    assert res.returncode == 0 and not res.stderr


def test_hn_degree_guard_exit_3(tmp_path):
    # H_n enters a law only at levels n < m, so p^(n+1) <= p^m <= 65536
    assert run({"command": "hn", "context": {"p": 2}, "n": 15})[1] == 0
    report, code = run({"command": "hn", "context": {"p": 2}, "n": 16})
    assert code == 3 and report["errors"][0]["kind"] == "resource-guard"
    res = _invoke({"command": "hn", "context": {"p": 3}, "n": 10**6},
                  "--quiet", tmp_path=tmp_path)
    assert res.returncode == 3 and not res.stderr
    assert json.loads(res.stdout)["errors"][0]["kind"] == "resource-guard"


# every untruncated product of a parsed element is guarded at the parse budget

_POWER_FAMILIES = [
    (["(x1 + x2 + 1)^40", "x1 + x2^2", "x1*x2"],
     "71f276f61616fbd29b6b050c029b81a167d5affe2d2007c90d6a2a46ac53459d"),
    (["(x1 + x2 + 1)^40", "x2^3*(x1 + x2 + 1)^40", "x1"],
     "bb67133c659922705a691ebb4e3ae19515b2470ff2d5489f04e3fdc8878cc1f0"),
]


@pytest.mark.parametrize("elements,digest", _POWER_FAMILIES, ids=["independent", "dependent"])
def test_wronskian_powers_inside_the_parse_budget(elements, digest):
    report, code = run({"command": "wronskian", "context": {"p": 3, "m": 1},
                        "law": {"type": "additive", "e": 2},
                        "elements": elements, "test": "dependence"})
    assert code == 0
    assert hashlib.sha256(render_report(report).encode()).hexdigest() == digest


def test_wronskian_parse_guard_exit_3(monkeypatch):
    # over GF(7) (x1 + x2 + 1)^16806 has about 17M terms; its square-and-
    # multiply chain reaches a 28224-term square, a product past the budget
    job = {"command": "wronskian", "context": {"p": 7, "m": 1},
           "law": {"type": "additive", "e": 2},
           "elements": ["(x1 + x2 + 1)^16806", "x1", "x2"], "test": "dependence"}
    # the guard stops the chain before its next square (about 796M term
    # pairs); count the pairs of every product made before it
    pairs = []
    mul = MultiPoly.__mul__

    def counting(f, g):
        if isinstance(g, MultiPoly):
            pairs.append(len(f.terms) * len(g.terms))
        return mul(f, g)

    monkeypatch.setattr(MultiPoly, "__mul__", counting)
    report, code = run(job)
    assert sum(pairs) < 4_000_000
    assert code == 3
    assert report["errors"][0]["kind"] == "resource-guard"
    assert "28224 and 28224 terms" in report["errors"][0]["message"]


def test_wronskian_parse_guard_refuses_a_large_product_early(monkeypatch):
    # over GF(251) each power has 6903 terms, and the product of the two is
    # 47.6M term pairs, which took seconds under the dense-table budget; the
    # first power's chain ends in a product of 1431 and 2145 terms (3.07M
    # pairs), past PARSE_PRODUCT_BUDGET, and is refused there
    job = {"command": "wronskian", "context": {"p": 251, "m": 1},
           "law": {"type": "additive", "e": 2},
           "elements": ["(x1 + x2 + 1)^116 * (x1 + 2*x2 + 3)^116", "x1"],
           "test": "dependence"}
    pairs = []
    mul = MultiPoly.__mul__

    def counting(f, g):
        if isinstance(g, MultiPoly):
            pairs.append(len(f.terms) * len(g.terms))
        return mul(f, g)

    monkeypatch.setattr(MultiPoly, "__mul__", counting)
    report, code = run(job)
    assert code == 3
    assert report["errors"][0]["message"] == (
        "product of 1431 and 2145 terms exceeds the budget of 1500000 term pairs")
    assert sum(pairs) < 500_000


def test_unexpected_exception_is_an_internal_error(monkeypatch, tmp_path, capsys):
    def broken(config):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setitem(cli._HANDLERS, "hn", broken)
    job = {"command": "hn", "context": {"p": 3}, "n": 0}
    report, code = run(job)
    assert code == 1
    assert report["pass"] is False
    assert report["checks"] == []
    assert report["errors"] == [
        {"kind": "internal-error", "message": "ZeroDivisionError: division by zero"}]
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert cli.main(["run", str(path), "--quiet"]) == 1
    printed = json.loads(capsys.readouterr().out)
    assert printed["errors"] == report["errors"]
