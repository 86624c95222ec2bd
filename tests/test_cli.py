"""End-to-end checks for the batch driver: dispatch, determinism, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hsderiv.cli import render_report, run

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


def test_basis_find_verifies_once(monkeypatch):
    # the assembly's verification is the report: one _verify, and D.apply and
    # the law at z once per coordinate in each finder's own pattern check and
    # once more in that verification
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
    report, code = run(json.loads((ROOT / "configs" / "basis_find_twist.json").read_text()))
    assert code == 0
    assert calls == {"_verify": 1, "apply": 4, "_law_at": 4}


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
