"""Tests for the benchmark itself: generator, tracer arithmetic, oracle.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import collections
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracle  # noqa: E402
import streams  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


# -- seeded generator ------------------------------------------------------

@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_same_seed_same_bytes(workload):
    a = json.dumps(streams.generate(workload, 7), sort_keys=True)
    b = json.dumps(streams.generate(workload, 7), sort_keys=True)
    assert a == b


@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_other_seed_other_jobs_same_mix(workload):
    a = streams.generate(workload, 7)
    b = streams.generate(workload, 8)
    assert [j["config"] for j in a] != [j["config"] for j in b]
    mix = collections.Counter(streams.job_class(j) for j in a)
    assert mix == collections.Counter(streams.job_class(j) for j in b)
    assert [j["expect"] for j in a] == [j["expect"] for j in b]


def test_streams_cover_the_three_error_outcomes():
    seen = set()
    for w in streams.WORKLOADS:
        for job in streams.generate(w, 1):
            seen.add((job["expect"]["exit"], job["expect"]["error"]))
    assert seen == {(0, None), (1, "NotInvertible"), (3, "resource-guard")}


# -- tracer ----------------------------------------------------------------

def test_self_times_on_nested_spans():
    # 0 [0, 10] has children 1 [1, 4] and 3 [5, 9]; 1 has child 2 [2, 3]
    parents = [-1, 0, 1, 0]
    t0 = [0.0, 1.0, 2.0, 5.0]
    t1 = [10.0, 4.0, 3.0, 9.0]
    assert self_times(parents, t0, t1) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_links_parents_and_restores_originals():
    import types

    mod = types.ModuleType("hsderiv_fake")

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(x) + mod.leaf(x)

    mod.leaf, mod.outer = leaf, outer
    tr = Tracer()
    tr._install_function("fake.leaf", [mod], leaf, None)
    tr._install_function("fake.outer", [mod], outer, None)
    assert tr.job(0, mod.outer, 1) == 4
    tr.uninstall()
    assert mod.leaf is leaf and mod.outer is outer
    names = [tr.names[i] for i in tr.name]
    assert names == ["bench.job", "fake.outer", "fake.leaf", "fake.leaf"]
    assert list(tr.parent) == [-1, 0, 1, 1]
    summary = tr.summary()
    assert summary["fake.leaf"]["calls"] == 2
    total = sum(s["self_s"] for s in summary.values())
    assert total == pytest.approx(tr.job_wall(), abs=1e-9)


def test_tracer_wraps_every_binding_and_counts_from_results():
    import numpy as np
    from hsderiv import basis, lattice, linalg
    from hsderiv.gf import FqContext

    orig = linalg.kernel_space
    tr = Tracer()
    tr.install()
    try:
        # basis and lattice bind these names themselves
        assert basis.kernel_space is linalg.kernel_space is not orig
        assert lattice._vec_preimage_solve is linalg.preimage_solve
        ctx = FqContext(3)
        mat = np.array([[[1], [2]], [[2], [1]]], dtype=np.int64)
        tr.job(0, linalg.kernel_space, ctx, mat)
    finally:
        tr.uninstall()
    assert basis.kernel_space is orig
    # rref of the 2 x 2 input (rank 1), then of the 1 x 2 kernel basis
    assert tr.counts["linalg.rref.rows"] == 3
    assert tr.counts["linalg.rref.pivots"] == 2
    assert tr.counts["linalg.rref.cells"] == 6
    calls = tr.summary()
    assert calls["linalg.rref"]["calls"] == 2
    assert calls["linalg.subspace"]["calls"] == 2  # kernel_space, from_vectors


# -- outcome oracle --------------------------------------------------------

def _twist(p, m, phi, law=None, cmd="iterativity"):
    return {"command": cmd, "context": {"p": p, "m": m},
            "law": law or {"type": "witt2", "alphas": [1] * m},
            "derivation": {"type": "twist", "phi": phi}}


PASS = {"exit": 0, "error": None, "pass": True}
GUARD = {"exit": 3, "error": "resource-guard", "pass": False}
SINGULAR = {"exit": 1, "error": "NotInvertible", "pass": False}

HAND_JOBS = [
    # unit upper triangular linear part: an automorphism
    (_twist(2, 2, ["x1 + x2 + x1*x2^3", "x2 + x1^2"]), PASS),
    # higher coefficients in GF(4) do not touch the linear part
    (dict(_twist(2, 1, ["x1 + (g + 1)*x1*x2", "x2"]),
          context={"p": 2, "d": 2, "m": 1}), PASS),
    # both images share the linear form x1 + x2
    (_twist(2, 2, ["x1 + x2 + x1^2", "x1 + x2 + x2^3"]), SINGULAR),
    # 2*x1 + x2 and x1 + 2*x2 are proportional mod 3
    (_twist(3, 1, ["2*x1 + x2", "x1 + 2*x2"]), SINGULAR),
    # moves the origin
    (_twist(2, 1, ["x1 + 1", "x2"]), SINGULAR),
    # dim 625: 625^3 digits exceed the table budget
    ({"command": "iterativity", "context": {"p": 5, "m": 2},
      "law": {"type": "additive", "e": 2}}, GUARD),
    # dim 3^12 > 65536 trips the dimension guard before any table
    ({"command": "law-check", "context": {"p": 3, "m": 3},
      "law": {"type": "additive", "e": 4}}, GUARD),
    # dim 243 fits: 243^3 = 14.3M digits
    ({"command": "tower", "context": {"p": 3, "m": 1},
      "law": {"type": "additive", "e": 5}},
     dict(PASS, dims=[243, 1])),
    ({"command": "tower", "context": {"p": 2, "m": 2},
      "law": {"type": "witt2", "alphas": [1, 1]}},
     dict(PASS, dims=[16, 4, 1])),
]


@pytest.mark.parametrize("config,expected", HAND_JOBS)
def test_predict_hand_verified(config, expected):
    assert oracle.predict(config) == expected


def test_predict_refuses_what_it_cannot_know():
    with pytest.raises(oracle.Unpredictable):
        oracle.predict(dict(_twist(2, 1, ["g*x1", "x2"]),
                            context={"p": 2, "d": 2, "m": 1}))


@pytest.mark.parametrize("config,expected", HAND_JOBS[:7] + HAND_JOBS[8:])
def test_hsderiv_agrees_with_hand_predictions(config, expected):
    from hsderiv import cli

    report, code = cli.run(json.loads(json.dumps(config)))
    assert oracle.matches(expected, oracle.outcome_of(report, code))


def test_exit_2_is_never_accepted():
    seen = {"exit": 2, "error": "malformed-config", "pass": False}
    assert not oracle.matches({"exit": 2, "error": "malformed-config",
                               "pass": False}, seen)


# -- reference seconds -----------------------------------------------------

def test_reference_latencies_follow_the_kernel_median():
    import run

    k = run.REF_S
    # kernel runs bracket the jobs; one slow kernel run does not move the median
    p = {"lat": [0.1, 0.2], "ref": [2 * k, 2 * k, 50 * k]}
    assert run.reference_latencies(p) == pytest.approx([0.05, 0.1])
