"""hsderiv benchmark: seeded closed-loop job streams with checked outcomes.

Run from the repository root:

    python3 bench/run.py --workload coords --seed 1 --seconds 35 --trace 0

One client in one process sends each job only after the previous one has
returned. Jobs go through ``hsderiv.cli.run`` plus ``render_report``; the
``identities`` stream also calls ``reconstruct_from_ppowers`` and
``structure_constants`` directly. Every outcome is compared with the
prediction from ``oracle.py``.

``--trace 0`` measures the end-to-end metrics: a fresh-interpreter smoke run
of every ``configs/*.json`` (which also gives ``setup_s``), one warm-up job,
then whole passes over the job list: at least three, and more while another
fits in ``--seconds``. A job too long to repeat (the dim-243 tower) runs
once, checked, before timing.

Job times are reported in reference seconds. A fixed pure-Python kernel
that calls no hsderiv code runs between jobs; each job time is scaled by
``REF_S`` over the median kernel time around it, and each job's latency is
the median over the passes. The speed a shared host gives one process
drifts by up to 1.8x for minutes at a time and the kernel follows that
drift, so the scaled times repeat where wall-clock times do not; a change
to hsderiv moves them as it moves wall-clock time. The detail line gives
the wall-clock figures and the kernel's times. ``setup_s`` and
``peak_rss_mb`` are reported as measured.

``--trace 1`` runs the same list untraced, traced, and untraced again,
checks that all three render the same bytes, and reports per-layer numbers.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The line before it carries the details (sample counts, tail
percentile, report digests, layer shares, machine facts).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")
SPAWN_TIMEOUT_S = 60
MIN_PASSES = 3
# The reference kernel's fastest time on one core of the 2-vCPU Xeon host
# the baseline was taken on, and how many of its runs on each side of a job
# give the host's speed at that job.
REF_S = 1.2e-3
REF_WINDOW = 3

sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import streams  # noqa: E402


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads(env) -> None:
    """Cap BLAS/OpenMP pools at the cores this process may run on."""
    n = _nproc()
    for var in THREAD_VARS:
        try:
            cur = int(env.get(var, n))
        except ValueError:
            cur = n
        env[var] = str(max(1, min(cur, n)))


# -- host speed ------------------------------------------------------------

_TERMS = {(i, j): (3 * i + j + 1) % 7 for i in range(8) for j in range(8)}


def reference_kernel() -> int:
    """Fixed pure-Python work in hsderiv's style and none of its code.

    A product of two sparse bivariate polynomials over F_7 kept in dicts,
    then a modular recurrence over the result. Its time follows the speed
    the host gives this process, which no change to hsderiv can move.
    """
    acc = {}
    for (a, b), c in _TERMS.items():
        for (d, e), g in _TERMS.items():
            k = (a + d, b + e)
            acc[k] = (acc.get(k, 0) + c * g) % 7
    s = 0
    for i in range(2000):
        s = (s * 31 + acc[(i % 15, i % 7)]) % 1000003
    return s


def kernel_time() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def to_reference(seconds: float, kernel: list) -> float:
    """Seconds at the reference speed: scaled by REF_S over the median
    time of the kernel runs around the measurement."""
    return seconds * REF_S / statistics.median(kernel)


# -- fresh-interpreter smoke run and setup time ----------------------------

# Marks the moment `import hsderiv.cli` is done on the shared monotonic
# clock, then runs the package exactly as `python -m hsderiv` would.
_CHILD = (
    "import os, sys, time\n"
    "import hsderiv.cli\n"
    "os.write(2, ('%r\\n' % time.monotonic()).encode())\n"
    "import runpy\n"
    "sys.argv = ['hsderiv'] + sys.argv[1:]\n"
    "runpy.run_module('hsderiv', run_name='__main__', alter_sys=True)\n"
)


def smoke(configs: list) -> tuple[list, list]:
    """Run each config once in a fresh `python -m hsderiv run --quiet`.

    Returns (setup times, per-config results). A result records the exit
    code and whether stdout equals the in-process rendering.
    """
    from hsderiv import cli

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    setups, results = [], []
    for path in configs:
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, "run", "--quiet", str(path)],
            cwd=ROOT, env=env, capture_output=True, timeout=SPAWN_TIMEOUT_S)
        lines = proc.stderr.decode().splitlines()
        try:
            setups.append(float(lines[0]) - start)
            marked = len(lines) == 1
        except (IndexError, ValueError):  # the child died before the mark
            marked = False
        report, _ = cli.run(json.loads(path.read_text(encoding="utf-8")))
        want = cli.render_report(report).encode()
        ok = proc.returncode == 0 and proc.stdout == want and marked
        results.append({"config": path.name, "exit": proc.returncode, "ok": ok})
    return setups, results


# -- one job ---------------------------------------------------------------

def _build_law(spec, ctx, m):
    from hsderiv import grouplaw
    from hsderiv.textform import parse_scalar

    typ = spec["type"]
    if typ == "additive":
        return grouplaw.make_additive(ctx, spec.get("e", 1), m)
    if typ == "multiplicative":
        return grouplaw.make_multiplicative(ctx, m)
    if typ == "witt2":
        return grouplaw.make_witt2(
            ctx, m, [parse_scalar(ctx, a) for a in spec["alphas"]])
    laws = [_build_law(f, ctx, m) for f in spec["factors"]]
    out = laws[0]
    for law in laws[1:]:
        out = grouplaw.product_law(out, law)
    return out


def _structure_constants_all(D, law):
    """D_j D_i = sum_k c(k) D_k for every index pair, checked exactly.

    Prime-field digits only; int64 products stay far below overflow.
    """
    import numpy as np
    from hsderiv import grouplaw

    idxs = list(D.model.xidx.monomials)
    dim = len(idxs)
    rank = {idx: r for r, idx in enumerate(idxs)}
    C = np.zeros((dim * dim, dim), dtype=np.int64)
    for a, i in enumerate(idxs):
        for b, j in enumerate(idxs):
            for k, c in grouplaw.structure_constants(law, i, j).items():
                C[a * dim + b, rank[k]] = c.digits[0]
    p = D.model.ctx.p
    S = D.matrix_stack()[..., 0]
    right = S.transpose(1, 0, 2).reshape(dim, dim * dim)
    flat = S.reshape(dim, dim * dim)
    ok = True
    for jr in range(dim):
        lhs = ((S[jr] @ right) % p).reshape(dim, dim, dim)
        rhs = ((C[jr::dim] @ flat) % p).reshape(dim, dim, dim)
        ok = ok and np.array_equal(lhs.transpose(1, 0, 2), rhs)
    return ok, hashlib.sha256(C.tobytes()).hexdigest()


def _library_job(cfg) -> tuple[dict, int]:
    """Build a twisted derivation through the library and run one identity."""
    import numpy as np
    from hsderiv import derivation
    from hsderiv.artinian import ArtinianModel
    from hsderiv.errors import HsderivError
    from hsderiv.gf import FqContext
    from hsderiv.textform import parse_trunc

    c = cfg["context"]
    report = {"op": cfg["op"], "config": cfg, "errors": [], "pass": False}
    try:
        ctx = FqContext(c["p"], c.get("d", 1))
        law = _build_law(cfg["law"], ctx, c["m"])
        model = ArtinianModel(ctx, law.e, law.m)
        D = derivation.canonical_derivation(model, law)
        phi = [parse_trunc(model.ring, s) for s in cfg["derivation"]["phi"]]
        T = derivation.twist_by_automorphism(D, phi)
        if cfg["op"] == "reconstruct":
            R = derivation.reconstruct_from_ppowers(T)
            ok = bool(np.array_equal(R.table(), T.table()))
            digest = hashlib.sha256(R.table().tobytes()).hexdigest()
        else:
            ok, digest = _structure_constants_all(T, law)
    except HsderivError as ex:
        report["errors"].append({"kind": type(ex).__name__, "message": str(ex)})
        return report, 1
    report["pass"] = bool(ok)
    report["digest"] = digest
    return report, 0 if ok else 1


def run_job(job) -> tuple[str, dict]:
    """Rendered report text and observed outcome of one job."""
    from hsderiv import cli

    if job["kind"] == "library":
        report, code = _library_job(job["config"])
        text = json.dumps(report, sort_keys=True) + "\n"
    else:
        # cli.run echoes the config into the report; hand it a private copy
        report, code = cli.run(json.loads(json.dumps(job["config"])))
        text = cli.render_report(report)
    return text, oracle.outcome_of(report, code)


def run_pass(jobs, tracer=None) -> dict:
    """One closed-loop pass over the job list.

    The reference kernel runs before each job and after the last, so
    ``ref[i]`` and ``ref[i + 1]`` bracket job i.
    """
    digest = hashlib.sha256()
    lat, failures, ref = [], [], []
    start = time.perf_counter()
    for job in jobs:
        ref.append(kernel_time())
        t0 = time.perf_counter()
        if tracer is None:
            text, seen = run_job(job)
        else:
            text, seen = tracer.job(job["id"], run_job, job)
        lat.append(time.perf_counter() - t0)
        digest.update(text.encode())
        if not oracle.matches(job["expect"], seen):
            failures.append({"job": job["id"], "class": streams.job_class(job),
                             "expected": job["expect"], "observed": seen})
    ref.append(kernel_time())
    return {"wall": time.perf_counter() - start, "lat": lat, "ref": ref,
            "failures": failures, "digest": digest.hexdigest()}


def reference_latencies(p: dict) -> list:
    """A pass's job latencies in reference seconds."""
    ref = p["ref"]
    return [to_reference(t, ref[max(0, i - REF_WINDOW + 1):i + REF_WINDOW + 1])
            for i, t in enumerate(p["lat"])]


# -- metrics ---------------------------------------------------------------

def tail_percentile(n_jobs: int) -> int:
    """Highest whole percentile with at least 10 of the list's jobs above it.

    Percentiles are taken over one latency per job, so the choice
    depends only on the list and not on how many passes fit in the run.
    """
    return max(0, math.floor(100 * (n_jobs - 10) / n_jobs))


def percentile(values, q: int) -> float:
    vals = sorted(values)
    pos = (len(vals) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def machine() -> dict:
    import numpy

    return {"nproc": _nproc(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(),
            "settings": "none changed: no page-cache drop, no CPU pinning"}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def latency_stats(per_job: list) -> dict:
    """Throughput, median and tail over one latency per job."""
    q = tail_percentile(len(per_job))
    return {"jobs_per_s": len(per_job) / sum(per_job),
            "job_p50_s": statistics.median(per_job),
            "job_tail_s": percentile(per_job, q)}


def measure(workload, seed, seconds) -> tuple[dict, dict, int, int]:
    configs = sorted((ROOT / "configs").glob("*.json"))
    setups, smoke_results = smoke(configs)
    all_jobs = streams.generate(workload, seed)
    jobs = [j for j in all_jobs if j["timed"]]
    # jobs too long to repeat (the peak-memory tower) run once, checked,
    # before timing; they count in peak_rss_mb but not in the latencies
    once = run_pass([j for j in all_jobs if not j["timed"]])
    run_job(jobs[0])  # warm-up
    # at least MIN_PASSES, then more while the next one should still fit
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or (
            time.perf_counter() - start + passes[-1]["wall"] <= seconds):
        passes.append(run_pass(jobs))
    walls = [p["wall"] for p in passes]
    lat = [x for p in passes for x in p["lat"]]
    ref = [reference_latencies(p) for p in passes]
    per_job = [statistics.median(r[i] for r in ref) for i in range(len(jobs))]
    wall_per_job = [statistics.median(p["lat"][i] for p in passes)
                    for i in range(len(jobs))]
    failures = once["failures"] + [f for p in passes for f in p["failures"]]
    digests = sorted({p["digest"] for p in passes})
    smoke_bad = [r for r in smoke_results if not r["ok"]]
    units = {"jobs_per_s": "1/s", "job_p50_s": "s", "job_tail_s": "s"}
    metrics = {k: _metric(v, units[k]) for k, v in latency_stats(per_job).items()}
    metrics["peak_rss_mb"] = _metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    # a spawn's time does not follow the kernel's, so setup_s stays
    # wall-clock; it is a median over the smoke spawns
    metrics["setup_s"] = _metric(statistics.median(setups), "s")
    wall = latency_stats(wall_per_job)
    kernel = [k for p in passes for k in p["ref"]]
    detail = {
        "workload": workload, "seed": seed, "mode": "untraced",
        "jobs_per_pass": len(jobs), "jobs_once": len(once["lat"]),
        "once_wall_s": round(once["wall"], 4),
        "pass_wall_s": [round(w, 4) for w in walls],
        "passes": len(passes),
        "samples": {"jobs_per_s": len(lat), "job_p50_s": len(lat),
                    "job_tail_s": len(lat), "peak_rss_mb": 1,
                    "setup_s": len(setups)},
        "tail_percentile": tail_percentile(len(jobs)),
        "wall_clock": {k: round(v, 6) for k, v in wall.items()},
        "kernel_ms": {"ref": REF_S * 1e3,
                      "min": round(min(kernel) * 1e3, 4),
                      "median": round(statistics.median(kernel) * 1e3, 4)},
        "failed_frac": len(failures) / (len(lat) + len(once["lat"])),
        "failures": failures[:5],
        "report_sha256": digests, "once_sha256": once["digest"],
        "smoke": smoke_results,
        "machine": machine(),
    }
    correct = not failures and len(digests) == 1 and not smoke_bad
    detail["correct"] = correct
    attempted = len(lat) + len(once["lat"]) + len(smoke_results)
    return metrics, detail, attempted, len(failures) + len(smoke_bad)


LAYER_METRICS = (
    "linalg.rref", "linalg.nullspace", "linalg.solve", "linalg.preimage_solve",
    "linalg.subspace", "densepoly.mul", "densepoly.product_table",
    "derivation.table", "derivation.twist", "derivation.check_iterativity",
    "derivation.p_fold_evP", "derivation.reconstruct", "derivation.apply",
    "truncated.substitute", "truncated.mul", "gf.mat_mul",
    "grouplaw.structure_constants", "grouplaw.law_build",
    "grouplaw.iterated_law", "lattice.tower", "basis.assemble_product_basis",
    "basis.verify_canonical_basis", "poly.mul", "fieldmodel.wronskian_matrix",
    "fieldmodel.rank_over_field", "cli.run", "cli.render_report",
    "textform.parse", "textform.format",
)
CALL_METRICS = ("linalg.rref", "linalg.subspace", "densepoly.mul",
                "derivation.apply", "truncated.substitute", "truncated.mul",
                "gf.mat_mul", "grouplaw.structure_constants", "poly.mul")


def measure_traced(workload, seed) -> tuple[dict, dict, int, int]:
    from tracer import Tracer

    jobs = streams.generate(workload, seed)
    run_job(jobs[0])  # warm-up
    # untraced passes on both sides of the traced one, so that drift in
    # machine speed does not land in the overhead estimate
    before = run_pass(jobs)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(jobs, tracer)
    finally:
        tracer.uninstall()
    after = run_pass(jobs)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload}.json")

    summary = tracer.summary()
    counts = tracer.counts
    metrics = {}
    for name in LAYER_METRICS:
        s = summary.get(name, {"calls": 0, "self_s": 0.0})
        if name in CALL_METRICS:
            metrics[f"{name}.calls"] = _metric(s["calls"], "count")
        metrics[f"{name}.self_s"] = _metric(s["self_s"], "s")
    metrics["derivation.table.builds"] = _metric(
        summary.get("derivation.table", {"calls": 0})["calls"], "count")
    metrics["derivation.table_bytes.max"] = _metric(
        counts["derivation.table_bytes.max"], "bytes")
    metrics["linalg.rref.cells"] = _metric(counts["linalg.rref.cells"], "count")
    rows = counts["linalg.rref.rows"]
    metrics["linalg.rref.rank_ratio"] = _metric(
        counts["linalg.rref.pivots"] / rows if rows else 0.0, "ratio")
    metrics["trace.overhead_frac"] = _metric(
        2 * traced["wall"] / (before["wall"] + after["wall"]) - 1, "ratio")

    job_wall = tracer.job_wall()
    layers = {}
    for name, s in summary.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + s["self_s"]
    shares = {k: round(v / job_wall, 4) for k, v in sorted(layers.items())}
    failures = before["failures"] + traced["failures"] + after["failures"]
    digests = {"untraced": before["digest"], "traced": traced["digest"],
               "untraced_again": after["digest"]}
    same = len(set(digests.values())) == 1
    detail = {
        "workload": workload, "seed": seed, "mode": "traced",
        "jobs_per_pass": len(jobs), "spans": len(tracer.name),
        "layer_self_share": shares,
        "failed_frac": len(failures) / (3 * len(jobs)),
        "failures": failures[:5],
        "report_sha256": digests,
        "machine": machine(),
    }
    detail["correct"] = not failures and same
    return metrics, detail, 3 * len(jobs), len(failures)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=streams.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hsderiv" / "cli.py").is_file():
        print(f"bench: no hsderiv sources under {SRC}", file=sys.stderr)
        return 2
    cap_threads(os.environ)
    sys.path.insert(0, str(SRC))

    if args.trace:
        metrics, detail, attempted, failed = measure_traced(args.workload, args.seed)
    else:
        metrics, detail, attempted, failed = measure(
            args.workload, args.seed, args.seconds)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": detail["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
