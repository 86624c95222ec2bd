"""Alternate the benchmark between this checkout and another, and compare.

Run from the repository root:

    python3 tools/ab_bench.py --against DIR --workload coords --pairs 5 --seconds 35

DIR is another checkout of the repository, such as the parent commit
unpacked with ``git archive``. Each pair runs ``bench/run.py --trace 0`` once
in each checkout, each run in a fresh interpreter, with the side that goes
first alternating from pair to pair, so that drift in the speed a shared
host gives a process lands on both sides alike. Each side runs its own
``bench/run.py`` on its own ``src``; the run is unchanged except that the
per-job latencies behind ``jobs_per_s``, ``job_p50_s`` and ``job_tail_s``
(reference seconds, one per timed job, as ``run.latency_stats`` receives
them) are kept and printed after its last line.

It prints, for every end-to-end metric of ``BENCHMARK.json``, the median
of each side, the interquartile range of DIR's runs and the pairs in which
this checkout did better; then, per job class (``streams.job_class``), the
median over runs of the class's median job latency, with the class that
holds the median job marked: that class decides ``job_p50_s``. A run that
is not correct (a failed job, or report bytes that differ between passes)
is listed. Nothing is written under either checkout: bytecode is off in
the runs, and ``--trace 0`` writes no span file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs one checkout's bench/run.py in this interpreter, keeps the first
# list run.latency_stats receives (the per-job reference latencies), and
# prints it with each job's class as one more JSON line.
_RUNNER = """
import json, sys
root, workload, seed, seconds = sys.argv[1:]
sys.path.insert(0, root + "/bench")
import run, streams
seen = []
inner = run.latency_stats
def keep(per_job):
    seen.append(list(per_job))
    return inner(per_job)
run.latency_stats = keep
code = run.main(["--workload", workload, "--seed", seed, "--seconds", seconds])
jobs = [j for j in streams.generate(workload, int(seed)) if j["timed"]]
print(json.dumps({"per_job": seen[0], "classes": [streams.job_class(j) for j in jobs]}))
sys.exit(code)
"""


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", _RUNNER, str(checkout), workload, str(seed), str(seconds)],
        cwd=checkout, env=env, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-2])
    result.update(json.loads(lines[-1]))
    return result


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def median_classes(per_job: list, classes: list) -> set:
    """The classes of the job or two jobs at the median latency."""
    order = sorted(range(len(per_job)), key=per_job.__getitem__)
    mid = (len(order) - 1) / 2
    return {classes[order[int(mid)]], classes[order[int(mid + 0.5)]]}


def class_medians(per_job: list, classes: list) -> dict:
    by: dict = {}
    for t, c in zip(per_job, classes):
        by.setdefault(c, []).append(t)
    return {c: statistics.median(ts) for c, ts in by.items()}


def report(runs: dict, better: dict) -> None:
    here, there = runs["here"], runs["there"]
    print(f"{'metric':<14}{'DIR':>14}{'here':>14}{'DIR IQR':>12}{'better':>9}")
    for name, direction in better.items():
        a = [r["metrics"][name]["value"] for r in there]
        b = [r["metrics"][name]["value"] for r in here]
        lo, hi = quartiles(a)
        wins = sum((y > x) if direction == "higher" else (y < x) for x, y in zip(a, b))
        print(f"{name:<14}{statistics.median(a):>14.6g}{statistics.median(b):>14.6g}"
              f"{hi - lo:>12.3g}{wins:>6}/{len(a)}")
    classes = there[0]["classes"]
    counts: dict = {}
    for c in classes:
        counts[c] = counts.get(c, 0) + 1
    med = {side: [class_medians(r["per_job"], r["classes"]) for r in rs]
           for side, rs in runs.items()}
    at_median = set()
    for r in there + here:
        at_median |= median_classes(r["per_job"], r["classes"])
    print(f"\n{'job class (* holds the median job)':<46}{'jobs':>5}"
          f"{'DIR ms':>10}{'here ms':>10}{'ratio':>8}")
    for c in sorted(counts, key=lambda c: statistics.median(m[c] for m in med["there"])):
        a = statistics.median(m[c] for m in med["there"]) * 1e3
        b = statistics.median(m[c] for m in med["here"]) * 1e3
        mark = "*" if c in at_median else " "
        print(f"{mark}{c:<45}{counts[c]:>5}{a:>10.3f}{b:>10.3f}{b / a:>8.3f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", required=True, type=Path,
                    help="the other checkout, run as DIR")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    other = args.against.resolve()
    if not (other / "bench" / "run.py").is_file():
        print(f"ab_bench: no bench/run.py under {other}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs: dict = {"here": [], "there": []}
    for i in range(args.pairs):
        sides = [("there", other), ("here", ROOT)]
        for side, checkout in sides if i % 2 == 0 else reversed(sides):
            r = run_once(checkout, args.workload, args.seed, args.seconds)
            runs[side].append(r)
            print(f"pair {i + 1} {side}: jobs_per_s "
                  f"{r['metrics']['jobs_per_s']['value']:.2f}"
                  + ("" if r["correct"] else " NOT CORRECT"), file=sys.stderr)
    bad = [(side, k + 1) for side, rs in runs.items()
           for k, r in enumerate(rs) if not r["correct"]]
    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s runs; DIR = {other}")
    report(runs, better)
    if bad:
        print(f"\nruns not correct (side, pair): {bad}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
