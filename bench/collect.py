"""Run the benchmark over several seeds and save a results file.

    python3 bench/collect.py --seeds 1-10 --out bench/results/BENCH_1.json

For every workload: one untraced run per seed (end-to-end metrics), and one
traced run on the first seed (per-layer metrics). Each end-to-end metric is
saved with its values, median, quartiles and spread, where spread is the
distance between the quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median. Runs are sequential: one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=True)
    detail, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail), json.loads(result)


def summarize(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    seeds = _seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    ok = True
    for w in args.workloads.split(","):
        values: dict = {}
        for seed in seeds:
            detail, result = run_once(w, seed, spec["run_seconds"], 0)
            ok = ok and result["correct"] and not result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(w, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  flush=True)
        e2e = {}
        for name, vals in values.items():
            e2e[name] = summarize(vals)
            e2e[name]["bound"] = bounds[name]
        detail, result = run_once(w, seeds[0], spec["run_seconds"], 1)
        ok = ok and result["correct"] and not result["failed"]
        out["machine"] = detail.pop("machine")
        out["workloads"][w] = {
            "end_to_end": e2e,
            "jobs_per_pass": detail["jobs_per_pass"],
            "per_layer": {k: m["value"] for k, m in result["metrics"].items()},
            "layer_self_share": detail["layer_self_share"],
            "report_sha256": detail["report_sha256"],
        }
        for name, s in e2e.items():
            print(f"  {w} {name}: median {s['median']:.4g} spread "
                  f"{s['spread']:.3f} (bound {s['bound']})", flush=True)
    out["correct"] = ok
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
