"""Record the elimination blocks of a benchmark workload and time them again.

Run from the repository root:

    python3 tools/replay_eliminate.py --workload coords --seed 1 --repeat 7

After one warm-up pass, one pass over the workload's jobs
(``bench/streams.py`` generates them, ``bench/run.py``'s ``run_job`` runs
them; both are imported, not changed) runs with ``linalg._eliminate``
wrapped to keep a copy of every input block, the timed jobs first and then
those the benchmark runs once per run. Every recorded block is then eliminated again --repeat times back to
back, each time on a fresh copy, and its best time kept. One table for the
timed jobs and one for the once-run jobs give, for each field (p, d), the
call count, the largest block and the sum of the best times. The GF(3)
blocks are also counted by the path ``_eliminate`` gives them: packed rows
for at most ``GF3_PACK_ROWS`` rows, packed rows for a sparse block past
that, or numpy. A sample of the outputs (--check blocks, evenly spaced,
the largest of each field among them) is compared with
``oracles.digit_eliminate``, the one-pivot-at-a-time reference of the
tests; a mismatch exits 1.

The same pass also times every whole ``rref`` call as it runs, wrapped in
each ``hsderiv`` module that binds it. A last pair of tables gives, per
field, the count and summed time of the calls that fit in one row block
and of those that take more, the part of that time spent in
``_eliminate``, and the rest: the reduction mod p, the products against
the running basis and the merging. These are single timings of the warm
recorded pass, not best times, and leave out the copying of the blocks.

``--against DIR`` loads another checkout's ``src/hsderiv/linalg.py`` beside
this package and times both eliminations on each block, alternating which
runs first; it adds that side's sums to the table and lists the blocks
more than 10% slower here. Comparing two separate runs would not do: the
speed a shared host gives one process drifts by more than that within
minutes.

Calls repeat back to back so that the best time is the call's own cost.
Timed in rounds over the whole list, a call also pays for re-warming the
processor's caches after its predecessors: the first numpy elimination
after a run of packed ones read about 3x its own time. Garbage collection
is off while timing, and in the recorded pass.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for sub in ("src", "bench", "tests"):
    sys.path.insert(0, str(ROOT / sub))

import numpy as np  # noqa: E402

import run as bench_run  # noqa: E402
import streams  # noqa: E402
from hsderiv import linalg  # noqa: E402
from oracles import digit_eliminate  # noqa: E402

SLOWER = 1.10


def record(workload: str, seed: int) -> tuple[list, list]:
    """One pass over the workload's jobs after a warm-up pass, timed jobs
    first: (ctx, block copy, timed) for every _eliminate call, and (ctx,
    one block, timed, seconds, seconds in _eliminate) for every rref call.
    An rref's time leaves out the copying of its blocks."""
    calls, rrefs = [], []
    inner, inner_rref = linalg._eliminate, linalg.rref
    timed = True
    # seconds spent in _eliminate, and copying blocks, since the pass began
    spent = {"eliminate": 0.0, "copy": 0.0}
    clock = time.perf_counter

    def wrapped(ctx, m):
        t0 = clock()
        calls.append((ctx, m.copy(), timed))
        t1 = clock()
        try:
            return inner(ctx, m)
        finally:
            spent["copy"] += t1 - t0
            spent["eliminate"] += clock() - t1

    def wrapped_rref(ctx, mat):
        before = dict(spent)
        t0 = clock()
        try:
            return inner_rref(ctx, mat)
        finally:
            t = clock() - t0 - (spent["copy"] - before["copy"])
            one = mat.shape[0] <= max(mat.shape[1], linalg.MIN_BLOCK_ROWS)
            rrefs.append((ctx, one, timed, t, spent["eliminate"] - before["eliminate"]))

    # every hsderiv namespace that binds rref: basis and lattice import it by name
    bound = [mod for name, mod in sys.modules.items()
             if name.startswith("hsderiv") and getattr(mod, "rref", None) is inner_rref]
    jobs = streams.generate(workload, seed)
    for job in jobs:  # warm-up: caches filled, as in every benchmark pass but the first
        bench_run.run_job(job)
    linalg._eliminate = wrapped
    for mod in bound:
        mod.rref = wrapped_rref
    gc.disable()
    try:
        for timed in (True, False):
            for job in jobs:
                if job["timed"] == timed:
                    bench_run.run_job(job)
    finally:
        gc.enable()
        linalg._eliminate = inner
        for mod in bound:
            mod.rref = inner_rref
    return calls, rrefs


def gf3_path(block: np.ndarray) -> str:
    """The path _eliminate takes for a GF(3) block."""
    rows, cols = block.shape[:2]
    if rows <= linalg.GF3_PACK_ROWS:
        return f"packed, <= {linalg.GF3_PACK_ROWS} rows"
    if linalg.GF3_SPARSE * np.count_nonzero(block) <= rows * cols:
        return "packed, sparse"
    return "numpy"


def best_times(calls: list, repeat: int, other=None) -> list:
    """Best time of each call, run repeat times back to back: (here, other)
    per call, other None without a second elimination."""
    sides = [linalg._eliminate] + ([other] if other else [])
    best = []
    gc.disable()
    try:
        for ctx, block, _ in calls:
            t = [float("inf")] * len(sides)
            for k in range(repeat):
                for side in (range(len(sides)) if k % 2 == 0 else reversed(range(len(sides)))):
                    m = block.copy()
                    t0 = time.perf_counter()
                    sides[side](ctx, m)
                    t[side] = min(t[side], time.perf_counter() - t0)
            best.append((t[0], t[1] if other else None))
    finally:
        gc.enable()
    return best


def load_linalg(checkout: Path):
    """The linalg module of another checkout, loaded as a sibling of this
    package's modules, which it imports."""
    path = checkout / "src" / "hsderiv" / "linalg.py"
    spec = importlib.util.spec_from_file_location("hsderiv._linalg_against", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check(calls: list, count: int) -> int:
    """Compare count outputs, evenly spaced plus each field's largest
    block, with the reference; returns the number of mismatches."""
    picks = set(np.linspace(0, len(calls) - 1, count, dtype=int).tolist()) if calls else set()
    largest = {}
    for i, (ctx, block, _) in enumerate(calls):
        key = (ctx.p, ctx.d)
        if key not in largest or block.size > calls[largest[key]][1].size:
            largest[key] = i
    picks |= set(largest.values())
    bad = 0
    for i in sorted(picks):
        ctx, block, _ = calls[i]
        m = block.copy()
        pivots = linalg._eliminate(ctx, m)
        rows = [[tuple(int(v) for v in x) for x in row] for row in block.tolist()]
        want, want_pivots = digit_eliminate(ctx.p, ctx.modulus, rows, block.shape[1])
        if pivots != want_pivots or m.tolist() != [[list(x) for x in row] for row in want]:
            print(f"mismatch at call {i}: p={ctx.p} d={ctx.d} shape={block.shape[:2]}")
            bad += 1
    print(f"checked {len(picks)} of {len(calls)} calls against digit_eliminate: "
          f"{bad} mismatches")
    return bad


def report(calls: list, best: list, against: bool) -> None:
    """Per-field sums, for the timed jobs and then for the once-run ones."""
    for timed in (True, False):
        picked = [(c, b) for c, b in zip(calls, best) if c[2] == timed]
        print(f"{'timed' if timed else 'once-run'} jobs: {len(picked)} calls")
        if picked:
            table(*zip(*picked), against)


def table(calls: list, best: list, against: bool) -> None:
    fields = defaultdict(lambda: [0, 0.0, 0.0, (0, 0)])
    for (ctx, block, _), (here, there) in zip(calls, best):
        f = fields[(ctx.p, ctx.d)]
        f[0] += 1
        f[1] += here
        f[2] += there or 0.0
        if block.shape[0] * block.shape[1] > f[3][0] * f[3][1]:
            f[3] = block.shape[:2]
    head = f"{'p':>11} {'d':>2} {'calls':>6} {'largest':>9} {'sum ms':>9}"
    print(head + (f" {'against ms':>11}" if against else ""))
    total = [0, 0.0, 0.0]
    for (p, d), (n, here, there, shape) in sorted(fields.items()):
        total = [total[0] + n, total[1] + here, total[2] + there]
        line = f"{p:>11} {d:>2} {n:>6} {'x'.join(map(str, shape)):>9} {here * 1e3:>9.2f}"
        print(line + (f" {there * 1e3:>11.2f}" if against else ""))
    line = f"{'all':>14} {total[0]:>6} {'':>9} {total[1] * 1e3:>9.2f}"
    print(line + (f" {total[2] * 1e3:>11.2f}" if against else ""))


def report_rref(rrefs: list) -> None:
    """Whole rref calls of the recorded pass per field, one-block and
    multi-block, with the time spent in _eliminate and outside it."""
    for timed in (True, False):
        fields = defaultdict(lambda: [0, 0.0, 0, 0.0, 0.0])
        for ctx, one, t, seconds, inside in rrefs:
            if t == timed:
                f = fields[(ctx.p, ctx.d)]
                f[0 if one else 2] += 1
                f[1 if one else 3] += seconds
                f[4] += inside
        print(f"rref calls of the recorded pass, {'timed' if timed else 'once-run'} jobs:")
        print(f"{'p':>11} {'d':>2} {'one':>6} {'one ms':>9} {'multi':>6} {'multi ms':>9} "
              f"{'elim ms':>9} {'other ms':>9}")
        total = [0, 0.0, 0, 0.0, 0.0]
        for (p, d), f in sorted(fields.items()):
            total = [a + b for a, b in zip(total, f)]
            print(rref_line(f"{p:>11} {d:>2}", f))
        print(rref_line(f"{'all':>14}", total))


def rref_line(head: str, f: list) -> str:
    n1, t1, n2, t2, inside = f
    return (f"{head} {n1:>6} {t1 * 1e3:>9.2f} {n2:>6} {t2 * 1e3:>9.2f} "
            f"{inside * 1e3:>9.2f} {(t1 + t2 - inside) * 1e3:>9.2f}")


def report_gf3(calls: list) -> None:
    """GF(3) blocks by the path _eliminate gives them, timed and once-run."""
    paths = defaultdict(lambda: [0, 0])
    for ctx, block, timed in calls:
        if (ctx.p, ctx.d) == (3, 1):
            paths[gf3_path(block)][0 if timed else 1] += 1
    print(f"GF(3) blocks by path: {'timed':>6} {'once':>6}")
    for path, (timed, once) in sorted(paths.items()):
        print(f"  {path:<19} {timed:>6} {once:>6}")


def report_slower(calls: list, best: list) -> None:
    slower = [(i, ctx, block, b) for i, ((ctx, block, _), b) in enumerate(zip(calls, best))
              if b[0] > SLOWER * b[1]]
    print(f"calls more than {SLOWER - 1:.0%} slower than --against: "
          f"{len(slower)} of {len(calls)}")
    for i, ctx, block, (here, there) in slower:
        print(f"  call {i}: p={ctx.p} d={ctx.d} {block.shape[0]}x{block.shape[1]} "
              f"{there * 1e6:.1f} -> {here * 1e6:.1f} us")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=streams.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--repeat", type=int, default=7)
    ap.add_argument("--check", type=int, default=40)
    ap.add_argument("--against", type=Path)
    args = ap.parse_args(argv)

    other = load_linalg(args.against)._eliminate if args.against else None
    calls, rrefs = record(args.workload, args.seed)
    best = best_times(calls, args.repeat, other)
    print(f"{args.workload} seed {args.seed}: {len(calls)} _eliminate calls, "
          f"best of {args.repeat}")
    report(calls, best, other is not None)
    report_gf3(calls)
    report_rref(rrefs)
    if other is not None:
        report_slower(calls, best)
    return 1 if check(calls, args.check) else 0


if __name__ == "__main__":
    sys.exit(main())
