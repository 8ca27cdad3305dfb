"""Benchmark for charsum: one workload, one seed, one process, no threads.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

A run repeats whole rounds of the workload until the next round would end
after --seconds.  Each round imports charsum afresh (so module caches start
cold, as in a new CLI process), builds its inputs from the seed, times the
program calls from the first to the last, and then checks every output
against values worked out in the benchmark.

--trace 0 prints the end-to-end metrics: wall_s and setup_s (medians over
rounds) and peak_rss_mb.  --trace 1 alternates untraced and traced rounds
and prints the per-layer metrics of the traced rounds (medians), the
tracing overhead and the kernel probes; the spans are written to
perfbench/out/.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def fresh_charsum():
    """Import charsum from the repository's src, dropping any earlier copy."""
    for name in [n for n in sys.modules
                 if n == "charsum" or n.startswith("charsum.")]:
        del sys.modules[name]
    cs = importlib.import_module("charsum")
    importlib.import_module("charsum.cli")
    return cs


def run_round(build, seed, tracer=None):
    gc.collect()
    t0 = perf_counter()
    cs = fresh_charsum()
    if tracer is not None:
        tracer.install(cs)
    ops = build(cs, random.Random(seed))
    t1 = perf_counter()
    outputs = []
    for _, call, _ in ops:
        try:
            outputs.append((True, call()))
        except Exception as exc:  # counted as a failed operation
            outputs.append((False, exc))
    t2 = perf_counter()
    failed = 0
    problems = []
    report_bytes = 0
    for (label, _, check), (ok, out) in zip(ops, outputs):
        if not ok:
            failed += 1
            problems.append(f"{label}: raised {out!r}")
            continue
        problems.extend(f"{label}: {p}" for p in check(out))
        if label.startswith("cli "):
            report_bytes += len(out[1])
    if tracer is not None:
        tracer.counts["cli.report_bytes"] += report_bytes
    return {"setup_s": t1 - t0, "wall_s": t2 - t1, "total_s": perf_counter() - t0,
            "attempted": len(ops), "failed": failed, "problems": problems}


# ------------------------------------------------------------------ probes


def _per_call_us(fn, reps, batches=5):
    times = []
    for _ in range(batches):
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        times.append((perf_counter() - t0) / reps)
    return statistics.median(times) * 1e6


def kernel_probes(seed):
    """Single operations on seeded operands through the public API."""
    cs = fresh_charsum()
    rng = random.Random(seed)
    CV = cs.CycloValue

    def value(order, digits):
        bound = 10 ** digits
        return CV(order, tuple(rng.randrange(-bound, bound)
                               for _ in range(tracing.euler_phi(order))))

    v336, w336 = value(336, 1), value(336, 1)
    v2184, w2184 = value(2184, 1), value(2184, 1)
    wide_v, wide_w = value(2184, 31), value(2184, 31)
    unit = rng.choice([u for u in range(2, 336) if math.gcd(u, 336) == 1])
    f49 = cs.build_tower(7, 1, degrees=(1, 2))
    f169 = cs.build_tower(13, 1, degrees=(1, 2))
    # characters of full order, so each Gauss sum stays at order n * p
    i49 = rng.choice([i for i in range(1, 48) if math.gcd(i, 48) == 1])
    i169 = rng.choice([i for i in range(1, 168) if math.gcd(i, 168) == 1])
    return {
        "cyclotomic.mul_us.M336": _per_call_us(lambda: v336 * w336, 200),
        "cyclotomic.mul_us.M2184": _per_call_us(lambda: v2184 * w2184, 5),
        "cyclotomic.mul_us.M2184-wide":
            _per_call_us(lambda: wide_v * wide_w, 3),
        "cyclotomic.galois_us.M336":
            _per_call_us(lambda: v336.galois(unit), 200),
        "characters.gauss_sum_us.M336": _per_call_us(
            lambda: cs.CharSystem(f49).gauss_sum(
                cs.MultCharacter(2, i49)), 10),
        "characters.gauss_sum_us.M2184": _per_call_us(
            lambda: cs.CharSystem(f169).gauss_sum(
                cs.MultCharacter(2, i169)), 3),
        "field_tower.build_us.F169": _per_call_us(
            lambda: cs.build_tower(13, 1, degrees=(1, 2)), 10),
    }


# -------------------------------------------------------------------- main


def layer_units(name):
    if name.endswith("_s"):
        return "s"
    if "_us." in name:
        return "us"
    if name == "cli.report_bytes":
        return "bytes"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "charsum" / "__init__.py").is_file():
        print(f"charsum sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # no on-disk discrete-log cache: every round builds its own tables
    os.environ.pop("CHARSUM_CACHE_DIR", None)

    build = WORKLOADS[args.workload]
    deadline = perf_counter() + args.seconds
    plain, traced, tracers = [], [], []
    while True:
        trace_now = bool(args.trace) and len(plain) > len(traced)
        tracer = tracing.Tracer() if trace_now else None
        r = run_round(build, args.seed, tracer)
        (traced if trace_now else plain).append(r)
        if tracer is not None:
            tracers.append(tracer)
        if args.trace and not traced:
            continue
        nxt = traced if args.trace and len(plain) > len(traced) else plain
        if perf_counter() + max(x["total_s"] for x in nxt) > deadline:
            break

    rounds = plain + traced
    problems = [p for r in rounds for p in r["problems"]]
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    result = {"correct": not problems,
              "attempted": sum(r["attempted"] for r in rounds),
              "failed": sum(r["failed"] for r in rounds)}
    wall = statistics.median(r["wall_s"] for r in plain)
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced rounds, wall_s per round "
          f"{[round(r['wall_s'], 3) for r in plain]}", file=sys.stderr)

    if not args.trace:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result["metrics"] = {k: {"value": v, "unit": UNITS[k]}
                             for k, v in metrics.items()}
    else:
        per_round = [t.layer_metrics() for t in tracers]
        metrics = {k: (statistics.median if layer_units(k) == "s"
                       else statistics.median_low)(m[k] for m in per_round)
                   for k in per_round[0]}
        metrics["trace.overhead_s"] = \
            statistics.median(r["wall_s"] for r in traced) - wall
        metrics.update(kernel_probes(args.seed))
        result["metrics"] = {k: {"value": v, "unit": layer_units(k)}
                             for k, v in metrics.items()}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = {"workload": args.workload, "seed": args.seed,
                 "rounds": [{k: r[k] for k in ("setup_s", "wall_s")}
                            for r in traced],
                 "layers": [t.span_summary() for t in tracers],
                 "spans": [t.records for t in tracers]}
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
