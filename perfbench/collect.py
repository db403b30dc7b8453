#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

Run from the repository root::

    python3 perfbench/collect.py --seeds 1-10 --seconds 50
    python3 perfbench/collect.py --workloads sim-sweep --seeds 1 --trace

For every workload and seed it calls ``perfbench/run.py`` once with
``--trace 0``, then prints each end-to-end metric's median, quartiles
and spread (the interquartile distance as a share of the median) next
to the bound in ``BENCHMARK.json``.  ``--trace`` adds one traced run per
workload (first seed) and prints its per-layer metrics.
``--write-baseline`` stores the medians and quartiles, with the host
stamp, in ``perfbench/baseline.json``.
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
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(cmd)} printed no result:\n{proc.stderr}")
    for line in lines:
        if line.startswith(("failure:", "operations:")):
            print(f"  {line}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and (q3 - q1) / median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,9")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args(argv)
    seconds = args.seconds or BENCH["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    seeds = seed_list(args.seeds)
    ok = True
    summary: dict[str, dict] = {}
    for workload in args.workloads.split(","):
        print(f"== {workload}", flush=True)
        values: dict[str, list[float]] = {}
        unit: dict[str, str] = {}
        for seed in seeds:
            res = run(workload, seed, seconds, 0)
            ok &= res["correct"] and res["failed"] == 0
            print(f"  seed {seed}: correct={res['correct']} attempted="
                  f"{res['attempted']} failed={res['failed']} " + ", ".join(
                      f"{k}={m['value']:.6g}" for k, m in res["metrics"].items()),
                  flush=True)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                unit[name] = m["unit"]
        rows = {}
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            med, q1, q3, rel = spread(vals)
            rows[name] = {"unit": unit[name], "median": med, "q1": q1, "q3": q3,
                          "spread": rel, "values": vals}
            print(f"  {name}: median {med:.6g} {unit[name]}, q1 {q1:.6g}, "
                  f"q3 {q3:.6g}, spread {rel:.3f} (bound {bounds.get(name)})")
        summary[workload] = rows
        if args.trace:
            res = run(workload, seeds[0], seconds, 1)
            ok &= res["correct"] and res["failed"] == 0
            for name, m in res["metrics"].items():
                print(f"  [trace] {name}: {m['value']:.6g} {m['unit']}")
    if args.write_baseline:
        sys.path.insert(0, str(HERE))
        from run import host_stamp

        doc = {"host": host_stamp(), "seconds": seconds, "seeds": seeds,
               "workloads": summary}
        (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {HERE / 'baseline.json'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
