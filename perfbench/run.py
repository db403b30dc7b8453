#!/usr/bin/env python3
"""Benchmark of the k-out-of-l exclusion reproduction, one workload per call.

Run from the repository root::

    python3 perfbench/run.py --workload explore --seed 1 --seconds 50 --trace 0

The program is imported from ``src/``; nothing is installed or built.
One process runs the workload's operations one at a time (a closed
loop; owner-computes adds its two forked workers), one untimed
warm-up run and then cyclically, until ``--seconds`` have elapsed and
each has run at least once.  It checks every outcome and prints a
report followed, as the last line, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` runs every operation untraced and then traced, reports
the per-layer metrics of the traced runs, plus ``trace.overhead_ratio``,
and writes every span to ``perfbench/.work/spans-*.jsonl``.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: scratch space of this run (owner spill and checkpoint files), removed
#: before it exits
WORKDIR = HERE / ".work" / f"run-{os.getpid()}"
#: set-up is measured this many times per run, in fresh processes
SETUP_SAMPLES = 7

END_TO_END = {"setup_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "spec.build_s": "s",
    "explore.configurations": "count",
    "explore.transitions": "count",
    "explore.new_ratio": "ratio",
    "explore.invariant_calls": "count",
    "explore.invariant_s": "s",
    "explore.expand_s": "s",
    "explore.peak_seen_mb": "MiB",
    "explore.unaccounted_mb": "MiB",
    "owner.levels": "count",
    "owner.level_s_p50": "s",
    "owner.level_s_max": "s",
    "owner.worker_cpu_s": "s",
    "owner.worker_busy_ratio": "ratio",
    "owner.coord_cpu_s": "s",
    "owner.checkpoints": "count",
    "owner.checkpoint_s": "s",
    "owner.peak_disk_kb": "KiB",
    "engine.steps": "count",
    "engine.run_s": "s",
    "harness.sample_calls": "count",
    "harness.sample_s": "s",
    "metrics.collect_s": "s",
    "trace.overhead_ratio": "ratio",
}
#: the end-to-end throughput under the name and unit each workload's
#: users know it by
THROUGHPUT_NAME = {
    "explore": ("states_per_s", "configurations/s"),
    "sim-sweep": ("sim_steps_per_s", "steps/s"),
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(THROUGHPUT_NAME))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="instance size; 'tiny' is for the self-tests")
    ap.add_argument("--pins", default=str(HERE / "pins.json"),
                    help="pinned outcomes at the default seed")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def spans_path(args) -> Path:
    """Where a traced run writes its spans, one JSON line each."""
    name = f"spans-{args.workload}-seed{args.seed}-{args.size}.jsonl"
    return HERE / ".work" / name


def say(*parts: object) -> None:
    print(*parts, flush=True)


def host_stamp() -> dict:
    """What a baseline is only comparable on."""
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def cpu_s(who: int) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def setup(wl, args) -> list:
    """Input generation and a ``ScenarioSpec.build`` of every scenario."""
    ops = wl.make_ops(args.workload, args.seed, args.size)
    for op in ops:
        op.spec.build()
    return ops


def measure_setup(args) -> list[float]:
    """Seconds from process start to ready-to-run, in fresh processes."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed ({child.returncode})")
        samples.append(elapsed)
    return samples


class Run:
    """One run of one operation, untraced or traced."""

    def __init__(self, op: int, number: int, traced: bool,
                 warmup: bool = False) -> None:
        self.op = op
        self.number = number
        self.traced = traced
        #: checked like any run, but not timed
        self.warmup = warmup
        #: the OpResult, or the text of the exception it raised
        self.result: object = None
        #: traced runs: per-layer figures and owner level seconds
        self.layers: dict = {}
        self.level_times: list[float] = []

    @property
    def ok(self) -> bool:
        return not isinstance(self.result, str)


def run_once(wl, args, ops, i: int, number: int, probes=None,
             warmup: bool = False) -> Run:
    """Run ``ops[i]`` once; ``probes`` = (Tracer, SharedTally)."""
    op = ops[i]
    run = Run(i, number, probes is not None, warmup)
    gc.collect()
    try:
        if probes is None:
            run.result = wl.run_op(op, WORKDIR)
        else:
            run.result = traced_op(wl, args, op, run, *probes)
    except Exception as exc:  # any exception fails the operation
        run.result = f"{type(exc).__name__}: {exc}"
    where = (f"op {i} run {number}{' traced' if probes else ''}"
             f"{' warm-up' if warmup else ''}: {op.label}")
    res = run.result
    if run.ok:
        say(f"{where}: {res.wall:.3f} s, {res.work} work, "
            f"{json.dumps(res.outcome)}")
    else:
        say(f"{where}: FAILED {res}")
    return run


def traced_op(wl, args, op, run: Run, tracer, tally):
    """One operation with every layer probe attached; fills ``run.layers``."""
    from tracing import peak_rss_kb, reset_peak_rss, rss_kb

    events: list[tuple[float, str]] = []

    def progress(ev) -> None:
        events.append((time.perf_counter(), ev.note))

    since = len(tracer.spans)
    tally.reset()
    reset_peak_rss()
    start_kb = rss_kb()
    kids0, self0 = cpu_s(resource.RUSAGE_CHILDREN), cpu_s(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    with tracer.span("op"):
        res = wl.run_op(op, WORKDIR, wrap_invariant=tally.wrap,
                        progress=progress)
    kids = cpu_s(resource.RUSAGE_CHILDREN) - kids0
    coord = cpu_s(resource.RUSAGE_SELF) - self0
    spans = tracer.summary(since)
    inv_calls, inv_s = tally.totals()

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    layers = run.layers
    layers.update({
        "spec.build_s": span("spec.build", "total_s"),
        "engine.steps": span("engine.run", "amount"),
        "engine.run_s": span("engine.run", "self_s")
        + span("engine.run_until", "self_s"),
        "harness.sample_calls": span("harness.sample", "calls"),
        "harness.sample_s": span("harness.sample", "total_s"),
        "metrics.collect_s": span("metrics.collect", "total_s"),
    })
    if op.kind in wl.EXPLORE_KINDS:
        raw = res.raw
        seen_mb = raw.peak_seen_bytes / 2**20
        # what the process holding the seen-set grew by during the call,
        # less its seen-set; on owner-computes, the largest over the
        # workers, each with its own shard
        if op.kind == "owner":
            unaccounted = max((grown / 1024 - shard / 2**20
                               for shard, grown in tally.shards()), default=0.0)
        else:
            unaccounted = (peak_rss_kb() - start_kb) / 1024 - seen_mb
        layers.update({
            "explore.configurations": raw.configurations,
            "explore.transitions": raw.transitions,
            "explore.invariant_calls": inv_calls,
            "explore.invariant_s": inv_s,
            # owner-computes expands in its workers: their CPU less the
            # invariant's; elsewhere the call's wall time less it
            "explore.expand_s": (kids if op.kind == "owner"
                                 else res.wall) - inv_s,
            "explore.peak_seen_mb": seen_mb,
            "explore.unaccounted_mb": unaccounted,
        })
    if op.kind == "owner":
        prev = t0
        checkpoints = 0
        for stamp, note in events:
            if note.startswith("level"):
                run.level_times.append(stamp - prev)
            elif note.startswith("checkpoint"):
                checkpoints += 1
            prev = stamp
        layers.update({
            "owner.checkpoints": checkpoints,
            "owner.worker_cpu_s": kids,
            "owner.coord_cpu_s": coord,
            "owner.checkpoint_s": span("owner.write_manifest", "total_s"),
            "owner.peak_disk_kb": res.raw.peak_disk_bytes / 1024,
        })
    return res


#: per-layer figures combined over operations by their largest value;
#: the others are summed
PEAK_LAYERS = {"explore.peak_seen_mb", "explore.unaccounted_mb",
               "owner.peak_disk_kb"}


def by_op(runs: list[Run], traced: bool) -> dict[int, list[Run]]:
    """The successful timed runs of each operation, untraced or traced."""
    out: dict[int, list[Run]] = {}
    for run in runs:
        if run.ok and run.traced == traced and not run.warmup:
            out.setdefault(run.op, []).append(run)
    return out


def median_wall(runs: list[Run]) -> float:
    return statistics.median(r.result.wall for r in runs)


def throughput(runs: list[Run], timing=min) -> float:
    """Work per second of one pass over the operations, each timed by the
    fastest of its untraced runs, so every operation weighs the same
    however many times the deadline let it run.

    The fastest run, not the median: on the reference host each vCPU
    switches every few seconds between its own speed and about 1.8 times
    slower (contention from outside the machine), which only ever adds
    time.  ``timing=statistics.median`` gives the median-based figure
    the report prints beside it.
    """
    groups = by_op(runs, False).values()
    wall = sum(timing([r.result.wall for r in rs]) for rs in groups)
    return sum(rs[0].result.work for rs in groups) / wall if wall else 0.0


def layer_metrics(ops, runs: list[Run]) -> dict:
    """Every per-layer metric (0 = layer not entered).

    Each operation contributes its traced run of median wall time, once:
    counts and seconds are summed over operations, memory is the largest
    figure, and ratios are taken from the sums.
    """
    from workloads import OWNER_WORKERS

    plain = by_op(runs, False)
    reps = {i: sorted(rs, key=lambda r: r.result.wall)[(len(rs) - 1) // 2]
            for i, rs in by_op(runs, True).items()}
    out = dict.fromkeys(PER_LAYER, 0)
    for name in out:
        values = [r.layers[name] for r in reps.values() if name in r.layers]
        if values:
            out[name] = max(values) if name in PEAK_LAYERS else sum(values)
    if out["explore.transitions"]:
        out["explore.new_ratio"] = (out["explore.configurations"]
                                    / out["explore.transitions"])
    levels = [t for r in reps.values() for t in r.level_times]
    if levels:
        wall = sum(r.result.wall for i, r in reps.items()
                   if ops[i].kind == "owner")
        out["owner.levels"] = len(levels)
        out["owner.level_s_p50"] = statistics.median(levels)
        out["owner.level_s_max"] = max(levels)
        out["owner.worker_busy_ratio"] = (
            out["owner.worker_cpu_s"] / (OWNER_WORKERS * wall)
        )
    both = [i for i in reps if i in plain]
    untraced = sum(median_wall(plain[i]) for i in both)
    if untraced:
        out["trace.overhead_ratio"] = (
            sum(reps[i].result.wall for i in both) / untraced
        )
    return out


def check(wl, args, ops, runs: list[Run], pins) -> tuple[int, int, list[str]]:
    """Attempted and failed operations, with one line per failure."""
    failures: list[str] = []
    failed: set[str] = set()
    attempted = 0
    first: dict[int, dict] = {}
    reference = None
    used = sorted({run.op for run in runs if ops[run.op].kind == "owner"})
    if used:
        # the owner's serial-identity contract, on every seed: one serial
        # explore() call per tree the run explored
        attempted += len(used)
        try:
            reference = wl.serial_reference(ops, used, WORKDIR)
            # one call per tree, outside the timed loop: printed for
            # comparison, not a metric
            work = sum(res.work for res in reference.values())
            wall = sum(res.wall for res in reference.values())
            say(f"serial explore() on the same trees: {work / wall:.6g} "
                f"configurations/s, one run each")
        except Exception as exc:
            failed.add("serial reference")
            failures.append(f"serial reference: {type(exc).__name__}: {exc}")
    for run in runs:
        i, res = run.op, run.result
        attempted += 1
        where = f"op {i} run {run.number} ({ops[i].label})"
        if not run.ok:
            errors = [res]
        else:
            errors = wl.claim_errors(ops[i], res.outcome)
            if pins is not None:
                errors += wl.diff_outcome(res.outcome, pins[i], "pinned")
            if i in first:
                errors += wl.diff_outcome(res.outcome, first[i],
                                          "its first run gave")
            else:
                first[i] = res.outcome
            if reference is not None and i in reference:
                want = {k: reference[i].outcome[k]
                        for k in ("configurations", "transitions")}
                errors += wl.diff_outcome(res.outcome, want,
                                          "serial explore() gave")
        if errors:
            failed.add(where)
            failures.extend(f"{where}: {e}" for e in errors)
    return attempted, len(failed), failures


def load_pins(args, ops):
    """The pinned outcomes for this run, or None off the default seed."""
    from workloads import DEFAULT_SEED

    if args.seed != DEFAULT_SEED:
        return None
    with open(args.pins) as fh:
        table = json.load(fh)[args.size][args.workload]
    if len(table) != len(ops):
        raise ValueError(f"{args.pins}: {len(table)} pins for {len(ops)} ops")
    return table


def compare_baseline(args, metrics: dict) -> None:
    """Print each end-to-end metric against the committed baseline."""
    path = HERE / "baseline.json"
    if args.trace or args.size != "full" or not path.exists():
        return
    base = json.loads(path.read_text())
    rows = base.get("workloads", {}).get(args.workload)
    if not rows:
        return
    label = "same-host" if base.get("host") == host_stamp() else "cross-host"
    for name, row in rows.items():
        if name in metrics:
            now = metrics[name]["value"]
            say(f"baseline {name}: median {row['median']:.6g} "
                f"(q1 {row['q1']:.6g}, q3 {row['q3']:.6g}); this run {now:.6g} "
                f"({now / row['median'] - 1:+.1%}) [{label}]")


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads as wl
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        setup(wl, args)
        say("ready")
        return 0

    say(f"# perfbench {args.workload} seed={args.seed} size={args.size} "
        f"seconds={args.seconds:g} trace={args.trace}")
    say(f"host: {json.dumps(host_stamp())}")
    setup_samples = measure_setup(args)
    ops = setup(wl, args)
    pins = load_pins(args, ops)
    say(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setup_samples)}")

    probes = None
    if args.trace:
        from tracing import SharedTally, Tracer

        probes = (Tracer(), SharedTally(WORKDIR / "tally"))
    # One untimed run of the first operation warms the process up (lazy
    # imports, allocator arenas, the CPU's caches).  Then operations run
    # in order, cyclically, until the time is up and every operation has
    # run at least once, so every run of a seed covers the same inputs.
    # Traced, each one runs untraced and then traced.
    runs: list[Run] = []
    ran = 0
    try:
        runs.append(run_once(wl, args, ops, 0, 0, warmup=True))
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline or ran < len(ops):
            i = ran % len(ops)
            runs.append(run_once(wl, args, ops, i, len(runs)))
            if probes is not None:
                probes[0].install(probes[1])
                try:
                    runs.append(run_once(wl, args, ops, i, len(runs), probes))
                finally:
                    probes[0].uninstall()
            ran += 1
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    # before the checks: the owner's serial reference is not measured
    peak_mb = peak_rss_mb()
    attempted, failed, failures = check(wl, args, ops, runs, pins)
    shutil.rmtree(WORKDIR, ignore_errors=True)
    try:
        WORKDIR.parent.rmdir()  # unless another run is using it
    except OSError:
        pass
    if args.trace:
        layers = layer_metrics(ops, runs)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        probes[1].close()
        path = spans_path(args)
        path.parent.mkdir(parents=True, exist_ok=True)
        probes[0].write(path)
        say(f"spans: {len(probes[0].spans)} written to {path.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "work_per_s": throughput(runs),
            "peak_rss_mb": peak_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
        name, unit = THROUGHPUT_NAME[args.workload]
        say(f"{name}: {metrics['work_per_s']['value']:.6g} {unit} (fastest "
            f"runs); {throughput(runs, statistics.median):.6g} (median runs)")
        kinds = sorted({op.kind for op in ops})
        if len(kinds) > 1:
            say("of which " + "; ".join(
                f"{kind}: "
                f"{throughput([r for r in runs if ops[r.op].kind == kind]):.6g}"
                for kind in kinds))
    for name, m in metrics.items():
        say(f"metric {name}: {m['value']:.6g} {m['unit']}")
    compare_baseline(args, metrics)
    say(f"operations: attempted {attempted}, failed {failed}")
    for line in failures:
        say(f"failure: {line}")
    correct = failed == 0
    say(json.dumps({"correct": correct, "attempted": attempted,
                    "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
