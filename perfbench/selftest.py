#!/usr/bin/env python3
"""Self-tests of the benchmark, at the tiny instance size (about a minute).

Run from the repository root::

    python3 perfbench/selftest.py

Checks that every workload prints every end-to-end and per-layer metric
of ``BENCHMARK.json`` with its unit, that a traced run writes its
spans, that a deliberately wrong pin is
reported as a failed operation naming the field, that timed explore
calls get a freshly built engine and the spec's own invariant object,
and that the benchmark fails without printing a result when the
program's sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work" / "selftest"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "tiny", "--seconds", "0.5",
         *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def result(lines: list[str]) -> dict:
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}, doc
    assert isinstance(doc["attempted"], int) and doc["attempted"] >= 1, doc
    return doc


def test_metrics(workload: str, trace: int) -> None:
    code, lines = bench("--workload", workload, "--trace", str(trace))
    doc = result(lines)
    assert code == 0 and doc["correct"] and doc["failed"] == 0, lines[-12:]
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(doc["metrics"]) == [m["name"] for m in wanted], doc["metrics"]
    for m in wanted:
        assert doc["metrics"][m["name"]]["unit"] == m["unit"], m
        assert any(line.startswith(f"metric {m['name']}: ")
                   and line.endswith(f" {m['unit']}") for line in lines), m
    assert any(line.startswith("operations: attempted") for line in lines)
    if trace:
        check_spans(HERE / ".work" / f"spans-{workload}-seed1-tiny.jsonl")


def check_spans(path: Path) -> None:
    """The traced run wrote its spans: one per operation at least."""
    try:
        spans = [json.loads(line) for line in path.read_text().splitlines()]
    finally:
        path.unlink(missing_ok=True)
    assert spans and all(
        set(s) == {"name", "start", "end", "parent", "amount"}
        and s["end"] >= s["start"] for s in spans), path
    assert any(s["name"] == "op" and s["parent"] == -1 for s in spans), path


def test_wrong_pin(workload: str) -> None:
    pins = json.loads((HERE / "pins.json").read_text())
    first = pins["tiny"][workload][0]
    field = "configurations" if "configurations" in first else "steps"
    first[field] += 1
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"pins-{workload}.json"
    path.write_text(json.dumps(pins))
    code, lines = bench("--workload", workload, "--pins", str(path))
    doc = result(lines)
    assert code != 0 and not doc["correct"] and doc["failed"] >= 1, lines[-6:]
    assert any(line.startswith("failure: op 0 ") and f"{field}: got" in line
               and "pinned" in line for line in lines), lines[-6:]


def test_fresh_engine_unwrapped_invariant() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    from repro import ScenarioSpec

    built, calls = [], []
    real_build, real_explore = ScenarioSpec.build, workloads.explore

    def build(self, **kwargs):
        built.append(real_build(self, **kwargs))
        return built[-1]

    def explore(engine, invariant, **kwargs):
        calls.append((engine, invariant))
        return real_explore(engine, invariant, **kwargs)

    ScenarioSpec.build, workloads.explore = build, explore
    try:
        for op in workloads.make_ops("explore", 1, "tiny") * 2:
            built.clear()
            workloads.run_op(op, WORK)
            engine, invariant = calls[-1]
            assert engine is built[-1].engine, op.label
            assert invariant is built[-1].invariant, op.label
        assert len({id(e) for e, _ in calls}) == len(calls)
    finally:
        ScenarioSpec.build, workloads.explore = real_build, real_explore


def test_fails_without_program() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    code, lines = bench("--workload", WORKLOADS[0], cwd=bare)
    assert code != 0, lines
    assert not any(line.startswith("{") for line in lines), lines


def main() -> int:
    tests = [(f"metrics {w} trace={t}", test_metrics, (w, t))
             for w in WORKLOADS for t in (0, 1)]
    tests += [(f"wrong pin {w}", test_wrong_pin, (w,)) for w in WORKLOADS]
    tests += [("fresh engine, unwrapped invariant",
               test_fresh_engine_unwrapped_invariant, ()),
              ("fails without the program", test_fails_without_program, ())]
    failed = 0
    try:
        for name, fn, args in tests:
            try:
                fn(*args)
                print(f"PASS {name}", flush=True)
            except Exception as exc:  # report it and run the other tests
                failed += 1
                print(f"FAIL {name}: {type(exc).__name__}: {exc}", flush=True)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()  # unless a benchmark run is using it
        except OSError:
            pass
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
