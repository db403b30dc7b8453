"""Inputs, operations and output checks of the benchmark's workloads.

A workload is a list of operations generated from ``--seed``: random
trees to explore (``explore``), or paper experiments (``sim-sweep``).  An operation is one ``explore()``
call or one paper experiment, always made through the package's public
entry points (``ScenarioSpec.build``, ``explore``, ``run_convergence``,
``run_waiting_time``).  Each operation returns an *outcome*: the
deterministic fields of its result, which the checks below compare
against pins, against their first run, and against the paper's claims.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from repro import ScenarioSpec, run_convergence, run_waiting_time
from repro.analysis import explore
from repro.spec import FaultSpec, SchedulerSpec, TopologySpec, WorkloadSpec

#: ``--seed`` at which the pins in ``pins.json`` apply
DEFAULT_SEED = 1

#: Instance sizes.  ``full`` is what the benchmark measures; ``tiny``
#: runs every code path in about a second, for the self-tests.
SIZES = {
    "full": {
        # random trees per seed, explored one after another
        "trees": {"owner": 12, "liveness": 16},
        "safety_n": 6,
        "liveness_n": 4,
        "sweep_n": (6, 10, 14, 32),
        "convergence_steps": 200_000,
        "waiting_steps": 100_000,
    },
    "tiny": {
        "trees": {"owner": 2, "liveness": 2},
        "safety_n": 4,
        "liveness_n": 3,
        "sweep_n": (4,),
        "convergence_steps": 20_000,
        "waiting_steps": 10_000,
    },
}

#: depth bounds far beyond the deepest level of these spaces, so every
#: search runs until the reachable set closes
SAFETY_DEPTH = 1_000
LIVENESS_DEPTH = 5_000
MAX_CONFIGURATIONS = 10_000_000

#: owner-computes settings: one shard per CPU of the reference host, a
#: per-shard seen-set budget small enough that every shard spills, and a
#: checkpoint every few BFS levels
OWNER_WORKERS = 2
OWNER_MEM_BUDGET = 64 * 1024
OWNER_CHECKPOINT_EVERY = 5

#: paper-experiment parameters (the ``repro converge`` / ``repro wait``
#: scenarios at k=2, l=4, CMAX=2)
SWEEP_K, SWEEP_L, SWEEP_CMAX = 2, 4, 2
SWEEP_SHAPES = ("path", "star", "random")


#: the kinds of explore operation: owner-computes safety search, serial
#: liveness search, and the serial safety search that owner-computes is
#: checked against
EXPLORE_KINDS = ("owner", "liveness", "serial")


@dataclass(frozen=True)
class Op:
    """One operation of a workload."""

    #: one of EXPLORE_KINDS, or the paper experiment "T1" (convergence) /
    #: "T2" (waiting time)
    kind: str
    spec: ScenarioSpec
    #: simulated steps for T1/T2 (``max_steps`` / ``measure_steps``)
    steps: int = 0

    @property
    def label(self) -> str:
        topo = self.spec.topology
        shape = ",".join(f"{k}={v}" for k, v in sorted(topo.args.items()))
        return f"{self.kind} {self.spec.variant} {topo.kind}({shape})"


@dataclass
class OpResult:
    """What one operation produced: its outcome and how long it took."""

    outcome: dict
    #: wall seconds of the timed call
    wall: float
    #: work units done: distinct configurations for explore, simulated
    #: scheduler steps for T1/T2
    work: int
    #: the raw result object, for the per-layer figures
    raw: object = None


def _explore_spec(variant: str, n: int, seed: int, backend: str) -> ScenarioSpec:
    # cs_duration=0 keeps applications time-independent, the digest
    # soundness condition of exhaustive exploration (as `repro explore`).
    return ScenarioSpec(
        topology=TopologySpec("random", {"n": n, "seed": seed}),
        variant=variant,
        k=2,
        l=2,
        workload=WorkloadSpec("saturated", {"cs_duration": 0}),
        seed=seed,
        backend=backend,
    )


def _sweep_ops(seed: int, size: dict) -> list[Op]:
    # Every (shape, n) pair runs once as T1 and once as T2, so the mix of
    # network sizes, and with it the steps/s, is the same on every seed;
    # the seed draws the order, the random trees and the run seeds.
    rng = random.Random(seed)
    cells = [(shape, n) for shape in SWEEP_SHAPES for n in size["sweep_n"]]
    t1_cells, t2_cells = rng.sample(cells, len(cells)), rng.sample(cells, len(cells))
    ops = []
    for t1, t2 in zip(t1_cells, t2_cells):
        for kind, (shape, n) in (("T1", t1), ("T2", t2)):
            args = {"n": n}
            if shape == "random":
                args["seed"] = rng.randrange(2**31)
            common = dict(
                topology=TopologySpec(shape, args),
                variant="selfstab",
                k=SWEEP_K,
                l=SWEEP_L,
                cmax=SWEEP_CMAX,
                scheduler=SchedulerSpec("random"),
                seed=rng.randrange(2**31),
            )
            if kind == "T1":
                spec = ScenarioSpec(
                    workload=WorkloadSpec("saturated", {"cs_duration": 2}),
                    faults=(FaultSpec("scramble"),),
                    **common,
                )
                ops.append(Op("T1", spec, size["convergence_steps"]))
            else:
                spec = ScenarioSpec(
                    workload=WorkloadSpec(
                        "saturated", {"need": 1, "cs_duration": 1}
                    ),
                    variant_options={"init": "tokens"},
                    **common,
                )
                ops.append(Op("T2", spec, size["waiting_steps"]))
    return ops


def _explore_ops(kind: str, seed: int, size: dict) -> list[Op]:
    if kind == "owner":
        variant, n, backend = "naive", size["safety_n"], "array"
    else:
        variant, n, backend = "pusher", size["liveness_n"], "object"
    # Many trees per seed average out how much the state space, and with
    # it the throughput and memory, varies from one tree to another.
    rng = random.Random(seed)
    return [
        Op(kind, _explore_spec(variant, n, rng.randrange(2**31), backend))
        for _ in range(size["trees"][kind])
    ]


def make_ops(workload: str, seed: int, size: str) -> list[Op]:
    """The operations of one pass of ``workload``, drawn from ``seed``."""
    sz = SIZES[size]
    if workload == "sim-sweep":
        return _sweep_ops(seed, sz)
    if workload == "explore":
        return _explore_ops("owner", seed, sz) + _explore_ops("liveness", seed, sz)
    raise ValueError(f"unknown workload {workload!r}")


def _explore_verdict(res, liveness: bool) -> str:
    if res.violation is not None:
        return f"violation at depth {res.violation[0]}: {res.violation[1]}"
    if liveness and res.livelock is not None:
        return "livelock"
    if not res.exhausted:
        return "not exhausted"
    return "converged" if liveness else "safe"


def run_op(
    op: Op,
    workdir: Path,
    *,
    wrap_invariant: Callable | None = None,
    progress: Callable | None = None,
) -> OpResult:
    """Run one operation; explore operations get a freshly built engine.

    The spec's own invariant object goes to ``explore()`` unwrapped
    unless ``wrap_invariant`` is given (traced runs only).
    """
    if op.kind == "T1":
        t0 = time.perf_counter()
        res = run_convergence(spec=op.spec, max_steps=op.steps)
        wall = time.perf_counter() - t0
        outcome = {
            "converged": res.converged,
            "stabilization_step": res.stabilization_step,
            "resets": res.resets,
            "circulations": res.circulations,
            "final_census": list(res.final_census),
            "steps": res.steps,
        }
        return OpResult(outcome, wall, res.steps, res)
    if op.kind == "T2":
        t0 = time.perf_counter()
        res = run_waiting_time(spec=op.spec, measure_steps=op.steps)
        wall = time.perf_counter() - t0
        m = res.metrics
        outcome = {
            "max_waiting": res.max_waiting,
            "bound": res.bound,
            "satisfied": m.satisfied,
            "messages_per_cs": m.messages_per_cs,
            "steps": m.steps,
        }
        return OpResult(outcome, wall, m.steps, res)

    built = op.spec.build()
    invariant = built.invariant
    if wrap_invariant is not None:
        invariant = wrap_invariant(invariant)
    kwargs: dict = {"max_configurations": MAX_CONFIGURATIONS}
    scratch = None
    if op.kind == "liveness":
        kwargs.update(
            check="liveness", por=True, fairness="weak", max_depth=LIVENESS_DEPTH
        )
    else:
        kwargs["max_depth"] = SAFETY_DEPTH
    if op.kind == "owner":
        workdir.mkdir(parents=True, exist_ok=True)
        scratch = Path(tempfile.mkdtemp(prefix="owner-", dir=workdir))
        kwargs.update(
            workers=OWNER_WORKERS,
            mem_budget=OWNER_MEM_BUDGET,
            spill_dir=str(scratch / "spill"),
            checkpoint_dir=str(scratch / "checkpoint"),
            checkpoint_every=OWNER_CHECKPOINT_EVERY,
            spec=op.spec,
            progress=progress,
        )
    try:
        t0 = time.perf_counter()
        res = explore(built.engine, invariant, **kwargs)
        wall = time.perf_counter() - t0
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    outcome = {
        "configurations": res.configurations,
        "transitions": res.transitions,
        "exhausted": res.exhausted,
        "verdict": _explore_verdict(res, op.kind == "liveness"),
    }
    return OpResult(outcome, wall, res.configurations, res)


def claim_errors(op: Op, outcome: dict) -> list[str]:
    """Where an outcome breaks the paper's claims, which hold on any seed.

    Exploration must close the reachable set with the invariant intact
    (and, for liveness, no fair starving cycle); a convergence run must
    end in the legitimate population (l, 1, 1); a waiting-time run must
    serve requests, and none may wait beyond Theorem 2's bound.
    """
    if op.kind in EXPLORE_KINDS:
        want = "converged" if op.kind == "liveness" else "safe"
        if outcome["verdict"] != want:
            return [f"verdict: got {outcome['verdict']!r}, expected {want!r}"]
        return []
    if op.kind == "T1":
        errors = []
        if not outcome["converged"]:
            errors.append("converged: got False, expected True")
        if outcome["final_census"] != [op.spec.l, 1, 1]:
            errors.append(
                f"final_census: got {outcome['final_census']}, "
                f"expected {[op.spec.l, 1, 1]}"
            )
        return errors
    errors = []
    if not outcome["satisfied"]:
        errors.append(f"satisfied: got {outcome['satisfied']}, expected > 0")
    mw = outcome["max_waiting"]
    if mw is None:
        errors.append("max_waiting: got None, expected a completed wait")
    elif mw > outcome["bound"]:
        errors.append(f"max_waiting: got {mw}, above the bound {outcome['bound']}")
    return errors


def diff_outcome(got: dict, want: dict, what: str) -> list[str]:
    """One message per field where ``got`` differs from ``want``."""
    return [
        f"{key}: got {got.get(key)!r}, {what} {want[key]!r}"
        for key in want
        if got.get(key) != want[key]
    ]


def serial_reference(ops: list[Op], indices: list[int], workdir: Path) -> dict:
    """The serial explorer's result for each owner-computes ``ops[i]``."""
    return {i: run_op(replace(ops[i], kind="serial"), workdir) for i in indices}
