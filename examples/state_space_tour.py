#!/usr/bin/env python
"""State-space turbo tour: the same verification, an order deeper.

The exhaustive explorer's hot loop was rebuilt around two mechanisms
(see "The state-space engine" in docs/ARCHITECTURE.md):

* **packed digests** — a fixed 16-byte blake2b key per configuration
  instead of a nested tuple in the seen-set (~50-70x less memory);
* **delta snapshots** — restore/step/snapshot in O(degree) instead of
  O(n), with child snapshots structurally sharing their parent's slots.

Multi-core exploration (`workers=N`) is the owner-computes explorer,
covered in "Distributed exploration" in docs/ARCHITECTURE.md.

This tour verifies safety on instances that the retained reference
implementation (tuple digests + full snapshots, `method="snapshot"`,
`digest="tuple"`) only crawls through — and demonstrates that both
paths still visit the *identical* state space, which is the whole
point of keeping the reference around.

Run:  python examples/state_space_tour.py
"""

import time

from repro import KLParams, safety_ok, take_census
from repro.analysis.explore import explore
from repro.apps.workloads import SaturatedWorkload
from repro.core.priority import build_priority_engine
from repro.core.selfstab import build_selfstab_engine
from repro.topology import path_tree


def timed(label, fn):
    t0 = time.perf_counter()
    res = fn()
    elapsed = time.perf_counter() - t0
    print(f"  {label:<34s} {res.configurations:>7} configs  "
          f"{elapsed:>7.2f}s  {res.states_per_sec:>10,.0f} states/s  "
          f"seen ~{res.peak_seen_bytes / 1024:,.0f} KiB")
    return res


def turbo_vs_reference() -> None:
    """Same space, two engines: the reference crawls, the turbo flies."""
    print("=" * 72)
    print("1. Turbo vs. retained reference — identical space, one scale apart")
    print("=" * 72)
    n = 6
    tree = path_tree(n)
    params = KLParams(k=2, l=2, n=n)
    apps = [SaturatedWorkload(need=1, cs_duration=0) for _ in range(n)]
    eng = build_priority_engine(tree, params, apps)
    for p in range(n):
        eng.step_pid(p, -1)

    def invariant(e):
        if not safety_ok(e, params):
            return "SAFETY VIOLATION"
        if take_census(e).res != params.l:
            return "TOKEN MINTED OR LOST"
        return True

    kw = dict(max_depth=10, max_configurations=4_000)
    ref = timed(
        "reference (tuple + full snapshot)",
        lambda: explore(eng, invariant, method="snapshot", digest="tuple", **kw),
    )
    turbo = timed(
        "turbo (packed + delta, default)",
        lambda: explore(eng, invariant, **kw),
    )
    assert (turbo.configurations, turbo.transitions, turbo.violation) == (
        ref.configurations, ref.transitions, ref.violation
    ), "the two paths must visit the identical state space"
    print(f"  -> identical space, "
          f"{ref.peak_seen_bytes / max(turbo.peak_seen_bytes, 1):.0f}x less "
          f"seen-set memory, every configuration safety-checked")


def previously_out_of_reach() -> None:
    """Depth and width the reference engine only crawls through.

    Self-stabilizing variant — the paper's full controller stack — at
    n=6 with every process saturated: ~20,000 transitions to depth 14.
    The reference implementation spends ~5x the wall-clock on restore
    and digest bookkeeping alone, and its nested-tuple seen-set grows
    ~50x faster — the turbo engine is what moves this regime from a
    one-off check into something a test suite can afford on every run,
    and what keeps far wider configuration caps inside memory.
    """
    print()
    print("=" * 72)
    print("2. Previously out of reach: selfstab n=6 saturated, depth 14")
    print("=" * 72)
    n = 6
    tree = path_tree(n)
    params = KLParams(k=2, l=3, n=n)
    apps = [SaturatedWorkload(need=1, cs_duration=0) for _ in range(n)]
    eng = build_selfstab_engine(tree, params, apps, init="tokens")
    for p in range(n):
        eng.step_pid(p, -1)

    def invariant(e):
        return safety_ok(e, params) or "SAFETY VIOLATION"

    res = timed(
        "selfstab n=6 saturated, depth 14",
        lambda: explore(eng, invariant, max_depth=14,
                        max_configurations=30_000),
    )
    print(f"  safety holds at every one of {res.configurations} reachable "
          f"configurations: {res.ok}")
    if res.exhausted:
        print("  state space CLOSED — verified for ALL schedules")


def dfs_deep_dive() -> None:
    """DFS: memory bounded by the path, depth far past any BFS slice."""
    print()
    print("=" * 72)
    print("3. DFS deep dive: depth 60, memory bounded by the open path")
    print("=" * 72)
    n = 5
    tree = path_tree(n)
    params = KLParams(k=2, l=2, n=n)
    apps = [SaturatedWorkload(need=1, cs_duration=0) for _ in range(n)]
    eng = build_priority_engine(tree, params, apps)
    for p in range(n):
        eng.step_pid(p, -1)

    def invariant(e):
        return safety_ok(e, params) or "SAFETY VIOLATION"

    res = timed(
        "priority n=5, dfs depth 60",
        lambda: explore(eng, invariant, strategy="dfs", max_depth=60,
                        max_configurations=10_000),
    )
    print(f"  dived {len(res.frontier_sizes)} levels deep, "
          f"all {res.configurations} configurations safe: {res.ok}")


def main() -> None:
    turbo_vs_reference()
    previously_out_of_reach()
    dfs_deep_dive()
    print()
    print("For multi-core exploration, pass workers=N (or --workers on the")
    print("CLI): owner-computes shards the seen-set across the workers;")
    print("counts equal serial's for searches that run to closure or the")
    print("depth bound.")


if __name__ == "__main__":
    main()
