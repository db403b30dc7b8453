"""Parallel campaign runner: serial-identical merges, progress, failures.

The contract under test is the runner's hard guarantee: for any worker
count, ``run_sweep``/``fuzz`` with ``workers=N`` produce results
**byte-identical** to the serial run — same tables, same
counterexamples — across topologies and protocol variants.  The same
holds for ``explore(workers=N)`` (owner-computes) on full runs; its
early stops follow the owner contract instead: level-granular counts,
identical for every worker count, and the serial minimal-depth
violation.
"""

import numpy as np
import pytest

from repro import KLParams, RandomScheduler, SaturatedWorkload
from repro.analysis import (
    CampaignError,
    ShardProgress,
    SweepCell,
    explore,
    fuzz,
    run_sweep,
)
from repro.analysis.parallel import (
    _shard_ranges,
    fork_available,
    parallel_map,
)
from repro.analysis.invariants import safety_ok
from repro.core.naive import build_naive_engine
from repro.core.priority import build_priority_engine
from repro.core.pusher import build_pusher_engine
from repro.topology import paper_example_tree, path_tree, star_tree

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="parallel campaigns need the fork start method"
)

BUILDERS = {
    "naive": build_naive_engine,
    "pusher": build_pusher_engine,
    "priority": build_priority_engine,
}

TOPOLOGIES = {
    "path": lambda n: path_tree(n),
    "star": lambda n: star_tree(n),
    "paper": lambda n: paper_example_tree(),  # fixed 8-process example
}


def small_engine(topology: str, variant: str, *, n=3, k=1, l=1, cs=0):
    """A toy instance in the exhaustive-exploration regime."""
    tree = TOPOLOGIES[topology](n)
    params = KLParams(k=k, l=l, n=tree.n)
    apps = [SaturatedWorkload(need=1, cs_duration=cs) for _ in range(tree.n)]
    return BUILDERS[variant](tree, params, apps), params


def mid_engine(topology: str, variant: str, *, n=8, k=2, l=3):
    """A fuzz-regime instance (too big to explore exhaustively)."""
    tree = TOPOLOGIES[topology](n)
    params = KLParams(k=k, l=l, n=tree.n)
    apps = [
        SaturatedWorkload(need=1 + p % params.k, cs_duration=2)
        for p in range(tree.n)
    ]
    return BUILDERS[variant](tree, params, apps), params


def fuzz_fields(r):
    return (r.walks, r.depth, r.seed, r.steps_total, r.walk_lengths,
            r.violation, r.schedule)


def explore_fields(r):
    return (r.configurations, r.transitions, r.exhausted, r.violation,
            r.frontier_sizes)


def _cs_runner(seed, variant, tree, params, steps):
    """Sweep runner: CS throughput of a variant under a seeded scheduler."""
    apps = [
        SaturatedWorkload(need=1 + p % params.k, cs_duration=2)
        for p in range(tree.n)
    ]
    eng = BUILDERS[variant](
        tree, params, apps, RandomScheduler(tree.n, seed=seed)
    )
    eng.run(steps)
    return {"cs": float(eng.total_cs_entries),
            "msgs": float(sum(eng.sent_by_type.values()))}


class TestShardRanges:
    def test_concatenates_to_range(self):
        for total in (0, 1, 5, 17, 64):
            for shards in (1, 2, 3, 7, 100):
                ranges = _shard_ranges(total, shards)
                flat = [i for lo, hi in ranges for i in range(lo, hi)]
                assert flat == list(range(total))

    def test_balanced_within_one(self):
        sizes = [hi - lo for lo, hi in _shard_ranges(17, 4)]
        assert max(sizes) - min(sizes) <= 1 and sum(sizes) == 17


class TestFuzzDeterminism:
    @pytest.mark.parametrize("topology", ["paper", "star"])
    @pytest.mark.parametrize("variant", ["naive", "priority"])
    def test_clean_campaign_identical(self, topology, variant):
        eng, params = mid_engine(topology, variant)

        def inv(e):
            return safety_ok(e, params) or "safety violated"

        serial = fuzz(eng, inv, walks=8, depth=50, seed=7)
        for workers in (2, 4):
            par = fuzz(eng, inv, walks=8, depth=50, seed=7, workers=workers)
            assert fuzz_fields(par) == fuzz_fields(serial)
        assert serial.ok and serial.steps_total == 8 * 50

    @pytest.mark.parametrize("topology", ["paper", "path"])
    @pytest.mark.parametrize("variant", ["priority", "pusher"])
    def test_counterexample_identical(self, topology, variant):
        """A genuinely-false invariant yields the same minimal
        counterexample (walk, step, schedule) at any worker count."""
        eng, params = mid_engine(topology, variant)
        def inv(e):
            return e.total_cs_entries == 0 or "a process entered its CS"

        serial = fuzz(eng, inv, walks=6, depth=300, seed=0)
        assert not serial.ok
        for workers in (2, 4):
            par = fuzz(eng, inv, walks=6, depth=300, seed=0, workers=workers)
            assert fuzz_fields(par) == fuzz_fields(serial)

    def test_initial_violation_short_circuits(self):
        eng, params = mid_engine("paper", "priority")
        res = fuzz(eng, lambda e: "bad from the start", walks=4, depth=10,
                   seed=0, workers=4)
        assert res.violation == (0, 0, "bad from the start")
        assert res.schedule == [] and res.steps_total == 0

    def test_input_engine_never_mutated(self):
        eng, params = mid_engine("paper", "priority")
        before = eng.save_state()
        fuzz(eng, lambda e: True, walks=4, depth=30, seed=1, workers=2)
        after = eng.save_state()
        assert before.procs == after.procs and before.chans == after.chans


class TestExploreDeterminism:
    """``explore(workers=N)`` against the serial explorer."""

    @pytest.mark.parametrize("topology", ["path", "star"])
    @pytest.mark.parametrize("variant", ["naive", "priority"])
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_full_runs_identical(self, topology, variant, workers):
        eng, params = small_engine(topology, variant)

        def inv(e):
            return safety_ok(e, params)

        serial = explore(eng, inv, max_depth=5)
        assert serial.configurations > 1
        par = explore(eng, inv, max_depth=5, workers=workers)
        assert explore_fields(par) == explore_fields(serial)

    def test_levels_report_progress(self):
        """--progress under workers > 1 reports one owner ``level``
        event per explored depth."""
        eng, params = small_engine("path", "naive")
        events = []
        res = explore(eng, lambda e: True, max_depth=4, workers=2,
                      progress=events.append)
        assert events and all(ev.campaign == "explore-owner" for ev in events)
        levels = [ev.note for ev in events if ev.note.startswith("level: ")]
        assert [n.split("depth ")[1].split(":")[0] for n in levels] == [
            str(d) for d in range(1, len(res.frontier_sizes) + 1)
        ]

    def test_single_worker_runs_serial(self):
        """workers=1 without an owner option stays the serial search:
        no owner progress events."""
        eng, params = small_engine("star", "naive")
        events = []
        res = explore(eng, lambda e: True, max_depth=5, workers=1,
                      progress=events.append)
        assert not any(ev.campaign == "explore-owner" for ev in events)
        assert explore_fields(res) == explore_fields(
            explore(eng, lambda e: True, max_depth=5))

    @staticmethod
    def owner_runs(eng, inv, **kw):
        """Owner-computes at W = 1, 2, 3 (``partitioner`` routes W = 1)."""
        return [
            explore(eng, inv, workers=w, partitioner="topbits", **kw)
            for w in (1, 2, 3)
        ]

    def test_violation_early_stop(self):
        eng, params = small_engine("path", "naive")

        def inv(e):
            return e.total_cs_entries == 0 or "entered CS"

        serial = explore(eng, inv, max_depth=6)
        assert serial.violation == (2, "entered CS")
        runs = self.owner_runs(eng, inv, max_depth=6)
        assert all(r.violation == serial.violation for r in runs)
        # level-granular: the whole violating level is counted, where
        # the serial explorer stops at 11 configurations, 14 transitions
        assert all(explore_fields(r) == explore_fields(runs[0]) for r in runs)
        assert (runs[0].configurations, runs[0].transitions,
                runs[0].frontier_sizes) == (12, 20, [4, 7])

    @pytest.mark.parametrize("topology", ["path", "star"])
    @pytest.mark.parametrize("variant", ["naive", "priority"])
    def test_violation_early_stop_any_instance(self, topology, variant):
        """The early-stop contract on every small instance: the serial
        minimal-depth violation, counts independent of the worker count
        and never below the serial explorer's mid-level stop."""
        eng, params = small_engine(topology, variant)

        def inv(e):
            return e.total_cs_entries == 0 or "entered CS"

        serial = explore(eng, inv, max_depth=6)
        assert not serial.ok
        runs = self.owner_runs(eng, inv, max_depth=6)
        assert all(r.violation == serial.violation for r in runs)
        assert all(explore_fields(r) == explore_fields(runs[0]) for r in runs)
        assert runs[0].configurations >= serial.configurations
        assert runs[0].transitions >= serial.transitions
        assert len(runs[0].frontier_sizes) == serial.violation[0]

    def test_configuration_cap_early_stop(self):
        eng, params = small_engine("star", "naive")

        def inv(e):
            return True

        serial = explore(eng, inv, max_depth=6, max_configurations=20)
        assert serial.configurations == 20
        runs = self.owner_runs(eng, inv, max_depth=6, max_configurations=20)
        assert all(explore_fields(r) == explore_fields(runs[0]) for r in runs)
        # the cap lands on a level boundary here, so only the
        # transitions show the finished level (serial: 44)
        assert (runs[0].configurations, runs[0].transitions,
                runs[0].frontier_sizes, runs[0].exhausted) == (
            20, 48, [4, 7, 8], False)

    def test_liveness_rejects_workers(self):
        eng, params = small_engine("path", "naive")
        with pytest.raises(ValueError, match="liveness"):
            explore(eng, lambda e: True, check="liveness", workers=4)

    @pytest.mark.parametrize("kw, match", [
        ({"digest": "tuple"}, "owner-computes"),
        ({"method": "snapshot"}, "owner-computes"),
        ({"method": "fork"}, "owner-computes"),
        ({"strategy": "dfs"}, "owner-computes"),
        ({"digest": "sha0"}, "unknown digest"),
    ])
    def test_owner_unsupported_combinations_rejected(self, kw, match):
        eng, params = small_engine("path", "naive")
        with pytest.raises(ValueError, match=match):
            explore(eng, lambda e: True, workers=2, **kw)

    def test_worker_exception_surfaces_as_campaign_error(self):
        eng, params = small_engine("star", "naive")

        def inv(e):
            if e.now > 2:
                raise RuntimeError("invariant exploded")
            return True

        with pytest.raises(CampaignError) as exc:
            explore(eng, inv, max_depth=6, workers=2)
        failures = exc.value.failures
        assert failures and "invariant exploded" in failures[0].error


class TestSweepDeterminism:
    @pytest.mark.parametrize("topology", ["path", "star"])
    def test_tables_identical_across_variants(self, topology):
        """One sweep over two protocol variants x two sizes: the value
        array is byte-identical at any worker count."""
        cells = []
        for variant in ("naive", "priority"):
            for n in (4, 6):
                tree = TOPOLOGIES[topology](n)
                params = KLParams(k=2, l=3, n=tree.n)
                cells.append(SweepCell(
                    f"{variant}-{topology}{n}",
                    {"variant": variant, "tree": tree, "params": params,
                     "steps": 800},
                ))
        serial = run_sweep(_cs_runner, cells, seeds=range(3))
        for workers in (2, 4):
            par = run_sweep(_cs_runner, cells, seeds=range(3), workers=workers)
            assert par.labels == serial.labels
            assert par.metrics == serial.metrics
            assert par.values.tobytes() == serial.values.tobytes()

    def test_none_cells_and_metric_inference(self):
        """None results (missing cells) and metric inference from the
        first non-None result merge identically."""

        def runner(seed, idx):
            if idx == 0:
                return None  # entire first cell missing
            return {"a": idx * 10 + seed, "b": seed}

        cells = [SweepCell(f"c{i}", {"idx": i}) for i in range(4)]
        serial = run_sweep(runner, cells, seeds=range(2))
        par = run_sweep(runner, cells, seeds=range(2), workers=3)
        assert par.metrics == serial.metrics == ["a", "b"]
        assert par.values.tobytes() == serial.values.tobytes()
        assert np.isnan(par.values[0]).all()

    def test_all_none_raises_in_both_modes(self):
        cells = [SweepCell("c", {})]
        with pytest.raises(ValueError, match="no metrics"):
            run_sweep(lambda seed: None, cells, seeds=[0])
        with pytest.raises(ValueError, match="no metrics"):
            run_sweep(lambda seed: None, cells, seeds=[0], workers=2)


class TestProgressAndFailures:
    def test_progress_events_cover_all_shards(self):
        events: list[ShardProgress] = []
        eng, params = mid_engine("paper", "priority")
        fuzz(eng, lambda e: True, walks=8, depth=20, seed=0, workers=2,
             progress=events.append)
        assert events, "expected progress events"
        assert all(ev.campaign == "fuzz" for ev in events)
        assert sorted(ev.shard for ev in events) == list(range(events[0].shards))
        assert events[-1].done == events[-1].total == len(events)

    def test_worker_exception_surfaces_as_campaign_error(self):
        def runner(seed, boom):
            if seed == 1:
                raise RuntimeError("cell exploded")
            return {"m": 1.0}

        cells = [SweepCell("c", {"boom": True})]
        with pytest.raises(CampaignError) as exc:
            run_sweep(runner, cells, seeds=range(4), workers=2)
        failures = exc.value.failures
        assert failures and "cell exploded" in failures[0].error
        assert "RuntimeError" in failures[0].traceback

    def test_parallel_map_generic_roundtrip(self):
        out = parallel_map(
            "demo",
            _double_shard,
            10,
            [(i,) for i in range(5)],
            workers=3,
        )
        assert out == [0, 10, 20, 30, 40]


def _double_shard(payload, i):
    return payload * i
