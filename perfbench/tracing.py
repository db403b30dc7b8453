"""Span recording around the program's public layer boundaries.

Traced runs only.  :class:`Tracer` replaces a few public functions with
wrappers that record a span — name, start, end, parent — and restores
them on exit; the spans stay in memory.  A layer's self time is its
spans' duration minus the part their child spans cover.

The explore invariant runs hundreds of thousands of times per search,
partly in forked owner-computes workers, so it is not spanned: it is
tallied (calls, seconds) in a :class:`SharedTally`, which forked
children update in place.  The same tally keeps, per owner-computes
worker, the largest shard seen-set it reported and its own peak RSS.
"""

from __future__ import annotations

import fcntl
import json
import mmap
import os
import struct
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

import repro.analysis.distributed.owner as owner_mod
import repro.analysis.harness as harness_mod
from repro import ScenarioSpec
from repro.analysis.distributed.store import ShardStore
from repro.sim.engine import Engine


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS count from its current RSS."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def _status_kb(field: str) -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field):
                return int(line.split()[1])
    raise RuntimeError(f"no {field} in /proc/self/status")


def rss_kb() -> int:
    """This process's resident set size, in KiB."""
    return _status_kb("VmRSS:")


def peak_rss_kb() -> int:
    """This process's peak RSS since its start, fork or last reset, in KiB."""
    return _status_kb("VmHWM:")


class Tracer:
    """In-memory span recorder for wrapped functions."""

    def __init__(self) -> None:
        #: [name, start, end, parent index (-1 for a root span), amount]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str, amount: int) -> list:
        stack = self._stack
        span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, amount]
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, amount: Callable | None = None):
        """``fn`` with a span per call; ``amount(*args, **kwargs)`` counts
        the call's work units."""
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            span = open_(name, 0 if amount is None else amount(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                close(span)

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block (one benchmark operation)."""
        span = self._open(name, 0)
        try:
            yield
        finally:
            self._close(span)

    def patch(self, owner: object, attr: str, name: str, amount=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, amount))

    def install(self, tally: "SharedTally") -> None:
        """Span the layer boundaries the per-layer metrics are built from,
        and report owner shard sizes and peak RSS to ``tally``."""
        self.patch(ScenarioSpec, "build", "spec.build")
        self.patch(Engine, "run", "engine.run", lambda _self, steps: steps)
        self.patch(Engine, "run_until", "engine.run_until")
        # the sampling helpers under the names analysis.harness calls them
        for attr in ("population_correct", "safety_ok", "take_census"):
            self.patch(harness_mod, attr, "harness.sample")
        self.patch(harness_mod, "collect_metrics", "metrics.collect")
        self.patch(owner_mod, "write_manifest", "owner.write_manifest")
        # each owner worker reports its shard's size once per level
        original = ShardStore.mem_bytes
        self._patched.append((ShardStore, "mem_bytes", original))
        ShardStore.mem_bytes = tally.watch_shard(original)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summary(self, since: int = 0) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, summed amount."""
        out: dict[str, dict] = {}
        child_time = [0.0] * (len(self.spans) - since)
        for i in range(len(self.spans) - 1, since - 1, -1):
            name, start, end, parent, amount = self.spans[i]
            dur = end - start
            if parent >= since:
                child_time[parent - since] += dur
            row = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "amount": 0}
            )
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child_time[i - since]
            row["amount"] += amount
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        keys = ("name", "start", "end", "parent", "amount")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


class SharedTally:
    """Per-process figures summed or maxed over forked children.

    Each process has a slot: its RSS when it first updated the slot,
    calls and seconds of the tallied function, and, in owner-computes
    workers, the largest shard seen-set they reported and their peak
    RSS.  The slots live in a file mapped shared
    into this process and every child it forks.  Each process claims its
    own slot on its first update, under a ``lockf`` lock on that file.
    """

    SLOTS = 64
    #: calls, seconds, shard bytes, peak RSS (KiB), starting RSS (KiB)
    _SLOT = struct.Struct("qdqqq")
    _HEAD = struct.Struct("q")

    def __init__(self, path: Path) -> None:
        size = self._HEAD.size + self.SLOTS * self._SLOT.size
        path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(path, "w+b")
        self._file.truncate(size)
        self._buf = mmap.mmap(self._file.fileno(), size)
        self._pid = -1
        self._offset = 0

    def _claim(self) -> int:
        fcntl.lockf(self._file, fcntl.LOCK_EX)
        try:
            (used,) = self._HEAD.unpack_from(self._buf, 0)
            if used >= self.SLOTS:
                raise RuntimeError("SharedTally: out of process slots")
            self._HEAD.pack_into(self._buf, 0, used + 1)
        finally:
            fcntl.lockf(self._file, fcntl.LOCK_UN)
        self._pid = os.getpid()
        self._offset = self._HEAD.size + used * self._SLOT.size
        self._SLOT.pack_into(self._buf, self._offset, 0, 0.0, 0, 0, rss_kb())
        return self._offset

    def _slot(self) -> int:
        return self._offset if self._pid == os.getpid() else self._claim()

    def wrap(self, fn: Callable) -> Callable:
        """``fn``, counting its calls and seconds."""
        slot, buf, clock = self._SLOT, self._buf, time.perf_counter

        def tallied(*args):
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                off = self._slot()
                calls, secs, *rest = slot.unpack_from(buf, off)
                slot.pack_into(buf, off, calls + 1, secs + dt, *rest)

        return tallied

    def watch_shard(self, mem_bytes: Callable) -> Callable:
        """``ShardStore.mem_bytes``, keeping the largest result and the
        caller's peak RSS at that moment."""
        slot, buf = self._SLOT, self._buf

        def watched(store):
            nbytes = mem_bytes(store)
            off = self._slot()
            calls, secs, shard, peak, start = slot.unpack_from(buf, off)
            slot.pack_into(buf, off, calls, secs, max(shard, nbytes),
                           max(peak, peak_rss_kb()), start)
            return nbytes

        return watched

    def _rows(self):
        (used,) = self._HEAD.unpack_from(self._buf, 0)
        for i in range(used):
            off = self._HEAD.size + i * self._SLOT.size
            yield self._SLOT.unpack_from(self._buf, off)

    def totals(self) -> tuple[int, float]:
        """Calls and seconds of the tallied function, over all processes."""
        calls, secs = 0, 0.0
        for c, s, *_ in self._rows():
            calls += c
            secs += s
        return calls, secs

    def shards(self) -> list[tuple[int, int]]:
        """(largest shard bytes, RSS growth KiB) of each process that
        holds a shard: its peak RSS less its RSS when it claimed a slot."""
        return [(shard, peak - start)
                for _, _, shard, peak, start in self._rows() if peak]

    def reset(self) -> None:
        """Zero every slot (call only while no forked child is running)."""
        self._buf[:] = bytes(len(self._buf))
        self._pid = -1

    def close(self) -> None:
        self._buf.close()
        self._file.close()
