"""Benchmark-suite helpers: experiment tables printed past pytest capture."""

import json
import os
from pathlib import Path

import pytest

#: repository root — the committed BENCH_*.json artifacts live here
REPO_ROOT = Path(__file__).resolve().parent.parent


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


@pytest.fixture
def report(capsys):
    """Print an experiment table so it survives pytest's capture.

    Usage: ``report(title, headers, rows)`` — also returns the formatted
    text so callers can assert on it.
    """

    def _report(title, headers, rows):
        widths = [
            max(len(str(h)), *(len(_fmt(r[i])) for r in rows)) if rows else len(str(h))
            for i, h in enumerate(headers)
        ]
        lines = ["", "=" * 72, title, "=" * 72]
        lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for r in rows:
            lines.append("  ".join(_fmt(v).ljust(w) for v, w in zip(r, widths)))
        text = "\n".join(lines)
        with capsys.disabled():
            print(text)
        return text

    return _report


@pytest.fixture
def bench_baseline():
    """Load a committed ``BENCH_*.json`` artifact from the repo root.

    Usage: ``bench_baseline("BENCH_explore.json")`` — returns the parsed
    mapping.  A fresh clone, a CI artifact-regen run, or a corrupted
    checkout may not have a readable artifact; those are not benchmark
    regressions, so the requesting test is *skipped* with a message
    saying how to regenerate, never failed.
    """

    def _load(name):
        path = REPO_ROOT / name
        if not path.exists():
            pytest.skip(
                f"committed baseline {name} not found at {path}; "
                f"regenerate it with `python -m repro bench` or by "
                f"running the bench suite from the repo root"
            )
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            pytest.skip(
                f"committed baseline {name} is unreadable ({exc}); "
                f"regenerate it with `python -m repro bench`"
            )

    return _load


@pytest.fixture(scope="session")
def bench_out(tmp_path_factory):
    """Where a benchmark writes its ``BENCH_<kind>.json`` artifact.

    Usage: ``bench_out("explore")`` — returns ``$BENCH_EXPLORE_OUT``
    when set, else a path in one session-wide temporary directory, so a
    plain test run never rewrites the committed artifacts while the
    tests that fold extra blocks into an artifact written earlier in
    the session still find it.
    """
    tmp = tmp_path_factory.mktemp("bench")

    def _path(kind):
        return os.environ.get(
            f"BENCH_{kind.upper()}_OUT", str(tmp / f"BENCH_{kind}.json")
        )

    return _path
