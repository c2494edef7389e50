"""Shared plumbing for the reproduction benchmarks.

Every benchmark regenerates one of the paper's tables or figures and
writes its rendered output to ``benchmarks/results/``.  Durations scale
with the ``REPRO_BENCH_SCALE`` environment variable (default 1.0); the
reported quantities are normalized rates and fractions, so the
comparison against the paper is scale-free.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Dict

import pytest

from repro.telemetry import TelemetrySession

#: Directory where each benchmark drops its rendered table.
RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Repo-root perf-trajectory artifact: bench name -> wall/sim-event rates.
BENCH_TELEMETRY_PATH = (
    pathlib.Path(__file__).parent.parent / "BENCH_telemetry.json"
)

#: Per-session accumulator for :data:`BENCH_TELEMETRY_PATH`.
_BENCH_TELEMETRY: Dict[str, Dict[str, float]] = {}


def bench_scale() -> float:
    """Duration multiplier from the environment."""
    try:
        return max(0.05, float(os.environ.get("REPRO_BENCH_SCALE", "1.0")))
    except ValueError:
        return 1.0


def scaled_ps(base_ps: int) -> int:
    """Scale a base duration by the bench scale."""
    return int(base_ps * bench_scale())


def record_result(name: str, text: str) -> None:
    """Print a rendered table and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


@pytest.fixture
def results():
    """The record_result helper as a fixture."""
    return record_result


@pytest.fixture(autouse=True)
def _bench_telemetry(request):
    """Wrap every benchmark in a telemetry session; collect rates.

    The session's registry receives the kernel's batch accounting
    (``sim.events_fired``) from the instrumented simulator, so each
    bench contributes one ``{wall_s, sim_events, events_per_s}`` row to
    the repo-root ``BENCH_telemetry.json`` perf trajectory.  Telemetry
    observes only — bench results and digests are unchanged.
    """
    session = TelemetrySession(label=request.node.name)
    with session:
        yield
    name = request.node.name
    if name.startswith("test_"):
        name = name[len("test_"):]
    wall_s = session.wall_s or 0.0
    sim_events = int(session.registry.value("sim.events_fired"))
    _BENCH_TELEMETRY[name] = {
        "wall_s": round(wall_s, 6),
        "sim_events": sim_events,
        "events_per_s": round(sim_events / wall_s, 1) if wall_s else 0.0,
    }


def pytest_sessionfinish(session, exitstatus):
    """Merge this session's rows into the perf trajectory.

    Rows from benches that did not run this session are kept, so
    running one benchmark file refreshes its own rows only.
    """
    if not _BENCH_TELEMETRY:
        return
    benches: Dict[str, Dict[str, float]] = {}
    if BENCH_TELEMETRY_PATH.is_file():
        previous = json.loads(BENCH_TELEMETRY_PATH.read_text())
        benches.update(previous.get("benches", {}))
    benches.update(_BENCH_TELEMETRY)
    document = {
        "generated_by": "benchmarks/conftest.py",
        "schema": "bench name -> {wall_s, sim_events, events_per_s}",
        "bench_scale": bench_scale(),
        "benches": dict(sorted(benches.items())),
    }
    BENCH_TELEMETRY_PATH.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n"
    )
