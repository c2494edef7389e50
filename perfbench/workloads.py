"""The benchmark's workloads, each driven through the public ``repro.api``.

Every workload is a campaign a user would run: build a spec
(``table4_spec`` or ``compile_scenario``), wrap it with
``Campaign.from_spec``, run it with a ``SerialExecutor`` or a
``FabricExecutor``, and, when artifacts are on, reach a verdict with
``analyze_artifacts``.  See ``perfbench/README.md`` for why each one was
chosen and which layers it stresses.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import resource
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from perfbench import BENCHMARK
from repro.api import (
    Campaign,
    FabricExecutor,
    SerialExecutor,
    SweepSpec,
    analyze_artifacts,
    compile_scenario,
    load_scenario,
    table4_spec,
)

#: Table 4 runs at the paper's campaign shape shrunk 40-fold in time:
#: 0.5 ms experiments with a 37.5 us on / 212.5 us off duty cycle, where
#: ``table4_spec``'s defaults are 20 ms with 1.5 ms on / 8.5 ms off.  The
#: swap stays armed 15% of the time over the same two duty periods, and
#: the per-layer self-time shares match a full-length campaign's (see
#: ``perfbench/README.md``), which takes about 90 s on a 2-vCPU VM.
TABLE4_SHRINK = 40
TABLE4_DURATION_PS = 20_000_000_000 // TABLE4_SHRINK
TABLE4_ON_PS = 1_500_000_000 // TABLE4_SHRINK
TABLE4_OFF_PS = 8_500_000_000 // TABLE4_SHRINK

#: The ``seu-sweep`` library scenario, widened from 4 to 16 sweep points
#: so the fabric's per-item costs (lease, poll, store, merge) repeat.
SEU_POINTS = 16
SEU_STEP_US = 250.0
FABRIC_WORKERS = 2

#: Host-interface counters that count a dropped or damaged frame.
RX_DROP_COUNTERS = (
    "crc_errors", "consume_errors", "misaddressed_drops",
    "unknown_type_drops", "truncated_frames", "no_route_drops",
    "tx_timeout_drops", "tx_queue_rejects", "oversize_frames",
    "undecodable_controls",
)


def rx_drops(result: Any) -> int:
    """Frames the host interfaces dropped in one experiment."""
    return sum(
        stats.get(name, 0)
        for stats in result.host_stats.values()
        for name in RX_DROP_COUNTERS
    )


def drops(result: Any) -> int:
    """Every drop in one experiment: interfaces, switches, UDP checksum."""
    switch = sum(
        stats.get("symbols_dropped", 0)
        for stats in result.switch_stats.values()
    )
    return rx_drops(result) + switch + result.checksum_drops


def outputs(table: Any, results: List[Any],
            report: Optional[Any]) -> Dict[str, Any]:
    """What the output check compares: the rendered table digest, the
    per-row simulated statistics and, when analysed, the report digest."""
    return {
        "table_sha256": hashlib.sha256(table.render().encode()).hexdigest(),
        "rows": [
            [r.name, r.messages_sent, r.messages_received, r.injections,
             drops(r)]
            for r in results
        ],
        "insight_digest": None if report is None else report.digest(),
    }


def _table4(seed: int, scale: float) -> Any:
    return table4_spec(
        duration_ps=max(1, round(TABLE4_DURATION_PS * scale)),
        duty_on_ps=max(1, round(TABLE4_ON_PS * scale)),
        duty_off_ps=max(1, round(TABLE4_OFF_PS * scale)), seed=seed)


def _seu_doc(seed: int, scale: float) -> Any:
    doc = load_scenario("seu-sweep")
    values = tuple(SEU_STEP_US * (i + 1) for i in range(SEU_POINTS))
    experiment = dataclasses.replace(
        doc.experiments[0],
        sweep=SweepSpec(field="mean_interval_us", values=values),
    )
    return dataclasses.replace(
        doc, seed=seed, experiments=(experiment,),
        duration_ms=doc.duration_ms * scale, drain_ms=doc.drain_ms * scale,
    )


@dataclass(frozen=True)
class Workload:
    """One named campaign: how to build its spec and how to run it."""

    name: str
    executor: str
    workers: int
    artifacts: bool
    #: ``(seed, scale) -> scenario document`` when the spec comes from
    #: the scenario compiler, else ``None``.
    scenario: Optional[Callable[[int, float], Any]] = None

    @property
    def why(self) -> str:
        """Why the workload was chosen, as ``BENCHMARK.json`` states it."""
        return next(w["why"] for w in BENCHMARK["workloads"]
                    if w["name"] == self.name)

    def build_spec(self, seed: int, scale: float) -> Any:
        if self.scenario is not None:
            return compile_scenario(self.scenario(seed, scale))
        return _table4(seed, scale)

    def provenance(self) -> Dict[str, Any]:
        return {"workload": self.name, "executor": self.executor,
                "workers": self.workers, "artifacts": self.artifacts}

    def make_executor(self, artifacts_dir: Optional[Path],
                      executor: Optional[str] = None) -> Any:
        kind = executor or self.executor
        if kind == "fabric":
            return FabricExecutor(workers=self.workers,
                                  artifacts_dir=artifacts_dir)
        return SerialExecutor(artifacts_dir=artifacts_dir)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("table4-bare", executor="serial", workers=1,
                 artifacts=False),
        Workload("table4-observed", executor="serial", workers=1,
                 artifacts=True),
        Workload("seu-fabric", executor="fabric", workers=FABRIC_WORKERS,
                 artifacts=True, scenario=_seu_doc),
    )
}
if list(WORKLOADS) != [w["name"] for w in BENCHMARK["workloads"]]:
    raise RuntimeError("BENCHMARK.json and perfbench/workloads.py name "
                       "different workloads")


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime)


def tree_bytes(root: Path, suffix: str = "") -> int:
    """Bytes of the files under ``root`` whose name ends in ``suffix``."""
    return sum(
        (Path(base) / name).stat().st_size
        for base, _dirs, files in os.walk(root) for name in files
        if name.endswith(suffix)
    )


@dataclass
class Rep:
    """One measured campaign run and what it produced."""

    campaign_wall_s: float
    time_to_verdict_s: float
    cpu_s: float
    artifact_bytes: int
    capture_bytes: int
    outputs: Dict[str, Any]
    #: Summed over the campaign's experiments: messages sent and
    #: received, injections, host-interface drops.
    totals: Dict[str, int]
    #: The executor's merge timings and re-issue/retry counts.
    runtime: Dict[str, float]
    analyze_s: float = 0.0


def run_once(workload: Workload, spec: Any, workdir: Path,
             tracer: Optional[Any] = None, artifacts: Optional[bool] = None,
             executor: Optional[str] = None) -> Rep:
    """Run ``spec`` once the way ``workload`` runs it; time it and collect
    its outputs.  ``artifacts``/``executor`` override the workload's own
    settings (the traced run uses that for its serial split)."""
    observe = workload.artifacts if artifacts is None else artifacts
    artifacts_dir = workdir / "artifacts" if observe else None
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    runner = workload.make_executor(artifacts_dir, executor)
    campaign = Campaign.from_spec(spec)
    cpu0 = _cpu_s()
    t0 = perf_counter()
    if tracer is None:
        table = campaign.run(runner)
    else:
        with tracer.span("campaign"):
            table = campaign.run(runner)
    t1 = perf_counter()
    report = None
    analyze_s = 0.0
    if artifacts_dir is not None:
        if tracer is None:
            report = analyze_artifacts(artifacts_dir)
        else:
            with tracer.span("insight"):
                report = analyze_artifacts(artifacts_dir)
        analyze_s = perf_counter() - t1
    t2 = perf_counter()
    cpu = _cpu_s() - cpu0
    size = capture = 0
    if artifacts_dir is not None:
        size = tree_bytes(artifacts_dir)
        capture = tree_bytes(artifacts_dir, ".rcap")
    shutil.rmtree(workdir)
    # Keep numbers only: results hold their test beds (``extras``), and
    # keeping them across runs would grow the peak RSS being measured.
    results = campaign.results
    return Rep(
        campaign_wall_s=t1 - t0,
        time_to_verdict_s=t2 - t0,
        cpu_s=cpu,
        artifact_bytes=size,
        capture_bytes=capture,
        outputs=outputs(table, results, report),
        totals={
            "sent": sum(r.messages_sent for r in results),
            "received": sum(r.messages_received for r in results),
            "injections": sum(r.injections for r in results),
            "rx_drops": sum(rx_drops(r) for r in results),
        },
        runtime={
            **getattr(runner, "timings", {}),
            "reissues": sum(getattr(runner, "reissues", {}).values()),
            "retries": sum(runner.retries.values()),
        },
        analyze_s=analyze_s,
    )
