"""The repository benchmark: one workload per invocation, run from the
repository root::

    python3 perfbench/run.py --workload table4-bare --seed 0 --seconds 30 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` runs the workload untraced and traced in alternation and
reports the per-layer split, the tracing overhead and the coverage.
Every line but the last is for people; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The process exits 1
when any experiment failed or its output check failed.  See
``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if __name__ == "__main__":
    sys.path[0] = str(ROOT)

from perfbench import BENCHMARK  # noqa: E402

SRC = ROOT / "src"
#: Scratch space for artifacts, temp files and span dumps; inside the
#: checkout, ignored by git.
WORKDIR = ROOT / ".perfbench"

#: Set-up is measured this many times, each in a fresh interpreter.
SETUP_PROBES = 21
#: A measured run repeats the campaign until ``--seconds`` have passed,
#: but never fewer than this many times.
MIN_REPS = 3

END_TO_END_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

#: Sim layers whose self time is compared between an observed run and a
#: bare run of the same spec (the hook cost charged to that layer).
SIM_LAYERS = ("sim", "myrinet.switch", "myrinet.link", "myrinet.frames",
              "myrinet.interface", "core.device", "hostsim", "nftape")


def bootstrap() -> None:
    """Import ``repro`` from this checkout's ``src/`` or stop with exit 2.

    An installed copy elsewhere must not stand in for the tree under
    test, so the imported package's location is checked.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no repro package under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        sys.stderr.write(
            f"perfbench: repro imported from {repro.__file__}, not {SRC}\n")
        raise SystemExit(2)
    tmp = WORKDIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    import tempfile

    tempfile.tempdir = None


def source_digest() -> str:
    """Content digest of ``src/``: identifies the code without needing git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def provenance(workload: Any, seed: int, scale: float) -> Dict[str, Any]:
    return {
        **workload.provenance(),
        "cpu_count": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": source_digest(),
        "seed": seed,
        "scale": scale,
    }


class Checker:
    """Counts attempted and failed experiments across every run made."""

    def __init__(self, workload: str, seed: int, scale: float,
                 refs: Dict[str, Any]) -> None:
        from perfbench import reference

        self.expected = reference.expected_for(refs, workload, seed, scale)
        self.source = (
            f"recorded reference for seed {seed}" if self.expected
            else f"no recorded reference for seed {seed} at scale {scale}: "
                 "checking that every run repeats the first")
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def check(self, outputs: Dict[str, Any], expect_report: bool) -> None:
        from perfbench import reference

        rows = len(outputs["rows"])
        self.attempted += rows
        if self.expected is None:
            # The first run becomes the oracle for the rest; its report
            # digest is filled in by the first run that has one.
            self.expected = dict(outputs)
        elif expect_report and self.expected.get("insight_digest") is None:
            self.expected["insight_digest"] = outputs["insight_digest"]
        failed, reasons = reference.mismatches(
            self.expected, outputs, expect_report)
        self.failed += failed
        self.reasons.extend(reasons)

    def crashed(self, experiments: int) -> None:
        self.attempted += experiments
        self.failed += experiments


def probe_setup(workload: str, seed: int, scale: float) -> Dict[str, float]:
    """Time import + spec build + ``Campaign.from_spec`` in a fresh child."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
         repr(scale)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: Any, spec: Any, seed: int, scale: float,
            seconds: float, checker: Checker) -> Dict[str, Any]:
    """End-to-end metrics, tracing off; each timing is a median over runs."""
    from perfbench.workloads import run_once

    probes = []
    reps = []
    start = perf_counter()
    while len(reps) < MIN_REPS or perf_counter() < start + seconds:
        # Set-up probes are spread evenly over the measuring window, so
        # a slow spell on a shared host affects probes and runs alike.
        if perf_counter() >= start + seconds * len(probes) / SETUP_PROBES:
            probes.append(probe_setup(workload.name, seed, scale))
        rep = run_once(workload, spec, WORKDIR / f"run-{os.getpid()}")
        checker.check(rep.outputs, workload.artifacts)
        reps.append(rep)
    while len(probes) < SETUP_PROBES:
        probes.append(probe_setup(workload.name, seed, scale))
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "samples": {
            "setup_s": [p["setup_s"] for p in probes],
            "campaign_wall_s": [r.campaign_wall_s for r in reps],
            "time_to_verdict_s": [r.time_to_verdict_s for r in reps],
            "cpu_s": [r.cpu_s for r in reps],
            "artifact_bytes": [r.artifact_bytes for r in reps],
        },
        "peak_rss_mb": max(own, children) / 1024.0,
    }


def _layer(tracer: Any, name: str) -> Any:
    from perfbench.layers import LayerTotals

    return tracer.totals.get(name) or LayerTotals()


def layer_metrics(workload: Any, untraced: Any, traced: Any, tracer: Any,
                  split: Any, split_tracer: Any, bare_tracer: Optional[Any],
                  compile_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced round.

    ``split``/``split_tracer`` is the run the simulation layers are read
    from: the traced run itself for serial workloads, a serial traced
    run of the same spec for the fabric (whose workers are separate
    processes).  ``bare_tracer`` traced the same spec with artifacts off.
    """
    def get(name: str) -> Any:
        return _layer(split_tracer, name)

    own = split_tracer.self_s

    switch = get("myrinet.switch")
    nftape = get("nftape")
    totals = split.totals
    runtime = untraced.runtime
    if "merge_busy_s" in runtime:
        busy = runtime["merge_busy_s"]
        overlap = runtime["merge_overlap_s"]
    else:  # serial: the merge runs after the last experiment
        busy, overlap = _layer(tracer, "runtime").total_s, 0.0
    metrics = {
        "sim.events": get("sim").work,
        "sim.self_s": own("sim"),
        "myrinet.switch.bursts": switch.calls,
        "myrinet.switch.symbols": switch.work,
        "myrinet.switch.self_s": own("myrinet.switch"),
        "myrinet.switch.ns_per_symbol": (
            1e9 * own("myrinet.switch") / switch.work if switch.work
            else 0.0),
        "myrinet.link.bursts": get("myrinet.link").calls,
        "myrinet.link.self_s": own("myrinet.link"),
        "myrinet.frames.symbols": get("myrinet.frames").work,
        "myrinet.frames.self_s": own("myrinet.frames"),
        "myrinet.interface.self_s": own("myrinet.interface"),
        "myrinet.interface.rx_drops": totals["rx_drops"],
        "core.device.bursts": get("core.device").calls,
        "core.device.self_s": own("core.device"),
        "hw.injector.injections": totals["injections"],
        "hostsim.datagrams": get("hostsim").work,
        "hostsim.self_s": own("hostsim"),
        "nftape.experiment_s": (
            nftape.total_s / nftape.calls if nftape.calls else 0.0),
        "nftape.self_s": own("nftape"),
        "nftape.delivery_ratio": (
            totals["received"] / totals["sent"] if totals["sent"] else 0.0),
        "telemetry.write_s": get("telemetry").total_s,
        "capture.write_s": get("capture").total_s,
        "capture.bytes": untraced.capture_bytes,
        "runtime.merge_busy_s": busy,
        "runtime.merge_overlap_s": overlap,
        "runtime.overlap_ratio": overlap / busy if busy else 0.0,
        "runtime.reissues": runtime["reissues"],
        "runtime.retries": runtime["retries"],
        "runtime.artifact_bytes": untraced.artifact_bytes,
        "insight.analyze_s": untraced.analyze_s,
        "scenario.compile_s": compile_s,
        "trace.overhead_ratio": (
            traced.campaign_wall_s / untraced.campaign_wall_s),
        "trace.coverage": split_tracer.coverage("campaign"),
        "trace.spans": len(split_tracer.name_of) + split_tracer.dropped,
    }
    for layer in SIM_LAYERS:
        metrics[f"hook.{layer}.self_s"] = (
            0.0 if bare_tracer is None
            else split_tracer.self_s(layer) - bare_tracer.self_s(layer))
    return metrics


def trace_round(workload: Any, spec: Any, compile_s: float,
                checker: Checker, tag: str) -> Dict[str, float]:
    """One untraced run, one traced run, and the extra traced runs the
    split needs; every run's outputs are checked."""
    from perfbench.layers import Tracer
    from perfbench.workloads import run_once

    work = WORKDIR / f"trace-{os.getpid()}"
    untraced = run_once(workload, spec, work)
    checker.check(untraced.outputs, workload.artifacts)
    tracers = {"traced": Tracer()}
    with tracers["traced"]:
        traced = run_once(workload, spec, work, tracer=tracers["traced"])
    checker.check(traced.outputs, workload.artifacts)
    split, split_tracer = traced, tracers["traced"]
    if workload.executor != "serial":
        split_tracer = tracers["serial-split"] = Tracer()
        with split_tracer:
            split = run_once(workload, spec, work, tracer=split_tracer,
                             executor="serial")
        checker.check(split.outputs, workload.artifacts)
    bare_tracer = None
    if workload.artifacts:
        bare_tracer = tracers["bare"] = Tracer()
        with bare_tracer:
            bare = run_once(workload, spec, work, tracer=bare_tracer,
                            executor="serial", artifacts=False)
        checker.check(bare.outputs, False)
    for role, tracer in tracers.items():
        tracer.write(WORKDIR / "spans" / f"{tag}-{role}.spans")
    return layer_metrics(workload, untraced, traced, tracers["traced"],
                         split, split_tracer, bare_tracer, compile_s)


def compile_time(workload: Any, seed: int, scale: float) -> float:
    """Median wall time of ``compile_scenario`` on this workload's
    document; 0.0 for workloads whose spec is not compiled."""
    if workload.scenario is None:
        return 0.0
    from repro.api import compile_scenario

    doc = workload.scenario(seed, scale)
    times = []
    for _ in range(21):
        t0 = perf_counter()
        compile_scenario(doc)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def run_traced(workload: Any, spec: Any, seed: int, scale: float,
               seconds: float, checker: Checker) -> Dict[str, float]:
    compile_s = compile_time(workload, seed, scale)
    rounds: List[Dict[str, float]] = []
    deadline = perf_counter() + seconds
    while not rounds or perf_counter() < deadline:
        rounds.append(trace_round(workload, spec, compile_s, checker,
                                  f"{workload.name}-s{seed}"))
    return {key: statistics.median([r[key] for r in rounds]) for key in rounds[0]}


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink or grow every workload (tests use "
                             "a tiny scale; references exist for 1.0)")
    parser.add_argument("--references", type=Path, default=None,
                        help="reference outputs (default: "
                             "perfbench/references.json)")
    parser.add_argument("--record", type=Path, default=None,
                        help="also write the full record (provenance, "
                             "samples, metrics) as JSON here")
    args = parser.parse_args(argv)

    bootstrap()
    from perfbench import reference
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    refs = reference.load(args.references or reference.REFERENCES)
    prov = provenance(workload, args.seed, args.scale)
    checker = Checker(workload.name, args.seed, args.scale, refs)
    print(f"perfbench {workload.name}: {workload.why}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print("model: unvalidated against hardware (the paper's Table 4 loss "
          "band is its only outside reference); the output check gates "
          "identical results, not accuracy")

    spec = workload.build_spec(args.seed, args.scale)
    experiments = len(spec.experiments)
    record: Dict[str, Any] = {"provenance": prov, "trace": args.trace}
    metrics: Dict[str, Dict[str, Any]] = {}
    try:
        if args.trace:
            if workload.executor != "serial":
                print("trace: simulation layers are split from a serial "
                      "traced run of the same spec (fabric workers are "
                      "separate processes); runtime.* comes from the "
                      "fabric run's coordinator")
            values = run_traced(workload, spec, args.seed, args.scale,
                                args.seconds, checker)
            for name, unit in PER_LAYER_UNITS.items():
                metrics[name] = {"value": values[name], "unit": unit}
        else:
            measured = measure(workload, spec, args.seed, args.scale,
                               args.seconds, checker)
            samples = measured["samples"]
            record["samples"] = samples
            for name, unit in END_TO_END_UNITS.items():
                value = (measured["peak_rss_mb"] if name == "peak_rss_mb"
                         else statistics.median(samples[name]))
                metrics[name] = {"value": value, "unit": unit}
            artifact_bytes = statistics.median(samples["artifact_bytes"])
    except Exception:  # one boundary: report the crash as failed work
        traceback.print_exc()
        checker.crashed(experiments)

    print(f"check: {checker.source}")
    for reason in checker.reasons[:20]:
        print(f"  mismatch: {reason}")
    failed_share = checker.failed / max(1, checker.attempted)
    if not args.trace and "setup_s" in metrics:
        samples = record["samples"]
        for name, unit in END_TO_END_UNITS.items():
            count = (f" (median of {len(samples[name])})"
                     if name in samples else "")
            if name == "time_to_verdict_s" and not workload.artifacts:
                count += " [no insight report: the verdict is the table]"
            print(f"{name} = {_fmt(metrics[name]['value'])} {unit}{count}")
        print(f"artifact_bytes = {artifact_bytes:.0f} bytes"
              + ("" if workload.artifacts else " [artifacts off]"))
    for name in PER_LAYER_UNITS if args.trace else ():
        if name in metrics:
            print(f"{name} = {_fmt(metrics[name]['value'])} "
                  f"{metrics[name]['unit']}")
    print(f"failed_share = {failed_share:.6g} ratio "
          f"({checker.failed}/{checker.attempted} experiments)")

    correct = checker.failed == 0 and bool(metrics)
    record.update(metrics=metrics, failed_share=failed_share,
                  attempted=checker.attempted, failed=checker.failed)
    if args.record is not None:
        args.record.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
