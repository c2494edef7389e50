"""Instrumentation bridges between the simulation stack and the registry.

Two kinds of function live here:

* **hot hooks** (:func:`kernel_run`, :func:`device_burst`,
  :func:`injection`) — called from instrumented code *after* it checked
  ``STATE.active``, at run/burst/injection granularity (never per
  event), so the enabled cost stays a few dict lookups per burst;
* **samplers** (:func:`sample_simulator`, :func:`sample_device`,
  :func:`publish_direction_stats`) — pull cumulative counters out of
  existing components (``injector.stats``, ``DirectionStats``) into the
  registry at phase boundaries.

Everything here only *observes*.  No function reads a clock, schedules
an event, or mutates simulation state — the determinism sanitizer test
replays an identical-seed campaign with telemetry on and off and
requires bit-identical kernel digests.

This module deliberately avoids importing the simulation packages; the
hooks are duck-typed so no import cycle forms (``sim.kernel`` imports
us, not the other way around).
"""

from __future__ import annotations

from typing import Any

from repro.telemetry.metrics import (
    LATENCY_NS_BUCKETS,
    RUN_EVENT_BUCKETS,
    MetricsRegistry,
)
from repro.telemetry.state import STATE

__all__ = [
    "kernel_run",
    "device_burst",
    "injection",
    "sample_simulator",
    "sample_device",
    "publish_direction_stats",
]


# ---------------------------------------------------------------------------
# hot hooks (caller has already checked STATE.active)
# ---------------------------------------------------------------------------


def kernel_run(sim: Any, fired: int) -> None:
    """Account one ``Simulator.run``/``run_until`` batch.

    ``sim.events_fired`` accumulates exactly because each batch reports
    the events it fired; the queue-depth gauge tracks high watermarks
    across batches; the per-run histogram shows how bursty the kernel's
    work is.
    """
    registry = STATE.registry
    if registry is None:  # pragma: no cover - defensive
        return
    registry.counter("sim.events_fired").inc(fired)
    registry.gauge("sim.queue_depth").set(sim.pending)
    registry.gauge("sim.now_ps").set(sim.now)
    registry.histogram("sim.run_events", buckets=RUN_EVENT_BUCKETS).observe(
        fired
    )


def _device_handles(registry: MetricsRegistry, direction: str) -> tuple:
    """The six series :func:`device_burst` feeds, in creation order."""
    return (
        registry,
        registry.counter("device.bursts", direction=direction),
        registry.counter("device.symbols_in", direction=direction),
        registry.counter("device.symbols_out", direction=direction),
        registry.gauge("device.fifo.depth", direction=direction),
        registry.gauge("device.fifo.high_watermark", direction=direction),
        registry.histogram(
            "device.added_latency_ns", buckets=LATENCY_NS_BUCKETS
        ),
    )


def device_burst(
    device: Any, direction: str, symbols_in: int, symbols_out: int
) -> None:
    """Account one burst through the fault-injector device.

    The added-latency observation is the device's full per-burst cost:
    pipeline transit plus the output re-serialization modelled in
    :mod:`repro.core.device` — comparable against the paper's ~250 ns
    pipeline claim and Table 2's end-to-end rows.

    The series are resolved on the device's first burst per direction
    under a registry and kept on the device, so later bursts do no
    label-key lookups; a new registry (the next session) rebinds.
    """
    registry = STATE.registry
    if registry is None:  # pragma: no cover - defensive
        return
    bound = device.__dict__.setdefault("_telemetry_handles", {})
    handles = bound.get(direction)
    if handles is None or handles[0] is not registry:
        handles = bound[direction] = _device_handles(registry, direction)
    _, bursts, sym_in, sym_out, depth, high, latency = handles
    bursts.inc()
    sym_in.inc(symbols_in)
    sym_out.inc(symbols_out)
    fifo = device.injector(direction).fifo
    depth.set(fifo.occupancy)
    high.set(fifo.high_watermark)
    latency.observe(
        (device.pipeline_latency_ps
         + symbols_out * getattr(device, "_char_period_ps", 0)) / 1_000.0
    )


def injection(injector_name: str, event: Any) -> None:
    """Account one trigger firing (pattern match or forced inject)."""
    registry = STATE.registry
    if registry is None:  # pragma: no cover - defensive
        return
    kind = "forced" if event.forced else "matched"
    registry.counter(
        "injector.injections", injector=injector_name, kind=kind
    ).inc()
    registry.counter(
        "injector.lanes_rewritten", injector=injector_name
    ).inc(event.lanes_rewritten)
    if event.lanes_unreachable:
        registry.counter(
            "injector.lanes_unreachable", injector=injector_name
        ).inc(event.lanes_unreachable)


# ---------------------------------------------------------------------------
# phase-boundary samplers
# ---------------------------------------------------------------------------


def sample_simulator(sim: Any, registry: MetricsRegistry = None) -> None:  # type: ignore[assignment]
    """Snapshot kernel gauges (queue depth, clock) into the registry."""
    registry = registry or STATE.registry
    if registry is None:
        return
    registry.gauge("sim.queue_depth").set(sim.pending)
    registry.gauge("sim.now_ps").set(sim.now)


def sample_device(
    device: Any,
    registry: MetricsRegistry = None,  # type: ignore[assignment]
    accumulate: bool = False,
) -> None:
    """Bridge the device's cumulative counters into the registry.

    Two sampling disciplines:

    * ``accumulate=False`` (default) — the same *live* device is
      re-sampled over its lifetime; ``Counter.set_total`` keeps the
      bridge idempotent;
    * ``accumulate=True`` — a *fresh* device is sampled exactly once at
      the end of its life (the per-experiment pattern, where every
      experiment rebuilds the test bed); totals are added so a campaign
      aggregates across experiments.
    """
    registry = registry or STATE.registry
    if registry is None:
        return

    def bridge(name: str, total: float, **labels: Any) -> None:
        counter = registry.counter(name, **labels)
        if accumulate:
            counter.inc(total)
        else:
            counter.set_total(total)

    for direction in ("R", "L"):
        injector = device.injector(direction)
        labels = dict(device=device.name, direction=direction)
        stats = injector.stats
        bridge("injector.symbols_processed", stats["symbols_processed"],
               **labels)
        bridge("injector.matches", stats["compare_matches"], **labels)
        bridge("injector.injections_total", stats["injections"], **labels)
        bridge("injector.fifo_rewrites", stats["fifo_rewrites"], **labels)
        registry.gauge("device.fifo.high_watermark", **labels).set(
            injector.fifo.high_watermark
        )
        publish_direction_stats(
            device.statistics(direction).stats,
            registry=registry,
            accumulate=accumulate,
            **labels,
        )
    bridge("device.bursts_forwarded", device.bursts_forwarded,
           device=device.name)
    registry.gauge("device.pipeline_latency_ns", device=device.name).set(
        device.pipeline_latency_ps / 1_000.0
    )
    sdram = getattr(device, "sdram", None)
    if sdram is not None:
        # Capture loss must be visible, not silent: stores, drops by
        # cause, shed bytes, and the worst write-queue backlog seen.
        stats = sdram.stats
        bridge("sdram.records_stored", stats["records_stored"],
               device=device.name)
        bridge("sdram.records_dropped_capacity",
               stats["records_dropped_capacity"], device=device.name)
        bridge("sdram.records_dropped_bandwidth",
               stats["records_dropped_bandwidth"], device=device.name)
        bridge("sdram.bytes_dropped", stats["bytes_dropped"],
               device=device.name)
        registry.gauge("sdram.bytes_used", device=device.name).set(
            stats["bytes_used"]
        )
        registry.gauge("sdram.peak_backlog_ps", device=device.name).set(
            stats["peak_backlog_ps"]
        )


def publish_direction_stats(
    stats: Any,
    registry: MetricsRegistry = None,  # type: ignore[assignment]
    accumulate: bool = False,
    **labels: Any,
) -> None:
    """Bridge one :class:`~repro.core.stats.DirectionStats` snapshot."""
    registry = registry or STATE.registry
    if registry is None:
        return

    def bridge(name: str, total: float, **extra: Any) -> None:
        counter = registry.counter(name, **{**labels, **extra})
        if accumulate:
            counter.inc(total)
        else:
            counter.set_total(total)

    bridge("stats.symbols", stats.symbols)
    bridge("stats.data_symbols", stats.data_symbols)
    bridge("stats.frames", stats.frames)
    bridge("stats.crc_bad_frames", stats.crc_bad_frames)
    for symbol_name, count in sorted(stats.control_symbols.items()):
        bridge("stats.control_symbols", count, symbol=symbol_name)
    for packet_type, count in sorted(stats.packet_types.items()):
        bridge("stats.packet_types", count, type=str(packet_type))
