"""Span tracing of the simulator's layers, installed from outside ``src/``.

:class:`Tracer` wraps the public entry points of each ``src/repro`` layer
(listed in :data:`ENTRY_POINTS`) for the length of one ``with`` block and
puts every original function back when the block ends.  Each wrapped call
records a span (name, start, end, parent) in compact in-memory arrays;
self time is accumulated online as span time minus the time of the
spans nested directly inside it.  Nothing here changes the program's
behaviour: a wrapper calls the original with the same arguments and
returns its result untouched.
"""

from __future__ import annotations

import array
import contextlib
import functools
import importlib
import json
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: ``(span name, module, attribute path, counter)`` for each wrapped entry
#: point.  ``counter`` maps ``(args, result)`` to the amount of work the
#: call did, summed into the span name's ``work`` count; ``None`` counts
#: calls.  A span name is a layer (``myrinet.switch``), or a layer and a
#: part (``myrinet.link:flow``) for event callbacks the kernel calls
#: directly: those are wrapped so their time is charged to their layer
#: and not to ``sim``, but they keep their own name so they do not add
#: to the layer's call and work counts.  Per-symbol internals
#: (``MyrinetSwitch._process_symbol``, ``FrameAssembler.push``) are
#: deliberately not wrapped: a wrapper per symbol would cost more than
#: the work it measures.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[Callable[..., int]]], ...] = (
    ("sim", "repro.sim.kernel", "Simulator.batch_advance",
     lambda args, result: result),
    ("myrinet.switch", "repro.myrinet.switch", "MyrinetSwitch.on_burst",
     lambda args, result: len(args[1])),
    ("myrinet.switch:retry", "repro.myrinet.switch",
     "MyrinetSwitch._retry_output", None),
    ("myrinet.link", "repro.myrinet.link", "Channel.send", None),
    ("myrinet.link:flow", "repro.myrinet.flow", "StopRefresher._send_burst",
     None),
    ("myrinet.link:slack", "repro.myrinet.slack",
     "RateDrainedSlackBuffer._release_check", None),
    ("myrinet.frames", "repro.myrinet.frames", "FrameAssembler.push_burst",
     lambda args, result: len(args[1])),
    ("myrinet.frames", "repro.myrinet.frames", "FrameAssembler.push_buffer",
     lambda args, result: len(args[1])),
    ("myrinet.interface", "repro.myrinet.interface", "HostInterface.on_burst",
     None),
    ("myrinet.interface", "repro.myrinet.interface",
     "HostInterface.send_packet", None),
    ("myrinet.interface:pump", "repro.myrinet.interface",
     "HostInterface._pump", None),
    ("core.device", "repro.core.device", "FaultInjectorDevice.on_burst", None),
    ("hostsim", "repro.hostsim.sockets", "HostStack.send_udp", None),
    ("hostsim", "repro.hostsim.sockets", "HostStack._transmit", lambda a, r: 0),
    ("hostsim", "repro.hostsim.sockets", "HostStack._on_data", lambda a, r: 0),
    ("hostsim", "repro.hostsim.sockets", "HostStack._deliver", None),
    ("nftape", "repro.nftape.experiment", "Experiment.run", None),
    ("nftape:workload", "repro.nftape.workload", "AllPairsWorkload._tick",
     None),
    ("nftape:workload", "repro.nftape.workload",
     "_ValidatingSink._on_message", None),
    ("telemetry", "repro.telemetry.session", "TelemetrySession.write", None),
    ("capture", "repro.capture.session", "CaptureSession.write", None),
    ("runtime", "repro.runtime.artifacts", "ShardMerger.add", None),
    ("runtime", "repro.runtime.artifacts", "ShardMerger.finalize", None),
)


class LayerTotals:
    """Running totals of one span name."""

    __slots__ = ("calls", "work", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.work = 0
        self.total_s = 0.0
        self.self_s = 0.0


#: Spans kept in memory per tracer (24 bytes each); a full-scale traced
#: campaign records about 10^5.
MAX_SPANS = 2_000_000


class Tracer:
    """Record layer spans while active; restore every original on exit.

    Spans are kept in parallel arrays (name id, parent index, start,
    end) up to :data:`MAX_SPANS`; beyond that only the running totals
    are updated and :attr:`dropped` counts the spans not kept.  A span's
    parent is the innermost span open when it started; ``-1`` marks a
    root.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array.array("i")
        self.parent_of = array.array("i")
        self.start_of = array.array("d")
        self.end_of = array.array("d")
        self.dropped = 0
        self.totals: Dict[str, LayerTotals] = {}
        # Open spans: [name id, span index (-1 if not kept), start,
        # time covered by direct children].
        self._stack: List[List[Any]] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- span bookkeeping ------------------------------------------------

    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.totals[name] = LayerTotals()
        return name_id

    def open(self, name: str) -> None:
        """Open a span named ``name`` nested in the innermost open span."""
        name_id = self._name_id(name)
        index = -1
        if len(self.name_of) < MAX_SPANS:
            index = len(self.name_of)
            self.name_of.append(name_id)
            self.parent_of.append(self._stack[-1][1] if self._stack else -1)
        else:
            self.dropped += 1
        start = perf_counter()
        if index >= 0:
            self.start_of.append(start)
            self.end_of.append(start)
        self._stack.append([name_id, index, start, 0.0])

    def close(self, work: int = 1) -> None:
        """Close the innermost span, charging ``work`` to its totals."""
        end = perf_counter()
        name_id, index, start, children = self._stack.pop()
        duration = end - start
        if index >= 0:
            self.end_of[index] = end
        totals = self.totals[self.names[name_id]]
        totals.calls += 1
        totals.work += work
        totals.total_s += duration
        totals.self_s += duration - children
        if self._stack:
            self._stack[-1][3] += duration

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A ``with`` block recorded as one span (for the benchmark's own
        call sites: the campaign and its analysis)."""
        self.open(name)
        try:
            yield
        finally:
            self.close()

    # -- wrapper installation --------------------------------------------

    def _wrap(self, layer: str, func: Callable[..., Any],
              counter: Optional[Callable[..., int]]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            tracer.open(layer)
            work = 1
            try:
                result = func(*args, **kwargs)
                if counter is not None:
                    work = counter(args, result)
                return result
            finally:
                tracer.close(work)

        return traced

    def install(self) -> None:
        """Replace every entry point in :data:`ENTRY_POINTS` by a wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, module_name, path, counter in ENTRY_POINTS:
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original, counter))

    def uninstall(self) -> None:
        """Put every original function back, in reverse install order."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------

    def self_s(self, layer: str) -> float:
        """Self time of ``layer``: its own spans and its parts'."""
        return sum(totals.self_s for name, totals in self.totals.items()
                   if name == layer or name.startswith(layer + ":"))

    def coverage(self, root: str, unattributed: Tuple[str, ...] = ("sim",)
                 ) -> float:
        """Share of the ``root`` spans' time spent inside a layer span,
        not counting the self time of the ``unattributed`` spans.

        ``sim`` is the kernel's event loop: its span encloses every event
        callback, so its self time is the loop plus every callback that
        no other span wraps, and it is not attributed to any layer.
        """
        totals = self.totals.get(root)
        if totals is None or totals.total_s <= 0:
            return 0.0
        inside = totals.total_s - totals.self_s - sum(
            self.totals[name].self_s for name in unattributed
            if name in self.totals)
        return inside / totals.total_s

    def write(self, path: Path) -> Path:
        """Write the kept spans: a JSON header line, then the raw arrays
        (name id and parent as int32, start and end as float64)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.name_of),
            "dropped": self.dropped,
            "arrays": ["name_id:i", "parent:i", "start_s:d", "end_s:d"],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_of, self.parent_of,
                           self.start_of, self.end_of):
                column.tofile(out)
        return path


def _resolve(module_name: str, path: str) -> Tuple[Any, str]:
    """``("repro.x", "Class.method")`` -> ``(Class, "method")``."""
    owner_name, _, attr = path.rpartition(".")
    return getattr(importlib.import_module(module_name), owner_name), attr


def originals() -> Dict[str, Any]:
    """The current object behind every entry point (for restore checks)."""
    found = {}
    for _layer, module_name, path, _counter in ENTRY_POINTS:
        owner, attr = _resolve(module_name, path)
        found[f"{module_name}.{path}"] = owner.__dict__[attr]
    return found
