"""Point-to-point Myrinet links.

A :class:`Link` is full-duplex: two independent :class:`Channel` objects,
one per direction.  Channels carry *bursts* (lists of symbols).  A burst
is serialized at the channel's character rate and delivered to the far
endpoint after the propagation delay; back-to-back bursts queue behind
each other, so the wire is never overdriven.

This chunked transport is the performance substitution documented in
DESIGN.md: symbol pacing, occupancy, and flow-control timing are still
resolved at character-period granularity, but the scheduler sees one
event per burst instead of one per symbol.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence

from repro.errors import ConfigurationError
from repro.sim.kernel import Simulator
from repro.sim.timebase import from_ns
from repro.myrinet.symbols import Symbol

#: Default character period: 12.5 ns (80 MB/s, the paper's campaign rate).
DEFAULT_CHAR_PERIOD_PS = 12_500

#: Default one-way propagation delay: ~5 ns/m of cable, 3 m default.
DEFAULT_PROPAGATION_PS = from_ns(15.0)


class SymbolSink(Protocol):
    """Anything that can terminate a channel (switch port, host, injector)."""

    def on_burst(self, burst: List[Symbol], channel: "Channel") -> None:
        """Handle a burst of symbols delivered by ``channel``."""


class Channel:
    """One direction of a link: a serializing, delaying symbol pipe."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        char_period_ps: int = DEFAULT_CHAR_PERIOD_PS,
        propagation_ps: int = DEFAULT_PROPAGATION_PS,
    ) -> None:
        if char_period_ps <= 0:
            raise ConfigurationError("character period must be positive")
        if propagation_ps < 0:
            raise ConfigurationError("propagation delay cannot be negative")
        self._sim = sim
        self.name = name
        self.char_period_ps = char_period_ps
        self.propagation_ps = propagation_ps
        self._sink: Optional[SymbolSink] = None
        self._busy_until = 0
        self.symbols_carried = 0
        self.bursts_carried = 0

    def connect(self, sink: SymbolSink) -> None:
        """Attach the receiving endpoint."""
        self._sink = sink

    @property
    def sink(self) -> Optional[SymbolSink]:
        return self._sink

    @property
    def busy_until(self) -> int:
        """Simulation time at which the transmit side becomes free."""
        return self._busy_until

    def free_at(self) -> int:
        """Earliest time a new burst could begin transmitting."""
        return max(self._sim.now, self._busy_until)

    def send(self, burst: Sequence[Symbol]) -> int:
        """Queue a burst for transmission.

        The burst begins serializing when the wire frees up, takes one
        character period per symbol, and arrives in full after the
        propagation delay.  Returns the delivery completion time.
        """
        if self._sink is None:
            raise ConfigurationError(f"channel {self.name} has no sink connected")
        if not burst:
            return self._sim.now
        symbols = list(burst)
        start = self.free_at()
        end_of_serialization = start + len(symbols) * self.char_period_ps
        self._busy_until = end_of_serialization
        delivery = end_of_serialization + self.propagation_ps
        sink = self._sink
        self._sim.schedule_at(
            delivery,
            lambda: sink.on_burst(symbols, self),
            label=f"deliver:{self.name}",
        )
        self.symbols_carried += len(symbols)
        self.bursts_carried += 1
        return delivery

    def burst_duration(self, length: int) -> int:
        """Serialization time of a burst of ``length`` symbols."""
        return length * self.char_period_ps


class Link:
    """A full-duplex point-to-point link between endpoints A and B."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        char_period_ps: int = DEFAULT_CHAR_PERIOD_PS,
        propagation_ps: int = DEFAULT_PROPAGATION_PS,
    ) -> None:
        self.sim = sim
        self.name = name
        self.a_to_b = Channel(sim, f"{name}:a->b", char_period_ps, propagation_ps)
        self.b_to_a = Channel(sim, f"{name}:b->a", char_period_ps, propagation_ps)
        self._tx_states: dict = {"a": None, "b": None}

    def attach_a(self, sink: SymbolSink) -> Channel:
        """Attach endpoint A; returns the channel A transmits on."""
        self.b_to_a.connect(sink)
        return self.a_to_b

    def attach_b(self, sink: SymbolSink) -> Channel:
        """Attach endpoint B; returns the channel B transmits on."""
        self.a_to_b.connect(sink)
        return self.b_to_a

    def register_tx_state(self, side: str, state: object) -> None:
        """Record an endpoint's transmit flow state.

        Used by the ``direct`` flow-control transport: the opposite
        endpoint resolves this state at use time to assert backpressure
        without sending symbols (see :mod:`repro.myrinet.flow`).
        """
        if side not in self._tx_states:
            raise ConfigurationError(f"link side must be 'a' or 'b', got {side!r}")
        self._tx_states[side] = state

    def peer_tx_state(self, side: str) -> object:
        """The flow state of the endpoint *opposite* to ``side``."""
        if side not in self._tx_states:
            raise ConfigurationError(f"link side must be 'a' or 'b', got {side!r}")
        return self._tx_states["b" if side == "a" else "a"]

    @property
    def char_period_ps(self) -> int:
        return self.a_to_b.char_period_ps
