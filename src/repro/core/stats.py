"""Statistics gathering (paper §3.2).

"The architecture has full access to the data path, so the FPGA can
gather statistics about the fault injection campaign.  For instance,
data-link packet data such as source and destination identifier numbers
can be monitored, with counters incremented for each packet seen with
these identifiers."

:class:`StatisticsGatherer` passively parses the symbol stream of one
direction: it counts symbols by kind, reassembles frames, classifies
packet types, and maintains per-(source, destination) packet counters
for data packets.  It never modifies the stream.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import List

from repro.myrinet.addresses import MacAddress
from repro.myrinet.crc8 import crc8
from repro.myrinet.frames import FrameAssembler
from repro.myrinet.packet import (
    PACKET_TYPE_DATA,
    TYPE_FIELD_LEN,
    is_route_byte,
)
from repro.myrinet.symbols import Symbol


@dataclass
class DirectionStats:
    """Counters for one traffic direction."""

    symbols: int = 0
    data_symbols: int = 0
    control_symbols: Counter = field(default_factory=Counter)
    frames: int = 0
    crc_bad_frames: int = 0
    packet_types: Counter = field(default_factory=Counter)
    packets_by_pair: Counter = field(default_factory=Counter)

    def pair_count(self, src: MacAddress, dst: MacAddress) -> int:
        """Packets seen from ``src`` to ``dst``."""
        return self.packets_by_pair[(str(src), str(dst))]

    def publish(self, registry=None, **labels) -> None:
        """Bridge these counters into a telemetry metrics registry.

        ``registry`` defaults to the active session's; re-publishing is
        idempotent (cumulative bridging via ``Counter.set_total``).
        """
        from repro.telemetry.instrument import publish_direction_stats
        publish_direction_stats(self, registry=registry, **labels)


class StatisticsGatherer:
    """Passive per-direction stream statistics."""

    def __init__(self) -> None:
        self.stats = DirectionStats()
        self._assembler = FrameAssembler(self._on_frame, self._on_control)

    def feed(self, symbols: List[Symbol]) -> None:
        """Account for a burst of symbols (does not modify them)."""
        stats = self.stats
        stats.symbols += len(symbols)
        data_count = 0
        for symbol in symbols:
            if symbol.is_data:
                data_count += 1
            else:
                stats.control_symbols[symbol.name] += 1
        stats.data_symbols += data_count
        self._assembler.push_burst(symbols)

    def _on_control(self, symbol: Symbol) -> None:
        # Counted in feed(); the assembler callback exists so STOP/GO do
        # not break frame reassembly.
        return

    def _on_frame(self, frame: bytes) -> None:
        stats = self.stats
        stats.frames += 1
        if crc8(frame) != 0:
            stats.crc_bad_frames += 1
        # Strip any remaining route bytes (the device may sit on either
        # side of a switch, so frames can still carry route prefixes).
        offset = 0
        while offset < len(frame) and is_route_byte(frame[offset]):
            offset += 1
        if len(frame) < offset + TYPE_FIELD_LEN + 1:
            return
        packet_type = int.from_bytes(
            frame[offset:offset + TYPE_FIELD_LEN], "big"
        )
        stats.packet_types[packet_type] += 1
        if packet_type != PACKET_TYPE_DATA:
            return
        payload = frame[offset + TYPE_FIELD_LEN:-1]
        if len(payload) < 12:
            return
        dst = MacAddress.from_bytes(payload[:6])
        src = MacAddress.from_bytes(payload[6:12])
        stats.packets_by_pair[(str(src), str(dst))] += 1

    def publish(self, registry=None, **labels) -> None:
        """Bridge the current counters into a telemetry registry."""
        self.stats.publish(registry=registry, **labels)

    def reset(self) -> None:
        """Zero every counter (campaign reset)."""
        self.stats = DirectionStats()
        self._assembler.reset()
