"""Dual-port RAM and the FIFO built on it (paper §3.3, "Dual port RAM").

The paper implements the injector's FIFO over on-chip dual-port block RAM
("these entities are available on-chip in many commercial FPGAs,
including Xilinx Spartan and Virtex series parts").  The model keeps the
two structures distinct: :class:`DualPortRam` is raw storage with
independent read/write ports, and :class:`RamFifo` layers head/tail
pointers on top — including the ability to *rewrite entries in place*,
which is how the even-cycle inject operation overwrites matched data
while it is still queued (Figure 3).
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ConfigurationError, SimulationError
from repro.myrinet.symbols import Symbol

#: Width of a FIFO word: one 9-bit symbol (D/C bit + 8 data bits).
WORD_BITS = 9


class DualPortRam:
    """Word-addressable storage with separate read and write ports.

    Access counters feed the statistics and the synthesis estimator.
    """

    def __init__(self, words: int) -> None:
        if words < 2:
            raise ConfigurationError("RAM needs at least 2 words")
        self.words = words
        self._cells: List[Optional[Symbol]] = [None] * words
        self.reads = 0
        self.writes = 0

    def write(self, address: int, value: Symbol) -> None:
        """Write one word via port A."""
        self._check(address)
        self._cells[address] = value
        self.writes += 1

    def read(self, address: int) -> Symbol:
        """Read one word via port B."""
        self._check(address)
        value = self._cells[address]
        if value is None:
            raise SimulationError(f"read of uninitialized RAM word {address}")
        self.reads += 1
        return value

    def _check(self, address: int) -> None:
        if not 0 <= address < self.words:
            raise SimulationError(
                f"RAM address {address} outside 0..{self.words - 1}"
            )


class RamFifo:
    """A FIFO over dual-port RAM whose queued entries can be rewritten.

    ``depth`` is the number of storage words; the injector keeps the
    occupancy at its pipeline depth so every symbol spends a fixed number
    of cycles in flight (the device's ~250 ns latency, paper footnote 5).
    """

    def __init__(self, depth: int) -> None:
        self.ram = DualPortRam(depth)
        self.depth = depth
        self._head = 0  # next read position
        self._tail = 0  # next write position
        self._count = 0
        self.in_place_rewrites = 0
        #: Peak occupancy ever reached (telemetry occupancy gauge; the
        #: fused burst path reports via :meth:`note_occupancy`).
        self.high_watermark = 0

    @property
    def occupancy(self) -> int:
        return self._count

    def note_occupancy(self, occupancy: int) -> None:
        """Fold an externally observed occupancy into the watermark.

        The injector's fused burst path keeps the pipeline in a local
        list for speed; it reports the equivalent FIFO occupancy here so
        the ``device.fifo.high_watermark`` gauge stays truthful.
        """
        if occupancy > self.high_watermark:
            self.high_watermark = occupancy

    @property
    def full(self) -> bool:
        return self._count == self.depth

    @property
    def empty(self) -> bool:
        return self._count == 0

    def push(self, value: Symbol) -> None:
        """Append one symbol (odd-cycle operation)."""
        if self.full:
            raise SimulationError("FIFO overflow: push on a full FIFO")
        self.ram.write(self._tail, value)
        self._tail = (self._tail + 1) % self.depth
        self._count += 1
        if self._count > self.high_watermark:
            self.high_watermark = self._count

    def pop(self) -> Symbol:
        """Remove and return the oldest symbol (odd-cycle operation)."""
        if self.empty:
            raise SimulationError("FIFO underflow: pop on an empty FIFO")
        value = self.ram.read(self._head)
        self._head = (self._head + 1) % self.depth
        self._count -= 1
        return value

    def peek_from_tail(self, offset: int) -> Symbol:
        """Read the entry ``offset`` positions back from the newest.

        ``offset=0`` is the most recently pushed symbol.
        """
        self._check_tail_offset(offset)
        address = (self._tail - 1 - offset) % self.depth
        return self.ram.read(address)

    def rewrite_from_tail(self, offset: int, value: Symbol) -> None:
        """Overwrite a queued entry in place (even-cycle inject, Fig. 3)."""
        self._check_tail_offset(offset)
        address = (self._tail - 1 - offset) % self.depth
        self.ram.write(address, value)
        self.in_place_rewrites += 1

    def drain(self) -> List[Symbol]:
        """Pop everything (pipeline flush at end of a traffic burst)."""
        out = []
        while not self.empty:
            out.append(self.pop())
        return out

    def _check_tail_offset(self, offset: int) -> None:
        if not 0 <= offset < self._count:
            raise SimulationError(
                f"tail offset {offset} outside occupied range "
                f"(occupancy {self._count})"
            )
