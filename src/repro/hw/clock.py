"""The injector's two-phase clocking scheme (paper Figures 2 and 3).

The FIFO injector needs two clock cycles per 32-bit segment:

* **odd cycle** — data is read and pushed onto the FIFO; if processed
  data is ready it is read out toward the network; the incoming stream
  is shifted into the compare registers, whose concurrent logic starts
  the compare operation;
* **even cycle** — the compare result is available; if data needs to be
  corrupted it is overwritten *in the FIFO*.

:class:`TwoPhaseClock` tracks the phase explicitly so the injector model
(and its unit tests) can assert the paper's phase ordering: pushes and
pops happen only on odd cycles, injections only on even cycles.
"""

from __future__ import annotations

from enum import Enum

from repro.errors import SimulationError


class ClockPhase(Enum):
    """Which half of the two-phase cycle is active."""

    ODD = "odd"
    EVEN = "even"


class TwoPhaseClock:
    """An explicitly-stepped two-phase clock.

    The clock starts *before* the first odd cycle; :meth:`tick` advances
    one phase and returns the phase that just became active.
    """

    def __init__(self) -> None:
        self._cycles = 0
        self._phase = ClockPhase.EVEN  # so the first tick lands on ODD

    @property
    def phase(self) -> ClockPhase:
        """The currently active phase."""
        return self._phase

    @property
    def cycles(self) -> int:
        """Total clock cycles elapsed (each phase is one cycle)."""
        return self._cycles

    @property
    def segments(self) -> int:
        """Completed odd/even cycle pairs (32-bit segments processed)."""
        return self._cycles // 2

    def tick(self) -> ClockPhase:
        """Advance one cycle and return the new phase."""
        self._cycles += 1
        self._phase = (
            ClockPhase.ODD if self._phase is ClockPhase.EVEN else ClockPhase.EVEN
        )
        return self._phase

    def expect(self, phase: ClockPhase) -> None:
        """Assert the current phase; raises on violation.

        The injector model uses this to enforce the paper's contract:
        FIFO pushes/pops on odd cycles, injection on even cycles.
        """
        if self._phase is not phase:
            raise SimulationError(
                f"operation requires {phase.value} cycle, "
                f"clock is in {self._phase.value} cycle {self._cycles}"
            )
