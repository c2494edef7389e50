"""The compare unit: sliding window and trigger logic (paper §3.3).

The incoming symbol stream is shifted into the compare registers on odd
cycles; on the following even cycle the concurrent compare logic's result
is available.  "Incoming data is compared with the compare data (bit-wise
XOR) operation.  The trigger line is asserted if they all match.  The
compare mask enables the use of 'don't care' bits" — with the mask
applied to the XOR result, any 0 to 32 bits of the window can be made to
participate.

The window holds the four most recent symbols; the most recent symbol
occupies the low byte.  A parallel 4-bit register tracks the D/C bit of
each lane so control symbols are distinguishable from data bytes carrying
the same value.
"""

from __future__ import annotations

from typing import Tuple

from repro.hw.registers import SEGMENT_BITS, SEGMENT_LANES, InjectorConfig
from repro.myrinet.symbols import Symbol

_MASK32 = (1 << SEGMENT_BITS) - 1
_MASK4 = (1 << SEGMENT_LANES) - 1


class CompareUnit:
    """Sliding 32-bit (+4 control bit) window with masked comparison."""

    def __init__(self) -> None:
        self._window = 0
        self._ctl = _MASK4  # empty lanes read as "data"
        self._filled = 0
        self.shifts = 0
        self.evaluations = 0
        self.matches = 0

    @property
    def window(self) -> int:
        """The 32-bit window value (newest symbol in the low byte)."""
        return self._window

    @property
    def ctl_bits(self) -> int:
        """D/C bits of the four lanes (bit 0 = newest lane; 1 = data)."""
        return self._ctl

    @property
    def filled(self) -> bool:
        """True once four symbols have been shifted in."""
        return self._filled >= SEGMENT_LANES

    def shift(self, symbol: Symbol) -> None:
        """Odd-cycle operation: shift one symbol into the window."""
        self._window = ((self._window << 8) | symbol.value) & _MASK32
        self._ctl = ((self._ctl << 1) | (1 if symbol.is_data else 0)) & _MASK4
        if self._filled < SEGMENT_LANES:
            self._filled += 1
        self.shifts += 1

    def evaluate(self, config: InjectorConfig) -> bool:
        """Even-cycle operation: is the trigger line asserted?

        With an all-zero compare mask and no control-lane mask the
        comparison is vacuous, so — like the hardware — the trigger
        would fire on every segment; callers gate this with the match
        mode.
        """
        self.evaluations += 1
        data_diff = (self._window ^ config.compare_data) & config.compare_mask
        ctl_diff = (self._ctl ^ config.compare_ctl) & config.compare_ctl_mask
        matched = data_diff == 0 and ctl_diff == 0
        if matched:
            self.matches += 1
        return matched

    def snapshot(self) -> Tuple[int, int]:
        """(window, ctl_bits) for monitoring captures."""
        return self._window, self._ctl

    def reset(self) -> None:
        """Clear the window (device reset)."""
        self._window = 0
        self._ctl = _MASK4
        self._filled = 0
