"""Symbol-stream framing.

A :class:`FrameAssembler` splits an incoming symbol stream into frames on
GAP boundaries (paper Figure 8): data symbols accumulate into the current
frame, GAP closes it, STOP/GO are passed to a control-symbol handler
*without* breaking the frame (control symbols are interleaved with data on
a Myrinet channel), IDLE is discarded, and undecodable control values are
dropped and counted.

Frames that exceed ``max_frame`` — e.g. the unbounded merge created when a
packet-terminating GAP is corrupted — are discarded as errors, mirroring a
real interface's maximum-packet guard.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.myrinet.symbols import (
    CONTROL_DECODE,
    GAP,
    IDLE,
    Symbol,
    decode_control,
)

#: Default maximum frame size in bytes (route + type + payload + CRC).
DEFAULT_MAX_FRAME = 4096


class FrameAssembler:
    """Reassembles frames from a symbol stream."""

    def __init__(
        self,
        on_frame: Callable[[bytes], None],
        on_control: Optional[Callable[[Symbol], None]] = None,
        max_frame: int = DEFAULT_MAX_FRAME,
    ) -> None:
        self._on_frame = on_frame
        self._on_control = on_control
        self._max_frame = max_frame
        self._current: List[int] = []
        self._overflowed = False
        self.frames_emitted = 0
        self.oversize_frames = 0
        self.undecodable_controls = 0

    def push(self, symbol: Symbol) -> None:
        """Feed one symbol into the assembler."""
        if symbol.is_data:
            if self._overflowed:
                return
            if len(self._current) >= self._max_frame:
                self._overflowed = True
                self.oversize_frames += 1
                self._current.clear()
                return
            self._current.append(symbol.value)
            return
        decoded = decode_control(symbol.value)
        if decoded is None:
            self.undecodable_controls += 1
            return
        if decoded is GAP:
            self._close_frame()
        elif decoded is IDLE:
            return
        elif self._on_control is not None:
            self._on_control(decoded)

    def push_burst(self, burst: List[Symbol]) -> None:
        """Feed a burst of symbols.

        Same result as :meth:`push` per symbol, with control values
        decoded inline from :data:`CONTROL_DECODE` and the overflow flag
        kept in a local for the length of the burst.
        """
        current = self._current
        max_frame = self._max_frame
        append = current.append
        decode = CONTROL_DECODE
        overflowed = self._overflowed
        try:
            for symbol in burst:
                if symbol.is_data:
                    if overflowed:
                        continue
                    if len(current) >= max_frame:
                        overflowed = True
                        self.oversize_frames += 1
                        current.clear()
                        continue
                    append(symbol.value)
                    continue
                decoded = decode[symbol.value]
                if decoded is GAP:
                    if overflowed:
                        overflowed = False
                    elif current:
                        frame = bytes(current)
                        current.clear()
                        self.frames_emitted += 1
                        self._on_frame(frame)
                elif decoded is None:
                    self.undecodable_controls += 1
                elif decoded is not IDLE and self._on_control is not None:
                    self._on_control(decoded)
        finally:
            self._overflowed = overflowed

    def push_buffer(self, values: bytes, flags: bytes) -> None:
        """Feed a whole buffer from its value/flag planes.

        Byte-exact equivalent of :meth:`push_burst` driven by C-level
        primitives: data runs extend the open frame via slice-extends
        (with the scalar path's exact ``max_frame`` overflow semantics:
        a run is accepted up to the limit and overflow fires on the
        *next* data byte), and control runs collapse to one dispatch per
        run — valid because repeated GAPs beyond the first are no-ops
        and IDLE/undecodable symbols only count.

        No data path in the tree calls it; ``perfbench/layers.py``
        wraps it by name, so it stays until the benchmark drops it.
        """
        n = len(values)
        current = self._current
        max_frame = self._max_frame
        find_data = flags.find
        i = 0
        while i < n:
            if flags[i]:
                j = find_data(0, i)
                if j == -1:
                    j = n
                if not self._overflowed:
                    space = max_frame - len(current)
                    if j - i <= space:
                        current.extend(values[i:j])
                    else:
                        # Fill to the limit; the next data byte trips
                        # the overflow guard exactly as in push().
                        current.extend(values[i:i + space])
                        self._overflowed = True
                        self.oversize_frames += 1
                        current.clear()
                i = j
                continue
            j = find_data(1, i)
            if j == -1:
                j = n
            k = i
            while k < j:
                value = values[k]
                rest = values[k:j].lstrip(values[k:k + 1])
                run = j - k - len(rest)
                decoded = decode_control(value)
                if decoded is None:
                    self.undecodable_controls += run
                elif decoded is GAP:
                    # One close is exact: after the first GAP the frame
                    # is empty and not overflowed, so further GAPs in
                    # the run would be no-ops in the scalar path too.
                    self._close_frame()
                elif decoded is IDLE:
                    pass
                elif self._on_control is not None:
                    handler = self._on_control
                    for _ in range(run):
                        handler(decoded)
                k += run
            i = j

    def _close_frame(self) -> None:
        if self._overflowed:
            self._overflowed = False
            return
        if self._current:
            frame = bytes(self._current)
            self._current.clear()
            self.frames_emitted += 1
            self._on_frame(frame)

    @property
    def partial_length(self) -> int:
        """Bytes accumulated in the currently open frame."""
        return len(self._current)

    def reset(self) -> None:
        """Drop any partial frame (e.g. on link reinitialization)."""
        self._current.clear()
        self._overflowed = False
