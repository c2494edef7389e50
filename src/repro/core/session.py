"""Host-side control session over the RS-232 link (paper §3.3).

"In a typical fault injection campaign, the user uploads a series of
commands to the Command Decoder via a standard serial interface."  The
:class:`InjectorSession` is that external system: it owns endpoint 'a' of
the device's serial line, serializes commands (one in flight at a time,
as a real terminal program would), matches responses to commands, and
offers typed helpers for the full register file.

Because the line runs at a real baud rate, uploading a configuration
takes on the order of ten milliseconds and re-arming a ``once``-mode
trigger takes about a millisecond — the pacing that shapes once-mode
campaigns (see DESIGN.md ablations).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import DeviceError
from repro.hw.registers import CorruptMode, InjectorConfig, MatchMode
from repro.core.device import FaultInjectorDevice
from repro.sim.kernel import Simulator


class SessionError(DeviceError):
    """Raised for malformed responses or protocol misuse."""


_CORRUPT_MODE_TOKEN = {
    CorruptMode.TOGGLE: "TGL",
    CorruptMode.REPLACE: "RPL",
}


def config_commands(direction: str, config: InjectorConfig) -> List[str]:
    """The command sequence that loads ``config`` into one injector.

    The match mode is set last so a partially-written configuration can
    never trigger (the decoder disarms first).
    """
    d = direction
    return [
        f"MM {d} OFF",
        f"CD {d} {config.compare_data:08x}",
        f"CM {d} {config.compare_mask:08x}",
        f"CC {d} {config.compare_ctl:x}",
        f"CX {d} {config.compare_ctl_mask:x}",
        f"RD {d} {config.corrupt_data:08x}",
        f"RM {d} {config.corrupt_mask:08x}",
        f"RC {d} {config.corrupt_ctl:x}",
        f"RX {d} {config.corrupt_ctl_mask:x}",
        f"OM {d} {_CORRUPT_MODE_TOKEN[config.corrupt_mode]}",
        f"CF {d} {'1' if config.crc_fixup else '0'}",
        f"MM {d} {config.match_mode.value.upper()}",
    ]


class InjectorSession:
    """The management host's end of the device's serial link."""

    def __init__(self, sim: Simulator, device: FaultInjectorDevice) -> None:
        self._sim = sim
        self._device = device
        self._line = device.serial_line
        self._line.attach("a", self._on_byte)
        self._rx: List[str] = []
        self._queue: Deque[Tuple[str, Optional[Callable[[str], None]]]] = deque()
        self._inflight: Optional[Tuple[str, Optional[Callable[[str], None]]]] = None
        self.responses: List[Tuple[str, str]] = []
        self.commands_sent = 0
        self.errors_seen = 0

    # ------------------------------------------------------------------
    # raw command plumbing
    # ------------------------------------------------------------------

    def send(self, command: str,
             on_response: Optional[Callable[[str], None]] = None) -> None:
        """Queue one command; ``on_response`` receives the response line."""
        if "\n" in command:
            raise SessionError("commands must be single lines")
        self._queue.append((command, on_response))
        self._dispatch()

    def _dispatch(self) -> None:
        if self._inflight is not None or not self._queue:
            return
        self._inflight = self._queue.popleft()
        command = self._inflight[0]
        self.commands_sent += 1
        self._line.send("a", (command + "\n").encode("ascii"))

    def _on_byte(self, byte: int) -> None:
        char = chr(byte & 0x7F)
        if char != "\n":
            self._rx.append(char)
            return
        line = "".join(self._rx)
        self._rx.clear()
        if self._inflight is None:
            # Unsolicited output; keep it for diagnostics.
            self.responses.append(("<unsolicited>", line))
            return
        command, callback = self._inflight
        self._inflight = None
        self.responses.append((command, line))
        if line.startswith("ER"):
            self.errors_seen += 1
        if callback is not None:
            callback(line)
        self._dispatch()

    @property
    def idle(self) -> bool:
        """True when no command is queued or awaiting a response."""
        return self._inflight is None and not self._queue

    def last_response(self) -> Optional[str]:
        return self.responses[-1][1] if self.responses else None

    # ------------------------------------------------------------------
    # typed helpers
    # ------------------------------------------------------------------

    def identify(self, on_done: Optional[Callable[[str], None]] = None) -> None:
        """ID command."""
        self.send("ID", on_done)

    def reset_device(self, on_done: Optional[Callable[[str], None]] = None) -> None:
        """RS command."""
        self.send("RS", on_done)

    def configure(
        self,
        direction: str,
        config: InjectorConfig,
        on_done: Optional[Callable[[str], None]] = None,
    ) -> None:
        """Upload a full register file over the serial link."""
        commands = config_commands(direction, config)
        for command in commands[:-1]:
            self.send(command)
        self.send(commands[-1], on_done)

    def arm(self, direction: str, mode: MatchMode = MatchMode.ONCE,
            on_done: Optional[Callable[[str], None]] = None) -> None:
        """(Re-)arm the trigger; in once mode this re-enables it after a
        firing, which is how campaigns pace repeated single injections."""
        self.send(f"MM {direction} {mode.value.upper()}", on_done)

    def disarm(self, direction: str,
               on_done: Optional[Callable[[str], None]] = None) -> None:
        self.send(f"MM {direction} OFF", on_done)

    def inject_now(self, direction: str,
                   on_done: Optional[Callable[[str], None]] = None) -> None:
        """Force one injection on the next even clock cycle."""
        self.send(f"IN {direction}", on_done)

    def read_stats(
        self,
        direction: str,
        on_done: Callable[[Dict[str, int]], None],
    ) -> None:
        """ST command, parsed into a counter dict."""

        def _parse(line: str) -> None:
            if not line.startswith("OK"):
                raise SessionError(f"ST failed: {line}")
            values: Dict[str, int] = {}
            for token in line.split()[1:]:
                key, _, raw = token.partition("=")
                values[key] = int(raw)
            on_done(values)

        self.send(f"ST {direction}", _parse)

    def read_monitor(
        self,
        direction: str,
        on_done: Callable[[Dict[str, int]], None],
    ) -> None:
        """MO command, parsed into a capture-summary dict."""

        def _parse(line: str) -> None:
            if not line.startswith("OK"):
                raise SessionError(f"MO failed: {line}")
            values: Dict[str, int] = {}
            for token in line.split()[1:]:
                key, _, raw = token.partition("=")
                values[key] = int(raw)
            on_done(values)

        self.send(f"MO {direction}", _parse)
