"""The command decoder FSM (paper §3.3).

"The command decoder is a large finite-state machine (FSM), which
receives data from the communication handler and applies configuration
information to the injector circuitry.  It also generates error and
acknowledgment signals that are interpreted by the output generator."

The decoder consumes one ASCII character per invocation (as the hardware
does per clock) through an explicit state machine, accumulating a command
line.  Command grammar (lines end with ``\\n``; ``<D>`` is ``L`` for the
left-going injector, ``R`` for the right-going one)::

    ID                    identity
    RS                    reset both injectors
    MM <D> ON|OFF|ONCE    match mode
    OM <D> TGL|RPL        corrupt mode
    CD <D> <hex8>         compare data       CM <D> <hex8>  compare mask
    CC <D> <hex1>         compare ctl bits   CX <D> <hex1>  compare ctl mask
    RD <D> <hex8>         corrupt data       RM <D> <hex8>  corrupt mask
    RC <D> <hex1>         corrupt ctl bits   RX <D> <hex1>  corrupt ctl mask
    CF <D> 0|1            CRC fix-up enable
    IN <D>                inject now
    ST <D>                read statistics
    MO <D>                read monitoring capture summary
    PT                    power-on self-test

Responses are ``OK ...`` acknowledgments or ``ER <code> <reason>``.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Dict, Optional, Protocol

from repro.hw.injector import FifoInjector
from repro.hw.registers import CorruptMode, MatchMode

#: Maximum accepted command-line length.
MAX_LINE = 64

ERR_BAD_OPCODE = "01"
ERR_BAD_DIRECTION = "02"
ERR_BAD_ARGUMENT = "03"
ERR_OVERFLOW = "04"

IDENTITY = "DSN2002-FI 1.0"


class DecoderTarget(Protocol):
    """What the decoder drives: the device's two injectors plus reset."""

    def injector(self, direction: str) -> FifoInjector:
        """The injector for direction 'L' or 'R'."""

    def device_reset(self) -> None:
        """Reset both injectors and monitoring state."""

    def monitor_summary(self, direction: str) -> str:
        """A short summary of the capture memory for one direction."""


class _State(Enum):
    IDLE = "idle"
    ACCUMULATE = "accumulate"
    OVERFLOW = "overflow"


class CommandDecoder:
    """Character-at-a-time command decoder."""

    def __init__(
        self,
        target: DecoderTarget,
        respond: Callable[[str], None],
    ) -> None:
        self._target = target
        self._respond = respond
        self._state = _State.IDLE
        self._line: list = []
        self.commands_ok = 0
        self.commands_error = 0
        self.chars_consumed = 0

    @property
    def state(self) -> str:
        return self._state.value

    def on_char(self, byte: int) -> None:
        """Consume one character from the communications handler."""
        self.chars_consumed += 1
        char = chr(byte & 0x7F)
        if char == "\n":
            if self._state is _State.OVERFLOW:
                self._error(ERR_OVERFLOW, "line too long")
            else:
                self._execute("".join(self._line))
            self._line.clear()
            self._state = _State.IDLE
            return
        if char == "\r":
            return
        if self._state is _State.OVERFLOW:
            return
        if len(self._line) >= MAX_LINE:
            self._state = _State.OVERFLOW
            return
        self._state = _State.ACCUMULATE
        self._line.append(char)

    # ------------------------------------------------------------------
    # command execution
    # ------------------------------------------------------------------

    def _execute(self, line: str) -> None:
        tokens = line.split()
        if not tokens:
            return
        opcode = tokens[0].upper()
        handler = _HANDLERS.get(opcode)
        if handler is None:
            self._error(ERR_BAD_OPCODE, f"unknown opcode {opcode}")
            return
        handler(self, tokens[1:])

    def _injector_for(self, tokens: list) -> Optional[FifoInjector]:
        if not tokens or tokens[0].upper() not in ("L", "R"):
            self._error(ERR_BAD_DIRECTION, "expected direction L or R")
            return None
        return self._target.injector(tokens[0].upper())

    def _ok(self, message: str = "") -> None:
        self.commands_ok += 1
        self._respond(f"OK {message}".rstrip())

    def _error(self, code: str, reason: str) -> None:
        self.commands_error += 1
        self._respond(f"ER {code} {reason}")

    def _cmd_id(self, tokens: list) -> None:
        self._ok(IDENTITY)

    def _cmd_rs(self, tokens: list) -> None:
        self._target.device_reset()
        self._ok("reset")

    def _cmd_mm(self, tokens: list) -> None:
        injector = self._injector_for(tokens)
        if injector is None:
            return
        if len(tokens) < 2:
            self._error(ERR_BAD_ARGUMENT, "expected ON, OFF or ONCE")
            return
        try:
            mode = MatchMode(tokens[1].lower())
        except ValueError:
            self._error(ERR_BAD_ARGUMENT, f"bad match mode {tokens[1]}")
            return
        injector.set_match_mode(mode)
        self._ok(f"mm={mode.value}")

    def _cmd_om(self, tokens: list) -> None:
        injector = self._injector_for(tokens)
        if injector is None:
            return
        modes = {"TGL": CorruptMode.TOGGLE, "RPL": CorruptMode.REPLACE}
        if len(tokens) < 2 or tokens[1].upper() not in modes:
            self._error(ERR_BAD_ARGUMENT, "expected TGL or RPL")
            return
        mode = modes[tokens[1].upper()]
        injector.configure(injector.config.copy(corrupt_mode=mode))
        self._ok(f"om={mode.value}")

    def _hex_command(self, tokens: list, attribute: str, width: int) -> None:
        injector = self._injector_for(tokens)
        if injector is None:
            return
        if len(tokens) < 2:
            self._error(ERR_BAD_ARGUMENT, "missing hex argument")
            return
        text = tokens[1]
        limit = 1 << (4 * width)
        try:
            value = int(text, 16)
        except ValueError:
            self._error(ERR_BAD_ARGUMENT, f"bad hex value {text}")
            return
        if len(text) > width or value >= limit:
            self._error(ERR_BAD_ARGUMENT, f"value {text} too wide")
            return
        injector.configure(injector.config.copy(**{attribute: value}))
        self._ok(f"{attribute}={value:0{width}x}")

    def _cmd_cd(self, tokens: list) -> None:
        self._hex_command(tokens, "compare_data", 8)

    def _cmd_cm(self, tokens: list) -> None:
        self._hex_command(tokens, "compare_mask", 8)

    def _cmd_cc(self, tokens: list) -> None:
        self._hex_command(tokens, "compare_ctl", 1)

    def _cmd_cx(self, tokens: list) -> None:
        self._hex_command(tokens, "compare_ctl_mask", 1)

    def _cmd_rd(self, tokens: list) -> None:
        self._hex_command(tokens, "corrupt_data", 8)

    def _cmd_rm(self, tokens: list) -> None:
        self._hex_command(tokens, "corrupt_mask", 8)

    def _cmd_rc(self, tokens: list) -> None:
        self._hex_command(tokens, "corrupt_ctl", 1)

    def _cmd_rx(self, tokens: list) -> None:
        self._hex_command(tokens, "corrupt_ctl_mask", 1)

    def _cmd_cf(self, tokens: list) -> None:
        injector = self._injector_for(tokens)
        if injector is None:
            return
        if len(tokens) < 2 or tokens[1] not in ("0", "1"):
            self._error(ERR_BAD_ARGUMENT, "expected 0 or 1")
            return
        injector.configure(injector.config.copy(crc_fixup=tokens[1] == "1"))
        self._ok(f"cf={tokens[1]}")

    def _cmd_in(self, tokens: list) -> None:
        injector = self._injector_for(tokens)
        if injector is None:
            return
        injector.inject_now()
        self._ok("inject")

    def _cmd_st(self, tokens: list) -> None:
        injector = self._injector_for(tokens)
        if injector is None:
            return
        stats = injector.stats
        self._ok(
            f"sym={stats['symbols_processed']} "
            f"match={stats['compare_matches']} inj={stats['injections']}"
        )

    def _cmd_mo(self, tokens: list) -> None:
        if not tokens or tokens[0].upper() not in ("L", "R"):
            self._error(ERR_BAD_DIRECTION, "expected direction L or R")
            return
        self._ok(self._target.monitor_summary(tokens[0].upper()))

    def _cmd_pt(self, tokens: list) -> None:
        from repro.hw.selftest import run_selftest
        report = run_selftest()
        if report.passed:
            self._ok(report.summary())
        else:
            self._error(ERR_BAD_ARGUMENT, f"self-test: {report.summary()}")


_HANDLERS: Dict[str, Callable] = {
    "ID": CommandDecoder._cmd_id,
    "RS": CommandDecoder._cmd_rs,
    "MM": CommandDecoder._cmd_mm,
    "OM": CommandDecoder._cmd_om,
    "CD": CommandDecoder._cmd_cd,
    "CM": CommandDecoder._cmd_cm,
    "CC": CommandDecoder._cmd_cc,
    "CX": CommandDecoder._cmd_cx,
    "RD": CommandDecoder._cmd_rd,
    "RM": CommandDecoder._cmd_rm,
    "RC": CommandDecoder._cmd_rc,
    "RX": CommandDecoder._cmd_rx,
    "CF": CommandDecoder._cmd_cf,
    "IN": CommandDecoder._cmd_in,
    "ST": CommandDecoder._cmd_st,
    "MO": CommandDecoder._cmd_mo,
    "PT": CommandDecoder._cmd_pt,
}
