"""Myrinet symbols.

A Myrinet channel carries 9-bit symbols: a data/control (D/C) bit plus
eight bits of payload.  The D/C bit is 1 for data and 0 for control
symbols (paper §4.1).  Control symbols perform link "maintenance": GAP
separates packets, STOP/GO implement slack-buffer flow control, and IDLE
fills an otherwise silent channel.

The encodings keep a pairwise Hamming distance of at least two
(STOP=0x0F, GO=0x03, GAP=0x0C — paper §4.3.1); we add IDLE=0x00, which
preserves the property.  Symbols suffering a single 1→0 fault decode to
their unique parent control symbol; see :func:`decode_control` for the
paper-erratum discussion.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

#: Control symbol encodings (8-bit value carried with D/C = 0).
STOP_VALUE = 0x0F
GO_VALUE = 0x03
GAP_VALUE = 0x0C
IDLE_VALUE = 0x00

_CONTROL_NAMES: Dict[int, str] = {
    STOP_VALUE: "STOP",
    GO_VALUE: "GO",
    GAP_VALUE: "GAP",
    IDLE_VALUE: "IDLE",
}


class Symbol:
    """One 9-bit Myrinet symbol: a D/C bit plus an 8-bit value.

    Instances are immutable and interned: the 256 data symbols and every
    control symbol are created once and shared, which keeps the symbol
    streams of long campaigns allocation-free.
    """

    __slots__ = ("is_data", "value")

    _data_cache: List["Symbol"] = []
    _control_cache: Dict[int, "Symbol"] = {}

    def __init__(self, is_data: bool, value: int) -> None:
        if not 0 <= value <= 0xFF:
            raise ValueError(f"symbol value {value!r} out of byte range")
        object.__setattr__(self, "is_data", is_data)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Symbol instances are immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Symbol):
            return NotImplemented
        return self.is_data == other.is_data and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.is_data, self.value))

    def __repr__(self) -> str:
        if self.is_data:
            return f"D({self.value:#04x})"
        name = _CONTROL_NAMES.get(self.value)
        return f"C({name})" if name else f"C({self.value:#04x})"

    @property
    def name(self) -> str:
        """Symbolic name for control symbols, hex for everything else."""
        if not self.is_data and self.value in _CONTROL_NAMES:
            return _CONTROL_NAMES[self.value]
        return f"{self.value:#04x}"


def data_symbol(value: int) -> Symbol:
    """The interned data symbol carrying ``value``."""
    return Symbol._data_cache[value]


def control_symbol(value: int) -> Symbol:
    """The interned control symbol carrying ``value``."""
    cached = Symbol._control_cache.get(value)
    if cached is None:
        cached = Symbol(False, value)
        Symbol._control_cache[value] = cached
    return cached


Symbol._data_cache = [Symbol(True, v) for v in range(256)]

#: The four interned control symbols.
STOP = control_symbol(STOP_VALUE)
GO = control_symbol(GO_VALUE)
GAP = control_symbol(GAP_VALUE)
IDLE = control_symbol(IDLE_VALUE)


def is_data(symbol: Symbol) -> bool:
    """True if ``symbol`` carries packet data (D/C bit set)."""
    return symbol.is_data


def is_control(symbol: Symbol) -> bool:
    """True if ``symbol`` is a control symbol (D/C bit clear)."""
    return not symbol.is_data


def data_symbols(payload: Iterable[int]) -> List[Symbol]:
    """Interned data symbols for a byte sequence."""
    cache = Symbol._data_cache
    return [cache[b] for b in payload]


def symbol_bytes(symbols: Iterable[Symbol]) -> bytes:
    """Extract the byte values of the *data* symbols in a stream."""
    return bytes(s.value for s in symbols if s.is_data)


def decode_control(value: int) -> Optional[Symbol]:
    """Decode a received control-symbol value, tolerating 1→0 bit faults.

    Exact encodings decode directly.  A value that can be produced from
    exactly one control symbol by a single 1→0 bit fault decodes to that
    symbol (paper §4.3.1: "symbols that suffer single 1 to 0 faults will
    still be detected correctly").  Anything else — including values
    reachable from more than one parent — is undecodable and returns
    ``None`` (the receiver discards it).

    .. note::
       The paper gives "0x08 will still be recognized as STOP" as an
       example, but 0x08 is a single 1→0 fault of GAP (0x0C → 0x08), and
       is three bit-flips away from STOP (0x0F).  We treat the example as
       an erratum and implement the principled rule: 0x08 decodes to GAP,
       0x02 decodes to GO (matching the paper's second example).
    """
    exact = _CONTROL_NAMES.get(value)
    if exact is not None:
        return control_symbol(value)
    parents = _SINGLE_FAULT_PARENTS.get(value)
    if parents is not None and len(parents) == 1:
        return control_symbol(parents[0])
    return None


def _build_single_fault_table() -> Dict[int, Tuple[int, ...]]:
    """Map each single-1→0-faulted value to its possible parent symbols."""
    table: Dict[int, List[int]] = {}
    for parent in _CONTROL_NAMES:
        for bit in range(8):
            if parent & (1 << bit):
                faulted = parent & ~(1 << bit)
                if faulted in _CONTROL_NAMES:
                    continue
                table.setdefault(faulted, []).append(parent)
    return {value: tuple(parents) for value, parents in table.items()}


_SINGLE_FAULT_PARENTS = _build_single_fault_table()


def hamming_distance(a: int, b: int) -> int:
    """Number of differing bits between two byte values."""
    return bin((a ^ b) & 0xFF).count("1")


def min_control_distance() -> int:
    """Minimum pairwise Hamming distance among the control encodings."""
    values = list(_CONTROL_NAMES)
    return min(
        hamming_distance(a, b)
        for i, a in enumerate(values)
        for b in values[i + 1 :]
    )
