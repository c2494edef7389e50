"""Versioned binary capture-file format (``.rcap``).

The paper's SDRAM holds captured traffic "for later transmission and
analysis" (§3.4); this module is the transmission format — a pcap-style,
length-prefixed binary file that a host-side tool can decode offline:

``file  := header record*``

* **header** — magic ``b"RCAP\\x01\\n"``, a little-endian ``u16``
  version, then a ``u32``-length-prefixed JSON metadata blob carrying
  the sim-time epoch, the capture configuration, and the producing
  session's label.
* **record** — ``u8`` record type + ``u32`` body length + body.  Three
  record types exist in version 1:

  1. **capture window** — one SDRAM
     :class:`~repro.core.monitor.CaptureRecord`: fixed binary fields
     (timestamp, direction, the full
     :class:`~repro.hw.injector.InjectionEvent`) followed by the
     before/after symbol stream.  Each 9-bit Myrinet symbol is packed
     into a ``u16`` as ``(D/C << 8) | value`` so the data/control flag
     survives losslessly.
  2. **lifecycle event** — fixed binary fields (timestamp, correlation
     id, sequence number, experiment index) plus a JSON blob for the
     open-ended parts (stage, node, attrs).
  3. **experiment marker** — a JSON blob binding an experiment index to
     its name, seed, §4.4 classification, and telemetry span id.

Unknown record types are skipped by length (forward compatibility);
a version above :data:`VERSION` raises.  :func:`read_capture` round-trips
everything :class:`CaptureWriter` emits, byte for byte of meaning.

Capture and event records carry their experiment index as a fixed-width
``u32`` (:data:`INDEX_OFFSETS`), so a tool that renumbers experiments
(the campaign engine's shard merge) copies records with
:meth:`CaptureWriter.copy_record` and never decodes them.  Event JSON
blobs repeat heavily, so the writer and the reader each memoize them.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Dict, List, Optional, Sequence, Tuple, Union

from repro.capture.provenance import LifecycleEvent
from repro.errors import ConfigurationError
from repro.myrinet.symbols import Symbol, control_symbol, data_symbol

__all__ = [
    "MAGIC",
    "VERSION",
    "CaptureWindow",
    "CaptureFileData",
    "CaptureWriter",
    "read_capture",
    "scan_records",
    "experiment_index_of",
    "INDEX_OFFSETS",
    "RECORD_CAPTURE",
    "RECORD_EVENT",
    "RECORD_EXPERIMENT",
    "pack_symbol",
    "unpack_symbol",
]

MAGIC = b"RCAP\x01\n"
VERSION = 1

RECORD_CAPTURE = 1
RECORD_EVENT = 2
RECORD_EXPERIMENT = 3

_HEADER = struct.Struct("<HI")  # version, meta length
_RECORD = struct.Struct("<BI")  # record type, body length
#: experiment_index, time_ps, direction, forced, lanes_rewritten,
#: lanes_unreachable, segment_index, window_before, window_after,
#: ctl_before, ctl_after, n_before, n_after
_CAPTURE_FIXED = struct.Struct("<IQBBBBQIIBBHH")
#: time_ps, corr_id (-1 = none), seq, experiment_index, json length
_EVENT_FIXED = struct.Struct("<QqIII")
_INDEX = struct.Struct("<I")
#: Byte offset of the experiment-index ``u32`` in a record body, for the
#: two record types that carry one in binary.
INDEX_OFFSETS = {RECORD_CAPTURE: 0, RECORD_EVENT: struct.calcsize("<QqI")}

#: A type-2 record head and fixed fields, packed in one call.
_EVENT_HEAD = struct.Struct("<BI" + _EVENT_FIXED.format[1:])

#: Exact attr value types whose equal values always serialize to equal
#: JSON (``True == 1`` hash alike, hence the types are in the memo key).
_MEMO_KINDS = frozenset({str, int, bool, type(None)})
#: Distinct event blobs one writer remembers; later ones are encoded
#: every time.
_BLOB_MEMO_LIMIT = 1 << 14


def pack_symbol(symbol: Symbol) -> int:
    """Pack one 9-bit symbol into a u16: ``(D/C << 8) | value``."""
    return ((1 << 8) if symbol.is_data else 0) | symbol.value


def unpack_symbol(packed: int) -> Symbol:
    """Inverse of :func:`pack_symbol` (interned symbols)."""
    value = packed & 0xFF
    if packed & 0x100:
        return data_symbol(value)
    return control_symbol(value)


@dataclass
class CaptureWindow:
    """A decoded type-1 record: one SDRAM capture window."""

    experiment_index: int
    time_ps: int
    direction: str
    segment_index: int
    window_before: int
    ctl_before: int
    window_after: int
    ctl_after: int
    lanes_rewritten: int
    lanes_unreachable: int
    forced: bool
    before: List[Symbol] = field(default_factory=list)
    after: List[Symbol] = field(default_factory=list)

    @property
    def symbols(self) -> List[Symbol]:
        """The full window in stream order."""
        return self.before + self.after

    @property
    def changed(self) -> bool:
        return (
            self.window_before != self.window_after
            or self.ctl_before != self.ctl_after
        )


@dataclass
class CaptureFileData:
    """Everything read back from one ``.rcap`` file."""

    meta: Dict[str, Any]
    experiments: List[Dict[str, Any]] = field(default_factory=list)
    captures: List[CaptureWindow] = field(default_factory=list)
    events: List[LifecycleEvent] = field(default_factory=list)
    unknown_records_skipped: int = 0

    def experiment_meta(self, index: int) -> Optional[Dict[str, Any]]:
        for meta in self.experiments:
            if meta.get("index") == index:
                return meta
        return None

    def captures_for(self, index: int) -> List[CaptureWindow]:
        return [c for c in self.captures if c.experiment_index == index]

    def events_for(self, index: int) -> List[LifecycleEvent]:
        return [e for e in self.events if e.experiment_index == index]


class CaptureWriter:
    """Streams capture records into an ``.rcap`` file (or buffer)."""

    def __init__(
        self,
        target: Union[str, Path, BinaryIO],
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        if isinstance(target, (str, Path)):
            path = Path(target)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._stream: BinaryIO = open(path, "wb")
            self._owns_stream = True
            self.path: Optional[Path] = path
        else:
            self._stream = target
            self._owns_stream = False
            self.path = None
        self.records_written = 0
        self._blobs: Dict[Any, bytes] = {}
        meta_blob = json.dumps(
            {"format": "rcap", **(meta or {})}, sort_keys=True
        ).encode("utf-8")
        self._stream.write(MAGIC)
        self._stream.write(_HEADER.pack(VERSION, len(meta_blob)))
        self._stream.write(meta_blob)

    # ------------------------------------------------------------------

    def _write_record(self, record_type: int, body: bytes) -> None:
        self._stream.write(_RECORD.pack(record_type, len(body)))
        self._stream.write(body)
        self.records_written += 1

    def write_capture(self, experiment_index: int, record: Any) -> None:
        """Serialize one :class:`~repro.core.monitor.CaptureRecord`."""
        event = record.event
        before: Sequence[Symbol] = record.before
        after: Sequence[Symbol] = record.after
        fixed = _CAPTURE_FIXED.pack(
            experiment_index,
            record.time_ps,
            ord(record.direction[0]) if record.direction else 0,
            1 if event.forced else 0,
            event.lanes_rewritten,
            event.lanes_unreachable,
            event.segment_index,
            event.window_before,
            event.window_after,
            event.ctl_before,
            event.ctl_after,
            len(before),
            len(after),
        )
        packed = struct.pack(
            f"<{len(before) + len(after)}H",
            *(pack_symbol(s) for s in list(before) + list(after)),
        )
        self._write_record(RECORD_CAPTURE, fixed + packed)

    def copy_record(self, record_type: int, body: bytes,
                    experiment_index: int) -> None:
        """Copy a capture or event record body with a new experiment index.

        ``body`` comes from another ``.rcap`` file (see
        :func:`scan_records`); only its experiment-index ``u32`` is
        rewritten, every other byte is copied as is.
        """
        offset = INDEX_OFFSETS[record_type]
        self._write_record(
            record_type,
            body[:offset] + _INDEX.pack(experiment_index)
            + body[offset + _INDEX.size:],
        )

    def write_event(self, event: LifecycleEvent) -> None:
        """Serialize one lifecycle event."""
        attrs = event.attrs
        # Memo key: the blob's fields plus each attr value's exact type.
        # Only events built from str names and _MEMO_KINDS values are
        # stored, so a hit always reproduces json.dumps's bytes.
        key: Any = (event.stage, event.node, event.direction,
                    *attrs.items(), *map(type, attrs.values()))
        try:
            blob = self._blobs.get(key)
        except TypeError:  # an unhashable attr value
            blob = key = None
        if blob is None:
            blob = json.dumps(
                {
                    "stage": event.stage,
                    "node": event.node,
                    "direction": event.direction,
                    "attrs": attrs,
                },
                sort_keys=True,
            ).encode("utf-8")
            if (key is not None and len(self._blobs) < _BLOB_MEMO_LIMIT
                    and _memoizable(event)):
                self._blobs[key] = blob
        self._stream.write(_EVENT_HEAD.pack(
            RECORD_EVENT,
            _EVENT_FIXED.size + len(blob),
            event.time_ps,
            -1 if event.corr_id is None else event.corr_id,
            event.seq,
            event.experiment_index,
            len(blob),
        ) + blob)
        self.records_written += 1

    def write_experiment(self, meta: Dict[str, Any]) -> None:
        """Serialize one experiment marker."""
        blob = json.dumps(meta, sort_keys=True).encode("utf-8")
        self._write_record(RECORD_EXPERIMENT, blob)

    # ------------------------------------------------------------------

    def close(self) -> None:
        if self._owns_stream:
            self._stream.close()

    def __enter__(self) -> "CaptureWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def _memoizable(event: LifecycleEvent) -> bool:
    """Whether ``event``'s blob may be kept in a writer's memo."""
    return (
        all(isinstance(text, str)
            for text in (event.stage, event.node, event.direction))
        and all(type(name) is str for name in event.attrs)
        and _MEMO_KINDS.issuperset(map(type, event.attrs.values()))
    )


def _require(buf: bytes, pos: int, count: int, what: str) -> None:
    if pos + count > len(buf):
        raise ConfigurationError(
            f"truncated capture file: wanted {count} bytes of {what}, "
            f"got {max(0, len(buf) - pos)}"
        )


def scan_records(
    buf: bytes,
) -> Tuple[Dict[str, Any], List[Tuple[int, int, int]]]:
    """Check a whole ``.rcap`` file's header and locate its records.

    Returns the header metadata and one ``(record_type, start, end)``
    body span per record, in file order.  Nothing is decoded; a bad
    magic, a newer version, or a truncated header, record head or body
    raises :class:`ConfigurationError`.
    """
    _require(buf, 0, len(MAGIC), "magic")
    magic = buf[:len(MAGIC)]
    if magic != MAGIC:
        raise ConfigurationError(
            f"not a capture file (magic {magic!r} != {MAGIC!r})"
        )
    pos = len(MAGIC)
    _require(buf, pos, _HEADER.size, "header")
    version, meta_len = _HEADER.unpack_from(buf, pos)
    if version > VERSION:
        raise ConfigurationError(
            f"capture file version {version} is newer than supported "
            f"version {VERSION}"
        )
    pos += _HEADER.size
    _require(buf, pos, meta_len, "metadata")
    meta = json.loads(buf[pos:pos + meta_len])
    pos += meta_len

    records: List[Tuple[int, int, int]] = []
    size = len(buf)
    head_size = _RECORD.size
    unpack_head = _RECORD.unpack_from
    while pos < size:
        if pos + head_size > size:
            raise ConfigurationError("truncated capture file: partial record")
        record_type, body_len = unpack_head(buf, pos)
        pos += head_size
        end = pos + body_len
        if end > size:
            _require(buf, pos, body_len, f"record type {record_type}")
        records.append((record_type, pos, end))
        pos = end
    return meta, records


def experiment_index_of(record_type: int, body: bytes) -> int:
    """The experiment index of a capture or event record body."""
    return _INDEX.unpack_from(body, INDEX_OFFSETS[record_type])[0]


def read_capture(source: Union[str, Path, bytes, BinaryIO]) -> CaptureFileData:
    """Read an ``.rcap`` file back; lossless inverse of the writer."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as stream:
            buf = stream.read()
    elif isinstance(source, bytes):
        buf = source
    else:
        buf = source.read()
    meta, records = scan_records(buf)
    data = CaptureFileData(meta=meta)
    blobs: Dict[bytes, Any] = {}
    for record_type, start, end in records:
        body = buf[start:end]
        if record_type == RECORD_CAPTURE:
            data.captures.append(_decode_capture(body))
        elif record_type == RECORD_EVENT:
            data.events.append(_decode_event(body, blobs))
        elif record_type == RECORD_EXPERIMENT:
            data.experiments.append(json.loads(body))
        else:
            # Forward compatibility: skip by length.
            data.unknown_records_skipped += 1
    return data


def _decode_capture(body: bytes) -> CaptureWindow:
    (
        experiment_index,
        time_ps,
        direction_byte,
        forced,
        lanes_rewritten,
        lanes_unreachable,
        segment_index,
        window_before,
        window_after,
        ctl_before,
        ctl_after,
        n_before,
        n_after,
    ) = _CAPTURE_FIXED.unpack_from(body)
    count = n_before + n_after
    packed = struct.unpack_from(f"<{count}H", body, _CAPTURE_FIXED.size)
    symbols = [unpack_symbol(p) for p in packed]
    return CaptureWindow(
        experiment_index=experiment_index,
        time_ps=time_ps,
        direction=chr(direction_byte) if direction_byte else "",
        segment_index=segment_index,
        window_before=window_before,
        ctl_before=ctl_before,
        window_after=window_after,
        ctl_after=ctl_after,
        lanes_rewritten=lanes_rewritten,
        lanes_unreachable=lanes_unreachable,
        forced=bool(forced),
        before=symbols[:n_before],
        after=symbols[n_before:],
    )


def _decode_event(body: bytes, blobs: Dict[bytes, Any]) -> LifecycleEvent:
    """Decode one event record; ``blobs`` memoizes parsed JSON blobs.

    A blob whose attrs are all scalars is parsed once per file; every
    event still gets its own ``attrs`` dict.
    """
    time_ps, corr_id, seq, experiment_index, blob_len = _EVENT_FIXED.unpack_from(
        body
    )
    raw = body[_EVENT_FIXED.size:_EVENT_FIXED.size + blob_len]
    parsed = blobs.get(raw)
    if parsed is None:
        blob = json.loads(raw)
        parsed = (blob["stage"], blob["node"], blob.get("direction", ""),
                  blob.get("attrs", {}))
        if not any(isinstance(v, (list, dict)) for v in parsed[3].values()):
            blobs[raw] = parsed
    return LifecycleEvent(
        time_ps=time_ps,
        stage=parsed[0],
        node=parsed[1],
        direction=parsed[2],
        corr_id=None if corr_id < 0 else corr_id,
        seq=seq,
        experiment_index=experiment_index,
        attrs=dict(parsed[3]),
    )
