"""The byte-level shard capture merge against the decode/re-encode oracle.

``runtime.artifacts._merge_captures`` copies shard records and patches
only their experiment-index ``u32``.  The oracle below is the merge it
replaced: read every shard with :func:`read_capture`, rewrite the
indices on the decoded objects, and encode everything again.  Over
random shard sets the two must write the same bytes and fail the same
way.
"""

import dataclasses
import random
import struct
from pathlib import Path

import pytest

from repro.capture.format import (
    _CAPTURE_FIXED,
    RECORD_CAPTURE,
    CaptureWriter,
    pack_symbol,
    read_capture,
    scan_records,
)
from repro.capture.provenance import LifecycleEvent
from repro.core.monitor import CaptureRecord
from repro.errors import ConfigurationError
from repro.hw.injector import InjectionEvent
from repro.myrinet.symbols import GAP, GO, IDLE, STOP, data_symbols
from repro.runtime.artifacts import _merge_captures, shard_dir


# ----------------------------------------------------------------------
# the oracle: decode every shard, rewrite indices, re-encode
# ----------------------------------------------------------------------

def _write_window(writer, window):
    fixed = _CAPTURE_FIXED.pack(
        window.experiment_index, window.time_ps,
        ord(window.direction[0]) if window.direction else 0,
        1 if window.forced else 0,
        window.lanes_rewritten, window.lanes_unreachable,
        window.segment_index, window.window_before, window.window_after,
        window.ctl_before, window.ctl_after,
        len(window.before), len(window.after),
    )
    symbols = window.before + window.after
    packed = struct.pack(f"<{len(symbols)}H",
                         *(pack_symbol(s) for s in symbols))
    writer._write_record(RECORD_CAPTURE, fixed + packed)


def reencode_merge(target, sources, label):
    shards_meta = []
    datasets = []
    for global_index, name, path in sources:
        data = read_capture(path)
        datasets.append((global_index, name, data))
        shards_meta.append({
            "index": global_index,
            "name": name,
            "source": str(path.parent.parent.name),
            "events": len(data.events),
            "captures": len(data.captures),
        })
    meta = {
        "label": label,
        "sim_epoch_ps": 0,
        "merged_by": "repro.runtime",
        "shards": shards_meta,
        "experiments": len(datasets),
        "events_retained": sum(len(d.events) for _, _, d in datasets),
        "events_dropped": sum(
            d.meta.get("events_dropped", 0) for _, _, d in datasets
        ),
        "corr_ids_assigned": sum(
            d.meta.get("corr_ids_assigned", 0) for _, _, d in datasets
        ),
    }
    with CaptureWriter(target, meta=meta) as writer:
        for global_index, name, data in datasets:
            local_indices = sorted(
                {marker.get("index", 0) for marker in data.experiments}
            ) or [0]
            remap = {
                local: global_index + offset
                for offset, local in enumerate(local_indices)
            }
            for marker in data.experiments:
                marker = dict(marker)
                marker["index"] = remap.get(marker.get("index", 0),
                                            global_index)
                marker["shard"] = shard_dir(".", global_index, name).name
                writer.write_experiment(marker)
            for window in data.captures:
                _write_window(writer, dataclasses.replace(
                    window,
                    experiment_index=remap.get(window.experiment_index,
                                               global_index),
                ))
            for event in data.events:
                writer.write_event(dataclasses.replace(
                    event,
                    experiment_index=remap.get(event.experiment_index,
                                               global_index),
                ))
    return target


# ----------------------------------------------------------------------
# random shard sets
# ----------------------------------------------------------------------

_CONTROLS = (GAP, GO, IDLE, STOP)
_STAGES = ("host_send", "switch_hop", "device_transit", "inject", "drop",
           "deliver", "udp_deliver")


def _symbols(rng):
    out = []
    for _ in range(rng.randrange(0, 12)):
        if rng.random() < 0.3:
            out.append(rng.choice(_CONTROLS))
        else:
            out.extend(data_symbols(bytes([rng.randrange(256)])))
    return out


def _capture(rng):
    return CaptureRecord(
        time_ps=rng.randrange(1 << 48),
        direction=rng.choice(("R", "L", "")),
        event=InjectionEvent(
            segment_index=rng.randrange(1 << 40),
            window_before=rng.randrange(1 << 32),
            ctl_before=rng.randrange(16),
            window_after=rng.randrange(1 << 32),
            ctl_after=rng.randrange(16),
            lanes_rewritten=rng.randrange(5),
            lanes_unreachable=rng.randrange(5),
            forced=rng.random() < 0.5,
        ),
        before=_symbols(rng),
        after=_symbols(rng),
    )


def _attr_value(rng):
    return rng.choice((
        rng.randrange(-5, 300), True, False, None, 1, 0,
        rng.choice(("ok", "crc", "route", "")), rng.random() * 1e6,
        [rng.randrange(9), "x"], {"nested": rng.randrange(3)},
    ))


def _event(rng, indices):
    attrs = {f"a{rng.randrange(4)}": _attr_value(rng)
             for _ in range(rng.randrange(4))}
    return LifecycleEvent(
        time_ps=rng.randrange(1 << 48),
        stage=rng.choice(_STAGES),
        node=rng.choice(("pc", "sparc1", "fi", "sw0")),
        direction=rng.choice(("tx", "rx", "R", "L", "p0->p3")),
        corr_id=rng.choice((None, rng.randrange(1 << 20))),
        seq=rng.randrange(1 << 16),
        experiment_index=rng.choice(indices),
        attrs=attrs,
    )


def _write_shard(rng, path):
    """Write one shard file: empty, single- or multi-experiment, with
    unknown record types mixed in."""
    path.parent.mkdir(parents=True, exist_ok=True)
    meta = {"label": "shard"}
    if rng.random() < 0.8:
        meta["events_dropped"] = rng.randrange(10)
        meta["corr_ids_assigned"] = rng.randrange(1000)
    shape = rng.choice(("empty", "single", "multi", "no-marker"))
    with CaptureWriter(path, meta=meta) as writer:
        if shape == "empty":
            return
        local = ([0] if shape == "single"
                 else sorted(rng.sample(range(6), rng.randrange(2, 4))))
        # Records may carry an index no marker names: it falls back to
        # the shard's global index.
        indices = local + [rng.randrange(6, 9)]
        if shape != "no-marker":
            for index in local:
                writer.write_experiment({
                    "index": index, "name": f"exp-{index}",
                    "seed": rng.randrange(1 << 30), "span_id": index + 1,
                })
        kinds = ["capture"] * rng.randrange(4) + ["event"] * rng.randrange(25)
        kinds += ["unknown"] * rng.randrange(3)
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "capture":
                writer.write_capture(rng.choice(indices), _capture(rng))
            elif kind == "event":
                writer.write_event(_event(rng, indices))
            else:
                writer._write_record(rng.randrange(4, 255),
                                     rng.randbytes(rng.randrange(12)))


def _shard_set(rng, root: Path):
    sources = []
    index = 0
    for _ in range(rng.randrange(1, 5)):
        name = f"run {index}"
        path = shard_dir(root, index, name) / "capture" / "capture.rcap"
        _write_shard(rng, path)
        sources.append((index, name, path))
        index += rng.randrange(1, 4)
    return sources


@pytest.mark.parametrize("seed", range(40))
def test_byte_merge_equals_reencode_merge(tmp_path, seed):
    rng = random.Random(seed)
    sources = _shard_set(rng, tmp_path / "shards")
    expected = reencode_merge(tmp_path / "oracle.rcap", sources, "prop")
    merged = _merge_captures(tmp_path / "merged.rcap", sources, "prop")
    assert merged.read_bytes() == expected.read_bytes()
    data = read_capture(merged)
    assert data.unknown_records_skipped == 0
    assert data.events == read_capture(expected).events


@pytest.mark.parametrize("seed", range(10))
def test_truncated_shard_fails_the_same_way(tmp_path, seed):
    rng = random.Random(1000 + seed)
    sources = _shard_set(rng, tmp_path / "shards")
    victim = rng.choice(sources)[2]
    raw = victim.read_bytes()
    # Cut anywhere but at a record boundary (a file cut there is a
    # valid, shorter capture).
    _, records = scan_records(raw)
    boundaries = {end for _, _, end in records}
    boundaries.add(records[0][1] - 5 if records else len(raw))
    cut = rng.choice([n for n in range(1, len(raw))
                      if n not in boundaries])
    victim.write_bytes(raw[:cut])

    outcomes = []
    for merge, target in ((reencode_merge, tmp_path / "oracle.rcap"),
                          (_merge_captures, tmp_path / "merged.rcap")):
        with pytest.raises(ConfigurationError) as error:
            merge(target, sources, "prop")
        outcomes.append(str(error.value))
        assert not target.exists()
    assert outcomes[0] == outcomes[1]
