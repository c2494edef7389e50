"""Per-experiment artifact layout and the deterministic shard merge.

A sharded campaign run with ``--artifacts-dir out/`` produces::

    out/
      results.sqlite                      # checkpoint result store
      experiments/
        exp-000-STOP-IDLE/
          telemetry/metrics.json|spans.jsonl|trace.json
          capture/capture.rcap
        exp-001-…/…
      telemetry/                          # merged views (this module)
        metrics.json  spans.jsonl  trace.json
      capture/
        capture.rcap

Each worker runs its experiment under private telemetry/capture
sessions writing into that experiment's shard directory; after the
order-merge of results the parent folds the shards into campaign-level
artifacts.  The merge is deterministic — shards are visited in
experiment-index order, never completion order — with these rules:

* ``metrics.json`` — counters and histogram buckets are **summed**
  across shards; gauges take the **maximum** (peak semantics), with
  high/low watermarks and sample counts folded accordingly.
* ``spans.jsonl`` — concatenated in experiment order; every record
  gains a ``"shard": <experiment index>`` provenance field (span ids
  restart per shard, so shard+span_id is the unique key).
* ``trace.json`` — regenerated from the concatenated span records so
  the whole campaign loads as one Perfetto timeline.
* ``capture.rcap`` — one file built by copying records: capture
  windows and lifecycle events are copied byte for byte except their
  per-shard experiment index, which is patched to the campaign-global
  index; experiment markers are re-encoded with the same remap and a
  ``"shard"`` field naming their source directory.  Per shard the order
  is markers, then captures, then events; unknown record types are
  dropped.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple, Union

from repro.capture.format import (
    RECORD_CAPTURE,
    RECORD_EVENT,
    RECORD_EXPERIMENT,
    CaptureWriter,
    experiment_index_of,
    scan_records,
)
from repro.capture.session import CAPTURE_FILE_NAME
from repro.telemetry.exporters import (
    parse_spans_jsonl,
    spans_to_jsonl,
    to_chrome_trace,
)
from repro.telemetry.metrics import MetricsRegistry

__all__ = [
    "EXPERIMENTS_SUBDIR",
    "TELEMETRY_SUBDIR",
    "CAPTURE_SUBDIR",
    "slugify",
    "shard_dir",
    "merge_artifacts",
    "ShardMerger",
]

#: Directory (under the artifacts root) holding one shard per experiment.
EXPERIMENTS_SUBDIR = "experiments"
#: Telemetry subdirectory name, used both per shard and for the merge.
TELEMETRY_SUBDIR = "telemetry"
#: Capture subdirectory name, used both per shard and for the merge.
CAPTURE_SUBDIR = "capture"

_SLUG_RE = re.compile(r"[^A-Za-z0-9_.-]+")


def slugify(name: str, max_length: int = 48) -> str:
    """A filesystem-safe slug of an experiment name."""
    slug = _SLUG_RE.sub("-", name).strip("-") or "experiment"
    return slug[:max_length]


def shard_dir(root: Union[str, Path], index: int, name: str) -> Path:
    """The shard directory of experiment ``index`` under ``root``."""
    return (
        Path(root) / EXPERIMENTS_SUBDIR / f"exp-{index:03d}-{slugify(name)}"
    )


# ---------------------------------------------------------------------------
# metrics merge
# ---------------------------------------------------------------------------


def _merge_metrics_docs(documents: Sequence[Dict[str, Any]],
                        label: str) -> Dict[str, Any]:
    """Fold shard ``metrics.json`` documents into one (see module doc)."""
    registry = MetricsRegistry()
    wall_s = 0.0
    for document in documents:
        wall_s += float(document.get("wall_s") or 0.0)
        for entry in document.get("metrics", {}).get("series", []):
            name = entry["name"]
            labels = entry.get("labels", {})
            kind = entry.get("kind")
            if kind == "counter":
                registry.counter(name, **labels).inc(entry["value"])
            elif kind == "gauge":
                gauge = registry.gauge(name, **labels)
                gauge.value = max(gauge.value, entry["value"]) \
                    if gauge.samples else entry["value"]
                for bound in ("high",):
                    new = entry.get(bound)
                    if new is not None:
                        old = gauge.high
                        gauge.high = new if old is None else max(old, new)
                low = entry.get("low")
                if low is not None:
                    gauge.low = low if gauge.low is None \
                        else min(gauge.low, low)
                gauge.samples += entry.get("samples", 0)
            elif kind == "histogram":
                histogram = registry.histogram(
                    name, buckets=entry["buckets"], **labels
                )
                if len(histogram.counts) == len(entry["counts"]):
                    histogram.counts = [
                        a + b
                        for a, b in zip(histogram.counts, entry["counts"])
                    ]
                histogram.total += entry["sum"]
                histogram.count += entry["count"]
    registry.gauge("campaign.shards_merged").set(len(documents))
    return {
        "generated_by": "repro.runtime",
        "version": 1,
        "label": label,
        "wall_s": wall_s,
        "shards": len(documents),
        "metrics": registry.to_dict(),
    }


# ---------------------------------------------------------------------------
# whole-campaign merge
# ---------------------------------------------------------------------------


class ShardMerger:
    """Incremental, index-ordered shard fold (one :meth:`add` each).

    The fabric executor folds shards *while experiments are still
    running* — each completed prefix experiment is :meth:`add`-ed as
    soon as its shard lands, and :meth:`finalize` writes the merged
    artifacts.  Because shards must be added in ascending experiment
    index (callers enforce the prefix discipline), the fold visits
    exactly the order :func:`merge_artifacts` uses, so the final bytes
    are identical whether the merge overlapped execution or not.
    """

    def __init__(self, root: Union[str, Path],
                 label: str = "campaign") -> None:
        self.root = Path(root)
        self.label = label
        self.summary: Dict[str, Any] = {
            "telemetry_shards": 0, "capture_shards": 0, "missing_shards": []
        }
        self._metrics_docs: List[Dict[str, Any]] = []
        self._span_records: List[Any] = []
        self._capture_sources: List[Tuple[int, str, Path]] = []

    def add(self, index: int, name: str) -> None:
        """Fold experiment ``index``'s shard (call in ascending index)."""
        shard = shard_dir(self.root, index, name)
        telemetry = shard / TELEMETRY_SUBDIR
        metrics_path = telemetry / "metrics.json"
        if metrics_path.exists():
            self.summary["telemetry_shards"] += 1
            self._metrics_docs.append(json.loads(metrics_path.read_text()))
            spans_path = telemetry / "spans.jsonl"
            if spans_path.exists():
                for record in parse_spans_jsonl(spans_path.read_text()):
                    record.shard = index
                    self._span_records.append(record)
        else:
            self.summary["missing_shards"].append(index)
        capture_path = shard / CAPTURE_SUBDIR / CAPTURE_FILE_NAME
        if capture_path.exists():
            self.summary["capture_shards"] += 1
            self._capture_sources.append((index, name, capture_path))

    def finalize(self) -> Dict[str, Any]:
        """Write the merged campaign artifacts; returns the summary."""
        if self._metrics_docs:
            out = self.root / TELEMETRY_SUBDIR
            out.mkdir(parents=True, exist_ok=True)
            (out / "metrics.json").write_text(
                json.dumps(
                    _merge_metrics_docs(self._metrics_docs, self.label),
                    indent=2, sort_keys=True) + "\n"
            )
            (out / "spans.jsonl").write_text(
                spans_to_jsonl(self._span_records))
            (out / "trace.json").write_text(
                json.dumps(to_chrome_trace(self._span_records,
                                           label=self.label)) + "\n"
            )
            self.summary["telemetry_dir"] = str(out)

        if self._capture_sources:
            out = self.root / CAPTURE_SUBDIR
            out.mkdir(parents=True, exist_ok=True)
            path = _merge_captures(out / CAPTURE_FILE_NAME,
                                   self._capture_sources, self.label)
            self.summary["capture_path"] = str(path)

        return self.summary


def merge_artifacts(
    root: Union[str, Path],
    entries: Sequence[Tuple[int, str]],
    label: str = "campaign",
) -> Dict[str, Any]:
    """Fold every shard under ``root`` into campaign-level artifacts.

    ``entries`` is the ordered ``(index, name)`` list of the campaign's
    experiments; shards that never produced an artifact (e.g. an
    experiment restored from the result store on a later run) are
    skipped, and the skip is reported in the returned summary.
    """
    merger = ShardMerger(root, label)
    for index, name in sorted(entries):
        merger.add(index, name)
    return merger.finalize()


def _merge_captures(
    target: Path,
    sources: Sequence[Tuple[int, str, Path]],
    label: str,
) -> Path:
    """Copy shard ``.rcap`` records into one campaign capture file."""
    shards_meta: List[Dict[str, Any]] = []
    shards = []
    events_dropped = corr_ids_assigned = 0
    for global_index, name, path in sources:
        buf = path.read_bytes()
        shard_meta, records = scan_records(buf)
        markers = [json.loads(buf[start:end])
                   for kind, start, end in records
                   if kind == RECORD_EXPERIMENT]
        captures = [buf[start:end] for kind, start, end in records
                    if kind == RECORD_CAPTURE]
        events = [buf[start:end] for kind, start, end in records
                  if kind == RECORD_EVENT]
        shards.append((global_index, name, markers, captures, events))
        shards_meta.append({
            "index": global_index,
            "name": name,
            "source": str(path.parent.parent.name),
            "events": len(events),
            "captures": len(captures),
        })
        events_dropped += shard_meta.get("events_dropped", 0)
        corr_ids_assigned += shard_meta.get("corr_ids_assigned", 0)
    meta = {
        "label": label,
        "sim_epoch_ps": 0,
        "merged_by": "repro.runtime",
        "shards": shards_meta,
        "experiments": len(shards),
        "events_retained": sum(s["events"] for s in shards_meta),
        "events_dropped": events_dropped,
        "corr_ids_assigned": corr_ids_assigned,
    }
    with CaptureWriter(target, meta=meta) as writer:
        for global_index, name, markers, captures, events in shards:
            # Per-shard experiment indices restart at 0; remap them to
            # the campaign-global index (one experiment per shard, but
            # the loop tolerates shards carrying several).
            local_indices = sorted(
                {marker.get("index", 0) for marker in markers}
            ) or [0]
            remap = {
                local: global_index + offset
                for offset, local in enumerate(local_indices)
            }
            for marker in markers:
                marker["index"] = remap.get(marker.get("index", 0),
                                            global_index)
                marker["shard"] = shard_dir(".", global_index, name).name
                writer.write_experiment(marker)
            for kind, bodies in ((RECORD_CAPTURE, captures),
                                 (RECORD_EVENT, events)):
                for body in bodies:
                    writer.copy_record(kind, body, remap.get(
                        experiment_index_of(kind, body), global_index))
    return target


def telemetry_dir(shard: Union[str, Path]) -> Path:
    """A shard's telemetry output directory."""
    return Path(shard) / TELEMETRY_SUBDIR


def capture_dir(shard: Union[str, Path]) -> Path:
    """A shard's capture output directory."""
    return Path(shard) / CAPTURE_SUBDIR


def merged_metrics_path(root: Union[str, Path]) -> Path:
    """Where the merged ``metrics.json`` lands under an artifacts root."""
    return Path(root) / TELEMETRY_SUBDIR / "metrics.json"


def merged_capture_path(root: Union[str, Path]) -> Path:
    """Where the merged ``capture.rcap`` lands under an artifacts root."""
    return Path(root) / CAPTURE_SUBDIR / CAPTURE_FILE_NAME
