"""The distributed campaign fabric: pull-queue workers + result store.

:class:`PooledExecutor` pushes jobs at a pool it owns; the fabric
inverts the arrow.  A campaign is published as a **work queue** —
``queue.jsonl`` under the fabric directory, one line per experiment —
and long-lived worker processes *pull* ``(campaign_digest, index)``
leases from it, run the unchanged
:func:`~repro.runtime.worker.execute_job` path, and push results into
the shared sqlite :class:`~repro.runtime.store.ResultStore`.  Today the
workers are processes spawned on this host; because every coordination
primitive is a file (queue, lease, tombstone) plus a WAL sqlite
database, a worker on another host mounting the same directory speaks
the exact same protocol — that is the upgrade path, not a rewrite.

Failure model (every mode is chaos-tested in ``tests/chaos/``):

========================  =============================================
failure                   recovery
========================  =============================================
worker killed mid-lease   coordinator sees the dead holder, forfeits
                          the lease immediately, re-issues with the
                          same derived seed, respawns a worker
worker hangs past         lease deadline passes; forfeit + re-issue;
the lease deadline        the late result (if it ever lands) loses the
                          winner race and changes nothing
torn sqlite write         store quarantines the corrupt file at open;
                          a resumed run re-executes what was lost
duplicate lease delivery  both attempts run; the store's one-winner
                          transaction and the shard promotion rename
                          keep exactly one of each
queue file truncated      workers park (a torn queue parses as "no
                          work"); the coordinator detects and
                          atomically rewrites the queue from the spec
========================  =============================================

Every recovery preserves the repository's core invariant: results are
**byte-identical at any worker count**, because seeds derive from
``(base_seed, index, name)`` and merges are index-ordered — re-running
an experiment can only reproduce it.

Artifact merging is *incremental*: the coordinator folds each completed
shard while later experiments are still running
(:class:`~repro.runtime.artifacts.ShardMerger`), so the merge overlaps
execution instead of serializing behind it; ``executor.timings``
reports the overlap and ``benchmarks/bench_parallel_campaign.py``
records it.

Wall-clock note: this module carries the :mod:`repro.runtime` SIM001
allowance — lease deadlines and poll timers are *host* time and never
reach simulated time (workers rebuild simulators from derived seeds).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import CampaignError
from repro.nftape.results import ExperimentResult
from repro.runtime.artifacts import ShardMerger
from repro.runtime.executors import _ExecutorBase, default_start_method
from repro.runtime.spec import CampaignSpec
from repro.runtime.store import STORE_FILE_NAME, ResultStore, spec_digest
from repro.runtime.worker import (
    claim_lease,
    execute_job,
    forfeit_count,
    forfeit_lease,
    job_for,
    read_lease,
    release_lease,
)

__all__ = [
    "QUEUE_FILE_NAME",
    "FABRIC_SUBDIR",
    "DEFAULT_LEASE_TIMEOUT_S",
    "write_queue",
    "read_queue",
    "run_fabric_worker",
    "FabricExecutor",
]

#: The work queue file under the fabric directory.
QUEUE_FILE_NAME = "queue.jsonl"
#: Fabric coordination state (queue + leases) under the artifacts root.
FABRIC_SUBDIR = "fabric"
#: Queue file-format version.
QUEUE_VERSION = 1
#: Default lease deadline: generous for real experiments; chaos tests
#: shrink it to force re-issue quickly.
DEFAULT_LEASE_TIMEOUT_S = 300.0


# ---------------------------------------------------------------------------
# the work queue file
# ---------------------------------------------------------------------------


def write_queue(fabric_dir: Union[str, Path], digest: str,
                spec: CampaignSpec) -> Path:
    """Atomically (re)write the campaign's work queue.

    Written to a temp name and ``os.replace``-d into place, so a reader
    never observes a partial queue — and a *damaged* queue (truncated,
    edited, torn by a crash) is repaired by simply calling this again:
    the queue is a pure function of the spec.
    """
    fabric_dir = Path(fabric_dir)
    fabric_dir.mkdir(parents=True, exist_ok=True)
    target = fabric_dir / QUEUE_FILE_NAME
    lines = [json.dumps({
        "type": "fabric-queue",
        "version": QUEUE_VERSION,
        "digest": digest,
        "name": spec.name,
        "experiments": len(spec),
    }, sort_keys=True)]
    for index, experiment in enumerate(spec.experiments):
        lines.append(json.dumps({
            "type": "item",
            "index": index,
            "name": experiment.name,
            "seed": spec.seed_for(index),
        }, sort_keys=True))
    scratch = target.with_name(target.name + ".tmp")
    scratch.write_text("\n".join(lines) + "\n", encoding="utf-8")
    os.replace(scratch, target)
    return target


def read_queue(
    fabric_dir: Union[str, Path], digest: Optional[str] = None
) -> Optional[List[Tuple[int, str, int]]]:
    """Parse the queue into ``(index, name, seed)`` items.

    Returns ``None`` whenever the queue is unusable — missing, torn,
    truncated, header mismatch — because a worker must *park*, not
    guess, until the coordinator repairs the file.
    """
    path = Path(fabric_dir) / QUEUE_FILE_NAME
    try:
        raw_lines = path.read_text(encoding="utf-8").splitlines()
    except OSError:
        return None
    if not raw_lines:
        return None
    try:
        header = json.loads(raw_lines[0])
        if header.get("type") != "fabric-queue" \
                or header.get("version") != QUEUE_VERSION:
            return None
        if digest is not None and header.get("digest") != digest:
            return None
        items: List[Tuple[int, str, int]] = []
        for raw in raw_lines[1:]:
            doc = json.loads(raw)
            if doc.get("type") != "item":
                return None
            items.append((int(doc["index"]), str(doc["name"]),
                          int(doc["seed"])))
    except (ValueError, KeyError, json.JSONDecodeError):
        return None
    if len(items) != header.get("experiments") \
            or [i for i, _, _ in items] != list(range(len(items))):
        return None
    return items


# ---------------------------------------------------------------------------
# the worker loop (child-process entry point)
# ---------------------------------------------------------------------------


def _failed_marker(leases_dir: Union[str, Path], index: int) -> Path:
    return Path(leases_dir) / f"exp-{index:03d}.failed"


def run_fabric_worker(
    worker_id: str,
    spec: CampaignSpec,
    fabric_dir: str,
    store_path: str,
    artifacts_root: Optional[str],
    label: Optional[str],
    lease_timeout_s: float,
    poll_s: float = 0.02,
    rogue_index: Optional[int] = None,
) -> None:
    """Pull leases and run experiments until the campaign is complete.

    The child-process entry point of every fabric worker.  Loop: read
    the queue, skip completed indices, claim the first available lease
    (an atomic ``O_CREAT|O_EXCL`` create), run the job through the one
    shared :func:`execute_job` path, record the result, release the
    lease.  A deterministic experiment *error* (as opposed to a crash)
    is reported through a ``.failed`` marker file the coordinator turns
    into a campaign failure.

    ``rogue_index`` is the duplicate-lease-delivery chaos hook: the
    worker executes that one experiment *without* claiming its lease —
    exactly what a network partition delivering one lease twice looks
    like — then exits.  The store's one-winner transaction absorbs it.
    """
    digest = spec_digest(spec)
    leases_dir = Path(fabric_dir) / "leases"
    store = ResultStore(store_path)
    try:
        while True:
            items = read_queue(fabric_dir, digest)
            if items is None:
                time.sleep(poll_s)  # queue torn; coordinator repairs
                continue
            done = store.completed_indices(digest)
            if rogue_index is None and len(done) >= len(items):
                return
            claimed: Optional[Tuple[int, str, int, int]] = None
            for index, name, seed in items:
                if index in done:
                    continue
                if rogue_index is not None:
                    if index != rogue_index:
                        continue
                    claimed = (index, name, seed,
                               forfeit_count(leases_dir, index))
                    break
                lease = claim_lease(leases_dir, index, worker_id,
                                    lease_timeout_s)
                if lease is not None:
                    claimed = (index, name, seed, lease.attempt)
                    break
            if claimed is None:
                if rogue_index is not None:
                    return  # duplicate target already completed
                time.sleep(poll_s)
                continue
            index, name, seed, attempt = claimed
            job = job_for(spec, index, attempt=attempt,
                          artifacts_root=artifacts_root, label=label)
            try:
                result = execute_job(job)
            except BaseException as exc:  # deterministic: don't retry
                import traceback

                marker = _failed_marker(leases_dir, index)
                marker.write_text(json.dumps({
                    "index": index,
                    "name": name,
                    "type": type(exc).__name__,
                    "message": str(exc),
                    "traceback": traceback.format_exc(),
                }, sort_keys=True), encoding="utf-8")
                if rogue_index is not None:
                    return
                continue  # lease kept: blocks pointless re-claims
            store.record(digest, index, name, seed, result,
                         attempt=attempt)
            if rogue_index is not None:
                return
            release_lease(leases_dir, index)
    finally:
        store.close()


# ---------------------------------------------------------------------------
# the coordinator
# ---------------------------------------------------------------------------


class FabricExecutor(_ExecutorBase):
    """Distributed-fabric executor behind the standard ``execute()``.

    Drop-in beside :class:`SerialExecutor` / :class:`PooledExecutor`:
    ``Campaign.run(executor=FabricExecutor(workers=4, ...))`` yields
    ``(index, result)`` pairs in experiment order, byte-identical to a
    serial run.  Differences from the pooled executor:

    * workers, not the coordinator, record results into the shared
      sqlite :class:`ResultStore` (queryable while running; every
      executor resumes from it);
    * workers *pull* work via filesystem leases — a crashed or hung
      worker forfeits its lease and the experiment is re-issued (up to
      ``max_reissues`` times) with the same derived seed;
    * artifact shards merge incrementally, overlapped with execution
      (``timings`` reports the overlap).

    Parameters mirror :class:`PooledExecutor` where they overlap;
    ``lease_timeout_s`` replaces ``timeout_s`` (a deadline on holding a
    lease, not on the experiment as such) and ``max_reissues`` replaces
    ``max_retries``.  With no ``artifacts_dir``, coordination state
    lives in a private temp directory (and ``resume`` is unavailable).
    """

    def __init__(
        self,
        workers: int = 2,
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
        max_reissues: int = 2,
        store_path: Optional[Union[str, Path]] = None,
        fabric_dir: Optional[Union[str, Path]] = None,
        start_method: Optional[str] = None,
        poll_s: float = 0.02,
        resume: bool = False,
        artifacts_dir: Optional[Union[str, Path]] = None,
        label: Optional[str] = None,
        events_label: Optional[str] = None,
        chaos_duplicate_delivery: Optional[int] = None,
    ) -> None:
        super().__init__(resume=resume, artifacts_dir=artifacts_dir,
                         label=label, events_label=events_label)
        if workers < 1:
            raise CampaignError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.lease_timeout_s = lease_timeout_s
        self.max_reissues = max_reissues
        self.start_method = start_method or default_start_method()
        self.poll_s = poll_s
        self.store_path = None if store_path is None else Path(store_path)
        self.fabric_dir = None if fabric_dir is None else Path(fabric_dir)
        self.chaos_duplicate_delivery = chaos_duplicate_delivery
        #: Lease re-issues performed, keyed by experiment index.
        self.reissues: Dict[int, int] = {}
        #: Queue-file repairs performed (truncation recovery).
        self.queue_repairs = 0
        #: Wall-clock accounting for the benchmark: total execute wall,
        #: merge busy time, and how much of the merge overlapped
        #: still-running experiments.
        self.timings: Dict[str, float] = {}

    # ------------------------------------------------------------------

    def _store_path(self) -> Optional[Path]:
        """An explicit ``store_path`` wins over the shared path rule."""
        if self.store_path is not None:
            return self.store_path
        return super()._store_path()

    def _resolve_homes(self) -> Optional[str]:
        """Fill in store/fabric paths; returns a temp root to clean."""
        scratch = None
        self.store_path = self._store_path()
        if self.store_path is None or self.fabric_dir is None:
            if self.artifacts_dir is not None:
                base = Path(self.artifacts_dir)
                base.mkdir(parents=True, exist_ok=True)
            else:
                scratch = tempfile.mkdtemp(prefix="repro-fabric-")
                base = Path(scratch)
            if self.store_path is None:
                self.store_path = base / STORE_FILE_NAME
            if self.fabric_dir is None:
                self.fabric_dir = base / FABRIC_SUBDIR
        return scratch

    def execute(self, campaign: Any,
                progress: Optional[Any] = None
                ) -> Iterator[Tuple[int, ExperimentResult]]:
        """Yield ``(index, result)`` in experiment order (order-merge)."""
        spec: Optional[CampaignSpec] = getattr(campaign, "spec", None)
        if spec is None:
            raise CampaignError(
                "FabricExecutor needs a declarative campaign: build it "
                "with Campaign.from_spec(CampaignSpec(...)) so work items "
                "can be published to the fabric queue"
            )
        self._events_campaign = self._events_key(campaign, spec)
        scratch = self._resolve_homes()
        started_wall = time.monotonic()
        store: Optional[ResultStore] = None
        context = multiprocessing.get_context(self.start_method)
        processes: List[Any] = []
        try:
            store, digest, ready = self._open_store(spec)
            total = len(spec)
            self.skipped = sorted(ready)
            self._write_spec(spec)
            leases_dir = Path(self.fabric_dir) / "leases"
            if leases_dir.exists():
                shutil.rmtree(leases_dir)  # no workers are live yet
            leases_dir.mkdir(parents=True, exist_ok=True)
            write_queue(self.fabric_dir, digest, spec)

            self._emit("campaign_started", executor="fabric",
                       experiments=total, workers=self.workers,
                       restored=len(ready), digest=digest)
            for index in self.skipped:
                self._emit("experiment_restored", index=index,
                           name=ready[index].name)

            def _spawn(worker_index: int,
                       rogue_index: Optional[int] = None) -> Any:
                process = context.Process(
                    target=run_fabric_worker,
                    args=(
                        f"w{worker_index}", spec, str(self.fabric_dir),
                        str(self.store_path),
                        None if self.artifacts_dir is None
                        else str(self.artifacts_dir),
                        self.label or spec.name,
                        self.lease_timeout_s,
                    ),
                    kwargs={"rogue_index": rogue_index},
                    daemon=True,
                    name=(f"repro-fabric-w{worker_index}"
                          if rogue_index is None
                          else f"repro-fabric-rogue{worker_index}"),
                )
                process.start()
                return process

            processes = [_spawn(i) for i in range(self.workers)]
            if self.chaos_duplicate_delivery is not None:
                processes.append(_spawn(
                    self.workers,
                    rogue_index=self.chaos_duplicate_delivery,
                ))
            worker_pids = {p.pid for p in processes}

            started: set = set(self.skipped)
            merger = (
                None if self.artifacts_dir is None
                else ShardMerger(self.artifacts_dir,
                                 self.label or spec.name)
            )
            next_merge = 0
            merge_busy = 0.0
            merge_overlap = 0.0
            next_yield = 0
            respawns = 0
            respawn_budget = self.workers * (self.max_reissues + 2)

            def _fail(index: int, name: str, reason: str) -> None:
                self._emit("experiment_failed", index=index, name=name,
                           reason=reason,
                           attempts=forfeit_count(leases_dir, index) + 1)
                self._emit("campaign_failed", experiments=total,
                           failed_index=index, reason=reason)
                raise CampaignError(
                    f"experiment {index} ({name!r}) failed on the "
                    f"fabric: {reason}"
                )

            while len(ready) < total:
                # 1. collect newly completed experiments from the store
                winners = store.completed(digest)
                for index in sorted(winners):
                    if index in ready:
                        continue
                    result = winners[index]
                    if index not in started:
                        started.add(index)
                        attempts = store.attempts(digest, index)
                        attempt = next(
                            (a["attempt"] for a in attempts
                             if a["winner"]), 0)
                        self._emit("experiment_started", index=index,
                                   name=result.name,
                                   seed=spec.seed_for(index),
                                   attempt=attempt)
                    ready[index] = result
                    self.executed.append(index)
                    self._emit_finished(index, result.name, result)
                    if progress is not None:
                        progress(f"[{len(ready)}/{total}] finished "
                                 f"{result.name}")

                # 2. lease scan: first-observation events + expiry
                for lease_file in sorted(leases_dir.glob("*.lease")):
                    lease = read_lease(lease_file)
                    if lease is None:
                        continue  # torn mid-write; next poll sees it
                    if lease.index in ready:
                        release_lease(leases_dir, lease.index)
                        continue
                    name = spec.experiments[lease.index].name
                    if lease.index not in started:
                        started.add(lease.index)
                        self._emit("experiment_started",
                                   index=lease.index, name=name,
                                   seed=spec.seed_for(lease.index),
                                   attempt=lease.attempt)
                    holder_dead = (
                        lease.pid in worker_pids
                        and not any(p.pid == lease.pid and p.is_alive()
                                    for p in processes)
                    )
                    if holder_dead or time.time() >= lease.deadline_unix:
                        next_attempt = forfeit_lease(leases_dir,
                                                     lease.index)
                        reason = ("worker died holding the lease"
                                  if holder_dead else
                                  f"lease expired after "
                                  f"{self.lease_timeout_s:g}s")
                        if next_attempt > self.max_reissues:
                            _fail(lease.index, name, reason)
                        self.reissues[lease.index] = (
                            self.reissues.get(lease.index, 0) + 1
                        )
                        self.retries[lease.index] = (
                            self.retries.get(lease.index, 0) + 1
                        )
                        self._emit("fabric_lease_reissued",
                                   index=lease.index, name=name,
                                   attempt=lease.attempt,
                                   next_attempt=next_attempt,
                                   reason=reason)
                        if progress is not None:
                            progress(f"re-issuing {name} ({reason}, "
                                     f"attempt {next_attempt + 1})")

                # 3. deterministic failures reported by workers
                for marker in sorted(leases_dir.glob("*.failed")):
                    try:
                        info = json.loads(
                            marker.read_text(encoding="utf-8"))
                    except (OSError, json.JSONDecodeError):
                        continue  # torn mid-write; next poll
                    _fail(int(info.get("index", -1)),
                          str(info.get("name")),
                          f"{info.get('type')}: {info.get('message')}")

                # 4. queue integrity (truncation / corruption repair)
                if read_queue(self.fabric_dir, digest) is None:
                    write_queue(self.fabric_dir, digest, spec)
                    self.queue_repairs += 1

                # 5. worker liveness: replace the fallen
                for slot, process in enumerate(processes):
                    if process.is_alive() or len(ready) >= total:
                        continue
                    if respawns >= respawn_budget:
                        continue  # expiry path will fail the campaign
                    process.join(timeout=0)
                    replacement = _spawn(self.workers + respawns)
                    processes[slot] = replacement
                    worker_pids.add(replacement.pid)
                    respawns += 1

                # 6. incremental merge: fold the completed prefix now,
                # while later experiments are still running
                if merger is not None:
                    while next_merge < total and next_merge in ready:
                        fold_start = time.monotonic()
                        merger.add(next_merge,
                                   spec.experiments[next_merge].name)
                        fold_wall = time.monotonic() - fold_start
                        merge_busy += fold_wall
                        if len(ready) < total:
                            merge_overlap += fold_wall
                        next_merge += 1

                # 7. stream the ordered prefix to the campaign
                while next_yield in ready:
                    yield next_yield, ready[next_yield]
                    next_yield += 1

                if len(ready) < total:
                    time.sleep(self.poll_s)

            while next_yield in ready:
                yield next_yield, ready[next_yield]
                next_yield += 1

            if merger is not None:
                while next_merge < total:
                    fold_start = time.monotonic()
                    merger.add(next_merge,
                               spec.experiments[next_merge].name)
                    merge_busy += time.monotonic() - fold_start
                    next_merge += 1
                finalize_start = time.monotonic()
                self.merge_summary = merger.finalize()
                merge_busy += time.monotonic() - finalize_start
                self._emit(
                    "shard_merged",
                    telemetry_shards=self.merge_summary.get(
                        "telemetry_shards", 0),
                    capture_shards=self.merge_summary.get(
                        "capture_shards", 0),
                    missing_shards=list(self.merge_summary.get(
                        "missing_shards", [])),
                )
            self.executed.sort()
            self.timings = {
                "execute_wall_s": time.monotonic() - started_wall,
                "merge_busy_s": merge_busy,
                "merge_overlap_s": merge_overlap,
            }
            self._emit("campaign_finished", experiments=total,
                       executed=len(self.executed),
                       restored=len(self.skipped),
                       retried=sum(self.retries.values()),
                       reissued=sum(self.reissues.values()))
        finally:
            for process in processes:
                if process.is_alive():
                    process.terminate()
                process.join(timeout=5)
            if store is not None:
                store.close()
            if scratch is not None:
                shutil.rmtree(scratch, ignore_errors=True)
