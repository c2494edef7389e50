"""Campaign executors: one code path, serial or sharded.

:meth:`repro.nftape.campaign.Campaign.run` drives an executor's
``execute()`` generator and consumes ``(index, result)`` pairs **in
experiment order** — the executor decides *how* the experiments run:

* :class:`SerialExecutor` — in-process, one at a time.  Runs live
  ``Experiment`` objects for legacy campaigns, or spec jobs through the
  same :func:`~repro.runtime.worker.execute_job` path the workers use.
* :class:`PooledExecutor` — a ``multiprocessing`` worker pool running
  spec jobs N-at-a-time, each in a fresh process on a fresh test bed
  with its deterministically derived seed.  Results are **order-merged**:
  however the shards race, the pairs come out sorted by experiment
  index, so the resulting table is bit-identical to a serial run.

Robustness (pooled): every experiment gets a wall-clock timeout; a
worker that crashes or times out is replaced by a fresh worker re-running
the same seed, up to ``max_retries`` times.

Checkpoint (every executor, fabric included): each completed experiment
is recorded in the sqlite :class:`~repro.runtime.store.ResultStore` at
``<artifacts_dir>/results.sqlite`` *before* ``experiment_finished`` is
announced, so an interrupted campaign resumes — under any executor —
without re-running finished experiments.

Wall-clock note: this module (and :mod:`repro.runtime.worker`) carries
the scoped SIM001 allowance alongside :mod:`repro.telemetry` — the
engine times and kills *host* worker processes, and no wall-clock value
can reach simulated time (workers rebuild their simulators from the
derived seed alone).
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import CampaignError
from repro.nftape.results import ExperimentResult
from repro.runtime.artifacts import merge_artifacts
from repro.runtime.events import EVENTS, emit
from repro.runtime.spec import CampaignSpec, spec_summary
from repro.runtime.store import (
    STORE_FILE_NAME,
    ResultStore,
    result_from_dict,
    spec_digest,
)
from repro.runtime.worker import (
    ExperimentJob,
    execute_job,
    job_for,
    run_job_in_child,
)

__all__ = [
    "SerialExecutor",
    "PooledExecutor",
    "DEFAULT_TIMEOUT_S",
    "SPEC_FILE_NAME",
    "default_start_method",
]

#: File name of the campaign-shape summary written into the artifacts
#: root (see :func:`repro.runtime.spec.spec_summary`).
SPEC_FILE_NAME = "spec.json"

#: The JSONL checkpoint older builds kept beside the store; resume
#: refuses a home that has only this file rather than start fresh.
RETIRED_JOURNAL_NAME = "journal.jsonl"

#: Default per-experiment wall-clock timeout (generous: scaled paper
#: experiments run in seconds; a stuck shard should not stall a shift).
DEFAULT_TIMEOUT_S = 900.0

#: Minimum wall seconds between the pooled executor's heartbeat events
#: (only emitted while an event bus is installed — see
#: :mod:`repro.runtime.events`).
HEARTBEAT_INTERVAL_S = 1.0

#: Result fields accumulated into the periodic ``snapshot`` events
#: (counter deltas since the previous snapshot).
SNAPSHOT_FIELDS = (
    "messages_sent",
    "messages_received",
    "injections",
    "send_failures",
    "checksum_drops",
)


def default_start_method() -> str:
    """``fork`` where the platform offers it (fast), else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class _ExecutorBase:
    """Store/resume/artifact plumbing shared by every executor.

    ``journal_path`` is the explicit path of the checkpoint store file;
    without it the store lives at ``<artifacts_dir>/results.sqlite``.
    """

    def __init__(
        self,
        journal_path: Optional[Union[str, Path]] = None,
        resume: bool = False,
        artifacts_dir: Optional[Union[str, Path]] = None,
        label: Optional[str] = None,
        events_label: Optional[str] = None,
    ) -> None:
        self.journal_path = None if journal_path is None else Path(journal_path)
        self.resume = resume
        self.artifacts_dir = (
            None if artifacts_dir is None else Path(artifacts_dir)
        )
        self.label = label
        #: Campaign key the lifecycle events are published under; when
        #: unset it falls back to ``label`` / the spec name.  The server
        #: sets it to the campaign id so event streams stay unique while
        #: artifact labels (and hence insight digests) match offline runs.
        self.events_label = events_label
        #: Experiment indices actually executed this run (for tests/UX).
        self.executed: List[int] = []
        #: Indices restored from the store instead of re-run.
        self.skipped: List[int] = []
        #: Retries performed, keyed by experiment index.
        self.retries: Dict[int, int] = {}
        #: Summary dict of the artifact merge (once performed).
        self.merge_summary: Optional[Dict[str, Any]] = None
        self._events_campaign: Optional[str] = None
        self._snapshot_totals: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # event emission (disabled-is-free: one slot read when no bus)
    # ------------------------------------------------------------------

    def _events_key(self, campaign: Any,
                    spec: Optional[CampaignSpec]) -> str:
        """The campaign key lifecycle events are published under."""
        if self.events_label is not None:
            return self.events_label
        if self.label is not None:
            return self.label
        if spec is not None:
            return spec.name
        return getattr(campaign, "name", "campaign")

    def _emit(self, kind: str, **payload: Any) -> None:
        if not EVENTS.active or self._events_campaign is None:
            return
        emit(self._events_campaign, kind, **payload)

    def _emit_finished(self, index: int, name: str,
                       result: ExperimentResult) -> None:
        """``experiment_finished`` plus the counter-delta ``snapshot``."""
        if not EVENTS.active or self._events_campaign is None:
            return
        emit(
            self._events_campaign, "experiment_finished",
            index=index, name=name,
            messages_sent=result.messages_sent,
            messages_received=result.messages_received,
            injections=result.injections,
        )
        deltas: Dict[str, int] = {}
        for field in SNAPSHOT_FIELDS:
            value = int(getattr(result, field, 0) or 0)
            deltas[field] = value
            self._snapshot_totals[field] = (
                self._snapshot_totals.get(field, 0) + value
            )
        done = self._snapshot_totals.get("experiments", 0) + 1
        self._snapshot_totals["experiments"] = done
        emit(
            self._events_campaign, "snapshot",
            experiments_done=done,
            deltas=deltas,
            totals=dict(self._snapshot_totals),
        )

    # ------------------------------------------------------------------

    def _store_path(self) -> Optional[Path]:
        """Where the checkpoint store lives (``None``: no checkpoint)."""
        if self.journal_path is not None:
            return self.journal_path
        if self.artifacts_dir is not None:
            return self.artifacts_dir / STORE_FILE_NAME
        if self.resume:
            raise CampaignError(
                "resume needs a store home: pass artifacts_dir (the "
                f"store lives at DIR/{STORE_FILE_NAME})"
            )
        return None

    def _open_store(
        self, spec: Optional[CampaignSpec]
    ) -> Tuple[Optional[ResultStore], str, Dict[int, ExperimentResult]]:
        """Open the checkpoint store and register ``spec`` in it.

        Returns ``(store, digest, completed)``; ``completed`` holds the
        winners a resume restores.  Resume refuses a home whose only
        checkpoint is a retired JSONL journal, and a store that holds
        this campaign's name under a different spec digest (the spec
        was edited since the interrupted run).
        """
        path = self._store_path()
        if path is None:
            return None, "", {}
        if spec is None:
            if self.journal_path is None and not self.resume:
                return None, "", {}  # legacy campaign: no checkpoint
            raise CampaignError(
                "checkpointing requires a spec-based campaign "
                "(build it with Campaign.from_spec)"
            )
        retired = path.with_name(RETIRED_JOURNAL_NAME)
        if self.resume and not path.exists() and retired.exists():
            raise CampaignError(
                f"{retired} is a retired JSONL journal and {path} does "
                "not exist; this build resumes only from the result "
                "store (run without resume to start fresh)"
            )
        digest = spec_digest(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        store = ResultStore(path)
        try:
            if self.resume:
                named = sorted(
                    row["spec_digest"] for row in store.campaigns()
                    if row["name"] == spec.name
                )
                if named and digest not in named:
                    raise CampaignError(
                        f"result store {path} holds campaign "
                        f"{spec.name!r} under a different spec digest "
                        f"({named[0]}, expected {digest}); refusing to "
                        "resume"
                    )
            store.begin(spec, resume=self.resume)
            completed = store.completed(digest) if self.resume else {}
        except BaseException:
            store.close()
            raise
        return store, digest, completed

    def _write_spec(self, spec: Optional[CampaignSpec]) -> None:
        """Drop ``spec.json`` into the artifacts root (offline analyzers
        — ``repro.insight`` — read the campaign's shape from it)."""
        if self.artifacts_dir is None or spec is None:
            return
        self.artifacts_dir.mkdir(parents=True, exist_ok=True)
        (self.artifacts_dir / SPEC_FILE_NAME).write_text(
            json.dumps(spec_summary(spec), indent=2, sort_keys=True) + "\n"
        )

    def _merge(self, spec: CampaignSpec) -> None:
        if self.artifacts_dir is None:
            return
        entries = [
            (index, experiment.name)
            for index, experiment in enumerate(spec.experiments)
        ]
        self.merge_summary = merge_artifacts(
            self.artifacts_dir, entries, label=self.label or spec.name
        )
        self._emit(
            "shard_merged",
            telemetry_shards=self.merge_summary.get("telemetry_shards", 0),
            capture_shards=self.merge_summary.get("capture_shards", 0),
            missing_shards=list(self.merge_summary.get("missing_shards", [])),
        )


class SerialExecutor(_ExecutorBase):
    """Run every experiment in-process, in order.

    ``Campaign.run()`` with no executor argument uses this with default
    options — behaviourally identical to the pre-engine serial loop.
    Spec-based campaigns additionally get the store checkpoint, resume,
    and per-experiment artifact shards (merged on completion) through
    the exact same code path the pooled workers run.
    """

    def execute(self, campaign: Any,
                progress: Optional[Any] = None
                ) -> Iterator[Tuple[int, ExperimentResult]]:
        """Yield ``(index, result)`` pairs in experiment order."""
        spec: Optional[CampaignSpec] = getattr(campaign, "spec", None)
        self._events_campaign = self._events_key(campaign, spec)
        store, digest, completed = self._open_store(spec)
        try:
            yield from self._run_serial(campaign, spec, store, digest,
                                        completed, progress)
        finally:
            if store is not None:
                store.close()

    def _run_serial(self, campaign: Any, spec: Optional[CampaignSpec],
                    store: Optional[ResultStore], digest: str,
                    completed: Dict[int, ExperimentResult],
                    progress: Optional[Any]
                    ) -> Iterator[Tuple[int, ExperimentResult]]:
        self._write_spec(spec)
        total = len(campaign.experiments) if spec is None else len(spec)
        self._emit("campaign_started", executor="serial", experiments=total,
                   restored=len(completed))
        for index in range(total):
            if index in completed:
                self.skipped.append(index)
                if progress is not None:
                    progress(f"[{index + 1}/{total}] restored "
                             f"{completed[index].name} from store")
                self._emit("experiment_restored", index=index,
                           name=completed[index].name)
                yield index, completed[index]
                continue
            if spec is not None:
                job = job_for(
                    spec, index,
                    artifacts_root=(
                        None if self.artifacts_dir is None
                        else str(self.artifacts_dir)
                    ),
                    label=self.label,
                )
                if progress is not None:
                    progress(f"[{index + 1}/{total}] running {job.name}")
                self._emit("experiment_started", index=index, name=job.name,
                           seed=job.seed, attempt=0)
                result = execute_job(job, in_process=True)
                if store is not None:
                    store.record(digest, index, job.name, job.seed, result)
            else:
                experiment = campaign.experiments[index]
                if progress is not None:
                    progress(
                        f"[{index + 1}/{total}] running {experiment.name}"
                    )
                self._emit("experiment_started", index=index,
                           name=experiment.name, attempt=0)
                result = experiment.run()
            self.executed.append(index)
            self._emit_finished(index, result.name, result)
            yield index, result
        if spec is not None:
            self._merge(spec)
        self._emit("campaign_finished", experiments=total,
                   executed=len(self.executed), restored=len(self.skipped))


class _Slot:
    """One live worker process and its result pipe."""

    __slots__ = ("job", "process", "conn", "deadline")

    def __init__(self, job: ExperimentJob, process: Any, conn: Any,
                 deadline: Optional[float]) -> None:
        self.job = job
        self.process = process
        self.conn = conn
        self.deadline = deadline


class PooledExecutor(_ExecutorBase):
    """Shard a spec-based campaign across a worker-process pool.

    Parameters
    ----------
    workers:
        Maximum experiments in flight at once.
    timeout_s:
        Per-experiment wall-clock budget; ``None`` disables the timeout.
    max_retries:
        How many fresh-worker re-runs (same derived seed) a crashed or
        timed-out experiment gets before the campaign fails.
    start_method:
        ``multiprocessing`` start method; default ``fork`` when
        available, else ``spawn``.
    """

    def __init__(
        self,
        workers: int = 2,
        timeout_s: Optional[float] = DEFAULT_TIMEOUT_S,
        max_retries: int = 1,
        start_method: Optional[str] = None,
        journal_path: Optional[Union[str, Path]] = None,
        resume: bool = False,
        artifacts_dir: Optional[Union[str, Path]] = None,
        label: Optional[str] = None,
        events_label: Optional[str] = None,
    ) -> None:
        super().__init__(journal_path=journal_path, resume=resume,
                         artifacts_dir=artifacts_dir, label=label,
                         events_label=events_label)
        if workers < 1:
            raise CampaignError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.start_method = start_method or default_start_method()

    # ------------------------------------------------------------------

    def execute(self, campaign: Any,
                progress: Optional[Any] = None
                ) -> Iterator[Tuple[int, ExperimentResult]]:
        """Yield ``(index, result)`` in experiment order (order-merge)."""
        spec: Optional[CampaignSpec] = getattr(campaign, "spec", None)
        if spec is None:
            raise CampaignError(
                "PooledExecutor needs a declarative campaign: build it "
                "with Campaign.from_spec(CampaignSpec(...)) so experiments "
                "can be shipped to worker processes"
            )
        self._events_campaign = self._events_key(campaign, spec)
        store, digest, ready = self._open_store(spec)
        try:
            yield from self._run_pooled(spec, store, digest, ready,
                                        progress)
        finally:
            if store is not None:
                store.close()

    def _run_pooled(self, spec: CampaignSpec,
                    store: Optional[ResultStore], digest: str,
                    ready: Dict[int, ExperimentResult],
                    progress: Optional[Any]
                    ) -> Iterator[Tuple[int, ExperimentResult]]:
        self._write_spec(spec)
        self.skipped = sorted(ready)
        total = len(spec)
        self._emit("campaign_started", executor="pooled",
                   experiments=total, workers=self.workers,
                   restored=len(ready))
        for index in self.skipped:
            self._emit("experiment_restored", index=index,
                       name=ready[index].name)
        context = multiprocessing.get_context(self.start_method)
        pending: List[int] = [i for i in range(total) if i not in ready]
        attempts: Dict[int, int] = {index: 0 for index in pending}
        running: Dict[int, _Slot] = {}
        next_yield = 0

        def _spawn(index: int) -> None:
            job = job_for(
                spec, index,
                attempt=attempts[index],
                artifacts_root=(
                    None if self.artifacts_dir is None
                    else str(self.artifacts_dir)
                ),
                label=self.label,
            )
            parent_conn, child_conn = context.Pipe(duplex=False)
            process = context.Process(
                target=run_job_in_child, args=(child_conn, job),
                daemon=True,
                name=f"repro-exp-{index:03d}-a{attempts[index]}",
            )
            process.start()
            child_conn.close()
            deadline = (
                None if self.timeout_s is None
                else time.monotonic() + self.timeout_s
            )
            running[index] = _Slot(job, process, parent_conn, deadline)
            self._emit("experiment_started", index=index, name=job.name,
                       seed=job.seed, attempt=attempts[index])

        def _reap(index: int, reason: str, timed_out: bool = False) -> None:
            """Kill a slot and either re-queue its job or fail."""
            slot = running.pop(index)
            if slot.process.is_alive():
                slot.process.terminate()
            slot.process.join(timeout=5)
            slot.conn.close()
            attempts[index] += 1
            if timed_out:
                self._emit("experiment_timeout", index=index,
                           name=slot.job.name, timeout_s=self.timeout_s,
                           attempt=attempts[index] - 1)
            if attempts[index] > self.max_retries:
                self._shutdown(running)
                self._emit("experiment_failed", index=index,
                           name=slot.job.name, reason=reason,
                           attempts=attempts[index])
                self._emit("campaign_failed", experiments=total,
                           failed_index=index, reason=reason)
                raise CampaignError(
                    f"experiment {index} ({slot.job.name!r}) failed after "
                    f"{attempts[index]} attempt(s): {reason}"
                )
            self.retries[index] = self.retries.get(index, 0) + 1
            self._emit("experiment_retried", index=index,
                       name=slot.job.name, reason=reason,
                       attempt=attempts[index])
            if progress is not None:
                progress(
                    f"retrying {slot.job.name} ({reason}, attempt "
                    f"{attempts[index] + 1}/{self.max_retries + 1})"
                )
            pending.insert(0, index)

        next_heartbeat = time.monotonic() + HEARTBEAT_INTERVAL_S
        try:
            while pending or running:
                while pending and len(running) < self.workers:
                    _spawn(pending.pop(0))
                wait_timeout: Optional[float] = None
                if self.timeout_s is not None and running:
                    now = time.monotonic()
                    wait_timeout = max(
                        0.05,
                        min(slot.deadline for slot in running.values())
                        - now,
                    )
                if EVENTS.active and wait_timeout is None:
                    # Bound the wait so heartbeats keep flowing even
                    # with no per-experiment deadline configured.
                    wait_timeout = HEARTBEAT_INTERVAL_S
                ready_conns = multiprocessing.connection.wait(
                    [slot.conn for slot in running.values()],
                    timeout=wait_timeout,
                )
                now = time.monotonic()
                if EVENTS.active and now >= next_heartbeat:
                    next_heartbeat = now + HEARTBEAT_INTERVAL_S
                    self._emit(
                        "heartbeat",
                        running=sorted(running),
                        pending=len(pending),
                        completed=len(self.executed) + len(self.skipped),
                        experiments=total,
                    )
                for index in list(running):
                    slot = running[index]
                    # A slot counts as ready if wait() flagged it OR a
                    # message is already buffered: a worker may finish
                    # and exit between wait() returning (woken by some
                    # *other* slot) and this liveness sweep — its result
                    # must be read, not mistaken for a crash.
                    if slot.conn in ready_conns or slot.conn.poll():
                        try:
                            status, payload = slot.conn.recv()
                        except EOFError:
                            _reap(index, "worker crashed "
                                         f"(exit {slot.process.exitcode})")
                            continue
                        slot.process.join()
                        slot.conn.close()
                        running.pop(index)
                        if status != "ok":
                            self._shutdown(running)
                            self._emit(
                                "experiment_failed", index=index,
                                name=payload.get("name"),
                                reason=f"{payload.get('type')}: "
                                       f"{payload.get('message')}",
                                attempts=attempts[index] + 1,
                            )
                            self._emit(
                                "campaign_failed", experiments=total,
                                failed_index=index,
                                reason=payload.get("type"),
                            )
                            raise CampaignError(
                                f"experiment {index} "
                                f"({payload.get('name')!r}) raised "
                                f"{payload.get('type')}: "
                                f"{payload.get('message')}\n"
                                f"{payload.get('traceback', '')}"
                            )
                        ready[index] = result_from_dict(payload["result"])
                        self.executed.append(index)
                        if store is not None:
                            store.record(
                                digest, index, payload["name"],
                                payload["seed"], ready[index],
                                attempt=payload["attempt"],
                            )
                        self._emit_finished(
                            index, payload["name"], ready[index]
                        )
                        if progress is not None:
                            done = len(self.executed) + len(self.skipped)
                            progress(
                                f"[{done}/{total}] finished "
                                f"{payload['name']}"
                            )
                    elif slot.deadline is not None and now >= slot.deadline:
                        _reap(
                            index,
                            f"timed out after {self.timeout_s:.0f}s wall",
                            timed_out=True,
                        )
                    elif not slot.process.is_alive():
                        _reap(index, "worker crashed "
                                     f"(exit {slot.process.exitcode})")
                while next_yield in ready:
                    yield next_yield, ready.pop(next_yield)
                    next_yield += 1
            while next_yield in ready:
                yield next_yield, ready.pop(next_yield)
                next_yield += 1
        finally:
            self._shutdown(running)
        self.executed.sort()
        self._merge(spec)
        self._emit("campaign_finished", experiments=total,
                   executed=len(self.executed), restored=len(self.skipped),
                   retried=sum(self.retries.values()))

    @staticmethod
    def _shutdown(running: Dict[int, _Slot]) -> None:
        """Terminate any still-live workers (error/interrupt path)."""
        for slot in running.values():
            if slot.process.is_alive():
                slot.process.terminate()
            slot.process.join(timeout=5)
            slot.conn.close()
        running.clear()
