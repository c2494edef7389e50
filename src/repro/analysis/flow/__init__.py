"""simflow — CFG + dataflow analyses over the reproduction's source.

Two analysis families, both running on the per-function control-flow
graphs built by :mod:`repro.analysis.flow.cfg` or on cross-module
structure:

* **FLOW1xx** (:mod:`.taint`) — determinism taint: nondeterminism
  sources (wall clock, unseeded randomness, ``id()``, unsorted
  listings, set-order iteration) must not reach output sinks (stats
  tables, digests, journal/capture writes, ``derive_seed`` arguments,
  telemetry metrics).
* **FLOW2xx** (:mod:`.parallel`) — parallel safety: frozen specs stay
  frozen, worker-reachable module state stays immutable, closures stay
  out of the pickle boundary.

Run them with ``python -m repro.cli lint --flow``; accepted findings
live in ``lint-baseline.json`` (see :mod:`.baseline`).
"""

from __future__ import annotations

from repro.analysis.flow.baseline import (
    BaselineDelta,
    apply_baseline,
    baseline_key,
    find_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.flow.cfg import CFG, BasicBlock, LoopBind, build_cfg
from repro.analysis.flow.dataflow import join, replay, solve_forward
from repro.analysis.flow.parallel import (
    FrozenSpecMutationRule,
    PickleBoundaryClosureRule,
    WorkerSharedStateRule,
)
from repro.analysis.flow.taint import DeterminismTaintRule, Taint

__all__ = [
    "CFG",
    "BasicBlock",
    "LoopBind",
    "build_cfg",
    "join",
    "solve_forward",
    "replay",
    "Taint",
    "DeterminismTaintRule",
    "FrozenSpecMutationRule",
    "WorkerSharedStateRule",
    "PickleBoundaryClosureRule",
    "BaselineDelta",
    "baseline_key",
    "load_baseline",
    "write_baseline",
    "apply_baseline",
    "find_baseline",
    "FLOW_MODULE_RULES",
    "FLOW_PROJECT_RULES",
]

#: The simflow per-module rule pack.
FLOW_MODULE_RULES = (
    DeterminismTaintRule,
    FrozenSpecMutationRule,
    PickleBoundaryClosureRule,
)

#: The simflow cross-module rule pack.
FLOW_PROJECT_RULES = (
    WorkerSharedStateRule,
)
