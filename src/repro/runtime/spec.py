"""Declarative, picklable experiment descriptions.

The paper's campaigns are thousands of independent experiments, each
re-armed from a known good state (§4.2).  To fan them across worker
processes the description of an experiment has to travel — so instead of
live :class:`~repro.nftape.experiment.Experiment` objects (which close
over simulators, devices, and callbacks), campaigns are built from
**frozen spec dataclasses** that hold *data only*:

* :class:`PlanSpec` — which injector configuration to upload and how the
  trigger is paced (fault / duty-cycle / inject-now);
* :class:`ExperimentSpec` — name, duration, workload, test-bed options,
  plan, drain time, free-form params;
* :class:`CampaignSpec` — an ordered tuple of experiment specs plus the
  campaign's base seed.

Every spec pickles cleanly and materializes into today's live objects
(``spec.materialize()``) inside whichever process runs it.  Seeds are
**not** stored per experiment: :meth:`CampaignSpec.seed_for` derives
them with the :func:`repro.runtime.seeding.derive_seed` rule, which is
what makes results independent of worker count and completion order.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.errors import ConfigurationError
from repro.hw.registers import InjectorConfig
from repro.nftape.experiment import Experiment, TestbedOptions
from repro.nftape.plan import (
    CompositePlan,
    DutyCyclePlan,
    FaultPlan,
    InjectNowPlan,
)
from repro.nftape.random_faults import RandomBitFlipPlan
from repro.nftape.workload import WorkloadConfig
from repro.runtime.seeding import derive_seed
from repro.sim.timebase import MS

__all__ = [
    "PlanSpec",
    "ExperimentSpec",
    "CampaignSpec",
    "PLAN_KINDS",
    "spec_summary",
]

#: The plan shapes :class:`PlanSpec` can describe, mapped to the live
#: plan classes they materialize into.
PLAN_KINDS = {
    "fault": FaultPlan,
    "duty_cycle": DutyCyclePlan,
    "inject_now": InjectNowPlan,
    "seu": RandomBitFlipPlan,
}


@dataclass(frozen=True, eq=True)
class PlanSpec:
    """A fault plan as data: kind + injector config + pacing knobs.

    ``kind`` selects the live class (see :data:`PLAN_KINDS`); the pacing
    fields that do not apply to the selected kind are simply ignored by
    :meth:`materialize`.
    """

    kind: str
    direction: str
    #: Required for every kind except ``seu``, whose plan synthesizes
    #: its own per-flip configurations.
    config: Optional[InjectorConfig] = None
    use_serial: bool = True
    #: ``fault``: once-mode re-arm period (``None`` = no re-arming).
    rearm_interval_ps: Optional[int] = None
    #: ``duty_cycle``: armed / disarmed window lengths.
    on_ps: int = 1 * MS
    off_ps: int = 3 * MS
    #: ``inject_now``: forced-injection pulse period.
    interval_ps: int = 1 * MS
    #: ``seu``: mean gap between exponentially-paced bit flips, the rng
    #: seed, and the chance a flip lands on the control bit.
    mean_interval_ps: int = 2 * MS
    seed: int = 0
    flip_control_bit_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in PLAN_KINDS:
            raise ConfigurationError(
                f"unknown plan kind {self.kind!r}; "
                f"expected one of {sorted(PLAN_KINDS)}"
            )
        if not self.direction or any(d not in "RL" for d in self.direction):
            raise ConfigurationError(
                f"plan direction must be 'R', 'L', or 'RL', "
                f"got {self.direction!r}"
            )
        if self.config is None and self.kind != "seu":
            raise ConfigurationError(
                f"plan kind {self.kind!r} needs an injector config"
            )

    def materialize(self) -> Any:
        """Build the live plan object this spec describes."""
        if self.kind == "seu":
            return RandomBitFlipPlan(
                direction=self.direction,
                mean_interval_ps=self.mean_interval_ps,
                use_serial=self.use_serial,
                seed=self.seed,
                flip_control_bit_probability=(
                    self.flip_control_bit_probability
                ),
            )
        if self.kind == "fault":
            return FaultPlan(
                self.direction, self.config,
                rearm_interval_ps=self.rearm_interval_ps,
                use_serial=self.use_serial,
            )
        if self.kind == "duty_cycle":
            return DutyCyclePlan(
                self.direction, self.config,
                on_ps=self.on_ps, off_ps=self.off_ps,
                use_serial=self.use_serial,
            )
        return InjectNowPlan(
            self.direction, self.config,
            interval_ps=self.interval_ps,
            use_serial=self.use_serial,
        )


@dataclass(frozen=True, eq=True)
class ExperimentSpec:
    """One experiment as data — everything but the seed.

    The seed is deliberately absent: it is derived by the campaign
    engine (:meth:`CampaignSpec.seed_for`) or passed explicitly to
    :meth:`materialize`, so the same spec can be replayed at any
    position of any campaign.  ``testbed.seed`` acts as the default
    when no seed is supplied.
    """

    name: str
    duration_ps: int
    plan: Optional[PlanSpec] = None
    workload: Optional[WorkloadConfig] = None
    testbed: Optional[TestbedOptions] = None
    drain_ps: int = 5 * MS
    params: Dict[str, Any] = field(default_factory=dict)
    #: Additional plans run *simultaneously* with ``plan`` (compound
    #: failures).  Materializes into a :class:`CompositePlan`; each plan
    #: must drive a distinct injector direction.
    extra_plans: Tuple[PlanSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "extra_plans", tuple(self.extra_plans))
        if self.extra_plans and self.plan is None:
            raise ConfigurationError(
                "extra_plans without a primary plan; promote the first "
                "extra plan to `plan`"
            )

    def all_plans(self) -> Tuple[PlanSpec, ...]:
        """Primary plan plus extras, in install order."""
        if self.plan is None:
            return ()
        return (self.plan,) + self.extra_plans

    def materialize(self, seed: Optional[int] = None) -> Experiment:
        """Build a live :class:`Experiment`, optionally forcing a seed.

        The returned experiment owns private copies of the mutable
        option containers, so a worker mutating its test bed can never
        leak state back into the (shared, reused) spec.
        """
        testbed = self.testbed or TestbedOptions()
        options = dataclasses.replace(
            testbed,
            seed=testbed.seed if seed is None else seed,
            device_kwargs=dict(testbed.device_kwargs),
            host_kwargs=dict(testbed.host_kwargs),
            switch_kwargs=dict(testbed.switch_kwargs),
        )
        workload = self.workload or WorkloadConfig()
        workload = dataclasses.replace(
            workload,
            forbidden_bytes=set(workload.forbidden_bytes),
            stack_kwargs=dict(workload.stack_kwargs),
        )
        plan: Optional[Any] = None
        if self.plan is not None:
            plan = self.plan.materialize()
            if self.extra_plans:
                plan = CompositePlan(
                    (plan,)
                    + tuple(p.materialize() for p in self.extra_plans)
                )
        return Experiment(
            self.name,
            duration_ps=self.duration_ps,
            plan=plan,
            workload_config=workload,
            testbed_options=options,
            drain_ps=self.drain_ps,
            params=dict(self.params),
        )


@dataclass(frozen=True, eq=True)
class CampaignSpec:
    """An ordered, picklable campaign: experiment specs + base seed."""

    name: str
    experiments: Tuple[ExperimentSpec, ...] = ()
    base_seed: int = 0

    def __post_init__(self) -> None:
        # Accept any iterable; store a tuple (frozen dataclass idiom).
        object.__setattr__(self, "experiments", tuple(self.experiments))

    def __len__(self) -> int:
        return len(self.experiments)

    def with_experiments(self, *specs: ExperimentSpec) -> "CampaignSpec":
        """A new spec with ``specs`` appended (chainable)."""
        return dataclasses.replace(
            self, experiments=self.experiments + tuple(specs)
        )

    def seed_for(self, index: int) -> int:
        """The derived seed of experiment ``index`` (see seeding rule)."""
        return derive_seed(
            self.base_seed, index, self.experiments[index].name
        )

    def materialize(self, index: int) -> Experiment:
        """Build experiment ``index`` with its derived seed."""
        return self.experiments[index].materialize(seed=self.seed_for(index))

    @staticmethod
    def build(name: str, specs: Iterable[ExperimentSpec],
              base_seed: int = 0) -> "CampaignSpec":
        """Convenience constructor from any iterable of specs."""
        return CampaignSpec(name, tuple(specs), base_seed=base_seed)


def _json_safe(value: Any) -> Any:
    """Recursively coerce a value into JSON-representable data."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_json_safe(v) for v in value]
    return str(value)


def spec_summary(spec: CampaignSpec) -> Dict[str, Any]:
    """A JSON-safe description of a campaign, for ``spec.json``.

    The artifact engine drops this next to ``journal.jsonl`` so offline
    consumers — ``repro.insight`` foremost — can recover the campaign's
    shape (experiment names, derived seeds, plan direction, topology
    options) without unpickling live spec objects.  It is a *summary*:
    enough to interpret the artifacts, not enough to re-run them.
    """
    experiments = []
    for index, experiment in enumerate(spec.experiments):
        entry: Dict[str, Any] = {
            "index": index,
            "name": experiment.name,
            "seed": spec.seed_for(index),
            "duration_ps": experiment.duration_ps,
            "drain_ps": experiment.drain_ps,
            "params": _json_safe(experiment.params),
        }
        def _plan_entry(plan: PlanSpec) -> Dict[str, Any]:
            return {
                "kind": plan.kind,
                "direction": plan.direction,
                "use_serial": plan.use_serial,
                "rearm_interval_ps": plan.rearm_interval_ps,
                "on_ps": plan.on_ps,
                "off_ps": plan.off_ps,
                "interval_ps": plan.interval_ps,
                "mean_interval_ps": plan.mean_interval_ps,
                "seed": plan.seed,
                "flip_control_bit_probability": (
                    plan.flip_control_bit_probability
                ),
                "config": (
                    None if plan.config is None
                    else plan.config.describe()
                ),
            }

        if experiment.plan is not None:
            entry["plan"] = _plan_entry(experiment.plan)
        if experiment.extra_plans:
            entry["extra_plans"] = [
                _plan_entry(p) for p in experiment.extra_plans
            ]
        testbed = experiment.testbed
        if testbed is not None:
            entry["testbed"] = {
                "seed": testbed.seed,
                "instrumented_host": testbed.instrumented_host,
                "with_device": testbed.with_device,
                # Always null; kept so spec_digest, the scenario compile
                # digests and existing result stores stay valid.
                "pipeline": None,
            }
            if testbed.topology is not None:
                entry["testbed"]["topology"] = {
                    "hosts": list(testbed.topology.hosts),
                    "switches": [
                        list(s) for s in testbed.topology.switches
                    ],
                }
        experiments.append(entry)
    return {
        "generated_by": "repro.runtime",
        "version": 1,
        "name": spec.name,
        "base_seed": spec.base_seed,
        "experiments": experiments,
    }
