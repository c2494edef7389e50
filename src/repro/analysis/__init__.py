"""Static analysis and runtime sanitizers for the reproduction.

The paper's hardware is checked at synthesis time (§3.3, Table 1): FSM
exhaustiveness, register widths and clock-phase discipline are
elaborated before a bitstream exists.  This package is the software
equivalent:

* **simlint** (:mod:`repro.analysis.engine` + the rule packs) — an
  AST-based lint engine with simulation-correctness rules, run as
  ``python -m repro.cli lint``;
* **determinism sanitizer** (:mod:`repro.analysis.sanitize`) — replays
  an identical-seed campaign and proves the event streams digest
  equal, run as ``python -m repro.cli sanitize``;
* **simflow** (:mod:`repro.analysis.flow`) — a CFG + dataflow
  framework with path-sensitive determinism-taint and parallel-safety
  rules, run as
  ``python -m repro.cli lint --flow``.

Rule pack
---------

=======  =============================================================
SIM001   no wall-clock time in simulation code
SIM002   no bare ``random`` module use (route through ``repro.sim.rng``)
SIM003   no float arithmetic on the integer picosecond clock
SIM004   no unordered (set) iteration feeding event scheduling
FSM001   FSM enum states must be exhaustively dispatched
REG001   command grammar must agree with the injector register file
ERR001   no silent ``except: pass``
FLOW1xx  determinism taint: nondeterminism sources must not reach sinks
FLOW2xx  parallel safety: frozen specs, worker state, pickle closures
=======  =============================================================

The FLOW rules run only with ``flow=True`` (CLI ``--flow``): they are
deeper, cost more, and gate against the committed
``lint-baseline.json`` rather than requiring an absolutely clean tree.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.engine import (
    Finding,
    LintEngine,
    ModuleInfo,
    ModuleRule,
    ProjectRule,
    parse_module,
)
from repro.analysis.flow import (
    FLOW_MODULE_RULES,
    FLOW_PROJECT_RULES,
)
from repro.analysis.rules_err import NoSilentExceptRule
from repro.analysis.rules_fsm import FsmExhaustivenessRule
from repro.analysis.rules_reg import RegisterGrammarRule
from repro.analysis.rules_sim import (
    NoBareRandomRule,
    NoFloatTimeRule,
    NoUnorderedIterationRule,
    NoWallClockRule,
)

__all__ = [
    "Finding",
    "LintEngine",
    "ModuleInfo",
    "ModuleRule",
    "ProjectRule",
    "parse_module",
    "default_engine",
    "run_lint",
    "rule_table",
    "MODULE_RULES",
    "PROJECT_RULES",
    "FLOW_MODULE_RULES",
    "FLOW_PROJECT_RULES",
]

#: The default per-module rule pack, in rule-ID order.
MODULE_RULES = (
    NoWallClockRule,
    NoBareRandomRule,
    NoFloatTimeRule,
    NoUnorderedIterationRule,
    FsmExhaustivenessRule,
    NoSilentExceptRule,
)

#: The default cross-module rule pack.
PROJECT_RULES = (RegisterGrammarRule,)


def default_engine(flow: bool = False) -> LintEngine:
    """A :class:`LintEngine` loaded with the default rule pack.

    ``flow=True`` adds the simflow FLOW1xx/2xx/3xx rules on top.
    """
    module_rules = [rule() for rule in MODULE_RULES]
    project_rules = [rule() for rule in PROJECT_RULES]
    if flow:
        module_rules.extend(rule() for rule in FLOW_MODULE_RULES)
        project_rules.extend(rule() for rule in FLOW_PROJECT_RULES)
    return LintEngine(
        module_rules=module_rules,
        project_rules=project_rules,
    )


def run_lint(
    root: Optional[Path] = None,
    scan_root: Optional[Path] = None,
    flow: bool = False,
) -> List[Finding]:
    """Lint the ``repro`` package (or any tree) with the default rules.

    Without arguments the package's own installed source tree is
    scanned, so ``run_lint()`` works from any working directory.
    """
    if root is None:
        root = Path(__file__).resolve().parent.parent  # src/repro
    return default_engine(flow=flow).run(root, scan_root)


def rule_table(flow: bool = False) -> Dict[str, str]:
    """Rule ID -> one-line title, for ``lint --list`` and the docs.

    The default table holds the always-on simlint rules; ``flow=True``
    appends the simflow rule families (classes that report several IDs
    expose them via a ``rule_table`` class attribute).
    """
    table: Dict[str, str] = {}
    rule_classes = list(MODULE_RULES) + list(PROJECT_RULES)
    if flow:
        rule_classes += list(FLOW_MODULE_RULES) + list(FLOW_PROJECT_RULES)
    for rule_class in rule_classes:
        multi = getattr(rule_class, "rule_table", None)
        if multi:
            table.update(multi)
        else:
            table[rule_class.rule_id] = rule_class.title
    return dict(sorted(table.items()))
