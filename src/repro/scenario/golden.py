"""Golden compile digests for the scenario library.

Every library scenario's compiled :class:`CampaignSpec` is reduced to a
single blake2b digest over its canonical codec JSON and pinned in
``tests/golden/scenario_<name>.expected`` (one hex line per file).  The
``repro.cli golden`` gate checks these alongside the run digests of
:mod:`repro.golden`, so any change to the compiler, the traffic
presets, the fabric generators, or a library file shows up as a failing
diff — and is re-pinned deliberately with ``--regen``.

A *compile* digest, not a *run* digest: it pins the contract "this
document means this campaign" cheaply enough to cover the whole library
on every CI run.  The two cheapest scenarios additionally run end-to-end
in the CI ``scenario`` job.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.runtime.spec_codec import spec_to_json
from repro.scenario.compile import compile_scenario
from repro.scenario.library import list_scenarios, load_scenario

__all__ = [
    "compile_digest",
    "check_scenario_corpus",
    "regen_scenario_corpus",
]


def compile_digest(name: str) -> str:
    """The canonical digest of library scenario ``name``'s compilation."""
    spec = compile_scenario(load_scenario(name))
    canonical = json.dumps(
        spec_to_json(spec), sort_keys=True, separators=(",", ":")
    )
    return hashlib.blake2b(
        canonical.encode("utf-8"), digest_size=16
    ).hexdigest()


def _expected_path(directory: Path, name: str) -> Path:
    return directory / f"scenario_{name}.expected"


def _select(only: Optional[Iterable[str]]) -> List[str]:
    names = list_scenarios()
    if only is None:
        return names
    requested = list(only)
    unknown = sorted(set(requested) - set(names))
    if unknown:
        raise ConfigurationError(
            f"unknown scenario(s) {unknown}; available: {names}"
        )
    return [name for name in names if name in requested]


def check_scenario_corpus(
    directory: Path, only: Optional[Iterable[str]] = None,
) -> Tuple[bool, List[str]]:
    """Compare every library scenario against its committed digest.

    Returns ``(ok, messages)`` — one message per scenario, prefixed
    ``ok``/``MISSING``/``MISMATCH`` in the same style as the run-digest
    golden corpus.
    """
    ok = True
    messages: List[str] = []
    for name in _select(only):
        digest = compile_digest(name)
        path = _expected_path(directory, name)
        if not path.is_file():
            ok = False
            messages.append(
                f"MISSING scenario {name}: no {path.name}; "
                f"run golden --regen (computed {digest})"
            )
            continue
        expected = path.read_text(encoding="utf-8").strip()
        if expected != digest:
            ok = False
            messages.append(
                f"MISMATCH scenario {name}: expected {expected}, "
                f"computed {digest}"
            )
        else:
            messages.append(f"ok scenario {name}: {digest}")
    return ok, messages


def regen_scenario_corpus(
    directory: Path, only: Optional[Iterable[str]] = None,
) -> Dict[str, str]:
    """Recompute and rewrite the committed scenario digests."""
    directory.mkdir(parents=True, exist_ok=True)
    written: Dict[str, str] = {}
    for name in _select(only):
        digest = compile_digest(name)
        _expected_path(directory, name).write_text(
            digest + "\n", encoding="utf-8"
        )
        written[name] = digest
    return written
