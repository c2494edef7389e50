"""The golden-corpus gate: current behaviour == committed digests.

Runs every pinned scenario and compares component digests against
``tests/golden/*.digest``.  A failure here means simulation behaviour
moved; regen only after confirming the change is intended::

    python -m repro golden --regen
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.golden import (
    GOLDEN_SCENARIOS,
    compute_digests,
    read_digest_file,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def test_corpus_is_complete() -> None:
    """Every pinned scenario has a committed digest file (and no strays)."""
    committed = {path.stem for path in GOLDEN_DIR.glob("*.digest")}
    assert committed == set(GOLDEN_SCENARIOS), (
        f"corpus drift: committed={sorted(committed)} "
        f"expected={sorted(GOLDEN_SCENARIOS)}"
    )


@pytest.mark.parametrize("name", GOLDEN_SCENARIOS)
def test_golden_digest(name: str) -> None:
    expected = read_digest_file(GOLDEN_DIR / f"{name}.digest")
    actual = compute_digests(name)
    if actual["fingerprint"] != expected.get("fingerprint"):
        moved = sorted(
            component
            for component in ("streams", "stats", "tables",
                              "telemetry", "rcap")
            if actual.get(component) != expected.get(component)
        )
        pytest.fail(
            f"golden digest mismatch for {name}; "
            f"moved components: {', '.join(moved)} "
            "(python -m repro golden --regen after confirming the "
            "change is intended)"
        )
