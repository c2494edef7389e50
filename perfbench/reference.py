"""Reference outputs and the output check.

``references.json`` holds, per workload and seed, the outputs (table
digest, per-row sent/received/injections/drops, insight report digest)
recorded at the commit that introduced the benchmark.  The simulator is
unvalidated against hardware — the paper's Table 4 loss band is its only
outside reference — so the check gates that results stay *identical*,
not that they are accurate.

Re-record (only when a change is meant to alter simulated results)::

    python3 perfbench/reference.py --seeds 0-31
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
#: The seed the benchmark documents as its default, and the seed kept
#: out of every tuning run so the check is also proven on unseen input.
DEFAULT_SEED = 0
HELD_OUT_SEED = 31


def load(path: Path = REFERENCES) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def expected_for(refs: Dict[str, Any], workload: str, seed: int,
                 scale: float) -> Optional[Dict[str, Any]]:
    """The recorded outputs for this run, or ``None`` if none exist."""
    if float(refs.get("scale", -1)) != scale:
        return None
    return refs.get("workloads", {}).get(workload, {}).get(str(seed))


def mismatches(expected: Dict[str, Any], got: Dict[str, Any],
               expect_report: bool) -> Tuple[int, List[str]]:
    """``(experiments failed, reasons)`` for one run's outputs.

    A row that differs fails that experiment; a differing table digest,
    row count or report digest (or a missing report) fails them all.
    """
    rows = got["rows"]
    reasons = []
    bad = set()
    whole = False
    if len(expected["rows"]) != len(rows):
        whole = True
        reasons.append(f"{len(rows)} rows, expected {len(expected['rows'])}")
    else:
        for index, (want, have) in enumerate(zip(expected["rows"], rows)):
            if list(want) != list(have):
                bad.add(index)
                reasons.append(f"row {index}: {have} != expected {want}")
    if expected["table_sha256"] != got["table_sha256"]:
        whole = True
        reasons.append("rendered table digest differs")
    if expect_report:
        if got["insight_digest"] is None:
            whole = True
            reasons.append("no insight report")
        elif expected.get("insight_digest") != got["insight_digest"]:
            whole = True
            reasons.append(
                f"insight digest {got['insight_digest']} != expected "
                f"{expected.get('insight_digest')}")
    return (len(rows) if whole else len(bad)), reasons


def seed_range(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default=f"{DEFAULT_SEED}-{HELD_OUT_SEED}")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", type=Path, default=REFERENCES)
    args = parser.parse_args(argv)

    from perfbench.run import WORKDIR, bootstrap
    bootstrap()
    from perfbench.workloads import WORKLOADS, run_once

    doc: Dict[str, Any] = {
        "scale": args.scale,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "workloads": {name: {} for name in WORKLOADS},
    }
    for seed in seed_range(args.seeds):
        for name, workload in WORKLOADS.items():
            spec = workload.build_spec(seed, args.scale)
            rep = run_once(workload, spec, WORKDIR / f"record-{name}")
            doc["workloads"][name][str(seed)] = rep.outputs
        print(f"recorded seed {seed}", file=sys.stderr)
    args.out.write_text(
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.path[0] = str(HERE.parent)
    sys.exit(main())
