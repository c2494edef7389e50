"""Compare two sets of benchmark records, like for like.

A record is what ``run.py --record PATH`` writes (or a JSON list of
them, as in ``perfbench/baseline.json``).  Usage::

    python3 perfbench/compare.py --base perfbench/baseline.json \\
        --new .perfbench/records/*.json

The comparison refuses (exit 2) when the records' provenance differs in
anything but the code under test and the seed: workload, effective CPU
count, Python version, scale, executor, worker count, artifact setting
and trace mode must all match.  For each workload and end-to-end metric
it prints both medians and the new side's change, and exits 1 when a
median is worse than the bound fixed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[0] = str(ROOT)

from perfbench import BENCHMARK  # noqa: E402

#: Provenance that must be equal for two records to be compared.
LIKE_FOR_LIKE = ("workload", "cpu_count", "python", "scale", "executor",
                 "workers", "artifacts")


def load_records(paths: Iterable[Path]) -> List[Dict[str, Any]]:
    records: List[Dict[str, Any]] = []
    for path in paths:
        data = json.loads(Path(path).read_text())
        records.extend(data if isinstance(data, list) else [data])
    return records


def like_for_like(record: Dict[str, Any]) -> Tuple[Any, ...]:
    prov = record["provenance"]
    return tuple(prov[key] for key in LIKE_FOR_LIKE) + (record["trace"],)


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def bounds() -> Dict[str, Dict]:
    """Each end-to-end metric's declaration in ``BENCHMARK.json``."""
    return {m["name"]: m for m in BENCHMARK["end_to_end"]}


def compare(base: List[Dict[str, Any]], new: List[Dict[str, Any]],
            limits: Dict[str, Dict]) -> Tuple[List[str], bool]:
    """``(report lines, regressed)``; raises ``ValueError`` when the two
    sides are not like for like."""
    groups: Dict[Tuple[Any, ...], Tuple[List, List]] = {}
    for side, records in ((0, base), (1, new)):
        for record in records:
            if record.get("failed", 0):
                raise ValueError(
                    f"record for {record['provenance']['workload']} seed "
                    f"{record['provenance']['seed']} has failed experiments")
            groups.setdefault(like_for_like(record), ([], []))[side].append(
                record)
    unmatched = [key for key, (b, n) in groups.items() if not b or not n]
    if unmatched:
        raise ValueError(
            "provenance differs; refusing to compare unlike records: "
            + "; ".join(
                ", ".join(f"{k}={v}" for k, v in
                          zip(LIKE_FOR_LIKE + ("trace",), key))
                for key in unmatched))
    lines = []
    regressed = False
    for key, (b, n) in sorted(groups.items(), key=lambda kv: str(kv[0])):
        for metric, limit in limits.items():
            before = [r["metrics"][metric]["value"] for r in b
                      if metric in r["metrics"]]
            after = [r["metrics"][metric]["value"] for r in n
                     if metric in r["metrics"]]
            if not before or not after:
                continue
            old, cur = statistics.median(before), statistics.median(after)
            change = (cur - old) / old if old else 0.0
            worse = change if limit["better"] == "lower" else -change
            flag = ""
            if worse > limit["bound"]:
                flag = "  REGRESSION"
                regressed = True
            lines.append(
                f"{key[0]:<16} {metric:<18} base {old:.6g} (n={len(before)},"
                f" spread {spread(before):.3f})  new {cur:.6g} "
                f"(n={len(after)}, spread {spread(after):.3f})  "
                f"{change:+.1%} vs bound {limit['bound']:.0%}{flag}")
    return lines, regressed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", type=Path, required=True)
    parser.add_argument("--new", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    try:
        lines, regressed = compare(load_records(args.base),
                                   load_records(args.new), bounds())
    except ValueError as error:
        print(f"compare: {error}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
