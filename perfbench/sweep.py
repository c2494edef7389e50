"""Run the benchmark over several seeds and report each metric's spread.

Usage::

    python3 perfbench/sweep.py --seeds 1-10 [--seconds N] \\
        [--workloads table4-bare,seu-fabric] [--trace 0] \\
        [--baseline perfbench/baseline.json]

Each run is a separate ``run.py`` process writing a record under
``.perfbench/records/``.  For every workload and metric the sweep prints
the median and the spread (interquartile range over median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) and whether
that spread is within a third of the metric's bound in
``BENCHMARK.json``.  ``--baseline`` saves all records as one JSON list,
the reference side for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", type=Path, default=None)
    args = parser.parse_args(argv)

    sys.path[0] = str(ROOT)
    from perfbench import BENCHMARK as bench
    from perfbench.compare import bounds, spread
    from perfbench.reference import seed_range

    seconds = args.seconds or bench["run_seconds"]
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    limits = bounds()
    out = ROOT / ".perfbench" / "records"
    out.mkdir(parents=True, exist_ok=True)
    records = []
    status = 0
    for name in names:
        for seed in seed_range(args.seeds):
            path = out / f"{name}-s{seed}-t{args.trace}.json"
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace), "--record", str(path)],
                cwd=str(ROOT), capture_output=True, text=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode or not result["correct"]:
                status = 1
                print(f"{name} seed {seed}: exit {done.returncode}, "
                      f"failed {result['failed']}/{result['attempted']}")
            records.append(json.loads(path.read_text()))
        for metric in records[-1]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in records
                      if r["provenance"]["workload"] == name]
            share = spread(values)
            limit = limits.get(metric, {}).get("bound")
            verdict = ("" if limit is None else
                       "ok" if share < limit / 3 else
                       "WITHIN BOUND" if share <= limit else "TOO WIDE")
            print(f"{name:<16} {metric:<30} median "
                  f"{statistics.median(values):<12.6g} spread {share:.4f} "
                  f"{verdict}", flush=True)
    if args.baseline is not None:
        args.baseline.write_text(json.dumps(records, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
