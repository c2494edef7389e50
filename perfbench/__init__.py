"""The repository benchmark; see ``perfbench/README.md``."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: The benchmark's declaration (workloads, metric names and units,
#: bounds); the harness reads every name and unit from here.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
