"""Time one workload's set-up in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED SCALE``.  Prints
one JSON line: ``setup_s`` (import of ``repro.api`` + spec build +
``Campaign.from_spec``) and its parts.  ``run.py`` starts several of
these and reports the median, because import cost is paid once per
process.

Only the program's own work is timed.  Nothing of the harness is
imported before ``repro.api``, so no module the harness needs is already
loaded when the program imports it; the harness's workload definitions
are imported after ``repro.api``, outside the timed windows.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    sys.path[0] = str(root)
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    from repro.api import Campaign

    import_s = perf_counter() - t0
    import repro

    if src.resolve() not in Path(repro.__file__).resolve().parents:
        sys.exit(f"setup_probe: repro imported from {repro.__file__}")
    from perfbench.workloads import WORKLOADS

    t1 = perf_counter()
    spec = WORKLOADS[sys.argv[1]].build_spec(int(sys.argv[2]),
                                             float(sys.argv[3]))
    t2 = perf_counter()
    Campaign.from_spec(spec)
    t3 = perf_counter()
    print(json.dumps({"setup_s": import_s + (t3 - t1), "import_s": import_s,
                      "spec_s": t2 - t1, "from_spec_s": t3 - t2}))
