"""The benchmark session hook merges into ``BENCH_telemetry.json``.

Running one benchmark file must refresh that file's rows and keep every
other bench's row, not rewrite the snapshot with only the current
session's benches.
"""

import json

import benchmarks.conftest as bench_conftest


def test_session_finish_merges_into_existing_snapshot(tmp_path,
                                                      monkeypatch):
    path = tmp_path / "BENCH_telemetry.json"
    path.write_text(json.dumps({
        "generated_by": "benchmarks/conftest.py",
        "bench_scale": 1.0,
        "benches": {
            "kept": {"wall_s": 1.0, "sim_events": 10, "events_per_s": 10.0},
            "rerun": {"wall_s": 9.0, "sim_events": 9, "events_per_s": 1.0},
        },
    }))
    monkeypatch.setattr(bench_conftest, "BENCH_TELEMETRY_PATH", path)
    monkeypatch.setattr(bench_conftest, "_BENCH_TELEMETRY", {
        "rerun": {"wall_s": 2.0, "sim_events": 4, "events_per_s": 2.0},
        "new": {"wall_s": 0.5, "sim_events": 1, "events_per_s": 2.0},
    })

    bench_conftest.pytest_sessionfinish(None, 0)

    benches = json.loads(path.read_text())["benches"]
    assert list(benches) == ["kept", "new", "rerun"]
    assert benches["kept"]["wall_s"] == 1.0
    assert benches["rerun"]["wall_s"] == 2.0
    assert benches["new"]["sim_events"] == 1

