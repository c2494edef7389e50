"""The benchmark's own tests: ``python3 -m pytest perfbench -q``.

They run every workload at a tiny scale, so they check the harness
(metric names and units, the output check, tracer restore), not speed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import reference, run

run.bootstrap()

from perfbench import layers  # noqa: E402
from perfbench.workloads import WORKLOADS, run_once  # noqa: E402

TINY = 0.02


def _run(tmp_path: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--seed", "0",
         "--seconds", "0", "--scale", str(TINY), *args],
        cwd=str(run.ROOT), capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_emits_every_metric_with_its_unit(tmp_path, workload, trace):
    done = _run(tmp_path, "--workload", workload, "--trace", str(trace))
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        for name in run.END_TO_END_UNITS:
            assert result["metrics"][name]["value"] > 0, name
            assert f"{name} = " in done.stdout
        assert "artifact_bytes = " in done.stdout
        assert "failed_share = 0 " in done.stdout


@pytest.fixture(scope="module")
def observed_outputs(tmp_path_factory):
    workload = WORKLOADS["table4-observed"]
    spec = workload.build_spec(0, TINY)
    rep = run_once(workload, spec, tmp_path_factory.mktemp("observed"))
    return rep.outputs


def test_output_check_accepts_identical_outputs(observed_outputs):
    assert reference.mismatches(observed_outputs, observed_outputs,
                                expect_report=True) == (0, [])


def test_corrupted_row_fails_that_experiment(observed_outputs):
    corrupted = json.loads(json.dumps(observed_outputs))
    corrupted["rows"][2][2] += 1  # messages received
    failed, reasons = reference.mismatches(
        corrupted, observed_outputs, expect_report=True)
    assert failed == 1 and "row 2" in reasons[0]


def test_corrupted_report_digest_fails_every_experiment(observed_outputs):
    corrupted = dict(observed_outputs, insight_digest="0" * 32)
    failed, _ = reference.mismatches(
        corrupted, observed_outputs, expect_report=True)
    assert failed == len(observed_outputs["rows"])


def test_corrupted_reference_makes_the_run_fail(tmp_path, observed_outputs):
    corrupted = json.loads(json.dumps(observed_outputs))
    corrupted["table_sha256"] = "0" * 64
    refs = tmp_path / "refs.json"
    refs.write_text(json.dumps({
        "scale": TINY, "workloads": {"table4-observed": {"0": corrupted}}}))
    done = _run(tmp_path, "--workload", "table4-observed", "--trace", "0",
                "--references", str(refs))
    assert done.returncode == 1
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert "rendered table digest differs" in done.stdout


def test_tracer_restores_every_wrapped_function(tmp_path):
    before = layers.originals()
    workload = WORKLOADS["table4-bare"]
    tracer = layers.Tracer()
    with tracer:
        during = layers.originals()
        run_once(workload, workload.build_spec(0, TINY), tmp_path / "t",
                 tracer=tracer)
    after = layers.originals()
    assert all(during[key] is not before[key] for key in before)
    assert all(after[key] is before[key] for key in before)
    assert tracer.totals["myrinet.switch"].work > 0
    assert tracer.totals["campaign"].calls == 1


def test_tracer_restores_after_an_exception():
    before = layers.originals()
    with pytest.raises(RuntimeError):
        with layers.Tracer():
            raise RuntimeError("boom")
    after = layers.originals()
    assert all(after[key] is before[key] for key in before)


def test_self_time_excludes_nested_spans():
    tracer = layers.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(20000))
    outer, inner = tracer.totals["outer"], tracer.totals["inner"]
    assert outer.self_s == pytest.approx(outer.total_s - inner.total_s)
    assert list(tracer.parent_of) == [-1, 0]
    assert 0.0 < tracer.coverage("outer") <= 1.0


def test_coverage_does_not_count_the_kernel_loop():
    tracer = layers.Tracer()
    with tracer.span("campaign"):
        with tracer.span("sim"):
            sum(range(20000))
            with tracer.span("myrinet.link:flow"):
                sum(range(20000))
    campaign, part = tracer.totals["campaign"], tracer.totals[
        "myrinet.link:flow"]
    assert tracer.coverage("campaign") == pytest.approx(
        part.total_s / campaign.total_s)
    assert tracer.self_s("myrinet.link") == part.self_s
    assert tracer.self_s("myrinet") == 0.0


def test_compare_refuses_unlike_provenance():
    from perfbench import compare

    base = compare.load_records([run.HERE / "baseline.json"])
    flipped = json.loads(json.dumps(base))
    for record in flipped:
        record["provenance"]["artifacts"] = not record["provenance"]["artifacts"]
    with pytest.raises(ValueError, match="provenance differs"):
        compare.compare(base, flipped, compare.bounds())
    lines, regressed = compare.compare(base, base, compare.bounds())
    assert lines and not regressed
