"""SARIF exporter, baseline ratchet, and lint CLI integration tests.

The exporter must be deterministic and code-scanning-shaped; the
baseline must implement the ratchet semantics (new fails, matched
warns, stale reported, multiset counting, line-shift stability); the
``lint`` subcommand must wire both together with the documented exit
codes.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.analysis.engine import Finding
from repro.analysis.flow.baseline import (
    apply_baseline,
    baseline_key,
    find_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.sarif import dump_sarif, to_sarif

SRC = str(Path(__file__).parent.parent / "src")


def finding(rule="FLOW101", path="/x/src/repro/core/stats.py", line=10,
            col=4, message="wall-clock read time.time() (line 3) flows "
                           "into a digest input"):
    return Finding(path=path, line=line, col=col, rule_id=rule,
                   message=message)


# ----------------------------------------------------------------------
# SARIF
# ----------------------------------------------------------------------

def test_sarif_shape_and_determinism(tmp_path):
    findings = [
        finding(rule="FLOW105", line=7, col=0, message="set order"),
        finding(rule="FLOW101", line=3, col=2, message="wall clock"),
    ]
    titles = {"FLOW101": "no wall clock", "FLOW105": "no set order"}
    log = to_sarif(findings, rule_titles=titles)
    assert log["version"] == "2.1.0"
    run = log["runs"][0]
    assert run["tool"]["driver"]["name"] == "simlint"
    ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert ids == sorted(ids)
    # Results sorted by location; ruleIndex consistent with the table.
    results = run["results"]
    assert [r["ruleId"] for r in results] == ["FLOW101", "FLOW105"]
    for result in results:
        assert ids[result["ruleIndex"]] == result["ruleId"]
    region = results[0]["locations"][0]["physicalLocation"]["region"]
    assert region == {"startLine": 3, "startColumn": 3}  # col+1
    # Same input -> byte-identical dump.
    out1, out2 = tmp_path / "a.sarif", tmp_path / "b.sarif"
    dump_sarif(findings, out1, rule_titles=titles)
    dump_sarif(list(reversed(findings)), out2, rule_titles=titles)
    assert out1.read_bytes() == out2.read_bytes()


def test_sarif_relativises_paths_under_base_dir(tmp_path):
    inside = tmp_path / "src" / "repro" / "m.py"
    log = to_sarif(
        [finding(path=str(inside)), finding(path="/elsewhere/n.py")],
        base_dir=tmp_path,
    )
    uris = [
        r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
        for r in log["runs"][0]["results"]
    ]
    assert "src/repro/m.py" in uris
    assert "/elsewhere/n.py" in uris  # outside base_dir stays absolute


# ----------------------------------------------------------------------
# Baseline keys and ratchet semantics
# ----------------------------------------------------------------------

def test_baseline_key_is_line_free():
    # Same finding shifted 40 lines down (both location and the line
    # reference inside the message) keys identically.
    a = finding(line=10, message="time.time() (line 3) flows into x")
    b = finding(line=50, message="time.time() (line 43) flows into x")
    assert baseline_key(a) == baseline_key(b)
    # But a different file or rule is a different key.
    assert baseline_key(a) != baseline_key(
        finding(path="/x/src/repro/core/other.py"))
    assert baseline_key(a) != baseline_key(finding(rule="FLOW102"))


def test_baseline_path_normalised_to_repro_tail():
    a = finding(path="/home/ci/checkout/src/repro/core/stats.py")
    b = finding(path="/tmp/elsewhere/src/repro/core/stats.py")
    assert baseline_key(a) == baseline_key(b)


def test_baseline_roundtrip_and_delta(tmp_path):
    baseline_file = tmp_path / "lint-baseline.json"
    accepted = [finding(), finding(rule="FLOW105", message="set order")]
    write_baseline(baseline_file, accepted)
    entries = load_baseline(baseline_file)
    assert len(entries) == 2

    # Same findings again: all matched, nothing new, nothing stale.
    delta = apply_baseline(accepted, entries)
    assert delta.clean
    assert len(delta.matched) == 2 and not delta.new and not delta.stale

    # One fixed, one new: the fixed one is stale, the new one fails.
    current = [accepted[0], finding(rule="FLOW103", message="id() leak")]
    delta = apply_baseline(current, entries)
    assert not delta.clean
    assert [f.rule_id for f in delta.new] == ["FLOW103"]
    assert [key[0] for key in delta.stale] == ["FLOW105"]


def test_baseline_duplicate_keys_are_multiset_counted():
    one = [finding()]
    two = [finding(line=10), finding(line=90)]
    entries = [baseline_key(f) for f in one]
    delta = apply_baseline(two, entries)
    # The second identical finding is NEW — the baseline accepted one.
    assert len(delta.matched) == 1 and len(delta.new) == 1


def test_find_baseline_walks_up(tmp_path):
    nested = tmp_path / "src" / "repro" / "core"
    nested.mkdir(parents=True)
    assert find_baseline(nested) is None
    expected = tmp_path / "lint-baseline.json"
    write_baseline(expected, [])
    assert find_baseline(nested) == expected


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------

def run_lint_cli(*args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint", *args],
        capture_output=True, text=True, cwd=cwd,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )


def write_violation_tree(tmp_path: Path) -> Path:
    root = tmp_path / "repro"
    root.mkdir(parents=True, exist_ok=True)
    (root / "bad.py").write_text(textwrap.dedent("""\
        import time

        def stamp(derive_seed):
            return derive_seed(time.time())
        """), encoding="utf-8")
    return root


def test_cli_flow_baseline_ratchet(tmp_path):
    root = write_violation_tree(tmp_path)

    # No baseline: the FLOW101 finding fails the run.
    result = run_lint_cli("--flow", "--baseline", "none", str(root),
                          cwd=tmp_path)
    assert result.returncode == 1
    assert "FLOW101" in result.stdout

    # Accept it into a baseline; the gate then passes with a warning.
    accepted = run_lint_cli("--flow", "--write-baseline", str(root),
                            cwd=tmp_path)
    assert accepted.returncode == 0
    baseline = tmp_path / "lint-baseline.json"
    assert baseline.is_file()
    gated = run_lint_cli("--flow", "--baseline", str(baseline), str(root),
                         cwd=tmp_path)
    assert gated.returncode == 0
    assert "warning (baseline)" in gated.stderr
    # Two baselined findings: the wall-clock read trips both SIM001
    # (call site) and FLOW101 (it reaches the derive_seed sink).
    assert "0 new finding(s), 2 baseline, 0 stale" in gated.stderr

    # A second, different violation is new: the gate fails again.
    (root / "worse.py").write_text(textwrap.dedent("""\
        import os

        def emit(writer):
            writer.write_event({"token": os.urandom(8)})
        """), encoding="utf-8")
    regressed = run_lint_cli("--flow", "--baseline", str(baseline),
                             str(root), cwd=tmp_path)
    assert regressed.returncode == 1
    assert "FLOW102" in regressed.stdout


def test_cli_missing_baseline_is_a_usage_error(tmp_path):
    """An explicit ``--baseline`` that does not exist exits 2 naming the
    path, instead of silently gating without a baseline."""
    root = write_violation_tree(tmp_path)
    missing = tmp_path / "nowhere" / "baseline.json"
    result = run_lint_cli("--flow", "--baseline", str(missing), str(root),
                          cwd=tmp_path)
    assert result.returncode == 2
    assert str(missing) in result.stderr
    assert result.stdout == ""

    # With --write-baseline the path is the output file: it may be new.
    written = run_lint_cli("--flow", "--baseline", str(tmp_path / "new.json"),
                           "--write-baseline", str(root), cwd=tmp_path)
    assert written.returncode == 0
    assert (tmp_path / "new.json").is_file()


def test_cli_sarif_out_writes_report(tmp_path):
    root = write_violation_tree(tmp_path)
    out = tmp_path / "lint.sarif"
    result = run_lint_cli(
        "--flow", "--baseline", "none", "--sarif-out", str(out),
        str(root), cwd=tmp_path,
    )
    assert result.returncode == 1
    log = json.loads(out.read_text(encoding="utf-8"))
    assert log["version"] == "2.1.0"
    assert any(
        r["ruleId"] == "FLOW101" for r in log["runs"][0]["results"]
    )


def test_cli_format_sarif_stdout(tmp_path):
    root = write_violation_tree(tmp_path)
    result = run_lint_cli(
        "--flow", "--baseline", "none", "--format", "sarif", str(root),
        cwd=tmp_path,
    )
    log = json.loads(result.stdout)
    assert log["runs"][0]["tool"]["driver"]["name"] == "simlint"


def test_cli_list_rules_includes_flow_ids_only_with_flag(tmp_path):
    plain = run_lint_cli("--list-rules", cwd=tmp_path)
    flow = run_lint_cli("--list-rules", "--flow", cwd=tmp_path)
    assert "FLOW101" not in plain.stdout
    assert "FLOW101" in flow.stdout and "FLOW203" in flow.stdout
