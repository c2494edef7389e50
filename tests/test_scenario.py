"""Tests for the scenario DSL: model, codec, yamlish, compiler, library.

Covers the contracts the PR pins: every compiler diagnostic is a typed
:class:`ScenarioError` with a JSON-pointer location, compilation is a
pure deterministic function, the library corpus matches its committed
golden digests, and a compiled scenario runs byte-identically at any
worker count (the engine's core guarantee, extended to the new front
door).
"""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError, ScenarioError
from repro.scenario import (
    compile_scenario,
    list_scenarios,
    load_scenario,
    scenario_from_json,
    scenario_to_json,
)
from repro.scenario.yamlish import YamlishError, loads as yamlish_loads

LIBRARY = [
    "alert-storm", "dual-injector", "fabric-congestion",
    "paper-sec35", "paper-table4", "seu-sweep",
]


def minimal_doc(**overrides):
    doc = {
        "scenario": 1,
        "name": "t",
        "experiments": [{"name": "e"}],
    }
    doc.update(overrides)
    return doc


# ----------------------------------------------------------------------
# yamlish — the stdlib YAML-subset loader
# ----------------------------------------------------------------------

class TestYamlish:
    def test_scalars_and_nesting(self):
        doc = yamlish_loads(
            "# header comment\n"
            "---\n"
            "name: fabric\n"
            "seed: 0x10\n"
            "rate: 2.5\n"
            "live: true\n"
            "gone: null\n"
            "note: 'quoted: text'\n"
            "topology:\n"
            "  kind: line\n"
            "  switches: 3\n"
        )
        assert doc["name"] == "fabric"
        assert doc["seed"] == 16
        assert doc["rate"] == 2.5
        assert doc["live"] is True
        assert doc["gone"] is None
        assert doc["note"] == "quoted: text"
        assert doc["topology"] == {"kind": "line", "switches": 3}

    def test_sequences_block_and_flow(self):
        doc = yamlish_loads(
            "values: [250, 500, 1000]\n"
            "experiments:\n"
            "  - name: a\n"
            "    faults:\n"
            "      - id: f\n"
            "        swap: [STOP, GO]\n"
            "  - name: b\n"
        )
        assert doc["values"] == [250, 500, 1000]
        assert [e["name"] for e in doc["experiments"]] == ["a", "b"]
        assert doc["experiments"][0]["faults"][0]["swap"] == ["STOP", "GO"]

    def test_tabs_rejected_with_line_number(self):
        with pytest.raises(YamlishError) as err:
            yamlish_loads("a: 1\n\tb: 2\n")
        assert err.value.line_no == 2

    def test_duplicate_keys_rejected(self):
        with pytest.raises(YamlishError, match="duplicate key"):
            yamlish_loads("a: 1\na: 2\n")

    def test_library_files_are_valid_yamlish(self):
        from repro.scenario.library import scenario_path
        for name in list_scenarios():
            text = scenario_path(name).read_text(encoding="utf-8")
            doc = yamlish_loads(text)
            assert doc["name"] == name


# ----------------------------------------------------------------------
# codec — strict JSON with pointer locations
# ----------------------------------------------------------------------

class TestScenarioCodec:
    def test_round_trips_every_library_document(self):
        for name in LIBRARY:
            doc = load_scenario(name)
            clone = scenario_from_json(
                json.loads(json.dumps(scenario_to_json(doc)))
            )
            assert clone == doc, name

    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="unknown field"):
            scenario_from_json(minimal_doc(flavor="spicy"))

    def test_version_mismatch_located_at_scenario(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_json(minimal_doc(scenario=99))
        assert err.value.location == "/scenario"

    def test_swap_must_be_a_symbol_pair(self):
        doc = minimal_doc()
        doc["experiments"][0]["faults"] = [{"id": "f", "swap": ["STOP"]}]
        with pytest.raises(ScenarioError) as err:
            scenario_from_json(doc)
        assert err.value.location == "/experiments/0/faults/0/swap"

    def test_sweep_field_must_be_known(self):
        doc = minimal_doc()
        doc["experiments"][0]["sweep"] = {
            "field": "warp_factor", "values": [1],
        }
        with pytest.raises(ScenarioError) as err:
            scenario_from_json(doc)
        assert err.value.location == "/experiments/0/sweep/field"


# ----------------------------------------------------------------------
# compiler error paths — each a ScenarioError with a pointer
# ----------------------------------------------------------------------

class TestCompileErrors:
    def test_unknown_topology_kind(self):
        with pytest.raises(ScenarioError) as err:
            compile_scenario(minimal_doc(topology={"kind": "torus"}))
        assert err.value.location == "/topology/kind"

    def test_unknown_traffic_kind(self):
        with pytest.raises(ScenarioError) as err:
            compile_scenario(minimal_doc(traffic={"kind": "carrier"}))
        assert err.value.location == "/traffic/kind"

    def test_unknown_fault_kind(self):
        doc = minimal_doc()
        doc["experiments"][0]["faults"] = [{"id": "f", "kind": "gamma"}]
        with pytest.raises(ScenarioError) as err:
            compile_scenario(doc)
        assert err.value.location == "/experiments/0/faults/0/kind"

    def test_cyclic_custom_fabric(self):
        fabric = {
            "hosts": ["h0", "h1"],
            "switches": [["s0", 8], ["s1", 8], ["s2", 8]],
            "host_links": [["h0", "s0", 0], ["h1", "s1", 0]],
            "trunks": [
                ["s0", 7, "s1", 7], ["s1", 6, "s2", 7], ["s2", 6, "s0", 6],
            ],
        }
        with pytest.raises(ScenarioError, match="cycle"):
            compile_scenario(minimal_doc(
                topology={"kind": "custom", "custom": fabric}
            ))

    def test_over_budget_hosts(self):
        with pytest.raises(ScenarioError) as err:
            compile_scenario(minimal_doc(
                topology={"kind": "star", "hosts": 64}
            ))
        assert err.value.location == "/topology"
        assert "12" in str(err.value)

    def test_over_budget_switches(self):
        with pytest.raises(ScenarioError) as err:
            compile_scenario(minimal_doc(
                topology={"kind": "line", "switches": 7}
            ))
        assert err.value.location == "/topology"

    def test_duplicate_fault_ids(self):
        doc = minimal_doc()
        doc["experiments"][0]["faults"] = [
            {"id": "f", "swap": ["STOP", "GO"], "direction": "R"},
            {"id": "f", "swap": ["GAP", "IDLE"], "direction": "L"},
        ]
        with pytest.raises(ScenarioError) as err:
            compile_scenario(doc)
        assert err.value.location == "/experiments/0/faults/1/id"

    def test_duplicate_injector_direction(self):
        doc = minimal_doc()
        doc["experiments"][0]["faults"] = [
            {"id": "a", "swap": ["STOP", "GO"], "direction": "R"},
            {"id": "b", "swap": ["GAP", "IDLE"], "direction": "R"},
        ]
        with pytest.raises(ScenarioError) as err:
            compile_scenario(doc)
        assert err.value.location == "/experiments/0/faults/1/direction"

    def test_scenario_error_is_a_configuration_error(self):
        assert issubclass(ScenarioError, ConfigurationError)


# ----------------------------------------------------------------------
# compilation — pure, deterministic, golden-pinned
# ----------------------------------------------------------------------

class TestCompileDeterminism:
    def test_compile_twice_is_equal(self):
        for name in LIBRARY:
            doc = load_scenario(name)
            assert compile_scenario(doc) == compile_scenario(doc), name

    def test_compiled_specs_survive_the_campaign_codec(self):
        from repro.runtime.spec_codec import spec_from_json, spec_to_json
        for name in LIBRARY:
            spec = compile_scenario(load_scenario(name))
            wire = json.loads(json.dumps(spec_to_json(spec)))
            assert spec_from_json(wire) == spec, name

    def test_library_matches_the_golden_corpus(self, golden_dir):
        from repro.scenario.golden import check_scenario_corpus
        ok, messages = check_scenario_corpus(golden_dir)
        assert ok, "\n".join(messages)

    def test_sweep_expands_with_derived_seeds(self):
        spec = compile_scenario(load_scenario("seu-sweep"))
        names = [e.name for e in spec.experiments]
        assert names == [
            "seu@mean_interval_us=250", "seu@mean_interval_us=500",
            "seu@mean_interval_us=1000", "seu@mean_interval_us=2000",
        ]
        seeds = {e.plan.seed for e in spec.experiments}
        assert len(seeds) == len(spec.experiments)  # each point distinct


@pytest.fixture(scope="module")
def golden_dir():
    import pathlib
    return pathlib.Path(__file__).parent / "golden"


# ----------------------------------------------------------------------
# the library — six named scenarios, all runnable
# ----------------------------------------------------------------------

class TestLibrary:
    def test_catalog(self):
        assert list_scenarios() == LIBRARY

    def test_unknown_name_lists_the_catalog(self):
        with pytest.raises(ScenarioError, match="alert-storm"):
            load_scenario("does-not-exist")

    def test_dual_injector_compiles_a_composite_plan(self):
        spec = compile_scenario(load_scenario("dual-injector"))
        compound = spec.experiments[0]
        assert compound.name == "compound"
        assert compound.plan is not None
        assert len(compound.extra_plans) == 1
        directions = {compound.plan.direction} | {
            p.direction for p in compound.extra_plans
        }
        assert directions == {"R", "L"}

    def test_fabric_scenario_carries_a_topology(self):
        spec = compile_scenario(load_scenario("fabric-congestion"))
        topology = spec.experiments[0].testbed.topology
        assert topology is not None
        assert len(topology.switches) == 3
        assert len(topology.hosts) == 6


# ----------------------------------------------------------------------
# run determinism — a compiled scenario at 1 vs 2 workers
# ----------------------------------------------------------------------

class TestScenarioRunDeterminism:
    def test_workers_1_vs_2_byte_identical(self, tmp_path):
        from repro.nftape.campaign import Campaign
        from repro.runtime.executors import PooledExecutor, SerialExecutor

        spec = compile_scenario(load_scenario("dual-injector"))

        serial = Campaign.from_spec(spec).run(
            executor=SerialExecutor(artifacts_dir=tmp_path / "serial")
        )
        pooled = Campaign.from_spec(spec).run(
            executor=PooledExecutor(
                workers=2, artifacts_dir=tmp_path / "pooled"
            )
        )
        assert serial.render() == pooled.render()
        assert serial.rows == pooled.rows
        assert (tmp_path / "serial" / "spec.json").read_text() == \
            (tmp_path / "pooled" / "spec.json").read_text()


# ----------------------------------------------------------------------
# CLI — scenario list|compile|run and the two-corpus golden gate
# ----------------------------------------------------------------------

class TestScenarioCli:
    def test_list_names_every_library_scenario(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in LIBRARY:
            assert name in out

    def test_compile_prints_digest_and_plan_counts(self, capsys):
        assert main(["scenario", "compile", "dual-injector"]) == 0
        out = capsys.readouterr().out
        assert "compile digest" in out
        assert "2 fault plan(s)" in out

    def test_compile_json_is_the_campaign_codec_document(self, capsys):
        from repro.runtime.spec_codec import spec_from_json
        assert main(["scenario", "compile", "paper-sec35", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        spec = spec_from_json(document)
        assert spec == compile_scenario(load_scenario("paper-sec35"))

    def test_compile_from_file_path(self, tmp_path, capsys):
        target = tmp_path / "mine.yaml"
        target.write_text(
            "scenario: 1\n"
            "name: mine\n"
            "duration_ms: 1\n"
            "experiments:\n"
            "  - name: only\n",
            encoding="utf-8",
        )
        assert main(["scenario", "compile", str(target)]) == 0
        assert "scenario mine: 1 experiment(s)" in capsys.readouterr().out

    def test_compile_unknown_name_fails_with_catalog(self, capsys):
        assert main(["scenario", "compile", "nope"]) == 2
        err = capsys.readouterr().err
        assert "scenario error" in err
        assert "alert-storm" in err

    def test_run_drops_engine_artifacts(self, tmp_path, capsys):
        root = tmp_path / "art"
        assert main([
            "scenario", "run", "paper-sec35",
            "--artifacts-dir", str(root), "--no-progress",
        ]) == 0
        out = capsys.readouterr().out
        assert "passthrough" in out
        assert (root / "journal.jsonl").exists()
        assert (root / "spec.json").exists()
        spec_doc = json.loads((root / "spec.json").read_text())
        assert spec_doc["name"] == "paper-sec35"

    def test_campaign_scenario_sugar(self, tmp_path, capsys):
        root = tmp_path / "art"
        assert main([
            "campaign", "--scenario", "paper-sec35",
            "--artifacts-dir", str(root), "--no-progress",
        ]) == 0
        assert (root / "journal.jsonl").exists()

    def test_golden_only_scenario_checks_just_that_digest(self, capsys):
        assert main([
            "golden", "--check", "--only", "dual-injector",
        ]) == 0
        out = capsys.readouterr().out
        assert "ok scenario dual-injector" in out
        assert "sec431" not in out  # run-digest corpus skipped

    def test_golden_unknown_name_lists_both_corpora(self, capsys):
        assert main(["golden", "--check", "--only", "warp"]) == 2
        err = capsys.readouterr().err
        assert "sec431" in err and "dual-injector" in err
