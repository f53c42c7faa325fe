"""Scenario subsystem tests: format round-trips, digest identities, the
cluster zoo, reference resolution, serve-spec integration, and the
``repro scenarios`` CLI surface.

The load-bearing property throughout is that a scenario *names* a
configuration without *changing* it — the deep fingerprint-level form
of that claim lives in :mod:`repro.validate.scenario` (exercised via
``repro validate --lane scenarios`` and its own test below); this file covers
the format and plumbing edges around it.
"""

import json

import pytest

from repro.cli import main
from repro.machine.registry import CLUSTER_A, CLUSTER_B, get_cluster
from repro.scenarios import (
    FrequencyPlan,
    FrequencySegment,
    Scenario,
    ScenarioError,
    cluster_from_dict,
    cluster_to_dict,
    library_names,
    load_scenario,
    load_zoo_cluster,
    scenario_names,
    zoo_names,
    zoo_provenance,
)


# --- Scenario format ---------------------------------------------------------


def test_scenario_round_trips_through_json():
    sc = Scenario(
        name="roundtrip",
        description="a kitchen-sink scenario",
        cluster="zoo/broadwell",
        suite="small",
        benchmarks=("lbm", "weather"),
        frequency=FrequencyPlan.fixed(2.0e9),
        sweep={"nodes": [1, 2, 4]},
    )
    again = Scenario.from_json(sc.to_json())
    assert again == sc
    assert again.digest == sc.digest


def test_scenario_rejects_unknown_keys():
    with pytest.raises(ScenarioError, match="unknown"):
        Scenario.from_dict({"name": "x", "cluster": "A", "turbo": True})


def test_scenario_requires_cluster_xor_spec():
    with pytest.raises(ScenarioError):
        Scenario(name="none")
    with pytest.raises(ScenarioError):
        Scenario(
            name="both",
            cluster="A",
            cluster_spec=cluster_to_dict(CLUSTER_A),
        )


def test_sweep_axes_nodes_xor_counts():
    with pytest.raises(ScenarioError):
        Scenario(name="x", cluster="A", sweep={"nodes": [1], "counts": [4]})


def test_frequency_shorthand_bare_number_is_fixed_ghz():
    sc = Scenario.from_dict({"name": "x", "cluster": "A", "frequency": 2.0})
    assert sc.frequency.is_fixed
    assert sc.frequency.frequency_hz == pytest.approx(2.0e9)


def test_validate_rejects_out_of_range_frequency():
    sc = Scenario(name="x", cluster="A", frequency=FrequencyPlan.fixed(9.9e9))
    with pytest.raises(ScenarioError):
        sc.validate()


def test_validate_rejects_unknown_benchmark():
    sc = Scenario(name="x", cluster="A", benchmarks=("not-a-code",))
    with pytest.raises(ScenarioError):
        sc.validate()


# --- digest identities -------------------------------------------------------


def test_digest_covers_parameters_not_labels():
    """Identical machine parameters digest identically regardless of how
    the scenario spells them (registry name, zoo ref, inline spec) or
    what the scenario/cluster is called."""
    by_registry = Scenario(name="a", cluster="A")
    by_zoo = Scenario(name="b", cluster="zoo/icelake")
    spec = cluster_to_dict(CLUSTER_A)
    inline = Scenario(name="c", cluster_spec=spec)
    spec_renamed = dict(spec, name="SomethingElse")
    renamed = Scenario(name="d", cluster_spec=spec_renamed)
    assert by_registry.digest == by_zoo.digest == inline.digest
    assert renamed.digest == inline.digest


def test_nominal_frequency_plan_does_not_move_the_digest():
    nominal = CLUSTER_A.node.cpu.nominal_clock_hz
    bare = Scenario(name="x", cluster="A")
    pinned = Scenario(
        name="x", cluster="A", frequency=FrequencyPlan.fixed(nominal)
    )
    clocked = Scenario(
        name="x", cluster="A", frequency=FrequencyPlan.fixed(2.0e9)
    )
    assert pinned.digest == bare.digest
    assert clocked.digest != bare.digest


def test_digest_sensitive_to_any_machine_parameter():
    spec = cluster_to_dict(CLUSTER_A)
    spec["network"]["latency_s"] *= 2
    assert (
        Scenario(name="x", cluster_spec=spec).digest
        != Scenario(name="x", cluster="A").digest
    )


# --- frequency plans ---------------------------------------------------------


def test_fixed_plan_properties():
    plan = FrequencyPlan.fixed(2.2e9)
    assert plan.is_fixed
    assert plan.frequency_hz == 2.2e9


def test_segmented_plan_has_no_single_frequency():
    plan = FrequencyPlan(
        (FrequencySegment(2.0e9, iterations=2), FrequencySegment(2.4e9))
    )
    assert not plan.is_fixed
    with pytest.raises(ScenarioError):
        plan.frequency_hz


def test_open_segment_only_legal_last():
    with pytest.raises(ScenarioError):
        FrequencyPlan(
            (FrequencySegment(2.0e9), FrequencySegment(2.4e9, iterations=2))
        )


def test_zero_iteration_segments_drop_out_of_active():
    plan = FrequencyPlan(
        (
            FrequencySegment(3.0e9, iterations=0),
            FrequencySegment(2.0e9, iterations=2),
            FrequencySegment(2.4e9),
        )
    )
    assert [s.frequency_hz for s in plan.active_segments] == [2.0e9, 2.4e9]


# --- the zoo -----------------------------------------------------------------


def test_zoo_has_all_six_machines():
    assert set(zoo_names()) == {
        "broadwell",
        "cascadelake",
        "icelake",
        "nextgen",
        "raspberrypi",
        "sapphirerapids",
    }


def test_zoo_paper_machines_equal_registry():
    assert load_zoo_cluster("icelake") == CLUSTER_A
    assert load_zoo_cluster("sapphirerapids") == CLUSTER_B


def test_zoo_files_round_trip_exactly():
    for name in zoo_names():
        cluster = load_zoo_cluster(name)
        assert cluster_from_dict(cluster_to_dict(cluster)) == cluster
        assert zoo_provenance(name)  # every machine cites its source


def test_registry_resolves_zoo_refs():
    assert get_cluster("zoo/cascadelake").name == "Cascadelake"
    with pytest.raises(KeyError):
        get_cluster("zoo/not-a-machine")


# --- reference resolution ----------------------------------------------------


def test_load_scenario_zoo_ref_synthesizes_a_scenario():
    sc = load_scenario("zoo/broadwell")
    assert sc.cluster == "zoo/broadwell"
    assert not sc.validate()


def test_load_scenario_library_by_name():
    sc = load_scenario("dvfs_lbm_clockdown")
    assert sc.benchmarks == ("lbm",)
    assert sc.frequency.frequency_hz == pytest.approx(2.0e9)


def test_load_scenario_from_file_path(tmp_path):
    path = tmp_path / "mine.json"
    Scenario(name="mine", cluster="B", suite="small").save(path)
    sc = load_scenario(str(path))
    assert sc.name == "mine" and sc.cluster == "B"


def test_load_scenario_unknown_ref_lists_names():
    with pytest.raises(ScenarioError) as err:
        load_scenario("nope")
    assert "zoo/icelake" in str(err.value)
    assert "dvfs_lbm_clockdown" in str(err.value)


def test_scenario_names_lists_zoo_and_library():
    names = scenario_names()
    assert "icelake" in names["zoo"]
    assert set(library_names()) == set(names["library"])


def test_library_scenarios_all_validate():
    for name in library_names():
        assert load_scenario(name).validate() is None


# --- serve-spec integration --------------------------------------------------


def test_serve_spec_accepts_scenario_ref():
    from repro.serve.spec import ServeSpec

    spec = ServeSpec.from_request(
        {"benchmark": "lbm", "scenario": "zoo/cascadelake"}
    )
    spec.validate()
    _, cluster, _ = spec.resolve()
    assert cluster.name == "Cascadelake"
    # zoo machines have no surrogate corpus — DES only, no prediction
    assert spec.prediction_spec() is None


def test_serve_key_is_the_run_identity():
    """A zoo reference, an equal inline document and the registry name
    describe the same run, so they share one key; the scenario's
    benchmark and sweep lists do not change the run."""
    from repro.serve.spec import ServeSpec

    def key(**where):
        return ServeSpec.from_request({"benchmark": "lbm", **where}).key

    inline = {"name": "inline", "cluster_spec": cluster_to_dict(CLUSTER_A)}
    listed = {"name": "listed", "cluster": "zoo/icelake",
              "benchmarks": ["lbm", "soma"], "sweep": {"nodes": [1, 2]}}
    assert key(scenario="zoo/icelake") == key(scenario=inline)
    assert key(scenario="zoo/icelake") == key(cluster="A")
    assert key(scenario=listed) == key(cluster="ClusterA")


def test_serve_key_splits_on_frequency():
    from repro.serve.spec import ServeSpec

    def key(frequency):
        doc = {"name": "clocked", "cluster": "A", "frequency": frequency}
        return ServeSpec.from_request({"benchmark": "lbm", "scenario": doc}).key

    base = ServeSpec.from_request({"benchmark": "lbm", "cluster": "A"}).key
    nominal = CLUSTER_A.node.cpu.nominal_clock_hz / 1e9
    assert key(nominal) == base
    assert key(1.6) != base
    assert key(1.6) != key(2.0)


def test_serve_spec_resolves_its_scenario_once(monkeypatch):
    import repro.scenarios
    from repro.serve.spec import ServeSpec

    calls = []
    real = repro.scenarios.load_scenario
    monkeypatch.setattr(repro.scenarios, "load_scenario",
                        lambda ref: calls.append(ref) or real(ref))
    spec = ServeSpec.from_request({"benchmark": "lbm", "scenario": "zoo/icelake"})
    spec.key
    spec.key
    spec.prediction_spec()
    assert calls == ["zoo/icelake"]


@pytest.mark.parametrize("ref, digest", [
    ("zoo/broadwell", "fe579945750cea28f3ab24b2489c5017b812efff9e82b61981f10541ecbe1d1c"),
    ("zoo/cascadelake", "4f04a42f281b4f38758f9d7ccf029cba8c41b5d16ed293fb37f613841152611d"),
    ("zoo/icelake", "caa06af8ed913f700bc675e2c58f87eece00b37ab33c8e05944654f6414cceca"),
    ("zoo/nextgen", "560929a7e1b72a7ad746d6cfd8ddcab4cea3f64d2a9ba0c16d366c5ee46c0070"),
    ("zoo/raspberrypi", "45b97123ed7d19154a794315c3158f67d3589e600160087aa518ccaa32c5fd7c"),
    ("zoo/sapphirerapids", "3fcd4d05985404bee49e1ac2bdba7f3b1ba7d1f688626afe173fdd9d21dca480"),
    ("degraded_fabric_day", "1884b8e8b5e0daf7b020976beddd59ad2a568f986dbe0612b8bb210d99cd0bb1"),
    ("dvfs_lbm_clockdown", "829575bf7031d78dcf525916c004d91afbed17eff3fcb8a9ca3fcdbd1ea84f0c"),
    ("turbo_then_throttle", "834517257bfd55a61df87a108b7c3049c794a23aa842336b6d682738ddfd1e17"),
])
def test_scenario_digests_are_pinned(ref, digest):
    """Shared scenario files are named by these digests: they must not
    drift when the identity code moves."""
    assert load_scenario(ref).digest == digest


def test_serve_spec_rejects_cluster_plus_scenario():
    from repro.serve.spec import ServeSpec, SpecError

    with pytest.raises(SpecError):
        ServeSpec.from_request(
            {"benchmark": "lbm", "cluster": "A", "scenario": "zoo/icelake"}
        )


def test_serve_spec_rejects_segmented_plan():
    from repro.serve.spec import ServeSpec, SpecError

    with pytest.raises(SpecError, match="segmented"):
        ServeSpec.from_request(
            {
                "benchmark": "lbm",
                "scenario": {
                    "name": "seg",
                    "cluster": "A",
                    "frequency": {
                        "segments": [
                            {"frequency_ghz": 2.0, "iterations": 2},
                            {"frequency_ghz": 2.4},
                        ]
                    },
                },
            }
        )


def test_serve_spec_scenario_round_trips_to_request():
    from repro.serve.spec import ServeSpec

    spec = ServeSpec.from_request(
        {"benchmark": "lbm", "scenario": "zoo/raspberrypi", "nnodes": 2}
    )
    again = ServeSpec.from_request(spec.to_request())
    assert again.key == spec.key


# --- CLI surface -------------------------------------------------------------


def test_cli_scenarios_list(capsys):
    assert main(["scenarios", "list"]) == 0
    out = capsys.readouterr().out
    assert "zoo/cascadelake" in out
    assert "dvfs_lbm_clockdown" in out


def test_cli_scenarios_show_emits_json_and_digest(capsys):
    assert main(["scenarios", "show", "zoo/broadwell"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out[: out.index("\ndigest")])
    assert doc["cluster"] == "zoo/broadwell"
    assert load_scenario("zoo/broadwell").digest in out


def test_cli_scenarios_validate_all(capsys):
    assert main(["scenarios", "validate"]) == 0
    out = capsys.readouterr().out
    assert "valid" in out


def test_cli_scenarios_unknown_ref_fails(capsys):
    assert main(["scenarios", "show", "zoo/tpu"]) == 2


def test_cli_sweep_with_scenario(capsys):
    assert main(["sweep", "--scenario", "dvfs_lbm_clockdown"]) == 0
    out = capsys.readouterr().out
    assert "lbm" in out
    assert "EDP" in out


def test_cli_explicit_flag_beats_scenario(capsys):
    assert main(
        ["sweep", "--scenario", "dvfs_lbm_clockdown", "--counts", "4"]
    ) == 0
    out = capsys.readouterr().out
    assert "4" in out


def test_cli_validate_scenarios(capsys):
    assert main(["validate", "--lane", "scenarios"]) == 0
    out = capsys.readouterr().out.lower()
    assert "scenario" in out


# --- validator module --------------------------------------------------------


def test_zoo_validation_green():
    from repro.validate.scenario import zoo_validation

    assert zoo_validation() == []
