"""ExperimentSpec: validation, canonicalization, (de)serialization."""

import dataclasses
import json

import pytest

from repro.api.builder import ExperimentBuilder
from repro.api.presets import available_scenarios, scenario_spec
from repro.api.spec import ExperimentSpec
from repro.core.intentions import (
    LoadOnlyIntentions,
    ReputationBlendIntentions,
)
from repro.core.sbqa import SbQAConfig
from repro.experiments.config import AutonomyConfig, PolicySpec
from repro.federation.config import FederationConfig
from repro.system.failures import FailureConfig
from repro.workloads.boinc import (
    BoincScenarioParams,
    FocalConsumerSpec,
    FocalProviderSpec,
)


def _rich_spec() -> ExperimentSpec:
    """A spec exercising every optional branch of the serializer."""
    return ExperimentSpec(
        name="rich",
        seed=99,
        duration=300.0,
        sample_interval=5.0,
        population=BoincScenarioParams(
            n_providers=30,
            demand_distribution="pareto",
            demand_mean=30.0,
            pareto_minimum=10.0,
            memory_jitter=0.2,
            quorum=1,
            consumer_intentions=ReputationBlendIntentions(alpha=0.7),
            provider_intentions=LoadOnlyIntentions(),
            focal_provider=FocalProviderSpec(loves="proteins"),
            focal_consumer=FocalConsumerSpec(n_trusted=5),
        ),
        autonomy=AutonomyConfig(mode="autonomous", rejoin_cooldown=60.0),
        latency_low=0.01,
        latency_high=0.05,
        federation=FederationConfig(shards=3, partition="topic", forward_threshold=4),
        failures=FailureConfig(mttf=500.0, repair_time=None, start=30.0),
        result_timeout=200.0,
        adequation_over_candidates=True,
        keep_records=True,
        track_provider_snapshots=True,
        policies=(
            PolicySpec(name="sbqa", label="sbqa[kn=3]", sbqa=SbQAConfig(kn=3)),
            PolicySpec(name="economic", params={"selfishness": 0.8}),
            PolicySpec(name="capacity"),
        ),
        replications=4,
    )


@dataclasses.dataclass
class _TaggedSpec(ExperimentSpec):
    """A spec with one more scalar field, and no other edit anywhere."""

    tag: str = "untagged"


class TestRoundTrip:
    def test_dict_round_trip_identity(self):
        spec = _rich_spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        assert ExperimentBuilder(spec).build() == spec

    def test_a_new_field_reaches_json_and_overrides(self):
        """Serialization and derive are driven by fields(), not lists."""
        spec = _TaggedSpec(tag="a")
        data = spec.to_dict()
        assert data["tag"] == "a"
        assert _TaggedSpec.from_dict(data) == spec
        derived = spec.derive({"tag": "b"})
        assert isinstance(derived, _TaggedSpec)
        assert derived.tag == "b"
        assert derived == dataclasses.replace(spec, tag="b")

    def test_json_round_trip_identity(self):
        spec = _rich_spec()
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_default_spec_round_trips(self):
        spec = ExperimentSpec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_file_round_trip(self, tmp_path):
        spec = _rich_spec()
        path = spec.save(tmp_path / "spec.json")
        assert ExperimentSpec.load(path) == spec

    def test_to_dict_is_json_clean(self):
        # No dataclass instances or other non-JSON types leak through.
        text = json.dumps(_rich_spec().to_dict())
        assert "sbqa[kn=3]" in text

    def test_preset_specs_round_trip(self):
        for scenario_id in available_scenarios():
            spec = scenario_spec(scenario_id, duration=300.0, n_providers=20)
            assert ExperimentSpec.from_dict(spec.to_dict()) == spec, scenario_id

    def test_round_trip_config_equivalence(self):
        """The reconstructed spec realizes an identical ExperimentConfig."""
        spec = _rich_spec()
        clone = ExperimentSpec.from_dict(spec.to_dict())
        assert clone.to_config() == spec.to_config()


class TestCanonicalization:
    def test_intention_models_normalize_to_dicts(self):
        spec = ExperimentSpec(
            population=BoincScenarioParams(
                n_providers=10,
                consumer_intentions=ReputationBlendIntentions(alpha=0.4),
                provider_intentions="load-only",
            )
        )
        assert spec.population.consumer_intentions == {
            "model": "reputation-blend",
            "alpha": 0.4,
        }
        assert spec.population.provider_intentions == {"model": "load-only"}

    def test_equivalent_inputs_compare_equal(self):
        by_object = ExperimentSpec(
            population=BoincScenarioParams(
                n_providers=10, provider_intentions=LoadOnlyIntentions()
            )
        )
        by_name = ExperimentSpec(
            population=BoincScenarioParams(
                n_providers=10, provider_intentions="load-only"
            )
        )
        assert by_object == by_name

    def test_custom_model_rejected(self):
        class Custom(ReputationBlendIntentions):
            pass

        # Subclasses serialize as their nearest registered base; a truly
        # foreign object raises.
        with pytest.raises(TypeError):
            ExperimentSpec(
                population=BoincScenarioParams(
                    n_providers=10, consumer_intentions=object()
                )
            )


class TestValidation:
    def test_needs_a_policy(self):
        with pytest.raises(ValueError, match="at least one policy"):
            ExperimentSpec(policies=())

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            ExperimentSpec(
                policies=(PolicySpec(name="sbqa"), PolicySpec(name="sbqa"))
            )

    def test_replications_positive(self):
        with pytest.raises(ValueError, match="replication"):
            ExperimentSpec(replications=0)

    def test_config_invariants_surface_at_construction(self):
        # failures without a result_timeout is invalid at the config
        # layer; the spec refuses it eagerly.
        with pytest.raises(ValueError, match="result_timeout"):
            ExperimentSpec(failures=FailureConfig(mttf=100.0))

    def test_unknown_spec_key_rejected(self):
        data = ExperimentSpec().to_dict()
        data["durration"] = 100.0
        with pytest.raises(ValueError, match="durration"):
            ExperimentSpec.from_dict(data)

    def test_unknown_population_key_rejected(self):
        data = ExperimentSpec().to_dict()
        data["population"]["n_provider"] = 5
        with pytest.raises(ValueError, match="n_provider"):
            ExperimentSpec.from_dict(data)

    def test_unsupported_version_rejected(self):
        data = ExperimentSpec().to_dict()
        data["spec_version"] = 999
        with pytest.raises(ValueError, match="spec_version"):
            ExperimentSpec.from_dict(data)


class TestBridges:
    def test_to_config_mirrors_fields(self):
        spec = _rich_spec()
        config = spec.to_config()
        for f in dataclasses.fields(config):
            assert getattr(config, f.name) == getattr(spec, f.name), f.name

    def test_from_config_round_trip(self):
        spec = _rich_spec()
        lifted = ExperimentSpec.from_config(
            spec.to_config(), spec.policies, replications=spec.replications
        )
        assert lifted == spec

    def test_derive_materialises_an_unset_federation(self):
        # One shard is bit-identical to none, so defaults are safe.
        spec = ExperimentSpec().derive({"federation.shards": 2})
        assert spec.federation == FederationConfig(shards=2)

    def test_policy_lookup(self):
        spec = _rich_spec()
        assert spec.policy("capacity").name == "capacity"
        with pytest.raises(KeyError):
            spec.policy("nope")


class TestPresets:
    def test_all_scenarios_have_presets(self):
        assert available_scenarios() == tuple(
            f"scenario{i}" for i in range(1, 8)
        )

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="scenario99"):
            scenario_spec("scenario99")

    def test_autonomy_follows_duration(self):
        spec = scenario_spec("scenario4", duration=800.0)
        assert spec.autonomy.mode == "autonomous"
        assert spec.autonomy.warmup == pytest.approx(100.0)

    def test_scenario2_tracks_snapshots(self):
        assert scenario_spec("scenario2").track_provider_snapshots

    def test_scenario6_k_parameter(self):
        spec = scenario_spec("scenario6", k=8)
        labels = [p.label for p in spec.policies]
        assert "sbqa[kn=8]" in labels and "sbqa[kn=1]" in labels

    def test_population_overrides_forwarded(self):
        spec = scenario_spec("scenario3", n_providers=42, memory=50)
        assert spec.population.n_providers == 42
        assert spec.population.memory == 50
