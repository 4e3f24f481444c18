"""Unit tests for experiment configuration."""

import pytest

from repro.api.spec import ExperimentSpec
from repro.core.sbqa import SbQAConfig
from repro.experiments.config import AutonomyConfig, ExperimentConfig, PolicySpec


class TestPolicySpec:
    def test_label_defaults_to_name(self):
        assert PolicySpec(name="sbqa").label == "sbqa"

    def test_explicit_label(self):
        spec = PolicySpec(name="sbqa", label="sbqa[kn=1]")
        assert spec.label == "sbqa[kn=1]"

    def test_carries_sbqa_config(self):
        spec = PolicySpec(name="sbqa", sbqa=SbQAConfig(k=8, kn=4))
        assert spec.sbqa.k == 8

    def test_frozen(self):
        spec = PolicySpec(name="sbqa")
        with pytest.raises(Exception):
            spec.name = "other"


class TestAutonomyConfig:
    def test_default_is_captive(self):
        assert AutonomyConfig().is_captive

    def test_paper_thresholds_default(self):
        config = AutonomyConfig(mode="autonomous")
        assert config.provider_threshold == 0.35
        assert config.consumer_threshold == 0.5

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="mode"):
            AutonomyConfig(mode="anarchic")


class TestExperimentConfig:
    def test_defaults(self):
        config = ExperimentConfig()
        assert config.duration > 0
        assert config.autonomy.is_captive
        assert config.population.n_providers > 0

    def test_validation(self):
        with pytest.raises(ValueError, match="duration"):
            ExperimentConfig(duration=0.0)
        with pytest.raises(ValueError, match="sample_interval"):
            ExperimentConfig(sample_interval=0.0)
        with pytest.raises(ValueError, match="latency"):
            ExperimentConfig(latency_low=0.5, latency_high=0.1)

    # The two checks of the retired ``with_overrides``, now held by the
    # one override path, ``ExperimentSpec.derive``.

    def test_with_overrides_rejects_unknown_field(self):
        with pytest.raises(ValueError) as err:
            ExperimentSpec().derive({"durration": 50.0})
        message = str(err.value)
        assert "durration" in message
        assert "duration" in message and "population" in message  # valid names

    def test_with_overrides_points_nested_fields_at_population(self):
        with pytest.raises(ValueError, match="population"):
            ExperimentSpec().derive({"n_providers": 10})
