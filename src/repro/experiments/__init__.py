"""The experiment harness: scenario definitions and runners.

* :mod:`repro.experiments.config` -- declarative run configuration
  (:class:`ExperimentConfig`, :class:`PolicySpec`);
* :mod:`repro.experiments.runner` -- wires kernel + population +
  mediator + arrivals + churn + metrics and executes one run
  (:func:`wire_run` / :class:`LiveRun` for incremental stepping);
* :mod:`repro.experiments.scenarios` -- Scenario 1-7 of the demo
  (Section IV), each returning a :class:`ScenarioResult` with the
  comparison tables, the sampled series and machine-checked claims;
* :mod:`repro.experiments.report` -- rendering of scenario results.

Names resolve lazily (PEP 562): the scenario layer builds on
:mod:`repro.api`, which in turn imports the config/runner submodules
here, so the package initializer must not force the whole chain.
"""

from typing import TYPE_CHECKING

_EXPORTS = {
    "ExperimentConfig": "repro.experiments.config",
    "PolicySpec": "repro.experiments.config",
    "AutonomyConfig": "repro.experiments.config",
    "RunResult": "repro.experiments.runner",
    "LiveRun": "repro.experiments.runner",
    "run_once": "repro.experiments.runner",
    "run_policies": "repro.experiments.runner",
    "wire_run": "repro.experiments.runner",
    "render_comparison": "repro.experiments.report",
    "render_claims": "repro.experiments.report",
    "render_run_series": "repro.experiments.report",
    "Claim": "repro.experiments.scenarios",
    "ScenarioResult": "repro.experiments.scenarios",
    "scenario1_satisfaction_model": "repro.experiments.scenarios",
    "scenario2_departures": "repro.experiments.scenarios",
    "scenario3_captive": "repro.experiments.scenarios",
    "scenario4_autonomous": "repro.experiments.scenarios",
    "scenario5_expectation_adaptation": "repro.experiments.scenarios",
    "scenario6_application_adaptability": "repro.experiments.scenarios",
    "scenario7_focal_participant": "repro.experiments.scenarios",
    "ALL_SCENARIOS": "repro.experiments.scenarios",
}

__all__ = sorted(_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from repro.experiments.config import (
        AutonomyConfig,
        ExperimentConfig,
        PolicySpec,
    )
    from repro.experiments.report import (
        render_claims,
        render_comparison,
        render_run_series,
    )
    from repro.experiments.runner import (
        LiveRun,
        RunResult,
        run_once,
        run_policies,
        wire_run,
    )
    from repro.experiments.scenarios import (
        ALL_SCENARIOS,
        Claim,
        ScenarioResult,
        scenario1_satisfaction_model,
        scenario2_departures,
        scenario3_captive,
        scenario4_autonomous,
        scenario5_expectation_adaptation,
        scenario6_application_adaptability,
        scenario7_focal_participant,
    )


_SUBMODULES = frozenset({"config", "report", "runner", "scenarios"})


def __getattr__(name: str):
    import importlib

    if name in _SUBMODULES:
        module = importlib.import_module(f"repro.experiments.{name}")
        globals()[name] = module
        return module
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.experiments' has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: __getattr__ fires once per name
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
