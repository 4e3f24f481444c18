"""SbQA: Satisfaction-based Query Allocation -- an ICDE 2009 reproduction.

A from-scratch Python implementation of the query-allocation framework
of Quiané-Ruiz, Lamarre and Valduriez, *SbQA: A Self-Adaptable Query
Allocation Process* (ICDE 2009), together with every substrate the
paper's demonstration depends on: a discrete-event simulation kernel, a
BOINC-like volunteer-computing system model, the KnBest and SQLB
components, the capacity-based / economic / resource-shares baselines,
and the seven demo scenarios as runnable experiments.

The supported way to drive the system is the layered API of
:mod:`repro.api` -- declarative spec, fluent builder, session runtime::

    from repro import Experiment

    result = (
        Experiment.from_scenario("scenario4", duration=1200.0)
        .replications(4)
        .run(parallel=True)
    )
    print(result.comparison_table())

The classic entry points (``scenario3_captive(...)``,
``repro.experiments.runner.run_once``, manual assembly -- see
``examples/quickstart.py``) keep working; this module is a curated
facade that resolves every name lazily from its defining subpackage, so
``import repro`` stays light.
"""

__version__ = "1.1.0"

#: name -> defining module.  The facade resolves these lazily (PEP 562).
_EXPORTS = {
    # layered API (the supported entry points)
    "Experiment": "repro.api",
    "ExperimentBuilder": "repro.api",
    "ExperimentSpec": "repro.api",
    "Session": "repro.api",
    "ExperimentResult": "repro.api",
    "PolicyResult": "repro.api",
    "SweepSpec": "repro.api",
    "SweepAxis": "repro.api",
    "SweepSession": "repro.api",
    "SweepBuilder": "repro.api",
    "SweepResult": "repro.api",
    "SweepPointResult": "repro.api",
    "TuneSpec": "repro.api",
    "TuneSession": "repro.api",
    "TuneBuilder": "repro.api",
    "TuneResult": "repro.api",
    "scenario_spec": "repro.api",
    "available_scenarios": "repro.api",
    # core
    "SbQAPolicy": "repro.core",
    "SbQAConfig": "repro.core",
    "Mediator": "repro.core",
    "KnBestSelector": "repro.core",
    "sqlb_score": "repro.core",
    "adaptive_omega": "repro.core",
    "AdaptiveOmega": "repro.core",
    "FixedOmega": "repro.core",
    "consumer_query_satisfaction": "repro.core",
    "ConsumerSatisfactionTracker": "repro.core",
    "ProviderSatisfactionTracker": "repro.core",
    "AllocationPolicy": "repro.core",
    # baselines
    "CapacityBasedPolicy": "repro.allocation",
    "EconomicPolicy": "repro.allocation",
    "BoincSharesPolicy": "repro.allocation",
    "RandomPolicy": "repro.allocation",
    "RoundRobinPolicy": "repro.allocation",
    "ShortestQueuePolicy": "repro.allocation",
    "available_policies": "repro.allocation",
    "make_policy": "repro.allocation",
    # kernel
    "Simulator": "repro.des",
    "Network": "repro.des",
    "RandomRoot": "repro.des",
    "TraceRecorder": "repro.des",
    # system
    "Consumer": "repro.system",
    "Provider": "repro.system",
    "Query": "repro.system",
    "SystemRegistry": "repro.system",
    "FailureConfig": "repro.system",
    "CrashInjector": "repro.system",
    # analysis
    "PredictionReport": "repro.analysis",
    "predict_departures": "repro.analysis",
    "Comparison": "repro.analysis",
    "welch_t_test": "repro.analysis",
    # workloads
    "BoincScenarioParams": "repro.workloads",
    "build_boinc_population": "repro.workloads",
    # experiments (imperative layer)
    "ExperimentConfig": "repro.experiments",
    "PolicySpec": "repro.experiments",
    "AutonomyConfig": "repro.experiments",
    "RunResult": "repro.experiments",
    "LiveRun": "repro.experiments",
    "ScenarioResult": "repro.experiments",
    "scenario1_satisfaction_model": "repro.experiments",
    "scenario2_departures": "repro.experiments",
    "scenario3_captive": "repro.experiments",
    "scenario4_autonomous": "repro.experiments",
    "scenario5_expectation_adaptation": "repro.experiments",
    "scenario6_application_adaptability": "repro.experiments",
    "scenario7_focal_participant": "repro.experiments",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


#: Subpackages reachable as ``repro.<name>`` without an explicit
#: ``import repro.<name>`` (the eager facade used to bind these).
_SUBMODULES = frozenset({
    "allocation", "analysis", "api", "cli", "core", "des",
    "experiments", "metrics", "system", "workloads",
})


def __getattr__(name: str):
    if name in _SUBMODULES:
        import importlib

        module = importlib.import_module(f"repro.{name}")
        globals()[name] = module
        return module
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: __getattr__ fires once per name
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
