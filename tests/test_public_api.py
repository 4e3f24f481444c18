"""The public API surface: everything advertised in repro.__all__ works."""

import pytest

import repro


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ advertises missing {name!r}"

    def test_core_quickstart_pieces(self):
        """The README quickstart must work from the top-level package."""
        score = repro.sqlb_score(0.5, 0.5, 0.5)
        assert score == pytest.approx(0.5)
        omega = repro.adaptive_omega(0.8, 0.2)
        assert omega == pytest.approx(0.8)

    def test_policy_factory_from_top_level(self):
        root = repro.RandomRoot(1)
        policy = repro.make_policy("sbqa", root, sbqa=repro.SbQAConfig(k=4, kn=2))
        assert policy.name == "sbqa"
        assert set(repro.available_policies()) >= {"sbqa", "capacity", "economic"}

    def test_scenario_entrypoints_exported(self):
        for i in range(1, 8):
            assert any(
                name.startswith(f"scenario{i}_") for name in repro.__all__
            ), f"scenario {i} missing from the public API"

    def test_manual_assembly(self):
        """Build a minimal mediated system from public names only."""
        sim = repro.Simulator()
        network = repro.Network(sim)
        registry = repro.SystemRegistry()
        provider = repro.Provider(sim, network, "p0")
        registry.add_provider(provider)
        consumer = repro.Consumer(sim, network, "c0", preferences={"p0": 0.8})
        registry.add_consumer(consumer)
        policy = repro.CapacityBasedPolicy()
        mediator = repro.Mediator(sim, network, registry, policy)
        consumer.attach_mediator(mediator)
        consumer.issue("c0", service_demand=5.0)
        sim.run()
        assert consumer.stats.queries_completed == 1


class TestSubmoduleAccess:
    def test_submodules_reachable_as_attributes(self):
        """`import repro; repro.experiments.runner...` must keep working
        (the eager facade used to bind subpackages as attributes).

        Runs in a fresh interpreter: within the test session other
        imports would already have bound the submodule attributes,
        masking a lazy-facade regression.
        """
        import subprocess
        import sys

        code = (
            "import repro; "
            "assert repro.experiments.runner.run_once; "
            "assert repro.core.Mediator; "
            "assert repro.api.presets.scenario_spec; "
            "assert repro.api.Session"
        )
        subprocess.run([sys.executable, "-c", code], check=True)


#: A constant-latency run (the fused kernel's regime) driven through
#: wire_run + step_until; argv[1] == "block" makes numpy and scipy
#: unimportable before anything from ``repro`` loads.
_STDLIB_ONLY_SCRIPT = """
import sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
    sys.modules["scipy"] = None
from repro.experiments.config import ExperimentConfig, PolicySpec
from repro.experiments.runner import wire_run
from repro.workloads.boinc import BoincScenarioParams

config = ExperimentConfig(
    name="stdlib-only", seed=7, duration=120.0, keep_records=True,
    population=BoincScenarioParams(n_providers=20),
    latency_low=0.05, latency_high=0.05,
)
live = wire_run(config, PolicySpec(name="sbqa"))
live.step_until(config.duration)
record = live.mediator.records[0]
result = live.finalize()
loaded = sorted(m for m in ("numpy", "scipy") if sys.modules.get(m) is not None)
print(result.digest(), type(record).__name__, ",".join(loaded))
"""


class TestStdlibOnlyRunPath:
    def _run(self, mode):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", _STDLIB_ONLY_SCRIPT, mode],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        return out.stdout.split()

    def test_run_without_numpy_and_scipy_engages_the_fused_kernel(self):
        """Neither package is on the run path: with both unimportable a
        constant-latency run completes, mediates through the fused
        kernel (the only producer of lazy records) and produces the
        digest of the unblocked run -- which imports neither itself."""
        blocked = self._run("block")
        normal = self._run("normal")
        assert blocked == normal
        digest, record_type = blocked  # third field empty: nothing loaded
        assert record_type == "LazyAllocationRecord"
        assert len(digest) == 64

    def test_no_module_imports_numpy_or_scipy_at_top_level(self):
        import re
        from pathlib import Path

        pattern = re.compile(r"^(import|from) (numpy|scipy)\b")
        offenders = [
            f"{path}:{number}"
            for path in sorted(Path(repro.__file__).resolve().parent.rglob("*.py"))
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1
            )
            if pattern.match(line)
        ]
        assert offenders == []
