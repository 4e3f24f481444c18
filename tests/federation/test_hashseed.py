"""Hash-seed independence of sharding and forwarding.

The shard map hashes with sha1 and every merge/threshold step iterates
deterministic structures, so shard assignment, forward ordering, and
the full federated result must be bit-identical across interpreters
with different ``PYTHONHASHSEED`` values.  These tests run the same
probes in subprocesses with different seeds (including ``random``) and
byte-compare the JSON they print.
"""

import json
import os
import subprocess
import sys

#: Shard assignment + routing probe: the per-provider shard map (both
#: partition modes), the topic routes, and the ring ownership table.
_ASSIGNMENT_SCRIPT = """
import json, sys
from repro.federation import FederationConfig, ShardMap

hash_map = ShardMap(FederationConfig(shards=5, partition="hash"))
topic_map = ShardMap(FederationConfig(shards=5, partition="topic"))
providers = [f"p{i:04d}" for i in range(300)]
topics = [f"t{i}" for i in range(12)]
out = {
    "hash": {p: hash_map.shard_of_provider(p) for p in providers},
    "topic_restricted": {
        p: topic_map.shard_of_provider(p, topics=[topics[i % 12], topics[(i + 5) % 12]])
        for i, p in enumerate(providers)
    },
    "routes": {t: hash_map.shard_of_topic(t) for t in topics},
}
json.dump(out, sys.stdout, sort_keys=True)
"""

#: Forwarded-mediation probe: a thin-pool federation where every
#: mediation forwards; prints the merged candidate order, the peer
#: ordinals, and the end-of-run counters.
_FORWARDING_SCRIPT = """
import json, sys
from repro.perf.hotpath import build_mediation_system
from repro.system.query import Query

sim, mediator, consumer = build_mediation_system("fast", n_providers=12, shards=4)
federation = mediator.federation
home = federation.route("c0").shard_ordinal
merged, peers = federation.merged_candidates(home, "c0")
for _ in range(15):
    mediator.mediate(Query(
        consumer=consumer, topic="c0", service_demand=10.0,
        n_results=2, issued_at=0.0,
    ))
sim.run()
out = {
    "home": home,
    "peers": list(peers),
    "merged": [p.participant_id for p in merged],
    "mediations": mediator.mediations,
    "failures": mediator.failures,
    "coordination_messages": mediator.coordination_messages,
    "per_shard": [m.mediations for m in federation.mediators],
}
json.dump(out, sys.stdout, sort_keys=True)
"""

#: Full federated run probe: summary digest of a K=3 scenario run.
_DIGEST_SCRIPT = """
import sys
from dataclasses import replace
from repro.api.presets import scenario_spec
from repro.experiments.runner import wire_run
from repro.federation import FederationConfig

spec = scenario_spec("scenario1", duration=120.0)
config = replace(spec.to_config(), federation=FederationConfig(shards=3))
sys.stdout.write(wire_run(config, spec.policies[0]).finalize().digest())
"""


#: Process-parallel digest probe: serial and every worker count must
#: produce one digest, whatever the interpreter's hash seed (worker
#: processes inherit it via fork, so a hash-order dependence anywhere
#: in slicing, flushing, or the parent merge would surface here).
_PARALLEL_SCRIPT = """
import sys
from dataclasses import replace
from repro.api.presets import scenario_spec
from repro.experiments.runner import run_once
from repro.federation import FederationConfig, run_parallel

spec = scenario_spec("scenario1", duration=90.0)
config = replace(
    spec.to_config(),
    federation=FederationConfig(shards=3),
    latency_low=0.05,
    latency_high=0.05,
)
policy = spec.policies[0]
digests = [run_once(config, policy).digest()]
for workers in (1, 2, 3):
    report = run_parallel(config, policy, workers=workers)
    assert report.mode == "parallel", report.reason
    digests.append(report.result.digest())
assert len(set(digests)) == 1, digests
sys.stdout.write(digests[0])
"""


#: Placement probe: per-shard offered loads and the load-aware plan
#: for several (K, W) -- decided in the parent before forking, so it
#: must not depend on set/dict iteration order either.
_PLACEMENT_SCRIPT = """
import json, sys
from repro.experiments.config import ExperimentConfig
from repro.federation import FederationConfig, plan_placement, shard_loads
from repro.workloads.boinc import BoincScenarioParams, ProjectSpec

projects = tuple(
    ProjectSpec(f"project{i}", "normal", popularity_weight=1.0, rate_scale=0.5 + i % 4)
    for i in range(11)
)
out = {}
for shards in (2, 3, 8, 16):
    config = ExperimentConfig(
        name="placement",
        population=BoincScenarioParams(n_providers=8, projects=projects),
        federation=FederationConfig(shards=shards),
    )
    loads = shard_loads(config)
    out[str(shards)] = {
        "loads": loads,
        "plans": [plan_placement(loads, workers) for workers in (1, 2, 3, 5)],
    }
json.dump(out, sys.stdout, sort_keys=True)
"""


def _run_with_hash_seed(script: str, seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout


def test_shard_assignment_identical_across_hash_seeds():
    baseline = json.loads(_run_with_hash_seed(_ASSIGNMENT_SCRIPT, "0"))
    for seed in ("1", "4242", "random"):
        assert json.loads(_run_with_hash_seed(_ASSIGNMENT_SCRIPT, seed)) == baseline


def test_forward_ordering_identical_across_hash_seeds():
    baseline = _run_with_hash_seed(_FORWARDING_SCRIPT, "0")
    for seed in ("4242", "random"):
        assert _run_with_hash_seed(_FORWARDING_SCRIPT, seed) == baseline


def test_federated_digest_identical_across_hash_seeds():
    baseline = _run_with_hash_seed(_DIGEST_SCRIPT, "0")
    assert len(baseline) == 64  # sha256 hex
    assert _run_with_hash_seed(_DIGEST_SCRIPT, "random") == baseline


def test_parallel_digest_identical_across_hash_seeds_and_workers():
    baseline = _run_with_hash_seed(_PARALLEL_SCRIPT, "0")
    assert len(baseline) == 64  # sha256 hex
    assert _run_with_hash_seed(_PARALLEL_SCRIPT, "random") == baseline


def test_placement_identical_across_hash_seeds():
    baseline = _run_with_hash_seed(_PLACEMENT_SCRIPT, "0")
    assert len(json.loads(baseline)["16"]["plans"][3]) == 5
    for seed in ("4242", "random"):
        assert _run_with_hash_seed(_PLACEMENT_SCRIPT, seed) == baseline
