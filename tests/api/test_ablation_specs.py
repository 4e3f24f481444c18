"""The ablation studies shipped as spec files (examples/specs/ablations/).

Each file is a full-scale study run with ``sbqa sweep --spec`` (or
``sbqa run --spec`` for the rejoin comparison).  Here every file is
rescaled to 70 providers and run serially, and the *shape* each
ablation exists to show is asserted.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.stats import stdev
from repro.api.session import Session
from repro.api.spec import ExperimentSpec
from repro.api.sweep import SweepSession, SweepSpec

ABLATIONS = Path(__file__).resolve().parents[2] / "examples" / "specs" / "ablations"


def _k_pool(result):
    """Coordination cost is bounded by kn, not k: message counts stay flat."""
    messages = [
        point.policies[0].summary.coordination_messages for point in result.points
    ]
    assert len(messages) == 4
    assert max(messages) < 1.6 * min(messages)


def _crashes(result):
    """First-answer-wins replication is the defence against crashes."""
    assert len(result.points) == 3  # zipped, not a 3 x 3 product
    summary = {p.label: p.policies[0].summary for p in result.points}
    write_off = {
        label: s.queries_timed_out / max(1, s.queries_issued)
        for label, s in summary.items()
    }
    solo, both, first = "n=1, quorum=none", "n=2, quorum=none", "n=2, quorum=1"
    assert all(s.provider_crashes > 0 for s in summary.values())
    assert write_off[first] <= write_off[solo] <= write_off[both]
    assert summary[first].mean_response_time <= summary[both].mean_response_time


def _heavy_tail(result):
    """A Pareto tail hurts every p99; load-aware SbQA no worse than capacity."""
    light, heavy = result.point("demand=lognormal"), result.point("demand=pareto")
    blow_up = {
        label: heavy.policy(label).summary.p99_response_time
        / max(1e-9, light.policy(label).summary.p99_response_time)
        for label in ("sbqa", "capacity", "economic")
    }
    assert all(factor > 1.0 for factor in blow_up.values())
    assert blow_up["sbqa"] <= 1.25 * blow_up["capacity"]


def _memory(result):
    """The shortest satisfaction window is not calmer than the longest.

    Volatility is the spread of each run's satisfaction series, which
    lives on the hub of the full RunResult the file's ``keep_runs``
    retains.
    """
    assert result.spec.keep_runs
    assert [p.point.coords["memory"] for p in result.points] == [10, 50, 100, 300]
    volatility = [
        stdev(point.policies[0].run(0).hub.provider_satisfaction.values)
        for point in result.points
    ]
    assert volatility[0] >= 0.5 * volatility[-1]


def _rejoin(result):
    """With returns, SbQA still drives out the fewest distinct providers."""
    summary, leavers = {}, {}
    for label in ("sbqa", "capacity", "economic"):
        run = result.run(label)
        summary[label] = run.summary
        leavers[label] = len(
            {d.participant_id for d in run.hub.departures if d.kind == "provider"}
        )
    assert all(
        s.provider_rejoins > 0 for s in summary.values() if s.provider_departures > 0
    )
    assert leavers["sbqa"] <= leavers["capacity"] + 3
    assert leavers["sbqa"] <= leavers["economic"]
    assert (
        summary["sbqa"].provider_satisfaction_final
        > summary["capacity"].provider_satisfaction_final
    )


#: file stem -> (simulated seconds at test scale, shape check)
SHAPES = {
    "k_pool": (500.0, _k_pool),
    "crashes": (500.0, _crashes),
    "heavy_tail": (500.0, _heavy_tail),
    "memory": (500.0, _memory),
    "rejoin": (1000.0, _rejoin),
}


def test_every_ablation_file_has_a_shape_check():
    assert sorted(p.stem for p in ABLATIONS.glob("*.json")) == sorted(SHAPES)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_ablation_round_trips_and_shows_its_shape(name):
    duration, check = SHAPES[name]
    data = json.loads((ABLATIONS / f"{name}.json").read_text(encoding="utf-8"))
    # rejoin.json is a plain experiment; the others are grids over a base.
    kind = SweepSpec if "axes" in data else ExperimentSpec
    assert kind.from_dict(data).to_dict() == data

    base = data.get("base", data)
    base["duration"] = duration
    base["population"]["n_providers"] = 70
    if base["autonomy"]["mode"] == "autonomous":
        base["autonomy"]["warmup"] = duration / 8.0
    spec = kind.from_dict(data)
    if kind is SweepSpec:
        result = SweepSession(spec).run()
        assert all(p.summary.queries_completed > 0 for _, p in result.cells())
    else:
        result = Session(spec).run(keep_runs=True)
    check(result)
