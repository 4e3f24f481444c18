"""The provider window ring: same values as a deque of tuples, bounded bytes.

``ProviderSatisfactionTracker`` keeps its Definition-2 window as a ring
of two unboxed columns.  ``_DequeWindowTracker`` below is the earlier
deque-of-``(intention, performed)``-tuples form of the same tracker,
kept verbatim as the reference: driven with the same operations, the
two must agree float for float (compared by ``float.hex``, so ``-0.0``
and ``0.0`` are told apart) on every read after every operation.
"""

import sys
import tracemalloc
from collections import deque

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.builder import Experiment
from repro.core.satisfaction import (
    NEUTRAL_SATISFACTION,
    ProviderSatisfactionTracker,
    _clamp_unit,
)
from repro.experiments.runner import wire_run

MEMORIES = (1, 2, 3, 7, 100)


class _DequeWindowTracker:
    """Reference: the deque-of-tuples Definition-2 window."""

    def __init__(self, memory):
        self.memory = memory
        self._proposals = deque(maxlen=memory)
        self.total_proposed = 0
        self.total_performed = 0
        self._performed_in_window = 0
        self._performed_unit_sum = 0.0
        self._evictions_since_rebuild = 0

    def record_proposal(self, intention, performed):
        proposals = self._proposals
        if len(proposals) == self.memory:
            evicted = proposals[0]
            if evicted[1]:
                self._performed_in_window -= 1
                self._performed_unit_sum -= (evicted[0] + 1.0) / 2.0
            self._evictions_since_rebuild += 1
        proposals.append((intention, performed))
        self.total_proposed += 1
        if performed:
            self.total_performed += 1
            self._performed_in_window += 1
            self._performed_unit_sum += (intention + 1.0) / 2.0
        if self._evictions_since_rebuild >= self.memory:
            self._rebuild_sums()

    def _rebuild_sums(self):
        self._performed_in_window = 0
        self._performed_unit_sum = 0.0
        for intention, performed in self._proposals:
            if performed:
                self._performed_in_window += 1
                self._performed_unit_sum += (intention + 1.0) / 2.0
        self._evictions_since_rebuild = 0

    def satisfaction(self, default=NEUTRAL_SATISFACTION):
        if not self._proposals:
            return default
        performed = self._performed_in_window
        if not performed:
            return 0.0
        return _clamp_unit(self._performed_unit_sum / performed)

    def performed_fraction(self):
        if not self._proposals:
            return 0.0
        return self._performed_in_window / len(self._proposals)

    @property
    def observations(self):
        return len(self._proposals)

    def window_entries(self):
        return list(self._proposals)

    def reset(self):
        self._proposals.clear()
        self._performed_in_window = 0
        self._performed_unit_sum = 0.0
        self._evictions_since_rebuild = 0


def _state(tracker):
    return (
        [(float.hex(intention), performed) for intention, performed in tracker.window_entries()],
        tracker.observations,
        float.hex(tracker.satisfaction()),
        float.hex(tracker.performed_fraction()),
        tracker._performed_in_window,
        float.hex(tracker._performed_unit_sum),
        tracker._evictions_since_rebuild,
        tracker.total_proposed,
        tracker.total_performed,
    )


_INTENTIONS = st.one_of(
    st.sampled_from([-1.0, 1.0, -0.0, 0.0]),
    st.floats(min_value=-1.0, max_value=1.0),
)


@st.composite
def _scripts(draw):
    """A memory and a script of proposals with at most two resets in it.

    Four windows' worth of proposals: without a reset the window fills
    and ``_rebuild_sums`` fires three times."""
    memory = draw(st.sampled_from(MEMORIES))
    proposals = st.tuples(_INTENTIONS, st.booleans())
    ops = draw(st.lists(proposals, min_size=4 * memory + 2, max_size=4 * memory + 40))
    for at in draw(st.lists(st.integers(0, len(ops)), max_size=2)):
        ops.insert(at, None)
    return memory, ops


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.large_base_example],
)
@given(_scripts())
def test_the_ring_matches_the_deque_window(script):
    memory, ops = script
    ring = ProviderSatisfactionTracker(memory=memory)
    reference = _DequeWindowTracker(memory)
    assert _state(ring) == _state(reference)
    for op in ops:
        if op is None:
            ring.reset()
            reference.reset()
        else:
            ring.record_proposal(*op)
            reference.record_proposal(*op)
        assert _state(ring) == _state(reference)


def test_a_long_script_crosses_rebuilds_at_full_memory():
    """Ten windows' worth at k = 100, whatever the scripts above drew."""
    ring = ProviderSatisfactionTracker(memory=100)
    reference = _DequeWindowTracker(100)
    specials = (-1.0, 1.0, -0.0, 0.0)
    for step in range(1000):
        intention = specials[step % 4] if step % 7 == 0 else ((step * 0.6180339887) % 2.0) - 1.0
        performed = step % 3 != 0
        ring.record_proposal(intention, performed)
        reference.record_proposal(intention, performed)
        assert _state(ring) == _state(reference)


def _window_bytes(tracker):
    """Bytes a tracker's window holds: every non-scalar attribute with its items.

    Representation-agnostic -- for the ring it is the ``sys.getsizeof``
    of the ``array('d')`` plus the ``bytearray``; for a deque of tuples
    it would count the deque, each tuple and each boxed float."""
    seen = set()
    total = 0
    stack = [v for v in vars(tracker).values() if not isinstance(v, (int, float))]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, (tuple, list, deque)):
            stack.extend(obj)
    return total


def test_a_full_window_holds_about_nine_bytes_per_entry():
    tracker = ProviderSatisfactionTracker(memory=100)
    for step in range(1000):
        tracker.record_proposal((step % 201) / 100.0 - 1.0, step % 2 == 0)
    assert tracker.observations == 100
    assert _window_bytes(tracker) <= 1200


def test_a_full_window_does_not_grow():
    tracker = ProviderSatisfactionTracker(memory=100)
    for step in range(100):
        tracker.record_proposal(0.5, True)
    ops = [((step % 201) / 100.0 - 1.0, step % 3 == 0) for step in range(10_000)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for intention, performed in ops:
            tracker.record_proposal(intention, performed)
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert growth < 1024


def test_a_wired_run_holds_at_most_twelve_bytes_per_window_entry():
    # short demands push enough queries through 200 providers in 150 s
    # for every window (k = 100) to wrap
    spec = (
        Experiment.from_scenario("scenario4", duration=150.0, n_providers=200)
        .engine("fast")
        .demand(mean=1.0)
        .build()
    )
    result = wire_run(spec.to_config(), spec.policies[0]).finalize()
    trackers = [provider.tracker for provider in result.population.providers]
    assert len(trackers) == 200
    assert all(tracker.total_proposed > tracker.memory == 100 for tracker in trackers)
    entries = sum(tracker.observations for tracker in trackers)
    assert entries == 200 * 100
    assert sum(_window_bytes(tracker) for tracker in trackers) <= 12 * entries
