"""Unit tests for repro.des.network."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des.entity import Entity, RecordingEntity
from repro.des.network import (
    FixedLatency,
    LatencyModel,
    Message,
    Network,
    UniformLatency,
    ZeroLatency,
)
from repro.des.rng import RandomStream
from repro.des.scheduler import Simulator


class TestLatencyModels:
    def test_zero_latency(self, sim):
        a, b = Entity(sim, "a"), Entity(sim, "b")
        assert ZeroLatency().delay(a, b) == 0.0

    def test_fixed_latency(self, sim):
        a, b = Entity(sim, "a"), Entity(sim, "b")
        assert FixedLatency(0.5).delay(a, b) == 0.5

    def test_fixed_latency_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            FixedLatency(-0.1)

    def test_uniform_latency_in_range(self, sim):
        a, b = Entity(sim, "a"), Entity(sim, "b")
        model = UniformLatency(0.1, 0.3, RandomStream(1))
        for _ in range(100):
            assert 0.1 <= model.delay(a, b) <= 0.3

    def test_uniform_latency_degenerate_range(self, sim):
        a, b = Entity(sim, "a"), Entity(sim, "b")
        model = UniformLatency(0.2, 0.2, RandomStream(1))
        assert model.delay(a, b) == 0.2

    def test_uniform_latency_validation(self):
        with pytest.raises(ValueError, match="low <= high"):
            UniformLatency(0.5, 0.1, RandomStream(1))
        with pytest.raises(ValueError, match="low <= high"):
            UniformLatency(-0.1, 0.5, RandomStream(1))


class TestNetworkDelivery:
    def test_zero_latency_delivers_same_instant(self, sim):
        network = Network(sim)
        sender = Entity(sim, "s")
        sink = RecordingEntity(sim, "r")
        message = network.send("ping", sender, sink, payload="x")
        assert message.delivered_at == message.sent_at == 0.0
        sim.run()
        assert sink.payloads() == ["x"]

    def test_fixed_latency_delays_delivery(self, sim):
        network = Network(sim, FixedLatency(2.5))
        sender = Entity(sim, "s")
        sink = RecordingEntity(sim, "r")
        network.send("ping", sender, sink)
        sim.run()
        assert sim.now == 2.5
        assert sink.inbox[0].latency == 2.5

    def test_counters_track_sends_and_deliveries(self, sim):
        network = Network(sim, FixedLatency(1.0))
        sender = Entity(sim, "s")
        sink = RecordingEntity(sim, "r")
        network.send("a", sender, sink)
        network.send("b", sender, sink)
        assert network.messages_sent == 2
        assert network.messages_delivered == 0
        sim.run()
        assert network.messages_delivered == 2

    def test_message_fields(self, sim):
        network = Network(sim, FixedLatency(1.0))
        sender = Entity(sim, "s")
        sink = RecordingEntity(sim, "r")
        sim.run_until(5.0)
        message = network.send("kind", sender, sink, payload=42)
        assert message.kind == "kind"
        assert message.sender is sender
        assert message.recipient is sink
        assert message.payload == 42
        assert message.sent_at == 5.0
        assert message.delivered_at == 6.0

    def test_negative_model_delay_rejected(self, sim):
        class Broken:
            def delay(self, s, r):
                return -1.0

        network = Network(sim, Broken())
        sender = Entity(sim, "s")
        sink = RecordingEntity(sim, "r")
        with pytest.raises(ValueError, match="negative delay"):
            network.send("x", sender, sink)

    def test_in_flight_message_survives_sender_state_change(self, sim):
        """A message sent before a provider leaves still arrives."""
        network = Network(sim, FixedLatency(1.0))
        sender = Entity(sim, "s")
        sink = RecordingEntity(sim, "r")
        network.send("x", sender, sink)
        # mutate the sender before delivery; delivery must still happen
        sender.name = "renamed"
        sim.run()
        assert len(sink.inbox) == 1


class TestWorstRoundTrip:
    """``worst_round_trip`` draws what the per-pair ``delay`` loop draws:
    same floats, same stream, same order -- the stream state is the test."""

    @staticmethod
    def _parties(n_informed):
        sim = Simulator()
        mediator, consumer = Entity(sim, "m"), Entity(sim, "c")
        informed = [Entity(sim, f"p{i}") for i in range(n_informed)]
        return mediator, consumer, informed

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        low=st.floats(min_value=0.0, max_value=1.0),
        width=st.floats(min_value=1e-9, max_value=2.0),
        n_informed=st.sampled_from([0, 1, 10]),
    )
    @settings(max_examples=60, deadline=None)
    def test_uniform_override_equals_the_per_pair_loop(self, seed, low, width, n_informed):
        mediator, consumer, informed = self._parties(n_informed)
        batched = UniformLatency(low, low + width, RandomStream(seed))
        looped = UniformLatency(low, low + width, RandomStream(seed))
        expected = LatencyModel.worst_round_trip(looped, mediator, consumer, informed)
        assert batched.worst_round_trip(mediator, consumer, informed) == expected
        assert batched._stream._rng.getstate() == looped._stream._rng.getstate()
        # and the next draw of the run lands where it would have
        assert batched.delay(mediator, consumer) == looped.delay(mediator, consumer)

    @pytest.mark.parametrize("n_informed", [0, 1, 10])
    def test_degenerate_band_and_zero_latency_leave_the_stream_alone(self, n_informed):
        mediator, consumer, informed = self._parties(n_informed)
        stream = RandomStream(7)
        before = stream._rng.getstate()
        assert UniformLatency(0.2, 0.2, stream).worst_round_trip(
            mediator, consumer, informed
        ) == 0.2 + 0.2
        assert stream._rng.getstate() == before
        assert ZeroLatency().worst_round_trip(mediator, consumer, informed) == 0.0
        assert FixedLatency(0.05).worst_round_trip(mediator, consumer, informed) == 0.05 + 0.05

    def test_custom_model_without_the_override_goes_through_delay(self):
        class PerPair(LatencyModel):
            """Pair-dependent: a batched draw would be wrong here."""

            def __init__(self):
                self.calls = []

            def delay(self, sender, recipient):
                self.calls.append((sender.name, recipient.name))
                return 0.01 * len(sender.name + recipient.name)

        mediator, consumer, informed = self._parties(2)
        informed[1].name = "provider-far-away"
        model = PerPair()
        worst = model.worst_round_trip(mediator, consumer, informed)
        assert worst == 2 * 0.01 * len("m" + "provider-far-away")
        assert model.calls == [
            ("m", "c"), ("c", "m"),
            ("m", "p0"), ("p0", "m"),
            ("m", "provider-far-away"), ("provider-far-away", "m"),
        ]
        assert model.constant_delay() is None
