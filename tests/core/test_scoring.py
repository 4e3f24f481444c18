"""Unit and property tests for the SQLB score (Definition 3)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scoring import (
    DEFAULT_EPSILON,
    ScoredProvider,
    rank_providers,
    score_pairs,
    sqlb_score,
)

intentions = st.floats(min_value=-1.0, max_value=1.0)
omegas = st.floats(min_value=0.0, max_value=1.0)


class TestScoreBranches:
    def test_positive_branch_value(self):
        # PI=0.5, CI=0.5, omega=0.5 -> sqrt(0.5)*sqrt(0.5) = 0.5
        assert sqlb_score(0.5, 0.5, 0.5) == pytest.approx(0.5)

    def test_positive_branch_omega_extremes(self):
        assert sqlb_score(0.4, 0.9, 1.0) == pytest.approx(0.4)
        assert sqlb_score(0.4, 0.9, 0.0) == pytest.approx(0.9)

    def test_negative_branch_when_provider_objects(self):
        assert sqlb_score(-0.5, 0.9, 0.5) < 0.0

    def test_negative_branch_when_consumer_objects(self):
        assert sqlb_score(0.9, -0.5, 0.5) < 0.0

    def test_zero_intention_uses_negative_branch(self):
        """The positive branch needs strictly positive intentions."""
        assert sqlb_score(0.0, 0.9, 0.5) < 0.0
        assert sqlb_score(0.9, 0.0, 0.5) < 0.0

    def test_negative_branch_value(self):
        # PI=-1, CI=-1, omega=0.5, eps=1 -> -((3)^0.5 * (3)^0.5) = -3
        assert sqlb_score(-1.0, -1.0, 0.5) == pytest.approx(-3.0)

    def test_epsilon_keeps_information_at_intention_one(self):
        """With PI=1 but CI<0 the provider side must not erase the
        consumer's objection (the paper's stated reason for epsilon)."""
        mild = sqlb_score(1.0, -0.1, 0.5, epsilon=1.0)
        strong = sqlb_score(1.0, -0.9, 0.5, epsilon=1.0)
        assert strong < mild < 0.0

    def test_vanishing_epsilon_lets_eagerness_erase_the_consumer_veto(self):
        """The failure epsilon guards against: an eager provider the
        consumer fully objects to (PI=1, CI=-1) scores -0 as epsilon
        vanishes and outranks every neutral provider the consumer
        wants (PI=0, CI=c>0)."""

        def veto_respected(epsilon):
            pariah = sqlb_score(1.0, -1.0, 0.5, epsilon)
            wanted = [sqlb_score(0.0, i / 50.0, 0.5, epsilon) for i in range(1, 50)]
            return sum(score > pariah for score in wanted) / len(wanted)

        fractions = [veto_respected(e) for e in (1e-9, 0.01, 0.1, 0.5, 1.0, 2.0)]
        assert fractions[0] < 0.05  # score collapse
        assert veto_respected(1.0) > 0.4  # the paper's default
        assert fractions == sorted(fractions)  # monotone in epsilon

    def test_validation(self):
        with pytest.raises(ValueError, match="provider intention"):
            sqlb_score(1.5, 0.0, 0.5)
        with pytest.raises(ValueError, match="consumer intention"):
            sqlb_score(0.5, -1.5, 0.5)
        with pytest.raises(ValueError, match="omega"):
            sqlb_score(0.5, 0.5, 1.5)
        with pytest.raises(ValueError, match="epsilon"):
            sqlb_score(0.5, 0.5, 0.5, epsilon=0.0)


class TestScoreProperties:
    @given(intentions, intentions, omegas)
    def test_sign_iff_both_positive(self, pi, ci, omega):
        score = sqlb_score(pi, ci, omega)
        if pi > 0 and ci > 0:
            assert score > 0
        else:
            assert score <= 0

    @given(intentions, intentions, omegas)
    def test_positive_providers_always_outrank_objectionable(self, ci, pi, omega):
        """Any mutually wanted pairing beats any objected pairing."""
        if pi > 0 and ci > 0:
            good = sqlb_score(pi, ci, omega)
            bad = sqlb_score(-abs(pi), ci, omega)
            assert good > bad

    @given(
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
        omegas,
    )
    def test_positive_branch_monotone_in_provider_intention(self, a, b, ci, omega):
        lo, hi = sorted((a, b))
        assert sqlb_score(lo, ci, omega) <= sqlb_score(hi, ci, omega) + 1e-12

    @given(
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
        omegas,
    )
    def test_positive_branch_monotone_in_consumer_intention(self, a, b, pi, omega):
        lo, hi = sorted((a, b))
        assert sqlb_score(pi, lo, omega) <= sqlb_score(pi, hi, omega) + 1e-12

    @given(intentions, intentions, intentions, omegas)
    def test_negative_branch_monotone_in_intentions(self, a, b, other, omega):
        """Less objectionable pairs score closer to zero."""
        lo, hi = sorted((a, b))
        negative_other = -abs(other)  # forces the negative branch
        assert (
            sqlb_score(lo, negative_other, omega)
            <= sqlb_score(hi, negative_other, omega) + 1e-12
        )

    @given(intentions, intentions, omegas)
    def test_score_bounds(self, pi, ci, omega):
        score = sqlb_score(pi, ci, omega)
        # positive branch is bounded by 1; negative by (2+eps).  The
        # negative bound needs an ulp allowance: at pi=ci=-1 the branch
        # computes (2+eps)^w * (2+eps)^(1-w), which is exactly 2+eps in
        # the reals but can round one ulp past it in floats.
        assert -(2.0 + DEFAULT_EPSILON) - 1e-12 <= score <= 1.0

    @given(st.floats(min_value=0.01, max_value=1.0), omegas)
    def test_omega_irrelevant_when_intentions_equal(self, value, omega):
        assert sqlb_score(value, value, omega) == pytest.approx(value)

    @given(intentions, intentions, omegas)
    def test_omega_symmetry(self, pi, ci, omega):
        """Swapping intentions mirrors omega around 1/2."""
        assert sqlb_score(pi, ci, omega) == pytest.approx(
            sqlb_score(ci, pi, 1.0 - omega)
        )


class TestRanking:
    @staticmethod
    def entry(pid, score):
        return ScoredProvider(
            provider_id=pid,
            score=score,
            omega=0.5,
            provider_intention=0.0,
            consumer_intention=0.0,
        )

    def test_best_score_first(self):
        ranking = rank_providers(
            [self.entry("a", 0.1), self.entry("b", 0.9), self.entry("c", 0.5)]
        )
        assert [e.provider_id for e in ranking] == ["b", "c", "a"]

    def test_negative_scores_rank_below_positive(self):
        ranking = rank_providers([self.entry("a", -0.1), self.entry("b", 0.05)])
        assert [e.provider_id for e in ranking] == ["b", "a"]

    def test_ties_break_deterministically_by_id(self):
        ranking = rank_providers(
            [self.entry("z", 0.5), self.entry("a", 0.5), self.entry("m", 0.5)]
        )
        assert [e.provider_id for e in ranking] == ["a", "m", "z"]

    def test_custom_tie_break(self):
        ranking = rank_providers(
            [self.entry("a", 0.5), self.entry("b", 0.5)],
            tie_break=lambda s: (-ord(s.provider_id),),
        )
        assert [e.provider_id for e in ranking] == ["b", "a"]

    @given(st.lists(st.floats(min_value=-3, max_value=1), min_size=1, max_size=20))
    def test_ranking_scores_non_increasing(self, scores):
        entries = [self.entry(f"p{i}", s) for i, s in enumerate(scores)]
        ranking = rank_providers(entries)
        ranked_scores = [e.score for e in ranking]
        assert ranked_scores == sorted(ranked_scores, reverse=True)


class TestScorePairs:
    def test_per_provider_omega(self):
        pairs = [("a", 0.5, 0.5), ("b", 0.5, 0.5)]
        omegas_used = {"a": 1.0, "b": 0.0}
        scored = score_pairs(pairs, omega_for=lambda pid: omegas_used[pid])
        by_id = {s.provider_id: s for s in scored}
        assert by_id["a"].omega == 1.0
        assert by_id["b"].omega == 0.0
        assert by_id["a"].score == pytest.approx(0.5)

    def test_preserves_intentions(self):
        scored = score_pairs([("a", 0.3, 0.7)], omega_for=lambda pid: 0.5)
        assert scored[0].provider_intention == 0.3
        assert scored[0].consumer_intention == 0.7
