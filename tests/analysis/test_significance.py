"""Unit tests for the Welch t-test comparison helpers."""

import pytest

from repro.analysis.significance import (
    Comparison,
    holm_adjust,
    holm_correction,
    welch_t_test,
)


class TestWelchTTest:
    def test_identical_samples_not_significant(self):
        t, dof, p = welch_t_test([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        assert t == 0.0
        assert p == 1.0

    def test_clearly_separated_samples(self):
        t, dof, p = welch_t_test([1.0, 1.1, 0.9, 1.05], [5.0, 5.1, 4.9, 5.05])
        assert p < 0.001
        assert t < 0  # a < b

    def test_matches_scipy_reference(self):
        from scipy import stats

        a = [2.1, 2.5, 2.3, 2.9, 2.0]
        b = [2.8, 3.1, 3.3, 2.9]
        t, dof, p = welch_t_test(a, b)
        reference = stats.ttest_ind(a, b, equal_var=False)
        assert t == pytest.approx(reference.statistic)
        assert p == pytest.approx(reference.pvalue)

    def test_symmetry(self):
        a = [1.0, 2.0, 3.0]
        b = [2.0, 3.0, 4.0]
        t_ab, _, p_ab = welch_t_test(a, b)
        t_ba, _, p_ba = welch_t_test(b, a)
        assert t_ab == pytest.approx(-t_ba)
        assert p_ab == pytest.approx(p_ba)

    def test_sample_size_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            welch_t_test([1.0], [1.0, 2.0])

    def test_without_scipy_names_the_extra(self, monkeypatch):
        """scipy is imported where it is used; blocking it leaves the
        rest of the module importable and the failure self-explaining."""
        import sys

        monkeypatch.setitem(sys.modules, "scipy", None)
        with pytest.raises(ImportError, match=r"sbqa-repro\[stats\]"):
            welch_t_test([1.0, 2.0, 3.0], [2.0, 3.0, 5.0])
        # zero pooled variance returns before the CDF is needed
        assert welch_t_test([1.0, 1.0], [1.0, 1.0]) == (0.0, 2.0, 1.0)


class TestCompareAggregates:
    """Two policies compared on the samples a replicated Session run
    produces, through the sweep layer's per-point comparison."""

    def _comparison(self, replications=3):
        from repro.api.builder import Experiment
        from repro.api.results import SweepPointResult
        from repro.api.session import Session
        from repro.api.sweep import SweepPoint

        spec = (
            Experiment.builder()
            .named("sig")
            .seed(11)
            .duration(400.0)
            .providers(30)
            .policy("sbqa")
            .policy("capacity")
            .replications(replications)
            .build()
        )
        point = SweepPointResult(
            point=SweepPoint(0, {}, {}, "base", spec),
            experiment=Session(spec).run(keep_runs=False),
        )
        (comparison,) = point.comparisons(["provider_sat_final"])
        return comparison

    def test_comparison_fields(self):
        comparison = self._comparison()
        assert comparison.metric == "provider_sat_final"
        assert comparison.label_a == "sbqa"
        assert comparison.label_b == "capacity"
        assert comparison.difference == pytest.approx(
            comparison.mean_a - comparison.mean_b
        )
        assert 0.0 <= comparison.p_value <= 1.0
        assert "provider_sat_final" in comparison.format()

    def test_sbqa_satisfaction_advantage_is_significant(self):
        """The core paper effect survives a significance test."""
        comparison = self._comparison(replications=4)
        assert comparison.difference > 0
        assert comparison.significant(alpha=0.05)


def _comparison(metric, p_value):
    return Comparison(
        metric=metric,
        label_a="a",
        label_b="b",
        mean_a=1.0,
        mean_b=2.0,
        difference=-1.0,
        t_statistic=-2.0,
        degrees_of_freedom=4.0,
        p_value=p_value,
    )


class TestHolmCorrection:
    def test_matches_hand_computation(self):
        # m=3: sorted (0.01, 0.02, 0.05) -> scaled (0.03, 0.04, 0.05),
        # already monotone; mapped back to the input order.
        assert holm_correction([0.02, 0.05, 0.01]) == [
            pytest.approx(0.04),
            pytest.approx(0.05),
            pytest.approx(0.03),
        ]

    def test_monotonicity_enforced(self):
        # scaled values (0.02, then 1*0.02=0.02) tie; the running
        # maximum keeps the adjusted sequence monotone in rank order.
        assert holm_correction([0.01, 0.02]) == [
            pytest.approx(0.02),
            pytest.approx(0.02),
        ]
        # a genuine inversion: scaled (3*0.01, 2*0.02, 1*0.025) =
        # (0.03, 0.04, 0.025) -> running max lifts the last to 0.04
        assert holm_correction([0.01, 0.02, 0.025]) == [
            pytest.approx(0.03),
            pytest.approx(0.04),
            pytest.approx(0.04),
        ]

    def test_matches_reference_implementation(self):
        multitest = pytest.importorskip(
            "statsmodels.stats.multitest", reason="statsmodels not installed"
        )
        ps = [0.004, 0.03, 0.02, 0.2, 0.9, 0.049]
        _, adjusted, _, _ = multitest.multipletests(ps, method="holm")
        assert holm_correction(ps) == pytest.approx(list(adjusted))

    def test_clips_at_one(self):
        assert holm_correction([0.9, 0.8, 0.7]) == [1.0, 1.0, 1.0]

    def test_single_and_empty_families(self):
        assert holm_correction([]) == []
        assert holm_correction([0.03]) == [pytest.approx(0.03)]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            holm_correction([0.5, 1.5])

    def test_never_below_raw_p(self):
        ps = [0.001, 0.04, 0.04, 0.2, 0.6]
        for raw, adjusted in zip(ps, holm_correction(ps)):
            assert adjusted >= raw


class TestHolmAdjust:
    def test_fills_p_adjusted_preserving_order(self):
        family = [_comparison("m1", 0.03), _comparison("m2", 0.01)]
        adjusted = holm_adjust(family)
        assert [c.metric for c in adjusted] == ["m1", "m2"]
        # sorted (0.01, 0.03) -> scaled (0.02, 0.03), mapped back
        assert adjusted[0].p_adjusted == pytest.approx(0.03)
        assert adjusted[1].p_adjusted == pytest.approx(0.02)
        # originals untouched (frozen dataclass, copies returned)
        assert family[0].p_adjusted is None

    def test_significant_uses_adjusted_p(self):
        lone = _comparison("m", 0.03)
        assert lone.significant(alpha=0.05)
        family = holm_adjust([lone, _comparison("m2", 0.04)])
        # 0.03 doubles to 0.06 under Holm with m=2
        assert not family[0].significant(alpha=0.05)
        assert "p_holm" in family[0].format()
        assert family[0].as_dict()["p_adjusted"] == pytest.approx(0.06)

    def test_as_dict_carries_none_when_uncorrected(self):
        assert _comparison("m", 0.5).as_dict()["p_adjusted"] is None
