"""Scoring parity: the batch kernel vs the scalar Definition-3 kernel.

The fast engine ranks every consulted provider through
:func:`repro.core.scoring.score_providers_batch`; these tests pin it
to :func:`~repro.core.scoring.sqlb_score` with exact float equality
across every branch boundary of Definition 3 and a randomized grid.
"""

import itertools
import random

import pytest

from repro.core.scoring import (
    DEFAULT_EPSILON,
    score_providers_batch,
    sqlb_score,
)

#: Branch boundaries of Definition 3: intentions at the +/-1 extremes,
#: exactly 0 (the positive branch needs strict positivity), a denormal
#: nudge above 0, and interior points of both signs.
BOUNDARY_INTENTIONS = (-1.0, -0.5, 0.0, 5e-324, 1e-12, 0.5, 1.0)

#: Omega at its ends (provider-only / consumer-only ranking) + interior.
BOUNDARY_OMEGAS = (0.0, 0.25, 0.5, 1.0)

#: Epsilon at the paper default and near its lower legality edge.
BOUNDARY_EPSILONS = (1e-12, 0.5, DEFAULT_EPSILON, 2.0)


class TestBranchBoundaries:
    def test_exact_equality_over_the_boundary_grid(self):
        """Every (PI, CI, omega, eps) boundary combination, bit-equal."""
        for epsilon in BOUNDARY_EPSILONS:
            triples = list(
                itertools.product(
                    BOUNDARY_INTENTIONS, BOUNDARY_INTENTIONS, BOUNDARY_OMEGAS
                )
            )
            pis = [t[0] for t in triples]
            cis = [t[1] for t in triples]
            omegas = [t[2] for t in triples]
            batch = score_providers_batch(pis, cis, omegas, epsilon)
            for (pi, ci, omega), got in zip(triples, batch):
                expected = sqlb_score(pi, ci, omega, epsilon)
                assert got == expected, (pi, ci, omega, epsilon)

    def test_positive_branch_needs_both_strictly_positive(self):
        """PI or CI exactly 0 falls to the negative branch, like scalar."""
        scores = score_providers_batch(
            [0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.5, 0.5, 0.5]
        )
        assert all(s < 0 for s in scores)

    def test_randomized_grid_exact(self):
        rng = random.Random(20090301)
        pis = [rng.uniform(-1.0, 1.0) for _ in range(500)]
        cis = [rng.uniform(-1.0, 1.0) for _ in range(500)]
        omegas = [rng.random() for _ in range(500)]
        for epsilon in (0.25, DEFAULT_EPSILON, 3.0):
            batch = score_providers_batch(pis, cis, omegas, epsilon)
            for pi, ci, omega, got in zip(pis, cis, omegas, batch):
                assert got == sqlb_score(pi, ci, omega, epsilon)

    def test_empty_batch(self):
        assert score_providers_batch([], [], []) == []


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal lengths"):
            score_providers_batch([0.5], [0.5, 0.5], [0.5])

    def test_epsilon_validated_even_without_validate(self):
        with pytest.raises(ValueError, match="epsilon"):
            score_providers_batch([0.5], [0.5], [0.5], 0.0, validate=False)

    def test_out_of_range_inputs_raise(self):
        with pytest.raises(ValueError, match="provider intention"):
            score_providers_batch([1.5], [0.5], [0.5])
        with pytest.raises(ValueError, match="consumer intention"):
            score_providers_batch([0.5], [-1.5], [0.5])
        with pytest.raises(ValueError, match="omega"):
            score_providers_batch([0.5], [0.5], [1.5])

    def test_validate_false_skips_range_checks(self):
        # Positive in-range values still score identically.
        assert score_providers_batch(
            [0.5], [0.5], [0.5], validate=False
        ) == [sqlb_score(0.5, 0.5, 0.5)]
