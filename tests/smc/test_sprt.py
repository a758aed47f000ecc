"""Unit tests for Wald's sequential probability ratio test."""

import pytest

from repro.analysis import probability
from repro.errors import EstimationError
from repro.models import illustrative
from repro.properties import parse_property
from repro.smc import sprt


class TestSPRT:
    def test_parallel_batches_like_kernel(self):
        # A parallel backend walks verdicts in chunks like its kernel inner
        # engine; chunks below the shard size run in-process on the
        # caller's generator, so the whole test is identical.
        chain = illustrative.illustrative_chain(0.3, 0.4)
        formula = illustrative.reach_goal_formula()
        kernel = sprt(chain, formula, 0.2, 0.02, rng=5, backend="kernel")
        parallel = sprt(chain, formula, 0.2, 0.02, rng=5, backend="parallel")
        assert kernel.n_samples > 1
        assert parallel == kernel

    def test_accepts_true_hypothesis(self, small_chain, rng):
        formula = parse_property('F "goal"')
        gamma = probability(small_chain, formula)  # ~0.136
        result = sprt(small_chain, formula, gamma - 0.1, 0.02, rng=rng)
        assert result.accepted
        assert result.decision == "accept"

    def test_rejects_false_hypothesis(self, small_chain, rng):
        formula = parse_property('F "goal"')
        gamma = probability(small_chain, formula)
        result = sprt(small_chain, formula, gamma + 0.1, 0.02, rng=rng)
        assert not result.accepted
        assert result.decision == "reject"

    def test_sequential_uses_fewer_samples_far_from_threshold(self, small_chain, rng):
        formula = parse_property('F "goal"')
        far = sprt(small_chain, formula, 0.9, 0.05, rng=rng)
        assert far.decision == "reject"
        assert far.n_samples < 200

    def test_undecided_at_cap(self, small_chain, rng):
        formula = parse_property('F "goal"')
        gamma = probability(small_chain, formula)
        result = sprt(
            small_chain, formula, gamma, 0.001, rng=rng, max_samples=50
        )
        assert result.decision == "undecided"
        assert result.n_samples == 50

    def test_invalid_indifference(self, small_chain):
        with pytest.raises(EstimationError, match="indifference"):
            sprt(small_chain, parse_property('F "goal"'), 0.01, 0.05)

    def test_invalid_errors(self, small_chain):
        with pytest.raises(EstimationError, match="alpha"):
            sprt(small_chain, parse_property('F "goal"'), 0.5, 0.1, alpha=2.0)
