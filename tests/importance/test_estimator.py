"""Unit tests for the IS estimator (Equation 7)."""

import numpy as np
import pytest

from repro.analysis import probability
from repro.core import DTMC, TransitionCounts
from repro.errors import EstimationError
from repro.importance import (
    ISSample,
    ess_from_log_weights,
    estimate_from_sample,
    importance_sampling_estimate,
    log_weights,
    moments_from_log_weights,
    run_importance_sampling,
)
from repro.properties import parse_property

from tests.conftest import illustrative_matrix


@pytest.fixture
def setup():
    original = DTMC(illustrative_matrix(0.05, 0.3), 0, labels={"goal": [2], "init": [0]})
    proposal = DTMC(illustrative_matrix(0.5, 0.6), 0, labels={"goal": [2], "init": [0]})
    formula = parse_property('F "goal"')
    return original, proposal, formula


class TestSampling:
    def test_sample_structure(self, setup, rng):
        _, proposal, formula = setup
        sample = run_importance_sampling(proposal, formula, 300, rng)
        assert sample.n_total == 300
        assert 0 < sample.n_satisfied <= 300
        assert len(sample.log_proposal) == sample.n_satisfied
        assert sample.mean_length > 0

    def test_log_weights_shape(self, setup, rng):
        original, proposal, formula = setup
        sample = run_importance_sampling(proposal, formula, 200, rng)
        weights = log_weights(original, sample)
        assert weights.shape == (sample.n_satisfied,)

    def test_log_weights_need_numerators_or_count_arrays(self, setup, rng):
        original, proposal, formula = setup
        tables_only = ISSample(
            n_total=10, counts=[TransitionCounts.from_path([0, 1, 2])], log_proposal=[-1.0]
        )
        fused_only = run_importance_sampling(
            proposal, formula, 200, rng, original=original, keep_counts=False
        )
        other = DTMC(illustrative_matrix(0.08, 0.3), 0, labels={"goal": [2]})
        for chain, sample in ((original, tables_only), (other, fused_only)):
            with pytest.raises(EstimationError, match="neither fused log numerators"):
                log_weights(chain, sample)


class TestEstimation:
    def test_unbiasedness(self, setup, rng):
        original, proposal, formula = setup
        exact = probability(original, formula)
        result = importance_sampling_estimate(original, proposal, formula, 8000, rng)
        assert result.estimate == pytest.approx(exact, rel=0.15)
        assert result.method == "importance-sampling"

    def test_interval_usually_contains_exact(self, setup):
        original, proposal, formula = setup
        exact = probability(original, formula)
        hits = sum(
            importance_sampling_estimate(
                original, proposal, formula, 2000, np.random.default_rng(seed)
            ).interval.contains(exact)
            for seed in range(20)
        )
        assert hits >= 16

    def test_zero_satisfied_gives_zero(self, setup, rng):
        original, proposal, _ = setup
        impossible = parse_property('F<=1 "goal"')
        result = importance_sampling_estimate(original, proposal, impossible, 100, rng)
        assert result.estimate == 0.0
        assert result.interval.width == 0.0

    def test_moments_population_variance(self):
        log_w = np.log(np.array([0.5, 0.25]))
        gamma, sigma = moments_from_log_weights(log_w, 4)
        assert gamma == pytest.approx(0.75 / 4)
        second = (0.25 + 0.0625) / 4
        assert sigma == pytest.approx(np.sqrt(second - gamma**2))

    def test_moments_empty(self):
        gamma, sigma = moments_from_log_weights(np.empty(0), 100)
        assert gamma == 0.0 and sigma == 0.0

    def test_estimate_from_sample_reuse(self, setup, rng):
        """The same sample evaluated against two originals: the estimates
        differ but share the support — Algorithm 1's key property."""
        original, proposal, formula = setup
        other = DTMC(illustrative_matrix(0.08, 0.3), 0, labels={"goal": [2]})
        sample = run_importance_sampling(proposal, formula, 3000, rng)
        first = estimate_from_sample(original, sample)
        second = estimate_from_sample(other, sample)
        assert first.estimate != second.estimate
        assert first.n_samples == second.n_samples == 3000

    def test_invalid_sample_size(self, setup):
        original, proposal, formula = setup
        with pytest.raises(EstimationError):
            run_importance_sampling(proposal, formula, 0)


class TestEffectiveSampleSize:
    def test_equal_weights_give_full_ess(self):
        log_w = np.full(50, -3.0)
        assert ess_from_log_weights(log_w) == pytest.approx(50.0)

    def test_empty_weights(self):
        assert ess_from_log_weights(np.empty(0)) == 0.0

    def test_degenerate_weights_collapse(self):
        # One dominant weight: ESS approaches 1.
        log_w = np.array([0.0, -30.0, -30.0, -30.0])
        assert ess_from_log_weights(log_w) == pytest.approx(1.0, abs=1e-10)

    def test_estimate_carries_ess(self, setup, rng):
        original, proposal, formula = setup
        result = importance_sampling_estimate(original, proposal, formula, 500, rng)
        assert result.ess is not None
        assert 0 < result.ess <= result.n_satisfied + 1e-9

    def test_perfect_proposal_ess_is_sample_size(self):
        from repro.models import illustrative

        proposal = illustrative.perfect_proposal()
        center = illustrative.illustrative_chain(
            illustrative.A_HAT, illustrative.C_HAT
        )
        sample = run_importance_sampling(
            proposal, illustrative.reach_goal_formula(), 400, rng=7
        )
        # Every trace succeeds and carries the constant weight γ.
        assert sample.n_satisfied == 400
        assert sample.effective_sample_size(center) == pytest.approx(400.0)

    def test_monte_carlo_has_no_ess(self, rng):
        from repro.smc import monte_carlo_estimate

        chain = DTMC(illustrative_matrix(0.3, 0.4), 0, labels={"goal": [2]})
        result = monte_carlo_estimate(chain, parse_property('F "goal"'), 200, rng)
        assert result.ess is None
