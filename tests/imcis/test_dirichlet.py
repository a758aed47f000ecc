"""Unit + property tests for Dirichlet candidate-row generation (§IV-B/C)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OptimizationError
from repro.imcis import DirichletConfig, DirichletRowSampler


def sampler_for(center, eps, config=DirichletConfig()):
    center = np.asarray(center, dtype=float)
    eps = np.asarray(eps, dtype=float)
    lower = np.clip(center - eps, 0.0, 1.0)
    upper = np.clip(center + eps, 0.0, 1.0)
    support = np.arange(center.size)
    return DirichletRowSampler(support, center, lower, upper, config)


class TestConfig:
    def test_strategy_validated(self):
        with pytest.raises(OptimizationError):
            DirichletConfig(k_strategy="geometric")

    def test_inflation_validated(self):
        with pytest.raises(OptimizationError):
            DirichletConfig(inflation=0.9)

    def test_aggregate_strategies(self):
        from repro.imcis.dirichlet import aggregate_k

        values = np.array([1.0, 4.0, 10.0])
        assert aggregate_k(values, "min") == 1.0
        assert aggregate_k(values, "mean") == pytest.approx(5.0)
        assert aggregate_k(values, "median") == 4.0


class TestConcentration:
    def test_paper_formula(self):
        """K = â(1-â)/ε² − 1 for the illustrative a-transition."""
        sampler = sampler_for([3e-4, 1 - 3e-4], [2.5e-4, 2.5e-4])
        expected = 3e-4 * (1 - 3e-4) / (2.5e-4) ** 2 - 1
        assert sampler.concentration == pytest.approx(expected, rel=1e-9)
        assert not sampler.uses_two_scale_split

    def test_two_scale_triggered_by_heterogeneous_k(self):
        # Three coordinates, one with far tighter relative margin.
        center = [0.5, 0.3, 0.2]
        eps = [1e-4, 0.1, 0.1]
        sampler = sampler_for(center, eps, DirichletConfig(outlier_ratio=50.0))
        assert sampler.uses_two_scale_split

    def test_split_disabled_by_ratio(self):
        center = [0.5, 0.3, 0.2]
        eps = [1e-4, 0.1, 0.1]
        sampler = sampler_for(center, eps, DirichletConfig(outlier_ratio=1e12))
        assert not sampler.uses_two_scale_split

    def test_too_small_support_rejected(self):
        with pytest.raises(OptimizationError, match="fewer than two"):
            sampler_for([1.0], [0.0])

    def test_all_fixed_rejected(self):
        with pytest.raises(OptimizationError, match="constant"):
            sampler_for([0.5, 0.5], [0.0, 0.0])

    def test_center_must_be_distribution(self):
        with pytest.raises(OptimizationError, match="probability"):
            DirichletRowSampler(
                np.array([0, 1]),
                np.array([0.5, 0.1]),
                np.array([0.0, 0.0]),
                np.array([1.0, 1.0]),
            )


class TestSampling:
    def test_rows_feasible(self, rng):
        sampler = sampler_for([0.3, 0.5, 0.2], [0.05, 0.05, 0.05])
        for _ in range(200):
            row = sampler.sample(rng)
            assert row.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(row >= sampler.lower - 1e-9)
            assert np.all(row <= sampler.upper + 1e-9)

    def test_mean_near_center(self, rng):
        sampler = sampler_for([0.3, 0.5, 0.2], [0.05, 0.05, 0.05])
        rows = np.array([sampler.sample(rng) for _ in range(800)])
        assert np.allclose(rows.mean(axis=0), sampler.center, atol=0.02)

    def test_spread_covers_interval(self, rng):
        """Coordinates should visit the outer thirds of their interval —
        the 'well-spread around the mean' goal of §IV-B."""
        sampler = sampler_for([0.3, 0.7], [0.05, 0.05])
        rows = np.array([sampler.sample(rng) for _ in range(800)])
        a = rows[:, 0]
        assert (a < 0.27).mean() > 0.05
        assert (a > 0.33).mean() > 0.05

    def test_fixed_coordinates_pinned(self, rng):
        sampler = sampler_for([0.3, 0.5, 0.2], [0.0, 0.05, 0.05])
        for _ in range(50):
            row = sampler.sample(rng)
            assert row[0] == pytest.approx(0.3)

    def test_two_scale_rows_feasible(self, rng):
        sampler = sampler_for(
            [0.5, 0.3, 0.2], [1e-3, 0.08, 0.08], DirichletConfig(outlier_ratio=50.0)
        )
        assert sampler.uses_two_scale_split
        for _ in range(200):
            row = sampler.sample(rng)
            assert row.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(row >= sampler.lower - 1e-9)
            assert np.all(row <= sampler.upper + 1e-9)

    def test_inflation_learned_and_persisted(self, rng):
        # A very tight box around an off-centre point forces rejections.
        center = np.array([0.5, 0.5])
        eps = np.array([0.4, 0.4])
        lower = np.array([0.47, 0.47])
        upper = np.array([0.53, 0.53])
        sampler = DirichletRowSampler(
            np.array([0, 1]), center, lower, upper, DirichletConfig(inflate_after=2)
        )
        sampler.sample(rng)
        assert sampler.k_scale >= 1.0
        stats_before = sampler.stats.rejections
        sampler.sample(rng)
        # Second call reuses the learnt scale: far fewer new rejections.
        assert sampler.stats.rejections - stats_before <= stats_before + 64

    def test_rare_transition_row(self, rng):
        """The illustrative s0 row: a ∈ [0.5e-4, 5.5e-4]."""
        sampler = sampler_for([3e-4, 1 - 3e-4], [2.5e-4, 2.5e-4])
        rows = np.array([sampler.sample(rng) for _ in range(500)])
        a = rows[:, 0]
        assert np.all(a >= 0.5e-4 - 1e-12)
        assert np.all(a <= 5.5e-4 + 1e-12)
        assert a.std() > 0.5e-4  # genuinely spread, not collapsed


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), size=st.integers(2, 6))
def test_sampled_rows_always_feasible(seed, size):
    gen = np.random.default_rng(seed)
    center = gen.dirichlet(np.ones(size) * 2.0)
    eps = gen.uniform(0.01, 0.2, size)
    lower = np.clip(center - eps, 0.0, 1.0)
    upper = np.clip(center + eps, 0.0, 1.0)
    sampler = DirichletRowSampler(np.arange(size), center, lower, upper)
    for _ in range(20):
        row = sampler.sample(gen)
        assert row.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(row >= lower - 1e-9)
        assert np.all(row <= upper + 1e-9)


class CountingRng:
    """A generator that counts the gamma variates a row sampler draws.

    Every Dirichlet candidate is ``group size`` gammas, so the number of
    candidate vectors drawn is ``gamma_variates / group size``.
    """

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self.gamma_variates = 0

    def uniform(self, low, high):
        return self._rng.uniform(low, high)

    def standard_gamma(self, shape, size=None, out=None):
        result = self._rng.standard_gamma(shape, size=size, out=out)
        self.gamma_variates += result.size
        return result


class TestDrawAccounting:
    """``samples + rejections`` is the number of candidate vectors drawn."""

    def test_counts_every_dirichlet_vector(self):
        sampler = sampler_for([0.05, 0.15, 0.3, 0.5], [0.02, 0.04, 0.06, 0.08])
        rng = CountingRng(1)
        for size in (None, 7, 50):
            sampler.sample(rng, size=size)
        stats = sampler.stats
        assert stats.samples == 58
        assert stats.rejections > 0
        assert stats.samples + stats.rejections == rng.gamma_variates // 4

    def test_counts_two_scale_vectors(self):
        sampler = sampler_for(
            [0.5, 0.3, 0.2], [1e-3, 0.08, 0.08], DirichletConfig(outlier_ratio=50.0)
        )
        rng = CountingRng(2)
        sampler.sample(rng, size=30)
        stats = sampler.stats
        assert stats.samples == 30
        # The uniform coordinate is split off: the group has two coordinates.
        assert stats.samples + stats.rejections == rng.gamma_variates // 2

    def test_failed_uniform_pass_counts_one_vector(self):
        # The first uniform coordinate cannot fit: the other two rows hold
        # at most 0.45 of the mass, so it would need at least 0.55.
        config = DirichletConfig(outlier_ratio=50.0, max_attempts=40)
        sampler = DirichletRowSampler(
            np.arange(3),
            np.array([0.5, 0.3, 0.2]),
            np.array([0.499, 0.22, 0.12]),
            np.array([0.501, 0.25, 0.2]),
            config,
        )
        assert sampler.uses_two_scale_split
        with pytest.raises(OptimizationError, match="after 40 attempts"):
            sampler.sample(np.random.default_rng(0), size=5)
        assert sampler.stats.samples == 0
        assert sampler.stats.rejections == 5 * 40


class TestRobustness:
    def test_exhaustion_names_state_and_support(self):
        # Both coordinates must be at least 0.6: no distribution fits.
        sampler = DirichletRowSampler(
            np.array([3, 8]),
            np.array([0.5, 0.5]),
            np.array([0.6, 0.6]),
            np.array([0.7, 0.7]),
            DirichletConfig(max_attempts=64),
            state=7,
        )
        with pytest.raises(OptimizationError, match=r"state 7.*support size 2"):
            sampler.sample(np.random.default_rng(0), size=16)

    def test_candidate_space_labels_samplers_with_their_state(self):
        from repro.core import DTMC, IMC, TransitionCounts
        from repro.imcis import CandidateSpace, ObservationTables
        from repro.importance.estimator import ISSample

        matrix = np.array([[0.0, 0.5, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        imc = IMC.from_center(DTMC(matrix, 0), 0.1 * (matrix > 0) * (matrix < 1))
        paths = [[0, 1], [0, 2]]
        sample = ISSample(
            n_total=2,
            counts=[TransitionCounts.from_path(p) for p in paths],
            log_proposal=[0.0, 0.0],
        )
        space = CandidateSpace(imc, ObservationTables.from_sample(sample))
        assert [p.sampler.state for p in space.sampled_plans] == [0]

    def test_underflowing_gammas_are_rejected_never_nan(self):
        # K clamps to 1e-12, so every α sits at alpha_floor (1e-8) and the
        # gammas underflow to zero: such a draw has no direction at all.
        config = DirichletConfig(min_k=1e-12, max_attempts=160)
        sampler = DirichletRowSampler(
            np.arange(2), np.array([0.5, 0.5]), np.zeros(2), np.ones(2), config
        )
        rng = CountingRng(0)
        with np.errstate(all="raise"), pytest.raises(OptimizationError):
            sampler.sample(rng, size=4)
        assert sampler.stats.samples == 0
        assert sampler.stats.rejections == rng.gamma_variates // 2 > 0


class TestBlocks:
    def test_block_shape_and_feasibility(self, rng):
        sampler = sampler_for([0.3, 0.5, 0.2], [0.05, 0.05, 0.05])
        block = sampler.sample(rng, size=40)
        assert block.shape == (40, 3)
        assert np.allclose(block.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(block >= sampler.lower - 1e-9)
        assert np.all(block <= sampler.upper + 1e-9)
        # Rows of a block are independent draws, not copies.
        assert np.unique(block[:, 0]).size == 40

    def test_single_row_is_a_block_of_one(self):
        one = sampler_for([0.3, 0.5, 0.2], [0.05, 0.05, 0.05])
        block = sampler_for([0.3, 0.5, 0.2], [0.05, 0.05, 0.05])
        row = one.sample(np.random.default_rng(3))
        rows = block.sample(np.random.default_rng(3), size=1)
        assert row.shape == (3,)
        assert np.array_equal(row, rows[0])

    def test_two_scale_block_feasible(self, rng):
        sampler = sampler_for(
            [0.5, 0.3, 0.2], [1e-3, 0.08, 0.08], DirichletConfig(outlier_ratio=50.0)
        )
        block = sampler.sample(rng, size=64)
        assert np.allclose(block.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(block >= sampler.lower - 1e-9)
        assert np.all(block <= sampler.upper + 1e-9)
        # The uniform coordinate is drawn per row, not once per block.
        assert np.unique(block[:, 0]).size == 64
