"""The block search against the one-round search it replaced.

The block search of :mod:`repro.imcis.random_search` draws its random
numbers in a different order from the one-round loop it replaced, so the
two give different results for the same seed. They must still be the same
algorithm: over a fixed set of seeds on a small multi-row space (with a
two-scale row), the distributions of ``gamma_min``, ``gamma_max`` and
``rounds_to_converge`` are compared with a two-sample Kolmogorov–Smirnov
test at level ``ALPHA`` per statistic. The one-round search and its row
sampler are frozen below exactly as they were before the block search.
"""

import numpy as np
import pytest
from scipy.stats import ks_2samp

from repro.core import DTMC, IMC, TransitionCounts
from repro.errors import OptimizationError
from repro.imcis import (
    CandidateSpace,
    DirichletConfig,
    ISObjective,
    ObservationTables,
    RandomSearchConfig,
    random_search,
)
from repro.imcis.dirichlet import aggregate_k
from repro.importance.estimator import ISSample

#: Level of each two-sample test.
ALPHA = 0.01
#: Seeds per arm.
SEEDS = range(120)
#: ``R`` of both searches.
R_UNDEFEATED = 25


# ----------------------------------------------------------------------
# The one-round search, frozen
# ----------------------------------------------------------------------


class FrozenRowSampler:
    """``DirichletRowSampler`` with its one-row ``sample`` before blocks."""

    def __init__(self, support, center, lower, upper, config=DirichletConfig()):
        self.support = np.asarray(support, dtype=int)
        self.center = np.asarray(center, dtype=float)
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        self.config = config
        widths = (self.upper - self.lower) / 2.0
        self._fixed = widths <= config.width_tolerance
        free_idx = np.flatnonzero(~self._fixed)
        eps_free = np.maximum(widths[free_idx], config.width_tolerance)
        centre_free = self.center[free_idx]
        k_values = centre_free * (1.0 - centre_free) / eps_free**2 - 1.0
        k_values = np.maximum(k_values, config.min_k)
        outlier = k_values > config.outlier_ratio * float(k_values.min())
        if np.count_nonzero(~outlier) < 2:
            outlier = np.zeros_like(outlier)
        self._uniform_idx = free_idx[outlier]
        if self._uniform_idx.size:
            self._uniform_idx = self._uniform_idx[np.argsort(-k_values[outlier])]
        self._group = free_idx[~outlier]
        self._group_eps = eps_free[~outlier]
        self._group_centre = centre_free[~outlier]
        self._group_lower = self.lower[self._group]
        self._group_upper = self.upper[self._group]
        self._base_k = aggregate_k(k_values[~outlier], config.k_strategy)
        self._fixed_mass = float(self.center[self._fixed].sum()) if np.any(self._fixed) else 0.0
        self._k_scale = 1.0

    @property
    def uses_two_scale_split(self):
        return self._uniform_idx.size > 0

    def sample(self, rng):
        cfg = self.config
        values = np.empty_like(self.center)
        values[self._fixed] = self.center[self._fixed]
        attempts = 0
        rejected_batches = 0
        while attempts < cfg.max_attempts:
            budget = self._sample_uniform_coords(rng, values)
            if budget is None:
                attempts += 1
                continue
            accepted = self._sample_group(rng, values, budget)
            attempts += cfg.batch_size
            if accepted:
                self._k_scale = max(1.0, self._k_scale * cfg.decay)
                return values
            rejected_batches += 1
            if rejected_batches >= cfg.inflate_after:
                self._k_scale *= cfg.inflation
                rejected_batches = 0
        raise OptimizationError("exhausted")

    def _sample_uniform_coords(self, rng, values):
        budget = 1.0 - self._fixed_mass
        if self._uniform_idx.size == 0:
            return budget
        remaining = list(self._uniform_idx) + list(self._group)
        for pos, idx in enumerate(self._uniform_idx):
            rest = remaining[pos + 1 :]
            rest_lo = float(self.lower[rest].sum())
            rest_up = float(self.upper[rest].sum())
            low = max(float(self.lower[idx]), budget - rest_up)
            high = min(float(self.upper[idx]), budget - rest_lo)
            if low > high:
                return None
            value = rng.uniform(low, high)
            values[idx] = value
            budget -= value
        return budget

    def _sample_group(self, rng, values, budget):
        group = self._group
        if group.size == 1:
            idx = group[0]
            if self.lower[idx] - 1e-12 <= budget <= self.upper[idx] + 1e-12:
                values[idx] = min(max(budget, self.lower[idx]), self.upper[idx])
                return True
            return False
        if budget <= 0.0:
            return False
        centre = self._group_centre
        total_centre = float(centre.sum())
        if self.uses_two_scale_split:
            means = budget * centre / total_centre
            k_values = (
                means * np.maximum(budget - means, 1e-15) / self._group_eps**2 - 1.0
            ) / budget
            k = max(
                aggregate_k(np.maximum(k_values, self.config.min_k), self.config.k_strategy),
                self.config.min_k,
            )
        else:
            k = self._base_k
        alpha = np.maximum(k * self._k_scale * centre, self.config.alpha_floor)
        block = rng.dirichlet(alpha, size=self.config.batch_size)
        candidates = budget * block
        feasible = np.all(
            (candidates >= self._group_lower - 1e-12) & (candidates <= self._group_upper + 1e-12),
            axis=1,
        )
        winners = np.flatnonzero(feasible)
        if winners.size == 0:
            return False
        values[group] = candidates[winners[0]]
        return True


def frozen_random_search(objective, space, rng, config):
    """The one-round Algorithm 2 loop: ``(gamma_min, gamma_max, nr)``."""
    samplers = {
        p.state: FrozenRowSampler(p.support, p.center, p.lower, p.upper, config.dirichlet)
        for p in space.sampled_plans
    }
    best_min_vec, best_max_vec = space.log_vectors(space.center_rows())
    best_min = objective.log_f(best_min_vec)
    best_max = objective.log_f(best_max_vec)
    undefeated = rounds = rounds_to_min = rounds_to_max = 0
    while undefeated < config.r_undefeated:
        if rounds >= config.max_rounds:
            break
        rounds += 1
        candidate = {state: sampler.sample(rng) for state, sampler in samplers.items()}
        cand_min_vec, cand_max_vec = space.log_vectors(candidate)
        value_min = objective.log_f(cand_min_vec)
        value_max = objective.log_f(cand_max_vec)
        improved = False
        if value_min < best_min:
            best_min, best_min_vec, rounds_to_min, improved = value_min, cand_min_vec, rounds, True
        if value_max > best_max:
            best_max, best_max_vec, rounds_to_max, improved = value_max, cand_max_vec, rounds, True
        undefeated = 0 if improved else undefeated + 1
    return (
        objective.moments(best_min_vec).gamma,
        objective.moments(best_max_vec).gamma,
        max(rounds_to_min, rounds_to_max),
    )


# ----------------------------------------------------------------------
# The comparison
# ----------------------------------------------------------------------


def equivalence_problem():
    """A 6-state space with four sampled rows, one of them two-scale.

    States 4 (goal) and 5 (fail) absorb. State 2's transition to 5 has a
    far tighter margin than its others, which triggers the two-scale split.
    """
    matrix = np.zeros((6, 6))
    matrix[0, [1, 2, 5]] = [0.5, 0.3, 0.2]
    matrix[1, [2, 4, 5]] = [0.4, 0.1, 0.5]
    matrix[2, [1, 3, 5]] = [0.3, 0.3, 0.4]
    matrix[3, [4, 0]] = [0.6, 0.4]
    matrix[4, 4] = matrix[5, 5] = 1.0
    eps = np.where(matrix > 0, 0.06, 0.0)
    eps[2, 5] = 1e-3
    eps[4, 4] = eps[5, 5] = 0.0
    imc = IMC.from_center(DTMC(matrix, 0), eps)
    paths = [[0, 1, 4], [0, 2, 3, 4], [0, 1, 2, 3, 4], [0, 2, 1, 4], [0, 1, 2, 1, 4]]
    paths += [[0, 2, 3, 0, 1, 4], [0, 1, 4], [0, 2, 1, 2, 3, 4]]
    counts = [TransitionCounts.from_path(p) for p in paths]
    log_proposal = [float(np.log(matrix[p[:-1], p[1:]]).sum()) - 0.5 for p in paths]
    sample = ISSample(n_total=40, counts=counts, log_proposal=log_proposal)
    tables = ObservationTables.from_sample(sample)
    return ISObjective(tables), CandidateSpace(imc, tables)


def test_problem_exercises_the_block_paths():
    _, space = equivalence_problem()
    assert space.n_sampled_states == 4
    assert sum(p.sampler.uses_two_scale_split for p in space.sampled_plans) == 1


@pytest.fixture(scope="module")
def both_searches():
    config = RandomSearchConfig(r_undefeated=R_UNDEFEATED, record_history=False)
    frozen, block = [], []
    for seed in SEEDS:
        objective, space = equivalence_problem()
        frozen.append(frozen_random_search(objective, space, np.random.default_rng(seed), config))
        objective, space = equivalence_problem()
        result = random_search(objective, space, np.random.default_rng(seed), config)
        block.append(
            (result.moments_min.gamma, result.moments_max.gamma, result.rounds_to_converge)
        )
    return np.array(frozen), np.array(block)


@pytest.mark.parametrize(
    "column, name", [(0, "gamma_min"), (1, "gamma_max"), (2, "rounds_to_converge")]
)
def test_block_search_matches_one_round_search(both_searches, column, name):
    frozen, block = both_searches
    # Guard against a degenerate comparison: the statistic must vary.
    assert np.unique(frozen[:, column]).size > 10, name
    pvalue = ks_2samp(frozen[:, column], block[:, column]).pvalue
    assert pvalue > ALPHA, f"{name}: KS p = {pvalue:.3g}"
