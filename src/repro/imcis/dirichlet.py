"""Dirichlet generation of candidate DTMCs inside the IMC (Sections IV-B/C).

A candidate row for state ``s_i`` must be a probability distribution lying
entrywise in ``[â_i − ε_i, â_i + ε_i]``. Uniform per-coordinate sampling
followed by normalisation would almost never satisfy the constraints; the
paper instead draws the whole row from a Dirichlet distribution centred on
``â_i`` whose concentration ``K_i`` is tuned so every coordinate's standard
deviation is slightly *above* its margin ``ε_ij``:

    K_ij = â_ij (1 − â_ij) / ε_ij² − 1,      K_i = min_j K_ij,

then rejects rows falling outside the box (Algorithm 2, lines 5–11). Two
§IV-C refinements are implemented:

* ``λ``-inflation — after a run of rejections, multiply ``K_i`` by
  ``λ = 1.1``: shrinks all coordinate variances while preserving relative
  means, raising the acceptance rate on wide rows (§IV-C-1). The inflation
  state is *persistent across calls* (and decays slowly on success), so a
  row that needs inflation learns it once instead of rediscovering it for
  every candidate;
* two-scale split — coordinates whose ``K_ij`` is orders of magnitude above
  the row minimum would get far too much variance under ``K_i = min``;
  they are sampled *uniformly* on their consistent interval first, and the
  remaining coordinates conditionally via a rescaled Dirichlet with

    K_i = min_j' ( m_j'(β − m_j') / ε_j'² − 1 ) / β,

  where ``β`` is the leftover mass and ``m_j'`` the conditional means
  (§IV-C-2 — note the paper's displayed formula drops the leading ``m_j'``
  factor; the version here is the one its own derivation (Eq. 12) gives).

Draws are vectorised over a *block* of independent rows: one call to
:meth:`DirichletRowSampler.sample` with ``size=B`` fills B feasible rows
(one per search round of Algorithm 2) in a few NumPy passes. Each pass
gives every still-empty row one batch of ``batch_size`` candidates at the
current ``K·k_scale`` and keeps the first feasible one, so the law of an
accepted row is unchanged from a one-row draw: the first feasible vector
of a batch, retried batch by batch. Dirichlet vectors are normalised
``standard_gamma`` draws; a draw whose gammas all underflow to zero (α at
``alpha_floor``) is infeasible, never a NaN row. Two-scale rows draw their
uniform coordinates elementwise across the block and their Dirichlet group
from a per-row α. ``k_scale`` is fixed within a pass. The rows still empty
after a pass have rejected one batch each, so between passes ``k_scale``
is inflated by ``λ`` after every ``inflate_after`` such passes; after the
block it decays once per accepted row. A one-row draw (``size=None``) is
the block of size 1.

:attr:`DirichletRowSampler.stats` counts every candidate vector drawn:
``samples`` accepted rows plus ``rejections`` — the infeasible batch mates,
the unused draws after a batch's winner, and each failed uniform pass of a
two-scale row (one vector each).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import OptimizationError


@dataclass(frozen=True)
class DirichletConfig:
    """Tuning knobs for candidate-row generation.

    Attributes
    ----------
    k_strategy:
        How ``K_i`` aggregates the per-coordinate ``K_ij``: ``"min"``
        (the paper's choice), ``"mean"`` or ``"median"`` (§IV-C-2 mentions
        both as alternatives).
    outlier_ratio:
        Coordinates with ``K_ij > outlier_ratio × min K_ij`` are handled by
        the two-scale split. ``inf`` disables the split.
    inflation:
        The ``λ`` of §IV-C-1.
    inflate_after:
        Consecutive rejected *batches* before ``K`` is inflated.
    decay:
        Multiplicative decay of the learnt inflation after each accepted
        row (drifts back towards the paper's nominal ``K_i``).
    batch_size:
        Dirichlet vectors drawn and tested per attempt round.
    max_attempts:
        Hard cap on rejection-sampling attempts per row.
    width_tolerance:
        Interval half-widths at or below this are treated as exact values.
    min_k:
        Lower clamp on ``K_i`` (guards against huge margins).
    alpha_floor:
        Floor on Dirichlet parameters (guards against zero centre values).
    """

    k_strategy: str = "min"
    outlier_ratio: float = 100.0
    inflation: float = 1.1
    inflate_after: int = 4
    decay: float = 0.995
    batch_size: int = 16
    max_attempts: int = 1_000_000
    width_tolerance: float = 1e-12
    min_k: float = 1.0
    alpha_floor: float = 1e-8

    def __post_init__(self) -> None:
        if self.k_strategy not in ("min", "mean", "median"):
            raise OptimizationError(f"unknown k_strategy {self.k_strategy!r}")
        if self.inflation <= 1.0:
            raise OptimizationError("inflation must exceed 1")
        if self.outlier_ratio <= 1.0:
            raise OptimizationError("outlier_ratio must exceed 1")
        if not 0.0 < self.decay <= 1.0:
            raise OptimizationError("decay must be in (0, 1]")
        if self.batch_size <= 0:
            raise OptimizationError("batch_size must be positive")


def aggregate_k(values: np.ndarray, strategy: str, axis: int | None = None):
    """Combine per-coordinate concentrations into ``K_i``.

    With *axis* set, aggregates along it (one ``K`` per row of a block).
    """
    if strategy == "min":
        result = np.min(values, axis=axis)
    elif strategy == "mean":
        result = np.mean(values, axis=axis)
    else:
        result = np.median(values, axis=axis)
    return float(result) if axis is None else result


@dataclass
class RowSampleStats:
    """Diagnostics accumulated across calls to :meth:`DirichletRowSampler.sample`.

    ``samples + rejections`` is the number of candidate vectors drawn.
    """

    samples: int = 0
    rejections: int = 0
    inflations: int = 0


class DirichletRowSampler:
    """Samples one state's candidate row within its interval constraints.

    Parameters
    ----------
    support:
        Indices of the structurally possible successors (for reporting).
    center:
        The row of ``Â`` restricted to the support (``â_i``); must sum to 1.
    lower, upper:
        Interval bounds aligned with *support*.
    config:
        Tuning knobs; see :class:`DirichletConfig`.
    state:
        The chain state the row belongs to (named in error messages).
    """

    def __init__(
        self,
        support: np.ndarray,
        center: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
        config: DirichletConfig = DirichletConfig(),
        state: int | None = None,
    ):
        self.support = np.asarray(support, dtype=int)
        self.center = np.asarray(center, dtype=float)
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        self.config = config
        self.state = state
        self.stats = RowSampleStats()
        size = self.support.size
        if not (self.center.size == self.lower.size == self.upper.size == size):
            raise OptimizationError("support/center/bound sizes differ")
        if size < 2:
            raise OptimizationError(
                "rows with fewer than two possible successors are constants — "
                "handle them outside the sampler"
            )
        if abs(float(self.center.sum()) - 1.0) > 1e-6:
            raise OptimizationError("the centre row must be a probability distribution")

        widths = (self.upper - self.lower) / 2.0
        self._fixed = widths <= config.width_tolerance
        free = ~self._fixed
        if not np.any(free):
            raise OptimizationError("all coordinates are fixed — row is a constant")
        free_idx = np.flatnonzero(free)
        eps_free = np.maximum(widths[free_idx], config.width_tolerance)
        centre_free = self.center[free_idx]
        k_values = centre_free * (1.0 - centre_free) / eps_free**2 - 1.0
        k_values = np.maximum(k_values, config.min_k)
        k_min = float(k_values.min())
        outlier = k_values > config.outlier_ratio * k_min
        if np.count_nonzero(~outlier) < 2:
            # The split needs at least two Dirichlet coordinates left over.
            outlier = np.zeros_like(outlier)
        self._uniform_idx = free_idx[outlier]
        if self._uniform_idx.size:
            order = np.argsort(-k_values[outlier])
            self._uniform_idx = self._uniform_idx[order]
        self._group = free_idx[~outlier]
        #: Candidate vectors one pass draws per row (a one-coordinate group
        #: is fixed by its budget: one candidate).
        self._batch = config.batch_size if self._group.size > 1 else 1
        # Bounds on the mass of every coordinate drawn after each uniform
        # one: the later uniform coordinates plus the Dirichlet group.
        later = self._uniform_idx[:0:-1]
        self._rest_lo = np.append(np.cumsum(self.lower[later])[::-1], 0.0) + float(
            self.lower[self._group].sum()
        )
        self._rest_up = np.append(np.cumsum(self.upper[later])[::-1], 0.0) + float(
            self.upper[self._group].sum()
        )
        self._group_eps = eps_free[~outlier]
        self._group_centre = centre_free[~outlier]
        # Feasibility bounds of the group (with the usual 1e-12 slack),
        # shaped for the coordinate-major candidate blocks of _sample_group.
        self._group_low = (self.lower[self._group] - 1e-12)[:, None, None]
        self._group_high = (self.upper[self._group] + 1e-12)[:, None, None]
        self._base_k = aggregate_k(k_values[~outlier], config.k_strategy)
        self._fixed_mass = float(self.center[self._fixed].sum()) if np.any(self._fixed) else 0.0
        #: Learnt inflation multiplier (persists across calls, decays back).
        self._k_scale = 1.0

    @property
    def uses_two_scale_split(self) -> bool:
        """True when some coordinates are uniform-sampled (§IV-C-2)."""
        return self._uniform_idx.size > 0

    @property
    def concentration(self) -> float:
        """The (unconditional) aggregate ``K_i`` of the Dirichlet group."""
        return self._base_k

    @property
    def k_scale(self) -> float:
        """Current learnt λ-inflation multiplier."""
        return self._k_scale

    def center_row(self) -> np.ndarray:
        """The centre row ``â_i`` (the round-0 candidate of Algorithm 2)."""
        return self.center.copy()

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        """Draw feasible candidate rows (aligned with ``support``).

        ``size=None`` returns one row; an integer returns a ``(size,
        support)`` block of independent rows, filled in vectorised passes
        (see the module docstring). Raises :class:`OptimizationError` when
        a row is still empty after ``max_attempts`` candidate vectors.
        """
        cfg = self.config
        count = 1 if size is None else int(size)
        rows = np.empty((count, self.support.size))
        rows[:, self._fixed] = self.center[self._fixed]
        pending = np.arange(count)
        # Every pending row has taken part in every pass so far, so one
        # attempt count and one rejected-batch run serve the whole block.
        attempts = 0
        rejected_batches = 0
        while pending.size:
            if attempts >= cfg.max_attempts:
                where = "" if self.state is None else f" for state {self.state}"
                raise OptimizationError(
                    f"could not sample a feasible row{where} after {cfg.max_attempts} "
                    f"attempts (support size {self.support.size}); the interval "
                    "constraints may be nearly degenerate — consider raising max_attempts"
                )
            values = rows[pending]
            budget = self._sample_uniform_coords(rng, values)
            accepted, batched = self._sample_group(rng, values, budget)
            n_accepted = int(np.count_nonzero(accepted))
            drawn = batched * self._batch + (pending.size - batched)
            self.stats.samples += n_accepted
            self.stats.rejections += drawn - n_accepted
            attempts += self._batch if batched else 1
            rows[pending[accepted]] = values[accepted]
            pending = pending[~accepted]
            if batched > n_accepted:
                rejected_batches += 1
                if rejected_batches >= cfg.inflate_after:
                    self._k_scale *= cfg.inflation
                    self.stats.inflations += 1
                    rejected_batches = 0
        self._k_scale = max(1.0, self._k_scale * cfg.decay**count)
        return rows[0] if size is None else rows

    # ------------------------------------------------------------------
    def _sample_uniform_coords(self, rng: np.random.Generator, values: np.ndarray) -> np.ndarray:
        """Fill the uniform (outlier) coordinates of every row of *values*.

        Returns each row's leftover budget for the Dirichlet group, NaN
        where a coordinate's consistent interval came out empty (a failed
        pass).
        """
        budget = np.full(values.shape[0], 1.0 - self._fixed_mass)
        for pos, idx in enumerate(self._uniform_idx):
            low = np.maximum(self.lower[idx], budget - self._rest_up[pos])
            high = np.minimum(self.upper[idx], budget - self._rest_lo[pos])
            live = low <= high
            budget[~live] = np.nan
            value = rng.uniform(low[live], high[live])
            values[live, idx] = value
            budget[live] -= value
        return budget

    def _sample_group(
        self, rng: np.random.Generator, values: np.ndarray, budget: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Fill the Dirichlet group of every row from its *budget*.

        Returns ``(accepted, batched)``: which rows got a feasible group,
        and how many drew a batch at all (the rest failed their uniform
        pass).
        """
        group = self._group
        cfg = self.config
        if group.size == 1:
            idx = group[0]
            live = ~np.isnan(budget)
            fits = (budget >= self.lower[idx] - 1e-12) & (budget <= self.upper[idx] + 1e-12)
            accepted = live & fits
            values[accepted, idx] = np.clip(budget[accepted], self.lower[idx], self.upper[idx])
            return accepted, int(np.count_nonzero(live))
        accepted = np.zeros(values.shape[0], dtype=bool)
        live = np.flatnonzero(budget > 0.0)  # NaN (failed uniform pass) compares False
        if live.size == 0:
            return accepted, 0
        left = budget[live]

        centre = self._group_centre
        total_centre = float(centre.sum())
        if total_centre <= 0.0:
            centre = np.full(group.size, 1.0 / group.size)
            total_centre = 1.0
        if self.uses_two_scale_split:
            means = left[:, None] * centre / total_centre
            k_values = (
                means * np.maximum(left[:, None] - means, 1e-15) / self._group_eps**2 - 1.0
            ) / left[:, None]
            k = np.maximum(
                aggregate_k(np.maximum(k_values, cfg.min_k), cfg.k_strategy, axis=1),
                cfg.min_k,
            )
            # One α per row: plane j of the draw below uses alpha[j, row].
            alpha = np.maximum(k * self._k_scale * centre[:, None], cfg.alpha_floor)[:, :, None]
        else:
            alpha = np.maximum(self._base_k * self._k_scale * centre, cfg.alpha_floor)
        # Coordinate-major (group, rows, batch): one gamma call per coordinate
        # and cheap plane-wise reductions over the short group axis.
        candidates = np.empty((group.size, live.size, cfg.batch_size))
        for plane, shape in zip(candidates, alpha):
            rng.standard_gamma(shape, out=plane)
        with np.errstate(invalid="ignore", divide="ignore"):
            # Normalise to the budget in place. An all-underflow draw (zero
            # total) turns into NaNs, which fail both bounds below.
            candidates *= left[:, None] / candidates.sum(axis=0)
        feasible = ((candidates >= self._group_low) & (candidates <= self._group_high)).all(axis=0)
        won = feasible.any(axis=1)
        winners = live[won]
        accepted[winners] = True
        first = feasible[won].argmax(axis=1)
        values[winners[:, None], group] = candidates[:, np.flatnonzero(won), first].T
        return accepted, live.size
