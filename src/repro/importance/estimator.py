"""The importance-sampling estimator (Section III-A, Equation 7).

Sampling and estimation are deliberately split:

* :func:`run_importance_sampling` draws traces under the proposal and keeps,
  per successful trace, its transition-count table and its log-probability
  under the proposal — exactly the tables of Algorithm 1 (lines 1–15);
* :func:`estimate_from_sample` turns such a sample into the IS estimate and
  confidence interval with respect to *any* original chain ``A``.

The split matters because IMCIS evaluates the same sample against many
candidate chains ``A ∈ [Â]`` — the sample is drawn once.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import logsumexp

from repro.core.dtmc import DTMC
from repro.core.paths import TransitionCounts
from repro.errors import EstimationError
from repro.obs import trace as _obs_trace
from repro.properties.logic import Formula
from repro.smc.intervals import normal_ci
from repro.smc.kernels import TraceCounts
from repro.smc.results import EstimationResult
from repro.smc.simulator import TraceSampler
from repro.util.rng import ensure_rng

_ABS_CONTINUITY_ERROR = (
    "sampled trace impossible under the original chain; "
    "the proposal is not valid for importance sampling"
)


class ISSample:
    """A batch of traces drawn under an importance-sampling proposal.

    Only successful traces carry data (a failed trace contributes
    ``z·L = 0``); ``n_total`` remembers the full batch size ``N_IS``.

    The per-trace data exists in up to three representations, fastest
    first:

    * ``log_numerator`` — fused log probabilities under ``weight_chain``
      (the IS numerator, accumulated inside the simulation loop);
    * ``count_arrays`` — the transition counts every engine emits
      (:class:`~repro.smc.kernels.TraceCounts`, one COO block for the
      whole sample);
    * :attr:`counts` — classic per-trace dict tables, materialized
      lazily from ``count_arrays`` when first accessed (the Table I/II
      and cross-entropy path), or passed in directly to build
      observation-table fixtures.

    :func:`log_weights` serves a chain from the first two; dict tables
    alone are not enough to weight a sample.
    """

    def __init__(
        self,
        n_total: int,
        counts: "list[TransitionCounts] | None" = None,
        log_proposal: "list[float] | None" = None,
        n_undecided: int = 0,
        mean_length: float = 0.0,
        *,
        count_arrays: "TraceCounts | None" = None,
        log_numerator: "np.ndarray | None" = None,
        weight_chain: "DTMC | None" = None,
    ):
        self.n_total = n_total
        self.log_proposal: list[float] = list(log_proposal) if log_proposal else []
        self.n_undecided = n_undecided
        self.mean_length = mean_length
        self.count_arrays = count_arrays
        self.log_numerator = log_numerator
        self.weight_chain = weight_chain
        if counts is not None:
            self._counts: "list[TransitionCounts] | None" = list(counts)
        elif count_arrays is None and log_numerator is None:
            self._counts = []
        else:
            self._counts = None  # materialized lazily from count_arrays

    @property
    def counts(self) -> "list[TransitionCounts]":
        """Per-successful-trace dict count tables (lazily materialized).

        Raises :class:`~repro.errors.EstimationError` when the sample was
        drawn with fused weights only (``keep_counts=False``) — there is
        nothing to materialize from.
        """
        if self._counts is None:
            if self.count_arrays is None:
                raise EstimationError(
                    "this sample carries fused log weights but no count "
                    "tables (drawn with keep_counts=False); re-sample with "
                    "keep_counts=True for per-trace tables"
                )
            self._counts = [
                table
                for table in self.count_arrays.to_tables()
                if table is not None
            ]
        return self._counts

    @property
    def n_satisfied(self) -> int:
        """Number of successful traces."""
        if self._counts is not None:
            return len(self._counts)
        return len(self.log_proposal)

    @classmethod
    def from_ensemble(
        cls,
        batch,
        state_map: "np.ndarray | None" = None,
        n_states: "int | None" = None,
        weight_chain: "DTMC | None" = None,
    ) -> "ISSample":
        """Build a sample from an engine :class:`EnsembleResult`.

        *batch* must have been simulated with ``record_log_prob=True``
        and carry per-trace data: count arrays, fused log-numerators or
        both. *state_map*/*n_states* optionally project ``count_arrays``
        through ``state → state_map[state]`` (e.g. unrolled-chain counts
        back onto the original chain). *weight_chain* records which chain
        the batch's fused ``log_numerators`` were accumulated against.
        """
        if batch.log_proposals is None:
            raise EstimationError(
                "the batch was simulated without log-proposal probabilities; "
                "sample with record_log_prob=True"
            )
        if batch.count_arrays is None and batch.log_numerators is None:
            raise EstimationError(
                "the batch was simulated without count tables or log-proposal "
                "probabilities; sample with count_mode='satisfied' and "
                "record_log_prob=True"
            )
        sat_idx = np.flatnonzero(batch.satisfied)
        arrays = None
        if batch.count_arrays is not None:
            arrays = batch.count_arrays.select(sat_idx)
            if state_map is not None:
                if n_states is None:
                    raise EstimationError("state_map requires n_states")
                arrays = arrays.map_states(state_map, n_states)
        lognum = (
            batch.log_numerators[sat_idx]
            if batch.log_numerators is not None
            else None
        )
        return cls(
            n_total=batch.n_samples,
            log_proposal=batch.log_proposals[sat_idx].tolist(),
            n_undecided=batch.n_undecided,
            mean_length=batch.mean_length,
            count_arrays=arrays,
            log_numerator=lognum,
            weight_chain=weight_chain,
        )

    def effective_sample_size(self, original: DTMC) -> float:
        """ESS of the sample weighted against *original*.

        The standard IS health diagnostic ``(Σ L_k)² / Σ L_k²``: the
        number of ideal unweighted samples the weighted sample is worth.
        An ESS far below ``n_satisfied`` signals weight degeneracy — a
        proposal poorly matched to *original* (the failure mode behind
        the over-confident IS intervals of the paper's Table II).
        """
        return ess_from_log_weights(log_weights(original, self))


def run_importance_sampling(
    proposal: DTMC,
    formula: Formula,
    n_samples: int,
    rng: np.random.Generator | int | None = None,
    max_steps: int | None = None,
    initial_state: int | None = None,
    backend: str | None = "auto",
    workers: "int | str | None" = None,
    original: DTMC | None = None,
    keep_counts: bool = True,
) -> ISSample:
    """Draw *n_samples* traces under *proposal*, keeping success tables.

    Simulation goes through the batch engine: with the default *backend*
    the whole sample is advanced as a lockstep ensemble whenever the
    formula compiles to masks, falling back to the scalar loop otherwise.
    *workers* shards the ensemble across a process pool (see
    :class:`~repro.smc.parallel.ParallelBackend`); the sample is invariant
    to the worker count.

    Passing *original* fuses the IS numerator into the simulation loop on
    the lockstep engine — :func:`log_weights` against that chain then costs
    one array subtraction instead of a per-trace table walk. With
    ``keep_counts=False`` the per-trace tables are dropped entirely (the
    fastest path, enough for a single-chain estimate); the sample then
    serves only the fused chain. When fusion is unavailable (the formula
    falls back to the sequential loop) count tables are kept regardless,
    so the sample always supports :func:`estimate_from_sample`.
    """
    if n_samples <= 0:
        raise EstimationError("n_samples must be positive")
    generator = ensure_rng(rng)
    count_mode = "none" if (original is not None and not keep_counts) else "satisfied"
    sampler = TraceSampler(
        proposal,
        formula,
        max_steps=max_steps,
        count_mode=count_mode,
        record_log_prob=True,
        initial_state=initial_state,
        backend=backend,
        workers=workers,
        weight_chain=original,
    )
    if count_mode == "none" and not sampler.fuses_weights:
        # No fused numerators coming (sequential fallback): the tables are
        # the only way to weight the sample, keep them after all.
        sampler = TraceSampler(
            proposal,
            formula,
            max_steps=max_steps,
            count_mode="satisfied",
            record_log_prob=True,
            initial_state=initial_state,
            backend=backend,
            workers=workers,
            weight_chain=original,
        )
    return ISSample.from_ensemble(
        sampler.sample_ensemble(n_samples, generator), weight_chain=original
    )


def log_weights(original: DTMC, sample: ISSample) -> np.ndarray:
    """Per-successful-trace ``log L_k`` against *original*.

    Served from fused ``log_numerator`` arrays when the sample was drawn
    with that exact chain fused in, and from
    :meth:`~repro.smc.kernels.TraceCounts.trace_log_probs` over the
    sample's ``count_arrays`` otherwise. Both compute
    ``Σ n_ij log a_ij − log P_B(ω)`` — identical up to floating-point
    summation order (the fused path adds ``log a_ij`` step by step in
    simulation time; the count path sums ``n_ij · log a_ij`` over the
    distinct transitions of each trace), so estimates agree to a few ULPs
    but not necessarily bitwise across representations.

    Raises :class:`~repro.errors.EstimationError` when the sample can
    serve *original* from neither, e.g. a fused-only sample asked for a
    different chain, or a sample built from dict tables alone.
    """
    lognum = getattr(sample, "log_numerator", None)
    if lognum is not None and original is sample.weight_chain:
        if np.isneginf(lognum).any():
            raise EstimationError(_ABS_CONTINUITY_ERROR)
        return lognum - np.asarray(sample.log_proposal, dtype=np.float64)
    arrays = getattr(sample, "count_arrays", None)
    if arrays is None:
        raise EstimationError(
            "the sample carries neither fused log numerators for this chain "
            "nor count arrays; draw it with run_importance_sampling (keeping "
            "counts, or with original= this chain)"
        )
    log_a = arrays.trace_log_probs(original)
    if np.isneginf(log_a).any():
        raise EstimationError(_ABS_CONTINUITY_ERROR)
    return log_a - np.asarray(sample.log_proposal, dtype=np.float64)


def ess_from_log_weights(log_w: np.ndarray) -> float:
    """Effective sample size ``(Σ L_k)² / Σ L_k²`` from log weights."""
    if log_w.size == 0:
        return 0.0
    return float(np.exp(2.0 * logsumexp(log_w) - logsumexp(2.0 * log_w)))


def moments_from_log_weights(log_w: np.ndarray, n_total: int) -> tuple[float, float]:
    """``(γ̂, σ̂)`` from log likelihood ratios, via log-sum-exp.

    ``γ̂ = (Σ L_k)/N`` and ``σ̂² = (Σ L_k²)/N − γ̂²`` (the population form
    used in Algorithm 1, lines 20–23).
    """
    if log_w.size == 0:
        return 0.0, 0.0
    log_f = float(logsumexp(log_w))
    log_g = float(logsumexp(2.0 * log_w))
    log_n = math.log(n_total)
    gamma = math.exp(log_f - log_n)
    variance = math.exp(log_g - log_n) - gamma * gamma
    return gamma, math.sqrt(max(0.0, variance))


def estimate_from_sample(
    original: DTMC,
    sample: ISSample,
    confidence: float = 0.95,
) -> EstimationResult:
    """IS estimate of ``γ(original)`` from a sample drawn under a proposal.

    The result carries the effective sample size of the weights as its
    ``ess`` diagnostic — computed from the same log weights, at the cost
    of one extra ``logsumexp``.
    """
    with _obs_trace.span("weights", n_satisfied=sample.n_satisfied) as sp:
        log_w = log_weights(original, sample)
        gamma, std_dev = moments_from_log_weights(log_w, sample.n_total)
        result = EstimationResult(
            estimate=gamma,
            std_dev=std_dev,
            n_samples=sample.n_total,
            interval=normal_ci(gamma, std_dev, sample.n_total, confidence),
            n_satisfied=sample.n_satisfied,
            n_undecided=sample.n_undecided,
            method="importance-sampling",
            ess=ess_from_log_weights(log_w),
        )
        sp.annotate(ess=result.ess)
    return result


def importance_sampling_estimate(
    original: DTMC,
    proposal: DTMC,
    formula: Formula,
    n_samples: int,
    rng: np.random.Generator | int | None = None,
    confidence: float = 0.95,
    max_steps: int | None = None,
    initial_state: int | None = None,
    backend: str | None = "auto",
    workers: "int | str | None" = None,
) -> EstimationResult:
    """One-call IS estimation: sample under *proposal*, weight by *original*.

    The single-chain shape needs no per-trace tables, so the weights are
    fused into the simulation loop (``keep_counts=False``) — the fastest
    IS path.
    """
    sample = run_importance_sampling(
        proposal, formula, n_samples, rng, max_steps, initial_state,
        backend=backend, workers=workers, original=original, keep_counts=False,
    )
    return estimate_from_sample(original, sample, confidence)
