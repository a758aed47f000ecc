"""The repeat-and-count-coverage protocol of Section VI.

"To empirically verify our results we performed each simulation experiment
100 times and report the coverage of the experiments with respect to the
approximated DTMC Â and with the exact DTMC A." Each repetition draws a
fresh sample under the proposal, runs both estimators on the *same* traces
(as Algorithm 1 does) and records whether each interval contains
``γ(Â)`` and ``γ``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.imcis.algorithm import IMCISConfig, IMCISResult, imcis_from_sample
from repro.imcis.random_search import SEARCH_VERSION
from repro.importance.bounded import UnrolledProposal, run_bounded_importance_sampling
from repro.importance.estimator import estimate_from_sample, run_importance_sampling
from repro.models.base import CaseStudy
from repro.smc.results import ConfidenceInterval, EstimationResult
from repro.store.cache import map_repetitions_cached
from repro.store.codecs import (
    decode_estimation_result,
    decode_imcis_result,
    encode_estimation_result,
    encode_imcis_result,
)
from repro.store.keys import code_versions, config_key, describe_study, seed_entropy
from repro.store.store import ArtifactStore
from repro.util.rng import spawn_seeds


@dataclass
class RepetitionOutcome:
    """One repetition: the IS and IMCIS results on the same sample."""

    is_result: EstimationResult
    imcis_result: IMCISResult

    @property
    def is_interval(self) -> ConfidenceInterval:
        """The plain-IS confidence interval (w.r.t. the centre chain)."""
        return self.is_result.interval

    @property
    def imcis_interval(self) -> ConfidenceInterval:
        """The IMCIS confidence interval (w.r.t. the whole IMC)."""
        return self.imcis_result.interval


@dataclass
class CoverageReport:
    """Aggregate of a coverage experiment.

    Coverage percentages are fractions in [0, 1]; multiply by 100 for the
    paper's presentation.
    """

    study_name: str
    repetitions: int
    gamma_true: float | None
    gamma_center: float
    outcomes: list[RepetitionOutcome] = field(default_factory=list)

    def _coverage(self, intervals: list[ConfidenceInterval], value: float | None) -> float | None:
        """Fraction of *intervals* containing *value*.

        ``None`` — distinct from an observed 0 % coverage — when there is
        no target value (the study has no exact γ) or no intervals yet
        (an empty report has no coverage, rather than zero coverage).
        """
        if value is None or not intervals:
            return None
        hits = sum(1 for ci in intervals if ci.contains(value))
        return hits / len(intervals)

    @property
    def is_intervals(self) -> list[ConfidenceInterval]:
        """IS intervals of every repetition."""
        return [o.is_interval for o in self.outcomes]

    @property
    def imcis_intervals(self) -> list[ConfidenceInterval]:
        """IMCIS intervals of every repetition."""
        return [o.imcis_interval for o in self.outcomes]

    def is_coverage_of_center(self) -> float | None:
        """Fraction of IS intervals containing γ(Â) (``None`` when empty)."""
        return self._coverage(self.is_intervals, self.gamma_center)

    def is_coverage_of_true(self) -> float | None:
        """Fraction of IS intervals containing γ."""
        return self._coverage(self.is_intervals, self.gamma_true)

    def imcis_coverage_of_center(self) -> float | None:
        """Fraction of IMCIS intervals containing γ(Â) (``None`` when empty)."""
        return self._coverage(self.imcis_intervals, self.gamma_center)

    def imcis_coverage_of_true(self) -> float | None:
        """Fraction of IMCIS intervals containing γ."""
        return self._coverage(self.imcis_intervals, self.gamma_true)

    @staticmethod
    def _mean_interval(intervals: list[ConfidenceInterval]) -> tuple[float, float]:
        lows = np.array([ci.low for ci in intervals])
        highs = np.array([ci.high for ci in intervals])
        return float(lows.mean()), float(highs.mean())

    def mean_is_interval(self) -> tuple[float, float]:
        """Average IS interval bounds (Table II's "95 %-CI" column)."""
        return self._mean_interval(self.is_intervals)

    def mean_imcis_interval(self) -> tuple[float, float]:
        """Average IMCIS interval bounds."""
        return self._mean_interval(self.imcis_intervals)


@dataclass(frozen=True)
class _CoverageContext:
    """Per-experiment payload shipped to repetition workers once."""

    study: CaseStudy
    imcis_config: IMCISConfig
    n_samples: int
    unrolled_proposal: UnrolledProposal | None
    backend: str | None


def _encode_outcome(outcome: RepetitionOutcome) -> dict:
    """JSON payload of one repetition (exact float round-trip).

    The IMCIS random-search trace is not cached (see
    :mod:`repro.store.codecs`): it is a diagnostic no coverage, Table II
    or figure artifact aggregates, so a cached repetition decodes with
    ``imcis_result.search = None`` while every reported number stays
    bitwise identical.
    """
    return {
        "is_result": encode_estimation_result(outcome.is_result),
        "imcis_result": encode_imcis_result(outcome.imcis_result),
    }


def _decode_outcome(payload: dict) -> RepetitionOutcome:
    """Invert :func:`_encode_outcome`."""
    return RepetitionOutcome(
        is_result=decode_estimation_result(payload["is_result"]),
        imcis_result=decode_imcis_result(payload["imcis_result"]),
    )


def _coverage_key(
    context: _CoverageContext,
    rng: "np.random.Generator | int | None",
) -> str:
    """Content address of one coverage experiment's repetition stream.

    Covers the study's numeric content, the full IMCIS configuration
    (confidence, every random-search/Dirichlet knob and the search's
    draw-order version), the sampling backend and the root seed entropy
    — everything a repetition depends on besides its index.
    """
    return config_key(
        {
            "kind": "coverage-repetition",
            "study": describe_study(context.study, context.unrolled_proposal),
            "imcis_config": dataclasses.asdict(context.imcis_config),
            "search_version": SEARCH_VERSION,
            "n_samples": context.n_samples,
            "backend": context.backend or "auto",
            "seed_entropy": seed_entropy(rng),
            "versions": code_versions(),
        }
    )


def _coverage_repetition(
    context: _CoverageContext, seed: np.random.SeedSequence
) -> RepetitionOutcome:
    """One Section VI repetition, a pure function of ``(context, seed)``.

    Module-level so the parallel runner can ship it to workers by
    reference; deriving every draw from *seed* is what makes the coverage
    numbers invariant to the worker count.
    """
    study = context.study
    child = np.random.default_rng(seed)
    # Both estimators share one sample: fuse the centre-chain numerator
    # (study.center is study.imc.center) and keep the tables for IMCIS.
    if context.unrolled_proposal is not None:
        sample = run_bounded_importance_sampling(
            context.unrolled_proposal,
            context.n_samples,
            child,
            backend=context.backend,
            original=study.center,
        )
    else:
        sample = run_importance_sampling(
            study.proposal,
            study.formula,
            context.n_samples,
            child,
            backend=context.backend,
            original=study.center,
        )
    is_result = estimate_from_sample(study.center, sample, study.confidence)
    imcis_result = imcis_from_sample(study.imc, sample, child, context.imcis_config)
    return RepetitionOutcome(is_result, imcis_result)


def run_coverage_experiment(
    study: CaseStudy,
    repetitions: int,
    rng: np.random.Generator | int | None = None,
    imcis_config: IMCISConfig | None = None,
    n_samples: int | None = None,
    unrolled_proposal: UnrolledProposal | None = None,
    backend: str | None = "auto",
    workers: "int | str | None" = None,
    store: "ArtifactStore | Path | str | None" = None,
) -> CoverageReport:
    """Run the Section VI protocol on *study*.

    Each repetition gets an independent child seed, draws one sample of
    ``n_samples`` traces under the proposal, and evaluates IS (w.r.t. the
    centre ``Â``) and IMCIS (over the IMC) on that sample.

    *unrolled_proposal* switches sampling to the time-dependent machinery
    (the SWaT study); *backend* selects the simulation engine for both
    sampling paths. *workers* fans the repetitions out across a process
    pool (``"auto"`` = CPU count) — because each repetition depends only on
    its own child seed, the report is bitwise-identical for every worker
    count, including the serial ``workers=None``/``1`` path.

    *store* caches per-repetition results content-addressed by the study,
    the configuration and the root seed: repetitions already on disk are
    decoded instead of simulated, with every reported number bitwise
    identical (a cached repetition only lacks the random-search trace
    diagnostic). Requires an explicit, non-``None`` *rng* seed.
    """
    if imcis_config is None:
        imcis_config = IMCISConfig(confidence=study.confidence)
    n = n_samples if n_samples is not None else study.n_samples
    report = CoverageReport(
        study_name=study.name,
        repetitions=repetitions,
        gamma_true=study.gamma_true,
        gamma_center=study.gamma_center,
    )
    # The repetition axis owns the process parallelism: per-repetition
    # sampling always runs in-process ("parallel" would nest a process
    # pool inside every repetition worker). Downgraded unconditionally —
    # not only when a pool is used — so the report stays invariant to the
    # worker count.
    context = _CoverageContext(
        study=study,
        imcis_config=imcis_config,
        n_samples=n,
        unrolled_proposal=unrolled_proposal,
        backend="auto" if backend == "parallel" else backend,
    )
    artifact_store = ArtifactStore.coerce(store)
    # The key must snapshot the seed state *before* spawn_seeds advances
    # a shared Generator's spawn counter — the pre-spawn state is what
    # identifies this run's repetition streams.
    key = _coverage_key(context, rng) if artifact_store is not None else None
    report.outcomes.extend(
        map_repetitions_cached(
            _coverage_repetition,
            context,
            spawn_seeds(rng, repetitions),
            workers=workers,
            store=artifact_store,
            key=key,
            encode=_encode_outcome,
            decode=_decode_outcome,
        )
    )
    return report
