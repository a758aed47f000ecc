"""The IMCIS objective ``f(A)`` and its second moment ``g(A)``.

Equation (10) of the paper:

    f(A) = Σ_k z(ω_k) Π_{(i→j) ∈ T_k} (a_ij / b_ij)^{n_ij(ω_k)}

Everything is evaluated in log-space. A candidate is the vector
``log_a[t]`` over the observed transition columns; the per-trace log
likelihood ratios are one sparse mat-vec,

    logL = N @ log_a − log P_B,

and ``f = Σ exp(logL)``, ``g = Σ exp(2·logL)`` via log-sum-exp; a block of
B candidates (a ``T × B`` matrix) is one sparse mat-mat. Because the
proposal's contribution was recorded per trace as a scalar, the objective is
well-defined for *any* proposal — including time-inhomogeneous ones — and
the candidate ``A`` is the only variable.

Note Algorithm 1 (lines 22–23) writes ``σ̂ = g/N − γ̂²``; that expression is
the *variance* — we return its square root as the standard deviation used
in the confidence interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from repro.errors import EstimationError
from repro.imcis.tables import ObservationTables


@dataclass(frozen=True)
class Moments:
    """First/second-moment summary of the IS sum at a candidate ``A``."""

    log_f: float
    log_g: float
    n_total: int

    @property
    def f(self) -> float:
        """``f(A) = Σ_k z L_k`` (the *unnormalised* objective)."""
        return math.exp(self.log_f) if self.log_f != float("-inf") else 0.0

    @property
    def gamma(self) -> float:
        """``γ̂_N(A) = f(A)/N`` (Algorithm 1, lines 20–21)."""
        if self.log_f == float("-inf"):
            return 0.0
        return math.exp(self.log_f - math.log(self.n_total))

    @property
    def sigma(self) -> float:
        """``σ̂_N(A) = sqrt(g(A)/N − γ̂²)`` (Algorithm 1, lines 22–23)."""
        if self.log_g == float("-inf"):
            return 0.0
        second = math.exp(self.log_g - math.log(self.n_total))
        variance = second - self.gamma**2
        return math.sqrt(max(0.0, variance))


class ISObjective:
    """Vectorised evaluator of ``f``/``g`` over observed-transition columns."""

    def __init__(self, tables: ObservationTables):
        self._tables = tables
        self._counts = tables.counts
        self._log_b = tables.log_proposal

    @property
    def tables(self) -> ObservationTables:
        """The observation tables the objective is built on."""
        return self._tables

    @property
    def n_columns(self) -> int:
        """Length of the candidate vector."""
        return self._tables.n_transitions

    def log_likelihood_ratios(self, log_a: np.ndarray) -> np.ndarray:
        """Per-successful-trace ``log L_k`` at the candidate."""
        if log_a.shape != (self.n_columns,):
            raise EstimationError(
                f"candidate vector has shape {log_a.shape}, expected ({self.n_columns},)"
            )
        if self._counts.shape[0] == 0:
            return np.empty(0)
        return np.asarray(self._counts @ log_a).ravel() - self._log_b

    def log_f(self, log_a: np.ndarray) -> float:
        """``log f(A)`` (−inf when no trace succeeded)."""
        log_ratios = self.log_likelihood_ratios(log_a)
        if log_ratios.size == 0:
            return float("-inf")
        return float(logsumexp(log_ratios))

    def log_f_columns(self, log_a: np.ndarray) -> np.ndarray:
        """``log f`` at every column of a ``(T × B)`` block of candidates.

        One sparse mat-mat and a row-wise log-sum-exp over a C-ordered
        ``(B × traces)`` array, so each entry is bitwise equal to
        :meth:`log_f` of that column.
        """
        if log_a.ndim != 2 or log_a.shape[0] != self.n_columns:
            raise EstimationError(
                f"candidate block has shape {log_a.shape}, expected ({self.n_columns}, B)"
            )
        if self._counts.shape[0] == 0:
            return np.full(log_a.shape[1], float("-inf"))
        log_ratios = np.ascontiguousarray(np.asarray(self._counts @ log_a).T) - self._log_b
        return logsumexp(log_ratios, axis=1)

    def moments(self, log_a: np.ndarray) -> Moments:
        """``(log f, log g)`` at the candidate, for γ̂ and σ̂."""
        log_ratios = self.log_likelihood_ratios(log_a)
        if log_ratios.size == 0:
            return Moments(float("-inf"), float("-inf"), self._tables.n_total)
        return Moments(
            log_f=float(logsumexp(log_ratios)),
            log_g=float(logsumexp(2.0 * log_ratios)),
            n_total=self._tables.n_total,
        )

    def gradient_log_f(self, log_a: np.ndarray) -> np.ndarray:
        """Gradient of ``log f`` w.r.t. ``log_a`` (softmax-weighted counts).

        ``∂ log f / ∂ log a_t = Σ_k softmax(logL)_k · n_t(ω_k)`` — used by
        the gradient-based baseline optimisers. The gradient w.r.t. ``a_t``
        itself is this divided by ``a_t``.
        """
        log_ratios = self.log_likelihood_ratios(log_a)
        if log_ratios.size == 0:
            return np.zeros(self.n_columns)
        weights = np.exp(log_ratios - logsumexp(log_ratios))
        return np.asarray(weights @ self._counts).ravel()
