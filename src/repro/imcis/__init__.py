"""IMCIS — importance sampling of interval Markov chains (the paper's core)."""

from repro.imcis.algorithm import (
    IMCISConfig,
    IMCISResult,
    imcis_estimate,
    imcis_from_sample,
)
from repro.imcis.candidates import CandidateSpace, StatePlan
from repro.imcis.dirichlet import DirichletConfig, DirichletRowSampler
from repro.imcis.objective import ISObjective, Moments
from repro.imcis.optimizers import (
    OptimizerOutcome,
    projected_gradient,
    slsqp,
)
from repro.imcis.random_search import (
    HistoryEntry,
    RandomSearchConfig,
    RandomSearchResult,
    SearchSummary,
    random_search,
)
from repro.imcis.refine import refine_extreme
from repro.imcis.tables import ObservationTables

__all__ = [
    "CandidateSpace",
    "DirichletConfig",
    "DirichletRowSampler",
    "HistoryEntry",
    "IMCISConfig",
    "IMCISResult",
    "ISObjective",
    "Moments",
    "ObservationTables",
    "OptimizerOutcome",
    "RandomSearchConfig",
    "RandomSearchResult",
    "SearchSummary",
    "StatePlan",
    "imcis_estimate",
    "imcis_from_sample",
    "projected_gradient",
    "random_search",
    "refine_extreme",
    "slsqp",
]
