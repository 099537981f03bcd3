"""Information-theoretic toolkit for multi-agent LLM scaling.

Measures the effective channel count K* from agent-output embeddings,
verifies information bounds by exact enumeration on small joints, simulates
the evidence-coverage model, and runs Vote/Debate workflows over diversity
layers L1-L4.
"""

from masinfo.spectral import (
    EmbeddingSet,
    SpectralSummary,
    RedundancyScore,
    normalize_embeddings,
    k_star,
    k_star_conditioned,
    mean_pairwise_cosine,
)
from masinfo.info_theory import (
    DiscreteJoint,
    TypeProfile,
    BudgetReport,
    conditional_entropy,
    conditional_mutual_information,
    usable_evidence,
    parallel_ceiling,
    sequential_ceiling,
    redundancy_identity_check,
    bsc_views_joint,
    conditionally_independent_joint,
)
from masinfo.coverage import (
    CoverageParams,
    ContractionCurve,
    simulate_coverage,
    analytic_bounds,
    marginal_gain,
    compare_designs,
    fit_alpha,
)

__all__ = [
    "EmbeddingSet",
    "SpectralSummary",
    "RedundancyScore",
    "normalize_embeddings",
    "k_star",
    "k_star_conditioned",
    "mean_pairwise_cosine",
    "DiscreteJoint",
    "TypeProfile",
    "BudgetReport",
    "conditional_entropy",
    "conditional_mutual_information",
    "usable_evidence",
    "parallel_ceiling",
    "sequential_ceiling",
    "redundancy_identity_check",
    "bsc_views_joint",
    "conditionally_independent_joint",
    "CoverageParams",
    "ContractionCurve",
    "simulate_coverage",
    "analytic_bounds",
    "marginal_gain",
    "compare_designs",
    "fit_alpha",
]
