"""Sybil-resilient, status-quo-anchored voting under partial participation.

Three mutually cross-checking layers: mechanism evaluation (``rules``,
``proxy``), closed-form guarantees (``guarantees``), and definitional
brute-force / Monte Carlo verification (``verifier``, ``montecarlo``).
"""

from .betweenness import BetweenRegion, between, between_union
from .guarantees import (
    GuaranteeReport,
    Setting,
    feasibility,
    liveness_threshold,
    report,
    required_tau,
    safety_threshold,
)
from .population import (
    Ballot,
    DomainSpec,
    NonatomicProfile,
    Profile,
    VoterClass,
    build_profile,
    project_to_pair,
)
from .proxy import (
    DelegationWeights,
    ProxyAnalysis,
    analyze,
    delegate,
    md_proxy,
    sample_and_run,
    weighted_median,
)
from .rules import Mechanism, Tally, apply
from .verifier import (
    AdversarialWitness,
    OutcomeRange,
    is_live,
    is_safe,
    min_alpha,
    min_alpha_for_profile,
    nonatomic_eval,
    outcome_range,
    reduction_check,
    replay_witness,
    smallest_live_beta,
    tightness_witness,
)

__version__ = "0.1.0"

__all__ = [
    "Ballot",
    "BetweenRegion",
    "DomainSpec",
    "GuaranteeReport",
    "Mechanism",
    "NonatomicProfile",
    "OutcomeRange",
    "Profile",
    "ProxyAnalysis",
    "AdversarialWitness",
    "DelegationWeights",
    "Setting",
    "Tally",
    "VoterClass",
    "analyze",
    "apply",
    "between",
    "between_union",
    "build_profile",
    "delegate",
    "feasibility",
    "is_live",
    "is_safe",
    "liveness_threshold",
    "md_proxy",
    "min_alpha",
    "min_alpha_for_profile",
    "nonatomic_eval",
    "outcome_range",
    "project_to_pair",
    "reduction_check",
    "replay_witness",
    "report",
    "required_tau",
    "safety_threshold",
    "sample_and_run",
    "smallest_live_beta",
    "tightness_witness",
    "weighted_median",
]
