"""Planted hitting set recovery in hypergraphs.

The package recovers a hidden core (a planted hitting set) from an
unlabeled hypergraph by taking the union of many randomized minimal hitting
sets, and ships the exact combinatorial machinery needed to verify that
approach on small instances: sunflower kernelization, enumeration of minimal
hitting sets, adversarial tree families, a core-fringe random model, six
baseline rankers, and an evaluation harness.
"""

from .baselines import (
    IterationParams,
    Ranking,
    borgatti_everett_ranking,
    clique_eigen_ranking,
    degree_ranking,
    h_eigen_ranking,
    kcore_ranking,
    z_eigen_ranking,
)
from .evaluation import (
    PrCurve,
    auprc,
    precision_at_core_size,
)
from .generators import (
    SbmParams,
    TreeFamilyParams,
    consistent_labeling_hitting_set,
    independence_threshold,
    random_hypergraph,
    sbm_hypergraph,
    tree_family,
)
from .hypergraph import (
    Hypergraph,
    LabeledHypergraph,
    canonicalize,
    is_hitting_set,
    is_minimal_hitting_set,
    prune_to_minimal,
    uniform_subhypergraph,
)
from .oracle import (
    KernelReport,
    MembershipReport,
    OracleBudgetError,
    OracleLimits,
    Sunflower,
    check_membership_lemmas,
    enumerate_minimal_hitting_sets,
    find_sunflower,
    independence_number,
    kernelize,
    min_hitting_set_size,
    sigma,
    union_minimal,
)
from .recovery import (
    RoundSizes,
    UmhsConfig,
    UmhsResult,
    greedy_matching_certificate,
    rank_nodes,
    umhs,
)

__all__ = [
    "Hypergraph",
    "LabeledHypergraph",
    "canonicalize",
    "is_hitting_set",
    "is_minimal_hitting_set",
    "prune_to_minimal",
    "uniform_subhypergraph",
    "UmhsConfig",
    "UmhsResult",
    "RoundSizes",
    "greedy_matching_certificate",
    "umhs",
    "rank_nodes",
    "OracleLimits",
    "OracleBudgetError",
    "Sunflower",
    "KernelReport",
    "MembershipReport",
    "sigma",
    "find_sunflower",
    "kernelize",
    "min_hitting_set_size",
    "enumerate_minimal_hitting_sets",
    "union_minimal",
    "independence_number",
    "independence_threshold",
    "check_membership_lemmas",
    "SbmParams",
    "TreeFamilyParams",
    "sbm_hypergraph",
    "tree_family",
    "consistent_labeling_hitting_set",
    "random_hypergraph",
    "Ranking",
    "IterationParams",
    "degree_ranking",
    "clique_eigen_ranking",
    "z_eigen_ranking",
    "h_eigen_ranking",
    "borgatti_everett_ranking",
    "kcore_ranking",
    "PrCurve",
    "precision_at_core_size",
    "auprc",
]
