"""compresslab: a desk-scale laboratory for compression sensitivity bounds.

Exact finite-distribution arithmetic, verified information-theoretic
inequalities for compressive maps, hypergraph-tournament dominating sets,
and an end-to-end reduction from explicit toy languages to
statistical-distance promise queries.  Every quantity is computed by
exhaustive enumeration under a configurable budget; nothing is sampled.
"""

from .budget import BudgetExceededError, enumeration_budget
from .compression import (
    CompressiveMap,
    HitCountCompression,
    OrCompression,
    SetEncodedCompression,
    ToyLanguage,
    bit_encode_subsets,
    canonical_set,
    enumerate_subset_law,
    ideal_or_compression,
    noisy_or_compression,
    random_compressive_map,
    subset_distribution,
)
from .distributions import (
    FiniteDistribution,
    ProductDistribution,
    entropy,
    kl_divergence,
    mixture,
    mutual_information,
    point,
    push_forward,
    statistical_distance,
    uniform,
)
from .fcompression import (
    PivotView,
    SymmetricCompression,
    SymmetricFunction,
    TransformedOrCompression,
    find_pivot_view,
    transform_to_relaxed_or,
)
from .reduction import (
    Advice,
    AuditReport,
    SDQuery,
    audit_language,
    build_advice,
    build_block_advice,
    decide,
    decide_tlogt,
    exact_sd_oracle,
    threshold_oracle,
)
from .sensitivity import (
    LemmaReport,
    avg_noise_sensitivity,
    kl_sensitivity,
    map_input_mutual_information,
    pinsker_chain,
    pinsker_threshold,
    vajda_threshold,
    verify_kl_bound,
    verify_pinsker_sensitivity,
    verify_vajda_sensitivity,
)
from .tournament import (
    DominatingSet,
    HypergraphTournament,
    InvariantError,
    SelectorUndefinedError,
    block_selector,
    block_tournament,
    greedy_dominating_set,
    random_tournament,
    selector_from_compression,
    verify_domination,
)

__version__ = "0.1.0"
