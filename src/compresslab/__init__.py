"""compresslab: a desk-scale laboratory for compression sensitivity bounds.

Exact finite-distribution arithmetic, verified information-theoretic
inequalities for compressive maps, hypergraph-tournament dominating sets,
and an end-to-end reduction from explicit toy languages to
statistical-distance promise queries.  Every quantity is computed by
exhaustive enumeration under a configurable budget; nothing is sampled.
"""

from .budget import BudgetExceededError, enumeration_budget
from .compression import (
    BlockCompression,
    CompressiveMap,
    HitCountCompression,
    OrCompression,
    SetEncodedCompression,
    ToyLanguage,
    bit_encode_subsets,
    canonical_set,
    enumerate_law,
    ideal_or_compression,
    noisy_or_compression,
    partition_blocks,
    subset_pools,
)
from .distributions import FiniteDistribution, statistical_distance
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
    PromiseGap,
    SDQuery,
    audit_language,
    build_advice,
    decide,
    exact_sd_oracle,
)
from .sensitivity import (
    LemmaReport,
    map_input_mutual_information,
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
    greedy_dominating_set,
    random_tournament,
    selector_from_compression,
    verify_domination,
)

__version__ = "0.1.0"
