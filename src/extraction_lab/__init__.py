"""Two-source randomness extraction toolkit and verification harness."""

from .gf2 import (
    MatrixFamily,
    a_s,
    all_bit_vectors,
    build_field_family,
    build_shift_family,
    family_rank_parameter,
    gf2_matvec,
    gf2_rank,
)
from .cq_states import (
    CqState,
    MarkovScenario,
    apply_classical_function,
    build_cq,
    classical_state,
    markov_block_state,
    marginal_side,
    product_distances,
)
from .entropies import (
    h2_cond,
    h2_cond_many,
    h2_rel,
    h_min_classical,
    h_min_cond,
    h_min_cond_many,
    h_min_markov_sources,
    h_min_rel,
)
from .extractors import (
    ExtractorSpec,
    deor_eval,
    deor_extractor,
    ip_eval,
    ip_extractor,
)
from .xor_analysis import (
    MatrixValuedFunction,
    mvf_fourier,
    mvf_l2_norm,
)

__all__ = [
    "MatrixFamily",
    "a_s",
    "all_bit_vectors",
    "build_field_family",
    "build_shift_family",
    "family_rank_parameter",
    "gf2_matvec",
    "gf2_rank",
    "CqState",
    "MarkovScenario",
    "apply_classical_function",
    "build_cq",
    "classical_state",
    "markov_block_state",
    "marginal_side",
    "product_distances",
    "h2_cond",
    "h2_cond_many",
    "h2_rel",
    "h_min_classical",
    "h_min_cond",
    "h_min_cond_many",
    "h_min_markov_sources",
    "h_min_rel",
    "ExtractorSpec",
    "deor_eval",
    "deor_extractor",
    "ip_eval",
    "ip_extractor",
    "MatrixValuedFunction",
    "mvf_fourier",
    "mvf_l2_norm",
]

__version__ = "0.1.0"
