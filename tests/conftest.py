import numpy as np
import pytest

from extraction_lab.cq_states import (
    CqState,
    _strong_flag,
    apply_classical_function,
    build_cq,
    classical_state,
    markov_block_state,
)
from extraction_lab.gf2 import _symbol_indices, all_bit_vectors, index_to_bits
from extraction_lab.operators import random_density, random_pure_state


@pytest.fixture
def rng():
    return np.random.default_rng(20250808)


def random_distribution(n_bits: int, rng, min_support: int = 1) -> dict:
    size = 1 << n_bits
    support = int(rng.integers(min_support, size + 1))
    chosen = sorted(int(i) for i in rng.choice(size, size=support, replace=False))
    weights = rng.random(support) + 1e-3
    weights /= weights.sum()
    return {index_to_bits(i, n_bits): float(w) for i, w in zip(chosen, weights)}


def random_cq_state(n_bits: int, dim: int, rng, min_support: int = 1,
                    pure: bool = False) -> CqState:
    dist = random_distribution(n_bits, rng, min_support)
    if dim == 1:
        return classical_state(dist)
    make = random_pure_state if pure else random_density
    conds = {sym: make(dim, rng) for sym in sorted(dist)}
    return build_cq(dist, conds)


def dense_cq(state: CqState, symbols=None) -> np.ndarray:
    """Independent dense materialization used as the blockwise oracle."""
    if symbols is None:
        symbols = sorted(state.blocks)
    d = state.side_dim
    out = np.zeros((len(symbols) * d, len(symbols) * d), dtype=complex)
    for i, sym in enumerate(symbols):
        if sym in state.blocks:
            out[i * d:(i + 1) * d, i * d:(i + 1) * d] = state.blocks[sym]
    return out


# -- the dense Markov route, the oracle of the block route ------------------------

def extractor_output_from_joint(ext, joint: CqState, strong_in=None) -> CqState:
    """The output state of ``ext`` on a joint (x1, x2) cq-state, relabelled in one
    ``apply_classical_function``: ``extractor_output_state`` of a product, and the
    dense output of a Markov mixture's ``markov_block_state``."""
    symbols = joint.symbols()
    i1 = _symbol_indices([sym[0] for sym in symbols], ext.n, "source 1")
    i2 = _symbol_indices([sym[1] for sym in symbols], ext.n, "source 2")
    z_bits = all_bit_vectors(ext.m)
    copied = {"x1": 0, "x2": 1}.get(_strong_flag(strong_in))
    names = {sym: z_bits[z] if copied is None else (z_bits[z], sym[copied])
             for sym, z in zip(symbols, ext.table[i1, i2].tolist())}
    return apply_classical_function(joint, names.__getitem__)


def joint_and_marginals(scenario):
    """The dense joint state of a Markov mixture and its two sources' cq-states on it."""
    joint = markov_block_state(scenario)
    return (joint, apply_classical_function(joint, lambda sym: sym[0]),
            apply_classical_function(joint, lambda sym: sym[1]))
