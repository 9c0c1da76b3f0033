import numpy as np
import pytest

from extraction_lab.cq_states import CqState, build_cq, classical_state
from extraction_lab.gf2 import index_to_bits
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
