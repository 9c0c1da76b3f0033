import itertools

import numpy as np
import pytest

from extraction_lab.cq_states import (
    CqState,
    _block_sum,
    _distance_terms,
    _strong_flag,
    apply_classical_function,
    build_cq,
    classical_state,
    markov_block_state,
    relabelled_stacks,
)
from extraction_lab.gf2 import _symbol_indices, all_bit_vectors, index_to_bits
from extraction_lab.operators import (
    as_operator,
    hermitian_stack,
    partial_trace,
    random_density,
    random_pure_state,
    tensor,
    von_neumann_entropies,
)


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
    """Independent dense materialization used as the blockwise oracle: sum_x |x><x| (x)
    rho_{B and x} over ``symbols`` (the state's own by default), zero where it has none."""
    if symbols is None:
        symbols = sorted(state.blocks)
    d = state.side_dim
    out = np.zeros((len(symbols) * d, len(symbols) * d), dtype=complex)
    for i, sym in enumerate(symbols):
        if sym in state.blocks:
            out[i * d:(i + 1) * d, i * d:(i + 1) * d] = state.blocks[sym]
    return out


# -- the per-state output route, the oracle of cq_states.product_distances --------

def _grouped(stack: np.ndarray, outputs: np.ndarray, n_out: int):
    """``stack`` relabelled by each row of ``outputs`` (``relabelled_stacks``): the
    (R, n_out, d, d) sums over the columns with output z and their (R, n_out) mask."""
    return relabelled_stacks(np.broadcast_to(stack, outputs.shape + stack.shape[1:]),
                             np.ones(outputs.shape, dtype=bool), outputs, n_out)


def extractor_output_state(ext, s1: CqState, s2: CqState, strong_in=None) -> CqState:
    """State of (Ext(X1, X2), [X_i copy], C1 C2) for independent sources.

    The classical register is the output z for a weak evaluation, or the
    pair (z, x_i) when strong_in names a source; the side register is
    always C1 (x) C2.  Outputs come from ``ext.table``; the blocks of one
    source are summed per (other source's symbol, z) before tensoring, so
    the full joint operator is never built.  The weak output is the strong
    (z, x1) state with x1 dropped by ``apply_classical_function``.
    """
    flag = _strong_flag(strong_in)
    sym1, sym2 = s1.symbols(), s2.symbols()
    outputs = ext.table[np.ix_(_symbol_indices(sym1, ext.n, "source 1"),
                               _symbol_indices(sym2, ext.n, "source 2"))]
    z_bits = all_bit_vectors(ext.m)
    n_out = len(z_bits)
    # Pieces follow (z, copied symbol) order, the sorted order of the output symbols.
    if flag == "x2":
        sums, present = _grouped(s1.stack, outputs.T, n_out)
        zs, rows = np.nonzero(present.T)
        pieces, copied = tensor(sums[rows, zs], s2.stack[rows]), sym2
    else:
        sums, present = _grouped(s2.stack, outputs, n_out)
        zs, rows = np.nonzero(present.T)
        pieces, copied = tensor(s1.stack[rows], sums[rows, zs]), sym1
    keys = [(z_bits[z], copied[r]) for z, r in zip(zs.tolist(), rows.tolist())]
    strong = CqState._from_stack(keys, pieces)
    return strong if flag else apply_classical_function(strong, lambda sym: sym[0])


def distance_to_uniform(state: CqState, uniform_dim: int, strong: bool = False) -> float:
    """Exact trace distance to (uniform output) (x) (rest of the state).

    For a weak output state (symbols are z themselves) this is
    delta(rho_{ZC}, omega (x) rho_C); for a strong one (symbols are (z, x_i)
    pairs) it is the expectation over x_i of the per-x_i distances.  Either
    is half the running total of ``_distance_terms`` (one state per x_i, in
    sorted order, when strong), which counts the output symbols of weight
    zero that the alphabet omits.
    """
    symbols = state.symbols()
    if strong:
        for sym in symbols:
            if not (isinstance(sym, tuple) and len(sym) == 2):
                raise ValueError(f"strong output symbols must be (z, x) pairs, got {sym!r}")
        # State g is the g-th x_i in sorted order.  In sorted-symbol order each
        # x_i's blocks come in z order, so their slots count up from 0.
        slots = {rest: itertools.count() for rest in sorted({rest for _, rest in symbols})}
        group_of = {rest: g for g, rest in enumerate(slots)}
        rows, cols = np.array([(group_of[rest], next(slots[rest])) for _, rest in symbols],
                              dtype=np.intp).reshape(-1, 2).T
    else:
        rows, cols = np.zeros(len(symbols), dtype=np.intp), np.arange(len(symbols))
    terms = _distance_terms(state.stack, rows, cols,
                            (rows.max(initial=-1) + 1, cols.max(initial=-1) + 1), uniform_dim)
    return float(0.5 * _block_sum(terms.ravel()))


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


# -- the dense conditional mutual information, the oracle of pair_cmis -------------

def conditional_mutual_informations(rhos, dims) -> np.ndarray:
    """I(A:B|C) = S(AC) + S(BC) - S(ABC) - S(C) in bits of each operator of an (N, D, D)
    stack, all of dims (dA, dB, dC), each bit for bit what it gives alone.

    The stack is tested once (``hermitian_stack``), and each of the four
    entropies is one ``von_neumann_entropies`` call on the whole operators or
    their marginals.
    """
    if len(dims) != 3:
        raise ValueError("dims must be (d_A, d_B, d_C)")
    m = hermitian_stack(rhos)
    s_ac, s_bc, s_abc, s_c = (von_neumann_entropies(x) for x in (
        partial_trace(m, dims, (0, 2)), partial_trace(m, dims, (1, 2)), m,
        partial_trace(m, dims, (2,))))
    return s_ac + s_bc - s_abc - s_c


def conditional_mutual_information(rho, dims) -> float:
    """``conditional_mutual_informations`` of one operator."""
    return float(conditional_mutual_informations(as_operator(rho)[None], dims)[0])


def padded_pairs(states, n):
    """States on pairs of n-bit symbols, all of one side dimension d, as ``pair_cmis``
    takes them: the (P, 2^n, 2^n, d, d) stack of their blocks, zero where a pair has
    none, and its (P, 2^n, 2^n) mask, filled pair by pair."""
    index = {sym: i for i, sym in enumerate(all_bit_vectors(n))}
    d = states[0].side_dim
    stacks = np.zeros((len(states), 1 << n, 1 << n, d, d), dtype=complex)
    present = np.zeros(stacks.shape[:3], dtype=bool)
    for i, state in enumerate(states):
        for (a, b), block in state.blocks.items():
            stacks[i, index[a], index[b]] = block
            present[i, index[a], index[b]] = True
    return stacks, present
