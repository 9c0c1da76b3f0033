import itertools
import math

import numpy as np
import pytest

from extraction_lab.cq_states import (
    CqState,
    MarkovScenario,
    _block_sum,
    _distance_terms,
    _strong_flag,
    apply_classical_function,
    build_cq,
    classical_state,
    markov_block_state,
    padded_stacks,
    relabelled_stacks,
)
from extraction_lab.gf2 import _symbol_indices, all_bit_vectors, index_to_bits
from extraction_lab.harness import checks
from extraction_lab.operators import (
    KERNEL_RTOL,
    as_operator,
    ginibre_densities,
    hermitian_stack,
    partial_trace,
    pure_states,
    tensor,
    von_neumann_entropies,
)

# The generator constructor, kept for CountingGenerator where a test patches it.
_DEFAULT_RNG = np.random.default_rng


@pytest.fixture
def rng():
    return np.random.default_rng(20250808)


# -- the per-state and per-conditional draws, the law oracle of the column draws -----

def random_densities(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` full-rank random density operators (Wishart-normalized), (count, dim, dim).

    One standard-normal draw of shape (count, 2, dim, dim) holds each
    operator's real and imaginary Ginibre parts, in the order that
    ``count`` single draws take them, so the operators and the generator's
    state are those of ``count`` calls of ``random_density``.
    """
    return ginibre_densities(rng.standard_normal((count, 2, dim, dim)))


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density operator: ``random_densities`` of a batch of one."""
    return random_densities(1, dim, rng)[0]


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def one_hot(index: int, dim: int) -> np.ndarray:
    """The pure state |index><index| of a dim-dimensional register."""
    c = np.zeros((dim, dim), dtype=complex)
    c[index, index] = 1.0
    return c


def ginibre_normals(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """The (count, 2, dim, dim) standard normals that ``random_densities(count, dim, rng)``
    draws, left unformed."""
    return rng.standard_normal((count, 2, dim, dim))


def random_blocks(n_bits: int, dim: int, rng: np.random.Generator, min_support: int = 1,
                  draw=random_densities):
    """A random distribution on n-bit strings and one conditional state per symbol, drawn
    one state at a time: the draw that ``scenarios._random_blocks_many`` replaced.

    Returns its support as ascending indices, their weights and the stack
    draw(support, dim, rng) of conditionals, (support, dim, dim), or of their
    unformed normals (``ginibre_normals``); 1x1 ones for a one-dimensional
    side register, drawing nothing.
    """
    size = 1 << n_bits
    support = int(rng.integers(min_support, size + 1))
    indices = np.sort(rng.choice(size, size=support, replace=False))
    weights = rng.random(support) + 1e-3
    conds = draw(support, dim, rng) if dim > 1 else np.ones((support, 1, 1), dtype=complex)
    return indices, weights / weights.sum(), conds


def markov_draw(n: int, n_blocks: int, seed: int, classical: bool = False):
    """(weights, factors) as ``scenarios._markov_draw`` gives them, drawn one factor and
    one conditional at a time: its one-hot (classical) or pure conditionals each as
    ``one_hot`` of ``integers(d)`` or ``random_pure_state`` draws it alone."""
    rng = np.random.default_rng(seed)
    weights = rng.random(n_blocks) + 0.2
    weights = tuple(float(w) for w in weights / weights.sum())

    def draw(count, d, r):
        if classical:
            return np.array([one_hot(int(r.integers(d)), d) for _ in range(count)])
        return np.array([random_pure_state(d, r) for _ in range(count)])

    factors = []
    for _ in range(n_blocks):
        d1 = int(rng.integers(1, 3))
        d2 = int(rng.integers(1, 3))
        factors.append(((n, *random_blocks(n, d1, rng, draw=draw)),
                        (n, *random_blocks(n, d2, rng, draw=draw))))
    return weights, factors


# -- the per-scenario Markov draw, the oracle of scenarios._markov_draws ---------------

def ref_random_blocks_many(n_bits, dims, rng: np.random.Generator, min_support: int = 1,
                          conds: str = "mixed") -> list:
    """``scenarios._random_blocks_many`` as it was before the batch drawer, verbatim: the
    ranking, normalisation and forming done for its one generator's block."""
    sizes = 1 << np.asarray(n_bits)
    supports = rng.integers(min_support, sizes + 1)
    owner = np.repeat(np.arange(len(sizes)), sizes)     # the scenario of each slot
    slot = np.arange(len(owner)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    # Sorted by (scenario, key), a scenario's slots keep its range of positions, so
    # the slot index at a position is the rank of the key sorted to it.
    chosen = np.empty(len(owner), dtype=bool)
    chosen[np.lexsort((rng.random(len(owner)), owner))] = slot < supports[owner]
    weights = rng.random(int(supports.sum())) + 1e-3
    weights /= np.repeat(np.add.reduceat(weights, np.cumsum(supports) - supports), supports)
    supports, dims = supports.tolist(), np.asarray(dims).tolist()
    drawn = iter(_ref_drawn_conditionals(rng, [(s, d) for s, d in zip(supports, dims) if d > 1],
                                         conds))
    return [(indices, w, next(drawn) if d > 1 else np.ones((len(w), 1, 1), dtype=complex))
            for indices, w, d in zip(_ref_split(slot[chosen], supports),
                                     _ref_split(weights, supports), dims)]


def _ref_drawn_conditionals(rng: np.random.Generator, shapes: list, conds: str) -> list:
    if conds == "mixed":
        return _ref_standard_normals(rng, [(s, 2, d, d) for s, d in shapes])
    if conds == "pure":
        return [pure_states(x) for x in _ref_standard_normals(rng, [(s, 2, d) for s, d in shapes])]
    supports = [s for s, _ in shapes]
    hot = _ref_split(rng.integers(np.repeat([d for _, d in shapes], supports)), supports)
    # |i><i| is row i·(d + 1) of the d²×d² identity, taken as a d×d matrix.
    return [np.eye(d * d, dtype=complex)[i * (d + 1)].reshape(-1, d, d)
            for i, (_, d) in zip(hot, shapes)]


def _ref_split(flat: np.ndarray, lengths: list) -> list:
    return [flat[end - n:end] for n, end in zip(lengths, itertools.accumulate(lengths))]


def _ref_standard_normals(rng: np.random.Generator, shapes: list) -> list:
    sizes = [math.prod(shape) for shape in shapes]
    return [x.reshape(shape)
            for x, shape in zip(_ref_split(rng.standard_normal(sum(sizes)), sizes), shapes)]


def ref_markov_draw(n: int, n_blocks: int, seed: int, classical: bool = False):
    """``scenarios._markov_draw`` as it was before the batch drawer, verbatim: each
    scenario's bookkeeping done alone."""
    rng = np.random.default_rng(seed)
    weights = rng.random(n_blocks) + 0.2
    weights = tuple(float(w) for w in weights / weights.sum())
    dims = rng.integers(1, 3, size=2 * n_blocks)
    factors = [(n, *drawn) for drawn in ref_random_blocks_many(
        np.full(2 * n_blocks, n), dims, rng, conds="one-hot" if classical else "pure")]
    return weights, list(zip(factors[::2], factors[1::2]))


def ref_markov_block_state(scenario: MarkovScenario) -> CqState:
    """``cq_states.markov_block_state`` as it was before the group former, verbatim."""
    offsets = np.cumsum([0] + [s1.side_dim * s2.side_dim for s1, s2 in scenario.factors])
    side_dim = int(offsets[-1])
    alpha1 = sorted({a for s1, _ in scenario.factors for a in s1.symbols()})
    alpha2 = sorted({b for _, s2 in scenario.factors for b in s2.symbols()})
    slot1 = {a: i for i, a in enumerate(alpha1)}
    slot2 = {b: j for j, b in enumerate(alpha2)}
    stack = np.zeros((len(alpha1), len(alpha2), side_dim, side_dim), dtype=complex)
    present = np.zeros(stack.shape[:2], dtype=bool)
    for lo, hi, w, (s1, s2) in zip(offsets, offsets[1:], scenario.weights, scenario.factors):
        if w > 0:
            at = np.ix_([slot1[a] for a in s1.symbols()], [slot2[b] for b in s2.symbols()])
            stack[at + (slice(lo, hi),) * 2] = w * tensor(s1.stack[:, None], s2.stack[None])
            present[at] = True
    rows, cols = np.nonzero(present)
    symbols = [(alpha1[r], alpha2[c]) for r, c in zip(rows.tolist(), cols.tolist())]
    return CqState._from_stack(symbols, stack[rows, cols])


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


def output_stacks(states):
    """States with m-bit outputs as the kernels of ``xor_analysis`` take them: the
    (P, 2^m, d, d) ``padded_stacks`` of their blocks, each at the index of its output
    (ValueError naming a symbol that is not an m-bit string), and its (P, 2^m) mask."""
    m = len(states[0].symbols()[0])
    return padded_stacks([(s.stack, _symbol_indices(s.symbols(), m, "output")) for s in states],
                         1 << m)


# -- dense single-operator and joint oracles --------------------------------------

def op_power(h, p: float) -> np.ndarray:
    """H^p of one PSD operator from its own eigh, eigenvalues at or below KERNEL_RTOL
    times the largest mapped to 0 (p = 0 gives the support projector): the dense
    route of ``operators._spectral_power``, bit for bit."""
    w, v = np.linalg.eigh(np.asarray(h, dtype=complex))
    live = w > KERNEL_RTOL * max(float(w[-1]), 0.0)
    fw = np.zeros_like(w)
    fw[live] = w[live] ** p
    return (v * fw) @ v.conj().T


def trace_distance(rho, sigma) -> float:
    """Half the trace norm of the dense difference rho - sigma, from its eigenvalues."""
    diff = np.asarray(rho, dtype=complex) - np.asarray(sigma, dtype=complex)
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


def product(s1: CqState, s2: CqState) -> CqState:
    """Independent pair: alphabet of pairs (x1, x2), side register C1 (x) C2, each
    block the np.kron of its two factors."""
    symbols = [(a, b) for a in s1.symbols() for b in s2.symbols()]
    return CqState._from_stack(symbols, np.array([np.kron(s1.blocks[a], s2.blocks[b])
                                                  for a, b in symbols]))


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


# -- the random-state checks' draws ---------------------------------------------------

class CountingGenerator:
    """A generator that records the name and the number of values of each call."""

    def __init__(self, seed):
        self._rng, self.calls = _DEFAULT_RNG(seed), []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            out = method(*args, **kwargs)
            self.calls.append((name, np.size(out)))
            return out
        return counted


def grouped_draws(monkeypatch, check_id: str, config: dict):
    """``run_check(check_id, config)`` and the (key, item) of each scenario that the
    check handed to ``checks._in_groups``, in draw order.  Every draw is taken before
    the first group is evaluated, which moves no draw: evaluation draws nothing."""
    drawn, grouped = [], checks._in_groups

    def recording(draws, evaluate):
        draws = list(draws)
        drawn.extend((key, item) for key, _, item in draws)
        return grouped(iter(draws), evaluate)

    with monkeypatch.context() as patch:
        patch.setattr(checks, "_in_groups", recording)
        reports = checks.run_check(check_id, config)
    return reports, drawn


def answered(requests):
    """What a check's request generator (``checks._flat_sources``, for example) returns,
    each :class:`checks.Solve` it yields answered by ``checks.h_min_cond_many``."""
    try:
        request = next(requests)
        while True:
            request = requests.send(checks.h_min_cond_many(request.states))
    except StopIteration as stop:
        return stop.value
