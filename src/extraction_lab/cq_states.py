"""Classical-quantum states as block-diagonal collections of operators.

A cq-state sum_x |x><x| (x) rho_{B and x} is stored one way: its sorted
symbols and one read-only complex (N, d, d) stack whose row i is the
subnormalized PSD conditional operator of symbol i.  ``state.blocks``
maps each symbol to its row, a view of the stack, never a copy.  A state
is never materialized as one dense matrix: the distances, the relabelling
and the conditional mutual information of states on pair symbols
(:func:`pair_cmis`) all work on the blocks.  Markov block mixtures are
embedded on the pair alphabet per group (:func:`markov_pair_stacks`), and
:func:`markov_block_state` is its batch of one.

Symbols are hashable tuples: bit tuples for plain registers, nested
tuples such as ``(z_bits, x_bits)`` for composite classical registers.
Sums over blocks, and over the distance terms of ``_distance_terms``, add
one at a time in sorted-symbol order, so results are bit-reproducible.
The classical register is relabelled by one kernel,
:func:`relabelled_stacks`, over P zero-padded states at once; one state
is its batch of one (:func:`apply_classical_function`, whose symbols are
the sorted images).  The distance of
a product pair's extractor output never forms its output state:
:func:`product_distances` sums one source's blocks per (other source's
symbol, output) through the same kernel.  A strong output then reads only
the copied source's block traces; a weak one tensors those sums with the
other source's blocks and sums the pieces per output through the kernel
again.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .gf2 import _symbol_indices
from .operators import (
    _not_psd,
    check_unit_traces,
    hermitian_stack,
    hermitian_trace_norms,
    probability_vector,
    tensor,
    von_neumann_entropies,
)


# product_distances evaluates a group of pairs in consecutive chunks whose
# padded rows, Σ|X|·2^n·d² complex entries (|X| the row source's symbols, d
# the other source's side dimension), stay within this budget, and a heavier
# pair's rows in slices that do.  Each (pair, x) row is bit for bit the same
# alone, so the split moves no value.  The built-in suites' largest group
# weighs 844 800, so each of their groups is one chunk.
PAIR_BUDGET = 1 << 20


class CqState:
    """Sorted symbols and the read-only (N, d, d) ``stack`` of their blocks.

    ``CqState(side_dim, blocks)`` copies the blocks into the stack and raises
    ValueError, naming the symbol, for one not of shape (side_dim, side_dim),
    not finite, not Hermitian or not PSD (:func:`check_blocks`); ``blocks``
    then maps each symbol to its row, a view of the stack.  The map is built
    at its first read: the checks read only the stack and the symbols, and
    a view per row would weigh more than the rows of a small state.
    """

    __slots__ = ("side_dim", "stack", "_blocks", "_symbols")

    def __init__(self, side_dim: int, blocks):
        symbols = sorted(blocks)
        stack = _block_stack(blocks, symbols, side_dim)
        check_blocks(stack[None], np.ones((1, len(symbols)), dtype=bool), symbols)
        self._adopt(symbols, stack)

    @classmethod
    def _from_stack(cls, symbols, stack: np.ndarray) -> CqState:
        """Wrap an unchecked complex (N, d, d) stack, not copied, rows in sorted ``symbols``."""
        state = cls.__new__(cls)
        state._adopt(symbols, stack)
        return state

    def _adopt(self, symbols, stack: np.ndarray) -> None:
        stack.flags.writeable = False
        self.side_dim, self.stack, self._symbols = stack.shape[-1], stack, tuple(symbols)
        self._blocks = None

    @property
    def blocks(self) -> MappingProxyType:
        if self._blocks is None:
            self._blocks = MappingProxyType(dict(zip(self._symbols, self.stack)))
        return self._blocks

    def symbols(self) -> list:
        return list(self._symbols)

    def probabilities(self) -> dict:
        return dict(zip(self._symbols, _traces(self.stack).tolist()))

    def total_trace(self) -> float:
        return float(_block_sum(_traces(self.stack)))


def _block_stack(blocks, symbols, side_dim: int) -> np.ndarray:
    """The complex (N, side_dim, side_dim) stack of blocks[sym] for sym in ``symbols``;
    ValueError naming the first symbol whose block has another shape."""
    for sym in symbols:
        if np.shape(blocks[sym]) != (side_dim, side_dim):
            raise ValueError(f"block for {sym} has shape {np.shape(blocks[sym])}, "
                             f"expected side_dim {side_dim}")
    return np.array([blocks[sym] for sym in symbols], dtype=complex).reshape(
        -1, side_dim, side_dim)


def check_blocks(stacks: np.ndarray, present: np.ndarray, names,
                 normalized: bool = False) -> None:
    """Refuse P cq-states given as a zero-padded (P, S, d, d) stack and its (P, S) mask.

    Slot j of every state holds the block of symbol names[j] where present
    holds (:func:`padded_stacks`).  ValueError, naming the first bad
    block's symbol as :class:`CqState` does, for a present block that is
    not finite or not Hermitian, or not PSD by one stacked eigvalsh of the
    present blocks; and, when ``normalized``, ValueError as
    :func:`build_cq` gives it for a state whose total trace, its slots
    added in order by :func:`_block_sum`, is not 1 within TRACE_ATOL.
    :class:`CqState` and :func:`build_cq` call it on a batch of one.
    """
    def symbol(i):      # of row i of the present blocks, looked up only for an error message
        return names[int(np.flatnonzero(present)[i]) % present.shape[1]]

    blocks = hermitian_stack(stacks[present], symbol)
    w = np.linalg.eigvalsh(blocks)
    low = _not_psd(w)
    if low.any():
        i = int(np.argmax(low))
        raise ValueError(f"conditional operator for {symbol(i)} is not PSD "
                         f"(min eig {w[i, 0]:.3e})")
    if normalized:
        check_unit_traces(_block_sum(_traces(stacks), axis=1), "cq-state")


def _traces(stack: np.ndarray) -> np.ndarray:
    """Real trace of each operator in a stack."""
    return stack.trace(axis1=-2, axis2=-1).real


def _block_sum(stack: np.ndarray, axis: int = 0) -> np.ndarray:
    """Sum over the (symbol) axis ``axis``, adding one block at a time.

    The certified values, and so the report bytes, are those of a Python
    ``sum`` over the blocks in sorted-symbol order.  ``stack.sum(axis=0)``
    may add pairwise and then differs in the last bit, which the solver
    iteration amplifies; ``np.add.accumulate`` adds strictly in order.
    The trailing ``+ 0.0`` turns the -0.0 of an all-(-0.0) entry into the
    +0.0 that ``0 + x`` gives, so every bit matches.  For the same reason
    zero blocks padded in between (as in :func:`padded_stacks`) change no bit.
    """
    if not stack.shape[axis]:
        return np.zeros(stack.shape[:axis] + stack.shape[axis + 1:], dtype=stack.dtype)
    return np.add.accumulate(stack, axis=axis)[(slice(None),) * axis + (-1,)] + 0.0


def padded_stacks(drawn, slots: int):
    """P block stacks as one zero-padded (P, slots, d, d) array and its (P, slots) mask.

    ``drawn`` holds (stack, indices) pairs: row j of stack i goes to slot
    indices[j] of entry i, and the mask marks the slots that hold a block.
    With slot order the sorted-symbol order, sums over the slot axis by
    :func:`_block_sum` equal those over the unpadded stacks bit for bit.
    """
    stacks = [stack for stack, _ in drawn]
    rows = np.repeat(np.arange(len(drawn)), [len(stack) for stack in stacks])
    cols = np.concatenate([indices for _, indices in drawn])
    out = np.zeros((len(drawn), slots) + stacks[0].shape[1:], dtype=complex)
    out[rows, cols] = np.concatenate(stacks)
    present = np.zeros((len(drawn), slots), dtype=bool)
    present[rows, cols] = True
    return out, present


def build_cq(dist: dict, cond_states: dict) -> CqState:
    """Assemble a cq-state from a distribution and normalized conditionals.

    The side dimension is the first conditional's; every block must share it.
    One stacked test refuses a conditional whose trace is not 1, naming the
    first in ``dist`` order; :func:`check_blocks` then tests the weighted
    blocks and the total trace.
    """
    probability_vector(dist.values())
    live = [sym for sym, p in dist.items() if p > 0]
    first = np.shape(cond_states[live[0]])      # () for a scalar, refused as a shape
    conds = _block_stack(cond_states, live, first[0] if first else 0)
    check_unit_traces(_traces(conds), "conditional state for", live)
    order = sorted(range(len(live)), key=live.__getitem__)
    symbols = [live[i] for i in order]
    stack = np.array([dist[sym] for sym in symbols])[:, None, None] * conds[order]
    check_blocks(stack[None], np.ones((1, len(symbols)), dtype=bool), symbols, normalized=True)
    return CqState._from_stack(symbols, stack)


def classical_state(dist: dict) -> CqState:
    """Source with trivial (one-dimensional) side register."""
    one = np.ones((1, 1), dtype=complex)
    return build_cq(dist, {sym: one for sym in dist})


def marginal_side(state: CqState) -> np.ndarray:
    """rho_B, the sum of the blocks in sorted-symbol order."""
    return _block_sum(state.stack)


def relabelled_stacks(stacks: np.ndarray, present: np.ndarray, images: np.ndarray,
                      slots: int):
    """P cq-states with their classical register relabelled, as (out, occupied).

    State p is the zero-padded stack stacks[p], (S, d, d), with a block at
    each slot z where present[p, z] holds (:func:`padded_stacks`); its block
    at slot z goes to output slot images[p, z], one of ``slots``.  ``out``
    is the (P, slots, d, d) stack of the sums and ``occupied`` the (P, slots)
    mask of the output slots that some present block reaches.  One
    ``np.add.at`` onto zeros adds the present blocks at the flat targets
    p·slots + images[p, z] in row-major (p, z) order, so each sum adds its
    blocks one at a time in slot order, as for the state alone.
    """
    count = len(stacks)
    rows, cols = np.nonzero(present)
    targets = rows * slots + images[rows, cols]
    out = np.zeros((count * slots,) + stacks.shape[2:], dtype=complex)
    np.add.at(out, targets, stacks[rows, cols])
    occupied = np.zeros(count * slots, dtype=bool)
    occupied[targets] = True
    return out.reshape((count, slots) + stacks.shape[2:]), occupied.reshape(count, slots)


def apply_classical_function(state: CqState, f) -> CqState:
    """Push the classical register through f, summing merged blocks in sorted-symbol order:
    :func:`relabelled_stacks` of a batch of one, its outputs the sorted images."""
    images = [f(sym) for sym in state.symbols()]
    out = sorted(set(images))
    position = {image: i for i, image in enumerate(out)}
    sums, _ = relabelled_stacks(state.stack[None], np.ones((1, len(images)), dtype=bool),
                                np.array([[position[image] for image in images]], dtype=np.intp),
                                len(out))
    return CqState._from_stack(out, sums[0])


@dataclass(frozen=True)
class MarkovScenario:
    """Mixture of product blocks: weights P_Z(z) and per-block factors."""

    weights: tuple
    factors: tuple   # tuple of (CqState, CqState) pairs

    def __post_init__(self):
        if len(self.weights) != len(self.factors):
            raise ValueError("weights and factor pairs must align")
        probability_vector(self.weights, "block weight vector")


def markov_block_state(scenario: MarkovScenario) -> CqState:
    """Embed the block mixture as one cq-state on the pair alphabet.

    The side register is the direct sum over blocks of C1^z (x) C2^z,
    realized with explicit offsets; block z of weight w contributes
    w * rho^z_{C1 and x1} (x) rho^z_{C2 and x2} in its diagonal slot.
    By construction I(X1:X2|C) = 0 for the embedded state.  It is
    :func:`markov_pair_stacks` of a batch of one, on the sorted symbols that
    some block's factors hold, compacted to the present pairs.
    """
    alpha1 = sorted({a for s1, _ in scenario.factors for a in s1.symbols()})
    alpha2 = sorted({b for _, s2 in scenario.factors for b in s2.symbols()})
    slot1 = {a: i for i, a in enumerate(alpha1)}
    slot2 = {b: j for j, b in enumerate(alpha2)}
    slots = [(np.array([slot1[a] for a in s1.symbols()], dtype=np.intp),
              np.array([slot2[b] for b in s2.symbols()], dtype=np.intp))
             for s1, s2 in scenario.factors]
    stacks, present = markov_pair_stacks([scenario], [slots], (len(alpha1), len(alpha2)))
    rows, cols = np.nonzero(present[0])
    symbols = [(alpha1[r], alpha2[c]) for r, c in zip(rows.tolist(), cols.tolist())]
    return CqState._from_stack(symbols, stacks[0, rows, cols])


def markov_pair_stacks(scenarios, slots, shape):
    """P block mixtures of one side dimension d_C embedded on the pair alphabet, as
    :func:`pair_cmis` takes them: the zero-padded (P, A, B, d_C, d_C) stack and its
    (P, A, B) mask, (A, B) = ``shape``.

    ``slots`` holds per scenario, per block, the (i1, i2) slot indices of its
    two factors' symbols, each ascending and below A and B.  Block z of
    weight w > 0 writes w·ρ_{x1}⊗ρ_{x2} (:func:`tensor`) at slot [i1, i2] of
    the diagonal d1·d2 block at its offset, the sum of the earlier blocks'
    d1·d2, and marks the slot present; a zero weight writes nothing.  The
    blocks are gathered per factor dimensions (d1, d2), and each such class
    is formed by one tensor and written by one scatter, each entry the
    product that its block formed alone gives.
    """
    side = sum(s1.side_dim * s2.side_dim for s1, s2 in scenarios[0].factors)
    stacks = np.zeros((len(scenarios),) + tuple(shape) + (side, side), dtype=complex)
    present = np.zeros(stacks.shape[:3], dtype=bool)
    classes = {}    # (d1, d2) -> [(scenario, offset, weight, factor 1, factor 2, i1, i2)]
    for p, (scenario, at) in enumerate(zip(scenarios, slots)):
        lo = 0
        for w, (s1, s2), (i1, i2) in zip(scenario.weights, scenario.factors, at):
            if w > 0:
                classes.setdefault((s1.side_dim, s2.side_dim), []).append(
                    (p, lo, w, s1.stack, s2.stack, i1, i2))
            lo += s1.side_dim * s2.side_dim
    for (d1, d2), members in classes.items():
        p, lo, w, a, b, i1, i2 = zip(*members)
        k1, k2 = np.array([len(x) for x in a]), np.array([len(x) for x in b])
        # Each block's pairs in row-major (x1, x2) order, as in its (k1, k2) tensor: r1
        # and r2 index the concatenated factor stacks, each x1 row pairing with all
        # of its block's x2 rows.
        per_row = np.repeat(k2, k1)
        r1 = np.repeat(np.arange(len(per_row)), per_row)
        r2 = np.arange(len(r1)) + (np.repeat(np.cumsum(k2) - k2, k1)
                                   - (np.cumsum(per_row) - per_row))[r1]
        block = np.repeat(np.arange(len(members)), k1)[r1]
        pieces = (np.array(w)[block, None, None]
                  * tensor(np.concatenate(a)[r1], np.concatenate(b)[r2]))
        rows, cols = np.concatenate(i1)[r1], np.concatenate(i2)[r2]
        owner = np.array(p)[block]
        diag = np.array(lo)[block, None] + np.arange(d1 * d2)
        stacks[owner[:, None, None], rows[:, None, None], cols[:, None, None],
               diag[:, :, None], diag[:, None, :]] = pieces
        present[owner, rows, cols] = True
    return stacks, present


def pair_cmis(stacks: np.ndarray, present: np.ndarray) -> np.ndarray:
    """I(X1:X2|C) in bits of P cq-states on pair symbols (x1, x2), as a (P,) array,
    each bit for bit what it gives alone.

    State i is the zero-padded (A, B, d, d) stack stacks[i], its slot [j, k]
    the block of the pair of the j-th x1 and the k-th x2 symbol where
    present[i, j, k] holds, slots in sorted-symbol order (:func:`padded_stacks`
    of A·B slots, reshaped, or :func:`markov_pair_stacks` of a group of block
    mixtures, which writes them in place).  X1 and X2 are classical, so each entropy of
    I = S(X1C) + S(X2C) - S(X1X2C) - S(C) is a sum over d×d operators:
    Σ_x1 S(Σ_x2 ρ^{x1 x2}), Σ_x2 S(Σ_x1 ρ^{x1 x2}), Σ_{x1,x2} S(ρ^{x1 x2}) and
    S(Σ ρ^{x1 x2}).  Each is one :func:`von_neumann_entropies` call, which
    refuses an operator that is not PSD, and every sum over slots adds in slot
    order (:func:`_block_sum`).  The present blocks are tested for
    Hermiticity once (:func:`hermitian_stack`).
    """
    p, a, b, d, _ = stacks.shape
    hermitian_stack(stacks[present])

    def entropy(ops):       # of the (p, K, d, d) operators, summed over K in slot order
        return _block_sum(von_neumann_entropies(ops.reshape(-1, d, d)).reshape(p, -1), axis=1)

    slots = stacks.reshape(p, a * b, d, d)
    s_ac, s_bc, s_abc, s_c = (entropy(ops) for ops in (
        _block_sum(stacks, axis=2), _block_sum(stacks, axis=1), slots,
        _block_sum(slots, axis=1)[:, None]))
    return s_ac + s_bc - s_abc - s_c


def _strong_flag(strong_in) -> str | None:
    if strong_in not in (None, "x1", "x2"):
        raise ValueError(f"strong_in must be None, 'x1' or 'x2', got {strong_in!r}")
    return strong_in


def _distance_terms(blocks: np.ndarray, rows: np.ndarray, cols: np.ndarray, shape,
                    uniform_dim: int) -> np.ndarray:
    """Distance-to-uniform terms of ``shape[0]`` states, as a (states, slots + 1) array.

    Block i, (d, d), sits at slot cols[i] of state rows[i], with each
    state's blocks in slot order.  A state's target is its blocks' sum,
    added one block at a time by ``np.add.at``, over uniform_dim.  The terms
    are ‖block − target‖₁ at each block's (state, slot), +0.0 at an empty
    slot, and (uniform_dim − blocks) · ‖target‖₁, the output symbols the
    state lacks, in the last column; every norm comes from one stacked
    eigvalsh.  ValueError when a state has more than uniform_dim blocks.
    """
    states, slots = shape
    sizes = np.bincount(rows, minlength=states)
    if sizes.max(initial=0) > uniform_dim:
        raise ValueError(f"{sizes.max()} output symbols exceed uniform_dim={uniform_dim}")
    targets = np.zeros((states,) + blocks.shape[1:], dtype=complex)
    np.add.at(targets, rows, blocks)
    targets = targets / uniform_dim
    norms = hermitian_trace_norms(np.concatenate([targets, blocks - targets[rows]]))
    terms = np.zeros((states, slots + 1))
    terms[rows, cols] = norms[states:]
    terms[:, -1] = (uniform_dim - sizes) * norms[:states]
    return terms


def weak_distances(stacks: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Exact trace distance δ(ρ_ZC, ω ⊗ ρ_C) to uniform of P weak output states, as a
    (P,) array.

    State i is the zero-padded stack stacks[i], (S, d, d), with its blocks in
    sorted-symbol order where present[i] holds (:func:`padded_stacks`); the
    uniform output has the S symbols of the slots.  Each state's distance is
    half the sum of its row of :func:`_distance_terms`, added one term at a
    time, as for a single state.
    """
    rows, cols = np.nonzero(present)
    terms = _distance_terms(stacks[rows, cols], rows, cols, present.shape, stacks.shape[1])
    return 0.5 * _block_sum(terms, axis=1)


def product_distances(pairs, strong_in=None) -> np.ndarray:
    """Distance to uniform of the output of P product pairs (ext, s1, s2), as a (P,) array,
    each bit for bit what it gives alone.

    X, the row source, is s1 for ``strong_in="x1"`` or None and s2 for "x2";
    Y is the other.  A_{x,z} = Σ_{y: Ext(x,y)=z} ω_y sums Y's blocks ω_y per
    output.  Pairs are grouped by (n, m, Y's side dimension), and for a weak
    output by X's too, and a group is split into consecutive chunks whose
    padded rows, Σ|X|·2^n·d² entries, stay within ``PAIR_BUDGET``; a heavier
    pair is a chunk of its own, and its rows are taken in slices that do.
    One :func:`relabelled_stacks` call per chunk (or slice) sums each A_{x,z}
    through ``ext.table``, rows (pair, x) in row-major order and Y's blocks
    in sorted-symbol slots.

    Strong in X: given x, the output is a function of y alone, and X's side
    register is a tensor factor of trace p(x) in each of x's blocks, so

        δ = Σ_x p(x) · ½ Σ_z ‖A_{x,z} − ρ_Y/2^m‖₁,

    and of X only its block traces p(x) are read.  One :func:`_distance_terms`
    call gives one row of terms per (pair, x), and each pair's p(x) · ½ Σ_z
    terms are added as a running total in sorted x order.

    Weak (``strong_in=None``): the output blocks are B_z = Σ_x ρ_x ⊗ A_{x,z},
    with ρ_x X's blocks.  The pieces ρ_x ⊗ A_{x,z} of the occupied (x, z)
    slots are summed per (pair, z) by one more :func:`relabelled_stacks`
    call, in row-major (pair, x, z) order, so each B_z adds its pieces in
    sorted x order, and :func:`weak_distances` gives the distances.
    """
    flag = _strong_flag(strong_in)
    deltas = np.zeros(len(pairs))
    chunks, filling = [], {}    # filling: each group's last chunk and its weight
    for i, (ext, s1, s2) in enumerate(pairs):
        x, y, table = (s2, s1, ext.table.T) if flag == "x2" else (s1, s2, ext.table)
        key = (ext.n, ext.m, y.side_dim, x.side_dim if flag is None else 0)
        weight = len(x.stack) * y.side_dim ** 2 << ext.n     # its rows of `padded[owner]`
        members, held = filling.get(key, (None, 0))
        if members is None or held + weight > PAIR_BUDGET:
            members, held = [], 0
            chunks.append((key, members))
        members.append((i, table, x, y))
        filling[key] = members, held + weight
    x_name, y_name = ("source 2", "source 1") if flag == "x2" else ("source 1", "source 2")
    for (n, m, *_), members in chunks:
        at, tables, x_states, y_states = zip(*members)
        xs = [_symbol_indices(s.symbols(), n, x_name) for s in x_states]
        padded, present = padded_stacks(
            [(s.stack, _symbol_indices(s.symbols(), n, y_name)) for s in y_states], 1 << n)
        owner = np.repeat(np.arange(len(at)), [len(x) for x in xs])
        images = np.concatenate([table[x] for table, x in zip(tables, xs)], dtype=np.intp)
        # A pair heavier than the budget has its (pair, x) rows relabelled in slices.
        step = max(1, PAIR_BUDGET // padded[0].size)
        parts = [relabelled_stacks(padded[owner[lo:lo + step]], present[owner[lo:lo + step]],
                                   images[lo:lo + step], 1 << m)
                 for lo in range(0, len(owner), step)]
        sums, occupied = (np.concatenate(column) for column in zip(*parts))
        rows, zs = np.nonzero(occupied)
        if flag is None:
            pieces = tensor(np.concatenate([s.stack for s in x_states])[rows], sums[rows, zs])
            blocks, filled = relabelled_stacks(pieces[None], np.ones((1, len(rows)), dtype=bool),
                                               (owner[rows] << m)[None] + zs, len(at) << m)
            deltas[list(at)] = weak_distances(blocks.reshape((len(at), 1 << m) + pieces.shape[1:]),
                                              filled.reshape(len(at), 1 << m))
            continue
        terms = _distance_terms(sums[rows, zs], rows, zs, occupied.shape, 1 << m)
        # Each pair's per-x distances in x slots, zero elsewhere, added in slot order.
        per_x = np.zeros((len(at), 1 << n))
        probs = np.concatenate([_traces(s.stack) for s in x_states])
        per_x[owner, np.concatenate(xs)] = probs * (0.5 * _block_sum(terms, axis=1))
        deltas[list(at)] = _block_sum(per_x, axis=1)
    return deltas


def flat_grid_distances(table: np.ndarray, m: int, side_labels: np.ndarray,
                        strong_in: str) -> np.ndarray:
    """Strong distance to uniform of every pair of prefix-flat sources, by counting.

    Source i is uniform on the inputs below 2^k_i, and input x carries the
    classical side symbol ``side_labels[x]`` (all 0 for a trivial side
    register).  Entry [k1, k2] of the returned (n+1, n+1) array is the strong
    distance of that pair (:func:`product_distances`), as the exact dyadic
    rational g / 2^(k1+k2+m+1) with
    g = Σ_{x1 < 2^k1} Σ_{z,c} |2^m·N(x1, z, c) − N(c)|, where N(x1, z, c)
    counts the x2 < 2^k2 with table[x1, x2] = z and side symbol c, and N(c)
    counts the x2 < 2^k2 with side symbol c.  For ``strong_in="x2"`` the
    roles of the sources swap.  For each k2 the counts grow by bincounts
    over the new inputs [2^(k2−1), 2^k2), at most 2^m·d columns of the table
    at a time, so besides the table the working memory is O(2^n·2^m·d).
    """
    if _strong_flag(strong_in) is None:
        raise ValueError("flat_grid_distances needs strong_in 'x1' or 'x2', not None")
    if strong_in == "x2":
        return flat_grid_distances(table.T, m, side_labels, "x1").T
    size = len(side_labels)
    n = size.bit_length() - 1
    if table.shape != (size, size) or size != 1 << n:
        raise ValueError(f"table of shape {table.shape} does not match "
                         f"{size} side labels, a power of two")
    if table.min() < 0 or table.max() >= 1 << m:
        raise ValueError(f"table entries must be {m}-bit output indices")
    d = int(side_labels.max()) + 1
    # 2^m·d counts per x1, and as many table columns per bincount, so no
    # temporary outgrows the counts.
    step = d << m
    rows = np.arange(size)[:, None] * step      # count index of (x1, z=0, c=0)
    counts = np.zeros(size * step, dtype=np.int64)
    side_counts = np.zeros(d, dtype=np.int64)
    f = np.empty((n + 1, size), dtype=np.int64)     # f[k2, x1]
    for k2 in range(n + 1):
        for lo in range((1 << k2) >> 1, 1 << k2, step):
            cols = slice(lo, min(lo + step, 1 << k2))
            # Widened first: a uint8 table wraps at table·d for m = 8.
            block = rows + table[:, cols].astype(np.intp) * d + side_labels[cols]
            counts += np.bincount(block.ravel(), minlength=counts.size)
            side_counts += np.bincount(side_labels[cols], minlength=d)
        f[k2] = np.abs((counts.reshape(size, 1 << m, d) << m) - side_counts).sum(axis=(1, 2))
    ks = np.arange(n + 1)
    g = np.cumsum(f, axis=1)[:, (1 << ks) - 1].T    # g[k1, k2]
    return g / np.exp2(ks[:, None] + ks + m + 1)
