"""Classical-quantum states as block-diagonal collections of operators.

A cq-state is stored as a map from classical symbols to subnormalized PSD
conditional operators on the quantum side register.  Operations work on
the blocks, either one by one or as one (N, d, d) stack; a state is never
materialized as one dense matrix except through :func:`to_dense`, which
exists for cross-checks (the dense and blockwise routes must agree) and
for conditional-mutual-information evaluation of Markov block states.

Symbols are hashable tuples: bit tuples for plain registers, nested
tuples such as ``(z_bits, x_bits)`` for composite classical registers.
Deterministic iteration uses sorted symbol order throughout so results
are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gf2 import all_bit_vectors, bits_to_index
from .operators import _hermitian_deviation, _not_psd, hermitian_trace_norms, tensor

TRACE_ATOL = 1e-9


@dataclass(frozen=True)
class CqState:
    """Map symbol -> subnormalized conditional operator rho_{B and x}."""

    side_dim: int
    blocks: dict = field(repr=False)

    def symbols(self):
        return sorted(self.blocks)

    def probabilities(self) -> dict:
        return {sym: float(np.trace(b).real) for sym, b in sorted(self.blocks.items())}

    def total_trace(self) -> float:
        return float(sum(np.trace(b).real for b in self.blocks.values()))


def _block_stack(state: CqState, symbols=None) -> np.ndarray:
    """The blocks of ``symbols`` (default: sorted symbols) as one (N, d, d) array."""
    if symbols is None:
        symbols = state.symbols()
    if not symbols:
        return np.zeros((0, state.side_dim, state.side_dim), dtype=complex)
    return np.array([state.blocks[s] for s in symbols], dtype=complex)


def _traces(stack: np.ndarray) -> np.ndarray:
    """Real trace of each operator in a stack."""
    return np.trace(stack, axis1=-2, axis2=-1).real


def validate_cq(state: CqState, atol: float = TRACE_ATOL) -> CqState:
    """Check every block (finite, Hermitian, PSD, side_dim square) and the unit trace."""
    d = state.side_dim
    symbols = list(state.blocks)
    for sym in symbols:
        if np.shape(state.blocks[sym]) != (d, d):
            raise ValueError(f"block for {sym} has shape {np.shape(state.blocks[sym])}, "
                             f"expected side_dim {d}")
    stack = _block_stack(state, symbols)
    finite = np.isfinite(stack).all(axis=(-2, -1))
    for sym, ok, dev in zip(symbols, finite, _hermitian_deviation(stack)):
        if not ok:
            raise ValueError(f"block for {sym} has non-finite entries")
        if dev > 1e-9:
            raise ValueError(f"block for {sym} is not Hermitian (max deviation {dev:.3e})")
    for sym, w in zip(symbols, np.linalg.eigvalsh(stack)):
        if _not_psd(w):
            raise ValueError(f"conditional operator for {sym} is not PSD (min eig {w[0]:.3e})")
    total = 0.0
    for trace in _traces(stack).tolist():
        total += trace
    if abs(total - 1.0) > atol:
        raise ValueError(f"cq-state trace {total} != 1")
    return state


def build_cq(dist: dict, cond_states: dict, side_dim: int | None = None) -> CqState:
    """Assemble a cq-state from a distribution and normalized conditionals."""
    total = float(sum(dist.values()))
    if abs(total - 1.0) > TRACE_ATOL:
        raise ValueError(f"distribution sums to {total}, not 1")
    if any(p < -1e-12 for p in dist.values()):
        raise ValueError("negative probability in distribution")
    blocks = {}
    dim = side_dim
    for sym, p in dist.items():
        if p <= 0:
            continue
        cond = np.asarray(cond_states[sym], dtype=complex)
        if dim is None:
            dim = cond.shape[0]
        if cond.shape != (dim, dim):
            raise ValueError(f"conditional for {sym} has shape {cond.shape}")
        if abs(np.trace(cond).real - 1.0) > TRACE_ATOL:
            raise ValueError(f"conditional state for {sym} is not normalized")
        blocks[sym] = p * cond
    if dim is None:
        raise ValueError("empty distribution")
    return validate_cq(CqState(side_dim=dim, blocks=blocks))


def classical_state(dist: dict) -> CqState:
    """Source with trivial (one-dimensional) side register."""
    one = np.ones((1, 1), dtype=complex)
    return build_cq(dist, {sym: one for sym in dist}, side_dim=1)


def marginal_side(state: CqState) -> np.ndarray:
    out = np.zeros((state.side_dim, state.side_dim), dtype=complex)
    for sym in state.symbols():
        out += state.blocks[sym]
    return out


def apply_classical_function(state: CqState, f) -> CqState:
    """Push the classical register through f, summing merged blocks."""
    blocks: dict = {}
    for sym in state.symbols():
        out_sym = f(sym)
        if out_sym in blocks:
            blocks[out_sym] = blocks[out_sym] + state.blocks[sym]
        else:
            blocks[out_sym] = state.blocks[sym].copy()
    return CqState(side_dim=state.side_dim, blocks=blocks)


def product(s1: CqState, s2: CqState) -> CqState:
    """Independent pair: alphabet of pairs, side register C1 (x) C2."""
    blocks = {}
    for a in s1.symbols():
        for b in s2.symbols():
            blocks[(a, b)] = tensor(s1.blocks[a], s2.blocks[b])
    return CqState(side_dim=s1.side_dim * s2.side_dim, blocks=blocks)


@dataclass(frozen=True)
class MarkovScenario:
    """Mixture of product blocks: weights P_Z(z) and per-block factors."""

    weights: tuple
    factors: tuple   # tuple of (CqState, CqState) pairs

    def __post_init__(self):
        if len(self.weights) != len(self.factors) or not self.weights:
            raise ValueError("weights and factor pairs must align and be nonempty")
        if any(w < -1e-12 for w in self.weights):
            raise ValueError("negative block weight")
        if abs(sum(self.weights) - 1.0) > TRACE_ATOL:
            raise ValueError("block weights must sum to 1")


def markov_block_state(scenario: MarkovScenario) -> CqState:
    """Embed the block mixture as one cq-state on the pair alphabet.

    The side register is the direct sum over blocks of C1^z (x) C2^z,
    realized with explicit offsets; block z of weight w contributes
    w * rho^z_{C1 and x1} (x) rho^z_{C2 and x2} in its diagonal slot.
    By construction I(X1:X2|C) = 0 for the embedded state.
    """
    dims = [(s1.side_dim, s2.side_dim) for s1, s2 in scenario.factors]
    side_dim = sum(d1 * d2 for d1, d2 in dims)
    offsets = np.cumsum([0] + [d1 * d2 for d1, d2 in dims])
    alpha1 = sorted({a for s1, _ in scenario.factors for a in s1.blocks})
    alpha2 = sorted({b for _, s2 in scenario.factors for b in s2.blocks})
    blocks = {}
    for a in alpha1:
        for b in alpha2:
            acc = np.zeros((side_dim, side_dim), dtype=complex)
            nonzero = False
            for z, (w, (s1, s2)) in enumerate(zip(scenario.weights, scenario.factors)):
                if w <= 0 or a not in s1.blocks or b not in s2.blocks:
                    continue
                lo, hi = offsets[z], offsets[z + 1]
                acc[lo:hi, lo:hi] = w * tensor(s1.blocks[a], s2.blocks[b])
                nonzero = True
            if nonzero:
                blocks[(a, b)] = acc
    return CqState(side_dim=side_dim, blocks=blocks)


def _strong_flag(strong_in) -> str | None:
    if strong_in in (None, "none", "NONE", "None"):
        return None
    flag = str(strong_in).lower()
    if flag not in ("x1", "x2"):
        raise ValueError(f"strong_in must be None, 'x1' or 'x2', got {strong_in!r}")
    return flag


def _symbol_indices(symbols, n: int, which: str) -> np.ndarray:
    """Table index of each n-bit symbol; ValueError for any other symbol."""
    for sym in symbols:
        if not isinstance(sym, tuple) or len(sym) != n or any(b not in (0, 1) for b in sym):
            raise ValueError(f"{which} alphabet symbol {sym!r} is not an {n}-bit string")
    return np.array([bits_to_index(sym) for sym in symbols], dtype=np.int64)


def _grouped(stack: np.ndarray, outputs: np.ndarray, n_out: int):
    """Per row r of ``outputs``: the sum of stack[c] over the columns c with output z.

    Returns the (R, n_out, d, d) sums and the (R, n_out) mask of outputs that
    occur.  The scatter-add runs over columns in order, onto zeros, so each
    sum adds its blocks one at a time in sorted-symbol order.
    """
    rows, cols = np.indices(outputs.shape).reshape(2, -1)
    sums = np.zeros((outputs.shape[0], n_out) + stack.shape[1:], dtype=complex)
    np.add.at(sums, (rows, outputs.ravel()), stack[cols])
    present = np.zeros((outputs.shape[0], n_out), dtype=bool)
    present[rows, outputs.ravel()] = True
    return sums, present


def _kron_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a[k], b[k]) for every k, as one broadcast product."""
    k, p, q = a.shape[0], a.shape[1] * b.shape[1], a.shape[2] * b.shape[2]
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(k, p, q)


def extractor_output_state(ext, s1: CqState, s2: CqState, strong_in=None) -> CqState:
    """State of (Ext(X1, X2), [X_i copy], C1 C2) for independent sources.

    The classical register is the output z for a weak evaluation, or the
    pair (z, x_i) when strong_in names a source; the side register is
    always C1 (x) C2.  Outputs come from ``ext.table``; the blocks of one
    source are summed per (other source's symbol, z) before tensoring, so
    the full joint operator is never built.
    """
    flag = _strong_flag(strong_in)
    sym1, sym2 = s1.symbols(), s2.symbols()
    outputs = ext.table[np.ix_(_symbol_indices(sym1, ext.n1, "source 1"),
                               _symbol_indices(sym2, ext.n2, "source 2"))]
    z_bits = all_bit_vectors(ext.m)
    n_out = len(z_bits)
    b1, b2 = _block_stack(s1, sym1), _block_stack(s2, sym2)
    side_dim = s1.side_dim * s2.side_dim
    if flag == "x2":
        sums, present = _grouped(b1, outputs.T, n_out)
        rows, zs = np.nonzero(present)
        pieces, copied = _kron_stack(sums[rows, zs], b2[rows]), sym2
    else:
        sums, present = _grouped(b2, outputs, n_out)
        rows, zs = np.nonzero(present)
        pieces, copied = _kron_stack(b1[rows], sums[rows, zs]), sym1
    if flag is None:
        # Weak output: add the pieces of each z over x1, in sorted order.
        weak = np.zeros((n_out, side_dim, side_dim), dtype=complex)
        np.add.at(weak, zs, pieces)
        return CqState(side_dim=side_dim,
                       blocks={z_bits[z]: weak[z] for z in np.unique(zs).tolist()})
    keys = [(z_bits[z], copied[r]) for r, z in zip(rows.tolist(), zs.tolist())]
    return CqState(side_dim=side_dim, blocks=dict(zip(keys, pieces)))


def extractor_output_from_joint(ext, joint: CqState, strong_in=None) -> CqState:
    """Same as :func:`extractor_output_state` for a joint (x1, x2) state.

    Used for Markov block states, whose side register does not factorize.
    """
    flag = _strong_flag(strong_in)
    symbols = joint.symbols()
    for sym in symbols:
        if not (isinstance(sym, tuple) and len(sym) == 2):
            raise ValueError(f"joint alphabet symbol {sym!r} is not an (x1, x2) pair")
    i1 = _symbol_indices([sym[0] for sym in symbols], ext.n1, "source 1")
    i2 = _symbol_indices([sym[1] for sym in symbols], ext.n2, "source 2")
    z_bits = all_bit_vectors(ext.m)
    rest = i1 if flag == "x1" else i2 if flag == "x2" else 0
    keys, first, groups = np.unique(rest * len(z_bits) + ext.table[i1, i2],
                                    return_index=True, return_inverse=True)
    sums = np.zeros((len(keys), joint.side_dim, joint.side_dim), dtype=complex)
    np.add.at(sums, groups, _block_stack(joint, symbols))
    names = []
    for key, k in zip(keys.tolist(), first.tolist()):
        z = z_bits[key % len(z_bits)]
        names.append(z if flag is None else (z, symbols[k][0 if flag == "x1" else 1]))
    return CqState(side_dim=joint.side_dim, blocks=dict(zip(names, sums)))


def distance_to_uniform(state: CqState, uniform_dim: int, strong: bool = False) -> float:
    """Exact trace distance to (uniform output) (x) (rest of the state).

    For a weak output state (symbols are z themselves) this is
    delta(rho_{ZC}, omega (x) rho_C).  For a strong state (symbols are
    (z, x_i) pairs) the distance decomposes as the expectation over x_i
    of the per-x_i distances; both cases reduce to one blockwise sum,
    including output symbols of weight zero that the alphabet omits.
    Every trace norm comes from one stacked eigvalsh.
    """
    groups: dict = {}
    for sym in state.blocks:
        if strong:
            if not (isinstance(sym, tuple) and len(sym) == 2):
                raise ValueError(f"strong output symbols must be (z, x) pairs, got {sym!r}")
            z, rest = sym
        else:
            z, rest = sym, None
        groups.setdefault(rest, {})[z] = sym
    order, sizes = [], []
    for rest in sorted(groups, key=lambda r: (r is not None, r)):
        zmap = groups[rest]
        if len(zmap) > uniform_dim:
            raise ValueError(f"{len(zmap)} output symbols exceed uniform_dim={uniform_dim}")
        order.extend(zmap[z] for z in sorted(zmap))
        sizes.append(len(zmap))
    stack = _block_stack(state, order)
    group_of = np.repeat(np.arange(len(sizes)), sizes)
    targets = np.zeros((len(sizes),) + stack.shape[1:], dtype=complex)
    np.add.at(targets, group_of, stack)
    targets = targets / uniform_dim
    norms = hermitian_trace_norms(np.concatenate([targets, stack - targets[group_of]])).tolist()
    total = 0.0
    start = len(sizes)          # the block norms follow the target norms
    for target_norm, present in zip(norms, sizes):
        for norm in norms[start:start + present]:
            total += norm
        start += present
        total += (uniform_dim - present) * target_norm
    return 0.5 * total


def to_dense(state: CqState, symbols=None) -> np.ndarray:
    """Materialize sum_x |x><x| (x) rho_{B and x} over an explicit symbol order."""
    if symbols is None:
        symbols = state.symbols()
    d = state.side_dim
    n = len(symbols)
    out = np.zeros((n * d, n * d), dtype=complex)
    for i, sym in enumerate(symbols):
        block = state.blocks.get(sym)
        if block is not None:
            out[i * d : (i + 1) * d, i * d : (i + 1) * d] = block
    return out
