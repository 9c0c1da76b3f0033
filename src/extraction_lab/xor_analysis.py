"""Fourier analysis of matrix-valued functions and pretty good measurements.

Contains the machinery behind the single-bit reduction of multi-bit
output security: the character-sum Fourier transform with its Parseval
identity, the pretty good measurement and its channel, the Fourier-side
upper bound on the squared distance to uniform, and the measured-XOR
bound that compresses a multi-bit output state to its s-masked bits.

The pretty good measurement and both bounds are stacked kernels
(:func:`pgm_stacks`, :func:`fourier_bounds`, :func:`measured_xor_bounds`)
over states given as zero-padded (P, 2^m, d, d) stacks with a presence
mask; :func:`pgm`, :func:`squared_distance_fourier_bound` and
:func:`measured_xor_bound` are the same kernels on a batch of one, and a
state's values do not depend on the batch it is in.  The random-state
checks evaluate each group of their scenarios in one pass before their
first case, so that case carries the batch's time in its ``runtime_ms``:
``pgm-commutation`` measures each (n_bits, dim, out_bits) group before
and after relabelling by two :func:`pgm_stacks` calls, relabelled by
``cq_states.relabelled_stacks``.  :func:`measured_xor_bounds` forms its
masked states itself, the one relabelling outside that kernel: it sums
each mask's blocks in slot order onto zeros, the same additions in the
same order.  The conjugated 2-distance of the one-norm/two-norm check
is stacked the same way: :func:`l2_distance_to_uniform` is
:func:`l2_distances_to_uniform` of a batch of one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .cq_states import CqState, _block_sum, _traces, padded_stacks
from .gf2 import _symbol_indices
from .operators import (
    COMPLETENESS_ATOL,
    _herm,
    _psd_eigh,
    _sigma_powers,
    _spectral_power,
    partial_trace,
    tensor,
)

MAX_FOURIER_BITS = 12


@dataclass(frozen=True)
class MatrixValuedFunction:
    """All 2^m values of a map from m-bit strings to d x d matrices.

    Built as ``MatrixValuedFunction(values)``, values[i] the value at the
    m-bit string of big-endian index i; m and d are read off the shape,
    which must be (2^m, d, d) (ValueError otherwise).
    """

    m: int = field(init=False)
    d: int = field(init=False)
    values: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.values)
        if len(shape) != 3 or shape[0] & (shape[0] - 1) or 0 in shape or shape[1] != shape[2]:
            raise ValueError(f"values must have shape (2^m, d, d), got {shape}")
        object.__setattr__(self, "m", shape[0].bit_length() - 1)
        object.__setattr__(self, "d", shape[1])


@functools.lru_cache(maxsize=None)
def character_matrix(m: int) -> np.ndarray:
    """Sylvester matrix H[a, z] = (-1)^(a . z) of size 2^m."""
    if m > MAX_FOURIER_BITS:
        raise ValueError(f"transform capped at m <= {MAX_FOURIER_BITS}")
    h = np.array([[1.0]])
    block = np.array([[1.0, 1.0], [1.0, -1.0]])
    for _ in range(m):
        h = np.kron(h, block)
    return h


def _character_transform(values: np.ndarray) -> np.ndarray:
    """alpha -> 2^(-m/2) sum_z (-1)^(alpha . z) values[..., z, :, :] over the 2^m values."""
    n, d = values.shape[-3], values.shape[-1]
    flat = values.reshape(values.shape[:-3] + (n, d * d))
    return ((character_matrix(n.bit_length() - 1) @ flat) / np.sqrt(n)).reshape(values.shape)


def mvf_fourier(mvf: MatrixValuedFunction) -> MatrixValuedFunction:
    """Transform alpha -> 2^(-m/2) sum_z (-1)^(alpha . z) M(z); self-inverse."""
    return MatrixValuedFunction(_character_transform(mvf.values))


def mvf_l2_norm(mvf: MatrixValuedFunction) -> float:
    """sqrt(tr sum_z M(z)^dagger M(z)), the Frobenius mass of all values."""
    return float(np.sqrt(np.sum(np.abs(mvf.values) ** 2)))


def pgm_stacks(stacks: np.ndarray, present: np.ndarray) -> np.ndarray:
    """The elements of the pretty good measurement of each of K cq-states, (K, S, d, d).

    State k is the zero-padded stack stacks[k] with a block at each slot
    where present[k] holds (:func:`padded_stacks`); its elements are
    rho_B^{-1/2} rho_{B and x} rho_B^{-1/2}, one per present slot and zero
    at an empty one (whose zero block adds nothing to any sum), from one
    stacked eigh of the K marginals.  A state's
    completeness deficit, on ker(rho_B) (never occupied by the state) plus
    rounding, goes to its first present outcome when an entry exceeds
    COMPLETENESS_ATOL.
    """
    w, v = _psd_eigh(_block_sum(stacks, axis=1))
    inv_sqrt = _spectral_power(w, v, -0.5)[:, None]
    elements = inv_sqrt @ stacks @ inv_sqrt
    deficit = np.eye(stacks.shape[-1], dtype=complex) - _block_sum(elements, axis=1)
    short = np.flatnonzero(np.max(np.abs(deficit), axis=(-2, -1)) > COMPLETENESS_ATOL)
    elements[short, np.argmax(present[short], axis=1)] += deficit[short]
    return _herm(elements)


def pgm(state: CqState) -> CqState:
    """Pretty good measurement: rho_B^{-1/2} rho_{B and x} rho_B^{-1/2}.

    A POVM is a cq-state whose symbols are its outcomes and whose blocks
    are its elements.  The completeness deficit, on ker(rho_B) (never
    occupied by the state) plus rounding, goes to the first outcome when an
    entry exceeds COMPLETENESS_ATOL: the result is a POVM on the full space.
    This is :func:`pgm_stacks` of a batch of one.
    """
    elements = pgm_stacks(state.stack[None], np.ones((1, len(state.stack)), dtype=bool))[0]
    return CqState._from_stack(state.symbols(), elements)


def fourier_bounds(stacks: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """:func:`squared_distance_fourier_bound` of P states with m-bit outputs, as a (P,) array.

    State i is the zero-padded (2^m, d, d) stack stacks[i], its block for
    output z at slot z (:func:`output_slots`) and a zero block at an output
    it omits, and sigmas[i] its sigma.  The sigmas' powers come from one
    stacked eigh.
    ValueError, as for one state, for a sigma that is not Hermitian or not
    PSD, and for one whose kernel meets its state.
    """
    slots = stacks.shape[1]
    quarter, leaks = _sigma_powers(sigmas, -0.25, stacks)
    if leaks.any():
        raise ValueError("sigma kernel is not contained in the state kernel")
    values = quarter[:, None] @ stacks @ quarter[:, None]
    nonzero = _character_transform(values)[:, 1:]
    return (slots / 4.0) * _block_sum(_traces(nonzero @ nonzero), axis=1)


def squared_distance_fourier_bound(state: CqState, sigma) -> float:
    """Fourier-side upper bound on delta(rho_ZE, omega (x) rho_E)^2.

    Equals (2^m / 4) * sum_{s != 0} tr F[M](s)^2 for the matrix-valued
    function M(z) = sigma^{-1/4} rho_{E and z} sigma^{-1/4}; the raw
    double sum over (z, z') is kept as a test oracle.  A non-bit output
    symbol such as (2,) raises ValueError naming it, and so does a sigma
    whose kernel meets the state.  This is :func:`fourier_bounds` of a
    batch of one.
    """
    stacks, _ = _batch_of_one(state)
    return float(fourier_bounds(stacks, np.asarray(sigma, dtype=complex)[None])[0])


def measured_xor_bounds(stacks: np.ndarray, present: np.ndarray) -> np.ndarray:
    """:func:`measured_xor_bound` of P states with m-bit outputs, as a (P,) array.

    State i is the zero-padded (2^m, d, d) stack stacks[i], its block for
    output z at slot z (:func:`output_slots`) where present[i] holds.  For
    every state and nonzero mask s the blocks are summed, in slot order,
    into the two blocks of the bit s . z, and one :func:`pgm_stacks` call
    measures all P (2^m - 1) masked states.  Each masked bit's distance
    from (uniform bit) (x) (measured marginal) adds its terms bit-major,
    one at a time; a bit that never occurs weighs 0, and an outcome that
    never occurs adds +0.0 terms, which change no bit.
    """
    count, slots, _, d = stacks.shape
    rho_e = _block_sum(stacks, axis=1)
    masks = np.arange(1, slots)
    masked = np.zeros((count, len(masks), 2, d, d), dtype=complex)
    occurs = np.zeros((count, len(masks), 2), dtype=bool)
    for z in range(slots):
        at = (slice(None), masks - 1, np.bitwise_count(masks & z) & 1)    # (mask s, bit s . z)
        masked[at] += stacks[:, z, None]
        occurs[at] |= present[:, z, None]
    shape = (count * len(masks), 2, d, d)
    elements = pgm_stacks(masked.reshape(shape), occurs.reshape(shape[:2])).reshape(masked.shape)
    joint = _traces(elements[:, :, None] @ masked[:, :, :, None])      # [.., bit, outcome]
    marginal = _traces(elements @ rho_e[:, None, None])                 # [.., outcome]
    terms = np.abs(joint - 0.5 * marginal[:, :, None]).reshape(count, len(masks), 4)
    return np.sqrt(0.5 * _block_sum(0.5 * _block_sum(terms, axis=2), axis=1))


def measured_xor_bound(state: CqState) -> float:
    """Root-mean bound on delta(rho_ZE, omega (x) rho_E) via masked bits.

    For each nonzero mask s the m-bit state is compressed to the bit
    s . z, the pretty good measurement of the compressed state is applied
    to its own side register, and the resulting classical-classical
    distance from (uniform bit) (x) (measured marginal) is accumulated.
    A non-bit output symbol such as (2,) raises ValueError naming it.
    This is :func:`measured_xor_bounds` of a batch of one.
    """
    return float(measured_xor_bounds(*_batch_of_one(state))[0])


def output_slots(state: CqState) -> np.ndarray:
    """The slot of each block of a state with m-bit outputs: the index of its symbol.

    ValueError unless the symbols are bit tuples of one length m <= MAX_FOURIER_BITS,
    naming a symbol that is not an m-bit string.
    """
    lengths = {len(sym) for sym in state.symbols()}
    if len(lengths) != 1:
        raise ValueError("state symbols must all be bit tuples of one length")
    (m,) = lengths
    if m > MAX_FOURIER_BITS:
        raise ValueError(f"output length {m} exceeds cap {MAX_FOURIER_BITS}")
    return _symbol_indices(state.symbols(), m, "output")


def _batch_of_one(state: CqState):
    """The padded (1, 2^m, d, d) stack and mask of one state with m-bit outputs."""
    slots = output_slots(state)
    return padded_stacks([(state.stack, slots)], 1 << len(state.symbols()[0]))


def l2_distances_to_uniform(rhos, dim_a: int, sigmas) -> np.ndarray:
    """:func:`l2_distance_to_uniform` of each rho_AB of an (N, D, D) stack, as an (N,) array.

    rhos[i] is weighed by sigma_B = sigmas[i], one of an (N, d_B, d_B)
    stack whose powers come from one stacked eigh.  ValueError for a rho
    that is not finite or not Hermitian, for a sigma that is not Hermitian
    or not PSD, and when the kernel of a sigma_B meets its rho_B.
    """
    rhos, sigmas = np.asarray(rhos, dtype=complex), np.asarray(sigmas, dtype=complex)
    # partial_trace refuses a stack that is not finite and Hermitian (hermitian_stack).
    rho_b = partial_trace(rhos, (dim_a, sigmas.shape[-1]), keep=(1,))
    quarter, leaks = _sigma_powers(sigmas, -0.25, rho_b[:, None])
    if leaks.any():
        raise ValueError("sigma_B kernel is not contained in the kernel of rho_B")
    centered = rhos - tensor(np.eye(dim_a) / dim_a, rho_b)
    weight = tensor(np.eye(dim_a), quarter)
    conj = weight @ centered @ weight
    return _traces(conj @ conj)


def l2_distance_to_uniform(rho_ab, dim_a: int, sigma_b) -> float:
    """Conjugated squared 2-distance of rho_AB from omega_A (x) rho_B.

    Internal evaluator for the one-norm/two-norm inequality checks; not
    part of the supported API surface.  ValueError when ker sigma_B meets rho_B.
    This is :func:`l2_distances_to_uniform` of a batch of one.
    """
    return float(l2_distances_to_uniform(np.asarray(rho_ab, dtype=complex)[None], dim_a,
                                         np.asarray(sigma_b, dtype=complex)[None])[0])
