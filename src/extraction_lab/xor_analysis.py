"""Fourier analysis of matrix-valued functions and pretty good measurements.

Contains the machinery behind the single-bit reduction of multi-bit
output security: the character-sum Fourier transform with its Parseval
identity, the pretty good measurement and its channel, the Fourier-side
upper bound on the squared distance to uniform, and the measured-XOR
bound that compresses a multi-bit output state to its s-masked bits.

The pretty good measurement and both bounds are stacked kernels
(:func:`pgm_stacks`, :func:`fourier_bounds`, :func:`measured_xor_bounds`)
over states given as zero-padded (P, 2^m, d, d) stacks with a presence
mask (``cq_states.padded_stacks``), the block for output z at slot z; a
state's values do not depend on the batch it is in, so one state is a
batch of one.  :func:`measured_xor_bounds` forms its masked states
itself, the one relabelling outside ``cq_states.relabelled_stacks``: it
sums each mask's blocks in slot order onto zeros, the same additions in
the same order.  The conjugated 2-distance of the one-norm/two-norm check
is stacked the same way (:func:`l2_distances_to_uniform`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .cq_states import _block_sum, _traces
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


def fourier_bounds(stacks: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Fourier-side upper bound on delta(rho_ZE, omega (x) rho_E)^2 of P states with
    m-bit outputs, as a (P,) array.

    State i is the zero-padded (2^m, d, d) stack stacks[i], its block for
    output z at slot z and a zero block at an output it omits, and
    sigmas[i] its sigma.  Each bound is (2^m / 4) * sum_{s != 0} tr F[M](s)^2
    for the matrix-valued function M(z) = sigma^{-1/4} rho_{E and z}
    sigma^{-1/4}; the raw double sum over (z, z') is kept as a test oracle.
    The sigmas' powers come from one stacked eigh.  ValueError for a sigma
    that is not Hermitian or not PSD, and for one whose kernel meets its
    state.
    """
    slots = stacks.shape[1]
    quarter, leaks = _sigma_powers(sigmas, -0.25, stacks)
    if leaks.any():
        raise ValueError("sigma kernel is not contained in the state kernel")
    values = quarter[:, None] @ stacks @ quarter[:, None]
    nonzero = _character_transform(values)[:, 1:]
    return (slots / 4.0) * _block_sum(_traces(nonzero @ nonzero), axis=1)


def measured_xor_bounds(stacks: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Root-mean bound on delta(rho_ZE, omega (x) rho_E) via masked bits, of P states
    with m-bit outputs, as a (P,) array.

    State i is the zero-padded (2^m, d, d) stack stacks[i], its block for
    output z at slot z where present[i] holds.  For every state and nonzero
    mask s the blocks are summed, in slot order, into the two blocks of the
    bit s . z, and one :func:`pgm_stacks` call measures all P (2^m - 1)
    masked states, each on its own side register.  Each masked bit's
    classical distance from (uniform bit) (x) (measured marginal) adds its
    terms bit-major, one at a time; a bit that never occurs weighs 0, and an
    outcome that never occurs adds +0.0 terms, which change no bit.
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


def l2_distances_to_uniform(rhos, dim_a: int, sigmas) -> np.ndarray:
    """Conjugated squared 2-distance of each rho_AB of an (N, D, D) stack from
    omega_A (x) rho_B, as an (N,) array: the evaluator of the one-norm/two-norm checks.

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
