"""Fourier analysis of matrix-valued functions and pretty good measurements.

Contains the machinery behind the single-bit reduction of multi-bit
output security: the character-sum Fourier transform with its Parseval
identity, the pretty good measurement and its channel, the Fourier-side
upper bound on the squared distance to uniform, and the measured-XOR
bound that compresses a multi-bit output state to its s-masked bits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .cq_states import CqState, _block_sum, _traces, apply_classical_function, marginal_side
from .extractors import ip_eval
from .gf2 import _symbol_indices, index_to_bits
from .operators import (
    COMPLETENESS_ATOL,
    _herm,
    _sigma_power,
    check_hermitian,
    op_power,
    partial_trace,
    tensor,
)

MAX_FOURIER_BITS = 12


@dataclass(frozen=True)
class MatrixValuedFunction:
    """All 2^m values of a map from m-bit strings to d x d matrices."""

    m: int
    d: int
    values: np.ndarray   # shape (2^m, d, d), indexed by big-endian bit index

    def __post_init__(self):
        expected = (1 << self.m, self.d, self.d)
        if self.values.shape != expected:
            raise ValueError(f"values must have shape {expected}, got {self.values.shape}")


def mvf_from_blocks(m: int, symbols, stack: np.ndarray) -> MatrixValuedFunction:
    """Matrix-valued function with value stack[i] at m-bit symbols[i] (zeros elsewhere).

    A symbol that is not an m-bit string raises ValueError naming it.
    """
    d = stack.shape[-1]
    vals = np.zeros((1 << m, d, d), dtype=complex)
    vals[_symbol_indices(symbols, m, "output")] = stack
    return MatrixValuedFunction(m=m, d=d, values=vals)


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


def mvf_fourier(mvf: MatrixValuedFunction) -> MatrixValuedFunction:
    """Transform alpha -> 2^(-m/2) sum_z (-1)^(alpha . z) M(z); self-inverse."""
    h = character_matrix(mvf.m)
    n = 1 << mvf.m
    flat = mvf.values.reshape(n, mvf.d * mvf.d)
    out = (h @ flat) / np.sqrt(n)
    return MatrixValuedFunction(m=mvf.m, d=mvf.d, values=out.reshape(n, mvf.d, mvf.d))


def mvf_l2_norm(mvf: MatrixValuedFunction) -> float:
    """sqrt(tr sum_z M(z)^dagger M(z)), the Frobenius mass of all values."""
    return float(np.sqrt(np.sum(np.abs(mvf.values) ** 2)))


def pgm(state: CqState) -> CqState:
    """Pretty good measurement: rho_B^{-1/2} rho_{B and x} rho_B^{-1/2}.

    A POVM is a cq-state whose symbols are its outcomes and whose blocks
    are its elements.  The completeness deficit, on ker(rho_B) (never
    occupied by the state) plus rounding, goes to the first outcome when an
    entry exceeds COMPLETENESS_ATOL: the result is a POVM on the full space.
    """
    inv_sqrt = op_power(marginal_side(state), -0.5)
    elements = inv_sqrt @ state.stack @ inv_sqrt
    deficit = np.eye(state.side_dim, dtype=complex) - _block_sum(elements)
    if np.max(np.abs(deficit)) > COMPLETENESS_ATOL:
        elements[0] += deficit
    return CqState._from_stack(state.side_dim, state.symbols(), _herm(elements))


def outcome_weights(povm: CqState, ops) -> np.ndarray:
    """tr(Lambda_o op) for each operator op in ``ops`` (leading axes) and outcome o (last axis)."""
    if ops.shape[-1] != povm.side_dim:
        raise ValueError("POVM dimension does not match the side register")
    return _traces(povm.stack @ ops[..., None, :, :])


def squared_distance_fourier_bound(state: CqState, sigma) -> float:
    """Fourier-side upper bound on delta(rho_ZE, omega (x) rho_E)^2.

    Equals (2^m / 4) * sum_{s != 0} tr F[M](s)^2 for the matrix-valued
    function M(z) = sigma^{-1/4} rho_{E and z} sigma^{-1/4}; the raw
    double sum over (z, z') is kept as a test oracle.  A non-bit output
    symbol such as (2,) raises ValueError naming it, and so does a sigma
    whose kernel meets the state.
    """
    m = _output_bits(state)
    quarter = _sigma_power(sigma, -0.25, state.stack)
    if quarter is None:
        raise ValueError("sigma kernel is not contained in the state kernel")
    fourier = mvf_fourier(mvf_from_blocks(m, state.symbols(), quarter @ state.stack @ quarter))
    nonzero = fourier.values[1:]
    return ((1 << m) / 4.0) * float(_block_sum(_traces(nonzero @ nonzero)))


def measured_xor_bound(state: CqState) -> float:
    """Root-mean bound on delta(rho_ZE, omega (x) rho_E) via masked bits.

    For each nonzero mask s the m-bit state is compressed to the bit
    s . z, the pretty good measurement of the compressed state is applied
    to its own side register, and the resulting classical-classical
    distance from (uniform bit) (x) (measured marginal) is accumulated.
    A non-bit output symbol such as (2,) raises ValueError naming it.
    """
    m = _output_bits(state)
    rho_e = marginal_side(state)
    acc = 0.0
    for idx in range(1, 1 << m):
        s = index_to_bits(idx, m)
        masked = apply_classical_function(
            state, lambda z, s=s: (ip_eval(s, z),))
        povm = pgm(masked)
        joint = np.zeros((2, len(povm.symbols())))      # a bit that never occurs weighs 0
        joint[[bit for (bit,) in povm.symbols()]] = outcome_weights(povm, masked.stack)
        terms = np.abs(joint - 0.5 * outcome_weights(povm, rho_e))
        acc += 0.5 * float(_block_sum(terms.ravel()))   # bit-major, one term at a time
    return float(np.sqrt(0.5 * acc))


def _output_bits(state: CqState) -> int:
    lengths = {len(sym) for sym in state.symbols()}
    if len(lengths) != 1:
        raise ValueError("state symbols must all be bit tuples of one length")
    (m,) = lengths
    if m > MAX_FOURIER_BITS:
        raise ValueError(f"output length {m} exceeds cap {MAX_FOURIER_BITS}")
    _symbol_indices(state.symbols(), m, "output")
    return m


def l2_distance_to_uniform(rho_ab, dim_a: int, sigma_b) -> float:
    """Conjugated squared 2-distance of rho_AB from omega_A (x) rho_B.

    Internal evaluator for the one-norm/two-norm inequality checks; not
    part of the supported API surface.  ValueError when ker sigma_B meets rho_B.
    """
    rho = check_hermitian(rho_ab)
    rho_b = partial_trace(rho, (dim_a, np.shape(sigma_b)[0]), keep=(1,))
    quarter = _sigma_power(sigma_b, -0.25, rho_b[None])
    if quarter is None:
        raise ValueError("sigma_B kernel is not contained in the kernel of rho_B")
    centered = rho - tensor(np.eye(dim_a) / dim_a, rho_b)
    weight = tensor(np.eye(dim_a), quarter)
    conj = weight @ centered @ weight
    return float(np.trace(conj @ conj).real)
