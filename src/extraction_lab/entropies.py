"""Min-entropy and collision entropy, relative and optimized, base 2.

The relative quantities H_min(rho|sigma) and H_2(rho|sigma) are exact
spectral evaluations.  The optimized quantities sup_sigma are computed by
deterministic solvers that only ever return *achieved* values: every
candidate sigma is an explicit density operator, so the reported entropy
is a sound lower bound on the true supremum regardless of convergence.

For H_min the solver iterates a discrimination-measurement fixed point
and extracts a feasible dual certificate (an operator dominating every
conditional block); the gap between the certificate and the primal
success probability bounds the distance to the true supremum and is
reported on the result.  Classical side information is handled by exact
closed forms.  Kernel violations return -inf, mirroring the definition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cq_states import CqState, _block_sum, _traces, marginal_side
from .operators import (
    _herm,
    _kernel_mask,
    _max_eig,
    _psd_eigh,
    _spectral_power,
    eigh,
    op_power,
    tensor,
)

NEG_INF = float("-inf")
KERNEL_LEAK_ATOL = 1e-9
DIAG_ATOL = 1e-12
SOLVER_SIDE_CAP = 16


def h_min_classical(dist: dict) -> float:
    """Min-entropy -log2 max_x P(x) of a classical distribution."""
    probs = list(dist.values())
    if not probs or any(p < -1e-12 for p in probs) or abs(sum(probs) - 1.0) > 1e-9:
        raise ValueError("not a probability distribution")
    return -float(np.log2(max(probs)))


def _kernel_projector(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    dead = v[:, _kernel_mask(w)]
    return dead @ dead.conj().T


def _kernel_leaks(blocks: np.ndarray, w: np.ndarray, v: np.ndarray) -> bool:
    """True when the kernel of the operator with eigenpairs (w, v) meets a block."""
    proj = _kernel_projector(w, v)
    return bool(np.any(_traces(proj @ blocks @ proj) > KERNEL_LEAK_ATOL))


def _h_min_rel_blocks(blocks: np.ndarray, sigma: np.ndarray) -> float:
    """H_min of the stacked blocks relative to sigma."""
    w, v = _psd_eigh(sigma)
    if _kernel_leaks(blocks, w, v):
        return NEG_INF
    inv_sqrt = _spectral_power(w, v, -0.5)
    tops = np.linalg.eigvalsh(_herm(inv_sqrt @ blocks @ inv_sqrt))[:, -1]
    return -float(np.log2(max(0.0, float(tops.max()))))


def _h2_rel_blocks(blocks: np.ndarray, total: float, w: np.ndarray, v: np.ndarray) -> float:
    """H_2 of the blocks relative to the PSD operator with eigenpairs (w, v)."""
    if _kernel_leaks(blocks, w, v):
        return NEG_INF
    quarter = _spectral_power(w, v, -0.25)
    conj = quarter @ blocks @ quarter
    return -float(np.log2(_block_sum(_traces(conj @ conj)) / total))


def h_min_rel(rho, sigma, dim_a: int | None = None) -> float:
    """H_min of rho relative to sigma; -inf when ker(sigma) leaks into rho.

    ``rho`` is a CqState (evaluated on its stacked blocks) or a dense
    bipartite operator, in which case ``dim_a`` gives the classical/first
    dimension.
    """
    sig = np.asarray(sigma, dtype=complex)
    if isinstance(rho, CqState):
        return _h_min_rel_blocks(rho.stack, sig)
    if dim_a is None:
        raise ValueError("dense input requires dim_a")
    mat = np.asarray(rho, dtype=complex)
    big_proj = tensor(np.eye(dim_a), _kernel_projector(*eigh(sig)))
    if float(np.trace(big_proj @ mat @ big_proj).real) > KERNEL_LEAK_ATOL:
        return NEG_INF
    big_inv = tensor(np.eye(dim_a), op_power(sig, -0.5))
    return -float(np.log2(_max_eig(big_inv @ mat @ big_inv)))


def h2_rel(rho: CqState, sigma) -> float:
    """Collision entropy of a cq-state relative to sigma (blockwise form)."""
    w, v = _psd_eigh(np.asarray(sigma, dtype=complex))
    return _h2_rel_blocks(rho.stack, rho.total_trace(), w, v)


@dataclass(frozen=True)
class EntropyResult:
    value: float
    sigma: np.ndarray
    converged: bool
    gap: float
    iterations: int


def _is_classical(state: CqState) -> bool:
    off_diagonal = state.stack[:, ~np.eye(state.side_dim, dtype=bool)]
    return not np.any(np.abs(off_diagonal) > DIAG_ATOL)


def _classical_h_min(state: CqState) -> EntropyResult:
    per_b = np.diagonal(state.stack, axis1=-2, axis2=-1).real.max(axis=0)
    p_guess = float(per_b.sum())
    sigma = np.diag(per_b / p_guess).astype(complex)
    return EntropyResult(-float(np.log2(p_guess)), sigma, True, 0.0, 0)


def _classical_h2(state: CqState) -> EntropyResult:
    diags = np.diagonal(state.stack, axis1=-2, axis2=-1).real
    roots = np.sqrt((diags ** 2).sum(axis=0))
    z = float(roots.sum())
    sigma = np.diag(roots / z).astype(complex)
    return EntropyResult(-2.0 * float(np.log2(z)), sigma, True, 0.0, 0)


def _support_basis(rho_b: np.ndarray) -> np.ndarray:
    w, v = eigh(rho_b)
    thresh = 1e-12 * max(float(w[-1]), 0.0)
    return v[:, w > thresh]


def h_min_cond(state: CqState, iters: int = 500, tol: float = 1e-8) -> EntropyResult:
    """Conditional min-entropy sup_sigma H_min(rho|sigma).

    Exact for classical side registers; otherwise a measurement fixed
    point with a dual certificate.  ``result.gap`` bounds the shortfall
    to the true supremum in bits.
    """
    if state.side_dim > SOLVER_SIDE_CAP:
        raise ValueError(f"side_dim {state.side_dim} exceeds solver cap {SOLVER_SIDE_CAP}")
    if _is_classical(state):
        return _classical_h_min(state)
    return _h_min_solver(state, iters, tol)


def _h_min_solver(state: CqState, iters: int, tol: float) -> EntropyResult:
    rho_b = marginal_side(state)
    basis = _support_basis(rho_b)
    d = state.side_dim
    blocks = basis.conj().T @ state.stack @ basis
    n, k = blocks.shape[0], basis.shape[1]
    eye = np.eye(k, dtype=complex)
    povm = np.repeat(eye[None] / n, n, axis=0)

    best_ub = float("inf")
    best_y = eye.copy()
    best_pri = 0.0
    iterations = 0
    for it in range(iters):
        iterations = it + 1
        weighted = povm @ blocks
        y0 = _herm(_block_sum(weighted))
        mu = float(np.linalg.eigvalsh(_herm(blocks - y0))[:, -1].max())
        y = y0 + max(mu, 0.0) * eye
        ub = float(np.trace(y).real)
        pri = float(_block_sum(_traces(weighted)))
        best_pri = max(best_pri, pri)
        if ub < best_ub:
            best_ub, best_y = ub, y
        if best_ub - best_pri <= tol * max(best_ub, 1e-300):
            break
        g = _herm(_block_sum(blocks @ povm @ blocks))
        g_inv_sqrt = op_power(g, -0.5)
        povm = _herm(g_inv_sqrt @ blocks @ povm @ blocks @ g_inv_sqrt)

    sigma_y = basis @ (best_y / np.trace(best_y).real) @ basis.conj().T
    candidates = [sigma_y, rho_b, np.eye(d, dtype=complex) / d]
    scored = [(_h_min_rel_blocks(state.stack, s), s) for s in candidates]
    value, sigma = max(scored, key=lambda t: t[0])
    upper = -float(np.log2(best_pri)) if best_pri > 0 else float("inf")
    gap = max(upper - value, 0.0)
    return EntropyResult(value, sigma, gap <= 1e-6, gap, iterations)


def h2_cond(state: CqState, iters: int = 500, tol: float = 1e-8,
            hmin: EntropyResult | None = None) -> EntropyResult:
    """Conditional collision entropy sup_sigma H_2(rho|sigma).

    Exact for classical side registers; otherwise a stationarity fixed
    point on sigma with keep-best iterates and deterministic restarts.
    The min-entropy solver's sigma is included as a candidate so that
    h2_cond >= h_min_cond holds structurally.  A caller that already has
    ``h_min_cond(state, iters, tol)`` passes it as ``hmin`` and the
    min-entropy solver is not run again.
    """
    if state.side_dim > SOLVER_SIDE_CAP:
        raise ValueError(f"side_dim {state.side_dim} exceeds solver cap {SOLVER_SIDE_CAP}")
    if _is_classical(state):
        return _classical_h2(state)

    rho_b = marginal_side(state)
    basis = _support_basis(rho_b)
    k = basis.shape[1]
    blocks = basis.conj().T @ state.stack @ basis
    total = float(_block_sum(_traces(blocks)))
    proj_rho_b = _block_sum(blocks)
    if hmin is None:
        hmin = _h_min_solver(state, iters, tol)
    starts = [
        proj_rho_b / np.trace(proj_rho_b).real,
        np.eye(k, dtype=complex) / k,
        basis.conj().T @ hmin.sigma @ basis / max(np.trace(basis.conj().T @ hmin.sigma @ basis).real, 1e-300),
    ]

    best_val = NEG_INF
    best_sigma = starts[0]
    iterations = 0
    for sigma in starts:
        prev = NEG_INF
        for it in range(iters):
            iterations += 1
            w, v = _psd_eigh(sigma)
            val = _h2_rel_blocks(blocks, total, w, v)
            if val > best_val:
                best_val, best_sigma = val, sigma
            if val != NEG_INF and abs(val - prev) <= 1e-13:
                break
            prev = val
            tau = _spectral_power(w, v, -0.5)
            phi = _herm(_block_sum(blocks @ tau @ blocks))
            prop = op_power(phi, 2.0 / 3.0)
            tr = float(np.trace(prop).real)
            if tr <= 0:
                break
            sigma = _herm(0.5 * sigma + 0.5 * prop / tr)

    sigma_full = basis @ best_sigma @ basis.conj().T
    value = h2_rel(state, sigma_full)
    converged = value >= hmin.value - 1e-9 and np.isfinite(value)
    return EntropyResult(value, sigma_full, converged, max(hmin.value - value, 0.0), iterations)
