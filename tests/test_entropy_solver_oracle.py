"""Oracles for the entropy solvers.

``_ref_h_min_solver`` is the measurement fixed point (Jezek, Rehacek,
Fiurasek, PRA 65, 060301, 2002) that the barrier-method ``_h_min_solver``
replaced, kept verbatim.  Both return achieved values, so the new value
must lie in [old value - new gap, -log2(old primal)].
``_ref_cold_barrier`` is the barrier as it was before it started at the
pretty-good measurement: from Y = (1.5 max lambda_max + 1e-3) I, with every
line search from the full Newton step; the same bracket holds between the
two starts.  ``_linalg_barrier`` is the barrier as it was when it called
LAPACK through ``np.linalg.inv``, ``solve`` and ``cholesky`` at every
step, verbatim but for names: the gufunc route must match it bit for
bit.  ``_ref_h2_cond`` is the three-start fixed point that the
gap-certified ``h2_cond`` replaced, kept verbatim; its value, which also
scores the min-entropy solver's sigma, may pass neither the new upper bound
(value + gap) nor, by more than 1e-12 bits, the new value.  Closed forms
check both solvers independently of any implementation: for the
min-entropy, the Helstrom bound for two symbols and the
pretty-good-measurement value for geometrically uniform pure states; for
the collision entropy, ``h2_cond`` on classical states in a rotated
basis.  The collision value is also recomputed on the dense operator
rho_XB, and ``_ref_collision_bound`` recomputes the first Frank-Wolfe
certificate from a central-difference gradient.  ``_per_state_h2_solver``
and ``_per_state_fixed_point`` are the collision solver as it ran one state
at a time, before ``h2_cond_many`` stacked it per support rank, verbatim
but for names: the stacked solver must match them bit for bit.
``_barrier_h_min_solver`` is ``_h_min_solver`` as it was before the exact
routes, with every problem sent to the barrier.  Since then the barrier is
the oracle of ``_exact_guess``: on qubit supports (k = 2) the Bloch-ball
solver's dual and measurement must lie within the barrier's gap, its
support must meet the optimality conditions, two blocks must give the
Helstrom value and k = 1 the largest block.

The lockstep primal-dual solver ``_guessing_pd`` replaced the barrier for
k >= 3 with N >= 3.  ``_guessing_barrier`` and its helpers, with the
per-state ``_per_state_pgm_start``, are the barrier as it ran in the
module, verbatim but for names, and the oracle of the new solver: on
seeded problems with rank-1, repeated and tiny blocks, the two certified
intervals [value, value + gap] must overlap.  A member's result must not
depend on its group, the stacked start must be the per-state start bit for
bit, and a member whose factorisation or solve fails must leave with a
certified result while the others go on unchanged.  The tests named after
the barrier that call ``h_min_cond_many`` hold its successor to the same
oracles.
"""

import functools
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense_cq, op_power, random_cq_state, random_density, random_pure_state
from extraction_lab import entropies
from extraction_lab.cq_states import CqState, _block_sum, _traces, build_cq, marginal_side
from extraction_lab.entropies import (
    NEG_INF,
    SOLVER_TOL,
    EntropyResult,
    _bloch_ball,
    _closed_form,
    _dominating,
    _exact_guess,
    _failures_as_nan,
    _guessing_pd,
    _is_classical,
    _pgm_start,
    _support_bases,
    _umath_linalg,
    h2_cond,
    h2_cond_many,
    h2_rel,
    h_min_cond,
    h_min_cond_many,
    h_min_rel,
)
from extraction_lab.gf2 import index_to_bits
from extraction_lab.operators import (
    KERNEL_LEAK_ATOL,
    _herm,
    _kernel_mask,
    _spectral_power,
    _trusted_psd_eigh,
    eigh,
)

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
KETPLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


# -- per-block reference loops ------------------------------------------------

def _support_basis(rho_b):
    """The support basis of one operator, as the solvers take it."""
    return _support_bases([rho_b])[0]


def _ref_kernel_projector(sigma):
    w, v = eigh(sigma)
    dead = v[:, _kernel_mask(w)]
    return dead @ dead.conj().T


def _ref_kernel_ok(block, proj_kernel):
    leak = float(np.trace(proj_kernel @ block @ proj_kernel).real)
    return leak <= KERNEL_LEAK_ATOL


def _ref_max_eig(h):
    return float(np.linalg.eigvalsh(_herm(h))[-1])


def _ref_h_min_rel(rho, sigma):
    sig = np.asarray(sigma, dtype=complex)
    proj = _ref_kernel_projector(sig)
    inv_sqrt = op_power(sig, -0.5)
    worst = 0.0
    for sym in rho.symbols():
        block = rho.blocks[sym]
        if not _ref_kernel_ok(block, proj):
            return NEG_INF
        worst = max(worst, _ref_max_eig(inv_sqrt @ block @ inv_sqrt))
    return -float(np.log2(worst))


def _ref_h2_rel(rho, sigma):
    sig = np.asarray(sigma, dtype=complex)
    proj = _ref_kernel_projector(sig)
    quarter = op_power(sig, -0.25)
    total = rho.total_trace()
    acc = 0.0
    for sym in rho.symbols():
        block = rho.blocks[sym]
        if not _ref_kernel_ok(block, proj):
            return NEG_INF
        conj = quarter @ block @ quarter
        acc += float(np.trace(conj @ conj).real)
    return -float(np.log2(acc / total))


def _ref_h_min_solver(state, iters, tol):
    rho_b = marginal_side(state)
    basis = _support_basis(rho_b)
    d = state.side_dim
    proj_blocks = [basis.conj().T @ state.blocks[s] @ basis for s in state.symbols()]
    k = basis.shape[1]
    povm = [np.eye(k, dtype=complex) / len(proj_blocks) for _ in proj_blocks]
    eye = np.eye(k, dtype=complex)

    best_ub = float("inf")
    best_y = eye.copy()
    best_pri = 0.0
    iterations = 0
    for it in range(iters):
        iterations = it + 1
        y0 = _herm(sum(lam @ blk for lam, blk in zip(povm, proj_blocks)))
        mu = max(_ref_max_eig(blk - y0) for blk in proj_blocks)
        y = y0 + max(mu, 0.0) * eye
        ub = float(np.trace(y).real)
        pri = float(sum(np.trace(lam @ blk).real for lam, blk in zip(povm, proj_blocks)))
        best_pri = max(best_pri, pri)
        if ub < best_ub:
            best_ub, best_y = ub, y
        if best_ub - best_pri <= tol * max(best_ub, 1e-300):
            break
        g = _herm(sum(blk @ lam @ blk for lam, blk in zip(povm, proj_blocks)))
        g_inv_sqrt = op_power(g, -0.5)
        povm = [_herm(g_inv_sqrt @ blk @ lam @ blk @ g_inv_sqrt)
                for lam, blk in zip(povm, proj_blocks)]

    sigma_y = basis @ (best_y / np.trace(best_y).real) @ basis.conj().T
    candidates = [sigma_y, rho_b, np.eye(d, dtype=complex) / d]
    scored = [(_ref_h_min_rel(state, s), s) for s in candidates]
    value, sigma = max(scored, key=lambda t: t[0])
    upper = -float(np.log2(best_pri)) if best_pri > 0 else float("inf")
    gap = max(upper - value, 0.0)
    return EntropyResult(value, sigma, gap, iterations)


def _ref_cold_barrier(blocks, iters, tol):
    """The barrier's cold start and full-step line search, verbatim but for names."""
    n, k = blocks.shape[0], blocks.shape[1]
    eye = np.eye(k, dtype=complex)
    y = (1.5 * float(np.linalg.eigvalsh(blocks)[:, -1].max()) + 1e-3) * eye
    s = y - blocks
    log_det = _log_det(np.linalg.cholesky(s))
    t = n * k / float(np.trace(y).real)
    best_dual, best_y, best_primal = float(np.trace(y).real), y, 0.0
    last_decrement = float("inf")
    steps = 0
    while steps < iters:
        steps += 1
        s_inv = np.linalg.inv(s)
        s_inv_sum = _herm(s_inv.sum(axis=0))
        # Newton system sum_x S_x^-1 D S_x^-1 = s_inv_sum - t I in row-major
        # vec form; the solution is a - t b, so raising t needs no new solve.
        flat = s_inv.reshape(n, k * k)
        hess = (flat.T @ flat).reshape(k, k, k, k).transpose(0, 3, 1, 2).reshape(k * k, k * k)
        rhs = np.column_stack([s_inv_sum.ravel(), eye.ravel()])
        a, b = np.linalg.solve(hess, rhs).T.reshape(2, k, k)
        delta, decrement = _linalg_newton_step(a, b, s_inv_sum, t)
        if decrement <= NEAR_CENTRED or steps == iters:
            best_primal = max(best_primal, _linalg_primal_bound(y, s, s_inv, s_inv_sum / t, t))
            if best_dual - best_primal <= tol * best_dual or steps == iters:
                break
            # Centred, or Newton no longer shrinks the decrement (rounding floor).
            if decrement <= CENTRED or decrement > 0.25 * last_decrement:
                if t >= BARRIER_T_CAP:
                    break
                t *= BARRIER_GROWTH
                delta, decrement = _linalg_newton_step(a, b, s_inv_sum, t)
                last_decrement = float("inf")
            else:
                last_decrement = decrement
        step = _ref_feasible_step(y, delta, blocks, t, log_det, decrement)
        if step is None:
            break
        y, s, log_det = step
        if float(np.trace(y).real) < best_dual:
            best_dual, best_y = float(np.trace(y).real), y
    return best_y, best_primal, steps


def _ref_feasible_step(y, delta, blocks, t, log_det, decrement):
    tr_delta = float(np.trace(delta).real)
    alpha = 1.0
    while alpha > 1e-12:
        y_new = y + alpha * delta
        s_new = y_new - blocks
        try:
            new_log_det = _log_det(np.linalg.cholesky(s_new))
        except np.linalg.LinAlgError:
            alpha *= 0.5
            continue
        drop = (new_log_det - log_det) - t * alpha * tr_delta
        if drop >= 0.25 * alpha * decrement or alpha < 1e-3:
            return y_new, s_new, new_log_det
        alpha *= 0.5
    return None


# -- the log-barrier that the primal-dual solver replaced ----------------------

BARRIER_GROWTH = 8.0       # t grows by this factor at each centred iterate
BARRIER_T_CAP = 1e13       # past this t, S_x^{-1} is dominated by rounding
CENTRED = 1e-6             # Newton decrement^2 at which an iterate counts as centred
NEAR_CENTRED = 1e-3        # decrement^2 below which the primal bound is evaluated


def _lapack_failed(err, flag):
    raise np.linalg.LinAlgError("invalid floating-point result in the min-entropy barrier")


# As a decorator, np.errstate keeps its state per call, so threads may share it.
_lapack_errors = np.errstate(invalid="call", call=_lapack_failed)


@_lapack_errors
def _guessing_barrier(blocks: np.ndarray, iters: int):
    """Barrier method for min tr Y s.t. Y > blocks[x]; blocks are (N, k, k), sum PD.

    Starts at ``_per_state_pgm_start``; after each increase of t the line search
    starts at 1 / BARRIER_GROWTH of the Newton step.  Returns the feasible
    Y of least trace, the best primal guessing probability and the number
    of Newton steps.
    """
    n, k = blocks.shape[0], blocks.shape[1]
    rhs = np.empty((k * k, 2), dtype=complex)
    rhs[:, 1] = np.eye(k).ravel()
    y, t = _per_state_pgm_start(blocks)
    s = y - blocks
    log_det = _log_det(_umath_linalg.cholesky_lo(s, signature="D->D"))
    tr_y = float(y.trace().real)
    best_dual, best_y, best_primal = tr_y, y, 0.0
    last_decrement = float("inf")
    steps = 0
    while steps < iters:
        steps += 1
        alpha = 1.0
        s_inv = _umath_linalg.inv(s, signature="D->D")
        s_inv_sum = _herm(s_inv.sum(axis=0))
        # Newton system sum_x S_x^-1 D S_x^-1 = s_inv_sum - t I in row-major
        # vec form; the solution is a - t b, so raising t needs no new solve.
        flat = s_inv.reshape(n, k * k)
        hess = (flat.T @ flat).reshape(k, k, k, k).transpose(0, 3, 1, 2).reshape(k * k, k * k)
        rhs[:, 0] = s_inv_sum.ravel()
        a, b = _umath_linalg.solve(hess, rhs, signature="DD->D").T.reshape(2, k, k)
        delta, tr_delta, decrement = _newton_step(a, b, s_inv_sum, t)
        if decrement <= NEAR_CENTRED or steps == iters:
            best_primal = max(best_primal, _primal_bound(tr_y, s, s_inv, s_inv_sum / t, t))
            if best_dual - best_primal <= SOLVER_TOL * best_dual or steps == iters:
                break
            # Centred, or Newton no longer shrinks the decrement (rounding floor).
            if decrement <= CENTRED or decrement > 0.25 * last_decrement:
                if t >= BARRIER_T_CAP:
                    break
                t *= BARRIER_GROWTH
                delta, tr_delta, decrement = _newton_step(a, b, s_inv_sum, t)
                last_decrement = float("inf")
                # At a centred point of the scalar problem the boundary lies
                # at alpha = 1 / (BARRIER_GROWTH - 1), so longer steps fail.
                alpha = 1.0 / BARRIER_GROWTH
            else:
                last_decrement = decrement
        step = _feasible_step(y, delta, tr_delta, blocks, t, log_det, decrement, alpha)
        if step is None:
            break
        y, s, log_det = step
        tr_y = float(y.trace().real)
        if tr_y < best_dual:
            best_dual, best_y = tr_y, y
    return best_y, best_primal, steps


def _per_state_pgm_start(blocks: np.ndarray):
    """Barrier start (Y0, t0) from the pretty-good measurement.

    E_x = rho^-1/2 rho_x rho^-1/2 (Hausladen and Wootters, J. Mod. Opt. 41,
    1994) guesses with p_pgm >= p_guess^2 (Barnum and Knill, J. Math. Phys.
    43, 2002).  Its Lagrange operator L = sum_x rho_x E_x is the optimal Y
    when E is optimal (Holevo; Yuen, Kennedy and Lax); Y0 is L shifted to
    dominate every block strictly, and t0 makes the barrier's duality gap
    N k / t0 equal the measured gap tr Y0 - p_pgm.
    """
    n, k = blocks.shape[0], blocks.shape[1]
    inv_sqrt = _spectral_power(*np.linalg.eigh(_block_sum(blocks)), -0.5)
    pgm = inv_sqrt @ blocks @ inv_sqrt
    p_pgm = float(_block_sum(_traces(pgm @ blocks)))
    lagrange = _herm(_block_sum(blocks @ pgm))
    shift = max(0.0, float(np.linalg.eigvalsh(blocks - lagrange)[:, -1].max()))
    slack = max(float(lagrange.trace().real) + k * shift - p_pgm, 1e-12 * p_pgm)
    y = lagrange + (shift + slack / k) * np.eye(k)
    return y, n * k / (float(y.trace().real) - p_pgm)


def _newton_step(a, b, s_inv_sum, t):
    """The Hermitian Newton direction a - t b, its trace and its squared decrement."""
    delta = _herm(a - t * b)
    tr_delta = float(delta.trace().real)
    return delta, tr_delta, float(np.vdot(s_inv_sum, delta).real) - t * tr_delta


def _log_det(chol: np.ndarray) -> float:
    return 2.0 * float(np.log(np.diagonal(chol, axis1=-2, axis2=-1).real).sum())


def _feasible_step(y, delta, tr_delta, blocks, t, log_det, decrement, alpha):
    """Backtrack from the Newton step ``alpha * delta`` while some Y - rho_x is not PD.

    A batched Cholesky is the feasibility test (LinAlgError under the
    barrier's errstate); a feasible step is also halved (down to 1/1024)
    until it decreases the barrier objective by a quarter of the decrement
    it predicts.  ``tr_delta`` is tr delta.  None when no step is feasible.
    """
    while alpha > 1e-12:
        y_new = y + alpha * delta
        s_new = y_new - blocks
        try:
            new_log_det = _log_det(_umath_linalg.cholesky_lo(s_new, signature="D->D"))
        except np.linalg.LinAlgError:
            alpha *= 0.5
            continue
        drop = (new_log_det - log_det) - t * alpha * tr_delta
        if drop >= 0.25 * alpha * decrement or alpha < 1e-3:
            return y_new, s_new, new_log_det
        alpha *= 0.5
    return None


def _primal_bound(tr_y, s, s_inv, g, t) -> float:
    """Guessing probability of the POVM G^-1/2 (S_x^-1 / t) G^-1/2, with G = sum_x S_x^-1 / t.

    Written as ``tr_y`` - sum_x tr(E_x S_x), with ``tr_y`` = tr Y, which
    keeps its accuracy when the S_x are nearly singular; 0 when rounding
    has left G not PD.
    """
    w, v = np.linalg.eigh(g)
    if w[0] <= 0:
        return 0.0
    g_inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    slack = float(np.vdot(g_inv_sqrt @ s @ g_inv_sqrt, s_inv).real) / t
    return tr_y - slack


def _ref_cold_h_min_solver(state, iters, tol):
    """``_h_min_solver`` around ``_ref_cold_barrier``."""
    return _barrier_h_min_solver(state, iters, lambda blocks, n: _ref_cold_barrier(blocks, n, tol))


def _barrier_h_min_solver(state, iters, barrier=_guessing_barrier):
    """``_h_min_solver`` with every problem, whatever its k and N, solved by ``barrier``."""
    basis = _support_basis(marginal_side(state))
    y, p_primal, steps = barrier(basis.conj().T @ state.stack @ basis, iters)
    y = _dominating((basis @ y @ basis.conj().T)[None], state.stack[None])[0]
    p_dual = float(np.trace(y).real)
    value = -float(np.log2(p_dual))
    upper = -float(np.log2(p_primal)) if p_primal > 0 else float("inf")
    return EntropyResult(value, y / p_dual, max(upper - value, 0.0), steps)


def _linalg_barrier(blocks: np.ndarray, iters: int):
    """Barrier method for min tr Y s.t. Y > blocks[x]; blocks are (N, k, k), sum PD.

    Starts at ``_per_state_pgm_start``; after each increase of t the line search
    starts at 1 / BARRIER_GROWTH of the Newton step.  Returns the feasible
    Y of least trace, the best primal guessing probability and the number
    of Newton steps.
    """
    n, k = blocks.shape[0], blocks.shape[1]
    eye = np.eye(k, dtype=complex)
    y, t = _per_state_pgm_start(blocks)
    s = y - blocks
    log_det = _log_det(np.linalg.cholesky(s))
    best_dual, best_y, best_primal = float(np.trace(y).real), y, 0.0
    last_decrement = float("inf")
    steps = 0
    while steps < iters:
        steps += 1
        alpha = 1.0
        s_inv = np.linalg.inv(s)
        s_inv_sum = _herm(s_inv.sum(axis=0))
        # Newton system sum_x S_x^-1 D S_x^-1 = s_inv_sum - t I in row-major
        # vec form; the solution is a - t b, so raising t needs no new solve.
        flat = s_inv.reshape(n, k * k)
        hess = (flat.T @ flat).reshape(k, k, k, k).transpose(0, 3, 1, 2).reshape(k * k, k * k)
        rhs = np.column_stack([s_inv_sum.ravel(), eye.ravel()])
        a, b = np.linalg.solve(hess, rhs).T.reshape(2, k, k)
        delta, decrement = _linalg_newton_step(a, b, s_inv_sum, t)
        if decrement <= NEAR_CENTRED or steps == iters:
            best_primal = max(best_primal, _linalg_primal_bound(y, s, s_inv, s_inv_sum / t, t))
            if best_dual - best_primal <= SOLVER_TOL * best_dual or steps == iters:
                break
            # Centred, or Newton no longer shrinks the decrement (rounding floor).
            if decrement <= CENTRED or decrement > 0.25 * last_decrement:
                if t >= BARRIER_T_CAP:
                    break
                t *= BARRIER_GROWTH
                delta, decrement = _linalg_newton_step(a, b, s_inv_sum, t)
                last_decrement = float("inf")
                # At a centred point of the scalar problem the boundary lies
                # at alpha = 1 / (BARRIER_GROWTH - 1), so longer steps fail.
                alpha = 1.0 / BARRIER_GROWTH
            else:
                last_decrement = decrement
        step = _linalg_feasible_step(y, delta, blocks, t, log_det, decrement, alpha)
        if step is None:
            break
        y, s, log_det = step
        if float(np.trace(y).real) < best_dual:
            best_dual, best_y = float(np.trace(y).real), y
    return best_y, best_primal, steps


def _linalg_newton_step(a, b, s_inv_sum, t):
    """The Hermitian Newton direction a - t b and its squared decrement."""
    delta = _herm(a - t * b)
    return delta, float(np.vdot(s_inv_sum, delta).real) - t * float(np.trace(delta).real)


def _linalg_feasible_step(y, delta, blocks, t, log_det, decrement, alpha):
    """Backtrack from the Newton step ``alpha * delta`` while some Y - rho_x is not PD.

    A batched Cholesky is the feasibility test; a feasible step is also
    halved (down to 1/1024) until it decreases the barrier objective by
    a quarter of the decrement it predicts.  None when no step is feasible.
    """
    tr_delta = float(np.trace(delta).real)
    while alpha > 1e-12:
        y_new = y + alpha * delta
        s_new = y_new - blocks
        try:
            new_log_det = _log_det(np.linalg.cholesky(s_new))
        except np.linalg.LinAlgError:
            alpha *= 0.5
            continue
        drop = (new_log_det - log_det) - t * alpha * tr_delta
        if drop >= 0.25 * alpha * decrement or alpha < 1e-3:
            return y_new, s_new, new_log_det
        alpha *= 0.5
    return None


def _linalg_primal_bound(y, s, s_inv, g, t) -> float:
    """Guessing probability of the POVM G^-1/2 (S_x^-1 / t) G^-1/2, with G = sum_x S_x^-1 / t.

    Written as tr Y - sum_x tr(E_x S_x), which keeps its accuracy when the
    S_x are nearly singular; 0 when rounding has left G not PD.
    """
    w, v = np.linalg.eigh(g)
    if w[0] <= 0:
        return 0.0
    g_inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    slack = float(np.vdot(g_inv_sqrt @ s @ g_inv_sqrt, s_inv).real) / t
    return float(np.trace(y).real) - slack


def _ref_h2_cond(state, hmin, iters=500):
    """Solver path of h2_cond (the caller excludes classical states).

    Verbatim but for taking the min-entropy result as ``hmin``.
    """
    rho_b = marginal_side(state)
    basis = _support_basis(rho_b)
    k = basis.shape[1]
    proj_state = CqState(
        side_dim=k,
        blocks={s: basis.conj().T @ state.blocks[s] @ basis for s in state.symbols()},
    )
    proj_rho_b = marginal_side(proj_state)
    starts = [
        proj_rho_b / np.trace(proj_rho_b).real,
        np.eye(k, dtype=complex) / k,
        basis.conj().T @ hmin.sigma @ basis / max(np.trace(basis.conj().T @ hmin.sigma @ basis).real, 1e-300),
    ]
    blocks = [proj_state.blocks[s] for s in proj_state.symbols()]

    best_val = NEG_INF
    best_sigma = starts[0]
    iterations = 0
    for sigma in starts:
        prev = NEG_INF
        for it in range(iters):
            iterations += 1
            val = _ref_h2_rel(proj_state, sigma)
            if val > best_val:
                best_val, best_sigma = val, sigma
            if val != NEG_INF and abs(val - prev) <= 1e-13:
                break
            prev = val
            tau = op_power(sigma, -0.5)
            phi = _herm(sum(b @ tau @ b for b in blocks))
            prop = op_power(phi, 2.0 / 3.0)
            tr = float(np.trace(prop).real)
            if tr <= 0:
                break
            sigma = _herm(0.5 * sigma + 0.5 * prop / tr)

    sigma_full = basis @ best_sigma @ basis.conj().T
    value = _ref_h2_rel(state, sigma_full)
    return EntropyResult(value, sigma_full, max(hmin.value - value, 0.0), iterations)


# -- seeded states -------------------------------------------------------------

KINDS = ("bb84", "random_pure", "random_density", "low_rank")


def _bb84(sym, bits):
    c = KET0 if sym[0] == 0 else KETPLUS
    for i in range(1, bits):
        c = np.kron(c, KET0 if sym[i] == 0 else KETPLUS)
    return c


def _low_rank_pure(dim, rank, rng):
    """Pure states inside one random rank-dimensional subspace of C^dim."""
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    iso, _ = np.linalg.qr(g)
    return lambda: iso @ random_pure_state(rank, rng) @ iso.conj().T


def oracle_state(kind, rng):
    """A non-classical cq-state with 2..16 symbols and side dim 2..4."""
    while True:
        n_sym = int(rng.integers(2, 17))
        chosen = sorted(int(i) for i in rng.choice(16, size=n_sym, replace=False))
        syms = [index_to_bits(i, 4) for i in chosen]
        weights = rng.random(n_sym) + 1e-3
        dist = dict(zip(syms, (weights / weights.sum()).tolist()))
        if kind == "bb84":
            bits = int(rng.integers(1, 3))
            conds = {s: _bb84(s, bits) for s in syms}
        elif kind == "random_pure":
            dim = int(rng.integers(2, 5))
            conds = {s: random_pure_state(dim, rng) for s in syms}
        elif kind == "random_density":
            dim = int(rng.integers(2, 5))
            conds = {s: random_density(dim, rng) for s in syms}
        else:
            dim = int(rng.integers(3, 5))
            make = _low_rank_pure(dim, int(rng.integers(1, dim)), rng)
            conds = {s: make() for s in syms}
        state = build_cq(dist, conds)
        if not _is_classical(state):
            return state


def oracle_states(count, seed):
    rng = np.random.default_rng(seed)
    return [oracle_state(KINDS[i % len(KINDS)], rng) for i in range(count)]


# -- oracles --------------------------------------------------------------------

ROUNDING_BITS = 1e-12     # rounding of the two logs when both solvers are exact


def test_oracle_states_cover_the_grid():
    states = oracle_states(100, seed=11)
    dims = {s.side_dim for s in states}
    alphabets = {len(s.blocks) for s in states}
    ranks = [_support_basis(marginal_side(s)).shape[1] for s in states]
    assert dims == {2, 3, 4}
    assert min(alphabets) == 2 and max(alphabets) >= 15
    assert any(r < s.side_dim for r, s in zip(ranks, states))


def _dominated_by(res, state):
    """Smallest eigenvalue over x of Y - rho_x, with Y = 2^-value sigma the solver's dual."""
    y = res.sigma * 2.0 ** -res.value
    return float(np.linalg.eigvalsh(y - state.stack)[:, 0].min())


def test_barrier_h_min_solver_brackets_fixed_point():
    states = oracle_states(100, seed=11)
    for i, (state, new) in enumerate(zip(states, h_min_cond_many(states))):
        old = _ref_h_min_solver(state, 500, 1e-8)
        assert new.converged and new.iterations < 500, f"state {i}"
        assert old.value - new.gap - ROUNDING_BITS <= new.value, f"state {i}"
        assert new.value <= old.value + old.gap + ROUNDING_BITS, f"state {i}"


def test_barrier_dual_dominates_every_block():
    states = oracle_states(100, seed=11)
    for i, (state, res) in enumerate(zip(states, h_min_cond_many(states))):
        assert _dominated_by(res, state) >= 0.0, f"state {i}"


def test_barrier_h_min_solver_unconverged_is_sound():
    for i, state in enumerate(oracle_states(24, seed=12)):
        capped = _barrier_h_min_solver(state, 5)
        full = _barrier_h_min_solver(state, 500)
        assert capped.iterations == 5 and not capped.converged, f"state {i}"
        assert capped.value <= full.value + full.gap + ROUNDING_BITS, f"state {i}"
        assert _dominated_by(capped, state) >= 0.0, f"state {i}"


def test_warm_start_brackets_cold_start():
    warm_steps = cold_steps = 0
    for i, state in enumerate(oracle_states(100, seed=11)):
        warm = _barrier_h_min_solver(state, 500)
        cold = _ref_cold_h_min_solver(state, 500, 1e-10)
        assert warm.converged and cold.converged, f"state {i}"
        assert cold.value - warm.gap - ROUNDING_BITS <= warm.value, f"state {i}"
        assert warm.value <= cold.value + cold.gap + ROUNDING_BITS, f"state {i}"
        warm_steps += warm.iterations
        cold_steps += cold.iterations
    assert warm_steps < cold_steps


def _barrier_bytes(result):
    best_y, best_primal, steps = result
    return best_y.tobytes(), best_primal, steps


@pytest.mark.parametrize("count, seed, iters", [(100, 11, 500), (24, 12, 5)],
                         ids=["converged", "capped"])
def test_gufunc_barrier_matches_the_linalg_route_bit_for_bit(count, seed, iters):
    for i, state in enumerate(oracle_states(count, seed)):
        basis = _support_basis(marginal_side(state))
        blocks = basis.conj().T @ state.stack @ basis
        new = _barrier_bytes(_guessing_barrier(blocks, iters))
        assert new == _barrier_bytes(_linalg_barrier(blocks, iters)), f"state {i}"


@pytest.mark.parametrize("k", range(1, 7))
def test_lapack_gufuncs_equal_np_linalg_bit_for_bit(k):
    rng = np.random.default_rng(100 + k)
    a = rng.standard_normal((5, k, k)) + 1j * rng.standard_normal((5, k, k))
    pd = a @ np.swapaxes(a.conj(), -1, -2) + 1e-3 * np.eye(k)
    rhs = rng.standard_normal((5, k, 2)) + 1j * rng.standard_normal((5, k, 2))
    assert (_umath_linalg.inv(a, signature="D->D").tobytes()
            == np.linalg.inv(a).tobytes())
    assert (_umath_linalg.solve(a, rhs, signature="DD->D").tobytes()
            == np.linalg.solve(a, rhs).tobytes())
    assert (_umath_linalg.cholesky_lo(pd, signature="D->D").tobytes()
            == np.linalg.cholesky(pd).tobytes())


def test_lapack_failures_raise_under_the_solver_errstate():
    not_pd = np.array([np.eye(2), np.diag([1.0, -1.0])], dtype=complex)
    singular = np.array([[[1.0, 2.0], [2.0, 4.0]]], dtype=complex)
    with pytest.raises(np.linalg.LinAlgError):
        _lapack_errors(_umath_linalg.cholesky_lo)(not_pd, signature="D->D")
    with pytest.raises(np.linalg.LinAlgError):
        _lapack_errors(_umath_linalg.inv)(singular, signature="D->D")


def test_solver_errstate_changes_only_invalid(monkeypatch):
    """The caller's other flags hold inside a solve, and every flag after it."""
    state = oracle_states(1, seed=11)[0]
    inside = []

    def spy(blocks):
        inside.append(np.geterr())
        return _pgm_start(blocks)

    monkeypatch.setattr(entropies, "_pgm_start", spy)
    with np.errstate(divide="raise", over="warn", under="ignore", invalid="warn"):
        before = np.geterr()
        h_min_cond(state)
        assert np.geterr() == before
    assert len(inside) == 1
    assert inside[0] == dict(before, invalid="ignore")


def _assert_start_dominates(state, label):
    """Y0 - rho_x passes a Cholesky test for every block; returns N k / t0."""
    basis = _support_basis(marginal_side(state))
    blocks = basis.conj().T @ state.stack @ basis
    (y0,), (t0,) = _pgm_start(blocks[None])
    assert t0 > 0, label
    np.linalg.cholesky(y0 - blocks)
    return blocks.shape[0] * blocks.shape[1] / t0


def test_pgm_start_dominates_oracle_blocks():
    for i, state in enumerate(oracle_states(100, seed=11)):
        _assert_start_dominates(state, f"state {i}")


def _rotation(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return np.linalg.qr(g)[0]


def _edge_cases(rng):
    """(label, state, exact p_guess) for starts where the PGM is exact or degenerate."""
    syms = [index_to_bits(j, 2) for j in range(4)]
    priors = np.array([0.1, 0.2, 0.3, 0.4])
    dist = dict(zip(syms, priors.tolist()))
    yield "single symbol", build_cq({syms[0]: 1.0}, {syms[0]: random_density(3, rng)}), 1.0
    rot = _rotation(4, rng)
    for count in (3, 4):
        kets = {s: np.outer(rot[:, j], rot[:, j].conj()) for j, s in enumerate(syms[:count])}
        part = {s: dist[s] / priors[:count].sum() for s in syms[:count]}
        yield f"{count} orthogonal pure states", build_cq(part, kets), 1.0
    sigma = random_density(3, rng)
    yield "identical blocks", build_cq(dist, {s: sigma for s in syms}), priors.max()
    psi = random_pure_state(3, rng)
    yield "one pure state", build_cq(dist, {s: psi for s in syms}), priors.max()


def test_pgm_start_edge_cases_are_exact():
    for label, state, p_exact in _edge_cases(np.random.default_rng(5)):
        assert not _is_classical(state), label
        _assert_start_dominates(state, label)
        res = h_min_cond(state)
        assert res.converged, label
        assert abs(res.value - -np.log2(p_exact)) <= 1e-9, label


def test_h2_cond_brackets_three_start_fixed_point():
    new_iterations = ref_iterations = 0
    for i, state in enumerate(oracle_states(32, seed=13)):
        new = h2_cond(state)
        ref = _ref_h2_cond(state, h_min_cond(state))
        assert new.converged and new.gap <= 1e-9, f"state {i}"
        assert ref.value <= new.value + new.gap + ROUNDING_BITS, f"state {i}"
        assert new.value >= ref.value - ROUNDING_BITS, f"state {i}"
        new_iterations += new.iterations
        ref_iterations += ref.iterations
    assert new_iterations < ref_iterations


def _assert_no_sigma_beats(res, state, rng, label):
    """No random sigma, nor one mixed into the solver's, has h2_rel above value + gap."""
    for _ in range(20):
        sigma = random_density(state.side_dim, rng)
        for mix in (1.0, 1e-3, 1e-6):
            trial = h2_rel(state, mix * sigma + (1.0 - mix) * res.sigma)
            assert trial <= res.value + res.gap + ROUNDING_BITS, label


def _dense_h2_rel(state, sigma):
    """H_2(rho|sigma) on the dense operator rho_XB, with I (x) sigma^-1/4 on both sides."""
    quarter = np.kron(np.eye(len(state.blocks)), op_power(sigma, -0.25))
    conj = quarter @ dense_cq(state) @ quarter
    return -np.log2(np.trace(conj @ conj).real / state.total_trace())


def test_h2_cond_gap_is_sound():
    rng = np.random.default_rng(15)
    for i, state in enumerate(oracle_states(24, seed=14)):
        res = h2_cond(state)
        assert abs(_dense_h2_rel(state, res.sigma) - res.value) <= 1e-9, f"state {i}"
        _assert_no_sigma_beats(res, state, rng, f"state {i}")


def test_h2_cond_unconverged_is_sound():
    rng = np.random.default_rng(16)
    capped_states = 0
    for i, state in enumerate(oracle_states(24, seed=12)):
        full = h2_cond(state)
        if full.iterations <= 2:      # a rank-1 rho_B is optimal at the start
            continue
        capped = h2_cond(state, iters=2)
        assert capped.iterations == 2 and not capped.converged, f"state {i}"
        assert capped.value <= full.value + full.gap + ROUNDING_BITS, f"state {i}"
        assert full.value <= capped.value + capped.gap + ROUNDING_BITS, f"state {i}"
        _assert_no_sigma_beats(capped, state, rng, f"state {i}")
        capped_states += 1
    assert capped_states >= 20


def _ref_collision_bound(state):
    """Frank-Wolfe bound at sigma = rho_B / tr rho_B from a central-difference gradient.

    f(sigma) = sum_x tr(sigma^-1/2 rho_x sigma^-1/2 rho_x) on the support of
    rho_B; its gradient M comes from differences along an orthonormal
    Hermitian basis, and min f >= f - tr(M sigma) + lambda_min(M).
    """
    basis = _support_basis(marginal_side(state))
    blocks = basis.conj().T @ state.stack @ basis
    k = blocks.shape[1]

    def f(sigma):
        inv_sqrt = op_power(sigma, -0.5)
        return sum(float(np.trace(inv_sqrt @ b @ inv_sqrt @ b).real) for b in blocks)

    sigma = blocks.sum(axis=0) / np.trace(blocks.sum(axis=0)).real
    directions = []
    for i in range(k):
        for j in range(i, k):
            e = np.zeros((k, k), dtype=complex)
            e[i, j] = e[j, i] = 1.0 if i == j else 2 ** -0.5
            directions.append(e)
            if i != j:
                e = np.zeros((k, k), dtype=complex)
                e[i, j], e[j, i] = -1j * 2 ** -0.5, 1j * 2 ** -0.5
                directions.append(e)
    h = 1e-5 * float(np.linalg.eigvalsh(sigma)[0])
    grad = sum((f(sigma + h * e) - f(sigma - h * e)) / (2 * h) * e for e in directions)
    lower = f(sigma) - float(np.trace(grad @ sigma).real) + float(np.linalg.eigvalsh(grad)[0])
    return -np.log2(lower / state.total_trace()) if lower > 0 else float("inf")


def test_h2_cond_first_certificate_matches_finite_differences():
    checked = 0
    for i, state in enumerate(oracle_states(24, seed=17)):
        first = h2_cond(state, iters=1)
        upper = _ref_collision_bound(state)
        if np.isinf(upper):
            assert np.isinf(first.gap), f"state {i}"
            continue
        assert abs(first.value + first.gap - upper) <= 1e-6, f"state {i}"
        checked += 1
    assert checked >= 12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 4), n_sym=st.integers(1, 8),
       drop=st.floats(0.0, 0.6))
def test_h2_cond_rotated_classical_matches_closed_form(seed, dim, n_sym, drop):
    """U diag(p_x) U^dag for a random unitary U has the classical state's h2."""
    rng = np.random.default_rng(seed)
    diags = rng.random((n_sym, dim)) * (rng.random((n_sym, dim)) >= drop)
    diags[:, 0] += 1e-3                 # no block is zero
    diags /= diags.sum()
    syms = [index_to_bits(j, 3) for j in range(n_sym)]
    classical = CqState(dim, {s: np.diag(d).astype(complex) for s, d in zip(syms, diags)})
    rot = _rotation(dim, rng)
    rotated = CqState(dim, {s: rot @ b @ rot.conj().T for s, b in classical.blocks.items()})
    assert not _is_classical(rotated)
    exact = h2_cond(classical).value
    res = h2_cond(rotated)
    assert res.converged
    assert res.value - ROUNDING_BITS <= exact <= res.value + res.gap + ROUNDING_BITS


# -- the per-state collision fixed point ---------------------------------------

def _per_state_h2_solver(state: CqState, iters: int) -> EntropyResult:
    basis = _support_basis(marginal_side(state))
    blocks = basis.conj().T @ state.stack @ basis
    total = float(_block_sum(_traces(blocks)))
    sigma, f_lower, steps = _per_state_fixed_point(blocks, iters)
    sigma_full = basis @ sigma @ basis.conj().T
    value = h2_rel(state, sigma_full)
    upper = -float(np.log2(f_lower / total)) if f_lower > 0 else float("inf")
    return EntropyResult(value, sigma_full, max(upper - value, 0.0), steps)


def _per_state_fixed_point(blocks: np.ndarray, iters: int):
    """The fixed point of ``h2_cond`` on (N, k, k) blocks whose sum is PD.

    At sigma = V diag(lambda) V^dag, with s = sqrt(lambda), f = tr(sigma^-1/2 Phi)
    and G = 2 V [(V^dag Phi V)_ij / (s_i s_j (s_i + s_j))] V^dag is -grad f
    (a Daleckii-Krein divided difference).  As tr(G sigma) = f, convexity
    gives min f >= 2 f - lambda_max(G); lambda_max is read in sigma's
    eigenbasis.  Returns the sigma of least f, the best lower bound and the
    number of iterates evaluated, at most ``iters``.
    """
    rho_b = _block_sum(blocks)
    sigma = rho_b / rho_b.trace().real
    f_best, f_lower, best_sigma = float("inf"), NEG_INF, sigma
    steps = 0
    while steps < iters:
        steps += 1
        w, v = _trusted_psd_eigh(sigma)
        if w[0] <= 0:
            break
        s = np.sqrt(w)
        phi = _herm(_block_sum(blocks @ ((v / s) @ v.conj().T) @ blocks))
        phi_v = v.conj().T @ phi @ v
        f = float((np.diagonal(phi_v).real / s).sum())
        neg_grad = 2.0 * phi_v / (s[:, None] * s[None, :] * (s[:, None] + s[None, :]))
        f_lower = max(f_lower, 2.0 * f - float(np.linalg.eigvalsh(neg_grad)[-1]))
        if f < f_best:
            f_best, best_sigma = f, sigma
        if f_best - f_lower <= SOLVER_TOL * f_best or steps == iters:
            break
        prop = _spectral_power(*_trusted_psd_eigh(phi), 2.0 / 3.0)
        sigma = _herm(0.5 * sigma + 0.5 * prop / float(prop.trace().real))
    return best_sigma, f_lower, steps


def _per_state_h2_cond(state, iters):
    return _closed_form(state, 2) or _per_state_h2_solver(state, iters)


def _mixed_h2_states():
    """Classical states, then quantum ones of N = 1..8 blocks on side registers of
    dimension 2 or 3 whose marginal has support rank 1, 2 or 3, the rank groups
    interleaved; (3, 2) is a rank-deficient marginal."""
    rng = np.random.default_rng(2030)
    diagonal = {(0,): np.diag([0.25, 0.1]), (1,): np.diag([0.05, 0.6])}
    states = [random_cq_state(2, 1, rng), CqState(2, diagonal)]
    for n_sym in range(1, 9):
        for dim, rank in ((2, 1), (3, 3), (3, 2), (2, 2), (3, 1)):
            make = (_low_rank_pure(dim, rank, rng) if rank < dim
                    else functools.partial(random_density, dim, rng))
            syms = [index_to_bits(int(i), 3) for i in sorted(rng.choice(8, n_sym, replace=False))]
            weights = rng.random(n_sym) + 1e-3
            states.append(build_cq(dict(zip(syms, (weights / weights.sum()).tolist())),
                                   {sym: make() for sym in syms}))
    return states


def _same_result(got, want):
    return (got.value == want.value and got.sigma.tobytes() == want.sigma.tobytes()
            and got.gap == want.gap and got.iterations == want.iterations)


@pytest.mark.parametrize("iters", [500, 1, 2])
def test_h2_cond_many_is_the_per_state_fixed_point(iters):
    states = _mixed_h2_states()
    ranks = {_support_basis(marginal_side(s)).shape[1] for s in states if not _is_classical(s)}
    sizes = {len(s.blocks) for s in states if not _is_classical(s)}
    assert ranks == {1, 2, 3} and sizes == set(range(1, 9))
    assert sum(_is_classical(s) for s in states) == 2
    want = [_per_state_h2_cond(state, iters) for state in states]
    got = h2_cond_many(states, iters)
    for i, (res, ref) in enumerate(zip(got, want, strict=True)):
        assert _same_result(res, ref), i
    if iters == 500:
        assert all(res.converged for res in got)
    # No member leaks into another: the reversed list gives the reversed results.
    for i, (res, ref) in enumerate(zip(h2_cond_many(states[::-1], iters), want[::-1],
                                       strict=True)):
        assert _same_result(res, ref), i
    for state, ref in zip(states[::7], want[::7]):
        (alone,) = h2_cond_many([state], iters)
        assert _same_result(alone, ref) and _same_result(h2_cond(state, iters), ref)
    assert h2_cond_many([], iters) == []


# -- Helstrom closed form --------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 4),
       p0=st.floats(0.02, 0.98), pure=st.booleans())
def test_h_min_cond_two_symbols_brackets_helstrom(seed, dim, p0, pure):
    rng = np.random.default_rng(seed)
    make = random_pure_state if pure else random_density
    state = build_cq({(0,): p0, (1,): 1.0 - p0}, {(0,): make(dim, rng), (1,): make(dim, rng)})
    diff = state.blocks[(0,)] - state.blocks[(1,)]
    helstrom = -np.log2(0.5 * (1.0 + np.abs(np.linalg.eigvalsh(diff)).sum()))
    res = h_min_cond(state)
    assert res.value - 1e-9 <= helstrom <= res.value + res.gap + 1e-9


# -- geometrically uniform pure states ---------------------------------------------

@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 4), n_states=st.integers(2, 16))
def test_h_min_cond_geometrically_uniform_states(seed, dim, n_states):
    """psi_j = U^j psi_0 with U^N = I, equiprobable: the PGM is optimal and
    p_guess = (sum_k sqrt(lambda_k(G)))^2 / N^2 for the Gram matrix G
    (Eldar and Forney, IEEE TIT 47(3), 2001)."""
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    phases = np.exp(2j * np.pi * rng.integers(0, n_states, size=dim) / n_states)
    kets = np.array([phases ** j * psi for j in range(n_states)])
    lam = np.linalg.eigvalsh(kets.conj() @ kets.T)
    live = lam > 1e-12 * lam[-1]        # rank(G) <= dim; sqrt would amplify rounding
    exact = -np.log2(np.sqrt(lam[live]).sum() ** 2 / n_states ** 2)
    syms = [index_to_bits(j, 4) for j in range(n_states)]
    state = build_cq({s: 1.0 / n_states for s in syms},
                     {s: np.outer(k, k.conj()) for s, k in zip(syms, kets)})
    res = h_min_cond(state)
    assert res.converged
    assert res.value - 1e-9 <= exact <= res.value + res.gap + 1e-9
    # The PGM is optimal here, so the start's slack sits at its 1e-12 floor.
    assert _assert_start_dominates(state, "geometrically uniform") <= 1.01e-12 * 2.0 ** -exact


# -- relative entropies at a singular sigma ---------------------------------------

@pytest.mark.parametrize("support", [2, 3], ids=["kernel-misses-state", "kernel-meets-state"])
def test_relative_entropies_follow_the_per_block_kernel_test(support, rng):
    """h_min_rel and h2_rel give the per-block references' values.

    ker sigma = |2>; the blocks live on the first ``support`` basis vectors,
    so they meet the kernel, and every value is -inf, only when support = 3.
    """
    sigma = np.diag([0.6, 0.4, 0.0]).astype(complex)
    conds = {}
    for sym in ((0,), (1,)):
        conds[sym] = np.zeros((3, 3), dtype=complex)
        conds[sym][:support, :support] = random_density(support, rng)
    state = build_cq({(0,): 0.3, (1,): 0.7}, conds)
    expected = _ref_h_min_rel(state, sigma)
    assert (expected == NEG_INF) == (support == 3)
    assert h_min_rel(state, sigma) == pytest.approx(expected, rel=0, abs=1e-9)
    assert h2_rel(state, sigma) == pytest.approx(_ref_h2_rel(state, sigma), rel=0, abs=1e-9)


# -- exact solutions: qubit supports, two blocks, one dimension ---------------------

def _qubit_problems(count, seed):
    """(N, 2, 2) stacks with a PD sum and unit trace, N = 1..37.

    Each block is a random mixed or pure state or a zero block, times a
    random weight, or it repeats an earlier block: an identical copy, a
    scaled copy (a ball nested in its Bloch ball) or the block plus 1e-9 of
    a pure state (a ball that barely sticks out of it).  Every third stack
    is real, so its Bloch centres are coplanar.
    """
    rng = np.random.default_rng(seed)
    problems = []
    while len(problems) < count:
        n, real = 1 + len(problems) % 37, len(problems) % 3 == 0
        blocks = []
        for _ in range(n):
            kind = int(rng.integers(6)) if blocks else int(rng.integers(2))
            if kind < 3:
                fresh = [random_density, random_pure_state, lambda *_: np.zeros((2, 2))][kind]
                blocks.append(fresh(2, rng) * (rng.random() + 1e-3))
            else:
                earlier = blocks[int(rng.integers(len(blocks)))]
                blocks.append([earlier, earlier * rng.random(),
                               earlier + 1e-9 * np.trace(earlier).real * random_pure_state(2, rng),
                               ][kind - 3])
            if real:
                blocks[-1] = blocks[-1].real
        stack = np.array(blocks, dtype=complex)
        total = _block_sum(stack)
        if np.linalg.eigvalsh(total)[0] > 1e-3 * np.trace(total).real:
            problems.append(stack / np.trace(total).real)
    return problems


def _bloch_form(blocks):
    """(a_x, b_x) with rho_x = a_x I + b_x.sigma, read off the entries."""
    radii = 0.5 * (blocks[:, 0, 0] + blocks[:, 1, 1]).real
    centres = np.stack([blocks[:, 1, 0].real, blocks[:, 1, 0].imag,
                        0.5 * (blocks[:, 0, 0] - blocks[:, 1, 1]).real], axis=1)
    return radii, centres


def test_qubit_problems_cover_the_cases():
    problems = _qubit_problems(200, seed=31)
    assert {len(p) for p in problems} == set(range(1, 38))
    ranks = [np.linalg.matrix_rank(b, tol=1e-9) for p in problems for b in p]
    assert {0, 1, 2} <= set(ranks)
    assert sum(not np.any(p.imag) for p in problems) >= 60


def _lowest_slack(y, blocks):
    return float(np.linalg.eigvalsh(y - blocks)[:, 0].min())


def test_exact_guess_brackets_the_barrier_on_qubit_supports():
    for i, blocks in enumerate(_qubit_problems(200, seed=31)):
        y, p_exact, pivots = _exact_guess(blocks, 500)
        y_barrier, p_barrier, _ = _guessing_barrier(blocks, 500)
        dual, dual_barrier = float(np.trace(y).real), float(np.trace(y_barrier).real)
        assert _lowest_slack(y, blocks) >= -1e-15, f"problem {i}"
        # Both are exact: p_exact and dual agree to rounding, either way round.
        assert abs(dual - p_exact) <= 1e-13 * dual, f"problem {i}"
        assert p_barrier * (1 - 1e-12) <= p_exact, f"problem {i}"
        assert dual <= dual_barrier * (1 + 1e-12), f"problem {i}"
        assert pivots == 0 if len(blocks) <= 2 else pivots <= 8, f"problem {i}"


def test_bloch_ball_support_meets_the_optimality_conditions():
    for i, blocks in enumerate(_qubit_problems(200, seed=31)):
        radii, centres = _bloch_form(blocks)
        centre, radius, support, mu, u, _ = _bloch_ball(radii, centres, 500)
        sticking_out = radii + np.linalg.norm(centres - centre, axis=1) - radius
        assert sticking_out.max() <= 1e-13 * radius, f"problem {i}"
        assert np.all(np.abs(sticking_out[support]) <= 1e-13 * radius), f"problem {i}"
        assert len(set(support)) == len(support) <= 4, f"problem {i}"
        assert np.all(mu >= 0) and abs(mu.sum() - 1.0) <= 1e-12, f"problem {i}"
        assert np.abs(mu @ u).max() <= 1e-12, f"problem {i}"
        norms = np.linalg.norm(u, axis=1)
        assert np.all((np.abs(norms - 1.0) <= 1e-12) | (norms == 0.0)), f"problem {i}"
        # Pi_x = mu_x (I - u_x.sigma) guesses with twice the radius.
        guess = 2.0 * float(mu @ (radii[support] - (u * centres[support]).sum(axis=1)))
        assert abs(guess - 2.0 * radius) <= 1e-12, f"problem {i}"


@pytest.mark.parametrize("k", [2, 3, 4])
def test_two_blocks_give_the_helstrom_value(k):
    rng = np.random.default_rng(40 + k)
    for i in range(30):
        make = random_pure_state if i % 2 else random_density
        blocks = np.array([rng.random() * make(k, rng) for _ in range(2)])
        helstrom = 0.5 * (np.trace(blocks[0] + blocks[1]).real
                          + np.abs(np.linalg.eigvalsh(blocks[0] - blocks[1])).sum())
        y, p_primal, pivots = _exact_guess(blocks, 500)
        assert pivots == 0 and _lowest_slack(y, blocks) >= -1e-15, i
        assert abs(np.trace(y).real - helstrom) <= 1e-14 and abs(p_primal - helstrom) <= 1e-14, i
        y, p_primal, _ = _exact_guess(blocks[:1], 500)
        assert abs(np.trace(y).real - np.trace(blocks[0]).real) <= 1e-15, i
        assert abs(p_primal - np.trace(blocks[0]).real) <= 1e-15, i


def test_one_dimensional_support_takes_the_largest_block():
    rng = np.random.default_rng(50)
    for n in (1, 2, 3, 9):
        blocks = rng.random((n, 1, 1)).astype(complex)
        y, p_primal, pivots = _exact_guess(blocks, 500)
        assert y[0, 0] == blocks.max() and p_primal == blocks.real.max() and pivots == 0


def _qubit_states(count, seed):
    """cq-states on a qubit side register with N >= 3 random mixed blocks."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(count):
        syms = [index_to_bits(j, 3) for j in range(int(rng.integers(3, 9)))]
        weights = rng.random(len(syms)) + 1e-3
        states.append(build_cq(dict(zip(syms, (weights / weights.sum()).tolist())),
                               {s: random_density(2, rng) for s in syms}))
    return states


def test_pivot_cap_is_reported_unconverged_and_sound():
    capped_states = 0
    for i, state in enumerate(_qubit_states(40, seed=60)):
        full = h_min_cond(state)
        barrier = _barrier_h_min_solver(state, 500)
        assert full.converged and full.gap <= 1e-12, f"state {i}"
        assert barrier.value - full.gap <= full.value <= barrier.value + barrier.gap, f"state {i}"
        if full.iterations < 2:
            continue
        capped = h_min_cond(state, iters=1)
        assert capped.iterations == 1 and not capped.converged, f"state {i}"
        assert capped.value <= full.value + full.gap + ROUNDING_BITS, f"state {i}"
        assert _dominated_by(capped, state) >= 0.0, f"state {i}"
        capped_states += 1
    assert capped_states >= 5


def test_paper_table_1_sends_only_k_and_n_of_three_or_more_to_the_barrier(monkeypatch):
    """Only k >= 3 with N >= 3 reaches the lockstep solver, which took the barrier's place,
    and some of its groups hold more than one state."""
    from extraction_lab.harness import load_config, run_suite
    routes = {"exact": 0, "lockstep": 0, "groups": 0}
    lockstep, exact = entropies._guessing_pd, entropies._exact_guess

    def guarded_lockstep(blocks, iters):
        if blocks.shape[1] <= 2 or blocks.shape[2] <= 2:
            raise AssertionError(f"the lockstep solver got (P, N, k, k) = {blocks.shape}")
        routes["lockstep"] += len(blocks)
        routes["groups"] += 1
        return lockstep(blocks, iters)

    def counted_exact(blocks, iters):
        routes["exact"] += 1
        return exact(blocks, iters)

    monkeypatch.setattr(entropies, "_guessing_pd", guarded_lockstep)
    monkeypatch.setattr(entropies, "_exact_guess", counted_exact)
    assert run_suite(load_config("paper-table-1"), seed=42).all_pass
    assert routes["exact"] > 0 and routes["lockstep"] > routes["groups"] > 0


# -- the lockstep primal-dual solver ----------------------------------------------

def _pd_problems(count, seed):
    """(N, k, k) stacks with k = 3..8, N = 3..32 and a PD sum of unit trace.

    Each block is a random mixed or pure (rank-1) state times a random
    weight, a pure state of weight 1e-6, or an identical or a scaled copy of
    an earlier block.  Every seventh stack is scaled by 1e-6 as a whole.
    """
    rng = np.random.default_rng(seed)
    problems = []
    while len(problems) < count:
        k, n = 3 + len(problems) % 6, int(rng.integers(3, 33))
        blocks = []
        for _ in range(n):
            kind = int(rng.integers(5)) if blocks else int(rng.integers(2))
            if kind < 2:
                blocks.append((random_density, random_pure_state)[kind](k, rng)
                              * (rng.random() + 1e-3))
            elif kind == 2:
                blocks.append(1e-6 * random_pure_state(k, rng))
            else:
                earlier = blocks[int(rng.integers(len(blocks)))]
                blocks.append(earlier if kind == 3 else earlier * rng.random())
        stack = np.array(blocks, dtype=complex)
        total = _block_sum(stack)
        if np.linalg.eigvalsh(total)[0] > 1e-9 * np.trace(total).real:
            scale = 1e-6 if len(problems) % 7 == 3 else 1.0
            problems.append(stack * (scale / np.trace(total).real))
    return problems


def test_pd_problems_cover_the_cases():
    problems = _pd_problems(200, seed=70)
    assert {p.shape[1] for p in problems} == set(range(3, 9))
    assert min(len(p) for p in problems) == 3 and max(len(p) for p in problems) >= 30
    ranks = [np.linalg.matrix_rank(b, tol=1e-9 * np.abs(b).max()) for p in problems for b in p]
    assert 1 in ranks
    assert any(len({b.tobytes() for b in p}) < len(p) for p in problems)
    assert sum(np.trace(_block_sum(p)).real < 1e-5 for p in problems) >= 25


def _interval(y, p_primal, blocks):
    """[value, value + gap] in bits of a projected solve, as ``h_min_cond`` reports it."""
    assert p_primal > 0
    return -np.log2(np.trace(_dominating(y[None], blocks[None])[0]).real), -np.log2(p_primal)


def test_lockstep_solver_brackets_the_barrier():
    for i, blocks in enumerate(_pd_problems(200, seed=70)):
        (y, p_primal, iterations), = _guessing_pd(blocks[None], 500)
        low, high = _interval(y, p_primal, blocks)
        barrier_low, barrier_high = _interval(*_guessing_barrier(blocks, 500)[:2], blocks)
        assert iterations < 500 and high - low <= 1e-9, f"problem {i}"
        assert low <= barrier_high + ROUNDING_BITS, f"problem {i}"
        assert barrier_low <= high + ROUNDING_BITS, f"problem {i}"


def _mixed_h_min_states():
    """Classical states, then states that the exact routes take (k = 1, N <= 2, k = 2),
    interleaved with lockstep ones of repeated projected shapes (N, k) = (4, 3), (8, 3)
    and (5, 4); one (4, 3) state has a rank-deficient rho_B on a 4-dimensional side."""
    rng = np.random.default_rng(2032)
    diagonal = {(0,): np.diag([0.25, 0.1]), (1,): np.diag([0.05, 0.6])}
    states = [random_cq_state(2, 1, rng), CqState(2, diagonal)]
    shapes = [(4, 3, 3), (3, 3, 1), (8, 3, 3), (2, 3, 3), (4, 3, 3), (5, 4, 4), (1, 3, 3),
              (4, 2, 2), (8, 3, 3), (4, 4, 3), (5, 4, 4), (4, 3, 3)]
    for n_sym, dim, rank in shapes:
        make = (_low_rank_pure(dim, rank, rng) if rank < dim
                else functools.partial(random_density, dim, rng))
        syms = [index_to_bits(int(i), 3) for i in sorted(rng.choice(8, n_sym, replace=False))]
        weights = rng.random(n_sym) + 1e-3
        states.append(build_cq(dict(zip(syms, (weights / weights.sum()).tolist())),
                               {sym: make() for sym in syms}))
    return states


def _lockstep_shape(state):
    basis = _support_basis(marginal_side(state))
    shape = (len(state.blocks), basis.shape[1])
    return shape if min(shape) >= 3 and not _is_classical(state) else None


@pytest.mark.parametrize("iters", [500, 1, 2])
def test_h_min_cond_many_is_each_states_own_solve(iters):
    states = _mixed_h_min_states()
    shapes = [_lockstep_shape(s) for s in states]
    assert [shapes.count(shape) for shape in ((4, 3), (8, 3), (5, 4))] == [4, 2, 2]
    assert sum(_is_classical(s) for s in states) == 2
    want = [h_min_cond(state, iters) for state in states]
    for order in (list(range(len(states))), list(range(len(states)))[::-1],
                  [*range(len(states)), 2, 6, 2, 13]):
        got = h_min_cond_many([states[i] for i in order], iters)
        for i, res in zip(order, got, strict=True):
            assert _same_result(res, want[i]), i
    for res, shape in zip(want, shapes):
        if shape is not None and iters < 500:
            assert res.iterations == iters and not res.converged
        assert res.converged or iters < 500
    assert h_min_cond_many([], iters) == []


@pytest.mark.parametrize("count, n, k", [(200, 6, 3), (24, 9, 8)])
def test_a_members_solve_does_not_depend_on_its_group(count, n, k):
    rng = np.random.default_rng(300 + k)
    group = np.array([[random_density(k, rng) * (rng.random() + 1e-3) for _ in range(n)]
                      for _ in range(count)])
    together = _guessing_pd(group, 500)
    for j in (0, count // 2 + 7, count - 1):
        (alone,) = _guessing_pd(group[j:j + 1], 500)
        assert _barrier_bytes(together[j]) == _barrier_bytes(alone), j


def _poisoned_linalg(name, member, call):
    """``_umath_linalg``'s gufuncs, but the ``call``-th call of ``name`` fills member
    ``member``'s result with NaN, as a failed factorisation or solve does."""
    real = getattr(_umath_linalg, name)
    calls = []

    def poisoned(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(name)
        if len(calls) == call:
            out[member] = np.nan
        return out

    gufuncs = {f: getattr(_umath_linalg, f) for f in ("inv", "solve1", "cholesky_lo")}
    return types.SimpleNamespace(**{**gufuncs, name: poisoned})


@pytest.mark.parametrize("name, call", [("cholesky_lo", 3), ("solve1", 5)],
                         ids=["cholesky", "solve"])
def test_a_failed_member_leaves_with_a_sound_result(monkeypatch, name, call):
    """Member 1 fails in the third iteration; it leaves with its best iterate,
    certified by ``_dominating``, and no other member's result moves."""
    rng = np.random.default_rng(81)
    group = np.array([[random_density(3, rng) * (rng.random() + 1e-3) for _ in range(5)]
                      for _ in range(4)])
    clean = _guessing_pd(group, 500)
    assert min(steps for _, _, steps in clean) > 3
    monkeypatch.setattr(entropies, "_umath_linalg", _poisoned_linalg(name, 1, call))
    with np.errstate(invalid="raise"):
        hit = _guessing_pd(group, 500)
    for j in (0, 2, 3):
        assert _barrier_bytes(hit[j]) == _barrier_bytes(clean[j]), j
    y, p_primal, steps = hit[1]
    assert steps == 3 and p_primal == 0.0
    certified = _dominating(y[None], group[1][None])[0]
    assert _lowest_slack(certified, group[1]) >= 0.0
    clean_low, clean_high = _interval(*clean[1][:2], group[1])
    assert -np.log2(np.trace(certified).real) <= clean_high + ROUNDING_BITS


def test_failures_are_nan_under_the_lockstep_errstate():
    mixed = np.array([np.eye(2), np.diag([1.0, -1.0])], dtype=complex)
    with np.errstate(invalid="raise"):
        factors = _failures_as_nan(_umath_linalg.cholesky_lo)(mixed, signature="D->D")
    assert np.array_equal(factors[0], np.eye(2)) and np.isnan(factors[1]).all()


def test_stacked_pgm_start_is_the_per_state_start():
    problems = [p for p in _pd_problems(60, seed=71) if p.shape == (p.shape[0], 3, 3)]
    width = max(len(p) for p in problems)
    for n in {len(p) for p in problems}:
        group = np.array([p for p in problems if len(p) == n])
        ys, ts = _pgm_start(group)
        for j, blocks in enumerate(group):
            y, t = _per_state_pgm_start(blocks)
            assert ys[j].tobytes() == y.tobytes() and ts[j] == t, (n, j)
    assert width >= 20
