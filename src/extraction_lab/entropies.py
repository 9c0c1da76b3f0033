"""Min-entropy and collision entropy, relative and optimized, base 2.

The relative quantities H_min(rho|sigma) and H_2(rho|sigma) are exact
spectral evaluations.  The optimized quantities sup_sigma are computed by
deterministic solvers that only ever return *achieved* values, so the
reported entropy is a sound lower bound on the true supremum regardless
of convergence.

For H_min the solver works on the guessing-probability SDP
p_guess = min tr Y subject to Y >= rho_x for every x, with
h_min_cond = -log2 p_guess (Koenig, Renner, Schaffner, IEEE TIT 55(9),
2009).  A log-barrier interior-point method minimises
t tr Y - sum_x log det(Y - rho_x) on the blocks projected onto the support
of rho_B, one batched Newton step at a time, multiplying t by 8 whenever
the iterate is centred.  It starts at the pretty-good measurement: Y at
that measurement's Lagrange operator sum_x rho_x E_x, shifted to dominate
every block strictly, and t where the barrier's duality gap equals the
start's measured gap, so few steps are spent far from the optimum.  The
value comes from the dual Y, made rigorous in
floating point: lambda_min(Y - rho_x) minus a rounding bound for eigvalsh
must be non-negative for every block, else Y is shifted by that much
times the identity.  The barrier's measurements S_x^{-1}/t, renormalised
to a POVM, give the primal bound; the gap between the two is reported on
the result.

Each Newton step factors and inverts the N slacks Y - rho_x and solves one
k^2 x k^2 system.  At k <= 6 the np.linalg wrappers' per-call work (a dtype
check and an errstate of their own) costs more than LAPACK does, so the
barrier calls the gufuncs behind ``inv``, ``solve`` and ``cholesky`` directly,
with the same results bit for bit.  It enters one errstate per solve,
``_lapack_errors``: invalid='call' with a handler that raises LinAlgError,
so a failed Cholesky still halves the step.  The errstate covers the whole
barrier, so any invalid operation inside a solve, in LAPACK or not, raises
LinAlgError.  The gufuncs clear every floating-point flag but invalid, so
only invalid needs a setting: the caller's other settings hold inside the
solve, and all of them after it.
numpy keeps errstate in a context variable, so threads each see their own.
The eigen calls stay on np.linalg, where a tracer that wraps np.linalg
still counts them.

For H_2 the solver minimises the sandwiched Renyi-2 quasi-entropy
f(sigma) = sum_x tr(sigma^-1/2 rho_x sigma^-1/2 rho_x), convex in sigma
(Frank and Lieb, J. Math. Phys. 54, 122201, 2013), on the same projected
blocks, with a damped fixed point from rho_B / tr rho_B.  Convexity makes
the linearisation at every iterate a lower bound on min f (a Frank-Wolfe
certificate); the value is H_2 relative to the best iterate, and the gap is
the bound's entropy minus that value.  Restricting sigma to supp rho_B loses
nothing: the pinching X -> P X P + tr((1 - P) X) tau fixes every rho_x and,
by data processing, can only improve sigma.  ``h2_cond_many`` solves many
states at once: those whose rho_B has the same support rank k run one
stacked fixed point over their (N, k, k) blocks, zero-padded to the largest
N, so each step costs a few numpy calls for the whole group instead of a few
per state, with every state's result bit for bit its own solve's.
``h2_cond`` is ``h2_cond_many`` of one state.

Classical side information is handled by one exact closed form.  Kernel
violations return -inf, mirroring the definition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cq_states import CqState, _block_sum, _traces, marginal_side, padded_stacks
from .operators import (
    _diagonal,
    _herm,
    _kernel_mask,
    _sigma_powers,
    _spectral_power,
    _trusted_psd_eigh,
    probability_vector,
)

NEG_INF = float("-inf")
SOLVER_SIDE_CAP = 16
CONVERGED_GAP_BITS = 1e-6
SOLVER_TOL = 1e-10         # relative gap target; ~1e-8 bits is reached at BARRIER_T_CAP
BARRIER_GROWTH = 8.0       # t grows by this factor at each centred iterate
BARRIER_T_CAP = 1e13       # past this t, S_x^{-1} is dominated by rounding
CENTRED = 1e-6             # Newton decrement^2 at which an iterate counts as centred
NEAR_CENTRED = 1e-3        # decrement^2 below which the primal bound is evaluated
# eigvalsh is backward stable: the computed spectrum of Y - rho_x is exact
# for a matrix within ROUNDING_FACTOR * d * eps * (|Y|_F + |rho_x|_F) in
# spectral norm, which also covers forming the difference (Golub and Van
# Loan, Matrix Computations, 4th ed., 2013, section 8.1).
ROUNDING_FACTOR = 8.0


def h_min_classical(dist: dict) -> float:
    """Min-entropy -log2 max_x P(x) of a classical distribution."""
    return -float(np.log2(max(probability_vector(dist.values()))))


def h_min_rel(rho: CqState, sigma) -> float:
    """H_min of a cq-state relative to sigma, blockwise; -inf when ker(sigma) leaks into rho."""
    (inv_sqrt,), (leaks,) = _sigma_powers(np.asarray(sigma, dtype=complex)[None], -0.5,
                                          rho.stack[None])
    if leaks:
        return NEG_INF
    tops = np.linalg.eigvalsh(_herm(inv_sqrt @ rho.stack @ inv_sqrt))[:, -1]
    return -float(np.log2(max(0.0, float(tops.max()))))


def h2_rel(rho: CqState, sigma) -> float:
    """Collision entropy of a cq-state relative to sigma (blockwise form)."""
    (quarter,), (leaks,) = _sigma_powers(np.asarray(sigma, dtype=complex)[None], -0.25,
                                         rho.stack[None])
    if leaks:
        return NEG_INF
    conj = quarter @ rho.stack @ quarter
    return -float(np.log2(_block_sum(_traces(conj @ conj)) / rho.total_trace()))


@dataclass(frozen=True)
class EntropyResult:
    """An achieved entropy, the sigma achieving it, its gap in bits and the solver's steps.

    ``gap`` bounds the shortfall of ``value`` to the true supremum; it is
    0.0, with ``iterations`` 0, for a closed form.
    """

    value: float
    sigma: np.ndarray
    gap: float
    iterations: int

    @property
    def converged(self) -> bool:
        return self.gap <= CONVERGED_GAP_BITS


def _is_classical(state: CqState) -> bool:
    return state.side_dim == 1 or _diagonal(state.stack)


def _closed_form(state: CqState, order: int) -> EntropyResult | None:
    """The side cap, then the exact H_min (order 1) or H_2 (order 2) of a classical side register.

    With w the per-column max of the blocks' diagonals (order 1), or the
    root of their sum of squares (order 2), sigma = diag(w) / sum w and the
    value is -order log2 sum w.  None for a quantum side register.
    """
    if state.side_dim > SOLVER_SIDE_CAP:
        raise ValueError(f"side_dim {state.side_dim} exceeds solver cap {SOLVER_SIDE_CAP}")
    if not _is_classical(state):
        return None
    diags = np.diagonal(state.stack, axis1=-2, axis2=-1).real
    w = diags.max(axis=0) if order == 1 else np.sqrt((diags ** 2).sum(axis=0))
    total = float(w.sum())
    sigma = np.diag(w / total).astype(complex)
    return EntropyResult(-order * float(np.log2(total)), sigma, 0.0, 0)


def _support_basis(rho_b: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(rho_b)
    return v[:, ~_kernel_mask(w)]


def h_min_cond(state: CqState, iters: int = 500) -> EntropyResult:
    """Conditional min-entropy sup_sigma H_min(rho|sigma).

    Exact for classical side registers.  Otherwise the guessing-probability
    SDP is solved by a log-barrier method: ``iters`` caps its Newton steps
    (``result.iterations`` counts them) and ``SOLVER_TOL`` is the target
    relative gap between the dual and primal guessing probabilities; it
    also stops once t passes ``BARRIER_T_CAP``, where rounding dominates and
    gaps up to 3.3e-9 bits were measured, so about 1e-8 bits is what can be
    reached and ``converged`` is not at risk.  ``result.value`` is from a
    dual Y that dominates every block in exact arithmetic, so it is sound
    whether or not the solver converged; ``result.gap`` bounds the
    shortfall to the true supremum in bits and ``result.sigma`` is Y / tr Y.
    """
    return _closed_form(state, 1) or _h_min_solver(state, iters)


def _h_min_solver(state: CqState, iters: int) -> EntropyResult:
    basis = _support_basis(marginal_side(state))
    y, p_primal, steps = _guessing_barrier(basis.conj().T @ state.stack @ basis, iters)
    y = _dominating(basis @ y @ basis.conj().T, state.stack)
    p_dual = float(y.trace().real)
    value = -float(np.log2(p_dual))
    upper = -float(np.log2(p_primal)) if p_primal > 0 else float("inf")
    return EntropyResult(value, y / p_dual, max(upper - value, 0.0), steps)


# numpy's private gufunc module: the LAPACK calls behind np.linalg.inv, solve
# and cholesky, without the wrappers' per-call cost (see the module
# docstring).  Only the barrier below calls it, always under _lapack_errors.
from numpy.linalg import _umath_linalg  # noqa: E402


def _lapack_failed(err, flag):
    raise np.linalg.LinAlgError("invalid floating-point result in the min-entropy barrier")


# As a decorator, np.errstate keeps its state per call, so threads may share it.
_lapack_errors = np.errstate(invalid="call", call=_lapack_failed)


@_lapack_errors
def _guessing_barrier(blocks: np.ndarray, iters: int):
    """Barrier method for min tr Y s.t. Y > blocks[x]; blocks are (N, k, k), sum PD.

    Starts at ``_pgm_start``; after each increase of t the line search
    starts at 1 / BARRIER_GROWTH of the Newton step.  Returns the feasible
    Y of least trace, the best primal guessing probability and the number
    of Newton steps.
    """
    n, k = blocks.shape[0], blocks.shape[1]
    rhs = np.empty((k * k, 2), dtype=complex)
    rhs[:, 1] = np.eye(k).ravel()
    y, t = _pgm_start(blocks)
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


def _pgm_start(blocks: np.ndarray):
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


def _dominating(y: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """``y`` plus the least multiple of I that provably dominates every block.

    The smallest eigenvalue of each y - rho_x, less the eigvalsh rounding
    bound, must be non-negative; if it is not, y is shifted by its negation.
    """
    d = y.shape[0]
    lowest = np.linalg.eigvalsh(y - stack)[:, 0]
    rounding = ROUNDING_FACTOR * d * np.finfo(float).eps * (
        np.linalg.norm(y) + np.linalg.norm(stack, axis=(1, 2)))
    shift = -float((lowest - rounding).min())
    return y + shift * np.eye(d) if shift > 0 else y


def h2_cond(state: CqState, iters: int = 500) -> EntropyResult:
    """Conditional collision entropy sup_sigma H_2(rho|sigma): :func:`h2_cond_many` of one state.

    Exact for classical side registers.  Otherwise sigma minimises the
    convex f(sigma) = sum_x tr(sigma^-1/2 rho_x sigma^-1/2 rho_x) over
    density operators on supp rho_B, with h2 = -log2(f / tr rho).  From
    sigma = rho_B / tr rho_B the damped fixed point
    sigma <- sigma / 2 + Phi^(2/3) / (2 tr Phi^(2/3)), with
    Phi = sum_x rho_x sigma^-1/2 rho_x, runs until the least f found and the
    best Frank-Wolfe lower bound on min f agree within ``SOLVER_TOL``,
    or for ``iters`` iterates (``result.iterations`` counts them).
    ``result.value`` is ``h2_rel`` at the best sigma, an achieved value,
    and ``result.gap`` bounds its shortfall to the true supremum in bits.
    """
    return h2_cond_many([state], iters)[0]


def h2_cond_many(states, iters: int = 500) -> list[EntropyResult]:
    """:func:`h2_cond` of each of ``states``, in order, from one stacked fixed point per rank.

    Classical side registers take the closed form.  The other states are
    projected onto supp rho_B and grouped by its rank k; each group's
    (N, k, k) blocks are zero-padded to the group's largest N and iterated
    together by :func:`_collision_fixed_point`, whose results are, bit for
    bit, those of a group of one.  ``h2_rel`` then scores each best sigma
    on its own state.
    """
    results = [_closed_form(state, 2) for state in states]
    groups = {}     # support rank -> [(index into states, support basis, projected blocks)]
    for i, state in enumerate(states):
        if results[i] is None:
            basis = _support_basis(marginal_side(state))
            groups.setdefault(basis.shape[1], []).append(
                (i, basis, basis.conj().T @ state.stack @ basis))
    for members in groups.values():
        width = max(len(blocks) for _, _, blocks in members)
        padded, _ = padded_stacks([(blocks, np.arange(len(blocks))) for _, _, blocks in members],
                                  width)
        for (i, basis, blocks), (sigma, f_lower, steps) in zip(
                members, _collision_fixed_point(padded, iters)):
            total = float(_block_sum(_traces(blocks)))
            sigma_full = basis @ sigma @ basis.conj().T
            value = h2_rel(states[i], sigma_full)
            upper = -float(np.log2(f_lower / total)) if f_lower > 0 else float("inf")
            results[i] = EntropyResult(value, sigma_full, max(upper - value, 0.0), steps)
    return results


def _collision_fixed_point(blocks: np.ndarray, iters: int) -> list:
    """The fixed point of ``h2_cond`` on a (P, N, k, k) stack: P members, each of N
    blocks (zero blocks pad a member's own N) whose sum is PD.

    At sigma = V diag(lambda) V^dag, with s = sqrt(lambda), f = tr(sigma^-1/2 Phi)
    and G = 2 V [(V^dag Phi V)_ij / (s_i s_j (s_i + s_j))] V^dag is -grad f
    (a Daleckii-Krein divided difference).  As tr(G sigma) = f, convexity
    gives min f >= 2 f - lambda_max(G); lambda_max is read in sigma's
    eigenbasis.  Every step is one stacked call over the members still
    running.  A member leaves the stack when its least f and best bound
    agree within ``SOLVER_TOL``, after ``iters`` iterates, or when its
    sigma loses rank.  Returns per member the sigma of least f, the best
    lower bound and the number of iterates evaluated.
    """
    count = len(blocks)
    rho_b = _block_sum(blocks, axis=1)
    sigma = rho_b / _traces(rho_b)[:, None, None]
    best_sigma = sigma.copy()
    f_best, f_lower = np.full(count, np.inf), np.full(count, -np.inf)
    steps = np.zeros(count, dtype=int)
    live = np.arange(count)     # the members still in the stack
    step = 0
    while live.size and step < iters:
        step += 1
        w, v = _trusted_psd_eigh(sigma)
        lost = w[:, 0] <= 0
        if lost.any():
            steps[live[lost]] = step
            live, sigma, blocks, w, v = (a[~lost] for a in (live, sigma, blocks, w, v))
            if not live.size:
                break
        s = np.sqrt(w)
        v_dag = v.conj().swapaxes(-1, -2)
        inv_sqrt = (v / s[:, None, :]) @ v_dag
        phi = _herm(_block_sum(blocks @ inv_sqrt[:, None] @ blocks, axis=1))
        phi_v = v_dag @ phi @ v
        f = (np.diagonal(phi_v, axis1=-2, axis2=-1).real / s).sum(axis=-1)
        neg_grad = 2.0 * phi_v / (s[:, :, None] * s[:, None, :] * (s[:, :, None] + s[:, None, :]))
        f_lower[live] = np.maximum(f_lower[live], 2.0 * f - np.linalg.eigvalsh(neg_grad)[:, -1])
        better = f < f_best[live]
        f_best[live[better]], best_sigma[live[better]] = f[better], sigma[better]
        done = (f_best[live] - f_lower[live] <= SOLVER_TOL * f_best[live]) | (step == iters)
        if done.any():
            steps[live[done]] = step
            live, sigma, blocks, phi = (a[~done] for a in (live, sigma, blocks, phi))
            if not live.size:
                break
        prop = _spectral_power(*_trusted_psd_eigh(phi), 2.0 / 3.0)
        sigma = _herm(0.5 * sigma + 0.5 * prop / _traces(prop)[:, None, None])
    return list(zip(best_sigma, f_lower, steps.tolist()))
