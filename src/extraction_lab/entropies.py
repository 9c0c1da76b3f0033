"""Min-entropy and collision entropy, relative and optimized, base 2.

The relative quantities H_min(rho|sigma) and H_2(rho|sigma) are exact
spectral evaluations.  The optimized quantities sup_sigma are computed by
deterministic solvers that only ever return *achieved* values, so the
reported entropy is a sound lower bound on the true supremum regardless
of convergence.

For H_min the solver works on the guessing-probability SDP
p_guess = min tr Y subject to Y >= rho_x for every x, with
h_min_cond = -log2 p_guess (Koenig, Renner, Schaffner, IEEE TIT 55(9),
2009), on the N blocks projected onto the k-dimensional support of rho_B.
Where the SDP is tiny it has an exact solution (``_exact_guess``): for
k = 1, Y = max_x rho_x; for N <= 2, Helstrom's
Y = (rho_0 + rho_1 + |rho_0 - rho_1|) / 2; for k = 2, writing
rho_x = a_x I + b_x.sigma, p_guess is twice the radius of the smallest
ball enclosing the Bloch balls B(b_x, a_x) (Bae, New J. Phys. 15, 073037,
2013), found by deterministic pivoting over supports of at most four
balls.  Each returns the measurement that attains it: the argmax, the
projector onto the positive part of rho_0 - rho_1, or
Pi_x = mu_x (I - u_x.sigma) from the ball's support.  Every other problem,
k >= 3 with N >= 3, goes to the primal-dual method below.  Whichever solved
it, Y is lifted back and made to dominate as described below, and the gap
to the renormalised measurement is measured, never assumed.

The primal-dual method (Mehrotra's predictor-corrector, SIAM J. Optim. 2,
1992, in the HKM direction of Helmberg, Rendl, Vanderbei and Wolkowicz,
SIAM J. Optim. 6, 1996) moves Y and the measurement E_x together on the
blocks projected onto the support of rho_B.  It starts at the pretty-good
measurement: Y at that measurement's Lagrange operator sum_x rho_x E_x,
shifted to dominate every block strictly, so few iterations are spent far
from the optimum.  Each iteration solves one k^2 x k^2 system twice, and
has no line search: the step goes a fixed fraction of the way to the
boundary, which one stacked Cholesky and eigvalsh place.  So every
iteration is the same few numpy calls for every member, and
``h_min_cond_many`` runs the problems of one projected shape (N, k) in
lockstep, with every member's result bit for bit its own solve's.  The
value comes from the dual Y, made rigorous in floating point:
lambda_min(Y - rho_x) minus a rounding bound for eigvalsh must be
non-negative for every block, else Y is shifted by that much times the
identity.  The iterate's E, renormalised to a POVM, gives the primal
bound; the gap between the two is reported on the result.

At k <= 6 the np.linalg wrappers' per-call work (a dtype check and an
errstate of their own) costs more than LAPACK does, so the solver calls the
gufuncs behind ``inv``, ``solve`` and ``cholesky`` directly, with the same
results bit for bit.  It enters one errstate per call, ``_failures_as_nan``,
which ignores invalid: a factorisation or solve that fails fills its
member's result with NaN and raises nothing, and the member, tested on its
own, leaves the stack with its best iterate.  The gufuncs clear every
floating-point flag but invalid, so only invalid needs a setting: the
caller's other settings hold inside the solve, and all of them after it.
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

import itertools
import math
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
    tensor,
)

NEG_INF = float("-inf")
SOLVER_SIDE_CAP = 16
CONVERGED_GAP_BITS = 1e-6
SOLVER_TOL = 1e-10         # relative gap target of the solvers
PIVOT_TOL = 1e-13          # a Bloch ball sticking out by this times the radius counts as held
FRACTION_TO_BOUNDARY = 0.98    # a primal-dual step goes this far to the edge of the PSD cone
# eigvalsh is backward stable: the computed spectrum of Y - rho_x is exact
# for a matrix within ROUNDING_FACTOR * d * eps * (|Y|_F + |rho_x|_F) in
# spectral norm, which also covers forming the difference (Golub and Van
# Loan, Matrix Computations, 4th ed., 2013, section 8.1).
ROUNDING_FACTOR = 8.0
# sigma_x, sigma_y, sigma_z: a qubit operator is rho = a I + b.sigma with a = tr rho / 2 and
# b_i = tr(rho sigma_i) / 2.
_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_PAULI.setflags(write=False)


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
    0.0, with ``iterations`` 0, for the classical closed form.  The exact
    guessing-probability solutions (k <= 2 or N <= 2) measure their gap
    as the primal-dual method does, at the level of rounding, and count
    their pivots as ``iterations`` (none for k = 1 or N <= 2).
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
    """Conditional min-entropy sup_sigma H_min(rho|sigma): :func:`h_min_cond_many` of one state.

    Exact for classical side registers.  Otherwise the guessing-probability
    SDP is projected onto the k-dimensional support of rho_B.  With N
    blocks, k <= 2 or N <= 2 has an exact solution (``_exact_guess``: the
    largest block, Helstrom, or the Bloch-ball solver, whose pivots
    ``iters`` caps and ``result.iterations`` counts).  Every other problem
    is solved by a primal-dual method: ``iters`` caps its iterations
    (``result.iterations`` counts them) and ``SOLVER_TOL`` is the target
    relative gap between the dual and primal guessing probabilities.
    ``result.value`` is from a dual Y that dominates every block in exact
    arithmetic, so it is sound whether or not the solver converged;
    ``result.gap`` bounds the shortfall to the true supremum in bits and
    ``result.sigma`` is Y / tr Y.
    """
    return h_min_cond_many([state], iters)[0]


def h_min_cond_many(states, iters: int = 500) -> list[EntropyResult]:
    """:func:`h_min_cond` of each of ``states``, in order, from one lockstep solve per shape.

    Classical side registers take the closed form.  The other states are
    projected onto supp rho_B; those with k <= 2 or N <= 2 are solved
    exactly one by one, and the rest are grouped by their projected shape
    (N, k) and solved together by :func:`_guessing_pd`, whose results are,
    bit for bit, those of a group of one.
    """
    results = [_closed_form(state, 1) for state in states]
    quantum = [i for i, result in enumerate(results) if result is None]
    for i, result in zip(quantum, _h_min_solver([states[i] for i in quantum], iters)):
        results[i] = result
    return results


def h_min_markov_sources(scenarios, iters: int = 500) -> list[tuple]:
    """(H_min(X1|C), H_min(X2|C)) of each :class:`MarkovScenario`, composed from its blocks.

    C is the direct sum over blocks j of C1^j (x) C2^j, laid out as in
    :func:`markov_block_state`, and X1's conditional is (+)_j w_j rho^j_{x1} (x)
    rho^j_{C2}.  One :func:`h_min_cond_many` solves every factor.  If Y_j
    dominates each rho^j_{x1}, Y = (+)_j w_j Y_j (x) rho^j_{C2} dominates each
    conditional, as (Y_j - rho^j_{x1}) (x) rho^j_{C2} is PSD, and
    tr Y = sum_j w_j 2^-value_j, as tr rho^j_{C2} = 1: the value, with
    sigma = Y / tr Y.  Reading j and then measuring as block j's solve does
    guesses with sum_j w_j 2^-(value_j + gap_j), which gives the gap.  X2 is
    the same with rho^j_{C1} (x) Y_j.
    """
    solved = iter(h_min_cond_many([f for scn in scenarios for pair in scn.factors for f in pair],
                                  iters))
    results = [[(next(solved), next(solved)) for _ in scn.factors] for scn in scenarios]
    return [(_block_composed(scn, res, 0), _block_composed(scn, res, 1))
            for scn, res in zip(scenarios, results)]


def _block_composed(scenario, results: list, source: int) -> EntropyResult:
    """X1's (``source`` 0) or X2's (1) result from each block's pair of factor ``results``."""
    ys, dual, primal = [], 0.0, 0.0
    for w, pair, res in zip(scenario.weights, scenario.factors, (r[source] for r in results)):
        y, other = 2.0 ** -res.value * res.sigma, marginal_side(pair[1 - source])
        ys.append(w * (tensor(y, other) if source == 0 else tensor(other, y)))
        dual += w * 2.0 ** -res.value
        primal += w * 2.0 ** -(res.value + res.gap)
    y = np.zeros((sum(map(len, ys)),) * 2, dtype=complex)
    for lo, block in zip(itertools.accumulate(map(len, ys), initial=0), ys):
        y[lo:lo + len(block), lo:lo + len(block)] = block
    value, upper = -math.log2(dual), -math.log2(primal) if primal > 0 else math.inf
    return EntropyResult(value, y / y.trace().real, max(upper - value, 0.0),
                         sum(r[source].iterations for r in results))


def _h_min_solver(states: list, iters: int) -> list[EntropyResult]:
    """The certified min-entropy of each of ``states``, whatever its side register."""
    bases = [_support_basis(marginal_side(state)) for state in states]
    solved, groups = [None] * len(states), {}   # groups: projected shape -> [(index, blocks)]
    for i, (state, basis) in enumerate(zip(states, bases)):
        blocks = basis.conj().T @ state.stack @ basis
        n, k = blocks.shape[0], blocks.shape[1]
        if k <= 2 or n <= 2:
            solved[i] = _exact_guess(blocks, iters)
        else:
            groups.setdefault(blocks.shape, []).append((i, blocks))
    for members in groups.values():
        at, stacks = zip(*members)
        for i, result in zip(at, _guessing_pd(np.array(stacks), iters)):
            solved[i] = result
    return [_certified(state, basis, *result)
            for state, basis, result in zip(states, bases, solved)]


def _certified(state: CqState, basis: np.ndarray, y: np.ndarray, p_primal: float,
               steps: int) -> EntropyResult:
    """The result of a projected solve: Y lifted back and made to dominate, and the gap to
    the guessing probability ``p_primal`` of a measurement."""
    y = _dominating(basis @ y @ basis.conj().T, state.stack)
    p_dual = float(y.trace().real)
    value = -float(np.log2(p_dual))
    upper = -float(np.log2(p_primal)) if p_primal > 0 else float("inf")
    return EntropyResult(value, y / p_dual, max(upper - value, 0.0), steps)


def _exact_guess(blocks: np.ndarray, iters: int):
    """The guessing-probability SDP, solved exactly on (N, k, k) blocks with k <= 2 or N <= 2.

    Returns Y, the guessing probability of a measurement and the number of
    pivots, as ``_guessing_pd`` does per member.  k = 1: Y = max_x rho_x, guessed
    by its argmax.  N <= 2, with N = 1 padded by a zero block: Helstrom,
    Y = (rho_0 + rho_1 + |rho_0 - rho_1|) / 2, measured by the projector onto
    the positive part of rho_0 - rho_1.  k = 2: with rho_x = a_x I + b_x.sigma,
    the smallest ball enclosing the Bloch balls B(b_x, a_x) (``_bloch_ball``,
    at most ``iters`` pivots) and the measurement of its support.
    """
    n, k = blocks.shape[0], blocks.shape[1]
    pivots = 0
    if k == 1:
        best = int(np.argmax(blocks[:, 0, 0].real))
        y = _herm(blocks[best])
        povm = np.zeros_like(blocks)
        povm[best] = 1.0
    elif n <= 2:
        blocks = np.concatenate([blocks, np.zeros_like(blocks[:2 - n])])
        w, v = np.linalg.eigh(blocks[0] - blocks[1])
        plus, minus = v[:, w > 0], v[:, w <= 0]
        y = _herm(0.5 * (blocks[0] + blocks[1] + (v * np.abs(w)) @ v.conj().T))
        povm = np.stack([plus @ plus.conj().T, minus @ minus.conj().T])
    else:
        radii = 0.5 * np.trace(blocks, axis1=1, axis2=2).real
        centres = 0.5 * np.einsum("xij,aji->xa", blocks, _PAULI).real
        centre, radius, support, mu, u, pivots = _bloch_ball(radii, centres, iters)
        paulis = _PAULI.reshape(3, 4)
        y = radius * np.eye(2) + (centre @ paulis).reshape(2, 2)
        povm = np.zeros_like(blocks)
        povm[support] = mu[:, None, None] * (np.eye(2) - (u @ paulis).reshape(-1, 2, 2))
    return y, float(_povm_guess(povm, blocks)), pivots


def _povm_guess(povm: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Guessing probability of the POVM G^-1/2 povm_x G^-1/2, G = sum_x povm_x, for an
    (N, k, k) stack or each of a (P, N, k, k) stack; 0 where G is not PD.

    The value is a measurement's, whatever rounding or an unfinished solve
    has left in sum_x povm_x.
    """
    axis = povm.ndim - 3
    w, v = np.linalg.eigh(_block_sum(povm, axis))
    pd = w[..., 0] > 0
    root = np.sqrt(np.where(pd[..., None], w, 1.0))
    g_inv_sqrt = np.expand_dims((v / root[..., None, :]) @ v.conj().swapaxes(-1, -2), axis)
    return np.where(pd, _block_sum(_traces(g_inv_sqrt @ povm @ g_inv_sqrt @ blocks), axis), 0.0)


def _bloch_ball(radii: np.ndarray, centres: np.ndarray, iters: int):
    """The smallest ball enclosing the balls B(centres[x], radii[x]) of R^3, by pivoting.

    Y = c I + d.sigma dominates a_x I + b_x.sigma iff c - a_x >= |d - b_x|,
    that is iff B(d, c) holds B(b_x, a_x), so min tr Y is twice the least
    enclosing radius (Bae, New J. Phys. 15, 073037, 2013).  From the largest
    ball, each pivot takes the ball that sticks out most, by more than
    ``PIVOT_TOL`` times the radius, and ``_ball_basis`` re-solves the support
    with it, over subsets of at most four balls (as in Fischer and Gaertner,
    IJCGA 14, 2004).  The radius grows at every pivot, so no support recurs,
    and the order is fixed: no random draw.  It stops when no ball sticks out,
    after ``iters`` pivots, or when rounding leaves the ball that sticks out
    most in the support or no subset passing.

    Returns the centre, the radius, the support, weights mu >= 0 with
    sum mu = 1 and unit (or zero) vectors u with sum_x mu_x u_x = 0 on the
    support, and the pivots.  Pi_x = mu_x (I - u_x.sigma) is then a
    measurement whose guessing probability is twice the radius.
    """
    rad, cen = radii.tolist(), centres.tolist()
    first = int(np.argmax(radii))
    support, centre, radius, pivots = [first], centres[first], rad[first], 0
    mu, u = np.ones(1), np.zeros((1, 3))
    while pivots < iters:
        out = radii + np.sqrt(((centres - centre) ** 2).sum(axis=1)) - radius
        j = int(np.argmax(out))
        if out[j] <= PIVOT_TOL * radius or j in support:
            break
        basis = _ball_basis(support, j, rad, cen)
        if basis is None:
            break
        support, centre, radius, mu, u = basis
        pivots += 1
    return centre, radius, support, mu, u, pivots


def _ball_basis(support: list, j: int, rad: list, cen: list):
    """The smallest ball enclosing the balls of ``support`` and ball j, with its support.

    Ball j lies on it, so the subsets of ``support`` joined by j are tried,
    smallest first; the first tangent ball that holds every candidate is the
    one.  Ball j alone is never it: the enclosing radius, at least the
    largest of the radii, grows at each pivot.  None when rounding leaves no
    subset passing.
    """
    for size in range(1, min(len(support), 3) + 1):
        for rest in itertools.combinations(support, size):
            basis = _tangent_ball([j, *rest], rad, cen, support + [j])
            if basis is not None:
                return basis
    return None


def _tangent_ball(subset: list, rad: list, cen: list, held: list):
    """The ball tangent from inside to every ball of ``subset``, its centre a convex
    combination of theirs, if it holds every ball of ``held`` (within ``PIVOT_TOL``).

    These are the optimality conditions of the smallest ball holding ``held``,
    so that ball is returned, as ``_bloch_ball`` describes it; else None.
    With ball 0 the largest, m_i = b_i - b_0, delta_i = a_0 - a_i,
    r = c - a_0 and e = d - b_0 = sum_i lambda_i m_i, tangency is
    |e - m_i| = r + delta_i.  Subtracting |e| = r leaves
    sum_j lambda_j m_i.m_j = (|m_i|^2 - delta_i^2) / 2 - r delta_i, linear in
    lambda for each r, and |e| = r is then quadratic in r.
    """
    order = sorted(subset, key=lambda i: -rad[i])
    a0, b0 = rad[order[0]], cen[order[0]]
    ms = [[p - q for p, q in zip(cen[i], b0)] for i in order[1:]]
    deltas = [a0 - rad[i] for i in order[1:]]
    lams = _gram_solve([[_dot(p, q) for q in ms] for p in ms],
                       [[0.5 * (_dot(p, p) - dl * dl), -dl] for p, dl in zip(ms, deltas)])
    if lams is None:
        return None
    e0, e1 = (_combine([lam[col] for lam in lams], ms) for col in (0, 1))
    roots = _quadratic_roots(_dot(e1, e1) - 1.0, _dot(e0, e1), _dot(e0, e0))
    for r in sorted(max(root, 0.0) for root in roots if root >= -PIVOT_TOL * a0):
        lam = [l0 + r * l1 for l0, l1 in lams]
        nu = [1.0 - sum(lam)] + lam
        if not min(nu) >= -PIVOT_TOL:
            continue
        c, e = a0 + r, _combine(lam, ms)
        slack = PIVOT_TOL * c
        d = [p + q for p, q in zip(b0, e)]
        if not all(rad[i] + math.dist(d, cen[i]) <= c + slack for i in held):
            continue
        arms = [e] + [[p - q for p, q in zip(e, m)] for m in ms]     # d - b_i
        dists = [math.hypot(*arm) for arm in arms]
        if not all(abs(dist - r - dl) <= slack for dist, dl in zip(dists, [0.0] + deltas)):
            continue
        nu = [max(w, 0.0) for w in nu]
        weights = [w * dist for w, dist in zip(nu, dists)]
        if sum(weights) > 0:
            u = [[p / dist for p in arm] if dist > 0 else [0.0] * 3
                 for arm, dist in zip(arms, dists)]
        else:       # each weighted ball is the enclosing ball itself: Pi_x = mu_x I
            weights, u = nu, [[0.0] * 3] * len(nu)
        return order, np.array(d), c, np.array(weights) / sum(weights), np.array(u)
    return None


def _dot(p, q) -> float:
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def _combine(coefficients, vectors) -> list:
    """sum_i coefficients[i] vectors[i], for 3-vectors as lists."""
    total = [0.0, 0.0, 0.0]
    for c, (x, y, z) in zip(coefficients, vectors):
        total = [total[0] + c * x, total[1] + c * y, total[2] + c * z]
    return total


def _gram_solve(gram: list, rhs: list):
    """X with gram X = rhs, for a small Gram matrix and rhs given as lists of rows;
    elimination without pivoting, as a Gram matrix is PSD.  None when it is singular."""
    rows = [g + r for g, r in zip(gram, rhs)]
    size = len(rows)
    for i in range(size):
        if not rows[i][i] > 0:
            return None
        for row in rows[i + 1:]:
            f = row[i] / rows[i][i]
            row[i:] = [p - f * q for p, q in zip(row[i:], rows[i][i:])]
    x = [None] * size
    for i in reversed(range(size)):
        x[i] = [(b - sum(rows[i][j] * x[j][col] for j in range(i + 1, size))) / rows[i][i]
                for col, b in enumerate(rows[i][size:])]
    return x


def _quadratic_roots(alpha: float, beta: float, gamma: float) -> list:
    """The real roots of alpha r^2 + 2 beta r + gamma, by the cancellation-free formula;
    a negative discriminant is rounding's, so a double root is not lost."""
    q = -(beta + math.copysign(math.sqrt(max(beta * beta - alpha * gamma, 0.0)), beta))
    return ([q / alpha] if alpha else []) + ([gamma / q] if q else [])


# numpy's private gufunc module: the LAPACK calls behind np.linalg.inv, solve
# and cholesky, without the wrappers' per-call cost (see the module
# docstring).  Only the primal-dual solver below calls it, always under
# _failures_as_nan.
from numpy.linalg import _umath_linalg  # noqa: E402

# A failed factorisation or solve fills its result with NaN and raises the
# invalid flag; ignoring the flag leaves each member of a stack to be tested
# on its own.
_failures_as_nan = np.errstate(invalid="ignore")


@_failures_as_nan
def _guessing_pd(blocks: np.ndarray, iters: int) -> list:
    """min tr Y s.t. S_x = Y - rho_x >= 0 on a (P, N, k, k) stack: P members of N blocks
    each, whose sums are PD, solved together by a primal-dual method.

    The dual variables are the measurement operators E_x >= 0 with
    sum_x E_x = I, which the iterates meet only in the limit.  From
    ``_pgm_start``'s (Y0, t0) and E_x = herm(S_x^-1) / t0, each iteration
    factors every S_x and E_x by one stacked Cholesky, and takes a
    Mehrotra predictor-corrector step in the HKM direction
    dE_x = sigma mu S_x^-1 - E_x - herm(S_x^-1 dY E_x), where dY solves
    the k^2 x k^2 Schur system sum_x herm(S_x^-1 dY E_x) = sigma mu
    sum_x S_x^-1 - I.  The predictor (sigma = 0) steps to the boundary as
    the Wolkowicz-Styan bound lambda_min >= m - s sqrt(k - 1) on the
    spectrum of X^-1 D, from tr X^-1 D and tr (X^-1 D)^2, places it, and
    sets sigma = (mu_aff / mu)^3; the corrector adds the second-order term
    and steps ``FRACTION_TO_BOUNDARY`` of the way to the boundary, exactly,
    from lambda_min of L^-1 D L^-H.  Once sum_x tr(S_x E_x) is at most
    ``SOLVER_TOL`` tr Y, E is renormalised to a POVM and measured
    (``_povm_guess``).  A member leaves the stack when its least tr Y and
    best measurement agree within ``SOLVER_TOL``, after ``iters``
    iterations, or when a factorisation or solve of its own fails (NaN).
    Every scalar is a member's own and sums over x add in slot order, so a
    member's result is, bit for bit, its solve in a stack of one.  Returns
    per member the feasible Y of least trace, the best measured guessing
    probability and the number of iterations.
    """
    n, k = blocks.shape[1], blocks.shape[-1]
    eye = np.eye(k)
    predictor_rhs = np.broadcast_to(-2.0 * eye.ravel().astype(complex), (len(blocks), k * k))
    y, t = _pgm_start(blocks)
    s = y[:, None] - blocks
    e = _herm(_umath_linalg.inv(s, signature="D->D")) / t[:, None, None, None]
    best_y, best_dual = y.copy(), _traces(y)
    best_primal = np.zeros(len(blocks))
    steps = np.zeros(len(blocks), dtype=int)
    live = np.arange(len(blocks))     # the members still in the stack
    step = 0
    while live.size and step < iters:
        step += 1
        chol = _umath_linalg.cholesky_lo(np.concatenate([s, e], axis=1), signature="D->D")
        failed = np.isnan(np.diagonal(chol, axis1=-2, axis2=-1).real).any(axis=(1, 2))
        if failed.any():
            steps[live[failed]] = step
            live, y, s, e, blocks, chol = (a[~failed] for a in (live, y, s, e, blocks, chol))
            if not live.size:
                break
        tr_y = _traces(y)
        better = tr_y < best_dual[live]
        best_dual[live[better]], best_y[live[better]] = tr_y[better], y[better]
        complementarity = _block_sum(_inner(s, e), axis=1)
        measure = (complementarity <= SOLVER_TOL * tr_y) | (step == iters)
        if measure.any():
            at = live[measure]
            best_primal[at] = np.maximum(best_primal[at], _povm_guess(e[measure], blocks[measure]))
            done = (best_dual[live] - best_primal[live] <= SOLVER_TOL * best_dual[live]) | (
                step == iters)
            if done.any():
                steps[live[done]] = step
                live, y, s, e, blocks, chol, complementarity = (
                    a[~done] for a in (live, y, s, e, blocks, chol, complementarity))
                if not live.size:
                    break
        l_inv = _umath_linalg.inv(chol, signature="D->D")
        l_inv_h = l_inv.conj().swapaxes(-1, -2)
        inverse = l_inv_h @ l_inv
        s_inv, e_inv = inverse[:, :n], inverse[:, n:]
        mu = complementarity / (n * k)
        # Schur matrix of X -> sum_x (S_x^-1 X E_x + E_x X S_x^-1) in row-major
        # vec form: sum_x (S_x^-1 (x) E_x^T + E_x (x) S_x^-T), from one product.
        outer = s_inv.reshape(-1, n, k * k).swapaxes(1, 2) @ e.reshape(-1, n, k * k)
        schur = (outer + outer.swapaxes(1, 2)).reshape(-1, k, k, k, k).transpose(
            0, 1, 4, 2, 3).reshape(-1, k * k, k * k)
        dy_a = _herm(_umath_linalg.solve1(schur, predictor_rhs[:len(live)],
                                          signature="DD->D").reshape(-1, k, k))
        s_inv_dy = s_inv @ dy_a[:, None]
        de_a = -e - _herm(s_inv_dy @ e)
        alpha_p, alpha_d = _bounded_steps(
            np.concatenate([s_inv_dy, e_inv @ de_a], axis=1).reshape(-1, 2, n, k, k))
        mu_aff = _block_sum(_inner(s + alpha_p[:, None, None, None] * dy_a[:, None],
                                   e + alpha_d[:, None, None, None] * de_a), axis=1) / (n * k)
        target = np.minimum(mu_aff / mu, 1.0) ** 3 * mu
        second = _herm(s_inv_dy @ de_a)
        rhs = 2.0 * (target[:, None, None] * _block_sum(s_inv, axis=1) - eye
                     - _block_sum(second, axis=1))
        dy = _herm(_umath_linalg.solve1(schur, rhs.reshape(-1, k * k),
                                        signature="DD->D").reshape(-1, k, k))
        failed = ~np.isfinite(dy).all(axis=(1, 2))
        if failed.any():
            steps[live[failed]] = step
            live, y, e, blocks, s_inv, l_inv, l_inv_h, second, target, dy = (
                a[~failed]
                for a in (live, y, e, blocks, s_inv, l_inv, l_inv_h, second, target, dy))
            if not live.size:
                break
        de = target[:, None, None, None] * s_inv - e - _herm(s_inv @ dy[:, None] @ e) - second
        lowest = np.linalg.eigvalsh(l_inv @ np.concatenate(
            [np.broadcast_to(dy[:, None], e.shape), de], axis=1) @ l_inv_h)[..., 0]
        alpha_p, alpha_d = (FRACTION_TO_BOUNDARY
                            / np.maximum(-low.min(axis=1), FRACTION_TO_BOUNDARY)
                            for low in (lowest[:, :n], lowest[:, n:]))
        y = y + alpha_p[:, None, None] * dy
        e = e + alpha_d[:, None, None, None] * de
        s = y[:, None] - blocks
    return list(zip(best_y, best_primal.tolist(), steps.tolist()))


def _bounded_steps(ratios: np.ndarray) -> np.ndarray:
    """Per member and variable, the step in [0, 1] along D that keeps every X_x + alpha D_x
    PSD, from ``ratios`` X_x^-1 D_x (P, V, N, k, k), whose spectra are real.

    The Wolkowicz-Styan bound lambda_min >= m - s sqrt(k - 1), with m the mean
    and s^2 the variance of the spectrum, takes tr X^-1 D and tr (X^-1 D)^2
    only (Wolkowicz and Styan, Linear Algebra Appl. 29, 1980).  Returns V
    arrays of P steps.
    """
    k = ratios.shape[-1]
    mean = _traces(ratios) / k
    square = (ratios * ratios.swapaxes(-1, -2)).real.sum(axis=(-2, -1))     # tr (X^-1 D)^2
    spread = np.sqrt(np.maximum(square / k - mean * mean, 0.0) * (k - 1))
    return 1.0 / np.maximum(-(mean - spread).min(axis=2), 1.0).T


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tr(a b) = sum_ij a_ij conj(b_ij) of each pair of Hermitian operators of two stacks."""
    return (a * b.conj()).real.sum(axis=(-2, -1))


def _pgm_start(blocks: np.ndarray):
    """Start (Y0, t0) of ``_guessing_pd`` from the pretty-good measurement, per member
    of a (P, N, k, k) stack.

    E_x = rho^-1/2 rho_x rho^-1/2 (Hausladen and Wootters, J. Mod. Opt. 41,
    1994) guesses with p_pgm >= p_guess^2 (Barnum and Knill, J. Math. Phys.
    43, 2002).  Its Lagrange operator L = sum_x rho_x E_x is the optimal Y
    when E is optimal (Holevo; Yuen, Kennedy and Lax); Y0 is L shifted to
    dominate every block strictly, and t0 makes the central-path gap
    N k / t0 equal the measured gap tr Y0 - p_pgm.
    """
    n, k = blocks.shape[1], blocks.shape[-1]
    inv_sqrt = _spectral_power(*np.linalg.eigh(_block_sum(blocks, axis=1)), -0.5)[:, None]
    pgm = inv_sqrt @ blocks @ inv_sqrt
    p_pgm = _block_sum(_traces(pgm @ blocks), axis=1)
    lagrange = _herm(_block_sum(blocks @ pgm, axis=1))
    shift = np.maximum(0.0, np.linalg.eigvalsh(blocks - lagrange[:, None])[..., -1].max(axis=1))
    slack = np.maximum(_traces(lagrange) + k * shift - p_pgm, 1e-12 * p_pgm)
    y = lagrange + (shift + slack / k)[:, None, None] * np.eye(k)
    return y, n * k / (_traces(y) - p_pgm)


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
