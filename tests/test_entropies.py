import dataclasses

import numpy as np
import pytest

from conftest import op_power, random_cq_state, random_density, random_distribution

from extraction_lab.cq_states import (
    CqState,
    apply_classical_function,
    build_cq,
    classical_state,
    marginal_side,
)
from extraction_lab.entropies import (
    CONVERGED_GAP_BITS,
    EntropyResult,
    _h_min_solver,
    _is_classical,
    h2_cond,
    h2_rel,
    h_min_classical,
    h_min_cond,
    h_min_rel,
)
from extraction_lab.gf2 import all_bit_vectors, gf2_matvec
from extraction_lab.harness.scenarios import make_side_info
from extraction_lab.operators import tensor
from extraction_lab.xor_analysis import pgm_stacks

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
KETPLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def bb84_state():
    return build_cq({(0,): 0.5, (1,): 0.5}, {(0,): KET0, (1,): KETPLUS})


def cc_closed_form_h_min(state):
    # sum_b P(b) max_x P(x|b), written on the subnormalized diagonals
    diags = np.array([np.diag(state.blocks[s]).real for s in state.symbols()])
    return -np.log2(diags.max(axis=0).sum())


def test_h_min_classical():
    assert h_min_classical({b: 1 / 4 for b in all_bit_vectors(2)}) == 2.0
    assert h_min_classical({(0,): 1.0}) == 0.0
    assert abs(h_min_classical({(0, 0): .5, (0, 1): .25, (1, 0): .25}) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        h_min_classical({(0,): 0.4})


def test_h_min_rel_uniform_times_state(rng):
    sigma = random_density(3, rng)
    st = build_cq({b: 0.25 for b in all_bit_vectors(2)},
                  {b: sigma for b in all_bit_vectors(2)})
    assert abs(h_min_rel(st, sigma) - 2.0) < 1e-9


def test_h_min_rel_flat_and_kernel():
    flat = classical_state({b: 0.25 for b in all_bit_vectors(2)})
    assert abs(h_min_rel(flat, np.ones((1, 1))) - 2.0) < 1e-12
    st = bb84_state()
    sigma = np.diag([1.0, 0.0]).astype(complex)   # kernel hits the |+> block
    assert h_min_rel(st, sigma) == float("-inf")


def test_h_min_rel_dense_agrees_with_blockwise(rng):
    st = random_cq_state(2, 2, rng, min_support=4)
    sigma = random_density(2, rng)
    dense = np.zeros((8, 8), dtype=complex)
    for i, sym in enumerate(st.symbols()):
        dense[i * 2:(i + 1) * 2, i * 2:(i + 1) * 2] = st.blocks[sym]
    # Dense oracle: -log2 lambda_max((I (x) sigma^-1/2) rho (I (x) sigma^-1/2)).
    big_inv = np.kron(np.eye(4), op_power(sigma, -0.5))
    dense_value = -np.log2(np.linalg.eigvalsh(big_inv @ dense @ big_inv)[-1])
    assert abs(h_min_rel(st, sigma) - dense_value) < 1e-9


def test_h_min_cond_product_state(rng):
    dist = random_distribution(2, rng)
    sigma = random_density(3, rng)
    st = build_cq(dist, {s: sigma for s in dist})
    res = h_min_cond(st)
    assert abs(res.value - h_min_classical(dist)) < 1e-7


def test_h_min_cond_matches_cc_closed_form(rng):
    from extraction_lab.cq_states import CqState
    for _ in range(10):
        st = random_cq_state(2, 3, rng, min_support=2)
        # dephase into a cc-state
        diag_blocks = {s: np.diag(np.diag(st.blocks[s])) for s in st.symbols()}
        ccst = CqState(side_dim=3, blocks=diag_blocks)
        exact = cc_closed_form_h_min(ccst)
        res = h_min_cond(ccst)
        assert abs(res.value - exact) < 1e-9
        # generic solver path must agree with the closed form
        (solver,) = _h_min_solver([ccst], 500)
        assert abs(solver.value - exact) < 1e-7


def test_h_min_cond_orthogonal_conditionals():
    st = build_cq({(0,): 0.5, (1,): 0.5},
                  {(0,): np.diag([1.0, 0.0]).astype(complex),
                   (1,): np.diag([0.0, 1.0]).astype(complex)})
    res = h_min_cond(st)
    assert abs(res.value) < 1e-9


def test_h_min_cond_bb84_helstrom(rng):
    res = h_min_cond(bb84_state())
    expected = -np.log2(0.5 + 0.5 / np.sqrt(2))
    assert abs(res.value - expected) < 1e-9
    assert res.converged
    # random-search oracle never beats the solver beyond tolerance
    st = bb84_state()
    best = max(h_min_rel(st, random_density(2, rng)) for _ in range(10000))
    assert best <= res.value + 1e-6
    assert res.value >= h_min_rel(st, marginal_side(st)) - 1e-9


def test_h2_rel_values():
    flat = classical_state({b: 1 / 8 for b in all_bit_vectors(3)})
    assert abs(h2_rel(flat, np.ones((1, 1))) - 3.0) < 1e-12
    st = classical_state({(0, 0): .5, (0, 1): .25, (1, 0): .25})
    assert abs(h2_rel(st, np.ones((1, 1))) + np.log2(3 / 8)) < 1e-12


def test_h2_rel_matches_dense_oracle(rng):
    for _ in range(10):
        st = random_cq_state(2, 2, rng, min_support=2)
        sigma = marginal_side(st)
        dense = np.zeros((len(st.symbols()) * 2,) * 2, dtype=complex)
        for i, sym in enumerate(st.symbols()):
            dense[i * 2:(i + 1) * 2, i * 2:(i + 1) * 2] = st.blocks[sym]
        w = tensor(np.eye(len(st.symbols())), op_power(sigma, -0.25))
        conj = w @ dense @ w
        oracle = -np.log2(np.trace(conj @ conj).real)
        assert abs(h2_rel(st, sigma) - oracle) < 1e-9


def test_h2_cond_product_and_order(rng):
    dist = random_distribution(2, rng)
    sigma = random_density(2, rng)
    st = build_cq(dist, {s: sigma for s in dist})
    res = h2_cond(st)
    classical_h2 = -np.log2(sum(p * p for p in dist.values()))
    assert res.value >= classical_h2 - 1e-9
    assert abs(res.value - classical_h2) < 1e-6


def test_h2_cond_cc_grid_oracle(rng):
    for _ in range(5):
        st = random_cq_state(1, 2, rng, min_support=2)
        diag_blocks = {s: np.diag(np.diag(st.blocks[s])) for s in st.symbols()}
        from extraction_lab.cq_states import CqState
        ccst = CqState(side_dim=2, blocks=diag_blocks)
        grid = max(h2_rel(ccst, np.diag([t, 1 - t]).astype(complex))
                   for t in np.linspace(1e-4, 1 - 1e-4, 4001))
        res = h2_cond(ccst)
        assert res.value >= grid - 1e-9
        assert abs(res.value - grid) < 1e-4


def test_entropy_order_h_min_le_h2(rng):
    for _ in range(40):
        st = random_cq_state(2, int(rng.integers(1, 4)), rng)
        dim = st.side_dim
        sigma = random_density(dim, rng) if dim > 1 else np.ones((1, 1), dtype=complex)
        assert h_min_rel(st, sigma) <= h2_rel(st, sigma) + 1e-9
        assert h_min_cond(st).value <= h2_cond(st).value + 1e-6


def test_h2_cond_never_runs_the_min_entropy_solver(rng, monkeypatch):
    import extraction_lab.entropies as entropies
    solves = []
    solver = entropies._h_min_solver
    monkeypatch.setattr(entropies, "_h_min_solver",
                        lambda *args: solves.append(args) or solver(*args))
    for _ in range(4):
        res = h2_cond(random_cq_state(2, 3, rng, min_support=2))
        assert res.converged and res.iterations > 0
    assert solves == []


def test_data_processing_classical_function_on_side(rng):
    # Coarse-graining a classical side register cannot decrease H_min(X|B).
    from extraction_lab.cq_states import CqState
    for _ in range(10):
        st = random_cq_state(2, 4, rng, min_support=3)
        diag = {s: np.diag(np.diag(st.blocks[s])) for s in st.symbols()}
        base = h_min_cond(CqState(side_dim=4, blocks=diag))
        merged_blocks = {}
        for s, blk in diag.items():
            d = np.zeros((2, 2), dtype=complex)
            for b in range(4):
                d[b % 2, b % 2] += blk[b, b]
            merged_blocks[s] = d
        merged = h_min_cond(CqState(side_dim=2, blocks=merged_blocks))
        assert merged.value >= base.value - 1e-9


def test_data_processing_pgm_measurement(rng):
    for _ in range(10):
        st = random_cq_state(2, 2, rng, min_support=2)
        res = h_min_cond(st)
        povm = pgm_stacks(st.stack[None], np.ones((1, len(st.stack)), dtype=bool))[0]
        # X with the measured outcome as a classical side register.
        weights = np.einsum("oij,xji->xo", povm, st.stack).real   # tr(E_o rho_x)
        measured = CqState(side_dim=len(povm),
                           blocks={x: np.diag(w) for x, w in zip(st.symbols(), weights)})
        cc = h_min_cond(measured)
        assert cc.value >= res.value - 1e-6


def test_linear_map_entropy_drop(rng):
    for _ in range(10):
        n = 3
        st = random_cq_state(n, 2, rng, min_support=4)
        base = h_min_cond(st)
        mat = rng.integers(0, 2, size=(n, n)).astype(np.uint8)
        from extraction_lab.gf2 import gf2_rank
        r = n - gf2_rank(mat)
        mapped = apply_classical_function(st, lambda x: gf2_matvec(mat, x))
        lifted = h_min_cond(mapped)
        assert lifted.value >= base.value - r - 1e-6


def test_linear_map_entropy_drop_exhaustive_n4(rng):
    # All 2^16 binary 4x4 maps against one classical source, fully vectorized:
    # H_min(LX) >= H_min(X) - (4 - rank(L)) must hold for every L.
    n = 4
    probs = rng.random(16) + 1e-3
    probs /= probs.sum()
    base = -np.log2(probs.max())

    mats = np.arange(1 << 16, dtype=np.int64)
    rows = [(mats >> (4 * j)) & 15 for j in range(4)]          # row j of every L
    pop4 = np.array([bin(v).count("1") & 1 for v in range(16)], dtype=np.int64)

    # image y = L x for every matrix and every input, then mass per output
    acc = np.zeros((1 << 16, 16))
    for x in range(16):
        y = np.zeros(1 << 16, dtype=np.int64)
        for j in range(4):
            y |= pop4[rows[j] & x] << j
        np.add.at(acc, (np.arange(1 << 16), y), probs[x])
    mapped_h = -np.log2(acc.max(axis=1))

    # rank via the size of the row span (xor of every row subset)
    combos = np.zeros((1 << 16, 16), dtype=np.int64)
    for mask in range(16):
        c = np.zeros(1 << 16, dtype=np.int64)
        for j in range(4):
            if mask >> j & 1:
                c ^= rows[j]
        combos[:, mask] = c
    combos.sort(axis=1)
    distinct = 1 + (np.diff(combos, axis=1) != 0).sum(axis=1)
    ranks = np.log2(distinct).round().astype(np.int64)

    slack = base - (n - ranks) - 1e-9
    assert np.all(mapped_h >= slack)


def test_solver_result_shape():
    res = h_min_cond(bb84_state())
    assert isinstance(res, EntropyResult)
    assert res.sigma.shape == (2, 2)
    assert abs(np.trace(res.sigma).real - 1.0) < 1e-9
    with pytest.raises(ValueError):
        h_min_cond(random_cq_state(1, 17, np.random.default_rng(0)))


# -- one closed form, one side cap, a derived converged flag -------------------

def _ref_classical_h_min(state):
    # h_min_cond's own closed form before both entropies shared one, verbatim but for its result.
    per_b = np.diagonal(state.stack, axis1=-2, axis2=-1).real.max(axis=0)
    p_guess = float(per_b.sum())
    sigma = np.diag(per_b / p_guess).astype(complex)
    return -float(np.log2(p_guess)), sigma


def _ref_classical_h2(state):
    # h2_cond's own closed form before both entropies shared one, verbatim but for its result.
    diags = np.diagonal(state.stack, axis1=-2, axis2=-1).real
    roots = np.sqrt((diags ** 2).sum(axis=0))
    z = float(roots.sum())
    sigma = np.diag(roots / z).astype(complex)
    return -2.0 * float(np.log2(z)), sigma


def _diagonal_cq(n_bits, dim, rng):
    dist = random_distribution(n_bits, rng)
    conds = {}
    for sym in dist:
        weights = rng.random(dim) * (rng.random(dim) < 0.7)      # some diagonal zeros
        weights[int(rng.integers(dim))] += 1e-3                  # no conditional is zero
        conds[sym] = np.diag(weights / weights.sum()).astype(complex)
    return build_cq(dist, conds)


def _classical_side_states(rng):
    states = []
    for n in (1, 2, 3):
        dist = random_distribution(n, rng)
        states.append(make_side_info("trivial", dist))
        states.append(make_side_info("classical_leak", dist))
        states.append(make_side_info("classical_leak", dist, {"leak": "first_bit"}))
        states += [_diagonal_cq(n, dim, rng) for dim in (3, 4) for _ in range(3)]
    return states


def test_one_closed_form_matches_both_old_ones(rng):
    for i, state in enumerate(_classical_side_states(rng)):
        for entropy, ref in ((h_min_cond, _ref_classical_h_min), (h2_cond, _ref_classical_h2)):
            res, (value, sigma) = entropy(state), ref(state)
            assert res.value == value, (i, entropy.__name__)
            assert res.sigma.dtype == sigma.dtype and res.sigma.tobytes() == sigma.tobytes(), i
            assert (res.gap, res.iterations, res.converged) == (0.0, 0, True), i


@pytest.mark.parametrize("entropy", [h_min_cond, h2_cond])
def test_side_register_above_the_solver_cap_is_refused(entropy, rng):
    # The cap comes before the closed form: a diagonal 17-dimensional register is refused too.
    quantum = random_cq_state(1, 17, rng, min_support=2)
    diagonal = _diagonal_cq(2, 17, rng)
    assert not _is_classical(quantum) and _is_classical(diagonal)
    for state in (quantum, diagonal):
        with pytest.raises(ValueError, match="^side_dim 17 exceeds solver cap 16$"):
            entropy(state)
    assert entropy(_diagonal_cq(2, 16, rng)).iterations == 0     # at the cap, still solved


def test_converged_is_read_off_the_gap(rng):
    assert [f.name for f in dataclasses.fields(EntropyResult)] == \
        ["value", "sigma", "gap", "iterations"]
    sigma = np.eye(1, dtype=complex)
    assert EntropyResult(0.0, sigma, CONVERGED_GAP_BITS, 3).converged
    assert not EntropyResult(0.0, sigma, np.nextafter(CONVERGED_GAP_BITS, 1.0), 3).converged
    classical = _classical_side_states(rng)[:4]
    quantum = [bb84_state()] + [random_cq_state(2, 3, rng, min_support=3) for _ in range(3)]
    results = [f(s) for f in (h_min_cond, h2_cond) for s in classical + quantum]
    capped = [f(s, iters=2) for f in (h_min_cond, h2_cond) for s in quantum]
    assert all(res.converged for res in results)
    assert any(not res.converged for res in capped)
    for res in results + capped:
        assert res.converged == (res.gap <= CONVERGED_GAP_BITS)
