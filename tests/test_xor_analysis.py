import numpy as np
import pytest

from conftest import dense_cq, distance_to_uniform, random_cq_state

from extraction_lab.cq_states import (
    apply_classical_function,
    build_cq,
    classical_state,
    marginal_side,
)
from extraction_lab.gf2 import all_bit_vectors
from extraction_lab.operators import (
    op_power,
    partial_trace,
    random_density,
    random_pure_state,
    tensor,
    trace_distance,
)
from extraction_lab.xor_analysis import (
    MatrixValuedFunction,
    character_matrix,
    l2_distance_to_uniform,
    l2_distances_to_uniform,
    measured_xor_bound,
    mvf_fourier,
    mvf_l2_norm,
    output_slots,
    pgm,
    squared_distance_fourier_bound,
)

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
KETPLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def assert_povm(povm):
    """Every element Hermitian and PSD, and the elements sum to the identity."""
    elements = np.array(list(povm.blocks.values()))
    assert np.abs(elements - elements.conj().transpose(0, 2, 1)).max() <= 1e-9
    assert np.linalg.eigvalsh(elements).min() >= -1e-9
    assert np.abs(elements.sum(axis=0) - np.eye(povm.side_dim)).max() <= 1e-9
    return povm


def random_mvf(m, d, rng):
    vals = rng.standard_normal((1 << m, d, d)) + 1j * rng.standard_normal((1 << m, d, d))
    return MatrixValuedFunction(vals)


def test_character_matrix_is_parity_table():
    h = character_matrix(3)
    for a in range(8):
        for z in range(8):
            assert h[a, z] == (-1) ** bin(a & z).count("1")


def test_fourier_constant_function():
    m0 = np.array([[1.0, 2.0], [2.0, 0.5]], dtype=complex)
    mvf = MatrixValuedFunction(np.stack([m0] * 4))
    four = mvf_fourier(mvf)
    assert np.allclose(four.values[0], 2.0 * m0)      # sqrt(2^m) * M0
    assert np.allclose(four.values[1:], 0.0)


def test_fourier_zero_component_is_scaled_mean(rng):
    mvf = random_mvf(3, 2, rng)
    four = mvf_fourier(mvf)
    assert np.allclose(four.values[0], mvf.values.sum(axis=0) / np.sqrt(8))


def test_fourier_self_inverse(rng):
    for _ in range(10):
        mvf = random_mvf(int(rng.integers(1, 4)), int(rng.integers(1, 4)), rng)
        double = mvf_fourier(mvf_fourier(mvf))
        assert np.max(np.abs(double.values - mvf.values)) < 1e-10


def test_mvf_reads_m_and_d_off_its_values():
    mvf = MatrixValuedFunction(np.zeros((8, 3, 3), dtype=complex))
    assert (mvf.m, mvf.d) == (3, 3)
    for shape in [(3, 2, 2), (4, 2, 3), (0, 2, 2), (4, 0, 0), (4, 2)]:
        with pytest.raises(ValueError, match=r"shape \(2\^m, d, d\)"):
            MatrixValuedFunction(np.zeros(shape, dtype=complex))


def test_l2_norm_examples(rng):
    zero = MatrixValuedFunction(np.zeros((4, 3, 3), dtype=complex))
    assert mvf_l2_norm(zero) == 0.0
    vals = np.zeros((4, 3, 3), dtype=complex)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(g)
    vals[2] = q
    single = MatrixValuedFunction(vals)
    assert abs(mvf_l2_norm(single) - np.sqrt(3)) < 1e-12


def test_parseval(rng):
    for _ in range(100):
        mvf = random_mvf(int(rng.integers(1, 4)), int(rng.integers(1, 5)), rng)
        assert abs(mvf_l2_norm(mvf_fourier(mvf)) - mvf_l2_norm(mvf)) < 1e-9


def test_pgm_orthogonal_conditionals_is_projective():
    st = build_cq({(0,): 0.5, (1,): 0.5},
                  {(0,): np.diag([1.0, 0.0]).astype(complex),
                   (1,): np.diag([0.0, 1.0]).astype(complex)})
    povm = assert_povm(pgm(st))
    assert np.allclose(povm.blocks[(0,)], np.diag([1.0, 0.0]))
    assert np.allclose(povm.blocks[(1,)], np.diag([0.0, 1.0]))
    joint = np.einsum("oij,xji->xo", povm.stack, st.stack).real   # tr(E_o rho_x)
    assert abs(joint[0, 0] - 0.5) < 1e-12
    assert abs(joint[0, 1]) < 1e-12


def test_pgm_identical_conditionals(rng):
    tau = random_density(3, rng)
    dist = {(0,): 0.25, (1,): 0.75}
    st = build_cq(dist, {s: tau for s in dist})
    povm = pgm(st)
    # On the support of tau the elements are P(x) * identity; the deficit
    # on ker(tau) goes to the first outcome.
    proj = op_power(tau, 0)
    assert np.allclose(povm.blocks[(1,)], 0.75 * proj, atol=1e-9)
    assert_povm(povm)


def test_pgm_bb84_completeness():
    st = build_cq({(0,): 0.5, (1,): 0.5}, {(0,): KET0, (1,): KETPLUS})
    povm = assert_povm(pgm(st))
    total = sum(povm.blocks.values())
    assert np.max(np.abs(total - np.eye(2))) < 1e-9


def test_pgm_deficit_assignment_rank_deficient():
    # rho_B has rank 1, so the kernel deficit lands on the first outcome.
    st = build_cq({(0,): 0.5, (1,): 0.5}, {(0,): KET0, (1,): KET0})
    povm = assert_povm(pgm(st))
    assert np.allclose(povm.blocks[(0,)], np.diag([0.5, 1.0]), atol=1e-9)
    assert np.allclose(povm.blocks[(1,)], np.diag([0.5, 0.0]), atol=1e-9)


def test_pgm_function_commutation(rng):
    from extraction_lab.gf2 import index_to_bits
    for _ in range(50):
        st = random_cq_state(2, 3, rng, min_support=2)
        table = {s: index_to_bits(int(rng.integers(2)), 1) for s in st.symbols()}
        fn = lambda s, t=table: t[s]
        lhs = pgm(apply_classical_function(st, fn))
        grouped = {}
        for sym, el in pgm(st).blocks.items():
            grouped[fn(sym)] = grouped.get(fn(sym), 0) + el
        for y in lhs.symbols():
            assert np.max(np.abs(lhs.blocks[y] - grouped[y])) < 1e-10


def test_fourier_bound_uniform_independent():
    sigma = np.eye(2, dtype=complex) / 2
    st = build_cq({b: 0.25 for b in all_bit_vectors(2)},
                  {b: sigma for b in all_bit_vectors(2)})
    assert squared_distance_fourier_bound(st, marginal_side(st)) < 1e-12


def test_fourier_bound_deterministic_case():
    det = classical_state({(0,): 1.0})
    rhs = squared_distance_fourier_bound(det, np.ones((1, 1)))
    assert abs(rhs - 0.25) < 1e-12


def test_fourier_bound_matches_double_sum_oracle(rng):
    for _ in range(10):
        m = int(rng.integers(1, 3))
        st = random_cq_state(m, 2, rng)
        sigma = random_density(2, rng)
        quarter = op_power(sigma, -0.25)
        blocks = {z: quarter @ st.blocks.get(z, np.zeros((2, 2))) @ quarter
                  for z in all_bit_vectors(m)}
        acc = 0.0
        for s_idx in range(1, 1 << m):
            s = all_bit_vectors(m)[s_idx]
            for z, mz in blocks.items():
                for zp, mzp in blocks.items():
                    sign = (-1) ** (sum(a & b for a, b in zip(s, z))
                                    + sum(a & b for a, b in zip(s, zp)))
                    acc += sign * np.trace(mz @ mzp).real
        oracle = acc / 4.0
        assert abs(squared_distance_fourier_bound(st, sigma) - oracle) < 1e-9


def test_fourier_bound_dominates_squared_distance(rng):
    for _ in range(100):
        m = int(rng.integers(1, 3))
        dim = int(rng.integers(1, 4))
        st = random_cq_state(m, dim, rng)
        delta = distance_to_uniform(st, 1 << m)
        sigma = marginal_side(st)
        assert delta ** 2 <= squared_distance_fourier_bound(st, sigma) + 1e-9


def test_fourier_bound_kernel_violation():
    st = build_cq({(0,): 0.5, (1,): 0.5}, {(0,): KET0, (1,): KETPLUS})
    with pytest.raises(ValueError, match="kernel"):
        squared_distance_fourier_bound(st, np.diag([1.0, 0.0]).astype(complex))


def test_fourier_side_bounds_refuse_non_bit_symbols():
    # (2,) used to be read as bit 0: measured_xor_bound gave 0.5 here, and
    # 0.4204 with the same blocks under (0,) and (1,).
    bad = build_cq({(0,): 0.5, (2,): 0.5}, {(0,): KET0, (2,): KETPLUS})
    named = r"symbol \(2,\) is not an 1-bit string"
    with pytest.raises(ValueError, match=named):
        measured_xor_bound(bad)
    with pytest.raises(ValueError, match=named):
        squared_distance_fourier_bound(bad, marginal_side(bad))
    with pytest.raises(ValueError, match=named):
        output_slots(bad)


def test_measured_xor_uniform_independent():
    sigma = np.eye(2, dtype=complex) / 2
    st = build_cq({b: 0.25 for b in all_bit_vectors(2)},
                  {b: sigma for b in all_bit_vectors(2)})
    assert measured_xor_bound(st) < 1e-7
    assert distance_to_uniform(st, 4) < 1e-12


def test_measured_xor_equality_case():
    det = classical_state({(0,): 1.0})
    lhs = distance_to_uniform(det, 2)
    rhs = measured_xor_bound(det)
    assert abs(lhs - 0.5) < 1e-12
    assert abs(rhs - lhs) < 1e-12


def test_measured_xor_dominates_distance(rng):
    for _ in range(100):
        m = int(rng.integers(1, 3))
        dim = int(rng.integers(1, 4))
        st = random_cq_state(m, dim, rng)
        lhs = distance_to_uniform(st, 1 << m)
        assert lhs <= measured_xor_bound(st) + 1e-9


def test_one_two_norm_inequality(rng):
    for _ in range(100):
        da = int(rng.integers(2, 5))
        db = int(rng.integers(2, 5))
        rho = random_density(da * db, rng)
        sigma = random_density(db, rng) * float(rng.uniform(0.5, 2.0))
        rho_b = partial_trace(rho, (da, db), keep=(1,))
        delta = trace_distance(rho, tensor(np.eye(da) / da, rho_b), check_trace=False)
        rhs = 0.5 * np.sqrt(da * np.trace(sigma).real
                            * l2_distance_to_uniform(rho, da, sigma))
        assert delta <= rhs + 1e-9


def test_bounds_hold_for_a_singular_sigma_that_misses_the_state(rng):
    # ker sigma = |2>, outside the support of every block: both sigma^(-1/4)
    # bounds are defined there and still bound the distance.
    sigma = np.diag([0.6, 0.4, 0.0]).astype(complex)
    for _ in range(20):
        conds = {}
        for z in all_bit_vectors(2):
            conds[z] = np.zeros((3, 3), dtype=complex)
            conds[z][:2, :2] = random_density(2, rng)
        st = build_cq({z: 0.25 for z in conds}, conds)
        delta = distance_to_uniform(st, 4)
        assert delta ** 2 <= squared_distance_fourier_bound(st, sigma) + 1e-9
        # tr sigma = 1 and d_A = 4 in the one-norm/two-norm bound.
        assert delta <= 0.5 * np.sqrt(4 * l2_distance_to_uniform(dense_cq(st), 4, sigma)) + 1e-9


def test_l2_distance_evaluator_matches_manual(rng):
    rho = random_density(6, rng)
    sigma = random_density(3, rng)
    rho_b = partial_trace(rho, (2, 3), keep=(1,))
    w = tensor(np.eye(2), op_power(sigma, -0.25))
    centered = rho - tensor(np.eye(2) / 2, rho_b)
    manual = np.trace((w @ centered @ w) @ (w @ centered @ w)).real
    assert abs(l2_distance_to_uniform(rho, 2, sigma) - manual) < 1e-12


def test_l2_distances_are_the_batch_of_one_values_and_refuse_a_bad_member(rng):
    rhos = np.array([random_density(6, rng) for _ in range(4)])
    sigmas = np.array([random_density(3, rng) * float(rng.uniform(0.5, 2.0)) for _ in range(4)])
    got = l2_distances_to_uniform(rhos, 2, sigmas)
    assert [value.hex() for value in got.tolist()] == [
        l2_distance_to_uniform(rho, 2, sigma).hex() for rho, sigma in zip(rhos, sigmas)]
    # One member whose sigma_B kernel, |2>, meets its full-rank rho_B.
    leaky = sigmas.copy()
    leaky[2] = np.diag([0.5, 0.5, 0.0])
    with pytest.raises(ValueError,
                       match="^sigma_B kernel is not contained in the kernel of rho_B$"):
        l2_distances_to_uniform(rhos, 2, leaky)
    negative = sigmas.copy()
    negative[1] = np.diag([0.6, 0.5, -0.1])
    with pytest.raises(ValueError, match="not PSD"):
        l2_distances_to_uniform(rhos, 2, negative)
    for entry, match in ((1e-6, "not Hermitian"), (np.nan, "non-finite")):
        bad = rhos.copy()
        bad[3, 0, 1] += entry
        with pytest.raises(ValueError, match=match):
            l2_distances_to_uniform(bad, 2, sigmas)
