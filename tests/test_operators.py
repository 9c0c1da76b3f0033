import ast
from pathlib import Path

import numpy as np
import pytest

from conftest import conditional_mutual_information, distance_to_uniform

import extraction_lab
from extraction_lab import gf2, operators
from extraction_lab.cq_states import (
    CqState,
    MarkovScenario,
    classical_state,
)
from extraction_lab.entropies import h2_rel, h_min_classical, h_min_rel
from extraction_lab.extractors import s_component
from extraction_lab.gf2 import (
    MatrixFamily,
    build_field_family,
    default_polynomial,
    gf2_images,
    gf2_matmul,
    gf2_rank,
    index_to_bits,
    load_family,
    parse_poly,
)
from extraction_lab.operators import (
    KERNEL_LEAK_ATOL,
    _kernel_mask,
    _psd_eigh,
    _sigma_powers,
    as_operator,
    check_hermitian,
    eigh,
    hermitian_stack,
    hermitian_trace_norm,
    op_power,
    partial_trace,
    random_densities,
    random_density,
    random_pure_state,
    tensor,
    trace_distance,
    von_neumann_entropy,
)
from extraction_lab.xor_analysis import (
    character_matrix,
    fourier_bounds,
    l2_distance_to_uniform,
    l2_distances_to_uniform,
    measured_xor_bound,
)


def random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g + g.conj().T)


def test_eigh_known_spectra():
    w, v = eigh(np.diag([1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0])
    w, _ = eigh(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(w, [-1.0, 1.0])


def test_eigh_reconstruction(rng):
    for _ in range(20):
        h = random_hermitian(8, rng)
        w, v = eigh(h)
        assert np.all(np.diff(w) >= -1e-12)
        err = np.max(np.abs((v * w) @ v.conj().T - h))
        assert err <= 1e-9 * max(np.max(np.abs(h)), 1.0)


def test_eigh_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eigh(np.array([[0, 1], [0, 0]], dtype=complex))


def test_op_power_examples():
    assert np.allclose(op_power(np.eye(4), -0.25), np.eye(4))
    out = op_power(np.diag([4.0, 0.0]), -0.5)
    assert np.allclose(out, np.diag([0.5, 0.0]))


def test_op_power_sqrt_roundtrip(rng):
    for _ in range(10):
        rho = random_density(5, rng)
        again = op_power(op_power(rho, 0.5), 2.0)
        assert np.max(np.abs(again - rho)) < 1e-8


def test_trace_distance_examples():
    rho = random_density(3, np.random.default_rng(1))
    assert trace_distance(rho, rho) < 1e-12
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    assert abs(trace_distance(zero, one) - 1.0) < 1e-12
    assert abs(trace_distance(zero, np.eye(2) / 2) - 0.5) < 1e-12
    with pytest.raises(ValueError):
        trace_distance(zero, np.eye(3) / 3)
    with pytest.raises(ValueError):
        trace_distance(2 * zero, one)
    assert trace_distance(2 * zero, one, check_trace=False) > 0


def test_trace_distance_triangle_and_unitary_invariance(rng):
    for _ in range(20):
        a, b, c = (random_density(4, rng) for _ in range(3))
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-9
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, _ = np.linalg.qr(g)
        assert abs(trace_distance(q @ a @ q.conj().T, q @ b @ q.conj().T)
                   - trace_distance(a, b)) < 1e-9


def test_tensor_examples(rng):
    assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))
    assert np.allclose(tensor(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                       np.diag([0.0, 1.0, 0.0, 0.0]))
    a, b = random_hermitian(2, rng), random_hermitian(2, rng)
    out = tensor(a, b)
    for i in range(4):
        for j in range(4):
            assert abs(out[i, j] - a[i // 2, j // 2] * b[i % 2, j % 2]) < 1e-12


def test_tensor_mixed_product(rng):
    a, b, c, d = (random_hermitian(3, rng) for _ in range(4))
    assert np.allclose(tensor(a, b) @ tensor(c, d), tensor(a @ c, b @ d))


def test_partial_trace_product_and_bell():
    rng = np.random.default_rng(3)
    a, b = random_density(2, rng), random_density(3, rng)
    assert np.allclose(partial_trace(tensor(a, b), (2, 3), keep=(0,)), a)
    assert np.allclose(partial_trace(tensor(a, b), (2, 3), keep=(1,)), b)
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    assert np.allclose(partial_trace(rho, (2, 2), keep=(0,)), np.eye(2) / 2)


def _random_density_oracle(dim, rng):
    """The per-matrix draw that random_densities replaced."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_random_densities_are_successive_single_draws():
    for dim in range(1, 5):
        for count in range(1, 6):
            ours, oracle = (np.random.default_rng(10 * dim + count) for _ in range(2))
            got = random_densities(count, dim, ours)
            want = np.array([_random_density_oracle(dim, oracle) for _ in range(count)])
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (dim, count)
            assert ours.bit_generator.state == oracle.bit_generator.state, (dim, count)
            assert random_density(dim, ours).tobytes() == _random_density_oracle(
                dim, oracle).tobytes()


def test_stacked_partial_trace_and_tensor_match_one_operator_at_a_time(rng):
    stack = np.array([random_density(12, rng) for _ in range(5)])
    for dims, keep in (((2, 3, 2), (0, 2)), ((4, 3), (1,)), ((3, 4), (0,)), ((2, 6), ())):
        got = partial_trace(stack, dims, keep)
        for rho, reduced in zip(stack, got):
            assert reduced.tobytes() == partial_trace(rho, dims, keep).tobytes()
    small = stack[:, :3, :3]
    for a, b in zip(stack, small):
        assert tensor(a, b).tobytes() == np.kron(a, b).tobytes()
    assert tensor(np.eye(2), small).tobytes() == np.array(
        [np.kron(np.eye(2), b) for b in small]).tobytes()


def test_partial_trace_three_party_oracle(rng):
    dims = (2, 3, 2)
    rho = random_density(12, rng)
    got = partial_trace(rho, dims, keep=(0, 2))
    expected = np.zeros((4, 4), dtype=complex)
    t = rho.reshape(dims + dims)
    for a in range(2):
        for ap in range(2):
            for c in range(2):
                for cp in range(2):
                    val = sum(t[a, b, c, ap, b, cp] for b in range(3))
                    expected[a * 2 + c, ap * 2 + cp] = val
    assert np.allclose(got, expected)
    assert abs(np.trace(got).real - 1.0) < 1e-12


def test_von_neumann_entropy():
    psi = random_pure_state(3, np.random.default_rng(5))
    assert abs(von_neumann_entropy(psi)) < 1e-9
    assert abs(von_neumann_entropy(np.eye(4) / 4) - 2.0) < 1e-12
    val = von_neumann_entropy(np.diag([0.75, 0.25]).astype(complex))
    assert abs(val - 0.8112781244591328) < 1e-12


def test_cmi_product_is_zero(rng):
    rho = tensor(tensor(random_density(2, rng), random_density(2, rng)),
                 random_density(2, rng))
    assert abs(conditional_mutual_information(rho, (2, 2, 2))) < 1e-9


def test_cmi_copy_states():
    p = np.array([0.375, 0.625])
    h = -(p * np.log2(p)).sum()
    # Classical copy of A in B, trivial C: I(A:B|C) = H(P).
    rho_cc = np.zeros((4, 4), dtype=complex)
    rho_cc[0, 0] = p[0]
    rho_cc[3, 3] = p[1]
    assert abs(conditional_mutual_information(rho_cc, (2, 2, 1)) - h) < 1e-9
    # Coherent copy (pure correlated state): I(A:B|C) = 2 S(A).
    v = np.zeros(4, dtype=complex)
    v[0], v[3] = np.sqrt(p[0]), np.sqrt(p[1])
    rho_pure = np.outer(v, v.conj())
    assert abs(conditional_mutual_information(rho_pure, (2, 2, 1)) - 2 * h) < 1e-9


def test_cmi_nonnegative(rng):
    for _ in range(15):
        rho = random_density(8, rng)
        assert conditional_mutual_information(rho, (2, 2, 2)) >= -1e-9


def _svd_trace_norm(x):
    return np.linalg.svd(x, compute_uv=False).sum()


def test_trace_norm_data_processing_channels(rng):
    # Classical-function channel on the classical register of an X (x) B space
    # and a measurement channel on B are both trace-norm contractions.
    from extraction_lab.xor_analysis import pgm
    from conftest import random_cq_state

    state = random_cq_state(2, 3, rng, min_support=3)
    povm = pgm(state)
    for _ in range(25):
        s = random_hermitian(3, rng)
        weights = [np.trace(povm.blocks[out] @ s).real for out in povm.symbols()]
        assert hermitian_trace_norm(np.diag(weights)) <= _svd_trace_norm(s) + 1e-9

        big = random_hermitian(4 * 3, rng)   # X of size 4, side of size 3
        grouped = {}
        for x in range(4):
            blk = big[x * 3:(x + 1) * 3, x * 3:(x + 1) * 3]
            y = x % 2
            grouped[y] = grouped.get(y, 0) + blk
        out = np.zeros((2 * 3, 2 * 3), dtype=complex)
        for y, blk in grouped.items():
            out[y * 3:(y + 1) * 3, y * 3:(y + 1) * 3] = blk
        assert hermitian_trace_norm(out) <= _svd_trace_norm(big) + 1e-9


_SKEW = np.array([[0.5, 1e-10], [0.0, 0.5]], dtype=complex)
_CLASSICAL = classical_state({(0,): 1.0})


@pytest.mark.parametrize("call,match", [
    (lambda: h_min_classical({(0,): np.nan, (1,): 1.0}), "sums to nan"),
    (lambda: MarkovScenario(weights=(np.nan, 1.0), factors=((_CLASSICAL, _CLASSICAL),) * 2),
     "sums to nan"),
    (lambda: von_neumann_entropy(np.diag([1.5, -0.5])), "not PSD"),
    (lambda: trace_distance(_SKEW, np.eye(2) / 2), "not Hermitian"),
    (lambda: hermitian_trace_norm(_SKEW), "not Hermitian"),
    # Both used to reach the solvers: h_min_cond gave nan, and -0.585 bits.
    (lambda: CqState(1, {(0,): [[np.nan]], (1,): [[0.5]]}), r"\(0,\) has non-finite"),
    (lambda: CqState(1, {(0,): [[1.5]], (1,): [[-0.5]]}), r"\(1,\) is not PSD"),
    # ker sigma_B = |1> meets the full-rank rho_B.  The pseudo-inverse used to
    # give a delta up to 27 times above the one-norm/two-norm right-hand side.
    (lambda: l2_distance_to_uniform(random_density(4, np.random.default_rng(0)), 2,
                                    np.diag([1.0, 0.0])), "kernel"),
    (lambda: h_min_classical({(0,): 1.5, (1,): -0.5}), "^negative probability in distribution$"),
    (lambda: as_operator([1.0, 0.0]), r"^expected a square matrix, got shape \(2,\)$"),
    (lambda: as_operator([[np.inf]]), "^operator has non-finite entries$"),
    (lambda: hermitian_stack(np.eye(2)),
     r"^expected an \(N, d, d\) stack of square operators, got shape \(2, 2\)$"),
    (lambda: _eigh_past_the_cap(), "^dimension 3 exceeds cap 2$"),
    (lambda: partial_trace(np.eye(4), (2, 3), keep=(0,)),
     "^operator dim 4 != product of subsystem dims 6$"),
    (lambda: partial_trace(np.eye(4), (2, 2), keep=(2,)),
     r"^keep indices \[2\] out of range for 2 subsystems$"),
    (lambda: conditional_mutual_information(np.eye(4) / 4, (2, 2)),
     r"^dims must be \(d_A, d_B, d_C\)$"),
    (lambda: MarkovScenario(weights=(1.0,), factors=((_CLASSICAL, _CLASSICAL),) * 2),
     "^weights and factor pairs must align$"),
    (lambda: distance_to_uniform(_CLASSICAL, 2, strong=True),
     r"^strong output symbols must be \(z, x\) pairs, got \(0,\)$"),
    (lambda: character_matrix(13), "^transform capped at m <= 12$"),
    (lambda: measured_xor_bound(classical_state({(0,): 0.5, (0, 1): 0.5})),
     "^state symbols must all be bit tuples of one length$"),
    (lambda: measured_xor_bound(classical_state({(0,) * 13: 1.0})),
     "^output length 13 exceeds cap 12$"),
    (lambda: index_to_bits(4, 2), "^index 4 out of range for 2 bits$"),
    (lambda: gf2_rank([1, 0]), r"^expected a 2-D matrix, got shape \(2,\)$"),
    (lambda: gf2_rank(np.zeros((gf2.MAX_DIM + 1, 1))), "^matrix larger than 64x64 not supported$"),
    (lambda: gf2_images(np.zeros((1, gf2.MAX_TABLE_BITS + 1))),
     "^images of a 1x23 matrix over every input not supported"),
    (lambda: gf2_matmul(np.eye(2), np.eye(3)), r"^dimension mismatch in GF\(2\) matrix product$"),
    (lambda: MatrixFamily((np.eye(5),) * (gf2.MAX_ENUM_M + 1)),
     "^m=21 too large for exhaustive selector enumeration$"),
    (lambda: default_polynomial(17), r"^built-in polynomial table covers degrees 1\.\.16$"),
    (lambda: parse_poly("011"), "^not a valid polynomial coefficient string: '011'$"),
    (lambda: build_field_family(4, 2, poly=0b111), "^polynomial degree 2 != n=4$"),
    (lambda: load_family("3 2 0\n100\n010\n001"), "^bad family header: '3 2 0'$"),
    (lambda: s_component(build_field_family(3, 2), (1,)), "^selector must have length m=2$"),
], ids=["h_min_classical-nan", "markov-weight-nan", "von_neumann-not-psd",
        "trace_distance-skew", "hermitian_trace_norm-skew",
        "cq_state-nan", "cq_state-not-psd", "l2-kernel-leak",
        "probability-negative", "operator-not-square", "operator-inf", "stack-not-3d",
        "eigh-past-cap", "partial_trace-dims", "partial_trace-keep", "cmi-dims",
        "markov-misaligned", "strong-symbol-not-pair", "character-past-cap",
        "output-lengths-differ", "output-past-cap", "index-out-of-range", "gf2-not-2d",
        "gf2-too-large", "gf2-images-too-wide", "gf2-matmul-mismatch",
        "family-past-enumeration", "no-built-in-polynomial", "poly-string", "poly-degree",
        "family-header", "selector-length"])
def test_numeric_policy_refuses(call, match):
    # Probability vectors, operators, states and sigma powers are refused by
    # the one validator of each kind in ``operators``, at the tolerance
    # ``eigh`` applies to _SKEW and the kernel policy of ``_sigma_powers``.
    # Shapes, sizes, caps and GF(2) inputs are refused where they are read.
    with pytest.raises(ValueError, match=match):
        call()


def test_psd_refusal_reads_the_truth_value(monkeypatch):
    # The one-operator test refuses by the truth value of ``_not_psd``, not by
    # its type: a numpy bool refuses as the fast path's Python bool does, and
    # the stack test still names its first non-PSD operator.
    not_psd = operators._not_psd
    monkeypatch.setattr(operators, "_not_psd",
                        lambda w: np.bool_(not_psd(w)) if w.ndim == 1 else not_psd(w))
    with pytest.raises(ValueError, match=r"^operator is not PSD \(min eigenvalue -5\.000e-01\)$"):
        op_power(np.diag([1.0, -0.5]), 0.5)
    with pytest.raises(ValueError, match=r"^operator is not PSD \(min eigenvalue -2\.500e-01\)$"):
        op_power(np.array([np.eye(2), np.diag([1.0, -0.25]), np.diag([1.0, -0.5])]), 0.5)
    root = op_power(np.diag([1.0, 0.25]), 0.5)
    assert root.tobytes() == np.diag([1.0, 0.5]).astype(complex).tobytes()


def _eigh_past_the_cap():
    # A matrix past the real cap, 4096, would take about a gigabyte to test.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(operators, "MAX_EIG_DIM", 2)
        eigh(np.eye(3))


def test_only_operators_defines_tolerances():
    # Every *_ATOL / *_RTOL threshold lives in ``operators``, so no module
    # keeps a private copy of the numeric or kernel policy.
    root = Path(extraction_lab.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        if path == root / "operators.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [f"{path.relative_to(root)}:{name.id}"
                          for target in targets for name in ast.walk(target)
                          if isinstance(name, ast.Name) and name.id.endswith(("_ATOL", "_RTOL"))]
    assert found == []


def test_only_operators_reads_tolerances():
    # No module but ``operators`` reads or imports a *_ATOL / *_RTOL name, so
    # every numeric decision is made there.  The one exception: the PGM's
    # completeness rule needs ``cq_states._block_sum``, and ``operators``
    # cannot import ``cq_states``, which imports it.
    root = Path(extraction_lab.__file__).parent
    found = set()
    for path in sorted(root.rglob("*.py")):
        if path == root / "operators.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found |= {f"{path.relative_to(root)}:{name}" for name in names
                      if name.endswith(("_ATOL", "_RTOL"))}
    assert found == {"xor_analysis.py:COMPLETENESS_ATOL"}


def test_no_module_imports_threads_or_processes():
    # Every check batches its own scenarios, so a suite runs serially and
    # no module starts a thread or a process.
    root = Path(extraction_lab.__file__).parent
    found = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found |= {f"{path.relative_to(root)}:{name}" for name in names
                      if name.split(".")[0] in ("threading", "concurrent", "multiprocessing")}
    assert found == set()


# The kernel policy that ``_sigma_powers`` replaced, verbatim but for names and
# docstrings.

def _ref_spectral_power(w, v, p):
    fw = np.zeros_like(w)
    live = ~_kernel_mask(w)
    if p >= 0:
        fw[live] = np.clip(w[live], 0.0, None) ** p
    else:
        fw[live] = w[live] ** p
    return (v * fw[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _ref_kernel_leaks(w, v, states):
    dead = _kernel_mask(w)
    leaks = np.zeros(len(w), dtype=bool)
    for i in np.flatnonzero(dead.any(axis=-1)):
        kernel = v[i][:, dead[i]]
        proj = kernel @ kernel.conj().T
        leaks[i] = np.any(np.trace(proj @ states[i] @ proj, axis1=-2, axis2=-1).real
                          > KERNEL_LEAK_ATOL)
    return leaks


def _ref_sigma_power(sigma, p, states):
    w, v = _psd_eigh(sigma)
    if _ref_kernel_leaks(w[None], v[None], states[None])[0]:
        return None
    return _ref_spectral_power(w, v, p)


def _sigma_case(kind, d, n, rng):
    """A PSD sigma and n PSD blocks of trace 1 / n: sigma full-rank, or of rank
    below d with a kernel that misses the blocks or meets them."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    u = np.linalg.qr(g)[0]
    rank = d if kind == "full" else int(rng.integers(kind == "misses", d))
    part = u[:, :rank]
    sigma = (part * rng.uniform(0.5, 1.5, rank)) @ part.conj().T
    if kind == "misses":
        blocks = part @ random_densities(n, rank, rng) @ part.conj().T / n
    else:
        blocks = random_densities(n, d, rng) / n
    return (0.5 * (sigma + sigma.conj().T),
            0.5 * (blocks + blocks.conj().swapaxes(-1, -2)))


def _sigma_stack(d, n, rng):
    """A (K, d, d) stack of sigmas of mixed kinds, their (K, n, d, d) blocks and
    whether each sigma's kernel meets its blocks."""
    kinds = ["full", "misses", "meets", "misses", "meets", "full"]
    if d == 1:
        kinds = [kind for kind in kinds if kind != "misses"]
    sigmas, states = zip(*(_sigma_case(kind, d, n, rng) for kind in kinds))
    return np.array(sigmas), np.array(states), np.array([kind == "meets" for kind in kinds])


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_sigma_powers_match_the_kernel_policy_they_replace(d):
    rng = np.random.default_rng(40 + d)
    for n in range(1, 5):
        sigmas, states, leaking = _sigma_stack(d, n, rng)
        for p in (-0.5, -0.25, 0.0, 2.0 / 3.0):
            powers, leaks = _sigma_powers(sigmas, p, states)
            assert leaks.tolist() == leaking.tolist(), (n, p)
            for k, sigma in enumerate(sigmas):
                want = _ref_sigma_power(sigma, p, states[k])
                assert (want is None) == leaking[k], (n, p, k)
                if want is None:
                    want = _ref_spectral_power(*_psd_eigh(sigma), p)
                assert powers[k].tobytes() == want.tobytes(), (n, p, k)
                assert op_power(sigma, p).tobytes() == want.tobytes(), (n, p, k)
        for k, sigma in enumerate(sigmas):
            state = CqState(d, {(j,): block for j, block in enumerate(states[k])})
            for value in (h_min_rel(state, sigma), h2_rel(state, sigma)):
                assert (value == float("-inf")) == leaking[k] and not np.isnan(value), (n, k)
        # The stacked weightings refuse a stack in which only the k-th sigma leaks.
        safe = np.where(leaking[:, None, None], np.eye(d) / d, sigmas)
        rhos = tensor(np.eye(2) / 2, states.sum(axis=1))
        if n != 3:          # the Fourier bound takes 2^m outputs
            fourier_bounds(states, safe)
        l2_distances_to_uniform(rhos, 2, safe)
        for k in np.flatnonzero(leaking):
            bad = safe.copy()
            bad[k] = sigmas[k]
            if n != 3:
                with pytest.raises(ValueError,
                                   match="^sigma kernel is not contained in the state kernel$"):
                    fourier_bounds(states, bad)
            with pytest.raises(ValueError,
                               match="^sigma_B kernel is not contained in the kernel of rho_B$"):
                l2_distances_to_uniform(rhos, 2, bad)
