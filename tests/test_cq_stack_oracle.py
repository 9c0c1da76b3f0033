"""Oracles for the consumers that read a cq-state's (N, d, d) stack.

The reference functions below are the dict-based loops that the stacked
``marginal_side``, ``probabilities``, ``total_trace``, ``product`` (now
the tests' joint builder in conftest), ``apply_classical_function`` (now
``relabelled_stacks`` of a batch of one), ``pgm_stacks``,
``fourier_bounds`` and ``measured_xor_bounds`` replaced, kept verbatim
(apart from ``op_power``, now conftest's dense power, no longer taking a
kernel-policy argument, and a POVM being a ``CqState`` whose blocks are
its elements) as the exact oracle: the stacked versions, on a batch of
one or of many, must reproduce them bit for bit, because the report
bytes rest on them.  ``_ref_distance_to_uniform``
is the per-state ``distance_to_uniform`` that the padded-stack kernels
(``weak_distances`` and the strong path) replaced, kept verbatim.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    distance_to_uniform,
    op_power,
    output_stacks,
    product,
    random_density,
    random_pure_state,
)

from extraction_lab.cq_states import (
    CqState,
    _block_sum,
    apply_classical_function,
    build_cq,
    classical_state,
    marginal_side,
    relabelled_stacks,
    weak_distances,
)
from extraction_lab.gf2 import bits_to_index, index_to_bits
from extraction_lab.harness import checks
from extraction_lab.harness.checks import run_check
from extraction_lab.operators import (
    COMPLETENESS_ATOL,
    _herm,
    hermitian_trace_norms,
    tensor,
)
from extraction_lab.xor_analysis import (
    MAX_FOURIER_BITS,
    MatrixValuedFunction,
    fourier_bounds,
    measured_xor_bounds,
    mvf_fourier,
    pgm_stacks,
)


# -- dict-based reference copies -------------------------------------------------

def _ref_marginal_side(state: CqState) -> np.ndarray:
    out = np.zeros((state.side_dim, state.side_dim), dtype=complex)
    for sym in state.symbols():
        out += state.blocks[sym]
    return out


def _ref_probabilities(state: CqState) -> dict:
    return {sym: float(np.trace(b).real) for sym, b in sorted(state.blocks.items())}


def _ref_total_trace(state: CqState) -> float:
    return float(sum(np.trace(b).real for b in state.blocks.values()))


def _ref_apply_classical_function(state: CqState, f) -> CqState:
    blocks: dict = {}
    for sym in state.symbols():
        out_sym = f(sym)
        if out_sym in blocks:
            blocks[out_sym] = blocks[out_sym] + state.blocks[sym]
        else:
            blocks[out_sym] = state.blocks[sym].copy()
    return CqState(side_dim=state.side_dim, blocks=blocks)


def _ref_product(s1: CqState, s2: CqState) -> CqState:
    blocks = {}
    for a in s1.symbols():
        for b in s2.symbols():
            blocks[(a, b)] = tensor(s1.blocks[a], s2.blocks[b])
    return CqState(side_dim=s1.side_dim * s2.side_dim, blocks=blocks)


def _ref_mvf_from_blocks(m: int, d: int, blocks: dict) -> MatrixValuedFunction:
    vals = np.zeros((1 << m, d, d), dtype=complex)
    for sym, mat in blocks.items():
        vals[bits_to_index(sym)] = mat
    return MatrixValuedFunction(vals)


def _ref_pgm(state: CqState) -> CqState:
    rho_b = _ref_marginal_side(state)
    inv_sqrt = op_power(rho_b, -0.5)
    symbols = state.symbols()
    elements = {sym: inv_sqrt @ state.blocks[sym] @ inv_sqrt for sym in symbols}
    deficit = np.eye(state.side_dim, dtype=complex) - sum(elements.values())
    if np.max(np.abs(deficit)) > 1e-12:
        first = symbols[0]
        elements[first] = elements[first] + deficit
    return CqState(side_dim=state.side_dim,
                   blocks={sym: _herm(e) for sym, e in elements.items()})


def _ref_measure_operator(povm: CqState, op) -> dict:
    mat = np.asarray(op, dtype=complex)
    return {outcome: float(np.trace(povm.blocks[outcome] @ mat).real)
            for outcome in povm.symbols()}


def _ref_apply_measurement(povm: CqState, state: CqState) -> CqState:
    if povm.side_dim != state.side_dim:
        raise ValueError("POVM dimension does not match the side register")
    blocks = {}
    for sym in state.symbols():
        for outcome, p in _ref_measure_operator(povm, state.blocks[sym]).items():
            blocks[(sym, outcome)] = np.array([[p]], dtype=complex)
    return CqState(side_dim=1, blocks=blocks)


def _ref_output_bits(state: CqState) -> int:
    lengths = {len(sym) for sym in state.blocks}
    if len(lengths) != 1:
        raise ValueError("state symbols must all be bit tuples of one length")
    (m,) = lengths
    if m > MAX_FOURIER_BITS:
        raise ValueError(f"output length {m} exceeds cap {MAX_FOURIER_BITS}")
    return m


def _ref_squared_distance_fourier_bound(state: CqState, sigma) -> float:
    m = _ref_output_bits(state)
    sig = np.asarray(sigma, dtype=complex)
    quarter = op_power(sig, -0.25)
    kernel = np.eye(state.side_dim, dtype=complex) - op_power(sig, 0.0)
    conj_blocks = {}
    for sym in state.symbols():
        block = state.blocks[sym]
        if float(np.trace(kernel @ block @ kernel).real) > 1e-9:
            raise ValueError("sigma kernel is not contained in the state kernel")
        conj_blocks[sym] = quarter @ block @ quarter
    mvf = _ref_mvf_from_blocks(m, state.side_dim, conj_blocks)
    fourier = mvf_fourier(mvf)
    acc = 0.0
    for idx in range(1, 1 << m):
        f = fourier.values[idx]
        acc += float(np.trace(f @ f).real)
    return ((1 << m) / 4.0) * acc


def _ref_cc_distance(state: CqState, target_blocks: dict) -> float:
    keys = sorted(set(state.blocks) | set(target_blocks))
    total = 0.0
    for key in keys:
        a = float(state.blocks[key][0, 0].real) if key in state.blocks else 0.0
        b = float(target_blocks[key][0, 0].real) if key in target_blocks else 0.0
        total += abs(a - b)
    return 0.5 * total


def _ref_measured_xor_bound(state: CqState) -> float:
    m = _ref_output_bits(state)
    rho_e = _ref_marginal_side(state)
    acc = 0.0
    for idx in range(1, 1 << m):
        s = index_to_bits(idx, m)
        masked = _ref_apply_classical_function(
            state, lambda z, s=s: (sum(si & zi for si, zi in zip(s, z)) & 1,))
        povm = _ref_pgm(masked)
        joint = _ref_apply_measurement(povm, masked)
        ref = _ref_measure_operator(povm, rho_e)
        target_blocks = {}
        for i in ((0,), (1,)):
            for outcome, q in ref.items():
                target_blocks[(i, outcome)] = np.array([[0.5 * q]], dtype=complex)
        acc += _ref_cc_distance(joint, target_blocks)
    return float(np.sqrt(0.5 * acc))


def _ref_distance_to_uniform(state: CqState, uniform_dim: int, strong: bool = False) -> float:
    symbols = state.symbols()
    if strong:
        for sym in symbols:
            if not (isinstance(sym, tuple) and len(sym) == 2):
                raise ValueError(f"strong output symbols must be (z, x) pairs, got {sym!r}")
    rests = [sym[1] for sym in symbols] if strong else [None] * len(symbols)
    # One group per rest (x_i, or None for a weak state), in sorted order.  In
    # sorted-symbol order the blocks of each group already come in z order.
    group_ids = {rest: g for g, rest in enumerate(sorted(set(rests)))}
    group_of = np.array([group_ids[rest] for rest in rests], dtype=np.intp)
    sizes = np.bincount(group_of, minlength=len(group_ids)).tolist()
    if max(sizes, default=0) > uniform_dim:
        raise ValueError(f"{max(sizes)} output symbols exceed uniform_dim={uniform_dim}")
    targets = np.zeros((len(sizes),) + state.stack.shape[1:], dtype=complex)
    np.add.at(targets, group_of, state.stack)
    targets = targets / uniform_dim
    norms = hermitian_trace_norms(np.concatenate([targets, state.stack - targets[group_of]]))
    block_norms = norms[len(sizes):][np.argsort(group_of, kind="stable")].tolist()
    total = 0.0
    start = 0
    for target_norm, present in zip(norms[:len(sizes)].tolist(), sizes):
        for norm in block_norms[start:start + present]:
            total += norm
        start += present
        total += (uniform_dim - present) * target_norm
    return 0.5 * total


# -- random inputs -----------------------------------------------------------------

def random_state(m: int, dim: int, rng) -> CqState:
    """1-16 symbols of m bits; side dim 1-4, with rank-deficient marginals.

    Blocks are full-rank densities, pure states, or densities confined to
    a random subspace of half the side dimension.
    """
    size = int(rng.integers(1, min(16, 1 << m) + 1))
    chosen = sorted(int(i) for i in rng.choice(1 << m, size=size, replace=False))
    weights = rng.random(size) + 1e-3
    dist = {index_to_bits(i, m): float(w) for i, w in zip(chosen, weights / weights.sum())}
    if dim == 1:
        return classical_state(dist)
    kind = int(rng.integers(3))
    if kind == 0:
        conds = {sym: random_density(dim, rng) for sym in dist}
    elif kind == 1:
        conds = {sym: random_pure_state(dim, rng) for sym in dist}
    else:
        basis = np.linalg.qr(rng.standard_normal((dim, dim))
                             + 1j * rng.standard_normal((dim, dim)))[0][:, :max(1, dim // 2)]
        conds = {sym: basis @ random_density(basis.shape[1], rng) @ basis.conj().T
                 for sym in dist}
    return build_cq(dist, conds)


def assert_same_state(new: CqState, ref: CqState, label):
    assert new.side_dim == ref.side_dim, label
    assert new.symbols() == ref.symbols(), label
    for sym in ref.symbols():
        assert new.blocks[sym].tobytes() == ref.blocks[sym].tobytes(), (label, sym)


def check_against_reference(state: CqState, rng, label):
    """Every stacked consumer agrees bit for bit with its dict-based copy."""
    assert marginal_side(state).tobytes() == _ref_marginal_side(state).tobytes(), label
    assert state.probabilities() == _ref_probabilities(state), label
    assert state.total_trace() == _ref_total_trace(state), label
    parity = lambda z: (sum(z) & 1,)  # noqa: E731
    assert_same_state(apply_classical_function(state, parity),
                      _ref_apply_classical_function(state, parity), label)
    other = random_state(1, int(rng.integers(1, 3)), rng)     # conftest's joint builder
    assert_same_state(product(state, other), _ref_product(state, other), label)

    # The stacked kernels on a batch of one.
    elements = pgm_stacks(state.stack[None], np.ones((1, len(state.stack)), dtype=bool))[0]
    assert elements.tobytes() == _ref_pgm(state).stack.tobytes(), label
    stacks, present = output_stacks([state])
    rho_e = marginal_side(state)
    d = state.side_dim
    for sigma in (rho_e / np.trace(rho_e).real, random_density(d, rng) if d > 1 else rho_e):
        assert fourier_bounds(stacks, sigma[None])[0] == \
            _ref_squared_distance_fourier_bound(state, sigma), label
    assert measured_xor_bounds(stacks, present)[0] == _ref_measured_xor_bound(state), label


# -- bitwise oracle -------------------------------------------------------------------

def test_stacked_consumers_match_dict_reference():
    rng = np.random.default_rng(505)
    dims, sizes = set(), set()
    for i in range(120):
        state = random_state(int(rng.integers(1, 5)), int(rng.integers(1, 5)), rng)
        dims.add(state.side_dim)
        sizes.add(len(state.symbols()))
        check_against_reference(state, rng, f"case {i}")
    assert dims == {1, 2, 3, 4}
    assert {1, 16} <= sizes


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 4), dim=st.integers(1, 4))
def test_stacked_consumers_property_matches_dict_reference(seed, m, dim):
    rng = np.random.default_rng(seed)
    check_against_reference(random_state(m, dim, rng), rng, seed)


# -- the representation ----------------------------------------------------------------

@pytest.mark.parametrize("low", [0.0, 1e-9], ids=["singular", "ill-conditioned"])
def test_pgm_completion_matches_deficit_oracle(low):
    # rho_B has eigenvalue ``low`` relative to the others: a kernel the state
    # never occupies, or a full rank where sigma^(-1/2) alone leaves the
    # elements summing to I only within about 1e-7.  Either way the
    # elements sum to I within COMPLETENESS_ATOL, as in the oracle.
    rng = np.random.default_rng(11)
    basis = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    conds = {}
    for sym in index_to_bits(0, 2), index_to_bits(1, 2), index_to_bits(3, 2):
        cond = basis @ np.diag(rng.uniform(0.1, 1.0, 3) * [1.0, 1.0, low]) @ basis.conj().T
        conds[sym] = cond / np.trace(cond).real
    state = build_cq({sym: 1 / 3 for sym in conds}, conds)
    povm = pgm_stacks(state.stack[None], np.ones((1, len(state.stack)), dtype=bool))[0]
    assert povm.tobytes() == _ref_pgm(state).stack.tobytes(), low
    assert np.max(np.abs(povm.sum(axis=0) - np.eye(3))) <= COMPLETENESS_ATOL
    inv_sqrt = op_power(marginal_side(state), -0.5)
    bare = sum(inv_sqrt @ block @ inv_sqrt for block in state.stack)
    assert np.max(np.abs(bare - np.eye(3))) > COMPLETENESS_ATOL


def test_blocks_are_read_only_views_of_the_stack():
    blocks = {(1, 0): np.diag([0.5, 0.25]), (0, 0): np.eye(2) / 8}
    state = CqState(side_dim=2, blocks=blocks)
    assert state.symbols() == [(0, 0), (1, 0)]
    assert state.stack.shape == (2, 2, 2) and state.stack.dtype == complex
    for i, sym in enumerate(state.symbols()):
        assert np.shares_memory(state.blocks[sym], state.stack)
        assert state.blocks[sym].tobytes() == state.stack[i].tobytes()
    with pytest.raises(ValueError, match="read-only"):
        state.blocks[(0, 0)][0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        state.stack[1] = 0.0
    with pytest.raises(TypeError):
        state.blocks[(0, 0)] = np.eye(2)
    blocks[(0, 0)][0, 0] = 7.0          # the caller's arrays were copied
    assert state.blocks[(0, 0)][0, 0] == 0.125
    empty = CqState(side_dim=3, blocks={})
    assert empty.stack.shape == (0, 3, 3) and empty.total_trace() == 0.0
    assert marginal_side(empty).tobytes() == np.zeros((3, 3), dtype=complex).tobytes()


# -- the stacked kernels of the random-state checks --------------------------------------

KET0 = np.diag([1.0, 0.0]).astype(complex)
KETPLUS = np.full((2, 2), 0.5, dtype=complex)


def _groups(states):
    """Indices of ``states`` per (m, side dim), and each group's padded stacks and mask."""
    groups = {}
    for i, state in enumerate(states):
        groups.setdefault((len(state.symbols()[0]), state.side_dim), []).append(i)
    return {key: (idx, output_stacks([states[i] for i in idx])) for key, idx in groups.items()}


def _masked_bit_never_occurs(state) -> bool:
    """Some nonzero mask s gives s . z the same value on every symbol z of the state."""
    m = len(state.symbols()[0])
    parities = [[sum(a & b for a, b in zip(index_to_bits(s, m), z)) & 1 for z in state.symbols()]
                for s in range(1, 1 << m)]
    return any(len(set(p)) == 1 for p in parities)


def mixed_batch(rng):
    """Every (m <= 3, dim <= 4) group, with one-symbol states, states whose symbols
    all start with 0 (so the mask 10..0 never gives bit 1), and pure or
    half-rank blocks, whose side marginals are rank-deficient.  Each state
    gets a sigma: a random density, or its own normalized marginal, whose
    kernel is the marginal's."""
    states = []
    for m in (1, 2, 3):
        for dim in (1, 2, 3, 4):
            states += [random_state(m, dim, rng) for _ in range(8)]
            cond = random_pure_state(dim, rng) if dim > 1 else np.ones((1, 1))
            states.append(build_cq({index_to_bits(int(rng.integers(1 << m)), m): 1.0},
                                   {index_to_bits(z, m): cond for z in range(1 << m)}))
            low = [index_to_bits(z, m) for z in range(1 << (m - 1))]
            weights = rng.random(len(low)) + 0.1
            states.append(build_cq(dict(zip(low, weights / weights.sum())),
                                   {z: random_density(dim, rng) for z in low}))
    sigmas = []
    for state in states:
        rho = marginal_side(state)
        sigmas.append(rho / np.trace(rho).real if rng.random() < 0.5 or state.side_dim == 1
                      else random_density(state.side_dim, rng))
    return states, sigmas


def test_kernels_match_the_per_state_references_on_a_mixed_batch():
    rng = np.random.default_rng(1919)
    states, sigmas = mixed_batch(rng)
    groups = _groups(states)
    assert set(groups) == {(m, d) for m in (1, 2, 3) for d in (1, 2, 3, 4)}
    assert any(len(s.symbols()) == 1 for s in states)
    assert sum(_masked_bit_never_occurs(s) for s in states) > len(states) // 3
    deficient = [s for s in states if np.linalg.matrix_rank(marginal_side(s)) < s.side_dim]
    assert len({s.side_dim for s in deficient}) == 3      # sides 2, 3 and 4
    for s in deficient:
        # the masked states share this marginal, so their PGMs take the completion branch
        inv_sqrt = op_power(marginal_side(s), -0.5)
        bare = _block_sum(inv_sqrt @ s.stack @ inv_sqrt)
        assert np.max(np.abs(np.eye(s.side_dim) - bare)) > COMPLETENESS_ATOL
    for (m, _), (idx, (stacks, present)) in groups.items():
        weak = weak_distances(stacks, present).tolist()
        xor = measured_xor_bounds(stacks, present).tolist()
        fourier = fourier_bounds(stacks, np.array([sigmas[i] for i in idx])).tolist()
        elements = pgm_stacks(stacks, present)
        for j, i in enumerate(idx):
            assert weak[j] == _ref_distance_to_uniform(states[i], 1 << m), i
            assert xor[j] == _ref_measured_xor_bound(states[i]), i
            assert fourier[j] == _ref_squared_distance_fourier_bound(states[i], sigmas[i]), i
            assert elements[j][present[j]].tobytes() == _ref_pgm(states[i]).stack.tobytes(), i
            assert not elements[j][~present[j]].any(), i


@pytest.mark.parametrize("m, dim", [(1, 1), (2, 3), (3, 4)])
def test_a_states_values_do_not_depend_on_its_batch(m, dim):
    rng = np.random.default_rng(100 * m + dim)
    states = [random_state(m, dim, rng) for _ in range(200)]
    sigmas = [random_density(dim, rng) if dim > 1 else np.ones((1, 1)) for _ in states]
    alone = []
    for s, sigma in zip(states, sigmas):     # each state a batch of one
        stacks, present = output_stacks([s])
        alone.append((distance_to_uniform(s, 1 << m), measured_xor_bounds(stacks, present)[0],
                      fourier_bounds(stacks, sigma[None])[0]))
    for shift in (0, 1, 77):      # every state at three positions of a 200-state batch
        order = np.roll(np.arange(200), shift)
        (idx, (stacks, present)), = _groups([states[i] for i in order]).values()
        batch = zip(weak_distances(stacks, present).tolist(),
                    measured_xor_bounds(stacks, present).tolist(),
                    fourier_bounds(stacks, np.array([sigmas[i] for i in order])).tolist())
        assert [alone[i] for i in order] == list(batch)


@pytest.mark.parametrize("check_id", ["measured-xor-random", "useful-prop-random"])
def test_block_budget_flushes_change_no_row(check_id, monkeypatch):
    config = {"params": {"count": 120}, "seed": 8}
    sizes = []
    kernel = checks.weak_distances
    monkeypatch.setattr(checks, "weak_distances",
                        lambda stacks, *rest: sizes.append(len(stacks)) or kernel(stacks, *rest))
    whole = run_check(check_id, config)
    assert len(sizes) == 6 and sum(sizes) == 120     # one pass per (m, dim) group
    sizes.clear()
    monkeypatch.setattr(checks, "BLOCK_BUDGET", 200)
    flushed = run_check(check_id, config)
    assert len(sizes) > 12 and sum(sizes) == 120
    rows = [(r.scenario, r.bound_id, r.params, r.measured_delta, r.bound_epsilon) for r in whole]
    assert rows == [(r.scenario, r.bound_id, r.params, r.measured_delta, r.bound_epsilon)
                    for r in flushed]


# -- the relabel kernel -------------------------------------------------------------------

def _assert_relabelled_as_reference(states, images, out, occupied, label):
    """Row j of (out, occupied) is states[j] relabelled by the dict-based route, its
    symbol at slot z going to output images[j][z], and zero elsewhere."""
    for j, state in enumerate(states):
        ref = _ref_apply_classical_function(state, lambda z: int(images[j][bits_to_index(z)]))
        assert np.flatnonzero(occupied[j]).tolist() == ref.symbols(), (label, j)
        assert out[j][occupied[j]].tobytes() == ref.stack.tobytes(), (label, j)
        assert not out[j][~occupied[j]].any(), (label, j)


def test_relabelled_stacks_match_the_reference_relabelling():
    rng = np.random.default_rng(34)
    m, slots = 3, 4
    states = [random_state(m, 3, rng) for _ in range(200)]
    images = []
    for state in states:
        row = np.full(1 << m, slots)      # an absent slot's image is out of range: never read
        row[[bits_to_index(z) for z in state.symbols()]] = rng.integers(
            0, rng.integers(1, slots + 1), len(state.stack))
        images.append(row)
    spread = [len(set(row[row < slots].tolist())) for row in images]
    assert min(spread) == 1 and max(spread) == slots
    assert 1 in {len(s.stack) for s in states} and any((row == slots).any() for row in images)
    for shift in (0, 1, 77):      # every state at three positions of a 200-state batch
        order = np.roll(np.arange(200), shift)
        stacks, present = output_stacks([states[i] for i in order])
        out, occupied = relabelled_stacks(stacks, present, np.array([images[i] for i in order]),
                                          slots)
        assert out.shape == (200, slots, 3, 3) and occupied.shape == (200, slots)
        _assert_relabelled_as_reference([states[i] for i in order], [images[i] for i in order],
                                        out, occupied, shift)
    for state, row in zip(states[:6], images):      # a batch of one
        stacks, present = output_stacks([state])
        _assert_relabelled_as_reference([state], [row], *relabelled_stacks(
            stacks, present, row[None], slots), "one")
    one = [np.where(row < slots, 2, row) for row in images[:20]]     # every symbol to output 2
    stacks, present = output_stacks(states[:20])
    out, occupied = relabelled_stacks(stacks, present, np.array(one), slots)
    assert occupied[:, 2].all() and occupied.sum() == 20
    _assert_relabelled_as_reference(states[:20], one, out, occupied, "one image")


def test_strong_distance_matches_the_per_state_reference():
    rng = np.random.default_rng(77)
    for i in range(60):
        m, rest = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        state = random_state(m + rest, int(rng.integers(1, 5)), rng)
        strong = apply_classical_function(state, lambda z: (z[:m], z[m:]))
        assert distance_to_uniform(strong, 1 << m, strong=True) == \
            _ref_distance_to_uniform(strong, 1 << m, strong=True), i


def test_strong_distance_of_non_bit_outputs_matches_the_reference():
    # z parts are ints or strings, not bit tuples, over x groups of uneven sizes.
    rng = np.random.default_rng(21)
    pairs = [(z, x) for z in range(4) for x in "abc"]
    for i in range(30):
        dim = int(rng.integers(1, 4))
        kept = [pair for pair in pairs if rng.random() < 0.7] or pairs[:1]
        for name in (lambda z: z, lambda z: "z" * (z + 1)):
            state = CqState(side_dim=dim, blocks={
                (name(z), x): float(rng.random() + 0.1) * random_density(dim, rng)
                if dim > 1 else np.array([[rng.random()]], dtype=complex) for z, x in kept})
            for uniform_dim in (4, 5):
                assert distance_to_uniform(state, uniform_dim, strong=True) == \
                    _ref_distance_to_uniform(state, uniform_dim, strong=True), i


def test_distance_of_the_empty_state_is_zero():
    empty = CqState(side_dim=2, blocks={})
    for strong in (False, True):
        value = distance_to_uniform(empty, 4, strong=strong)
        assert value == _ref_distance_to_uniform(empty, 4, strong=strong) == 0.0
        assert type(value) is float


def test_a_group_above_uniform_dim_gives_the_reference_message():
    rng = np.random.default_rng(22)
    blocks = {(z, x): 0.1 * random_density(2, rng) for z, x in
              [((0, 0), (0,)), ((0, 1), (0,)), ((1, 0), (0,)), ((1, 1), (1,))]}
    state = CqState(side_dim=2, blocks=blocks)
    message = _same_error(lambda: _ref_distance_to_uniform(state, 2, strong=True),
                          lambda: distance_to_uniform(state, 2, strong=True))
    assert message == "3 output symbols exceed uniform_dim=2"
    assert _same_error(lambda: _ref_distance_to_uniform(state, 3),
                       lambda: distance_to_uniform(state, 3)) == \
        "4 output symbols exceed uniform_dim=3"


def _same_error(alone, batch):
    with pytest.raises(ValueError) as one:
        alone()
    with pytest.raises(ValueError) as many:
        batch()
    assert str(many.value) == str(one.value)
    return str(one.value)


def test_a_batch_refuses_what_the_per_state_call_refuses():
    rng = np.random.default_rng(5)
    good = [random_state(1, 2, rng) for _ in range(4)]
    seen = build_cq({(0,): 0.5, (1,): 0.5}, {(0,): KET0, (1,): KETPLUS})
    states = good[:2] + [seen] + good[2:]
    (idx, (stacks, present)), = _groups(states).values()
    for bad in (KET0,                                   # its kernel |1> meets |+>
                np.diag([1.5, -0.5]).astype(complex),   # not PSD
                np.array([[0.5, 0.1], [0.2, 0.5]], dtype=complex)):  # not Hermitian
        sigmas = np.array([random_density(2, rng) for _ in states])
        sigmas[2] = bad
        message = _same_error(lambda: fourier_bounds(output_stacks([seen])[0], bad[None]),
                              lambda: fourier_bounds(stacks, sigmas))
        assert any(word in message for word in ("kernel", "PSD", "Hermitian"))
    two = build_cq({(0,): 0.5, (2,): 0.5}, {(0,): KET0, (2,): KETPLUS})
    message = _same_error(lambda: output_stacks([two]),
                          lambda: _groups(good[:2] + [two] + good[2:]))
    assert "(2,) is not an 1-bit string" in message
