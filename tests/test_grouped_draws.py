"""Oracles for the cq-states that the random-state checks form per group.

The reference functions below are the per-scenario routes that the grouped
former (``scenarios._formed_group`` and ``_random_cqs``) and the stacked
entropies replaced, kept verbatim: conftest's per-state draw
(``random_blocks``) with ``build_cq`` for one random cq-state,
``make_markov_scenario`` forming the factors of its draw one at a time, and
the per-state von Neumann entropy and dense conditional mutual
information, which also check conftest's stacked dense oracle.  The
per-scenario loops of the grouped checks are kept as their oracles,
``markov-cmi`` taking each state's CMI alone by ``pair_cmis`` and
``pgm-commutation`` relabelling and measuring one state at a time by
``apply_classical_function`` and ``pgm_stacks`` on a batch of one.  The
checks that draw their scenarios in blocks (``measured-xor-random``,
``useful-prop-random``, ``pgm-commutation``, ``hmin-le-h2``) are held to
their per-scenario evaluation on the draws they made (conftest's
``grouped_draws``), each state formed alone by ``build_cq``; the law of
those draws, and of the Markov factors', is held in
``tests/test_random_state_draws.py``.
The grouped routes must reproduce them bit for bit, because the report
bytes rest on them, and must refuse what they refuse with the same message.
"""

import itertools

import numpy as np
import pytest

from conftest import (
    conditional_mutual_information,
    conditional_mutual_informations,
    dense_cq,
    distance_to_uniform,
    extractor_output_state,
    ginibre_normals,
    grouped_draws,
    output_stacks,
    padded_pairs,
    random_blocks,
    random_densities,
    random_density,
)

from extraction_lab.cq_states import (
    CqState,
    MarkovScenario,
    apply_classical_function,
    build_cq,
    markov_block_state,
    pair_cmis,
    product_distances,
)
from extraction_lab.entropies import h2_cond, h2_rel, h_min_cond, h_min_markov_sources, h_min_rel
from extraction_lab.gf2 import all_bit_vectors, index_to_bits
from extraction_lab.harness import checks, scenarios
from extraction_lab.harness.checks import (
    MARKOV_M_MAX,
    _k_params,
    _random_extractor,
    run_check,
)
from extraction_lab.harness.scenarios import (
    MARKOV_BLOCKS_MAX,
    _formed_group,
    _markov_draw,
    _markov_draws,
    _markov_scenarios,
    _random_blocks_many,
    _random_cqs,
    make_markov_scenario,
)
from extraction_lab.operators import (
    _checked_psd,
    check_unit_traces,
    hermitian_stack,
    ginibre_densities,
    partial_trace,
    von_neumann_entropies,
)
from extraction_lab.xor_analysis import fourier_bounds, measured_xor_bounds, pgm_stacks


# -- per-scenario reference copies --------------------------------------------------

def _ref_random_cq(n_bits, dim, rng, min_support=1, draw=random_densities):
    indices, weights, conds = random_blocks(n_bits, dim, rng, min_support, draw)
    symbols = [index_to_bits(i, n_bits) for i in indices.tolist()]
    return build_cq(dict(zip(symbols, weights.tolist())), dict(zip(symbols, conds)))


def _ref_drawn_cq(n_bits, indices, weights, normals):
    """The cq-state of one drawn scenario (``_random_blocks_many``), formed alone: its
    Ginibre normals by ``ginibre_densities``, its pure or one-hot conds as drawn."""
    conds = ginibre_densities(normals) if normals.ndim == 4 else normals
    symbols = [index_to_bits(i, n_bits) for i in indices.tolist()]
    return build_cq(dict(zip(symbols, weights.tolist())), dict(zip(symbols, conds)))


def _ref_make_markov_scenario(n, n_blocks, seed, classical=False):
    """The Markov scenario of one ``_markov_draw``, each factor formed alone."""
    weights, factors = _markov_draw(n, n_blocks, seed, classical)
    return MarkovScenario(weights=weights, factors=tuple(
        (_ref_drawn_cq(*f1), _ref_drawn_cq(*f2)) for f1, f2 in factors))


def _ref_von_neumann_entropy(rho, check_trace=True):
    m = hermitian_stack(np.asarray(rho, dtype=complex)[None])[0]
    if check_trace:
        check_unit_traces([m.trace()], "density operator")
    w, _ = _checked_psd(np.linalg.eigvalsh(m), None)
    live = w > 0
    return float(-np.sum(w[live] * np.log2(w[live])))


def _ref_conditional_mutual_information(rho, dims):
    if len(dims) != 3:
        raise ValueError("dims must be (d_A, d_B, d_C)")
    s_ac = _ref_von_neumann_entropy(partial_trace(rho, dims, keep=(0, 2)), check_trace=False)
    s_bc = _ref_von_neumann_entropy(partial_trace(rho, dims, keep=(1, 2)), check_trace=False)
    s_abc = _ref_von_neumann_entropy(rho, check_trace=False)
    s_c = _ref_von_neumann_entropy(partial_trace(rho, dims, keep=(2,)), check_trace=False)
    return s_ac + s_bc - s_abc - s_c


def assert_same_state(new, ref, label):
    assert new.side_dim == ref.side_dim, label
    assert new.symbols() == ref.symbols(), label
    assert new.stack.tobytes() == ref.stack.tobytes(), label


def assert_same_scenario(new, ref, label):
    assert new.weights == ref.weights, label
    assert len(new.factors) == len(ref.factors), label
    for (a1, a2), (b1, b2) in zip(new.factors, ref.factors):
        assert_same_state(a1, b1, label)
        assert_same_state(a2, b2, label)


# -- the former against the per-scenario route ------------------------------------------

def _drawn_and_reference(count, seed, n_max=3, dim_max=3):
    """``count`` random cq-state draws of mixed (n_bits, dim) for the former, and the
    oracle's states from a twin generator; both generators end in one state."""
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn, refs = [], []
    for _ in range(count):
        n_bits, dim = (int(x) for x in ours.integers(1, [n_max + 1, dim_max + 1]))
        theirs.integers(1, [n_max + 1, dim_max + 1])
        drawn.append((n_bits, *random_blocks(n_bits, dim, ours, draw=ginibre_normals)))
        refs.append(_ref_random_cq(n_bits, dim, theirs))
    assert ours.bit_generator.state == theirs.bit_generator.state
    return drawn, refs


def test_random_cqs_match_build_cq_at_three_positions_of_a_batch():
    drawn, refs = _drawn_and_reference(200, 33)
    assert len({(n, conds.shape[-1]) for n, _, _, conds in drawn}) == 9
    for shift in (0, 1, 77):      # every draw at three positions of a 200-draw batch
        order = np.roll(np.arange(200), shift)
        for i, state in zip(order, _random_cqs([drawn[i] for i in order])):
            assert_same_state(state, refs[i], (shift, i))


@pytest.mark.parametrize("m, dim", [(1, 1), (2, 3), (3, 2)])
def test_a_formed_group_pads_the_build_cq_blocks(m, dim):
    rng, twin = np.random.default_rng(10 * m + dim), np.random.default_rng(10 * m + dim)
    drawn = [random_blocks(m, dim, rng, draw=ginibre_normals) for _ in range(200)]
    refs = [_ref_random_cq(m, dim, twin) for _ in range(200)]
    for shift in (0, 1, 77):
        order = np.roll(np.arange(200), shift)
        padded, present, stacks = _formed_group(all_bit_vectors(m), [drawn[i] for i in order])
        for j, i in enumerate(order):
            assert padded[j][present[j]].tobytes() == refs[i].stack.tobytes(), (shift, i)
            assert not padded[j][~present[j]].any()
            assert stacks[j].tobytes() == refs[i].stack.tobytes(), (shift, i)


def test_markov_scenarios_match_the_per_factor_route_at_three_positions():
    specs = [(1 + i % 3, 2 + i % 2, 1000 + i, i % 4 == 0) for i in range(200)]
    refs = [_ref_make_markov_scenario(*spec) for spec in specs]
    drawn = [_markov_draw(*spec) for spec in specs]
    for shift in (0, 1, 77):
        order = np.roll(np.arange(200), shift)
        for i, scn in zip(order, _markov_scenarios([drawn[i] for i in order])):
            assert_same_scenario(scn, refs[i], (shift, i))
    for spec, ref in zip(specs[:12], refs):       # the batch of one
        assert_same_scenario(make_markov_scenario(*spec), ref, spec)


# -- stacked entropies against the per-state route ----------------------------------------

def _dense_inputs(rng):
    """(rho, dims) pairs of mixed dims: Markov joint states, full-rank densities and
    rank-deficient ones whose zero eigenvalues round to either sign."""
    pairs = []
    for i in range(30):
        n = 1 + i % 2
        joint = markov_block_state(make_markov_scenario(n, 2 + i % 2, seed=i, classical=i % 3 == 0))
        alphabet = all_bit_vectors(n)
        pairs.append((dense_cq(joint, [(a, b) for a in alphabet for b in alphabet]),
                      (1 << n, 1 << n, joint.side_dim)))
    for dims in ((2, 2, 1), (2, 2, 3), (2, 4, 2), (4, 4, 2)):
        size = int(np.prod(dims))
        for rank in (size, 1, size // 2):
            g = rng.standard_normal((size, rank)) + 1j * rng.standard_normal((size, rank))
            rho = g @ g.conj().T
            pairs.append((rho / np.trace(rho).real, dims))
    order = rng.permutation(len(pairs))
    return [pairs[i] for i in order]


def _stacked_by_dims(pairs):
    """conditional_mutual_informations per dims of ``pairs``, back in list order."""
    groups = {}
    for i, (_, dims) in enumerate(pairs):
        groups.setdefault(dims, []).append(i)
    out = [None] * len(pairs)
    for dims, at in groups.items():
        for i, value in zip(at, conditional_mutual_informations(
                np.array([pairs[i][0] for i in at]), dims).tolist()):
            out[i] = value
    return out


def test_stacked_cmi_matches_the_per_state_route_on_mixed_dims():
    pairs = _dense_inputs(np.random.default_rng(4))
    assert len({dims for _, dims in pairs}) >= 8
    want = [_ref_conditional_mutual_information(rho, dims) for rho, dims in pairs]
    assert _stacked_by_dims(pairs) == want
    assert _stacked_by_dims(pairs[::-1]) == want[::-1]
    assert [conditional_mutual_information(rho, dims) for rho, dims in pairs] == want
    for rho, dims in pairs[:6]:       # a batch of one
        (value,) = conditional_mutual_informations(rho[None], dims).tolist()
        assert value == _ref_conditional_mutual_information(rho, dims)
    empty = conditional_mutual_informations(np.zeros((0, 8, 8), dtype=complex), (2, 2, 2))
    assert empty.shape == (0,) and empty.dtype == float


def test_stacked_entropies_match_the_per_state_route():
    rng = np.random.default_rng(8)
    for dim in (1, 2, 5, 12):
        stack = np.array([random_density(dim, rng) if dim > 1 else np.ones((1, 1))
                          for _ in range(20)], dtype=complex)
        stack[::3] = stack[::3] @ np.diag([1.0] + [0.0] * (dim - 1)) @ stack[::3]
        want = [_ref_von_neumann_entropy(rho, check_trace=False) for rho in stack]
        assert von_neumann_entropies(stack).tolist() == want
        assert [von_neumann_entropies(rho[None])[0] for rho in stack[1::3]] == want[1::3]
    assert von_neumann_entropies(np.zeros((0, 3, 3), dtype=complex)).shape == (0,)


def test_stacked_cmi_refuses_a_non_psd_member():
    rng = np.random.default_rng(6)
    stack = random_densities(5, 4, rng)
    stack[3] = np.diag([0.6, 0.3, 0.2, -0.1])     # its marginals are PSD, it is not
    message = "operator is not PSD (min eigenvalue -1.000e-01)"
    with pytest.raises(ValueError) as alone:
        _ref_conditional_mutual_information(stack[3], (2, 2, 1))
    with pytest.raises(ValueError) as stacked:
        conditional_mutual_informations(stack, (2, 2, 1))
    assert str(stacked.value) == str(alone.value) == message
    stack[3, 0, 1] = 0.5
    with pytest.raises(ValueError, match="^operator is not Hermitian"):
        conditional_mutual_informations(stack, (2, 2, 1))


# -- whole checks against their per-scenario loops -----------------------------------------

def _markov_cmi_oracle(count, seed):
    """The per-scenario loop of markov-cmi: each state's CMI taken alone, (label, cmi)
    rows, and the dense route's CMI of each."""
    rng = np.random.default_rng(seed)
    rows, dense = [], []
    for _ in range(count):
        n = int(rng.integers(1, 3))
        classical = bool(rng.random() < 0.3)
        scn = _ref_make_markov_scenario(n, int(rng.integers(2, MARKOV_BLOCKS_MAX + 1)),
                                        seed=int(rng.integers(2 ** 31)), classical=classical)
        joint = markov_block_state(scn)
        rows.append((f"markov-cmi n={n} blocks={len(scn.weights)} side={joint.side_dim}",
                     pair_cmis(*padded_pairs([joint], n))[0].hex()))
        alphabet = all_bit_vectors(n)
        dense.append(_ref_conditional_mutual_information(
            dense_cq(joint, [(a, b) for a in alphabet for b in alphabet]),
            (len(alphabet), len(alphabet), joint.side_dim)))
    return rows, dense


def test_markov_cmi_groups_match_the_per_scenario_loop(monkeypatch):
    want, dense = _markov_cmi_oracle(120, 12)
    sizes = []
    stacked = checks.pair_cmis
    monkeypatch.setattr(checks, "pair_cmis", lambda stacks, present:
                        sizes.append(len(stacks)) or stacked(stacks, present))
    calls = []
    for budget in (checks.BLOCK_BUDGET, 300):     # then early flushes of the small dims
        sizes.clear()
        monkeypatch.setattr(checks, "BLOCK_BUDGET", budget)
        reports = run_check("markov-cmi", {"params": {"count": 120}, "seed": 12})
        assert [(r.scenario.split(" ", 1)[1], r.measured_delta.hex()) for r in reports] == want
        assert sum(sizes) == 120 and max(sizes) > 4
        calls.append(len(sizes))
    assert calls[1] > calls[0]
    assert max(abs(r.measured_delta - cmi) for r, cmi in zip(reports, dense)) <= 1e-12


def _output_oracle(check_id, drawn):
    """The per-scenario evaluation of measured-xor-random and useful-prop-random on
    their draws: each state formed alone by build_cq, its values by the per-state
    kernels."""
    rows = []
    for (m, dim), (blocks, sigma) in drawn:
        state = _ref_drawn_cq(m, *blocks)
        delta = distance_to_uniform(state, 1 << m)
        if check_id == "measured-xor-random":
            rows.append((f"xor m={m} dim={dim}", delta,
                         measured_xor_bounds(*output_stacks([state]))[0]))
        else:
            bound = fourier_bounds(output_stacks([state])[0], ginibre_densities(sigma))[0]
            rows.append((f"fourier m={m} dim={dim}", delta ** 2, bound))
    return rows


def _hmin_le_h2_oracle(drawn):
    """The per-scenario evaluation of hmin-le-h2 on its draws: each state formed alone
    by build_cq, its entropies solved alone."""
    rows = []
    for _, (n_bits, dim, blocks, sigma) in drawn:
        state = _ref_drawn_cq(*blocks)
        rows.append((f"entropy-order n={n_bits} dim={dim}",
                     h_min_rel(state, sigma) - h2_rel(state, sigma)))
        rows.append((f"entropy-order n={n_bits} dim={dim}",
                     h_min_cond(state).value - h2_cond(state).value))
    return rows


def _b2_markov_oracle(count, seed):
    """The per-scenario loop of b2-markov: each scenario formed alone, its distance
    summed over its blocks' product distances, each block's a batch of one, and its
    entropies composed alone.  Each block's distance is also held within 1e-14 of
    the cq-state route, the output state's ``distance_to_uniform``."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(count):
        kind, ext = _random_extractor(rng, 2, 3, MARKOV_M_MAX)
        classical = bool(rng.random() < 0.5)
        blocks = int(rng.integers(2, MARKOV_BLOCKS_MAX + 1))
        scn = _ref_make_markov_scenario(ext.n, blocks, seed=int(rng.integers(2 ** 31)),
                                        classical=classical)
        delta = 0.0
        for w, (s1, s2) in zip(scn.weights, scn.factors):
            [block] = product_distances([(ext, s1, s2)], "x1").tolist()
            out = extractor_output_state(ext, s1, s2, "x1")
            assert abs(block - distance_to_uniform(out, 1 << ext.m, True)) <= 1e-14
            delta += w * block
        [(res1, res2)] = h_min_markov_sources([scn])
        kp = _k_params(ext.n, ext.m, ext.family.r, res1.value, res2.value)
        model = "classical-markov" if classical else "quantum-markov"
        flags = {"converged1": res1.converged, "converged2": res2.converged}
        rows += [(f"{kind} n={ext.n} m={ext.m} {model} blocks={blocks}", delta, kp, flags)] * 4
    return rows


@pytest.mark.parametrize("check_id", ["measured-xor-random", "useful-prop-random"])
def test_random_output_groups_match_the_per_scenario_loop(monkeypatch, check_id):
    reports, drawn = grouped_draws(monkeypatch, check_id, {"params": {"count": 150}, "seed": 21})
    rows = [(r.scenario.split(" ", 1)[1], r.measured_delta, r.bound_epsilon) for r in reports]
    assert len(drawn) == 150 and rows == _output_oracle(check_id, drawn)


def test_hmin_le_h2_batches_match_the_per_scenario_loop(monkeypatch):
    reports, drawn = grouped_draws(monkeypatch, "hmin-le-h2", {"params": {"count": 60}, "seed": 5})
    assert len(drawn) == 60 and {item[1] for _, item in drawn} == {1, 2, 3}
    assert [(r.scenario.split(" ", 1)[1], r.measured_delta) for r in reports] == \
        _hmin_le_h2_oracle(drawn)


def test_b2_markov_matches_the_per_scenario_loop():
    reports = run_check("b2-markov", {"params": {"count": 10, "n_max": 3}, "seed": 2})
    assert [(r.scenario.split(" ", 1)[1], r.measured_delta, r.params, r.flags)
            for r in reports] == _b2_markov_oracle(10, 2)


def _pgm_commutation_oracle(drawn):
    """The per-scenario evaluation of pgm-commutation on its draws: (label, dev) rows."""
    rows = []
    for (n_bits, dim, out_bits), (blocks, images) in drawn:
        state = _ref_drawn_cq(n_bits, *blocks)
        table = {sym: index_to_bits(int(z), out_bits)
                 for sym, z in zip(state.symbols(), images.tolist())}
        mapped = apply_classical_function(state, table.__getitem__)
        lhs = pgm_stacks(mapped.stack[None], np.ones((1, len(mapped.stack)), dtype=bool))[0]
        povm = pgm_stacks(state.stack[None], np.ones((1, len(state.stack)), dtype=bool))[0]
        rhs = apply_classical_function(CqState._from_stack(state.symbols(), povm),
                                       table.__getitem__)
        dev = float(np.max(np.abs(lhs - rhs.stack)))
        rows.append((f"pgm-commute n={n_bits} dim={dim} out={out_bits}", dev.hex()))
    return rows


def test_pgm_commutation_groups_match_the_per_scenario_loop(monkeypatch):
    reports, drawn = grouped_draws(monkeypatch, "pgm-commutation",
                                   {"params": {"count": 200}, "seed": 14})
    want = _pgm_commutation_oracle(drawn)
    assert len({label for label, _ in want}) == 18      # every (n_bits, dim, out_bits) group
    labels = [r.scenario.split(" ", 1)[1] for r in reports]
    assert list(zip(labels, (r.measured_delta.hex() for r in reports))) == want
    # Every draw at three positions of the 200-draw batch, grouped as the check
    # groups it.
    deviations = checks._commutation_deviations
    for shift in (0, 1, 77):
        at = {}
        for i in np.roll(np.arange(len(drawn)), shift).tolist():
            at.setdefault(drawn[i][0], []).append(i)
        for key, idx in at.items():
            devs = deviations(key, [drawn[i][1] for i in idx])
            assert [dev.hex() for dev in devs] == [want[i][1] for i in idx], (shift, key)
    for (key, item), (_, dev) in zip(drawn[:6], want):       # a batch of one
        assert [d.hex() for d in deviations(key, [item])] == [dev]


# -- refusals ----------------------------------------------------------------------------

def _fault_trace(weights, conds):
    conds[0] = 1.5 * conds[0]
    return weights, conds


def _fault_psd(weights, conds):
    d = conds.shape[-1]
    conds[-1] = np.diag([1.5, -0.5] + [0.0] * (d - 2))
    return weights, conds


def _fault_finite(weights, conds):
    conds[0, 0, 1] = np.nan
    return weights, conds


def _fault_distribution(weights, conds):
    return 2 * weights, conds


FAULTS = {"trace": (_fault_trace, "conditional state for .* is not normalized"),
          "psd": (_fault_psd, "conditional operator for .* is not PSD"),
          "finite": (_fault_finite, "block for .* has non-finite entries"),
          "distribution": (_fault_distribution, "^distribution sums to .*, not 1$")}
GROUPED = {"markov-cmi": {"count": 12}, "b2-markov": {"count": 6, "n_max": 3},
           "measured-xor-random": {"count": 40}, "useful-prop-random": {"count": 40},
           "hmin-le-h2": {"count": 20}, "pgm-commutation": {"count": 20}}


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("check_id", GROUPED)
def test_grouped_checks_refuse_a_bad_draw_as_build_cq_does(monkeypatch, check_id, fault):
    # The fifth draw on a side of dimension 2 or more is spoiled; every draw is
    # formed as drawn, which gives the group what it would form itself.
    spoil, match = FAULTS[fault]
    calls, spoiled = itertools.count(), []

    def formed(n_bits, dim, indices, weights, conds):
        conds = ginibre_densities(conds) if conds.ndim == 4 else conds.copy()
        if dim > 1 and next(calls) == 4:
            weights, conds = spoil(weights, conds)
            spoiled.append((n_bits, indices, weights, conds))
        return indices, weights, conds

    def draw_blocks_many(n_bits, dims, rng, min_support=1, conds="mixed"):
        return [formed(n, dim, *drawn) for n, dim, drawn in zip(
            np.asarray(n_bits).tolist(), np.asarray(dims).tolist(),
            _random_blocks_many(n_bits, dims, rng, min_support, conds))]

    def markov_draws(specs):        # the Markov checks' factors, in draw order
        return [(weights, [tuple((n, *formed(n, conds.shape[-1], indices, w, conds))
                                 for n, indices, w, conds in pair) for pair in factors])
                for weights, factors in _markov_draws(specs)]

    monkeypatch.setattr(scenarios, "_random_blocks_many", draw_blocks_many)
    monkeypatch.setattr(checks, "_random_blocks_many", draw_blocks_many)
    monkeypatch.setattr(checks, "_markov_draws", markov_draws)
    with pytest.raises(ValueError) as grouped:
        run_check(check_id, {"params": GROUPED[check_id], "seed": 3})
    (n_bits, indices, weights, conds), = spoiled
    symbols = [index_to_bits(i, n_bits) for i in indices.tolist()]
    with pytest.raises(ValueError) as alone:
        build_cq(dict(zip(symbols, weights.tolist())), dict(zip(symbols, conds)))
    assert str(grouped.value) == str(alone.value)
    assert grouped.match(match)
    if fault != "distribution":
        assert str(symbols[-1 if fault == "psd" else 0]) in str(grouped.value)
