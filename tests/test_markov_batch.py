"""Oracles and a structure guard for the Markov scenarios drawn and embedded per batch.

``b2-markov`` and ``markov-cmi`` take every scenario's seed first and draw
all scenarios with one ``scenarios._markov_draws``: each scenario still makes
its six calls on its own ``default_rng(seed)``, and the ranking of its
support keys, the normalisation of its weights and the forming of its
conditionals are done once for the batch.  ``markov-cmi`` then writes each
(n, d_C) group's block products straight into the padded stack that
``pair_cmis`` takes (``cq_states.markov_pair_stacks``), with no pair symbols
and no slot dict.  The per-scenario routes they replaced are the oracles,
kept verbatim in conftest: ``ref_markov_draw`` (with ``ref_random_blocks_many``)
and ``ref_markov_block_state``.  Every draw and every stack must equal its
oracle bit for bit, because the report bytes rest on them.
"""

import itertools

import numpy as np
import pytest

from conftest import _DEFAULT_RNG, ref_markov_block_state, ref_markov_draw, ref_random_blocks_many

from extraction_lab import cq_states
from extraction_lab.cq_states import (
    CqState,
    MarkovScenario,
    build_cq,
    classical_state,
    markov_block_state,
    markov_pair_stacks,
    padded_stacks,
    pair_cmis,
)
from extraction_lab.gf2 import _symbol_indices, all_bit_vectors, index_to_bits
from extraction_lab.harness import scenarios
from extraction_lab.harness.checks import run_check
from extraction_lab.harness.scenarios import (
    _markov_draw,
    _markov_draws,
    _markov_scenarios,
    _random_blocks_many,
)

# Every (n, blocks, classical) at three seeds each: n 1-3 and 8, 1-3 blocks.
SPECS = [(n, blocks, 4000 + 10 * i + k, classical)
         for i, (n, blocks, classical) in enumerate(
             itertools.product((1, 2, 3, 8), (1, 2, 3), (False, True)))
         for k in range(3)]


def _recorded(monkeypatch, draw, *args):
    """``draw(*args)`` and the generators that it made, in order."""
    made = []

    def recording(seed):
        made.append(_DEFAULT_RNG(seed))
        return made[-1]

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", recording)
        return draw(*args), made


def _same_array(new, ref, label):
    assert new.dtype == ref.dtype and new.shape == ref.shape, label
    assert new.tobytes() == ref.tobytes(), label


def _assert_same_draw(new, ref, label):
    (weights, factors), (ref_weights, ref_factors) = new, ref
    assert isinstance(weights, tuple) and len(weights) == len(ref_weights), label
    assert [w.hex() for w in weights] == [w.hex() for w in ref_weights], label
    assert len(factors) == len(ref_factors), label
    for pair, ref_pair in zip(factors, ref_factors):
        for (n, *arrays), (ref_n, *ref_arrays) in zip(pair, ref_pair):
            assert n == ref_n, label
            for x, y in zip(arrays, ref_arrays):       # indices, weights, conds
                _same_array(x, y, label)


# -- the batch drawer against the per-scenario draw ----------------------------------------

def test_the_batch_drawer_matches_the_per_scenario_draw_at_three_positions(monkeypatch):
    refs, ref_states = [], []
    for spec in SPECS:
        ref, [generator] = _recorded(monkeypatch, ref_markov_draw, *spec)
        refs.append(ref)
        ref_states.append(generator.bit_generator.state)
    dims = {conds.shape[-1] for _, factors in refs for pair in factors for _, _, _, conds in pair}
    assert len(SPECS) >= 60 and dims == {1, 2}
    for shift in (0, 1, 37):
        order = np.roll(np.arange(len(SPECS)), shift).tolist()
        drawn, made = _recorded(monkeypatch, _markov_draws, [SPECS[i] for i in order])
        assert len(drawn) == len(made) == len(SPECS)
        for i, new, generator in zip(order, drawn, made):
            _assert_same_draw(new, refs[i], (shift, SPECS[i]))
            assert generator.bit_generator.state == ref_states[i], (shift, SPECS[i])
    for spec, ref in zip(SPECS[:12], refs):        # the batch of one
        _assert_same_draw(_markov_draw(*spec), ref, spec)


@pytest.mark.parametrize("conds", ["mixed", "pure", "one-hot"])
def test_a_block_of_many_side_dimensions_matches_the_verbatim_route(conds):
    # Side dimensions 1-4 in one block: each kind is formed per dimension.
    for seed in range(12):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        n_bits, dims = ours.integers(1, 5, size=(2, 40))
        theirs.integers(1, 5, size=(2, 40))
        new = _random_blocks_many(n_bits, dims, ours, 1 + seed % 2, conds)
        ref = ref_random_blocks_many(n_bits, dims, theirs, 1 + seed % 2, conds)
        assert len(new) == len(ref) == 40
        for i, (a, b) in enumerate(zip(new, ref)):
            for x, y in zip(a, b):
                _same_array(x, y, (seed, i))
        assert ours.bit_generator.state == theirs.bit_generator.state


# -- the group former against the per-state embedding --------------------------------------

def _slots(draw):
    """Each block's factor indices of a drawn scenario, as ``markov_pair_stacks`` takes them."""
    return [(f1[1], f2[1]) for f1, f2 in draw[1]]


def _ref_padded(items, n, side):
    """The oracle's stacks of ``items``, padded through the pair slot map markov-cmi kept."""
    alphabet = all_bit_vectors(n)
    slot = {(a, b): i for i, (a, b) in enumerate(itertools.product(alphabet, repeat=2))}
    states = [ref_markov_block_state(scn) for scn in items]
    stacks, present = padded_stacks(
        [(s.stack, np.array([slot[sym] for sym in s.symbols()])) for s in states], len(slot))
    shape = (len(items), len(alphabet), len(alphabet))
    return stacks.reshape(shape + (side, side)), present.reshape(shape)


def _side(scenario):
    return sum(s1.side_dim * s2.side_dim for s1, s2 in scenario.factors)


def _assert_former_matches(items, slots, n, label):
    stacks, present = markov_pair_stacks(items, slots, (1 << n, 1 << n))
    ref_stacks, ref_present = _ref_padded(items, n, _side(items[0]))
    _same_array(stacks, ref_stacks, label)
    _same_array(present, ref_present, label)
    _same_array(pair_cmis(stacks, present), pair_cmis(ref_stacks, ref_present), label)


def test_the_group_former_matches_the_padded_embedding_at_three_positions():
    specs = [spec for spec in SPECS if spec[0] < 8] * 2
    specs = [(n, blocks, seed + 7 * k, classical)
             for k, (n, blocks, seed, classical) in enumerate(specs)]
    drawn = _markov_draws(specs)
    built = _markov_scenarios(drawn)
    for spec, scn in zip(specs, built):
        new, ref = markov_block_state(scn), ref_markov_block_state(scn)
        assert new.symbols() == ref.symbols(), spec
        _same_array(new.stack, ref.stack, spec)
    seen = set()
    for shift in (0, 1, 29):
        groups = {}
        for i in np.roll(np.arange(len(specs)), shift).tolist():
            groups.setdefault((specs[i][0], _side(built[i])), []).append(i)
        for (n, side), at in groups.items():
            _assert_former_matches([built[i] for i in at], [_slots(drawn[i]) for i in at], n,
                                   (shift, n, side))
            seen.add((n, side))
    assert {side for _, side in seen} == set(range(1, 11))     # d_C 11 and 12 are rare


def _state(n, weights):
    """The classical n-bit cq-state with ``weights`` on the given indices."""
    return classical_state({index_to_bits(i, n): w for i, w in weights.items()})


def _qubit_state(n, weights):
    """The n-bit cq-state with ``weights`` on the given indices, each with the qubit |+><+|."""
    plus = np.full((2, 2), 0.5, dtype=complex)
    return build_cq({index_to_bits(i, n): w for i, w in weights.items()},
                    {index_to_bits(i, n): plus for i in weights})


@pytest.mark.parametrize("case", ["zero-weight block", "disjoint supports"])
def test_hand_built_mixtures_match_the_per_state_embedding(case):
    n = 2
    if case == "zero-weight block":
        scn = MarkovScenario((0.0, 0.75, 0.25), (
            (_qubit_state(n, {3: 1.0}), _state(n, {2: 1.0})),
            (_state(n, {0: 0.5, 1: 0.5}), _qubit_state(n, {1: 0.25, 2: 0.75})),
            (_qubit_state(n, {0: 0.125, 2: 0.875}), _qubit_state(n, {1: 1.0}))))
    else:
        scn = MarkovScenario((0.5, 0.5), (
            (_state(n, {0: 0.5, 1: 0.5}), _qubit_state(n, {0: 0.25, 1: 0.75})),
            (_qubit_state(n, {2: 0.5, 3: 0.5}), _state(n, {2: 0.125, 3: 0.875}))))
    new, ref = markov_block_state(scn), ref_markov_block_state(scn)
    assert new.symbols() == ref.symbols() and new.side_dim == ref.side_dim
    _same_array(new.stack, ref.stack, case)
    slots = [tuple(_symbol_indices(s.symbols(), n, "source") for s in pair)
             for pair in scn.factors]
    _assert_former_matches([scn, scn], [slots, slots], n, case)
    if case == "zero-weight block":
        # the first block's symbols are padded in, but no pair of it is present
        assert (index_to_bits(3, n), index_to_bits(2, n)) not in new.symbols()


# -- the structure of the two Markov checks -------------------------------------------------

def _refuse(*_, **__):
    raise AssertionError("markov-cmi built a pair-symbol state")


def test_markov_cmi_builds_no_pair_symbol_state(monkeypatch):
    config = {"params": {"count": 100}, "seed": 3000012}
    want = [(r.scenario, r.measured_delta.hex()) for r in run_check("markov-cmi", config)]
    with monkeypatch.context() as patch:
        patch.setattr(cq_states, "markov_block_state", _refuse)
        patch.setattr(CqState, "symbols", _refuse)
        got = [(r.scenario, r.measured_delta.hex()) for r in run_check("markov-cmi", config)]
    assert got == want


@pytest.mark.parametrize("check_id, params", [("markov-cmi", {"count": 100}),
                                              ("b2-markov", {"count": 24, "n_max": 3})])
def test_the_bookkeeping_runs_once_per_check(monkeypatch, check_id, params):
    # One pass of ranking, normalising and forming for the whole check, not one a
    # scenario; each scenario still draws from a generator of its own.
    counts = {"batches": 0, "lexsort": 0, "pure_states": 0, "generators": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scenarios, "_drawn_blocks", counted("batches", scenarios._drawn_blocks))
    monkeypatch.setattr(scenarios, "pure_states", counted("pure_states", scenarios.pure_states))
    monkeypatch.setattr(np, "lexsort", counted("lexsort", np.lexsort))
    monkeypatch.setattr(np.random, "default_rng", counted("generators", _DEFAULT_RNG))
    reports = run_check(check_id, {"params": params, "seed": 11})
    assert len({r.scenario for r in reports}) > 1
    assert counts == {"batches": 1, "lexsort": 1, "pure_states": 1,
                      "generators": 1 + params["count"]}
