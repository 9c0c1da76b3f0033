"""Oracles for the flat sources that the product and flat-grid checks form per group.

``b1-quantum-product``, ``b8-weak-quantum``, ``b1-exhaustive-flat``,
``ip-classical`` and ``hmin-linear-drop`` draw their flat sources raw
(``scenarios._random_source`` and ``_flat_draw``) and form them per group by
one ``_random_cqs``.  The per-source route they replaced is the oracle:
``make_flat_source`` with ``make_side_info`` (or ``classical_state``), one
``build_cq`` a source.  ``make_side_info`` itself now takes its conditionals
from ``_side_conditionals``, so it is held to the side models as they were
written before, kept verbatim below.  Every formed state must equal its
oracle bit for bit, in symbols and stack bytes, because the report bytes
rest on them, and the check's generator must end where the old route left it.
"""

import functools

import numpy as np
import pytest

from conftest import answered, one_hot, random_pure_state

from extraction_lab import cq_states
from extraction_lab.cq_states import build_cq, classical_state
from extraction_lab.gf2 import index_to_bits
from extraction_lab.harness import checks, scenarios
from extraction_lab.harness.checks import _flat_sources, run_check
from extraction_lab.harness.scenarios import (
    _KETS,
    LEAKS,
    SIDE_PARAMS,
    _flat_draw,
    _flat_indices,
    _random_cqs,
    _random_source,
    make_flat_source,
    make_side_info,
)


# -- per-source reference copies ------------------------------------------------------

def _ref_make_flat_source(n, k, support_rule="prefix", seed=0):
    size = 1 << k
    if support_rule == "prefix":
        indices = range(size)
    else:
        rng = np.random.default_rng(seed)
        indices = sorted(int(i) for i in rng.choice(1 << n, size=size, replace=False))
    p = 1.0 / size
    return {index_to_bits(i, n): p for i in indices}


def _ref_make_side_info(model, dist, params=None, seed=0):
    params = {**SIDE_PARAMS[model], **(params or {})}
    if model == "trivial":
        return classical_state(dist)
    if model == "classical_leak":
        return build_cq(dist, {sym: one_hot(LEAKS[params["leak"]](sym), 2) for sym in dist})
    if model == "bb84":
        encode = functools.cache(
            lambda prefix: functools.reduce(np.kron, [_KETS[b] for b in prefix]))
        return build_cq(dist, {sym: encode(sym[:params["bits"]]) for sym in dist})
    rng = np.random.default_rng(seed)
    return build_cq(dist, {sym: random_pure_state(params["dim"], rng) for sym in sorted(dist)})


def _ref_random_source(n, rng, trivial=False):
    """The per-source route of ``_random_source``: ((model, params, rule), state)."""
    k_target = int(rng.integers(max(1, n - 2), n + 1))
    rule = "prefix" if rng.random() < 0.5 else "random"
    dist = make_flat_source(n, k_target, rule, seed=int(rng.integers(2 ** 31)))
    model = "bb84" if rng.random() < 0.5 else "random_pure"
    if model == "bb84":
        params = {"bits": int(rng.integers(1, min(2, n) + 1))}
    else:
        params = {"dim": int(rng.integers(2, 5))}
    seed = int(rng.integers(2 ** 31))
    if trivial:
        return ("trivial", {}, rule), classical_state(dist)
    return (model, params, rule), make_side_info(model, dist, params, seed=seed)


def assert_same_state(new, ref, label):
    assert new.side_dim == ref.side_dim, label
    assert new.symbols() == ref.symbols(), label
    assert new.stack.tobytes() == ref.stack.tobytes(), label


# -- the side models and the flat supports ----------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("rule", ["prefix", "random"])
def test_flat_indices_are_make_flat_sources_support(n, rule):
    for k in range(n + 1):
        for seed in (0, 7, 2 ** 31 - 1):
            ref = _ref_make_flat_source(n, k, rule, seed)
            assert make_flat_source(n, k, rule, seed) == ref
            indices = _flat_indices(n, k, rule, seed)
            assert [index_to_bits(i, n) for i in indices.tolist()] == list(ref)


@pytest.mark.parametrize("model,params", [
    ("trivial", {}), ("classical_leak", {"leak": "parity"}),
    ("classical_leak", {"leak": "first_bit"}), ("bb84", {"bits": 1}), ("bb84", {"bits": 2}),
    ("random_pure", {"dim": 2}), ("random_pure", {"dim": 3}), ("random_pure", {"dim": 4}),
])
def test_make_side_info_keeps_each_side_model(model, params):
    # Random distributions with zero-weight symbols, listed out of order: the
    # conditionals follow the sorted symbols and build_cq drops the zero weights.
    rng = np.random.default_rng(61)
    for trial in range(20):
        n = int(rng.integers(2, 5))
        chosen = rng.choice(1 << n, size=int(rng.integers(1, (1 << n) + 1)), replace=False)
        weights = rng.random(len(chosen)) * (rng.random(len(chosen)) < 0.8)
        weights[0] += 1e-3
        dist = {index_to_bits(int(i), n): float(w)
                for i, w in zip(chosen, weights / weights.sum())}
        seed = int(rng.integers(2 ** 31))
        assert_same_state(make_side_info(model, dist, params, seed=seed),
                          _ref_make_side_info(model, dist, params, seed), (trial, n))


# -- the grouped sources against the per-source route -------------------------------------

def test_random_sources_match_the_per_source_route_at_three_positions():
    ours, theirs = np.random.default_rng(71), np.random.default_rng(71)
    drawn, refs, seen = [], [], set()
    for i in range(240):
        n, trivial = 2 + i % 4, i % 5 == 0
        drawn.append(_random_source(n, ours, trivial))
        (model, params, rule), ref = _ref_random_source(n, theirs, trivial)
        assert drawn[-1][0] == model
        refs.append(ref)
        seen.add((model, *params.values(), rule))
    assert ours.bit_generator.state == theirs.bit_generator.state
    # bb84 with 1 and 2 bits, random_pure with dim 2-4 and trivial, each on both supports
    assert seen == {(model, *value, rule) for rule in ("prefix", "random")
                    for model, value in [("trivial", ()), ("bb84", (1,)), ("bb84", (2,)),
                                         ("random_pure", (2,)), ("random_pure", (3,)),
                                         ("random_pure", (4,))]}
    for shift in (0, 1, 77):
        order = np.roll(np.arange(len(drawn)), shift)
        for i, state in zip(order, _random_cqs([drawn[i][1] for i in order])):
            assert_same_state(state, refs[i], (shift, i))


@pytest.mark.parametrize("side", list(SIDE_PARAMS))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_flat_sources_match_the_per_source_route(side, n):
    [(states, ks)] = answered(_flat_sources([(n, side)])).values()
    refs = [_ref_make_side_info(side, _ref_make_flat_source(n, k)) for k in range(n + 1)]
    assert len(states) == n + 1
    for k, (state, ref) in enumerate(zip(states, refs)):
        assert_same_state(state, ref, k)
        assert_same_state(state, make_side_info(side, make_flat_source(n, k)), k)
    assert ks == [res.value for res in checks.h_min_cond_many(refs)]


@pytest.mark.parametrize("rule", ["prefix", "random"])
def test_a_trivial_flat_draw_is_its_classical_state(rule):
    for n in range(1, 6):
        for k in range(n + 1):
            indices = _flat_indices(n, k, rule, seed=n * 10 + k)
            [state] = _random_cqs([_flat_draw(n, indices)])
            ref = classical_state(_ref_make_flat_source(n, k, rule, seed=n * 10 + k))
            assert_same_state(state, ref, (n, k))


# -- no check builds a source alone ----------------------------------------------------------

@pytest.mark.parametrize("check_id,params,rows", [
    ("b1-quantum-product", {"count": 40}, 4 * 40),
    ("b8-weak-quantum", {"count": 20}, 20),
    ("b1-exhaustive-flat", {"ns": [3], "ms": [1], "sides": list(SIDE_PARAMS)}, 2 * 4 * 16),
    ("ip-classical", {"ns": [2, 3]}, 2 * (9 + 16)),
    ("hmin-linear-drop", {"random_ns": [4], "per_n": 5}, 512 + 5),
])
def test_the_flat_source_checks_build_no_source_alone(monkeypatch, check_id, params, rows):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{check_id} built a source alone")

    for module in (cq_states, scenarios, checks):
        for name in ("build_cq", "make_side_info", "classical_state"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    reports = run_check(check_id, {"params": params, "seed": 5})
    assert len(reports) == rows and all(r.passed for r in reports)
