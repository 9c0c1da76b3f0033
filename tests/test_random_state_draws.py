"""Oracles for the column draws of random cq-states.

``measured-xor-random``, ``useful-prop-random``, ``pgm-commutation``,
``one-two-norm`` and ``hmin-le-h2`` draw their scenarios in blocks, a handful
of generator calls a block (``scenarios._random_blocks_many`` and the checks'
``block()``); ``hmin-linear-drop`` draws its sources as one block, and each
Markov scenario its factors (``scenarios._markov_draw``).  Their former draws,
one scenario, one state and one conditional at a time by scalar calls and
conftest's ``random_blocks`` and ``markov_draw``, are the law oracle.  The
tests hold:

* both samplers' (m or n_bits, dim, support) counts over 20 000 scenarios
  against the closed-form law, and against each other; so too the Markov
  factors' (n, side dimension, support) counts, one-hot indices and pure
  states, and ``hmin-linear-drop``'s sources and maps;
* given (n, support), each slot's inclusion frequency against support/2^n,
  the indices ascending and the weights summing to 1; a block's normals are
  the numbers that consecutive calls would take, and its pure states those
  that ``random_pure_state`` draws, bit for bit;
* the rows of a count are the first rows of every larger count;
* a fixed number of generator calls per block, and per Markov scenario,
  none of them ``choice``;
* at m_max 12 and dim_max 16 a block is one scenario, and drawing it holds
  about its own entries.
"""

import collections
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import (
    CountingGenerator,
    ginibre_normals,
    markov_draw,
    random_blocks,
    random_density,
    random_pure_state,
)

from extraction_lab.harness import checks, run_check, scenarios
from extraction_lab.harness.checks import resolve_params
from extraction_lab.harness.scenarios import _markov_draw, _markov_draws, _random_blocks_many
from extraction_lab.operators import pure_states

SCENARIOS = 20000
BLOCKED = ("measured-xor-random", "useful-prop-random", "pgm-commutation", "one-two-norm",
           "hmin-le-h2")


# -- the former per-scenario draws() loops --------------------------------------------

def _per_scenario_output(rng, count, m_max=2, dim_max=3, with_sigma=False):
    for _ in range(count):
        m = int(rng.integers(1, m_max + 1))
        dim = int(rng.integers(1, dim_max + 1))
        drawn = random_blocks(m, dim, rng, draw=ginibre_normals)
        sigma = ginibre_normals(1, dim, rng) if with_sigma else None
        yield (m, dim), (1 << 2 * m) * dim * dim, (drawn, sigma)


def _per_scenario_commutation(rng, count):
    for _ in range(count):
        n_bits = int(rng.integers(1, 4))
        dim = int(rng.integers(2, 5))
        drawn = random_blocks(n_bits, dim, rng, min_support=2, draw=ginibre_normals)
        out_bits = int(rng.integers(1, 3))
        images = [int(rng.integers(1 << out_bits)) for _ in drawn[0]]
        yield (n_bits, dim, out_bits), (dim * dim) << n_bits, (drawn, images)


def _per_scenario_one_two_norm(rng, count):
    for _ in range(count):
        dim_a = int(rng.integers(2, 5))
        dim_b = int(rng.integers(2, 5))
        rho = rng.standard_normal((2, dim_a * dim_b, dim_a * dim_b))
        sigma = rng.standard_normal((2, dim_b, dim_b))
        yield ((dim_a, dim_b), 16 * (dim_a * dim_b) ** 2,
               (rho, sigma, float(rng.uniform(0.5, 2.0))))


def _per_scenario_hmin_le_h2(rng, count):
    for _ in range(count):
        n_bits = int(rng.integers(1, 4))
        dim = int(rng.integers(1, 4))
        drawn = (n_bits, *random_blocks(n_bits, dim, rng, draw=ginibre_normals))
        sigma = random_density(dim, rng) if dim > 1 else np.ones((1, 1), dtype=complex)
        yield None, len(drawn[1]) * dim * dim, (n_bits, dim, drawn, sigma)


PER_SCENARIO = {
    "measured-xor-random": _per_scenario_output,
    "useful-prop-random": lambda rng, count: _per_scenario_output(rng, count, with_sigma=True),
    "pgm-commutation": _per_scenario_commutation,
    "one-two-norm": _per_scenario_one_two_norm,
    "hmin-le-h2": _per_scenario_hmin_le_h2,
}


def _blocked(monkeypatch, check_id, count, rng, **params):
    """The (key, weight, item) of each of ``count`` scenarios that the check draws with
    ``rng``, in draw order, with no group evaluated."""
    taken = []

    def draws_only(draws, evaluate):
        taken.extend(draws)
        return []

    with monkeypatch.context() as patch:
        patch.setattr(checks, "_in_groups", draws_only)
        cases = checks.CHECKS[check_id].cases(
            resolve_params(check_id, {"count": count, **params}), rng)
        assert list(cases) == []
    return taken


# -- the law ------------------------------------------------------------------------

def _cell(check_id, key, item):
    """A scenario's cell: its key and, for a drawn cq-state, its support."""
    if check_id == "one-two-norm":
        return key
    if check_id == "hmin-le-h2":
        n_bits, dim, (_, indices, _, _), _ = item
        return n_bits, dim, len(indices)
    (indices, _, _), _ = item
    return key + (len(indices),)


def _law(check_id) -> dict:
    """P(cell) of one scenario: every column is uniform, and a support is uniform in
    min_support..2^n."""
    if check_id == "one-two-norm":
        return {(a, b): 1 / 9 for a in range(2, 5) for b in range(2, 5)}
    if check_id == "pgm-commutation":
        return {(n, d, out, s): 1 / (3 * 3 * 2 * ((1 << n) - 1))
                for n in range(1, 4) for d in range(2, 5) for out in (1, 2)
                for s in range(2, (1 << n) + 1)}
    if check_id == "hmin-le-h2":
        return {(n, d, s): 1 / (3 * 3 * (1 << n))
                for n in range(1, 4) for d in range(1, 4) for s in range(1, (1 << n) + 1)}
    return {(m, d, s): 1 / (2 * 3 * (1 << m))
            for m in (1, 2) for d in range(1, 4) for s in range(1, (1 << m) + 1)}


def _assert_well_formed(check_id, key, item):
    if check_id == "one-two-norm":
        (dim_a, dim_b), (rho, sigma, scale) = key, item
        assert rho.shape == (2, dim_a * dim_b, dim_a * dim_b) and sigma.shape == (2, dim_b, dim_b)
        assert 0.5 <= scale < 2.0
        return
    if check_id == "hmin-le-h2":
        n_bits, dim, (_, indices, weights, normals), extra = item
        key = n_bits, dim
    else:
        (indices, weights, normals), extra = item
    n_bits, dim = key[:2]
    assert indices.dtype.kind == "i" and 0 <= indices[0] and indices[-1] < 1 << n_bits
    assert (np.diff(indices) > 0).all() and weights.shape == indices.shape
    assert (weights > 0).all() and abs(weights.sum() - 1) <= 1e-12
    assert normals.shape == ((len(indices), 2, dim, dim) if dim > 1 else (len(indices), 1, 1))
    if check_id == "useful-prop-random":
        assert extra.shape == (1, 2, dim, dim)
    if check_id == "pgm-commutation":
        assert len(extra) == len(indices)
        assert all(0 <= z < 1 << key[2] for z in np.asarray(extra).tolist())
    if check_id == "hmin-le-h2":        # sigma: a density, or 1 on a one-dimensional side
        assert extra.shape == (dim, dim) and abs(np.trace(extra) - 1) <= 1e-12
        assert np.abs(extra - extra.conj().T).max() <= 1e-15
        assert np.linalg.eigvalsh(extra)[0] > 0


@pytest.mark.parametrize("check_id", BLOCKED)
def test_both_samplers_draw_the_closed_form_law(monkeypatch, check_id):
    law = _law(check_id)
    counts = []
    for drawn in (list(PER_SCENARIO[check_id](np.random.default_rng(7), SCENARIOS)),
                  _blocked(monkeypatch, check_id, SCENARIOS, np.random.default_rng(7))):
        assert len(drawn) == SCENARIOS
        for key, _, item in drawn[:500]:
            _assert_well_formed(check_id, key, item)
        count = collections.Counter(_cell(check_id, key, item) for key, _, item in drawn)
        assert set(count) <= set(law)
        # Each cell's count is about Poisson: within 5 standard deviations of its
        # mean, plus 2 for the cells whose mean is small.
        for cell, p in law.items():
            assert abs(count[cell] - SCENARIOS * p) <= 5 * math.sqrt(SCENARIOS * p) + 2, cell
        counts.append(count)
    old, new = counts
    for cell in law:
        assert abs(old[cell] - new[cell]) <= 5 * math.sqrt(old[cell] + new[cell]) + 2, cell


def test_a_support_is_a_uniform_subset_with_normalised_weights():
    rng = np.random.default_rng(11)
    n_bits = rng.integers(1, 5, size=SCENARIOS)
    dims = rng.integers(1, 4, size=SCENARIOS)
    drawn = _random_blocks_many(n_bits, dims, rng)
    hits, cells = collections.Counter(), collections.Counter()
    for n, dim, (indices, weights, normals) in zip(n_bits.tolist(), dims.tolist(), drawn):
        assert (np.diff(indices) > 0).all() and 0 <= indices[0] and indices[-1] < 1 << n
        # each raw weight is random() + 1e-3, in [1e-3, 1 + 1e-3)
        assert abs(weights.sum() - 1) <= 1e-12
        assert (weights >= 1e-3 / (len(weights) * (1 + 1e-3))).all()
        assert normals.shape == ((len(indices), 2, dim, dim) if dim > 1 else (len(indices), 1, 1))
        cells[n, len(indices)] += 1
        for slot in indices.tolist():
            hits[n, len(indices), slot] += 1
    assert len(cells) == 2 + 4 + 8 + 16
    for (n, support), total in cells.items():
        p = support / (1 << n)
        sigma = math.sqrt(total * p * (1 - p))
        for slot in range(1 << n):
            assert abs(hits[n, support, slot] - total * p) <= 5 * sigma, (n, support, slot)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_pure_states_are_random_pure_state_draws(dim):
    # One (count, 2, dim) draw takes the numbers of count random_pure_state calls,
    # and pure_states normalises each as np.linalg.norm does: bit for bit.
    for seed in range(50):
        ours, calls = np.random.default_rng(seed), np.random.default_rng(seed)
        count = 1 + seed % 9
        got = pure_states(ours.standard_normal((count, 2, dim)))
        want = np.array([random_pure_state(dim, calls) for _ in range(count)])
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), seed
        assert ours.bit_generator.state == calls.bit_generator.state


def test_standard_normals_are_consecutive_calls():
    ours, calls = np.random.default_rng(5), np.random.default_rng(5)
    shapes = [(2, 3, 3), (1, 2, 2, 2), (5,), (0,), (2, 4, 4)]
    for x, shape in zip(scenarios._standard_normals(ours, shapes), shapes):
        assert x.shape == shape and x.tobytes() == calls.standard_normal(shape).tobytes()
    assert ours.bit_generator.state == calls.bit_generator.state


def _fields(report):
    return (report.bound_id, report.scenario, report.flags,
            [v.hex() if isinstance(v, float) else v for v in report.params.values()],
            report.measured_delta.hex(), report.bound_epsilon.hex())


@pytest.mark.parametrize("check_id,longer", [
    ("measured-xor-random", 1700), ("useful-prop-random", 1400), ("pgm-commutation", 500),
    ("one-two-norm", 300), ("hmin-le-h2", 800)])
def test_the_rows_of_a_count_begin_every_larger_count(check_id, longer):
    short = run_check(check_id, {"params": {"count": 20}, "seed": 5})
    long = run_check(check_id, {"params": {"count": longer}, "seed": 5})
    assert len(long) == longer * len(short) // 20       # hmin-le-h2 has two rows a case
    assert [_fields(r) for r in short] == [_fields(r) for r in long[:len(short)]]


# -- the Markov factors and hmin-linear-drop's sources ---------------------------------

def _within(count, total, p):
    """Whether a binomial count is within 5 standard deviations of its mean, plus 2."""
    return abs(count - total * p) <= 5 * math.sqrt(total * p * (1 - p)) + 2


MARKOV_SPECS = [(1 + i % 3, 2 + i % 2, 500 + i, (i // 2) % 2 == 0) for i in range(2000)]


def _markov_law(draw):
    """The factors of ``draw`` over MARKOV_SPECS: (n, d, support) counts, one-hot
    indices of the classical factors, and |<0|psi>|² quartiles of the pure ones."""
    cells, hot, quartiles = (collections.Counter() for _ in range(3))
    for n, blocks, seed, classical in MARKOV_SPECS:
        weights, factors = draw(n, blocks, seed, classical)
        assert len(weights) == len(factors) == blocks and abs(sum(weights) - 1) <= 1e-12
        for bits, indices, w, conds in (f for pair in factors for f in pair):
            d = conds.shape[-1]
            assert bits == n and conds.shape == (len(indices), d, d)
            assert (np.diff(indices) > 0).all() and abs(w.sum() - 1) <= 1e-12
            assert np.abs(np.trace(conds, axis1=1, axis2=2) - 1).max() <= 1e-12
            cells[n, d, len(indices)] += 1
            if d == 1:
                continue
            assert np.abs(conds @ conds - conds).max() <= 1e-12      # pure
            if classical:
                assert not conds[:, 0, 1].any()
                hot.update(conds[:, 1, 1].real.astype(int).tolist())
            else:
                quartiles.update((4 * conds[:, 0, 0].real).astype(int).tolist())
    return cells, hot, quartiles


def test_markov_factors_draw_the_per_conditional_law():
    # A factor's side dimension is uniform in {1, 2} and its support in 1..2^n; a
    # one-hot index is uniform in {0, 1}, and |<0|psi>|² of a Haar-random qubit
    # state is uniform in [0, 1].
    old, new = _markov_law(markov_draw), _markov_law(_markov_draw)
    for (cells, hot, quartiles), twin in ((old, new[0]), (new, old[0])):
        total = sum(cells.values())
        assert set(cells) == {(n, d, s) for n in (1, 2, 3) for d in (1, 2)
                              for s in range(1, (1 << n) + 1)}
        for (n, d, s), count in cells.items():
            # each n holds a third of the factors
            assert _within(count, total, 1 / (3 * 2 * (1 << n))), (n, d, s)
            assert abs(count - twin[n, d, s]) <= 5 * math.sqrt(count + twin[n, d, s]) + 2
        assert set(hot) == {0, 1} and _within(hot[1], hot[0] + hot[1], 0.5)
        assert set(quartiles) <= {0, 1, 2, 3, 4} and quartiles[4] <= 1
        pure = sum(quartiles.values())
        assert all(_within(quartiles[q], pure, 0.25) for q in range(4))


class _Stop(Exception):
    pass


def _linear_drop_oracle(rng, n, ks, per_n):
    """hmin-linear-drop's former draw, one source and one map at a time: the random
    sources (n, indices, weights, normals) and each k's maps."""
    sources = [(n, *random_blocks(n, 2, rng, min_support=2, draw=ginibre_normals))]
    rng.integers(2 ** 31)       # the flat source's seed
    maps = []
    for k in ks:
        sources.append((k, *random_blocks(k, int(rng.integers(1, 4)), rng, min_support=2,
                                          draw=ginibre_normals)))
        maps.append(np.array([rng.integers(0, 2, size=(k, k)) for _ in range(per_n)]))
    return sources, maps


def _linear_drop_draw(monkeypatch, rng, n, ks, per_n):
    """The random sources and maps that hmin-linear-drop draws with ``rng``, taken
    before it forms a state."""
    taken = []

    def stop(drawn):
        taken.extend(drawn)
        raise _Stop

    params = resolve_params("hmin-linear-drop",
                            {"exhaustive_n": n, "random_ns": ks, "per_n": per_n})
    with monkeypatch.context() as patch:
        patch.setattr(checks, "_random_cqs", stop)
        with pytest.raises(_Stop):
            next(checks.CHECKS["hmin-linear-drop"].cases(params, rng))
    first, flat, *sources = taken
    assert flat[0] == n and len(flat[1]) == 1 << (n - 1)
    maps = [values for _, values in rng.values[-len(ks):]]
    return [first, *sources], maps


class _Recording(CountingGenerator):
    """A counting generator that also keeps the values of each call."""

    def __init__(self, seed):
        super().__init__(seed)
        self.values = []

    def __getattr__(self, name):
        counted = super().__getattr__(name)

        def recorded(*args, **kwargs):
            out = counted(*args, **kwargs)
            self.values.append((name, out))
            return out
        return recorded


def test_hmin_linear_drop_draws_the_per_source_law(monkeypatch):
    # The exhaustive source has a qubit side and support uniform in 2..2^n; a
    # random k's source a side of dimension uniform in 1..3 and support uniform
    # in 2..2^k; every entry of a map is a uniform bit.
    n, ks, per_n, runs = 2, [1, 3], 4, 2000
    law = {(2, 2, s): 1 / 3 for s in range(2, 5)}
    law.update({(1, d, 2): 1 / 3 for d in range(1, 4)})
    law.update({(3, d, s): 1 / 21 for d in range(1, 4) for s in range(2, 9)})
    counts = []
    for sampler in ("old", "new"):
        cells, ones = collections.Counter(), collections.Counter()
        for seed in range(runs):
            if sampler == "old":
                sources, maps = _linear_drop_oracle(np.random.default_rng(seed), n, ks, per_n)
            else:
                sources, maps = _linear_drop_draw(monkeypatch, _Recording(seed), n, ks, per_n)
            for bits, indices, weights, conds in sources:
                d = conds.shape[-1]
                assert conds.shape == ((len(indices), 2, d, d) if d > 1 else (len(indices), 1, 1))
                assert (np.diff(indices) > 0).all() and abs(weights.sum() - 1) <= 1e-12
                cells[bits, d, len(indices)] += 1
            for k, mats in zip(ks, maps):
                assert mats.shape == (per_n, k, k) and set(np.unique(mats)) <= {0, 1}
                ones[k] += int(mats.sum())
        assert set(cells) == set(law)
        for (bits, d, s), p in law.items():
            assert _within(cells[bits, d, s], runs, p), (sampler, bits, d, s)
        for k in ks:
            assert _within(ones[k], runs * per_n * k * k, 0.5), (sampler, k)
        counts.append(cells)
    old, new = counts
    for cell in law:
        assert abs(old[cell] - new[cell]) <= 5 * math.sqrt(old[cell] + new[cell]) + 2, cell


# -- structure ------------------------------------------------------------------------

# The generator calls of one block, in order.
BLOCK_CALLS = {
    "measured-xor-random": ["integers"] * 3 + ["random"] * 2 + ["standard_normal"],
    "useful-prop-random": ["integers"] * 3 + ["random"] * 2 + ["standard_normal"] * 2,
    "pgm-commutation": ["integers"] * 4 + ["random"] * 2 + ["standard_normal", "integers"],
    "one-two-norm": ["integers"] * 2 + ["standard_normal"] * 2 + ["uniform"],
    "hmin-le-h2": ["integers"] * 3 + ["random"] * 2 + ["standard_normal"] * 2,
}


class _NoChoice(CountingGenerator):
    """A counting generator that refuses ``choice``, the per-scenario subset draw."""

    def choice(self, *args, **kwargs):
        raise AssertionError("a subset drawn by Generator.choice")


@pytest.mark.parametrize("check_id", BLOCKED)
def test_a_block_takes_a_fixed_handful_of_generator_calls(monkeypatch, check_id):
    # Per-scenario draws would make four calls or more a scenario, 10 000 here.
    rng = _NoChoice(42)
    drawn = _blocked(monkeypatch, check_id, 2500, rng)
    assert len(drawn) == 2500
    size = rng.calls[0][1]      # the first column holds one value per scenario of a block
    assert size > 100
    calls = BLOCK_CALLS[check_id]
    assert [name for name, _ in rng.calls] == calls * math.ceil(2500 / size)


@pytest.mark.parametrize("check_id", BLOCKED)
def test_blocked_checks_run_without_a_per_scenario_sampler(check_id):
    params = resolve_params(check_id, {"count": 200})
    cases = list(checks.CHECKS[check_id].cases(params, _NoChoice(3)))
    assert len(cases) == 200


def test_at_the_widest_params_a_block_is_one_scenario(monkeypatch):
    # m_max 12 and dim_max 16: a scenario may draw 2^12·(2 + 2·16²) numbers, past
    # DRAW_BUDGET, so each block is one scenario and drawing the first holds about
    # its own entries, not a block's.
    rng, seen = CountingGenerator(0), []

    def first_only(draws, evaluate):
        tracemalloc.start()
        try:
            seen.append(next(draws))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        seen.append(peak)
        return []

    monkeypatch.setattr(checks, "_in_groups", first_only)
    params = resolve_params("measured-xor-random", {"count": 100, "m_max": 12, "dim_max": 16})
    assert list(checks.CHECKS["measured-xor-random"].cases(params, rng)) == []
    ((m, dim), _, ((indices, weights, normals), _)), peak = seen
    assert [size for _, size in rng.calls[:2]] == [1, 1]
    entries = (1 << m) + len(weights) + normals.size
    assert normals.size > 1 << 16 and peak <= 4 * 8 * entries + (64 << 10)


def test_a_markov_draw_takes_six_generator_calls(monkeypatch):
    # Drawn one factor and one conditional at a time, a scenario of b blocks on
    # n bits would take 1 + 2b·(4 + support) calls or so; by column it takes six.
    made = []

    def counted(seed):
        made.append(_NoChoice(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", counted)
    specs = list(itertools.product((1, 2, 8), (1, 2, 3), (False, True), range(3)))
    for n, blocks, classical, seed in specs:
        _markov_draw(n, blocks, seed, classical)
    # and one batch of them all: still six calls on each scenario's own generator
    _markov_draws([(n, blocks, seed, classical) for n, blocks, classical, seed in specs])
    assert len(made) == 2 * len(specs)
    for generator, (_, _, classical, _) in zip(made, specs + specs):
        assert [name for name, _ in generator.calls] == (
            ["random", "integers", "integers", "random", "random",
             "integers" if classical else "standard_normal"])
