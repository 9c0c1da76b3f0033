"""Oracles for the block sampler of the grouped random-state checks.

``measured-xor-random``, ``useful-prop-random``, ``pgm-commutation`` and
``one-two-norm`` draw their scenarios in blocks, a handful of generator calls
a block (``scenarios._random_blocks_many`` and the checks' ``block()``).
Their former draws, one scenario at a time by scalar calls and
``_random_blocks``, are kept here verbatim as the law oracle.  The tests hold:

* both samplers' (m or n_bits, dim, support) counts over 20 000 scenarios
  against the closed-form law, and against each other;
* given (n, support), each slot's inclusion frequency against support/2^n,
  the indices ascending and the weights summing to 1; a block's normals are
  the numbers that consecutive calls would take;
* the rows of a count are the first rows of every larger count;
* a fixed number of generator calls per block, none of them ``choice``, and
  no ``_random_blocks`` call;
* at m_max 12 and dim_max 16 a block is one scenario, and drawing it holds
  about its own entries.
"""

import collections
import math
import tracemalloc

import numpy as np
import pytest

from conftest import CountingGenerator

from extraction_lab.harness import checks, run_check, scenarios
from extraction_lab.harness.checks import resolve_params
from extraction_lab.harness.scenarios import _ginibre_normals, _random_blocks, _random_blocks_many

SCENARIOS = 20000
BLOCKED = ("measured-xor-random", "useful-prop-random", "pgm-commutation", "one-two-norm")


# -- the former per-scenario draws() loops --------------------------------------------

def _per_scenario_output(rng, count, m_max=2, dim_max=3, with_sigma=False):
    for _ in range(count):
        m = int(rng.integers(1, m_max + 1))
        dim = int(rng.integers(1, dim_max + 1))
        drawn = _random_blocks(m, dim, rng, draw=_ginibre_normals)
        sigma = _ginibre_normals(1, dim, rng) if with_sigma else None
        yield (m, dim), (1 << 2 * m) * dim * dim, (drawn, sigma)


def _per_scenario_commutation(rng, count):
    for _ in range(count):
        n_bits = int(rng.integers(1, 4))
        dim = int(rng.integers(2, 5))
        drawn = _random_blocks(n_bits, dim, rng, min_support=2, draw=_ginibre_normals)
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


PER_SCENARIO = {
    "measured-xor-random": _per_scenario_output,
    "useful-prop-random": lambda rng, count: _per_scenario_output(rng, count, with_sigma=True),
    "pgm-commutation": _per_scenario_commutation,
    "one-two-norm": _per_scenario_one_two_norm,
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
    return {(m, d, s): 1 / (2 * 3 * (1 << m))
            for m in (1, 2) for d in range(1, 4) for s in range(1, (1 << m) + 1)}


def _assert_well_formed(check_id, key, item):
    if check_id == "one-two-norm":
        (dim_a, dim_b), (rho, sigma, scale) = key, item
        assert rho.shape == (2, dim_a * dim_b, dim_a * dim_b) and sigma.shape == (2, dim_b, dim_b)
        assert 0.5 <= scale < 2.0
        return
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
    ("one-two-norm", 300)])
def test_the_rows_of_a_count_begin_every_larger_count(check_id, longer):
    short = run_check(check_id, {"params": {"count": 20}, "seed": 5})
    long = run_check(check_id, {"params": {"count": longer}, "seed": 5})
    assert len(long) == longer
    assert [_fields(r) for r in short] == [_fields(r) for r in long[:20]]


# -- structure ------------------------------------------------------------------------

# The generator calls of one block, in order.
BLOCK_CALLS = {
    "measured-xor-random": ["integers"] * 3 + ["random"] * 2 + ["standard_normal"],
    "useful-prop-random": ["integers"] * 3 + ["random"] * 2 + ["standard_normal"] * 2,
    "pgm-commutation": ["integers"] * 4 + ["random"] * 2 + ["standard_normal", "integers"],
    "one-two-norm": ["integers"] * 2 + ["standard_normal"] * 2 + ["uniform"],
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


def _refused(*args, **kwargs):
    raise AssertionError("a scenario drawn one at a time")


@pytest.mark.parametrize("check_id", BLOCKED)
def test_blocked_checks_run_without_a_per_scenario_sampler(monkeypatch, check_id):
    monkeypatch.setattr(scenarios, "_random_blocks", _refused)
    monkeypatch.setattr(checks, "_random_blocks", _refused)
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
