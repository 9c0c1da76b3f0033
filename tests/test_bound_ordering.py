"""Oracles for ``bound-ordering``'s block sampler.

The check rejection-samples tries (n, m, r, k1, k2) until
``base_exponent ≥ 0``, a block of ``ORDERING_BLOCK`` tries at a time.  Its
former sampler, one try at a time with five scalar generator calls, is kept
here as the oracle.  The tests hold:

* both samplers' (n, m, r) counts over 20 000 scenarios against the closed
  form of the accepted law, and against each other, and every row of both
  in the regime;
* on a drawn block, the vector mask keeps exactly the tries that a scalar
  ``base_exponent(...) >= 0`` keeps;
* the rows of a count are the first rows of every larger count;
* at most five generator calls per block of tries.
"""

import collections
import math

import numpy as np

from extraction_lab.harness import checks, run_check
from extraction_lab.harness.bounds import base_exponent

SCENARIOS = 20000


def _per_try(rng, count):
    """The former sampler: each try draws n, m, r, k1 and k2 by scalar calls, and
    the first try with ``base_exponent >= 0`` is the scenario."""
    for _ in range(count):
        while True:
            n = int(rng.integers(2, 25))
            m = int(rng.integers(1, min(8, n) + 1))
            r = int(rng.integers(0, min(m, n - 1) + 1))
            k1, k2 = n * rng.random(), n * rng.random()
            if base_exponent(n, m, r, k1, k2) >= 0:
                yield n, m, r, k1, k2
                break


def _blocked(rng, count):
    for case in checks.CHECKS["bound-ordering"].cases({"count": count}, rng):
        yield tuple(case.params[key] for key in ("n", "m", "r", "k1", "k2"))


def _accepted_law() -> dict:
    """P(n, m, r) of an accepted try.  A try draws n uniform in 2..24, m uniform in
    1..min(8, n), r uniform in 0..min(m, n − 1), and is kept when k1 + k2 ≥
    t = n + r + m − 2, where k1 + k2, the sum of two uniforms on [0, n], has the
    triangular tail below."""
    weights = {}
    for n in range(2, 25):
        for m in range(1, min(8, n) + 1):
            for r in range(min(m, n - 1) + 1):
                t = n + r + m - 2
                tail = 1 - t * t / (2 * n * n) if t <= n else max(2 * n - t, 0) ** 2 / (2 * n * n)
                weights[n, m, r] = tail / (23 * min(8, n) * (min(m, n - 1) + 1))
    total = sum(weights.values())
    return {cell: w / total for cell, w in weights.items() if w > 0}


def test_both_samplers_draw_the_accepted_law_in_the_regime():
    law = _accepted_law()
    counts = []
    for sampler in (_per_try, _blocked):
        rows = list(sampler(np.random.default_rng(7), SCENARIOS))
        for n, m, r, k1, k2 in rows:
            assert 2 <= n <= 24 and 1 <= m <= min(8, n) and 0 <= r <= min(m, n - 1)
            assert 0 <= k1 <= n and 0 <= k2 <= n and base_exponent(n, m, r, k1, k2) >= 0
        count = collections.Counter(row[:3] for row in rows)
        assert set(count) <= set(law)
        # Each cell's count is about Poisson: within 5 standard deviations of its
        # mean, plus 2 for the cells whose mean is well below 1.
        for cell, p in law.items():
            assert abs(count[cell] - SCENARIOS * p) <= 5 * math.sqrt(SCENARIOS * p) + 2, cell
        counts.append(count)
    old, new = counts
    for cell in law:
        assert abs(old[cell] - new[cell]) <= 5 * math.sqrt(old[cell] + new[cell]) + 2, cell


def test_the_block_mask_is_the_scalar_test():
    block = checks._ordering_block(np.random.default_rng(3))
    assert all(len(column) == checks.ORDERING_BLOCK for column in block)
    mask = base_exponent(*block) >= 0
    scalar = [base_exponent(*tried) >= 0 for tried in zip(*(c.tolist() for c in block))]
    assert mask.tolist() == scalar and 0 < mask.sum() < checks.ORDERING_BLOCK


def _fields(report):
    return (report.bound_id, report.scenario, report.flags,
            [v.hex() if isinstance(v, float) else v for v in report.params.values()],
            report.measured_delta.hex(), report.bound_epsilon.hex())


def test_the_rows_of_a_count_begin_every_larger_count():
    short = run_check("bound-ordering", {"params": {"count": 20}, "seed": 5})
    long = run_check("bound-ordering", {"params": {"count": 2000}, "seed": 5})
    assert len(short) == 40 and len(long) == 4000
    assert [_fields(r) for r in short] == [_fields(r) for r in long[:40]]


class _CountingGenerator:
    """A generator that records the name and the number of values of each call."""

    def __init__(self, seed):
        self._rng, self.calls = np.random.default_rng(seed), []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            out = method(*args, **kwargs)
            self.calls.append((name, np.size(out)))
            return out
        return counted


def test_bound_ordering_draws_a_block_of_tries_in_five_calls():
    # Per-try scalar draws would make five calls a try, about 36 000 here.
    rng = _CountingGenerator(42)
    assert len(list(checks.CHECKS["bound-ordering"].cases({"count": 2000}, rng))) == 2000
    tries = sum(size for _, size in rng.calls) // 5
    assert len(rng.calls) <= 5 * math.ceil(tries / checks.ORDERING_BLOCK)
    assert [name for name, _ in rng.calls[:5]] == ["integers"] * 3 + ["random"] * 2
    assert len(rng.calls) <= 50      # about 7300 tries: 8 blocks
