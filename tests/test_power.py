"""Every catalog bound that the default suite checks can fail.

A check that no bound could make fail would show nothing.  For each
``bounds.CATALOG`` bound in the summary of ``paper-table-1 --seed 42``, its
row's coefficient is scaled to 0.99 times the worst ratio the suite found
for it, and the entries whose rows carry the bound are run again with the
seeds the suite gave them, so their rows are those of the full run.  Some
row of that bound must then fail.  The Markov block route is powered from
its measured side too: its distance, scaled past the worst B2 ratio, must
fail B2 rows.
"""

import pytest

from extraction_lab.harness import bounds, checks
from extraction_lab.harness.suite import load_config, run_suite

SEED = 42
# Every catalog bound but B9, which no check of paper-table-1 reports.
POWERED = ("B1", "B10", "B11", "B2", "B3", "B4", "B5", "B6", "B7", "B8")


@pytest.fixture(scope="module")
def paper_table_1():
    """The suite's entries with their suite-derived seeds, the check ids whose
    rows carry each bound, and the worst measured/epsilon ratio per bound."""
    config = load_config("paper-table-1")
    result = run_suite(config, seed=SEED)
    entries = [{**entry, "seed": (SEED * 1000003 + pos) & 0x7FFFFFFF}
               for pos, entry in enumerate(config["checks"])]
    carried = {}
    for r in result.reports:
        carried.setdefault(r.bound_id, set()).add(r.check_id)
    return entries, carried, result.summary["max_ratio_by_bound"]


def _scaled_run(monkeypatch, paper_table_1, bound_id, factor):
    """The entries that carry ``bound_id``, rerun with its coefficient times ``factor``."""
    entries, carried, _ = paper_table_1
    row = bounds.CATALOG[bound_id]
    monkeypatch.setitem(bounds.CATALOG, bound_id, row._replace(coef=row.coef * factor))
    config = {"name": "power",
              "checks": [entry for entry in entries if entry["id"] in carried[bound_id]]}
    return run_suite(config)


def test_the_suite_reports_every_powered_bound(paper_table_1):
    _, _, ratios = paper_table_1
    assert set(ratios) & set(bounds.BOUND_IDS) == set(POWERED)


@pytest.mark.parametrize("bound_id", POWERED)
def test_each_bound_fails_below_its_worst_ratio(monkeypatch, paper_table_1, bound_id):
    _, _, ratios = paper_table_1
    result = _scaled_run(monkeypatch, paper_table_1, bound_id, 0.99 * ratios[bound_id])
    assert any(not r.passed for r in result.reports if r.bound_id == bound_id)
    assert not result.all_pass


def test_b1_keeps_its_slack_at_eight_tenths(monkeypatch, paper_table_1):
    # The worst B1 ratio is 0.7955 (b1-exhaustive-flat), so B1 could be
    # 1/0.8 times stronger and every B1 row of the suite would still pass.
    _, _, ratios = paper_table_1
    assert ratios["B1"] == pytest.approx(0.7955, abs=1e-4)
    result = _scaled_run(monkeypatch, paper_table_1, "B1", 0.8)
    assert result.all_pass


@pytest.mark.parametrize("factor,fails", [(1.01, True), (0.99, False)])
def test_b2_markov_distance_fails_past_its_worst_ratio(monkeypatch, paper_table_1, factor,
                                                       fails):
    # b2-markov's distance is sum_j w_j delta_j over its blocks.  A sum that dropped
    # a weight or a block would move the worst B2 ratio, 0.1752, or leave rows that
    # no scaling of the per-block distances could make fail.
    entries, _, ratios = paper_table_1
    assert ratios["B2"] == pytest.approx(0.1752, abs=1e-4)
    scale = factor / ratios["B2"]
    distance = checks.distance_to_uniform
    monkeypatch.setattr(checks, "distance_to_uniform",
                        lambda *args, **kwargs: scale * distance(*args, **kwargs))
    result = run_suite({"name": "power",
                        "checks": [entry for entry in entries if entry["id"] == "b2-markov"]})
    b2 = [r for r in result.reports if r.bound_id == "B2"]
    assert len(b2) == 24 and any(not r.passed for r in b2) == fails
