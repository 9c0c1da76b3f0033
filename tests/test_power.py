"""Every catalog bound that the default suite checks can fail.

A check that no bound could make fail would show nothing.  For each
``bounds.CATALOG`` bound in the summary of ``paper-table-1 --seed 42``, its
row's coefficient is scaled to 0.99 times the worst ratio the suite found
for it, and the entries whose rows carry the bound are run again with the
seeds the suite gave them, so their rows are those of the full run.  Some
row of that bound must then fail.  The product route is powered from its
measured side too: ``b1-quantum-product``'s, ``b2-markov``'s and
``b8-weak-quantum``'s distances, scaled past the check's worst B1, B2 or
B8 ratio, must fail rows.
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
    rows carry each bound, the worst measured/epsilon ratio per bound, and the
    worst per (check id, bound id)."""
    config = load_config("paper-table-1")
    result = run_suite(config, seed=SEED)
    entries = [{**entry, "seed": (SEED * 1000003 + pos) & 0x7FFFFFFF}
               for pos, entry in enumerate(config["checks"])]
    carried, worst = {}, {}
    for r in result.reports:
        carried.setdefault(r.bound_id, set()).add(r.check_id)
        if r.bound_epsilon > 0:
            key = r.check_id, r.bound_id
            worst[key] = max(worst.get(key, 0.0), r.measured_delta / r.bound_epsilon)
    return entries, carried, result.summary["max_ratio_by_bound"], worst


def _scaled_run(monkeypatch, paper_table_1, bound_id, factor):
    """The entries that carry ``bound_id``, rerun with its coefficient times ``factor``."""
    entries, carried, *_ = paper_table_1
    row = bounds.CATALOG[bound_id]
    monkeypatch.setitem(bounds.CATALOG, bound_id, row._replace(coef=row.coef * factor))
    config = {"name": "power",
              "checks": [entry for entry in entries if entry["id"] in carried[bound_id]]}
    return run_suite(config)


def test_the_suite_reports_every_powered_bound(paper_table_1):
    _, _, ratios, _ = paper_table_1
    assert set(ratios) & set(bounds.BOUND_IDS) == set(POWERED)


@pytest.mark.parametrize("bound_id", POWERED)
def test_each_bound_fails_below_its_worst_ratio(monkeypatch, paper_table_1, bound_id):
    _, _, ratios, _ = paper_table_1
    result = _scaled_run(monkeypatch, paper_table_1, bound_id, 0.99 * ratios[bound_id])
    assert any(not r.passed for r in result.reports if r.bound_id == bound_id)
    assert not result.all_pass


def test_b1_keeps_its_slack_at_eight_tenths(monkeypatch, paper_table_1):
    # The worst B1 ratio is 0.7955 (b1-exhaustive-flat), so B1 could be
    # 1/0.8 times stronger and every B1 row of the suite would still pass.
    _, _, ratios, _ = paper_table_1
    assert ratios["B1"] == pytest.approx(0.7955, abs=1e-4)
    result = _scaled_run(monkeypatch, paper_table_1, "B1", 0.8)
    assert result.all_pass


def _distance_scaled_run(monkeypatch, paper_table_1, check_id, scale):
    """The suite's ``check_id`` entry, rerun with every product distance times ``scale``."""
    entries, *_ = paper_table_1
    kernel = checks.product_distances
    monkeypatch.setattr(checks, "product_distances",
                        lambda *args, **kwargs: scale * kernel(*args, **kwargs))
    return run_suite({"name": "power",
                      "checks": [entry for entry in entries if entry["id"] == check_id]})


@pytest.mark.parametrize("factor,fails", [(1.01, True), (0.99, False)])
def test_b1_quantum_product_distance_fails_past_its_worst_ratio(monkeypatch, paper_table_1,
                                                                factor, fails):
    # Every b1-quantum-product distance comes from the strong product route, with
    # the copied source's side register trivial.  A distance that lost an x, a
    # weight p(x) or an output z would move the check's worst B1 ratio, 0.7286, or
    # leave rows that no scaling of the distances could make fail.
    _, _, _, worst = paper_table_1
    ratio = worst["b1-quantum-product", "B1"]
    assert ratio == pytest.approx(0.7286, abs=1e-4)
    result = _distance_scaled_run(monkeypatch, paper_table_1, "b1-quantum-product",
                                  factor / ratio)
    b1 = [r for r in result.reports if r.bound_id == "B1"]
    assert len(b1) == 40 and any(not r.passed for r in b1) == fails


@pytest.mark.parametrize("factor,fails", [(1.01, True), (0.99, False)])
def test_b2_markov_distance_fails_past_its_worst_ratio(monkeypatch, paper_table_1, factor,
                                                       fails):
    # b2-markov's distance is sum_j w_j delta_j over its blocks.  A sum that dropped
    # a weight or a block would move the worst B2 ratio, 0.1752, or leave rows that
    # no scaling of the per-block distances could make fail.
    _, _, ratios, _ = paper_table_1
    assert ratios["B2"] == pytest.approx(0.1752, abs=1e-4)
    result = _distance_scaled_run(monkeypatch, paper_table_1, "b2-markov",
                                  factor / ratios["B2"])
    b2 = [r for r in result.reports if r.bound_id == "B2"]
    assert len(b2) == 24 and any(not r.passed for r in b2) == fails


@pytest.mark.parametrize("factor,fails", [(1.01, True), (0.99, False)])
def test_b8_weak_quantum_distance_fails_past_its_worst_ratio(monkeypatch, paper_table_1,
                                                             factor, fails):
    # Every b8-weak-quantum distance comes from the weak product route.  A sum that
    # lost a piece rho_x1 (x) A_{x1,z} or an output z would move the worst B8
    # ratio, 0.1924, or leave rows that no scaling of the distances could make fail.
    _, _, ratios, _ = paper_table_1
    assert ratios["B8"] == pytest.approx(0.1924, abs=1e-4)
    result = _distance_scaled_run(monkeypatch, paper_table_1, "b8-weak-quantum",
                                  factor / ratios["B8"])
    b8 = [r for r in result.reports if r.bound_id == "B8"]
    assert len(b8) == 20 and any(not r.passed for r in b8) == fails
