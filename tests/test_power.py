"""Every catalog bound that the default suite checks can fail.

A check that no bound could make fail would show nothing.  For each
``bounds.CATALOG`` bound in the summary of ``paper-table-1 --seed 42``, its
row's coefficient is scaled to 0.99 times the worst ratio the suite found
for it, and the entries whose rows carry the bound are run again with the
seeds the suite gave them, so their rows are those of the full run.  Some
row of that bound must then fail.  The product route is powered from its
measured side too: ``b1-quantum-product``'s, ``b2-markov``'s and
``b8-weak-quantum``'s distances, scaled past the check's worst B1, B2 or
B8 ratio, must fail rows, and so must ``b1-exhaustive-flat``'s and
``ip-classical``'s counted grid distances past the check's worst B1 or B7
ratio.  So are the random-state rows of the XOR lemma
and its proof: ``measured-xor-random``'s and ``useful-prop-random``'s
distances to uniform, and ``one-two-norm``'s trace distances, scaled past
the check's worst ratio, must fail rows, and scaled to just below it, none.
So are the two entropy checks: their certified min-entropies, moved by more
than the solver's slack, must fail rows, and moved by less, none.
"""

import dataclasses

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


def _distance_scaled_run(monkeypatch, paper_table_1, check_id, scale,
                         kernel_name="product_distances"):
    """The suite's ``check_id`` entry, rerun with every distance that the check takes
    from ``checks.<kernel_name>`` times ``scale``."""
    entries, *_ = paper_table_1
    kernel = getattr(checks, kernel_name)
    monkeypatch.setattr(checks, kernel_name,
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
@pytest.mark.parametrize("check_id,bound_id,ratio,rows", [
    ("b1-exhaustive-flat", "B1", 0.7955, 128), ("ip-classical", "B7", 0.7071, 50)])
def test_flat_grid_distance_fails_past_its_worst_ratio(monkeypatch, paper_table_1, check_id,
                                                       bound_id, ratio, rows, factor, fails):
    # Both checks take every distance of their classical grids from one counted pass,
    # flat_grid_distances.  A count that lost an input pair, an output z or a side
    # label would move the check's worst ratio, or leave rows that no scaling of
    # the distances could make fail.
    _, _, _, worst = paper_table_1
    assert worst[check_id, bound_id] == pytest.approx(ratio, abs=1e-4)
    result = _distance_scaled_run(monkeypatch, paper_table_1, check_id,
                                  factor / worst[check_id, bound_id], "flat_grid_distances")
    reports = [r for r in result.reports if r.bound_id == bound_id]
    assert len(reports) == rows and any(not r.passed for r in reports) == fails


@pytest.mark.parametrize("factor,fails", [(1.01, True), (0.99, False)])
def test_b2_markov_distance_fails_past_its_worst_ratio(monkeypatch, paper_table_1, factor,
                                                       fails):
    # b2-markov's distance is sum_j w_j delta_j over its blocks.  A sum that dropped
    # a weight or a block would move the worst B2 ratio, 0.2178, or leave rows that
    # no scaling of the per-block distances could make fail.
    _, _, ratios, _ = paper_table_1
    assert ratios["B2"] == pytest.approx(0.2178, abs=1e-4)
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


@pytest.mark.parametrize("factor,fails", [(1.01, True), (0.99, False)])
@pytest.mark.parametrize("check_id,bound_id,power", [("measured-xor-random", "measured-xor", 1),
                                                     ("useful-prop-random", "fourier-rhs", 2)])
def test_random_output_distances_fail_past_their_worst_ratio(monkeypatch, paper_table_1, check_id,
                                                             bound_id, power, factor, fails):
    # Both checks take their distances to uniform from weak_distances; fourier-rhs
    # compares its square, so a distance scaled by s scales that row by s^2.  Each
    # bound is tight on some drawn state, so the worst ratio is 1 within rounding; a
    # bound that lost a mask, a Fourier coefficient or an output z would move it,
    # or leave rows that no scaling of the distances could make fail.
    _, _, _, worst = paper_table_1
    ratio = worst[check_id, bound_id]
    assert ratio == pytest.approx(1.0, abs=1e-12)
    result = _distance_scaled_run(monkeypatch, paper_table_1, check_id,
                                  (factor / ratio) ** (1 / power), "weak_distances")
    rows = [r for r in result.reports if r.bound_id == bound_id]
    assert len(rows) == 150 and any(not r.passed for r in rows) == fails


@pytest.mark.parametrize("factor,fails", [(1.01, True), (0.99, False)])
def test_one_two_norm_distance_fails_past_its_worst_ratio(monkeypatch, factor, fails):
    # paper-table-1 runs no one-two-norm, so the check runs at its default count
    # and seed 7.  Its trace distances come from hermitian_trace_norms; one that
    # lost an eigenvalue or the centring by rho_B would move the worst ratio,
    # 0.9326, or leave rows that no scaling could make fail.
    config = {"params": {"count": 500}, "seed": 7}
    ratio = max(r.measured_delta / r.bound_epsilon for r in checks.run_check("one-two-norm", config))
    assert ratio == pytest.approx(0.9326, abs=1e-4)
    kernel = checks.hermitian_trace_norms
    monkeypatch.setattr(checks, "hermitian_trace_norms",
                        lambda *args, **kwargs: factor / ratio * kernel(*args, **kwargs))
    reports = checks.run_check("one-two-norm", config)
    assert len(reports) == 500 and any(not r.passed for r in reports) == fails


def _min_entropies_moved(monkeypatch, check_id, params, move):
    """``check_id`` at seed 7 with every certified min-entropy v reported as move(v)."""
    kernel = checks.h_min_cond_many
    monkeypatch.setattr(checks, "h_min_cond_many", lambda *args, **kwargs: [
        dataclasses.replace(r, value=move(r.value)) for r in kernel(*args, **kwargs)])
    return checks.run_check(check_id, {"params": params, "seed": 7})


@pytest.mark.parametrize("scale,fails", [(1.01, True), (1 + 1e-7, False)])
def test_hmin_linear_drop_fails_when_its_entropies_move(monkeypatch, scale, fails):
    # Each row is (H_min(X) - r) - H_min(MX) <= slack: scaling both entropies by
    # 1.01 moves the difference past the slack on some rows, by 1 + 1e-7 on none.
    reports = _min_entropies_moved(monkeypatch, "hmin-linear-drop", {}, lambda v: v * scale)
    assert len(reports) == 587 and any(not r.passed for r in reports) == fails


@pytest.mark.parametrize("shift,fails", [(1e-5, True), (1e-7, False)])
def test_hmin_le_h2_fails_when_its_min_entropies_move(monkeypatch, shift, fails):
    # The optimized row is H_min - H_2 <= slack: a min-entropy raised by 1e-5
    # bits passes some collision entropy, one raised by 1e-7 none.
    reports = _min_entropies_moved(monkeypatch, "hmin-le-h2", {"count": 500},
                                   lambda v: v + shift)
    assert len(reports) == 1000 and any(not r.passed for r in reports) == fails
