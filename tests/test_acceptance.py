"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import time

import numpy as np
import pytest

from conftest import distance_to_uniform, output_stacks

from extraction_lab.cli import main as cli_main
from extraction_lab.cq_states import classical_state
from extraction_lab.extractors import ip_extractor
from extraction_lab.harness import run_check
from extraction_lab.xor_analysis import (
    MatrixValuedFunction,
    measured_xor_bounds,
    mvf_fourier,
    mvf_l2_norm,
)


def record(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_parseval():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 4))
        d = int(rng.integers(1, 5))
        vals = rng.standard_normal((1 << m, d, d)) + 1j * rng.standard_normal((1 << m, d, d))
        mvf = MatrixValuedFunction(vals)
        worst = max(worst, abs(mvf_l2_norm(mvf_fourier(mvf)) - mvf_l2_norm(mvf)))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    record(1, "parseval-equality", ok, f"max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_exact_bound_exhaustive():
    t0 = time.monotonic()
    reports = run_check("b1-exhaustive-flat", {
        "params": {"ns": [3, 4], "ms": [1, 2], "families": ["field", "shift"],
                   "sides": ["trivial", "classical_leak"], "bounds": ["B1"]},
        "seed": 102,
    })
    elapsed = time.monotonic() - t0
    violations = [r for r in reports if r.measured_delta > r.bound_epsilon + 1e-9]
    anchor = [r for r in reports
              if "field n=4 m=1 side=trivial flat=(4,4)" in r.scenario]
    anchor_ok = (len(anchor) == 1
                 and abs(anchor[0].measured_delta - 0.03125) < 1e-12
                 and abs(anchor[0].bound_epsilon - 2 ** -2.5) < 1e-9)
    ok = not violations and anchor_ok and elapsed < 60.0
    record(2, "deor-exact-bound-exhaustive", ok,
           f"{len(reports)} cases, 0 expected violations (got {len(violations)}), "
           f"anchor delta {anchor[0].measured_delta if anchor else 'missing'}, "
           f"{elapsed:.1f}s")


def test_criterion_03_quantum_product_scenarios():
    t0 = time.monotonic()
    reports = run_check("b1-quantum-product",
                        {"params": {"count": 200, "n_max": 5, "bounds": ["B1"]},
                         "seed": 103})
    elapsed = time.monotonic() - t0
    scenarios = {r.scenario for r in reports}
    violations = [r for r in reports if not r.passed]
    ok = len(scenarios) >= 200 and not violations and elapsed < 300.0
    record(3, "quantum-product-bound", ok,
           f"{len(scenarios)} scenarios, {len(violations)} violations, {elapsed:.1f}s")


def test_criterion_04_measured_xor():
    reports = run_check("measured-xor-random",
                        {"params": {"count": 1000, "m_max": 2, "dim_max": 3},
                         "seed": 104})
    violations = [r for r in reports if r.measured_delta > r.bound_epsilon + 1e-9]
    det = classical_state({(0,): 1.0})
    lhs = distance_to_uniform(det, 2)
    rhs = measured_xor_bounds(*output_stacks([det]))[0]
    equality_ok = abs(lhs - rhs) <= 1e-12
    ok = not violations and equality_ok
    record(4, "measured-xor-bound", ok,
           f"{len(reports)} states, {len(violations)} violations, "
           f"equality gap {abs(lhs - rhs):.2e}")


def test_criterion_05_useful_proposition():
    reports = run_check("useful-prop-random", {"params": {"count": 1000}, "seed": 105})
    violations = [r for r in reports if r.measured_delta > r.bound_epsilon + 1e-9]
    record(5, "fourier-upper-bound", not violations,
           f"{len(reports)} pairs, {len(violations)} violations")


def test_criterion_06_pgm_function_commutation():
    reports = run_check("pgm-commutation", {"params": {"count": 200}, "seed": 106})
    worst = max(r.measured_delta for r in reports)
    ok = worst <= 1e-10
    record(6, "pgm-commutation", ok, f"200 cases, max deviation {worst:.2e}")


def test_criterion_07_min_entropy_linear_maps():
    reports = run_check("hmin-linear-drop", {
        "params": {"exhaustive_n": 3, "random_ns": [4, 5, 6], "per_n": 25},
        "seed": 107,
    })
    worst = max(r.measured_delta for r in reports)
    ok = worst <= 1e-6
    n_exh = sum("exhaustive" in r.scenario for r in reports)
    record(7, "linear-map-entropy-drop", ok,
           f"{n_exh} exhaustive + {len(reports) - n_exh} random cases, "
           f"max excess {worst:.2e}")


def test_criterion_08_h_min_below_h2():
    reports = run_check("hmin-le-h2", {"params": {"count": 500}, "seed": 108})
    worst = max(r.measured_delta for r in reports)
    rel = [r for r in reports if r.bound_id == "relative"]
    opt = [r for r in reports if r.bound_id == "optimized"]
    ok = worst <= 1e-6 and len(rel) == 500 and len(opt) == 500
    record(8, "entropy-ordering", ok, f"max excess {worst:.2e}")


def test_criterion_09_markov_blocks():
    cmi_reports = run_check("markov-cmi", {"params": {"count": 100}, "seed": 109})
    worst_cmi = max(r.measured_delta for r in cmi_reports)
    bound_reports = run_check("b2-markov", {
        "params": {"count": 50, "n_max": 4, "bounds": ["B2"]}, "seed": 110})
    violations = [r for r in bound_reports if not r.passed]
    ok = worst_cmi <= 1e-9 and not violations
    record(9, "markov-construction-and-bound", ok,
           f"max CMI {worst_cmi:.2e}, {len(bound_reports)} bound rows, "
           f"{len(violations)} violations")


def _collisions(table: np.ndarray, x: int, xp: int) -> int:
    """#{y : y . x = y . x'}, counted over two columns of the inner-product table."""
    return int(np.count_nonzero(table[:, x] == table[:, xp]))


def test_criterion_10_ip_two_universality():
    # The collision probability is exactly 1/2 iff 2 * hits == 2^n.
    exhaustive_ok = True
    # all ordered pairs for n <= 6
    for n in range(1, 7):
        table = ip_extractor(n).table
        hits = np.count_nonzero(table[:, :, None] == table[:, None, :], axis=0)
        distinct = ~np.eye(1 << n, dtype=bool)
        if not np.all(2 * hits[distinct] == 1 << n):
            exhaustive_ok = False
    # the collision event depends only on x xor x'; spot-check that reduction,
    # then sweep every nonzero difference class for n = 7..10
    rng = np.random.default_rng(1100)
    for n in range(7, 11):
        table = ip_extractor(n).table
        for _ in range(10):
            xi, yi = (int(i) for i in rng.choice(1 << n, size=2, replace=False))
            if _collisions(table, xi, yi) != _collisions(table, xi ^ yi, 0):
                exhaustive_ok = False
        if not all(2 * _collisions(table, wi, 0) == 1 << n for wi in range(1, 1 << n)):
            exhaustive_ok = False
    grid = run_check("ip-classical", {"params": {"ns": [2, 3, 4]}, "seed": 111})
    violations = [r for r in grid if not r.passed]
    ok = exhaustive_ok and not violations
    record(10, "ip-two-universality-and-bound", ok,
           f"collision probs exact 1/2 through n=10: {exhaustive_ok}, "
           f"{len(grid)} grid cases, {len(violations)} violations")


def test_criterion_11_one_two_norm():
    reports = run_check("one-two-norm", {"params": {"count": 500}, "seed": 112})
    violations = [r for r in reports if r.measured_delta > r.bound_epsilon + 1e-9]
    record(11, "one-two-norm-bound", not violations,
           f"500 pairs, {len(violations)} violations")


def test_criterion_12_bound_ordering():
    reports = run_check("bound-ordering", {"params": {"count": 10000}, "seed": 113})
    violations = [r for r in reports if not r.passed]
    record(12, "bound-formula-ordering", not violations,
           f"{len(reports)} comparisons, {len(violations)} violations")


def test_criterion_13_determinism(tmp_path):
    t0 = time.monotonic()
    code1 = cli_main(["verify", "--suite", "paper-table-1", "--seed", "42",
                      "--out", str(tmp_path / "a")])
    elapsed = time.monotonic() - t0
    code2 = cli_main(["verify", "--suite", "paper-table-1", "--seed", "42",
                      "--out", str(tmp_path / "b")])
    bytes_a = (tmp_path / "a" / "report.json").read_bytes()
    bytes_b = (tmp_path / "b" / "report.json").read_bytes()
    doc = json.loads(bytes_a)
    ok = (code1 == 0 and code2 == 0 and bytes_a == bytes_b
          and doc["all_pass"] and elapsed < 600.0)
    record(13, "suite-determinism", ok,
           f"{doc['summary']['n_reports']} rows, byte-identical: {bytes_a == bytes_b}, "
           f"{elapsed:.1f}s per run")
