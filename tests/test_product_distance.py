"""Oracles for the product route, ``cq_states.product_distances``.

For product sources and an output strong in the copied source X, the
distance factorises over x: δ = Σ_x p(x) · ½ Σ_z ‖A_{x,z} − ρ_Y/2^m‖₁, and
X's side register drops out.  The weak output's blocks are
B_z = Σ_x1 ρ_x1 ⊗ A_{x1,z}.  The independent route is the cq-state one,
conftest's ``distance_to_uniform`` of ``extractor_output_state``, which
tensors X's blocks into every output block.  The tests hold:

* the identity itself on the cq-state route: δ with X's quantum side
  register equals δ with it dropped;
* the strong kernel against the cq-state route within 1e-14, and the weak
  kernel bit for bit, on 200 seeded pairs;
* each pair's distance in a batch, bit for bit what a batch of one gives,
  and the same bits when ``PAIR_BUDGET`` splits the batch's groups;
* ``b1-quantum-product`` at ``full``'s params: it builds no output state,
  takes every distance from one kernel call, and solves no copied source;
  and it builds each extractor's output table once;
* ``b8-weak-quantum`` at ``full``'s params: one weak kernel call, each
  distance bit for bit the cq-state route's, and no per-state output route
  left in the package.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    distance_to_uniform,
    extractor_output_state,
    random_cq_state,
    random_distribution,
)

import extraction_lab
from extraction_lab import cq_states, entropies, extractors
from extraction_lab.cq_states import classical_state, product_distances
from extraction_lab.extractors import deor_extractor
from extraction_lab.gf2 import build_field_family, build_shift_family
from extraction_lab.harness import checks
from extraction_lab.harness.scenarios import make_side_info
from extraction_lab.harness.suite import load_config

FAMILIES = (build_field_family, build_shift_family)
STRONG = ("x1", "x2")
PER_STATE_ROUTE = ("extractor_output_state", "distance_to_uniform")


def _quantum_source(n, rng, model):
    """A random distribution on n-bit strings under bb84 or random_pure side information."""
    params = {"bits": int(rng.integers(1, min(2, n) + 1))} if model == "bb84" else \
        {"dim": int(rng.integers(2, 5))}
    return make_side_info(model, random_distribution(n, rng), params,
                          seed=int(rng.integers(2 ** 31)))


def _cq_route(ext, s1, s2, strong_in):
    return distance_to_uniform(extractor_output_state(ext, s1, s2, strong_in), 1 << ext.m,
                               strong=True)


def _seeded_pairs(count, seed):
    """``count`` (ext, s1, s2) pairs: n 1..5, m 1..min(3, n), field or shift, and
    sources under bb84, random_pure or random mixed side information (dim 1..3)."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        n = int(rng.integers(1, 6))
        ext = deor_extractor(FAMILIES[int(rng.integers(2))](n, int(rng.integers(1, min(3, n) + 1))))
        sources = []
        for _ in range(2):
            kind = int(rng.integers(3))
            sources.append(_quantum_source(n, rng, ("bb84", "random_pure")[kind]) if kind < 2
                           else random_cq_state(n, int(rng.integers(1, 4)), rng))
        pairs.append((ext, *sources))
    return pairs


@pytest.mark.parametrize("strong_in", STRONG)
@pytest.mark.parametrize("model", ["bb84", "random_pure"])
def test_the_copied_side_register_drops_out(strong_in, model):
    # delta(Z X1 E1 E2) = delta(Z X1 E2): the copied source's side register is a
    # tensor factor of trace p(x) in every block of x.
    rng = np.random.default_rng(60 + len(model))
    checked = 0
    for n in (2, 3, 4):
        for family in FAMILIES:
            for m in range(1, min(3, n) + 1):
                ext = deor_extractor(family(n, m))
                s1, s2 = _quantum_source(n, rng, model), _quantum_source(n, rng, model)
                dropped = [classical_state(s.probabilities()) for s in (s1, s2)]
                s1_, s2_ = (dropped[0], s2) if strong_in == "x1" else (s1, dropped[1])
                delta = _cq_route(ext, s1, s2, strong_in)
                assert delta > 1e-3
                assert abs(delta - _cq_route(ext, s1_, s2_, strong_in)) <= 1e-14
                kernel = product_distances([(ext, s1, s2), (ext, s1_, s2_)], strong_in)
                assert np.abs(kernel - delta).max() <= 1e-14
                checked += 1
    assert checked == 2 * (2 + 3 + 3)


@pytest.mark.parametrize("strong_in", STRONG)
def test_kernel_matches_the_cq_state_route(strong_in):
    pairs = _seeded_pairs(200, 38)
    assert {ext.n for ext, _, _ in pairs} == {1, 2, 3, 4, 5}
    assert {ext.m for ext, _, _ in pairs} == {1, 2, 3}
    kernel = product_distances(pairs, strong_in)
    ref = np.array([_cq_route(*pair, strong_in) for pair in pairs])
    assert kernel.shape == (200,) and np.abs(kernel - ref).max() <= 1e-14
    assert ref.min() >= 0.0 and ref.max() > 0.1


def test_weak_kernel_is_the_cq_state_route_bit_for_bit():
    # B_z adds its pieces rho_x1 (x) A_{x1,z} in sorted x1 order, as the output
    # state's relabelling does, so the weak distances are hex-equal.
    pairs = _seeded_pairs(200, 38)
    assert {s.side_dim for _, s1, s2 in pairs for s in (s1, s2)} == {1, 2, 3, 4}
    kernel = product_distances(pairs)
    ref = [distance_to_uniform(extractor_output_state(ext, s1, s2), 1 << ext.m)
           for ext, s1, s2 in pairs]
    assert [d.hex() for d in kernel.tolist()] == [d.hex() for d in ref]
    assert min(ref) >= 0.0 and max(ref) > 0.1


@pytest.mark.parametrize("strong_in", STRONG + (None,))
def test_each_pair_of_a_batch_is_its_batch_of_one(strong_in):
    pairs = _seeded_pairs(200, 39)
    for shift in (0, 1, 77):
        rolled = pairs[shift:] + pairs[:shift]
        batch = product_distances(rolled, strong_in)
        for i in (0, 100, 199):
            [alone] = product_distances([rolled[i]], strong_in)
            assert batch[i].hex() == alone.hex(), (shift, i)
    assert product_distances([], strong_in).shape == (0,)
    with pytest.raises(ValueError, match="strong_in must be None, 'x1' or 'x2', got 'x3'"):
        product_distances(pairs[:1], "x3")


@pytest.mark.parametrize("strong_in", STRONG + (None,))
def test_a_group_split_by_the_budget_gives_the_same_bits(monkeypatch, strong_in):
    # Each (pair, x) row is bit for bit the same alone, so chunks of pairs, and
    # slices of one pair's rows, move no value.
    pairs = _seeded_pairs(200, 38)
    calls, relabel = [], cq_states.relabelled_stacks
    monkeypatch.setattr(cq_states, "relabelled_stacks",
                        lambda *args: calls.append(1) or relabel(*args))
    whole = [d.hex() for d in product_distances(pairs, strong_in).tolist()]
    made = [len(calls)]
    for budget in (4096, 0):    # chunks of a few pairs; then every row alone
        monkeypatch.setattr(cq_states, "PAIR_BUDGET", budget)
        calls.clear()
        assert [d.hex() for d in product_distances(pairs, strong_in).tolist()] == whole
        made.append(len(calls))
    rows = sum(len((s2 if strong_in == "x2" else s1).stack) for _, s1, s2 in pairs)
    assert made[0] < made[1] < made[2] == rows + (len(pairs) if strong_in is None else 0)


def test_b1_quantum_product_builds_no_output_state_and_solves_no_copied_source(monkeypatch):
    full = load_config("full")["checks"]
    pos = next(i for i, entry in enumerate(full) if entry["id"] == "b1-quantum-product")

    def refuse(*args, **kwargs):
        raise AssertionError("b1-quantum-product built an output state")

    solved, kernel_calls = [], []
    solver, kernel = entropies._h_min_solver, checks.product_distances

    monkeypatch.setattr(checks, "apply_classical_function", refuse)
    monkeypatch.setattr(entropies, "_h_min_solver",
                        lambda states, iters: solved.extend(states) or solver(states, iters))
    monkeypatch.setattr(checks, "product_distances",
                        lambda *args: kernel_calls.append(args) or kernel(*args))
    reports = checks.run_check("b1-quantum-product", {
        "params": full[pos]["params"], "seed": (7 * 1000003 + pos) & 0x7FFFFFFF})
    assert len(reports) == 4 * 200 and all(r.passed for r in reports)
    # each pair is (ext, s1, s2); x1 is the copied source
    copied = [s1 for _, s1, _ in kernel_calls[0][0]]
    assert len(kernel_calls) == 1 and len(copied) == 200 and kernel_calls[0][1] == "x1"
    assert all(s.side_dim == 1 for s in copied)
    assert solved and not {id(s) for s in copied} & {id(s) for s in solved}
    assert all(" sides=(trivial," in r.scenario for r in reports)
    assert all(r.flags["converged1"] and r.params["k1"] == int(r.params["k1"]) for r in reports)


def test_b1_quantum_product_builds_each_output_table_once(monkeypatch):
    # One extractor per (kind, n, m) is shared by every scenario of the family,
    # so a second run builds no table at all.
    built, build = [], extractors.deor_table
    monkeypatch.setattr(extractors, "deor_table",
                        lambda family: built.append(family) or build(family))
    checks._extractor.cache_clear()
    config = {"params": {"count": 40}, "seed": 5}
    first = checks.run_check("b1-quantum-product", config)
    families = {tuple(r.scenario.split()[1:4]) for r in first}   # (kind, n, m)
    assert 0 < len(built) <= len(families) < 40
    built.clear()
    second = checks.run_check("b1-quantum-product", config)
    assert built == []
    assert [(r.scenario, r.measured_delta) for r in second] == \
        [(r.scenario, r.measured_delta) for r in first]


def test_b8_weak_quantum_takes_one_kernel_call(monkeypatch):
    full = load_config("full")["checks"]
    pos = next(i for i, entry in enumerate(full) if entry["id"] == "b8-weak-quantum")
    kernel_calls, kernel = [], checks.product_distances
    monkeypatch.setattr(checks, "product_distances",
                        lambda *args: kernel_calls.append(args) or kernel(*args))
    reports = checks.run_check("b8-weak-quantum", {
        "params": full[pos]["params"], "seed": (7 * 1000003 + pos) & 0x7FFFFFFF})
    assert len(reports) == 50 and all(r.passed for r in reports)
    [(pairs, strong_in)] = kernel_calls
    assert strong_in is None
    assert [r.measured_delta.hex() for r in reports] == [
        distance_to_uniform(extractor_output_state(ext, s1, s2), 1 << ext.m).hex()
        for ext, s1, s2 in pairs]


def test_no_per_state_output_route_in_the_package():
    # Every output distance goes through product_distances or flat_grid_distances;
    # the per-state route lives in tests/conftest.py as their oracle.
    root = Path(extraction_lab.__file__).parent
    found = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [name for alias in node.names
                         for name in (alias.name.split(".")[-1], alias.asname)]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found |= {f"{path.relative_to(root)}:{name}" for name in names
                      if name in PER_STATE_ROUTE}
    assert found == set()
