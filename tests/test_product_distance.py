"""Oracles for the strong product route, ``cq_states.product_strong_distances``.

For product sources and an output strong in the copied source X, the
distance factorises over x: δ = Σ_x p(x) · ½ Σ_z ‖A_{x,z} − ρ_Y/2^m‖₁, and
X's side register drops out.  The independent route is the cq-state one,
``distance_to_uniform`` of the strong ``extractor_output_state``, which
tensors X's blocks into every output block.  The tests hold:

* the identity itself on the cq-state route: δ with X's quantum side
  register equals δ with it dropped;
* the kernel against the cq-state route within 1e-14 on 200 seeded pairs;
* each pair's distance in a batch, bit for bit what a batch of one gives;
* ``b1-quantum-product`` at ``full``'s params: it builds no output state,
  takes every distance from one kernel call, and solves no copied source.
"""

import numpy as np
import pytest

from conftest import random_cq_state, random_distribution

from extraction_lab import entropies
from extraction_lab.cq_states import (
    classical_state,
    distance_to_uniform,
    extractor_output_state,
    product_strong_distances,
)
from extraction_lab.extractors import deor_extractor
from extraction_lab.gf2 import build_field_family, build_shift_family
from extraction_lab.harness import checks
from extraction_lab.harness.scenarios import make_side_info
from extraction_lab.harness.suite import load_config

FAMILIES = (build_field_family, build_shift_family)
STRONG = ("x1", "x2")


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
                kernel = product_strong_distances([(ext, s1, s2), (ext, s1_, s2_)], strong_in)
                assert np.abs(kernel - delta).max() <= 1e-14
                checked += 1
    assert checked == 2 * (2 + 3 + 3)


@pytest.mark.parametrize("strong_in", STRONG)
def test_kernel_matches_the_cq_state_route(strong_in):
    pairs = _seeded_pairs(200, 38)
    assert {ext.n for ext, _, _ in pairs} == {1, 2, 3, 4, 5}
    assert {ext.m for ext, _, _ in pairs} == {1, 2, 3}
    kernel = product_strong_distances(pairs, strong_in)
    ref = np.array([_cq_route(*pair, strong_in) for pair in pairs])
    assert kernel.shape == (200,) and np.abs(kernel - ref).max() <= 1e-14
    assert ref.min() >= 0.0 and ref.max() > 0.1


@pytest.mark.parametrize("strong_in", STRONG)
def test_each_pair_of_a_batch_is_its_batch_of_one(strong_in):
    pairs = _seeded_pairs(200, 39)
    for shift in (0, 1, 77):
        rolled = pairs[shift:] + pairs[:shift]
        batch = product_strong_distances(rolled, strong_in)
        for i in (0, 100, 199):
            [alone] = product_strong_distances([rolled[i]], strong_in)
            assert batch[i].hex() == alone.hex(), (shift, i)
    assert product_strong_distances([], strong_in).shape == (0,)
    with pytest.raises(ValueError, match="strong_in 'x1' or 'x2'"):
        product_strong_distances(pairs[:1], None)


def test_b1_quantum_product_builds_no_output_state_and_solves_no_copied_source(monkeypatch):
    full = load_config("full")["checks"]
    pos = next(i for i, entry in enumerate(full) if entry["id"] == "b1-quantum-product")

    def refuse(*args, **kwargs):
        raise AssertionError("b1-quantum-product built an output state")

    copied, solved, kernel_calls = [], [], []
    draw, solver, kernel = (checks._random_deor_output, entropies._h_min_solver,
                            checks.product_strong_distances)

    def recording_draw(*args):
        scenario = draw(*args)
        copied.append(scenario[-2])
        return scenario

    monkeypatch.setattr(checks, "extractor_output_state", refuse)
    monkeypatch.setattr(checks, "_random_deor_output", recording_draw)
    monkeypatch.setattr(entropies, "_h_min_solver",
                        lambda states, iters: solved.extend(states) or solver(states, iters))
    monkeypatch.setattr(checks, "product_strong_distances",
                        lambda *args: kernel_calls.append(args) or kernel(*args))
    reports = checks.run_check("b1-quantum-product", {
        "params": full[pos]["params"], "seed": (7 * 1000003 + pos) & 0x7FFFFFFF})
    assert len(reports) == 4 * 200 and all(r.passed for r in reports)
    assert len(kernel_calls) == 1 and len(copied) == 200
    assert all(s.side_dim == 1 for s in copied)
    assert solved and not {id(s) for s in copied} & {id(s) for s in solved}
    assert all(" sides=(trivial," in r.scenario for r in reports)
    assert all(r.flags["converged1"] and r.params["k1"] == int(r.params["k1"]) for r in reports)
