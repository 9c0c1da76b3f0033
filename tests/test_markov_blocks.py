"""The Markov block route against the dense joint route it replaced.

A state with I(X1:X2|C) = 0 is a direct sum over blocks j of products
w_j rho^j_{X1 C1} (x) rho^j_{X2 C2} (Hayden, Jozsa, Petz and Winter, CMP
246, 2004), so ``b2-markov`` sums each block's product-output distance and
``h_min_markov_sources`` composes each factor's certified result.  The
oracles are the dense routes kept in conftest: the joint cq-state on the
pair alphabet (``markov_block_state``), its output relabelled in one piece
(``extractor_output_from_joint``) and its marginals solved whole.
"""

import numpy as np
import pytest

from conftest import extractor_output_from_joint, joint_and_marginals

from extraction_lab import entropies
from extraction_lab.cq_states import distance_to_uniform, extractor_output_state, markov_block_state
from extraction_lab.entropies import h_min_cond_many, h_min_markov_sources
from extraction_lab.extractors import deor_extractor
from extraction_lab.gf2 import build_field_family, build_shift_family
from extraction_lab.harness import load_config, run_check
from extraction_lab.harness.scenarios import make_markov_scenario


@pytest.fixture(scope="module")
def draws():
    """48 seeded scenarios: n 2..5, 2 or 3 blocks and both ``classical`` values, 3 seeds
    each, with a deor extractor of m 1 or 2 over a field or shift family."""
    drawn = []
    for i in range(48):
        n, blocks, classical = 2 + i % 4, 2 + (i // 4) % 2, (i // 8) % 2 == 1
        build = build_field_family if i % 3 else build_shift_family
        ext = deor_extractor(build(n, 1 + (i // 16) % 2))
        drawn.append((ext, make_markov_scenario(n, blocks, seed=100 + i, classical=classical)))
    return drawn


@pytest.fixture(scope="module")
def solved(draws):
    """Each draw's scenario, dense joint and marginals, and both routes' entropies."""
    scenarios = [scn for _, scn in draws]
    dense = [joint_and_marginals(scn) for scn in scenarios]
    flat = h_min_cond_many([m for _, *marginals in dense for m in marginals])
    return [(scn, joint, marginals, composed, flat[2 * i:2 * i + 2])
            for i, (scn, (joint, *marginals), composed) in enumerate(
                zip(scenarios, dense, h_min_markov_sources(scenarios)))]


@pytest.mark.parametrize("strong_in", [None, "x1", "x2"])
def test_block_distance_equals_the_joint_route(draws, strong_in):
    strong = strong_in is not None
    for i, (ext, scn) in enumerate(draws):
        joint = markov_block_state(scn)
        dense = distance_to_uniform(extractor_output_from_joint(ext, joint, strong_in),
                                    1 << ext.m, strong)
        blocks = sum(w * distance_to_uniform(extractor_output_state(ext, s1, s2, strong_in),
                                             1 << ext.m, strong)
                     for w, (s1, s2) in zip(scn.weights, scn.factors))
        assert abs(blocks - dense) <= 1e-15, (i, strong_in)


def test_composed_entropies_bracket_the_dense_solve(solved):
    for i, (_, _, _, composed, dense) in enumerate(solved):
        for block, whole in zip(composed, dense):
            # both certify an interval [value, value + gap] around the true H_min
            assert block.value <= whole.value + whole.gap + 1e-12, i
            assert whole.value <= block.value + block.gap + 1e-12, i
            assert block.converged, i


def test_composed_dual_dominates_every_dense_block(solved):
    sides = set()
    for i, (scn, joint, marginals, composed, _) in enumerate(solved):
        for source, (marginal, res) in enumerate(zip(marginals, composed)):
            assert res.sigma.shape == (joint.side_dim,) * 2, i
            assert abs(np.trace(res.sigma).real - 1.0) <= 1e-12, i
            y = 2.0 ** -res.value * res.sigma
            lowest = np.linalg.eigvalsh(y - marginal.stack)[:, 0].min()
            assert lowest >= -1e-12, (i, source, lowest)
        sides.add(tuple((s1.side_dim, s2.side_dim) for s1, s2 in scn.factors))
    # X2's tensor order shows only where some block has C1 and C2 both quantum or
    # of unequal dimensions
    assert any((1, 2) in pairs or (2, 1) in pairs for pairs in sides)
    assert any((2, 2) in pairs for pairs in sides)


def test_b2_markov_sends_no_problem_to_the_primal_dual_solver(monkeypatch):
    # Every factor's side register has dimension 1 or 2, so each goes to the closed
    # form or to _exact_guess, never to the primal-dual method.
    def refuse(*args, **kwargs):
        raise AssertionError("b2-markov sent a problem to _guessing_pd")

    monkeypatch.setattr(entropies, "_guessing_pd", refuse)
    full = load_config("full")["checks"]
    pos = next(i for i, e in enumerate(full) if e["id"] == "b2-markov")
    reports = run_check("b2-markov", {"params": full[pos]["params"],
                                      "seed": (7 * 1000003 + pos) & 0x7FFFFFFF})
    assert len(reports) == 4 * 40 and all(r.passed for r in reports)
    assert max(r.params["n"] for r in reports) == 8
