"""The Markov block route against the dense joint route it replaced.

A state with I(X1:X2|C) = 0 is a direct sum over blocks j of products
w_j rho^j_{X1 C1} (x) rho^j_{X2 C2} (Hayden, Jozsa, Petz and Winter, CMP
246, 2004), so ``b2-markov`` sums each block's product-output distance and
``h_min_markov_sources`` composes each factor's certified result, and
``markov-cmi`` takes I(X1:X2|C) from the d_C×d_C blocks of the joint state
(``pair_cmis``).  The oracles are the dense routes kept in conftest: the
joint cq-state on the pair alphabet (``markov_block_state``), its output
relabelled in one piece (``extractor_output_from_joint``), its marginals
solved whole and its CMI taken from the dense 4^n·d_C operator
(``conditional_mutual_informations`` of ``dense_cq``).
"""

import itertools

import numpy as np
import pytest

from conftest import (
    conditional_mutual_informations,
    dense_cq,
    distance_to_uniform,
    extractor_output_from_joint,
    extractor_output_state,
    joint_and_marginals,
    padded_pairs,
    random_cq_state,
)

from extraction_lab import entropies
from extraction_lab.cq_states import (
    apply_classical_function,
    classical_state,
    markov_block_state,
    pair_cmis,
)
from extraction_lab.entropies import h_min_cond_many, h_min_markov_sources
from extraction_lab.extractors import deor_extractor
from extraction_lab.gf2 import all_bit_vectors, build_field_family, build_shift_family
from extraction_lab.harness import load_config, run_check
from extraction_lab.harness.scenarios import MARKOV_BLOCKS_MAX, make_markov_scenario


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


# -- markov-cmi: I(X1:X2|C) from the blocks against the dense operator -----------------

def _dense_cmi(state, n):
    alphabet = all_bit_vectors(n)
    dense = dense_cq(state, list(itertools.product(alphabet, repeat=2)))
    return float(conditional_mutual_informations(dense[None], (1 << n, 1 << n, state.side_dim))[0])


def _non_markov(count, seed):
    """``count`` random cq-states on pairs of n-bit symbols, n 1 or 2, with a quantum
    side register of dimension 2..4 and a block for every pair: (n, state) pairs."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n, dim = 1 + i % 2, 2 + i % 3
        state = random_cq_state(2 * n, dim, rng, min_support=4 ** n)
        out.append((n, apply_classical_function(state, lambda sym, n=n: (sym[:n], sym[n:]))))
    return out


def _markov(count):
    """``count`` seeded Markov joint states: n 1 or 2, 2 or 3 blocks, both ``classical``
    values: (n, state) pairs."""
    return [(1 + i % 2, markov_block_state(make_markov_scenario(
        1 + i % 2, 2 + (i // 2) % 2, seed=300 + i, classical=(i // 4) % 2 == 1)))
        for i in range(count)]


def test_pair_cmis_equal_the_dense_route_on_markov_states():
    states = _markov(48)
    assert {(n, s.side_dim) for n, s in states} >= {(1, 2), (2, 2), (2, 5)}
    for i, (n, state) in enumerate(states):
        (cmi,) = pair_cmis(*padded_pairs([state], n)).tolist()
        assert abs(cmi - _dense_cmi(state, n)) <= 1e-12, i
        assert abs(cmi) <= 1e-12, i


def test_pair_cmis_report_the_positive_cmi_of_non_markov_states():
    # markov-cmi can fail only if the block route can see a CMI above zero.
    cmis = []
    for i, (n, state) in enumerate(_non_markov(200, 5)):
        (cmi,) = pair_cmis(*padded_pairs([state], n)).tolist()
        assert abs(cmi - _dense_cmi(state, n)) <= 1e-12, i
        cmis.append(cmi)
    assert min(cmis) > 1e-5 and max(cmis) > 0.3
    for n in (1, 2, 3):     # a classical copy X1 = X2, uniform on n bits, C trivial
        copy = classical_state({(x, x): 2.0 ** -n for x in all_bit_vectors(n)})
        (cmi,) = pair_cmis(*padded_pairs([copy], n)).tolist()
        assert abs(cmi - n) <= 1e-12 and abs(_dense_cmi(copy, n) - n) <= 1e-12


def test_a_group_of_pair_cmis_equals_each_state_alone():
    states = _markov(100) + _non_markov(100, 6)
    keys = [(n, state.side_dim) for n, state in states]
    assert len(set(keys)) >= 10
    alone = [pair_cmis(*padded_pairs([state], n))[0].hex() for n, state in states]
    for shift in (0, 1, 77):        # every state at three positions of a 200-state batch
        groups = {}
        for i in np.roll(np.arange(len(states)), shift).tolist():
            groups.setdefault(keys[i], []).append(i)
        for (n, _), at in groups.items():
            cmis = pair_cmis(*padded_pairs([states[i][1] for i in at], n))
            assert [cmi.hex() for cmi in cmis] == [alone[i] for i in at], (shift, n)


def _refusal(state, n, spoil):
    """The messages with which the block and the dense route refuse ``state`` spoilt."""
    stacks, present = padded_pairs([state], n)
    spoil(stacks[0])
    d = state.side_dim
    dense = np.zeros((4 ** n * d,) * 2, dtype=complex)
    for i, block in enumerate(stacks[0].reshape(-1, d, d)):
        dense[i * d:(i + 1) * d, i * d:(i + 1) * d] = block
    messages = []
    for route in (lambda: pair_cmis(stacks, present),
                  lambda: conditional_mutual_informations(dense[None], (1 << n, 1 << n, d))):
        with pytest.raises(ValueError) as refused:
            route()
        messages.append(str(refused.value))
    return messages


def test_pair_cmis_refuse_what_the_dense_route_refuses():
    state = random_cq_state(2, 2, np.random.default_rng(2), min_support=4)
    state = apply_classical_function(state, lambda sym: (sym[:1], sym[1:]))

    def skew(blocks):
        blocks[1, 0, 0, 1] += 1e-6

    def negative(blocks):       # the only block of its row and its column
        blocks[:] = 0
        blocks[0, 0] = np.diag([0.6, 0.5])
        blocks[1, 1] = np.diag([0.1, -0.2])

    block, dense = _refusal(state, 1, skew)
    assert block == dense == "operator is not Hermitian (max deviation 1.000e-06)"
    block, dense = _refusal(state, 1, negative)
    assert block == dense == "operator is not PSD (min eigenvalue -2.000e-01)"


def test_markov_cmi_decomposes_nothing_wider_than_a_side_register(monkeypatch):
    # The widest side register _markov_draw makes: MARKOV_BLOCKS_MAX blocks of 2×2.
    widest = MARKOV_BLOCKS_MAX * 4
    for name in ("eigvalsh", "eigh"):
        real = getattr(np.linalg, name)

        def narrow(a, *args, real=real, name=name, **kwargs):
            if np.shape(a)[-1] > widest:
                raise AssertionError(f"markov-cmi took {name} of a {np.shape(a)[-1]}-wide matrix")
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, narrow)
    full = load_config("full")["checks"]
    pos = next(i for i, e in enumerate(full) if e["id"] == "markov-cmi")
    reports = run_check("markov-cmi", {"params": full[pos]["params"],
                                       "seed": (7 * 1000003 + pos) & 0x7FFFFFFF})
    assert len(reports) == 100 and all(r.passed for r in reports)
    assert max(int(r.scenario.rsplit("side=", 1)[1]) for r in reports) == widest
