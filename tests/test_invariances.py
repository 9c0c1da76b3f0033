"""Symmetries of the deor extractor that the product route must respect.

* Output mixing: for an invertible L over F_2^m, the family with matrices
  B_j = sum_i L_ji A_i outputs L z where the original outputs z.  Its
  combinations B_s are the original's A_{L^T s}, so it has the same r, and
  an invertible relabelling of the output moves no distance to uniform.
* Transposition: deor(x1, x2) of (A_i) is deor(x2, x1) of (A_i^T), so the
  transposed family on the swapped sources gives the same output, and an
  output strong in X1 is the transposed one strong in X2.
* Unitary invariance: conjugating every conditional by one unitary on E
  moves no eigenvalue of any block, operator or difference of them, so
  neither H_min, nor H_2, nor the distance to uniform; and it conjugates
  every element of the pretty good measurement by the same unitary.
* Isometric embedding: padding E with an unused dimension, each
  conditional rho_x becoming rho_x + 0, adds only zero eigenvalues, so it
  moves neither entropy nor any distance to uniform.
* Data processing: tracing out one factor of E = E_a ⊗ E_b is a channel on
  E, so it lowers neither H_min nor H_2 and raises no distance to uniform.

The first two are checked on fixed batches of product pairs (bb84 and
random_pure side information, n 3-5, m 2-3, field and shift families) through
``cq_states.product_distances``; the last three on such a batch and on random
cq-states through ``h_min_cond_many`` and ``h2_cond_many``, each batch
holding the states and their transformed copies side by side.  The PGM's
covariance is checked on such batches through ``xor_analysis.pgm_stacks``.
"""

import itertools

import numpy as np
import pytest

from conftest import output_stacks, random_cq_state, random_distribution

from extraction_lab.cq_states import CqState, product_distances
from extraction_lab.entropies import h2_cond_many, h_min_cond_many
from extraction_lab.extractors import deor_extractor
from extraction_lab.gf2 import MatrixFamily, build_field_family, build_shift_family, gf2_rank
from extraction_lab.harness.scenarios import make_side_info
from extraction_lab.operators import partial_trace
from extraction_lab.xor_analysis import pgm_stacks

FAMILIES = (build_field_family, build_shift_family)
SIDES = ({"model": "bb84", "params": {"bits": 1}}, {"model": "random_pure", "params": {"dim": 2}},
         {"model": "random_pure", "params": {"dim": 3}})


def _source(n, rng):
    side = SIDES[int(rng.integers(len(SIDES)))]
    return make_side_info(side["model"], random_distribution(n, rng, min_support=2),
                          side["params"], seed=int(rng.integers(2 ** 31)))


def _invertible(m, rng) -> np.ndarray:
    while True:
        mat = rng.integers(0, 2, size=(m, m), dtype=np.uint8)
        if gf2_rank(mat) == m:
            return mat


def _batch(seed):
    """(family, s1, s2) for every (n, m, family kind), each with two source pairs."""
    rng = np.random.default_rng(seed)
    return [(build(n, m), _source(n, rng), _source(n, rng))
            for n in (3, 4, 5) for m in (2, 3) for build in FAMILIES for _ in range(2)]


def _mixed(family, mix) -> MatrixFamily:
    stacked = np.array(family.matrices, dtype=np.int64)
    return MatrixFamily(tuple((np.tensordot(mix, stacked, axes=1) % 2).astype(np.uint8)))


@pytest.mark.parametrize("strong_in", ["x1", "x2", None])
def test_an_invertible_output_mixing_moves_no_distance(strong_in):
    batch = _batch(41)
    rng = np.random.default_rng(42)
    mixed = [(_mixed(family, _invertible(family.m, rng)), s1, s2) for family, s1, s2 in batch]
    assert [f.r for f, _, _ in mixed] == [f.r for f, _, _ in batch]
    assert any(not np.array_equal(f.matrices, g.matrices) for (f, _, _), (g, _, _)
               in zip(mixed, batch))
    before = product_distances([(deor_extractor(f), s1, s2) for f, s1, s2 in batch], strong_in)
    after = product_distances([(deor_extractor(f), s1, s2) for f, s1, s2 in mixed], strong_in)
    assert np.abs(after - before).max() <= 1e-14
    assert before.min() > 0


@pytest.mark.parametrize("strong_in,swapped", [("x1", "x2"), ("x2", "x1"), (None, None)])
def test_transposing_the_family_swaps_the_sources(strong_in, swapped):
    batch = _batch(43)
    transposed = [(MatrixFamily(tuple(a.T for a in family.matrices)), s1, s2)
                  for family, s1, s2 in batch]
    assert [f.r for f, _, _ in transposed] == [f.r for f, _, _ in batch]
    direct = product_distances([(deor_extractor(f), s1, s2) for f, s1, s2 in batch], strong_in)
    swapped_pairs = [(deor_extractor(f), s2, s1) for f, s1, s2 in transposed]
    assert np.abs(product_distances(swapped_pairs, swapped) - direct).max() <= 1e-14
    assert direct.min() > 0


def _unitary(dim, rng) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q


def _conjugated(state, rng) -> CqState:
    """``state`` with every conditional conjugated by one random unitary U on E."""
    u = _unitary(state.side_dim, rng)
    blocks = u @ state.stack @ u.conj().T
    blocks = 0.5 * (blocks + blocks.conj().swapaxes(-1, -2))     # Hermitian to the last bit
    return CqState(state.side_dim, dict(zip(state.symbols(), blocks)))


def test_a_unitary_on_e_moves_no_entropy():
    rng = np.random.default_rng(45)
    states = [random_cq_state(int(rng.integers(1, 4)), int(rng.integers(2, 5)), rng)
              for _ in range(24)]
    batch = [s for state in states for s in (state, _conjugated(state, rng))]
    assert not np.allclose(batch[0].stack, batch[1].stack)
    for solve in (h_min_cond_many, h2_cond_many):
        results = solve(batch)
        for before, after in zip(results[::2], results[1::2]):
            assert abs(after.value - before.value) <= max(before.gap, after.gap) + 1e-12


@pytest.mark.parametrize("strong_in", ["x1", None])
def test_a_unitary_on_e_moves_no_distance(strong_in):
    rng = np.random.default_rng(46)
    pairs = [(deor_extractor(family), s1, s2) for family, s1, s2 in _batch(47)]
    batch = [pair for ext, s1, s2 in pairs
             for pair in ((ext, s1, s2), (ext, _conjugated(s1, rng), _conjugated(s2, rng)))]
    deltas = product_distances(batch, strong_in)
    assert np.abs(deltas[1::2] - deltas[::2]).max() <= 1e-12
    assert deltas.min() > 0


def test_a_unitary_on_e_conjugates_every_pgm_element():
    # The PGM of U rho U^dagger has the elements U E_x U^dagger.  Rounding in
    # rho_B^(-1/2) grows with the condition number of rho_B on its support, so each
    # state's allowance is 1e-12 times that number (seen: 1.3e-15 times it at worst
    # over 40 seeds).  Pure conditionals on fewer symbols than the side's dimension
    # leave rho_B singular, so the completeness deficit on its kernel is covered too.
    rng = np.random.default_rng(48)
    singular = 0
    for m, dim in ((1, 2), (1, 4), (2, 2), (2, 3), (3, 4)):
        states = [random_cq_state(m, dim, rng, pure=bool(i % 2)) for i in range(8)]
        stacks, present = output_stacks(states)
        units = np.array([_unitary(dim, rng) for _ in states])[:, None]
        adjoints = units.conj().swapaxes(-1, -2)
        moved = units @ stacks @ adjoints
        moved = 0.5 * (moved + moved.conj().swapaxes(-1, -2))     # Hermitian to the last bit
        batch = np.stack([stacks, moved], axis=1).reshape((-1,) + stacks.shape[1:])
        elements = pgm_stacks(batch, np.repeat(present, 2, axis=0))
        before, after = elements[::2], elements[1::2]
        spectra = np.linalg.eigvalsh(stacks.sum(axis=1))
        scale = np.array([w[-1] / w[w > 1e-12 * w[-1]].min() for w in spectra])
        singular += int(np.sum(spectra[:, 0] < 1e-12 * spectra[:, -1]))
        deviation = np.abs(after - units @ before @ adjoints).max(axis=(1, 2, 3))
        assert np.all(deviation <= 1e-12 * scale), (m, dim, deviation / scale)
    assert singular > 0


def _padded(state, first: bool) -> CqState:
    """``state`` with E embedded in one more dimension, unused: the new basis vector
    first or last."""
    d = state.side_dim
    blocks = np.zeros((len(state.stack), d + 1, d + 1), dtype=complex)
    at = slice(1, None) if first else slice(None, d)
    blocks[:, at, at] = state.stack
    return CqState(d + 1, dict(zip(state.symbols(), blocks)))


def test_an_unused_dimension_of_e_moves_no_entropy():
    # Mixed and pure conditionals, so supports of full and of lower rank both
    # meet the added kernel direction; padded and unpadded states share a batch.
    rng = np.random.default_rng(48)
    states = [random_cq_state(int(rng.integers(1, 4)), int(rng.integers(1, 4)), rng,
                              pure=bool(i % 2)) for i in range(24)]
    batch = [s for i, state in enumerate(states) for s in (state, _padded(state, i % 3 == 0))]
    assert {s.side_dim for s in batch[1::2]} == {2, 3, 4}
    for solve in (h_min_cond_many, h2_cond_many):
        results = solve(batch)
        for before, after in zip(results[::2], results[1::2]):
            assert abs(after.value - before.value) <= max(before.gap, after.gap) + 1e-12


@pytest.mark.parametrize("strong_in", ["x1", None])
def test_an_unused_dimension_of_e_moves_no_distance(strong_in):
    pairs = [(deor_extractor(family), s1, s2) for family, s1, s2 in _batch(49)]
    batch = [pair for i, (ext, s1, s2) in enumerate(pairs)
             for pair in ((ext, s1, s2), (ext, _padded(s1, i % 2 == 0), s2),
                          (ext, s1, _padded(s2, i % 3 == 0)))]
    deltas = product_distances(batch, strong_in)
    assert np.abs(deltas[1::3] - deltas[::3]).max() <= 1e-12
    assert np.abs(deltas[2::3] - deltas[::3]).max() <= 1e-12
    assert deltas.min() > 0


def _traced(state, dims, keep: int) -> CqState:
    """``state`` with its E = E_a ⊗ E_b, of ``dims``, traced down to the factor ``keep``."""
    return CqState(dims[keep], dict(zip(state.symbols(),
                                        partial_trace(state.stack, dims, (keep,)))))


def _product_side(rng):
    """The (d_a, d_b) of a side register E_a ⊗ E_b of dimension 2 or 4."""
    return ((1, 2), (2, 1), (2, 2))[int(rng.integers(3))]


def test_tracing_out_part_of_e_lowers_no_entropy():
    # Mixed and pure conditionals: a pure one on E_a ⊗ E_b is mixed on E_a, and a
    # one-dimensional factor left leaves a classical state.  The achieved value is
    # at most the gap below the true supremum, which no channel on E lowers.
    rng = np.random.default_rng(50)
    batch = []
    for i in range(24):
        dims = (int(rng.integers(1, 4)), int(rng.integers(2, 4)))
        state = random_cq_state(int(rng.integers(1, 4)), dims[0] * dims[1], rng,
                                pure=bool(i % 2))
        batch += [state, _traced(state, dims, i % 3 % 2)]
    assert {s.side_dim for s in batch[1::2]} == {1, 2, 3}
    for solve in (h_min_cond_many, h2_cond_many):
        results = solve(batch)
        rises = [after.value - before.value for before, after in zip(results[::2], results[1::2])]
        for rise, after in zip(rises, results[1::2]):
            assert rise >= -(after.gap + 1e-12)
        assert max(rises) > 0.1


@pytest.mark.parametrize("strong_in", ["x1", None])
def test_tracing_out_part_of_e_raises_no_distance(strong_in):
    rng = np.random.default_rng(51)
    batch = []
    for n in (3, 4):
        for m, build, pure in itertools.product((2, 3), FAMILIES, (False, True)):
            ext = deor_extractor(build(n, m))
            dims1, dims2 = _product_side(rng), _product_side(rng)
            s1 = random_cq_state(n, dims1[0] * dims1[1], rng, min_support=2, pure=pure)
            s2 = random_cq_state(n, dims2[0] * dims2[1], rng, min_support=2, pure=pure)
            batch += [(ext, s1, s2), (ext, _traced(s1, dims1, int(rng.integers(2))), s2),
                      (ext, s1, _traced(s2, dims2, int(rng.integers(2))))]
    deltas = product_distances(batch, strong_in)
    assert (deltas[1::3] - deltas[::3]).max() <= 1e-12
    assert (deltas[2::3] - deltas[::3]).max() <= 1e-12
    assert min(deltas[1::3].min(), deltas[2::3].min()) > 0
    assert (deltas[::3] - np.minimum(deltas[1::3], deltas[2::3])).max() > 1e-3
