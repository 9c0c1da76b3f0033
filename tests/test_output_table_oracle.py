"""Oracles for the extractor output tables and the stacked output states.

Independent routes:

* every output table equals per-pair evaluation (``deor_eval``,
  ``ip_eval``, the s-component evaluator) on every input pair, and the
  inner product's table equals the deor table of the field family at m = 1;
* the per-pair ``extractor_output_state`` and ``distance_to_uniform`` that
  the table-driven, stacked versions in conftest replaced, kept verbatim
  below, give bitwise-equal blocks and distances.  Report bytes rest on that equality.
  The joint builder, conftest's ``extractor_output_from_joint``, the oracle
  of the Markov block route, is held to its per-pair copy the same way;
* the counted flat-grid distances (``flat_grid_distances``) equal the
  cq-state route bit for bit, and equal an exact ``Fraction`` enumeration
  over input pairs.
"""

import itertools
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extraction_lab.cq_states import (
    CqState,
    _strong_flag,
    build_cq,
    classical_state,
    flat_grid_distances,
    markov_block_state,
)
from extraction_lab.extractors import (
    ComponentExtractor,
    deor_eval,
    deor_extractor,
    ip_eval,
    ip_extractor,
)
from extraction_lab.gf2 import (
    all_bit_vectors,
    bits_to_index,
    build_field_family,
    build_shift_family,
    index_to_bits,
)
from extraction_lab.harness import checks
from extraction_lab.harness.checks import CLASSICAL_SIDES, _flat_grid, _flat_sources, run_check
from extraction_lab.harness.scenarios import LEAKS, make_markov_scenario
from extraction_lab.operators import hermitian_stack, tensor
from conftest import (
    answered,
    distance_to_uniform,
    extractor_output_from_joint,
    extractor_output_state,
    product,
    random_density,
    random_pure_state,
)

FAMILIES = {"field": build_field_family, "shift": build_shift_family}


# -- the output tables against per-pair evaluation ----------------------------

@pytest.mark.parametrize("kind", sorted(FAMILIES))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_deor_and_component_tables_match_per_pair(kind, n):
    vectors = all_bit_vectors(n)
    for m in range(1, n + 1):
        fam = FAMILIES[kind](n, m)
        table = deor_extractor(fam).table
        assert table.shape == (1 << n, 1 << n) and not table.flags.writeable
        selectors = [index_to_bits(i, m) for i in range(1, 1 << m)]
        components = [ComponentExtractor(fam, s).table for s in selectors]
        for i, x in enumerate(vectors):
            for j, y in enumerate(vectors):
                out = deor_eval(fam, x, y)
                assert index_to_bits(int(table[i, j]), m) == out
                for s, comp in zip(selectors, components):
                    assert comp[i, j] == sum(si & oi for si, oi in zip(s, out)) & 1


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_component_table_matches_component_evaluator(kind):
    fam = FAMILIES[kind](3, 3)
    vectors = all_bit_vectors(3)
    for idx in range(1, 8):
        comp = ComponentExtractor(fam, index_to_bits(idx, 3))
        for i, x in enumerate(vectors):
            for j, y in enumerate(vectors):
                assert (int(comp.table[i, j]),) == comp(x, y)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_ip_table_matches_per_pair(n):
    vectors = all_bit_vectors(n)
    table = ip_extractor(n).table
    for i, x in enumerate(vectors):
        for j, y in enumerate(vectors):
            assert table[i, j] == ip_eval(x, y)


def test_table_refuses_oversized_alphabets():
    with pytest.raises(ValueError, match="not supported"):
        ip_extractor(12).table


def test_ip_table_is_the_field_family_at_m1():
    # build_field_family(n, 1) is multiplication by 1: the identity, built
    # a second way.
    for n in range(1, 9):
        ip = ip_extractor(n).table
        assert ip.dtype == np.uint8
        assert np.array_equal(ip, deor_extractor(build_field_family(n, 1)).table), n


def test_uint16_table_matches_per_pair():
    fam = build_field_family(9, 9)
    table = deor_extractor(fam).table
    assert table.dtype == np.uint16
    assert ComponentExtractor(fam, index_to_bits(257, 9)).table.dtype == np.uint8
    rng = np.random.default_rng(909)
    for i, j in rng.integers(1 << 9, size=(2000, 2)).tolist():
        out = deor_eval(fam, index_to_bits(i, 9), index_to_bits(j, 9))
        assert index_to_bits(int(table[i, j]), 9) == out, (i, j)


def test_ip_table_build_stays_below_one_int64_table():
    tracemalloc.start()
    try:
        ip_extractor(11).table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20      # an int64 (2^11, 2^11) table alone is 32 MiB


# -- per-pair reference copies (the replaced implementations, verbatim) --------

def _ref_hermitian_trace_norm(s) -> float:
    m = hermitian_stack(np.asarray(s, dtype=complex)[None])[0]
    return float(np.sum(np.abs(np.linalg.eigvalsh(m))))


def _ref_check_alphabet(state: CqState, n: int, which: str) -> None:
    for sym in state.blocks:
        if not isinstance(sym, tuple) or len(sym) != n:
            raise ValueError(f"{which} alphabet symbol {sym!r} is not an {n}-bit string")


def _ref_extractor_output_state(ext, s1: CqState, s2: CqState, strong_in=None) -> CqState:
    flag = _strong_flag(strong_in)
    _ref_check_alphabet(s1, ext.n, "source 1")
    _ref_check_alphabet(s2, ext.n, "source 2")
    blocks: dict = {}
    if flag == "x2":
        for x2 in s2.symbols():
            grouped: dict = {}
            for x1 in s1.symbols():
                z = ext(x1, x2)
                grouped[z] = grouped.get(z, 0) + s1.blocks[x1]
            for z, acc in grouped.items():
                blocks[(z, x2)] = tensor(acc, s2.blocks[x2])
        return CqState(side_dim=s1.side_dim * s2.side_dim, blocks=blocks)
    for x1 in s1.symbols():
        grouped = {}
        for x2 in s2.symbols():
            z = ext(x1, x2)
            grouped[z] = grouped.get(z, 0) + s2.blocks[x2]
        for z, acc in grouped.items():
            piece = tensor(s1.blocks[x1], acc)
            if flag == "x1":
                blocks[(z, x1)] = piece
            else:
                blocks[z] = blocks.get(z, 0) + piece
    return CqState(side_dim=s1.side_dim * s2.side_dim, blocks=blocks)


def _ref_extractor_output_from_joint(ext, joint: CqState, strong_in=None) -> CqState:
    flag = _strong_flag(strong_in)
    blocks: dict = {}
    for sym in joint.symbols():
        x1, x2 = sym
        z = ext(x1, x2)
        key = (z, x1) if flag == "x1" else (z, x2) if flag == "x2" else z
        blocks[key] = blocks.get(key, 0) + joint.blocks[sym]
    return CqState(side_dim=joint.side_dim, blocks=blocks)


def _ref_distance_to_uniform(state: CqState, uniform_dim: int, strong: bool = False) -> float:
    groups: dict = {}
    for sym, block in state.blocks.items():
        if strong:
            if not (isinstance(sym, tuple) and len(sym) == 2):
                raise ValueError(f"strong output symbols must be (z, x) pairs, got {sym!r}")
            z, rest = sym
        else:
            z, rest = sym, None
        groups.setdefault(rest, {})[z] = block
    total = 0.0
    for rest in sorted(groups, key=lambda r: (r is not None, r)):
        zmap = groups[rest]
        if len(zmap) > uniform_dim:
            raise ValueError(f"{len(zmap)} output symbols exceed uniform_dim={uniform_dim}")
        target = sum(zmap[z] for z in sorted(zmap)) / uniform_dim
        target_norm = _ref_hermitian_trace_norm(target)
        present = 0
        for z in sorted(zmap):
            total += _ref_hermitian_trace_norm(zmap[z] - target)
            present += 1
        total += (uniform_dim - present) * target_norm
    return 0.5 * total


# -- random inputs --------------------------------------------------------------

def random_source(n: int, dim: int, rng, pure: bool = False) -> CqState:
    """A quantum (or, for dim 1, classical) source on a random n-bit support."""
    size = int(rng.integers(1, (1 << n) + 1))
    chosen = sorted(int(i) for i in rng.choice(1 << n, size=size, replace=False))
    weights = rng.random(size) + 1e-3
    dist = {index_to_bits(i, n): float(w) for i, w in zip(chosen, weights / weights.sum())}
    if dim == 1:
        return classical_state(dist)
    make = random_pure_state if pure else random_density
    return build_cq(dist, {sym: make(dim, rng) for sym in sorted(dist)})


def random_extractor(n: int, rng):
    """deor over a field or shift family, one of its s-components, or ip."""
    pick = int(rng.integers(3))
    if pick == 2:
        return ip_extractor(n)
    m = int(rng.integers(1, n + 1))
    fam = FAMILIES["field" if rng.random() < 0.5 else "shift"](n, m)
    if pick == 0:
        return deor_extractor(fam)
    return ComponentExtractor(fam, index_to_bits(int(rng.integers(1, 1 << m)), m))


def assert_same_state(new: CqState, ref: CqState, label):
    assert new.side_dim == ref.side_dim, label
    assert sorted(new.blocks) == sorted(ref.blocks), label
    for key, block in ref.blocks.items():
        got = new.blocks[key]
        assert got.shape == block.shape and got.dtype == block.dtype, (label, key)
        assert got.tobytes() == block.tobytes(), (label, key)


def check_against_reference(ext, s1, s2, label):
    """Both builders and the distance agree bit for bit with the per-pair copies."""
    for strong_in in (None, "x1", "x2"):
        strong = strong_in is not None
        tag = (label, strong_in)
        new = extractor_output_state(ext, s1, s2, strong_in)
        ref = _ref_extractor_output_state(ext, s1, s2, strong_in)
        assert_same_state(new, ref, tag)
        assert distance_to_uniform(new, 1 << ext.m, strong) == \
            _ref_distance_to_uniform(ref, 1 << ext.m, strong), tag
        joint = product(s1, s2)
        assert_same_state(extractor_output_from_joint(ext, joint, strong_in),
                          _ref_extractor_output_from_joint(ext, joint, strong_in), tag)


# -- bitwise oracle ---------------------------------------------------------------

def test_output_states_match_per_pair_reference():
    rng = np.random.default_rng(404)
    dims = set()
    for i in range(60):
        n = int(rng.integers(1, 5))
        d1, d2 = (int(d) for d in rng.integers(1, 5, size=2))
        dims.update((d1, d2))
        ext = random_extractor(n, rng)
        pure = bool(rng.random() < 0.5)
        check_against_reference(ext, random_source(n, d1, rng, pure),
                                random_source(n, d2, rng, pure), f"case {i}")
    assert dims == {1, 2, 3, 4}


def test_markov_joint_output_matches_per_pair_reference():
    rng = np.random.default_rng(405)
    for i in range(20):
        n = int(rng.integers(1, 4))
        joint = markov_block_state(make_markov_scenario(
            n, int(rng.integers(2, 4)), seed=int(rng.integers(2 ** 31)),
            classical=bool(rng.random() < 0.5)))
        ext = random_extractor(n, rng)
        for strong_in in (None, "x1", "x2"):
            new = extractor_output_from_joint(ext, joint, strong_in)
            ref = _ref_extractor_output_from_joint(ext, joint, strong_in)
            assert_same_state(new, ref, (i, strong_in))
            strong = strong_in is not None
            assert distance_to_uniform(new, 1 << ext.m, strong) == \
                _ref_distance_to_uniform(ref, 1 << ext.m, strong), (i, strong_in)


def test_distance_matches_reference_on_sparse_outputs():
    # Output alphabets with missing z (weight-zero symbols) and uneven groups.
    rng = np.random.default_rng(406)
    for i in range(40):
        m = int(rng.integers(1, 4))
        dim = int(rng.integers(1, 5))
        zs = all_bit_vectors(m)
        rests = [(0,), (1,)]
        blocks = {}
        for z in zs:
            for rest in rests:
                if rng.random() < 0.6:
                    blocks[(z, rest)] = random_density(dim, rng) * float(rng.random()) \
                        if dim > 1 else np.array([[rng.random()]], dtype=complex)
        if not blocks:
            continue
        state = CqState(side_dim=dim, blocks=blocks)
        assert distance_to_uniform(state, 1 << m, strong=True) == \
            _ref_distance_to_uniform(state, 1 << m, strong=True), i
        weak = CqState(side_dim=dim, blocks={bits_to_index(z) * 2 + r[0]: b
                                             for (z, r), b in blocks.items()})
        assert distance_to_uniform(weak, 2 << m) == _ref_distance_to_uniform(weak, 2 << m), i


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 4),
       d1=st.integers(1, 4), d2=st.integers(1, 4), pure=st.booleans())
def test_output_state_property_matches_reference(seed, n, d1, d2, pure):
    rng = np.random.default_rng(seed)
    ext = random_extractor(n, rng)
    check_against_reference(ext, random_source(n, d1, rng, pure),
                            random_source(n, d2, rng, pure), seed)


# -- counted flat grids -----------------------------------------------------------

def flat_grid_extractors(n_max: int):
    """deor over both families at every m, and ip, for n = 1..n_max."""
    for n in range(1, n_max + 1):
        for kind in sorted(FAMILIES):
            for m in range(1, n + 1):
                yield deor_extractor(FAMILIES[kind](n, m))
        yield ip_extractor(n)


def test_counted_flat_grids_match_cq_route():
    # _flat_grid counts classical grids; the cq-state route is the oracle.
    pairs = 0
    for ext in flat_grid_extractors(5):
        for side in CLASSICAL_SIDES:
            [(states, _)] = answered(_flat_sources([(ext.n, side)])).values()
            for strong_in in ("x1", "x2"):
                grid = _flat_grid(ext, side, states, strong_in)
                assert [len(row) for row in grid] == [ext.n + 1] * (ext.n + 1)
                for (k1, s1), (k2, s2) in itertools.product(enumerate(states), repeat=2):
                    out = extractor_output_state(ext, s1, s2, strong_in)
                    ref = distance_to_uniform(out, 1 << ext.m, strong=True)
                    delta = grid[k1][k2]
                    assert type(delta) is float and delta == ref, \
                        (ext.family, side, strong_in, k1, k2)
                    pairs += 1
    assert pairs == 3160


def _enumerated_flat_distance(ext, k1: int, k2: int, leak, strong_in) -> Fraction:
    """Strong distance to uniform of two prefix-flat sources, summed over input pairs."""
    n, m = ext.n, ext.m
    joint = Counter()       # (z, copied x, c1, c2) -> probability
    for i1 in range(1 << k1):
        for i2 in range(1 << k2):
            x1, x2 = index_to_bits(i1, n), index_to_bits(i2, n)
            copied = x1 if strong_in == "x1" else x2
            joint[ext(x1, x2), copied, leak(x1), leak(x2)] += Fraction(1, 1 << (k1 + k2))
    rest = Counter()
    for (_, *key), p in joint.items():
        rest[tuple(key)] += p
    return sum(abs(joint[(z, *key)] - p / (1 << m))
               for key, p in rest.items() for z in all_bit_vectors(m)) / 2


def test_counted_flat_grids_match_fraction_enumeration():
    leaks = {"trivial": lambda x: 0, "classical_leak": LEAKS["parity"]}
    for ext in flat_grid_extractors(3):
        n, m = ext.n, ext.m
        for side, leak in leaks.items():
            labels = np.array([leak(x) for x in all_bit_vectors(n)])
            for strong_in in ("x1", "x2"):
                grid = flat_grid_distances(ext.table, m, labels, strong_in)
                for k1 in range(n + 1):
                    for k2 in range(n + 1):
                        scale = 1 << (k1 + k2 + m + 1)
                        counted = Fraction(float(grid[k1, k2])) * scale
                        exact = _enumerated_flat_distance(ext, k1, k2, leak, strong_in) * scale
                        assert counted.denominator == 1 and counted == exact, \
                            (ext.family, side, strong_in, k1, k2)


def test_counted_flat_grids_widen_compact_tables():
    # m = 8 fills a uint8 table, so table·d + label would wrap at d = 2
    # unless each slice is widened first.
    table = deor_extractor(build_field_family(8, 8)).table
    assert table.dtype == np.uint8
    labels = np.array([LEAKS["parity"](x) for x in all_bit_vectors(8)])
    for strong_in in ("x1", "x2"):
        assert np.array_equal(flat_grid_distances(table, 8, labels, strong_in),
                              flat_grid_distances(table.astype(np.int64), 8, labels, strong_in))


def test_flat_grid_distances_refuses_bad_input():
    table = ip_extractor(2).table
    labels = np.zeros(4, dtype=np.int64)
    with pytest.raises(ValueError, match="strong_in"):
        flat_grid_distances(table, 1, labels, None)
    with pytest.raises(ValueError, match="side labels"):
        flat_grid_distances(table, 1, labels[:2], "x1")
    with pytest.raises(ValueError, match="1-bit output"):
        flat_grid_distances(table + 1, 1, labels, "x2")


def test_quantum_side_flat_grids_take_the_product_route(monkeypatch):
    # One strong product_distances call per grid, never the counting route; the
    # cq-state route is the oracle of each grid entry.
    monkeypatch.setattr(checks, "flat_grid_distances", None)    # classical grids only
    grids, kernel = [], checks.product_distances
    monkeypatch.setattr(checks, "product_distances",
                        lambda pairs, strong_in: grids.append((pairs, strong_in))
                        or kernel(pairs, strong_in))
    params = {"ns": [3], "sides": ["bb84", "random_pure"]}
    flat = run_check("b1-exhaustive-flat", {"params": params})
    ip = run_check("ip-classical", {"params": {"ns": [3], "sides": params["sides"]}})
    assert len(flat) == 2 * 2 * 2 * 16 and len(ip) == 2 * 16
    assert all(r.passed for r in flat + ip)
    assert len(grids) == 2 * 2 * 2 + 2
    assert {strong_in for _, strong_in in grids} == {"x1"}
    for pairs, strong_in in grids[::3]:
        got = kernel(pairs, strong_in)
        for (ext, s1, s2), delta in zip(pairs, got.tolist()):
            out = extractor_output_state(ext, s1, s2, strong_in)
            assert abs(delta - distance_to_uniform(out, 1 << ext.m, strong=True)) <= 1e-14
