import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    conditional_mutual_information,
    dense_cq,
    distance_to_uniform,
    extractor_output_from_joint,
    extractor_output_state,
    product,
    random_cq_state,
    random_densities,
    trace_distance,
)

from extraction_lab.cq_states import (
    CqState,
    MarkovScenario,
    apply_classical_function,
    _traces,
    build_cq,
    check_blocks,
    check_unit_traces,
    classical_state,
    markov_block_state,
    marginal_side,
    padded_stacks,
)
from extraction_lab.extractors import deor_extractor, ip_extractor
from extraction_lab.gf2 import all_bit_vectors, build_field_family, build_shift_family
from extraction_lab.operators import partial_trace

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
KETPLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def bb84_state():
    return build_cq({(0,): 0.5, (1,): 0.5}, {(0,): KET0, (1,): KETPLUS})


def test_build_cq_validation():
    with pytest.raises(ValueError, match="sums to"):
        build_cq({(0,): 0.6, (1,): 0.6}, {(0,): KET0, (1,): KET0})
    with pytest.raises(ValueError, match="not normalized"):
        build_cq({(0,): 1.0}, {(0,): 2 * KET0})
    with pytest.raises(ValueError, match=r"block for \(0,\) has shape \(\)"):
        build_cq({(0,): 1.0}, {(0,): 1.0})
    bad = np.array([[1.0, 2.0], [2.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="not PSD"):
        CqState(side_dim=2, blocks={(0,): bad})


def test_point_mass_and_uniform():
    point = classical_state({(1, 0): 1.0})
    assert point.symbols() == [(1, 0)]
    uni = classical_state({b: 0.25 for b in all_bit_vectors(2)})
    assert abs(uni.total_trace() - 1.0) < 1e-12
    assert uni.probabilities()[(0, 1)] == 0.25


def test_marginal_side():
    st = bb84_state()
    assert np.allclose(marginal_side(st), 0.5 * (KET0 + KETPLUS))
    assert np.allclose(marginal_side(classical_state({(0,): 1.0})), [[1.0]])


def test_apply_classical_function():
    uni = classical_state({b: 0.25 for b in all_bit_vectors(2)})
    same = apply_classical_function(uni, lambda s: s)
    assert same.probabilities() == uni.probabilities()
    const = apply_classical_function(uni, lambda s: (0,))
    assert const.probabilities() == {(0,): 1.0}
    parity = apply_classical_function(uni, lambda s: (sum(s) & 1,))
    assert parity.probabilities() == {(0,): 0.5, (1,): 0.5}


def test_apply_function_commutes_with_marginal(rng):
    st = random_cq_state(2, 3, rng)
    mapped = apply_classical_function(st, lambda s: (s[0],))
    assert np.allclose(marginal_side(mapped), marginal_side(st))


def test_product_probabilities(rng):
    s1 = random_cq_state(2, 2, rng)
    s2 = random_cq_state(1, 3, rng)
    joint = product(s1, s2)
    assert joint.side_dim == 6
    p1, p2 = s1.probabilities(), s2.probabilities()
    for (a, b), p in joint.probabilities().items():
        assert abs(p - p1[a] * p2[b]) < 1e-12


def test_product_marginalization_recovers_factor(rng):
    s1 = random_cq_state(1, 2, rng)
    s2 = random_cq_state(1, 2, rng)
    joint = product(s1, s2)
    first = apply_classical_function(joint, lambda s: s[0])
    for sym in first.symbols():
        reduced = partial_trace(first.blocks[sym], (2, 2), keep=(0,))
        assert np.allclose(reduced, s1.blocks[sym], atol=1e-12)


def test_markov_single_block_is_product(rng):
    s1 = random_cq_state(1, 2, rng)
    s2 = random_cq_state(2, 2, rng)
    scn = MarkovScenario(weights=(1.0,), factors=((s1, s2),))
    assert_same = markov_block_state(scn)
    ref = product(s1, s2)
    assert assert_same.side_dim == ref.side_dim
    for sym in ref.symbols():
        assert np.allclose(assert_same.blocks[sym], ref.blocks[sym])


def test_markov_block_state_has_zero_cmi(rng):
    for _ in range(5):
        scn = MarkovScenario(
            weights=(0.3, 0.7),
            factors=((random_cq_state(1, 2, rng), random_cq_state(1, 2, rng)),
                     (random_cq_state(1, 2, rng), random_cq_state(1, 2, rng))),
        )
        joint = markov_block_state(scn)
        symbols = [(a, b) for a in all_bit_vectors(1) for b in all_bit_vectors(1)]
        dense = dense_cq(joint, symbols)
        cmi = conditional_mutual_information(dense, (2, 2, joint.side_dim))
        assert abs(cmi) <= 1e-9


def test_markov_weight_validation(rng):
    s = random_cq_state(1, 1, rng)
    with pytest.raises(ValueError):
        MarkovScenario(weights=(0.5, 0.2), factors=((s, s), (s, s)))
    with pytest.raises(ValueError):
        MarkovScenario(weights=(), factors=())


def test_extractor_output_point_mass():
    fam = build_field_family(3, 2)
    ext = deor_extractor(fam)
    x1, x2 = (1, 0, 0), (0, 1, 0)
    s1, s2 = classical_state({x1: 1.0}), classical_state({x2: 1.0})
    out = extractor_output_state(ext, s1, s2, "x1")
    assert out.symbols() == [(ext(x1, x2), x1)]
    weak = extractor_output_state(ext, s1, s2, None)
    assert weak.symbols() == [ext(x1, x2)]


def test_extractor_output_anchor_value():
    # Uniform 4-bit sources, trivial side info, single-bit field family:
    # only x1 = 0000 contributes, delta = (1/16) * (1/2) = 1/32.
    fam = build_field_family(4, 1)
    ext = deor_extractor(fam)
    uni = classical_state({b: 1 / 16 for b in all_bit_vectors(4)})
    out = extractor_output_state(ext, uni, uni, "x1")
    delta = distance_to_uniform(out, 2, strong=True)
    assert abs(delta - 1 / 32) < 1e-12


def test_weak_output_matches_brute_force(rng):
    fam = build_field_family(3, 2)
    ext = deor_extractor(fam)
    s1 = random_cq_state(3, 1, rng)
    s2 = random_cq_state(3, 1, rng)
    out = extractor_output_state(ext, s1, s2, None)
    brute = {}
    p1, p2 = s1.probabilities(), s2.probabilities()
    for a, pa in p1.items():
        for b, pb in p2.items():
            z = ext(a, b)
            brute[z] = brute.get(z, 0.0) + pa * pb
    got = out.probabilities()
    assert set(got) == set(brute)
    for z, p in brute.items():
        assert abs(got[z] - p) < 1e-12


def test_output_from_joint_matches_pair_version(rng):
    fam = build_field_family(3, 1)
    ext = deor_extractor(fam)
    s1 = random_cq_state(3, 2, rng)
    s2 = random_cq_state(3, 1, rng)
    direct = extractor_output_state(ext, s1, s2, "x1")
    via_joint = extractor_output_from_joint(ext, product(s1, s2), "x1")
    assert set(direct.blocks) == set(via_joint.blocks)
    for key in direct.blocks:
        assert np.allclose(direct.blocks[key], via_joint.blocks[key], atol=1e-12)


def test_distance_trivial_cases():
    uni = classical_state({b: 0.25 for b in all_bit_vectors(2)})
    out = apply_classical_function(uni, lambda s: (s[0],))
    assert distance_to_uniform(out, 2) < 1e-12
    det = classical_state({(0,): 1.0})
    assert abs(distance_to_uniform(det, 2) - 0.5) < 1e-12
    # Missing output symbols count with their uniform target weight.
    half = classical_state({(0, 0): 1.0})
    assert abs(distance_to_uniform(half, 4) - 0.75) < 1e-12


def test_distance_rejects_more_symbols_than_uniform_dim():
    uni = classical_state({b: 0.25 for b in all_bit_vectors(2)})
    assert distance_to_uniform(uni, 4) < 1e-12
    with pytest.raises(ValueError, match="exceed uniform_dim"):
        distance_to_uniform(uni, 2)
    strong = apply_classical_function(uni, lambda s: (s, (0,)))
    with pytest.raises(ValueError, match="exceed uniform_dim"):
        distance_to_uniform(strong, 2, strong=True)


def test_blockwise_distance_equals_dense(rng):
    fam = build_field_family(3, 2)
    ext = deor_extractor(fam)
    for strong in (False, True):
        s1 = random_cq_state(3, 2, rng)
        s2 = random_cq_state(3, 2, rng)
        out = extractor_output_state(ext, s1, s2, "x1" if strong else None)
        blockwise = distance_to_uniform(out, 4, strong=strong)
        # Dense oracle: materialize the state and the uniform target over
        # the union alphabet and take the plain trace distance.
        if strong:
            rests = sorted({k[1] for k in out.blocks})
            keys = [(z, x) for z in all_bit_vectors(2) for x in rests]
            target = {}
            for x in rests:
                tot = sum(out.blocks.get((z, x), 0) for z in all_bit_vectors(2))
                for z in all_bit_vectors(2):
                    target[(z, x)] = tot / 4
        else:
            keys = all_bit_vectors(2)
            tot = sum(out.blocks.values())
            target = {z: tot / 4 for z in keys}
        dense_state = dense_cq(out, keys)
        dense_target = dense_cq(CqState(side_dim=out.side_dim, blocks=target), keys)
        oracle = trace_distance(dense_state, dense_target)
        assert abs(blockwise - oracle) < 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 3), d1=st.integers(1, 3),
       d2=st.integers(1, 3), shift=st.booleans())
def test_joint_output_of_a_product_matches_product_output(seed, n, d1, d2, shift):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, n + 1))
    ext = deor_extractor((build_shift_family if shift else build_field_family)(n, m))
    s1, s2 = random_cq_state(n, d1, rng), random_cq_state(n, d2, rng)
    joint = product(s1, s2)
    for strong_in in (None, "x1", "x2"):
        direct = extractor_output_state(ext, s1, s2, strong_in)
        via_joint = extractor_output_from_joint(ext, joint, strong_in)
        assert via_joint.symbols() == direct.symbols(), strong_in
        assert np.abs(via_joint.stack - direct.stack).max() <= 1e-12, strong_in


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 3), rest_bits=st.integers(0, 2),
       dim=st.integers(1, 3))
def test_distance_to_uniform_matches_dense_trace_distance(seed, m, rest_bits, dim):
    # A weak state (rest_bits = 0) has m-bit symbols z; a strong one has
    # (z, x) symbols.  The oracle is half the trace norm (an SVD) of the
    # dense rho minus omega (x) rho_rest over every (z, x) that occurs.
    rng = np.random.default_rng(seed)
    state = random_cq_state(m + rest_bits, dim, rng)
    strong = rest_bits > 0
    if strong:
        state = apply_classical_function(state, lambda sym: (sym[:m], sym[m:]))
    zs = all_bit_vectors(m)
    rests = sorted({sym[1] for sym in state.symbols()}) if strong else [None]
    target = {}
    for x in rests:
        mass = sum(block for sym, block in state.blocks.items() if not strong or sym[1] == x)
        for z in zs:
            target[(z, x) if strong else z] = mass / len(zs)
    keys = sorted(target)
    dense_target = dense_cq(CqState(side_dim=dim, blocks=target), keys)
    oracle = 0.5 * np.linalg.svd(dense_cq(state, keys) - dense_target, compute_uv=False).sum()
    assert abs(distance_to_uniform(state, 1 << m, strong=strong) - oracle) <= 1e-11


def test_strong_distance_equals_expectation_form(rng):
    fam = build_field_family(3, 1)
    ext = deor_extractor(fam)
    s1 = random_cq_state(3, 1, rng)
    s2 = random_cq_state(3, 2, rng)
    out = extractor_output_state(ext, s1, s2, "x1")
    blockwise = distance_to_uniform(out, 2, strong=True)
    # E_{x1}[ delta(rho_{Ext(x1, X2) C2}, omega (x) rho_{C2}) ]
    rho_c2 = marginal_side(s2)
    expectation = 0.0
    for x1, p in s1.probabilities().items():
        per_z = {}
        for x2 in s2.symbols():
            z = ext(x1, x2)
            per_z[z] = per_z.get(z, 0) + s2.blocks[x2]
        cond = CqState(side_dim=2, blocks=per_z)
        expectation += p * distance_to_uniform(cond, 2)
    assert abs(blockwise - expectation) < 1e-9


def test_extractor_output_rejects_bad_alphabet(rng):
    ext = ip_extractor(3)
    s1 = random_cq_state(2, 1, rng)
    s2 = random_cq_state(3, 1, rng)
    with pytest.raises(ValueError):
        extractor_output_state(ext, s1, s2, None)
    with pytest.raises(ValueError):
        extractor_output_state(ext, s2, s2, "x3")


def test_extractor_output_rejects_non_binary_symbols():
    # An entry outside {0, 1} used to pass the length check and give a
    # distance (0.75 here) with no error.
    ext = deor_extractor(build_field_family(3, 2))
    bad = classical_state({(0, 2, 1): 0.5, (1, 0, 0): 0.5})
    good = classical_state({(0, 1, 1): 0.5, (1, 0, 0): 0.5})
    for strong_in in (None, "x1", "x2"):
        with pytest.raises(ValueError, match=r"\(0, 2, 1\) is not an 3-bit string"):
            extractor_output_state(ext, bad, good, strong_in)
        with pytest.raises(ValueError, match="source 2 alphabet"):
            extractor_output_state(ext, good, bad, strong_in)


def test_validate_cq_names_the_offending_block():
    good = np.eye(2, dtype=complex) / 4
    skew = np.array([[0.25, 0.1], [0.0, 0.25]], dtype=complex)
    neg = np.diag([0.75, -0.25]).astype(complex)
    nan = np.full((2, 2), np.nan, dtype=complex)
    # Every block check runs when the state is built.
    for bad, match in ((skew, "not Hermitian"), (neg, "not PSD"), (nan, "non-finite"),
                       (np.eye(3) / 6, "shape")):
        with pytest.raises(ValueError, match=rf"\(1,\).*{match}|{match}.*\(1,\)"):
            CqState(side_dim=2, blocks={(0,): good, (1,): bad, (2,): good})
    # A subnormalized state is a CqState; build_cq is what requires unit trace.
    assert CqState(side_dim=2, blocks={(0,): good}).total_trace() == 0.5
    assert CqState(side_dim=2, blocks={}).total_trace() == 0.0
    # Weights and conditionals each within TRACE_ATOL of 1, the total not.
    loose = (1 + 9e-10) * KET0
    with pytest.raises(ValueError, match="cq-state is not normalized"):
        build_cq({(0,): 0.5 + 6e-10, (1,): 0.5}, {(0,): loose, (1,): loose})


# Three 2-bit states on a two-dimensional side register: their slots, and the
# middle state's block at slot 2, symbol (1, 0), is the one made bad below.
GROUP_SLOTS = ([0, 3], [0, 2, 3], [1, 2])
BAD_STATE, BAD_SLOT = 1, 2


def _group_conditionals():
    rng = np.random.default_rng(11)
    return [random_densities(len(slots), 2, rng) for slots in GROUP_SLOTS]


def _group(conds):
    """The states' weighted blocks as a padded group, and each state as a CqState dict."""
    names = all_bit_vectors(2)
    drawn, dicts = [], []
    for slots, stack in zip(GROUP_SLOTS, conds):
        blocks = stack / len(slots)
        drawn.append((blocks, np.array(slots)))
        dicts.append({names[j]: block for j, block in zip(slots, blocks)})
    padded, present = padded_stacks(drawn, 4)
    return padded, present, names, dicts


def _message(call) -> str:
    with pytest.raises(ValueError) as err:
        call()
    return str(err.value)


def test_check_blocks_accepts_a_padded_group_of_states():
    padded, present, names, _ = _group(_group_conditionals())
    check_blocks(padded, present, names, normalized=True)
    # Absent slots hold zeros; only present blocks reach the eigvalsh.
    assert present.sum() == 7 and not padded[~present].any()


@pytest.mark.parametrize("fault,match", [
    ("skew", r"^block for \(1, 0\) is not Hermitian"),
    ("nan", r"^block for \(1, 0\) has non-finite entries$"),
    ("negative", r"^conditional operator for \(1, 0\) is not PSD"),
])
def test_check_blocks_names_the_bad_block_in_the_middle_of_a_group(fault, match):
    conds = _group_conditionals()
    bad = conds[BAD_STATE][GROUP_SLOTS[BAD_STATE].index(BAD_SLOT)]
    if fault == "skew":
        bad[0, 1] += 1e-6
    elif fault == "nan":
        bad[1, 1] = np.nan
    else:
        bad[:] = np.diag([1.2, -0.2])
    padded, present, names, dicts = _group(conds)
    message = _message(lambda: check_blocks(padded, present, names, normalized=True))
    assert re.match(match, message)
    # The message CqState gives for the bad state on its own.
    assert message == _message(lambda: CqState(2, dicts[BAD_STATE]))


def test_check_blocks_names_the_bad_block_of_a_later_state_in_a_full_group():
    names = all_bit_vectors(2)
    stacks = random_densities(12, 2, np.random.default_rng(13)).reshape(3, 4, 2, 2) / 4
    present = np.ones((3, 4), dtype=bool)
    check_blocks(stacks, present, names, normalized=True)
    stacks[2, 1] = np.diag([0.3, -0.05])
    message = _message(lambda: check_blocks(stacks, present, names))
    assert re.match(r"^conditional operator for \(0, 1\) is not PSD", message)
    stacks[2, 1, 0, 1] += 1e-6
    message = _message(lambda: check_blocks(stacks, present, names))
    assert re.match(r"^block for \(0, 1\) is not Hermitian", message)


def test_check_blocks_refuses_a_group_with_one_state_not_normalized():
    conds = _group_conditionals()
    conds[BAD_STATE][0] *= 1.5
    padded, present, names, _ = _group(conds)
    # build_cq's message; CqState, which allows a subnormalized state, does not test it.
    message = _message(lambda: check_blocks(padded, present, names, normalized=True))
    assert message == "cq-state is not normalized (trace 1.16667)"
    check_blocks(padded, present, names)


def test_check_unit_traces_names_the_first_bad_conditional():
    conds = random_densities(5, 3, np.random.default_rng(12))
    names = [(1, 1), (0, 1), (1, 0), (0, 0), (0, 1, 1)]
    check_unit_traces(_traces(conds), "conditional state for", names)
    conds[2] *= 2.0
    conds[4] *= 3.0
    message = _message(lambda: check_unit_traces(_traces(conds), "conditional state for",
                                                 names))
    assert message == "conditional state for (1, 0) is not normalized (trace 2)"
    # build_cq runs the same stacked test, naming the first bad symbol in dist
    # order, which is not the sorted order of its blocks.
    dist = dict(zip(names[:4], (0.25,) * 4))
    conds_of = dict(zip(names[:4], conds))
    assert message == _message(lambda: build_cq(dist, conds_of))
    conds_of[(0, 0)] = 2 * conds_of[(0, 0)]
    assert message == _message(lambda: build_cq(dist, conds_of))
