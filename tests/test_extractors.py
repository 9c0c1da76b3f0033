import numpy as np
import pytest

from conftest import distance_to_uniform, extractor_output_state

from extraction_lab.cq_states import classical_state
from extraction_lab.extractors import (
    deor_eval,
    deor_extractor,
    ip_eval,
    ip_extractor,
    s_component,
)
from extraction_lab.gf2 import (
    MatrixFamily,
    a_s,
    all_bit_vectors,
    build_field_family,
    build_shift_family,
    gf2_matvec,
    index_to_bits,
    parse_bits,
)


def test_ip_eval():
    assert ip_eval((0, 0, 0), (1, 1, 0)) == 0
    assert ip_eval(parse_bits("101"), parse_bits("110")) == 1
    with pytest.raises(ValueError):
        ip_eval((0, 1), (0, 1, 0))


def test_ip_bilinearity(rng):
    n = 5
    for _ in range(50):
        x, y, yp = (tuple(int(v) for v in rng.integers(0, 2, n)) for _ in range(3))
        xor = tuple(a ^ b for a, b in zip(y, yp))
        assert ip_eval(x, xor) == ip_eval(x, y) ^ ip_eval(x, yp)


def test_deor_eval_examples():
    fam = build_field_family(3, 2)
    assert deor_eval(fam, (0, 0, 0), (1, 1, 1)) == (0, 0)
    assert deor_eval(fam, parse_bits("100"), parse_bits("010")) == (0, 1)
    with pytest.raises(ValueError):
        deor_eval(fam, (1, 0), (0, 1, 0))


def test_deor_componentwise_identity(rng):
    fam = build_shift_family(4, 3)
    for _ in range(100):
        x = tuple(int(v) for v in rng.integers(0, 2, 4))
        y = tuple(int(v) for v in rng.integers(0, 2, 4))
        out = deor_eval(fam, x, y)
        for i, mat in enumerate(fam.matrices):
            assert out[i] == ip_eval(gf2_matvec(mat, x), y)


def test_deor_bilinear(rng):
    fam = build_field_family(4, 2)
    for _ in range(50):
        x, xp, y = (tuple(int(v) for v in rng.integers(0, 2, 4)) for _ in range(3))
        xor_x = tuple(a ^ b for a, b in zip(x, xp))
        lhs = deor_eval(fam, xor_x, y)
        rhs = tuple(a ^ b for a, b in zip(deor_eval(fam, x, y), deor_eval(fam, xp, y)))
        assert lhs == rhs


def test_s_component_identity_exhaustive():
    # e(x, y) = IP(x, A_s^T y) for every input pair and every nonzero s.
    for fam in (build_field_family(3, 2), build_shift_family(4, 2)):
        n, m = fam.n, fam.m
        for s_idx in range(1, 1 << m):
            s = index_to_bits(s_idx, m)
            comp = s_component(fam, s)
            ast = a_s(fam, s).T
            for xi in range(1 << n):
                for yi in range(1 << n):
                    x, y = index_to_bits(xi, n), index_to_bits(yi, n)
                    assert comp(x, y)[0] == ip_eval(x, gf2_matvec(ast, y))


def test_s_component_linearity_in_s():
    fam = build_field_family(3, 3)
    for s_idx in range(1, 8):
        for t_idx in range(1, 8):
            if s_idx == t_idx:
                continue
            s, t = index_to_bits(s_idx, 3), index_to_bits(t_idx, 3)
            xor = tuple(a ^ b for a, b in zip(s, t))
            es, et = s_component(fam, s), s_component(fam, t)
            for xi in range(8):
                for yi in range(8):
                    x, y = index_to_bits(xi, 3), index_to_bits(yi, 3)
                    want = es(x, y)[0] ^ et(x, y)[0]
                    if any(xor):
                        assert s_component(fam, xor)(x, y)[0] == want
                    else:
                        assert want == 0


def test_s_component_m1_is_deor():
    fam = build_field_family(3, 1)
    comp = s_component(fam, (1,))
    for xi in range(8):
        for yi in range(8):
            x, y = index_to_bits(xi, 3), index_to_bits(yi, 3)
            assert comp(x, y) == deor_eval(fam, x, y)
    with pytest.raises(ValueError):
        s_component(fam, (0,))


def test_s_component_refuses_non_bit_selector():
    # s = (2, 1) used to be accepted; its table and its __call__ disagreed
    # with IP(A_s x, y) on 28 of the 64 input pairs.
    with pytest.raises(ValueError, match="not a bit vector"):
        s_component(build_field_family(3, 2), (2, 1))


@pytest.mark.parametrize("evaluate", [
    lambda: ip_eval((2, 1), (1, 1)),
    lambda: ip_eval((1, 1), (1, -1)),
    lambda: gf2_matvec(np.eye(2, dtype=np.uint8), (2, 1)),
    lambda: deor_eval(build_field_family(2, 1), (2, 1), (1, 1)),
    lambda: ip_extractor(2)((2, 1), (1, 1)),
    lambda: s_component(build_field_family(2, 2), (1, 1))((1, 1), (0, 3)),
])
def test_pair_evaluators_refuse_non_bits(evaluate):
    # These used to mask (2, 1) to (0, 1): ip_eval((2, 1), (1, 1)) was 1.
    with pytest.raises(ValueError, match="not a bit vector: entry (2|3|-1) is not 0 or 1"):
        evaluate()


def test_extractor_spec_validation():
    fam = build_field_family(3, 2)
    assert deor_extractor(fam).family.r == 0
    assert ip_extractor(3)((1, 0, 1), (1, 1, 0)) == (1,)


def test_strongness_symmetry_under_transposition():
    # X2-strong error of the family equals the X1-strong error of the
    # transposed family with the two sources exchanged.
    for fam in (build_field_family(3, 2), build_shift_family(4, 2)):
        ext = deor_extractor(fam)
        text = deor_extractor(MatrixFamily(tuple(a.T for a in fam.matrices)))
        n = fam.n
        uni = classical_state({b: 1.0 / (1 << n) for b in all_bit_vectors(n)})
        lo = classical_state({b: 1.0 / (1 << (n - 1))
                              for b in all_bit_vectors(n)[: 1 << (n - 1)]})
        d_x2 = distance_to_uniform(
            extractor_output_state(ext, lo, uni, "x2"), 1 << fam.m, strong=True)
        d_x1_t = distance_to_uniform(
            extractor_output_state(text, uni, lo, "x1"), 1 << fam.m, strong=True)
        assert abs(d_x2 - d_x1_t) < 1e-12
