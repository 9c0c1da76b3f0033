import itertools

import numpy as np
import pytest

from extraction_lab.gf2 import (
    MatrixFamily,
    a_s,
    all_bit_vectors,
    bits_to_index,
    build_field_family,
    build_shift_family,
    default_polynomial,
    dump_family,
    family_rank_parameter,
    format_bits,
    format_poly,
    gf2_images,
    gf2_matmul,
    gf2_matvec,
    gf2_rank,
    index_to_bits,
    load_family,
    parse_bits,
    parse_poly,
    poly_is_irreducible,
    poly_mod,
)


def test_bits_roundtrip():
    assert parse_bits("101") == (1, 0, 1)
    assert format_bits((1, 0, 1)) == "101"
    for n in (1, 3, 5):
        for i in range(1 << n):
            assert bits_to_index(index_to_bits(i, n)) == i
    with pytest.raises(ValueError):
        parse_bits("10a")
    with pytest.raises(ValueError):
        parse_bits("")


def test_bit_codec_refuses_non_bits():
    # An entry 2 used to be masked to 0: (0, 2, 1) encoded as 1.
    with pytest.raises(ValueError, match=r"\(0, 2, 1\) is not a bit vector"):
        bits_to_index((0, 2, 1))
    # a_s read the selector (2, 1) as (1, 1), while bits_to_index read it as (0, 1).
    with pytest.raises(ValueError, match="not a bit vector"):
        a_s(build_field_family(3, 2), (2, 1))


def test_rank_examples():
    assert gf2_rank(np.eye(3, dtype=np.uint8)) == 3
    assert gf2_rank(np.zeros((3, 3), dtype=np.uint8)) == 0
    assert gf2_rank([[1, 1], [1, 1]]) == 1


def span_rank(mat):
    # Oracle: rank = log2 of the number of distinct row-span elements.
    rows = [bits_to_index(tuple(int(v) for v in row)) for row in np.atleast_2d(mat)]
    span = {0}
    for r in rows:
        span |= {s ^ r for s in span}
    return len(span).bit_length() - 1


def test_rank_against_span_oracle(rng):
    for _ in range(100):
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        mat = rng.integers(0, 2, size=(rows, cols)).astype(np.uint8)
        assert gf2_rank(mat) == span_rank(mat)


def test_rank_transpose_invariant(rng):
    for _ in range(100):
        mat = rng.integers(0, 2, size=(int(rng.integers(1, 7)), int(rng.integers(1, 7))))
        assert gf2_rank(mat) == gf2_rank(mat.T)


def test_matvec():
    assert gf2_matvec(np.eye(3, dtype=np.uint8), (1, 0, 1)) == (1, 0, 1)
    assert gf2_matvec(np.zeros((3, 3), dtype=np.uint8), (1, 1, 1)) == (0, 0, 0)
    assert gf2_matvec([[0, 1], [1, 1]], (1, 1)) == (1, 0)
    with pytest.raises(ValueError):
        gf2_matvec(np.eye(2, dtype=np.uint8), (1, 0, 1))


def test_a_s_trivial_cases():
    fam = build_field_family(3, 2)
    assert not a_s(fam, (0, 0)).any()
    assert np.array_equal(a_s(fam, (1, 0)), fam.matrices[0])
    with pytest.raises(ValueError):
        a_s(fam, (1, 0, 1))


def poly_mulmod(a, b, mod):
    # Shift-and-add product of two coefficient masks, reduced mod ``mod``.
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a = poly_mod(a << 1, mod)
    return poly_mod(out, mod)


def field_element_mult_matrix(elem, poly, n):
    # Oracle built directly from field arithmetic on coefficient masks.
    cols = []
    for j in range(n):
        img = poly_mulmod(elem, 1 << j, poly)
        cols.append([(img >> i) & 1 for i in range(n)])
    return np.array(cols, dtype=np.uint8).T


def test_a_s_field_oracle():
    poly = parse_poly("1011")
    fam = build_field_family(3, 2, poly)
    # s = 11 selects multiplication by 1 + x.
    expected = field_element_mult_matrix(0b011, poly, 3)
    assert np.array_equal(a_s(fam, (1, 1)), expected)
    # A_2 maps basis (1, x, x^2) to (x, x^2, x + 1).
    a2 = fam.matrices[1]
    assert np.array_equal(a2 @ np.array([1, 0, 0]) % 2, [0, 1, 0])
    assert np.array_equal(a2 @ np.array([0, 1, 0]) % 2, [0, 0, 1])
    assert np.array_equal(a2 @ np.array([0, 0, 1]) % 2, [1, 1, 0])


def test_field_family_is_powers_of_multiplication_by_x():
    cases = [(n, default_polynomial(n)) for n in range(1, 13)] + [(3, parse_poly("1101"))]
    for n, poly in cases:
        fam = build_field_family(n, n, poly)
        assert fam.r == 0 and fam.poly == poly
        for i, mat in enumerate(fam.matrices, start=1):
            assert mat.dtype == np.uint8
            assert np.array_equal(mat, field_element_mult_matrix(1 << (i - 1), poly, n))


def test_shift_family_is_powers_of_the_shift():
    # A_s = S^j (I + nilpotent) for the first selected index j, so r = m - 1 exactly.
    for n in range(1, 8):
        for m in range(1, n + 1):
            fam = build_shift_family(n, m)
            assert fam.r == m - 1 and fam.poly is None
            for i, mat in enumerate(fam.matrices, start=1):
                assert mat.dtype == np.uint8
                assert np.array_equal(mat, np.eye(n, k=-(i - 1)))


def test_a_s_linearity(rng):
    fam = build_field_family(4, 3)
    for _ in range(50):
        s = tuple(int(v) for v in rng.integers(0, 2, size=3))
        t = tuple(int(v) for v in rng.integers(0, 2, size=3))
        xor = tuple(a ^ b for a, b in zip(s, t))
        assert np.array_equal(a_s(fam, xor), a_s(fam, s) ^ a_s(fam, t))


def test_field_family_basics():
    fam = build_field_family(3, 1)
    assert np.array_equal(fam.matrices[0], np.eye(3, dtype=np.uint8))
    assert fam.r == 0
    with pytest.raises(ValueError):
        build_field_family(2, 3)
    with pytest.raises(ValueError):
        build_field_family(3, 2, parse_poly("1001"))  # x^3 + 1 is reducible


def test_field_family_always_invertible():
    for n, m in [(3, 3), (4, 4), (5, 3)]:
        fam = build_field_family(n, m)
        assert fam.r == 0
        assert family_rank_parameter(fam) == 0


def test_shift_family_deficiencies():
    assert build_shift_family(4, 1).r == 0
    assert build_shift_family(4, 2).r == 1
    assert build_shift_family(3, 3).r == 2
    with pytest.raises(ValueError):
        build_shift_family(2, 3)


def test_family_rank_parameter_matches_exhaustive():
    for fam in (build_field_family(4, 2), build_shift_family(5, 3)):
        worst = 0
        for s in all_bit_vectors(fam.m)[1:]:
            worst = max(worst, fam.n - gf2_rank(a_s(fam, s)))
        assert fam.r == worst == family_rank_parameter(fam)


def test_family_invariant_deficiency_bounded():
    for fam in (build_field_family(3, 3), build_shift_family(4, 2),
                build_shift_family(6, 4)):
        for s in all_bit_vectors(fam.m)[1:]:
            assert fam.n - gf2_rank(a_s(fam, s)) <= fam.r


def test_degenerate_family_rejected():
    eye = np.eye(2, dtype=np.uint8)
    with pytest.raises(ValueError, match="zero matrix for s=11"):
        MatrixFamily((eye, eye))  # A_11 = 0


def test_family_refuses_bad_matrices_when_built():
    eye = np.eye(2, dtype=np.uint8)
    with pytest.raises(ValueError, match=r"entries must be in \{0, 1\}"):
        MatrixFamily((eye, np.array([[0, 2], [1, 0]])))
    with pytest.raises(ValueError, match="must be 2x2"):
        MatrixFamily((eye, np.eye(3, dtype=np.uint8)))
    with pytest.raises(ValueError, match="must be 2x2"):
        MatrixFamily((np.ones((2, 3), dtype=np.uint8),))
    with pytest.raises(ValueError, match="at least one matrix"):
        MatrixFamily(())
    with pytest.raises(ValueError, match="too large"):
        MatrixFamily((np.ones((1, 1), dtype=np.uint8),) * 2)


# Entries that a cast to uint8 would truncate (0.5, 0.9), wrap (-1 to 255,
# 257 to 1 in the int64 array) or parse ("1"), each refused before the cast.
NOT_BITS = {
    "fraction": [[0.5, 1], [1, 0.9]],
    "negative": [[-1, 1], [1, 0]],
    "wraps-to-bit": np.array([[257, 0], [0, 1]]),
    "nan": [[float("nan"), 1], [1, 0]],
    "string": [["0", "1"], ["1", "0"]],
}


@pytest.mark.parametrize("entries", NOT_BITS.values(), ids=NOT_BITS)
@pytest.mark.parametrize("entry_point", [
    lambda a: MatrixFamily((a,)),
    gf2_rank,
    gf2_images,
], ids=["MatrixFamily", "gf2_rank", "gf2_images"])
def test_non_bit_entries_are_refused_before_the_cast(entries, entry_point):
    with pytest.raises(ValueError, match=r"entries must be in \{0, 1\}"):
        entry_point(entries)


def test_bit_valued_entries_of_any_numeric_dtype_are_accepted():
    swap = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    for entries in ([[0, 1], [1, 0]], [[0.0, 1.0], [1.0, 0.0]], swap.astype(bool),
                    swap.astype(np.int64)):
        fam = MatrixFamily((entries,))
        assert fam.matrices[0].dtype == np.uint8 and (fam.matrices[0] == swap).all()
        assert gf2_rank(entries) == 2
        assert gf2_images(entries).tolist() == [0, 2, 1, 3]


def test_family_reads_n_m_and_r_off_its_matrices():
    # build_shift_family(3, 2) used to be accepted with a declared r = 0.
    fam = MatrixFamily(build_shift_family(3, 2).matrices)
    assert (fam.n, fam.m, fam.r, fam.poly) == (3, 2, 1, None)
    field = build_field_family(4, 3)
    again = MatrixFamily([a.tolist() for a in field.matrices], field.poly)
    assert (again.n, again.m, again.r, again.poly) == (4, 3, 0, field.poly)
    assert all(np.array_equal(a, b) for a, b in zip(again.matrices, field.matrices))
    with pytest.raises(ValueError, match="read-only"):
        field.matrices[1][:] = 0      # would leave r = 0 on a family with A_2 = 0


def test_family_r_is_brute_force_max_deficiency():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 60:
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, min(3, (1 << n) - 1) + 1))
        matrices = tuple(rng.integers(0, 2, size=(n, n)).astype(np.uint8) for _ in range(m))
        combos = []
        for idx in range(1, 1 << m):
            acc = np.zeros((n, n), dtype=np.int64)
            for i in range(m):
                if idx >> (m - 1 - i) & 1:
                    acc = acc + matrices[i]
            combos.append(acc % 2)
        if any(not c.any() for c in combos):
            with pytest.raises(ValueError, match="zero matrix"):
                MatrixFamily(matrices)
            continue
        assert MatrixFamily(matrices).r == max(n - _brute_rank(c) for c in combos)
        checked += 1


def _brute_rank(mat):
    """GF(2) rank as the log2 of the number of distinct images M x over all x."""
    n = mat.shape[1]
    images = {tuple(mat @ np.array(x) % 2) for x in itertools.product((0, 1), repeat=n)}
    return len(images).bit_length() - 1


def test_default_polynomials():
    assert format_poly(default_polynomial(3)) == "1011"
    assert format_poly(default_polynomial(4)) == "10011"
    for n in range(1, 13):
        assert poly_is_irreducible(default_polynomial(n))


def test_transpose_family_preserves_r():
    fam = build_shift_family(4, 3)
    tfam = MatrixFamily(tuple(a.T for a in fam.matrices))
    assert tfam.r == fam.r == family_rank_parameter(tfam)
    assert np.array_equal(tfam.matrices[1], fam.matrices[1].T)


def test_matmul():
    a = np.array([[1, 1], [0, 1]], dtype=np.uint8)
    assert np.array_equal(gf2_matmul(a, a), np.eye(2, dtype=np.uint8))


def test_family_text_roundtrip(tmp_path):
    for fam in (build_field_family(4, 2), build_shift_family(3, 2)):
        text = dump_family(fam)
        back = load_family(text)
        assert back.n == fam.n and back.m == fam.m and back.r == fam.r
        assert all(np.array_equal(a, b) for a, b in zip(back.matrices, fam.matrices))


def test_family_text_rejects_corruption():
    fam = build_shift_family(3, 2)
    text = dump_family(fam)
    with pytest.raises(ValueError):
        load_family("")
    with pytest.raises(ValueError, match=r"declares n, m, r = \(3, 2, 0\)"):
        load_family(text.replace("3 2 1 -", "3 2 0 -"))  # wrong r
    with pytest.raises(ValueError, match=r"declares n, m, r = \(4, 2, 1\)"):
        load_family(text.replace("3 2 1 -", "4 2 1 -"))  # wrong n
    with pytest.raises(ValueError, match=r"declares n, m, r = \(3, 1, 1\)"):
        load_family(text.replace("3 2 1 -", "3 1 1 -"))  # wrong m
    with pytest.raises(ValueError):
        load_family(text.rsplit("\n", 2)[0])  # truncated rows
