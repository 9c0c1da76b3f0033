"""Bit-exact linear algebra over GF(2) and extractor matrix families.

Bit vectors are tuples of 0/1 ints in display order: the string "101"
parses to (1, 0, 1) and component i of a vector is ``bits[i]``.  Matrices
are dense numpy uint8 arrays with entries in {0, 1}; all arithmetic is
carried out exactly (XOR / mod-2), never in floating point.

:func:`bits_to_index` is the one bit codec (``_symbol_indices`` applies it
to an alphabet); it raises ValueError for any entry other than 0 or 1.

A matrix family is a set A_1..A_m of n x n GF(2) matrices whose nonzero
XOR-combinations A_s = sum_i s_i A_i all have rank >= n - r.  Both
built-in families are the powers A_i = G^(i-1) of one generator G: the
shift for the shift family, multiplication by x for the field family.
A family's n, m and r are read off its matrices: r is the exact maximum
deficiency, found by exhaustive enumeration over s when it is built.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

Bits = tuple[int, ...]

MAX_DIM = 64            # dense GF(2) algebra is desk scale only
MAX_ENUM_M = 20         # 2^m - 1 selector enumeration guard
MAX_TABLE_BITS = 22     # tables over every input index hold at most 2^22 entries


def parse_bits(s: str) -> Bits:
    """Parse a 0/1 string such as "101" into a bit tuple."""
    if not s or any(c not in "01" for c in s):
        raise ValueError(f"not a 0/1 string: {s!r}")
    return tuple(int(c) for c in s)


def format_bits(bits: Bits) -> str:
    return "".join(str(b) for b in bits)


def index_to_bits(index: int, n: int) -> Bits:
    """Inverse of bits_to_index: big-endian binary, left-padded to n bits."""
    if not 0 <= index < (1 << n):
        raise ValueError(f"index {index} out of range for {n} bits")
    return tuple((index >> (n - 1 - i)) & 1 for i in range(n))


def bits_to_index(bits: Bits) -> int:
    """Big-endian index of a bit vector; ValueError for any entry other than 0 or 1."""
    out = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"{bits!r} is not a bit vector: entry {b!r} is not 0 or 1")
        out = (out << 1) | int(b)
    return out


def _symbol_indices(symbols, n: int, which: str) -> np.ndarray:
    """Index of each n-bit symbol of an alphabet; ValueError naming any other symbol."""
    indices = []
    for sym in symbols:
        try:
            if not (isinstance(sym, tuple) and len(sym) == n):
                raise ValueError
            indices.append(bits_to_index(sym))
        except ValueError:
            raise ValueError(f"{which} alphabet symbol {sym!r} is not an {n}-bit string") from None
    return np.array(indices, dtype=np.int64)


def all_bit_vectors(n: int):
    """All n-bit vectors in ascending index order."""
    return [index_to_bits(i, n) for i in range(1 << n)]


def as_gf2_matrix(entries) -> np.ndarray:
    """A validated GF(2) matrix (2-D uint8 of 0/1); entries are checked before the cast."""
    m = np.asarray(entries)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if m.shape[0] > MAX_DIM or m.shape[1] > MAX_DIM:
        raise ValueError(f"matrix larger than {MAX_DIM}x{MAX_DIM} not supported")
    if m.dtype != np.uint8 and m.dtype.kind in "biuf" and np.all((m == 0) | (m == 1)):
        m = m.astype(np.uint8)
    if m.dtype != np.uint8 or np.any(m > 1):
        raise ValueError("matrix entries must be in {0, 1}")
    return m


def gf2_rank(m) -> int:
    """GF(2) rank by Gaussian elimination on bit-packed rows."""
    mat = as_gf2_matrix(m)
    pivots: dict[int, int] = {}
    rank = 0
    for row in mat.tolist():
        cur = bits_to_index(row)
        while cur:
            lead = cur.bit_length() - 1
            if lead in pivots:
                cur ^= pivots[lead]
            else:
                pivots[lead] = cur
                rank += 1
                break
    return rank


def gf2_matvec(m, x: Bits) -> Bits:
    """Matrix-vector product over GF(2): (M x) mod 2; ValueError naming a non-bit entry of x."""
    mat = as_gf2_matrix(m)
    if mat.shape[1] != len(x):
        raise ValueError(f"dimension mismatch: {mat.shape[1]} columns, {len(x)}-bit vector")
    bits_to_index(x)    # refuses a non-bit entry
    xs = np.asarray(x, dtype=np.uint8)
    return tuple(int(v) for v in (mat.astype(np.int64) @ xs) & 1)


def _bit_table(n: int) -> np.ndarray:
    """The (2^n, n) 0/1 array whose row i is index_to_bits(i, n)."""
    return (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1


def gf2_images(m) -> np.ndarray:
    """Index of M x for every input x at once, the matrix validated once.

    Entry i is bits_to_index(gf2_matvec(m, index_to_bits(i, columns))).
    """
    mat = as_gf2_matrix(m)
    rows, cols = mat.shape
    if max(rows, cols) > MAX_TABLE_BITS:
        raise ValueError(f"images of a {rows}x{cols} matrix over every input not supported "
                         f"(at most {MAX_TABLE_BITS} bits)")
    images = (_bit_table(cols) @ mat.T.astype(np.int64)) & 1
    return images @ (1 << np.arange(rows - 1, -1, -1))


def gf2_matmul(a, b) -> np.ndarray:
    am = as_gf2_matrix(a)
    bm = as_gf2_matrix(b)
    if am.shape[1] != bm.shape[0]:
        raise ValueError("dimension mismatch in GF(2) matrix product")
    return ((am.astype(np.int64) @ bm.astype(np.int64)) & 1).astype(np.uint8)


@dataclass(frozen=True)
class MatrixFamily:
    """A family A_1..A_m of n x n GF(2) matrices with exact deficiency r.

    Built as ``MatrixFamily(matrices, poly=None)``: each matrix goes
    through :func:`as_gf2_matrix` and is stored as a read-only copy, n and
    m are read off the matrices and r is :func:`family_rank_parameter` of
    them, so no deficiency can be declared.  ``poly`` is the defining polynomial (coefficient bitmask,
    bit i = coefficient of x^i) for families built from field
    multiplication, None otherwise.  ValueError for an empty, non-square
    or mixed-size tuple, for m > 2^n - 1 and for a zero combination A_s.
    """

    n: int = field(init=False)
    m: int = field(init=False)
    r: int = field(init=False)
    matrices: tuple[np.ndarray, ...] = field(repr=False)
    poly: int | None = None

    def __post_init__(self):
        matrices = tuple(as_gf2_matrix(a).copy() for a in self.matrices)
        if not matrices:
            raise ValueError("a family needs at least one matrix")
        n, m = matrices[0].shape[0], len(matrices)
        if any(a.shape != (n, n) for a in matrices):
            raise ValueError(f"every family matrix must be {n}x{n}")
        for a in matrices:
            a.setflags(write=False)       # r stays the deficiency of what is stored
        if m > (1 << n) - 1:
            raise ValueError(f"m={m} too large: at most 2^n - 1 distinct nonzero combinations")
        for name, value in (("matrices", matrices), ("n", n), ("m", m)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "r", family_rank_parameter(self))


def a_s(family: MatrixFamily, s: Bits) -> np.ndarray:
    """XOR-combination A_s = sum_i s_i A_i of the family matrices."""
    if len(s) != family.m:
        raise ValueError(f"selector length {len(s)} != m={family.m}")
    bits_to_index(s)                  # ValueError for an entry other than 0 or 1
    out = np.zeros((family.n, family.n), dtype=np.uint8)
    for bit, mat in zip(s, family.matrices):
        if bit:
            out ^= mat
    return out


def family_rank_parameter(family: MatrixFamily) -> int:
    """Exact max over s != 0 of n - rank(A_s), by exhaustive enumeration."""
    if family.m > MAX_ENUM_M:
        raise ValueError(f"m={family.m} too large for exhaustive selector enumeration")
    worst = 0
    for idx in range(1, 1 << family.m):
        s = index_to_bits(idx, family.m)
        mat = a_s(family, s)
        if not mat.any():
            raise ValueError(f"degenerate family: A_s is the zero matrix for s={format_bits(s)}")
        worst = max(worst, family.n - gf2_rank(mat))
    return worst


# ---------------------------------------------------------------------------
# GF(2)[x] polynomial helpers (coefficient bitmasks, bit i = coeff of x^i)
# ---------------------------------------------------------------------------

def poly_degree(p: int) -> int:
    return p.bit_length() - 1


def poly_mod(a: int, mod: int) -> int:
    d = poly_degree(mod)
    while poly_degree(a) >= d and a:
        a ^= mod << (poly_degree(a) - d)
    return a


def poly_is_irreducible(p: int) -> bool:
    """Brute-force irreducibility over GF(2): trial division up to degree n/2."""
    n = poly_degree(p)
    if n < 1:
        return False
    if n == 1:
        return True
    if not (p & 1):                       # divisible by x
        return False
    for d in range(1, n // 2 + 1):
        for q in range(1 << d, 1 << (d + 1)):
            if poly_mod(p, q) == 0:
                return False
    return True


@functools.lru_cache(maxsize=None)
def default_polynomial(n: int) -> int:
    """Smallest (by integer value) irreducible polynomial of degree n."""
    if not 1 <= n <= 16:
        raise ValueError("built-in polynomial table covers degrees 1..16")
    for p in range(1 << n | 1, 1 << (n + 1), 2):
        if poly_is_irreducible(p):
            return p
    raise RuntimeError(f"no irreducible polynomial of degree {n} found")  # pragma: no cover


def format_poly(p: int) -> str:
    """Coefficient string, highest degree first ("1011" = x^3 + x + 1)."""
    return format(p, "b")


def parse_poly(s: str) -> int:
    if not s or any(c not in "01" for c in s) or s[0] != "1":
        raise ValueError(f"not a valid polynomial coefficient string: {s!r}")
    return int(s, 2)


# ---------------------------------------------------------------------------
# Family builders
# ---------------------------------------------------------------------------

def _power_family(gen: np.ndarray, m: int, poly: int | None) -> MatrixFamily:
    """The family A_i = gen^(i-1), i = 1..m, with its exact deficiency r."""
    matrices = [np.eye(gen.shape[0], dtype=np.uint8)]
    while len(matrices) < m:
        matrices.append(gf2_matmul(gen, matrices[-1]))
    return MatrixFamily(tuple(matrices), poly)


def build_field_family(n: int, m: int, poly: int | None = None) -> MatrixFamily:
    """Family A_i = multiplication by x^{i-1} in GF(2^n): the powers of multiplication by x.

    Every nonzero combination A_s is multiplication by a nonzero field
    element, hence invertible, so r = 0; this is re-verified exhaustively.
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got n={n}, m={m}")
    if poly is None:
        poly = default_polynomial(n)
    if poly_degree(poly) != n:
        raise ValueError(f"polynomial degree {poly_degree(poly)} != n={n}")
    if not poly_is_irreducible(poly):
        raise ValueError(f"polynomial {format_poly(poly)} is reducible")
    # Row i holds the coefficient of x^i: x * x^j = x^(j+1), and x * x^(n-1) = poly - x^n.
    times_x = np.eye(n, k=-1, dtype=np.uint8)
    times_x[::-1, -1] = index_to_bits(poly ^ (1 << n), n)
    fam = _power_family(times_x, m, poly)
    if fam.r != 0:
        raise RuntimeError("field family failed invertibility verification")  # pragma: no cover
    return fam


def build_shift_family(n: int, m: int) -> MatrixFamily:
    """Family A_i = (i-1)-th power of the shift matrix; exercises r = m - 1."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got n={n}, m={m}")
    fam = _power_family(np.eye(n, k=-1, dtype=np.uint8), m, None)
    if fam.r > m - 1:
        raise RuntimeError("shift family deficiency exceeded m - 1")  # pragma: no cover
    return fam


# ---------------------------------------------------------------------------
# Textual family format: header "n m r poly", then one matrix per block
# (rows as 0/1 strings), blocks separated by blank lines.
# ---------------------------------------------------------------------------

def dump_family(family: MatrixFamily) -> str:
    poly = format_poly(family.poly) if family.poly is not None else "-"
    lines = [f"{family.n} {family.m} {family.r} {poly}"]
    for mat in family.matrices:
        lines.append("")
        lines.extend(format_bits(row) for row in mat.tolist())
    return "\n".join(lines) + "\n"


def load_family(text: str) -> MatrixFamily:
    """The family of a :func:`dump_family` text, built from its matrix blocks.

    ValueError when the header's n, m or r disagrees with the matrices.
    """
    lines = [ln.strip() for ln in text.strip().splitlines()]
    if not lines:
        raise ValueError("empty family file")
    header = lines[0].split()
    if len(header) != 4:
        raise ValueError(f"bad family header: {lines[0]!r}")
    declared = tuple(int(v) for v in header[:3])
    poly = None if header[3] == "-" else parse_poly(header[3])
    blocks = [[parse_bits(row) for row in block]
              for nonblank, block in itertools.groupby(lines[1:], key=bool) if nonblank]
    fam = MatrixFamily(tuple(blocks), poly)
    if declared != (fam.n, fam.m, fam.r):
        raise ValueError(f"header declares n, m, r = {declared} but the matrices give "
                         f"{(fam.n, fam.m, fam.r)}")
    return fam


def save_family(family: MatrixFamily, path) -> None:
    with open(path, "w") as fh:
        fh.write(dump_family(family))


def read_family(path) -> MatrixFamily:
    with open(path) as fh:
        return load_family(fh.read())
