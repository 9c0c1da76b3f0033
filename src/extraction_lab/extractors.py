"""Two-source extractor evaluation: the deor family and the inner product.

The inner product is the deor extractor of the identity family (m = 1,
r = 0), so one type, :class:`ExtractorSpec`, covers both.

Evaluators are pure functions on bit tuples, for exhaustive combinatorial
loops.  Each extractor also has its output table, the index of its output
for every input pair at once; the output-state builders in cq_states read
that table instead of evaluating pair by pair.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .gf2 import (
    MAX_TABLE_BITS,
    Bits,
    MatrixFamily,
    bits_to_index,
    build_shift_family,
    gf2_images,
    gf2_matvec,
)


def ip_eval(x: Bits, y: Bits) -> int:
    """Inner product modulo 2; ValueError naming any entry other than 0 or 1."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    return (bits_to_index(x) & bits_to_index(y)).bit_count() & 1


def deor_eval(family: MatrixFamily, x: Bits, y: Bits) -> Bits:
    """Output bits ((A_1 x) . y, ..., (A_m x) . y)."""
    if len(x) != family.n or len(y) != family.n:
        raise ValueError(f"inputs must be {family.n}-bit strings")
    return tuple(ip_eval(gf2_matvec(mat, x), y) for mat in family.matrices)


def _parity(a: np.ndarray) -> np.ndarray:
    bits = np.bitwise_count(a)
    bits &= 1
    return bits


def _read_only(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)
    return table


def deor_table(family: MatrixFamily) -> np.ndarray:
    """table[i, j] = bits_to_index(deor_eval(family, x, y)) for every input pair.

    Each A_k x comes from one vectorised product over all x; output bit k
    is the parity of (A_k x) & y, and bit 1 is the most significant.  The
    table is uint8 for m <= 8 and uint16 otherwise, built from uint16
    input indices, so no temporary is wider than two bytes per pair.
    """
    n = family.n
    if 2 * n > MAX_TABLE_BITS:
        raise ValueError(f"output table over 2^{2 * n} input pairs not supported "
                         f"(at most 2^{MAX_TABLE_BITS})")
    ys = np.arange(1 << n, dtype=np.uint16)
    table = np.zeros((ys.size, ys.size), dtype=np.uint8 if family.m <= 8 else np.uint16)
    for mat in family.matrices:
        table <<= 1
        table |= _parity(gf2_images(mat).astype(np.uint16)[:, None] & ys)
    return table


@dataclass(frozen=True)
class ExtractorSpec:
    """The deor extractor of a matrix family: n-bit sources, m output bits."""

    family: MatrixFamily

    @property
    def n(self) -> int:
        return self.family.n

    @property
    def m(self) -> int:
        return self.family.m

    def __call__(self, x: Bits, y: Bits) -> Bits:
        return deor_eval(self.family, x, y)

    @functools.cached_property
    def table(self) -> np.ndarray:
        """Read-only (2^n, 2^n) array of output indices, one per input pair."""
        return _read_only(deor_table(self.family))


def deor_extractor(family: MatrixFamily) -> ExtractorSpec:
    return ExtractorSpec(family)


def ip_extractor(n: int) -> ExtractorSpec:
    """The inner product: the deor extractor of the identity family (m = 1, r = 0)."""
    return ExtractorSpec(build_shift_family(n, 1))


@dataclass(frozen=True)
class ComponentExtractor:
    """Single output bit s . deor(x, y), itself a two-source evaluator.

    Satisfies s . deor(x, y) = IP(x, A_s^T y) for every input pair.
    """

    family: MatrixFamily
    s: Bits

    def __post_init__(self):
        if len(self.s) != self.family.m:
            raise ValueError(f"selector must have length m={self.family.m}")
        if bits_to_index(self.s) == 0:
            raise ValueError("selector s = 0 does not define an extractor bit")

    @property
    def n(self) -> int:
        return self.family.n

    @property
    def m(self) -> int:
        return 1

    def __call__(self, x: Bits, y: Bits) -> Bits:
        return (ip_eval(self.s, deor_eval(self.family, x, y)),)

    @functools.cached_property
    def table(self) -> np.ndarray:
        """Read-only (2^n, 2^n) uint8 array of output bits, one per input pair."""
        return _read_only(_parity(deor_table(self.family) & bits_to_index(self.s)))
