"""Two-source extractor evaluation: the deor family and the inner product.

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
    gf2_images,
    gf2_matvec,
)


def ip_eval(x: Bits, y: Bits) -> int:
    """Inner product modulo 2."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    return sum(a & b for a, b in zip(x, y)) & 1


def deor_eval(family: MatrixFamily, x: Bits, y: Bits) -> Bits:
    """Output bits ((A_1 x) . y, ..., (A_m x) . y)."""
    if len(x) != family.n or len(y) != family.n:
        raise ValueError(f"inputs must be {family.n}-bit strings")
    return tuple(ip_eval(gf2_matvec(mat, x), y) for mat in family.matrices)


def _parity(a: np.ndarray) -> np.ndarray:
    return (np.bitwise_count(a) & 1).astype(np.int64)


def _read_only(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)
    return table


def _inputs(n: int) -> np.ndarray:
    """Every n-bit input index, refusing tables of more than 2^MAX_TABLE_BITS pairs."""
    if 2 * n > MAX_TABLE_BITS:
        raise ValueError(f"output table over 2^{2 * n} input pairs not supported "
                         f"(at most 2^{MAX_TABLE_BITS})")
    return np.arange(1 << n)


def ip_table(n: int) -> np.ndarray:
    """table[i, j] = ip_eval(x, y) for x, y the n-bit vectors of index i, j."""
    xs = _inputs(n)
    return _parity(xs[:, None] & xs)


def deor_table(family: MatrixFamily) -> np.ndarray:
    """table[i, j] = bits_to_index(deor_eval(family, x, y)) for every input pair.

    Each A_k x comes from one vectorised product over all x; output bit k
    is the parity of (A_k x) & y, and bit 1 is the most significant.
    """
    ys = _inputs(family.n)
    table = np.zeros((ys.size, ys.size), dtype=np.int64)
    for mat in family.matrices:
        table = (table << 1) | _parity(gf2_images(mat)[:, None] & ys)
    return table


@dataclass(frozen=True)
class ExtractorSpec:
    """An evaluator with declared input/output lengths.

    kind "deor" requires a matrix family with n1 = n2 = family.n and
    m = family.m; kind "ip" is the single-bit inner product.
    """

    kind: str
    n1: int
    n2: int
    m: int
    family: MatrixFamily | None = None

    def __post_init__(self):
        if self.kind == "deor":
            if self.family is None:
                raise ValueError("deor extractor requires a matrix family")
            if self.n1 != self.family.n or self.n2 != self.family.n or self.m != self.family.m:
                raise ValueError("deor extractor lengths must match its family")
        elif self.kind == "ip":
            if self.n1 != self.n2 or self.m != 1:
                raise ValueError("ip extractor needs n1 = n2 and m = 1")
        else:
            raise ValueError(f"unknown extractor kind {self.kind!r}")

    def __call__(self, x: Bits, y: Bits) -> Bits:
        if self.kind == "deor":
            return deor_eval(self.family, x, y)
        return (ip_eval(x, y),)

    @functools.cached_property
    def table(self) -> np.ndarray:
        """Read-only (2^n1, 2^n2) array of output indices, one per input pair."""
        return _read_only(deor_table(self.family) if self.kind == "deor" else ip_table(self.n1))

    @property
    def r(self) -> int:
        return self.family.r if self.family is not None else 0


def deor_extractor(family: MatrixFamily) -> ExtractorSpec:
    return ExtractorSpec(kind="deor", n1=family.n, n2=family.n, m=family.m, family=family)


def ip_extractor(n: int) -> ExtractorSpec:
    return ExtractorSpec(kind="ip", n1=n, n2=n, m=1)


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
        if not any(self.s):
            raise ValueError("selector s = 0 does not define an extractor bit")

    @property
    def n1(self) -> int:
        return self.family.n

    @property
    def n2(self) -> int:
        return self.family.n

    @property
    def m(self) -> int:
        return 1

    def __call__(self, x: Bits, y: Bits) -> Bits:
        out = deor_eval(self.family, x, y)
        return (sum(si & oi for si, oi in zip(self.s, out)) & 1,)

    @functools.cached_property
    def table(self) -> np.ndarray:
        """Read-only (2^n, 2^n) array of output bits, one per input pair."""
        return _read_only(_parity(deor_table(self.family) & bits_to_index(self.s)))


def s_component(family: MatrixFamily, s: Bits) -> ComponentExtractor:
    return ComponentExtractor(family=family, s=tuple(s))

