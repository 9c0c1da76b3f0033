"""Closed-form security bounds for the deor family at declared entropies.

Every bound maps scenario parameters (n, m, r, k1, k2) to an error value
epsilon.  Direct results use their published exponent; reduction-style
results (a transformer applied to the base extractor statement) are
algebraically inverted so that the returned epsilon is expressed at the
*declared* entropies, with the entropy offsets of the quoted statement
absorbed.  Each inversion is verified by a consistency identity in the
test suite.

With E = k1 + k2 + 2 - n - r - m:

  B1   2^(-E/2)                 quantum product-type (also the no-side-info error)
  B2   3 * 2^(-E/4)             Markov model, classical or quantum side info
  B3   2^(-(E-3m)/6)            generic quantum-product lift of a classical-product bound
  B4   2^(-(E-3m)/6)            one-shot generic quantum-product lift (equals B3 here)
  B5   3 * 2^(-(E-3m)/8)        generic Markov lift
  B6   2^(-(E+1-m)/4)           masked-bit route via the inner product
  B7   2^(-(1+k1+k2-n)/2)       inner product, classical product-type (m = 1)
  B8   2^(-(E-3m)/6)            weak-extractor quantum-product lift
  B9   2 * 2^(-E/3)             classical product-type from no side info
  B10  3 * 2^(-E/4)             classical Markov from no side info (equals B2)
  B11  sqrt(3) * 2^(-(E+8-4m)/8)  prior-generation quantum Markov lift

The inner product is the deor extractor of the identity family, so B7 is
B1 at m = 1, r = 0.
"""

from __future__ import annotations

import math


def base_exponent(n: int, m: int, r: int, k1: float, k2: float) -> float:
    return k1 + k2 + 2.0 - n - r - m


def _validate(n, m, r, k1, k2) -> None:
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    if not 0 <= r < n:
        raise ValueError(f"rank deficiency r={r} outside [0, n)")
    for name, k in (("k1", k1), ("k2", k2)):
        if not -1e-9 <= k <= n + 1e-9:
            raise ValueError(f"{name}={k} outside the source entropy range [0, {n}]")


def _b1(n, m, r, k1, k2):
    return 2.0 ** (-base_exponent(n, m, r, k1, k2) / 2.0)


def _b2(n, m, r, k1, k2):
    return 3.0 * 2.0 ** (-base_exponent(n, m, r, k1, k2) / 4.0)


def _b3(n, m, r, k1, k2):
    return 2.0 ** (-(base_exponent(n, m, r, k1, k2) - 3.0 * m) / 6.0)


def _b5(n, m, r, k1, k2):
    return 3.0 * 2.0 ** (-(base_exponent(n, m, r, k1, k2) - 3.0 * m) / 8.0)


def _b6(n, m, r, k1, k2):
    return 2.0 ** (-(base_exponent(n, m, r, k1, k2) + 1.0 - m) / 4.0)


def _b7(n, m, r, k1, k2):
    if m != 1:
        raise ValueError("the inner-product bound applies to single-bit output only")
    return 2.0 ** (-(1.0 + k1 + k2 - n) / 2.0)


def _b9(n, m, r, k1, k2):
    return 2.0 ** (1.0 - base_exponent(n, m, r, k1, k2) / 3.0)


def _b11(n, m, r, k1, k2):
    return math.sqrt(3.0) * 2.0 ** (-(base_exponent(n, m, r, k1, k2) + 8.0 - 4.0 * m) / 8.0)


_FORMULAS = {
    "B1": _b1,
    "B2": _b2,
    "B3": _b3,
    "B4": _b3,
    "B5": _b5,
    "B6": _b6,
    "B7": _b7,
    "B8": _b3,
    "B9": _b9,
    "B10": _b2,
    "B11": _b11,
}

BOUND_IDS = tuple(sorted(_FORMULAS))


def bound_value(bound_id: str, params) -> float:
    """Evaluate a catalog bound at params with keys n, m, r, k1, k2."""
    if bound_id not in _FORMULAS:
        raise KeyError(f"unknown bound id {bound_id!r}; known: {', '.join(BOUND_IDS)}")
    n, m, r = int(params["n"]), int(params["m"]), int(params["r"])
    k1, k2 = float(params["k1"]), float(params["k2"])
    _validate(n, m, r, k1, k2)
    return float(_FORMULAS[bound_id](n, m, r, k1, k2))
