"""Closed-form security bounds for the deor family at declared entropies.

Every bound maps scenario parameters (n, m, r, k1, k2) to an error value
epsilon, and every bound has one form: with E = k1 + k2 + 2 - n - r - m,

    epsilon = coef * 2^(-((E + a) - b*m) / q),

so the catalog is one table, ``CATALOG``, of rows (coef, a, b, q, only_m),
and one evaluator, :func:`bound_values`, with :func:`bound_value` its batch
of one.  A row with ``only_m`` holds for that output length alone.  Direct
results use their published exponent; reduction-style results (a
transformer applied to the base extractor statement) are algebraically
inverted so that the returned epsilon is expressed at the *declared*
entropies, the entropy offsets of the quoted statement absorbed into the
row.  Each inversion is verified by a consistency identity in the test
suite.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class Row(NamedTuple):
    """coef * 2^(-((E + a) - b*m) / q), for output length only_m alone unless it is None."""

    coef: float
    a: float
    b: float
    q: float
    only_m: int | None = None


CATALOG = {
    "B1": Row(1.0, 0.0, 0.0, 2.0),      # quantum product-type (also the no-side-info error)
    "B2": Row(3.0, 0.0, 0.0, 4.0),      # Markov model, classical or quantum side info
    "B3": Row(1.0, 0.0, 3.0, 6.0),      # generic quantum-product lift of a classical-product bound
    "B4": Row(1.0, 0.0, 3.0, 6.0),      # one-shot generic quantum-product lift (equals B3 here)
    "B5": Row(3.0, 0.0, 3.0, 8.0),      # generic Markov lift
    "B6": Row(1.0, 1.0, 1.0, 4.0),      # masked-bit route via the inner product
    # The inner product, classical product-type: the deor extractor of the
    # identity family (m = 1, r = 0), so B1 there.
    "B7": Row(1.0, 0.0, 0.0, 2.0, only_m=1),
    "B8": Row(1.0, 0.0, 3.0, 6.0),      # weak-extractor quantum-product lift
    "B9": Row(2.0, 0.0, 0.0, 3.0),      # classical product-type from no side info
    "B10": Row(3.0, 0.0, 0.0, 4.0),     # classical Markov from no side info (equals B2)
    "B11": Row(math.sqrt(3.0), 8.0, 4.0, 8.0),     # prior-generation quantum Markov lift
}

BOUND_IDS = tuple(sorted(CATALOG))


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


def bound_values(bound_ids, params) -> list[float]:
    """Evaluate catalog bounds at params with keys n, m, r, k1, k2, one value per id.

    The values and any refusal are those of :func:`bound_value` called once
    per id in order, but the params are read and validated only once.
    """
    values = []
    for bound_id in bound_ids:
        if bound_id not in CATALOG:
            raise KeyError(f"unknown bound id {bound_id!r}; known: {', '.join(BOUND_IDS)}")
        if not values:  # the first id: read and validate the params
            n, m, r = int(params["n"]), int(params["m"]), int(params["r"])
            k1, k2 = float(params["k1"]), float(params["k2"])
            _validate(n, m, r, k1, k2)
            e = base_exponent(n, m, r, k1, k2)
        coef, a, b, q, only_m = CATALOG[bound_id]
        if only_m is not None and m != only_m:
            raise ValueError(f"bound {bound_id!r} applies to m = {only_m} output only, got m={m}")
        values.append(float(coef * 2.0 ** (-((e + a) - b * m) / q)))
    return values


def bound_value(bound_id: str, params) -> float:
    """Evaluate a catalog bound at params with keys n, m, r, k1, k2."""
    return bound_values((bound_id,), params)[0]
