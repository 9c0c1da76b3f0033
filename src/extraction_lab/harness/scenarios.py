"""Scenario construction: flat sources, side-information models, Markov blocks.

Every builder is deterministic given its seed.  A built source carries its
``h_min_cond`` result: the exact closed form for trivial/classical side
information, and the achieved (hence sound) solver lower bound, with the
solver's convergence flag and gap, for quantum side information.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ..cq_states import (
    CqState,
    MarkovScenario,
    apply_classical_function,
    build_cq,
    classical_state,
    markov_block_state,
)
from ..entropies import EntropyResult, h_min_cond
from ..extractors import ip_eval
from ..gf2 import index_to_bits
from ..operators import random_density, random_pure_state
from .params import resolved

# Every side-information model with the params it accepts and their defaults.
SIDE_PARAMS = {"trivial": {}, "classical_leak": {"leak": "parity"}, "bb84": {"bits": 1},
               "random_pure": {"dim": 2}}

# bb84 encodes bit b of a source symbol as _KETS[b]: |0><0| or |+><+|.
_KETS = (np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
         np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))


def make_flat_source(n: int, k: int, support_rule: str = "prefix",
                     seed: int | None = None) -> dict:
    """Uniform distribution over 2^k of the 2^n strings; H_min = k exactly."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    size = 1 << k
    if support_rule == "prefix":
        indices = range(size)
    elif support_rule == "random":
        rng = np.random.default_rng(seed)
        indices = sorted(int(i) for i in rng.choice(1 << n, size=size, replace=False))
    else:
        raise ValueError(f"unknown support rule {support_rule!r}")
    p = 1.0 / size
    return {index_to_bits(i, n): p for i in indices}


@dataclass(frozen=True)
class SourceWithSide:
    """A source together with its side information and certified entropy.

    Built as ``SourceWithSide(state, model)``: ``hmin`` is the
    ``h_min_cond`` result of ``state``, solved once when the source is
    built so that no caller solves it again; its value is the certified
    entropy ``k``.
    """

    state: CqState
    model: str
    hmin: EntropyResult = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "hmin", h_min_cond(self.state))

    @property
    def k(self) -> float:
        return self.hmin.value


# The classical_leak models: the bit of a source symbol that is leaked.
LEAKS = {"parity": lambda x: ip_eval(x, (1,) * len(x)), "first_bit": lambda x: x[0]}
# The values the model and each side-information param may take.
SIDE_CHOICES = {"model": ("side-information model", tuple(SIDE_PARAMS)),
                "leak": ("leak function", tuple(LEAKS)),
                "bits": ("bits", range(1, 3)),
                "dim": ("side dimension", range(2, 5))}


def _one_hot(index: int, dim: int) -> np.ndarray:
    """The pure state |index><index| of a dim-dimensional register."""
    c = np.zeros((dim, dim), dtype=complex)
    c[index, index] = 1.0
    return c


def make_side_info(model: str, dist: dict, params: dict | None = None, *,
                   seed: int = 0) -> SourceWithSide:
    """Attach side information of the named model to a source; ``params`` maps its SIDE_PARAMS."""
    model = resolved("side information", {"model": model}, {"model": "trivial"},
                     SIDE_CHOICES)["model"]
    params = resolved(f"{model} side information", {} if params is None else params,
                      SIDE_PARAMS[model], SIDE_CHOICES)

    if model == "trivial":
        state = classical_state(dist)
    elif model == "classical_leak":
        state = build_cq(dist, {sym: _one_hot(LEAKS[params["leak"]](sym), 2) for sym in dist})
    elif model == "bb84":
        bits = params["bits"]
        if bits > (n := min(map(len, dist))):
            raise ValueError(f"bb84 side information: bits {bits} is above the symbol length {n}")
        state = build_cq(dist, {sym: functools.reduce(np.kron, [_KETS[b] for b in sym[:bits]])
                                for sym in dist})
    else:
        rng = np.random.default_rng(seed)
        state = build_cq(dist, {sym: random_pure_state(params["dim"], rng)
                                for sym in sorted(dist)})
    return SourceWithSide(state, model)


def _random_distribution(n: int, rng: np.random.Generator, min_support: int = 1) -> dict:
    size = 1 << n
    support = int(rng.integers(min_support, size + 1))
    chosen = sorted(int(i) for i in rng.choice(size, size=support, replace=False))
    weights = rng.random(support) + 1e-3
    weights = weights / weights.sum()
    return {index_to_bits(i, n): float(w) for i, w in zip(chosen, weights)}


def _random_cq(n_bits: int, dim: int, rng: np.random.Generator, min_support: int = 1,
               draw=random_density) -> CqState:
    """Random distribution with conditional states draw(dim, rng), in sorted-symbol order."""
    dist = _random_distribution(n_bits, rng, min_support=min_support)
    if dim == 1:
        return classical_state(dist)
    conds = {sym: draw(dim, rng) for sym in sorted(dist)}
    return build_cq(dist, conds)


def _random_source(n: int, rng: np.random.Generator):
    k_target = int(rng.integers(max(1, n - 2), n + 1))
    rule = "prefix" if rng.random() < 0.5 else "random"
    dist = make_flat_source(n, k_target, rule, seed=int(rng.integers(2 ** 31)))
    model = "bb84" if rng.random() < 0.5 else "random_pure"
    if model == "bb84":
        params = {"bits": int(rng.integers(1, min(2, n) + 1))}
    else:
        params = {"dim": int(rng.integers(2, 5))}
    return make_side_info(model, dist, params, seed=int(rng.integers(2 ** 31)))


# A Markov scenario's joint state holds (2^n, 2^n, side, side) entries; side <= 4·blocks
# is at most 12 at MARKOV_BLOCKS_MAX blocks, so 151 MB at n = MARKOV_N_MAX.
MARKOV_N_MAX = 8
MARKOV_BLOCKS_MAX = 3


def make_markov_scenario(n: int, n_blocks: int, seed: int,
                         classical: bool = False) -> MarkovScenario:
    """Random block mixture of product sources, one side register of dimension 1 or 2 each."""
    rng = np.random.default_rng(seed)
    weights = rng.random(n_blocks) + 0.2
    weights = tuple(float(w) for w in weights / weights.sum())
    draw = (lambda d, r: _one_hot(int(r.integers(d)), d)) if classical else random_pure_state
    factors = []
    for _ in range(n_blocks):
        d1 = int(rng.integers(1, 3))
        d2 = int(rng.integers(1, 3))
        factors.append((_random_cq(n, d1, rng, draw=draw), _random_cq(n, d2, rng, draw=draw)))
    return MarkovScenario(weights=weights, factors=tuple(factors))


def markov_marginals(n: int, n_blocks: int, seed: int, classical: bool = False):
    """The joint state of ``make_markov_scenario``'s mixture and each source's ``h_min_cond``."""
    joint = markov_block_state(make_markov_scenario(n, n_blocks, seed, classical))
    res1 = h_min_cond(apply_classical_function(joint, lambda sym: sym[0]))
    res2 = h_min_cond(apply_classical_function(joint, lambda sym: sym[1]))
    return joint, res1, res2
