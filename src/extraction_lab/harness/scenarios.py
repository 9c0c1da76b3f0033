"""Scenario construction: flat sources, side-information models, Markov blocks.

Every builder is deterministic given its seed, and draws only: a source is
its cq-state, and no builder solves an entropy.  A caller that needs a
source's certified entropy calls ``h_min_cond`` on the state itself.
Random cq-states are drawn raw (:func:`_random_blocks`, :func:`_markov_draw`)
and formed and validated per group (:func:`_formed_group`), so a check that
draws many pays the fixed cost of forming once per group, not per state.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from ..cq_states import (
    CqState,
    MarkovScenario,
    _traces,
    build_cq,
    check_blocks,
    check_unit_traces,
    classical_state,
    padded_stacks,
)
from ..extractors import ip_eval
from ..gf2 import all_bit_vectors, index_to_bits
from ..operators import ginibre_densities, probability_vector, random_densities, random_pure_state
from .params import resolved

# Every side-information model with the params it accepts and their defaults.
SIDE_PARAMS = {"trivial": {}, "classical_leak": {"leak": "parity"}, "bb84": {"bits": 1},
               "random_pure": {"dim": 2}}

# bb84 encodes bit b of a source symbol as _KETS[b]: |0><0| or |+><+|.
_KETS = (np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
         np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))


def make_flat_source(n: int, k: int, support_rule: str = "prefix", seed: int = 0) -> dict:
    """Uniform distribution over 2^k of the 2^n strings; H_min = k exactly.

    The "random" support rule draws the 2^k strings from ``seed``.
    """
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
                   seed: int = 0) -> CqState:
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
        # one product per distinct prefix: at most 2^bits, however many symbols
        encode = functools.cache(
            lambda prefix: functools.reduce(np.kron, [_KETS[b] for b in prefix]))
        state = build_cq(dist, {sym: encode(sym[:bits]) for sym in dist})
    else:
        rng = np.random.default_rng(seed)
        state = build_cq(dist, {sym: random_pure_state(params["dim"], rng)
                                for sym in sorted(dist)})
    return state


def _random_blocks(n_bits: int, dim: int, rng: np.random.Generator, min_support: int = 1,
                   draw=random_densities):
    """A random distribution on n-bit strings and one conditional state per symbol.

    Returns its support as ascending indices, their weights and the stack
    draw(support, dim, rng) of conditionals, (support, dim, dim), or of their
    unformed normals (:func:`_ginibre_normals`); 1x1 ones for a
    one-dimensional side register, drawing nothing.
    """
    size = 1 << n_bits
    support = int(rng.integers(min_support, size + 1))
    indices = np.sort(rng.choice(size, size=support, replace=False))
    weights = rng.random(support) + 1e-3
    conds = draw(support, dim, rng) if dim > 1 else np.ones((support, 1, 1), dtype=complex)
    return indices, weights / weights.sum(), conds


def _ginibre_normals(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """The (count, 2, dim, dim) standard normals that ``random_densities(count, dim, rng)``
    draws, left unformed for :func:`_formed_group`."""
    return rng.standard_normal((count, 2, dim, dim))


def _formed_group(names, drawn):
    """Drawn cq-states of one side dimension, formed and validated at once.

    ``names`` are the n-bit symbols in index order, and ``drawn`` holds each
    state's (indices, weights, conds) as :func:`_random_blocks` returns them
    for n bits.  Conds of shape (support, 2, d, d) are the standard normals
    of :func:`_ginibre_normals`, formed by one :func:`ginibre_densities` for
    the group, each as its own draw would form it.  Each distribution is
    tested as :func:`build_cq` tests it, every conditional's trace by one
    :func:`check_unit_traces` naming the symbol, and the weighted blocks by
    one ``check_blocks(..., normalized=True)``.  Returns the weighted blocks
    as :func:`padded_stacks` does, the (P, 2^n, d, d) stack and its (P, 2^n)
    mask, and each state's (support, d, d) stack of them, a view.
    """
    indices, weights, conds = zip(*drawn)
    for w in weights:
        probability_vector(w.tolist())
    conds = np.concatenate(conds)
    if conds.ndim == 4:
        conds = ginibre_densities(conds)
    slots = np.concatenate(indices)
    check_unit_traces(_traces(conds), "conditional state for", [names[i] for i in slots.tolist()])
    blocks = np.concatenate(weights)[:, None, None] * conds
    stacks = [blocks[end - len(i):end]
              for i, end in zip(indices, itertools.accumulate(map(len, indices)))]
    padded, present = padded_stacks(list(zip(stacks, indices)), len(names))
    check_blocks(padded, present, names, normalized=True)
    return padded, present, stacks


def _random_cqs(draws) -> list:
    """The cq-states of ``draws``, each (n_bits, indices, weights, conds), in order.

    The draws are formed and validated per group of one n_bits and conds
    shape by :func:`_formed_group`; each state's blocks are bit for bit
    those :func:`build_cq` gives it alone.
    """
    groups = {}
    for i, (n_bits, _, _, conds) in enumerate(draws):
        groups.setdefault((n_bits, conds.shape[1:]), []).append(i)
    states = [None] * len(draws)
    for (n_bits, _), at in groups.items():
        names = all_bit_vectors(n_bits)
        *_, stacks = _formed_group(names, [draws[i][1:] for i in at])
        for i, stack in zip(at, stacks):
            states[i] = CqState._from_stack([names[j] for j in draws[i][1].tolist()], stack)
    return states


def _random_source(n: int, rng: np.random.Generator) -> tuple[str, CqState]:
    """A random flat n-bit source under bb84 or random_pure side information: (model, state)."""
    k_target = int(rng.integers(max(1, n - 2), n + 1))
    rule = "prefix" if rng.random() < 0.5 else "random"
    dist = make_flat_source(n, k_target, rule, seed=int(rng.integers(2 ** 31)))
    model = "bb84" if rng.random() < 0.5 else "random_pure"
    if model == "bb84":
        params = {"bits": int(rng.integers(1, min(2, n) + 1))}
    else:
        params = {"dim": int(rng.integers(2, 5))}
    return model, make_side_info(model, dist, params, seed=int(rng.integers(2 ** 31)))


# The widest n that the CLI's `entropy` markov form accepts.  It bounds no memory: each
# factor is solved alone, at most 2^n blocks of side dimension 1 or 2.
MARKOV_N_MAX = 8
MARKOV_BLOCKS_MAX = 3


def _markov_draw(n: int, n_blocks: int, seed: int, classical: bool = False):
    """What :func:`make_markov_scenario` draws, unformed: (weights, factors).

    ``factors`` holds per block the draws (n, indices, weights, conds) of its
    two factors, side dimension 1 or 2 each.  The one-hot (classical) or pure
    conditionals are drawn one after another: a stacked draw would take
    other numbers from the generator.
    """
    rng = np.random.default_rng(seed)
    weights = rng.random(n_blocks) + 0.2
    weights = tuple(float(w) for w in weights / weights.sum())

    def draw(count, d, r):
        """``count`` one-hot (classical) or pure states, drawn one after another."""
        if classical:
            return np.array([_one_hot(int(r.integers(d)), d) for _ in range(count)])
        return np.array([random_pure_state(d, r) for _ in range(count)])

    factors = []
    for _ in range(n_blocks):
        d1 = int(rng.integers(1, 3))
        d2 = int(rng.integers(1, 3))
        factors.append(((n, *_random_blocks(n, d1, rng, draw=draw)),
                        (n, *_random_blocks(n, d2, rng, draw=draw))))
    return weights, factors


def _markov_scenarios(draws) -> list:
    """The :class:`MarkovScenario` of each of ``draws`` (:func:`_markov_draw`), in order,
    with every factor of the batch formed and validated by one :func:`_random_cqs`."""
    states = iter(_random_cqs([f for _, factors in draws for pair in factors for f in pair]))
    return [MarkovScenario(weights, tuple((next(states), next(states)) for _ in factors))
            for weights, factors in draws]


def make_markov_scenario(n: int, n_blocks: int, seed: int,
                         classical: bool = False) -> MarkovScenario:
    """Random block mixture of product sources, one side register of dimension 1 or 2 each:
    :func:`_markov_scenarios` of one :func:`_markov_draw`."""
    return _markov_scenarios([_markov_draw(n, n_blocks, seed, classical)])[0]
