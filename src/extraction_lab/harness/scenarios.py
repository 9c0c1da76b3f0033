"""Scenario construction: flat sources, side-information models, Markov blocks.

Every builder is deterministic given its seed, and draws only: a source is
its cq-state, and no builder solves an entropy.  A caller that needs a
source's certified entropy calls ``h_min_cond`` on the state itself.
Random cq-states are drawn raw and formed and validated per group
(:func:`_formed_group`), so a check that draws many pays the fixed cost of
forming once per group, not per state.  Every random cq-state is drawn by
column, a block of them in four generator calls whatever its size
(:func:`_random_blocks_many`): its mixed, pure or one-hot conditionals in
one call, never one conditional at a time, and ranked, normalised and
formed per batch (:func:`_drawn_blocks`).  A Markov scenario's factors are
such a block drawn from its own generator, and a batch of Markov scenarios
is formed by one :func:`_drawn_blocks` (:func:`_markov_draws`).
Flat sources under a side model are drawn raw too (:func:`_flat_draw`), and
every check forms them per group; :func:`make_side_info` builds one such
state alone, for the CLI and the library, from the same conditionals
(:func:`_side_conditionals`), so each side model is written once.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from ..cq_states import (
    CqState,
    MarkovScenario,
    _traces,
    build_cq,
    check_blocks,
    check_unit_traces,
    padded_stacks,
)
from ..extractors import ip_eval
from ..gf2 import all_bit_vectors, index_to_bits
from ..operators import ginibre_densities, probability_vector, pure_states
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
    indices = _flat_indices(n, k, support_rule, seed)
    p = 1.0 / len(indices)
    return {index_to_bits(i, n): p for i in indices.tolist()}


def _flat_indices(n: int, k: int, support_rule: str = "prefix", seed: int = 0) -> np.ndarray:
    """The ascending indices of the 2^k strings of :func:`make_flat_source`."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    size = 1 << k
    if support_rule == "prefix":
        return np.arange(size)
    if support_rule == "random":
        return np.sort(np.random.default_rng(seed).choice(1 << n, size=size, replace=False))
    raise ValueError(f"unknown support rule {support_rule!r}")


# The classical_leak models: the bit of a source symbol that is leaked.
LEAKS = {"parity": lambda x: ip_eval(x, (1,) * len(x)), "first_bit": lambda x: x[0]}
# The values the model and each side-information param may take.
SIDE_CHOICES = {"model": ("side-information model", tuple(SIDE_PARAMS)),
                "leak": ("leak function", tuple(LEAKS)),
                "bits": ("bits", range(1, 3)),
                "dim": ("side dimension", range(2, 5))}


def make_side_info(model: str, dist: dict, params: dict | None = None, *,
                   seed: int = 0) -> CqState:
    """Attach side information of the named model to a source; ``params`` maps its SIDE_PARAMS.

    The conditionals are :func:`_side_conditionals`' for the sorted symbols of
    ``dist``, and :func:`build_cq` builds and tests the state alone.
    """
    model = resolved("side information", {"model": model}, {"model": "trivial"},
                     SIDE_CHOICES)["model"]
    params = resolved(f"{model} side information", {} if params is None else params,
                      SIDE_PARAMS[model], SIDE_CHOICES)
    symbols = sorted(dist)
    return build_cq(dist, dict(zip(symbols, _side_conditionals(model, params, symbols, seed))))


def _side_conditionals(model: str, params: dict, symbols, seed: int = 0) -> np.ndarray:
    """The complex (N, d, d) conditional states of side model ``model`` for the sorted
    ``symbols``, ``params`` resolved as :func:`make_side_info` resolves them.

    trivial gives 1x1 ones; classical_leak the one-hot |leak(x)><leak(x)| of
    a qubit; bb84 the product of the first ``bits`` bits' kets, one Kronecker
    product per distinct prefix; random_pure one pure state per symbol, in
    symbol order, formed by :func:`pure_states` from one (N, 2, dim)
    standard-normal draw of ``default_rng(seed)``.
    """
    count = len(symbols)
    if model == "trivial":
        return np.ones((count, 1, 1), dtype=complex)
    if model == "classical_leak":
        leaks = np.array([LEAKS[params["leak"]](sym) for sym in symbols], dtype=int)
        conds = np.zeros((count, 2, 2), dtype=complex)
        conds[np.arange(count), leaks, leaks] = 1.0
        return conds
    if model == "bb84":
        bits = params["bits"]
        if bits > (n := min(map(len, symbols))):
            raise ValueError(f"bb84 side information: bits {bits} is above the symbol length {n}")
        encode = functools.cache(
            lambda prefix: functools.reduce(np.kron, [_KETS[b] for b in prefix]))
        return np.array([encode(sym[:bits]) for sym in symbols])
    return pure_states(np.random.default_rng(seed).standard_normal((count, 2, params["dim"])))


def _flat_draw(n: int, indices: np.ndarray, model: str = "trivial", params: dict | None = None,
               seed: int = 0) -> tuple:
    """The raw draw (n, indices, weights, conds) of the flat source on the ascending
    ``indices`` of n-bit strings under side model ``model``, for :func:`_random_cqs`.

    Its weights are 1/|indices| each, as :func:`make_flat_source` gives them,
    and its conds :func:`_side_conditionals`' for its symbols, so the state
    formed is bit for bit ``make_side_info(model, dist, params, seed=seed)``.
    """
    symbols = [index_to_bits(i, n) for i in indices.tolist()]
    return (n, indices, np.full(len(indices), 1.0 / len(indices)),
            _side_conditionals(model, params, symbols, seed))


def _random_blocks_many(n_bits, dims, rng: np.random.Generator, min_support: int = 1,
                        conds: str = "mixed") -> list:
    """A block of random distributions on n-bit strings, each with one conditional state
    per symbol, in four generator calls: :func:`_drawn_blocks` of one
    :func:`_raw_blocks`.

    Returns each scenario's (indices, weights, conds), views of the block's
    arrays, in order.
    """
    [drawn] = _drawn_blocks([_raw_blocks(n_bits, dims, rng, min_support, conds)])
    return drawn


def _raw_blocks(n_bits, dims, rng: np.random.Generator, min_support: int = 1,
                conds: str = "mixed") -> tuple:
    """The four generator calls of a block of random cq-states, left raw for
    :func:`_drawn_blocks`.

    ``n_bits`` and ``dims`` are arrays of each scenario's n and side
    dimension.  Draws each support, uniform in min_support..2^n (one
    ``integers`` with an array high); a uniform key for each of every
    scenario's 2^n slots; a ``random()`` per chosen slot, its raw weight; and
    the block's conditionals of kind ``conds`` in one more call, for each
    scenario whose side dimension d is above 1: the standard normals of
    (support, 2, d, d) Ginibre densities ("mixed") or of (support, 2, d) pure
    states ("pure"), as one flat draw, or one-hot indices uniform in 0..d-1
    ("one-hot", one ``integers`` with an array high).
    """
    sizes = 1 << np.asarray(n_bits)
    supports = rng.integers(min_support, sizes + 1)
    keys = rng.random(int(sizes.sum()))
    weights = rng.random(int(supports.sum()))
    dims = np.asarray(dims).tolist()
    shapes = [(s, d) for s, d in zip(supports.tolist(), dims) if d > 1]
    if conds == "one-hot":
        raw = rng.integers(np.repeat([d for _, d in shapes], [s for s, _ in shapes]))
    else:
        raw = rng.standard_normal(sum(s * 2 * d ** (1 + (conds == "mixed")) for s, d in shapes))
    return sizes, supports, keys, weights, dims, conds, raw


def _drawn_blocks(raws) -> list:
    """The scenarios of each of ``raws`` (:func:`_raw_blocks`) as (indices, weights, conds),
    in order, with the bookkeeping done once for the whole batch.

    The ``support`` smallest keys of a scenario make a uniform subset of its
    slots, in order its ascending indices, and one ``np.lexsort`` ranks every
    scenario's keys.  Each weight is its ``random() + 1e-3``, normalised per
    scenario by one ``np.add.reduceat``.  The conditionals are formed per
    kind and side dimension (:func:`_formed_conditionals`); a one-dimensional
    side draws none and gets 1x1 ones.  Returns per raw draw the list of its
    scenarios' triples, views of the batch's arrays, each bit for bit what
    its raw draw gives alone.
    """
    sizes, supports, keys, weights, dims, kinds, raw = zip(*raws)
    counts = list(map(len, dims))       # the scenarios of each raw draw
    sizes, supports, keys, weights = map(_joined, (sizes, supports, keys, weights))
    owner = np.repeat(np.arange(len(sizes)), sizes)     # the scenario of each slot
    slot = np.arange(len(owner)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    # Sorted by (scenario, key), a scenario's slots keep its range of positions, so
    # the slot index at a position is the rank of the key sorted to it.
    chosen = np.empty(len(owner), dtype=bool)
    chosen[np.lexsort((keys, owner))] = slot < supports[owner]
    weights = weights + 1e-3
    weights /= np.repeat(np.add.reduceat(weights, np.cumsum(supports) - supports), supports)
    supports, dims = supports.tolist(), [d for group in dims for d in group]
    scenario_kinds = [kind for kind, count in zip(kinds, counts) for _ in range(count)]
    conds = [None] * len(dims)
    for kind in dict.fromkeys(kinds):
        at = [i for i, (k, d) in enumerate(zip(scenario_kinds, dims)) if k == kind and d > 1]
        drawn = _joined([x for x, k in zip(raw, kinds) if k == kind])
        for i, c in zip(at, _formed_conditionals(kind, drawn, [(supports[i], dims[i])
                                                              for i in at])):
            conds[i] = c
    at = [i for i, d in enumerate(dims) if d == 1]
    ones = [supports[i] for i in at]
    for i, c in zip(at, _split(np.ones((sum(ones), 1, 1), dtype=complex), ones)):
        conds[i] = c
    return _split(list(zip(_split(slot[chosen], supports), _split(weights, supports), conds)),
                  counts)


def _formed_conditionals(kind: str, raw: np.ndarray, shapes: list) -> list:
    """The conditionals of each (support, d) of ``shapes``, in order, from the flat ``raw``
    draw of kind ``kind`` that :func:`_raw_blocks` takes for them.

    "mixed" gives the (support, 2, d, d) standard normals of Ginibre
    densities, views left unformed for :func:`_formed_group`; "pure" the pure
    states that one :func:`pure_states` per side dimension d forms from
    (support, 2, d) standard normals; "one-hot" the states |i><i| of the
    drawn indices i.
    """
    if kind == "mixed":
        return _shaped(raw, [(s, 2, d, d) for s, d in shapes])
    out = [None] * len(shapes)
    width = [2 * d if kind == "pure" else 1 for _, d in shapes]   # raw numbers a conditional
    for d in dict.fromkeys(d for _, d in shapes):
        at = [i for i, (_, e) in enumerate(shapes) if e == d]
        x = raw[np.repeat([e == d for _, e in shapes], [s * w for (s, _), w in zip(shapes, width)])]
        if kind == "pure":
            states = pure_states(x.reshape(-1, 2, d))
        else:
            # |i><i| is row i·(d + 1) of the d²×d² identity, taken as a d×d matrix.
            states = np.eye(d * d, dtype=complex)[x * (d + 1)].reshape(-1, d, d)
        for i, c in zip(at, _split(states, [shapes[i][0] for i in at])):
            out[i] = c
    return out


def _joined(arrays) -> np.ndarray:
    """``arrays`` end to end: the one array itself, not a copy, when there is one, so a
    single block's draws are held once."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _split(flat, lengths: list) -> list:
    """Consecutive views of ``flat``, one of each of ``lengths``."""
    return [flat[end - n:end] for n, end in zip(lengths, itertools.accumulate(lengths))]


def _shaped(flat: np.ndarray, shapes: list) -> list:
    """Consecutive views of ``flat``, one of each of ``shapes``."""
    return [x.reshape(shape)
            for x, shape in zip(_split(flat, [math.prod(shape) for shape in shapes]), shapes)]


def _standard_normals(rng: np.random.Generator, shapes: list) -> list:
    """Standard normals of each of ``shapes``, in order, from one generator call: views
    of one draw, as consecutive calls of each shape would take them."""
    return _shaped(rng.standard_normal(sum(math.prod(shape) for shape in shapes)), shapes)


def _formed_group(names, drawn):
    """Drawn cq-states of one side dimension, formed and validated at once.

    ``names`` are the n-bit symbols in index order, and ``drawn`` holds each
    state's (indices, weights, conds) as :func:`_random_blocks_many` returns
    them for n bits.  Conds of shape (support, 2, d, d) are the standard
    normals of Ginibre densities, formed by one :func:`ginibre_densities`
    for the group, each as it is formed alone.  Each distribution is
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


def _random_source(n: int, rng: np.random.Generator, trivial: bool = False) -> tuple:
    """A random flat n-bit source under bb84 or random_pure side information, drawn raw:
    (model, draw), the draw (n, indices, weights, conds) of :func:`_flat_draw` for
    :func:`_random_cqs` to form with the other sources of its check.

    With ``trivial`` the side model and its params are drawn all the same, so
    the generator moves as for a quantum source, and the draw is the flat
    distribution under a trivial side register: ("trivial", draw).
    """
    k_target = int(rng.integers(max(1, n - 2), n + 1))
    rule = "prefix" if rng.random() < 0.5 else "random"
    indices = _flat_indices(n, k_target, rule, seed=int(rng.integers(2 ** 31)))
    model = "bb84" if rng.random() < 0.5 else "random_pure"
    if model == "bb84":
        params = {"bits": int(rng.integers(1, min(2, n) + 1))}
    else:
        params = {"dim": int(rng.integers(2, 5))}
    seed = int(rng.integers(2 ** 31))
    if trivial:
        model = "trivial"
    return model, _flat_draw(n, indices, model, params, seed)


# The widest n that the CLI's `entropy` markov form accepts.  It bounds no memory: each
# factor is solved alone, at most 2^n blocks of side dimension 1 or 2.
MARKOV_N_MAX = 8
MARKOV_BLOCKS_MAX = 3


def _markov_draw(n: int, n_blocks: int, seed: int, classical: bool = False):
    """What :func:`make_markov_scenario` draws, before its states are formed: (weights,
    factors), :func:`_markov_draws` of a batch of one."""
    return _markov_draws([(n, n_blocks, seed, classical)])[0]


def _markov_draws(specs) -> list:
    """The (weights, factors) of each (n, n_blocks, seed, classical) of ``specs``, in order,
    each bit for bit what it gives alone.

    ``factors`` holds per block the draws (n, indices, weights, conds) of its
    two factors, side dimension 1 or 2 each.  Each scenario draws from its
    own generator, ``default_rng(seed)``, in six calls whatever the block
    count and supports: the block weights, each factor's side dimension, and
    the factors as one block of :func:`_raw_blocks`, with one-hot (classical)
    or pure conditionals.  The rest is done once for the batch: the block
    weights normalised per block count, each row by its own sum as one
    scenario's ``w / w.sum()``, and the factors ranked, normalised and formed
    by one :func:`_drawn_blocks`.
    """
    raw_weights, raws = [], []
    for n, n_blocks, seed, classical in specs:
        rng = np.random.default_rng(seed)
        raw_weights.append(rng.random(n_blocks))
        dims = rng.integers(1, 3, size=2 * n_blocks)
        raws.append(_raw_blocks(np.full(2 * n_blocks, n), dims, rng,
                                conds="one-hot" if classical else "pure"))
    weights = [None] * len(specs)
    for count in dict.fromkeys(map(len, raw_weights)):
        at = [i for i, w in enumerate(raw_weights) if len(w) == count]
        rows = np.array([raw_weights[i] for i in at]) + 0.2
        for i, row in zip(at, (rows / rows.sum(axis=1, keepdims=True)).tolist()):
            weights[i] = tuple(row)
    return [(w, [((n, *f1), (n, *f2)) for f1, f2 in zip(block[::2], block[1::2])])
            for (n, *_), w, block in zip(specs, weights, _drawn_blocks(raws))]


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
