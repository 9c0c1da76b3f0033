"""Check registry: one entry per verified inequality family.

A check is data: the params it accepts, each with its default and any
limit of its own, and a generator that turns (params, rng) into a stream
of cases.  A case holds
the report params, a scenario label and one (bound_id, measured, epsilon)
row per comparison.  :func:`run_check` does the rest in the same way for
every check: it resolves the entry, seeds the rng, times each case,
numbers the scenarios and emits one BoundReport per row.  A check may
evaluate its scenarios in batches; its cases keep their draw order, and the
first case after a batch carries the batch's time.
A row passes iff measured <= epsilon + 1e-9.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from ..cq_states import (
    _traces,
    apply_classical_function,
    classical_state,
    flat_grid_distances,
    markov_block_state,
    padded_stacks,
    pair_cmis,
    product_distances,
    relabelled_stacks,
    weak_distances,
)
from ..entropies import h2_cond_many, h2_rel, h_min_cond_many, h_min_markov_sources, h_min_rel
from ..extractors import deor_extractor, ip_extractor
from ..gf2 import (
    MAX_TABLE_BITS,
    all_bit_vectors,
    bits_to_index,
    build_field_family,
    build_shift_family,
    gf2_images,
    gf2_rank,
    index_to_bits,
)
from ..operators import (
    ginibre_densities,
    hermitian_trace_norms,
    partial_trace,
    random_density,
    tensor,
)
from ..xor_analysis import (
    MAX_FOURIER_BITS,
    MatrixValuedFunction,
    fourier_bounds,
    l2_distances_to_uniform,
    measured_xor_bounds,
    mvf_fourier,
    mvf_l2_norm,
    pgm_stacks,
)
from .bounds import BOUND_IDS, CATALOG, base_exponent, bound_value
from .params import NATURALS, resolved
from .scenarios import (
    MARKOV_BLOCKS_MAX,
    SIDE_PARAMS,
    _formed_group,
    _ginibre_normals,
    _markov_draw,
    _markov_scenarios,
    _random_blocks,
    _random_cqs,
    _random_source,
    make_flat_source,
    make_side_info,
)

PASS_TOL = 1e-9
ENTROPY_SLACK = 1e-6
FAMILY_BUILDERS = {"field": build_field_family, "shift": build_shift_family}
WEAK_N_MIN = 3      # b8-weak-quantum draws n from WEAK_N_MIN..n_max
MARKOV_M_MAX = 2    # b2-markov draws m from 1..min(MARKOV_M_MAX, n)
# The widest source a check draws: output tables cover 2^(2n) input pairs.
SOURCE_N_MAX = MAX_TABLE_BITS // 2
EXHAUSTIVE_N_MAX = 4    # hmin-linear-drop enumerates all 2^(n²) maps: 65536 at n = 4
# A group of drawn scenarios (_in_groups) is evaluated as soon as it weighs
# this much, which bounds a pass's memory for any count.  A random-state
# scenario with m-bit outputs on a dim-dimensional side weighs 4^m·dim², about
# the complex entries of its 2^m − 1 masked block pairs in measured_xor_bounds,
# and no built-in suite fills such a group; a pgm-commutation scenario weighs
# 2^n·dim², the entries of its padded n-bit stack, and no built-in suite fills
# its groups either; a one-two-norm scenario weighs
# 16·(dim_a·dim_b)², and the built-in suites fill its larger groups; an
# hmin-le-h2 scenario weighs its blocks' N·dim² entries, at most 72, and no
# built-in suite fills its one group; a markov-cmi scenario weighs 4^n·d_C², the
# entries of its padded (2^n, 2^n, d_C, d_C) stack, and no built-in suite fills
# its groups either.
BLOCK_BUDGET = 1 << 16
# bound-ordering draws its tries this many at a time; about 28 % of them are kept.
ORDERING_BLOCK = 1024
CLASSICAL_SIDES = ("trivial", "classical_leak")     # flat grids count these exactly
# The values of a param that its type alone does not pin down, and their name;
# a check's own choices (``Check.choices``) take precedence.
CHOICES = {"families": ("family kind", tuple(FAMILY_BUILDERS)),
           "sides": ("side-information model", tuple(SIDE_PARAMS)),
           "bounds": ("bound id", BOUND_IDS),
           "strong_in": ("strong_in", ("x1", "x2")),
           "n_max": ("n_max", range(1, SOURCE_N_MAX + 1)),
           "ns": ("ns", range(1, SOURCE_N_MAX + 1))}


@dataclass(frozen=True)
class BoundReport:
    """One report row.  The rows of one case share their params and flags dicts."""

    check_id: str
    bound_id: str
    params: dict
    measured_delta: float
    bound_epsilon: float
    runtime_ms: float
    scenario: str
    flags: dict

    @property
    def passed(self) -> bool:
        """measured ≤ ε + PASS_TOL; a Python bool even for numpy inputs, which
        compare to an ``np.bool_`` that reports refuse."""
        return bool(self.measured_delta <= self.bound_epsilon + PASS_TOL)


class Case(NamedTuple):
    """One scenario of a check and the comparisons made on it."""

    params: dict     # n, m, r, k1, k2 as built by _k_params
    label: str       # scenario text; run_check prefixes "sNNNNN "
    rows: list       # (bound_id, measured, epsilon) tuples
    flags: dict = {}     # read only; run_check copies it once per case


class Check(NamedTuple):
    """Every accepted param with its default, the case generator and the check's own limits."""

    defaults: dict
    cases: Callable[[dict, np.random.Generator], Iterator[Case]]
    choices: dict       # (noun, values) per param, over CHOICES
    max_m: Callable[[dict], int] | None     # the widest output drawn, for a check with bounds


CHECKS: dict[str, Check] = {}


def _check(check_id: str, choices=None, max_m=None, **defaults):
    def register(cases):
        CHECKS[check_id] = Check(defaults, cases, choices or {}, max_m)
        return cases
    return register


@functools.lru_cache(maxsize=None)
def _extractor(kind: str, n: int, m: int):
    """The deor extractor of the (kind, n, m) family, built once, so every scenario
    on the family shares its output table."""
    return deor_extractor(FAMILY_BUILDERS[kind](n, m))


def _k_params(n, m, r, k1, k2):
    # + 0.0 normalizes -0.0 so serialized reports are visually clean
    return {"n": n, "m": m, "r": r,
            "k1": max(float(k1), 0.0) + 0.0, "k2": max(float(k2), 0.0) + 0.0}


def _catalog(bounds, params: dict, measured) -> list:
    return [(b, measured, bound_value(b, params)) for b in bounds]


def _random_extractor(rng: np.random.Generator, n_min: int, n_max: int, m_max: int):
    n = int(rng.integers(n_min, n_max + 1))
    m = int(rng.integers(1, min(m_max, n) + 1))
    kind = "field" if rng.random() < 0.5 else "shift"
    return kind, _extractor(kind, n, m)


def _random_deor_output(rng, n_min: int, n_max: int, m_max: int, strong_in):
    """A random family's extractor and two random flat sources: the family kind, the
    extractor, the sources' models ("bb84,random_pure", for example) and the two
    sources, whose output distance :func:`product_distances` gives.

    Each source draws a bb84 or random_pure side model (:func:`_random_source`).
    For a strong output the copied source (``strong_in``) keeps only its flat
    distribution, under a trivial side register: its side register never
    enters the strong distance, and a quantum one could only lower its
    certified min-entropy, and so loosen every bound, without moving the
    distance.  Its k is then exact, from the closed form.  The generator
    moves as for two quantum sources.
    """
    kind, ext = _random_extractor(rng, n_min, n_max, m_max)
    (model1, state1), (model2, state2) = (_random_source(ext.n, rng, trivial=strong_in == "x1"),
                                          _random_source(ext.n, rng, trivial=strong_in == "x2"))
    return kind, ext, f"{model1},{model2}", state1, state2


def _with_sources_solved(scenarios) -> list:
    """The drawn ``scenarios``, each a tuple ending in its two sources, in draw order,
    each followed by its sources' ``h_min_cond`` results.

    Every scenario is drawn before one :func:`h_min_cond_many` solves all the
    sources; the solver draws nothing, so every draw stays where a
    per-scenario loop makes it.
    """
    scenarios = list(scenarios)
    results = h_min_cond_many([state for *_, s1, s2 in scenarios for state in (s1, s2)])
    return [(*scenario, results[2 * i], results[2 * i + 1])
            for i, scenario in enumerate(scenarios)]


def _source_flags(res1, res2) -> dict:
    """The convergence flags of the two sources' ``h_min_cond`` results."""
    return {"converged1": res1.converged, "converged2": res2.converged}


def _flat_sources(n: int, side: str) -> tuple[list, list]:
    """The prefix-flat n-bit sources, k = 0..n, under one side model, and their certified k."""
    states = [make_side_info(side, make_flat_source(n, k)) for k in range(n + 1)]
    return states, [res.value for res in h_min_cond_many(states)]


def _flat_grid(ext, side: str, states: list, strong_in) -> list:
    """The strong distance of every (k1, k2) pair of the prefix-flat ``states``: grid[k1][k2].

    Under a classical side model (``side`` in ``CLASSICAL_SIDES``) one
    integer pass over ``ext.table``, :func:`flat_grid_distances`, gives every
    distance; besides the table it holds O(2^n·2^m·d) counts.  The side
    symbol of each input is read off the full-support state's diagonal
    blocks.  Quantum side models take the product route, one
    :func:`product_distances` call over every pair of the grid, which every
    product check uses.
    """
    if side in CLASSICAL_SIDES:
        labels = np.argmax(states[-1].stack.diagonal(axis1=1, axis2=2).real, axis=1)
        return flat_grid_distances(ext.table, ext.m, labels, strong_in).tolist()
    pairs = [(ext, s1, s2) for s1 in states for s2 in states]
    return product_distances(pairs, strong_in).reshape(len(states), -1).tolist()


# ---------------------------------------------------------------------------
# Extractor bound checks
# ---------------------------------------------------------------------------

@_check("b1-exhaustive-flat", ns=(3, 4), ms=(1, 2), families=("field", "shift"),
        sides=("trivial", "classical_leak"), bounds=("B1",), strong_in="x1",
        max_m=lambda p: max(p["ms"]))
def _b1_exhaustive(p, rng):
    """Exhaustive prefix-flat grid for the exact product-type bound."""
    sources = {(n, side): _flat_sources(n, side) for n in p["ns"] for side in p["sides"]}
    for kind in p["families"]:
        for n in p["ns"]:
            for m in p["ms"]:
                ext = _extractor(kind, n, m)
                for side in p["sides"]:
                    states, ks = sources[n, side]
                    grid = _flat_grid(ext, side, states, p["strong_in"])
                    for k1, k2 in itertools.product(range(n + 1), repeat=2):
                        kp = _k_params(n, m, ext.family.r, ks[k1], ks[k2])
                        yield Case(kp, f"{kind} n={n} m={m} side={side} flat=({k1},{k2})",
                                   _catalog(p["bounds"], kp, grid[k1][k2]))


@_check("b1-quantum-product", count=200, n_min=3, n_max=5, m_max=3,
        bounds=("B1", "B6", "B3", "B4"), strong_in="x1",
        max_m=lambda p: min(p["m_max"], p["n_max"]))
def _b1_quantum(p, rng):
    """Randomized product-type scenarios, quantum side information on the source
    that is not copied (:func:`_random_deor_output`), with certified entropies.

    Every scenario is drawn first; one :func:`product_distances` call gives
    every distance and one :func:`h_min_cond_many` every entropy
    (:func:`_with_sources_solved`).
    """
    drawn = [_random_deor_output(rng, p["n_min"], p["n_max"], p["m_max"], p["strong_in"])
             for _ in range(p["count"])]
    deltas = product_distances([(ext, s1, s2) for _, ext, _, s1, s2 in drawn], p["strong_in"])
    for (kind, ext, models, _, _, res1, res2), delta in zip(_with_sources_solved(drawn),
                                                           deltas.tolist()):
        kp = _k_params(ext.n, ext.m, ext.family.r, res1.value, res2.value)
        yield Case(kp, f"{kind} n={ext.n} m={ext.m} sides=({models})",
                   _catalog(p["bounds"], kp, delta), _source_flags(res1, res2))


@_check("b8-weak-quantum", count=50, n_max=4,
        choices={"n_max": ("n_max", range(WEAK_N_MIN, SOURCE_N_MAX + 1))})
def _b8_weak(p, rng):
    """Weak-output variant, both sources quantum.

    Every scenario is drawn first; one weak :func:`product_distances` call
    gives every distance, from the output blocks Σ_x1 ρ_x1 ⊗ A_{x1,z}, and
    one :func:`h_min_cond_many` every entropy (:func:`_with_sources_solved`).
    """
    drawn = [_random_deor_output(rng, WEAK_N_MIN, p["n_max"], 2, None)
             for _ in range(p["count"])]
    deltas = product_distances([(ext, s1, s2) for _, ext, _, s1, s2 in drawn])
    for (kind, ext, _, _, _, res1, res2), delta in zip(_with_sources_solved(drawn),
                                                       deltas.tolist()):
        kp = _k_params(ext.n, ext.m, ext.family.r, res1.value, res2.value)
        yield Case(kp, f"{kind} n={ext.n} m={ext.m} weak", _catalog(("B8",), kp, delta),
                   _source_flags(res1, res2))


@_check("b2-markov", count=40, n_min=2, n_max=4, bounds=("B2", "B5", "B10", "B11"),
        max_m=lambda p: min(MARKOV_M_MAX, p["n_max"]))
def _b2_markov(p, rng):
    """Markov block scenarios against the Markov-model bound family.

    Every scenario is drawn first (:func:`_markov_draw`), then all are
    formed together (:func:`_markov_scenarios`), and their marginals are
    solved together (:func:`h_min_markov_sources`).  C is a direct sum over
    blocks, so the distance is sum_j w_j delta_j over the blocks' products,
    in block order; one :func:`product_distances` call gives every block's
    delta_j.
    """
    drawn = []
    for _ in range(p["count"]):
        kind, ext = _random_extractor(rng, p["n_min"], p["n_max"], MARKOV_M_MAX)
        classical = bool(rng.random() < 0.5)
        blocks = int(rng.integers(2, MARKOV_BLOCKS_MAX + 1))
        drawn.append((kind, ext, classical, blocks, _markov_draw(
            ext.n, blocks, seed=int(rng.integers(2 ** 31)), classical=classical)))
    scenarios = _markov_scenarios([draw for *_, draw in drawn])
    deltas = iter(product_distances([(ext, s1, s2) for (_, ext, *_), scn in zip(drawn, scenarios)
                                     for s1, s2 in scn.factors], "x1").tolist())
    for (kind, ext, classical, blocks, _), scn, (res1, res2) in zip(
            drawn, scenarios, h_min_markov_sources(scenarios)):
        delta = sum(w * next(deltas) for w in scn.weights)
        kp = _k_params(ext.n, ext.m, ext.family.r, res1.value, res2.value)
        model = "classical-markov" if classical else "quantum-markov"
        yield Case(kp, f"{kind} n={ext.n} m={ext.m} {model} blocks={blocks}",
                   _catalog(p["bounds"], kp, delta), _source_flags(res1, res2))


@_check("ip-classical", ns=(2, 3, 4), sides=("trivial", "classical_leak"))
def _ip_classical(p, rng):
    """Exhaustive flat grid for the inner-product extractor."""
    for n in p["ns"]:
        ext = ip_extractor(n)
        for side in p["sides"]:
            states, ks = _flat_sources(n, side)
            grid = _flat_grid(ext, side, states, "x1")
            for k1, k2 in itertools.product(range(n + 1), repeat=2):
                kp = _k_params(n, ext.m, ext.family.r, ks[k1], ks[k2])
                yield Case(kp, f"ip n={n} side={side} flat=({k1},{k2})",
                           _catalog(("B7",), kp, grid[k1][k2]))


# ---------------------------------------------------------------------------
# Markov structure and identity checks
# ---------------------------------------------------------------------------

@_check("markov-cmi", count=100)
def _markov_cmi(p, rng):
    """Conditional mutual information of constructed Markov block states.

    Every scenario is drawn first (:func:`_markov_draw`) and all are formed
    together (:func:`_markov_scenarios`).  The scenarios are then grouped by
    (n, d_C) (:func:`_in_groups`); a group builds each state with
    :func:`markov_block_state`, pads their blocks into one (P, 2^n, 2^n, d_C,
    d_C) stack and takes their CMIs with one :func:`pair_cmis`, which never
    forms the dense 4^n·d_C operator.  A scenario weighs 4^n·d_C², the
    entries of its padded stack.
    """
    drawn = []
    for _ in range(p["count"]):
        n = int(rng.integers(1, 3))
        classical = bool(rng.random() < 0.3)
        drawn.append((n, _markov_draw(n, int(rng.integers(2, MARKOV_BLOCKS_MAX + 1)),
                                      seed=int(rng.integers(2 ** 31)), classical=classical)))
    scenarios = _markov_scenarios([draw for _, draw in drawn])

    def draws():
        for (n, _), scn in zip(drawn, scenarios):
            side = sum(s1.side_dim * s2.side_dim for s1, s2 in scn.factors)
            yield (n, side), 4 ** n * side ** 2, scn

    def evaluate(key, items):
        n, side = key
        alphabet = all_bit_vectors(n)
        slot = {(a, b): i for i, (a, b) in enumerate(itertools.product(alphabet, repeat=2))}
        states = [markov_block_state(scn) for scn in items]
        stacks, present = padded_stacks(
            [(s.stack, np.array([slot[sym] for sym in s.symbols()])) for s in states], len(slot))
        shape = (len(items), len(alphabet), len(alphabet))
        cmis = pair_cmis(stacks.reshape(shape + (side, side)), present.reshape(shape))
        return [(side, cmi) for cmi in cmis.tolist()]

    for (n, _), scn, (side, cmi) in zip(drawn, scenarios, _in_groups(draws(), evaluate)):
        yield Case(_k_params(n, 1, 0, 0.0, 0.0),
                   f"markov-cmi n={n} blocks={len(scn.weights)} side={side}",
                   [("cmi-zero", cmi, 0.0)])


def _in_groups(draws, evaluate) -> list:
    """The results of drawn scenarios, evaluated group by group, in draw order.

    ``draws`` yields (key, weight, item) per scenario, and ``evaluate(key,
    items)`` returns one result per item of a group.  A group is evaluated
    as soon as its draws weigh BLOCK_BUDGET, and the rest after the last
    draw.  The evaluations draw no random numbers, so every draw is where
    a per-scenario loop makes it.
    """
    results, members, weights = [], {}, {}

    def flush(key):
        del weights[key]
        at, items = zip(*members.pop(key))
        for i, result in zip(at, evaluate(key, items)):
            results[i] = result

    for key, weight, item in draws:
        members.setdefault(key, []).append((len(results), item))
        results.append(None)
        weights[key] = weights.get(key, 0) + weight
        if weights[key] >= BLOCK_BUDGET:
            flush(key)
    for key in list(members):
        flush(key)
    return results


def _random_output_groups(p, rng, m_max: int, dim_max: int, bound, with_sigma=False) -> list:
    """(m, dim, delta, bound value) per scenario of a random-state check, in draw order.

    Each of the ``p["count"]`` scenarios draws m and dim, then what a random
    cq-state with m-bit outputs on a dim-dimensional side register
    (:func:`_random_blocks`) and, ``with_sigma``, a random density sigma
    draw, in that order; it holds its distribution, slots and raw standard
    normals (:func:`_ginibre_normals`).  Each (m, dim) group
    (:func:`_in_groups`) is formed and validated at once by
    :func:`_formed_group`: one :func:`ginibre_densities`, one
    :func:`check_unit_traces` naming the symbol, and one
    ``check_blocks(..., normalized=True)``.  Its sigmas are formed by one
    more :func:`ginibre_densities`, and the group is evaluated in one stacked
    pass: :func:`weak_distances` and ``bound(stacks, present, sigmas)``, with
    ``sigmas`` None unless ``with_sigma``.  A scenario weighs 4^m·dim².
    """
    def draws():
        for _ in range(p["count"]):
            m = int(rng.integers(1, m_max + 1))
            dim = int(rng.integers(1, dim_max + 1))
            drawn = _random_blocks(m, dim, rng, draw=_ginibre_normals)
            sigma = _ginibre_normals(1, dim, rng) if with_sigma else None
            yield (m, dim), (1 << 2 * m) * dim * dim, (drawn, sigma)

    def evaluate(key, items):
        drawn, sigmas = zip(*items)
        padded, present, _ = _formed_group(all_bit_vectors(key[0]), drawn)
        values = bound(padded, present,
                       ginibre_densities(np.concatenate(sigmas)) if with_sigma else None)
        return [key + pair for pair in zip(weak_distances(padded, present).tolist(),
                                           values.tolist())]

    return _in_groups(draws(), evaluate)


@_check("measured-xor-random", count=1000, m_max=2, dim_max=3,
        choices={"m_max": ("m_max", range(1, MAX_FOURIER_BITS + 1)),    # the transform's cap
                 "dim_max": ("dim_max", range(1, 17))})     # m = 12, dim = 16: 3 s a scenario
def _measured_xor(p, rng):
    """Distance to uniform against the masked-bit measured bound.

    All scenarios are drawn and evaluated, each (m, dim) group in one stacked
    pass, before the first case.
    """
    for m, dim, delta, bound in _random_output_groups(
            p, rng, p["m_max"], p["dim_max"],
            lambda stacks, present, _: measured_xor_bounds(stacks, present)):
        yield Case(_k_params(m, m, 0, 0.0, 0.0), f"xor m={m} dim={dim}",
                   [("measured-xor", delta, bound)])


@_check("useful-prop-random", count=1000)
def _useful_prop(p, rng):
    """Squared distance against the Fourier-side bound for arbitrary sigma.

    Drawn and evaluated in (m, dim) groups as ``measured-xor-random`` is.
    """
    for m, dim, delta, bound in _random_output_groups(
            p, rng, 2, 3, lambda stacks, _, sigmas: fourier_bounds(stacks, sigmas),
            with_sigma=True):
        yield Case(_k_params(m, m, 0, 0.0, 0.0), f"fourier m={m} dim={dim}",
                   [("fourier-rhs", delta ** 2, bound)])


@_check("parseval-random", count=100)
def _parseval(p, rng):
    """Norm preservation of the matrix-valued transform."""
    for _ in range(p["count"]):
        m = int(rng.integers(1, 4))
        d = int(rng.integers(1, 5))
        values = rng.standard_normal((1 << m, d, d)) + 1j * rng.standard_normal((1 << m, d, d))
        mvf = MatrixValuedFunction(values)
        dev = abs(mvf_l2_norm(mvf_fourier(mvf)) - mvf_l2_norm(mvf))
        yield Case(_k_params(m, m, 0, 0.0, 0.0), f"parseval m={m} d={d}",
                   [("parseval", dev, 0.0)])


def _commutation_deviations(key, items) -> list:
    """max |pgm(relabelled) − relabelled(pgm)| of each drawn state of one group, in order.

    ``key`` is the group's (n_bits, dim, out_bits) and ``items`` hold each
    state's draw, (indices, weights, normals) as :func:`_random_blocks`
    returns them, and the output index of each of its symbols in ascending
    order.  The group is formed by one :func:`_formed_group`, both sides are
    measured by one :func:`pgm_stacks` call each and relabelled by one
    :func:`relabelled_stacks` each, and each state's value is the largest
    entry of its difference.
    """
    n_bits, _, out_bits = key
    drawn, images = zip(*items)
    padded, present, _ = _formed_group(all_bit_vectors(n_bits), drawn)
    table = np.zeros(present.shape, dtype=np.intp)
    table[present] = np.concatenate(images)
    lhs = pgm_stacks(*relabelled_stacks(padded, present, table, 1 << out_bits))
    rhs, _ = relabelled_stacks(pgm_stacks(padded, present), present, table, 1 << out_bits)
    return np.max(np.abs(lhs - rhs), axis=(1, 2, 3)).tolist()


@_check("pgm-commutation", count=200)
def _pgm_commutation(p, rng):
    """Measurement-then-relabel equals relabel-then-measurement, elementwise.

    Each scenario draws n_bits and dim, a random cq-state's raw draw
    (:func:`_random_blocks` with :func:`_ginibre_normals`), out_bits, and
    one output index per symbol of its support in ascending order.  Each
    (n_bits, dim, out_bits) group (:func:`_in_groups`) is evaluated by
    :func:`_commutation_deviations`; a scenario weighs 2^n·dim².
    """
    def draws():
        for _ in range(p["count"]):
            n_bits = int(rng.integers(1, 4))
            dim = int(rng.integers(2, 5))
            drawn = _random_blocks(n_bits, dim, rng, min_support=2, draw=_ginibre_normals)
            out_bits = int(rng.integers(1, 3))
            images = [int(rng.integers(1 << out_bits)) for _ in drawn[0]]
            yield (n_bits, dim, out_bits), (dim * dim) << n_bits, (drawn, images)

    def evaluate(key, items):
        return [key + (dev,) for dev in _commutation_deviations(key, items)]

    for n_bits, dim, out_bits, dev in _in_groups(draws(), evaluate):
        yield Case(_k_params(n_bits, out_bits, 0, 0.0, 0.0),
                   f"pgm-commute n={n_bits} dim={dim} out={out_bits}",
                   [("channel-equality", dev, 0.0)])


@_check("hmin-linear-drop", exhaustive_n=3, random_ns=(4, 5, 6), per_n=25,
        choices={"exhaustive_n": ("exhaustive_n", range(1, EXHAUSTIVE_N_MAX + 1)),
                 "random_ns": ("random_ns", range(1, SOURCE_N_MAX + 1))})
def _hmin_linear_drop(p, rng):
    """Entropy decrease under GF(2) maps bounded by the rank deficiency.

    Maps with one kernel merge the inputs into the same cosets, so their
    lifted stacks hold bitwise-equal blocks in another order and one
    certificate serves them all: each source is lifted once per kernel.
    Every source and map is drawn first, the random sources raw
    (:func:`_random_blocks`), and one :func:`_random_cqs` forms them before
    any lift; one :func:`h_min_cond_many` then solves the sources and their
    lifts.
    """
    states, lifts, cases = [], {}, []   # lifts: (source, kernel) -> index into states

    def add(source, mat, label):
        # x maps to the index of M x, which sorts as the bit tuple M x does.
        images = gf2_images(mat)
        kernel = np.flatnonzero(images == 0).tobytes()
        if (source, kernel) not in lifts:
            lifts[source, kernel] = len(states)
            states.append(apply_classical_function(
                states[source], lambda x: int(images[bits_to_index(x)])))
        n = mat.shape[0]
        cases.append((source, lifts[source, kernel], n, n - gf2_rank(mat), label))

    n = p["exhaustive_n"]
    drawn = [(n, *_random_blocks(n, 2, rng, min_support=2, draw=_ginibre_normals))]
    flat = classical_state(make_flat_source(n, n - 1, "random", seed=int(rng.integers(2 ** 31))))
    maps = []
    for k in p["random_ns"]:
        drawn.append((k, *_random_blocks(k, int(rng.integers(1, 4)), rng, min_support=2,
                                         draw=_ginibre_normals)))
        maps.append([np.array(rng.integers(0, 2, size=(k, k)), dtype=np.uint8)
                     for _ in range(p["per_n"])])
    first, *sources = _random_cqs(drawn)
    states += [first, flat]
    for mat_idx in range(1 << (n * n)):
        mat = np.array(index_to_bits(mat_idx, n * n), dtype=np.uint8).reshape(n, n)
        add(mat_idx % 2, mat, "exhaustive")
    for source, mats in zip(sources, maps):
        states.append(source)
        at = len(states) - 1
        for mat in mats:
            add(at, mat, "random")
    results = h_min_cond_many(states)
    for source, lift, n, r, label in cases:
        base, lifted = results[source], results[lift]
        yield Case(_k_params(n, 1, r, base.value, lifted.value),
                   f"linear-drop {label} n={n} r={r}",
                   [("rank-drop", (base.value - r) - lifted.value, ENTROPY_SLACK)],
                   {"converged": base.converged and lifted.converged})


@_check("hmin-le-h2", count=500)
def _hmin_le_h2(p, rng):
    """Min-entropy below collision entropy, relative and optimized.

    The scenarios are drawn in order and evaluated in batches
    (:func:`_in_groups`, all in one group): one :func:`h2_cond_many` and one
    :func:`h_min_cond_many` give a batch's optimized entropies, and the
    relative entropies are taken per state.  A scenario weighs its blocks'
    complex entries, N·dim², at most 72, so the built-in counts fit in one
    batch.
    """
    def draws():
        for _ in range(p["count"]):
            n_bits = int(rng.integers(1, 4))
            dim = int(rng.integers(1, 4))
            drawn = (n_bits, *_random_blocks(n_bits, dim, rng, draw=_ginibre_normals))
            sigma = random_density(dim, rng) if dim > 1 else np.ones((1, 1), dtype=complex)
            yield None, len(drawn[1]) * dim * dim, (n_bits, dim, drawn, sigma)

    def evaluate(_, items):
        states = _random_cqs([drawn for _, _, drawn, _ in items])
        return [(n_bits, dim, h_min_rel(state, sigma) - h2_rel(state, sigma), hmin, h2)
                for (n_bits, dim, _, sigma), state, hmin, h2 in zip(
                    items, states, h_min_cond_many(states), h2_cond_many(states))]

    for n_bits, dim, rel_gap, hmin, h2 in _in_groups(draws(), evaluate):
        yield Case(_k_params(n_bits, 1, 0, 0.0, 0.0), f"entropy-order n={n_bits} dim={dim}",
                   [("relative", rel_gap, ENTROPY_SLACK),
                    ("optimized", hmin.value - h2.value, ENTROPY_SLACK)],
                   {"converged": hmin.converged and h2.converged})


@_check("one-two-norm", count=500)
def _one_two_norm(p, rng):
    """Trace distance bounded through the conjugated 2-distance.

    Each scenario draws dims, then the standard normals of rho_AB and of
    sigma_B as :func:`random_density` would, and sigma_B's scale; the
    densities are formed per (dim_a, dim_b) group (:func:`ginibre_densities`)
    and the group evaluated in one stacked pass.  A scenario weighs
    16·(dim_a·dim_b)², about the complex entries of every D×D operator its
    pass allocates, so a pass holds at most 16 scenarios of 16×16.
    """
    def draws():
        for _ in range(p["count"]):
            dim_a = int(rng.integers(2, 5))
            dim_b = int(rng.integers(2, 5))
            rho = rng.standard_normal((2, dim_a * dim_b, dim_a * dim_b))
            sigma = rng.standard_normal((2, dim_b, dim_b))
            yield ((dim_a, dim_b), 16 * (dim_a * dim_b) ** 2,
                   (rho, sigma, float(rng.uniform(0.5, 2.0))))

    def evaluate(dims, items):
        rhos, sigmas, scales = (np.array(column) for column in zip(*items))
        rhos = ginibre_densities(rhos)
        sigmas = ginibre_densities(sigmas) * scales[:, None, None]
        dim_a = dims[0]
        rho_b = partial_trace(rhos, dims, keep=(1,))
        deltas = 0.5 * hermitian_trace_norms(rhos - tensor(np.eye(dim_a) / dim_a, rho_b))
        rhs = 0.5 * np.sqrt(dim_a * _traces(sigmas)
                            * l2_distances_to_uniform(rhos, dim_a, sigmas))
        return [dims + pair for pair in zip(deltas.tolist(), rhs.tolist())]

    for dim_a, dim_b, delta, rhs in _in_groups(draws(), evaluate):
        yield Case(_k_params(dim_a, 1, 0, 0.0, 0.0), f"one-two-norm dims=({dim_a},{dim_b})",
                   [("two-norm-rhs", delta, rhs)])


def _ordering_block(rng: np.random.Generator) -> tuple:
    """One block of ``ORDERING_BLOCK`` tries (n, m, r, k1, k2) as five arrays, in
    five generator calls: n, then m given n, then r given (m, n), then k1 and k2
    given n.  n·random() is uniform(0, n) with an array n: the same values and
    generator state."""
    n = rng.integers(2, 25, size=ORDERING_BLOCK)
    m = rng.integers(1, np.minimum(8, n) + 1)
    r = rng.integers(0, np.minimum(m, n - 1) + 1)
    return n, m, r, n * rng.random(ORDERING_BLOCK), n * rng.random(ORDERING_BLOCK)


@_check("bound-ordering", count=10000)
def _bound_ordering(p, rng):
    """Pointwise comparison of the exact bound against the generic lifts.

    Rejection-samples the regime where the exact bound is nontrivial,
    ``base_exponent ≥ 0``.  Tries are drawn a block at a time
    (:func:`_ordering_block`), and a block's kept tries are taken in draw
    order before the next block is drawn, so at most one block is held.
    Tries are i.i.d., so the kept ones have the law of a per-try loop; and as
    the block size is fixed, the scenarios of any count are the first ones of
    every larger count.
    """
    def kept():
        while True:
            block = _ordering_block(rng)
            keep = base_exponent(*block) >= 0
            yield from zip(*(column[keep].tolist() for column in block))

    for n, m, r, k1, k2 in itertools.islice(kept(), p["count"]):
        kp = _k_params(n, m, r, k1, k2)
        b1 = bound_value("B1", kp)
        yield Case(kp, f"ordering n={n} m={m} r={r}",
                   [(other, b1, bound_value(other, kp)) for other in ("B6", "B4")])


CHECK_IDS = tuple(sorted(CHECKS))
# A check entry's keys with their defaults, and the values its id and seed may take.
ENTRY = {"id": "", "params": {}, "seed": 0}
ENTRY_CHOICES = {"id": ("check id", CHECK_IDS), "seed": ("seed", NATURALS)}


def resolve_params(check_id: str, params) -> dict:
    """The check's defaults overridden by ``params``, resolved with its choices over ``CHOICES``.

    Also refuses what ties two params together: an ``n_max`` below ``n_min``,
    an ``ms`` entry above the smallest ``ns`` entry, and a single-bit bound
    (one whose ``CATALOG`` row has ``only_m`` 1) in ``bounds`` where the
    check's ``max_m`` exceeds 1.
    """
    check = CHECKS[check_id]
    p = resolved(f"{check_id} params", params, check.defaults, {**CHOICES, **check.choices})
    if "n_min" in p and p["n_max"] < p["n_min"]:
        raise ValueError(f"{check_id}: param 'n_max' must be >= {p['n_min']}, got {p['n_max']}")
    if "ms" in p and max(p["ms"]) > min(p["ns"]):
        raise ValueError(f"{check_id}: every 'ms' entry must be <= the smallest 'ns' entry "
                         f"{min(p['ns'])}, got {max(p['ms'])}")
    single_bit = [b for b in p.get("bounds", ()) if CATALOG[b].only_m == 1]
    if single_bit and (m_top := check.max_m(p)) > 1:
        raise ValueError(f"{check_id}: bound {single_bit[0]!r} is for single-bit output, but "
                         f"the check draws m up to {m_top}")
    return p


def resolve_entry(entry) -> dict:
    """A check entry, ``{"id": ..., "params": {...}, "seed": ...}``, with its params resolved."""
    named = isinstance(entry, dict) and "id" in entry
    entry = resolved(f"check entry {entry['id']!r}" if named else "check entry", entry,
                     ENTRY, ENTRY_CHOICES, required=("id",))
    entry["params"] = resolve_params(entry["id"], entry["params"])
    return entry


def run_check(check_id: str, config: dict | None = None) -> list[BoundReport]:
    """Run one registered check, deterministic given ``config``'s params and seed.

    A row's ``runtime_ms`` is the time the generator took to yield its case.
    Whatever a check computes before it yields a case is charged to that
    case: a check that evaluates a batch (a grid, a group, a solve of all
    its sources) before its first case charges the whole batch to it, and
    the later cases of the batch take almost none.
    """
    entry = resolve_entry({**(config or {}), "id": check_id})
    cases = CHECKS[check_id].cases(entry["params"], np.random.default_rng(entry["seed"]))
    reports: list[BoundReport] = []
    t0 = time.perf_counter()
    for idx, case in enumerate(cases):
        runtime_ms = (time.perf_counter() - t0) * 1e3
        scenario = f"s{idx:05d} {case.label}"
        params, flags = dict(case.params), dict(case.flags)
        for bound_id, measured, epsilon in case.rows:
            reports.append(BoundReport(
                check_id=check_id,
                bound_id=bound_id,
                params=params,
                measured_delta=float(measured),
                bound_epsilon=float(epsilon),
                runtime_ms=runtime_ms,
                scenario=scenario,
                flags=flags,
            ))
        t0 = time.perf_counter()    # the next case's time is spent inside the generator
    return reports
