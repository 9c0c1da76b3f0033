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
import time
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from ..cq_states import (
    apply_classical_function,
    classical_state,
    distance_to_uniform,
    extractor_output_from_joint,
    extractor_output_state,
    flat_grid_distances,
    markov_block_state,
    padded_stacks,
    to_dense,
    weak_distances,
)
from ..entropies import h2_cond, h2_rel, h_min_cond, h_min_rel
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
    conditional_mutual_information,
    partial_trace,
    random_density,
    tensor,
    trace_distance,
)
from ..xor_analysis import (
    MAX_FOURIER_BITS,
    MatrixValuedFunction,
    fourier_bounds,
    l2_distance_to_uniform,
    measured_xor_bounds,
    mvf_fourier,
    mvf_l2_norm,
    output_slots,
    pgm,
)
from .bounds import BOUND_IDS, CATALOG, base_exponent, bound_value
from .params import NATURALS, resolved
from .scenarios import (
    MARKOV_BLOCKS_MAX,
    MARKOV_N_MAX,
    SIDE_PARAMS,
    _random_cq,
    _random_source,
    make_flat_source,
    make_markov_scenario,
    make_side_info,
    markov_marginals,
)

PASS_TOL = 1e-9
ENTROPY_SLACK = 1e-6
FAMILY_BUILDERS = {"field": build_field_family, "shift": build_shift_family}
WEAK_N_MIN = 3      # b8-weak-quantum draws n from WEAK_N_MIN..n_max
MARKOV_M_MAX = 2    # b2-markov draws m from 1..min(MARKOV_M_MAX, n)
# The widest source a check draws: output tables cover 2^(2n) input pairs.
SOURCE_N_MAX = MAX_TABLE_BITS // 2
EXHAUSTIVE_N_MAX = 4    # hmin-linear-drop enumerates all 2^(n²) maps: 65536 at n = 4
# A random-state scenario with m-bit outputs on a dim-dimensional side weighs
# 4^m·dim², about the complex entries of its 2^m − 1 masked block pairs in
# measured_xor_bounds; a group of them is evaluated as soon as it weighs this
# much, which bounds a pass's memory for any count.  No built-in suite reaches it.
BLOCK_BUDGET = 1 << 16
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
def _family(kind: str, n: int, m: int):
    return FAMILY_BUILDERS[kind](n, m)


def _k_params(n, m, r, k1, k2):
    # + 0.0 normalizes -0.0 so serialized reports are visually clean
    return {"n": n, "m": m, "r": r,
            "k1": max(float(k1), 0.0) + 0.0, "k2": max(float(k2), 0.0) + 0.0}


def _catalog(bounds, params: dict, measured) -> list:
    return [(b, measured, bound_value(b, params)) for b in bounds]


def _random_family(rng: np.random.Generator, n_min: int, n_max: int, m_max: int):
    n = int(rng.integers(n_min, n_max + 1))
    m = int(rng.integers(1, min(m_max, n) + 1))
    kind = "field" if rng.random() < 0.5 else "shift"
    return kind, _family(kind, n, m)


def _random_deor_output(rng, n_min: int, n_max: int, m_max: int, strong_in):
    """A random family and two quantum sources, with the output's distance to uniform."""
    kind, fam = _random_family(rng, n_min, n_max, m_max)
    s1, s2 = _random_source(fam.n, rng), _random_source(fam.n, rng)
    out = extractor_output_state(deor_extractor(fam), s1.state, s2.state, strong_in)
    delta = distance_to_uniform(out, 1 << fam.m, strong=strong_in is not None)
    return kind, fam, s1, s2, delta


def _source_flags(res1, res2) -> dict:
    """The convergence flags of the two sources' ``h_min_cond`` results."""
    return {"converged1": res1.converged, "converged2": res2.converged}


def _flat_sources(n: int, side: str) -> list:
    """The prefix-flat n-bit sources, k = 0..n, under one side model."""
    return [make_side_info(side, make_flat_source(n, k)) for k in range(n + 1)]


def _flat_grid(ext, sources: list, strong_in):
    """Every (k1, k2) pair of the prefix-flat ``sources``, with its strong distance.

    Under a classical side model (``CLASSICAL_SIDES``) one integer pass over
    ``ext.table``, :func:`flat_grid_distances`, gives every distance; besides
    the table it holds O(2^n·2^m·d) counts.  The side symbol of each input is
    read off the full-support source's diagonal blocks.  Quantum side models
    take the cq-state route, :func:`extractor_output_state` and
    :func:`distance_to_uniform` per pair, which every quantum check uses and
    which is the counting route's oracle in the tests.  Either way the whole
    grid is computed before its first pair is yielded, so the first case's
    ``runtime_ms`` carries the grid's time.
    """
    if sources[0].model in CLASSICAL_SIDES:
        full = sources[-1].state.stack
        labels = np.argmax(full.diagonal(axis1=1, axis2=2).real, axis=1)
        deltas = flat_grid_distances(ext.table, ext.m, labels, strong_in).tolist()
    else:
        deltas = [[distance_to_uniform(extractor_output_state(ext, s1.state, s2.state, strong_in),
                                       1 << ext.m, strong=True) for s2 in sources]
                  for s1 in sources]
    for k1, s1 in enumerate(sources):
        for k2, s2 in enumerate(sources):
            yield k1, k2, s1, s2, deltas[k1][k2]


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
                fam = _family(kind, n, m)
                ext = deor_extractor(fam)
                for side in p["sides"]:
                    for k1, k2, s1, s2, delta in _flat_grid(ext, sources[n, side], p["strong_in"]):
                        kp = _k_params(n, m, fam.r, s1.k, s2.k)
                        yield Case(kp, f"{kind} n={n} m={m} side={side} flat=({k1},{k2})",
                                   _catalog(p["bounds"], kp, delta))


@_check("b1-quantum-product", count=200, n_min=3, n_max=5, m_max=3,
        bounds=("B1", "B6", "B3", "B4"), strong_in="x1",
        max_m=lambda p: min(p["m_max"], p["n_max"]))
def _b1_quantum(p, rng):
    """Randomized quantum product-type scenarios with solver-certified entropies."""
    for _ in range(p["count"]):
        kind, fam, s1, s2, delta = _random_deor_output(
            rng, p["n_min"], p["n_max"], p["m_max"], p["strong_in"])
        kp = _k_params(fam.n, fam.m, fam.r, s1.k, s2.k)
        yield Case(kp, f"{kind} n={fam.n} m={fam.m} sides=({s1.model},{s2.model})",
                   _catalog(p["bounds"], kp, delta), _source_flags(s1.hmin, s2.hmin))


@_check("b8-weak-quantum", count=50, n_max=4,
        choices={"n_max": ("n_max", range(WEAK_N_MIN, SOURCE_N_MAX + 1))})
def _b8_weak(p, rng):
    """Weak-output variant: same pipeline with no copied source register."""
    for _ in range(p["count"]):
        kind, fam, s1, s2, delta = _random_deor_output(rng, WEAK_N_MIN, p["n_max"], 2, None)
        kp = _k_params(fam.n, fam.m, fam.r, s1.k, s2.k)
        yield Case(kp, f"{kind} n={fam.n} m={fam.m} weak", _catalog(("B8",), kp, delta),
                   _source_flags(s1.hmin, s2.hmin))


@_check("b2-markov", count=40, n_min=2, n_max=4, bounds=("B2", "B5", "B10", "B11"),
        max_m=lambda p: min(MARKOV_M_MAX, p["n_max"]),
        choices={"n_max": ("n_max", range(1, MARKOV_N_MAX + 1))})  # its joint state's size
def _b2_markov(p, rng):
    """Markov block scenarios against the Markov-model bound family."""
    for _ in range(p["count"]):
        kind, fam = _random_family(rng, p["n_min"], p["n_max"], MARKOV_M_MAX)
        classical = bool(rng.random() < 0.5)
        blocks = int(rng.integers(2, MARKOV_BLOCKS_MAX + 1))
        joint, res1, res2 = markov_marginals(fam.n, blocks, seed=int(rng.integers(2 ** 31)),
                                             classical=classical)
        out = extractor_output_from_joint(deor_extractor(fam), joint, "x1")
        delta = distance_to_uniform(out, 1 << fam.m, strong=True)
        kp = _k_params(fam.n, fam.m, fam.r, res1.value, res2.value)
        model = "classical-markov" if classical else "quantum-markov"
        yield Case(kp, f"{kind} n={fam.n} m={fam.m} {model} blocks={blocks}",
                   _catalog(p["bounds"], kp, delta), _source_flags(res1, res2))


@_check("ip-classical", ns=(2, 3, 4), sides=("trivial", "classical_leak"))
def _ip_classical(p, rng):
    """Exhaustive flat grid for the inner-product extractor."""
    for n in p["ns"]:
        ext = ip_extractor(n)
        for side in p["sides"]:
            for k1, k2, s1, s2, delta in _flat_grid(ext, _flat_sources(n, side), "x1"):
                kp = _k_params(n, ext.m, ext.family.r, s1.k, s2.k)
                yield Case(kp, f"ip n={n} side={side} flat=({k1},{k2})",
                           _catalog(("B7",), kp, delta))


# ---------------------------------------------------------------------------
# Markov structure and identity checks
# ---------------------------------------------------------------------------

@_check("markov-cmi", count=100)
def _markov_cmi(p, rng):
    """Conditional mutual information of constructed Markov block states."""
    for _ in range(p["count"]):
        n = int(rng.integers(1, 3))
        classical = bool(rng.random() < 0.3)
        scn = make_markov_scenario(n, int(rng.integers(2, MARKOV_BLOCKS_MAX + 1)),
                                   seed=int(rng.integers(2 ** 31)),
                                   classical=classical)
        joint = markov_block_state(scn)
        alphabet = all_bit_vectors(n)
        dense = to_dense(joint, [(a, b) for a in alphabet for b in alphabet])
        cmi = conditional_mutual_information(
            dense, (len(alphabet), len(alphabet), joint.side_dim))
        yield Case(_k_params(n, 1, 0, 0.0, 0.0),
                   f"markov-cmi n={n} blocks={len(scn.weights)} side={joint.side_dim}",
                   [("cmi-zero", cmi, 0.0)])


def _random_output_groups(p, rng, m_max: int, dim_max: int, bound, with_sigma=False) -> list:
    """(m, dim, delta, bound value) per scenario of a random-state check, in draw order.

    Each of the ``p["count"]`` scenarios draws m and dim, a random cq-state
    with m-bit outputs on a dim-dimensional side register, kept only as its
    block stack and :func:`output_slots`, and, ``with_sigma``, a random
    density sigma.  Each (m, dim) group is then evaluated in one stacked
    pass: :func:`weak_distances` and ``bound(stacks, present, sigmas)``, with
    ``sigmas`` None unless ``with_sigma``.
    A group is evaluated early once its draws weigh BLOCK_BUDGET.  The
    kernels draw no random numbers, so every draw is where the per-scenario
    loop made it.
    """
    results, members, weights = [], {}, {}

    def flush(key):
        del weights[key]
        at, stacks, slots, sigmas = zip(*members.pop(key))
        padded, present = padded_stacks(list(zip(stacks, slots)), 1 << key[0])
        values = bound(padded, present, np.array(sigmas) if with_sigma else None)
        for i, delta, value in zip(at, weak_distances(padded, present).tolist(),
                                   values.tolist()):
            results[i] = key + (delta, value)

    for _ in range(p["count"]):
        m = int(rng.integers(1, m_max + 1))
        dim = int(rng.integers(1, dim_max + 1))
        state = _random_cq(m, dim, rng)
        sigma = random_density(dim, rng) if with_sigma else None
        members.setdefault((m, dim), []).append((len(results), state.stack,
                                                 output_slots(state), sigma))
        results.append(None)
        weights[m, dim] = weights.get((m, dim), 0) + (1 << 2 * m) * dim * dim
        if weights[m, dim] >= BLOCK_BUDGET:
            flush((m, dim))
    for key in list(members):
        flush(key)
    return results


@_check("measured-xor-random", count=1000, m_max=2, dim_max=3,
        choices={"m_max": ("m_max", range(1, MAX_FOURIER_BITS + 1)),    # the transform's cap
                 "dim_max": ("dim_max", range(1, 17))})     # m = 12, dim = 16: 3 s a scenario
def _measured_xor(p, rng):
    """Distance to uniform against the masked-bit measured bound.

    All scenarios are drawn and evaluated, each (m, dim) group in one stacked
    pass, before the first case, so its ``runtime_ms`` carries the batch's time.
    """
    for m, dim, delta, bound in _random_output_groups(
            p, rng, p["m_max"], p["dim_max"],
            lambda stacks, present, _: measured_xor_bounds(stacks, present)):
        yield Case(_k_params(m, m, 0, 0.0, 0.0), f"xor m={m} dim={dim}",
                   [("measured-xor", delta, bound)])


@_check("useful-prop-random", count=1000)
def _useful_prop(p, rng):
    """Squared distance against the Fourier-side bound for arbitrary sigma.

    Drawn and evaluated in (m, dim) groups as ``measured-xor-random`` is, so
    the first case's ``runtime_ms`` carries the batch's time.
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


@_check("pgm-commutation", count=200)
def _pgm_commutation(p, rng):
    """Measurement-then-relabel equals relabel-then-measurement, elementwise."""
    for _ in range(p["count"]):
        n_bits = int(rng.integers(1, 4))
        dim = int(rng.integers(2, 5))
        state = _random_cq(n_bits, dim, rng, min_support=2)
        out_bits = int(rng.integers(1, 3))
        table = {sym: index_to_bits(int(rng.integers(1 << out_bits)), out_bits)
                 for sym in state.symbols()}
        lhs = pgm(apply_classical_function(state, table.__getitem__))
        rhs = apply_classical_function(pgm(state), table.__getitem__)
        dev = float(np.max(np.abs(lhs.stack - rhs.stack)))
        yield Case(_k_params(n_bits, out_bits, 0, 0.0, 0.0),
                   f"pgm-commute n={n_bits} dim={dim} out={out_bits}",
                   [("channel-equality", dev, 0.0)], {"criterion_tol": 1e-10})


@_check("hmin-linear-drop", exhaustive_n=3, random_ns=(4, 5, 6), per_n=25,
        choices={"exhaustive_n": ("exhaustive_n", range(1, EXHAUSTIVE_N_MAX + 1)),
                 "random_ns": ("random_ns", range(1, SOURCE_N_MAX + 1))})
def _hmin_linear_drop(p, rng):
    """Entropy decrease under GF(2) maps bounded by the rank deficiency."""
    def case(state, memo, base, mat, label):
        n = mat.shape[0]
        # Maps with one kernel merge the inputs into the same cosets, so their
        # lifted stacks hold bitwise-equal blocks in another order and one
        # certificate serves them all: ``memo`` holds one solve per kernel.
        # x maps to the index of M x, which sorts as the bit tuple M x does.
        images = gf2_images(mat)
        kernel = np.flatnonzero(images == 0).tobytes()
        if kernel not in memo:
            memo[kernel] = h_min_cond(apply_classical_function(
                state, lambda x: int(images[bits_to_index(x)])))
        lifted = memo[kernel]
        r = n - gf2_rank(mat)
        return Case(_k_params(n, 1, min(r, n - 1), base.value, lifted.value),
                    f"linear-drop {label} n={n} r={r}",
                    [("rank-drop", (base.value - r) - lifted.value, ENTROPY_SLACK)],
                    {"converged": base.converged and lifted.converged})

    n = p["exhaustive_n"]
    states = [
        _random_cq(n, 2, rng, min_support=2),
        classical_state(make_flat_source(n, n - 1, "random", seed=int(rng.integers(2 ** 31)))),
    ]
    bases = [h_min_cond(s) for s in states]
    memos = [{}, {}]
    for mat_idx in range(1 << (n * n)):
        mat = np.array(index_to_bits(mat_idx, n * n), dtype=np.uint8).reshape(n, n)
        i = mat_idx % 2
        yield case(states[i], memos[i], bases[i], mat, "exhaustive")
    for n in p["random_ns"]:
        state = _random_cq(n, int(rng.integers(1, 4)), rng, min_support=2)
        base, memo = h_min_cond(state), {}
        for _ in range(p["per_n"]):
            mat = np.array(rng.integers(0, 2, size=(n, n)), dtype=np.uint8)
            yield case(state, memo, base, mat, "random")


@_check("hmin-le-h2", count=500)
def _hmin_le_h2(p, rng):
    """Min-entropy below collision entropy, relative and optimized."""
    for _ in range(p["count"]):
        n_bits = int(rng.integers(1, 4))
        dim = int(rng.integers(1, 4))
        state = _random_cq(n_bits, dim, rng)
        sigma = random_density(dim, rng) if dim > 1 else np.ones((1, 1), dtype=complex)
        rel_gap = h_min_rel(state, sigma) - h2_rel(state, sigma)
        hmin, h2 = h_min_cond(state), h2_cond(state)
        yield Case(_k_params(n_bits, 1, 0, 0.0, 0.0), f"entropy-order n={n_bits} dim={dim}",
                   [("relative", rel_gap, ENTROPY_SLACK),
                    ("optimized", hmin.value - h2.value, ENTROPY_SLACK)],
                   {"converged": hmin.converged and h2.converged})


@_check("one-two-norm", count=500)
def _one_two_norm(p, rng):
    """Trace distance bounded through the conjugated 2-distance."""
    for _ in range(p["count"]):
        dim_a = int(rng.integers(2, 5))
        dim_b = int(rng.integers(2, 5))
        rho = random_density(dim_a * dim_b, rng)
        sigma = random_density(dim_b, rng) * float(rng.uniform(0.5, 2.0))
        rho_b = partial_trace(rho, (dim_a, dim_b), keep=(1,))
        delta = trace_distance(rho, tensor(np.eye(dim_a) / dim_a, rho_b), check_trace=False)
        rhs = 0.5 * np.sqrt(dim_a * np.trace(sigma).real
                            * l2_distance_to_uniform(rho, dim_a, sigma))
        yield Case(_k_params(dim_a, 1, 0, 0.0, 0.0), f"one-two-norm dims=({dim_a},{dim_b})",
                   [("two-norm-rhs", delta, rhs)])


@_check("bound-ordering", count=10000)
def _bound_ordering(p, rng):
    """Pointwise comparison of the exact bound against the generic lifts."""
    for _ in range(p["count"]):
        while True:     # rejection-sample the regime where the exact bound is nontrivial
            n = int(rng.integers(2, 25))
            m = int(rng.integers(1, min(8, n) + 1))
            r = int(rng.integers(0, min(m, n - 1) + 1))
            k1 = float(rng.uniform(0, n))
            k2 = float(rng.uniform(0, n))
            if base_exponent(n, m, r, k1, k2) >= 0:
                break
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
    A check that evaluates a batch before yielding (a flat grid, a group of
    ``measured-xor-random`` or ``useful-prop-random``) charges the whole batch
    to the first case it yields, and the later cases of the batch take almost none.
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
