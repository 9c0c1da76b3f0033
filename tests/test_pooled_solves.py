"""One min-entropy solve per round: ``checks.run_checks`` answers the
:class:`checks.Solve` requests of every check of a round with one
``h_min_cond_many`` call, each check receiving its slice of the results.

``h_min_cond_many``'s results are each state's own solve, bit for bit, so
pooling moves no value: a suite's rows are each entry's rows run alone.
The structure tests hold the pooling itself (one solver call for the five
solving checks of paper-table-1), the charge of a pooled solve's time (once,
to one case) and the generator each check gets (built only once it draws).
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import extraction_lab
from extraction_lab import entropies
from extraction_lab.cq_states import CqState
from extraction_lab.harness import checks, load_config, run_check, run_suite, suite

# Two entries of one check, one with a seed of its own, around a check that solves nothing.
MIXED = {"checks": [
    {"id": "b1-quantum-product", "params": {"count": 12, "n_max": 4}},
    {"id": "parseval-random", "params": {"count": 5}},
    {"id": "b8-weak-quantum", "params": {"count": 8}},
    {"id": "b1-quantum-product", "params": {"count": 10, "n_max": 5}, "seed": 3},
    {"id": "b2-markov", "params": {"count": 8, "n_max": 3}},
]}
SRC = str(Path(extraction_lab.__file__).resolve().parents[1])
CLASSICAL_EXHAUSTIVE = Path(SRC).parent / "perfbench" / "configs" / "classical-exhaustive.json"


def _fields(reports) -> list:
    """Every field of each row but ``runtime_ms``, with each float by ``.hex()``."""
    def spelled(value):
        return value.hex() if type(value) is float else value

    return [(r.check_id, r.bound_id, {k: spelled(v) for k, v in r.params.items()},
             r.measured_delta.hex(), r.bound_epsilon.hex(), r.scenario, r.flags)
            for r in reports]


def _entry_by_entry(config: dict, seed: int) -> list:
    """The suite's rows as ``run_check`` gives them, one entry at a time, in the suite's order."""
    reports = []
    for pos, entry in enumerate(config["checks"]):
        reports += run_check(entry["id"], {
            "params": entry.get("params", {}),
            "seed": entry.get("seed", (seed * 1000003 + pos) & 0x7FFFFFFF)})
    return sorted(reports, key=suite._ROW_ORDER)


def test_a_suite_gives_each_entrys_own_rows():
    for config, seed in ((load_config("paper-table-1"), 42), (MIXED, 5)):
        pooled = run_suite(config, seed=seed).reports
        assert _fields(pooled) == _fields(_entry_by_entry(config, seed))
    assert sum(r.check_id == "b1-quantum-product" for r in pooled) == 4 * (12 + 10)


@pytest.mark.parametrize("check_id", checks.CHECK_IDS)
def test_a_check_that_solves_says_so(check_id):
    # run_checks runs the checks that solve first; each asks before its first case
    check = checks.CHECKS[check_id]
    small = {"count": 3, "ns": [2], "ms": [1], "random_ns": [3], "per_n": 2, "exhaustive_n": 2}
    entry = checks.resolve_entry({"id": check_id, "params": {
        k: v for k, v in small.items() if k in check.defaults}})
    first = next(check.cases(entry["params"], np.random.default_rng(0)))
    assert isinstance(first, checks.Solve) == check.solves
    assert sum(c.solves for c in checks.CHECKS.values()) == 6


def test_a_suite_reaches_the_solver_once_a_round(monkeypatch):
    rounds, solves = [], []
    answer, solver = checks._answered, entropies._h_min_solver
    monkeypatch.setattr(checks, "_answered",
                        lambda asked: rounds.append([run.check_id for run, _ in asked])
                        or answer(asked))
    monkeypatch.setattr(entropies, "_h_min_solver",
                        lambda states, iters: solves.append(len(states)) or solver(states, iters))
    run_suite(load_config("paper-table-1"), seed=42)
    # the solving checks ask in their first round, then end in the next; the others ask nothing
    assert rounds == [["b1-exhaustive-flat", "b1-quantum-product", "b8-weak-quantum",
                       "b2-markov", "ip-classical"], [], []]
    assert len(solves) == 1 and solves[0] > 0


def test_a_suite_reads_no_state_by_its_block_map(monkeypatch):
    # The checks read each state's stack and symbols.  A map of row views, built at
    # its first read, would add to what every state holds while the pooled solve waits.
    def refuse(state):
        raise AssertionError("a check read CqState.blocks")

    monkeypatch.setattr(CqState, "blocks", property(refuse))
    config = load_config("paper-table-1")
    config["checks"] = [*config["checks"],
                        {"id": "hmin-linear-drop", "params": {"random_ns": [4], "per_n": 3}}]
    assert run_suite(config, seed=42).all_pass


def test_a_pooled_solve_is_charged_to_one_case(monkeypatch):
    pause = 0.3
    kernel = checks.h_min_cond_many

    def slow(*args, **kwargs):
        time.sleep(pause)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(checks, "h_min_cond_many", slow)
    reports = checks.run_checks([{"id": "parseval-random", "params": {"count": 4}},
                                 {"id": "b8-weak-quantum", "params": {"count": 3}},
                                 {"id": "b1-quantum-product", "params": {"count": 3, "n_max": 3}}])
    # rows come entry by entry, though the solving checks ran first
    assert [r.check_id for r in reports] == (["parseval-random"] * 4 + ["b8-weak-quantum"] * 3
                                             + ["b1-quantum-product"] * 4 * 3)
    charged = {(r.check_id, r.scenario.split()[0]) for r in reports if r.runtime_ms >= pause * 1e3}
    assert charged == {("b8-weak-quantum", "s00000")}


# Run in a fresh interpreter, where nothing has imported numpy.random yet.
_LAZY_RNG = """
import sys

from extraction_lab.harness import checks, load_config, run_suite

run_suite(load_config(sys.argv[1]), seed=0)
assert "numpy.random" not in sys.modules, "a suite that draws nothing imported numpy.random"

import numpy as np

seen, check = [], checks.CHECKS["b1-quantum-product"]
checks.CHECKS["b1-quantum-product"] = check._replace(
    cases=lambda p, rng: seen.append(rng) or check.cases(p, rng))
config = {"params": {"count": 5, "n_max": 4}, "seed": 11}
lazy = checks.run_check("b1-quantum-product", config)
checks._LazyRng = np.random.default_rng
eager = checks.run_check("b1-quantum-product", config)
assert not isinstance(seen[0], np.random.Generator) and isinstance(seen[1], np.random.Generator)
assert seen[0].bit_generator.state == seen[1].bit_generator.state
assert seen[1].bit_generator.state != np.random.default_rng(11).bit_generator.state
assert [r[:5] + r[6:] for r in lazy] == [r[:5] + r[6:] for r in eager]
"""


def test_a_check_gets_its_generator_only_once_it_draws():
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", _LAZY_RNG, str(CLASSICAL_EXHAUSTIVE)],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
