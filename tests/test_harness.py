import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import extraction_lab
from extraction_lab import entropies
from extraction_lab.cli import SCENARIO_FORMS
from extraction_lab.cq_states import CqState
from extraction_lab.entropies import h_min_cond, h_min_cond_many
from extraction_lab.harness import load_config, run_check, run_suite, write_reports
from extraction_lab.gf2 import gf2_images, gf2_matvec, index_to_bits
from extraction_lab.harness import checks, scenarios, suite
from extraction_lab.harness.checks import CHECK_IDS, CHECKS, resolve_params
from extraction_lab.harness.scenarios import (
    SIDE_PARAMS,
    _random_blocks,
    _random_cqs,
    _random_source,
    make_flat_source,
    make_markov_scenario,
    make_side_info,
)
from extraction_lab.harness.checks import BoundReport
from extraction_lab.harness.suite import CSV_COLUMNS, SuiteResult, _summarize, render_csv, render_json
from extraction_lab.cq_states import (
    apply_classical_function,
    check_blocks,
    check_unit_traces,
    markov_block_state,
)
from extraction_lab.operators import (
    hermitian_trace_norm,
    op_power,
    partial_trace,
    probability_vector,
    random_density,
)
from extraction_lab.xor_analysis import pgm_stacks
from conftest import random_cq_state


def test_make_flat_source():
    src = make_flat_source(3, 2)
    assert set(src) == {(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)}
    assert all(abs(p - 0.25) < 1e-12 for p in src.values())
    assert make_flat_source(3, 0) == {(0, 0, 0): 1.0}
    assert len(make_flat_source(4, 4)) == 16
    with pytest.raises(ValueError):
        make_flat_source(3, 4)
    with pytest.raises(ValueError):
        make_flat_source(3, 2, "bogus")
    a = make_flat_source(4, 2, "random", seed=5)
    b = make_flat_source(4, 2, "random", seed=5)
    assert a == b


def test_unseeded_random_flat_source_is_deterministic():
    # Without a seed the random support used to come from OS entropy.
    first = make_flat_source(6, 3, "random")
    assert all(make_flat_source(6, 3, "random") == first for _ in range(4))
    assert first == make_flat_source(6, 3, "random", seed=0)


def test_make_side_info_models():
    dist = make_flat_source(2, 2)
    trivial = make_side_info("trivial", dist)
    assert isinstance(trivial, CqState) and trivial.side_dim == 1
    assert h_min_cond(trivial).value == 2.0
    skewed = h_min_cond(make_side_info("trivial", {(0,): 0.3, (1,): 0.7}))
    assert (skewed.value, skewed.gap, skewed.iterations) == (-np.log2(0.7), 0.0, 0)

    leak = make_side_info("classical_leak", dist)
    assert abs(h_min_cond(leak).value - 1.0) < 1e-9        # parity of a uniform 2-bit source

    bb = make_side_info("bb84", make_flat_source(1, 1))
    assert abs(h_min_cond(bb).value - (-np.log2(0.5 + 0.5 / np.sqrt(2)))) < 1e-9

    rp = make_side_info("random_pure", dist, {"dim": 2}, seed=3)
    again = make_side_info("random_pure", dist, {"dim": 2}, seed=3)
    assert rp.stack.tobytes() == again.stack.tobytes()
    assert 0.0 <= h_min_cond(rp).value <= 2.0

    with pytest.raises(ValueError):
        make_side_info("nope", dist)


def test_building_scenarios_runs_no_solver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a scenario builder solved an entropy")

    monkeypatch.setattr(entropies, "_closed_form", refuse)
    monkeypatch.setattr(entropies, "_h_min_solver", refuse)
    dist = make_flat_source(3, 2)
    for model in SIDE_PARAMS:
        assert isinstance(make_side_info(model, dist), CqState)
    rng = np.random.default_rng(0)
    for _ in range(4):
        model, state = _random_source(3, rng)
        assert model in SIDE_PARAMS and isinstance(state, CqState)
    for classical in (False, True):
        scn = make_markov_scenario(2, 3, seed=5, classical=classical)
        assert all(isinstance(f, CqState) for pair in scn.factors for f in pair)


@pytest.mark.parametrize("model,params,match", [
    ("nope", {}, "unknown side-information model 'nope'"),
    ("markov_blocks", {}, "unknown side-information model"),
    ("trivial", {"dim": 2}, "unknown keys \\['dim'\\]; accepted: none$"),
    ("bb84", {"bitz": 2}, "unknown keys \\['bitz'\\]; accepted: bits"),
    ("bb84", {"bits": 1.0}, "'bits' must be of type int"),
    ("bb84", {"bits": 3}, "bits must be in 1..2, got 3"),
    ("bb84", {"bits": 0}, "bits must be in 1..2, got 0"),
    ("random_pure", {"dim": 5}, "side dimension must be in 2..4, got 5"),
    ("random_pure", {"dim": True}, "'dim' must be of type int"),
    ("classical_leak", {"leak": "last_bit"}, "unknown leak function 'last_bit'"),
])
def test_make_side_info_refuses(model, params, match):
    with pytest.raises(ValueError, match=match):
        make_side_info(model, make_flat_source(2, 2), params)


def test_bb84_refuses_more_bits_than_the_symbols_have():
    # This used to fail with "block for (0,) has shape (2, 2), expected side_dim 4".
    with pytest.raises(ValueError, match="bits 2 is above the symbol length 1"):
        make_side_info("bb84", make_flat_source(1, 1), {"bits": 2})
    assert make_side_info("bb84", make_flat_source(2, 1), {"bits": 2}).side_dim == 4


def test_markov_scenario_marginal_entropies():
    scn = make_markov_scenario(2, 2, seed=4)
    joint = markov_block_state(scn)
    m1 = apply_classical_function(joint, lambda s: s[0])
    res = h_min_cond(m1)
    assert 0.0 <= res.value <= 2.0


@pytest.mark.parametrize("check_id,small", [
    ("b1-exhaustive-flat", {"ns": [3], "ms": [1], "families": ["field"], "sides": ["trivial"]}),
    ("b1-quantum-product", {"count": 3, "n_max": 3}),
    ("b8-weak-quantum", {"count": 3}),
    ("b2-markov", {"count": 3, "n_max": 2}),
    ("ip-classical", {"ns": [2]}),
    ("markov-cmi", {"count": 3}),
    ("measured-xor-random", {"count": 5}),
    ("useful-prop-random", {"count": 5}),
    ("parseval-random", {"count": 5}),
    ("pgm-commutation", {"count": 5}),
    ("hmin-linear-drop", {"exhaustive_n": 2, "random_ns": [3], "per_n": 2}),
    ("hmin-le-h2", {"count": 5}),
    ("one-two-norm", {"count": 5}),
    ("bound-ordering", {"count": 20}),
])
def test_every_check_runs_and_passes(check_id, small):
    reports = run_check(check_id, {"params": small, "seed": 9})
    assert reports, check_id
    assert all(r.passed for r in reports), [r for r in reports if not r.passed][:3]
    for r in reports:
        assert r.check_id == check_id
        assert set(r.params) == {"n", "m", "r", "k1", "k2"}
    # These fields depend only on the PCG64 draws, so the digest pins each
    # check's draw order on any machine.
    drawn = [(r.bound_id, r.scenario, r.params["n"], r.params["m"], r.params["r"])
             for r in reports]
    assert hashlib.sha256(json.dumps(drawn).encode()).hexdigest() == DRAW_DIGESTS[check_id]


DRAW_DIGESTS = {
    "b1-exhaustive-flat": "3183a7151690ecd59a93ae4039b86f7cec35bcc8a867dc5369e78d23f446232f",
    "b1-quantum-product": "6b876f30fe292eacc7ffacbe9d096b726cb4f5919c88d0fb238658107a9170a1",
    "b8-weak-quantum": "b5413b3b1e3f10316e0a0c2e25d80b788a27cc691972db29c5160a1a61083031",
    "b2-markov": "07abf47e0085a91d3a5533503b33dd9573d3a386d6804860025b1e1a3287581f",
    "ip-classical": "3eb3ee0b3dba7440c7803a46dfbd68851ad363c2df83eab0943b0fa4ef1b3692",
    "markov-cmi": "40292ec4a63a0cf966c46d0a5e604d4b6dbcd052d9fefab7518e3b08514557b7",
    "measured-xor-random": "ca44a9ab7fade546ea3f34ea5f5d86653e06618c547e00762d6b392269fd9b56",
    "useful-prop-random": "6febc4b579214adfaee9821e1182050d24703f3ccc82b6c3647d5d7b9eb104ec",
    "parseval-random": "9d23d32c52ef5bfb5207e09e4f773fd8c26c3e76c5a1feaed8a5439c3b5226f1",
    "pgm-commutation": "c57b13ae2b1715c3b9fe578a5669a8b48789435fb975831bdf5cb92bb6c3829f",
    "hmin-linear-drop": "b9b8de448e918258d30d84cf35881ea3d22ffb60b97e244be79b76893c1b37e1",
    "hmin-le-h2": "a5047e21ec709edae46a3761c496342474b050b173c9e29910727997a42b7a78",
    "one-two-norm": "e8eba841a7c7e2c5e77ea7cba7c6373589b194b5ae4a8ba8ac2df2b009846f51",
    "bound-ordering": "9faab1bee4d25e87b6f6e043bebc0de55dd5a36050a20605139bbb3fc8a492c4",
}


def test_bound_ordering_entropy_draws_are_uniform_draws():
    # bound-ordering draws a block's k1 and k2 as n·random(B) with an array n;
    # uniform(0, n) computes 0.0 + n·random() from the same 64-bit words, so
    # both values and the generator state are bit for bit those of
    # uniform(0, n) with the array n.
    fast, uniform = np.random.default_rng(17), np.random.default_rng(17)
    for _ in range(20):
        n, m, r, k1, k2 = checks._ordering_block(fast)
        assert (n == uniform.integers(2, 25, size=checks.ORDERING_BLOCK)).all()
        assert (m == uniform.integers(1, np.minimum(8, n) + 1)).all()
        assert (r == uniform.integers(0, np.minimum(m, n - 1) + 1)).all()
        assert k1.tobytes() == uniform.uniform(0, n).tobytes()
        assert k2.tobytes() == uniform.uniform(0, n).tobytes()
    assert fast.bit_generator.state == uniform.bit_generator.state


@pytest.mark.parametrize("check_id,params,match", [
    ("bound-ordering", {"cout": 3}, "unknown keys \\['cout'\\]"),
    ("b1-exhaustive-flat", {"ns": 5}, "non-empty list"),
    ("b1-exhaustive-flat", {"ns": []}, "non-empty list"),
    ("b1-exhaustive-flat", {"ns": [3, "4"]}, "of type int"),
    ("b1-quantum-product", {"count": 0}, "positive"),
    ("b1-quantum-product", {"count": 2.0}, "of type int"),
    ("b1-quantum-product", {"count": True}, "of type int"),
    ("b1-quantum-product", {"strong_in": None}, "of type str"),
    ("hmin-linear-drop", {"random_ns": [4, -1]}, "random_ns must be in 1..11, got -1"),
    ("parseval-random", [("count", 3)], "must be an object"),
    ("b1-exhaustive-flat", {"bounds": ["B7"], "ms": [1, 2]}, "draws m up to 2"),
    ("b1-quantum-product", {"bounds": ["B7"], "m_max": 2, "n_max": 4}, "draws m up to 2"),
    ("b2-markov", {"bounds": ["B7"], "n_max": 3}, "draws m up to 2"),
    ("b1-exhaustive-flat", {"ns": [3, 4], "ms": [4]}, "smallest 'ns' entry 3, got 4"),
    ("ip-classical", {"ns": [2, 12]}, "ns must be in 1..11, got 12"),
    ("b1-exhaustive-flat", {"ns": [12], "ms": [1]}, "ns must be in 1..11, got 12"),
    ("hmin-linear-drop", {"exhaustive_n": 5}, "exhaustive_n must be in 1..4, got 5"),
    ("b1-quantum-product", {"n_max": 12}, "n_max must be in 1..11, got 12"),
    ("b8-weak-quantum", {"n_max": 30}, "n_max must be in 3..11, got 30"),
    ("b2-markov", {"n_max": 12}, "n_max must be in 1..11, got 12"),
    ("hmin-linear-drop", {"random_ns": [4, 30]}, "random_ns must be in 1..11, got 30"),
    ("measured-xor-random", {"m_max": 13}, "m_max must be in 1..12, got 13"),
    ("measured-xor-random", {"dim_max": 100000}, "dim_max must be in 1..16, got 100000"),
    ("b8-weak-quantum", {"n_max": 2}, "n_max must be in 3..11, got 2"),
])
def test_resolve_params_rejects(check_id, params, match):
    with pytest.raises(ValueError, match=match):
        resolve_params(check_id, params)
    with pytest.raises(ValueError, match=match):
        run_check(check_id, {"params": params})


def test_resolve_params_defaults_and_overrides():
    assert resolve_params("parseval-random", {}) == {"count": 100}
    got = resolve_params("b1-exhaustive-flat", {"ns": [3], "sides": ["trivial"]})
    assert got["ns"] == (3,) and got["sides"] == ("trivial",)
    assert got["ms"] == CHECKS["b1-exhaustive-flat"].defaults["ms"]
    assert resolve_params("ip-classical", {"ns": [11]})["ns"] == (11,)
    assert resolve_params("hmin-linear-drop", {"exhaustive_n": 4})["exhaustive_n"] == 4
    # Each size cap admits its own value; the checks are not run at these sizes.
    assert resolve_params("b1-quantum-product", {"n_max": 11})["n_max"] == 11
    assert resolve_params("b8-weak-quantum", {"n_max": 11})["n_max"] == 11
    assert resolve_params("b8-weak-quantum", {"n_max": 3})["n_max"] == 3
    assert resolve_params("b2-markov", {"n_max": 11})["n_max"] == 11
    assert resolve_params("hmin-linear-drop", {"random_ns": [11]})["random_ns"] == (11,)
    got = resolve_params("measured-xor-random", {"m_max": 12, "dim_max": 16})
    assert (got["m_max"], got["dim_max"]) == (12, 16)


def test_classical_flat_grids_pass_at_n_6_to_8():
    # The counted grids reach n = 6..8; the worst B1 ratio there is 0.8065.
    rows = []
    for n in (6, 7, 8):
        rows += run_check("b1-exhaustive-flat", {"params": {"ns": [n], "ms": [1, 3, n]}})
    ip = run_check("ip-classical", {"params": {"ns": [6, 7, 8]}})
    assert len(rows) == 2 * 2 * 3 * (49 + 64 + 81) and len(ip) == 2 * (49 + 64 + 81)
    assert all(r.passed for r in rows + ip)
    assert max(r.measured_delta / r.bound_epsilon for r in rows) == pytest.approx(0.8065, abs=1e-4)


@pytest.mark.parametrize("check_id,params", [
    ("b1-exhaustive-flat", {"bounds": ["B7"], "ms": [1], "ns": [2]}),
    ("b1-quantum-product", {"bounds": ["B7"], "m_max": 1, "n_max": 3, "count": 2}),
    ("b1-quantum-product", {"bounds": ["B7"], "n_min": 1, "n_max": 1, "count": 2}),
    ("b2-markov", {"bounds": ["B7"], "n_min": 1, "n_max": 1, "count": 2}),
])
def test_single_bit_bound_accepted_where_m_is_one(check_id, params):
    reports = run_check(check_id, {"params": params})
    assert reports and all(r.params["m"] == 1 and r.passed for r in reports)


def test_quantum_product_runs_with_one_bit_sources():
    # bb84 side information encodes min(2, n) leading bits, so n = 1 draws it too.
    reports = run_check("b1-quantum-product",
                        {"params": {"count": 40, "n_min": 1, "n_max": 1}, "seed": 3})
    assert len(reports) == 160 and all(r.passed for r in reports)
    assert {(r.params["n"], r.params["m"]) for r in reports} == {(1, 1)}
    assert any("bb84" in r.scenario for r in reports)


def test_unknown_family_kind_is_rejected():
    with pytest.raises(ValueError, match="unknown family kind"):
        run_check("b1-exhaustive-flat", {"params": {"families": ["feild"], "ns": [3]}})


def test_readme_lists_every_check_param():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for check_id, check in CHECKS.items():
        for key, default in check.defaults.items():
            shown = json.dumps(list(default) if isinstance(default, tuple) else default)
            assert f"| `{check_id}` | `{key}` | `{shown}` |" in readme, (check_id, key)


def test_run_check_deterministic_replay():
    a = run_check("b1-quantum-product", {"params": {"count": 4, "n_max": 3}, "seed": 13})
    b = run_check("b1-quantum-product", {"params": {"count": 4, "n_max": 3}, "seed": 13})
    assert [(r.scenario, r.measured_delta, r.bound_epsilon) for r in a] == \
           [(r.scenario, r.measured_delta, r.bound_epsilon) for r in b]
    c = run_check("b1-quantum-product", {"params": {"count": 4, "n_max": 3}, "seed": 14})
    assert [r.measured_delta for r in a] != [r.measured_delta for r in c]


def test_run_check_unknown_id():
    with pytest.raises(ValueError, match="unknown check id 'no-such-check'"):
        run_check("no-such-check", {})


def test_run_check_refuses_unknown_config_keys():
    for config in ({"repetitions": 2}, {"params": {"count": 3}, "sed": 1}):
        with pytest.raises(ValueError, match="unknown keys"):
            run_check("parseval-random", config)


@pytest.mark.parametrize("seed", [2.9, "5", True, -1])
def test_run_check_refuses_malformed_seeds(seed):
    # run_check used to run these as int(seed): seeds 2, 5, 1 and -1.
    with pytest.raises(ValueError, match="seed"):
        run_check("parseval-random", {"params": {"count": 3}, "seed": seed})


def test_readme_lists_every_scenario_key_and_side_param():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for form, (defaults, required) in SCENARIO_FORMS.items():
        for key, default in defaults.items():
            shown = "required" if key in required else f"`{json.dumps(default)}`"
            assert f"| `{form}` | `{key}` | {shown} |" in readme, (form, key)
    for model, params in SIDE_PARAMS.items():
        for key, default in params.items():
            assert f"| `{model}` | `{key}` | `{json.dumps(default)}` |" in readme, (model, key)


def test_load_config_builtin_and_file(tmp_path):
    cfg = load_config("quick")
    assert cfg["name"] == "quick" and cfg["checks"]
    for name in ("paper-table-1", "full"):
        assert load_config(name)["checks"]      # built-in suites pass validation too
    path = tmp_path / "custom.json"
    path.write_text(json.dumps({"checks": [
        {"id": "bound-ordering", "params": {"count": 10}, "seed": 3},
    ]}))
    cfg = load_config(str(path))
    assert cfg["name"] == "custom"
    with pytest.raises(ValueError):
        load_config("definitely-not-a-suite")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_config(str(bad))
    badid = tmp_path / "badid.json"
    badid.write_text(json.dumps({"checks": [{"id": "zzz"}]}))
    with pytest.raises(ValueError, match="unknown check id"):
        load_config(str(badid))


@pytest.mark.parametrize("config,match", [
    ({"checks": 5}, "'checks' list"),
    ({"checks": {"id": "parseval-random"}}, "'checks' list"),
    ({"checks": [{"id": "parseval-random", "sed": 3}]}, "unknown keys \\['sed'\\]"),
    ({"checks": [{"id": "parseval-random", "repetitions": 0}]}, "repetitions"),
    ({"checks": [{"id": "parseval-random", "repetitions": "2"}]}, "repetitions"),
    ({"checks": [{"id": "parseval-random", "seed": -1}]}, "seed"),
    ({"checks": [{"id": "parseval-random", "params": {"count": 0}}]}, "positive"),
    ({"checks": []}, "'checks' list: expected a non-empty list"),
    ({"checks": [{"id": "parseval-random"}], "name": 5}, "'name' must be of type str"),
    ({"checks": [{"params": {"count": 3}}]}, "missing keys \\['id'\\]"),
    ({"checks": [{"id": "parseval-random", "seed": 2.0}]}, "'seed' must be of type int"),
])
def test_load_config_rejects_malformed_entries(tmp_path, config, match):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    with pytest.raises(ValueError, match=match):
        load_config(str(path))


def test_run_suite_empty_and_reports(tmp_path):
    result = run_suite({"name": "empty", "checks": []}, seed=0)
    assert result.all_pass and result.reports == []
    json_path, csv_path = write_reports(result, tmp_path / "out")
    doc = json.loads(json_path.read_text())
    assert doc["all_pass"] is True and doc["reports"] == []
    assert csv_path.read_text().startswith("check_id,")


def test_suite_reports_deterministic(tmp_path):
    cfg = load_config("quick")
    r1 = run_suite(cfg, seed=7)
    r2 = run_suite(cfg, seed=7)
    assert render_json(r1) == render_json(r2)
    assert render_csv(r1).count("\n") == render_csv(r2).count("\n")
    assert "runtime_ms" not in render_json(r1)
    assert "runtime_ms" in render_csv(r1).splitlines()[0]
    r3 = run_suite(cfg, seed=8)
    assert render_json(r3) != render_json(r1)


def test_suite_runs_every_check_in_the_calling_thread(monkeypatch):
    # ``jobs`` selects nothing: every value runs the checks one after
    # another in the caller's thread and gives the same bytes.
    seen = []

    def wrapped(*args, **kwargs):
        seen.append(threading.get_ident())
        return run_check(*args, **kwargs)

    monkeypatch.setattr(suite, "run_check", wrapped)
    cfg = load_config("quick")
    texts = {render_json(run_suite(cfg, seed=3, jobs=k)) for k in (1, 2, 4)}
    assert len(texts) == 1
    assert seen == [threading.get_ident()] * (3 * len(cfg["checks"]))


@pytest.mark.parametrize("jobs", [0, -4, True])
def test_run_suite_refuses_jobs_below_one(jobs):
    with pytest.raises(ValueError, match="jobs must be an integer >= 1"):
        run_suite(load_config("quick"), jobs=jobs)


def _row(measured, epsilon, flags=None) -> BoundReport:
    return BoundReport("c", "B1", {}, measured, epsilon, 0.0, "s", flags or {})


def test_a_row_derives_its_verdict():
    edge = 0.25 + checks.PASS_TOL
    assert _row(edge, 0.25).passed
    assert not _row(math.nextafter(edge, math.inf), 0.25).passed
    assert not _row(NAN, 0.25).passed and not _row(0.0, NAN).passed
    verdict = _row(np.float64(0.1), np.float64(0.25)).passed
    assert type(verdict) is bool and verdict
    with pytest.raises(TypeError):
        BoundReport("c", "B1", {}, 0.0, 1.0, True, 0.0, "s", {})
    with pytest.raises(TypeError):
        BoundReport("c", "B1", {}, 0.0, 1.0, passed=True, runtime_ms=0.0, scenario="s", flags={})


def test_a_suite_result_derives_its_summary_and_verdict():
    reports = [_row(0.1, 0.25, {"converged": True}), _row(0.2, 0.25, {"converged": False})]
    result = SuiteResult("derived", 0, reports)
    assert result.summary == _summarize(reports) and result.all_pass is True
    failing = SuiteResult("derived", 0, reports + [_row(0.5, 0.25)])
    assert failing.summary["n_failed"] == 1 and failing.all_pass is False
    with pytest.raises(TypeError):
        SuiteResult("derived", 0, reports, True, _summarize(reports))
    with pytest.raises(TypeError):
        SuiteResult("derived", 0, reports, all_pass=True)


def test_check_ids_registry():
    assert "b1-exhaustive-flat" in CHECK_IDS
    assert len(CHECK_IDS) == 14
    # A check's own choices name its own params, and a check that takes
    # bounds says how wide its output can be, which the single-bit rule reads.
    for check in CHECKS.values():
        assert set(check.choices) <= set(check.defaults)
        assert (check.max_m is None) == ("bounds" not in check.defaults)


def test_maps_with_one_kernel_lift_to_the_same_blocks():
    # The premise of the hmin-linear-drop memo: every 3x3 GF(2) matrix with
    # a given kernel lifts a state to bitwise-equal blocks in another order.
    state = _random_cqs([(3, *_random_blocks(3, 2, np.random.default_rng(4), min_support=8))])[0]
    by_kernel: dict = {}
    for idx in range(1 << 9):
        mat = np.array(index_to_bits(idx, 9), dtype=np.uint8).reshape(3, 3)
        lifted = apply_classical_function(state, lambda x: gf2_matvec(mat, x))
        blocks = sorted(block.tobytes() for block in lifted.stack)
        kernel = np.flatnonzero(gf2_images(mat) == 0).tobytes()
        assert by_kernel.setdefault(kernel, blocks) == blocks
    assert len(by_kernel) == 16


def test_hmin_linear_drop_solves_once_per_kernel(monkeypatch):
    batches = _counting_solves(monkeypatch)
    reports = run_check("hmin-linear-drop",
                        {"params": {"exhaustive_n": 3, "random_ns": [4], "per_n": 6}, "seed": 2})
    assert len(reports) == 512 + 6 and all(r.passed for r in reports)
    # two exhaustive bases with at most 16 kernels each, one random base and its maps,
    # all in one batch
    assert len(batches) == 1 and len(batches[0]) <= 2 + 2 * 16 + 1 + 6


def _counting_solves(monkeypatch) -> list:
    """The batches of states that ``checks``, or ``h_min_markov_sources`` for it, passes
    to ``h_min_cond_many`` from now on, in call order."""
    batches = []

    def counting(states, *args, **kwargs):
        batches.append(list(states))
        return h_min_cond_many(states, *args, **kwargs)

    monkeypatch.setattr(checks, "h_min_cond_many", counting)
    monkeypatch.setattr(entropies, "h_min_cond_many", counting)
    return batches


def test_flat_sources_are_solved_once_across_families_and_ms(monkeypatch):
    batches = _counting_solves(monkeypatch)
    reports = run_check("b1-exhaustive-flat", {"params": {"ns": [3]}})
    assert len(reports) == 2 * 2 * 2 * 16 and all(r.passed for r in reports)
    # one batch per side, one solve per flat source: k = 0..3 under each of the two sides
    solved = [state for batch in batches for state in batch]
    assert len(batches) == 2 and len(solved) == 2 * 4
    assert len({(s.side_dim, s.stack.tobytes()) for s in solved}) == 8


@pytest.mark.parametrize("check_id,params", [
    ("b1-quantum-product", {"count": 6, "n_max": 4}),
    ("b8-weak-quantum", {"count": 6}),
    ("b2-markov", {"count": 6, "n_max": 3}),
])
def test_certified_entropies_are_solved_in_the_checks(monkeypatch, check_id, params):
    batches = _counting_solves(monkeypatch)
    reports = run_check(check_id, {"params": params, "seed": 4})
    scenarios = {r.scenario for r in reports}
    assert len(scenarios) == 6 and all(r.passed for r in reports)
    # two sources a scenario, or in b2-markov two factors a block
    sources = sum(int(s.split("blocks=")[1]) if "blocks=" in s else 1 for s in scenarios)
    assert len(batches) == 1 and len(batches[0]) == 2 * sources
    if check_id == "b2-markov":
        assert sources > 6 and max(state.side_dim for state in batches[0]) <= 2


def _one_two_norm_oracle(count: int, seed: int) -> list:
    """The per-scenario loop the grouped one-two-norm check replaced: (label, delta, rhs)."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(count):
        dim_a = int(rng.integers(2, 5))
        dim_b = int(rng.integers(2, 5))
        rho = random_density(dim_a * dim_b, rng)
        sigma = random_density(dim_b, rng) * float(rng.uniform(0.5, 2.0))
        rho_b = partial_trace(rho, (dim_a, dim_b), keep=(1,))
        centered = rho - np.kron(np.eye(dim_a) / dim_a, rho_b)
        delta = 0.5 * hermitian_trace_norm(centered)
        weight = np.kron(np.eye(dim_a), op_power(sigma, -0.25))
        conj = weight @ centered @ weight
        l2 = float(np.trace(conj @ conj).real)
        rhs = 0.5 * np.sqrt(dim_a * np.trace(sigma).real * l2)
        rows.append((f"one-two-norm dims=({dim_a},{dim_b})", delta.hex(), float(rhs).hex()))
    return rows


def test_one_two_norm_groups_match_the_per_scenario_loop(monkeypatch):
    want = _one_two_norm_oracle(300, 31)
    assert len({label for label, _, _ in want}) == 9      # every (dim_a, dim_b) cell
    for budget in (checks.BLOCK_BUDGET, 2000):      # one pass per cell, then early flushes
        monkeypatch.setattr(checks, "BLOCK_BUDGET", budget)
        reports = run_check("one-two-norm", {"params": {"count": 300}, "seed": 31})
        assert [(r.scenario.split(" ", 1)[1], r.measured_delta.hex(), r.bound_epsilon.hex())
                for r in reports] == want


def test_random_cq_matches_the_per_symbol_draw():
    # conftest's random_cq_state draws one conditional at a time, as the checks once did.
    for seed in range(12):
        ours, oracle = (np.random.default_rng(seed) for _ in range(2))
        for n_bits, dim in ((1, 1), (2, 3), (3, 2), (2, 4)):
            got = _random_cqs([(n_bits, *_random_blocks(n_bits, dim, ours))])[0]
            want = random_cq_state(n_bits, dim, oracle)
            assert got.symbols() == want.symbols()
            assert got.stack.tobytes() == want.stack.tobytes()
        assert ours.bit_generator.state == oracle.bit_generator.state


def test_random_state_checks_validate_every_draw(monkeypatch):
    seen = {"distributions": 0, "conditionals": 0, "states": 0}

    def distributions(values, *rest):
        seen["distributions"] += 1
        return probability_vector(values, *rest)

    def conditionals(traces, what, names=None):
        seen["conditionals"] += 1
        return check_unit_traces(traces, what, names)

    def states(stacks, present, names, normalized=False):
        assert normalized
        seen["states"] += len(stacks)
        return check_blocks(stacks, present, names, normalized)

    measured = []

    def elements(stacks, present):
        measured.append(len(stacks))
        return pgm_stacks(stacks, present)

    monkeypatch.setattr(scenarios, "probability_vector", distributions)
    monkeypatch.setattr(scenarios, "check_unit_traces", conditionals)
    monkeypatch.setattr(scenarios, "check_blocks", states)
    monkeypatch.setattr(checks, "pgm_stacks", elements)
    groups = {}     # a scenario's label names its group
    for check_id in ("measured-xor-random", "useful-prop-random", "pgm-commutation"):
        reports = run_check(check_id, {"params": {"count": 40}, "seed": 3})
        groups[check_id] = len({r.scenario.split(" ", 1)[1] for r in reports})
    # each distribution and state, and each (m, dim) or (n_bits, dim, out_bits)
    # group's conditionals at once
    assert seen == {"distributions": 120, "conditionals": sum(groups.values()), "states": 120}
    assert groups == {"measured-xor-random": 6, "useful-prop-random": 6, "pgm-commutation": 16}
    # pgm-commutation measures both sides of a group in two pgm_stacks calls of its size
    assert len(measured) == 2 * 16 and measured[::2] == measured[1::2]
    assert sum(measured) == 2 * 40


def test_weak_quantum_rows_carry_source_flags():
    reports = run_check("b8-weak-quantum", {"params": {"count": 4}, "seed": 9})
    assert all(set(r.flags) == {"converged1", "converged2"} for r in reports)


def test_summary_counts_unconverged_rows():
    def report(flags):
        return checks.BoundReport("c", "B1", {}, 0.0, 1.0, 0.0, "s", flags)

    rows = [report({}), report({"converged": True}), report({"converged": False}),
            report({"converged1": True, "converged2": False}), report({"criterion_tol": 1e-10})]
    summary = _summarize(rows)
    assert (summary["n_solver_rows"], summary["n_unconverged"]) == (3, 2)


# Every extractor-output path of the harness on one small config: the flat
# grids (strong x1 and x2), ip-classical, the weak output of b8-weak-quantum,
# the block outputs of b2-markov, and hmin-le-h2 for h2_cond.  The digest was
# taken with the per-pair output-state builders, before the output tables,
# re-taken when the barrier-method h_min_cond replaced the fixed point and
# b8-weak-quantum rows gained convergence flags, when the barrier started at
# the pretty-good measurement, when h2_cond became gap-certified and
# hmin-le-h2 rows gained convergence flags, when the guessing probability
# became exact for support rank k <= 2 or N <= 2 blocks, when a
# lockstep primal-dual solver replaced the barrier, when b2-markov's
# distances and entropies were composed from its blocks, and when its blocks'
# distances came from the strong product route.
OUTPUT_PATHS_CONFIG = {"checks": [
    {"id": "b1-exhaustive-flat",
     "params": {"ns": [3, 4], "ms": [1, 2], "families": ["field", "shift"],
                "sides": ["trivial", "classical_leak"]}},
    {"id": "b1-exhaustive-flat",
     "params": {"ns": [3], "ms": [2], "families": ["shift"], "sides": ["classical_leak"],
                "strong_in": "x2"}},
    {"id": "ip-classical", "params": {"ns": [2, 3]}},
    {"id": "b8-weak-quantum", "params": {"count": 6, "n_max": 4}},
    {"id": "b2-markov", "params": {"count": 8, "n_max": 3}},
    {"id": "hmin-le-h2", "params": {"count": 20}},
]}
OUTPUT_PATHS_DIGEST = "770574fdb0ab7b72a33551c80dc642b15414049ce949c743927b80e7588f0007"


def test_output_paths_report_digest(tmp_path):
    path = tmp_path / "output-paths.json"
    path.write_text(json.dumps(OUTPUT_PATHS_CONFIG))
    result = run_suite(load_config(str(path)), seed=5)
    assert len(result.reports) == 472 and result.all_pass
    assert hashlib.sha256(render_json(result).encode()).hexdigest() == OUTPUT_PATHS_DIGEST


# The rows of `verify --suite full --seed 7` that no other pinned digest
# reaches: b2-markov at n_max 8 (B2, B5, B10 and B11 at n = 4..8) and
# hmin-linear-drop, with full's params and the seeds that run_suite derives
# for them at positions 4 and 10.  Taken before the bound catalog became a table;
# re-taken when the guessing probability became exact for k <= 2 or N <= 2 and
# hmin-linear-drop's params took the scenario's r, when a lockstep
# primal-dual solver replaced the barrier, when b2-markov went from its
# dense joint state, at n_max 4, to its blocks, at n_max 8, and when its blocks'
# distances came from the strong product route.
FULL_ONLY_CONFIG = {"checks": [
    {"id": "b2-markov", "params": {"count": 40, "n_max": 8}, "seed": 7 * 1000003 + 4},
    {"id": "hmin-linear-drop", "params": {}, "seed": 7 * 1000003 + 10},
]}
FULL_ONLY_DIGEST = "de34554045496dab7877b2969a12139b8f19007006b307bdc01280427b86d09f"


def test_full_only_rows_report_digest():
    full = load_config("full")["checks"]
    for entry in FULL_ONLY_CONFIG["checks"]:
        pos = next(i for i, e in enumerate(full) if e["id"] == entry["id"])
        assert (full[pos]["params"], (7 * 1000003 + pos) & 0x7FFFFFFF) == \
            (entry["params"], entry["seed"])
    result = run_suite(FULL_ONLY_CONFIG, seed=0)
    assert len(result.reports) == 747 and result.all_pass
    assert hashlib.sha256(render_json(result).encode()).hexdigest() == FULL_ONLY_DIGEST


# The relabelling paths that the output digests above do not reach:
# pgm-commutation relabels a state and its PGM, measured-xor-random masks
# the output bits, and useful-prop-random tests the Fourier bound's kernel.
# The digest was taken with a hand-written sum over the PGM's elements and
# a Fourier bound that decomposed sigma twice; re-taken when pgm-commutation
# rows dropped an unread criterion_tol flag.
RELABEL_PATHS_CONFIG = {"checks": [
    {"id": "pgm-commutation", "params": {"count": 40}},
    {"id": "useful-prop-random", "params": {"count": 40}},
    {"id": "measured-xor-random", "params": {"count": 40}},
]}
RELABEL_PATHS_DIGEST = "7d67fb8fcd8186dc50d3e1edf7aab620d7b7885350b756fc7543ff91ad30e234"


def test_relabel_paths_report_digest():
    result = run_suite(RELABEL_PATHS_CONFIG, seed=3)
    assert len(result.reports) == 120 and result.all_pass
    assert hashlib.sha256(render_json(result).encode()).hexdigest() == RELABEL_PATHS_DIGEST


# sha256 of report.json for `verify --suite paper-table-1 --seed 42`.  A
# refactor keeps these bytes; a change that moves rows on purpose updates the
# digest and lists the moved rows in CHANGES.md.
PAPER_TABLE_1_DIGEST = "e56276981e4bcc20d7cb22f0a94cb9a99d6020fceb3608f83d572add52a59410"


def test_paper_table_1_report_digest():
    result = run_suite(load_config("paper-table-1"), seed=42)
    assert hashlib.sha256(render_json(result).encode()).hexdigest() == PAPER_TABLE_1_DIGEST


def _openblas() -> bool:
    return "openblas" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]


def _keyed_rows(report: dict) -> dict:
    rows = {(r["check_id"], r["scenario"], r["bound_id"]): r for r in report["reports"]}
    assert len(rows) == len(report["reports"])
    return rows


# The digests above hold for one BLAS kernel; the verdicts must not.  Another
# OpenBLAS kernel, or numpy without its AVX-512 paths (the stacked log2 of the
# entropies among them), moves the last bits of BLAS, LAPACK and ufunc
# results, and the certified entropies carry them into epsilon.  Under either,
# paper-table-1 must give the same rows and verdicts, every measured value
# within CROSS_KERNEL_MEASURED and every epsilon within CROSS_KERNEL_EPSILON.
CROSS_KERNEL_MEASURED = 1e-12
CROSS_KERNEL_EPSILON = 1e-9


@pytest.mark.parametrize("setting", [
    pytest.param({"OPENBLAS_CORETYPE": "Haswell"}, id="openblas-haswell",
                 marks=pytest.mark.skipif(not _openblas(), reason="numpy's BLAS is not OpenBLAS")),
    pytest.param({"NPY_DISABLE_CPU_FEATURES": "AVX512_ICL,AVX512_SPR,X86_V4"},
                 id="numpy-without-avx512"),
])
def test_paper_table_1_verdicts_hold_under_another_blas_kernel(tmp_path, setting):
    src = str(Path(extraction_lab.__file__).resolve().parents[1])
    env = {**os.environ, **setting,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-m", "extraction_lab.cli", "verify", "--suite",
                    "paper-table-1", "--seed", "42", "--out", str(tmp_path)],
                   env=env, check=True, capture_output=True)
    forced = _keyed_rows(json.loads((tmp_path / "report.json").read_text()))
    default = _keyed_rows(json.loads(render_json(run_suite(load_config("paper-table-1"),
                                                           seed=42))))
    assert forced.keys() == default.keys()
    for key, row in default.items():
        other = forced[key]
        assert other["pass"] == row["pass"], key
        assert abs(other["measured_delta"] - row["measured_delta"]) <= CROSS_KERNEL_MEASURED, key
        assert abs(other["bound_epsilon"] - row["bound_epsilon"]) <= CROSS_KERNEL_EPSILON, key


# Report emission.  render_json and render_csv spell the rows' scalars and
# flat dicts themselves; the oracles are the layouts they
# replace: json.dumps(doc, indent=2, sort_keys=True) of the whole report and
# one csv.writer row, with its own json.dumps of the flags, per report row.
def _stdlib_json(result) -> str:
    doc = {
        "schema_version": 1,
        "suite": result.name,
        "seed": result.seed,
        "all_pass": result.all_pass,
        "summary": result.summary,
        "reports": [{"check_id": r.check_id, "bound_id": r.bound_id, "params": r.params,
                     "measured_delta": r.measured_delta, "bound_epsilon": r.bound_epsilon,
                     "pass": r.passed, "scenario": r.scenario, "flags": r.flags}
                    for r in result.reports],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _stdlib_csv(result) -> str:
    # k1 and k2: a float (numpy.float64 included) by float.__repr__, None by repr.
    def k(value):
        return float.__repr__(value) if isinstance(value, float) else repr(value)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in result.reports:
        writer.writerow([
            r.check_id, r.bound_id,
            r.params.get("n"), r.params.get("m"), r.params.get("r"),
            k(r.params.get("k1")), k(r.params.get("k2")),
            repr(r.measured_delta), repr(r.bound_epsilon),
            r.passed, f"{r.runtime_ms:.3f}",
            r.scenario, json.dumps(r.flags, sort_keys=True),
        ])
    return buf.getvalue()


def _result(reports, name="edge") -> SuiteResult:
    return SuiteResult(name=name, seed=3, reports=reports)


NAN, INF = float("nan"), float("inf")
EDGE_LABELS = ['quote " and backslash \\', "new\nline, comma", "non-ASCII é ∞ 𝔽", ""]
EDGE_VALUES = [NAN, INF, -INF, -0.0, 0.0, 5e-324, 0.1, 1e300]
# 0.0 and -0.0, True, 1 and 1.0 are equal dict values spelled apart.
EDGE_FLAGS = [{}, {"converged": True}, {"converged": 1}, {"converged": 1.0},
              {"criterion_tol": 0.0}, {"criterion_tol": -0.0},
              {"converged1": True, "converged2": False, "criterion_tol": 1e-10,
               "why": None, "label": 'a "b" é'}]
EDGE_PARAMS = [{"n": 3, "m": 1, "r": 0, "k1": -0.0, "k2": np.float64(2.5)},
               {"n": 2, "m": 2, "r": 1, "k1": INF, "k2": NAN}, {}]


def _edge_reports() -> list:
    rows = []
    for i, measured in enumerate(EDGE_VALUES):
        for j, epsilon in enumerate(EDGE_VALUES):
            k = i * len(EDGE_VALUES) + j
            rows.append(BoundReport("edge-check", f"B{j}", EDGE_PARAMS[i % 3], measured, epsilon,
                                    0.25 * k,
                                    EDGE_LABELS[k % 4], EDGE_FLAGS[k % len(EDGE_FLAGS)]))
    return rows


def test_renderers_match_the_stdlib_on_a_suite():
    result = run_suite(load_config("quick"), seed=1)
    assert render_json(result) == _stdlib_json(result)
    assert render_csv(result) == _stdlib_csv(result)


def test_renderers_match_the_stdlib_on_edge_rows():
    for result in (_result(_edge_reports(), name='edge "suite" \\ é'), _result([])):
        assert render_json(result) == _stdlib_json(result)
        assert render_csv(result) == _stdlib_csv(result)


def test_csv_spells_a_numpy_float_param_as_a_number():
    # k2 = np.float64(2.5) used to come out as np.float64(2.5) under numpy 2.
    rows = list(csv.DictReader(io.StringIO(render_csv(_result(_edge_reports())))))
    assert {(row["k1"], row["k2"]) for row in rows} == {("-0.0", "2.5"), ("inf", "nan"),
                                                       ("None", "None")}


@pytest.mark.parametrize("params, flags", [
    ({"n": np.int64(3)}, {}),
    ({}, {"converged": np.bool_(True)}),
    ({"k1": 1j}, {}),
])
def test_render_json_refuses_what_json_dumps_refuses(params, flags):
    result = _result([BoundReport("c", "B1", params, 0.5, 1.0, 0.0, "s", flags)])
    with pytest.raises(TypeError):
        _stdlib_json(result)
    with pytest.raises(TypeError):
        render_json(result)


@pytest.mark.parametrize("params, flags", [({"ks": [1, 2]}, {}), ({}, {7: True})])
def test_render_json_refuses_rows_off_the_flat_shape(params, flags):
    # json.dumps would lay these out; no check builds them.
    result = SuiteResult("odd", 0, [BoundReport("c", "B1", params, 0.5, 1.0, 0.0, "s", flags)])
    with pytest.raises(TypeError):
        render_json(result)


_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=6),
                     st.floats(allow_nan=True, allow_infinity=True),
                     st.floats().map(np.float64))
_FLAT_DICTS = st.dictionaries(st.text(max_size=4), _SCALARS, max_size=4)
# A row's two numbers, which its verdict compares: ints stay within float range,
# since ε + PASS_TOL makes a float of ε.
_NUMBERS = st.one_of(st.booleans(), st.integers(-10 ** 300, 10 ** 300),
                     st.floats(allow_nan=True, allow_infinity=True),
                     st.floats().map(np.float64))


@settings(max_examples=60, deadline=None)
@given(pools=st.tuples(st.lists(_FLAT_DICTS, min_size=1, max_size=3),
                       st.lists(_FLAT_DICTS, min_size=1, max_size=3)),
       rows=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), _NUMBERS, _NUMBERS,
                               st.text(max_size=8)), max_size=8))
def test_render_json_matches_the_stdlib_on_random_rows(pools, rows):
    params, flags = pools
    reports = [BoundReport("c", "B1", params[p % len(params)], measured, epsilon, 0.0,
                           label, flags[f % len(flags)])
               for p, f, measured, epsilon, label in rows]
    # the summary's ratios of numpy floats may overflow to inf or be inf/inf
    with np.errstate(over="ignore", invalid="ignore"):
        result = SuiteResult(name="random", seed=0, reports=reports)
    assert render_json(result) == _stdlib_json(result)
    assert render_csv(result) == _stdlib_csv(result)


def test_rows_are_spelled_without_json_dumps(monkeypatch):
    result = run_suite(load_config("quick"), seed=1)
    calls = []
    dumps = json.dumps
    monkeypatch.setattr(json, "dumps", lambda *a, **k: calls.append(a) or dumps(*a, **k))
    render_json(result)
    assert len(calls) == 1      # the envelope: suite, seed, summary
    calls.clear()
    render_csv(result)
    assert calls == []


def _blank_runtimes(report_csv: str) -> str:
    rows = list(csv.reader(io.StringIO(report_csv)))
    column = rows[0].index("runtime_ms")
    for row in rows[1:]:
        row[column] = ""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


# sha256 of report.csv for `verify --suite paper-table-1 --seed 42` with the
# runtime_ms column blanked: the CSV's counterpart of PAPER_TABLE_1_DIGEST.
PAPER_TABLE_1_CSV_DIGEST = "b14b86e41c3cc1ebc5a81e5dd79defdc7e885011c9be061924a3f98d84170a81"


def test_paper_table_1_csv_digest():
    result = run_suite(load_config("paper-table-1"), seed=42)
    blanked = _blank_runtimes(render_csv(result))
    assert hashlib.sha256(blanked.encode()).hexdigest() == PAPER_TABLE_1_CSV_DIGEST
