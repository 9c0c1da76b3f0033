import hashlib
import json
import time

import pytest

from extraction_lab import entropies
from extraction_lab.cli import main
from extraction_lab.gf2 import read_family
from extraction_lab.harness import suite


def test_family_build_and_extract(tmp_path, capsys):
    fam_path = tmp_path / "fam.txt"
    assert main(["family", "--build", "field", "--n", "3", "--m", "2",
                 "--out", str(fam_path)]) == 0
    fam = read_family(fam_path)
    assert (fam.n, fam.m, fam.r) == (3, 2, 0)
    capsys.readouterr()
    assert main(["extract", "--family", str(fam_path),
                 "--x", "100", "--y", "010"]) == 0
    assert capsys.readouterr().out.strip() == "01"


def test_family_shift_and_bad_args(tmp_path, capsys):
    out = tmp_path / "s.txt"
    assert main(["family", "--build", "shift", "--n", "4", "--m", "2",
                 "--out", str(out)]) == 0
    assert read_family(out).r == 1
    assert main(["family", "--build", "field", "--n", "2", "--m", "3",
                 "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err


def test_extract_missing_family(tmp_path, capsys):
    assert main(["extract", "--family", str(tmp_path / "none.txt"),
                 "--x", "1", "--y", "1"]) == 2


def test_extract_refuses_non_bits(tmp_path, capsys):
    fam_path = tmp_path / "fam.txt"
    assert main(["family", "--build", "shift", "--n", "2", "--m", "1",
                 "--out", str(fam_path)]) == 0
    assert main(["extract", "--family", str(fam_path), "--x", "21", "--y", "11"]) == 2
    assert "not a 0/1 string: '21'" in capsys.readouterr().err


def test_family_refuses_poly_without_field(tmp_path, capsys):
    # --poly used to be ignored: the shift family was written and the exit was 0.
    out = tmp_path / "s.txt"
    assert main(["family", "--build", "shift", "--n", "4", "--m", "2", "--poly", "10011",
                 "--out", str(out)]) == 2
    assert "error: --poly is for --build field only" in capsys.readouterr().err
    assert not out.exists()


def test_extract_refuses_a_mislabelled_poly(tmp_path, capsys):
    # A shift family labelled with poly 10011 used to load and extract, printing 11.
    fam_path, lie = tmp_path / "s.txt", tmp_path / "lie.txt"
    assert main(["family", "--build", "shift", "--n", "4", "--m", "2",
                 "--out", str(fam_path)]) == 0
    lie.write_text(fam_path.read_text().replace("4 2 1 -", "4 2 1 10011"))
    capsys.readouterr()
    assert main(["extract", "--family", str(lie), "--x", "1001", "--y", "0111"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: the matrices are not the powers of multiplication by x modulo poly 10011" \
        in captured.err


def test_family_degree_64_field_within_a_second(tmp_path, capsys):
    # Trial division took hours at degree 64; x^64 + x^4 + x^3 + x + 1 is irreducible.
    out = tmp_path / "f.txt"
    start = time.perf_counter()
    assert main(["family", "--build", "field", "--n", "64", "--m", "1",
                 "--poly", "1" + "0" * 59 + "11011", "--out", str(out)]) == 0
    assert time.perf_counter() - start < 1.0
    fam = read_family(out)
    assert (fam.n, fam.m, fam.r, fam.poly) == (64, 1, 0, (1 << 64) | 0b11011)


def test_entropy_flat_scenario(tmp_path, capsys):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(
        {"n": 2, "k": 2, "side_info": {"model": "classical_leak", "leak": "parity"}}))
    assert main(["entropy", "--state", str(scen)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["h_min_classical"] - 2.0) < 1e-12
    assert abs(out["h_min_cond"] - 1.0) < 1e-9
    assert out["h2_cond"] >= out["h_min_cond"] - 1e-9


def test_entropy_explicit_dist(tmp_path, capsys):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"dist": {"00": 0.5, "11": 0.5},
                                "side_info": {"model": "trivial"}}))
    assert main(["entropy", "--state", str(scen)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["h_min_cond"] - 1.0) < 1e-12


def test_entropy_markov_scenario(tmp_path, capsys):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"markov": {"n": 2, "blocks": 2, "seed": 5}}))
    assert main(["entropy", "--state", str(scen)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert 0.0 <= out["h_min_cond_x1"] <= 2.0
    assert 0.0 <= out["h_min_cond_x2"] <= 2.0


@pytest.mark.parametrize("scenario", [
    {"n": 3, "k": 2, "suport": "random", "side_info": {"model": "bb84", "bitz": 2}},
    {"n": 3, "k": 2, "side_info": {"model": "bb84", "bitz": 2}},
    {"n": 2, "k": 2, "side_info": {"model": "trivial", "dim": 2}},
    {"n": 2, "k": 2, "side_info": "bb84"},
    {"dist": {"00": 0.5, "11": 0.5}, "k": 1},
    {"markov": {"n": 2, "blockz": 3, "classical": "false"}},
    {"markov": {"n": 2, "classical": "false"}},
    {"markov": {"n": 2}, "seed": 3},
    [2, 2],
    {"n": 2.9, "k": 2, "seed": "5"},
    {"n": 3, "k": 2.0},
    {"n": 3, "k": 2, "seed": True},
    {"markov": {"n": 2, "blocks": 2.5}},
    {"dist": {"0": 0.5, "11": 0.5}},
    {"dist": {"00": "0.5", "11": 0.5}},
    {"n": 2, "k": 2, "side_info": {"model": "bb84", "bits": 1.7}},
    {"n": 2, "k": 2, "side_info": {"model": "random_pure", "dim": "3"}},
    {"n": 0, "k": 0, "side_info": {"model": "classical_leak", "leak": "first_bit"}},
    {"markov": {"n": 0}},
    {"n": 3},
    {"n": 3, "k": -1},
    {"n": 1, "k": 1, "side_info": {"model": "bb84", "bits": 2}},
    {"n": 2, "k": 2, "support": "sorted"},
    {"markov": {"blocks": 2}},
    {"markov": [2, 2]},
    {"n": 2, "k": 2, "side_info": {"model": "random_pure", "seed": 1}},
    {"n": 30, "k": 30},
    {"n": 17, "k": 17, "side_info": {"model": "bb84"}},
    {"markov": {"n": 12}},
    {"markov": {"n": 9}},
    {"markov": {"n": 1, "blocks": 4}},
    {"markov": {"n": 1, "blocks": 5000}},
])
def test_entropy_malformed_scenario_exits_2(tmp_path, capsys, scenario):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(scenario))
    assert main(["entropy", "--state", str(scen)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_entropy_names_the_missing_key(tmp_path, capsys):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"n": 3, "side_info": {"model": "bb84"}}))
    assert main(["entropy", "--state", str(scen)]) == 2
    assert capsys.readouterr().err == "error: flat scenario: missing keys ['k']\n"


def test_entropy_accepts_k_zero(tmp_path, capsys):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"n": 2, "k": 0, "side_info": {"model": "classical_leak"}}))
    assert main(["entropy", "--state", str(scen)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["h_min_classical"] == 0.0 and out["certified_k"] == 0.0


def test_entropy_solves_the_source_once(tmp_path, capsys, monkeypatch):
    runs = []
    solver = entropies._h_min_solver
    monkeypatch.setattr(entropies, "_h_min_solver",
                        lambda *args: runs.append(args) or solver(*args))
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"n": 3, "k": 2, "side_info": {"model": "bb84", "bits": 2}}))
    assert main(["entropy", "--state", str(scen)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(runs) == 1
    assert out["h_min_cond"] == out["certified_k"] and out["h_min_converged"]
    assert out["h2_converged"] and out["h2_cond"] >= out["h_min_cond"]


# sha256 of `entropy`'s stdout for one scenario of each form and of the two
# side-information models drawn by a seed: a change to the scenario builders
# or to where the CLI solves shows here as soon as it moves a byte.
ENTROPY_STDOUT_DIGESTS = [
    pytest.param({"n": 2, "k": 2, "side_info": {"model": "bb84", "bits": 2}},
                 "1d4614ff4c21a12f901d2202a66e0ca2ca26fcd720b2f9e465fe3d0da1f6edc9",
                 id="flat-bb84"),
    pytest.param({"dist": {"00": 0.4, "01": 0.1, "10": 0.3, "11": 0.2},
                  "side_info": {"model": "classical_leak", "leak": "first_bit"}},
                 "9a92116e465075fcce19a7f1c8e04932036f57640e7720746288eb7d8eac210d",
                 id="dist-classical_leak"),
    pytest.param({"markov": {"n": 2, "blocks": 3}},
                 "e816a2e4e6be3c29d47608d0a96272eefde823b4aea088d00f37fdadd2bf7468",
                 id="markov"),
    pytest.param({"n": 3, "k": 2, "support": "random",
                  "side_info": {"model": "random_pure", "dim": 3}},
                 "6da7d17461c9a0f7e5451404bc9d0eae8e01d293c1be2996aee304dda313be64",
                 id="flat-random_pure"),
]


@pytest.mark.parametrize("scenario,digest", ENTROPY_STDOUT_DIGESTS)
def test_entropy_stdout_digest(tmp_path, capsys, scenario, digest):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(scenario))
    assert main(["entropy", "--state", str(scen)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_entropy_bad_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{не json")
    assert main(["entropy", "--state", str(bad)]) == 2


def test_verify_quick_suite(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["verify", "--suite", "quick", "--seed", "1",
                 "--out", str(out_dir)]) == 0
    text = capsys.readouterr().out
    assert "all checks passed" in text
    doc = json.loads((out_dir / "report.json").read_text())
    assert doc["all_pass"] is True
    assert (out_dir / "report.csv").exists()


def test_verify_unknown_suite(tmp_path, capsys):
    assert main(["verify", "--suite", "nope", "--seed", "0",
                 "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_custom_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"checks": [
        {"id": "bound-ordering", "params": {"count": 25}},
        {"id": "parseval-random", "params": {"count": 5}},
    ]}))
    assert main(["verify", "--suite", str(cfg), "--seed", "3",
                 "--out", str(tmp_path / "o")]) == 0
    doc = json.loads((tmp_path / "o" / "report.json").read_text())
    assert doc["summary"]["n_reports"] == 55


def _after_a_valid_check(entry) -> dict:
    return {"checks": [{"id": "parseval-random"}, entry]}


@pytest.mark.parametrize("config", [
    {"checks": [{"id": "measured-xor-random", "params": {"cout": 3}}]},
    {"checks": [{"id": "b1-exhaustive-flat", "params": {"ns": 5}}]},
    {"checks": 5},
    {"checks": [{"id": "parseval-random", "params": {"count": 0}}]},
    _after_a_valid_check({"id": "b1-exhaustive-flat", "params": {"strong_in": "x3"}}),
    _after_a_valid_check({"id": "b1-quantum-product", "params": {"strong_in": "none"}}),
    _after_a_valid_check({"id": "b1-exhaustive-flat", "params": {"families": ["field", "feild"]}}),
    _after_a_valid_check({"id": "ip-classical", "params": {"sides": ["nosuch"]}}),
    _after_a_valid_check({"id": "b2-markov", "params": {"bounds": ["B2", "B99"]}}),
    _after_a_valid_check({"id": "b1-quantum-product", "params": {"n_min": 5, "n_max": 4}}),
    _after_a_valid_check({"id": "b2-markov", "params": {"n_max": 1}}),
    _after_a_valid_check({"id": "b8-weak-quantum", "params": {"n_max": 2}}),
    {"checks": [{"id": "parseval-random"}], "extra": 1},
    _after_a_valid_check({"id": "b1-exhaustive-flat", "params": {"bounds": ["B7"]}}),
    _after_a_valid_check({"id": "b1-quantum-product", "params": {"bounds": ["B1", "B7"]}}),
    _after_a_valid_check({"id": "b2-markov", "params": {"bounds": ["B7"]}}),
    _after_a_valid_check({"id": "b1-exhaustive-flat", "params": {"ns": [2], "ms": [3]}}),
    _after_a_valid_check({"id": "b1-exhaustive-flat", "params": {"ns": [3, 4], "ms": [4]}}),
    _after_a_valid_check({"id": "ip-classical", "params": {"ns": [12]}}),
    _after_a_valid_check({"id": "b1-exhaustive-flat", "params": {"ns": [12], "ms": [1]}}),
    _after_a_valid_check({"id": "hmin-linear-drop", "params": {"exhaustive_n": 5}}),
    {"checks": []},
    {"checks": [{"id": "parseval-random"}], "name": 5},
    _after_a_valid_check({"id": "parseval-random", "seed": 2.9}),
    _after_a_valid_check({"id": "parseval-random", "seed": "5"}),
    _after_a_valid_check({"id": "b1-quantum-product", "params": {"n_max": 12}}),
    _after_a_valid_check({"id": "b8-weak-quantum", "params": {"n_max": 12}}),
    _after_a_valid_check({"id": "b2-markov", "params": {"n_max": 12}}),
    _after_a_valid_check({"id": "hmin-linear-drop", "params": {"random_ns": [30]}}),
    _after_a_valid_check({"id": "measured-xor-random", "params": {"m_max": 13}}),
    _after_a_valid_check({"id": "measured-xor-random", "params": {"dim_max": 100000}}),
])
def test_verify_malformed_config_exits_2(tmp_path, capsys, monkeypatch, config):
    ran = []
    monkeypatch.setattr(suite, "run_checks", lambda *args: ran.append(args) or [])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["verify", "--suite", str(cfg), "--seed", "0",
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert ran == [] and not (tmp_path / "o").exists()


def test_verify_has_no_jobs_option(tmp_path, capsys):
    # verify runs its checks serially; argparse refuses the option with exit code 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "quick", "--seed", "0", "--jobs", "2",
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_verify_prints_unconverged_rows(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"checks": [
        {"id": "b1-quantum-product", "params": {"count": 6, "n_max": 3}},
        {"id": "parseval-random", "params": {"count": 3}},
    ]}))
    assert main(["verify", "--suite", str(cfg), "--seed", "5",
                 "--out", str(tmp_path / "o")]) == 0
    doc = json.loads((tmp_path / "o" / "report.json").read_text())
    solved = [r["flags"] for r in doc["reports"] if "converged1" in r["flags"]]
    bad = sum(not (f["converged1"] and f["converged2"]) for f in solved)
    assert len(solved) == 24
    assert (doc["summary"]["n_solver_rows"], doc["summary"]["n_unconverged"]) == (24, bad)
    assert f"unconverged rows: {bad}/24" in capsys.readouterr().out.splitlines()
