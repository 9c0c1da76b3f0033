"""Command-line interface.

Subcommands:
  verify   run a verification suite and write JSON/CSV reports
  entropy  evaluate entropies of a scenario description
  extract  evaluate a deor family on one input pair
  family   build and save a matrix family
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

from .entropies import h2_cond, h_min_classical
from .extractors import deor_eval
from .gf2 import (
    build_field_family,
    build_shift_family,
    format_bits,
    parse_bits,
    parse_poly,
    read_family,
    save_family,
)
from .harness import load_config, run_suite, write_reports
from .harness.params import NATURALS, resolved
from .harness.scenarios import (
    MARKOV_BLOCKS_MAX,
    MARKOV_N_MAX,
    make_flat_source,
    make_side_info,
    markov_marginals,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="extraction-lab",
                                     description="two-source extraction verification lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True,
                          help="built-in suite name or path to a JSON config")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", required=True, help="output directory for reports")

    p_entropy = sub.add_parser("entropy", help="entropies of a scenario JSON")
    p_entropy.add_argument("--state", required=True, help="scenario description file")

    p_extract = sub.add_parser("extract", help="evaluate a family on one input pair")
    p_extract.add_argument("--family", required=True)
    p_extract.add_argument("--x", required=True, help="first input as a 0/1 string")
    p_extract.add_argument("--y", required=True, help="second input as a 0/1 string")

    p_family = sub.add_parser("family", help="build a matrix family")
    p_family.add_argument("--build", required=True, choices=["field", "shift"])
    p_family.add_argument("--n", type=int, required=True)
    p_family.add_argument("--m", type=int, required=True)
    p_family.add_argument("--poly", help="irreducible polynomial as a 0/1 string, field only")
    p_family.add_argument("--out", required=True)
    return parser


def _cmd_verify(args) -> int:
    config = load_config(args.suite)
    result = run_suite(config, seed=args.seed)
    json_path, csv_path = write_reports(result, args.out)
    # run_suite sorts the rows by check id
    for check_id, rows in itertools.groupby(result.reports, key=lambda r: r.check_id):
        passed = [r.passed for r in rows]
        ok, total = sum(passed), len(passed)
        print(f"{'pass' if ok == total else 'FAIL'}  {check_id}: {ok}/{total}")
    summary = result.summary
    print(f"unconverged rows: {summary['n_unconverged']}/{summary['n_solver_rows']}")
    print(f"reports: {json_path} {csv_path}")
    print("all checks passed" if result.all_pass else "FAILURES present")
    return 0 if result.all_pass else 1


# The forms of an `entropy` scenario, told apart by a "markov" or "dist" key:
# each form's keys with their defaults, and its required keys.  A markov
# scenario is {"markov": {...}}, that object holding the form's keys.
_SIDE_INFO = {"model": "trivial"}
SCENARIO_FORMS = {
    "flat": ({"n": 1, "k": 0, "support": "prefix", "seed": 0, "side_info": _SIDE_INFO}, ("n", "k")),
    "dist": ({"dist": {}, "seed": 0, "side_info": _SIDE_INFO}, ("dist",)),
    "markov": ({"n": 1, "blocks": 2, "seed": 0, "classical": False}, ("n",)),
}
# Each form's choices.  A flat source with bb84 side information takes 20–26 s
# at n = 16; the markov limits bound the joint state's size.
_NATURAL_KEYS = {"k": ("k", NATURALS), "seed": ("seed", NATURALS)}
_SCENARIO_CHOICES = {"flat": {**_NATURAL_KEYS, "n": ("n", range(1, 17))},
                     "dist": _NATURAL_KEYS,
                     "markov": {**_NATURAL_KEYS, "n": ("n", range(1, MARKOV_N_MAX + 1)),
                                "blocks": ("blocks", range(1, MARKOV_BLOCKS_MAX + 1))}}


def _probability(symbol: str, value) -> float:
    """A ``dist`` entry if it is a JSON number; a string or bool is refused, never coerced."""
    if type(value) not in (int, float):
        raise ValueError(f"dist: probability of {symbol!r} must be a number, got {value!r}")
    return float(value)


def _load_scenario(path: str) -> tuple[str, dict]:
    """The scenario's form and its keys, resolved against the form's defaults."""
    try:
        scenario = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"scenario file is not valid JSON: {exc}") from exc
    form = next((f for f in ("markov", "dist") if isinstance(scenario, dict) and f in scenario),
                "flat")
    if form == "markov":
        scenario = resolved("markov scenario", scenario, {"markov": {}})["markov"]
    defaults, required = SCENARIO_FORMS[form]
    return form, resolved(f"{form} scenario", scenario, defaults, _SCENARIO_CHOICES[form],
                          required)


def _cmd_entropy(args) -> int:
    form, scenario = _load_scenario(args.state)
    if form == "markov":
        joint, res1, res2 = markov_marginals(scenario["n"], scenario["blocks"], scenario["seed"],
                                             scenario["classical"])
        out = {
            "model": "markov_blocks",
            "side_dim": joint.side_dim,
            "h_min_cond_x1": res1.value,
            "h_min_cond_x2": res2.value,
            "converged": bool(res1.converged and res2.converged),
        }
        print(json.dumps(out, indent=2, sort_keys=True))
        return 0

    seed = scenario["seed"]
    if form == "dist":
        dist = {parse_bits(k): _probability(k, v) for k, v in scenario["dist"].items()}
        if len({len(sym) for sym in dist}) > 1:
            raise ValueError(f"dist symbols must all have one length, got {sorted(scenario['dist'])}")
    else:
        dist = make_flat_source(scenario["n"], scenario["k"], scenario["support"], seed=seed)
    side = dict(scenario["side_info"])
    source = make_side_info(side.pop("model", "trivial"), dist, side, seed=seed)
    hmin = source.hmin
    h2 = h2_cond(source.state)
    out = {
        "model": source.model,
        "side_dim": source.state.side_dim,
        "h_min_classical": h_min_classical(dist),
        "h_min_cond": hmin.value,
        "h_min_converged": bool(hmin.converged),
        "h2_cond": h2.value,
        "h2_converged": bool(h2.converged),
        "certified_k": source.k,
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _cmd_extract(args) -> int:
    family = read_family(args.family)
    x = parse_bits(args.x)
    y = parse_bits(args.y)
    print(format_bits(deor_eval(family, x, y)))
    return 0


def _cmd_family(args) -> int:
    if args.poly is not None and args.build != "field":
        raise ValueError(f"--poly is for --build field only, not --build {args.build}")
    if args.build == "field":
        poly = parse_poly(args.poly) if args.poly is not None else None
        family = build_field_family(args.n, args.m, poly)
    else:
        family = build_shift_family(args.n, args.m)
    save_family(family, args.out)
    print(f"wrote {args.build} family n={family.n} m={family.m} r={family.r} to {args.out}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "verify": _cmd_verify,
        "entropy": _cmd_entropy,
        "extract": _cmd_extract,
        "family": _cmd_family,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
