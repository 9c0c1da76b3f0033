"""Suite execution and report emission.

A suite config is JSON of the form

    {"checks": [{"id": "...", "params": {...}, "seed": 7}],
     "name": "..."}

where ``name`` is optional (a config file's stem by default) and no other
top-level key is accepted.  Per-check seeds default to a value derived
from the global seed and the check's position, so one --seed reproduces
the whole run.  The JSON
report contains only deterministic fields (identical config + seed gives
byte-identical files); wall-clock timings go to the CSV report only.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .checks import resolve_entry, run_check
from .params import resolved

SCHEMA_VERSION = 1

SUITES: dict[str, dict] = {
    "quick": {
        "checks": [
            {"id": "b1-exhaustive-flat",
             "params": {"ns": [3], "ms": [1], "families": ["field"], "sides": ["trivial"]}},
            {"id": "parseval-random", "params": {"count": 20}},
            {"id": "bound-ordering", "params": {"count": 200}},
        ],
    },
    "paper-table-1": {
        "checks": [
            {"id": "b1-exhaustive-flat",
             "params": {"ns": [3], "ms": [1, 2], "families": ["field", "shift"],
                        "sides": ["trivial", "classical_leak"]}},
            {"id": "b1-quantum-product", "params": {"count": 40, "n_max": 4}},
            {"id": "b8-weak-quantum", "params": {"count": 20, "n_max": 4}},
            {"id": "b2-markov", "params": {"count": 24, "n_max": 3}},
            {"id": "markov-cmi", "params": {"count": 30}},
            {"id": "ip-classical", "params": {"ns": [2, 3]}},
            {"id": "measured-xor-random", "params": {"count": 150}},
            {"id": "useful-prop-random", "params": {"count": 150}},
            {"id": "bound-ordering", "params": {"count": 2000}},
        ],
    },
    "full": {
        "checks": [
            {"id": "parseval-random", "params": {"count": 100}},
            {"id": "b1-exhaustive-flat",
             "params": {"ns": [3, 4], "ms": [1, 2], "families": ["field", "shift"],
                        "sides": ["trivial", "classical_leak"]}},
            {"id": "b1-quantum-product", "params": {"count": 200, "n_max": 5}},
            {"id": "b8-weak-quantum", "params": {"count": 50}},
            {"id": "b2-markov", "params": {"count": 40, "n_max": 8}},
            {"id": "markov-cmi", "params": {"count": 100}},
            {"id": "ip-classical", "params": {"ns": [2, 3, 4]}},
            {"id": "measured-xor-random", "params": {"count": 1000}},
            {"id": "useful-prop-random", "params": {"count": 1000}},
            {"id": "pgm-commutation", "params": {"count": 200}},
            {"id": "hmin-linear-drop", "params": {}},
            {"id": "hmin-le-h2", "params": {"count": 500}},
            {"id": "one-two-norm", "params": {"count": 500}},
            {"id": "bound-ordering", "params": {"count": 10000}},
        ],
    },
}

SUITE_NAMES = tuple(sorted(SUITES))


def load_config(suite: str) -> dict:
    """Resolve a suite name or JSON config path to a validated config dict.

    Entries are checked with :func:`resolve_entry` but kept as given: an
    entry without a seed takes one derived from the suite seed.
    """
    if suite in SUITES:
        where, given, name = f"suite {suite!r}", SUITES[suite], suite
    else:
        path = Path(suite)
        if not path.exists():
            raise ValueError(f"unknown suite {suite!r} and no such config file; "
                             f"built-in suites: {', '.join(SUITE_NAMES)}")
        try:
            given = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
        where, name = f"config {path}", path.stem
    config = resolved(where, given, {"checks": ({},), "name": name}, required=("checks",))
    for entry in config["checks"]:
        resolve_entry(entry)
    return config


@dataclass(frozen=True)
class SuiteResult:
    """A suite's rows, sorted by (check_id, scenario, bound_id), and what follows from them."""

    name: str
    seed: int
    reports: list
    summary: dict = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "summary", _summarize(self.reports))

    @property
    def all_pass(self) -> bool:
        return self.summary["n_failed"] == 0


def run_suite(config: dict, seed: int = 0, jobs: int = 1) -> SuiteResult:
    """Run every check of ``config``, one after another.

    ``jobs`` selects nothing: it is accepted, and refused below 1 or when
    not an ``int``, only because perfbench's worker still passes it, until
    ROADMAP item 1 deletes it with the worker's argument.
    """
    if type(jobs) is not int or jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    reports = []
    for pos, entry in enumerate(config["checks"]):
        entry_seed = entry.get("seed", (seed * 1000003 + pos) & 0x7FFFFFFF)
        reports += run_check(entry["id"], {"params": entry.get("params", {}), "seed": entry_seed})
    reports.sort(key=lambda r: (r.check_id, r.scenario, r.bound_id))
    return SuiteResult(name=config.get("name", "custom"), seed=seed, reports=reports)


def _summarize(reports) -> dict:
    """Row counts and worst ratios.

    ``n_solver_rows`` counts rows carrying a solver convergence flag
    (``converged``, ``converged1``, ``converged2``) and ``n_unconverged``
    those with any such flag false.
    """
    ratios: dict[str, float] = {}
    failed = solved = unconverged = 0
    for r in reports:
        failed += not r.passed
        if r.bound_epsilon > 0:
            ratio = r.measured_delta / r.bound_epsilon
            ratios[r.bound_id] = max(ratios.get(r.bound_id, 0.0), ratio)
        flags = [v for k, v in r.flags.items()
                 if isinstance(k, str) and k.startswith("converged")]
        if flags:
            solved += 1
            unconverged += not all(flags)
    return {
        "n_reports": len(reports),
        "n_failed": failed,
        "n_solver_rows": solved,
        "n_unconverged": unconverged,
        "max_ratio_by_bound": {k: ratios[k] for k in sorted(ratios)},
    }


# The stdlib lays out the envelope; the rows, nearly all of the text, are
# formatted here, because json.dumps drops its C encoder once ``indent`` is
# set.  A row has one fixed shape: eight sorted keys, two of them flat dicts.
_ROW = ('    {\n      "bound_epsilon": %s,\n      "bound_id": %s,\n      "check_id": %s,\n'
        '      "flags": %s,\n      "measured_delta": %s,\n      "params": %s,\n'
        '      "pass": %s,\n      "scenario": %s\n    }')
_NO_ROWS = '\n  "reports": [],'
_INF = float("inf")


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


_SPELLINGS = {str: encode_basestring_ascii, int: int.__repr__, float: _float,
              bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def _scalar(value) -> str:
    """``value`` spelled as json.dumps spells it; TypeError for a non-scalar."""
    spell = _SPELLINGS.get(type(value))
    if spell is None:
        # subclasses, tested in the stdlib's order (bool and None have none)
        base = next((b for b in (str, int, float) if isinstance(value, b)), None)
        if base is None:
            raise TypeError(f"report values must be JSON scalars, got {type(value).__name__}")
        spell = _SPELLINGS[base]
    return spell(value)


def _flat_object(obj: dict, indent: int | None = None) -> str:
    """A dict of str keys and scalar values as ``json.dumps(obj, sort_keys=True)``
    lays it out: on one line, or, given ``indent``, in the ``indent=2``
    layout with its closing brace ``indent`` spaces in."""
    if not obj:
        return "{}"
    items = [encode_basestring_ascii(k) + ": " + _scalar(v) for k, v in sorted(obj.items())]
    if indent is None:
        return "{" + ", ".join(items) + "}"
    pad = "\n" + " " * (indent + 2)
    return "{" + pad + ("," + pad).join(items) + "\n" + " " * indent + "}"


def _row_texts(reports) -> list[str]:
    """Each row as json.dumps lays it out in the report.

    The rows of one case share their params and flags dicts and sit next
    to each other after the sort, so a case's dicts are spelled once.
    """
    texts = []
    params = flags = object()
    for r in reports:
        if r.params is not params:
            params, params_text = r.params, _flat_object(r.params, 6)
        if r.flags is not flags:
            flags, flags_text = r.flags, _flat_object(r.flags, 6)
        texts.append(_ROW % (_scalar(r.bound_epsilon), _scalar(r.bound_id),
                             _scalar(r.check_id), flags_text, _scalar(r.measured_delta),
                             params_text, _scalar(r.passed), _scalar(r.scenario)))
    return texts


def render_json(result: SuiteResult) -> str:
    """The report, byte for byte ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``.

    Row params and flags must be dicts of str keys and JSON scalars: any
    other row value raises TypeError.
    """
    head = json.dumps({
        "schema_version": SCHEMA_VERSION,
        "suite": result.name,
        "seed": result.seed,
        "all_pass": result.all_pass,
        "summary": result.summary,
        "reports": [],
    }, indent=2, sort_keys=True)
    if not result.reports:
        return head + "\n"
    before, _, after = head.partition(_NO_ROWS)
    rows = ",\n".join(_row_texts(result.reports))
    return before + '\n  "reports": [\n' + rows + "\n  ]," + after + "\n"


CSV_COLUMNS = ["check_id", "bound_id", "n", "m", "r", "k1", "k2",
               "measured_delta", "bound_epsilon", "pass", "runtime_ms",
               "scenario", "flags"]


def _csv_k(value) -> str:
    """A ``k1``/``k2`` cell: a float, ``numpy.float64`` included, by ``float.__repr__`` as
    report.json spells a finite one; anything else (``None`` for a missing key) by ``repr``."""
    return float.__repr__(value) if isinstance(value, float) else repr(value)


def _csv_rows(reports):
    params = flags = object()
    for r in reports:
        if r.params is not params:
            params = r.params
            case_columns = [params.get("n"), params.get("m"), params.get("r"),
                            _csv_k(params.get("k1")), _csv_k(params.get("k2"))]
        if r.flags is not flags:
            flags, flags_text = r.flags, _flat_object(r.flags)
        yield [r.check_id, r.bound_id, *case_columns, repr(r.measured_delta), repr(r.bound_epsilon),
               r.passed, f"{r.runtime_ms:.3f}", r.scenario, flags_text]


def render_csv(result: SuiteResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(_csv_rows(result.reports))
    return buf.getvalue()


def write_reports(result: SuiteResult, out_dir) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / "report.json"
    csv_path = out / "report.csv"
    json_path.write_text(render_json(result))
    csv_path.write_text(render_csv(result))
    return json_path, csv_path
